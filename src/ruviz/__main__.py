"""The process entry of `python -m ruviz` and the `ruviz` console script.

In-process callers (the library, `ruviz.cli.main`, tests) never run it and
keep the interpreter's usual life cycle.
"""

import contextlib
import gc
import os
import sys


def run() -> None:
    """Run the CLI on `sys.argv` and end the process with its exit code.

    The CLI is imported with the cyclic collector off, and the import heap,
    which lives until exit anyway, is frozen out of later collections. After
    the final flush, `os._exit` skips interpreter teardown and its full
    collection, so `atexit` handlers that other code registers do not run.
    argparse's `SystemExit` and an unexpected exception take the usual exit.
    An `OSError` from the final flush, such as a closed pipe, prints one
    `ruviz: ...` line and exits 1, the write-error code.
    """
    gc.disable()
    try:
        from .cli import NAME, _say, main
    finally:
        gc.freeze()
        gc.enable()
    code = main()
    try:
        sys.stdout.flush()
        sys.stderr.flush()
    except OSError as exc:
        code = 1
        with contextlib.suppress(OSError):  # stderr may be the stream that failed
            _say(f"{NAME}: {exc}")
    os._exit(code)


if __name__ == "__main__":
    run()
