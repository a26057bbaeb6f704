"""Run the ruviz CLI with the benchmark's timing wrappers installed.

    python -X importtime bench/launch.py SPANS_FILE <ruviz arguments...>

Times the import of `ruviz.cli` as a span of its own, installs the wrappers
from `spans.py`, calls `ruviz.cli.main`, writes the spans to SPANS_FILE and
exits with the CLI's exit code.
"""

import sys
import time

_T0 = time.perf_counter()
import ruviz.cli  # noqa: E402

_T1 = time.perf_counter()

import spans  # noqa: E402


def main() -> int:
    spans_file, argv = sys.argv[1], sys.argv[2:]
    tracer = spans.Tracer()
    tracer.add("cli.import", _T0, _T1)
    tracer.install()
    try:
        return ruviz.cli.main(argv)
    finally:
        tracer.uninstall()
        tracer.write(spans_file)


if __name__ == "__main__":
    sys.exit(main())
