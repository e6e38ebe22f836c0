"""Run the belllab CLI with every layer traced; spans go to a side file.

Usage: python bench/traced_cli.py <trace.json> <belllab arguments...>

Imports count as start-up, as in an untraced run: the root span
``cli.main`` opens only after ``belllab.cli`` is imported.
"""

import sys

from tracer import Tracer


def main() -> int:
    trace_path, argv = sys.argv[1], sys.argv[2:]
    import belllab.cli

    tracer = Tracer()
    tracer.install()
    try:
        with tracer.span("cli.main"):
            return belllab.cli.main(argv)
    finally:
        tracer.dump(trace_path)


if __name__ == "__main__":
    sys.exit(main())
