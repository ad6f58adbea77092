"""Traced stand-in for `python -m cobkit`, used by the traced cold_cli run.

    python3 perfbench/tracechild.py SPANS_FILE VERB [ARGS...]

Imports cobkit.cli exactly as `python -m cobkit` does, installs the span
recorder, runs the CLI on the given argv, writes the spans to SPANS_FILE
and exits with the CLI's exit code.
"""

import sys

import cobkit.cli

from spans import Recorder


def main() -> int:
    spans_file, argv = sys.argv[1], sys.argv[2:]
    rec = Recorder()
    rec.install()
    rec.current_op = 0
    try:
        return cobkit.cli.main(argv)
    finally:
        rec.write(spans_file)


if __name__ == "__main__":
    sys.exit(main())
