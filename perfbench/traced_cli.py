"""Run the kerrsqueeze CLI once with its layers traced.

Usage: python perfbench/traced_cli.py SUMMARY_JSON CLI_ARGS...

Writes the span summary to SUMMARY_JSON, also when the CLI raises, and
exits with the CLI's exit code. ``src`` must be on PYTHONPATH.
"""

import json
import sys
from pathlib import Path

from kerrsqueeze import cli

from tracer import Tracer, installed


def main() -> int:
    summary_path, argv = Path(sys.argv[1]), sys.argv[2:]
    tracer = Tracer()
    try:
        with installed(tracer):
            return cli.main(argv)
    finally:
        summary_path.write_text(json.dumps(tracer.summary()))


if __name__ == "__main__":
    sys.exit(main())
