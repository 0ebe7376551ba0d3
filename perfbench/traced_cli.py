"""Run one artrip command with the timing wrappers installed.

    python3 perfbench/traced_cli.py SPAN_FILE COMMAND [FLAGS...]

Needs `src` on PYTHONPATH.  Writes the spans and counters to SPAN_FILE
as JSON and exits with the command's own exit code.
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

import spans
from artrip import cli


def main(argv: list[str]) -> int:
    span_file, *command = argv
    rec = spans.Recorder()
    with spans.Patched(rec):
        code = cli.main(command)
    Path(span_file).write_text(json.dumps({"spans": rec.rows(), "counters": rec.counters}))
    return code


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
