"""Run one ``sidelux`` command in this process with the tracer installed,
then write the tracer's report as JSON.

    python3 perfbench/launch.py REPORT.json full|phases -- <sidelux arguments>

``full`` wraps every traced function; ``phases`` only the once-per-command
spans the untraced runs need. The exit code is the command's.
"""

import json
import sys
from pathlib import Path

import sidelux.cli

from tracer import PHASES, TARGETS, Tracer


def main() -> int:
    report, mode, sep, *argv = sys.argv[1:]
    if sep != "--" or mode not in ("full", "phases"):
        raise SystemExit(__doc__)
    targets = TARGETS if mode == "full" else {k: TARGETS[k] for k in PHASES}
    tracer = Tracer(targets).install()
    try:
        return sidelux.cli.main(argv)
    finally:
        tracer.restore()
        Path(report).write_text(json.dumps(tracer.report()), encoding="utf-8")


if __name__ == "__main__":
    sys.exit(main())
