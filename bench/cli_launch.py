"""Run one ``eventnilm`` subcommand with the benchmark's spans installed.

    python3 bench/cli_launch.py --spans OUT.json --run ID -- SUBCOMMAND [ARGS...]

The subcommand runs exactly as ``python3 -m eventnilm.cli`` would run it; the
process exits with its exit code after writing its spans and counts to
OUT.json. ``eventnilm`` must be importable (the benchmark sets PYTHONPATH).
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

import spans


def main(argv: list[str]) -> int:
    if "--" not in argv:
        print(__doc__, file=sys.stderr)
        return 1
    sep = argv.index("--")
    opts = dict(zip(argv[:sep:2], argv[1:sep:2]))
    if set(opts) != {"--spans", "--run"}:
        print(__doc__, file=sys.stderr)
        return 1
    tracer = spans.Tracer(opts["--run"])
    with tracer.span("cli.import"):
        from eventnilm import cli
    with spans.installed(tracer):
        code = cli.main(argv[sep + 1 :])
    Path(opts["--spans"]).write_text(json.dumps(tracer.to_dict()), encoding="utf-8")
    return code


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
