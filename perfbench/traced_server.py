"""Launch ``runner serve`` with the benchmark's layer wrappers installed.

    python3 perfbench/traced_server.py --trace-out FILE -- <serve flags>

Runs the ``serve`` entry point in this process under a
:class:`tracing.Tracer`; when the server stops (SIGINT), writes the
span aggregates and counts to ``FILE`` as one JSON object and the raw
spans beside it (``FILE`` with a ``.spans.jsonl.gz`` suffix).
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--trace-out", required=True, type=Path)
    parser.add_argument("serve_args", nargs=argparse.REMAINDER)
    args = parser.parse_args(argv)
    serve_args = [a for a in args.serve_args if a != "--"]

    from repro.service import frontend_cli
    from tracing import Tracer

    tracer = Tracer(f"wire-server-{os.getpid()}")
    with tracer.installed():
        status = frontend_cli.main(["serve", *serve_args])
    tracer.write(args.trace_out.with_suffix(".spans.jsonl.gz"))
    args.trace_out.write_text(
        json.dumps(
            {"spans": tracer.aggregate(), "counts": dict(tracer.counts)}
        ),
        encoding="utf-8",
    )
    return status


if __name__ == "__main__":
    sys.exit(main())
