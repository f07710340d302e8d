"""Run one agcalc command under the tracer and dump its spans and counts.

Usage: python3 perfbench/trace_child.py DUMP_JSON ITEM_ID AGCALC_ARGS...

Stdout, stderr and the exit code are those of ``agcalc``; the dump holds the
tracer summary and the spans, for the parent benchmark process to merge.
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))

from tracer import Tracer  # noqa: E402


def main() -> int:
    dump, item_id, argv = Path(sys.argv[1]), int(sys.argv[2]), sys.argv[3:]
    import agcalc.cli

    tracer = Tracer()
    tracer.install()
    tracer.assert_covered()
    tracer.item = item_id
    try:
        return agcalc.cli.main(argv)
    finally:
        tracer.uninstall()
        dump.write_text(json.dumps({"summary": tracer.summary(), "spans": tracer.spans}),
                        encoding="utf-8")


if __name__ == "__main__":
    raise SystemExit(main())
