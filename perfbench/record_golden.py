"""Record the reference outputs that run.py checks every operation against.

    python3 perfbench/record_golden.py

Runs each workload's operation once per distinct input, in this process, and
writes ``golden.json``.  The Betti grand total is cross-checked against
``singular_fiber_totals`` in the package fixtures, and the page facts must be
the same for every prime of the pages-sweep pool.  Rerun only when a change
is meant to alter an output, and say so in the change.
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

import run
import worker


def main() -> int:
    worker.load_package()
    from stabfold.cli import load_fixtures

    fiber = worker.op_fiber_betti({"epsilon": 0}, worker.field_of("fiber-betti", {}))
    if fiber["grand_total"] != load_fixtures()["singular_fiber_totals"]["4"]:
        raise SystemExit(f"eps=0 grand total {fiber['grand_total']} disagrees with fixtures")
    gl4 = worker.op_gl4_critical({}, worker.field_of("gl4-critical", {}))

    facts, digests = None, {}
    for p in run.PAGES_PRIMES:
        inp = {"p": p}
        out = worker.op_pages_sweep(inp, worker.field_of("pages-sweep", inp))
        digests[str(p)] = {block: rep.pop("sha256") for block, rep in out.items()}
        if facts not in (None, out):
            raise SystemExit(f"page facts at p={p} differ: {out} vs {facts}")
        facts = out

    golden = {
        "fiber-betti": {"0": fiber},
        "gl4-critical": gl4,
        "pages-sweep": {"p_invariant": facts, "sha256": digests},
    }
    path = Path(__file__).resolve().parent / "golden.json"
    path.write_text(json.dumps(golden, indent=1, sort_keys=True) + "\n")
    print(f"wrote {path}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
