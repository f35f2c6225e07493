"""Repeat benchmark runs over several seeds and summarize every metric.

    python3 perfbench/sweep.py --workload pages-sweep --seeds 1-10 --seconds 25 --trace 0
    python3 perfbench/sweep.py ... --record     (also store it in baseline.json)

Each seed is a separate ``run.py`` process, as when the benchmark is driven
from outside.  For every metric it prints the median, the first and third
quartile (``statistics.quantiles(values, n=4)``) and the spread, the distance
between the quartiles as a share of the median.  ``--record`` adds the
summary to the sets kept in ``perfbench/baseline.json`` under the workload
and trace mode, with the machine's core count and the Python version, and
prints how far each metric's median moved from every earlier set.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
BASELINE = HERE / "baseline.json"


def seeds_of(text: str) -> list[int]:
    lo, _, hi = text.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def summarize(values: list[float]) -> dict:
    med = statistics.median(values)
    q1, _, q3 = statistics.quantiles(values, n=4)
    return {"median": med, "q1": q1, "q3": q3,
            "spread": (q3 - q1) / med if med else 0.0, "values": values}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seeds", default="1-10", help="inclusive range, e.g. 1-10")
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--record", action="store_true")
    args = parser.parse_args(argv)

    results = []
    for seed in seeds_of(args.seeds):
        proc = subprocess.run(
            [sys.executable, str(HERE / "run.py"), "--workload", args.workload,
             "--seed", str(seed), "--seconds", str(args.seconds), "--trace", str(args.trace)],
            capture_output=True, text=True, check=True)
        results.append(json.loads(proc.stdout.strip().splitlines()[-1]))
        print(f"seed {seed}: " + " ".join(
            f"{k}={v['value']:.6g}" for k, v in results[-1]["metrics"].items()
            if not args.trace or k.startswith("trace.")), flush=True)

    units = {k: v["unit"] for k, v in results[0]["metrics"].items()}
    summary = {
        "seeds": seeds_of(args.seeds),
        "seconds": args.seconds,
        "attempted": sum(r["attempted"] for r in results),
        "failed": sum(r["failed"] for r in results),
        "metrics": {k: {"unit": u, **summarize([r["metrics"][k]["value"] for r in results])}
                    for k, u in units.items()},
    }
    for k, m in summary["metrics"].items():
        print(f"{k:<40} median {m['median']:<12.6g} q1 {m['q1']:<12.6g} "
              f"q3 {m['q3']:<12.6g} spread {m['spread']:.4f} {m['unit']}")
    print(f"failed {summary['failed']} of {summary['attempted']} operations")

    if args.record:
        base = json.loads(BASELINE.read_text()) if BASELINE.exists() else {}
        base["machine"] = {"nproc": os.cpu_count(), "python": platform.python_version(),
                           "platform": platform.platform()}
        sets = base.setdefault("workloads", {}).setdefault(args.workload, {}).setdefault(
            f"trace{args.trace}", [])
        for i, old in enumerate(sets):
            print(f"median vs set {i + 1}: " + " ".join(
                f"{k}={m['median'] / old['metrics'][k]['median'] - 1:+.4f}"
                for k, m in summary["metrics"].items() if old["metrics"][k]["median"]))
        sets.append(summary)
        BASELINE.write_text(json.dumps(base, indent=1, sort_keys=True) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
