"""stabfold benchmark: time to a verified answer on three exact computations.

    python3 perfbench/run.py --workload fiber-betti --seed 1 --seconds 42 --trace 0

Closed loop, one client: operations run one after another, each in a fresh
interpreter (``worker.py``), so no module-level cache of stabfold
(``_FIELD_CACHE``, ``_PAIR_TABLES``, ``_CYCLOTOMIC_CACHE``) carries over.  The
first operation always runs; another starts only while it is expected, from
the median duration so far, to end within ``--seconds``.  Every operation's
output is checked against ``golden.json``; a mismatch, an exception or a
crashed worker counts as a failed operation and never stops the run.

``--trace 0`` reports the end-to-end metrics as medians over the run's
operations: wall time, CPU time, set-up time (process spawn until the
operation starts) and peak RSS.  The machine's other tenants slow every core
by up to 2x, in phases of seconds to minutes, which moved raw wall times by up
to 40% between runs of the same code.  So the times are reported scaled to an
idle core: the worker times a fixed piece of Python every 20 ms and scales
each interval by how much slower that piece ran than on an idle core
(``worker.Speedometer``).  The raw times are kept in the record of the run.

``--trace 1`` alternates plain and traced operations and reports the
per-layer metrics of ``tracing.py`` as medians over the traced operations,
plus the traced operations' median scaled wall time and its ratio to that of
the plain ones (the tracing overhead; one run holds only one or two of each,
so read it from the median over seeds in ``baseline.json``).  Spans
of traced operations and a record of every run (seed, inputs, outputs,
timings) are written under ``perfbench/out/``.

The last line of standard output is one JSON object: correct, attempted,
failed and metrics (name -> value and unit).
"""

from __future__ import annotations

import argparse
import json
import random
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = HERE / "out"
WORKER = [sys.executable, str(HERE / "worker.py")]

sys.path.insert(0, str(HERE))
from tracing import PER_LAYER  # noqa: E402

END_TO_END = {"wall_s": "s", "setup_s": "s", "cpu_s": "s", "peak_rss_mb": "MB"}
# fiber-betti: few large rank-only eliminations (matrix_rank is ~90% of it);
# gl4-critical: the only user of GF(p^2), retract, rref/reduce_against and cup
# products; pages-sweep: ~15k tiny eliminations per prime, so per-call overhead
# dominates.  The eps=1 fiber (~50 s an operation) is left out: it cannot fit
# the benchmark's time budget.
WORKLOADS = ("fiber-betti", "gl4-critical", "pages-sweep")
# pages-sweep draws its primes from here; the page tables are the same for all
PAGES_PRIMES = [p for p in range(19, 114) if all(p % q for q in range(2, p))]
DEADLINE_S = 170  # every worker is stopped before the run reaches this age


class WorkerError(RuntimeError):
    """A worker that exited abnormally or printed no result."""


def operation_inputs(workload: str, seed: int):
    """Endless stream of operation inputs; the seed only orders the primes."""
    if workload == "fiber-betti":
        while True:
            yield {"epsilon": 0}
    if workload == "gl4-critical":
        while True:
            yield {}
    rng = random.Random(seed)
    while True:
        order = list(PAGES_PRIMES)
        rng.shuffle(order)
        for p in order:
            yield {"p": p}


def spawn(spec: dict, worker: list[str], timeout: float) -> dict:
    """Run one worker; its result plus the set-up time seen from here."""
    t_spawn = time.monotonic_ns()
    proc = subprocess.run(worker + [json.dumps(spec)], cwd=ROOT, capture_output=True,
                          text=True, timeout=timeout)
    lines = proc.stdout.strip().splitlines()
    try:
        if proc.returncode != 0 or not lines:
            raise ValueError(f"exit code {proc.returncode}")
        result = json.loads(lines[-1])
    except ValueError as exc:
        raise WorkerError(f"worker failed ({exc}): {proc.stderr.strip()[-2000:]}") from None
    result["setup_s"] = (result["ready_ns"] - t_spawn) / 1e9
    result["setup_scaled_s"] = result["setup_s"] * result["setup_speed"]
    return result


def check(workload: str, inp: dict, output: dict, golden: dict) -> list[str]:
    """Fields of the output that differ from the recorded reference."""
    ref = golden[workload]
    if workload == "fiber-betti":
        expected = ref[str(inp["epsilon"])]
    elif workload == "gl4-critical":
        expected = ref
    else:
        expected = {block: {**facts, "sha256": ref["sha256"][str(inp["p"])][block]}
                    for block, facts in ref["p_invariant"].items()}
    return [k for k in sorted(set(expected) | set(output))
            if expected.get(k) != output.get(k)]


def run(workload: str, seed: int, seconds: float, trace: bool,
        worker: list[str] = WORKER) -> tuple[dict, dict]:
    """One benchmark run: the result object for the last line, and the record
    of the run (seed, inputs, per-operation timings, outputs and errors)."""
    golden = json.loads((HERE / "golden.json").read_text())
    OUT.mkdir(exist_ok=True)
    if trace:
        for old in OUT.glob(f"spans-{workload}-*.json"):
            old.unlink()
    started = time.monotonic()

    def remaining() -> float:
        return DEADLINE_S - (time.monotonic() - started)

    inputs = operation_inputs(workload, seed)
    ops, durations, setups = [], [], []
    window = time.monotonic()
    inp = next(inputs)
    while True:
        began = time.monotonic()
        traced = trace and len(ops) % 2 == 1
        spec = {"workload": workload, "input": inp, "trace": traced}
        if traced:
            spec["trace_file"] = str(OUT / f"spans-{workload}-{len(ops)}.json")
        op = {"input": inp, "traced": traced}
        try:
            result = spawn(spec, worker, remaining())
        except (WorkerError, subprocess.TimeoutExpired) as exc:
            op["error"] = str(exc)
        else:
            setups.append(result["setup_scaled_s"])
            op.update(result)
            if "output" in result:
                bad = check(workload, inp, result["output"], golden)
                if bad:
                    op["error"] = f"output differs from golden.json in {bad}"
        ops.append(op)
        now = time.monotonic()
        durations.append(now - began)
        # start another operation only if it should end within the window
        full = now - window + statistics.median(durations) > seconds
        if (full and (not trace or len(ops) >= 2)) or remaining() < 5:
            break
        inp = next(inputs)

    failed = sum(1 for r in ops if "error" in r)
    plain = [r for r in ops if "wall_s" in r and not r["traced"]]
    plain = [r for r in plain if "error" not in r] or plain  # time correct answers
    if trace:
        layered = [r for r in ops if "layers" in r]
        values = {k: statistics.median(r["layers"][k] for r in layered)
                  for k in PER_LAYER if not k.startswith("trace.")} if layered else {}
        if layered and plain:
            values["trace.wall_s"] = statistics.median(r["wall_scaled_s"] for r in layered)
            values["trace.overhead_ratio"] = values["trace.wall_s"] / statistics.median(
                r["wall_scaled_s"] for r in plain)
        units = PER_LAYER
    else:
        values = {"setup_s": statistics.median(setups)} if setups else {}
        if plain:
            for key, field in (("wall_s", "wall_scaled_s"), ("cpu_s", "cpu_scaled_s"),
                               ("peak_rss_mb", "peak_rss_mb")):
                values[key] = statistics.median(r[field] for r in plain)
        units = END_TO_END
    missing = [k for k in units if k not in values]
    if missing:  # no operation finished: nothing was measured
        raise WorkerError(f"no measurement for {missing}: {ops[-1].get('error')}")

    record = {"workload": workload, "seed": seed, "seconds": seconds, "trace": trace,
              "operations": ops}
    (OUT / f"run-{workload}-seed{seed}-trace{int(trace)}.json").write_text(
        json.dumps(record, indent=1))
    return {
        "correct": failed == 0,
        "attempted": len(ops),
        "failed": failed,
        "metrics": {k: {"value": values[k], "unit": u} for k, u in units.items()},
    }, record


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (ROOT / "src" / "stabfold" / "__init__.py").is_file():
        print(f"no stabfold source under {ROOT / 'src'}", file=sys.stderr)
        return 2
    try:
        result, record = run(args.workload, args.seed, args.seconds, bool(args.trace))
    except (WorkerError, subprocess.TimeoutExpired) as exc:
        print(f"benchmark cannot run: {exc}", file=sys.stderr)
        return 3
    print(f"# workload={args.workload} seed={args.seed} seconds={args.seconds} "
          f"trace={args.trace}")
    print("# inputs: " + json.dumps([r["input"] for r in record["operations"]]))
    for i, r in enumerate(record["operations"]):
        if "error" in r:
            print(f"# operation {i} failed: {r['error']}")
    walls = sorted(r["wall_s"] for r in record["operations"] if "wall_s" in r)
    if walls:
        print(f"# raw operation wall time over {len(walls)}: median "
              f"{statistics.median(walls):.6f} s, max {walls[-1]:.6f} s")
    for name, m in result["metrics"].items():
        print(f"{name:<40} {m['value']:>16.6f} {m['unit']}")
    print(f"{'failed_frac':<40} {result['failed'] / result['attempted']:>16.6f} fraction "
          f"({result['failed']} of {result['attempted']} operations)")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
