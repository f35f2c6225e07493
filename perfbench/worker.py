"""One benchmark operation in a fresh interpreter.

Usage (normally spawned by ``run.py``, one process per operation):

    python3 perfbench/worker.py '<json spec>'

The spec names the workload, the operation's input and whether to trace it.
The worker imports ``stabfold`` from the checkout's ``src/``, creates the
operation's field (set-up ends there), runs the operation, and prints one JSON
line: the monotonic time set-up ended, the operation's wall and CPU time, the
same times scaled to an idle core (``Speedometer``), the process's peak RSS, a
summary of the operation's output for ``run.py`` to check against
``golden.json``, and, when traced, the per-layer metrics.  Nothing is compared
here, so a wrong answer cannot hide in the timed code.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import os
import resource
import signal
import sys
import tempfile
import time
from array import array
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT = Path(__file__).resolve().parent / "out"


def load_package():
    """Import stabfold from this checkout's ``src/``, never from elsewhere."""
    sys.path.insert(0, str(SRC))
    import stabfold
    import stabfold.cli  # noqa: F401  (imports every layer the workloads use)

    if Path(stabfold.__file__).resolve().parent != SRC / "stabfold":
        raise ImportError(f"stabfold imported from {stabfold.__file__}, not {SRC}")
    return stabfold


def digest(obj) -> str:
    blob = json.dumps(obj, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(blob.encode()).hexdigest()


# -- workloads: set-up (field) and the timed operation ------------------------------
#
# Each op_* runs inside the timed region and returns a summary of its output
# for run.py to compare with golden.json.


def field_of(workload: str, inp: dict):
    from stabfold.gf import field_create

    if workload == "fiber-betti":
        return field_create(37)
    if workload == "gl4-critical":
        return field_create(13, 2)
    return field_create(inp["p"])


def op_fiber_betti(inp: dict, field) -> dict:
    from stabfold import cli

    # Every place a Betti cache could live (--cache-dir, STABFOLD_CACHE, the
    # default relative to the working directory) is one fresh, empty directory:
    # nothing can be read from it, and it must still be empty afterwards.
    OUT.mkdir(exist_ok=True)
    home = os.getcwd()
    with tempfile.TemporaryDirectory(dir=OUT, prefix="cache-") as cache:
        os.environ["STABFOLD_CACHE"] = cache
        os.chdir(cache)
        buf = io.StringIO()
        try:
            with contextlib.redirect_stdout(buf):
                code = cli.main([
                    "betti", "--lie", "ravenel", "--n", "4", "--p", "37",
                    "--epsilon", str(inp["epsilon"]), "--slow", "--no-cache",
                    "--cache-dir", cache, "--format", "json",
                ])
        finally:
            os.chdir(home)
        cache_untouched = os.listdir(cache) == []
    payload = json.loads(buf.getvalue())
    return {
        "exit_code": code,
        "cache_untouched": cache_untouched,
        "grand_total": payload["grand_total"],
        "betti_sha256": digest({k: payload[k] for k in
                                ("rows", "totals_by_degree", "grand_total", "csv")}),
    }


def op_gl4_critical(inp: dict, field) -> dict:
    from stabfold.homology import exterior_ring_check
    from stabfold.ravenel import build_gl, subcomplex
    from stabfold.retract import critical_model

    gl4 = build_gl(4, field, 13)
    model = critical_model(gl4)["model"]
    cc4 = subcomplex(gl4, "critical")
    bases = [cc4.basis(s) for s in range(17)]
    model_equal = all(model.basis(s) == bases[s] for s in range(17))
    ring = exterior_ring_check(cc4, [1, 3, 5, 7])
    return {
        "model_equals_critical": model_equal,
        "critical_dims": [len(b) for b in bases],
        "critical_sha256": digest(bases),
        "ring": {"holds": ring["holds"],
                 "generators": [list(g) for g in ring.get("generators", [])]},
    }


def op_pages_sweep(inp: dict, field) -> dict:
    from stabfold.pages import critical_block, filter_first_subscript, run_pages
    from stabfold.ravenel import build_gl

    fc = filter_first_subscript(build_gl(3, field, inp["p"]))
    out = {}
    for block, rep in (("critical", run_pages(critical_block(fc))),
                       ("full", run_pages(fc))):
        diffs = rep.nonzero_differentials()
        out[block] = {
            "collapse_page": rep.collapse_page,
            "nonzero_differentials": len(diffs),
            "differential_rank": sum(d[4] for d in diffs),
            "sha256": digest(rep.to_json()),
        }
    return out


OPERATIONS = {
    "fiber-betti": op_fiber_betti,
    "gl4-critical": op_gl4_critical,
    "pages-sweep": op_pages_sweep,
}

# How long ``probe`` takes on an idle core of the machine the baseline was
# recorded on (2 vCPUs, Python 3.11.7).  Scaled times are in seconds of that core.
REFERENCE_NS = 55_000
TICK_S = 0.02
PROBES = 3


def probe() -> int:
    """A fixed piece of pure-Python work (dict and integer operations), about
    55 us on an idle core."""
    d = {}
    for i in range(400):
        d[i] = (i * 7919) % 37
    s = 0
    for k, v in d.items():
        s += k * v % 37
    return s


class Speedometer:
    """Follows how fast this core runs Python code while the worker runs.

    The machine's other tenants slow every core by up to 2x, in phases of
    seconds to minutes, and a 10-20 s operation spans several of them.  Every
    TICK_S (SIGALRM, handled between bytecodes of the main thread) ``probe`` is
    timed.  Each interval between two ticks is scaled by REFERENCE_NS over the
    mean probe time at its ends, so a slow phase stretches the interval and its
    probes alike and the scaled time stays put, while a slower program takes
    longer at every speed of the core.  The probes take about 1% of the time.
    """

    def __init__(self):
        # per tick: wall and CPU clock (ns) before and after the probes, and
        # the fastest of PROBES probes (the first one runs on cold caches)
        self.wall_before, self.wall_after = array("q"), array("q")
        self.cpu_before, self.cpu_after = array("q"), array("q")
        self.probe_ns = array("q")

    def tick(self, *_signal) -> int:
        """Time the probes now; the index of this tick."""
        clock = time.perf_counter_ns
        self.wall_before.append(clock())
        self.cpu_before.append(time.process_time_ns())
        fastest = None
        for _ in range(PROBES):
            t = clock()
            probe()
            t = clock() - t
            fastest = t if fastest is None else min(fastest, t)
        self.probe_ns.append(fastest)
        self.wall_after.append(clock())
        self.cpu_after.append(time.process_time_ns())
        return len(self.wall_after) - 1

    def start(self) -> int:
        signal.signal(signal.SIGALRM, self.tick)
        signal.setitimer(signal.ITIMER_REAL, TICK_S, TICK_S)
        return self.tick()

    def stop(self) -> int:
        signal.setitimer(signal.ITIMER_REAL, 0)
        return self.tick()

    def scaled(self, first: int, last: int) -> tuple[float, float]:
        """Wall and CPU seconds from tick first to tick last, probes excluded,
        each interval scaled by REFERENCE_NS over its mean probe time."""
        wall = cpu = 0.0
        for i in range(first, last):
            scale = 2 * REFERENCE_NS / (self.probe_ns[i] + self.probe_ns[i + 1])
            wall += (self.wall_before[i + 1] - self.wall_after[i]) * scale
            cpu += (self.cpu_before[i + 1] - self.cpu_after[i]) * scale
        return wall / 1e9, cpu / 1e9

    def speed(self, first: int, last: int) -> float:
        """REFERENCE_NS over the mean probe time of ticks first to last."""
        probes = self.probe_ns[first:last + 1]
        return REFERENCE_NS * len(probes) / sum(probes)


def main(argv: list[str]) -> int:
    speedometer = Speedometer()
    started = speedometer.start()
    spec = json.loads(argv[0])
    workload, inp = spec["workload"], spec["input"]
    load_package()
    tracer = None
    if spec.get("trace"):
        from tracing import Tracer

        tracer = Tracer()
        tracer.install()
    field = field_of(workload, inp)
    ready = speedometer.tick()
    result = {"ready_ns": time.monotonic_ns(),
              "setup_speed": speedometer.speed(started, ready)}
    cpu0 = time.process_time()
    t0 = time.perf_counter()
    try:
        result["output"] = OPERATIONS[workload](inp, field)
    except Exception as exc:  # counted as a failed operation by run.py
        result["error"] = f"{type(exc).__name__}: {exc}"
    result["wall_s"] = time.perf_counter() - t0
    result["cpu_s"] = time.process_time() - cpu0
    done = speedometer.stop()
    result["wall_scaled_s"], result["cpu_scaled_s"] = speedometer.scaled(ready, done)
    if tracer is not None:
        result["layers"] = tracer.metrics()
        tracer.write(spec["trace_file"])
    result["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
