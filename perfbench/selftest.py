"""Fast self-test of the benchmark itself (about half a minute).

    python3 perfbench/selftest.py
    python3 -m pytest -q perfbench/selftest.py

Checks that a run emits exactly the metrics BENCHMARK.json names, each with
its unit, that a wrong answer planted from outside (matrix_rank returning
rank + 1) is counted as a failed operation instead of passing, that times
are scaled by the speed the probes measured, and that the benchmark refuses
to run without the package source.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

import run  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
PLANT = f"import sys; sys.path.insert(0, {str(HERE)!r}); import selftest; selftest.planted_worker()"


def _bench(trace: int, cwd: Path = ROOT) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "pages-sweep", "--seed", "7",
         "--seconds", "1", "--trace", str(trace)],
        cwd=cwd, capture_output=True, text=True, timeout=170)


def _emitted(trace: int) -> dict:
    proc = _bench(trace)
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.strip().splitlines()
    result = json.loads(lines[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    assert any(line.startswith("failed_frac ") for line in lines[:-1])
    return result["metrics"]


def _declared(section: str) -> dict:
    return {m["name"]: m["unit"] for m in SPEC[section]}


def test_end_to_end_metrics_are_emitted_with_units():
    metrics = _emitted(0)
    assert {k: v["unit"] for k, v in metrics.items()} == _declared("end_to_end")
    assert all(v["value"] > 0 for v in metrics.values())


def test_per_layer_metrics_are_emitted_with_units():
    metrics = _emitted(1)
    assert {k: v["unit"] for k, v in metrics.items()} == _declared("per_layer")
    assert metrics["homology.matrix_rank.calls"]["value"] > 0
    assert metrics["pages.run_pages.rank_calls"]["value"] > 0


def planted_worker():
    """worker.py, except that matrix_rank answers one more than the rank."""
    import worker

    worker.load_package()
    from stabfold import homology

    true_rank = homology.matrix_rank

    def wrong_rank(*args, **kwargs):
        return true_rank(*args, **kwargs) + 1

    for name, module in list(sys.modules.items()):
        if name.startswith("stabfold") and getattr(module, "matrix_rank", None) is true_rank:
            module.matrix_rank = wrong_rank
    sys.exit(worker.main(sys.argv[1:]))


def test_planted_wrong_rank_counts_as_failed():
    result, record = run.run("pages-sweep", 7, 1, False,
                             worker=[sys.executable, "-c", PLANT])
    assert result["failed"] / result["attempted"] > 0
    assert not result["correct"]
    assert all("error" in op for op in record["operations"])


def test_speedometer_scales_out_a_slow_core():
    import worker

    meter = worker.Speedometer()
    ref = worker.REFERENCE_NS
    # three ticks: 1 s at idle speed, then 1 s while probes take twice as long
    for before, probe_ns in ((0, ref), (10**9, ref), (3 * 10**9, 2 * ref)):
        meter.wall_before.append(before)
        meter.wall_after.append(before + probe_ns)
        meter.cpu_before.append(before)
        meter.cpu_after.append(before + probe_ns)
        meter.probe_ns.append(probe_ns)
    wall, cpu = meter.scaled(0, 2)
    idle = (10**9 - ref) + (2 * 10**9 - ref) / 1.5
    assert abs(wall - idle / 1e9) < 1e-9 and abs(cpu - idle / 1e9) < 1e-9
    assert meter.speed(0, 1) == 1.0


def test_refuses_to_run_without_the_package_source():
    run.OUT.mkdir(exist_ok=True)
    with tempfile.TemporaryDirectory(dir=run.OUT, prefix="bare-") as bare:
        shutil.copy(ROOT / "BENCHMARK.json", bare)
        shutil.copytree(HERE, Path(bare) / "perfbench",
                        ignore=shutil.ignore_patterns("out", "__pycache__"))
        proc = _bench(0, cwd=Path(bare))
    assert proc.returncode != 0
    assert proc.stdout.strip() == ""


if __name__ == "__main__":
    failures = 0
    for name, fn in list(globals().items()):
        if name.startswith("test_"):
            try:
                fn()
            except AssertionError as exc:
                failures += 1
                print(f"FAIL {name}: {exc}")
            else:
                print(f"PASS {name}")
    sys.exit(1 if failures else 0)
