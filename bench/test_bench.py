"""Self-tests of the benchmark: tracer, counts, metric catalog, contract.

Run from the repository root with `python3 -m pytest -q bench/test_bench.py`.
"""

import json
import shutil
import subprocess
import sys

import pytest

import run as bench
from tracer import Tracer
from workloads import WORKLOADS, Workload, check

ROOT = bench.bootstrap.ROOT
TINY = Workload(name="tiny", why="test shape", experiments=((("am-direct", "qcqp", "sdp", "cls"), "root"),),
                trial_s=1.0, trace_trials=1, dims=(2, 3, 2), patches=4)

# Counts fixed by the shape of a run, not by its start waveform.
STRUCTURAL = (
    "radar_model.total_cov.calls", "radar_model.CovarianceBundle.clutter.calls",
    "radar_model.CovarianceBundle.hessian.calls", "radar_model.rc_builds",
    "receiver.mvdr_update.calls", "am_driver.run.calls",
    "am_driver.full_objective.calls", "am_driver.constraint_set_drift.calls",
    "am_driver.hull_diameter.calls", "am_driver.scale_solution.calls",
    "waveform_solvers.direct_update.calls", "waveform_solvers.qcqp_solve.calls",
    "waveform_solvers.sdp_dual_solve.calls", "waveform_solvers.cls_solve.calls",
    "waveform_solvers.sdp_certificate.calls", "matrix_ops.hermitian_sqrt.calls",
)

# Every metric the benchmark's specification names, with its unit.
NAMED = {
    "setup_s": "s", "runs_per_s": "1/s", "run_s_p50": "s", "run_s_tail": "s",
    "peak_rss_mb": "MiB", "fail_frac": "ratio", "equiv_violations": "count",
    "final_objective_mean": "objective",
    "radar_model.build_bundle.self_s": "s",
    "radar_model.total_cov.calls": "count", "radar_model.total_cov.self_s": "s",
    "radar_model.total_cov.computed_bytes": "B",
    "radar_model.CovarianceBundle.clutter.calls": "count",
    "radar_model.CovarianceBundle.clutter.self_s": "s",
    "radar_model.CovarianceBundle.hessian.calls": "count",
    "radar_model.CovarianceBundle.hessian.self_s": "s",
    "radar_model.CovarianceBundle.hessian.computed_bytes": "B",
    "receiver.mvdr_update.calls": "count", "receiver.mvdr_update.self_s": "s",
    **{f"waveform_solvers.{f}.{stat}": unit
       for f in ("direct_update", "qcqp_solve", "sdp_dual_solve", "cls_solve", "sdp_certificate")
       for stat, unit in (("calls", "count"), ("self_s", "s"))},
    "waveform_solvers.active_frac": "ratio",
    "matrix_ops.bisect_root.calls": "count", "matrix_ops.bisect_root.evals": "count",
    "matrix_ops.bisect_root.self_s": "s",
    "matrix_ops.hermitian_sqrt.calls": "count", "matrix_ops.hermitian_sqrt.self_s": "s",
    "am_driver.run.self_s": "s",
    **{f"am_driver.{f}.{stat}": unit
       for f in ("full_objective", "constraint_set_drift", "hull_diameter", "scale_solution")
       for stat, unit in (("calls", "count"), ("self_s", "s"))},
    "am_driver.diag_share": "ratio",
    "harness_cli.run_comparison.self_s": "s",
}


def _traced(workload, seed, trials=1):
    cfg = workload.scenario()
    tracer, results, wall = bench.traced_trials(workload, cfg, seed, trials)
    return tracer, bench.layer_metrics(tracer, cfg, check(workload, results)), wall


def test_spans_nest_and_self_times_add_up():
    tracer, _, wall = _traced(TINY, seed=3)
    spans = tracer.spans
    assert spans[0].name == "bench.traced" and spans[0].parent == -1
    assert all(s.parent >= 0 for s in spans[1:])
    for span in spans[1:]:
        parent = spans[span.parent]
        assert parent.start <= span.start <= span.end <= parent.end
    self_times = tracer.self_times()
    assert min(self_times) >= 0.0
    assert sum(self_times) == pytest.approx(spans[0].duration, rel=1e-9, abs=1e-9)
    assert spans[0].duration <= wall


def test_structural_counts_repeat_across_seeds():
    _, first, _ = _traced(TINY, seed=1)
    _, second, _ = _traced(TINY, seed=2)
    assert {k: first[k] for k in STRUCTURAL} == {k: second[k] for k in STRUCTURAL}
    assert first["am_driver.run.calls"] == 4


def test_demo_run_counts_and_idle_multiplier():
    _, metrics, _ = _traced(WORKLOADS["mc-demo"], seed=5)
    runs = metrics["am_driver.run.calls"]
    assert runs == 2
    # 20 iterations with rescaling: R_u is assembled 3 times per iteration
    # plus 3 at the start, and R_c once more per record.
    assert metrics["radar_model.total_cov.calls"] == 63 * runs
    assert metrics["radar_model.rc_builds"] == 84 * runs
    assert metrics["waveform_solvers.active_frac"] == 0.0


def test_long_code_keeps_the_power_bound_active():
    _, metrics, _ = _traced(WORKLOADS["long-code"], seed=5)
    assert metrics["waveform_solvers.active_frac"] >= 0.9
    assert metrics["matrix_ops.bisect_root.evals"] > metrics["matrix_ops.bisect_root.calls"] > 0


def test_restore_puts_originals_back():
    import costap.radar_model as radar_model

    tracer = Tracer()
    bench.install(tracer)
    with pytest.raises(RuntimeError):
        bench.assert_untraced()
    tracer.restore()
    bench.assert_untraced()
    assert "hessian" in vars(radar_model.CovarianceBundle)


def test_tail_percentile():
    assert bench.tail([float(i) for i in range(1, 41)]) == (30.0, 75.0)
    # Too few runs for 10 beyond any percentile above the median: the upper quartile.
    assert bench.tail([float(i) for i in range(1, 9)]) == (6.75, 75.0)
    assert bench.tail([2.0]) == (2.0, 75.0)


def test_list_metrics_names_every_specified_metric():
    out = subprocess.run([sys.executable, "bench/run.py", "--list-metrics"], cwd=ROOT,
                         capture_output=True, text=True, check=True, timeout=120)
    listed = {}
    for line in out.stdout.splitlines():
        _, name, unit, better = line.split()
        assert better in ("lower", "higher")
        listed[name] = unit
    for name, unit in NAMED.items():
        assert listed.get(name) == unit, name


def test_benchmark_json_matches_the_catalog():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert [(m["name"], m["unit"], m["better"]) for m in spec["end_to_end"]] == list(bench.END_TO_END)
    assert [(m["name"], m["unit"], m["better"]) for m in spec["per_layer"]] == bench.per_layer_catalog()
    assert {w["name"]: w["why"] for w in spec["workloads"]} == {w.name: w.why for w in WORKLOADS.values()}
    setup = next(m for m in spec["end_to_end"] if m["name"] == "setup_s")
    assert setup["bound"] == max(m["bound"] for m in spec["end_to_end"])


def test_refuses_to_run_without_the_source_tree(tmp_path):
    shutil.copytree(ROOT / "bench", tmp_path / "bench",
                    ignore=shutil.ignore_patterns("results", "__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    out = subprocess.run([sys.executable, "bench/run.py", "--workload", "mc-demo",
                          "--seed", "1", "--seconds", "1", "--trace", "0"],
                         cwd=tmp_path, capture_output=True, text=True, timeout=120)
    assert out.returncode != 0
    assert out.stdout == ""
