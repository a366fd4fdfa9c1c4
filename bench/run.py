"""costap benchmark: end-to-end run metrics and per-layer spans.

One workload, in the form BENCHMARK.json declares:

    python3 bench/run.py --workload mc-demo --seed 3 --seconds 10 --trace 0

prints every metric as `name = value unit` and, as its last line, one
JSON object {"correct", "attempted", "failed", "metrics"}. `--trace 0`
times the workload with tracing off and reports the end-to-end metrics;
`--trace 1` runs a fixed set of trials untraced and then traced, and
reports the per-layer metrics, the tracing overhead and the layer size
ladder.

Every workload, both modes, each in a fresh process:

    python3 bench/run.py [--seed N] [--seconds S]

prints every metric with its unit, applies the correctness gate and
writes bench/results/BENCH_<workload>.json with the environment record.
See bench/README.md.
"""

from __future__ import annotations

import bootstrap

bootstrap.prepare()

import argparse  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402
from time import perf_counter  # noqa: E402

import numpy as np  # noqa: E402
import scipy  # noqa: E402

import costap  # noqa: E402
from costap import am_driver, harness_cli, waveform_solvers  # noqa: E402
from costap.radar_model import CovarianceBundle  # noqa: E402
from ladder import ladder_metrics, rung_name, run_ladder  # noqa: E402
from ladder import LAYERS as LADDER_LAYERS  # noqa: E402
from tracer import Tracer  # noqa: E402
from workloads import WORKLOADS, check, final_objectives, run_trials  # noqa: E402

bootstrap.check_source(costap)

BENCH = Path(__file__).resolve().parent
RESULTS = BENCH / "results"
SETUP_SAMPLES = 5
TAIL_BEYOND = 10
CHILD_TIMEOUT_S = 900

ROUTES = ("direct_update", "qcqp_solve", "sdp_dual_solve", "cls_solve")
DIAGNOSTICS = ("am_driver.full_objective", "am_driver.constraint_set_drift",
               "am_driver.hull_diameter", "am_driver.scale_solution",
               "radar_model.CovarianceBundle.clutter")

# End-to-end metrics: (name, unit, better). The first five are bounded
# in BENCHMARK.json; the gate figures below them can be 0 or follow the
# seed's start waveforms, so they are printed and recorded, not bounded.
END_TO_END = (
    ("setup_s", "s", "lower"),
    ("runs_per_s", "1/s", "higher"),
    ("run_s_p50", "s", "lower"),
    ("run_s_tail", "s", "lower"),
    ("peak_rss_mb", "MiB", "lower"),
)
GATE_METRICS = (
    ("fail_frac", "ratio", "lower"),
    ("equiv_violations", "count", "lower"),
    ("final_objective_mean", "objective", "lower"),
)

# Span name -> stats reported for it, in `<module>.<function>.<stat>` form.
SPAN_STATS = {
    "radar_model.build_bundle": ("self_s",),
    "radar_model.total_cov": ("calls", "self_s", "computed_bytes"),
    "radar_model.CovarianceBundle.clutter": ("calls", "self_s"),
    "radar_model.CovarianceBundle.hessian": ("calls", "self_s", "computed_bytes"),
    "receiver.mvdr_update": ("calls", "self_s"),
    **{f"waveform_solvers.{r}": ("calls", "self_s") for r in ROUTES},
    "waveform_solvers.sdp_certificate": ("calls", "self_s"),
    "matrix_ops.bisect_root": ("calls", "evals", "self_s"),
    "matrix_ops.hermitian_sqrt": ("calls", "self_s"),
    "am_driver.run": ("calls", "self_s"),
    **{name: ("calls", "self_s") for name in DIAGNOSTICS[:4]},
    "harness_cli.run_comparison": ("self_s",),
}
STAT_UNITS = {"calls": "count", "evals": "count", "self_s": "s", "computed_bytes": "B"}
DERIVED = (
    ("radar_model.rc_builds", "count", "lower"),
    ("waveform_solvers.active_frac", "ratio", "lower"),
    ("am_driver.diag_share", "ratio", "lower"),
    ("harness_cli.run_comparison.equiv_violations", "count", "lower"),
    ("bench.trace_overhead_s", "s", "lower"),
)
# Rungs that fit on the reference machine; larger ones are reported as skipped.
LADDER_RUNGS = tuple(rung_name(mnl, q) for q in (25, 200) for mnl in (320, 1280))


def per_layer_catalog() -> list[tuple[str, str, str]]:
    rows = [(f"{name}.{stat}", STAT_UNITS[stat], "lower")
            for name, stats in SPAN_STATS.items() for stat in stats]
    rows += list(DERIVED)
    for rung in LADDER_RUNGS:
        rows += [(f"ladder.{rung}.{layer}.s", "s", "lower") for layer in LADDER_LAYERS]
        rows.append((f"ladder.{rung}.peak_mb", "MiB", "lower"))
    return rows


def computed_bytes_per_call(cfg: costap.ScenarioConfig) -> dict[str, dict]:
    """Bytes the dense layers produce or read per call, from array shapes."""
    mnl, q = cfg.mnl, cfg.clutter.patches
    return {
        "radar_model.total_cov": {"bytes": mnl * mnl * 16, "formula": "MNL^2 * 16 B",
                                  "what": "dense complex128 R_u(s) result",
                                  "kind": "computed"},
        "radar_model.CovarianceBundle.hessian": {
            "bytes": q * mnl * cfg.N * 16, "formula": "Q * MNL * N * 16 B",
            "what": "complex128 clutter operator stack read to form F0",
            "kind": "computed"},
    }


# --- tracing -----------------------------------------------------------------

def _count_evals(span, args, kwargs):
    f = args[0]

    def counted(x):
        span.counts["evals"] = span.counts.get("evals", 0) + 1
        return f(x)
    return (counted, *args[1:]), kwargs


def _multiplier(span, solution):
    span.counts["active"] = int(solution.multiplier > 0.0)


# (owner, attribute as the caller looks it up, span name, prepare, observe)
TARGETS = (
    (am_driver, "build_bundle", "radar_model.build_bundle", None, None),
    (am_driver, "total_cov", "radar_model.total_cov", None, None),
    (am_driver, "mvdr_update", "receiver.mvdr_update", None, None),
    (am_driver, "full_objective", "am_driver.full_objective", None, None),
    (am_driver, "constraint_set_drift", "am_driver.constraint_set_drift", None, None),
    (am_driver, "hull_diameter", "am_driver.hull_diameter", None, None),
    (am_driver, "scale_solution", "am_driver.scale_solution", None, None),
    *((am_driver, r, f"waveform_solvers.{r}", None, _multiplier) for r in ROUTES),
    (waveform_solvers, "bisect_root", "matrix_ops.bisect_root", _count_evals, None),
    (waveform_solvers, "hermitian_sqrt", "matrix_ops.hermitian_sqrt", None, None),
    (waveform_solvers, "sdp_certificate", "waveform_solvers.sdp_certificate", None, None),
    (CovarianceBundle, "hessian", "radar_model.CovarianceBundle.hessian", None, None),
    (CovarianceBundle, "clutter", "radar_model.CovarianceBundle.clutter", None, None),
    (harness_cli, "run", "am_driver.run", None, None),
    (harness_cli, "run_comparison", "harness_cli.run_comparison", None, None),
)
ORIGINALS = tuple(getattr(owner, attr) for owner, attr, *_ in TARGETS)


def install(tracer: Tracer) -> None:
    for owner, attr, name, prepare, observe in TARGETS:
        tracer.wrap(owner, attr, name, prepare, observe)


def assert_untraced() -> None:
    """Every traced attribute holds its original function again."""
    for (owner, attr, *_), original in zip(TARGETS, ORIGINALS):
        if getattr(owner, attr) is not original:
            raise RuntimeError(f"{owner.__name__}.{attr} is still wrapped")


def diag_share(tracer: Tracer) -> float:
    """Share of run time spent in per-iteration diagnostics.

    Counts diagnostic spans whose parent is a run (a diagnostic's own
    children, such as full_objective's total_cov, are inside it).
    """
    spans = tracer.spans
    runs = {i for i, s in enumerate(spans) if s.name == "am_driver.run"}
    diag = sum(s.duration for s in spans if s.name in DIAGNOSTICS and s.parent in runs)
    total = sum(spans[i].duration for i in runs)
    return diag / total if total else 0.0


# --- measurement -------------------------------------------------------------

def _timed_trials(workload, cfg, seed: int, trials: int):
    """Run the trials with only a clock around each `run` call.

    Returns (results, {route: [seconds per run]}, wall seconds), where a
    route is "<solver>[<lambda mode>]".
    """
    durations: dict[str, list[float]] = {}
    run = harness_cli.run

    def timed(cfg, solver, **kwargs):
        t0 = perf_counter()
        try:
            return run(cfg, solver, **kwargs)
        finally:
            route = f"{solver}[{kwargs.get('lambda_mode', 'root')}]"
            durations.setdefault(route, []).append(perf_counter() - t0)

    harness_cli.run = timed
    try:
        t0 = perf_counter()
        results = run_trials(workload, cfg, seed, trials)
        wall = perf_counter() - t0
    finally:
        harness_cli.run = run
    return results, durations, wall


def _warm_up(workload, cfg) -> None:
    """One short run per route: loads code paths and LAPACK kernels."""
    for solvers, mode in workload.experiments:
        for solver in solvers:
            try:
                costap.run(cfg, solver, max_iter=1, lambda_mode=mode, rescale=True)
            except costap.CostapError:
                pass  # the gate counts failures in the measured runs


def measure_setup(workload) -> list[float]:
    """Set-up seconds from fresh processes; the first, cold one is dropped."""
    cmd = [sys.executable, str(BENCH / "setup_probe.py"), workload.name]
    samples = []
    for i in range(SETUP_SAMPLES + 1):
        out = subprocess.run(cmd, capture_output=True, text=True, check=True,
                             timeout=120, cwd=bootstrap.ROOT)
        if i:
            samples.append(float(out.stdout.split()[-1]))
    return samples


def route_median(durations: dict[str, list[float]]) -> float:
    """Median seconds of one run, taken per route and averaged over routes.

    Every route runs once per trial, so this weighs them as the pooled
    median would; the pooled median of a balanced mix of routes with
    different speeds falls in the gap between two routes and jumps with
    their extreme runs.
    """
    return statistics.fmean(statistics.median(samples) for samples in durations.values())


def tail(samples: list[float]) -> tuple[float, float]:
    """Highest percentile with TAIL_BEYOND samples beyond it, and that percentile.

    Below 2 * TAIL_BEYOND + 1 samples no percentile above the median has
    that many samples beyond it; the upper quartile (p75) is reported
    instead. The maximum of a few runs of equal work measures only the
    slowest moment of the machine.
    """
    xs = sorted(samples)
    n = len(xs)
    if n > 2 * TAIL_BEYOND:
        return xs[n - TAIL_BEYOND - 1], 100.0 * (n - TAIL_BEYOND) / n
    if n == 1:
        return xs[0], 75.0
    return statistics.quantiles(xs, n=4)[2], 75.0


def measure_end_to_end(workload, seed: int, seconds: float) -> dict:
    cfg = workload.scenario()
    setup = measure_setup(workload)
    _warm_up(workload, cfg)
    trials = workload.trials_for(seconds)
    assert_untraced()
    results, durations, wall = _timed_trials(workload, cfg, seed, trials)
    peak_rss_mib = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    gate = check(workload, results)
    pooled = [t for samples in durations.values() for t in samples]
    tail_s, tail_pct = tail(pooled)
    metrics = {
        "setup_s": statistics.median(setup),
        "runs_per_s": len(pooled) / wall,
        "run_s_p50": route_median(durations),
        "run_s_tail": tail_s,
        "peak_rss_mb": peak_rss_mib,
        "fail_frac": gate.failed / gate.attempted,
        "equiv_violations": gate.equiv_violations or 0,
        "final_objective_mean": gate.final_objective_mean,
    }
    return {
        "cfg": cfg, "gate": gate, "metrics": metrics, "correct": gate.ok,
        "detail": {"trials": trials, "wall_s": wall, "setup_samples_s": setup,
                   "run_samples_s": durations,
                   "tail": {"percentile": tail_pct, "samples": len(pooled),
                            "beyond": sum(t > tail_s for t in pooled)}},
    }


def traced_trials(workload, cfg, seed: int, trials: int):
    """Run the trials inside one root span with every layer wrapped.

    Returns (tracer, results, wall seconds); the originals are back in
    place, and checked, when it returns or raises.
    """
    tracer = Tracer()
    install(tracer)
    try:
        t0 = perf_counter()
        results = tracer.call("bench.traced", run_trials, (workload, cfg, seed, trials))
        wall = perf_counter() - t0
    finally:
        tracer.restore()
    assert_untraced()
    return tracer, results, wall


def layer_metrics(tracer: Tracer, cfg, gate) -> dict:
    """Per-layer metrics from the spans of one traced set of trials."""
    summary = tracer.summary()
    empty = {"calls": 0, "self_s": 0.0}
    per_call = computed_bytes_per_call(cfg)
    metrics = {}
    for name, stats in SPAN_STATS.items():
        row = summary.get(name, empty)
        for stat in stats:
            if stat == "computed_bytes":
                metrics[f"{name}.{stat}"] = row["calls"] * per_call[name]["bytes"]
            else:
                metrics[f"{name}.{stat}"] = row.get(stat, 0)
    routes = [summary.get(f"waveform_solvers.{r}", empty) for r in ROUTES]
    solves = sum(r["calls"] for r in routes)
    metrics.update({
        "radar_model.rc_builds": (metrics["radar_model.total_cov.calls"]
                                  + metrics["radar_model.CovarianceBundle.clutter.calls"]),
        "waveform_solvers.active_frac": sum(r.get("active", 0) for r in routes) / solves if solves else 0.0,
        "am_driver.diag_share": diag_share(tracer),
        "harness_cli.run_comparison.equiv_violations": gate.equiv_violations or 0,
    })
    return metrics


def measure_traced(workload, seed: int) -> dict:
    cfg = workload.scenario()
    _warm_up(workload, cfg)
    trials = workload.trace_trials
    plain, _, plain_wall = _timed_trials(workload, cfg, seed, trials)
    tracer, traced, traced_wall = traced_trials(workload, cfg, seed, trials)
    rows = run_ladder(cfg, seed)
    gate = check(workload, traced)
    same = final_objectives(traced) == final_objectives(plain)
    metrics = layer_metrics(tracer, cfg, gate)
    metrics["bench.trace_overhead_s"] = traced_wall - plain_wall
    metrics.update(ladder_metrics(rows))
    summary = tracer.summary()
    runs = metrics["am_driver.run.calls"]
    return {
        "cfg": cfg, "gate": gate, "metrics": metrics, "correct": gate.ok and same,
        "detail": {
            "trials": trials,
            "traced_wall_s": traced_wall, "untraced_wall_s": plain_wall,
            "spans": len(tracer.spans),
            "tracing_changed_results": not same,
            "calls_per_run": {name: row["calls"] / runs for name, row in summary.items()} if runs else {},
            "summary": summary,
            "ladder": rows,
        },
    }


# --- reporting ---------------------------------------------------------------

def _git_commit() -> str:
    git = bootstrap.ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown (not a git checkout)"


def environment(cfg) -> dict:
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "blas_threads": {var: os.environ.get(var) for var in bootstrap.THREAD_VARS},
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "machine": platform.machine(),
        "git_commit": _git_commit(),
        "computed_bytes_per_call": computed_bytes_per_call(cfg),
    }


def units() -> dict[str, str]:
    return {name: unit for name, unit, _ in END_TO_END + GATE_METRICS + tuple(per_layer_catalog())}


def print_metrics(metrics: dict) -> None:
    unit = units()
    for name, value in metrics.items():
        print(f"{name} = {value!r} {unit.get(name, '')}".rstrip())


def run_one(args) -> int:
    workload = WORKLOADS[args.workload]
    if args.trace:
        out = measure_traced(workload, args.seed)
        names = [name for name, _, _ in per_layer_catalog()]
    else:
        out = measure_end_to_end(workload, args.seed, args.seconds)
        names = [name for name, _, _ in END_TO_END]
    gate, metrics = out["gate"], out["metrics"]
    unit = units()
    print_metrics(metrics)
    for reason in gate.reasons:
        print(f"gate: {reason}")
    if args.detail:
        detail = {
            "workload": workload.name, "why": workload.why, "seed": args.seed,
            "seconds": args.seconds, "trace": args.trace,
            "environment": environment(out["cfg"]),
            "metrics": {n: {"value": v, "unit": unit.get(n, "")} for n, v in metrics.items()},
            "gate": gate.as_dict(), "correct": out["correct"], **out["detail"],
        }
        Path(args.detail).write_text(json.dumps(detail, indent=1) + "\n")
    print(json.dumps({
        "correct": bool(out["correct"]),
        "attempted": gate.attempted,
        "failed": gate.failed,
        "metrics": {n: {"value": metrics[n], "unit": unit[n]} for n in names},
    }))
    return 0


def run_all(args) -> int:
    """Every workload in both modes, each in a fresh process."""
    RESULTS.mkdir(exist_ok=True)
    ok = True
    for name in WORKLOADS:
        record = {}
        for trace in (0, 1):
            detail_path = RESULTS / f"{name}.trace{trace}.json"
            cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", name,
                   "--seed", str(args.seed), "--seconds", str(args.seconds),
                   "--trace", str(trace), "--detail", str(detail_path)]
            proc = subprocess.run(cmd, capture_output=True, text=True,
                                  timeout=CHILD_TIMEOUT_S, cwd=bootstrap.ROOT)
            if proc.returncode != 0:
                print(proc.stdout + proc.stderr, file=sys.stderr)
                print(f"{name} trace={trace}: exited {proc.returncode}")
                ok = False
                continue
            record[trace] = json.loads(detail_path.read_text())
            detail_path.unlink()
        if len(record) < 2:
            continue
        plain, traced = record[0], record[1]
        print(f"\n== {name}: {plain['why']}")
        print(f"-- end to end (tracing off, {plain['trials']} trials, seed {args.seed})")
        print_metrics({k: v["value"] for k, v in plain["metrics"].items()})
        tail_info = plain["tail"]
        print(f"   run_s_tail is p{tail_info['percentile']:.1f} of {tail_info['samples']} runs")
        print(f"-- per layer (traced, {traced['trials']} trials)")
        print_metrics({k: v["value"] for k, v in traced["metrics"].items()})
        for row in traced["ladder"]:
            if "skipped" in row:
                print(f"ladder.{row['rung']} skipped: {row['skipped']}")
        for mode in (plain, traced):
            gate = mode["gate"]
            verdict = "pass" if mode["correct"] else "FAIL"
            print(f"gate (trace={mode['trace']}): {verdict}, {gate['failed']}/{gate['attempted']} "
                  f"runs failed, equiv_violations={gate['equiv_violations']}, "
                  f"ordering={gate['ordering']}")
            for reason in gate["reasons"]:
                print(f"   {reason}")
            ok = ok and mode["correct"]
        out_path = RESULTS / f"BENCH_{name}.json"
        out_path.write_text(json.dumps({
            "workload": name, "why": plain["why"], "seed": args.seed,
            "seconds": args.seconds, "environment": plain["environment"],
            "end_to_end": plain, "per_layer": traced,
        }, indent=1) + "\n")
        print(f"written {out_path.relative_to(bootstrap.ROOT)}")
    return 0 if ok else 1


def list_metrics() -> int:
    for kind, rows in (("end_to_end", END_TO_END), ("gate", GATE_METRICS),
                       ("per_layer", tuple(per_layer_catalog()))):
        for name, unit, better in rows:
            print(f"{kind} {name} {unit} {better}")
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=sorted(WORKLOADS),
                        help="one workload (default: every workload, both modes)")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=25.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--detail", metavar="PATH", help="write the full record as JSON")
    parser.add_argument("--list-metrics", action="store_true",
                        help="print every metric with its unit and direction")
    args = parser.parse_args(argv)
    if args.list_metrics:
        return list_metrics()
    if args.workload is None:
        return run_all(args)
    return run_one(args)


if __name__ == "__main__":
    sys.exit(main())
