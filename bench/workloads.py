"""The benchmark's workloads and its correctness gate.

Every workload is a Monte Carlo experiment driven through
`costap.harness_cli.run_comparison`: the program receives a generated
`ScenarioConfig` and the seed of its per-trial start waveforms, nothing
else. All runs use 20 alternating-minimization iterations with the
full-power rescaling diagnostic on.

A run of the benchmark does a fixed number of trials, sized from
`--seconds` by each workload's nominal trial time on the reference
machine, so every run of one workload times the same mix of solvers:
the tail percentile of a mixed solver population moves between solvers
when the number of trials changes.
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass

import numpy as np

import costap
from costap import ExperimentSpec, harness_cli

ITERATIONS = 20

# Tolerances of acceptance criteria 1-3.
EQUIV_RTOL = 1e-6
MONOTONE_SLACK = 1e-9
CAPON_TOL = 1e-8
POWER_TOL = 1e-8
_TINY = 1e-14


@dataclass(frozen=True)
class Workload:
    """One experiment shape: geometry, budget and solver line-up."""

    name: str
    why: str
    experiments: tuple[tuple[tuple[str, ...], str], ...]  # (solvers, lambda mode)
    trial_s: float        # nominal seconds per trial, sizes a run from --seconds
    trace_trials: int     # trials in the traced run
    dims: tuple[int, int, int] | None = None   # (M, N, L); None keeps the demo's
    patches: int | None = None
    power: float | None = None
    check_ordering: bool = False  # criterion 8's mean ordering

    def scenario(self) -> costap.ScenarioConfig:
        cfg = costap.load_scenario(costap.default_scenario_path())
        changes = {}
        if self.dims is not None:
            changes.update(M=self.dims[0], N=self.dims[1], L=self.dims[2])
        if self.power is not None:
            changes["power"] = self.power
        if self.patches is not None:
            changes["clutter"] = dataclasses.replace(cfg.clutter, patches=self.patches)
        return dataclasses.replace(cfg, **changes)

    def trials_for(self, seconds: float) -> int:
        return max(1, round(seconds / self.trial_s))

    @property
    def four_way(self) -> bool:
        return any(len(solvers) == len(costap.SOLVERS) for solvers, _ in self.experiments)


_ALL_ROOT = ((costap.SOLVERS, "root"),)

WORKLOADS = {w.name: w for w in (
    Workload(
        name="mc-demo",
        why="criterion 8's Monte Carlo on the demo: many short runs, so per-call "
            "overhead and diagnostics dominate and the multiplier stays at zero",
        experiments=((("qcqp",), "root"), (("sdp",), "zero")),
        trial_s=0.42, trace_trials=4, check_ordering=True,
    ),
    Workload(
        name="wide-aperture",
        why="MNL=1280: the dense MNL^3 Cholesky and MNL^2 R_u builds take over 80% "
            "of the time; where a matrix-free covariance shows its gain",
        experiments=_ALL_ROOT, trial_s=15.0, trace_trials=1,
        dims=(8, 16, 10),
    ),
    Workload(
        name="long-code",
        why="N=128, P_o=1e-3: the power bound is active on 19 of 20 iterations, so "
            "every route runs its root finder and the rank-25 singular branches",
        experiments=_ALL_ROOT, trial_s=2.2, trace_trials=1,
        dims=(1, 128, 2), power=1e-3,
    ),
    Workload(
        name="dense-clutter",
        why="Q=200 patches near MNL=320: heaviest F0 and R_c builds, least headroom "
            "for a rank-Q rewrite; the guard for covariance changes",
        experiments=_ALL_ROOT, trial_s=2.4, trace_trials=1,
        patches=200,
    ),
)}


def run_trials(workload: Workload, cfg: costap.ScenarioConfig, seed: int, trials: int):
    """Run the workload's experiments; returns [(spec, traces, table)].

    `run_comparison` is looked up on the module at call time so that a
    tracer or timer installed there sees the call.
    """
    results = []
    for solvers, mode in workload.experiments:
        spec = ExperimentSpec(scenario=cfg, solvers=solvers, lambda_mode=mode,
                              rescale=True, trials=trials, max_iter=ITERATIONS,
                              seed=seed)
        traces, table = harness_cli.run_comparison(spec)
        results.append((spec, traces, table))
    return results


@dataclass
class Gate:
    """Outcome of the correctness checks over one set of trials."""

    attempted: int
    failed: int
    reasons: list[str]
    equiv_violations: int | None    # None: fewer than four routes ran
    equiv_worst_spread: float | None
    ordering: dict | None           # None: the workload has no ordering check
    final_objective_mean: float

    @property
    def ok(self) -> bool:
        return self.failed == 0 and (self.ordering is None or self.ordering["ok"])

    def as_dict(self) -> dict:
        out = dataclasses.asdict(self)
        out["ok"] = self.ok
        out["fail_frac"] = self.failed / self.attempted
        return out


def _descent_violations(trace) -> int:
    """Criterion 2: interleaved half-step objectives never increase."""
    count = 0
    prev = trace.records[0].full_objective
    for rec in trace.records[1:]:
        if rec.half_objective > prev + MONOTONE_SLACK * max(abs(prev), _TINY):
            count += 1
        if rec.full_objective > rec.half_objective + MONOTONE_SLACK * max(abs(rec.half_objective), _TINY):
            count += 1
        prev = rec.full_objective
    return count


def _run_problems(trace, spec: ExperimentSpec) -> list[str]:
    """Why a completed run fails the gate (empty when it passes)."""
    problems = []
    objectives = trace.objectives()
    if not np.all(np.isfinite(objectives)):
        problems.append("non-finite objective")
    violations = _descent_violations(trace)
    if violations:
        problems.append(f"{violations} monotone-descent violations")
    capon = max(r.capon_residual for r in trace.records)
    if capon > CAPON_TOL:
        problems.append(f"Capon residual {capon:.3e} > {CAPON_TOL:g}")
    power = max(r.power for r in trace.records)
    bound = spec.scenario.power + POWER_TOL
    if spec.lambda_mode == "root" and power > bound:
        problems.append(f"power {power:.17g} > P_o + {POWER_TOL:g}")
    return problems


def _four_way(spec: ExperimentSpec, traces) -> tuple[int, float]:
    """Criterion 1 per (trial, iteration): relative spread of the four routes."""
    violations, worst = 0, 0.0
    for trial in range(spec.trials):
        runs = [traces[s][trial] for s in spec.solvers]
        if any(t is None for t in runs):
            continue
        objs = np.array([t.objectives() for t in runs])
        spread = (objs.max(axis=0) - objs.min(axis=0)) / np.abs(objs).min(axis=0)
        violations += int(np.count_nonzero(spread > EQUIV_RTOL))
        worst = max(worst, float(spread.max()))
    return violations, worst


def _mean_ordering(results) -> dict:
    """Criterion 8: rescaled <= lambda-0 <= unscaled means, each within 1 SE."""
    (_, root, _), (_, zero, _) = results
    root_traces, zero_traces = root["qcqp"], zero["sdp"]
    pairs = [(r, z) for r, z in zip(root_traces, zero_traces) if r is not None and z is not None]
    rescaled = np.array([r.records[-1].rescaled_objective for r, _ in pairs])
    unscaled = np.array([r.records[-1].full_objective for r, _ in pairs])
    zero_mode = np.array([z.records[-1].rescaled_objective for _, z in pairs])
    gap1 = zero_mode - rescaled
    gap2 = unscaled - zero_mode
    n = len(pairs)
    if n < 2:
        return {"ok": False, "trials": n, "reason": "needs at least two paired trials"}
    se1 = float(gap1.std(ddof=1) / np.sqrt(n))
    se2 = float(gap2.std(ddof=1) / np.sqrt(n))
    return {
        "ok": bool(gap1.mean() >= -se1 and gap2.mean() >= -se2),
        "trials": n,
        "rescaled_mean": float(rescaled.mean()),
        "lambda0_mean": float(zero_mode.mean()),
        "unscaled_mean": float(unscaled.mean()),
        "gap1_mean": float(gap1.mean()), "gap1_se": se1,
        "gap2_mean": float(gap2.mean()), "gap2_se": se2,
    }


def check(workload: Workload, results) -> Gate:
    """Apply the correctness gate to the output of `run_trials`."""
    attempted = failed = 0
    reasons: list[str] = []
    finals: list[float] = []
    equiv, worst = (0, 0.0) if workload.four_way else (None, None)
    for spec, traces, table in results:
        for solver, trial, message in table.failures:
            reasons.append(f"{solver}[{spec.lambda_mode}] trial {trial}: {message}")
        for solver in spec.solvers:
            for trial, trace in enumerate(traces[solver]):
                attempted += 1
                if trace is None:
                    failed += 1
                    continue
                problems = _run_problems(trace, spec)
                if problems:
                    failed += 1
                    reasons.append(f"{solver}[{spec.lambda_mode}] trial {trial}: "
                                   + "; ".join(problems))
                finals.append(trace.records[-1].full_objective)
        if len(spec.solvers) == len(costap.SOLVERS):
            v, w = _four_way(spec, traces)
            equiv += v
            worst = max(worst, w)
    return Gate(
        attempted=attempted,
        failed=failed,
        reasons=reasons,
        equiv_violations=equiv,
        equiv_worst_spread=worst,
        ordering=_mean_ordering(results) if workload.check_ordering else None,
        final_objective_mean=float(np.mean(finals)) if finals else float("nan"),
    )


def final_objectives(results) -> list[float | None]:
    """Every run's final objective in a fixed order (None for failures)."""
    out = []
    for spec, traces, _ in results:
        for solver in spec.solvers:
            out.extend(None if t is None else t.records[-1].full_objective
                       for t in traces[solver])
    return out
