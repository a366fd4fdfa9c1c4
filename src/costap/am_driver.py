"""Alternating minimization between the receive filter and the waveform.

One outer iteration is an exact MVDR weight update for the previous
waveform followed by one of the four equivalent waveform solves. The
driver records a full per-iteration trace (objectives at both
half-steps, constraint residuals, multiplier, step sizes, sampled
constraint-set drift) and checks the monotone-descent property

    f(w1, s0) >= f(w1, s1) >= f(w2, s1) >= f(w2, s2) >= ...

which exact block minimization guarantees up to solve precision.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .errors import CostapError, Infeasible, ZeroSteering
from .matrix_ops import TAU_ZERO, _as_complex
from .radar_model import CovarianceBundle, ScenarioConfig, build_bundle, total_cov
from .receiver import mvdr_update
from .waveform_solvers import (
    WaveformSolution,
    _feasible_radius2,
    _steering_vector,
    cls_solve,
    direct_update,
    qcqp_solve,
    scale_solution,
    sdp_dual_solve,
)

SOLVERS = ("am-direct", "qcqp", "sdp", "cls")

_DRIFT_RNG_SEED = 0x5EED0D
_MONOTONE_SLACK = 1e-9


@dataclass(eq=False)
class IterateRecord:
    """State and diagnostics after one full outer iteration."""

    iteration: int
    w: np.ndarray
    s: np.ndarray
    full_objective: float
    half_objective: float
    clutter_objective: float
    capon_residual: float
    power: float
    multiplier: float | None
    step_w: float | None
    step_s: float | None
    drift: float | None
    rescaled_objective: float | None


@dataclass(eq=False)
class IterateTrace:
    """Per-iteration records plus the run's identifying metadata."""

    records: list[IterateRecord] = field(default_factory=list)
    solver: str = "qcqp"
    lambda_mode: str = "root"
    rescaled: bool = False
    seed: int | None = None

    def __len__(self) -> int:
        return len(self.records)

    def __iter__(self):
        return iter(self.records)

    def objectives(self) -> np.ndarray:
        return np.array([r.full_objective for r in self.records])


@dataclass(eq=False)
class RunReport:
    """Outcome of one alternating-minimization run."""

    trace: IterateTrace
    converged: bool
    final_objective: float
    monotonicity_violations: int
    hull_diameter_w: float
    hull_diameter_s: float
    max_constraint_drift: float


def full_objective(bundle: CovarianceBundle, w, s) -> float:
    """w^H R_u(s) w, the quantity the alternation drives down, as the sum
    of the nonnegative noise and factor terms (`SpaceTimeCov.quad`)."""
    return total_cov(bundle, s).quad(w)


def draw_waveform(n: int, power_bound: float, rng: np.random.Generator) -> np.ndarray:
    """Random start: complex standard normal scaled to half the budget.

    The start is strictly interior to the power ball so the bound
    begins slack; a start exactly on the boundary keeps the bound
    active at every iteration and degenerates the run comparisons.
    """
    x = rng.standard_normal(n) + 1j * rng.standard_normal(n)
    return x * (np.sqrt(0.5 * power_bound) / np.linalg.norm(x))


def initial_waveform(cfg: ScenarioConfig) -> np.ndarray:
    """Seeded random starting waveform for a scenario."""
    return draw_waveform(cfg.N, cfg.power, np.random.default_rng(cfg.seed))


def _waveform_step(bundle: CovarianceBundle, w: np.ndarray, cfg: ScenarioConfig,
                   solver: str, lambda_mode: str) -> WaveformSolution:
    f0 = bundle.hessian(w)
    if solver == "am-direct":
        return direct_update(f0, bundle.target_map, w, cfg.kappa, cfg.power, lambda_mode)
    y_w = bundle.target_map.conj().T @ w
    if solver == "qcqp":
        return qcqp_solve(f0, y_w, cfg.kappa, cfg.power, gamma_mode=lambda_mode)
    if solver == "sdp":
        return sdp_dual_solve(f0, y_w, cfg.kappa, cfg.power, mode=lambda_mode)
    if solver == "cls":
        return cls_solve(f0, y_w, cfg.kappa, cfg.power, mode=lambda_mode)
    raise ValueError(f"unknown solver {solver!r}; expected one of {SOLVERS}")


def _am_step(bundle: CovarianceBundle, cfg: ScenarioConfig, s_prev: np.ndarray,
             solver: str, lambda_mode: str) -> tuple[np.ndarray, WaveformSolution, float]:
    """One outer iteration from s_prev: returns (w, solution, half objective)."""
    r_prev = total_cov(bundle, s_prev)
    w = mvdr_update(r_prev, bundle.target_map, s_prev, cfg.kappa)
    half = r_prev.quad(w)
    solution = _waveform_step(bundle, w, cfg, solver, lambda_mode)
    return w, solution, half


def run(cfg: ScenarioConfig, solver: str = "qcqp", *, max_iter: int = 20,
        obj_tol: float = 0.0, lambda_mode: str = "root", rescale: bool = False,
        init_waveform=None, drift_samples: int = 64) -> RunReport:
    """Alternate the receiver and waveform updates from a seeded start.

    Stops after `max_iter` iterations or when successive full objectives
    differ by at most `obj_tol` relative. With `rescale`, the iterate
    pair is additionally rescaled to exact full power after each
    waveform step and the resulting objective recorded as a separate
    trace column; the iteration itself always continues from the
    unrescaled pair. Solver errors are re-raised with the iteration
    index attached.
    """
    if solver not in SOLVERS:
        raise ValueError(f"unknown solver {solver!r}; expected one of {SOLVERS}")
    if max_iter < 0:
        raise ValueError("max_iter must be >= 0")
    bundle = build_bundle(cfg)
    if init_waveform is None:
        s = initial_waveform(cfg)
        seed: int | None = cfg.seed
    else:
        s = _as_complex(init_waveform).reshape(-1)
        if s.size != cfg.N:
            raise ValueError(f"init_waveform has length {s.size}, expected N={cfg.N}")
        seed = None

    trace = IterateTrace(records=[], solver=solver, lambda_mode=lambda_mode,
                         rescaled=rescale, seed=seed)

    w = mvdr_update(total_cov(bundle, s), bundle.target_map, s, cfg.kappa)
    trace.records.append(_record(bundle, cfg, 0, w, s, half=None, multiplier=None,
                                 w_prev=None, s_prev=None, drift=None, rescale=rescale))

    converged = False
    for k in range(1, max_iter + 1):
        w_prev, s_prev = w, s
        try:
            w, solution, half = _am_step(bundle, cfg, s_prev, solver, lambda_mode)
        except CostapError as exc:
            raise type(exc)(f"iteration {k}: {exc}") from exc
        s = solution.s
        drift = None
        if drift_samples > 0:
            y_prev = bundle.target_map.conj().T @ w_prev
            y_curr = bundle.target_map.conj().T @ w
            try:
                drift = constraint_set_drift(y_prev, y_curr, cfg.kappa, cfg.power,
                                             drift_samples)
            except (Infeasible, ZeroSteering):
                drift = float("nan")
        trace.records.append(_record(bundle, cfg, k, w, s, half=half,
                                     multiplier=solution.multiplier,
                                     w_prev=w_prev, s_prev=s_prev, drift=drift,
                                     rescale=rescale))
        # obj_tol = 0 disables early stopping: run exactly max_iter.
        if obj_tol > 0.0:
            prev_obj = trace.records[-2].full_objective
            curr_obj = trace.records[-1].full_objective
            if abs(curr_obj - prev_obj) <= obj_tol * max(abs(prev_obj), TAU_ZERO):
                converged = True
                break

    return _report(trace, converged)


def _record(bundle: CovarianceBundle, cfg: ScenarioConfig, k: int, w, s, *,
            half, multiplier, w_prev, s_prev, drift, rescale) -> IterateRecord:
    full = full_objective(bundle, w, s)
    clutter = bundle.clutter(s).quad(w)
    gs = bundle.target_map @ s
    capon = abs(complex(w.conj() @ gs) - cfg.kappa)
    if s_prev is not None:
        gs_prev = bundle.target_map @ s_prev
        capon = max(capon, abs(complex(w.conj() @ gs_prev) - cfg.kappa))
    rescaled_obj = None
    if rescale:
        w2, s2 = scale_solution(w, s, cfg.power)
        rescaled_obj = full_objective(bundle, w2, s2)
    return IterateRecord(
        iteration=k,
        w=w,
        s=s,
        full_objective=full,
        half_objective=full if half is None else half,
        clutter_objective=clutter,
        capon_residual=float(capon),
        power=float(np.real(s.conj() @ s)),
        multiplier=multiplier,
        step_w=None if w_prev is None else float(np.linalg.norm(w - w_prev)),
        step_s=None if s_prev is None else float(np.linalg.norm(s - s_prev)),
        drift=drift,
        rescaled_objective=rescaled_obj,
    )


def _report(trace: IterateTrace, converged: bool) -> RunReport:
    violations = 0
    prev_full = trace.records[0].full_objective
    for rec in trace.records[1:]:
        slack = _MONOTONE_SLACK * max(abs(prev_full), TAU_ZERO)
        if rec.half_objective > prev_full + slack:
            violations += 1
        slack = _MONOTONE_SLACK * max(abs(rec.half_objective), TAU_ZERO)
        if rec.full_objective > rec.half_objective + slack:
            violations += 1
        prev_full = rec.full_objective
    drifts = [r.drift for r in trace.records if r.drift is not None and np.isfinite(r.drift)]
    return RunReport(
        trace=trace,
        converged=converged,
        final_objective=trace.records[-1].full_objective,
        monotonicity_violations=violations,
        hull_diameter_w=hull_diameter([r.w for r in trace.records]),
        hull_diameter_s=hull_diameter([r.s for r in trace.records]),
        max_constraint_drift=max(drifts) if drifts else 0.0,
    )


def hull_diameter(points) -> float:
    """Max pairwise distance of a finite point set (= its hull diameter)."""
    pts = [np.asarray(p, dtype=np.complex128).reshape(-1) for p in points]
    if not pts:
        raise ValueError("need at least one point")
    best = 0.0
    for i in range(len(pts)):
        for j in range(i + 1, len(pts)):
            best = max(best, float(np.linalg.norm(pts[i] - pts[j])))
    return best


def _closest_in_set(points: np.ndarray, y: np.ndarray, center: np.ndarray,
                    radius: float) -> np.ndarray:
    """Project rows of `points` onto {s : y^H s = kappa, ||s||^2 <= P_o}.

    The set is a ball of the given radius inside the Capon hyperplane,
    so the projection is hyperplane projection followed by a radial
    clamp toward the center.
    """
    ny2 = float(np.real(y.conj() @ y))
    kappa_eff = complex(y.conj() @ center)
    beta = (kappa_eff - points @ y.conj()) / ny2
    on_plane = points + beta[:, None] * y[None, :]
    t = on_plane - center[None, :]
    norms = np.linalg.norm(t, axis=1)
    scale = np.ones_like(norms)
    over = norms > radius
    if radius <= 0.0:
        scale[:] = 0.0
    else:
        scale[over] = radius / norms[over]
    return center[None, :] + scale[:, None] * t


def constraint_set_drift(y_prev, y_curr, kappa: float, power_bound: float,
                         samples: int) -> float:
    """Sampled Hausdorff-distance estimate between successive waveform
    feasible sets (Capon hyperplane sliced with the power ball).

    Boundary points of each set are sampled (the supremum of a convex
    distance function sits on extreme points) and their exact distance
    to the other set is evaluated in closed form; the two directed
    values are symmetrized. An estimate, not an exact metric.
    """
    if samples < 1:
        raise ValueError("samples must be >= 1")
    y1, n1 = _steering_vector(y_prev)
    y2, n2 = _steering_vector(y_curr)
    r1 = np.sqrt(_feasible_radius2(power_bound, kappa, n1))
    r2 = np.sqrt(_feasible_radius2(power_bound, kappa, n2))
    c1 = (kappa / n1) * y1
    c2 = (kappa / n2) * y2
    rng = np.random.default_rng(_DRIFT_RNG_SEED)

    def boundary(y, center, radius, n_dim):
        g = rng.standard_normal((samples, n_dim)) + 1j * rng.standard_normal((samples, n_dim))
        g -= np.outer(g @ y.conj(), y) / float(np.real(y.conj() @ y))
        norms = np.linalg.norm(g, axis=1)
        good = norms > TAU_ZERO
        pts = center[None, :] + radius * (g[good] / norms[good, None])
        return np.vstack([center[None, :], pts])

    p1 = boundary(y1, c1, r1, y1.size)
    p2 = boundary(y2, c2, r2, y2.size)
    d12 = np.linalg.norm(p1 - _closest_in_set(p1, y2, c2, r2), axis=1)
    d21 = np.linalg.norm(p2 - _closest_in_set(p2, y1, c1, r1), axis=1)
    return float(max(d12.max(), d21.max()))


def functional_relation_check(trace: IterateTrace, cfg: ScenarioConfig,
                              solver: str | None = None,
                              lambda_mode: str | None = None,
                              rtol: float = 1e-12) -> bool:
    """Replay every iterate from its predecessor and compare.

    Verifies the deterministic functional relation (w_k, s_k) =
    step(s_{k-1}) by recomputing each step with the same solver and
    requiring agreement to `rtol` in max-abs (bit-level in practice).
    """
    if len(trace) < 2:
        raise ValueError("trace must hold at least two iterations")
    solver = trace.solver if solver is None else solver
    lambda_mode = trace.lambda_mode if lambda_mode is None else lambda_mode
    bundle = build_bundle(cfg)
    for prev, curr in zip(trace.records[:-1], trace.records[1:]):
        w, solution, _ = _am_step(bundle, cfg, prev.s, solver, lambda_mode)
        w_scale = max(float(np.max(np.abs(curr.w))), TAU_ZERO)
        s_scale = max(float(np.max(np.abs(curr.s))), TAU_ZERO)
        if float(np.max(np.abs(w - curr.w))) > rtol * w_scale:
            return False
        if float(np.max(np.abs(solution.s - curr.s))) > rtol * s_scale:
            return False
    return True
