"""Alternating minimization between the receive filter and the waveform.

One outer iteration is an exact MVDR weight update for the previous
waveform followed by one of the four equivalent waveform solves. The
alternation itself is one generator, `steps`, which yields the start
and then one `Step` per iteration and never ends; everything else here
only observes it. `run` takes max_iter + 1 steps, records a full
per-iteration trace (objectives at both half-steps, constraint
residuals, multiplier, step sizes, constraint-set drift) and checks the
monotone-descent property

    f(w1, s0) >= f(w1, s1) >= f(w2, s1) >= f(w2, s2) >= ...

which exact block minimization guarantees up to solve precision.

The paper's convergence argument also tracks the moving waveform
constraint set (`constraint_set_drift`, an exact Hausdorff distance) and
the diameter of the iterates' convex hull (`hull_diameter`). Both are
computed once all steps are taken: the drift in one call over the
stacked steering vectors y_k = G^H w_k, NaN where a set is empty.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from itertools import count, islice

import numpy as np

from .errors import CostapError, Infeasible, ValidationError, ZeroSteering, check_int
from .matrix_ops import TAU_ZERO, _as_complex
from .radar_model import CovarianceBundle, ScenarioConfig, build_bundle, total_cov
from .receiver import mvdr_update
from .waveform_solvers import (
    LAMBDA_MODES,
    WaveformSolution,
    _feasible_radius2,
    _steering_norm2,
    cls_solve,
    direct_update,
    qcqp_solve,
    scale_solution,
    sdp_dual_solve,
)

SOLVERS = ("am-direct", "qcqp", "sdp", "cls")

_MONOTONE_SLACK = 1e-9

# Drift search on a circle: a ring of 32 angles, then every local peak
# refined by _ZOOM_LEVELS zooms of 65 angles (final spacing 2 pi / 32^5).
_RING = (2.0 * np.pi / 32) * np.arange(32)
_ZOOM_SAMPLES = np.linspace(-1.0, 1.0, 65)
_ZOOM_LEVELS = 4


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

    def objectives(self) -> np.ndarray:
        return np.array([r.full_objective for r in self.records])


@dataclass(eq=False)
class RunReport:
    """Outcome of one alternating-minimization run."""

    trace: IterateTrace
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


def check_run_args(solver: str, max_iter: int, lambda_mode: str) -> None:
    """Reject an unknown solver or multiplier mode or an iteration count
    that is not an integer >= 0."""
    if solver not in SOLVERS:
        raise ValidationError("solver", f"unknown solver {solver!r}; expected one of {SOLVERS}")
    check_int("max_iter", max_iter, 0)
    if lambda_mode not in LAMBDA_MODES:
        raise ValidationError("lambda_mode",
                              f"unknown mode {lambda_mode!r}; expected one of {LAMBDA_MODES}")


@dataclass(frozen=True, eq=False)
class Step:
    """One state of the alternation: the MVDR weights w for the previous
    waveform, y = G^H w, the new waveform s, the route's solution and the
    half objective w^H R_u(s_prev) w. The start (w for s0, and s0) has no
    solution and no half objective."""

    w: np.ndarray
    y: np.ndarray
    s: np.ndarray
    solution: WaveformSolution | None = None
    half: float | None = None


def steps(bundle: CovarianceBundle, cfg: ScenarioConfig, s: np.ndarray,
          solver: str, lambda_mode: str):
    """The alternation from s: yield the start, then one `Step` per outer
    iteration, without end. Solver errors are re-raised with the
    iteration index attached. Every layer is looked up in this module at
    each call, so a wrapper installed here sees it."""
    w = mvdr_update(total_cov(bundle, s), bundle.target_map, s, cfg.kappa)
    yield Step(w, bundle.target_map.conj().T @ w, s)
    for k in count(1):
        try:
            r_prev = total_cov(bundle, s)
            w = mvdr_update(r_prev, bundle.target_map, s, cfg.kappa)
            half = r_prev.quad(w)
            y = bundle.target_map.conj().T @ w
            b = bundle.hessian(w)  # the clutter factor, F0 = B^H B
            if solver == "am-direct":
                solution = direct_update(b, bundle.target_map, w, cfg.kappa, cfg.power,
                                         mode=lambda_mode)
            elif solver == "qcqp":
                solution = qcqp_solve(b, y, cfg.kappa, cfg.power, mode=lambda_mode)
            elif solver == "sdp":
                solution = sdp_dual_solve(b, y, cfg.kappa, cfg.power, mode=lambda_mode)
            else:
                solution = cls_solve(b, y, cfg.kappa, cfg.power, mode=lambda_mode)
        except CostapError as exc:
            raise type(exc)(f"iteration {k}: {exc}") from exc
        s = solution.s
        yield Step(w, y, s, solution, half)


def run(cfg: ScenarioConfig, solver: str = "qcqp", *, max_iter: int = 20,
        lambda_mode: str = "root", rescale: bool = False,
        init_waveform=None) -> RunReport:
    """Take `max_iter` + 1 steps (the start and `max_iter` iterations)
    from a seeded start, or from `init_waveform`, and record each. With
    `rescale`, the iterate pair is additionally rescaled to exact full
    power and the resulting objective recorded as a separate trace
    column; the iteration itself always continues from the unrescaled
    pair. The drift of records 1..max_iter comes from one stacked
    `constraint_set_drift` call over the steps' y (NaN for an empty
    constraint set); record 0 has none.
    """
    check_run_args(solver, max_iter, lambda_mode)
    if init_waveform is None:
        s = draw_waveform(cfg.N, cfg.power, np.random.default_rng(cfg.seed))
        seed: int | None = cfg.seed
    else:
        s = np.asarray(init_waveform, dtype=np.complex128).reshape(-1)
        if s.size != cfg.N:
            raise ValidationError("init_waveform", f"has length {s.size}, expected N={cfg.N}")
        if not np.isfinite(s).all():
            raise ValidationError("init_waveform", "has non-finite entries")
        if not s.any():
            raise ValidationError("init_waveform", "is all zero")
        seed = None
    bundle = build_bundle(cfg)
    taken = list(islice(steps(bundle, cfg, s, solver, lambda_mode), max_iter + 1))
    drifts = [None]
    if max_iter:
        ys = np.array([step.y for step in taken])
        drifts += constraint_set_drift(ys[:-1], ys[1:], cfg.kappa, cfg.power).tolist()
    records = [_record(bundle, cfg, k, step, prev, drift, rescale)
               for k, (step, prev, drift) in enumerate(zip(taken, [None, *taken], drifts))]
    return _report(IterateTrace(records=records, solver=solver, lambda_mode=lambda_mode,
                                rescaled=rescale, seed=seed))


def _record(bundle: CovarianceBundle, cfg: ScenarioConfig, k: int, step: Step,
            prev: Step | None, drift: float | None, rescale: bool) -> IterateRecord:
    """Record step k, whose predecessor is `prev` (None for the start)."""
    w, s = step.w, step.s
    full = full_objective(bundle, w, s)
    clutter = bundle.clutter(s).quad(w)
    gs = bundle.target_map @ s
    capon = abs(complex(w.conj() @ gs) - cfg.kappa)
    if prev is not None:
        gs_prev = bundle.target_map @ prev.s
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
        half_objective=full if step.half is None else step.half,
        clutter_objective=clutter,
        capon_residual=float(capon),
        power=float(np.real(s.conj() @ s)),
        multiplier=None if step.solution is None else step.solution.multiplier,
        step_w=None if prev is None else float(np.linalg.norm(w - prev.w)),
        step_s=None if prev is None else float(np.linalg.norm(s - prev.s)),
        drift=drift,
        rescaled_objective=rescaled_obj,
    )


def _report(trace: IterateTrace) -> RunReport:
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
        final_objective=trace.records[-1].full_objective,
        monotonicity_violations=violations,
        hull_diameter_w=hull_diameter([r.w for r in trace.records]),
        hull_diameter_s=hull_diameter([r.s for r in trace.records]),
        max_constraint_drift=max(drifts) if drifts else 0.0,
    )


def hull_diameter(points) -> float:
    """Max pairwise distance of a finite point set (= its hull diameter),
    from one Gram matrix of the points centred on their mean, so that
    ||x_i - x_j||^2 = G_ii + G_jj - 2 Re G_ij cancels no common offset."""
    x = np.array([np.asarray(p, dtype=np.complex128).reshape(-1) for p in points])
    if not len(x):
        raise ValueError("need at least one point")
    x -= x.mean(axis=0)
    gram = x @ x.conj().T
    sq = gram.diagonal().real
    return float(np.sqrt(max(float((sq[:, None] + sq - 2.0 * gram.real).max()), 0.0)))


def _circle_gap2(theta, kappa, z0, rho, inv_a, power, r_to) -> np.ndarray:
    """h(z) of `constraint_set_drift` at z = z0 + rho e^{i theta}; inv_a = 1/||y_2||^2."""
    z = z0 + rho * np.exp(1j * theta)
    inplane = np.sqrt(np.maximum(power - (z.real**2 + z.imag**2) * inv_a, 0.0))
    return np.abs(z - kappa) ** 2 * inv_a + np.maximum(inplane - r_to, 0.0) ** 2


def _circle_max(params: np.ndarray, kappa: float) -> np.ndarray:
    """The maximum of h over each row's circle, rows (z0, rho, inv_a,
    ||s||^2, r_to): the best of a ring of angles, with every local peak
    of the ring refined by zooms about it."""
    z0, rest = params[:, :1], params[:, 1:].real.T[:, :, None]
    vals = _circle_gap2(_RING, kappa, z0, *rest)
    best = vals.max(axis=1)
    ring = np.concatenate((vals[:, -1:], vals, vals[:, :1]), axis=1)
    rows, cols = np.nonzero((vals >= ring[:, :-2]) & (vals >= ring[:, 2:]))
    z0, rest, pick = z0[rows], rest[:, rows], np.arange(rows.size)
    centre, half = _RING[cols, None], _RING[1]
    for _ in range(_ZOOM_LEVELS):
        theta = centre + half * _ZOOM_SAMPLES
        vals = _circle_gap2(theta, kappa, z0, *rest)
        k = vals.argmax(axis=1)
        centre = theta[pick, k, None]
        np.maximum.at(best, rows, vals[pick, k])
        half *= _ZOOM_SAMPLES[1] - _ZOOM_SAMPLES[0]
    return best


def constraint_set_drift(y_prev, y_curr, kappa: float,
                         power_bound: float) -> float | np.ndarray:
    """Hausdorff distance between the waveform constraint sets
    B_i = {s : y_i^H s = kappa, ||s||^2 <= P_o} of y_1 = y_prev, y_2 = y_curr.

    Broadcasts over leading axes like a ufunc: an (N,) pair gives a
    float, (K, N) stacks give K drifts, one per row pair, found in one
    stacked circle search. A pair with an empty set (a numerically zero
    steering vector, or a Capon point over the budget) gets NaN in its
    own slot.

    B_i is the disk of radius r_i = sqrt(P_o - kappa^2/||y_i||^2) about
    c_i = kappa y_i/||y_i||^2 in its hyperplane. The distance to B_2 is
    convex, so its supremum over B_1 sits on the relative boundary
    c_1 + r_1 u (u a unit vector orthogonal to y_1), where ||s||^2 = P_o
    and the squared distance depends only on z = y_2^H s:
    h(z) = |z - kappa|^2/||y_2||^2 + max(0, sqrt(P_o - |z|^2/||y_2||^2) - r_2)^2.
    z covers the disk about z0 = y_2^H c_1 of radius rho = r_1 ||y_2 - its
    projection on y_1|| (for N = 2, its circle). h is convex and C^1: it is
    |z - kappa|^2/||y_2||^2 for |z| >= kappa and 2(P_o - kappa Re z/||y_2||^2
    - r_2 sqrt(P_o - |z|^2/||y_2||^2)) inside, with value and gradient
    matching on |z| = kappa. So the maximum lies on the circle z0 + rho
    e^{i theta}; it has no closed form and may be either of two local maxima,
    so every peak of a ring of angles is refined, both directions of every
    pair at once. The O(N) reductions stay per pair, so a stacked drift
    equals the pairwise one bit for bit. At N = 1 each set is its Capon
    point.
    """
    y1s, y2s = np.broadcast_arrays(np.asarray(y_prev), np.asarray(y_curr))
    shape, n = y1s.shape[:-1], y1s.shape[-1]
    y1s, y2s = (_as_complex(ys).reshape(-1, n) for ys in (y1s, y2s))
    drift = np.full(len(y1s), np.nan)
    params, pairs = [], []
    for i, (y1, y2) in enumerate(zip(y1s, y2s)):
        try:
            a1, a2 = _steering_norm2(y1), _steering_norm2(y2)
            r1, r2 = (np.sqrt(_feasible_radius2(power_bound, kappa, a)) for a in (a1, a2))
        except (Infeasible, ZeroSteering):
            continue
        if n == 1:
            drift[i] = abs(kappa * (y1[0] / a1 - y2[0] / a2))
            continue
        p = complex(y1.conj() @ y2)
        # rows B_1 -> B_2, then B_2 -> B_1
        params += [[kappa * p.conjugate() / a1, r1 * np.linalg.norm(y2 - (p / a1) * y1),
                    1.0 / a2, kappa**2 / a1 + r1 * r1, r2],
                   [kappa * p / a2, r2 * np.linalg.norm(y1 - (p.conjugate() / a2) * y2),
                    1.0 / a1, kappa**2 / a2 + r2 * r2, r1]]
        pairs.append(i)
    if pairs:
        drift[pairs] = np.sqrt(_circle_max(np.array(params), kappa).reshape(-1, 2).max(axis=1))
    return float(drift[0]) if not shape else drift.reshape(shape)
