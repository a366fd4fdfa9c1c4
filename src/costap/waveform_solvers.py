"""Waveform half-step, solved four provably-equivalent ways.

The subproblem at each outer iteration is

    min_s  s^H F0 s   s.t.  s^H y = kappa,  ||s||^2 <= P_o

with F0 the N x N clutter Hessian for the current weights and
y = G^H w. Writing s = q + kappa*y/||y||^2 with q orthogonal to y
reduces it to a trust-region-style problem over the tangent space:

    min_q  q^H P F0 P q + 2(kappa/||y||^2) Re{q^H P F0 y}
    s.t.   ||P q||^2 <= r^2 := P_o - kappa^2/||y||^2

where P projects onto the orthogonal complement of y. The four routes:

* ``direct_update``  ridge update s = kappa*(F0+lam*I)^-1 y / (y^H (F0+lam*I)^-1 y)
  with the smallest lam >= 0 restoring the power bound (secular root);
* ``qcqp_solve``     tangent-space secular equation in the multiplier gamma;
* ``sdp_dual_solve`` maximizes the 1-D concave dual of the tangent problem
  and recovers the primal point, with a rank-1 strong-duality certificate;
* ``cls_solve``      least squares ||C q - d||^2 on the norm ball, via SVD.

All four agree on the optimum; they differ in the numerical path, which
is the point of the cross-checks in the test suite. Multipliers are
interchangeable: the same nonnegative scalar plays the role of lam,
gamma and the dual variable alpha. When the power bound is active,
each route hands its own decreasing secular function and derivative
to the one safeguarded Newton-bisection solver, ``bisect_root``, which
stops at float resolution; the dual route first narrows the bracket by
golden-section search on the dual.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import (
    Infeasible,
    NumericalFailure,
    SingularHessian,
    ZeroSteering,
    ZeroWaveform,
)
from .matrix_ops import TAU_PSD, TAU_RANK, TAU_ZERO, _as_complex, bisect_root, hermitian_sqrt

_GOLDEN = (np.sqrt(5.0) - 1.0) / 2.0
_GOLDEN_RTOL = 1e-8


@dataclass(frozen=True, eq=False)
class WaveformProblem:
    """Inputs of one waveform subproblem (kept for certification)."""

    hessian: np.ndarray
    steering: np.ndarray
    kappa: float
    power_bound: float


@dataclass
class DualCertificate:
    """Strong-duality evidence attached to an SDP-route solution."""

    alpha: float
    beta: float
    dual_value: float
    primal_value: float
    gap: float
    rank1_residual: float
    constraint_value: float = 0.0


@dataclass(eq=False)
class WaveformSolution:
    """One waveform solve: the code, its multiplier and KKT summary.

    `objective` is the waveform-dependent cost s^H F0 s; the constant
    receiver term is added back by the driver's full objective.
    """

    s: np.ndarray
    multiplier: float
    multiplier_kind: str
    objective: float
    capon_residual: float
    power: float
    kkt_residual: float
    certificate: DualCertificate | None = None
    problem: WaveformProblem | None = None


def _steering_vector(y_w) -> tuple[np.ndarray, float]:
    y = _as_complex(y_w).reshape(-1)
    ny2 = float(np.real(y.conj() @ y))
    if np.sqrt(ny2) <= TAU_ZERO:
        raise ZeroSteering("steering vector is numerically zero")
    return y, ny2


def _orth_complement(y: np.ndarray) -> np.ndarray:
    """Orthonormal basis (N x N-1) of the complement of span{y}."""
    q, _ = np.linalg.qr(y.reshape(-1, 1), mode="complete")
    return q[:, 1:]


def _feasible_radius2(power_bound: float, kappa: float, ny2: float) -> float:
    r2 = power_bound - kappa**2 / ny2
    if r2 < -1e-12 * max(power_bound, kappa**2 / ny2):
        raise Infeasible(
            f"Capon point needs power {kappa**2 / ny2:.6e} > budget {power_bound:.6e}"
        )
    return max(r2, 0.0)


class _TangentProblem:
    """The subproblem restricted to the complement of y, diagonalized.

    Holds the eigen-decomposition of M = W^H F0 W (W an orthonormal
    basis of y-perp) and the linear-term coefficients, so the secular
    function, its derivative and the dual are O(N) per evaluation.
    """

    def __init__(self, f0, y_w, kappa: float, power_bound: float):
        f0 = _as_complex(f0)
        y, ny2 = _steering_vector(y_w)
        if f0.shape != (y.size, y.size):
            raise ValueError(f"Hessian shape {f0.shape} does not match steering length {y.size}")
        self.f0 = f0
        self.y = y
        self.ny2 = ny2
        self.kappa = float(kappa)
        self.power_bound = float(power_bound)
        self.center = (kappa / ny2) * y
        fy = f0 @ y
        self.const = (kappa**2 / ny2**2) * float(np.real(y.conj() @ fy))
        self.basis = _orth_complement(y)
        k = self.basis.shape[1]
        if k:
            m = self.basis.conj().T @ f0 @ self.basis
            m = 0.5 * (m + m.conj().T)
            self.mu, vecs = np.linalg.eigh(m)
            ctilde = (kappa / ny2) * (self.basis.conj().T @ fy)
            self.chat = vecs.conj().T @ ctilde
            self.vecs = vecs
        else:
            self.mu = np.zeros(0)
            self.chat = np.zeros(0, dtype=np.complex128)
            self.vecs = np.zeros((0, 0), dtype=np.complex128)
        self.abs2 = np.abs(self.chat) ** 2
        mu_scale = float(np.max(np.abs(self.mu))) if self.mu.size else 0.0
        self.kept = self.mu > TAU_RANK * max(mu_scale, TAU_ZERO)

    @property
    def r2(self) -> float:
        return _feasible_radius2(self.power_bound, self.kappa, self.ny2)

    def linear_term_in_range(self) -> bool:
        dropped = float(np.sum(self.abs2[~self.kept]))
        total = float(np.sum(self.abs2))
        return dropped <= 1e-24 * max(total, TAU_ZERO)

    def _denom(self, gamma: float) -> np.ndarray:
        return self.mu + gamma

    def tangent_norm2(self, gamma: float) -> float:
        if gamma == 0.0:
            d = self.mu[self.kept]
            a = self.abs2[self.kept]
        else:
            d = self._denom(gamma)
            a = self.abs2
        return float(np.sum(a / d**2))

    def secular(self, gamma: float, r2: float) -> float:
        return self.tangent_norm2(gamma) - r2

    def phi(self, gamma: float, r2: float) -> float:
        """secular() for the root solve: when the linear term leaves the
        range of M it is +inf at gamma = 0, its limit from the right, so
        the multiplier is strictly positive."""
        if gamma == 0.0 and not self.linear_term_in_range():
            return np.inf
        return self.secular(gamma, r2)

    def root_bound(self, r2: float) -> float:
        """A multiplier where the secular function is <= 0: from there
        on every mu + gamma >= sqrt(sum|c|^2 / r^2)."""
        return float(np.sqrt(np.sum(self.abs2) / r2)) + max(-float(self.mu[0]), 0.0)

    def secular_derivative(self, gamma: float) -> float:
        d = self._denom(gamma)
        return float(-2.0 * np.sum(self.abs2 / d**3))

    def q_of(self, gamma: float) -> np.ndarray:
        if gamma == 0.0:
            coeff = np.where(self.kept, -self.chat / np.where(self.kept, self.mu, 1.0), 0.0)
        else:
            coeff = -self.chat / self._denom(gamma)
        return self.basis @ (self.vecs @ coeff)

    def dual_value(self, alpha: float, r2: float) -> float:
        if alpha == 0.0:
            quad = float(np.sum(self.abs2[self.kept] / self.mu[self.kept]))
        else:
            quad = float(np.sum(self.abs2 / self._denom(alpha)))
        return -alpha * r2 - quad

    def reduced_objective(self, q: np.ndarray) -> float:
        quad = float(np.real(q.conj() @ (self.f0 @ q)))
        lin = 2.0 * (self.kappa / self.ny2) * float(np.real(q.conj() @ (self.f0 @ self.y)))
        return quad + lin

    def assemble(self, q: np.ndarray) -> np.ndarray:
        return q + self.center


def _kkt_residual(f0: np.ndarray, y: np.ndarray, ny2: float, s: np.ndarray,
                  multiplier: float) -> float:
    v = f0 @ s + multiplier * s
    tangential = v - y * ((y.conj() @ v) / ny2)
    nv = float(np.linalg.norm(v))
    if nv <= TAU_ZERO:
        return 0.0
    return float(np.linalg.norm(tangential)) / nv


def _make_solution(problem: WaveformProblem, s: np.ndarray, multiplier: float,
                   kind: str, certificate: DualCertificate | None = None) -> WaveformSolution:
    f0 = problem.hessian
    y = problem.steering
    ny2 = float(np.real(y.conj() @ y))
    objective = float(np.real(s.conj() @ (f0 @ s)))
    capon = float(np.abs(s.conj() @ y - problem.kappa))
    power = float(np.real(s.conj() @ s))
    kkt = _kkt_residual(f0, y, ny2, s, multiplier)
    return WaveformSolution(
        s=s,
        multiplier=float(multiplier),
        multiplier_kind=kind,
        objective=objective,
        capon_residual=capon,
        power=power,
        kkt_residual=kkt,
        certificate=certificate,
        problem=problem,
    )


def direct_update(f0, g_map, w, kappa: float, power_bound: float,
                  lambda_mode: str = "root") -> WaveformSolution:
    """Ridge-form waveform update with the multiplier found by root finding.

    In root mode, lam is the smallest nonnegative value for which
    s(lam) = kappa*(F0+lam*I)^-1 y / (y^H (F0+lam*I)^-1 y) meets the
    power bound; lam = 0 is returned exactly (same code path as zero
    mode) whenever the unconstrained update is already feasible. Zero
    mode requires an invertible F0 and never enforces the bound.
    """
    if lambda_mode not in ("root", "zero"):
        raise ValueError(f"unknown lambda_mode {lambda_mode!r}")
    f0 = _as_complex(f0)
    y_w = _as_complex(g_map).conj().T @ _as_complex(w).reshape(-1)
    y, ny2 = _steering_vector(y_w)
    problem = WaveformProblem(f0, y, float(kappa), float(power_bound))

    evals, evecs = np.linalg.eigh(f0)
    spectral = float(np.max(np.abs(evals))) if evals.size else 0.0
    floor = TAU_PSD * max(spectral, TAU_ZERO)
    singular = bool(evals.size == 0 or float(evals[0]) <= floor)
    ytilde = evecs.conj().T @ y
    abs2 = np.abs(ytilde) ** 2

    def solution_at(lam: float) -> tuple[np.ndarray, float]:
        d = evals + lam
        denom = float(np.sum(abs2 / d))
        s = (kappa / denom) * (evecs @ (ytilde / d))
        norm2 = kappa**2 * float(np.sum(abs2 / d**2)) / denom**2
        return s, norm2

    if not singular:
        s0, norm2_0 = solution_at(0.0)
    else:
        if lambda_mode == "zero":
            raise SingularHessian(
                "zero-multiplier mode needs an invertible Hessian "
                f"(min eigenvalue {float(evals[0]):.3e})"
            )
        null = evals <= floor
        a_null = float(np.sum(abs2[null]))
        if a_null > 1e-14 * ny2:
            # limit of the ridge update: the null-space component wins
            y_null = evecs[:, null] @ ytilde[null]
            s0 = (kappa / a_null) * y_null
            norm2_0 = kappa**2 / a_null
        else:
            kept = ~null
            denom = float(np.sum(abs2[kept] / evals[kept]))
            s0 = (kappa / denom) * (evecs[:, kept] @ (ytilde[kept] / evals[kept]))
            norm2_0 = kappa**2 * float(np.sum(abs2[kept] / evals[kept] ** 2)) / denom**2

    if lambda_mode == "zero" or norm2_0 <= power_bound:
        return _make_solution(problem, s0, 0.0, "lambda")

    r2 = _feasible_radius2(power_bound, kappa, ny2)
    if r2 == 0.0:
        return _make_solution(problem, (kappa / ny2) * y, 0.0, "lambda")

    def norm2_at(lam: float) -> float:
        if lam == 0.0:
            return norm2_0
        return solution_at(lam)[1]

    def phi(lam: float) -> float:
        return norm2_at(lam) - power_bound

    def dphi(lam: float) -> float:
        d = evals + lam
        a_sum = float(np.sum(abs2 / d**2))
        b_sum = float(np.sum(abs2 / d))
        c_sum = float(np.sum(abs2 / d**3))
        return 2.0 * kappa**2 * (a_sum**2 - c_sum * b_sum) / b_sum**3

    # kappa ||P F0 y|| / (||y||^2 r) is the tangent routes' root_bound:
    # s(lam) -> center - kappa/(lam ||y||^2) P F0 y as lam grows
    pf0y2 = float(np.sum(evals**2 * abs2)) - float(np.sum(evals * abs2)) ** 2 / ny2
    hi = kappa * np.sqrt(max(pf0y2, 0.0) / r2) / ny2
    lam = bisect_root(phi, dphi, 0.0, hi if hi > 0.0 else 1.0)
    s, _ = solution_at(lam)
    return _make_solution(problem, s, lam, "lambda")


def qcqp_solve(f0, y_w, kappa: float, power_bound: float,
               gamma_mode: str = "root") -> WaveformSolution:
    """Tangent-space solve with the multiplier from the secular equation.

    Returns s = q(gamma*) + kappa*y/||y||^2 where either gamma* = 0 and
    the tangent component already fits the radius, or gamma* > 0 pins
    ||q(gamma*)||^2 = r^2. Zero mode pins gamma = 0 and ignores the
    power bound entirely.
    """
    if gamma_mode not in ("root", "zero"):
        raise ValueError(f"unknown gamma_mode {gamma_mode!r}")
    tp = _TangentProblem(f0, y_w, kappa, power_bound)
    problem = WaveformProblem(tp.f0, tp.y, tp.kappa, tp.power_bound)

    if gamma_mode == "zero":
        return _make_solution(problem, tp.assemble(tp.q_of(0.0)), 0.0, "gamma")

    r2 = tp.r2
    if r2 == 0.0:
        return _make_solution(problem, tp.assemble(np.zeros_like(tp.y)), 0.0, "gamma")
    if tp.phi(0.0, r2) <= 0.0:
        return _make_solution(problem, tp.assemble(tp.q_of(0.0)), 0.0, "gamma")

    gamma = bisect_root(lambda x: tp.phi(x, r2), tp.secular_derivative,
                        0.0, tp.root_bound(r2))
    return _make_solution(problem, tp.assemble(tp.q_of(gamma)), gamma, "gamma")


def secular_residual(f0, y_w, kappa: float, power_bound: float, gamma: float) -> float:
    """phi(gamma) = ||P q(gamma)||^2 - r^2, nonincreasing on gamma >= 0.

    Exposed for testing and root bracketing; shares the evaluation path
    of qcqp_solve (pseudoinverse semantics at gamma = 0).
    """
    if gamma < 0:
        raise ValueError("gamma must be nonnegative")
    tp = _TangentProblem(f0, y_w, kappa, power_bound)
    return tp.secular(gamma, tp.r2)


def _golden_max(fun, lo: float, hi: float) -> tuple[float, float]:
    """Golden-section search for the maximizer of a concave function:
    returns the final interval, _GOLDEN_RTOL times the bracket wide."""
    a, b = lo, hi
    c = b - _GOLDEN * (b - a)
    d = a + _GOLDEN * (b - a)
    fc, fd = fun(c), fun(d)
    while b - a > _GOLDEN_RTOL * (hi - lo):
        if fc >= fd:
            b, d, fd = d, c, fc
            c = b - _GOLDEN * (b - a)
            fc = fun(c)
        else:
            a, c, fc = c, d, fd
            d = a + _GOLDEN * (b - a)
            fd = fun(d)
    return a, b


def sdp_dual_solve(f0, y_w, kappa: float, power_bound: float,
                   mode: str = "root") -> WaveformSolution:
    """Maximize the 1-D concave dual of the tangent problem.

    g(alpha) = alpha*kappa^2/||y||^2 - alpha*P_o
               - (kappa^2/||y||^4) b^H B(alpha)^+ b

    with B(alpha) = P(F0 + alpha*P)P and b = P F0 y, maximized by
    golden-section search on [0, tp.root_bound]; the final golden
    interval goes to the shared root solver on the dual's derivative,
    the secular function. The primal point is recovered from the
    optimizing alpha and certified against the dual value (rank-1
    lifting, weak/strong duality gap).
    """
    if mode not in ("root", "zero"):
        raise ValueError(f"unknown mode {mode!r}")
    tp = _TangentProblem(f0, y_w, kappa, power_bound)
    problem = WaveformProblem(tp.f0, tp.y, tp.kappa, tp.power_bound)

    if mode == "zero":
        alpha = 0.0
        q = tp.q_of(alpha)
    else:
        r2 = tp.r2
        if r2 == 0.0:
            alpha = 0.0
            q = np.zeros_like(tp.y)
        elif tp.phi(0.0, r2) <= 0.0:
            alpha = 0.0
            q = tp.q_of(alpha)
        else:
            lo, hi = _golden_max(lambda a: tp.dual_value(a, r2), 0.0, tp.root_bound(r2))
            if not tp.phi(lo, r2) > 0.0:
                lo = 0.0  # rounding on the dual's flat top moved the interval past the root
            alpha = bisect_root(lambda x: tp.phi(x, r2), tp.secular_derivative, lo, hi)
            q = tp.q_of(alpha)

    s = tp.assemble(q)
    solution = _make_solution(problem, s, alpha, "alpha")
    if not np.isfinite(solution.objective):
        raise NumericalFailure("dual route produced a non-finite objective")
    solution.certificate = sdp_certificate(solution)
    if not np.isfinite(solution.certificate.dual_value):
        raise NumericalFailure("dual value is non-finite")
    return solution


def sdp_certificate(solution: WaveformSolution) -> DualCertificate:
    """Rank-1 certificate for a solved waveform subproblem.

    Lifts q to Q = [[q q^H, q], [q^H, 1]], evaluates the primal
    semidefinite objective and constraint in literal trace form,
    re-evaluates the dual at the solution's multiplier, and reports the
    duality gap plus the rank-1 residual (second eigenvalue over first).
    """
    if solution.problem is None:
        raise ValueError("solution carries no problem data to certify")
    prob = solution.problem
    tp = _TangentProblem(prob.hessian, prob.steering, prob.kappa, prob.power_bound)
    q = solution.s - tp.center

    n = q.size
    pperp = np.eye(n) - np.outer(tp.y, tp.y.conj()) / tp.ny2
    m_mat = pperp @ prob.hessian @ pperp
    c_vec = (prob.kappa / tp.ny2) * (pperp @ (prob.hessian @ tp.y))
    big = np.zeros((n + 1, n + 1), dtype=np.complex128)
    big[:n, :n] = m_mat
    big[:n, n] = c_vec
    big[n, :n] = c_vec.conj()

    v = np.concatenate([q, [1.0]])
    lifted = np.outer(v, v.conj())
    primal = float(np.real(np.trace(lifted @ big)))

    ball = np.zeros((n + 1, n + 1), dtype=np.complex128)
    ball[:n, :n] = pperp
    constraint_value = float(np.real(np.trace(lifted @ ball)))

    evals = np.linalg.eigvalsh(lifted)
    rank1 = float(evals[-2] / evals[-1]) if evals.size > 1 else 0.0

    alpha = solution.multiplier
    # alpha * r^2 vanishes at alpha = 0, where a zero-mode budget may be infeasible
    r2 = tp.r2 if alpha > 0.0 else 0.0
    dual = tp.dual_value(alpha, r2)
    beta = dual + alpha * r2
    return DualCertificate(
        alpha=alpha,
        beta=beta,
        dual_value=dual,
        primal_value=primal,
        gap=primal - dual,
        rank1_residual=rank1,
        constraint_value=constraint_value,
    )


def cls_solve(f0, y_w, kappa: float, power_bound: float,
              mode: str = "root") -> WaveformSolution:
    """Hyperellipsoid-constrained least squares route, solved by SVD.

    With S the Hermitian square root of F0 (S^H S = F0), C = S P and
    d = -(kappa/||y||^2) S y, the tangent problem is exactly
    min ||C q - d||^2 subject to ||P q||^2 <= r^2: the minimum-norm LS
    solution if it fits the radius, otherwise the SVD-diagonalized
    secular equation in the multiplier.
    """
    if mode not in ("root", "zero"):
        raise ValueError(f"unknown mode {mode!r}")
    f0 = _as_complex(f0)
    sqrt_f = hermitian_sqrt(f0)
    y, ny2 = _steering_vector(y_w)
    problem = WaveformProblem(f0, y, float(kappa), float(power_bound))
    center = (kappa / ny2) * y
    basis = _orth_complement(y)

    a_mat = sqrt_f @ basis
    d_vec = -(kappa / ny2) * (sqrt_f @ y)
    u_mat, sig, vh = np.linalg.svd(a_mat, full_matrices=False)
    dhat = u_mat.conj().T @ d_vec
    # the rank cutoff is on sig^2, the eigenvalues of P F0 P, as in the tangent routes
    sig2_scale = float(sig[0]) ** 2 if sig.size else 0.0
    kept = sig**2 > TAU_RANK * max(sig2_scale, TAU_ZERO)
    weights = (sig * np.abs(dhat)) ** 2

    def z_of(mu: float) -> np.ndarray:
        if mu == 0.0:
            coeff = np.where(kept, dhat / np.where(kept, sig, 1.0), 0.0)
        else:
            coeff = sig * dhat / (sig**2 + mu)
        return vh.conj().T @ coeff

    def norm2_of(mu: float) -> float:
        if mu == 0.0:
            return float(np.sum((np.abs(dhat[kept]) / sig[kept]) ** 2))
        return float(np.sum(weights / (sig**2 + mu) ** 2))

    if mode == "zero":
        mu_star = 0.0
    else:
        r2 = _feasible_radius2(power_bound, kappa, ny2)
        if r2 == 0.0:
            return _make_solution(problem, center.copy(), 0.0, "gamma")
        if norm2_of(0.0) <= r2:
            mu_star = 0.0
        else:
            def psi(mu: float) -> float:
                return norm2_of(mu) - r2

            def dpsi(mu: float) -> float:
                return float(-2.0 * np.sum(weights / (sig**2 + mu) ** 3))

            mu_star = bisect_root(psi, dpsi, 0.0, float(np.sqrt(np.sum(weights) / r2)))

    q = basis @ z_of(mu_star)
    return _make_solution(problem, q + center, mu_star, "gamma")


def scale_solution(w, s, power_bound: float) -> tuple[np.ndarray, np.ndarray]:
    """Rescale (w, s) to exact full power with the clutter term invariant.

    Returns (w', s') = ((||s||/sqrt(P_o)) w, (sqrt(P_o)/||s||) s): the
    Capon product and the clutter quadratic form are unchanged, while
    the noise-plus-interference response scales by ||s||^2/P_o.
    """
    w = _as_complex(w).reshape(-1)
    s = _as_complex(s).reshape(-1)
    ns = float(np.linalg.norm(s))
    if ns <= TAU_ZERO:
        raise ZeroWaveform("cannot rescale a zero waveform")
    factor = ns / np.sqrt(power_bound)
    return factor * w, s / factor


def align_phase(s, y_w) -> np.ndarray:
    """Rotate s by the unit phase that makes s^H y_w real positive."""
    s = _as_complex(s).reshape(-1)
    y = _as_complex(y_w).reshape(-1)
    ip = complex(s.conj() @ y)
    mag = abs(ip)
    if mag <= TAU_ZERO:
        return s.copy()
    return s * (ip / mag)
