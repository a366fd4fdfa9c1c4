"""Waveform half-step, solved four provably-equivalent ways.

The subproblem at each outer iteration is

    min_s  s^H F0 s = ||B s||^2   s.t.  s^H y = kappa,  ||s||^2 <= P_o

with B the k x N clutter factor of the current weights (F0 = B^H B has
rank at most k and is never formed) and y = G^H w. Writing
s = P x + kappa*y/||y||^2, with P = I - y y^H/||y||^2 the projector onto
the complement of y, reduces it to least squares on a ball:

    min_x  ||C x - d||^2   s.t.  ||P x||^2 <= r^2 := P_o - kappa^2/||y||^2

with C = B P, a rank-one update of B, and d = -(kappa/||y||^2) B y. One
``WaveformProblem`` per solve holds what every route shares: the
validated inputs, the Capon point kappa*y/||y||^2, the projector P,
r^2, (C, d) and one rank floor, TAU_RANK * tr F0. Each route
decomposes once and drops the eigenpairs (or singular triplets) at or
below the floor there, so near-singular F0 gives all four the same
point, the minimum-norm minimizer. The three tangent routes share one
spectrum form, (mu, V, c) with M = C^H C = P F0 P ~ V diag(mu) V^H over
the pairs above the floor, and from it one secular function,
derivative, bracket, point and dual; they differ only in how they
decompose C. One multiplier regime is shared too (``_solve``): zero
mode takes the point at multiplier 0 and ignores the bound; root mode
returns the Capon point when r^2 = 0, the point at multiplier 0 when it
fits, and otherwise the root of the route's decreasing secular function
from the one safeguarded Newton-bisection solver, ``bisect_root``, which
stops at float resolution. Eigenpairs of a factor's X^H X come from the
smaller of its two Gram matrices (``_gram_eigh``), so with k < N a step
costs O(k^2 N), not O(N^3):

* ``direct_update``  eigh of the Gram of B: ridge update
  s = kappa*(F0+lam*I)^-1 y / (y^H (F0+lam*I)^-1 y), with the null
  space of F0 explicit (the part of y outside its range) when F0 is
  singular;
* ``qcqp_solve``     eigh of the Gram of C: tangent-space secular
  equation;
* ``sdp_dual_solve`` the same spectrum and secular equation, bracketed
  by golden-section search on the 1-D concave dual, with a rank-1
  strong-duality certificate;
* ``cls_solve``      thin SVD of C, mu = sig^2: least squares
  ||C x - d||^2 on the norm ball, with the same secular formulas.

All four agree on the optimum; they differ in the numerical path, which
is the point of the cross-checks in the test suite. Multipliers are
interchangeable: the same nonnegative scalar plays the role of lam,
gamma and the dual variable alpha.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .errors import Infeasible, NumericalFailure, ZeroSteering, ZeroWaveform
from .matrix_ops import TAU_RANK, TAU_ZERO, _as_complex, bisect_root
# No route uses it; the benchmark still traces it here until its contract
# drops it (ROADMAP item 1).
from .matrix_ops import hermitian_sqrt  # noqa: F401

_GOLDEN = (np.sqrt(5.0) - 1.0) / 2.0
_GOLDEN_RTOL = 1e-8


def _steering_norm2(y: np.ndarray) -> float:
    """||y||^2 of a validated 1-D steering vector, which must not be zero."""
    ny2 = float(np.real(y.conj() @ y))
    if np.sqrt(ny2) <= TAU_ZERO:
        raise ZeroSteering("steering vector is numerically zero")
    return ny2


def _feasible_radius2(power_bound: float, kappa: float, ny2: float) -> float:
    r2 = power_bound - kappa**2 / ny2
    if r2 < -1e-12 * max(power_bound, kappa**2 / ny2):
        raise Infeasible(
            f"Capon point needs power {kappa**2 / ny2:.6e} > budget {power_bound:.6e}"
        )
    return max(r2, 0.0)


def _gram_eigh(x: np.ndarray, floor: float
               ) -> tuple[np.ndarray, np.ndarray, np.ndarray | None]:
    """The eigenpairs of X^H X above `floor` for a k x n factor X, from
    its smaller Gram matrix; the pairs at or below it are dropped.

    Returns (mu, vecs, left), vecs orthonormal eigenvectors of X^H X. When
    k >= n: eigh of X^H X itself, and left None. When k < n: eigh of the
    k x k X X^H = U diag(mu) U^H, left = U and vecs = X^H U diag(mu)^-1/2;
    the other n - k eigenvalues of X^H X are exactly zero.
    """
    k, n = x.shape
    if k >= n:
        mu, vecs = np.linalg.eigh(x.conj().T @ x)
        keep = mu > floor
        return mu[keep], vecs[:, keep], None
    mu, left = np.linalg.eigh(x @ x.conj().T)
    keep = mu > floor
    return mu[keep], (x.conj().T @ left)[:, keep] / np.sqrt(mu[keep]), left[:, keep]


@dataclass(frozen=True, eq=False)
class WaveformProblem:
    """One waveform subproblem and the Capon geometry every route shares.

    `factor` is the k x N clutter factor B, F0 = B^H B; any finite factor
    gives a PSD F0. Routes build the problem with ``_validated``. The
    derived quantities are computed on first use, so each route pays
    only for what it reads: r^2 raises Infeasible only where the power
    bound matters, and the spectrum of M = C^H C = P F0 P (the tangent
    secular function, point and dual, O(min(k, N)) per evaluation) is
    formed once, from the smaller Gram matrix of C, for qcqp, sdp or the
    certificate; cls's subclass takes it from the SVD of C instead.
    ``project`` is the one place the tangent projector P is applied.
    """

    factor: np.ndarray
    steering: np.ndarray
    kappa: float
    power_bound: float
    ny2: float

    @classmethod
    def _validated(cls, factor, y_w, kappa: float, power_bound: float) -> WaveformProblem:
        b, y = _as_complex(factor), _as_complex(y_w).reshape(-1)
        if b.ndim != 2 or b.shape[1] != y.size:
            raise ValueError(f"factor shape {b.shape} does not match steering length {y.size}")
        return cls(b, y, float(kappa), float(power_bound), _steering_norm2(y))

    @cached_property
    def center(self) -> np.ndarray:
        """The Capon point kappa*y/||y||^2, the minimum-power feasible code."""
        return (self.kappa / self.ny2) * self.steering

    @cached_property
    def r2(self) -> float:
        return _feasible_radius2(self.power_bound, self.kappa, self.ny2)

    @cached_property
    def floor(self) -> float:
        """TAU_RANK * tr F0 = TAU_RANK * ||B||_F^2: an eigenvalue of F0 or
        of M, or a squared singular value of C, at or below it is zero."""
        return TAU_RANK * max(float(np.linalg.norm(self.factor)) ** 2, TAU_ZERO)

    def project(self, x: np.ndarray) -> np.ndarray:
        """P x = x - y (y^H x)/||y||^2, column by column for an N x m x."""
        y = self.steering
        return x - np.multiply.outer(y, y.conj() @ x) / self.ny2

    @cached_property
    def least_squares(self) -> tuple[np.ndarray, np.ndarray]:
        """(C, d) = (B P, -(kappa/||y||^2) B y): s = P x + Capon point
        costs ||C x - d||^2. C = B - (B y) y^H/||y||^2 costs O(kN)."""
        b = self.factor
        return (self.project(b.conj().T).conj().T,
                -(self.kappa / self.ny2) * (b @ self.steering))

    def apply_hessian(self, x: np.ndarray) -> np.ndarray:
        """F0 x = B^H (B x)."""
        return self.factor.conj().T @ (self.factor @ x)

    @cached_property
    def _spectrum(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """(mu, V, c): the eigenvalues mu of M = C^H C = P F0 P above the
        floor, orthonormal eigenvectors V and c = -V^H C^H d, so that
        P V (-c/(mu + gamma)) is the tangent point at multiplier gamma.

        Taken from eigh of the smaller Gram matrix of C. The pairs at or
        below the floor are dropped: C^H d lies in the range of M, but
        there its weight cannot be told from rounding (y itself is an
        exact null vector of P F0 P). So at gamma = 0 every formula below
        gives the pseudoinverse value, the minimum-norm point's."""
        c_mat, d = self.least_squares
        mu, vecs, left = _gram_eigh(c_mat, self.floor)
        if left is None:
            return mu, vecs, -(vecs.conj().T @ (c_mat.conj().T @ d))
        return mu, vecs, -np.sqrt(mu) * (left.conj().T @ d)

    def secular(self, gamma: float) -> float:
        """||P q(gamma)||^2 - r^2 = sum |c|^2/(mu + gamma)^2 - r^2,
        decreasing on gamma >= 0."""
        mu, _, c = self._spectrum
        return float(np.sum(np.abs(c) ** 2 / (mu + gamma) ** 2)) - self.r2

    def secular_derivative(self, gamma: float) -> float:
        mu, _, c = self._spectrum
        return float(-2.0 * np.sum(np.abs(c) ** 2 / (mu + gamma) ** 3))

    def root_bound(self) -> float:
        """A multiplier where the secular function is <= 0: from there
        on every mu + gamma >= sqrt(sum|c|^2 / r^2)."""
        _, _, c = self._spectrum
        return float(np.sqrt(np.sum(np.abs(c) ** 2) / self.r2))

    def tangent_point(self, gamma: float) -> np.ndarray:
        """s(gamma) = P V (-c/(mu + gamma)) + Capon point."""
        mu, vecs, c = self._spectrum
        return self.project(vecs @ (-c / (mu + gamma))) + self.center

    def dual_value(self, alpha: float) -> float:
        """The concave dual g(alpha) = -alpha r^2 - c^H (M + alpha I)^+ c."""
        mu, _, c = self._spectrum
        value = -float(np.sum(np.abs(c) ** 2 / (mu + alpha)))
        # alpha r^2 vanishes at 0, also where a zero-mode budget is infeasible
        return value if alpha == 0.0 else value - alpha * self.r2


class _SvdProblem(WaveformProblem):
    """The cls route's problem: its spectrum comes from the thin SVD
    C = U diag(sig) V^H, with mu = sig^2 above the floor, V the right
    singular vectors and c = -sig U^H d."""

    @cached_property
    def _spectrum(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        c_mat, d = self.least_squares
        u_mat, sig, vh = np.linalg.svd(c_mat, full_matrices=False)
        keep = sig**2 > self.floor
        sig = sig[keep]
        return sig**2, vh[keep].conj().T, -sig * (u_mat[:, keep].conj().T @ d)


@dataclass
class DualCertificate:
    """Strong-duality evidence attached to an SDP-route solution."""

    dual_value: float
    primal_value: float
    gap: float
    constraint_value: float


@dataclass(eq=False)
class WaveformSolution:
    """One waveform solve: the code, its multiplier and KKT summary.

    `objective` is the waveform-dependent cost s^H F0 s; the constant
    receiver term is added back by the driver's full objective.
    """

    s: np.ndarray
    multiplier: float
    objective: float
    capon_residual: float
    power: float
    kkt_residual: float
    problem: WaveformProblem
    certificate: DualCertificate | None = None


def _make_solution(problem: WaveformProblem, s: np.ndarray,
                   multiplier: float) -> WaveformSolution:
    y = problem.steering
    fs = problem.apply_hessian(s)
    v = fs + multiplier * s
    tangential = problem.project(v)
    nv = float(np.linalg.norm(v))
    return WaveformSolution(
        s=s,
        multiplier=float(multiplier),
        objective=float(np.real(s.conj() @ fs)),
        capon_residual=float(np.abs(s.conj() @ y - problem.kappa)),
        power=float(np.real(s.conj() @ s)),
        kkt_residual=0.0 if nv <= TAU_ZERO else float(np.linalg.norm(tangential)) / nv,
        problem=problem,
    )


def _solve(problem: WaveformProblem, mode: str, point, secular, derivative,
           bracket) -> WaveformSolution:
    """The multiplier regime every route shares.

    `point(x)` is the route's waveform at multiplier x, `secular` its
    decreasing secular function (<= 0 where the point fits the power
    bound) with `derivative`, and `bracket()` returns (lo, hi) with
    secular(lo) > 0 for the root solve; it is called only when the bound
    is active, after r^2 > 0 is known.
    """
    if mode not in ("root", "zero"):
        raise ValueError(f"unknown mode {mode!r}")
    multiplier = 0.0
    if mode == "zero":
        s = point(0.0)
    elif problem.r2 == 0.0:
        s = problem.center.copy()
    elif secular(0.0) <= 0.0:
        s = point(0.0)
    else:
        multiplier = bisect_root(secular, derivative, *bracket())
        s = point(multiplier)
    return _make_solution(problem, s, multiplier)


def direct_update(factor, g_map, w, kappa: float, power_bound: float,
                  mode: str = "root") -> WaveformSolution:
    """Ridge-form waveform update with the multiplier found by root finding.

    In root mode, lam is the smallest nonnegative value for which
    s(lam) = kappa*(F0+lam*I)^-1 y / (y^H (F0+lam*I)^-1 y), F0 = B^H B
    for the clutter factor B, meets the power bound; lam = 0 is returned
    exactly (same code path as zero mode) whenever the unconstrained
    update is already feasible. Zero mode takes that same lam = 0 point
    at any rank of F0 and never enforces the bound: for a singular F0 it
    is the limit of s(lam) as lam -> 0, the null-space point or the
    minimum-norm point.
    """
    y_w = _as_complex(g_map).conj().T @ _as_complex(w).reshape(-1)
    problem = WaveformProblem._validated(factor, y_w, kappa, power_bound)
    y, ny2 = problem.steering, problem.ny2

    evals, evecs, _ = _gram_eigh(problem.factor, problem.floor)
    ytilde = evecs.conj().T @ y
    rank = evals.size
    if rank < y.size:
        # F0 is singular: the rest of y, in its null space, is one more eigenvalue 0
        y_null = y - evecs @ ytilde
        y_null -= evecs @ (evecs.conj().T @ y_null)  # rounding leaves some of it in the range
        n_null = float(np.linalg.norm(y_null))
        evals = np.concatenate(([0.0], evals))
        evecs = np.column_stack((y_null / n_null if n_null > 0.0 else y_null, evecs))
        ytilde = np.concatenate(([n_null], ytilde))
    abs2 = np.abs(ytilde) ** 2

    def ridge(lam: float) -> tuple[np.ndarray, float]:
        d = evals + lam
        denom = float(np.sum(abs2 / d))
        s = (kappa / denom) * (evecs @ (ytilde / d))
        return s, kappa**2 * float(np.sum(abs2 / d**2)) / denom**2

    if rank == y.size:
        s0, norm2_0 = ridge(0.0)
    else:
        a_null, a_range = float(abs2[0]), float(np.sum(abs2[1:]))
        # y's null part n is the tangent direction P n, with Rayleigh quotient
        # a_null y^H F0 y / (||y||^2 a_range): it counts above the floor, or if a_range = 0
        if a_null * float(np.sum(evals * abs2)) >= problem.floor * ny2 * a_range:
            # limit of the ridge update: the null-space component wins
            s0 = (kappa / a_null) * (evecs[:, :1] @ ytilde[:1])
            norm2_0 = kappa**2 / a_null
        else:
            # the minimum-norm minimizer, as in the tangent routes
            denom = float(np.sum(abs2[1:] / evals[1:]))
            s0 = (kappa / denom) * (evecs[:, 1:] @ (ytilde[1:] / evals[1:]))
            norm2_0 = kappa**2 * float(np.sum(abs2[1:] / evals[1:] ** 2)) / denom**2

    def point(lam: float) -> np.ndarray:
        return s0 if lam == 0.0 else ridge(lam)[0]

    def phi(lam: float) -> float:
        return (norm2_0 if lam == 0.0 else ridge(lam)[1]) - power_bound

    def dphi(lam: float) -> float:
        d = evals + lam
        a_sum = float(np.sum(abs2 / d**2))
        b_sum = float(np.sum(abs2 / d))
        c_sum = float(np.sum(abs2 / d**3))
        return 2.0 * kappa**2 * (a_sum**2 - c_sum * b_sum) / b_sum**3

    def bracket() -> tuple[float, float]:
        # kappa ||P F0 y|| / (||y||^2 r) is the tangent routes' root_bound:
        # s(lam) -> center - kappa/(lam ||y||^2) P F0 y as lam grows
        pf0y2 = float(np.sum(evals**2 * abs2)) - float(np.sum(evals * abs2)) ** 2 / ny2
        hi = kappa * np.sqrt(max(pf0y2, 0.0) / problem.r2) / ny2
        return 0.0, (hi if hi > 0.0 else 1.0)

    return _solve(problem, mode, point, phi, dphi, bracket)


def qcqp_solve(factor, y_w, kappa: float, power_bound: float,
               mode: str = "root") -> WaveformSolution:
    """Tangent-space solve with the multiplier from the secular equation.

    Returns s = q(gamma*) + kappa*y/||y||^2 where either gamma* = 0 and
    the tangent component already fits the radius, or gamma* > 0 pins
    ||q(gamma*)||^2 = r^2. Zero mode pins gamma = 0 and ignores the
    power bound entirely.
    """
    problem = WaveformProblem._validated(factor, y_w, kappa, power_bound)
    return _solve(problem, mode, problem.tangent_point, problem.secular,
                  problem.secular_derivative, lambda: (0.0, problem.root_bound()))


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


def sdp_dual_solve(factor, y_w, kappa: float, power_bound: float,
                   mode: str = "root") -> WaveformSolution:
    """Maximize the 1-D concave dual of the tangent problem.

    g(alpha) = alpha*kappa^2/||y||^2 - alpha*P_o
               - (kappa^2/||y||^4) b^H M(alpha)^+ b

    with M(alpha) = P(F0 + alpha*P)P and b = P F0 y, maximized by
    golden-section search on [0, root_bound]; the final golden
    interval goes to the shared root solver on the dual's derivative,
    the secular function. The primal point is recovered from the
    optimizing alpha and certified against the dual value (rank-1
    lifting, weak/strong duality gap).
    """
    problem = WaveformProblem._validated(factor, y_w, kappa, power_bound)

    def bracket() -> tuple[float, float]:
        lo, hi = _golden_max(problem.dual_value, 0.0, problem.root_bound())
        # rounding on the dual's flat top can move the interval past the root
        return (lo if problem.secular(lo) > 0.0 else 0.0), hi

    solution = _solve(problem, mode, problem.tangent_point, problem.secular,
                      problem.secular_derivative, bracket)
    if not np.isfinite(solution.objective):
        raise NumericalFailure("dual route produced a non-finite objective")
    solution.certificate = sdp_certificate(solution)
    if not np.isfinite(solution.certificate.dual_value):
        raise NumericalFailure("dual value is non-finite")
    return solution


def sdp_certificate(solution: WaveformSolution) -> DualCertificate:
    """Rank-1 certificate for a solved waveform subproblem.

    The lifted point Q = [[q q^H, q], [q^H, 1]] of the tangent component
    q = P(s - Capon point) is rank 1 by construction. Its trace products
    with the lifted objective [[P F0 P, c], [c^H, 0]], c = (kappa/||y||^2)
    P F0 y, and with the ball [[P, 0], [0, 0]] are the quadratic forms
    q^H F0 q + 2 Re(q^H c) (primal value) and ||q||^2 (constraint
    value), with F0 applied as B^H (B q). The dual is re-evaluated at the
    solution's multiplier from the problem's eigen-decomposition; the
    gap is primal minus dual.
    """
    prob = solution.problem
    q = prob.project(solution.s - prob.center)
    fq = prob.apply_hessian(q)
    primal = (float(np.real(q.conj() @ fq))
              + 2.0 * (prob.kappa / prob.ny2) * float(np.real(fq.conj() @ prob.steering)))

    dual = prob.dual_value(solution.multiplier)
    return DualCertificate(
        dual_value=dual,
        primal_value=primal,
        gap=primal - dual,
        constraint_value=float(np.real(q.conj() @ q)),
    )


def cls_solve(factor, y_w, kappa: float, power_bound: float,
              mode: str = "root") -> WaveformSolution:
    """Hyperellipsoid-constrained least squares route, solved by SVD.

    With the clutter factor B (B^H B = F0), C = B P and
    d = -(kappa/||y||^2) B y, the tangent problem is exactly
    min ||C x - d||^2 subject to ||P x||^2 <= r^2, s = P x + Capon point:
    the minimum-norm LS solution if it fits the radius, otherwise the
    secular equation in the multiplier. The thin SVD of C diagonalizes
    both: its squared singular values above the floor are the spectrum,
    and the problem's own secular formulas run on it.
    """
    problem = _SvdProblem._validated(factor, y_w, kappa, power_bound)
    return _solve(problem, mode, problem.tangent_point, problem.secular,
                  problem.secular_derivative, lambda: (0.0, problem.root_bound()))


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
