"""Waveform half-step, solved four provably-equivalent ways.

The subproblem at each outer iteration is

    min_s  s^H F0 s = ||B s||^2   s.t.  s^H y = kappa,  ||s||^2 <= P_o

with B the k x N clutter factor of the current weights (F0 = B^H B has
rank at most k and is never formed) and y = G^H w. Writing
s = P x + kappa*y/||y||^2, with P = I - y y^H/||y||^2 the projector onto
the complement of y, reduces it to least squares on a ball:

    min_x  ||C x - d||^2   s.t.  ||P x||^2 <= r^2 := P_o - kappa^2/||y||^2

with C = B P, a rank-one update of B, and d = -(kappa/||y||^2) B y.

Each route builds one ``WaveformProblem``, which holds what all four
share (the validated inputs, the Capon point kappa*y/||y||^2, the
projector P, r^2, (C, d) and one rank floor, TAU_RANK * tr F0) and
answers four questions in the route's own form of the step:

* ``point(x)``: the waveform at multiplier x;
* ``secular(x)``: ||point(x)||^2 - P_o in exact arithmetic, decreasing;
* ``secular_derivative(x)``: its derivative;
* ``bracket()``: (lo, hi) for the root, with secular(lo) > 0.

``_solve(problem, mode)`` is the one multiplier regime: zero mode takes
point(0) and ignores the bound; root mode takes the Capon point when
r^2 = 0, point(0) when it fits, and otherwise the point at the root
from the one safeguarded Newton-bisection solver, ``bisect_root``,
which stops at float resolution. Each problem decomposes once and
drops the eigenpairs (or singular triplets) at or below the floor
there, so near-singular F0 gives all four the same point, the
minimum-norm minimizer. Eigenpairs of a factor's X^H X come from the
smaller of its two Gram matrices (``_gram_eigh``), so with k < N a step
costs O(k^2 N), not O(N^3):

* ``direct_update``  ``_RidgeProblem``, eigh of the Gram of B: ridge
  update, with the null space of F0 explicit when F0 is singular;
* ``qcqp_solve``     ``WaveformProblem``, eigh of the Gram of C:
  tangent-space secular equation;
* ``sdp_dual_solve`` ``_DualProblem``: the same, bracketed by
  golden-section search on the 1-D concave dual, with a rank-1
  strong-duality certificate;
* ``cls_solve``      ``_SvdProblem``, thin SVD of C, mu = sig^2: least
  squares ||C x - d||^2 on the norm ball, with the same secular formulas.

All four agree on the optimum; they differ in the numerical path, which
is the point of the cross-checks in the test suite. Multipliers are
interchangeable: the same nonnegative scalar plays the role of lam,
gamma and the dual variable alpha.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .errors import Infeasible, NumericalFailure, ValidationError, ZeroSteering, ZeroWaveform
from .matrix_ops import TAU_RANK, TAU_ZERO, _as_complex, bisect_root
# No route uses it; the benchmark still traces it here until its contract
# drops it (ROADMAP item 1).
from .matrix_ops import hermitian_sqrt  # noqa: F401

LAMBDA_MODES = ("root", "zero")

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
    formed once, from the smaller Gram matrix of C. This class is qcqp's
    problem; the subclasses change the decomposition (cls), the bracket
    (sdp) or the whole form of the step (am-direct). ``project`` is the
    one place the tangent projector P is applied.
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
            raise ValidationError("factor",
                                  f"shape {b.shape} does not match steering length {y.size}")
        kappa, power_bound = float(kappa), float(power_bound)
        if not math.isfinite(kappa):
            raise ValidationError("kappa", f"must be finite, got {kappa!r}")
        if not math.isfinite(power_bound):
            raise ValidationError("power_bound", f"must be finite, got {power_bound!r}")
        return cls(b, y, kappa, power_bound, _steering_norm2(y))

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

    def bracket(self) -> tuple[float, float]:
        """(0, a multiplier where the secular function is <= 0): from
        there on every mu + gamma >= sqrt(sum|c|^2 / r^2)."""
        _, _, c = self._spectrum
        return 0.0, float(np.sqrt(np.sum(np.abs(c) ** 2) / self.r2))

    def point(self, gamma: float) -> np.ndarray:
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


class _DualProblem(WaveformProblem):
    """The sdp route's problem: qcqp's spectrum and secular equation,
    bracketed by golden-section maximization of the concave dual."""

    def bracket(self) -> tuple[float, float]:
        """The final golden-section interval around the dual's maximizer
        on the base bracket, _GOLDEN_RTOL times that bracket wide."""
        lo, hi = super().bracket()
        a, b = lo, hi
        lows = [a]
        c = b - _GOLDEN * (b - a)
        d = a + _GOLDEN * (b - a)
        fc, fd = self.dual_value(c), self.dual_value(d)
        while b - a > _GOLDEN_RTOL * (hi - lo):
            if fc >= fd:
                b, d, fd = d, c, fc
                c = b - _GOLDEN * (b - a)
                fc = self.dual_value(c)
            else:
                a, c, fc = c, d, fd
                lows.append(a)
                d = a + _GOLDEN * (b - a)
                fd = self.dual_value(d)
        # rounding on the dual's flat top can move the interval past the root:
        # back off to the last lower end where the secular value is positive
        return next((x for x in reversed(lows) if self.secular(x) > 0.0), lo), b


class _RidgeProblem(WaveformProblem):
    """The am-direct route's problem: the ridge update

        s(lam) = kappa*(F0+lam*I)^-1 y / (y^H (F0+lam*I)^-1 y)

    in the eigenbasis of F0, with secular function ||s(lam)||^2 - P_o.
    At lam = 0 it takes s0, the limit of s(lam) as lam -> 0 at any rank
    of F0: for a singular F0 the null-space point or the minimum-norm
    point.
    """

    @cached_property
    def _eigenbasis(self) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
        """(evals, evecs, ytilde, |ytilde|^2): F0's eigenpairs above the
        floor, from the smaller Gram matrix of B, and ytilde = evecs^H y.
        When F0 is singular, y's null direction leads with eigenvalue
        exactly 0; every other eigenvalue is above the floor."""
        y = self.steering
        evals, evecs, _ = _gram_eigh(self.factor, self.floor)
        ytilde = evecs.conj().T @ y
        if evals.size < y.size:
            # F0 is singular: the rest of y, in its null space, is one more eigenvalue 0
            y_null = y - evecs @ ytilde
            y_null -= evecs @ (evecs.conj().T @ y_null)  # rounding leaves some of it in the range
            n_null = float(np.linalg.norm(y_null))
            evals = np.concatenate(([0.0], evals))
            evecs = np.column_stack((y_null / n_null if n_null > 0.0 else y_null, evecs))
            ytilde = np.concatenate(([n_null], ytilde))
        return evals, evecs, ytilde, np.abs(ytilde) ** 2

    def _ridge(self, lam: float) -> tuple[np.ndarray, float]:
        """(s(lam), ||s(lam)||^2)."""
        evals, evecs, ytilde, abs2 = self._eigenbasis
        d = evals + lam
        denom = float(np.sum(abs2 / d))
        s = (self.kappa / denom) * (evecs @ (ytilde / d))
        return s, self.kappa**2 * float(np.sum(abs2 / d**2)) / denom**2

    @cached_property
    def _s0(self) -> tuple[np.ndarray, float]:
        """(s0, ||s0||^2), the point at lam = 0 and its power."""
        evals, evecs, ytilde, abs2 = self._eigenbasis
        if evals[0] > 0.0:
            return self._ridge(0.0)
        kappa = self.kappa
        a_null, a_range = float(abs2[0]), float(np.sum(abs2[1:]))
        # y's null part n is the tangent direction P n, with Rayleigh quotient
        # a_null y^H F0 y / (||y||^2 a_range): it counts above the floor, or if a_range = 0
        if a_null * float(np.sum(evals * abs2)) >= self.floor * self.ny2 * a_range:
            # limit of the ridge update: the null-space component wins
            return (kappa / a_null) * (evecs[:, :1] @ ytilde[:1]), kappa**2 / a_null
        # the minimum-norm minimizer, as in the tangent routes
        denom = float(np.sum(abs2[1:] / evals[1:]))
        s0 = (kappa / denom) * (evecs[:, 1:] @ (ytilde[1:] / evals[1:]))
        return s0, kappa**2 * float(np.sum(abs2[1:] / evals[1:] ** 2)) / denom**2

    def point(self, lam: float) -> np.ndarray:
        return self._s0[0] if lam == 0.0 else self._ridge(lam)[0]

    def secular(self, lam: float) -> float:
        return (self._s0[1] if lam == 0.0 else self._ridge(lam)[1]) - self.power_bound

    def secular_derivative(self, lam: float) -> float:
        evals, _, _, abs2 = self._eigenbasis
        d = evals + lam
        a_sum = float(np.sum(abs2 / d**2))
        b_sum = float(np.sum(abs2 / d))
        c_sum = float(np.sum(abs2 / d**3))
        return 2.0 * self.kappa**2 * (a_sum**2 - c_sum * b_sum) / b_sum**3

    def bracket(self) -> tuple[float, float]:
        # kappa ||P F0 y|| / (||y||^2 r) is the tangent bracket's upper end:
        # s(lam) -> center - kappa/(lam ||y||^2) P F0 y as lam grows
        evals, _, _, abs2 = self._eigenbasis
        pf0y2 = float(np.sum(evals**2 * abs2)) - float(np.sum(evals * abs2)) ** 2 / self.ny2
        hi = self.kappa * np.sqrt(max(pf0y2, 0.0) / self.r2) / self.ny2
        return 0.0, (hi if hi > 0.0 else 1.0)


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


def _solve(problem: WaveformProblem, mode: str) -> WaveformSolution:
    """The multiplier regime every route shares, on the route's problem.

    Zero mode takes ``problem.point(0)`` and never enforces the bound.
    Root mode takes the Capon point when r^2 = 0, ``point(0)`` when
    ``secular(0) <= 0``, and otherwise ``point`` at the root of
    ``secular`` (with ``secular_derivative``) from ``bisect_root`` on
    ``bracket()``, which is called only then, after r^2 > 0 is known.
    ``bisect_root`` is looked up in this module at each call, so a
    wrapper installed there sees every root solve.
    """
    if mode not in LAMBDA_MODES:
        raise ValidationError("mode", f"unknown mode {mode!r}; expected one of {LAMBDA_MODES}")
    multiplier = 0.0
    if mode == "zero":
        s = problem.point(0.0)
    elif problem.r2 == 0.0:
        s = problem.center.copy()
    elif problem.secular(0.0) <= 0.0:
        s = problem.point(0.0)
    else:
        multiplier = bisect_root(problem.secular, problem.secular_derivative,
                                 *problem.bracket())
        s = problem.point(multiplier)
    return _make_solution(problem, s, multiplier)


def direct_update(factor, g_map, w, kappa: float, power_bound: float,
                  mode: str = "root") -> WaveformSolution:
    """Ridge-form waveform update (``_RidgeProblem``) for y = G^H w.

    Root mode takes the smallest lam >= 0 whose update meets the power
    bound, exactly lam = 0 (zero mode's point) when the unconstrained
    update fits; zero mode never enforces the bound.
    """
    y_w = _as_complex(g_map).conj().T @ _as_complex(w).reshape(-1)
    return _solve(_RidgeProblem._validated(factor, y_w, kappa, power_bound), mode)


def qcqp_solve(factor, y_w, kappa: float, power_bound: float,
               mode: str = "root") -> WaveformSolution:
    """Tangent-space solve with the multiplier from the secular equation.

    Returns s = q(gamma*) + kappa*y/||y||^2 where either gamma* = 0 and
    the tangent component already fits the radius, or gamma* > 0 pins
    ||q(gamma*)||^2 = r^2. Zero mode pins gamma = 0 and ignores the
    power bound entirely.
    """
    return _solve(WaveformProblem._validated(factor, y_w, kappa, power_bound), mode)


def sdp_dual_solve(factor, y_w, kappa: float, power_bound: float,
                   mode: str = "root") -> WaveformSolution:
    """Maximize the 1-D concave dual of the tangent problem.

    g(alpha) = alpha*kappa^2/||y||^2 - alpha*P_o
               - (kappa^2/||y||^4) b^H M(alpha)^+ b

    with M(alpha) = P(F0 + alpha*P)P and b = P F0 y, maximized by
    golden-section search on qcqp's bracket (``_DualProblem``); the final
    golden interval goes to the shared root solver on the dual's
    derivative, the secular function. The primal point is recovered from
    the optimizing alpha and certified against the dual value (rank-1
    lifting, weak/strong duality gap).
    """
    solution = _solve(_DualProblem._validated(factor, y_w, kappa, power_bound), mode)
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
    return _solve(_SvdProblem._validated(factor, y_w, kappa, power_bound), mode)


def scale_solution(w, s, power_bound: float) -> tuple[np.ndarray, np.ndarray]:
    """Rescale (w, s) to exact full power with the clutter term invariant.

    Returns (w', s') = ((||s||/sqrt(P_o)) w, (sqrt(P_o)/||s||) s): the
    Capon product and the clutter quadratic form are unchanged, while
    the noise-plus-interference response scales by ||s||^2/P_o, which
    must be finite and > 0.
    """
    if not 0.0 < power_bound < math.inf:
        raise ValidationError("power_bound", f"must be finite and > 0, got {power_bound!r}")
    w = _as_complex(w).reshape(-1)
    s = _as_complex(s).reshape(-1)
    ns = float(np.linalg.norm(s))
    if ns <= TAU_ZERO:
        raise ZeroWaveform("cannot rescale a zero waveform")
    factor = ns / np.sqrt(power_bound)
    return factor * w, s / factor
