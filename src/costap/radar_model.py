"""Scenario construction: steering vectors, the waveform-to-space-time
map G, and the structured space-time covariance.

Index convention for every length-M*N*L vector: Doppler (pulse) index
outermost, fast-time index in the middle, spatial (sensor) index
innermost, so that G s = v kron s kron a holds literally with
G = kron(v, kron(I_N, a)).

The covariance R_u(s) = R_n + R_i + R_c(s) is never formed as an
MNL x MNL matrix. R_n = rho^|i-j| is a Kac-Murdock-Szego matrix with a
tridiagonal inverse; R_i + R_c(s) = F F^H with F the MNL x (I+r) factor
of interferer columns and clutter columns t_j kron s.

Clutter patch q responds to s with A_q s = v_q kron s kron a_q = k_q
kron s, k_q = v_q kron a_q on the (pulse, sensor) axes. So the Q patches
enter R_c(s) and the waveform Hessian F0(w) only through K^H K, K the
Q x LM stack of the k_q. `build_bundle` takes one thin SVD K = U S V^H
and keeps T = S_r V_r^H, the r rows above the numerical-rank cutoff:
T^H T = K^H K, and r <= min(Q, LM) is the clutter rank, M + beta (L-1)
for an integer ridge slope beta (Brennan's rule). `SpaceTimeCov`
applies, evaluates and solves with R_u in O(MNL * (I+r)^2 + r^3), so no
per-iteration cost depends on Q.
"""

from __future__ import annotations

from dataclasses import dataclass, field, fields
from functools import lru_cache

import numpy as np
from scipy.linalg import LinAlgError, cho_factor, cho_solve
from scipy.linalg.blas import zherk
from scipy.linalg.lapack import zpttrf, zpttrs

from .errors import SingularCovariance, ValidationError, check_int


@dataclass(frozen=True)
class TargetSpec:
    """Hypothesized target: angles in radians, Doppler in cycles/pulse."""

    azimuth: float
    elevation: float
    doppler: float


@dataclass(frozen=True)
class InterfererSpec:
    """One interference source with a fast/slow-time phase ramp."""

    azimuth: float
    elevation: float
    phase_rate: float
    power: float = 1.0


@dataclass(frozen=True)
class ClutterSpec:
    """Discrete clutter ring: `patches` scatterers, azimuths linearly
    spaced over `azimuth_span` at a common elevation."""

    patches: int = 1
    elevation: float = 0.0
    azimuth_span: tuple[float, float] = (0.0, 0.0)
    patch_power: float = 1.0
    doppler_slope: float = 1.0


# Scenario-file path of every config field not stored under its own name.
FILE_PATHS = {"M": "dims.M", "N": "dims.N", "L": "dims.L", "noise_decay": "noise.decay"}


@dataclass(frozen=True)
class ScenarioConfig:
    """Full simulation description (dimensions, target, environment).

    M: sensors, N: fast-time samples per pulse, L: pulses. `kappa` is
    the Capon gain, `power` the transmit energy budget P_o.
    """

    M: int
    N: int
    L: int
    target: TargetSpec
    kappa: float = 1.0
    power: float = 1.0
    noise_decay: float = 0.005
    interferers: tuple[InterfererSpec, ...] = ()
    clutter: ClutterSpec = field(default_factory=ClutterSpec)
    seed: int = 0

    def __post_init__(self):
        for name in ("M", "N", "L"):
            check_int(FILE_PATHS[name], getattr(self, name), 1)
        check_int("seed", self.seed, 0)
        for label, value in self._real_fields():
            if not np.isfinite(value):
                raise ValidationError(label, f"must be finite, got {value!r}")
        if not self.power > 0:
            raise ValidationError("power", f"must be positive, got {self.power!r}")
        if not self.kappa > 0:
            raise ValidationError("kappa", f"must be positive, got {self.kappa!r}")
        # rho = exp(-decay) = 1 makes R_n the singular all-ones matrix
        if not (self.noise_decay > 0 and np.exp(-self.noise_decay) < 1.0):
            raise ValidationError(FILE_PATHS["noise_decay"], "must be positive with "
                                  f"exp(-decay) < 1, got {self.noise_decay!r}")
        if self.clutter.patches < 1:
            raise ValidationError("clutter.patches", f"must be >= 1, got {self.clutter.patches!r}")
        lo, hi = self.clutter.azimuth_span
        if not lo <= hi:
            raise ValidationError("clutter.azimuth_span", f"need lo <= hi, got {(lo, hi)!r}")
        if self.clutter.patch_power < 0:
            raise ValidationError("clutter.patch_power", "must be >= 0")
        for i, itf in enumerate(self.interferers):
            if itf.power < 0:
                raise ValidationError(f"interferers[{i}].power", "must be >= 0")

    def _real_fields(self):
        """(label, value) of every real-valued field of the config and its
        specs, labelled as in the scenario file."""
        owners = [("", self), ("target.", self.target), ("clutter.", self.clutter)]
        owners += [(f"interferers[{i}].", itf) for i, itf in enumerate(self.interferers)]
        for prefix, spec in owners:
            for f in fields(spec):
                value = getattr(spec, f.name)
                if f.type == "float":
                    yield prefix + FILE_PATHS.get(f.name, f.name), value
                elif f.type == "tuple[float, float]":
                    yield from ((f"{prefix}{f.name}[{j}]", v) for j, v in enumerate(value))

    @property
    def mnl(self) -> int:
        return self.M * self.N * self.L


def spatial_steering(azimuth: float, elevation: float, num_sensors: int) -> np.ndarray:
    """Half-wavelength ULA steering vector, entry m = exp(-i pi m sin(az) cos(el)).
    An azimuth array of shape (Q, 1) gives the Q x M stack of vectors."""
    m = np.arange(num_sensors)
    return np.exp(-1j * np.pi * m * np.sin(azimuth) * np.cos(elevation))


def doppler_steering(doppler: float, num_pulses: int) -> np.ndarray:
    """Slow-time steering vector, entry l = exp(i 2 pi f_d l). A Doppler
    array of shape (Q, 1) gives the Q x L stack of vectors."""
    ell = np.arange(num_pulses)
    return np.exp(2j * np.pi * doppler * ell)


def _space_time_map(azimuth: float, elevation: float, doppler: float,
                    M: int, N: int, L: int) -> np.ndarray:
    """(v kron I_N kron a) as an MNL x N matrix."""
    a = spatial_steering(azimuth, elevation, M)
    v = doppler_steering(doppler, L)
    return np.kron(v.reshape(-1, 1), np.kron(np.eye(N), a.reshape(-1, 1)))


def build_target_map(cfg: ScenarioConfig) -> np.ndarray:
    """Map G with G s = v(f_d) kron s kron a(theta_t, phi_t) for all s."""
    t = cfg.target
    return _space_time_map(t.azimuth, t.elevation, t.doppler, cfg.M, cfg.N, cfg.L)


def _interferer_columns(cfg: ScenarioConfig) -> np.ndarray:
    """MNL x I matrix with columns sqrt(power) * u, u = kron(t, a_i).

    t_n = exp(i * phase_rate * n) runs over the LN joint pulse/fast-time
    lags and a_i is the interferer's spatial steering vector; this kron
    order matches the global (pulse, fast-time, space) indexing.
    """
    n = np.arange(cfg.L * cfg.N)
    cols = [np.sqrt(itf.power) * np.kron(np.exp(1j * itf.phase_rate * n),
                                         spatial_steering(itf.azimuth, itf.elevation, cfg.M))
            for itf in cfg.interferers]
    return np.array(cols, dtype=np.complex128).reshape(len(cols), cfg.mnl).T


def _clutter_patches(cfg: ScenarioConfig) -> tuple[np.ndarray, np.ndarray]:
    """Patch azimuths, linearly spaced over the configured span, and the
    clutter-ridge Dopplers f_q = slope * sin(az) * cos(el) / 2."""
    cl = cfg.clutter
    lo, hi = cl.azimuth_span
    azimuths = np.linspace(lo, hi, cl.patches)
    return azimuths, cl.doppler_slope * np.sin(azimuths) * np.cos(cl.elevation) / 2.0


@lru_cache(maxsize=16)
def _kms_factor(rho: float, n: int) -> tuple[np.ndarray, np.ndarray]:
    """The L D L^H factors (`zpttrf`) of the tridiagonal Kac-Murdock-Szego
    inverse of order n >= 2: (1, 1+rho^2, ..., 1+rho^2, 1) / (1-rho^2) on
    the diagonal and -rho / (1-rho^2) beside it. Read-only, as they are
    shared by every solve of that order."""
    s2 = 1.0 - rho * rho
    d = np.full(n, (1.0 + rho * rho) / s2)
    d[[0, -1]] = 1.0 / s2
    d, e, info = zpttrf(d, np.full(n - 1, -rho / s2, dtype=np.complex128))
    if info > 0:
        raise LinAlgError(f"{info}th leading minor not positive definite")
    d.flags.writeable = e.flags.writeable = False
    return d, e


def _kms_matvec(rho: float, x: np.ndarray) -> np.ndarray:
    """R_n x along axis 0 for R_n = rho^|i-j|, as a solve with the KMS
    inverse factored once per (rho, n) (`_kms_factor`). At n = 1, R_n = [1]."""
    n = x.shape[0]
    if n == 1:
        return x.copy()
    return zpttrs(*_kms_factor(rho, n), x)[0]


def _kms_whiten(rho: float, x: np.ndarray) -> np.ndarray:
    """D x along the last axis, D the lower-bidiagonal AR(1) whitener with
    D^T D = R_n^-1: entries (x_0, (x_i - rho x_{i-1}) / sqrt(1-rho^2))."""
    x = np.asarray(x, dtype=np.complex128)
    flat = x.reshape(-1)  # rows end to end: each row's first entry is reset below
    out = np.empty_like(flat)
    out[:1] = 0.0  # not left uninitialised for the scaling below
    np.multiply(flat[:-1], -rho, out=out[1:])
    out[1:] += flat[1:]
    out *= 1.0 / np.sqrt(1.0 - rho * rho)
    out = out.reshape(x.shape)
    out[..., 0] = x[..., 0]
    return out


def _kms_whiten_adjoint(rho: float, y: np.ndarray) -> np.ndarray:
    """D^T y for a vector y, the adjoint of `_kms_whiten`."""
    sigma = np.sqrt(1.0 - rho * rho)
    out = y / sigma
    out[0] = y[0]
    out[:-1] -= (rho / sigma) * y[1:]
    return out


@dataclass(frozen=True, eq=False)
class SpaceTimeCov:
    """Space-time covariance R = R_n + F F^H, never formed densely.

    R_n is the Kac-Murdock-Szego matrix rho^|i-j|, rho = exp(-decay)
    (rho = 0 gives the identity); `rho=None` drops the noise term. F is
    MNL x c: the interferer columns sqrt(p_i) u_i, then the clutter
    columns t_j kron s. Products and quadratic forms cost O(MNL * c), a
    solve O(MNL * c^2 + c^3).
    """

    rho: float | None
    factor: np.ndarray

    def __matmul__(self, x) -> np.ndarray:
        """R x for a vector or the columns of a matrix."""
        x = np.asarray(x, dtype=np.complex128)
        out = self.factor @ (self.factor.T @ x.conj()).conj()  # F (F^H x)
        if self.rho is not None:
            out += _kms_matvec(self.rho, x)
        return out

    def quad(self, w) -> float:
        """w^H R w as w^H R_n w + ||F^H w||^2, a sum of nonnegative terms,
        so a small form is not the difference of large ones."""
        w = np.asarray(w, dtype=np.complex128).reshape(-1)
        fw = self.factor.T @ w.conj()  # conj(F^H w)
        out = float(np.vdot(fw, fw).real)
        if self.rho is not None:
            out += float(np.vdot(w, _kms_matvec(self.rho, w)).real)
        return out

    def solve(self, g) -> np.ndarray:
        """R^-1 g for a vector g, by the Woodbury identity.

        With the whitener D (D^T D = R_n^-1) and E = D F, R^-1 = D^T (I -
        E C^-1 E^H) D with the r x r capacitance C = I + E^H E = I + F^H
        R_n^-1 F, which is positive definite by construction; it is
        factored by Cholesky. Raises SingularCovariance without a noise
        term or when the factorization fails (non-finite input).
        """
        if self.rho is None:
            raise SingularCovariance("F F^H without a noise term is singular")
        b = _kms_whiten(self.rho, g)
        if self.factor.shape[1]:
            e = _kms_whiten(self.rho, self.factor.T).T  # E, columns stored as rows
            cap = zherk(1.0, e, trans=2, lower=1)  # lower triangle of E^H E
            cap[np.diag_indices_from(cap)] += 1.0
            try:
                chol = cho_factor(cap, lower=True, check_finite=False)
            except LinAlgError as exc:
                raise SingularCovariance("capacitance factorization failed") from exc
            b = b - e @ cho_solve(chol, (b.conj() @ e).conj(), check_finite=False)
        return _kms_whiten_adjoint(self.rho, b)


@dataclass(frozen=True, eq=False)
class CovarianceBundle:
    """Immutable scenario operators, shareable across concurrent runs.

    `rho` is the KMS noise correlation exp(-decay); `interference` the
    MNL x I interferer columns; `clutter_subspace` the r x L x M array
    T = S_r V_r^H from the thin SVD of the patch stack K (row q =
    sqrt(patch_power) v_q kron a_q), so that T^H T = K^H K carries every
    patch; `target_map` the dense MNL x N map G.
    """

    rho: float
    interference: np.ndarray
    clutter_subspace: np.ndarray
    target_map: np.ndarray

    def _factor(self, s, interference: bool) -> np.ndarray:
        """MNL x (I+r) factor [interferer columns | t_j kron s], or MNL x r
        without the interferers. Each clutter column is an outer product
        over the (pulse, fast-time, sensor) axes; the columns are stored as
        contiguous rows of F^T."""
        s = np.asarray(s, dtype=np.complex128).reshape(-1)
        t = self.clutter_subspace
        lead = self.interference.T if interference else self.interference.T[:0]
        k, r = lead.shape[0], t.shape[0]
        rows = np.empty((k + r, lead.shape[1]), dtype=np.complex128)
        rows[:k] = lead
        np.multiply(t[:, :, None, :], s[None, None, :, None],
                    out=rows[k:].reshape(r, t.shape[1], s.size, t.shape[2]))
        return rows.T

    def clutter(self, s) -> SpaceTimeCov:
        """R_c(s) = sum_q (A_q s)(A_q s)^H as the MNL x r factor of the
        columns t_j kron s, rank <= r; without noise."""
        return SpaceTimeCov(None, self._factor(s, interference=False))

    def hessian(self, w) -> np.ndarray:
        """The r x N clutter factor B(w) = T conj(X), X the weights w
        reshaped from (L, N, M) to (L*M, N).

        It factors the clutter Hessian F0(w) = sum_q (A_q^H w)(A_q^H w)^H
        = B^H B, which is never formed: s^H F0(w) s = ||B s||^2 =
        w^H R_c(s) w for every waveform s, and F0 has rank at most
        min(r, N).
        """
        t = self.clutter_subspace
        r, num_pulses, num_sensors = t.shape
        x = np.asarray(w, dtype=np.complex128).reshape(num_pulses, -1, num_sensors)
        lm = num_pulses * num_sensors
        return t.reshape(r, lm) @ x.transpose(0, 2, 1).reshape(lm, -1).conj()


def total_cov(bundle: CovarianceBundle, s) -> SpaceTimeCov:
    """R_u(s) = R_n + R_i + R_c(s) as a KMS noise term plus the MNL x
    (I+r) factor [interferer columns | t_j kron s], r the clutter rank."""
    return SpaceTimeCov(bundle.rho, bundle._factor(s, interference=True))


def _clutter_subspace(cfg: ScenarioConfig) -> np.ndarray:
    """T = S_r V_r^H (r x L x M) from the thin SVD K = U S V^H of the
    Q x LM patch stack, keeping the singular values above the standard
    numerical-rank cutoff max(Q, LM) * eps * S_1; r = 0 without clutter
    power."""
    cl = cfg.clutter
    azimuths, dopplers = _clutter_patches(cfg)
    v = np.sqrt(cl.patch_power) * doppler_steering(dopplers[:, None], cfg.L)
    a = spatial_steering(azimuths[:, None], cl.elevation, cfg.M)
    k = (v[:, :, None] * a[:, None, :]).reshape(cl.patches, -1)
    _, sv, vh = np.linalg.svd(k, full_matrices=False)
    r = int(np.count_nonzero(sv > max(k.shape) * np.finfo(float).eps * sv[0]))
    return (sv[:r, None] * vh[:r]).reshape(r, cfg.L, cfg.M)


def build_bundle(cfg: ScenarioConfig) -> CovarianceBundle:
    """Build every scenario operator once; deterministic in cfg."""
    return CovarianceBundle(
        rho=float(np.exp(-cfg.noise_decay)),
        interference=_interferer_columns(cfg),
        clutter_subspace=_clutter_subspace(cfg),
        target_map=build_target_map(cfg),
    )
