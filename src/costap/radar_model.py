"""Scenario construction: steering vectors, the waveform-to-space-time
map G, and the noise / interference / clutter covariance machinery.

Index convention for every length-M*N*L vector: Doppler (pulse) index
outermost, fast-time index in the middle, spatial (sensor) index
innermost, so that G s = v kron s kron a holds literally with
G = kron(v, kron(I_N, a)).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property

import numpy as np
from scipy.linalg import toeplitz

from .errors import ValidationError
from .matrix_ops import _as_complex


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

    patches: int
    elevation: float
    azimuth_span: tuple[float, float]
    patch_power: float = 1.0
    doppler_slope: float = 1.0


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
    clutter: ClutterSpec = field(
        default_factory=lambda: ClutterSpec(patches=1, elevation=0.0, azimuth_span=(0.0, 0.0))
    )
    seed: int = 0

    def __post_init__(self):
        for name in ("M", "N", "L"):
            v = getattr(self, name)
            if not isinstance(v, (int, np.integer)) or v < 1:
                raise ValidationError(f"dims.{name}", f"must be an integer >= 1, got {v!r}")
        if not self.power > 0:
            raise ValidationError("power", f"must be positive, got {self.power!r}")
        if not self.kappa > 0:
            raise ValidationError("kappa", f"must be positive, got {self.kappa!r}")
        if not self.noise_decay > 0:
            raise ValidationError("noise.decay", f"must be positive, got {self.noise_decay!r}")
        for label, angle in (
            ("target.azimuth", self.target.azimuth),
            ("target.elevation", self.target.elevation),
            ("target.doppler", self.target.doppler),
        ):
            if not np.isfinite(angle):
                raise ValidationError(label, f"must be finite, got {angle!r}")
        if self.clutter.patches < 1:
            raise ValidationError("clutter.patches", f"must be >= 1, got {self.clutter.patches!r}")
        lo, hi = self.clutter.azimuth_span
        if not (np.isfinite(lo) and np.isfinite(hi) and lo <= hi):
            raise ValidationError("clutter.azimuth_span", f"need finite lo <= hi, got {(lo, hi)!r}")
        if self.clutter.patch_power < 0:
            raise ValidationError("clutter.patch_power", "must be >= 0")
        for i, itf in enumerate(self.interferers):
            if itf.power < 0:
                raise ValidationError(f"interferers[{i}].power", "must be >= 0")
            for fname in ("azimuth", "elevation", "phase_rate"):
                if not np.isfinite(getattr(itf, fname)):
                    raise ValidationError(f"interferers[{i}].{fname}", "must be finite")

    @property
    def mnl(self) -> int:
        return self.M * self.N * self.L


def spatial_steering(azimuth: float, elevation: float, num_sensors: int) -> np.ndarray:
    """Half-wavelength ULA steering vector, entry m = exp(-i pi m sin(az) cos(el))."""
    m = np.arange(num_sensors)
    return np.exp(-1j * np.pi * m * np.sin(azimuth) * np.cos(elevation))


def doppler_steering(doppler: float, num_pulses: int) -> np.ndarray:
    """Slow-time steering vector, entry l = exp(i 2 pi f_d l)."""
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


def build_noise_cov(cfg: ScenarioConfig) -> np.ndarray:
    """Toeplitz noise covariance, entry (i, j) = exp(-decay * |i - j|)."""
    col = np.exp(-cfg.noise_decay * np.arange(cfg.mnl))
    return toeplitz(col).astype(np.complex128)


def build_interference_cov(cfg: ScenarioConfig) -> np.ndarray:
    """Sum of rank-1 interferer covariances.

    Each interferer contributes power * u u^H with u = kron(t, a_i),
    where t_n = exp(i * phase_rate * n) runs over the LN joint
    pulse/fast-time lags and a_i is its spatial steering vector; this
    kron order matches the global (pulse, fast-time, space) indexing.
    """
    r = np.zeros((cfg.mnl, cfg.mnl), dtype=np.complex128)
    n = np.arange(cfg.L * cfg.N)
    for itf in cfg.interferers:
        t = np.exp(1j * itf.phase_rate * n)
        a = spatial_steering(itf.azimuth, itf.elevation, cfg.M)
        u = np.kron(t, a)
        r += itf.power * np.outer(u, u.conj())
    return r


def build_clutter_operators(cfg: ScenarioConfig) -> list[np.ndarray]:
    """Per-patch waveform-to-response operators A_q (MNL x N each).

    Patch azimuths are linearly spaced over the configured span; patch
    Doppler follows the clutter ridge f_q = slope * sin(az) * cos(el) / 2.
    """
    cl = cfg.clutter
    lo, hi = cl.azimuth_span
    azimuths = np.linspace(lo, hi, cl.patches)
    amp = np.sqrt(cl.patch_power)
    ops = []
    for az in azimuths:
        f_q = cl.doppler_slope * np.sin(az) * np.cos(cl.elevation) / 2.0
        ops.append(amp * _space_time_map(az, cl.elevation, f_q, cfg.M, cfg.N, cfg.L))
    return ops


def clutter_cov(ops, s) -> np.ndarray:
    """R_c(s) = sum_q (A_q s)(A_q s)^H, Hermitian PSD of rank <= Q."""
    stack = np.asarray(ops)
    v = stack @ np.asarray(s, dtype=np.complex128)  # (Q, MNL)
    return v.T @ v.conj()


def waveform_hessian(ops, w) -> np.ndarray:
    """F0(w) = sum_q (A_q^H w)(A_q^H w)^H, the N x N clutter Hessian.

    Satisfies s^H F0(w) s = w^H R_c(s) w for every waveform s.
    """
    stack = np.asarray(ops)
    u = np.einsum("qmn,m->qn", stack.conj(), np.asarray(w, dtype=np.complex128))
    return u.T @ u.conj()


@dataclass(frozen=True, eq=False)
class CovarianceBundle:
    """Immutable scenario operators, shareable across concurrent runs."""

    noise_cov: np.ndarray
    interference_cov: np.ndarray
    clutter_ops: tuple[np.ndarray, ...]
    target_map: np.ndarray

    @cached_property
    def base_cov(self) -> np.ndarray:
        """Waveform-independent part R_n + R_i."""
        return self.noise_cov + self.interference_cov

    @cached_property
    def ops_stack(self) -> np.ndarray:
        return np.asarray(self.clutter_ops)

    def clutter(self, s) -> np.ndarray:
        return clutter_cov(self.ops_stack, s)

    def hessian(self, w) -> np.ndarray:
        return waveform_hessian(self.ops_stack, w)


def total_cov(bundle: CovarianceBundle, s) -> np.ndarray:
    """R_u(s) = R_c(s) + R_n + R_i (Hermitian positive definite)."""
    return bundle.base_cov + clutter_cov(bundle.ops_stack, s)


def build_bundle(cfg: ScenarioConfig) -> CovarianceBundle:
    """Build every scenario operator once; deterministic in cfg."""
    return CovarianceBundle(
        noise_cov=build_noise_cov(cfg),
        interference_cov=build_interference_cov(cfg),
        clutter_ops=tuple(_as_complex(op) for op in build_clutter_operators(cfg)),
        target_map=build_target_map(cfg),
    )
