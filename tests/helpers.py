"""Shared random-instance builders and dense oracles for the test suite.

The dense builders form the MNL x MNL covariance terms and the per-patch
MNL x N clutter operators that the structured `SpaceTimeCov` and
`CovarianceBundle` never build; the tests check the structured forms
against them.
"""

import numpy as np
from scipy.linalg import toeplitz

import costap as cs
from costap.matrix_ops import TAU_RANK, TAU_ZERO, bisect_root
from costap.radar_model import (
    _clutter_patches,
    _interferer_columns,
    _space_time_map,
)


def random_complex(rng, *shape):
    return rng.standard_normal(shape) + 1j * rng.standard_normal(shape)


def random_unitary(rng, n):
    q, r = np.linalg.qr(random_complex(rng, n, n))
    return q * (np.diag(r) / np.abs(np.diag(r)))


def random_factor(rng, n, eig_lo=0.0, eig_hi=2.0):
    """Factor B = diag(sqrt(eig)) Q^H of a Hermitian PSD F0 = B^H B = Q diag(eig) Q^H
    with eigenvalues uniform in [eig_lo, eig_hi]."""
    q = random_unitary(rng, n)
    eigs = rng.uniform(eig_lo, eig_hi, n)
    return np.sqrt(eigs)[:, None] * q.conj().T


def gram(b):
    """The dense F0 = B^H B of a clutter factor."""
    return b.conj().T @ b


def random_instance(rng, n, kappa=1.0, eig_lo=0.0, eig_hi=2.0, slack=None):
    """One waveform subproblem (B, y, kappa, P_o), B the factor of F0.

    `slack` scales the power budget above the Capon minimum
    kappa^2/||y||^2; default draws it uniformly in [1.2, 4].
    """
    b = random_factor(rng, n, eig_lo, eig_hi)
    y = random_complex(rng, n)
    floor = kappa**2 / float(np.real(y.conj() @ y))
    if slack is None:
        slack = rng.uniform(1.2, 4.0)
    return b, y, kappa, slack * floor


def dense_tangent_solve(f0, y, kappa, power_bound):
    """Reference waveform step on a dense F0: (s, multiplier).

    The tangent-space secular equation from the eigen-decomposition of
    the (N-1) x (N-1) matrix W^H F0 W, W an orthonormal basis of the
    complement of y, with the pseudoinverse point at multiplier 0 when
    it fits the power bound.
    """
    y = np.asarray(y, dtype=np.complex128)
    ny2 = float(np.real(y.conj() @ y))
    center = (kappa / ny2) * y
    r2 = max(power_bound - kappa**2 / ny2, 0.0)
    basis = np.linalg.qr(y.reshape(-1, 1), mode="complete")[0][:, 1:]
    m = basis.conj().T @ f0 @ basis
    mu, vecs = np.linalg.eigh(0.5 * (m + m.conj().T))
    chat = vecs.conj().T @ ((kappa / ny2) * (basis.conj().T @ (f0 @ y)))
    abs2 = np.abs(chat) ** 2
    kept = mu > TAU_RANK * max(float(np.max(np.abs(mu))), TAU_ZERO)

    def point(gamma):
        if gamma == 0.0:
            coeff = np.where(kept, -chat / np.where(kept, mu, 1.0), 0.0)
        else:
            coeff = -chat / (mu + gamma)
        return basis @ (vecs @ coeff) + center

    def secular(gamma):
        if gamma == 0.0:
            return float(np.sum(abs2[kept] / mu[kept] ** 2)) - r2
        return float(np.sum(abs2 / (mu + gamma) ** 2)) - r2

    if secular(0.0) <= 0.0:
        return point(0.0), 0.0
    gamma = bisect_root(secular, lambda g: float(-2.0 * np.sum(abs2 / (mu + g) ** 3)),
                        0.0, float(np.sqrt(np.sum(abs2) / r2)) + max(-float(mu[0]), 0.0))
    return point(gamma), gamma


def align_phase(s, y_w):
    """Rotate s by the unit phase that makes s^H y_w real positive, so
    that solutions equal up to a global phase compare entrywise."""
    s = np.asarray(s, dtype=np.complex128).reshape(-1)
    ip = complex(s.conj() @ np.asarray(y_w, dtype=np.complex128).reshape(-1))
    return s * (ip / abs(ip)) if abs(ip) > TAU_ZERO else s.copy()


def build_noise_cov(cfg):
    """Dense R_n, entry (i, j) = exp(-decay * |i - j|)."""
    col = np.exp(-cfg.noise_decay * np.arange(cfg.mnl))
    return toeplitz(col).astype(np.complex128)


def build_interference_cov(cfg):
    """Dense R_i = sum_i power_i u_i u_i^H."""
    u = _interferer_columns(cfg)
    return u @ u.conj().T


def build_clutter_operators(cfg):
    """Dense per-patch operators A_q = sqrt(patch_power) * (v_q kron I_N
    kron a_q), MNL x N each."""
    cl = cfg.clutter
    amp = np.sqrt(cl.patch_power)
    return [amp * _space_time_map(az, cl.elevation, f_q, cfg.M, cfg.N, cfg.L)
            for az, f_q in zip(*_clutter_patches(cfg))]


def clutter_cov(ops, s):
    """Dense R_c(s) = sum_q (A_q s)(A_q s)^H from the dense operators."""
    v = np.asarray(ops) @ np.asarray(s, dtype=np.complex128)  # (Q, MNL)
    return v.T @ v.conj()


def waveform_hessian(ops, w):
    """Dense-operator F0(w) = sum_q (A_q^H w)(A_q^H w)^H, which satisfies
    s^H F0(w) s = w^H R_c(s) w for every waveform s."""
    u = np.einsum("qmn,m->qn", np.asarray(ops).conj(), np.asarray(w, dtype=np.complex128))
    return u.T @ u.conj()


def dense_base_cov(cfg):
    """Dense R_n + R_i from the oracle builders."""
    return build_noise_cov(cfg) + build_interference_cov(cfg)


def dense_total_cov(cfg, s):
    """Dense R_u(s) = R_n + R_i + R_c(s) from the oracle builders."""
    return dense_base_cov(cfg) + clutter_cov(build_clutter_operators(cfg), s)


def clutter_free_bound(cfg):
    """kappa^2 / lambda_max(G^H (R_n + R_i)^-1 G), from the dense builders.
    R_c(s) is PSD, so every w with w^H G s = kappa has w^H R_u(s) w >=
    kappa^2 / (g^H (R_n + R_i)^-1 g) >= this bound / ||s||^2, g = G s."""
    t = cfg.target
    g = _space_time_map(t.azimuth, t.elevation, t.doppler, cfg.M, cfg.N, cfg.L)
    m = g.conj().T @ np.linalg.solve(dense_base_cov(cfg), g)
    return cfg.kappa**2 / np.linalg.eigvalsh(0.5 * (m + m.conj().T))[-1]


def replays(cfg, trace, prev, curr) -> bool:
    """Whether one iteration of `run` from record prev's waveform, with the
    trace's solver and multiplier mode, gives record curr's w and s bit
    for bit."""
    rec = cs.run(cfg, trace.solver, max_iter=1, lambda_mode=trace.lambda_mode,
                 init_waveform=prev.s).trace.records[1]
    return np.array_equal(rec.w, curr.w) and np.array_equal(rec.s, curr.s)
