"""Shared random-instance builders and dense oracles for the test suite."""

import numpy as np

import costap as cs


def random_complex(rng, *shape):
    return rng.standard_normal(shape) + 1j * rng.standard_normal(shape)


def random_unitary(rng, n):
    q, r = np.linalg.qr(random_complex(rng, n, n))
    return q * (np.diag(r) / np.abs(np.diag(r)))


def random_psd(rng, n, eig_lo=0.0, eig_hi=2.0):
    """Hermitian PSD matrix with eigenvalues uniform in [eig_lo, eig_hi]."""
    q = random_unitary(rng, n)
    eigs = rng.uniform(eig_lo, eig_hi, n)
    return (q * eigs) @ q.conj().T


def random_instance(rng, n, kappa=1.0, eig_lo=0.0, eig_hi=2.0, slack=None):
    """One waveform subproblem (F0, y, kappa, P_o).

    `slack` scales the power budget above the Capon minimum
    kappa^2/||y||^2; default draws it uniformly in [1.2, 4].
    """
    f0 = random_psd(rng, n, eig_lo, eig_hi)
    y = random_complex(rng, n)
    floor = kappa**2 / float(np.real(y.conj() @ y))
    if slack is None:
        slack = rng.uniform(1.2, 4.0)
    return f0, y, kappa, slack * floor


def dense_base_cov(cfg):
    """Dense R_n + R_i from the oracle builders."""
    return cs.build_noise_cov(cfg) + cs.build_interference_cov(cfg)


def dense_total_cov(cfg, s):
    """Dense R_u(s) = R_n + R_i + R_c(s) from the oracle builders."""
    return dense_base_cov(cfg) + cs.clutter_cov(cs.build_clutter_operators(cfg), s)
