import dataclasses

import numpy as np
import pytest

import costap as cs

from helpers import dense_total_cov, random_complex


def capon_oracle(r_u, g, kappa):
    """Constrained minimizer by variable elimination: w = w0 + B t with
    B an orthonormal basis of the constraint tangent space, solved by
    dense normal equations (no inverse-covariance formula involved)."""
    ng2 = float(np.real(g.conj() @ g))
    w0 = kappa * g / ng2
    q, _ = np.linalg.qr(g.reshape(-1, 1), mode="complete")
    basis = q[:, 1:]
    rhs = -(basis.conj().T @ (r_u @ w0))
    t = np.linalg.solve(basis.conj().T @ r_u @ basis, rhs)
    return w0 + basis @ t


def identity(n):
    """The identity covariance: identity noise (rho = 0), empty factor."""
    return cs.SpaceTimeCov(0.0, np.zeros((n, 0), dtype=complex))


def random_cov(rng, n, rank=3):
    """I + F F^H, a random positive-definite covariance, and its dense form."""
    f = random_complex(rng, n, rank)
    return cs.SpaceTimeCov(0.0, f), np.eye(n) + f @ f.conj().T


class TestMvdrUpdate:
    def test_identity_covariance_basis_steering(self):
        n = 5
        g_map = np.eye(n)
        s = np.zeros(n, dtype=complex)
        s[0] = 1.0
        w = cs.mvdr_update(identity(n), g_map, s, 1.0)
        np.testing.assert_allclose(w, s, atol=1e-14)

    def test_identity_covariance_general(self):
        rng = np.random.default_rng(0)
        n = 6
        s = random_complex(rng, n)
        w = cs.mvdr_update(identity(n), np.eye(n), s, 2.0)
        np.testing.assert_allclose(w, 2.0 * s / np.linalg.norm(s) ** 2, atol=1e-13)

    def test_matches_elimination_oracle(self):
        rng = np.random.default_rng(1)
        for _ in range(10):
            n = 8
            r_u, dense = random_cov(rng, n)
            s = random_complex(rng, n)
            w = cs.mvdr_update(r_u, np.eye(n), s, 1.0)
            expected = capon_oracle(dense, s, 1.0)
            assert np.max(np.abs(w - expected)) <= 1e-9 * np.max(np.abs(expected))

    def test_capon_residual(self, small_bundle, small_cfg):
        rng = np.random.default_rng(2)
        for _ in range(10):
            s = random_complex(rng, small_cfg.N)
            r_u = cs.total_cov(small_bundle, s)
            w = cs.mvdr_update(r_u, small_bundle.target_map, s, small_cfg.kappa)
            resid = abs(w.conj() @ (small_bundle.target_map @ s) - small_cfg.kappa)
            assert resid <= 1e-10 * abs(small_cfg.kappa)

    def test_optimality_against_feasible_perturbations(self):
        rng = np.random.default_rng(3)
        n = 8
        r_u, dense = random_cov(rng, n)
        g = random_complex(rng, n)
        w = cs.mvdr_update(r_u, np.eye(n), g, 1.0)
        base = np.real(w.conj() @ (dense @ w))
        for _ in range(20):
            d = random_complex(rng, n)
            d -= g * (g.conj() @ d) / np.real(g.conj() @ g)  # keep w^H g fixed
            wp = w + d
            assert np.real(wp.conj() @ (dense @ wp)) >= base - 1e-12

    def test_homogeneity_in_kappa(self):
        rng = np.random.default_rng(4)
        n = 6
        r_u, _ = random_cov(rng, n)
        g = random_complex(rng, n)
        w1 = cs.mvdr_update(r_u, np.eye(n), g, 1.0)
        w2 = cs.mvdr_update(r_u, np.eye(n), g, 2.0)
        np.testing.assert_array_equal(w2, 2.0 * w1)

    def test_mvdr_objective_in_clutter_span(self, default_cfg):
        # long-code geometry (M = 1, L = 2): the target response lies in the
        # span of the clutter columns. The MVDR objective kappa^2 / (g^H x)
        # is checked against the dense solve, not x entrywise.
        cfg = dataclasses.replace(default_cfg, M=1, N=128, L=2, power=1e-3)
        bundle = cs.build_bundle(cfg)
        rng = np.random.default_rng(5)
        for _ in range(3):
            s = cs.draw_waveform(cfg.N, cfg.power, rng)
            g = bundle.target_map @ s
            r_u = cs.total_cov(bundle, s)
            w = cs.mvdr_update(r_u, bundle.target_map, s, cfg.kappa)
            dense = cfg.kappa**2 / float(np.real(g.conj() @ np.linalg.solve(
                dense_total_cov(cfg, s), g)))
            assert abs(r_u.quad(w) - dense) <= 1e-12 * dense  # 6e-14 measured

    def test_zero_steering(self):
        with pytest.raises(cs.ZeroSteering):
            cs.mvdr_update(identity(3), np.eye(3), np.zeros(3, dtype=complex), 1.0)

    def test_singular_covariance(self):
        # the capacitance I + E^H E is positive definite for any finite
        # factor, so only a non-finite one makes the solve fail
        g = np.array([1.0, 1.0, 0.0], dtype=complex)
        f = np.full((3, 2), np.nan, dtype=complex)
        with pytest.raises(cs.SingularCovariance):
            cs.mvdr_update(cs.SpaceTimeCov(0.0, f), np.eye(3), g, 1.0)
