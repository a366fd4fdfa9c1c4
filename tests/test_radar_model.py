import dataclasses
import math

import numpy as np
import pytest
from scipy.linalg import solveh_banded

import costap as cs
from costap.radar_model import _kms_matvec, _space_time_map

from helpers import (
    build_clutter_operators,
    build_interference_cov,
    build_noise_cov,
    clutter_cov,
    dense_base_cov,
    dense_total_cov,
    gram,
    random_complex,
    waveform_hessian,
)


class TestSteering:
    def test_broadside_is_all_ones(self):
        np.testing.assert_allclose(cs.spatial_steering(0.0, 0.9, 5), np.ones(5), atol=1e-15)

    def test_unit_modulus_and_norm(self):
        rng = np.random.default_rng(0)
        for _ in range(10):
            az, el = rng.uniform(-np.pi / 2, np.pi / 2, 2)
            a = cs.spatial_steering(az, el, 7)
            np.testing.assert_allclose(np.abs(a), 1.0, atol=1e-14)
            assert abs(np.linalg.norm(a) ** 2 - 7) <= 1e-12

    def test_endfire_phases(self):
        # azimuth pi/2, elevation 0: entry m = exp(-i pi m)
        a = cs.spatial_steering(np.pi / 2, 0.0, 3)
        np.testing.assert_allclose(a, [1.0, -1.0, 1.0], atol=1e-12)

    def test_doppler_dc(self):
        np.testing.assert_allclose(cs.doppler_steering(0.0, 6), np.ones(6), atol=1e-15)

    def test_doppler_norm(self):
        v = cs.doppler_steering(0.37, 9)
        assert abs(np.linalg.norm(v) ** 2 - 9) <= 1e-12

    def test_doppler_direct_evaluation(self):
        f_d, num = -0.1443, 8
        v = cs.doppler_steering(f_d, num)
        expected = np.array([np.exp(2j * np.pi * f_d * ell) for ell in range(num)])
        np.testing.assert_allclose(v, expected, atol=1e-14)


class TestTargetMap:
    def test_degenerate_dims(self):
        cfg = cs.ScenarioConfig(M=1, N=4, L=1,
                                target=cs.TargetSpec(0.3, 0.5, 0.2), seed=0)
        g = cs.build_target_map(cfg)
        a0 = cs.spatial_steering(0.3, 0.5, 1)[0]
        v0 = cs.doppler_steering(0.2, 1)[0]
        np.testing.assert_allclose(g, v0 * a0 * np.eye(4), atol=1e-14)

    def test_kron_identity(self, small_cfg, small_bundle):
        rng = np.random.default_rng(1)
        t = small_cfg.target
        a = cs.spatial_steering(t.azimuth, t.elevation, small_cfg.M)
        v = cs.doppler_steering(t.doppler, small_cfg.L)
        for _ in range(100):
            s = random_complex(rng, small_cfg.N)
            direct = np.kron(v, np.kron(s, a))
            err = np.linalg.norm(small_bundle.target_map @ s - direct)
            assert err <= 1e-12 * np.linalg.norm(s)

    def test_norm_factorization(self, small_cfg, small_bundle):
        rng = np.random.default_rng(2)
        s = random_complex(rng, small_cfg.N)
        lhs = np.linalg.norm(small_bundle.target_map @ s) ** 2
        rhs = small_cfg.L * small_cfg.M * np.linalg.norm(s) ** 2
        assert abs(lhs - rhs) <= 1e-10 * rhs


class TestNoiseCov:
    def test_unit_diagonal(self, small_cfg):
        r = build_noise_cov(small_cfg)
        np.testing.assert_allclose(np.diag(r).real, 1.0, atol=1e-15)

    def test_two_by_two_value(self):
        cfg = cs.ScenarioConfig(M=1, N=2, L=1, target=cs.TargetSpec(0, 0.5, 0),
                                noise_decay=0.005, seed=0)
        r = build_noise_cov(cfg)
        assert abs(r[0, 1].real - math.exp(-0.005)) <= 1e-15
        assert abs(r[0, 1].real - 0.9950124791926823) <= 1e-12

    def test_positive_definite_at_full_size(self, default_cfg):
        r = build_noise_cov(default_cfg)
        assert r.shape == (320, 320)
        assert np.linalg.eigvalsh(r)[0] > 0


class TestInterferenceCov:
    def test_no_interferers(self, small_cfg):
        cfg = dataclasses.replace(small_cfg, interferers=())
        np.testing.assert_array_equal(build_interference_cov(cfg), 0.0)

    def test_single_interferer_rank_one(self, small_cfg):
        r = build_interference_cov(small_cfg)
        sv = np.linalg.svd(r, compute_uv=False)
        assert sv[0] > 0
        assert sv[1] <= 1e-12 * sv[0]

    def test_trace(self, small_cfg):
        r = build_interference_cov(small_cfg)
        power = small_cfg.interferers[0].power
        expected = power * small_cfg.L * small_cfg.N * small_cfg.M
        assert abs(np.trace(r).real - expected) <= 1e-10 * expected


class TestClutterOperators:
    def test_single_patch_reuses_target_map(self):
        cfg = cs.ScenarioConfig(
            M=2, N=3, L=2, target=cs.TargetSpec(0.1, 0.4, 0.0),
            clutter=cs.ClutterSpec(patches=1, elevation=0.3, azimuth_span=(0.0, 0.0)),
            seed=0)
        ops = build_clutter_operators(cfg)
        assert len(ops) == 1
        f_1 = cfg.clutter.doppler_slope * np.sin(0.0) * np.cos(0.3) / 2.0
        expected = _space_time_map(0.0, 0.3, f_1, cfg.M, cfg.N, cfg.L)
        np.testing.assert_allclose(ops[0], expected, atol=1e-14)

    def test_azimuth_spacing(self, default_cfg):
        ops = build_clutter_operators(default_cfg)
        assert len(ops) == 25
        azimuths = np.linspace(-np.pi / 2, np.pi / 2, 25)
        assert abs(azimuths[1] - azimuths[0] - np.pi / 24) <= 1e-15

    def test_gram_identity(self, small_cfg):
        scaled = dataclasses.replace(
            small_cfg, clutter=dataclasses.replace(small_cfg.clutter, patch_power=2.5))
        ops = build_clutter_operators(scaled)
        expected = 2.5 * scaled.L * scaled.M * np.eye(scaled.N)
        for op in ops:
            np.testing.assert_allclose(op.conj().T @ op, expected, atol=1e-10)


class TestClutterCov:
    def test_zero_waveform(self, small_cfg):
        ops = build_clutter_operators(small_cfg)
        r = clutter_cov(ops, np.zeros(small_cfg.N, dtype=complex))
        np.testing.assert_array_equal(r, 0.0)

    def test_single_patch_rank_one(self):
        cfg = cs.ScenarioConfig(
            M=2, N=3, L=2, target=cs.TargetSpec(0.1, 0.4, 0.0),
            clutter=cs.ClutterSpec(patches=1, elevation=0.3, azimuth_span=(0.0, 0.0)),
            seed=0)
        ops = build_clutter_operators(cfg)
        r = clutter_cov(ops, np.array([1.0, 1j, -0.5]))
        sv = np.linalg.svd(r, compute_uv=False)
        assert sv[1] <= 1e-12 * sv[0]

    def test_scalar_identity(self, small_cfg):
        rng = np.random.default_rng(3)
        ops = build_clutter_operators(small_cfg)
        for _ in range(10):
            w = random_complex(rng, small_cfg.mnl)
            s = random_complex(rng, small_cfg.N)
            lhs = np.real(w.conj() @ (clutter_cov(ops, s) @ w))
            rhs = sum(abs(w.conj() @ (op @ s)) ** 2 for op in ops)
            assert abs(lhs - rhs) <= 1e-10 * max(1.0, rhs)


class TestWaveformHessian:
    def test_zero_weights(self, small_bundle, small_cfg):
        zero = np.zeros(small_cfg.mnl, dtype=complex)
        np.testing.assert_array_equal(small_bundle.hessian(zero), 0.0)
        ops = build_clutter_operators(small_cfg)
        np.testing.assert_array_equal(waveform_hessian(ops, zero), 0.0)

    def test_bilinear_identity(self, small_bundle, small_cfg):
        rng = np.random.default_rng(4)
        ops = build_clutter_operators(small_cfg)
        scale = sum(np.linalg.norm(op) ** 2 for op in ops)
        for _ in range(100):
            w = random_complex(rng, small_cfg.mnl)
            s = random_complex(rng, small_cfg.N)
            lhs = np.linalg.norm(small_bundle.hessian(w) @ s) ** 2
            rhs = np.real(w.conj() @ (clutter_cov(ops, s) @ w))
            bound = 1e-10 * np.linalg.norm(s) ** 2 * np.linalg.norm(w) ** 2 * scale
            assert abs(lhs - rhs) <= bound
            assert abs(small_bundle.clutter(s).quad(w) - rhs) <= bound

    def test_contraction_matches_dense_operators(self, default_cfg, default_bundle):
        rng = np.random.default_rng(9)
        ops = build_clutter_operators(default_cfg)
        for _ in range(5):
            w = random_complex(rng, default_cfg.mnl)
            dense = waveform_hessian(ops, w)
            got = gram(default_bundle.hessian(w))
            assert np.max(np.abs(got - dense)) <= 1e-14 * np.max(np.abs(dense))  # 4e-16 measured

    def test_rank_bound(self, small_cfg, small_bundle):
        rng = np.random.default_rng(5)
        w = random_complex(rng, small_cfg.mnl)
        b = small_bundle.hessian(w)
        r = small_bundle.clutter_subspace.shape[0]
        assert b.shape == (r, small_cfg.N)
        assert r <= min(small_cfg.clutter.patches, small_cfg.L * small_cfg.M)
        rank = np.linalg.matrix_rank(gram(b), tol=1e-10)
        assert rank <= min(r, small_cfg.N)


def _dense(r, n):
    """The dense matrix of a SpaceTimeCov, column by column (tests only)."""
    return r @ np.eye(n, dtype=complex)


class TestTotalCov:
    def test_zero_waveform_gives_base(self, small_bundle, small_cfg):
        r = cs.total_cov(small_bundle, np.zeros(small_cfg.N, dtype=complex))
        np.testing.assert_allclose(_dense(r, small_cfg.mnl), dense_base_cov(small_cfg),
                                   atol=1e-13)

    def test_hermitian(self, small_bundle, small_cfg):
        rng = np.random.default_rng(6)
        r = _dense(cs.total_cov(small_bundle, random_complex(rng, small_cfg.N)), small_cfg.mnl)
        assert np.max(np.abs(r - r.conj().T)) <= 1e-12 * np.max(np.abs(r))

    def test_min_eigenvalue_dominates_noise_floor(self, small_bundle, small_cfg):
        rng = np.random.default_rng(7)
        noise_min = np.linalg.eigvalsh(build_noise_cov(small_cfg))[0]
        for _ in range(5):
            r = _dense(cs.total_cov(small_bundle, random_complex(rng, small_cfg.N)),
                       small_cfg.mnl)
            assert np.linalg.eigvalsh(r)[0] >= noise_min - 1e-10

    def test_solvable_without_regularization(self, small_bundle, small_cfg):
        rng = np.random.default_rng(8)
        for _ in range(20):
            s = random_complex(rng, small_cfg.N)
            x = cs.total_cov(small_bundle, s).solve(np.ones(small_cfg.mnl, dtype=complex))
            assert np.all(np.isfinite(x.real)) and np.all(np.isfinite(x.imag))

    def test_factor_width(self, default_bundle, default_cfg):
        r = cs.total_cov(default_bundle, np.ones(default_cfg.N, dtype=complex))
        width = len(default_cfg.interferers) + default_bundle.clutter_subspace.shape[0]
        assert r.factor.shape == (default_cfg.mnl, width)
        assert r.rho == math.exp(-default_cfg.noise_decay)


class TestSpaceTimeCovOracle:
    """The structured operator against the dense builders."""

    @pytest.mark.parametrize("patch_power", [1.0, 1e6])
    def test_matvec_quad_and_solve(self, default_cfg, patch_power):
        cfg = dataclasses.replace(
            default_cfg, clutter=dataclasses.replace(default_cfg.clutter, patch_power=patch_power))
        bundle = cs.build_bundle(cfg)
        rng = np.random.default_rng(10)
        for _ in range(3):
            s = cs.draw_waveform(cfg.N, cfg.power, rng)
            w = random_complex(rng, cfg.mnl)
            dense = dense_total_cov(cfg, s)
            r = cs.total_cov(bundle, s)
            rw = dense @ w
            # R_n w is a banded solve with R_n^-1: error ~ cond(R_n) * eps (1e-13 measured)
            assert np.linalg.norm(r @ w - rw) <= 1e-12 * np.linalg.norm(rw)
            want = float(np.real(w.conj() @ rw))
            assert abs(r.quad(w) - want) <= 1e-12 * want  # 7e-14 measured
            # normwise backward error of the Woodbury solve: 7e-17 measured, 4e-17
            # for a dense Cholesky
            x = r.solve(w)
            resid = np.linalg.norm(dense @ x - w)
            assert resid <= 1e-15 * (np.linalg.norm(dense, 2) * np.linalg.norm(x)
                                     + np.linalg.norm(w))

    def test_clutter_has_no_noise_term(self, small_bundle, small_cfg):
        rng = np.random.default_rng(11)
        s = random_complex(rng, small_cfg.N)
        r = small_bundle.clutter(s)
        assert r.rho is None
        dense = clutter_cov(build_clutter_operators(small_cfg), s)
        np.testing.assert_allclose(_dense(r, small_cfg.mnl), dense,
                                   atol=1e-13 * np.max(np.abs(dense)))
        with pytest.raises(cs.SingularCovariance):
            r.solve(np.ones(small_cfg.mnl, dtype=complex))

    @pytest.mark.parametrize("n", [1, 2, 3, 7])
    def test_kms_noise_and_inverse(self, small_cfg, n):
        cfg = dataclasses.replace(small_cfg, M=1, N=n, L=1)
        dense = build_noise_cov(cfg)
        r = cs.SpaceTimeCov(math.exp(-cfg.noise_decay), np.zeros((n, 0), dtype=complex))
        eye = np.eye(n, dtype=complex)
        np.testing.assert_allclose(r @ eye, dense, atol=1e-13)
        # solve applies the tridiagonal inverse; at n = 1 R_n = [1]
        inverse = np.column_stack([r.solve(col) for col in eye.T])
        np.testing.assert_allclose(dense @ inverse, eye, atol=1e-12)

    def test_rho_zero_is_identity_noise(self):
        rng = np.random.default_rng(12)
        n = 6
        f = random_complex(rng, n, 2)
        r = cs.SpaceTimeCov(0.0, f)
        dense = np.eye(n) + f @ f.conj().T
        w = random_complex(rng, n)
        np.testing.assert_allclose(r @ w, dense @ w, atol=1e-13)
        assert abs(r.quad(w) - np.real(w.conj() @ dense @ w)) <= 1e-12 * r.quad(w)
        np.testing.assert_allclose(dense @ r.solve(w), w, atol=1e-12)
        empty = cs.SpaceTimeCov(0.0, np.zeros((n, 0), dtype=complex))
        np.testing.assert_allclose(empty.solve(w), w, atol=0)

    @pytest.mark.parametrize("n", [1, 2, 3, 320])
    @pytest.mark.parametrize("decay", [0.005, 3.0])
    def test_kms_matvec_is_the_banded_solve_bit_for_bit(self, n, decay):
        # the factor cached per (rho, n) gives the bits of a fresh banded
        # solve with the KMS inverse, for vectors and for columns
        rho = math.exp(-decay)
        s2 = 1.0 - rho * rho
        if n == 1:
            ab = np.ones((1, 1))  # R_n = [1]
        else:
            ab = np.array([np.full(n, -rho / s2), np.full(n, (1.0 + rho * rho) / s2)])
            ab[1, [0, -1]] = 1.0 / s2
        rng = np.random.default_rng(13)
        for shape in ((n,), (n, 4)):
            x = random_complex(rng, *shape)
            for _ in range(2):  # the second call reads the cached factor
                got = _kms_matvec(rho, x)
                assert got.shape == x.shape
                assert np.array_equal(got, solveh_banded(ab, x))


def _with_clutter(cfg, **changes):
    return dataclasses.replace(cfg, clutter=dataclasses.replace(cfg.clutter, **changes))


class TestClutterRank:
    """The bundle keeps the r <= min(Q, LM) clutter directions that carry
    every patch: the per-iteration factors have r clutter rows, not Q."""

    @pytest.mark.parametrize("patches", [25, 200])
    @pytest.mark.parametrize("slope, rank", [(1.0, 12), (2.0, 19)])
    def test_brennan_rule(self, default_cfg, patches, slope, rank):
        # integer ridge slope beta: rank M + beta (L - 1) whatever the patch count
        cfg = _with_clutter(default_cfg, patches=patches, doppler_slope=slope)
        assert rank == cfg.M + int(slope) * (cfg.L - 1)
        bundle = cs.build_bundle(cfg)
        assert bundle.clutter_subspace.shape == (rank, cfg.L, cfg.M)
        r = cs.total_cov(bundle, np.ones(cfg.N, dtype=complex))
        assert r.factor.shape == (cfg.mnl, len(cfg.interferers) + rank)
        assert bundle.hessian(np.ones(cfg.mnl, dtype=complex)).shape == (rank, cfg.N)

    @pytest.mark.parametrize("slope, rank", [(0.7, 25), (2.5, 38)])
    def test_non_integer_slope_matches_dense_oracle(self, default_cfg, slope, rank):
        cfg = _with_clutter(default_cfg, patches=200, doppler_slope=slope)
        bundle = cs.build_bundle(cfg)
        assert bundle.clutter_subspace.shape[0] == rank < min(200, cfg.L * cfg.M)
        ops = build_clutter_operators(cfg)
        rng = np.random.default_rng(13)
        for _ in range(3):
            s = cs.draw_waveform(cfg.N, cfg.power, rng)
            w = random_complex(rng, cfg.mnl)
            dense = dense_total_cov(cfg, s)
            r = cs.total_cov(bundle, s)
            rw = dense @ w
            assert np.linalg.norm(r @ w - rw) <= 1e-12 * np.linalg.norm(rw)  # 3e-14 measured
            want = float(np.real(w.conj() @ rw))
            assert abs(r.quad(w) - want) <= 1e-12 * want  # 9e-15 measured
            # normwise backward error (9e-17 measured); the forward error against a
            # dense solve is cond(R) * eps, about 1e-11 at cond 3e5
            x = r.solve(w)
            resid = np.linalg.norm(dense @ x - w)
            assert resid <= 1e-15 * (np.linalg.norm(dense, 2) * np.linalg.norm(x)
                                     + np.linalg.norm(w))
            f0 = waveform_hessian(ops, w)
            got = gram(bundle.hessian(w))
            assert np.max(np.abs(got - f0)) <= 1e-12 * np.max(np.abs(f0))  # 2e-15 measured

    def test_no_clutter_power_keeps_no_clutter_rows(self, default_cfg):
        cfg = _with_clutter(default_cfg, patch_power=0.0)
        bundle = cs.build_bundle(cfg)
        assert bundle.clutter_subspace.shape == (0, cfg.L, cfg.M)
        r = cs.total_cov(bundle, np.ones(cfg.N, dtype=complex))
        assert r.factor.shape == (cfg.mnl, len(cfg.interferers))
        assert bundle.hessian(np.ones(cfg.mnl, dtype=complex)).shape == (0, cfg.N)
        for solver in cs.SOLVERS:
            report = cs.run(cfg, solver, max_iter=20, rescale=True)
            assert report.monotonicity_violations == 0, solver
            assert np.all(np.isfinite(report.trace.objectives())), solver


class TestDeterminism:
    def test_bundle_is_bit_reproducible(self, small_cfg):
        b1 = cs.build_bundle(small_cfg)
        b2 = cs.build_bundle(small_cfg)
        assert b1.rho == b2.rho
        for name in ("interference", "clutter_subspace", "target_map"):
            assert np.array_equal(getattr(b1, name), getattr(b2, name))


class TestScenarioValidation:
    def test_bad_power(self, small_cfg):
        with pytest.raises(cs.ValidationError, match="power"):
            dataclasses.replace(small_cfg, power=-1.0)

    def test_bad_dims(self):
        with pytest.raises(cs.ValidationError, match="dims.M"):
            cs.ScenarioConfig(M=0, N=2, L=2, target=cs.TargetSpec(0, 0, 0), seed=0)
        # a bool is not an integer dimension, nor is a whole float
        for name, value in (("M", True), ("N", True), ("L", True), ("N", 2.0)):
            dims = {"M": 2, "N": 2, "L": 2, name: value}
            with pytest.raises(cs.ValidationError) as err:
                cs.ScenarioConfig(**dims, target=cs.TargetSpec(0, 0, 0), seed=0)
            assert err.value.field == f"dims.{name}"

    def test_bad_span(self, small_cfg):
        with pytest.raises(cs.ValidationError, match="azimuth_span"):
            dataclasses.replace(
                small_cfg,
                clutter=cs.ClutterSpec(patches=2, elevation=0.1, azimuth_span=(1.0, -1.0)))

    def test_degenerate_span_is_allowed(self, small_cfg):
        cfg = dataclasses.replace(
            small_cfg,
            clutter=cs.ClutterSpec(patches=1, elevation=0.1, azimuth_span=(0.0, 0.0)))
        assert len(build_clutter_operators(cfg)) == 1
