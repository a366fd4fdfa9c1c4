import dataclasses
import itertools

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import costap as cs
from costap.matrix_ops import TAU_RANK
from costap import am_driver, waveform_solvers
from costap.waveform_solvers import WaveformProblem, _DualProblem, _RidgeProblem, _SvdProblem

from helpers import (
    align_phase,
    dense_base_cov,
    dense_tangent_solve,
    gram,
    random_complex,
    random_factor,
    random_instance,
)


def project_feasible(points, y, kappa, power_bound):
    """Exact projection of the rows of points[k] onto {s : s^H y[k] = kappa[k],
    ||s||^2 <= power_bound[k]} for K stacked instances: points (K, S, N),
    y (K, N), kappa and power_bound (K,). A hyperplane projection followed
    by a radial clamp toward the Capon point."""
    ny2 = np.real(np.einsum("kn,kn->k", y.conj(), y))
    center = kappa[:, None] * y / ny2[:, None]
    r2 = np.maximum(power_bound - kappa**2 / ny2, 0.0)
    beta = (kappa[:, None] - (points @ y.conj()[:, :, None])[..., 0]) / ny2[:, None]
    on_plane = points + beta[:, :, None] * y[:, None, :]
    t = on_plane - center[:, None, :]
    norms = np.sqrt(np.einsum("ksn,ksn->ks", t.conj(), t).real)
    scale = np.minimum(1.0, np.sqrt(r2)[:, None] / np.maximum(norms, 1e-300))
    return center[:, None, :] + scale[:, :, None] * t


def feasible_starts(y, kappa, power_bound, rng, starts=200):
    """`starts` random feasible points (rows) of one waveform subproblem:
    random directions in the hyperplane, radii uniform up to the Capon radius."""
    n = y.size
    ny2 = float(np.real(y.conj() @ y))
    center = kappa * y / ny2
    r = np.sqrt(max(power_bound - kappa**2 / ny2, 0.0))
    tan = random_complex(rng, starts, n)
    tan -= np.outer(tan @ y.conj(), y) / ny2
    norms = np.maximum(np.linalg.norm(tan, axis=1), 1e-300)
    radii = r * rng.uniform(0, 1, starts)
    return center[None, :] + (radii / norms)[:, None] * tan


def projected_gradient_min(instances, steps=10_000):
    """Multi-start projected gradient descent on the waveform subproblem.

    `instances` is a list of (f0, y, kappa, power_bound, starts), with the
    starts from `feasible_starts`; all instances descend together, stacked
    as (K, starts, N). Returns the K minima over the starts.
    """
    f0, y, kappa, power_bound, pts = (np.array(a) for a in zip(*instances))
    f0t = f0.transpose(0, 2, 1)
    step = 1.0 / (2.0 * np.linalg.norm(f0, 2, axis=(1, 2)) + 1e-12)
    rate = (2.0 * step)[:, None, None]
    for _ in range(steps):
        grad = pts @ f0t
        pts = project_feasible(pts - rate * grad, y, kappa, power_bound)
    objs = np.real(np.einsum("ksi,ksi->ks", pts.conj(), pts @ f0t))
    return objs.min(axis=1)


def solve_all(b, y, kappa, p_o):
    return {
        "am-direct": cs.direct_update(b, np.eye(y.size), y, kappa, p_o),
        "qcqp": cs.qcqp_solve(b, y, kappa, p_o),
        "sdp": cs.sdp_dual_solve(b, y, kappa, p_o),
        "cls": cs.cls_solve(b, y, kappa, p_o),
    }


class TestDirectUpdate:
    def test_identity_hessian(self):
        rng = np.random.default_rng(0)
        y = random_complex(rng, 6)
        ny2 = float(np.real(y.conj() @ y))
        sol = cs.direct_update(np.eye(6), np.eye(6), y, 1.0, 1.0 + 1.0 / ny2)
        np.testing.assert_allclose(sol.s, y / ny2, atol=1e-13)
        assert sol.multiplier == 0.0

    def test_lambda_zero_for_loose_budget(self):
        # budget P_o = 2 with kappa = 1 and a well-conditioned Hessian:
        # the unconstrained update norm is bounded by max_eig/min_eig *
        # kappa^2/||y||^2 <= 2 by construction, so the bound stays slack
        rng = np.random.default_rng(1)
        for _ in range(10):
            b = random_factor(rng, 6, eig_lo=1.0, eig_hi=2.0)
            y = random_complex(rng, 6)
            y *= np.sqrt(2.0) / np.linalg.norm(y)  # kappa^2/||y||^2 = 0.5 < 1
            sol = cs.direct_update(b, np.eye(6), y, 1.0, 2.0)
            assert sol.multiplier == 0.0
            assert sol.power <= 2.0 + 1e-8

    def test_active_budget_grid_scan(self):
        # independent eigen-space evaluation of ||s(lam)||^2 on a dense grid
        rng = np.random.default_rng(2)
        b = random_factor(rng, 5, eig_lo=0.05, eig_hi=2.0)
        y = random_complex(rng, 5)
        kappa = 1.0
        ny2 = float(np.real(y.conj() @ y))
        p_o = 1.05 * kappa**2 / ny2
        sol = cs.direct_update(b, np.eye(5), y, kappa, p_o)
        assert sol.multiplier > 0.0
        assert abs(sol.power - p_o) <= 1e-8

        evals, evecs = np.linalg.eigh(gram(b))
        a = np.abs(evecs.conj().T @ y) ** 2
        grid = np.linspace(1e-9, 8.0 * sol.multiplier, 1_000_000)
        denom = a[None, :] / (evals[None, :] + grid[:, None])
        norm2 = kappa**2 * np.sum(denom / (evals[None, :] + grid[:, None]), axis=1) \
            / np.sum(denom, axis=1) ** 2
        vals = norm2 - p_o
        idx = np.nonzero(np.diff(np.sign(vals)))[0]
        assert idx.size == 1
        grid_root = 0.5 * (grid[idx[0]] + grid[idx[0] + 1])
        assert abs(sol.multiplier - grid_root) <= grid[1] - grid[0]

    def test_zero_mode_matches_root_mode_bitwise(self):
        rng = np.random.default_rng(3)
        b = random_factor(rng, 6, eig_lo=1.0, eig_hi=2.0)
        y = random_complex(rng, 6)
        y *= np.sqrt(2.0) / np.linalg.norm(y)
        root = cs.direct_update(b, np.eye(6), y, 1.0, 2.0)
        zero = cs.direct_update(b, np.eye(6), y, 1.0, 2.0, mode="zero")
        assert np.array_equal(root.s, zero.s)

    def test_zero_mode_singular_hessian(self):
        # zero mode takes root mode's lam = 0 point at any rank of F0
        rng = np.random.default_rng(4)
        b = random_complex(rng, 2, 5).conj()  # rank-2 Hessian in dimension 5
        y = random_complex(rng, 5)
        zero = cs.direct_update(b, np.eye(5), y, 1.0, 1.0, mode="zero")
        root = cs.direct_update(b, np.eye(5), y, 1.0, 2.0 * zero.power)
        assert zero.multiplier == 0.0 and root.multiplier == 0.0
        assert np.array_equal(root.s, zero.s)

    def test_singular_hessian_root_mode_zero_objective(self):
        # y couples to the null space: the update reaches objective 0
        rng = np.random.default_rng(5)
        b = random_complex(rng, 3, 5).conj()
        y = random_complex(rng, 5)
        sol = cs.direct_update(b, np.eye(5), y, 1.0, 10.0)
        assert sol.multiplier == 0.0
        assert sol.objective <= 1e-12
        assert abs(sol.capon_residual) <= 1e-10

    def test_steering_just_outside_the_factor_row_space(self):
        # a short factor leaves F0 an explicit null space; y is 10^exponents
        # of its norm outside the row space of B, so its null part comes
        # from a cancellation that must stay orthogonal to the range. Below
        # 1e-6.5 that part meets the rank floor, and direct must take the
        # minimum-norm point as qcqp does; above it conditioning alone
        # moves s by up to about 1e-4 relative on both routes
        rng = np.random.default_rng(37)
        for exponents, budgets, draws in (((-6.5, -4.0), (1e6,), 20),
                                          ((-9.0, -6.5), (1e6, 1.001e-6), 200)):
            for _ in range(draws):
                b = random_complex(rng, 3, 40) * 10.0 ** rng.uniform(-3.0, 3.0)
                y = b.conj().T @ random_complex(rng, 3)
                z = random_complex(rng, 40)
                z -= b.conj().T @ np.linalg.lstsq(b.conj().T, z, rcond=None)[0]
                y = 1e3 * (y / np.linalg.norm(y)
                           + 10.0 ** rng.uniform(*exponents) * z / np.linalg.norm(z))
                for p_o in budgets:
                    sol = cs.direct_update(b, np.eye(40), y, 1.0, p_o)
                    assert sol.capon_residual <= 1e-8
                    assert sol.power <= p_o * (1.0 + 1e-12)
                    if exponents[1] <= -6.5:
                        ref = cs.qcqp_solve(b, y, 1.0, p_o).s
                        assert np.linalg.norm(sol.s - ref) <= 1e-6 * np.linalg.norm(ref)


class TestQcqpSolve:
    def test_scaled_identity_forces_center(self):
        rng = np.random.default_rng(6)
        y = random_complex(rng, 5)
        ny2 = float(np.real(y.conj() @ y))
        for c in (0.5, 3.0):
            sol = cs.qcqp_solve(np.sqrt(c) * np.eye(5), y, 1.0, 2.0 / ny2)
            np.testing.assert_allclose(sol.s, y / ny2, atol=1e-12)
            assert sol.multiplier == 0.0

    def test_boundary_feasibility(self):
        rng = np.random.default_rng(7)
        b = random_factor(rng, 4)
        y = random_complex(rng, 4)
        ny2 = float(np.real(y.conj() @ y))
        sol = cs.qcqp_solve(b, y, 1.0, 1.0 / ny2)  # r = 0 exactly
        np.testing.assert_allclose(sol.s, y / ny2, atol=1e-13)
        assert abs(sol.power - 1.0 / ny2) <= 1e-12

    def test_infeasible(self):
        rng = np.random.default_rng(8)
        b = random_factor(rng, 4)
        y = random_complex(rng, 4)
        ny2 = float(np.real(y.conj() @ y))
        with pytest.raises(cs.Infeasible):
            cs.qcqp_solve(b, y, 1.0, 0.5 / ny2)

    def test_zero_steering(self):
        with pytest.raises(cs.ZeroSteering):
            cs.qcqp_solve(np.eye(3), np.zeros(3, dtype=complex), 1.0, 1.0)

    @pytest.mark.parametrize("shape", [(3,), (3, 2), (2, 3, 1)])
    def test_factor_must_be_a_matrix_with_n_columns(self, shape):
        with pytest.raises(cs.ValidationError) as err:
            cs.qcqp_solve(np.ones(shape), np.ones(3, dtype=complex), 1.0, 1.0)
        assert err.value.field == "factor"

    def test_non_finite_inputs(self):
        y = np.ones(3, dtype=complex)
        # a non-finite imaginary part alone must be caught too
        for bad in (np.inf, complex(1.0, np.inf), complex(0.0, np.nan)):
            with pytest.raises(cs.NumericalFailure):
                cs.qcqp_solve(np.array([[1.0, bad, 0.0]]), y, 1.0, 1.0)
            with pytest.raises(cs.NumericalFailure):
                cs.qcqp_solve(np.eye(3), np.array([1.0, bad, 0.0]), 1.0, 1.0)

    def test_matches_projected_gradient_bruteforce(self):
        rng = np.random.default_rng(9)
        factors, instances = [], []
        for _ in range(5):
            b, y, kappa, p_o = random_instance(rng, 2, eig_lo=0.3, eig_hi=3.0,
                                               slack=rng.uniform(1.1, 2.0))
            factors.append(b)
            instances.append((gram(b), y, kappa, p_o,
                              feasible_starts(y, kappa, p_o, rng, starts=100)))
        for b, (_, y, kappa, p_o, _), brute in zip(
                factors, instances, projected_gradient_min(instances, steps=4000)):
            sol = cs.qcqp_solve(b, y, kappa, p_o)
            assert abs(sol.objective - brute) <= 1e-4 * (1.0 + abs(brute))
            assert sol.objective <= brute + 1e-6  # solver is never worse


class TestSecularResidual:
    def test_large_gamma_limit(self):
        rng = np.random.default_rng(10)
        b, y, kappa, p_o = random_instance(rng, 5)
        ny2 = float(np.real(y.conj() @ y))
        r2 = p_o - kappa**2 / ny2
        val = WaveformProblem._validated(b, y, kappa, p_o).secular(1e12)
        assert abs(val + r2) <= 1e-6

    def test_gamma_zero_identity_hessian(self):
        rng = np.random.default_rng(11)
        y = random_complex(rng, 5)
        ny2 = float(np.real(y.conj() @ y))
        p_o = 2.0 / ny2
        r2 = p_o - 1.0 / ny2
        val = WaveformProblem._validated(np.sqrt(2.0) * np.eye(5), y, 1.0, p_o).secular(0.0)
        assert abs(val + r2) <= 1e-14

    def test_monotone_nonincreasing(self):
        rng = np.random.default_rng(12)
        b, y, kappa, p_o = random_instance(rng, 6)
        gammas = np.sort(rng.uniform(0, 10, 100))
        problem = WaveformProblem._validated(b, y, kappa, p_o)
        vals = [problem.secular(g) for g in gammas]
        for a, b in zip(vals[:-1], vals[1:]):
            assert b <= a + 1e-12

    def test_matches_pseudoinverse_formula(self):
        # literal A(gamma) = (P F P + gamma P)^+ P F evaluation, on three spectra:
        # a full-rank factor (Gram of C^H C), a rank-2 factor with 3 < N rows
        # (Gram of C C^H, itself singular; P F0 P has zero eigenvalues besides
        # y's), and cls's spectrum from the SVD of C
        rng = np.random.default_rng(13)
        b, y, kappa, p_o = random_instance(rng, 5)
        b_low = random_complex(rng, 3, 2) @ random_complex(rng, 2, 5)
        problems = [WaveformProblem._validated(b, y, kappa, p_o),
                    WaveformProblem._validated(b_low, y, kappa, p_o),
                    cs.cls_solve(b, y, kappa, p_o).problem]
        n = y.size
        ny2 = float(np.real(y.conj() @ y))
        pperp = np.eye(n) - np.outer(y, y.conj()) / ny2
        for problem in problems:
            f0 = gram(problem.factor)
            m = pperp @ f0 @ pperp
            for gamma in (0.0, 0.3, 2.7):
                a_mat = np.linalg.pinv(m + gamma * pperp, rcond=TAU_RANK) @ (pperp @ f0)
                q = -(kappa / ny2) * (a_mat @ y)
                phi = float(np.real(q.conj() @ (pperp @ q))) - (p_o - kappa**2 / ny2)
                lib = problem.secular(gamma)
                assert abs(lib - phi) <= 1e-10 * max(1.0, abs(phi))
            # dual at 0: -c^H M^+ c with c = (kappa/||y||^2) P F0 y
            c = (kappa / ny2) * (pperp @ (f0 @ y))
            dual0 = -float(np.real(c.conj() @ (np.linalg.pinv(m, rcond=TAU_RANK) @ c)))
            assert abs(problem.dual_value(0.0) - dual0) <= 1e-10 * max(1.0, abs(dual0))


class TestSdpDualSolve:
    def test_identity_hessian_zero_dual(self):
        rng = np.random.default_rng(14)
        y = random_complex(rng, 5)
        ny2 = float(np.real(y.conj() @ y))
        sol = cs.sdp_dual_solve(np.eye(5), y, 1.0, 2.0 / ny2)
        cert = sol.certificate
        assert cert is not None
        assert abs(cert.dual_value) <= 1e-12
        assert abs(cert.primal_value) <= 1e-12
        np.testing.assert_allclose(sol.s, y / ny2, atol=1e-12)

    def test_strong_duality_against_qcqp(self):
        rng = np.random.default_rng(15)
        for _ in range(30):
            b, y, kappa, p_o = random_instance(rng, 8)
            qc = cs.qcqp_solve(b, y, kappa, p_o)
            sd = cs.sdp_dual_solve(b, y, kappa, p_o)
            qcqp_reduced = sd.certificate.primal_value  # trace form at sdp point
            assert abs(sd.certificate.dual_value - qcqp_reduced) \
                <= 1e-6 * (1.0 + abs(qcqp_reduced))
            assert abs(sd.objective - qc.objective) <= 1e-6 * (1.0 + abs(qc.objective))

    def test_certificate_complementarity(self):
        rng = np.random.default_rng(16)
        for _ in range(10):
            b, y, kappa, p_o = random_instance(rng, 6, slack=1.01)
            sol = cs.sdp_dual_solve(b, y, kappa, p_o)
            ny2 = float(np.real(y.conj() @ y))
            r2 = p_o - kappa**2 / ny2
            tangent2 = sol.certificate.constraint_value
            assert sol.multiplier * abs(r2 - tangent2) <= 1e-6

    def test_dual_concavity_sampled(self):
        rng = np.random.default_rng(17)
        b, y, kappa, p_o = random_instance(rng, 6)
        problem = WaveformProblem._validated(b, y, kappa, p_o)
        grid = np.linspace(1e-6, 5.0, 50)
        g = np.array([problem.dual_value(a) for a in grid])
        slopes = np.diff(g) / np.diff(grid)
        assert np.all(np.diff(slopes) <= 1e-9)

    def test_weak_duality_everywhere(self):
        rng = np.random.default_rng(18)
        b, y, kappa, p_o = random_instance(rng, 6)
        qc = cs.qcqp_solve(b, y, kappa, p_o)
        reduced_opt = cs.sdp_certificate(qc).primal_value
        for alpha in np.linspace(0.0, 10.0, 50):
            assert qc.problem.dual_value(float(alpha)) <= reduced_opt + 1e-8


class TestSdpCertificate:
    def test_boundary_point_certificate(self):
        # r = 0: q = 0, lifted matrix is diag(0,...,0,1)
        rng = np.random.default_rng(19)
        b = random_factor(rng, 4)
        y = random_complex(rng, 4)
        ny2 = float(np.real(y.conj() @ y))
        sol = cs.sdp_dual_solve(b, y, 1.0, 1.0 / ny2)
        cert = sol.certificate
        assert abs(cert.gap - abs(cert.dual_value)) <= 1e-10 + abs(cert.primal_value)

    def test_trace_form_matches_reduced_objective(self):
        rng = np.random.default_rng(21)
        for _ in range(10):
            b, y, kappa, p_o = random_instance(rng, 5)
            sol = cs.qcqp_solve(b, y, kappa, p_o)
            cert = cs.sdp_certificate(sol)
            ny2 = float(np.real(y.conj() @ y))
            const = kappa**2 / ny2**2 * float(np.real(y.conj() @ (gram(b) @ y)))
            reduced = sol.objective - const
            assert abs(cert.primal_value - reduced) <= 1e-10 * max(1.0, abs(reduced))


class TestClsSolve:
    def test_identity_hessian_center_solution(self):
        rng = np.random.default_rng(22)
        y = random_complex(rng, 5)
        ny2 = float(np.real(y.conj() @ y))
        sol = cs.cls_solve(np.sqrt(2.0) * np.eye(5), y, 1.0, 2.0 / ny2)
        np.testing.assert_allclose(sol.s, y / ny2, atol=1e-12)
        assert sol.multiplier == 0.0

    def test_expansion_identity(self):
        # ||C x - d||^2 must equal the objective s^H F0 s at s = P x + the
        # Capon point, validating the operator ordering of C and d
        rng = np.random.default_rng(23)
        for _ in range(10):
            b, y, kappa, p_o = random_instance(rng, 6)
            problem = WaveformProblem._validated(b, y, kappa, p_o)
            c_mat, d = problem.least_squares
            for _ in range(10):
                x = random_complex(rng, y.size)
                s = problem.project(x) + problem.center
                lhs = np.linalg.norm(c_mat @ x - d) ** 2
                rhs = float(np.real(s.conj() @ (gram(b) @ s)))
                assert abs(lhs - rhs) <= 1e-10 * max(1.0, abs(lhs))

    def test_matches_qcqp_waveform(self):
        rng = np.random.default_rng(24)
        for _ in range(20):
            factor, y, kappa, p_o = random_instance(rng, 7)
            a = cs.cls_solve(factor, y, kappa, p_o)
            b = cs.qcqp_solve(factor, y, kappa, p_o)
            sa = align_phase(a.s, y)
            sb = align_phase(b.s, y)
            assert np.linalg.norm(sa - sb) <= 1e-6 * max(1.0, np.linalg.norm(sb))
            assert abs(a.objective - b.objective) <= 1e-8 * (1.0 + abs(b.objective))


class TestScaleSolution:
    def test_already_at_full_power(self):
        rng = np.random.default_rng(25)
        s = random_complex(rng, 4)
        s *= np.sqrt(3.0) / np.linalg.norm(s)
        w = random_complex(rng, 10)
        w2, s2 = cs.scale_solution(w, s, 3.0)
        assert np.max(np.abs(s2 - s)) <= 1e-12 * np.max(np.abs(s))
        assert np.max(np.abs(w2 - w)) <= 1e-12 * np.max(np.abs(w))

    def test_clutter_form_invariance(self, small_bundle, small_cfg):
        rng = np.random.default_rng(26)
        for _ in range(10):
            w = random_complex(rng, small_cfg.mnl)
            s = random_complex(rng, small_cfg.N)
            w2, s2 = cs.scale_solution(w, s, small_cfg.power)
            before = np.real(w.conj() @ (small_bundle.clutter(s) @ w))
            after = np.real(w2.conj() @ (small_bundle.clutter(s2) @ w2))
            assert abs(after - before) <= 1e-10 * max(1.0, abs(before))
            assert abs(np.linalg.norm(s2) ** 2 - small_cfg.power) \
                <= 1e-12 * small_cfg.power

    def test_noise_term_scaling(self, small_bundle, small_cfg):
        rng = np.random.default_rng(27)
        base = dense_base_cov(small_cfg)
        for _ in range(10):
            w = random_complex(rng, small_cfg.mnl)
            s = random_complex(rng, small_cfg.N)
            w2, s2 = cs.scale_solution(w, s, small_cfg.power)
            before = np.real(w.conj() @ (base @ w))
            after = np.real(w2.conj() @ (base @ w2))
            factor = np.linalg.norm(s) ** 2 / small_cfg.power
            assert abs(after - factor * before) <= 1e-10 * abs(factor * before)

    def test_capon_product_preserved(self, small_bundle, small_cfg):
        rng = np.random.default_rng(28)
        w = random_complex(rng, small_cfg.mnl)
        s = random_complex(rng, small_cfg.N)
        w2, s2 = cs.scale_solution(w, s, small_cfg.power)
        before = w.conj() @ (small_bundle.target_map @ s)
        after = w2.conj() @ (small_bundle.target_map @ s2)
        assert abs(after - before) <= 1e-12 * max(1.0, abs(before))

    def test_zero_waveform(self):
        with pytest.raises(cs.ZeroWaveform):
            cs.scale_solution(np.ones(4, dtype=complex), np.zeros(2, dtype=complex), 1.0)

    @pytest.mark.parametrize("power_bound", [0.0, -1.0, np.nan, np.inf])
    def test_power_bound_must_be_finite_and_positive(self, power_bound):
        with pytest.raises(cs.ValidationError) as err:
            cs.scale_solution(np.ones(4, dtype=complex), np.ones(2, dtype=complex), power_bound)
        assert err.value.field == "power_bound"


class TestFourWayEquivalence:
    def test_objectives_and_waveforms_agree(self):
        rng = np.random.default_rng(29)
        for _ in range(30):
            b, y, kappa, p_o = random_instance(rng, 8)
            sols = solve_all(b, y, kappa, p_o)
            objs = [s.objective for s in sols.values()]
            for a, b in itertools.combinations(objs, 2):
                assert abs(a - b) <= 1e-6 * (1.0 + max(abs(a), abs(b)))
            aligned = [align_phase(s.s, y) for s in sols.values()]
            for a, b in itertools.combinations(aligned, 2):
                assert np.linalg.norm(a - b) <= 1e-5 * max(1.0, np.linalg.norm(b))

    def test_shared_kkt_contract(self):
        rng = np.random.default_rng(30)
        for _ in range(20):
            b, y, kappa, p_o = random_instance(rng, 6)
            for name, sol in solve_all(b, y, kappa, p_o).items():
                assert sol.multiplier >= 0.0
                assert sol.capon_residual <= 1e-8, name
                assert sol.power <= p_o + 1e-8, name
                assert sol.multiplier * (p_o - sol.power) <= 1e-6 * p_o, name
                assert sol.kkt_residual <= 1e-6, name

    def test_multipliers_coincide(self):
        # lam, gamma, alpha and the ellipsoid multiplier solve the same
        # complementarity condition, so they agree numerically
        rng = np.random.default_rng(31)
        b, y, kappa, p_o = random_instance(rng, 6, slack=1.02)
        mults = [s.multiplier for s in solve_all(b, y, kappa, p_o).values()]
        assert max(mults) - min(mults) <= 1e-6 * (1.0 + max(mults))


class TestZeroModes:
    def test_zero_modes_share_the_hyperplane_minimum(self):
        # an invertible F0, then a 3 x 6 factor: F0 of rank 3, y partly in
        # its null space, where every route takes the minimum-norm point
        rng = np.random.default_rng(32)
        full = random_factor(rng, 6, eig_lo=0.5, eig_hi=2.0)
        y = random_complex(rng, 6)
        short = random_complex(rng, 3, 6)
        kappa, p_o = 1.0, 0.01  # budget far below the Capon point: ignored
        for b in (full, short):
            qc = cs.qcqp_solve(b, y, kappa, p_o, mode="zero")
            sd = cs.sdp_dual_solve(b, y, kappa, p_o, mode="zero")
            cl = cs.cls_solve(b, y, kappa, p_o, mode="zero")
            di = cs.direct_update(b, np.eye(6), y, kappa, p_o, mode="zero")
            ref = align_phase(di.s, y)
            for sol in (qc, sd, cl):
                assert sol.multiplier == 0.0
                assert np.linalg.norm(align_phase(sol.s, y) - ref) <= 1e-8
            assert qc.capon_residual <= 1e-8 and di.capon_residual <= 1e-8


@pytest.fixture(scope="module")
def long_code(default_cfg):
    """The long-code geometry, (M, N, L) = (1, 128, 2) with Q = 25 patches
    and P_o = 1e-3, and six AM iterates (w, s) of a qcqp run on it."""
    cfg = dataclasses.replace(default_cfg, M=1, N=128, L=2, power=1e-3)
    records = cs.run(cfg, "qcqp", max_iter=6).trace.records[1:]
    return cfg, cs.build_bundle(cfg), [(r.w, r.s) for r in records]


class TestLongCodeGeometry:
    """Q = 25 patches against N = 128: the clutter factor has only
    min(Q, L*M) = 2 rows, and each route decomposes only the small Gram of
    the matrix it needs."""

    def test_routes_match_the_dense_tangent_solve(self, long_code):
        cfg, bundle, iterates = long_code
        for w, _ in iterates:
            b = bundle.hessian(w)
            y = bundle.target_map.conj().T @ w
            s_ref, mult_ref = dense_tangent_solve(gram(b), y, cfg.kappa, cfg.power)
            for name, sol in solve_all(b, y, cfg.kappa, cfg.power).items():
                assert np.linalg.norm(sol.s - s_ref) <= 1e-10 * np.linalg.norm(s_ref), name
                assert abs(sol.multiplier - mult_ref) <= 1e-10 * mult_ref, name

    @pytest.mark.parametrize("solver, kind", [
        ("am-direct", "eigh"), ("qcqp", "eigh"), ("sdp", "eigh"), ("cls", "svd")])
    def test_no_decomposition_larger_than_q(self, long_code, monkeypatch, solver, kind):
        # bounded by the factor's rows, the clutter rank r = 2, not by Q = 25,
        # and no route builds an N x N basis of y's complement by QR
        cfg, bundle, iterates = long_code
        w, s = iterates[-1]
        rows = bundle.hessian(w).shape[0]
        assert rows == min(cfg.clutter.patches, cfg.L * cfg.M) == 2
        stepper = am_driver.steps(bundle, cfg, s, solver, "root")
        next(stepper)  # the start: the MVDR weights of s
        shapes = []
        for name in ("eigh", "svd", "qr"):
            def recorded(a, *args, _name=name, _original=getattr(np.linalg, name), **kwargs):
                shapes.append((_name, np.shape(a)))
                return _original(a, *args, **kwargs)
            monkeypatch.setattr(np.linalg, name, recorded)
        next(stepper)
        assert {name for name, _ in shapes} == {kind}, shapes
        for name, shape in shapes:
            assert (max(shape) if name == "eigh" else min(shape)) <= rows, shapes


ROUTES_BY_MODE = {
    "am-direct": lambda b, y, kappa, p_o, mode:
        cs.direct_update(b, np.eye(y.size), y, kappa, p_o, mode=mode),
    "qcqp": lambda b, y, kappa, p_o, mode: cs.qcqp_solve(b, y, kappa, p_o, mode=mode),
    "sdp": lambda b, y, kappa, p_o, mode: cs.sdp_dual_solve(b, y, kappa, p_o, mode=mode),
    "cls": lambda b, y, kappa, p_o, mode: cs.cls_solve(b, y, kappa, p_o, mode=mode),
}


@pytest.mark.parametrize("route", sorted(ROUTES_BY_MODE))
class TestSharedRegime:
    """The multiplier regime all four routes share, route by route."""

    @staticmethod
    def instance(seed):
        rng = np.random.default_rng(seed)
        b = random_factor(rng, 6, eig_lo=0.5, eig_hi=2.0)
        y = random_complex(rng, 6)
        return b, y, 0.7, 0.7**2 / float(np.real(y.conj() @ y))

    def test_unknown_mode(self, route):
        b, y, kappa, capon_power = self.instance(34)
        with pytest.raises(cs.ValidationError) as err:
            ROUTES_BY_MODE[route](b, y, kappa, 2.0 * capon_power, "newton")
        assert err.value.field == "mode"

    @pytest.mark.parametrize("field, value", [("kappa", np.nan), ("kappa", np.inf),
                                              ("power_bound", np.nan),
                                              ("power_bound", -np.inf)])
    def test_non_finite_scalar_names_its_field(self, route, field, value):
        b, y, kappa, capon_power = self.instance(37)
        scalars = {"kappa": kappa, "power_bound": 2.0 * capon_power, field: value}
        with pytest.raises(cs.ValidationError) as err:
            ROUTES_BY_MODE[route](b, y, scalars["kappa"], scalars["power_bound"], "root")
        assert err.value.field == field

    def test_budget_at_capon_power_returns_capon_point(self, route):
        b, y, kappa, capon_power = self.instance(35)
        sol = ROUTES_BY_MODE[route](b, y, kappa, capon_power, "root")
        assert sol.multiplier == 0.0
        assert np.array_equal(sol.s, (kappa / float(np.real(y.conj() @ y))) * y)

    def test_zero_mode_ignores_an_infeasible_budget(self, route):
        b, y, kappa, capon_power = self.instance(36)
        with pytest.raises(cs.Infeasible):
            ROUTES_BY_MODE[route](b, y, kappa, 0.5 * capon_power, "root")
        sol = ROUTES_BY_MODE[route](b, y, kappa, 0.5 * capon_power, "zero")
        assert sol.multiplier == 0.0
        assert sol.capon_residual <= 1e-12
        assert sol.power > 0.5 * capon_power


def interface_problems(count, seed):
    """`count` seeded waveform subproblems (B, y, P_o, multipliers) at
    kappa = 1: N in 2..16, k in 1..2N rows of a random complex factor (so F0
    is singular when k < N), P_o from just above the Capon power
    1/||y||^2 to 100 times it, and five multipliers x > 0 spread over
    1e-4..1e2 times tr F0."""
    rng = np.random.default_rng(seed)
    for _ in range(count):
        n = int(rng.integers(2, 17))
        b = random_complex(rng, int(rng.integers(1, 2 * n + 1)), n)
        y = random_complex(rng, n)
        capon = 1.0 / float(np.real(y.conj() @ y))
        p_o = capon * (1.0 + 10.0 ** rng.uniform(-6.0, np.log10(99.0)))
        yield b, y, p_o, np.linalg.norm(b) ** 2 * 10.0 ** rng.uniform(-4.0, 2.0, 5)


class TestProblemInterface:
    """Every route's problem answers point, secular, secular_derivative
    and bracket; the four routes share ``_solve(problem, mode)``."""

    def test_route_problems_agree_with_the_base_class(self):
        # the ridge form is ||s(lam)||^2 - P_o in F0's eigenbasis, the others
        # ||P q||^2 - r^2 on the spectrum of P F0 P: the same function of x.
        # The ridge derivative cancels (a^2 - c b), hence its wider bound
        for b, y, p_o, xs in interface_problems(400, 3901):
            base = WaveformProblem._validated(b, y, 1.0, p_o)
            hi = base.bracket()[1]
            for cls in (_RidgeProblem, _SvdProblem, _DualProblem):
                problem = cls._validated(b, y, 1.0, p_o)
                if cls is not _DualProblem:
                    assert abs(problem.bracket()[1] - hi) <= 1e-12 * hi, cls
                for x in xs:
                    ref = base.point(x)
                    assert np.linalg.norm(problem.point(x) - ref) \
                        <= 1e-10 * np.linalg.norm(ref), cls
                    assert abs(problem.secular(x) - base.secular(x)) <= 1e-10 * p_o, cls
                    slope = base.secular_derivative(x)
                    assert abs(problem.secular_derivative(x) - slope) <= 1e-5 * abs(slope), cls

    def test_dual_bracket_lies_in_the_base_bracket(self):
        # the golden-section interval narrows the base bracket and keeps a
        # positive secular value at its lower end, where bisect_root starts;
        # where rounding moved the interval past the root, the lower end backs
        # off to an earlier golden point, not to the base bracket's 0
        active = 0
        for b, y, p_o, _ in interface_problems(400, 3902):
            base = WaveformProblem._validated(b, y, 1.0, p_o)
            if base.secular(0.0) <= 0.0:
                continue
            active += 1
            lo, hi = _DualProblem._validated(b, y, 1.0, p_o).bracket()
            base_lo, base_hi = base.bracket()
            assert base_lo < lo < hi <= base_hi
            assert base.secular(lo) > 0.0
        assert active >= 100

    def test_routes_look_up_bisect_root_at_call_time(self, monkeypatch):
        # the benchmark counts root-solver calls and evaluations by patching
        # waveform_solvers.bisect_root; a route that captured the solver
        # elsewhere would leave those counts at 0
        rng = np.random.default_rng(3903)
        b, y, kappa, p_o = random_instance(rng, 6, slack=1.02)
        reference = solve_all(b, y, kappa, p_o)
        assert all(sol.multiplier > 0.0 for sol in reference.values())
        calls = []

        def counting(*args):
            calls.append(args)
            return original(*args)

        original = waveform_solvers.bisect_root
        monkeypatch.setattr(waveform_solvers, "bisect_root", counting)
        for name, route in ROUTES_BY_MODE.items():
            calls.clear()
            sol = route(b, y, kappa, p_o, "root")
            assert len(calls) == 1, name
            assert sol.s.tobytes() == reference[name].s.tobytes(), name


@st.composite
def scaled_instances(draw):
    """A waveform subproblem at an extreme scale: a clutter factor of any
    rank with 1 to N+3 rows (both sides of the Gram size rule),
    ||F0|| = ||B||^2 from 1e-8 to 1e8, kappa 1e-4..1e4 and a budget 1e-6..1
    above the Capon power kappa^2/||y||^2."""
    n = draw(st.integers(3, 11))
    rows = draw(st.integers(1, n + 3))
    rank = draw(st.integers(1, min(rows, n)))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    b = random_complex(rng, rows, rank) @ random_complex(rng, rank, n)
    b *= np.sqrt(10.0 ** draw(st.floats(-8.0, 8.0))) / np.linalg.norm(b, 2)
    y = random_complex(rng, n)
    kappa = 10.0 ** draw(st.floats(-4.0, 4.0))
    slack = 10.0 ** draw(st.floats(-6.0, 0.0))
    return b, y, kappa, kappa**2 / float(np.real(y.conj() @ y)) * (1.0 + slack)


@settings(derandomize=True, max_examples=300, deadline=None)
@given(scaled_instances())
def test_four_routes_agree_at_every_scale(instance):
    b, y, kappa, p_o = instance
    sols = list(solve_all(b, y, kappa, p_o).values())
    mults = np.array([s.multiplier for s in sols])
    objs = np.array([s.objective for s in sols])
    assert np.all(mults == 0.0) or np.all(mults > 0.0), mults
    if mults[0] > 0.0:
        assert mults.max() - mults.min() <= 1e-8 * mults.max(), mults
        assert max(s.power for s in sols) <= p_o * (1.0 + 1e-12)
        assert objs.max() - objs.min() <= 1e-6 * np.abs(objs).max(), objs
    else:
        assert objs.max() - objs.min() <= 1e-6 * np.linalg.norm(b, 2) ** 2 * p_o, objs
