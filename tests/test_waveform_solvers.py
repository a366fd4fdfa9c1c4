import itertools

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import costap as cs
from costap.matrix_ops import TAU_RANK
from costap.waveform_solvers import WaveformProblem

from helpers import align_phase, dense_base_cov, random_complex, random_instance, random_psd


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


def solve_all(f0, y, kappa, p_o):
    return {
        "am-direct": cs.direct_update(f0, np.eye(y.size), y, kappa, p_o),
        "qcqp": cs.qcqp_solve(f0, y, kappa, p_o),
        "sdp": cs.sdp_dual_solve(f0, y, kappa, p_o),
        "cls": cs.cls_solve(f0, y, kappa, p_o),
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
            f0 = random_psd(rng, 6, eig_lo=1.0, eig_hi=2.0)
            y = random_complex(rng, 6)
            y *= np.sqrt(2.0) / np.linalg.norm(y)  # kappa^2/||y||^2 = 0.5 < 1
            sol = cs.direct_update(f0, np.eye(6), y, 1.0, 2.0)
            assert sol.multiplier == 0.0
            assert sol.power <= 2.0 + 1e-8

    def test_active_budget_grid_scan(self):
        # independent eigen-space evaluation of ||s(lam)||^2 on a dense grid
        rng = np.random.default_rng(2)
        f0 = random_psd(rng, 5, eig_lo=0.05, eig_hi=2.0)
        y = random_complex(rng, 5)
        kappa = 1.0
        ny2 = float(np.real(y.conj() @ y))
        p_o = 1.05 * kappa**2 / ny2
        sol = cs.direct_update(f0, np.eye(5), y, kappa, p_o)
        assert sol.multiplier > 0.0
        assert abs(sol.power - p_o) <= 1e-8

        evals, evecs = np.linalg.eigh(f0)
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
        f0 = random_psd(rng, 6, eig_lo=1.0, eig_hi=2.0)
        y = random_complex(rng, 6)
        y *= np.sqrt(2.0) / np.linalg.norm(y)
        root = cs.direct_update(f0, np.eye(6), y, 1.0, 2.0)
        zero = cs.direct_update(f0, np.eye(6), y, 1.0, 2.0, lambda_mode="zero")
        assert np.array_equal(root.s, zero.s)

    def test_zero_mode_singular_hessian(self):
        rng = np.random.default_rng(4)
        u = random_complex(rng, 2, 5)  # rank-2 Hessian in dimension 5
        f0 = u.T @ u.conj()
        y = random_complex(rng, 5)
        with pytest.raises(cs.SingularHessian):
            cs.direct_update(f0, np.eye(5), y, 1.0, 1.0, lambda_mode="zero")

    def test_singular_hessian_root_mode_zero_objective(self):
        # y couples to the null space: the update reaches objective 0
        rng = np.random.default_rng(5)
        u = random_complex(rng, 3, 5)
        f0 = u.T @ u.conj()
        y = random_complex(rng, 5)
        sol = cs.direct_update(f0, np.eye(5), y, 1.0, 10.0)
        assert sol.multiplier == 0.0
        assert sol.objective <= 1e-12
        assert abs(sol.capon_residual) <= 1e-10


class TestQcqpSolve:
    def test_scaled_identity_forces_center(self):
        rng = np.random.default_rng(6)
        y = random_complex(rng, 5)
        ny2 = float(np.real(y.conj() @ y))
        for c in (0.5, 3.0):
            sol = cs.qcqp_solve(c * np.eye(5), y, 1.0, 2.0 / ny2)
            np.testing.assert_allclose(sol.s, y / ny2, atol=1e-12)
            assert sol.multiplier == 0.0

    def test_boundary_feasibility(self):
        rng = np.random.default_rng(7)
        f0 = random_psd(rng, 4)
        y = random_complex(rng, 4)
        ny2 = float(np.real(y.conj() @ y))
        sol = cs.qcqp_solve(f0, y, 1.0, 1.0 / ny2)  # r = 0 exactly
        np.testing.assert_allclose(sol.s, y / ny2, atol=1e-13)
        assert abs(sol.power - 1.0 / ny2) <= 1e-12

    def test_infeasible(self):
        rng = np.random.default_rng(8)
        f0 = random_psd(rng, 4)
        y = random_complex(rng, 4)
        ny2 = float(np.real(y.conj() @ y))
        with pytest.raises(cs.Infeasible):
            cs.qcqp_solve(f0, y, 1.0, 0.5 / ny2)

    def test_zero_steering(self):
        with pytest.raises(cs.ZeroSteering):
            cs.qcqp_solve(np.eye(3), np.zeros(3, dtype=complex), 1.0, 1.0)

    def test_matches_projected_gradient_bruteforce(self):
        rng = np.random.default_rng(9)
        instances = []
        for _ in range(5):
            f0, y, kappa, p_o = random_instance(rng, 2, eig_lo=0.3, eig_hi=3.0,
                                                slack=rng.uniform(1.1, 2.0))
            instances.append((f0, y, kappa, p_o,
                              feasible_starts(y, kappa, p_o, rng, starts=100)))
        for (f0, y, kappa, p_o, _), brute in zip(instances,
                                                 projected_gradient_min(instances, steps=4000)):
            sol = cs.qcqp_solve(f0, y, kappa, p_o)
            assert abs(sol.objective - brute) <= 1e-4 * (1.0 + abs(brute))
            assert sol.objective <= brute + 1e-6  # solver is never worse


class TestSecularResidual:
    def test_large_gamma_limit(self):
        rng = np.random.default_rng(10)
        f0, y, kappa, p_o = random_instance(rng, 5)
        ny2 = float(np.real(y.conj() @ y))
        r2 = p_o - kappa**2 / ny2
        val = WaveformProblem._validated(f0, y, kappa, p_o).secular(1e12)
        assert abs(val + r2) <= 1e-6

    def test_gamma_zero_identity_hessian(self):
        rng = np.random.default_rng(11)
        y = random_complex(rng, 5)
        ny2 = float(np.real(y.conj() @ y))
        p_o = 2.0 / ny2
        r2 = p_o - 1.0 / ny2
        val = WaveformProblem._validated(2.0 * np.eye(5), y, 1.0, p_o).secular(0.0)
        assert abs(val + r2) <= 1e-14

    def test_monotone_nonincreasing(self):
        rng = np.random.default_rng(12)
        f0, y, kappa, p_o = random_instance(rng, 6)
        gammas = np.sort(rng.uniform(0, 10, 100))
        problem = WaveformProblem._validated(f0, y, kappa, p_o)
        vals = [problem.secular(g) for g in gammas]
        for a, b in zip(vals[:-1], vals[1:]):
            assert b <= a + 1e-12

    def test_matches_pseudoinverse_formula(self):
        # literal A(gamma) = (P F P + gamma P)^+ P F evaluation
        rng = np.random.default_rng(13)
        f0, y, kappa, p_o = random_instance(rng, 5)
        n = y.size
        ny2 = float(np.real(y.conj() @ y))
        pperp = np.eye(n) - np.outer(y, y.conj()) / ny2
        problem = WaveformProblem._validated(f0, y, kappa, p_o)
        for gamma in (0.0, 0.3, 2.7):
            a_mat = np.linalg.pinv(pperp @ f0 @ pperp + gamma * pperp, rcond=TAU_RANK) @ (pperp @ f0)
            q = -(kappa / ny2) * (a_mat @ y)
            phi = float(np.real(q.conj() @ (pperp @ q))) - (p_o - kappa**2 / ny2)
            lib = problem.secular(gamma)
            assert abs(lib - phi) <= 1e-10 * max(1.0, abs(phi))


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
            f0, y, kappa, p_o = random_instance(rng, 8)
            qc = cs.qcqp_solve(f0, y, kappa, p_o)
            sd = cs.sdp_dual_solve(f0, y, kappa, p_o)
            qcqp_reduced = sd.certificate.primal_value  # trace form at sdp point
            assert abs(sd.certificate.dual_value - qcqp_reduced) \
                <= 1e-6 * (1.0 + abs(qcqp_reduced))
            assert abs(sd.objective - qc.objective) <= 1e-6 * (1.0 + abs(qc.objective))

    def test_certificate_complementarity(self):
        rng = np.random.default_rng(16)
        for _ in range(10):
            f0, y, kappa, p_o = random_instance(rng, 6, slack=1.01)
            sol = cs.sdp_dual_solve(f0, y, kappa, p_o)
            ny2 = float(np.real(y.conj() @ y))
            r2 = p_o - kappa**2 / ny2
            tangent2 = sol.certificate.constraint_value
            assert sol.multiplier * abs(r2 - tangent2) <= 1e-6

    def test_dual_concavity_sampled(self):
        rng = np.random.default_rng(17)
        f0, y, kappa, p_o = random_instance(rng, 6)
        problem = WaveformProblem._validated(f0, y, kappa, p_o)
        grid = np.linspace(1e-6, 5.0, 50)
        g = np.array([problem.dual_value(a) for a in grid])
        slopes = np.diff(g) / np.diff(grid)
        assert np.all(np.diff(slopes) <= 1e-9)

    def test_weak_duality_everywhere(self):
        rng = np.random.default_rng(18)
        f0, y, kappa, p_o = random_instance(rng, 6)
        qc = cs.qcqp_solve(f0, y, kappa, p_o)
        reduced_opt = cs.sdp_certificate(qc).primal_value
        for alpha in np.linspace(0.0, 10.0, 50):
            assert qc.problem.dual_value(float(alpha)) <= reduced_opt + 1e-8


class TestSdpCertificate:
    def test_boundary_point_certificate(self):
        # r = 0: q = 0, lifted matrix is diag(0,...,0,1)
        rng = np.random.default_rng(19)
        f0 = random_psd(rng, 4)
        y = random_complex(rng, 4)
        ny2 = float(np.real(y.conj() @ y))
        sol = cs.sdp_dual_solve(f0, y, 1.0, 1.0 / ny2)
        cert = sol.certificate
        # the lifting [[q q^H, q], [q^H, 1]] is rank 1 by construction
        assert cert.rank1_residual == 0.0
        assert abs(cert.gap - abs(cert.dual_value)) <= 1e-10 + abs(cert.primal_value)

    def test_rank_one_by_construction(self):
        rng = np.random.default_rng(20)
        f0, y, kappa, p_o = random_instance(rng, 6)
        sol = cs.sdp_dual_solve(f0, y, kappa, p_o)
        # the certificate lifts q = P(s - Capon point) as [[q q^H, q], [q^H, 1]],
        # rank 1 by construction, so its residual is 0 by definition
        assert sol.certificate.rank1_residual == 0.0

    def test_trace_form_matches_reduced_objective(self):
        rng = np.random.default_rng(21)
        for _ in range(10):
            f0, y, kappa, p_o = random_instance(rng, 5)
            sol = cs.qcqp_solve(f0, y, kappa, p_o)
            cert = cs.sdp_certificate(sol)
            ny2 = float(np.real(y.conj() @ y))
            const = kappa**2 / ny2**2 * float(np.real(y.conj() @ (f0 @ y)))
            reduced = sol.objective - const
            assert abs(cert.primal_value - reduced) <= 1e-10 * max(1.0, abs(reduced))

    def test_requires_problem_data(self):
        sol = cs.WaveformSolution(s=np.ones(2, dtype=complex), multiplier=0.0,
                                  multiplier_kind="gamma", objective=0.0,
                                  capon_residual=0.0, power=1.0, kkt_residual=0.0)
        with pytest.raises(ValueError):
            cs.sdp_certificate(sol)


class TestClsSolve:
    def test_identity_hessian_center_solution(self):
        rng = np.random.default_rng(22)
        y = random_complex(rng, 5)
        ny2 = float(np.real(y.conj() @ y))
        sol = cs.cls_solve(2.0 * np.eye(5), y, 1.0, 2.0 / ny2)
        np.testing.assert_allclose(sol.s, y / ny2, atol=1e-12)
        assert sol.multiplier == 0.0

    def test_expansion_identity(self):
        # ||C q - d||^2 must expand to the tangent-space quadratic plus
        # the dropped constant, validating the operator ordering of C
        rng = np.random.default_rng(23)
        for _ in range(10):
            f0, y, kappa, p_o = random_instance(rng, 6)
            n = y.size
            ny2 = float(np.real(y.conj() @ y))
            pperp = np.eye(n) - np.outer(y, y.conj()) / ny2
            sqrt_f = cs.hermitian_sqrt(f0)
            c_mat = sqrt_f @ pperp
            d = -(kappa / ny2) * (sqrt_f @ y)
            const = kappa**2 / ny2**2 * float(np.real(y.conj() @ (f0 @ y)))
            for _ in range(10):
                q = random_complex(rng, n)
                lhs = np.linalg.norm(c_mat @ q - d) ** 2
                rhs = (float(np.real(q.conj() @ (pperp @ f0 @ pperp @ q)))
                       + 2.0 * kappa / ny2 * float(np.real(q.conj() @ (pperp @ f0 @ y))))
                assert abs(lhs - (rhs + const)) <= 1e-10 * max(1.0, abs(lhs))

    def test_matches_qcqp_waveform(self):
        rng = np.random.default_rng(24)
        for _ in range(20):
            f0, y, kappa, p_o = random_instance(rng, 7)
            a = cs.cls_solve(f0, y, kappa, p_o)
            b = cs.qcqp_solve(f0, y, kappa, p_o)
            sa = align_phase(a.s, y)
            sb = align_phase(b.s, y)
            assert np.linalg.norm(sa - sb) <= 1e-6 * max(1.0, np.linalg.norm(sb))
            assert abs(a.objective - b.objective) <= 1e-8 * (1.0 + abs(b.objective))

    def test_not_psd(self):
        y = np.ones(3, dtype=complex)
        with pytest.raises(cs.NotPSD):
            cs.cls_solve(np.diag([1.0, 1.0, -0.5]), y, 1.0, 5.0)


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


class TestFourWayEquivalence:
    def test_objectives_and_waveforms_agree(self):
        rng = np.random.default_rng(29)
        for _ in range(30):
            f0, y, kappa, p_o = random_instance(rng, 8)
            sols = solve_all(f0, y, kappa, p_o)
            objs = [s.objective for s in sols.values()]
            for a, b in itertools.combinations(objs, 2):
                assert abs(a - b) <= 1e-6 * (1.0 + max(abs(a), abs(b)))
            aligned = [align_phase(s.s, y) for s in sols.values()]
            for a, b in itertools.combinations(aligned, 2):
                assert np.linalg.norm(a - b) <= 1e-5 * max(1.0, np.linalg.norm(b))

    def test_shared_kkt_contract(self):
        rng = np.random.default_rng(30)
        for _ in range(20):
            f0, y, kappa, p_o = random_instance(rng, 6)
            for name, sol in solve_all(f0, y, kappa, p_o).items():
                assert sol.multiplier >= 0.0
                assert sol.capon_residual <= 1e-8, name
                assert sol.power <= p_o + 1e-8, name
                assert sol.multiplier * (p_o - sol.power) <= 1e-6 * p_o, name
                assert sol.kkt_residual <= 1e-6, name

    def test_multipliers_coincide(self):
        # lam, gamma, alpha and the ellipsoid multiplier solve the same
        # complementarity condition, so they agree numerically
        rng = np.random.default_rng(31)
        f0, y, kappa, p_o = random_instance(rng, 6, slack=1.02)
        mults = [s.multiplier for s in solve_all(f0, y, kappa, p_o).values()]
        assert max(mults) - min(mults) <= 1e-6 * (1.0 + max(mults))


class TestZeroModes:
    def test_zero_modes_share_the_hyperplane_minimum(self):
        rng = np.random.default_rng(32)
        f0 = random_psd(rng, 6, eig_lo=0.5, eig_hi=2.0)
        y = random_complex(rng, 6)
        kappa, p_o = 1.0, 0.01  # budget far below the Capon point: ignored
        qc = cs.qcqp_solve(f0, y, kappa, p_o, gamma_mode="zero")
        sd = cs.sdp_dual_solve(f0, y, kappa, p_o, mode="zero")
        cl = cs.cls_solve(f0, y, kappa, p_o, mode="zero")
        di = cs.direct_update(f0, np.eye(6), y, kappa, p_o, lambda_mode="zero")
        ref = align_phase(di.s, y)
        for sol in (qc, sd, cl):
            assert sol.multiplier == 0.0
            assert np.linalg.norm(align_phase(sol.s, y) - ref) <= 1e-8
        assert qc.capon_residual <= 1e-8


ROUTES_BY_MODE = {
    "am-direct": lambda f0, y, kappa, p_o, mode:
        cs.direct_update(f0, np.eye(y.size), y, kappa, p_o, lambda_mode=mode),
    "qcqp": lambda f0, y, kappa, p_o, mode: cs.qcqp_solve(f0, y, kappa, p_o, gamma_mode=mode),
    "sdp": lambda f0, y, kappa, p_o, mode: cs.sdp_dual_solve(f0, y, kappa, p_o, mode=mode),
    "cls": lambda f0, y, kappa, p_o, mode: cs.cls_solve(f0, y, kappa, p_o, mode=mode),
}


@pytest.mark.parametrize("route", sorted(ROUTES_BY_MODE))
class TestSharedRegime:
    """The multiplier regime all four routes share, route by route."""

    @staticmethod
    def instance(seed):
        rng = np.random.default_rng(seed)
        f0 = random_psd(rng, 6, eig_lo=0.5, eig_hi=2.0)
        y = random_complex(rng, 6)
        return f0, y, 0.7, 0.7**2 / float(np.real(y.conj() @ y))

    def test_unknown_mode(self, route):
        f0, y, kappa, capon_power = self.instance(34)
        with pytest.raises(ValueError):
            ROUTES_BY_MODE[route](f0, y, kappa, 2.0 * capon_power, "newton")

    def test_budget_at_capon_power_returns_capon_point(self, route):
        f0, y, kappa, capon_power = self.instance(35)
        sol = ROUTES_BY_MODE[route](f0, y, kappa, capon_power, "root")
        assert sol.multiplier == 0.0
        assert np.array_equal(sol.s, (kappa / float(np.real(y.conj() @ y))) * y)

    def test_zero_mode_ignores_an_infeasible_budget(self, route):
        f0, y, kappa, capon_power = self.instance(36)
        with pytest.raises(cs.Infeasible):
            ROUTES_BY_MODE[route](f0, y, kappa, 0.5 * capon_power, "root")
        sol = ROUTES_BY_MODE[route](f0, y, kappa, 0.5 * capon_power, "zero")
        assert sol.multiplier == 0.0
        assert sol.capon_residual <= 1e-12
        assert sol.power > 0.5 * capon_power


@st.composite
def scaled_instances(draw):
    """A waveform subproblem at an extreme scale: PSD F0 of any rank with
    spectral norm 1e-8..1e8, kappa 1e-4..1e4 and a budget 1e-6..1 above
    the Capon power kappa^2/||y||^2."""
    n = draw(st.integers(3, 11))
    rank = draw(st.integers(1, n))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    u = random_complex(rng, n, rank)
    f0 = u @ u.conj().T
    f0 *= 10.0 ** draw(st.floats(-8.0, 8.0)) / np.linalg.norm(f0, 2)
    y = random_complex(rng, n)
    kappa = 10.0 ** draw(st.floats(-4.0, 4.0))
    slack = 10.0 ** draw(st.floats(-6.0, 0.0))
    return f0, y, kappa, kappa**2 / float(np.real(y.conj() @ y)) * (1.0 + slack)


@settings(derandomize=True, max_examples=300, deadline=None)
@given(scaled_instances())
def test_four_routes_agree_at_every_scale(instance):
    f0, y, kappa, p_o = instance
    sols = list(solve_all(f0, y, kappa, p_o).values())
    mults = np.array([s.multiplier for s in sols])
    objs = np.array([s.objective for s in sols])
    assert np.all(mults == 0.0) or np.all(mults > 0.0), mults
    if mults[0] > 0.0:
        assert mults.max() - mults.min() <= 1e-8 * mults.max(), mults
        assert max(s.power for s in sols) <= p_o * (1.0 + 1e-12)
        assert objs.max() - objs.min() <= 1e-6 * np.abs(objs).max(), objs
    else:
        assert objs.max() - objs.min() <= 1e-6 * np.linalg.norm(f0, 2) * p_o, objs
