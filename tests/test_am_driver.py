import dataclasses
import tracemalloc

import numpy as np
import pytest

import costap as cs

from helpers import dense_base_cov, random_complex


class TestFullObjective:
    def test_zero_weights(self, small_bundle, small_cfg):
        assert cs.full_objective(small_bundle, np.zeros(small_cfg.mnl, dtype=complex),
                                 np.ones(small_cfg.N, dtype=complex)) == 0.0

    def test_zero_waveform_leaves_base_term(self, small_bundle, small_cfg):
        rng = np.random.default_rng(0)
        w = random_complex(rng, small_cfg.mnl)
        got = cs.full_objective(small_bundle, w, np.zeros(small_cfg.N, dtype=complex))
        expected = np.real(w.conj() @ (dense_base_cov(small_cfg) @ w))
        assert abs(got - expected) <= 1e-12 * abs(expected)

    def test_hessian_identity(self, small_bundle, small_cfg):
        rng = np.random.default_rng(1)
        for _ in range(20):
            w = random_complex(rng, small_cfg.mnl)
            s = random_complex(rng, small_cfg.N)
            total = cs.full_objective(small_bundle, w, s)
            split = (np.real(s.conj() @ (small_bundle.hessian(w) @ s))
                     + np.real(w.conj() @ (dense_base_cov(small_cfg) @ w)))
            assert abs(total - split) <= 1e-10 * max(1.0, abs(total))

    def test_imaginary_residue_is_negligible(self, small_bundle, small_cfg):
        rng = np.random.default_rng(2)
        w = random_complex(rng, small_cfg.mnl)
        s = random_complex(rng, small_cfg.N)
        raw = w.conj() @ (cs.total_cov(small_bundle, s) @ w)
        assert abs(raw.imag) <= 1e-10 * max(1.0, abs(raw.real))


class TestHullDiameter:
    def test_single_point(self):
        assert cs.hull_diameter([np.ones(3, dtype=complex)]) == 0.0

    def test_two_points(self):
        a = np.zeros(2, dtype=complex)
        b = np.array([3.0, 0.0], dtype=complex)
        assert abs(cs.hull_diameter([a, b]) - 3.0) <= 1e-15

    def test_matches_exhaustive_pairwise(self):
        rng = np.random.default_rng(3)
        pts = [random_complex(rng, 8) for _ in range(10)]
        expected = max(np.linalg.norm(p - q) for p in pts for q in pts)
        assert abs(cs.hull_diameter(pts) - expected) <= 1e-14

    def test_empty_raises(self):
        with pytest.raises(ValueError):
            cs.hull_diameter([])


class TestConstraintSetDrift:
    def test_identical_sets(self):
        rng = np.random.default_rng(4)
        y = random_complex(rng, 5)
        assert cs.constraint_set_drift(y, y, 1.0, 2.0, 64) <= 1e-12

    def test_singleton_sets(self):
        # ||y||^2 = kappa^2 / P_o makes r = 0: sets shrink to Capon points
        rng = np.random.default_rng(5)
        kappa, p_o = 1.0, 0.5
        y1 = random_complex(rng, 4)
        y1 *= kappa / np.sqrt(p_o) / np.linalg.norm(y1)
        y2 = random_complex(rng, 4)
        y2 *= kappa / np.sqrt(p_o) / np.linalg.norm(y2)
        c1 = kappa * y1 / np.linalg.norm(y1) ** 2
        c2 = kappa * y2 / np.linalg.norm(y2) ** 2
        got = cs.constraint_set_drift(y1, y2, kappa, p_o, 256)
        assert abs(got - np.linalg.norm(c1 - c2)) <= 1e-10

    def test_infeasible(self):
        rng = np.random.default_rng(6)
        y = random_complex(rng, 4)
        y *= 0.1  # kappa^2/||y||^2 >> P_o
        with pytest.raises(cs.Infeasible):
            cs.constraint_set_drift(y, y, 1.0, 1.0, 16)

    def test_against_dense_cloud_oracle(self):
        # pairwise max-min Hausdorff over dense boundary clouds; no
        # projection formula shared with the estimator
        rng = np.random.default_rng(7)
        n, kappa, p_o = 3, 1.0, 1.5
        y1 = random_complex(rng, n)
        y2 = y1 + 0.3 * random_complex(rng, n)

        def cloud(y, count):
            ny2 = float(np.real(y.conj() @ y))
            center = kappa * y / ny2
            r = np.sqrt(p_o - kappa**2 / ny2)
            g = random_complex(rng, count, n)
            g -= np.outer(g @ y.conj(), y) / ny2
            g /= np.linalg.norm(g, axis=1)[:, None]
            radii = r * rng.uniform(0, 1, count) ** (1.0 / (2 * n - 2))
            pts = center[None, :] + radii[:, None] * g
            boundary = center[None, :] + r * g
            return np.vstack([pts, boundary, center[None, :]])

        a = cloud(y1, 6000)
        b = cloud(y2, 6000)

        def directed(p, q):
            worst = 0.0
            for block in np.array_split(p, 8):
                d2 = (np.sum(np.abs(block) ** 2, axis=1)[:, None]
                      + np.sum(np.abs(q) ** 2, axis=1)[None, :]
                      - 2.0 * np.real(block.conj() @ q.T))
                worst = max(worst, float(np.sqrt(np.maximum(d2, 0.0).min(axis=1)).max()))
            return worst

        oracle = max(directed(a, b), directed(b, a))
        estimate = cs.constraint_set_drift(y1, y2, kappa, p_o, 10_000)
        assert abs(estimate - oracle) <= 0.10 * oracle


class TestRun:
    def test_max_iter_zero_holds_only_initialization(self, small_cfg):
        report = cs.run(small_cfg, "qcqp", max_iter=0)
        assert len(report.trace) == 1
        rec = report.trace.records[0]
        assert rec.iteration == 0
        assert rec.multiplier is None and rec.step_w is None
        assert np.isfinite(rec.full_objective)

    def test_monotone_descent_small_scenario(self, small_cfg):
        for solver in cs.SOLVERS:
            report = cs.run(small_cfg, solver, max_iter=10)
            assert report.monotonicity_violations == 0, solver
            objs = report.trace.objectives()
            assert np.all(np.diff(objs) <= 1e-9 * np.abs(objs[:-1]) + 1e-15)
            assert [r.iteration for r in report.trace.records] == list(range(11))

    def test_same_seed_bit_identical(self, small_cfg):
        r1 = cs.run(small_cfg, "qcqp", max_iter=5)
        r2 = cs.run(small_cfg, "qcqp", max_iter=5)
        for a, b in zip(r1.trace.records, r2.trace.records):
            assert np.array_equal(a.w, b.w)
            assert np.array_equal(a.s, b.s)
            assert a.full_objective == b.full_objective
            assert a.drift == b.drift or (a.drift is None and b.drift is None)

    def test_rescaled_column(self, small_cfg, small_bundle):
        report = cs.run(small_cfg, "qcqp", max_iter=6, rescale=True)
        for rec in report.trace.records:
            assert rec.rescaled_objective is not None
            w2, s2 = cs.scale_solution(rec.w, rec.s, small_cfg.power)
            assert abs(np.linalg.norm(s2) ** 2 - small_cfg.power) \
                <= 1e-12 * small_cfg.power
            clutter_before = np.real(rec.w.conj() @ (small_bundle.clutter(rec.s) @ rec.w))
            clutter_after = np.real(w2.conj() @ (small_bundle.clutter(s2) @ w2))
            assert abs(clutter_after - clutter_before) <= 1e-10 * max(1.0, clutter_before)
            assert abs(rec.rescaled_objective - cs.full_objective(small_bundle, w2, s2)) \
                <= 1e-12 * max(1.0, rec.rescaled_objective)

    def test_capon_feasibility_at_half_steps(self, small_cfg, small_bundle):
        report = cs.run(small_cfg, "cls", max_iter=8)
        records = report.trace.records
        for prev, curr in zip(records[:-1], records[1:]):
            r1 = abs(curr.w.conj() @ (small_bundle.target_map @ prev.s) - small_cfg.kappa)
            r2 = abs(curr.w.conj() @ (small_bundle.target_map @ curr.s) - small_cfg.kappa)
            assert r1 <= 1e-8 and r2 <= 1e-8

    def test_error_carries_iteration_index(self, small_cfg):
        # clutter rank 2 < N = 3 makes the zero-mode Hessian singular
        cfg = dataclasses.replace(
            small_cfg,
            clutter=dataclasses.replace(small_cfg.clutter, patches=2))
        with pytest.raises(cs.SingularHessian, match="iteration 1"):
            cs.run(cfg, "am-direct", max_iter=3, lambda_mode="zero")

    def test_unknown_solver(self, small_cfg):
        with pytest.raises(ValueError):
            cs.run(small_cfg, "newton")

    def test_init_waveform_length_checked(self, small_cfg):
        with pytest.raises(ValueError):
            cs.run(small_cfg, "qcqp", init_waveform=np.ones(5, dtype=complex))

    def test_obj_tol_stops_early(self, small_cfg):
        report = cs.run(small_cfg, "qcqp", max_iter=50, obj_tol=1e-2)
        assert report.converged
        assert len(report.trace) < 51

    def test_drift_column_trend(self, small_cfg):
        report = cs.run(small_cfg, "qcqp", max_iter=10, drift_samples=128)
        drifts = [r.drift for r in report.trace.records[2:]]
        assert all(d is not None and np.isfinite(d) for d in drifts)
        assert report.max_constraint_drift >= max(drifts)
        # drift settles as the iteration converges
        diffs = np.diff(drifts)
        assert np.median(diffs) <= 1e-12


def _variant(cfg, clutter=None, **changes):
    if clutter:
        changes["clutter"] = dataclasses.replace(cfg.clutter, **clutter)
    return dataclasses.replace(cfg, **changes)


DESCENT_SCENARIOS = {
    "cnr-60db": {"clutter": {"patch_power": 1e6}},
    "cnr-80db": {"clutter": {"patch_power": 1e8}},
    "large-kappa-power": {"kappa": 1e3, "power": 1e6},
    "m1-l1-q200-cnr-minus80db": {"M": 1, "L": 1,
                                 "clutter": {"patches": 200, "patch_power": 1e-8}},
    "scalar": {"M": 1, "N": 1, "L": 1},
}


class TestDescentAcrossScenarios:
    """w^H R_u w is evaluated as a sum of nonnegative noise and factor
    terms, so descent holds where the true per-iteration decrease is far
    below the scale of R_u (60 and 80 dB clutter, large kappa and P_o)."""

    @pytest.mark.parametrize("name", list(DESCENT_SCENARIOS))
    def test_no_violations(self, default_cfg, name):
        cfg = _variant(default_cfg, **DESCENT_SCENARIOS[name])
        for solver in cs.SOLVERS:
            report = cs.run(cfg, solver, max_iter=20, rescale=True)
            assert report.monotonicity_violations == 0, solver

    def test_clutter_objective_is_positive(self, default_cfg):
        cfg = _variant(default_cfg, **DESCENT_SCENARIOS["cnr-60db"])
        report = cs.run(cfg, "qcqp", max_iter=5)
        assert all(rec.clutter_objective > 0.0 for rec in report.trace.records)


def test_run_allocates_no_dense_covariance(default_cfg):
    # wide-aperture dimensions: one MNL x MNL complex array is 26 MB
    cfg = dataclasses.replace(default_cfg, M=8, N=16, L=10)
    dense_bytes = cfg.mnl**2 * 16
    for solver in cs.SOLVERS:
        tracemalloc.start()
        try:
            cs.run(cfg, solver, max_iter=20, rescale=True)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < dense_bytes, (solver, peak)


class TestFunctionalRelationCheck:
    def test_passes_on_fresh_run(self, small_cfg):
        report = cs.run(small_cfg, "qcqp", max_iter=5)
        assert cs.functional_relation_check(report.trace, small_cfg)

    def test_detects_tampering(self, small_cfg):
        report = cs.run(small_cfg, "qcqp", max_iter=5)
        report.trace.records[3].s = report.trace.records[3].s + 1e-6
        assert not cs.functional_relation_check(report.trace, small_cfg)

    def test_each_solver_self_consistent(self, small_cfg):
        for solver in ("qcqp", "cls"):
            report = cs.run(small_cfg, solver, max_iter=5)
            assert cs.functional_relation_check(report.trace, small_cfg)

    def test_needs_two_records(self, small_cfg):
        report = cs.run(small_cfg, "qcqp", max_iter=0)
        with pytest.raises(ValueError):
            cs.functional_relation_check(report.trace, small_cfg)
