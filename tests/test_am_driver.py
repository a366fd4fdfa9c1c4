import dataclasses
import tracemalloc

import numpy as np
import pytest

import costap as cs
from costap import am_driver

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
            split = (np.linalg.norm(small_bundle.hessian(w) @ s) ** 2
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

    def test_clustered_points_far_from_origin(self):
        # a Gram matrix of the raw points would cancel the 1e3 offset
        rng = np.random.default_rng(8)
        centre = random_complex(rng, 320)
        centre *= 1e3 / np.linalg.norm(centre)
        pts = [centre + 1e-7 * random_complex(rng, 320) for _ in range(21)]
        expected = max(np.linalg.norm(p - q) for p in pts for q in pts)
        assert abs(cs.hull_diameter(pts) - expected) <= 1e-12 * expected

    def test_empty_raises(self):
        with pytest.raises(ValueError):
            cs.hull_diameter([])


def _capon_disk(y, kappa, p_o):
    """Capon point and radius of {s : y^H s = kappa, ||s||^2 <= P_o}."""
    ny2 = float(np.real(np.vdot(y, y)))
    return kappa * y / ny2, np.sqrt(max(p_o - kappa**2 / ny2, 0.0))


def _distance_to_set(points, y, kappa, p_o):
    """Distance of each row to {s : y^H s = kappa, ||s||^2 <= P_o}:
    projection onto the hyperplane, then a radial clamp to the disk."""
    centre, radius = _capon_disk(y, kappa, p_o)
    ny2 = float(np.real(np.vdot(y, y)))
    on_plane = points + ((kappa - points @ y.conj()) / ny2)[:, None] * y[None, :]
    t = on_plane - centre
    norms = np.linalg.norm(t, axis=1)
    scale = np.minimum(1.0, radius / np.maximum(norms, 1e-300))
    return np.linalg.norm(points - centre - scale[:, None] * t, axis=1)


def _boundary_circle(y_from, y_to, kappa, p_o, angles):
    """Points c + r e^{i theta} e of the relative boundary of the set of
    y_from, e the unit vector of y_to projected off y_from: along them
    y_to^H s traces the whole circle of the reduced form."""
    centre, radius = _capon_disk(y_from, kappa, p_o)
    perp = y_to - (np.vdot(y_from, y_to) / np.vdot(y_from, y_from)) * y_from
    e = perp / np.linalg.norm(perp)
    return centre[None, :] + radius * np.exp(1j * angles)[:, None] * e[None, :]


def _random_points(rng, y, kappa, p_o, count):
    """Uniform interior points and uniform boundary points of the set."""
    centre, radius = _capon_disk(y, kappa, p_o)
    n = y.size
    g = random_complex(rng, 2 * count, n)
    g -= np.outer(g @ y.conj(), y) / np.vdot(y, y).real
    g /= np.linalg.norm(g, axis=1)[:, None]
    radii = radius * np.concatenate([rng.uniform(0, 1, count) ** (1.0 / (2 * n - 2)),
                                     np.ones(count)])
    return centre[None, :] + radii[:, None] * g


def _reduced_grid_drift(y1, y2, kappa, p_o, angles):
    """max of the reduced form h(z) over z0 + rho e^{i theta}, both
    directions, written from the formula alone."""
    best = 0.0
    for ya, yb in ((y1, y2), (y2, y1)):
        na2, nb2 = np.vdot(ya, ya).real, np.vdot(yb, yb).real
        _, ra = _capon_disk(ya, kappa, p_o)
        _, rb = _capon_disk(yb, kappa, p_o)
        rho = ra * np.linalg.norm(yb - (np.vdot(ya, yb) / na2) * ya)
        z = kappa * np.vdot(yb, ya) / na2 + rho * np.exp(1j * angles)
        power = kappa**2 / na2 + ra**2
        inplane = np.sqrt(np.maximum(power - np.abs(z) ** 2 / nb2, 0.0))
        h = np.abs(z - kappa) ** 2 / nb2 + np.maximum(inplane - rb, 0.0) ** 2
        best = max(best, float(h.max()))
    return np.sqrt(best)


class TestConstraintSetDrift:
    def test_identical_sets(self):
        rng = np.random.default_rng(4)
        y = random_complex(rng, 5)
        assert cs.constraint_set_drift(y, y, 1.0, 2.0) <= 1e-12

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
        got = cs.constraint_set_drift(y1, y2, kappa, p_o)
        assert abs(got - np.linalg.norm(c1 - c2)) <= 1e-10

    def test_infeasible(self):
        # an empty set has no distance: NaN, as the trace records it
        rng = np.random.default_rng(6)
        y = random_complex(rng, 4)
        y *= 0.1  # kappa^2/||y||^2 >> P_o
        assert np.isnan(cs.constraint_set_drift(y, y, 1.0, 1.0))

    def test_scalar_sets_are_capon_points(self):
        # N = 1: the hyperplane is one point, whatever the budget
        y1, y2 = np.array([0.8 + 0.6j]), np.array([1.1 - 0.2j])
        expected = abs(2.0 / np.conj(y1[0]) - 2.0 / np.conj(y2[0]))
        got = cs.constraint_set_drift(y1, y2, 2.0, 50.0)
        assert abs(got - expected) <= 1e-15 * expected

    def test_parallel_steering(self):
        # parallel hyperplanes: the disks differ by their centres and radii
        rng = np.random.default_rng(9)
        kappa, p_o = 1.0, 1.0
        y1 = random_complex(rng, 6)
        y2 = (1.3 + 0.4j) * y1
        (c1, r1), (c2, r2) = _capon_disk(y1, kappa, p_o), _capon_disk(y2, kappa, p_o)
        expected = np.hypot(np.linalg.norm(c1 - c2), r1 - r2)
        got = cs.constraint_set_drift(y1, y2, kappa, p_o)
        assert abs(got - expected) <= 1e-12 * expected

    def test_two_dimensional_boundary_is_a_circle(self):
        # N = 2: each relative boundary is one circle in C^2, checked densely
        rng = np.random.default_rng(10)
        kappa, p_o = 1.0, 1.0
        y1 = random_complex(rng, 2)
        y2 = y1 + 0.3 * random_complex(rng, 2)
        angles = np.linspace(0.0, 2.0 * np.pi, 1 << 14, endpoint=False)
        oracle = max(_distance_to_set(_boundary_circle(ya, yb, kappa, p_o, angles),
                                      yb, kappa, p_o).max()
                     for ya, yb in ((y1, y2), (y2, y1)))
        got = cs.constraint_set_drift(y1, y2, kappa, p_o)
        assert abs(got - oracle) <= 1e-9 * oracle

    @pytest.mark.parametrize("n", [8, 128])
    def test_feasible_witness_lower_bound(self, n):
        # a feasible point of B_1 whose distance to B_2 the drift must reach
        rng = np.random.default_rng(11 + n)
        kappa, p_o = 1.0, 1.0
        y1 = random_complex(rng, n)
        y2 = y1 + 0.3 * random_complex(rng, n)
        angles = np.linspace(0.0, 2.0 * np.pi, 4096, endpoint=False)
        s = _boundary_circle(y1, y2, kappa, p_o, angles)
        assert np.max(np.abs(s @ y1.conj() - kappa)) <= 1e-12
        assert np.max(np.linalg.norm(s, axis=1) ** 2) <= p_o * (1 + 1e-12)
        witness = _distance_to_set(s, y2, kappa, p_o).max()
        assert cs.constraint_set_drift(y1, y2, kappa, p_o) >= witness * (1 - 1e-12)

    @pytest.mark.parametrize("n", [3, 8, 32])
    def test_no_point_farther_than_the_drift(self, n):
        # the Hausdorff definition from above, over random interior and
        # boundary points and the witness circles of both sets
        rng = np.random.default_rng(20 + n)
        kappa, p_o = 1.0, 1.5
        y1 = random_complex(rng, n)
        y2 = y1 + 0.3 * random_complex(rng, n)
        drift = cs.constraint_set_drift(y1, y2, kappa, p_o)
        angles = np.linspace(0.0, 2.0 * np.pi, 4096, endpoint=False)
        for ya, yb in ((y1, y2), (y2, y1)):
            pts = np.vstack([_random_points(rng, ya, kappa, p_o, 1000),
                             _boundary_circle(ya, yb, kappa, p_o, angles)])
            assert _distance_to_set(pts, yb, kappa, p_o).max() <= drift * (1 + 1e-12)

    def test_matches_dense_grid_of_reduced_form(self):
        rng = np.random.default_rng(12)
        angles = np.linspace(0.0, 2.0 * np.pi, 1 << 16, endpoint=False)
        for _ in range(40):
            n = int(rng.choice([2, 3, 8, 32, 128]))
            kappa = 10 ** rng.uniform(-2, 2)
            y1 = random_complex(rng, n)
            y2 = y1 + rng.uniform(0.01, 2.0) * random_complex(rng, n)
            floor = kappa**2 / min(np.vdot(y1, y1).real, np.vdot(y2, y2).real)
            p_o = floor * (1 + 10 ** rng.uniform(-4, 1))
            grid = _reduced_grid_drift(y1, y2, kappa, p_o, angles)
            got = cs.constraint_set_drift(y1, y2, kappa, p_o)
            assert abs(got - grid) <= 1e-9 * grid, (n, kappa, p_o)

    @pytest.mark.parametrize("n", [8, 128])
    def test_stack_equals_pairwise_bit_for_bit(self, n):
        rng = np.random.default_rng(30 + n)
        ys = np.cumsum(0.3 * random_complex(rng, 21, n), axis=0) + random_complex(rng, n)
        stacked = cs.constraint_set_drift(ys[:-1], ys[1:], 1.0, 1.5)
        assert stacked.shape == (20,)
        pairwise = [cs.constraint_set_drift(a, b, 1.0, 1.5) for a, b in zip(ys[:-1], ys[1:])]
        assert all(isinstance(d, float) and np.isfinite(d) for d in pairwise)
        assert stacked.tolist() == pairwise

    def test_empty_set_in_a_stack_is_nan_in_its_slots_only(self):
        rng = np.random.default_rng(40)
        ys = random_complex(rng, 21, 8) + 3.0
        ys[10] *= 1e-2  # kappa^2/||y_10||^2 >> P_o: B_10 is empty
        drift = cs.constraint_set_drift(ys[:-1], ys[1:], 1.0, 1.0)
        assert np.flatnonzero(np.isnan(drift)).tolist() == [9, 10]
        assert np.all(np.isfinite(np.delete(drift, [9, 10])))
        assert drift[8] == cs.constraint_set_drift(ys[8], ys[9], 1.0, 1.0)

    def test_scalar_stack_gives_capon_point_distances(self):
        rng = np.random.default_rng(41)
        ys = random_complex(rng, 6, 1)
        centres = 2.0 / ys[:, 0].conj()
        drift = cs.constraint_set_drift(ys[:-1], ys[1:], 2.0, 50.0)
        np.testing.assert_allclose(drift, np.abs(np.diff(centres)), rtol=1e-14)


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

    def test_error_carries_iteration_index(self, small_cfg, failing_direct):
        with pytest.raises(cs.NumericalFailure, match="iteration 1"):
            cs.run(small_cfg, "am-direct", max_iter=3, lambda_mode="zero")

    def test_unknown_solver(self, small_cfg):
        with pytest.raises(ValueError):
            cs.run(small_cfg, "newton")

    @pytest.mark.parametrize("kwargs, field", [
        ({"solver": "newton"}, "solver"),
        ({"max_iter": -1}, "max_iter"),
        ({"lambda_mode": "bogus"}, "lambda_mode"),
        ({"init_waveform": np.ones(5, dtype=complex)}, "init_waveform"),
        ({"max_iter": 2.5}, "max_iter"),
        ({"max_iter": True}, "max_iter"),
    ])
    def test_bad_arguments_name_the_field(self, small_cfg, monkeypatch, kwargs, field):
        def no_bundle(cfg):
            raise AssertionError("bundle built before the arguments were checked")

        monkeypatch.setattr(am_driver, "build_bundle", no_bundle)
        with pytest.raises(cs.ValidationError) as err:
            cs.run(small_cfg, **kwargs)
        assert err.value.field == field

    def test_init_waveform_length_checked(self, small_cfg):
        with pytest.raises(ValueError):
            cs.run(small_cfg, "qcqp", init_waveform=np.ones(5, dtype=complex))

    def test_drift_column_trend(self, small_cfg):
        report = cs.run(small_cfg, "qcqp", max_iter=10)
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


def _count_diagnostics(monkeypatch):
    calls = dict.fromkeys(("constraint_set_drift", "hull_diameter"), 0)
    for name in calls:
        def counted(*args, _name=name, _original=getattr(am_driver, name)):
            calls[_name] += 1
            return _original(*args)
        monkeypatch.setattr(am_driver, name, counted)
    return calls


@pytest.mark.parametrize("solver", cs.SOLVERS)
def test_diagnostics_called_through_module_globals(small_cfg, monkeypatch, solver):
    # the benchmark times the diagnostics by wrapping these module
    # globals: one stacked drift and two hull diameters per run
    calls = _count_diagnostics(monkeypatch)
    cs.run(small_cfg, solver, max_iter=7, rescale=True)
    assert calls == {"constraint_set_drift": 1, "hull_diameter": 2}


@pytest.mark.parametrize("solver", cs.SOLVERS)
def test_drift_column_is_the_pairwise_drift(small_cfg, small_bundle, solver):
    report = cs.run(small_cfg, solver, max_iter=7, rescale=True)
    records = report.trace.records
    assert records[0].drift is None
    ys = [small_bundle.target_map.conj().T @ rec.w for rec in records]
    for k in range(1, len(records)):
        want = cs.constraint_set_drift(ys[k - 1], ys[k], small_cfg.kappa, small_cfg.power)
        assert isinstance(records[k].drift, float) and records[k].drift == want, k


def test_no_drift_call_without_iterations(small_cfg, monkeypatch):
    calls = _count_diagnostics(monkeypatch)
    report = cs.run(small_cfg, "qcqp", max_iter=0, rescale=True)
    assert calls == {"constraint_set_drift": 0, "hull_diameter": 2}
    assert report.trace.records[0].drift is None and report.max_constraint_drift == 0.0


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

    @pytest.mark.parametrize("kwargs, field", [({"solver": "newton"}, "solver"),
                                               ({"lambda_mode": "bogus"}, "lambda_mode")])
    def test_bad_arguments_name_the_field(self, small_cfg, kwargs, field):
        report = cs.run(small_cfg, "qcqp", max_iter=1)
        with pytest.raises(cs.ValidationError) as err:
            cs.functional_relation_check(report.trace, small_cfg, **kwargs)
        assert err.value.field == field
