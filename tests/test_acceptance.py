"""Acceptance gate: every criterion at its stated tolerance.

Run with `pytest tests/test_acceptance.py -v -s` to see one PASS line
per criterion. The bundled demo scenario (M=5, N=8, L=8, 25 clutter
patches, kappa = P_o = 1) drives the end-to-end checks.
"""

import dataclasses
import itertools
import time

import numpy as np
import pytest

import costap as cs
from costap.harness_cli import _trial_waveform

from helpers import align_phase, dense_base_cov, gram, random_complex, random_factor, replays
from test_waveform_solvers import feasible_starts, projected_gradient_min


@pytest.fixture(scope="module")
def four_solver_runs(default_cfg):
    """Criteria 1-3 share one four-solver comparison from one seeded start."""
    t0 = time.perf_counter()
    reports = {solver: cs.run(default_cfg, solver, max_iter=20, rescale=True)
               for solver in cs.SOLVERS}
    elapsed = time.perf_counter() - t0
    return reports, elapsed


def _passline(num, text):
    print(f"[acceptance] criterion {num:2d}: PASS - {text}")


def test_criterion_01_four_way_equivalence(four_solver_runs):
    reports, elapsed = four_solver_runs
    objs = {name: rep.trace.objectives() for name, rep in reports.items()}
    assert all(len(o) == 21 for o in objs.values())
    worst = 0.0
    for a, b in itertools.combinations(objs, 2):
        rel = np.max(np.abs(objs[a] - objs[b]) / np.abs(objs[a]))
        worst = max(worst, float(rel))
        assert rel <= 1e-6, (a, b, rel)
    assert elapsed < 60.0
    _passline(1, f"per-iteration objectives of 4 solvers agree to {worst:.2e} "
                 f"rel (<= 1e-6), runtime {elapsed:.1f}s")


# The benchmark's workload geometries, each derived from the demo.
GEOMETRIES = {
    "dense-clutter": lambda cfg: dataclasses.replace(
        cfg, clutter=dataclasses.replace(cfg.clutter, patches=200)),
    "wide-aperture": lambda cfg: dataclasses.replace(cfg, M=8, N=16, L=10),
    "long-code": lambda cfg: dataclasses.replace(cfg, M=1, N=128, L=2, power=1e-3),
    "demo": lambda cfg: cfg,
}


@pytest.mark.parametrize("geometry, seed, trial", [
    *(pytest.param("dense-clutter", seed, trial, id=f"{seed}-{trial}")
      for seed, trial in ((0, 4), (0, 6), (0, 7), (7, 3), (11, 9))),
    pytest.param("wide-aperture", 0, 0, id="wide-aperture-0-0"),
    *(pytest.param("demo", seed, trial, id=f"demo-{seed}-{trial}")
      for seed, trial in ((0, 20), (7, 25)))])
def test_four_routes_agree_where_f0_is_near_singular(default_cfg, geometry, seed, trial):
    """Criterion 1 from benchmark starts along which F0 is near-singular.

    At the dense-clutter geometry (Q = 200) its eigenvalues go down to
    about 1e-17 of the largest. There y's part in the null space of F0 can
    sit at rounding level; all four routes test it against the one rank
    floor and take the minimum-norm minimizer, so no route's trajectory
    follows the rounding away from the other three. At the wide-aperture
    geometry (MNL = 1280), seed 0, trial 0, every route meets the power
    bound at a multiplier of about 3e-10 on iteration 9, a near-tie
    between the interior and the active branch. At the demo geometry,
    seed 0 trial 20 and seed 7 trial 25, the smallest eigenvalue of
    P F0 P above the floor is a few 1e-8 of the largest, and the routes'
    rounding differences grow as its inverse."""
    cfg = GEOMETRIES[geometry](default_cfg)
    s0 = _trial_waveform(cfg, seed, trial)
    objs = np.array([cs.run(cfg, solver, max_iter=20, rescale=True,
                            init_waveform=s0).trace.objectives()
                     for solver in cs.SOLVERS])
    spread = (objs.max(axis=0) - objs.min(axis=0)) / objs.min(axis=0)
    assert np.max(spread) <= 1e-6, spread


@pytest.mark.parametrize("geometry, seed, trials", [
    *((geometry, 11, 2) for geometry in GEOMETRIES), ("wide-aperture", 0, 1)])
def test_four_routes_agree_in_zero_mode(default_cfg, geometry, seed, trials):
    """Criterion 1 with the multiplier pinned to 0. F0 is singular on
    every geometry here (rank 6 of N = 8 on the demo and dense-clutter,
    6 of 16 on wide-aperture, 2 of 128 on long-code), and am-direct takes
    its lam -> 0 point, the one root mode takes when the bound is slack."""
    spec = cs.ExperimentSpec(scenario=GEOMETRIES[geometry](default_cfg), solvers=cs.SOLVERS,
                             lambda_mode="zero", trials=trials, max_iter=20, seed=seed)
    traces, table = cs.run_comparison(spec)
    assert not table.failures
    for trial in range(trials):
        objs = np.array([traces[solver][trial].objectives() for solver in cs.SOLVERS])
        spread = (objs.max(axis=0) - objs.min(axis=0)) / objs.min(axis=0)
        assert np.max(spread) <= 1e-6, (trial, spread)


def test_criterion_02_monotone_descent(four_solver_runs):
    reports, _ = four_solver_runs
    for name, rep in reports.items():
        assert rep.monotonicity_violations == 0, name
        chain = [rep.trace.records[0].full_objective]
        for rec in rep.trace.records[1:]:
            chain.extend([rec.half_objective, rec.full_objective])
        for a, b in zip(chain[:-1], chain[1:]):
            assert b <= a + 1e-9 * abs(a), name
    _passline(2, "interleaved half-step objectives nonincreasing "
                 "(1e-9 rel slack), 0 violations in all 4 runs")


def test_criterion_03_constraint_feasibility(four_solver_runs, default_cfg,
                                             default_bundle):
    reports, _ = four_solver_runs
    kappa, p_o = default_cfg.kappa, default_cfg.power
    for name, rep in reports.items():
        records = rep.trace.records
        for prev, curr in zip(records[:-1], records[1:]):
            r_half = abs(curr.w.conj() @ (default_bundle.target_map @ prev.s) - kappa)
            r_full = abs(curr.w.conj() @ (default_bundle.target_map @ curr.s) - kappa)
            assert r_half <= 1e-8 and r_full <= 1e-8, name
            assert curr.power <= p_o + 1e-8, name
            assert curr.multiplier * (p_o - curr.power) <= 1e-6 * p_o, name
        assert records[0].power <= p_o + 1e-8
    _passline(3, "Capon residual <= 1e-8 at both half-steps, power within "
                 "budget + 1e-8, complementarity <= 1e-6")


def test_criterion_04_zero_multiplier_regime(default_cfg):
    cfg4 = dataclasses.replace(default_cfg, power=4.0)
    root = cs.run(cfg4, "qcqp", max_iter=20, lambda_mode="root")
    zero = cs.run(cfg4, "qcqp", max_iter=20, lambda_mode="zero")
    p_o = cfg4.power
    zero_iters = 0
    for r_rec, z_rec in zip(root.trace.records[1:], zero.trace.records[1:]):
        unconstrained_feasible = z_rec.power <= p_o
        assert (r_rec.multiplier == 0.0) == unconstrained_feasible
        if not unconstrained_feasible:
            break
        zero_iters += 1
        assert np.array_equal(r_rec.w, z_rec.w)
        assert np.array_equal(r_rec.s, z_rec.s)
    assert zero_iters >= 1, "regime never exercised"
    _passline(4, f"P_o=4 run: multiplier exactly 0 on {zero_iters}/20 feasible "
                 f"iterations, bit-identical to zero mode there")


def test_criterion_05_strong_duality():
    rng = np.random.default_rng(1905)
    kappa = 1.0
    worst_gap = worst_rel = 0.0
    for _ in range(100):
        b = random_factor(rng, 8, eig_lo=0.0, eig_hi=2.0)
        y = random_complex(rng, 8)
        floor = kappa**2 / float(np.real(y.conj() @ y))
        p_o = rng.uniform(floor, 4.0)
        qc = cs.qcqp_solve(b, y, kappa, p_o)
        sd = cs.sdp_dual_solve(b, y, kappa, p_o)
        ny2 = float(np.real(y.conj() @ y))
        const = kappa**2 / ny2**2 * float(np.real(y.conj() @ (gram(b) @ y)))
        nu_qcqp = qc.objective - const
        cert = sd.certificate
        rel = abs(nu_qcqp - cert.dual_value) / (1.0 + abs(nu_qcqp))
        assert rel <= 1e-6
        assert cert.gap >= -1e-8
        worst_rel = max(worst_rel, rel)
        worst_gap = min(worst_gap, cert.gap)
    _passline(5, f"100 instances: |nu_QCQP - nu_dual| <= {worst_rel:.2e} rel "
                 f"(<= 1e-6), gap >= {worst_gap:.1e}")


def test_criterion_06_bruteforce_oracle():
    rng = np.random.default_rng(1906)
    factors, instances = [], []
    for _ in range(20):
        b = random_factor(rng, 2, eig_lo=0.3, eig_hi=3.0)
        y = random_complex(rng, 2)
        floor = 1.0 / float(np.real(y.conj() @ y))
        p_o = rng.uniform(1.1, 2.5) * floor
        factors.append(b)
        instances.append((gram(b), y, 1.0, p_o, feasible_starts(y, 1.0, p_o, rng, starts=200)))
    worst = 0.0
    for b, (_, y, _, p_o, _), brute in zip(factors, instances,
                                           projected_gradient_min(instances, steps=10_000)):
        sol = cs.qcqp_solve(b, y, 1.0, p_o)
        rel = abs(sol.objective - brute) / (1.0 + abs(brute))
        assert rel <= 1e-4
        worst = max(worst, rel)
    _passline(6, f"20 N=2 instances: qcqp matches 200-start projected gradient "
                 f"to {worst:.2e} rel (<= 1e-4)")


def test_criterion_07_scaling_identity(default_cfg, default_bundle):
    rng = np.random.default_rng(1907)
    p_o = default_cfg.power
    base = dense_base_cov(default_cfg)
    for _ in range(50):
        w = random_complex(rng, default_cfg.mnl)
        s = random_complex(rng, default_cfg.N)
        w2, s2 = cs.scale_solution(w, s, p_o)
        clutter_before = np.real(w.conj() @ (default_bundle.clutter(s) @ w))
        clutter_after = np.real(w2.conj() @ (default_bundle.clutter(s2) @ w2))
        assert abs(clutter_after - clutter_before) <= 1e-10 * abs(clutter_before)
        noise_before = np.real(w.conj() @ (base @ w))
        noise_after = np.real(w2.conj() @ (base @ w2))
        factor = np.linalg.norm(s) ** 2 / p_o
        assert abs(noise_after - factor * noise_before) <= 1e-10 * abs(factor * noise_before)
        assert abs(np.linalg.norm(s2) ** 2 - p_o) <= 1e-12 * p_o
    _passline(7, "50 pairs: clutter form invariant (1e-10), noise term scales "
                 "by ||s||^2/P_o (1e-10), exact full power (1e-12)")


def mean_ordering(cfg, trials=50):
    """Criterion 8's paired Monte Carlo on `cfg`: root-mode qcqp and
    zero-mode sdp from the same starts. Returns the rescaled, lambda=0 and
    unscaled final objectives, the two gaps with their standard errors,
    and the share of root-mode steps with an active power bound."""
    spec_root = cs.ExperimentSpec(scenario=cfg, solvers=("qcqp",),
                                  lambda_mode="root", rescale=True,
                                  trials=trials, max_iter=20, seed=cfg.seed)
    spec_zero = cs.ExperimentSpec(scenario=cfg, solvers=("sdp",),
                                  lambda_mode="zero", rescale=True,
                                  trials=trials, max_iter=20, seed=cfg.seed)
    traces_root, _ = cs.run_comparison(spec_root)
    traces_zero, _ = cs.run_comparison(spec_zero)
    rescaled = np.array([t.records[-1].rescaled_objective for t in traces_root["qcqp"]])
    unscaled = np.array([t.records[-1].full_objective for t in traces_root["qcqp"]])
    zero_mode = np.array([t.records[-1].rescaled_objective for t in traces_zero["sdp"]])
    multipliers = [r.multiplier for t in traces_root["qcqp"] for r in t.records[1:]]

    gap1 = zero_mode - rescaled   # lambda=0 variant vs rescaled (paired trials)
    gap2 = unscaled - zero_mode   # root-mode unscaled vs lambda=0 variant
    se1 = gap1.std(ddof=1) / np.sqrt(trials)
    se2 = gap2.std(ddof=1) / np.sqrt(trials)
    active_frac = float(np.mean(np.array(multipliers) > 0.0))
    return rescaled, zero_mode, unscaled, (gap1, se1), (gap2, se2), active_frac


def test_criterion_08_mean_ordering(default_cfg):
    rescaled, zero_mode, unscaled, (gap1, se1), (gap2, se2), _ = mean_ordering(default_cfg)
    assert gap1.mean() >= -se1
    assert gap2.mean() >= -se2
    _passline(8, f"50-trial means: rescaled {rescaled.mean():.4e} <= lambda-0 "
                 f"{zero_mode.mean():.4e} <= unscaled {unscaled.mean():.4e} "
                 f"(gaps {gap1.mean():+.2e}, {gap2.mean():+.2e}, each >= -1 SE)")


def test_criterion_08_ordering_with_an_active_bound(default_cfg):
    # at P_o = 1 the demo's bound never binds, so root mode's point is the
    # multiplier-0 point zero mode takes and the first gap is exactly 0.
    # At P_o = 0.1 it binds on some steps and the first inequality compares
    # different numbers; at P_o <= 0.03 the second one reverses (README)
    cfg = dataclasses.replace(default_cfg, power=0.1)
    rescaled, zero_mode, unscaled, (gap1, se1), (gap2, se2), active_frac = mean_ordering(cfg)
    assert active_frac > 0.0
    assert rescaled.tobytes() != zero_mode.tobytes()
    assert gap1.mean() >= -se1
    assert gap2.mean() >= -se2
    print(f"[acceptance] P_o = 0.1: active_frac {active_frac:.3f}, gaps "
          f"{gap1.mean():+.2e} ({gap1.mean() / se1:.2f} SE), "
          f"{gap2.mean():+.2e} ({gap2.mean() / se2:.2f} SE)")


def test_criterion_09_cls_identity():
    rng = np.random.default_rng(1909)
    worst_expand = worst_wave = 0.0
    for _ in range(100):
        n = 6
        b = random_factor(rng, n, eig_lo=0.0, eig_hi=2.0)
        f0 = gram(b)
        y = random_complex(rng, n)
        kappa = 1.0
        ny2 = float(np.real(y.conj() @ y))
        p_o = rng.uniform(1.1, 3.0) * kappa**2 / ny2

        pperp = np.eye(n) - np.outer(y, y.conj()) / ny2
        c_mat = b @ pperp
        d = -(kappa / ny2) * (b @ y)
        const = kappa**2 / ny2**2 * float(np.real(y.conj() @ (f0 @ y)))
        q = random_complex(rng, n)
        lhs = np.linalg.norm(c_mat @ q - d) ** 2
        rhs = (float(np.real(q.conj() @ (pperp @ f0 @ pperp @ q)))
               + 2.0 * kappa / ny2 * float(np.real(q.conj() @ (pperp @ f0 @ y)))
               + const)
        rel = abs(lhs - rhs) / max(1.0, abs(lhs))
        assert rel <= 1e-10
        worst_expand = max(worst_expand, rel)

        ls = cs.cls_solve(b, y, kappa, p_o)
        qc = cs.qcqp_solve(b, y, kappa, p_o)
        dist = np.linalg.norm(align_phase(ls.s, y) - align_phase(qc.s, y))
        assert dist <= 1e-5
        worst_wave = max(worst_wave, dist)
    _passline(9, f"100 instances: ||Cq-d||^2 expansion matches to {worst_expand:.2e} "
                 f"rel (<= 1e-10); cls vs qcqp waveforms within {worst_wave:.2e} (<= 1e-5)")


def test_criterion_10_determinism_and_replay(default_cfg, tmp_path):
    spec = cs.ExperimentSpec(scenario=default_cfg, solvers=cs.SOLVERS,
                             lambda_mode="root", rescale=False,
                             trials=2, max_iter=10, seed=default_cfg.seed)
    all_bytes = []
    all_traces = None
    for rep in (0, 1):
        traces, _ = cs.run_comparison(spec)
        blob = {}
        for solver, trial_traces in traces.items():
            for t, trace in enumerate(trial_traces):
                path = tmp_path / f"rep{rep}_{solver}_{t}.csv"
                cs.emit_trace(trace, path, "csv")
                blob[(solver, t)] = path.read_bytes()
        all_bytes.append(blob)
        all_traces = traces
    assert all_bytes[0] == all_bytes[1]
    checked = 0
    for solver, trial_traces in all_traces.items():
        for trace in trial_traces:
            for prev, curr in zip(trace.records[:-1], trace.records[1:]):
                assert replays(default_cfg, trace, prev, curr), (solver, curr.iteration)
                checked += 1
    _passline(10, f"byte-identical CSV outputs across repeated runs; "
                  f"functional replay through run(init_waveform=..., max_iter=1) "
                  f"passed on all {checked} steps")
