"""Layer size ladder: one warm call per layer over MNL x Q.

For each rung the ladder builds the scenario's bundle and one AM
half-step's inputs, makes one warm call of each layer (measuring the
peak of numpy buffers with tracemalloc on that pass), then times three
more calls and keeps their median.

A rung is skipped, with the reason recorded, when the rung below it
predicts that it would not fit: peak memory scaled by the square of
the MNL ratio above BYTES_BUDGET, or the rung's call time scaled by the
cube of the ratio above SECONDS_BUDGET. The prediction comes from a
measurement of the code under test, so a leaner implementation opens
larger rungs without a change to the benchmark.
"""

from __future__ import annotations

import dataclasses
import statistics
import tracemalloc
from time import perf_counter

import numpy as np

import costap

# (MNL, (M, N, L)): the demo, the wide-aperture geometry, and 32 pulses of it.
SIZES = ((320, (5, 8, 8)), (1280, (8, 16, 10)), (4096, (8, 16, 32)))
PATCHES = (25, 200)
BYTES_BUDGET = 1 << 30     # the reference machine has 7 GiB, shared with other processes
SECONDS_BUDGET = 20.0
TIMED_CALLS = 3

LAYERS = (
    "radar_model.total_cov",
    "receiver.mvdr_update",
    "radar_model.CovarianceBundle.hessian",
    "waveform_solvers.direct_update",
    "waveform_solvers.qcqp_solve",
    "waveform_solvers.sdp_dual_solve",
    "waveform_solvers.cls_solve",
)


def rung_name(mnl: int, patches: int) -> str:
    return f"mnl{mnl}_q{patches}"


def _layer_calls(cfg: costap.ScenarioConfig, seed: int) -> dict:
    """Zero-argument callables, one per layer, on one AM half-step's inputs."""
    bundle = costap.build_bundle(cfg)
    g_map = bundle.target_map
    s = costap.draw_waveform(cfg.N, cfg.power, np.random.default_rng(seed))
    r_u = costap.total_cov(bundle, s)
    w = costap.mvdr_update(r_u, g_map, s, cfg.kappa)
    f0 = bundle.hessian(w)
    y = g_map.conj().T @ w
    k, p = cfg.kappa, cfg.power
    return dict(zip(LAYERS, (
        lambda: costap.total_cov(bundle, s),
        lambda: costap.mvdr_update(r_u, g_map, s, k),
        lambda: bundle.hessian(w),
        lambda: costap.direct_update(f0, g_map, w, k, p),
        lambda: costap.qcqp_solve(f0, y, k, p),
        lambda: costap.sdp_dual_solve(f0, y, k, p),
        lambda: costap.cls_solve(f0, y, k, p),
    )))


def _measure(cfg: costap.ScenarioConfig, seed: int) -> dict:
    tracemalloc.start()
    try:
        calls = _layer_calls(cfg, seed)
        for fn in calls.values():
            fn()
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    seconds = {}
    for name, fn in calls.items():
        samples = []
        for _ in range(TIMED_CALLS):
            t0 = perf_counter()
            fn()
            samples.append(perf_counter() - t0)
        seconds[name] = statistics.median(samples)
    return {"peak_bytes": peak, "seconds": seconds}


def run_ladder(base: costap.ScenarioConfig, seed: int) -> list[dict]:
    """Measure every rung that is predicted to fit; record the others."""
    rows = []
    for patches in PATCHES:
        below = None
        for mnl, (m, n, l) in SIZES:
            row = {"rung": rung_name(mnl, patches), "mnl": mnl, "patches": patches,
                   "dims": [m, n, l]}
            if below is not None:
                ratio = mnl / below["mnl"]
                peak = below["peak_bytes"] * ratio**2
                secs = sum(below["seconds"].values()) * (1 + TIMED_CALLS) * ratio**3
                basis = f"{ratio:.2f}x MNL over the measured rung {below['rung']}"
                if peak > BYTES_BUDGET:
                    rows.append({**row, "skipped": f"predicted peak {peak / 2**20:.0f} MiB "
                                 f"({basis}, squared) exceeds the {BYTES_BUDGET / 2**30:.0f} GiB budget"})
                    continue
                if secs > SECONDS_BUDGET:
                    rows.append({**row, "skipped": f"predicted {secs:.0f} s ({basis}, cubed) "
                                 f"exceeds the {SECONDS_BUDGET:.0f} s budget"})
                    continue
            clutter = dataclasses.replace(base.clutter, patches=patches)
            cfg = dataclasses.replace(base, M=m, N=n, L=l, clutter=clutter)
            row.update(_measure(cfg, seed))
            rows.append(row)
            below = row
    return rows


def ladder_metrics(rows: list[dict]) -> dict[str, float]:
    """Flatten measured rungs into `ladder.<rung>.<layer>.s` and `.peak_mb`."""
    out = {}
    for row in rows:
        if "skipped" in row:
            continue
        for layer, secs in row["seconds"].items():
            out[f"ladder.{row['rung']}.{layer}.s"] = secs
        out[f"ladder.{row['rung']}.peak_mb"] = row["peak_bytes"] / 2**20
    return out
