import numpy as np
import pytest

import costap as cs
from costap import am_driver


@pytest.fixture(scope="session")
def default_cfg():
    """The bundled demo scenario (M=5, N=8, L=8, 25 clutter patches)."""
    return cs.load_scenario(cs.default_scenario_path())


@pytest.fixture(scope="session")
def small_cfg():
    """Tiny scenario for structural tests (MNL = 12)."""
    return cs.ScenarioConfig(
        M=2, N=3, L=2,
        target=cs.TargetSpec(azimuth=0.2, elevation=0.7, doppler=-0.15),
        kappa=1.0, power=1.0, noise_decay=0.01,
        interferers=(cs.InterfererSpec(azimuth=0.5, elevation=0.7, phase_rate=0.02),),
        clutter=cs.ClutterSpec(patches=4, elevation=0.3, azimuth_span=(-1.2, 1.2)),
        seed=7,
    )


@pytest.fixture(scope="session")
def small_bundle(small_cfg):
    return cs.build_bundle(small_cfg)


@pytest.fixture(scope="session")
def default_bundle(default_cfg):
    return cs.build_bundle(default_cfg)


@pytest.fixture
def failing_direct(monkeypatch):
    """am-direct raises NumericalFailure on every waveform step. A stand-in:
    no real input is known on which one route fails and the others do not."""
    def fail(*args, **kwargs):
        raise cs.NumericalFailure("stand-in route failure")

    monkeypatch.setattr(am_driver, "direct_update", fail)
