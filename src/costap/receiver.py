"""Receive-filter half-step: the Capon/MVDR weight update."""

from __future__ import annotations

import numpy as np

from .errors import SingularCovariance, ZeroSteering
from .matrix_ops import TAU_ZERO, _as_complex


def mvdr_update(r_u, g_map, s, kappa: float) -> np.ndarray:
    """Minimum-variance weight vector with unit (kappa) target gain.

    Returns w = kappa * R_u^-1 g / (g^H R_u^-1 g) with g = G s, the
    minimizer of w^H R_u w over the hyperplane w^H g = kappa. `r_u` is
    a `SpaceTimeCov`; R_u^-1 g comes from its Woodbury solve, and
    neither R_u nor its inverse is formed. A solve that fails or
    produces non-finite weights raises SingularCovariance rather than
    silently regularizing.
    """
    g = _as_complex(np.asarray(g_map) @ np.asarray(s).reshape(-1))
    if float(np.linalg.norm(g)) <= TAU_ZERO:
        raise ZeroSteering("G s is numerically zero")
    x = r_u.solve(g)
    if not np.isfinite(x).all():
        raise SingularCovariance("covariance solve produced non-finite weights")
    denom = float(np.real(g.conj() @ x))
    if denom <= 0.0:
        raise SingularCovariance(f"g^H R^-1 g = {denom:.3e} is not positive")
    return (kappa / denom) * x
