"""Deterministic complex-matrix primitives used by every solver.

Tolerances are module constants so tests and callers agree on what
"numerically zero" means:

* ``TAU_HERM``  relative max-abs asymmetry allowed before NotHermitian
* ``TAU_PSD``   ``hermitian_sqrt``'s eigenvalue floor, scaled by the spectral norm
* ``TAU_RANK``  the waveform step's one rank floor, relative to tr F0
* ``TAU_ZERO``  absolute norm below which a vector counts as zero

The secular root solver ``bisect_root`` has no tolerance: it stops at
float resolution.
"""

from __future__ import annotations

from typing import Callable

import numpy as np

from .errors import NoSignChange, NotHermitian, NotPSD, NumericalFailure

TAU_HERM = 1e-10
TAU_PSD = 1e-10
TAU_RANK = 1e-12
TAU_ZERO = 1e-14


def _as_complex(a) -> np.ndarray:
    out = np.asarray(a, dtype=np.complex128)
    if not np.isfinite(out).all():
        raise NumericalFailure("non-finite entries in matrix/vector input")
    return out


def hermitian_sqrt(f) -> np.ndarray:
    """Hermitian PSD square root S of f with S^H S = f.

    Computed by eigendecomposition so exactly singular inputs (rank
    deficient Hessians) are handled uniformly: eigenvalues below
    TAU_PSD * spectral_norm are clamped to zero before rooting.

    Raises NotHermitian if the asymmetry exceeds TAU_HERM (relative
    max-abs) and NotPSD if an eigenvalue falls below -TAU_PSD scaled.
    """
    f = _as_complex(f)
    if f.ndim != 2 or f.shape[0] != f.shape[1]:
        raise NotHermitian(f"expected a square matrix, got shape {f.shape}")
    scale = float(np.max(np.abs(f))) if f.size else 0.0
    asym = float(np.max(np.abs(f - f.conj().T))) if f.size else 0.0
    if asym > TAU_HERM * max(scale, TAU_ZERO):
        raise NotHermitian(f"asymmetry {asym:.3e} exceeds tolerance for scale {scale:.3e}")
    h = 0.5 * (f + f.conj().T)
    evals, evecs = np.linalg.eigh(h)
    spectral = float(np.max(np.abs(evals))) if evals.size else 0.0
    floor = TAU_PSD * max(spectral, TAU_ZERO)
    if evals.size and float(evals[0]) < -floor:
        raise NotPSD(f"eigenvalue {float(evals[0]):.3e} below -{floor:.3e}")
    clamped = np.where(evals < floor, 0.0, evals)
    return (evecs * np.sqrt(clamped)) @ evecs.conj().T


def bisect_root(
    f: Callable[[float], float],
    df: Callable[[float], float],
    lo: float,
    hi: float,
) -> float:
    """Root of a decreasing function by safeguarded Newton-bisection.

    Needs f(lo) > 0 (+inf is allowed) and the derivative df on (lo, inf).
    While f(hi) > 0 the bracket moves right, doubling the distance of hi
    from the original lo; NoSignChange is raised if hi overflows first.
    Each step then takes the Newton step from the last evaluated point
    when it lands inside the bracket and is at most half the step before
    last, and bisects otherwise (the safeguarding Moré & Sorensen 1983
    use for the secular equation). There is no tolerance: the iteration
    stops at float resolution, when f is exactly zero, when the Newton
    step no longer moves the iterate, when no float lies between the
    bracket ends, or when f fails to decrease between two successive
    iterates, which only rounding can cause.
    """
    if not hi > lo:
        raise ValueError("bisect_root needs hi > lo")

    def value(x: float) -> float:
        fx = float(f(x))
        if np.isnan(fx):
            raise NumericalFailure(f"root function is NaN at {x:.6e}")
        return fx

    flo = value(lo)
    if flo == 0.0:
        return lo
    if flo < 0.0:
        raise NoSignChange(f"root function is negative at the lower end {lo:.6e}")
    base = lo
    fhi = value(hi)
    while fhi > 0.0:
        lo, hi = hi, base + 2.0 * (hi - base)
        if not np.isfinite(hi):
            raise NoSignChange(f"no sign change on [{base:.6e}, {lo:.6e}]")
        fhi = value(hi)

    x, fx = hi, fhi
    step = prev_step = hi - lo
    while fx != 0.0:
        dfx = float(df(x))
        newton = x - fx / dfx if -np.inf < dfx < 0.0 else np.nan
        if newton == x:
            break
        if lo < newton < hi and abs(newton - x) <= 0.5 * prev_step:
            nxt = newton
        else:
            nxt = 0.5 * (lo + hi)
            if not lo < nxt < hi:
                break
        fnxt = value(nxt)
        if (nxt - x) * (fnxt - fx) >= 0.0:
            return nxt  # f no longer resolves the order of x and nxt: rounding level
        prev_step, step = step, abs(nxt - x)
        x, fx = nxt, fnxt
        if fx > 0.0:
            lo = x
        else:
            hi = x
    return x
