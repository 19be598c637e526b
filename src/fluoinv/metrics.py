"""Discrete norms and the relative-error bundle of the experiments.

The H^s norm (``hs_norm``; L2 at s = 0, H1 at s = 1) reads the grid's Gram
matrix R_s of the lumped mass and natural-boundary stiffness, which do not
depend on the Robin parameter, and sums pairwise; the dual H1 norm is
realized through the Riesz map of the full H1 inner product, i.e. one solve
with the grid's cached factor of ``mass + stiffness``.  The
empirical norm is the root mean square over a sensor set.  Each norm
squares its argument scaled by the power of two that brings its largest
entry into [1/2, 1) and scales the root back, so squares as small as the
subnormals lose no digits; the scaling is exact, and the norm is the
unscaled one wherever the unscaled squares stay normal.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, fields

import numpy as np

from .grid import Grid, GridFunction

__all__ = ["empirical_norm", "l2_norm", "hs_norm", "dual_h1_norm", "ErrorBundle", "ERRORS",
           "error_bundle"]


def _dot(x: np.ndarray, y: np.ndarray) -> float:
    """x'y by numpy's pairwise summation, whose bits, unlike those of ``x @ y``
    and ``np.linalg.norm``, do not depend on the BLAS thread count."""
    return float(np.add.reduce(x * y))


def _scaled(v: np.ndarray) -> tuple[np.ndarray, int]:
    """(v 2^-e, e) with the largest |v 2^-e| in [1/2, 1); e = 0 for zero or
    non-finite v."""
    e = math.frexp(float(np.abs(v).max()))[1]
    return np.ldexp(v, -e), e


def empirical_norm(values) -> float:
    """Root mean square over the sensors: ||v||_n = sqrt(sum v_i^2 / n)."""
    values = np.asarray(values, dtype=float)
    if values.size < 1:
        raise ValueError("empirical norm needs at least one value")
    v, e = _scaled(values)
    return float(np.ldexp(np.sqrt(np.mean(v**2)), e))


def hs_norm(u: GridFunction, s: int) -> float:
    """Norm of penalty order s, sqrt(u' R_s u): L2 (R_0 = M) for s = 0, full
    H1 (R_1 = M + A) for s = 1."""
    if s not in (0, 1):
        raise ValueError(f"penalty order s must be 0 or 1, got {s}")
    v, e = _scaled(u.values)
    return float(np.ldexp(np.sqrt(max(_dot(v, u.grid.gram_apply(s, v)), 0.0)), e))


def l2_norm(u: GridFunction) -> float:
    """sqrt(u' M u) with the lumped mass matrix: ``hs_norm`` at s = 0."""
    return hs_norm(u, 0)


def dual_h1_norm(v: GridFunction) -> float:
    """Norm of v as a functional on H1 via the Riesz solve (M + A) w = M v.

    Returns sqrt(v' M w).  Constants are reproduced exactly (w = v), and
    the value never exceeds the L2 norm.
    """
    grid = v.grid
    x, e = _scaled(v.values)
    w = grid.gram_solve(1, grid.mass_diag * x)
    return float(np.ldexp(np.sqrt(max(_dot(x, grid.mass_diag * w), 0.0)), e))


@dataclass
class ErrorBundle:
    """Relative errors of a reconstruction run; absent entries are None.  The
    fields are the one spelling of the error names and their order (ERRORS).

    err1: empirical-norm error of the smoothed field at the sensors
    err2: dual-H1 error of the recovered forcing
    err3: L2 error of the recovered forcing
    err4: dual-H1 error of the recovered source
    err5: L2 error of the recovered source
    """

    err1: float | None = None
    err2: float | None = None
    err3: float | None = None
    err4: float | None = None
    err5: float | None = None


ERRORS = tuple(f.name for f in fields(ErrorBundle))  # the error columns, in order


def _rel(num: float, den: float, label: str) -> float:
    if den == 0.0:
        raise ValueError(f"zero denominator for {label}")
    return num / den


def error_bundle(
    *,
    meas=None,
    sf=None,
    sf_true=None,
    f=None,
    f_true=None,
    q=None,
    q_true=None,
) -> ErrorBundle:
    """Compute whichever relative errors the provided fields permit.

    ``meas`` (a MeasurementSet) enables the empirical-norm error err1 of
    sf against sf_true, read through its sensor map; the remaining errors
    are grid-norm ratios of reconstruction minus truth over truth.
    """
    out = ErrorBundle()
    if meas is not None and sf is not None and sf_true is not None:
        ev = meas.sensors
        d = ev.apply(sf) - ev.apply(sf_true)
        out.err1 = _rel(empirical_norm(d), empirical_norm(ev.apply(sf_true)), "err1")
    if f is not None and f_true is not None:
        diff = f - f_true
        out.err2 = _rel(dual_h1_norm(diff), dual_h1_norm(f_true), "err2")
        out.err3 = _rel(l2_norm(diff), l2_norm(f_true), "err3")
    if q is not None and q_true is not None:
        diff = q - q_true
        out.err4 = _rel(dual_h1_norm(diff), dual_h1_norm(q_true), "err4")
        out.err5 = _rel(l2_norm(diff), l2_norm(q_true), "err5")
    return out
