"""Minimax-robust prediction of a treatment effect under distribution shift.

The predictor minimizes the worst-case mean-squared error over target
populations within a transport-cost ball of radius ``delta`` around the
source. By duality this reduces to a one-dimensional convex problem

    M(tau) = sqrt(v + (tau_star - tau)^2) + delta * (2 + |tau|^q)^(1/q)

whose minimizer shrinks the source effect ``tau_star`` toward zero by an
amount governed by the radius, the penalty order q, and the (partially
identified) effect-variance v. Solving at the lower and upper variance
bounds yields the optimistic/pessimistic prediction pair.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .bounds import VarianceBounds
from .exceptions import NumericalError, ValidationError

__all__ = [
    "RobustConfig",
    "SweepTable",
    "solve_minimax",
    "homogeneous_threshold",
    "sweep_delta",
    "proximity_derivs",
    "penalty_derivs",
]

_BRACKET_TOL = 1e-12
# enough to bisect any finite bracket down to _BRACKET_TOL:
# log2(1.8e308 / 1e-12) is about 1,064 halvings
_MAX_ITER = 1100
_EPS = np.finfo(float).eps


@dataclass(frozen=True)
class RobustConfig:
    """Ambiguity-set configuration: transport radius and penalty order.

    ``q`` is the dual exponent of the transport cost's norm order p
    (1/p + 1/q = 1); larger p means a softer penalty (smaller q).
    """

    delta: float
    q: float

    def __post_init__(self):
        if not (math.isfinite(self.delta) and self.delta >= 0.0):
            raise ValidationError(f"delta must be finite and >= 0, got {self.delta}")
        if not (math.isfinite(self.q) and self.q >= 1.0):
            raise ValidationError(f"q must be finite and >= 1, got {self.q}")

    @classmethod
    def from_p(cls, delta: float, p: float) -> "RobustConfig":
        """Build a config from the primal norm order p in (1, inf].

        p = inf maps to q = 1 (hard-thresholding penalty).
        """
        if p <= 1.0:
            raise ValidationError(f"norm order p must exceed 1, got {p}")
        q = 1.0 if math.isinf(p) else p / (p - 1.0)
        return cls(delta=delta, q=q)


class SweepTable(NamedTuple):
    """Prediction pairs along a radius grid, one 1-D array per column."""

    delta: np.ndarray
    tau_p: np.ndarray
    tau_o: np.ndarray


# ------------------------------------------------------------- root finder


def newton_root(fun, x, lo, hi, tol, *args):
    """Elementwise root of an increasing function by bracketed Newton steps.

    ``fun(x, *args)`` returns ``(f(x), f'(x))`` for an array ``x``, and
    ``f(lo) <= 0 <= f(hi)`` must hold elementwise. ``fun`` must act entry by
    entry: each step evaluates it only on the entries that have not
    converged, with every array in ``args`` (broadcast against ``x``) sliced
    to those entries. Iteration starts at ``x`` in [lo, hi]. A Newton step
    is taken when it lands inside the current bracket (ends included, so a
    root on an end is reached at Newton speed) and is at most half the step
    before the last one; otherwise the bracket is bisected, so no entry
    converges much slower than bisection. An entry stops once its step is
    within ``tol`` (or within a few ulps, where ``tol`` is below double
    precision) and keeps that value. The bisection midpoint is formed as
    ``0.5 * lo + 0.5 * hi``, which cannot overflow on a bracket near the
    largest double.

    Raises
    ------
    NumericalError
        If some entry has not converged after _MAX_ITER steps.
    """
    x, lo, hi, *args = np.broadcast_arrays(*(np.asarray(y, dtype=float) for y in (x, lo, hi, *args)))
    shape = x.shape
    root = np.empty(x.size)
    x, lo, hi, *args = (np.ravel(y) for y in (x, lo, hi, *args))
    last = before_last = hi - lo
    todo = np.arange(x.size)  # the entries of root still iterated, in x's order
    # a NaN or infinite f or f' (say, on a bracket end) fails every test below
    # and leads to a bisection, so floating-point warnings carry no news here
    with np.errstate(all="ignore"):
        for _ in range(_MAX_ITER):
            if not todo.size:
                break
            f, df = fun(x, *args)
            lo = np.where(f <= 0.0, x, lo)
            hi = np.where(f >= 0.0, x, hi)  # f = 0 closes the bracket on x
            near = tol + 4.0 * _EPS * np.abs(x)
            newton = x - f / df
            step = np.abs(newton - x)
            inside = (lo <= newton) & (newton <= hi)
            small = step <= near  # converged, even if rounding put newton on a bracket end
            x_new = np.where(inside & (small | (2.0 * step <= np.abs(before_last))), newton,
                             np.where(small, x, 0.5 * lo + 0.5 * hi))
            before_last, last, x = last, x_new - x, x_new
            done = small | (np.abs(last) <= near)
            if done.any():
                root[todo[done]] = x[done]
                going = ~done
                todo, x, lo, hi, last, before_last, *args = (
                    y[going] for y in (todo, x, lo, hi, last, before_last, *args))
    if todo.size:
        raise NumericalError(f"bracketed Newton did not converge in {_MAX_ITER} steps")
    return root.reshape(shape)


# --------------------------------------------------------------- objective


def proximity_derivs(tau: float, tau_star: float, v: float) -> tuple[float, float, float]:
    """Value and first two tau-derivatives of sqrt(v + (tau_star-tau)^2).

    Raises
    ------
    ValidationError
        If v < 0, or at the kink (v = 0, tau = tau_star) where the
        derivatives do not exist.
    """
    if v < 0.0:
        raise ValidationError(f"variance must be nonnegative, got {v}")
    g = v + (tau_star - tau) ** 2
    if g == 0.0:
        raise ValidationError("derivatives undefined at the kink v=0, tau=tau_star")
    a = math.sqrt(g)
    d1 = (tau - tau_star) / a
    d2 = v / (g * a)
    return a, d1, d2


def penalty_derivs(tau, q: float):
    """Value and first two tau-derivatives of (2 + |tau|^q)^(1/q), elementwise.

    Written around m = max(|tau|, 1), u = |tau|/m <= 1 and w = 2 m^(-q), so
    that no power above 1 is formed and large q cannot overflow:
    value = m (u^q + w)^(1/q), slope = u^(q-1) (u^q + w)^(1/q-1) and
    curvature = (q-1) u^(q-2) (u^q + w)^(1/q-2) w/m.

    At tau = 0 the first derivative is 0 for q > 1 (and the subgradient
    midpoint 0 is reported for q = 1); the second derivative is finite only
    for q >= 2 there (it is +inf for 1 < q < 2 and NaN on the q = 1 kink;
    for q = 1 it is 0 away from 0).
    """
    tau = np.asarray(tau, dtype=float)
    m = np.maximum(np.abs(tau), 1.0)
    u = np.abs(tau) / m
    w = 2.0 * m**-q
    base = u**q + w
    with np.errstate(divide="ignore", over="ignore", invalid="ignore"):  # u^(q-2) at u = 0
        value = m * base ** (1.0 / q)
        slope = u ** (q - 1.0) * base ** (1.0 / q - 1.0)
        curvature = (q - 1.0) * u ** (q - 2.0) * base ** (1.0 / q - 2.0) * w / m
    return value, np.sign(tau) * slope, curvature


def penalty_curvature_range(tau_lo, tau_hi, q: float):
    """(least B'', largest B'', a bound on |B'''|) over [tau_lo, tau_hi], for
    arrays with 0 < tau_lo <= tau_hi elementwise and q > 1.

    For tau > 0, B''' = B'' (2(q-2) - (q+1) tau^q) / (tau (2 + tau^q)).
    So B'' rises up to tau^q = 2(q-2)/(q+1) (only when q > 2) and falls
    beyond it: its least value is at an end of the interval, and its
    largest at that peak clipped into the interval. The fraction's
    numerator over 2 + tau^q lies in (-(q+1), q-2], so
    |B'''| <= (q+1) B'' / tau <= (q+1) max B'' / tau_lo.
    """
    peak = (2.0 * max(q - 2.0, 0.0) / (q + 1.0)) ** (1.0 / q)
    _, _, b_dd = penalty_derivs(np.stack((tau_lo, tau_hi, np.clip(peak, tau_lo, tau_hi))), q)
    with np.errstate(divide="ignore", invalid="ignore"):
        return np.minimum(b_dd[0], b_dd[1]), b_dd[2], (q + 1.0) * b_dd[2] / tau_lo


def _threshold(a, q):
    """(2/a^q + 1)^(1 - 1/q) for an array a >= 0; +inf at a = 0."""
    with np.errstate(divide="ignore", over="ignore"):
        return (2.0 / a**q + 1.0) ** (1.0 - 1.0 / q)


def homogeneous_threshold(tau_star: float, q: float) -> float:
    """Largest radius with no shrinkage when the effect variance is zero.

    Equals (2/|tau_star|^q + 1)^(1 - 1/q); decreasing in |tau_star|. As
    q -> 1 the value tends to 1 (the q = 1 cutoff), but q = 1 itself is
    rejected here.

    Raises
    ------
    ValidationError
        If tau_star = 0 or q <= 1.
    """
    if tau_star == 0.0:
        raise ValidationError("threshold undefined for tau_star = 0")
    if q <= 1.0:
        raise ValidationError(f"threshold requires q > 1, got {q}")
    # same array arithmetic as the solver, so the threshold itself is unshrunk
    return float(_threshold(np.array([abs(tau_star)]), q)[0])


# -------------------------------------------------------------------- solver


def _minimax(tau_star, v, delta, q: float) -> np.ndarray:
    """Minimizer of M for arrays tau_star, v >= 0 and delta >= 0 (broadcast).

    q = 1 has the closed form max(0, |tau*| - delta sqrt(v/(1-delta^2))),
    and 0 for delta >= 1. For q > 1 the solution is tau* itself when
    delta = 0, or when v = 0 and delta is at or below the no-shrinkage
    threshold; otherwise it is the root of the first-order condition
    M'(t) = 0 on (0, |tau*|), where M' is increasing. With v = 0 the
    proximity slope is exactly -1 there, so one condition covers both.
    """
    tau_star, v, delta = np.broadcast_arrays(
        *(np.atleast_1d(np.asarray(x, dtype=float)) for x in (tau_star, v, delta))
    )
    a = np.abs(tau_star)
    if q == 1.0:
        with np.errstate(divide="ignore", invalid="ignore"):
            shrunk = np.maximum(a - delta * np.sqrt(v / (1.0 - delta * delta)), 0.0)
        mag = np.where(delta < 1.0, shrunk, 0.0)
    else:
        mag = a.copy()
        keep = (delta == 0.0) | ((v == 0.0) & (delta <= _threshold(a, q)))
        solve = ~keep & (a > 0.0)
        if solve.any():
            a_s, d_s = a[solve], delta[solve]
            sd_s = np.sqrt(v[solve])

            def foc(t, a, d, sd):
                gap = t - a
                r = np.hypot(sd, gap)  # > 0 on (0, a), even where gap^2 underflows
                _, slope, curvature = penalty_derivs(t, q)
                return gap / r + d * slope, (sd / r) ** 2 / r + d * curvature

            mag[solve] = newton_root(foc, 0.5 * a_s, 0.0, a_s, _BRACKET_TOL, a_s, d_s, sd_s)
    # adding 0.0 turns the -0.0 of a zeroed negative effect into +0.0
    return np.copysign(mag, tau_star) + 0.0


def _check_inputs(tau_star, v) -> None:
    """Raise ValidationError unless every tau_star is finite and every v is
    finite and nonnegative."""
    if not np.all(np.isfinite(tau_star)):
        raise ValidationError(f"source effect must be finite, got {tau_star}")
    v = np.asarray(v, dtype=float)
    if not (np.all(v >= 0.0) and np.all(np.isfinite(v))):
        raise ValidationError(f"variance must be finite and nonnegative, got {v}")


def solve_minimax(tau_star: float, v: float, config: RobustConfig) -> float:
    """Global minimizer of the robust objective (the shrunken prediction).

    The minimizer lies between 0 and ``tau_star`` and shares its sign.
    Exact special cases: delta = 0 or v = 0 with delta at or below the
    no-shrinkage threshold return ``tau_star`` unchanged; tau_star = 0
    returns 0. With q = 1 the penalty kink can make the minimizer exactly 0
    (hard thresholding); q > 1 always leaves a strictly interior value when
    v > 0.

    Raises
    ------
    ValidationError
        If tau_star is not finite, or v is negative or not finite.
    NumericalError
        If the bracketed search fails to converge (indicates a bug, not a
        data condition).
    """
    _check_inputs(tau_star, v)
    return float(_minimax(tau_star, v, config.delta, config.q)[0])


def solve_minimax_many(tau_stars, v, config: RobustConfig) -> np.ndarray:
    """Vectorized :func:`solve_minimax` over arrays of source effects and
    variances, broadcast against each other (any q >= 1).

    Raises
    ------
    ValidationError
        If any source effect is not finite, or any variance is negative or
        not finite.
    """
    _check_inputs(tau_stars, v)
    shape = np.broadcast_shapes(np.shape(tau_stars), np.shape(v))
    return _minimax(tau_stars, v, config.delta, config.q).reshape(shape)


def sweep_delta(tau_star: float, bounds: VarianceBounds, q: float, deltas) -> SweepTable:
    """Prediction pair (tau_p, tau_o) along a grid of radii, for plotting.

    Returns the radii and both predictions as columns. A bracket of zero
    width (v_o = v_p, a known variance) is solved once, and its tau_p and
    tau_o are the same array.

    Raises
    ------
    ValidationError
        If ``tau_star`` is not finite, a bound is not finite, or ``deltas``
        is not a nonempty 1-D sequence of finite, nonnegative radii.
    """
    variances = [bounds.v_p] if bounds.v_p == bounds.v_o else [bounds.v_p, bounds.v_o]
    _check_inputs(tau_star, variances)
    deltas = np.array(deltas, dtype=float)
    if deltas.ndim != 1 or deltas.size == 0:
        raise ValidationError(f"deltas must be a nonempty 1-D sequence, got shape {deltas.shape}")
    for d in (deltas.min(), deltas.max()):  # a NaN reaches both
        RobustConfig(delta=float(d), q=q)
    rows = list(_minimax(tau_star, np.reshape(variances, (-1, 1)), deltas, q))
    return SweepTable(deltas, rows[0], rows[-1])
