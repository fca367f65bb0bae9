"""Confidence intervals for the robust prediction range.

Two constructions are offered, both built on one IM step
(``_im_endpoints``), the classic interval for a partially identified
scalar: it widens an estimated range ``[lo, hi]`` by a critical value
``c_n`` chosen so that coverage holds uniformly across the width of the
identified set (``c_n`` interpolates between the one-sided and two-sided
normal quantiles). ``plain_im_intervals`` takes that step once around each
prediction pair. ``two_step_intervals`` is the Bonferroni-corrected union
construction: a first-step test that the unrestricted effect differs from
zero, followed by a union of conditional IM intervals over a grid of
plausible effect values.

Both take the one record that ``estimate_robust_many`` makes of a batch of
samples, ``Estimates``: one array per quantity, a row per sample, and a
status per prediction that says whether its SD exists. The per-sample work
(moments, bracket, Sigma) is one array pass per stage over the ragged batch
of the samples, on either bounds route, and everything after it one array
call per stage: the prediction pairs, their SDs, the IM critical values and
the two-step unions of the whole batch (from the two ends of each
first-step interval where a certificate allows, else from its grid). An
entry's numbers do not depend on the batch it is computed in. No entry
raises for a prediction with no smooth expansion: its status names the
cause, every number derived from it is NaN, and ``covariance.check_status``
raises for it where a caller wants the error. A sample alone is its batch
of one.
"""

import math
from dataclasses import dataclass

import numpy as np

from .bounds import BoundsMethod, variance_bounds
from .covariance import (
    OK,
    Q1,
    STATUS,
    conditional_sd_bounds,
    prediction_sd_grid,
    sigma_neyman,
    sigma_sharp_batch,
)
from .exceptions import ValidationError
from .sample import arm_batch, check_fourth_moments
from .solver import RobustConfig, newton_root, solve_minimax_many

__all__ = [
    "Estimates",
    "TwoStepIntervals",
    "check_two_step_args",
    "estimate_robust_many",
    "plain_im_intervals",
    "two_step_intervals",
]

_C_TOL = 1e-10
_GRID_POINTS = 101  # the two-step union's grid over the first-step interval


_erfc = np.frompyfunc(math.erfc, 1, 1)


def _z(p: float) -> float:
    """Standard normal quantile (Wichura's AS241, full double precision).

    ``inf`` at p = 1, which a first step at level beta = 0 asks for.
    """
    if p >= 1.0:
        return math.inf
    # imported on first use: statistics loads fractions and decimal, which
    # the commands that never ask for a normal quantile do not need
    from statistics import NormalDist

    return NormalDist().inv_cdf(p)


def _norm_cdf(x) -> np.ndarray:
    """Standard normal CDF, elementwise: 0.5 * erfc(-x / sqrt(2)).

    The argument is x times sqrt(1/2), rounded as Cephes' ndtr rounds it:
    erfc magnifies a relative error in its argument about x^2 times, so in
    the far left tail a division by sqrt(2) would differ from ndtr by up to
    4e-13 relative.
    """
    x = np.asarray(x, dtype=float)
    return 0.5 * np.asarray(_erfc(x * -math.sqrt(0.5)), dtype=float)


def _im_critical(scaled_width, alpha: float):
    """Solve Phi(c + w) - Phi(-c) = 1 - alpha for each scaled width w.

    The left side increases in c with slope phi(c + w) + phi(c); the root
    lies on [z_{1-alpha}, z_{1-alpha/2}], where the left end is the
    infinite-width limit and the right end the zero-width limit. For
    alpha <= 1/2 the bracket lies in c >= 0, where the left side is concave,
    so Newton steps from the left end approach the root from below and stay
    inside the bracket, also when the root sits on the left end itself.
    (For alpha > 1/2, which ``_im_endpoints`` refuses, c would be negative
    and the interval would shrink inside the estimates.)
    """
    lo = _z(1.0 - alpha)

    def residual(c, w):
        value = _norm_cdf(c + w) - _norm_cdf(-c) - (1.0 - alpha)
        slope = np.exp(-0.5 * (c + w) ** 2) + np.exp(-0.5 * c * c)
        return value, slope / math.sqrt(2.0 * math.pi)

    return newton_root(residual, lo, lo, _z(1.0 - alpha / 2.0), _C_TOL, scaled_width)


def _im_endpoints(lo, hi, sd_lo, sd_hi, n, alpha: float):
    """IM endpoints and critical values for arrays with lo <= hi, elementwise:
    the one IM step of ``plain_im_intervals`` and of the second step of
    ``two_step_intervals``.

    Returns ``lo - c_n sd_lo / sqrt(n)``, ``hi + c_n sd_hi / sqrt(n)`` and
    ``c_n``, which solves ``Phi(c_n + sqrt(n) (hi - lo) / max(sd)) -
    Phi(-c_n) = 1 - alpha`` (``_im_critical``), Phi the standard normal
    CDF. Where both SDs are zero the range itself is returned, with the
    zero-width (lo == hi) or infinite-width limit of c_n; where an SD is
    NaN (it does not exist), all three are NaN. ValidationError unless
    alpha is in (0, 1/2] with a finite z(1 - alpha/2).
    """
    if not 0.0 < alpha <= 0.5:
        raise ValidationError(f"alpha must be in (0, 0.5], got {alpha}")
    if math.isinf(_z(1.0 - alpha / 2.0)):
        raise ValidationError(f"level {alpha!r} is too small: z(1 - level/2) is infinite in double precision")
    lo, hi, sd_lo, sd_hi, root_n = np.broadcast_arrays(lo, hi, sd_lo, sd_hi, np.sqrt(n))
    sd_max = np.maximum(sd_lo, sd_hi)
    c = np.where(np.isnan(sd_max), np.nan, np.where(hi == lo, _z(1.0 - alpha / 2.0), _z(1.0 - alpha)))
    spread = sd_max > 0.0
    if spread.any():
        c[spread] = _im_critical(root_n[spread] * (hi[spread] - lo[spread]) / sd_max[spread], alpha)
    return lo - c * sd_lo / root_n, hi + c * sd_hi / root_n, c


# ------------------------------------------------------- sample -> estimates


def _sd_tau(sigma: np.ndarray) -> np.ndarray:
    """sqrt(max(S_tt, 0)) of each matrix of an (R, 3, 3) stack, as
    Python's ``max`` takes it (a -0.0 stays -0.0)."""
    s_tt = sigma[:, 2, 2]
    return np.sqrt(np.where(s_tt < 0.0, 0.0, s_tt))


@dataclass(frozen=True)
class Estimates:
    """Everything both intervals need from a batch of R samples, as arrays.

    ``tau_star`` (R,) holds the differences in means, ``v`` (R, 2) the
    variance brackets as (v_p, v_o), ``tau`` (R, 2) the prediction pairs
    (tau_p, tau_o), ``sigma`` (R, 3, 3) the asymptotic covariances of
    (V_p, V_o, tau*), ``sd`` (R, 2) the SDs of the pairs and ``n`` (R,) the
    sample sizes. ``status`` (R, 2) holds, per prediction, ``covariance.OK``
    or why it has no SD: ``covariance.KINK`` or ``covariance.CURVATURE``
    (no smooth expansion, see ``covariance.prediction_sd_grid``), or
    ``covariance.Q1``: for q = 1 a prediction can sit exactly at zero,
    where the limit law is not normal, so ``sigma`` is None. ``sd`` is NaN
    wherever the status is not OK.
    """

    tau_star: np.ndarray
    v: np.ndarray
    tau: np.ndarray
    sigma: np.ndarray | None
    sd: np.ndarray
    n: np.ndarray
    status: np.ndarray
    config: RobustConfig
    method: BoundsMethod

    @property
    def sd_tau(self) -> np.ndarray:
        """(R,): the asymptotic SD of sqrt(n)(tau_hat - tau*); NaN for q = 1."""
        return np.full(self.n.shape, np.nan) if self.sigma is None else _sd_tau(self.sigma)


def estimate_robust_many(samples, config: RobustConfig, method=BoundsMethod.SHARP) -> Estimates:
    """Point estimates, variance bounds and asymptotic SDs of each sample of
    a nonempty iterable, in order, as one ``Estimates`` record.

    The samples form one ragged batch (``sample.arm_batch``), so each
    per-sample stage is one pass over all of them, on either route: the
    moments, the bracket of ``method`` (``variance_bounds``) and, for
    q > 1, its Sigma (``sigma_sharp_batch`` or ``sigma_neyman``). The batch
    holds every sample it is given; a caller with more samples than it
    wants in memory at once cuts them into calls, as
    ``simulation.run_coverage_study`` does. The prediction pairs of all
    samples are then one solver call and their SDs one
    ``prediction_sd_grid`` call, whose statuses the record keeps; at
    delta = 0 both SDs are ``sd_tau``.

    Raises
    ------
    ValidationError
        For no samples, and as ``sample.arm_batch`` and the Sigma stage do.
    NumericalError
        When q > 1, for an arm whose fourth moments overflow
        (``sample.check_fourth_moments``); and as ``variance_bounds`` and
        the Sigma stage do. A prediction with no smooth expansion raises
        nothing here (``covariance.check_status`` raises for its status).
    """
    method = BoundsMethod(method)
    samples = list(samples)
    if not samples:
        raise ValidationError("a batch needs at least one sample")
    arms = arm_batch(samples)
    if config.q > 1.0:
        check_fourth_moments(arms)
    v = variance_bounds(arms, method)
    m = np.diff(arms.starts)
    n = m[0::2] + m[1::2]
    sigma = None
    if config.q > 1.0:
        sigma = (sigma_sharp_batch(arms) if method is BoundsMethod.SHARP
                 else sigma_neyman(arms.moments, m[0::2] / n))

    tau_star = arms.ate
    tau = solve_minimax_many(tau_star[:, None], v, config)
    if config.q == 1.0:
        sd, status = np.full(tau.shape, np.nan), np.full(tau.shape, Q1, dtype=STATUS)
    elif config.delta == 0.0:
        sd, status = np.repeat(_sd_tau(sigma)[:, None], 2, axis=1), np.full(tau.shape, OK, dtype=STATUS)
    else:
        own = [0, 1]
        sigma_b = (sigma[:, own, own], sigma[:, own, 2], sigma[:, 2:, 2])
        sd, status = prediction_sd_grid(tau_star[:, None], tau, v, sigma_b, config)
    return Estimates(tau_star, v, tau, sigma, sd, n, status, config, method)


def _ordered(tau_p, tau_o, sd_p, sd_o):
    """(lo, hi, sd_lo, sd_hi), each prediction pair ordered numerically (the
    two predictions swap roles when the unrestricted effect is negative)."""
    p_is_lower = tau_p <= tau_o
    return (
        np.where(p_is_lower, tau_p, tau_o),
        np.where(p_is_lower, tau_o, tau_p),
        np.where(p_is_lower, sd_p, sd_o),
        np.where(p_is_lower, sd_o, sd_p),
    )


def plain_im_intervals(est: Estimates, alpha: float = 0.05):
    """IM interval for the robust prediction range of each sample of a
    record, with one critical-value solve for the whole batch: (R,) arrays
    (lower, upper, c), NaN in a row with a prediction that has no SD.

    Endpoints are ordered numerically (the two predictions swap roles when
    the unrestricted effect is negative) before the IM step.

    Raises
    ------
    ValidationError
        For q = 1, whose estimates carry no SDs, or as ``_im_endpoints`` on
        alpha.
    """
    if est.config.q == 1.0:
        raise ValidationError(
            "the IM interval requires q > 1 (estimates for q = 1 carry no SDs)"
        )
    return _im_endpoints(*_ordered(*est.tau.T, *est.sd.T), est.n, alpha)


# -------------------------------------------------------------- two-step CI


def check_two_step_args(config, alpha, beta):
    """Raise unless ``two_step_intervals`` accepts these settings."""
    if config.q <= 1.0:
        raise ValidationError(
            "two-step inference requires q > 1 (the q = 1 prediction can sit "
            "exactly at zero, where the limit law is non-normal)"
        )
    if not 0.0 < alpha <= 0.5:
        raise ValidationError(f"alpha must be in (0, 0.5], got {alpha}")
    if not 0.0 <= beta < alpha:
        raise ValidationError(f"beta must be in [0, alpha), got beta={beta}, alpha={alpha}")


def _union(ts, tau, v, s_bb, n, config, level):
    """For each row of (R, 2, P) predictions ``tau`` at P source effects
    ``ts``: the union's lower and upper end, the least and the largest c_n,
    and (R, 2) the status of the first point of each prediction with no
    smooth expansion (else OK). The conditional SDs are one
    ``prediction_sd_grid`` call and the IM step at ``level`` one
    ``_im_endpoints`` call at every point; a row with a point of no smooth
    expansion has NaN ends and c range."""
    sd, status = prediction_sd_grid(ts, tau, v, (s_bb, 0.0, 0.0), config, conditional=True)
    lower, upper, c = _im_endpoints(*_ordered(tau[:, 0], tau[:, 1], sd[:, 0], sd[:, 1]), n[:, None], level)
    first = np.argmax(status != OK, axis=2)[..., None]
    return (lower.min(axis=1), upper.max(axis=1), c.min(axis=1), c.max(axis=1),
            np.take_along_axis(status, first, axis=2)[..., 0])


def _certified(ends, tau, v, s_bb, n, config, level):
    """The rows whose union over the grid is, bit for bit, their union over
    the grid's two ends: ``ends`` (R, 1, 2) holds each first-step interval,
    ``tau`` (R, 2, 2) the predictions there and ``v``, ``s_bb`` (R, 2, 1)
    the bounds and their Sigma entries.

    A row passes on two conditions, each shown over its whole interval
    from ``conditional_sd_bounds``' enclosures:

    - c_n is one double at every grid point. It is once the scaled width
      w = sqrt(n) (|tau_o| - |tau_p|) / max(sd_p, sd_o) gives c + w >= 8.5
      and w (2c + w) >= 76 for the least c, z(1 - level): then Phi(c + w)
      rounds to 1 (1 - Phi(8.5) < 2^-56) and phi(c + w) to nothing beside
      phi(c) (their ratio is below 2^-54) at every c the Newton steps of
      ``_im_critical`` visit, so those steps do not depend on w.
    - With that c, all four of |tau_b| +- c sd_b / sqrt(n) grow with |t|,
      each by more than twice its rounding allowance from one grid point
      to the next.

    Then each IM end is monotone in t on the grid, so its extreme lies at
    an end of the interval. A row with v_b = 0, a prediction at 0, a
    non-finite piece or a bound that is not conclusive fails.
    """
    slope_lo, slope_hi, sd_hi, sd_slope, tau_err, sd_err = conditional_sd_bounds(
        np.abs(ends), tau, v, s_bb, config)
    width = np.abs(ends[:, 0, 1] - ends[:, 0, 0])
    c_lo, c_hi = _z(1.0 - level), _z(1.0 - level / 2.0)
    root_n = np.sqrt(n)
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        # the spread |tau_o| - |tau_p| >= 0 (v_o <= v_p) has its slope in
        # [-fall, climb], so it strays below its ends' least value by at most
        # width fall climb / (fall + climb): nothing where it is monotone
        spread_ends = np.abs(tau[:, 1]) - np.abs(tau[:, 0])
        fall = np.maximum(slope_hi[:, 0] - slope_lo[:, 1], 0.0)
        climb = np.maximum(slope_hi[:, 1] - slope_lo[:, 0], 0.0)
        reach = width * fall * climb / (fall + climb) + 2.0 * tau_err.max(axis=1)
        w_lo = root_n * (spread_ends.min(axis=1) - reach) / sd_hi.max(axis=1)
        saturated = (c_lo + w_lo >= 8.5) & (w_lo * (2.0 * c_lo + w_lo) >= 76.0)
        rise = (slope_lo - c_hi * sd_slope / root_n[:, None]) * (width / (_GRID_POINTS - 1))[:, None]
        err = tau_err + c_hi * sd_err / root_n[:, None]
        return saturated & (rise > 2.0 * err).all(axis=1)


@dataclass(frozen=True)
class TwoStepIntervals:
    """The two-step construction of each sample of a record, as (R,)
    arrays: the first-step interval ``[first_lo, first_hi]``, whether it
    ``rejected`` a zero effect, and where it did, the union ``[lower,
    upper]`` and the range ``[c_min, c_max]`` of its critical values, NaN
    in a row that stopped at the first step or has a grid point with no
    smooth expansion. ``status`` (R, 2) holds, per prediction, the status
    of its first such grid point, else ``covariance.OK``."""

    first_lo: np.ndarray
    first_hi: np.ndarray
    rejected: np.ndarray
    lower: np.ndarray
    upper: np.ndarray
    c_min: np.ndarray
    c_max: np.ndarray
    status: np.ndarray


def two_step_intervals(est: Estimates, alpha: float = 0.05, beta: float = 0.045) -> TwoStepIntervals:
    """Bonferroni union interval of each sample of a record: test-for-zero
    first, then a grid union.

    Step 1 forms the 1-beta interval for the unrestricted effect; if it
    contains zero the procedure stops (``rejected`` False, NaN union).
    Step 2 is the union, over 101 evenly spaced values t across the
    first-step interval, of the conditional IM intervals at level
    1-(alpha-beta) around the robust predictions re-solved at each t, with
    the range of their critical values.

    The second steps of all rows whose first step rejects zero start as one
    (R, 2, 2) solver call at the ends of their first-step intervals. A row
    that ``_certified`` passes takes its union from those two points alone,
    and that is its 101-point union bit for bit, since every step works
    entry by entry. The other rows run the grid as one (R', 2, 101) solver
    call. Each group is one SD computation and one IM step
    (``_im_endpoints`` at level alpha - beta). The ends alone would be
    wrong where the certificate fails: on ``tools/compare_outputs.py``'s
    pos.csv with outcomes times 10^4 at delta = 0.5, tau_p stays near 0
    over half the first-step interval and then rises, so the lower end is
    -655.1, from an interior point, where the ends would give +2.69.

    Raises
    ------
    ValidationError
        As ``check_two_step_args``, or, once a first step rejects zero, as
        ``_im_endpoints`` on alpha - beta.
    """
    config, n = est.config, est.n
    check_two_step_args(config, alpha, beta)
    half = _z(1.0 - beta / 2.0) * (est.sd_tau / np.sqrt(n))
    first_lo, first_hi = est.tau_star - half, est.tau_star + half
    rejected = ~((first_lo <= 0.0) & (0.0 <= first_hi))
    rows = np.flatnonzero(rejected)
    lower, upper, c_min, c_max = np.full((4, n.shape[0]), np.nan)
    status = np.full((n.shape[0], 2), OK, dtype=STATUS)
    if rows.size:
        lo_t, hi_t = first_lo[rows, None], first_hi[rows, None]
        v = est.v[rows, :, None]
        s_bb = np.diagonal(est.sigma[rows], axis1=1, axis2=2)[:, :2, None]
        level = alpha - beta
        ends = np.concatenate((lo_t, hi_t), axis=1)[:, None, :]
        tau = solve_minimax_many(ends, v, config)
        certified = _certified(ends, tau, v, s_bb, n[rows], config, level)
        grid = ~certified
        if grid.any():
            # np.linspace row by row: the same arithmetic, whatever the other rows
            lo_g, hi_g = lo_t[grid], hi_t[grid]
            ts = lo_g + np.arange(_GRID_POINTS) * ((hi_g - lo_g) / (_GRID_POINTS - 1))
            ts[:, -1] = hi_g[:, 0]
            ts = ts[:, None, :]
            tau_g = solve_minimax_many(ts, v[grid], config)
            r = rows[grid]
            lower[r], upper[r], c_min[r], c_max[r], status[r] = _union(
                ts, tau_g, v[grid], s_bb[grid], n[r], config, level)
        if certified.any():
            r = rows[certified]
            lower[r], upper[r], c_min[r], c_max[r], status[r] = _union(
                ends[certified], tau[certified], v[certified], s_bb[certified], n[r], config, level)
    return TwoStepIntervals(first_lo, first_hi, rejected, lower, upper, c_min, c_max, status)
