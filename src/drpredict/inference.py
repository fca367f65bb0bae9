"""Confidence intervals for the robust prediction range.

Two constructions are offered, both built on one IM step
(``_im_endpoints``), the classic interval for a partially identified
scalar: it widens an estimated range ``[lo, hi]`` by a critical value
``c_n`` chosen so that coverage holds uniformly across the width of the
identified set (``c_n`` interpolates between the one-sided and two-sided
normal quantiles). ``plain_im_interval`` takes that step once around the
prediction pair. ``two_step_interval`` is the Bonferroni-corrected union
construction: a first-step test that the unrestricted effect differs from
zero, followed by a union of conditional IM intervals over a grid of
plausible effect values. ``estimate_robust`` turns a sample into the
``RobustEstimates`` record that both take.

Each of these three is a batch of one of ``estimate_robust_many``,
``plain_im_intervals`` and ``two_step_intervals``. Those do the per-sample
work (moments, bracket, Sigma) as one array pass per stage over the ragged
batch of the samples they are given, on either bounds route, and
everything after it in one array call per stage: the prediction pairs,
their SDs, the IM critical values and the two-step unions of the whole
batch (from the two ends of each first-step interval where a certificate
allows, else from its grid). An entry's numbers do not depend on the batch
it is computed in.
"""

import enum
import math
from dataclasses import dataclass

import numpy as np

from .bounds import BoundsMethod, VarianceBounds, variance_bounds
from .covariance import (
    SigmaMatrix,
    conditional_sd_bounds,
    prediction_sd_grid,
    sigma_neyman,
    sigma_sharp_batch,
)
from .exceptions import ValidationError
from .sample import ExperimentalSample, arm_batch, check_fourth_moments
from .solver import RobustConfig, newton_root, solve_minimax_many

__all__ = [
    "IMMethod",
    "IntervalEstimate",
    "RobustEstimates",
    "check_two_step_args",
    "estimate_robust",
    "estimate_robust_many",
    "plain_im_interval",
    "plain_im_intervals",
    "two_step_interval",
    "two_step_intervals",
]

_C_TOL = 1e-10
_GRID_POINTS = 101  # the two-step union's grid over the first-step interval


class IMMethod(str, enum.Enum):
    IM = "im"
    IM_BONFERRONI = "im_bonferroni"


@dataclass(frozen=True)
class IntervalEstimate:
    """A confidence interval plus the diagnostics needed to audit it.

    ``lower``/``upper`` are NaN when a two-step construction stopped at the
    first step (``rejected_first_step`` False): there is no interval to
    report in that case, only the first-step diagnostic.
    """

    lower: float
    upper: float
    alpha: float
    method: IMMethod
    c_values: tuple = ()
    first_step: tuple = None
    rejected_first_step: bool = None

    def __post_init__(self):
        if not 0.0 < self.alpha < 1.0:
            raise ValidationError(f"alpha must be in (0, 1), got {self.alpha}")
        object.__setattr__(self, "method", IMMethod(self.method))
        if math.isfinite(self.lower) and math.isfinite(self.upper):
            if self.lower > self.upper:
                raise ValidationError(
                    f"inverted interval: [{self.lower}, {self.upper}]"
                )
        elif self.rejected_first_step is not False:
            raise ValidationError("non-finite endpoints require a failed first step")

    @property
    def length(self) -> float:
        return self.upper - self.lower

    def contains(self, value: float) -> bool:
        return bool(self.lower <= value <= self.upper)


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
    zero-width (lo == hi) or infinite-width limit of c_n. ValidationError
    unless alpha is in (0, 1/2] with a finite z(1 - alpha/2).
    """
    if not 0.0 < alpha <= 0.5:
        raise ValidationError(f"alpha must be in (0, 0.5], got {alpha}")
    if math.isinf(_z(1.0 - alpha / 2.0)):
        raise ValidationError(f"level {alpha!r} is too small: z(1 - level/2) is infinite in double precision")
    lo, hi, sd_lo, sd_hi, root_n = np.broadcast_arrays(lo, hi, sd_lo, sd_hi, np.sqrt(n))
    sd_max = np.maximum(sd_lo, sd_hi)
    c = np.where(hi == lo, _z(1.0 - alpha / 2.0), _z(1.0 - alpha))
    spread = sd_max != 0.0
    if spread.any():
        c[spread] = _im_critical(root_n[spread] * (hi[spread] - lo[spread]) / sd_max[spread], alpha)
    return lo - c * sd_lo / root_n, hi + c * sd_hi / root_n, c


# ------------------------------------------------------- sample -> estimates


@dataclass(frozen=True)
class RobustEstimates:
    """Everything both intervals need from one sample.

    The difference in means ``tau_star``, the variance bracket, the
    prediction pair and, for q > 1, the asymptotic covariance and the SDs of
    the pair. For q = 1 the prediction can sit exactly at zero, where the
    limit law is not normal, so ``sigma``, ``sd_p`` and ``sd_o`` are None.
    """

    tau_star: float
    bounds: VarianceBounds
    config: RobustConfig
    tau_p: float
    tau_o: float
    sigma: SigmaMatrix | None
    sd_p: float | None
    sd_o: float | None
    n: int


def estimate_robust(
    sample: ExperimentalSample,
    config: RobustConfig,
    method=BoundsMethod.SHARP,
) -> RobustEstimates:
    """Point estimates, variance bounds, and asymptotic SDs for one sample.

    For q = 1 the SDs are None and the covariance is not estimated.
    """
    return estimate_robust_many([sample], config, method)[0]


def estimate_robust_many(samples, config: RobustConfig, method=BoundsMethod.SHARP) -> list:
    """``estimate_robust`` for each sample of an iterable, in order.

    The samples form one ragged batch (``sample.arm_batch``), so each
    per-sample stage is one pass over all of them, on either route: the
    moments, the bracket of ``method`` (``variance_bounds``) and its Sigma
    (``sigma_sharp_batch`` or ``sigma_neyman``). The batch holds every
    sample it is given; a caller with more samples than it wants in memory
    at once cuts them into calls, as ``simulation.run_coverage_study``
    does. The prediction pairs of all samples are then one solver call and
    their SDs one array computation.

    Raises
    ------
    NumericalError
        As ``covariance.prediction_sd_grid`` does, for the first prediction
        (in sample order, tau_p before tau_o) that has no smooth expansion;
        when q > 1, for an arm whose fourth moments overflow
        (``sample.check_fourth_moments``); and as ``variance_bounds`` does.
    """
    method = BoundsMethod(method)
    samples = list(samples)
    if not samples:
        return []
    arms = arm_batch(samples)
    if config.q > 1.0:
        check_fourth_moments(arms)
    bounds = variance_bounds(arms, method)
    sigmas = [None] * len(samples)
    if config.q > 1.0:
        m = np.diff(arms.starts)
        sigmas = (sigma_sharp_batch(arms) if method is BoundsMethod.SHARP
                  else sigma_neyman(arms.moments, m[0::2] / (m[0::2] + m[1::2])))

    tau_star = arms.ate[:, None]
    v = np.array([[b.v_p, b.v_o] for b in bounds])
    tau = solve_minimax_many(tau_star, v, config)
    if config.q == 1.0:
        sds = [(None, None)] * len(samples)
    elif config.delta == 0.0:
        sds = [(sigma.sigma_tau,) * 2 for sigma in sigmas]
    else:
        s = np.array([sigma.entries for sigma in sigmas])
        own = [0, 1]
        sigma_b = (s[:, own, own], s[:, own, 2], s[:, 2:, 2])
        sds = prediction_sd_grid(tau_star, tau, v, sigma_b, config).tolist()
    return [
        RobustEstimates(tau_star=t, bounds=b, config=config, tau_p=tau_p, tau_o=tau_o,
                        sigma=sigma, sd_p=sd_p, sd_o=sd_o, n=sample.n)
        for sample, t, b, sigma, (tau_p, tau_o), (sd_p, sd_o)
        in zip(samples, tau_star[:, 0].tolist(), bounds, sigmas, tau.tolist(), sds)
    ]


def _shared_config(ests) -> RobustConfig:
    """The config of a nonempty batch of estimates, which must share one
    config and one bounds method."""
    config, method = ests[0].config, ests[0].bounds.method
    if any(e.config != config or e.bounds.method is not method for e in ests):
        raise ValidationError("a batch of estimates must share one config and one bounds method")
    return config


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


def plain_im_interval(est: RobustEstimates, alpha: float = 0.05) -> IntervalEstimate:
    """IM interval for the robust prediction range of one sample.

    Endpoints are ordered numerically (the two predictions swap roles when
    the unrestricted effect is negative) before the IM step.
    """
    return plain_im_intervals([est], alpha)[0]


def plain_im_intervals(ests, alpha: float = 0.05) -> list:
    """``plain_im_interval`` for each estimate of a batch, with one
    critical-value solve for the whole batch.

    Raises
    ------
    ValidationError
        If the estimates do not share one config and bounds method, for
        q = 1, whose estimates carry no SDs, or as ``_im_endpoints`` on
        alpha.
    """
    ests = list(ests)
    if not ests:
        return []
    if _shared_config(ests).q == 1.0:
        raise ValidationError(
            "the IM interval requires q > 1 (estimates for q = 1 carry no SDs)"
        )
    pairs = np.array([[e.tau_p, e.tau_o, e.sd_p, e.sd_o] for e in ests]).T
    n = np.array([e.n for e in ests])
    lower, upper, c = _im_endpoints(*_ordered(*pairs), n, alpha)
    return [
        IntervalEstimate(lo, hi, alpha, IMMethod.IM, c_values=(c_i,))
        for lo, hi, c_i in zip(lower.tolist(), upper.tolist(), c.tolist())
    ]


# -------------------------------------------------------------- two-step CI


def check_two_step_args(config, alpha, beta):
    """Raise unless ``two_step_interval`` accepts these settings."""
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
    """The union's lower and upper end and the range of c_n for each row of
    (R, 2, P) predictions ``tau`` at P source effects ``ts``, as
    (lower, upper, (c_min, c_max)) tuples: the conditional SDs (one
    ``prediction_sd_grid`` call) and the IM step at ``level`` (one
    ``_im_endpoints`` call) at every point, and each row's extremes."""
    sd = prediction_sd_grid(ts, tau, v, (s_bb, 0.0, 0.0), config, conditional=True)
    lower, upper, c = _im_endpoints(*_ordered(tau[:, 0], tau[:, 1], sd[:, 0], sd[:, 1]), n[:, None], level)
    return zip(lower.min(axis=1).tolist(), upper.max(axis=1).tolist(),
               zip(c.min(axis=1).tolist(), c.max(axis=1).tolist()))


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


def two_step_interval(
    est: RobustEstimates,
    alpha: float = 0.05,
    beta: float = 0.045,
) -> IntervalEstimate:
    """Bonferroni union interval: test-for-zero first, then a grid union.

    Step 1 forms the 1-beta interval for the unrestricted effect; if it
    contains zero the procedure stops (``rejected_first_step`` False, NaN
    endpoints). Step 2 is the union, over 101 evenly spaced values t across
    the first-step interval, of the conditional IM intervals at level
    1-(alpha-beta) around the robust predictions re-solved at each t, with
    the range of their critical values. Where a certificate proves each IM
    end monotone in t and c_n one value on the grid, the union is taken
    from the two ends alone, bit for bit the same.
    """
    return two_step_intervals([est], alpha, beta)[0]


def two_step_intervals(ests, alpha: float = 0.05, beta: float = 0.045) -> list:
    """``two_step_interval`` for each estimate of a batch.

    The second steps of all estimates whose first step rejects zero start
    as one (R, 2, 2) solver call at the ends of their first-step intervals.
    A row that ``_certified`` passes takes its union from those two points
    alone, and that is its 101-point union bit for bit, since every step
    works entry by entry. The other rows run the grid as one (R', 2, 101)
    solver call. Each group is one SD computation and one IM step
    (``_im_endpoints`` at level alpha - beta). The ends alone would be
    wrong where the certificate fails: on ``tools/compare_outputs.py``'s
    pos.csv with outcomes times 10^4 at delta = 0.5, tau_p stays near 0
    over half the first-step interval and then rises, so the lower end is
    -655.1, from an interior point, where the ends would give +2.69.

    Raises
    ------
    ValidationError
        If the estimates do not share one config and bounds method, as
        ``check_two_step_args``, or, once a first step rejects zero, as
        ``_im_endpoints`` on alpha - beta.
    NumericalError
        As ``covariance.prediction_sd_grid``, for the first grid point (in
        row order) that has no smooth expansion.
    """
    ests = list(ests)
    if not ests:
        return []
    config = _shared_config(ests)
    check_two_step_args(config, alpha, beta)
    tau_star = np.array([e.tau_star for e in ests])
    n = np.array([e.n for e in ests])
    half = _z(1.0 - beta / 2.0) * (np.array([e.sigma.sigma_tau for e in ests]) / np.sqrt(n))
    first_lo, first_hi = tau_star - half, tau_star + half
    rows = np.flatnonzero(~((first_lo <= 0.0) & (0.0 <= first_hi)))

    union = {}
    if rows.size:
        lo_t, hi_t = first_lo[rows, None], first_hi[rows, None]
        v = np.array([[[ests[i].bounds.v_p], [ests[i].bounds.v_o]] for i in rows])
        s_bb = np.array([[[ests[i].sigma.entries[0, 0]], [ests[i].sigma.entries[1, 1]]] for i in rows])
        level = alpha - beta
        ends = np.concatenate((lo_t, hi_t), axis=1)[:, None, :]
        tau = solve_minimax_many(ends, v, config)
        certified = _certified(ends, tau, v, s_bb, n[rows], config, level)
        # the grid first: a grid point with no smooth expansion raises before
        # the level is checked, as when every row ran the grid
        grid = ~certified
        if grid.any():
            # np.linspace row by row: the same arithmetic, whatever the other rows
            lo_g, hi_g = lo_t[grid], hi_t[grid]
            ts = lo_g + np.arange(_GRID_POINTS) * ((hi_g - lo_g) / (_GRID_POINTS - 1))
            ts[:, -1] = hi_g[:, 0]
            ts = ts[:, None, :]
            tau_g = solve_minimax_many(ts, v[grid], config)
            union.update(zip(rows[grid].tolist(),
                             _union(ts, tau_g, v[grid], s_bb[grid], n[rows[grid]], config, level)))
        if certified.any():
            union.update(zip(rows[certified].tolist(),
                             _union(ends[certified], tau[certified], v[certified], s_bb[certified],
                                    n[rows[certified]], config, level)))

    return [
        IntervalEstimate(lo, hi, alpha, IMMethod.IM_BONFERRONI, c_range, first_step=first,
                         rejected_first_step=i in union)
        for i, first in enumerate(zip(first_lo.tolist(), first_hi.tolist()))
        for lo, hi, c_range in [union.get(i, (math.nan, math.nan, ()))]
    ]
