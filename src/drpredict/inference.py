"""Confidence intervals for the robust prediction range.

Two constructions are offered. ``im_interval`` is the classic interval for a
partially identified scalar: it widens the estimated range ``[lo, hi]`` by a
critical value ``c_n`` chosen so that coverage holds uniformly across the
width of the identified set (``c_n`` interpolates between the one-sided and
two-sided normal quantiles). ``two_step_interval`` is the Bonferroni-corrected
union construction: a first-step test that the unrestricted effect differs
from zero, followed by a union of conditional intervals over a grid of
plausible effect values. ``estimate_robust`` turns a sample into the
``RobustEstimates`` record that ``plain_im_interval`` and
``two_step_interval`` both take.
"""

import enum
import math
import warnings
from dataclasses import dataclass
from statistics import NormalDist

import numpy as np

from .bounds import BoundsMethod, VarianceBounds, neyman_bounds, sharp_bounds_empirical
from .covariance import (
    SigmaMatrix,
    conditional_sd_grid,
    loadings,
    prediction_sds,
    sigma_neyman,
    sigma_sharp,
)
from .exceptions import DomainError, OrderError, UnsupportedConfig, ValidationError
from .moments import ArmMoments, estimate_moments
from .sample import ExperimentalSample
from .solver import RobustConfig, newton_root, solve_minimax_many

__all__ = [
    "IMMethod",
    "IntervalEstimate",
    "RobustEstimates",
    "check_two_step_args",
    "estimate_robust",
    "im_interval",
    "plain_im_interval",
    "two_step_interval",
]

_C_TOL = 1e-10


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
    grid_points: int = None
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


_STANDARD_NORMAL = NormalDist()
_erfc = np.frompyfunc(math.erfc, 1, 1)


def _z(p: float) -> float:
    """Standard normal quantile (Wichura's AS241, full double precision).

    ``inf`` at p = 1, which a first step at level beta = 0 asks for.
    """
    return math.inf if p >= 1.0 else _STANDARD_NORMAL.inv_cdf(p)


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
    infinite-width limit and the right end the zero-width limit. The left
    side is concave there (for alpha < 1/2), so Newton steps from the left
    end approach the root from below and stay inside the bracket, also when
    the root sits on the left end itself.
    """
    w = np.asarray(scaled_width, dtype=float)
    lo = np.full(w.shape, _z(1.0 - alpha))

    def residual(c):
        value = _norm_cdf(c + w) - _norm_cdf(-c) - (1.0 - alpha)
        slope = np.exp(-0.5 * (c + w) ** 2) + np.exp(-0.5 * c * c)
        return value, slope / math.sqrt(2.0 * math.pi)

    return newton_root(residual, lo, lo, _z(1.0 - alpha / 2.0), _C_TOL)


def im_interval(
    lo_hat: float,
    hi_hat: float,
    sd_lo: float,
    sd_hi: float,
    n: int,
    alpha: float = 0.05,
) -> IntervalEstimate:
    """Uniform-coverage interval for a value only known to lie in a range.

    Returns ``[lo_hat - c_n sd_lo / sqrt(n), hi_hat + c_n sd_hi / sqrt(n)]``
    with ``c_n`` solving ``Phi(c_n + sqrt(n) (hi - lo) / max(sd)) -
    Phi(-c_n) = 1 - alpha``, Phi the standard normal CDF.

    Endpoints inverted by less than 1e-10 (estimation noise) are swapped
    with a warning; larger inversions raise OrderError.
    """
    if not 0.0 < alpha < 1.0:
        raise DomainError(f"alpha must be in (0, 1), got {alpha}")
    if n < 1:
        raise DomainError(f"n must be >= 1, got {n}")
    if sd_lo < 0.0 or sd_hi < 0.0:
        raise DomainError("standard deviations must be nonnegative")
    if lo_hat > hi_hat:
        if lo_hat - hi_hat >= 1e-10:
            raise OrderError(
                f"lower estimate {lo_hat} exceeds upper estimate {hi_hat}"
            )
        warnings.warn(
            "interval endpoints inverted within numerical noise; swapping",
            UserWarning,
            stacklevel=2,
        )
        lo_hat, hi_hat = hi_hat, lo_hat
        sd_lo, sd_hi = sd_hi, sd_lo

    sd_max = max(sd_lo, sd_hi)
    root_n = math.sqrt(n)
    if sd_max == 0.0:
        c = _z(1.0 - alpha / 2.0) if hi_hat == lo_hat else _z(1.0 - alpha)
        return IntervalEstimate(lo_hat, hi_hat, alpha, IMMethod.IM, c_values=(c,))
    c = float(_im_critical(root_n * (hi_hat - lo_hat) / sd_max, alpha))
    return IntervalEstimate(
        lower=lo_hat - c * sd_lo / root_n,
        upper=hi_hat + c * sd_hi / root_n,
        alpha=alpha,
        method=IMMethod.IM,
        c_values=(c,),
    )


# ------------------------------------------------------- sample -> estimates


@dataclass(frozen=True)
class RobustEstimates:
    """Everything both intervals need from one sample.

    The arm moments, the variance bracket, the prediction pair and, for
    q > 1, the asymptotic covariance and the SDs of the pair. For q = 1 the
    prediction can sit exactly at zero, where the limit law is not normal,
    so ``sigma``, ``sd_p`` and ``sd_o`` are None.
    """

    moments: ArmMoments
    bounds: VarianceBounds
    config: RobustConfig
    tau_p: float
    tau_o: float
    sigma: SigmaMatrix | None
    sd_p: float | None
    sd_o: float | None
    n: int

    @property
    def tau_star(self) -> float:
        return self.moments.ate


def estimate_robust(
    sample: ExperimentalSample,
    config: RobustConfig,
    method=BoundsMethod.SHARP,
) -> RobustEstimates:
    """Point estimates, variance bounds, and asymptotic SDs for one sample.

    For q = 1 the SDs are None and the covariance is not estimated.
    """
    sharp = BoundsMethod(method) is BoundsMethod.SHARP
    moments = estimate_moments(sample)
    tau_star = moments.ate
    if sharp:
        bounds = sharp_bounds_empirical(sample)
    else:
        bounds = neyman_bounds(moments.sigma1_sq, moments.sigma0_sq)
    sigma = sd_p = sd_o = None
    if config.q > 1.0:
        sigma = sigma_sharp(sample) if sharp else sigma_neyman(moments)
    tau_p, tau_o = solve_minimax_many(tau_star, [bounds.v_p, bounds.v_o], config).tolist()
    if sigma is not None and config.delta == 0.0:
        sd_p = sd_o = sigma.sigma_tau
    elif sigma is not None:
        sd_p, sd_o = prediction_sds(loadings(tau_star, bounds, tau_p, tau_o, config), sigma)
    return RobustEstimates(
        moments=moments,
        bounds=bounds,
        config=config,
        tau_p=tau_p,
        tau_o=tau_o,
        sigma=sigma,
        sd_p=sd_p,
        sd_o=sd_o,
        n=sample.n,
    )


def plain_im_interval(est: RobustEstimates, alpha: float = 0.05) -> IntervalEstimate:
    """IM interval for the robust prediction range of one sample.

    Endpoints are ordered numerically (the two predictions swap roles when
    the unrestricted effect is negative) before the IM step.
    """
    if est.sigma is None:
        raise UnsupportedConfig(
            "the IM interval requires q > 1 (estimates for q = 1 carry no SDs)"
        )
    if est.tau_p <= est.tau_o:
        lo, hi, sd_lo, sd_hi = est.tau_p, est.tau_o, est.sd_p, est.sd_o
    else:
        lo, hi, sd_lo, sd_hi = est.tau_o, est.tau_p, est.sd_o, est.sd_p
    return im_interval(lo, hi, sd_lo, sd_hi, est.n, alpha)


# -------------------------------------------------------------- two-step CI


def check_two_step_args(config, alpha, beta, grid_points):
    """Raise unless ``two_step_interval`` accepts these settings."""
    if config.q <= 1.0:
        raise UnsupportedConfig(
            "two-step inference requires q > 1 (the q = 1 prediction can sit "
            "exactly at zero, where the limit law is non-normal)"
        )
    if not 0.0 < alpha < 1.0:
        raise DomainError(f"alpha must be in (0, 1), got {alpha}")
    if not 0.0 <= beta < alpha:
        raise DomainError(f"beta must be in [0, alpha), got beta={beta}, alpha={alpha}")
    if grid_points < 25:
        raise DomainError(f"grid_points must be >= 25, got {grid_points}")


def two_step_interval(
    est: RobustEstimates,
    alpha: float = 0.05,
    beta: float = 0.045,
    grid_points: int = 101,
) -> IntervalEstimate:
    """Bonferroni union interval: test-for-zero first, then a grid union.

    Step 1 forms the 1-beta interval for the unrestricted effect; if it
    contains zero the procedure stops (``rejected_first_step`` False, NaN
    endpoints). Step 2 re-solves the robust predictions at each grid value
    t of the first-step interval, builds the conditional IM interval at
    level 1-(alpha-beta) around each, and returns the union.
    """
    config, bounds, sigma = est.config, est.bounds, est.sigma
    check_two_step_args(config, alpha, beta, grid_points)
    root_n = math.sqrt(est.n)
    se_tau = sigma.sigma_tau / root_n
    half = _z(1.0 - beta / 2.0) * se_tau
    first = (est.tau_star - half, est.tau_star + half)
    if first[0] <= 0.0 <= first[1]:
        return IntervalEstimate(
            lower=math.nan,
            upper=math.nan,
            alpha=alpha,
            method=IMMethod.IM_BONFERRONI,
            first_step=first,
            grid_points=grid_points,
            rejected_first_step=False,
        )

    ts = np.linspace(first[0], first[1], grid_points)
    tau_p, tau_o = solve_minimax_many(ts, [[bounds.v_p], [bounds.v_o]], config)
    sd_p = conditional_sd_grid(ts, tau_p, bounds.v_p, sigma.entries[0, 0], config)
    sd_o = conditional_sd_grid(ts, tau_o, bounds.v_o, sigma.entries[1, 1], config)

    p_is_lower = tau_p <= tau_o
    lo = np.where(p_is_lower, tau_p, tau_o)
    hi = np.where(p_is_lower, tau_o, tau_p)
    sd_lo = np.where(p_is_lower, sd_p, sd_o)
    sd_hi = np.where(p_is_lower, sd_o, sd_p)

    alpha2 = alpha - beta
    sd_max = np.maximum(sd_lo, sd_hi)
    with np.errstate(divide="ignore", invalid="ignore"):
        scaled = np.where(sd_max > 0.0, root_n * (hi - lo) / sd_max, np.inf)
    c = _im_critical(scaled, alpha2)
    lowers = lo - c * sd_lo / root_n
    uppers = hi + c * sd_hi / root_n
    return IntervalEstimate(
        lower=float(lowers.min()),
        upper=float(uppers.max()),
        alpha=alpha,
        method=IMMethod.IM_BONFERRONI,
        c_values=(float(c.min()), float(c.max())),
        first_step=first,
        grid_points=grid_points,
        rejected_first_step=True,
    )

