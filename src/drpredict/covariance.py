"""Joint asymptotic covariance of the estimated bounds and the source ATE,
and the delta-method loadings that turn it into standard errors for the
robust predictions.

The joint limit of sqrt(n) * (V_hat_p - V_p, V_hat_o - V_o, tau_hat - tau*)
is mean-zero normal with covariance Sigma. Two estimation routes are
provided: a closed form from arm moments (valid for the Neyman bounds) and
an influence-function plug-in (valid for the sharp bounds), each one pass
over a batch of samples. All matrices use the row/column order (V_p, V_o,
tau*).

The plug-in is the empirical covariance of per-observation influence
values, but it never forms them. An observation's influence is a quadratic
in its outcome plus a constant of the u-grid segment the outcome falls in,
so Sigma follows from a few sums over each sorted arm: per segment, the
count and the sums of d and d^2 (d the outcome less its arm mean), and
over the whole arm, the sums of d to d^4, which are n times the arm's
central moments (``sample.ArmBatch.moments``). The memory it needs beyond
the sample and its sorted arms is one row per observation (the centred
outcomes), and its time is a few passes over each arm.
``tests/oracles.py`` keeps the (3, n) influence array as the reference.

No density is estimated. The quantile-process term of the influence,
-integral of [1{y <= Q(u)} - u] W(u) / f(Q(u)) du, is by x = Q(u) the
L-statistic influence -integral of [1{y <= x} - F(x)] W(F(x)) dx (Serfling
1980, ch. 8), in which du / f(Q(u)) is dQ(u): on the u-grid, each cell's
quantile spacing, an arm's own order statistics at the cell edges.

``sigma_sharp_batch`` takes the samples of one ``sample.ArmBatch``, their
sorted arms in one array, and runs each stage once over the batch: the
u-grid quantiles and spacings (one gather each), the segment sums
(``np.add.reduceat``), and the assembly and checks of all 3x3 matrices.
A sample alone is its batch of one (``sample.arms``), and an entry of a
batch is bit for bit that of its sample alone.
"""

from __future__ import annotations

import math
import warnings

import numpy as np

from .exceptions import NumericalError, ValidationError
from .sample import ArmBatch, order_statistic, zero_slotted
from .solver import RobustConfig, penalty_curvature_range, penalty_derivs

__all__ = [
    "CURVATURE",
    "KINK",
    "OK",
    "Q1",
    "STATUS",
    "NearEqualVariancesWarning",
    "check_status",
    "sigma_neyman",
    "sigma_sharp_batch",
    "prediction_sd_grid",
]

_EPS = np.finfo(float).eps
U_GRID_SIZE = 400  # u-grid points on the trimmed band of the sharp Sigma
U_TRIM_MAX = 0.01
U_TRIM_MIN = 2.5e-4


def _u_trim(n_min):
    """Tail trim for the u-grid, tightening as the smaller arm grows
    (elementwise over an array of arm sizes).

    Trimming controls the 1/f-weighted tail blowup, but a fixed trim leaves
    an O(trim) bias in the fourth-moment-sized entries (the clipped quantile
    influence stops cancelling against the arm-variance influence out in the
    tails), so the band widens with sample size: never wider than 1%, never
    narrower than 0.025%.
    """
    return np.minimum(U_TRIM_MAX, np.maximum(1.0 / n_min, U_TRIM_MIN))


class NearEqualVariancesWarning(UserWarning):
    """The two arm variances are nearly equal, so the lower Neyman bound sits
    at the edge of its regular regime and its standard error is fragile."""


def _checked(s: np.ndarray) -> np.ndarray:
    """An (R, 3, 3) stack of covariances, order (V_p, V_o, tau*), checked
    and repaired: each matrix is symmetrized, and one that is indefinite
    beyond plug-in noise (smallest eigenvalue below -1e-8 * trace) has its
    negative eigenvalues clipped to zero. The stack is returned read-only.

    ValidationError for the first invalid matrix: non-finite entries, then
    asymmetry, then a negative diagonal entry.
    """
    s_t = s.transpose(0, 2, 1)
    with np.errstate(invalid="ignore"):  # a non-finite matrix fails below
        finite = np.isfinite(s).all(axis=(1, 2))
        scale = np.maximum(1.0, np.abs(s).max(axis=(1, 2)))
        skewed = np.abs(s - s_t).max(axis=(1, 2)) > 1e-12 * scale
        s = 0.5 * (s + s_t)
        negative = (np.diagonal(s, axis1=1, axis2=2) < (-1e-12 * scale)[:, None]).any(axis=1)
    for k in np.flatnonzero(~finite | skewed | negative)[:1]:
        if not finite[k]:
            raise ValidationError("covariance matrix has non-finite entries")
        if skewed[k]:
            raise ValidationError("covariance matrix is not symmetric")
        raise ValidationError("negative variance on the diagonal")
    eigval, eigvec = np.linalg.eigh(s)
    floor = -1e-8 * np.maximum(np.trace(s, axis1=1, axis2=2), 0.0)
    for k in np.flatnonzero(eigval[:, 0] < floor):
        repaired = (eigvec[k] * np.maximum(eigval[k], 0.0)) @ eigvec[k].T
        s[k] = 0.5 * (repaired + repaired.T)
    s.setflags(write=False)
    return s


# ------------------------------------------------------------- Neyman route


def sigma_neyman(moments: np.ndarray, e: np.ndarray) -> np.ndarray:
    """Closed-form plug-in covariance for the Neyman bounds: one 3x3 matrix
    per sample, (R, 3, 3), from the arm moments of a batch in
    ``ArmBatch.moments`` layout (4, 2R) and the samples' treated shares
    ``e`` (R,). Each matrix is bit for bit that of its sample alone.

    The bounds (sigma1 +- sigma0)^2 are smooth in the two arm variances, so
    the delta method gives loadings (1 +- sigma0/sigma1) and
    (1 +- sigma1/sigma0) on the per-arm variance influence functions, which
    are independent across arms. Third/fourth central moments enter through
    Var and Cov of the variance estimators. An arm of zero variance (a
    constant arm, whose moments are exactly 0) has no noise and contributes
    nothing, and so does an arm whose influence terms w and c are both
    exactly 0: its loadings are 0, which keeps an infinite loading of a
    subnormal variance out of the sums.

    Raises
    ------
    ValidationError
        What the first failing sample raises: both arm variances zero, or a
        matrix that fails the checks of ``_checked``.

    Warns
    -----
    NearEqualVariancesWarning
        Once, when sigma1^2/sigma0^2 is within 1e-3 of 1 in any sample
        before the first that raises; the lower-bound loading then nearly
        vanishes and its standard error is unreliable.
    """
    _, var, mu3, mu4 = moments
    s1_sq, s0_sq = var[0::2], var[1::2]
    zero = (s1_sq <= 0.0) & (s0_sq <= 0.0)
    stop = int(zero.argmax()) if zero.any() else zero.shape[0]  # the first sample of two zero variances
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):  # a non-finite Sigma fails below
        near = (s1_sq > 0.0) & (s0_sq > 0.0) & (np.abs(s1_sq / s0_sq - 1.0) < 1e-3)
        sd = np.sqrt(var)
        ratio = sd[np.arange(sd.shape[0]) ^ 1] / sd  # the other arm's SD over the arm's own
        share = np.stack((e, 1.0 - e), axis=1).ravel()
        # variances/covariances of the per-arm influence pieces
        w = (mu4 - var**2) / share
        c = mu3 / share
        # an arm whose pieces are exactly 0 adds nothing, even where its
        # loading overflows (a subnormal variance beside a unit one)
        noisy = (sd > 0.0) & ((w != 0.0) | (c != 0.0))
        plus, minus = np.where(noisy, 1.0 + ratio, 0.0), np.where(noisy, 1.0 - ratio, 0.0)
        (a_plus, b_plus), (a_minus, b_minus), (w1, w0), (c1, c0) = (
            (x[0::2], x[1::2]) for x in (plus, minus, w, c))
        s = np.empty((s1_sq.shape[0], 3, 3))
        s[:, 0, 0] = a_plus**2 * w1 + b_plus**2 * w0
        s[:, 1, 1] = a_minus**2 * w1 + b_minus**2 * w0
        s[:, 0, 1] = s[:, 1, 0] = a_plus * a_minus * w1 + b_plus * b_minus * w0
        s[:, 0, 2] = s[:, 2, 0] = a_plus * c1 - b_plus * c0
        s[:, 1, 2] = s[:, 2, 1] = a_minus * c1 - b_minus * c0
        s[:, 2, 2] = s1_sq / e + s0_sq / (1.0 - e)
    if near[:stop].any():
        warnings.warn(
            "arm variances nearly equal; the lower Neyman bound is weakly identified",
            NearEqualVariancesWarning,
            stacklevel=2,
        )
    sigmas = _checked(s[:stop])  # a failing matrix before that sample raises first
    if stop < zero.shape[0]:
        raise ValidationError("both arm variances are 0: the Neyman covariance needs one positive")
    return sigmas


# -------------------------------------------------------------- sharp route


def _arm_grams(spacing, u, q_other, w, var, sign, counts, segments, second, first):
    """Sums of psi psi' and of psi over each of a batch of A arms, where psi
    is an observation's (V_p, V_o, tau*) influence value: (A, 3, 3) and
    (A, 3) from their quantile spacings ``spacing`` (A, G) across the u-grid
    cells, their samples' u-grids ``u`` (A, G), the other arms' centred
    quantiles ``q_other`` (A, G), 1 / each arm's share ``w``, its variance,
    its ``sign`` (+1 treated, -1 control), its outcomes per segment
    ``counts`` (A, G + 1), its sums of d and d^2 per segment ``segments``
    (A, 2, G + 1), and its whole-arm sums ``second`` (A, 2, 2) of d^2, d^3
    and d^4 and ``first`` (A, 2) of d and d^2.

    With d = y - mean and s the arm's share, psi = B (d, d^2) + g[k] with

        B = [[0, 1], [0, 1], [sign, 0]] / s,

    and g[k] a constant of the segment k = #{u-grid quantiles < y}, one of
    G + 1. Its V_p and V_o entries are (2 S[k] - 2 (u . a) - var) / s: the
    quantile-process piece, -integral of [1{y <= Q(u)} - u] W(u) dQ(u) / s,
    is a step in u, so on the grid it is the suffix sum S[k] of
    a = spacing W. W is the other arm's quantile function less that arm's
    mean, reversed for V_p (the antitone coupling). With both arms centred,
    psi does not move when either arm is shifted; a constant arm, with its
    spacings, d and variance all exactly 0, has psi exactly 0.

    Each arm's numbers are those of the same products on its own 2-D
    arrays, so they do not depend on the batch.
    """
    b = np.zeros((w.shape[0], 3, 2))
    b[:, 0, 1] = b[:, 1, 1] = w
    b[:, 2, 0] = sign * w
    scale = (2.0 * w)[:, None] * spacing
    a = np.empty((w.shape[0], 2, spacing.shape[1]))
    np.multiply(scale, q_other[:, ::-1], out=a[:, 0])
    np.multiply(scale, q_other, out=a[:, 1])
    g = np.zeros((w.shape[0], 3, counts.shape[1]))
    np.cumsum(a[:, :, ::-1], axis=2, out=g[:, :2, -2::-1])
    g[:, :2] -= a @ u[:, :, None] + (var * w)[:, None, None]
    # an empty segment's reduceat entry is the next element, not 0
    g[:, :2] *= (counts > 0)[:, None, :]
    g_t = g.transpose(0, 2, 1)
    cross = b @ (segments @ g_t)
    gram = (
        b @ second @ b.transpose(0, 2, 1)
        + cross + cross.transpose(0, 2, 1)
        + (g * counts[:, None, :]) @ g_t
    )
    return gram, (b @ first[:, :, None])[..., 0] + (g @ counts[:, :, None])[..., 0]


def _run_ends(values: np.ndarray, idx: np.ndarray, end: np.ndarray) -> np.ndarray:
    """For each index ``idx`` into a sorted arm ending at ``end``, the end
    of the run of ties it is in: ``lo + searchsorted(arm, values[idx],
    "right")``. A value whose successor differs ends its run; the rest are
    found by one bisection over all of them at once."""
    end = np.broadcast_to(end, idx.shape)
    run_end = idx + 1
    inside = run_end < end
    tied = np.flatnonzero(inside & (values[np.where(inside, run_end, idx)] == values[idx]))
    if tied.size:
        target = values[idx.flat[tied]]
        lo, hi = run_end.flat[tied] + 1, end.flat[tied]
        while (lo < hi).any():
            mid = (lo + hi) // 2
            right = values[np.minimum(mid, values.shape[0] - 1)] <= target
            lo, hi = np.where((lo < hi) & right, mid + 1, lo), np.where((lo < hi) & ~right, mid, hi)
        run_end.flat[tied] = lo
    return run_end


def sigma_sharp_batch(arms: ArmBatch) -> np.ndarray:
    """Influence-function plug-in covariance for the sharp bounds: one 3x3
    matrix per sample of an ``ArmBatch``, (R, 3, 3), each bit for bit that
    of its batch of one (``sample.arms``).

    Sigma is the empirical covariance of the influence values of (V_hat_p,
    V_hat_o, tau_hat). Their quantile-process term is taken on a trimmed
    uniform u-grid of U_GRID_SIZE points on [trim, 1 - trim] (``_u_trim``),
    in its L-statistic form: a cell's du / f(Q(u)) is the arm's quantile
    spacing across it, so no density is estimated. The u-grid quantiles cut
    each sorted arm into U_GRID_SIZE + 1 segments, on each of which the
    influence is a quadratic in the outcome, so Sigma comes from a few
    whole-arm and per-segment sums (``_arm_grams``), and no per-observation
    influence array is formed.

    Each stage is one array pass over the batch: a gather for the u-grid
    quantiles, one for the order statistics at the cell edges, one
    ``_run_ends`` for the segment edges (and counts), one
    ``np.add.reduceat`` for each per-segment sum of d and d^2; the whole-arm
    sums are n times the arm moments. ``_arm_grams`` and the checks of
    ``_checked`` run on all arms at once.

    Raises ValidationError if an arm has fewer than 30 observations, then
    NumericalError if an arm that is not constant has a variance that
    underflows to 0 or overflows (an outcome scale beyond double
    precision): what the first failing sample raises, stage by stage.
    """
    values, starts, (mean, var, mu3, mu4) = arms
    lo, end, m = starts[:-1], starts[1:], np.diff(starts)
    for n1, n0 in zip(m[0::2].tolist(), m[1::2].tolist()):
        if n1 < 30 or n0 < 30:
            raise ValidationError(f"influence-function covariance needs >= 30 per arm, got n1={n1}, n0={n0}")
    for k in np.flatnonzero((values[lo] != values[end - 1]) & ~((0.0 < var) & (var < math.inf)))[:1]:
        raise NumericalError(
            f"{('treated', 'control')[k % 2]} arm variance {float(var[k])}: the outcome scale "
            f"(arm SD {math.sqrt(var[k]):.3g}) is beyond double precision")
    n = m[0::2] + m[1::2]
    e = m[0::2] / n
    w = 1.0 / np.stack((e, 1.0 - e), axis=1).ravel()
    sign = np.tile([1.0, -1.0], n.shape[0])

    trim = _u_trim(np.minimum(m[0::2], m[1::2]))
    du = (1.0 - 2.0 * trim) / U_GRID_SIZE
    u = trim[:, None] + (np.arange(U_GRID_SIZE) + 0.5) * du[:, None]  # symmetric: 1-u is a flip
    cells = trim[:, None] + np.arange(U_GRID_SIZE + 1) * du[:, None]  # u-grid cell edges
    u, cells = np.repeat(u, 2, axis=0), np.repeat(cells, 2, axis=0)
    spacing = np.diff(values[lo[:, None] + order_statistic(m[:, None], cells)], axis=1)
    idx = lo[:, None] + order_statistic(m[:, None], u)
    q = values[idx]
    # outcomes per segment between consecutive quantiles, and where each starts
    edges = np.concatenate((lo[:, None], _run_ends(values, idx, end[:, None])), axis=1)
    counts = np.diff(edges, axis=1, append=end[:, None])
    del idx

    # sums of d = y - mean and d^2 over each segment, each arm's last one
    # ending on the 0 that follows the arm
    d = zero_slotted(values, starts, mean)
    cut = (edges + np.arange(1, lo.shape[0] + 1)[:, None]).ravel()
    segments = np.empty((lo.shape[0], 2, U_GRID_SIZE + 1))
    segments[:, 0] = np.add.reduceat(d, cut).reshape(lo.shape[0], -1)
    d *= d
    segments[:, 1] = np.add.reduceat(d, cut).reshape(lo.shape[0], -1)
    del d, edges, cut

    q -= mean[:, None]
    second = np.empty((lo.shape[0], 2, 2))
    second[:, 0, 0] = m * var
    second[:, 0, 1] = second[:, 1, 0] = m * mu3
    second[:, 1, 1] = m * mu4
    grams, sums = _arm_grams(
        spacing, u, q[np.arange(lo.shape[0]) ^ 1], w, var, sign, counts, segments, second,
        np.stack((np.zeros(lo.shape[0]), second[:, 0, 0]), axis=1),
    )
    mean_psi = (sums[0::2] + sums[1::2]) / n[:, None]
    entries = (grams[0::2] + grams[1::2]) / n[:, None, None] - mean_psi[:, :, None] * mean_psi[:, None, :]
    return _checked(entries)


# ------------------------------------------------------ delta-method SDs


def _loading_terms(tau_star, tau_b, v_b, config: RobustConfig, conditional: bool = False):
    """Delta-method pieces of tau_b, the minimizer of M at (tau_star, v_b),
    elementwise over broadcast arrays.

    With gap = tau_star - tau_b and A^2 = v_b + gap^2, returns the loading
    on the own bound, (tau*-tau_b)/A^2 * dA/dV = gap/(2A^3); the loading on
    tau*, gap/A^2 * dA/dtau* - 1/A (0.0 when ``conditional``); and the
    objective curvature v_b/A^3 + delta B''(tau_b).
    """
    gap = np.subtract(tau_star, tau_b)
    a_sq = v_b + gap * gap
    a = np.sqrt(a_sq)
    d_v = gap / (2.0 * a_sq * a)
    d_tau = 0.0 if conditional else gap * gap / (a_sq * a) - 1.0 / a
    _, _, b_dd = penalty_derivs(tau_b, config.q)
    return d_v, d_tau, v_b / (a_sq * a) + config.delta * b_dd


def _sd_from_terms(d_v, d_tau, curvature, s_bb, s_bt, s_tt):
    """sqrt(d' S d) / curvature for the loading d = (d_v, d_tau) on (V_b, tau*).

    The quadratic form is written out as fixed-order elementwise sums, in
    the order of (d S) d, so that an entry's value does not depend on the
    shape of the batch it is computed in.
    """
    form = (d_v * s_bb + d_tau * s_bt) * d_v + (d_v * s_bt + d_tau * s_tt) * d_tau
    return np.sqrt(np.maximum(form, 0.0)) / curvature


# An SD's status: "ok", or why the entry has no delta-method SD (q = 1 has
# none by construction), with the message that names each failure
OK, KINK, CURVATURE, Q1 = "ok", "no smooth expansion", "infinite curvature", "q = 1"
STATUS = np.dtype("U19")  # the dtype of a status array, which holds any of the four
_FAILURES = {
    KINK: "no smooth expansion at v_b = 0 with tau_b = tau_star",
    CURVATURE: "no smooth expansion at tau_b = 0 for q < 2: the penalty's curvature is not finite",
}


def prediction_sd_grid(t_grid, tau_b_grid, v_b, sigma_b, config: RobustConfig, conditional: bool = False):
    """Delta-method SD of sqrt(n)(tau_hat_b - tau_b), elementwise, and the
    status of each entry.

    ``t_grid`` (the source effect), ``tau_b_grid`` (the prediction at it),
    ``v_b`` (its variance bound) and the three entries of ``sigma_b`` =
    (S_bb, S_bt, S_tt), the Sigma entries of that bound and of tau*, are
    broadcast against each other. This is the package's one delta-method
    SD: the loading on (V_b, tau*) and the curvature come from
    ``_loading_terms``. With ``conditional=True`` the tau* slot is zeroed,
    giving the SD that treats the source effect as fixed (the two-step
    interval's grid), and S_bt, S_tt are not used.

    A prediction has no smooth expansion where these terms are not finite:
    the loadings at A = 0, the kink v_b = 0 with tau_b = tau_star, where the
    map is only directionally differentiable (status KINK); the curvature
    at tau_b = 0 with q < 2, where B''(0) is infinite (status CURVATURE).
    There the SD is NaN; everywhere else the status is OK. At a zero effect
    with q >= 2 the terms are finite, and the SD is the zero-effect limit:
    sigma_tau / (1 + delta sqrt(V_b / 2)) at q = 2 and sigma_tau for q > 2,
    where B''(0) = 0.
    """
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        d_v, d_tau, m = _loading_terms(t_grid, tau_b_grid, v_b, config, conditional)
        sd = _sd_from_terms(d_v, d_tau, m, *sigma_b)
    kink = ~(np.isfinite(d_v) & np.isfinite(d_tau))
    status = np.where(kink, KINK, np.where(np.isfinite(m), OK, CURVATURE))
    return np.where(status == OK, sd, np.nan), status


def check_status(status) -> None:
    """Raise NumericalError for the first entry of a status array, in C
    order, that has no smooth expansion, with the message naming its
    cause; entries OK and Q1 pass."""
    status = np.asarray(status)
    for k in np.flatnonzero((status == KINK) | (status == CURVATURE))[:1]:
        raise NumericalError(_FAILURES[status.flat[k]])


def conditional_sd_bounds(s, tau_b, v_b, s_bb, config: RobustConfig):
    """Enclosures of a prediction's slope and of its conditional SD over a
    whole interval of source effects, from the interval's two ends alone.

    ``s`` holds |t| at the two ends of an interval of one sign and
    ``tau_b`` the predictions there, on a last axis of 2; ``v_b`` and
    ``s_bb`` (its Sigma entry) broadcast against them, constant along that
    axis. With gap = |t| - |tau_b|, A^2 = v_b + gap^2 and
    r = delta B''(tau_b) A^3 / v_b, the minimax condition gives
    d|tau_b|/d|t| = (v_b / A^3) / K = 1 / (1 + r), K the curvature of
    ``_loading_terms``, and the conditional SD
    sqrt(S_bb) gap / (2 A^3 K) = sqrt(S_bb) gap / (2 v_b (1 + r)). The slope
    lies in (0, 1] where v_b > 0, so |tau_b|, the gap and A all grow with |t|
    and lie between their values at the ends, and
    ``solver.penalty_curvature_range`` bounds B'' and |B'''| between those
    of |tau_b|. Differentiating, with A' <= gap' = r / (1 + r),

        sd' = sqrt(S_bb) (r - gap r') / (2 v_b (1 + r)^2),
        r'  = delta (B''' tau_b' A^3 + 3 B'' A^2 A') / v_b.

    Returns, one entry per interval, (slope_lo, slope_hi, sd_hi, sd_slope,
    tau_err, sd_err): the range of the slope d|tau_b|/d|t|, the largest
    conditional SD, a bound on its slope, and the rounding allowances of a
    computed prediction and of a computed SD. The allowance on a prediction
    is 16 ulps of (4A + |t|) A^2 / v_b, the minimax condition's rounding
    over its slope K >= v_b / A^3; the SD's follows from the gap's relative
    error. Every enclosure is widened by a relative 1e-4, which covers that
    error in the ends themselves, and is NaN where the gap's error exceeds
    1e-6 of it (no shrinkage to speak of), where v_b = 0 or |tau_b| = 0, or
    where A^3 underflows.
    """
    s, tau_b, v_b, s_bb = np.broadcast_arrays(s, np.abs(tau_b), v_b, s_bb)
    v, root_s = v_b[..., 0], np.sqrt(s_bb[..., 0])
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        gap = s - tau_b
        a = np.sqrt(v_b + gap * gap)
        (tau_lo, gap_lo, a_lo, _), (tau_hi, gap_hi, a_hi, s_hi) = (
            [f(x, axis=-1) for x in (tau_b, gap, a, s)] for f in (np.min, np.max))
        b_lo, b_hi, b_ddd = penalty_curvature_range(tau_lo, tau_hi, config.q)
        k = config.delta / v
        r_lo, r_hi = k * b_lo * a_lo**3, k * b_hi * a_hi**3
        slope_hi = 1.0 / (1.0 + r_lo)
        r_slope = k * (b_ddd * slope_hi * a_hi**3 + 3.0 * b_hi * a_hi**2 * r_hi / (1.0 + r_hi))
        scale = root_s / (2.0 * v)
        tau_err = 16.0 * _EPS * (4.0 * a_hi + s_hi) * a_hi**2 / v
        gap_err = (tau_err + 2.0 * _EPS * s_hi) / gap_lo
        sd_hi = scale * gap_hi / (1.0 + r_lo)
        valid = (gap_err <= 1e-6) & (a_lo**3 >= np.finfo(float).tiny) & (tau_lo > 0.0)
        widen = np.where(valid, 1e-4, np.nan)
        return (
            (1.0 - widen) / (1.0 + r_hi),
            (1.0 + widen) * slope_hi,
            (1.0 + widen) * sd_hi,
            (1.0 + widen) * scale * (r_hi + gap_hi * r_slope) / (1.0 + r_lo) ** 2,
            tau_err,
            sd_hi * (gap_err + 64.0 * _EPS),
        )
