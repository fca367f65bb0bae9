"""Joint asymptotic covariance of the estimated bounds and the source ATE,
and the delta-method loadings that turn it into standard errors for the
robust predictions.

The joint limit of sqrt(n) * (V_hat_p - V_p, V_hat_o - V_o, tau_hat - tau*)
is mean-zero normal with covariance Sigma. Two estimation routes are
provided: a closed form from arm moments (valid for the Neyman bounds) and
an influence-function plug-in (valid for the sharp bounds). All matrices
use the row/column order (V_p, V_o, tau*).

The plug-in is the empirical covariance of per-observation influence
values, but it never forms them. An observation's influence is a quadratic
in its outcome plus a constant of the u-grid segment the outcome falls in,
so Sigma follows from a few sums over each sorted arm: per segment, the
count and the sums of d and d^2 (d the outcome less its arm mean), and
over the whole arm, the sums of d to d^4, which are n times the arm's
central moments (``ExperimentalSample.arm_moments``). The memory it needs
beyond the sample is two arm-length rows, and its time is one pass over
each arm.
``tests/oracles.py`` keeps the (3, n) influence array as the reference.

``sigma_sharp_many`` runs in two stages. As each sample arrives, it is
reduced to O(U_GRID_SIZE) summaries and then dropped: its u-grid quantiles,
each arm's linearly binned KDE grid (Silverman 1982, AS 176) and those
sums. The batch stage convolves every grid of one FFT period in one
``rfft``/``irfft`` pair, against a kernel spectrum cached per period (in
bin units the kernel is the same for every sample), then assembles and
checks all the 3x3 matrices as arrays. ``sigma_sharp`` is its batch of one,
and an entry of a batch is bit for bit that of its sample alone.
"""

from __future__ import annotations

import enum
import functools
import math
import warnings
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .exceptions import NumericalError, ValidationError
from .moments import ArmMoments
from .sample import ExperimentalSample, quantile_at
from .solver import RobustConfig, penalty_derivs

__all__ = [
    "SigmaMethod",
    "SigmaMatrix",
    "NearEqualVariancesWarning",
    "sigma_neyman",
    "sigma_sharp",
    "sigma_sharp_many",
    "prediction_sd_grid",
    "zero_tau_limit_sd",
]

DENSITY_FLOOR = 1e-6
KDE_BINS_PER_BANDWIDTH = 32  # binned-KDE grid spacing is h / 32
KDE_REACH_BANDWIDTHS = 8  # each binned-KDE window reaches 8 h past its points
U_GRID_SIZE = 400  # u-grid points on the trimmed band of the sharp Sigma
U_TRIM_MAX = 0.01
U_TRIM_MIN = 2.5e-4


def _u_trim(n_min: int) -> float:
    """Tail trim for the u-grid, tightening as the smaller arm grows.

    Trimming controls the 1/f-weighted tail blowup, but a fixed trim leaves
    an O(trim) bias in the fourth-moment-sized entries (the clipped quantile
    influence stops cancelling against the arm-variance influence out in the
    tails), so the band widens with sample size: never wider than 1%, never
    narrower than 0.025%.
    """
    return min(U_TRIM_MAX, max(1.0 / n_min, U_TRIM_MIN))


class NearEqualVariancesWarning(UserWarning):
    """The two arm variances are nearly equal, so the lower Neyman bound sits
    at the edge of its regular regime and its standard error is fragile."""


class SigmaMethod(str, enum.Enum):
    NEYMAN_ANALYTIC = "neyman_analytic"
    SHARP_PLUGIN = "sharp_plugin"


@dataclass(frozen=True)
class SigmaMatrix:
    """3x3 covariance of the joint limit, order (V_p, V_o, tau*).

    Construction symmetrizes, validates nonnegative diagonals, and repairs
    indefiniteness beyond plug-in noise (smallest eigenvalue below
    -1e-8 * trace) by clipping negative eigenvalues to zero.
    """

    entries: np.ndarray
    method: SigmaMethod

    def __post_init__(self):
        s = np.asarray(self.entries, dtype=float)
        if s.shape != (3, 3):
            raise ValidationError(f"expected a 3x3 matrix, got shape {s.shape}")
        s = _checked(s[None])[0]
        s.setflags(write=False)
        object.__setattr__(self, "entries", s)
        object.__setattr__(self, "method", SigmaMethod(self.method))

    @property
    def sigma_tau(self) -> float:
        """Asymptotic standard deviation of sqrt(n)(tau_hat - tau*)."""
        return math.sqrt(max(self.entries[2, 2], 0.0))


def _checked(s: np.ndarray) -> np.ndarray:
    """SigmaMatrix's checks and repair, over an (R, 3, 3) stack at once.

    Raises what the first invalid matrix raises on its own: non-finite
    entries, then asymmetry, then a negative diagonal entry.
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
    return s


def _sigma_matrices(entries: np.ndarray, method: SigmaMethod) -> list:
    """A SigmaMatrix for each matrix of an (R, 3, 3) stack, checked as one
    array by ``_checked`` instead of one ``__post_init__`` call each."""
    entries = _checked(entries)
    entries.setflags(write=False)
    out = []
    for s in entries:
        sigma = object.__new__(SigmaMatrix)
        object.__setattr__(sigma, "entries", s)
        object.__setattr__(sigma, "method", method)
        out.append(sigma)
    return out


# ------------------------------------------------------------- Neyman route


def sigma_neyman(moments: ArmMoments) -> SigmaMatrix:
    """Closed-form plug-in covariance for the Neyman bounds.

    The bounds (sigma1 +- sigma0)^2 are smooth in the two arm variances, so
    the delta method gives loadings (1 +- sigma0/sigma1) and
    (1 +- sigma1/sigma0) on the per-arm variance influence functions, which
    are independent across arms. Third/fourth central moments enter through
    Var and Cov of the variance estimators.

    Raises
    ------
    ValidationError
        If either arm variance is zero.

    Warns
    -----
    NearEqualVariancesWarning
        When sigma1^2/sigma0^2 is within 1e-3 of 1; the lower-bound loading
        then nearly vanishes and its standard error is unreliable.
    """
    s1_sq, s0_sq = moments.sigma1_sq, moments.sigma0_sq
    if s1_sq <= 0.0 or s0_sq <= 0.0:
        raise ValidationError("both arm variances must be positive for the Neyman covariance")
    if abs(s1_sq / s0_sq - 1.0) < 1e-3:
        warnings.warn(
            "arm variances nearly equal; the lower Neyman bound is weakly identified",
            NearEqualVariancesWarning,
            stacklevel=2,
        )
    e = moments.e_hat
    s1, s0 = math.sqrt(s1_sq), math.sqrt(s0_sq)
    a_plus, a_minus = 1.0 + s0 / s1, 1.0 - s0 / s1
    b_plus, b_minus = 1.0 + s1 / s0, 1.0 - s1 / s0
    # variances/covariances of the per-arm influence pieces
    w1 = (moments.mu4_1 - s1_sq**2) / e
    w0 = (moments.mu4_0 - s0_sq**2) / (1.0 - e)
    c1 = moments.mu3_1 / e
    c0 = moments.mu3_0 / (1.0 - e)
    var_tau = s1_sq / e + s0_sq / (1.0 - e)

    s = np.empty((3, 3))
    s[0, 0] = a_plus**2 * w1 + b_plus**2 * w0
    s[1, 1] = a_minus**2 * w1 + b_minus**2 * w0
    s[0, 1] = s[1, 0] = a_plus * a_minus * w1 + b_plus * b_minus * w0
    s[0, 2] = s[2, 0] = a_plus * c1 - b_plus * c0
    s[1, 2] = s[2, 1] = a_minus * c1 - b_minus * c0
    s[2, 2] = var_tau
    return SigmaMatrix(entries=s, method=SigmaMethod.NEYMAN_ANALYTIC)


# -------------------------------------------------------------- sharp route


def _sorted_percentile(y_sorted: np.ndarray, fraction: float) -> float:
    """``np.percentile(y, 100 * fraction)`` of a sorted array, bit for bit.

    numpy's default (linear) method: the virtual index (n - 1) * fraction,
    and its ``_lerp``, which interpolates from the upper neighbour when the
    weight is at least 1/2.
    """
    n = y_sorted.shape[0]
    virtual = (n - 1) * fraction
    i = math.floor(virtual)
    if i >= n - 1:
        return float(y_sorted[-1])
    t = virtual - i
    a, b = float(y_sorted[i]), float(y_sorted[i + 1])
    diff = b - a
    return b - diff * (1.0 - t) if t >= 0.5 else a + diff * t


def _silverman_bandwidth(y_sorted: np.ndarray, var: float) -> float:
    """Silverman's rule-of-thumb bandwidth of a sorted arm whose biased
    (1/n) variance is ``var``."""
    sd = math.sqrt(var)
    iqr = _sorted_percentile(y_sorted, 0.75) - _sorted_percentile(y_sorted, 0.25)
    spread = min(sd, iqr / 1.34) if iqr > 0.0 else sd
    return 0.9 * spread * y_sorted.shape[0] ** (-0.2)


def _bin_kde(data: np.ndarray, x: np.ndarray, h: float):
    """The linear-binning half of the Gaussian-kernel density of sorted
    ``data`` at ascending points ``x``, by linear binning and FFT convolution
    (Silverman 1982, AS 176); ``_smooth_kde`` is the other half. Returns the
    bin weights of every window in one array, the points ``x`` in bins along
    it, and the factor that turns a smoothed bin into a density.

    Bins are h / KDE_BINS_PER_BANDWIDTH wide. With c = KDE_REACH_BANDWIDTHS,
    ``x`` splits wherever consecutive points are more than 2c h apart, and
    each run gets a window of bins reaching c h past its ends. So the grid
    length is set by ``x``, never by the range of ``data``: at most
    2 c KDE_BINS_PER_BANDWIDTH + 3 bins per point. A datum outside every
    window lies more than c h from every point and would add under
    exp(-c^2/2) of one kernel peak; it is left out of the sum but counted in
    the normalisation.

    ``sigma_sharp_many`` runs the two halves apart: ``_bin_kde`` as each
    sample arrives, and ``_smooth_kde`` once per batch.
    """
    r = KDE_BINS_PER_BANDWIDTH * KDE_REACH_BANDWIDTHS  # kernel half-width in bins
    dx = h / KDE_BINS_PER_BANDWIDTH
    cut = np.flatnonzero(np.diff(x) > 2 * r * dx) + 1
    first = x[np.concatenate(([0], cut))]
    last = x[np.concatenate((cut - 1, [x.shape[0] - 1]))]
    lo = first - r * dx
    # r bins of reach on either side, plus one spare so that no datum's
    # upper neighbour bin falls in the next window
    size = np.ceil((last - first) / dx).astype(np.intp) + 2 * r + 2
    offset = np.cumsum(size) - size
    grid = np.zeros(int(size.sum()))
    for lo_w, hi_w, size_w, off_w in zip(lo, last + r * dx, size, offset):
        i0, i1 = np.searchsorted(data, lo_w, "left"), np.searchsorted(data, hi_w, "right")
        pos = (data[i0:i1] - lo_w) / dx
        j = pos.astype(np.intp)
        pos -= j  # each datum's share for the bin above it
        upper = np.bincount(j, weights=pos, minlength=size_w)
        window = grid[off_w : off_w + size_w]
        window += np.bincount(j, minlength=size_w) - upper
        window[1:] += upper[:-1]
    window_of = np.searchsorted(cut, np.arange(x.shape[0]), side="right")
    at = offset[window_of] + (x - lo[window_of]) / dx
    return grid, at, 1.0 / (data.shape[0] * h * math.sqrt(2.0 * math.pi))


# Periods are powers of two: on a u-grid of U_GRID_SIZE = 400 points there
# are at most nine of them, the largest 2^18 bins, whose spectrum takes 2 MB.
@functools.lru_cache(maxsize=16)
def _kernel_spectrum(period: int) -> np.ndarray:
    """``rfft`` of the Gaussian kernel in bins, wrapped onto a circle of
    ``period`` bins. In bin units the kernel depends on nothing but
    KDE_BINS_PER_BANDWIDTH and KDE_REACH_BANDWIDTHS, so one spectrum serves
    every arm, bandwidth and batch with this period."""
    r = KDE_BINS_PER_BANDWIDTH * KDE_REACH_BANDWIDTHS
    kernel = np.zeros(period)
    kernel[: r + 1] = np.exp(-0.5 * (np.arange(r + 1) / KDE_BINS_PER_BANDWIDTH) ** 2)
    kernel[period - r :] = kernel[r:0:-1]
    spectrum = np.fft.rfft(kernel)
    spectrum.setflags(write=False)
    return spectrum


def _smooth_kde(binned: list) -> list:
    """The convolution half of the binned KDE, for a list of ``_bin_kde``
    results: the density of each at its points.

    Every grid is convolved with the kernel by FFT. Grids of one period are
    stacked into one ``rfft``/``irfft`` pair, whose rows are bit for bit the
    transforms of the grids one at a time, so a density does not depend on
    the list it is smoothed in.
    """
    r = KDE_BINS_PER_BANDWIDTH * KDE_REACH_BANDWIDTHS
    by_period = {}
    for i, (grid, _, _) in enumerate(binned):
        # a period of at least len(grid) + r keeps the circular convolution
        # from wrapping any bin onto an evaluated one
        by_period.setdefault(1 << (grid.shape[0] + r).bit_length(), []).append(i)
    out = [None] * len(binned)
    for period, members in by_period.items():
        stack = np.zeros((len(members), period))
        for row, i in zip(stack, members):
            row[: binned[i][0].shape[0]] = binned[i][0]
        spectra = np.fft.rfft(stack, period)
        spectra *= _kernel_spectrum(period)
        np.fft.irfft(spectra, period, out=stack)  # the smoothed grids replace the grids
        del spectra
        bins = np.arange(period)
        for row, i in zip(stack, members):
            grid, at, norm = binned[i]
            out[i] = np.interp(at, bins[: grid.shape[0]], row[: grid.shape[0]]) * norm
    return out


class _Arm(NamedTuple):
    """One sorted arm, reduced to the O(U_GRID_SIZE) numbers Sigma needs.

    ``kde`` and the sums are None for a zero-spread arm, whose influence
    values are all zero.
    """

    kde: tuple | None  # _bin_kde of the arm at its quantiles
    q: np.ndarray  # the u-grid quantiles less the arm's mean
    var: float
    w: float  # 1 / the arm's share of the sample
    b: np.ndarray | None  # (3, 2): psi's loadings on (d, d^2)
    counts: np.ndarray | None  # (U_GRID_SIZE + 1,) outcomes per segment
    segments: np.ndarray | None  # (2, U_GRID_SIZE + 1): sums of d and d^2 per segment
    second: np.ndarray | None  # (2, 2): whole-arm sums of d^2, d^3 and d^4, n [[var, mu3], [mu3, mu4]]
    first: np.ndarray | None  # (2,): whole-arm sums of d and d^2, [0, n var]


class _Summary(NamedTuple):
    """One sample, reduced to what ``sigma_sharp_many`` keeps of it."""

    n: int
    u: np.ndarray
    du: float
    treated: _Arm
    control: _Arm


def _summarize_arm(y, moments, q, share, sign) -> _Arm:
    """``_Arm`` of the sorted outcomes ``y``, whose (mean, variance, mu3,
    mu4) are ``moments``, with u-grid quantiles ``q``; ``sign`` is +1 for
    the treated arm and -1 for the control arm. The whole-arm sums are n
    times the moments. The per-observation work of Sigma is all here: one
    pass that bins the arm for its KDE and one that sums d = y - mean and
    d^2 over each segment between consecutive quantiles
    (``np.add.reduceat``)."""
    mean, var, mu3, mu4 = moments
    w = 1.0 / share
    if y[0] == y[-1]:
        return _Arm(None, q - mean, var, w, None, None, None, None, None)
    h = _silverman_bandwidth(y, var)
    if not 0.0 < h < math.inf:  # a variance that underflows to 0, a spread that overflows
        raise NumericalError(
            f"KDE bandwidth {h}: the outcome scale (arm SD {math.sqrt(var):.3g}) is beyond double precision")
    kde = _bin_kde(y, q, h)  # before powers, to keep the peak down
    n = y.shape[0]
    powers = np.zeros((2, n + 1))  # d and d^2, then a zero column that ends the last segments
    np.subtract(y, mean, out=powers[0, :n])
    np.multiply(powers[0], powers[0], out=powers[1])
    edges = np.concatenate(([0], np.searchsorted(y, q, side="right"), [n]))
    return _Arm(
        kde=kde,
        q=q - mean,
        var=var,
        w=w,
        b=np.array([[0.0, w], [0.0, w], [sign * w, 0.0]]),
        counts=edges[1:] - edges[:-1],
        segments=np.add.reduceat(powers, edges[:-1], axis=1),
        second=n * np.array([[var, mu3], [mu3, mu4]]),
        first=np.array([0.0, n * var]),
    )


def _summarize(sample: ExperimentalSample) -> _Summary:
    """The per-sample stage of ``sigma_sharp_many``."""
    if sample.n1 < 30 or sample.n0 < 30:
        raise ValidationError(
            f"influence-function covariance needs >= 30 per arm, got n1={sample.n1}, n0={sample.n0}"
        )

    y1, y0 = sample.sorted_arms
    moments1, moments0 = sample.arm_moments
    e = sample.n1 / sample.n

    trim = _u_trim(min(sample.n1, sample.n0))
    du = (1.0 - 2.0 * trim) / U_GRID_SIZE
    u = trim + (np.arange(U_GRID_SIZE) + 0.5) * du  # symmetric: 1-u is a flip
    q1, q0 = quantile_at(y1, u), quantile_at(y0, u)
    return _Summary(
        sample.n, u, du,
        _summarize_arm(y1, moments1, q1, e, 1.0),
        _summarize_arm(y0, moments0, q0, 1.0 - e, -1.0),
    )


def _arm_grams(arms: list, f: np.ndarray, u: np.ndarray, du: np.ndarray, q_other: np.ndarray):
    """Sums of psi psi' and of psi over each of a batch of arms, where psi
    is an observation's (V_p, V_o, tau*) influence value: (A, 3, 3) and
    (A, 3) from A ``_Arm`` records, their densities ``f`` (A, G), their
    samples' u-grids ``u`` (A, G) and steps ``du`` (A,), and the other
    arms' centred quantiles ``q_other`` (A, G).

    With d = y - mean and s the arm's share, psi = B (d, d^2) + g[k] with

        B = [[0, 1], [0, 1], [sign, 0]] / s,

    and g[k] a constant of the segment k = #{u-grid quantiles < y}, one of
    G + 1. Its V_p and V_o entries are (2 S[k] - 2 (u . a) - var) / s: the
    quantile-process piece, the integral of Qdot(u) W(u) du with
    Qdot(u) = -[1{y <= Q(u)} - u] / (s f(Q(u))), is a step in u, so on the
    grid it is the suffix sum S[k] of a = du W / f. W is the other arm's
    quantile function less that arm's mean, reversed for V_p (the antitone
    coupling). With both arms centred, psi does not move when either arm is
    shifted. Both sums follow from the segment and whole-arm sums of the
    ``_Arm``.

    Each arm's numbers are those of the same products on its own 2-D
    arrays, so they do not depend on the batch.
    """
    w = np.array([arm.w for arm in arms])
    var = np.array([arm.var for arm in arms])
    b = np.array([arm.b for arm in arms])
    counts = np.array([arm.counts for arm in arms])
    segments = np.array([arm.segments for arm in arms])
    scale = (2.0 * du * w)[:, None] / f
    a = np.empty((len(arms), 2, f.shape[1]))
    np.multiply(scale, q_other[:, ::-1], out=a[:, 0])
    np.multiply(scale, q_other, out=a[:, 1])
    g = np.zeros((len(arms), 3, counts.shape[1]))
    np.cumsum(a[:, :, ::-1], axis=2, out=g[:, :2, -2::-1])
    g[:, :2] -= a @ u[:, :, None] + (var * w)[:, None, None]
    # an empty segment's reduceat entry is the next element, not 0
    g[:, :2] *= (counts > 0)[:, None, :]
    g_t = g.transpose(0, 2, 1)
    cross = b @ (segments @ g_t)
    gram = (
        b @ np.array([arm.second for arm in arms]) @ b.transpose(0, 2, 1)
        + cross + cross.transpose(0, 2, 1)
        + (g * counts[:, None, :]) @ g_t
    )
    first = np.array([arm.first for arm in arms])
    return gram, (b @ first[:, :, None])[..., 0] + (g @ counts[:, :, None])[..., 0]


def _sigmas(summaries: list) -> list:
    """The batch stage of ``sigma_sharp_many``: every density in one
    ``_smooth_kde`` call, then the Gram sums of all arms and the SigmaMatrix
    checks as array operations. Raises on the first arm, in sample order and
    treated before control, whose density falls below DENSITY_FLOOR."""
    arms = [arm for s in summaries for arm in (s.treated, s.control)]
    spread = [i for i, arm in enumerate(arms) if arm.kde is not None]
    f = np.array(_smooth_kde([arms[i].kde for i in spread]))
    low = np.flatnonzero((f < DENSITY_FLOOR).any(axis=-1))
    if low.size:
        arm = "treated" if spread[low[0]] % 2 == 0 else "control"
        raise NumericalError(f"{arm}-arm density below floor on the u-grid")

    grams = np.zeros((len(arms), 3, 3))
    sums = np.zeros((len(arms), 3))
    if spread:
        grams[spread], sums[spread] = _arm_grams(
            [arms[i] for i in spread],
            f,
            np.array([summaries[i // 2].u for i in spread]),
            np.array([summaries[i // 2].du for i in spread]),
            np.array([arms[i ^ 1].q for i in spread]),
        )
    n = np.array([s.n for s in summaries], dtype=float)
    mean = (sums[0::2] + sums[1::2]) / n[:, None]
    entries = (grams[0::2] + grams[1::2]) / n[:, None, None] - mean[:, :, None] * mean[:, None, :]
    return _sigma_matrices(entries, SigmaMethod.SHARP_PLUGIN)


def sigma_sharp_many(samples) -> list:
    """``sigma_sharp`` for each sample of an iterable, in order.

    Each sample is reduced as it arrives to its u-grid quantiles, its arms'
    binned KDE grids and their segment and whole-arm sums, all
    O(U_GRID_SIZE), and is not kept: an iterable that draws its samples
    lazily holds one at a time. Then the batch stage smooths every grid of
    one FFT period in one ``rfft``/``irfft`` pair against a cached kernel
    spectrum, and builds and checks all 3x3 matrices as arrays. An entry is
    bit for bit the ``sigma_sharp`` of its sample alone.

    Raises
    ------
    ValidationError, NumericalError
        The first error met, which need not be the first failing sample's:
        run batches of one to attribute an error to a sample.
    """
    summaries = []
    for sample in samples:
        summaries.append(_summarize(sample))
        del sample  # so that the next draw does not join it
    return _sigmas(summaries)


def sigma_sharp(sample: ExperimentalSample) -> SigmaMatrix:
    """Influence-function plug-in covariance for the sharp bounds.

    Sigma is the empirical covariance of the per-observation influence
    values of (V_hat_p, V_hat_o, tau_hat), which combine arm-mean,
    arm-variance and quantile-process contributions; the latter go through
    binned kernel density estimates (_bin_kde, _smooth_kde) at the empirical
    quantiles of a trimmed uniform u-grid of U_GRID_SIZE points on the band
    [trim, 1 - trim], where trim shrinks from 1% toward 0.025% as the
    smaller arm grows (see _u_trim). The u-grid quantiles cut each sorted
    arm (``sample.sorted_arms``) into U_GRID_SIZE + 1 segments, and an
    observation's influence is a quadratic in its outcome plus a constant of
    its segment. So each arm's sums of psi psi' and psi come from a few
    whole-arm and per-segment sums (_arm_grams), and Sigma is their total
    over n less the outer product of the mean: no per-observation influence
    array is formed. This is the batch of one of ``sigma_sharp_many``.

    Raises
    ------
    ValidationError
        If either arm has fewer than 30 observations.
    NumericalError
        If an arm's KDE bandwidth is not positive and finite (an outcome
        scale beyond double precision), or an estimated arm density falls
        below 1e-6 anywhere the integrals need it (extremely heavy tails or
        degenerate spread).
    """
    return sigma_sharp_many([sample])[0]


# ------------------------------------------------------ delta-method SDs


def _check_expansion(tau_star, tau_b, v_b, conditional: bool = False) -> None:
    """Raise NumericalError unless every prediction tau_b has a smooth
    expansion: none where v_b = 0 and tau_b = tau_star (the kink) and,
    unless ``conditional``, none where tau_b is numerically zero
    (|tau_b| < 1e-10, the zero-effect limit law applies; a conditional SD
    leaves out the noise of tau_star that this limit is about).

    Entries are checked in C order, each for the zero-effect limit first and
    then for the kink, so an (R, 2) batch raises what its first failing
    entry raises on its own.
    """
    tau_b = np.asarray(tau_b, dtype=float)
    gap = tau_star - tau_b
    zero = np.zeros(tau_b.shape, dtype=bool) if conditional else np.abs(tau_b) < 1e-10
    kink = v_b + gap * gap == 0.0
    bad = np.flatnonzero(zero | kink)
    if bad.size == 0:
        return
    if zero.flat[bad[0]]:
        slot = np.unravel_index(bad[0], tau_b.shape)[-1] if tau_b.ndim else 0
        raise NumericalError(
            f"prediction at slot {slot} is numerically zero; use the zero-effect limit"
        )
    raise NumericalError("no smooth expansion at v_b = 0 with tau_b = tau_star")


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


def prediction_sd_grid(t_grid, tau_b_grid, v_b, sigma_b, config: RobustConfig, conditional: bool = False):
    """Delta-method SD of sqrt(n)(tau_hat_b - tau_b), elementwise.

    ``t_grid`` (the source effect), ``tau_b_grid`` (the prediction at it),
    ``v_b`` (its variance bound) and the three entries of ``sigma_b`` =
    (S_bb, S_bt, S_tt), the Sigma entries of that bound and of tau*, are
    broadcast against each other. This is the package's one delta-method
    SD: the loading on (V_b, tau*) and the curvature come from
    ``_loading_terms``. With ``conditional=True`` the tau* slot is zeroed,
    giving the SD that treats the source effect as fixed (the two-step
    interval's grid), and S_bt, S_tt are not used.

    Raises
    ------
    NumericalError
        As ``_check_expansion``, where a prediction has no smooth
        expansion; when ``conditional``, only at the kink.
    """
    _check_expansion(t_grid, tau_b_grid, v_b, conditional)
    d_v, d_tau, m = _loading_terms(t_grid, tau_b_grid, v_b, config, conditional)
    return _sd_from_terms(d_v, d_tau, m, *sigma_b)


def zero_tau_limit_sd(sigma_tau: float, v_b: float, config: RobustConfig) -> float:
    """Limiting SD of sqrt(n) * tau_hat_b when the source effect is zero.

    Equals sigma_tau / (1 + delta * sqrt(V_b/2)) for q = 2 and plain
    sigma_tau for q > 2. Diagnostic only: the two-step procedure never
    reaches this regime because its first step must reject a zero effect.

    Raises
    ------
    ValidationError
        For q < 2, where the limit law is non-normal, and on nonpositive
        sigma_tau or negative v_b.
    """
    if config.q < 2.0:
        raise ValidationError("zero-effect limit is non-normal for q < 2")
    if sigma_tau <= 0.0:
        raise ValidationError(f"sigma_tau must be positive, got {sigma_tau}")
    if v_b < 0.0:
        raise ValidationError(f"variance bound must be nonnegative, got {v_b}")
    if config.q == 2.0:
        return sigma_tau / (1.0 + config.delta * math.sqrt(v_b / 2.0))
    return sigma_tau
