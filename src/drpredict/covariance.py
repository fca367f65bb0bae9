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
central moments (``sample.ArmBatch.moments``). The memory it needs beyond
the sample and its sorted arms is two rows per observation (the KDE's bin
positions and bins), and its time is a few passes over each arm.
``tests/oracles.py`` keeps the (3, n) influence array as the reference.

``sigma_sharp_batch`` takes the samples of one ``sample.ArmBatch``, their
sorted arms in one array, and runs each stage once over the batch: the
u-grid quantiles, the segment sums (``np.add.reduceat``), the bandwidths,
the linearly binned KDE (Silverman 1982, AS 176) as one ``bincount`` and
one ``rfft``/``irfft`` pair per FFT period against a kernel spectrum
cached per period (in bin units the kernel is the same for every sample),
and the assembly and checks of all 3x3 matrices. ``sigma_sharp`` is its
batch of one, and an entry of a batch is bit for bit that of its sample
alone.

No density needs a floor: a u-grid quantile is a datum of its arm, so the
KDE there is at least K(1/32) / (m h), with K the Gaussian kernel, m the arm
size and h its Silverman bandwidth, at most 0.9 sd m^-0.2: f * sd >= 0.443
m^-0.8. Outcome scales beyond double precision fail the bandwidth check.
"""

from __future__ import annotations

import functools
import math
import warnings
from dataclasses import dataclass

import numpy as np

from .exceptions import NumericalError, ValidationError
from .moments import ArmMoments
from .sample import ArmBatch, ExperimentalSample, order_statistic, zero_slotted
from .solver import RobustConfig, penalty_derivs

__all__ = [
    "SigmaMatrix",
    "NearEqualVariancesWarning",
    "sigma_neyman",
    "sigma_sharp",
    "sigma_sharp_batch",
    "prediction_sd_grid",
    "zero_tau_limit_sd",
]

KDE_BINS_PER_BANDWIDTH = 32  # binned-KDE grid spacing is h / 32
KDE_REACH_BANDWIDTHS = 8  # each binned-KDE window reaches 8 h past its points
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


@dataclass(frozen=True)
class SigmaMatrix:
    """3x3 covariance of the joint limit, order (V_p, V_o, tau*).

    Construction symmetrizes, validates nonnegative diagonals, and repairs
    indefiniteness beyond plug-in noise (smallest eigenvalue below
    -1e-8 * trace) by clipping negative eigenvalues to zero.
    """

    entries: np.ndarray

    def __post_init__(self):
        s = np.asarray(self.entries, dtype=float)
        if s.shape != (3, 3):
            raise ValidationError(f"expected a 3x3 matrix, got shape {s.shape}")
        s = _checked(s[None])[0]
        s.setflags(write=False)
        object.__setattr__(self, "entries", s)

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


def _sigma_matrices(entries: np.ndarray) -> list:
    """A SigmaMatrix for each matrix of an (R, 3, 3) stack, checked as one
    array by ``_checked`` instead of one ``__post_init__`` call each."""
    entries = _checked(entries)
    entries.setflags(write=False)
    out = []
    for s in entries:
        sigma = object.__new__(SigmaMatrix)
        object.__setattr__(sigma, "entries", s)
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
    return SigmaMatrix(s)


# -------------------------------------------------------------- sharp route


def _sorted_percentiles(values: np.ndarray, starts: np.ndarray, fraction: float) -> np.ndarray:
    """``np.percentile(arm, 100 * fraction)`` of each sorted arm
    ``values[starts[k]:starts[k + 1]]``, bit for bit.

    numpy's default (linear) method: the virtual index (m - 1) * fraction,
    and its ``_lerp``, which interpolates from the upper neighbour when the
    weight is at least 1/2.
    """
    lo, m = starts[:-1], np.diff(starts)
    virtual = (m - 1) * fraction
    i = np.floor(virtual).astype(np.intp)
    t = virtual - i
    a = values[lo + np.minimum(i, m - 1)]
    b = values[lo + np.minimum(i + 1, m - 1)]
    diff = b - a
    return np.where(i >= m - 1, a, np.where(t >= 0.5, b - diff * (1.0 - t), a + diff * t))


def _silverman_bandwidths(values: np.ndarray, starts: np.ndarray, var: np.ndarray) -> np.ndarray:
    """Silverman's rule-of-thumb bandwidth of each sorted arm of a ragged
    array (as ``_sorted_percentiles``) whose biased (1/m) variance is
    ``var``."""
    with np.errstate(over="ignore", invalid="ignore"):  # the caller checks for a finite h
        sd = np.sqrt(var)
        iqr = _sorted_percentiles(values, starts, 0.75) - _sorted_percentiles(values, starts, 0.25)
        spread = np.where(iqr > 0.0, np.minimum(sd, iqr / 1.34), sd)
        # Python's pow, not np.power: numpy's vector power may round otherwise
        return 0.9 * spread * np.array([m ** (-0.2) for m in np.diff(starts).tolist()])


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


def _kde(values: np.ndarray, lo: np.ndarray, hi: np.ndarray, x: np.ndarray, h: np.ndarray) -> np.ndarray:
    """Gaussian-kernel densities of the sorted arms ``values[lo[k]:hi[k]]``
    at the ascending rows ``x[k]`` with bandwidths ``h[k]``, (K, G), by
    linear binning and FFT convolution (Silverman 1982, AS 176).

    Bins are h / KDE_BINS_PER_BANDWIDTH wide. With c = KDE_REACH_BANDWIDTHS,
    a row of ``x`` splits wherever consecutive points are more than 2c h
    apart, and each run gets a window of bins reaching c h past its ends.
    So an arm's grid length is set by its points, never by its range: at
    most 2 c KDE_BINS_PER_BANDWIDTH + 3 bins per point. A datum outside
    every window lies more than c h from every point and would add under
    exp(-c^2/2) of one kernel peak; it is left out of the sum but counted in
    the normalisation.

    Every arm's windows lie end to end in one row of bins, the rows end to
    end in one array, and one ``bincount`` over the data of every window
    bins them all. The rows of one FFT period (a power of two of at least
    the row's length + c KDE_BINS_PER_BANDWIDTH bins, so that the circular
    convolution wraps no bin onto an evaluated one) are convolved with the
    kernel as one zero-padded (rows, period) stack in one ``rfft``/``irfft``
    pair, whose rows are bit for bit the transforms of the rows one at a
    time, and the densities are read off by linear interpolation between
    bins, at bin positions local to each row: so a density does not depend
    on the batch it is computed in.
    """
    r = KDE_BINS_PER_BANDWIDTH * KDE_REACH_BANDWIDTHS  # kernel half-width in bins
    arms, points = x.shape
    dx = h / KDE_BINS_PER_BANDWIDTH
    starts = np.ones((arms, points), dtype=bool)
    np.greater(np.diff(x, axis=1), (2 * r * dx)[:, None], out=starts[:, 1:])
    first_at = np.flatnonzero(starts)  # flat index of each window's first point
    arm = first_at // points  # of every window
    flat_x = x.reshape(-1)
    first, last = flat_x[first_at], flat_x[np.append(first_at[1:], arms * points) - 1]
    window_of = np.repeat(np.arange(first_at.shape[0]), np.diff(first_at, append=arms * points))
    dx_w = dx[arm]
    low = first - r * dx_w
    # r bins of reach on either side, plus one spare so that no datum's
    # upper neighbour bin falls in the next window
    size = np.ceil((last - first) / dx_w).astype(np.intp) + 2 * r + 2
    offset = np.cumsum(size) - size  # of each window in the arms' rows, end to end
    row_start = offset[np.flatnonzero(np.diff(arm, prepend=-1))]
    row_length = np.diff(row_start, append=offset[-1] + size[-1])

    # every window's data, in bins from its low end; one bincount bins them all
    windows = list(zip(lo[arm].tolist(), hi[arm].tolist(), low.tolist(),
                       (last + r * dx_w).tolist(), dx_w.tolist(), offset.tolist()))
    bounds = [(lo_a + values[lo_a:hi_a].searchsorted(low_w, "left"),
               lo_a + values[lo_a:hi_a].searchsorted(high_w, "right"))
              for lo_a, hi_a, low_w, high_w, _, _ in windows]
    end = np.cumsum([i1 - i0 for i0, i1 in bounds]).tolist()
    pos = np.empty(end[-1])
    for (i0, i1), stop, (_, _, low_w, _, dx_b, _) in zip(bounds, end, windows):
        at = pos[stop - (i1 - i0) : stop]
        np.subtract(values[i0:i1], low_w, out=at)
        at /= dx_b
    j = pos.astype(np.intp)
    pos -= j  # each datum's share for the bin above it
    for (i0, i1), stop, (*_, bin0) in zip(bounds, end, windows):
        j[stop - (i1 - i0) : stop] += bin0
    upper = np.bincount(j, weights=pos, minlength=offset[-1] + size[-1])
    grid = np.bincount(j, minlength=upper.shape[0]) - upper
    del j, pos
    grid[1:] += upper[:-1]
    del upper

    # np.interp on each row at row-local positions, which keep the rounding
    # of the arm's own grid, as one gather per FFT period
    at = (offset - row_start[arm])[window_of].reshape(arms, points)
    at = at + (x - low[window_of].reshape(arms, points)) / dx[:, None]
    below = at.astype(np.intp)
    at -= below
    by_period = {}
    for k, length in enumerate((row_length + r).tolist()):
        by_period.setdefault(1 << length.bit_length(), []).append(k)
    f = np.empty((arms, points))
    for period, members in by_period.items():
        stack = np.zeros((len(members), period))
        for row, k in zip(stack, members):
            row[: row_length[k]] = grid[row_start[k] : row_start[k] + row_length[k]]
        spectra = np.fft.rfft(stack, period)
        spectra *= _kernel_spectrum(period)
        np.fft.irfft(spectra, period, out=stack)  # the smoothed grids replace the grids
        del spectra
        cell = below[members] + (period * np.arange(len(members)))[:, None]
        stack = stack.reshape(-1)
        f0 = stack[cell]
        f[members] = (stack[cell + 1] - f0) * at[members] + f0
    return f * (1.0 / ((hi - lo) * h * math.sqrt(2.0 * math.pi)))[:, None]


def _arm_grams(f, u, du, q_other, w, var, sign, counts, segments, second, first):
    """Sums of psi psi' and of psi over each of a batch of A arms, where psi
    is an observation's (V_p, V_o, tau*) influence value: (A, 3, 3) and
    (A, 3) from their densities ``f`` (A, G) at the u-grid quantiles, their
    samples' u-grids ``u`` (A, G) and steps ``du`` (A,), the other arms'
    centred quantiles ``q_other`` (A, G), 1 / each arm's share ``w``, its
    variance, its ``sign`` (+1 treated, -1 control), its outcomes per
    segment ``counts`` (A, G + 1), its sums of d and d^2 per segment
    ``segments`` (A, 2, G + 1), and its whole-arm sums ``second`` (A, 2, 2)
    of d^2, d^3 and d^4 and ``first`` (A, 2) of d and d^2.

    With d = y - mean and s the arm's share, psi = B (d, d^2) + g[k] with

        B = [[0, 1], [0, 1], [sign, 0]] / s,

    and g[k] a constant of the segment k = #{u-grid quantiles < y}, one of
    G + 1. Its V_p and V_o entries are (2 S[k] - 2 (u . a) - var) / s: the
    quantile-process piece, the integral of Qdot(u) W(u) du with
    Qdot(u) = -[1{y <= Q(u)} - u] / (s f(Q(u))), is a step in u, so on the
    grid it is the suffix sum S[k] of a = du W / f. W is the other arm's
    quantile function less that arm's mean, reversed for V_p (the antitone
    coupling). With both arms centred, psi does not move when either arm is
    shifted.

    Each arm's numbers are those of the same products on its own 2-D
    arrays, so they do not depend on the batch.
    """
    b = np.zeros((w.shape[0], 3, 2))
    b[:, 0, 1] = b[:, 1, 1] = w
    b[:, 2, 0] = sign * w
    scale = (2.0 * du * w)[:, None] / f
    a = np.empty((w.shape[0], 2, f.shape[1]))
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


def sigma_sharp_batch(arms: ArmBatch) -> list:
    """``sigma_sharp`` for each sample of an ``ArmBatch``: each stage is one
    array pass over the batch.

    The u-grid quantiles of every arm are one gather, and their segment
    edges one ``_run_ends``. The per-segment counts and sums of d and d^2
    are one ``np.add.reduceat`` each over the ragged array; the whole-arm
    sums are n times the arm moments. The bandwidths are arrays, the binned
    KDE and its FFT smoothing one ``_kde`` call, and ``_arm_grams`` and the
    SigmaMatrix checks run on all arms at once. Raises what the first
    failing sample raises in each of these stages: too small an arm, then
    a bandwidth that is not positive and finite or a variance that overflows.
    """
    values, starts, (mean, var, mu3, mu4) = arms
    lo, end, m = starts[:-1], starts[1:], np.diff(starts)
    for n1, n0 in zip(m[0::2].tolist(), m[1::2].tolist()):
        if n1 < 30 or n0 < 30:
            raise ValidationError(f"influence-function covariance needs >= 30 per arm, got n1={n1}, n0={n0}")
    n = m[0::2] + m[1::2]
    e = m[0::2] / n
    w = 1.0 / np.stack((e, 1.0 - e), axis=1).ravel()
    sign = np.tile([1.0, -1.0], n.shape[0])

    trim = _u_trim(np.minimum(m[0::2], m[1::2]))
    du = (1.0 - 2.0 * trim) / U_GRID_SIZE
    u = trim[:, None] + (np.arange(U_GRID_SIZE) + 0.5) * du[:, None]  # symmetric: 1-u is a flip
    u, du = np.repeat(u, 2, axis=0), np.repeat(du, 2)
    idx = lo[:, None] + order_statistic(m[:, None], u)
    q = values[idx]
    # outcomes per segment between consecutive quantiles, and where each starts
    edges = np.concatenate((lo[:, None], _run_ends(values, idx, end[:, None])), axis=1)
    counts = np.diff(edges, axis=1, append=end[:, None])
    del idx

    spread = np.flatnonzero(values[lo] != values[end - 1])  # a zero-spread arm's psi is 0
    h = _silverman_bandwidths(values, starts, var)[spread]
    # a variance that underflows to 0 or overflows (the IQR in the bandwidth
    # can stay finite when it does), a spread that overflows
    for k in np.flatnonzero(~((0.0 < h) & (h < math.inf) & (var[spread] < math.inf)))[:1]:
        raise NumericalError(
            f"KDE bandwidth {float(h[k])}: the outcome scale "
            f"(arm SD {math.sqrt(var[spread[k]]):.3g}) is beyond double precision")
    f = _kde(values, lo[spread], end[spread], q[spread], h) if spread.size else q[:0]

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
    grams = np.zeros((lo.shape[0], 3, 3))
    sums = np.zeros((lo.shape[0], 3))
    if spread.size:
        second = np.empty((spread.size, 2, 2))
        second[:, 0, 0] = m[spread] * var[spread]
        second[:, 0, 1] = second[:, 1, 0] = m[spread] * mu3[spread]
        second[:, 1, 1] = m[spread] * mu4[spread]
        grams[spread], sums[spread] = _arm_grams(
            f, u[spread], du[spread], q[spread ^ 1], w[spread], var[spread], sign[spread], counts[spread],
            segments[spread], second, np.stack((np.zeros(spread.size), second[:, 0, 0]), axis=1),
        )
    mean_psi = (sums[0::2] + sums[1::2]) / n[:, None]
    entries = (grams[0::2] + grams[1::2]) / n[:, None, None] - mean_psi[:, :, None] * mean_psi[:, None, :]
    return _sigma_matrices(entries)


def sigma_sharp(sample: ExperimentalSample) -> SigmaMatrix:
    """Influence-function plug-in covariance for the sharp bounds.

    Sigma is the empirical covariance of the per-observation influence
    values of (V_hat_p, V_hat_o, tau_hat), which combine arm-mean,
    arm-variance and quantile-process contributions; the latter go through
    binned kernel density estimates (``_kde``) at the empirical quantiles of
    a trimmed uniform u-grid of U_GRID_SIZE points on the band
    [trim, 1 - trim], where trim shrinks from 1% toward 0.025% as the
    smaller arm grows (see _u_trim). The u-grid quantiles cut each sorted
    arm (``sample.arms``) into U_GRID_SIZE + 1 segments, and an
    observation's influence is a quadratic in its outcome plus a constant of
    its segment. So each arm's sums of psi psi' and psi come from a few
    whole-arm and per-segment sums (_arm_grams), and Sigma is their total
    over n less the outer product of the mean: no per-observation influence
    array is formed. This is the batch of one of ``sigma_sharp_batch``.

    Raises
    ------
    ValidationError
        If either arm has fewer than 30 observations.
    NumericalError
        If an arm's KDE bandwidth is not positive and finite or its variance
        overflows (an outcome scale beyond double precision).
    """
    return sigma_sharp_batch(sample.arms)[0]


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
