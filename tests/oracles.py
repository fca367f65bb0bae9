"""Reference implementations that the tests check the package against.

Most are the plain, unblocked form of a computation the package does a
faster way. The rest are independent routes to a number the package
estimates: the scalar empirical CDF and quantile, the minimax objective,
population bounds from quantile functions, and a bootstrap Sigma. Each is
kept here because only the tests call it.
"""

import csv
import io
import json
import math
from itertools import chain

import numpy as np

from drpredict.bounds import BoundsMethod, VarianceBounds, neyman_bounds, sharp_bounds_empirical
from drpredict.calibration import _w2_sorted
from drpredict.covariance import (
    DENSITY_FLOOR,
    KDE_BINS_PER_BANDWIDTH,
    KDE_REACH_BANDWIDTHS,
    U_GRID_SIZE,
    SigmaMatrix,
    SigmaMethod,
    _kde,
    _kernel_spectrum,
    _u_trim,
)
from drpredict.exceptions import NumericalError, ValidationError
from drpredict.sample import EmpiricalDistribution, ExperimentalSample, quantile_at
from drpredict.solver import RobustConfig, penalty_derivs, sweep_delta


def kde_at(data: np.ndarray, x: np.ndarray, h: float) -> np.ndarray:
    """Gaussian-kernel density of ``data`` evaluated at points ``x``.

    The exact O(len(data) * len(x)) sum; the reference for ``kde_binned``.
    """
    out = np.empty(x.shape[0])
    norm = 1.0 / (data.shape[0] * h * math.sqrt(2.0 * math.pi))
    # chunk the evaluation grid to cap the kernel matrix at ~4M entries
    step = max(1, 4_000_000 // max(data.shape[0], 1))
    for start in range(0, x.shape[0], step):
        z = (x[start : start + step, None] - data[None, :]) / h
        out[start : start + step] = np.exp(-0.5 * z * z).sum(axis=1) * norm
    return out


def kde_binned(data: np.ndarray, x: np.ndarray, h: float) -> np.ndarray:
    """The binned KDE of sorted ``data`` at ascending points ``x`` as
    ``covariance.sigma_sharp`` takes it: ``covariance._kde`` on one arm."""
    return _kde(data, np.array([0]), np.array([data.shape[0]]), x[None, :], np.array([h]))[0]


def merged_u_grid(n1: int, n0: int) -> tuple[np.ndarray, np.ndarray]:
    """Midpoints and widths of the partition of (0,1] on which both arms'
    empirical quantile functions are simultaneously constant.

    Breakpoints are {k/n1} union {k/n0}, in one sorted array; the reference
    for ``bounds.merged_grid_blocks``.
    """
    ticks = np.union1d(
        np.arange(1, n1 + 1, dtype=float) / n1,
        np.arange(1, n0 + 1, dtype=float) / n0,
    )
    lefts = np.concatenate(([0.0], ticks[:-1]))
    widths = ticks - lefts
    mids = lefts + 0.5 * widths
    return mids, widths


def w2_merged_grid(a_sorted: np.ndarray, b_sorted: np.ndarray) -> float:
    """1-D W2 between two sorted samples, from the quantile functions at the
    midpoints of the whole merged grid."""
    mids, widths = merged_u_grid(a_sorted.shape[0], b_sorted.shape[0])
    diff = quantile_at(a_sorted, mids) - quantile_at(b_sorted, mids)
    return math.sqrt(float(np.dot(widths, diff * diff)))


def split_benchmark_resort(outcomes, treatments, in_cell, permutations, seed):
    """(w2_y1, w2_y0, null_p95) of ``calibration.split_benchmark`` for the
    cell-one mask ``in_cell``: each permutation shuffles each arm's row
    indices, re-masks the whole sample and sorts every cell afresh; the
    reference for its label-shuffling null."""

    def cell_distances(cells):
        dists = []
        for arm in (1, 0):
            in_arm = treatments == arm
            dists.append(w2_merged_grid(np.sort(outcomes[in_arm & cells]),
                                        np.sort(outcomes[in_arm & ~cells])))
        return dists

    w2_y1, w2_y0 = cell_distances(in_cell)
    null_p95 = None
    if permutations > 0:
        rng = np.random.default_rng(seed)
        treated_idx = np.flatnonzero(treatments == 1)
        control_idx = np.flatnonzero(treatments == 0)
        shuffled = in_cell.copy()
        stats = []
        for _ in range(permutations):
            shuffled[treated_idx] = in_cell[rng.permutation(treated_idx)]
            shuffled[control_idx] = in_cell[rng.permutation(control_idx)]
            stats.append(math.hypot(*cell_distances(shuffled)))
        null_p95 = float(np.quantile(stats, 0.95))
    return w2_y1, w2_y0, null_p95


def _arm_influence(
    out: np.ndarray,
    y: np.ndarray,
    share: float,
    sign: float,
    mean: float,
    u: np.ndarray,
    du: float,
    q: np.ndarray,
    f: np.ndarray | None,
    q_other: np.ndarray,
) -> None:
    """Write the (V_p, V_o, tau*) influence values of one arm's sorted
    outcomes ``y`` into the rows of ``out``.

    ``share`` is the arm's fraction of the sample and ``sign`` is +1 for the
    treated arm, -1 for the control arm. The quantile-process piece is the
    integral of Qdot_i(u) * Q_other(u) du, with ``q_other`` the other arm's
    quantiles less that arm's mean, reversed for the antitone coupling (V_p), where
    Qdot_i(u) = -[1{y_i <= Q(u)} - u] / (share * f(Q(u))). The indicator is
    a step in u, so the integral is a suffix sum over the grid plus one
    searchsorted per observation.
    """
    arm_dot = (y - mean) / share
    out[2] = sign * arm_dot
    sig_dot = ((y - mean) ** 2 - float(y.var())) / share
    k = None if f is None else np.searchsorted(q, y, side="left")
    for row, weights in ((0, q_other[::-1]), (1, q_other)):
        theta_dot = 0.0
        if f is not None:
            a = du * weights / f
            suffix = np.concatenate((np.cumsum(a[::-1])[::-1], [0.0]))
            theta_dot = -(suffix[k] - float(np.dot(u, a))) / share
        out[row] = sig_dot - 2.0 * theta_dot


def _arm_density(y_sorted: np.ndarray, q: np.ndarray) -> np.ndarray | None:
    """The binned KDE of a sorted arm at its u-grid quantiles, None for a
    zero-spread arm, as ``covariance.sigma_sharp`` uses it."""
    if y_sorted[0] == y_sorted[-1]:
        return None
    return kde_binned(y_sorted, q, silverman_bandwidth(y_sorted, float(y_sorted.var())))


def sigma_sharp_influence(sample, grid_size: int = 400) -> np.ndarray:
    """The entries of ``covariance.sigma_sharp`` as the Gram matrix of a
    (3, n) array of per-observation influence values, on the same u-grid
    and densities; the reference for its segment-sum assembly."""
    y1, y0 = np.sort(sample.treated), np.sort(sample.control)
    e = sample.n1 / sample.n
    tau1, tau0 = float(y1.mean()), float(y0.mean())
    trim = _u_trim(min(sample.n1, sample.n0))
    du = (1.0 - 2.0 * trim) / grid_size
    u = trim + (np.arange(grid_size) + 0.5) * du
    q1, q0 = quantile_at(y1, u), quantile_at(y0, u)
    f1, f0 = _arm_density(y1, q1), _arm_density(y0, q0)
    psi = np.empty((3, sample.n))
    _arm_influence(psi[:, : sample.n1], y1, e, 1.0, tau1, u, du, q1, f1, q0 - tau0)
    _arm_influence(psi[:, sample.n1 :], y0, 1.0 - e, -1.0, tau0, u, du, q0, f0, q1 - tau1)
    psi -= psi.mean(axis=1, keepdims=True)
    return psi @ psi.T / sample.n


# ------------------------------------------- the per-sample path, one at a time


def central_moments(y: np.ndarray) -> tuple[float, float, float, float]:
    """(mean, variance, mu3, mu4) of one arm as drawn, the biased (1/n)
    central moments, each an ``np.mean``; the reference for
    ``sample.ArmBatch.moments``."""
    with np.errstate(over="ignore", invalid="ignore"):
        mean = y.mean()
        d = y - mean
        d2 = d * d
        return float(mean), float(d2.mean()), float((d2 * d).mean()), float((d2 * d2).mean())


def sorted_percentile(y_sorted: np.ndarray, fraction: float) -> float:
    """``np.percentile(y, 100 * fraction)`` of one sorted arm, in scalar
    arithmetic: numpy's linear method and its ``_lerp``."""
    n = y_sorted.shape[0]
    virtual = (n - 1) * fraction
    i = math.floor(virtual)
    if i >= n - 1:
        return float(y_sorted[-1])
    t = virtual - i
    a, b = float(y_sorted[i]), float(y_sorted[i + 1])
    diff = b - a
    return b - diff * (1.0 - t) if t >= 0.5 else a + diff * t


def silverman_bandwidth(y_sorted: np.ndarray, var: float) -> float:
    """Silverman's rule-of-thumb bandwidth of one sorted arm whose biased
    variance is ``var``, in scalar arithmetic."""
    sd = math.sqrt(var)
    iqr = sorted_percentile(y_sorted, 0.75) - sorted_percentile(y_sorted, 0.25)
    spread = min(sd, iqr / 1.34) if iqr > 0.0 else sd
    return 0.9 * spread * y_sorted.shape[0] ** (-0.2)


def kde_binned_per_arm(data: np.ndarray, x: np.ndarray, h: float) -> np.ndarray:
    """The binned KDE of one sorted arm at ascending points ``x``, one
    window and one ``np.interp`` at a time: linear binning into windows of
    bins h / KDE_BINS_PER_BANDWIDTH wide that reach KDE_REACH_BANDWIDTHS h
    past each run of points, then one FFT convolution of the arm's grid;
    the reference for ``covariance._kde``."""
    r = KDE_BINS_PER_BANDWIDTH * KDE_REACH_BANDWIDTHS
    dx = h / KDE_BINS_PER_BANDWIDTH
    cut = np.flatnonzero(np.diff(x) > 2 * r * dx) + 1
    first = x[np.concatenate(([0], cut))]
    last = x[np.concatenate((cut - 1, [x.shape[0] - 1]))]
    lo = first - r * dx
    size = np.ceil((last - first) / dx).astype(np.intp) + 2 * r + 2
    offset = np.cumsum(size) - size
    grid = np.zeros(int(size.sum()))
    for lo_w, hi_w, size_w, off_w in zip(lo, last + r * dx, size, offset):
        i0, i1 = np.searchsorted(data, lo_w, "left"), np.searchsorted(data, hi_w, "right")
        pos = (data[i0:i1] - lo_w) / dx
        j = pos.astype(np.intp)
        pos -= j
        upper = np.bincount(j, weights=pos, minlength=size_w)
        window = grid[off_w : off_w + size_w]
        window += np.bincount(j, minlength=size_w) - upper
        window[1:] += upper[:-1]
    window_of = np.searchsorted(cut, np.arange(x.shape[0]), side="right")
    at = offset[window_of] + (x - lo[window_of]) / dx
    period = 1 << (grid.shape[0] + r).bit_length()
    smooth = np.fft.irfft(np.fft.rfft(grid, period) * _kernel_spectrum(period), period)
    norm = 1.0 / (data.shape[0] * h * math.sqrt(2.0 * math.pi))
    return np.interp(at, np.arange(grid.shape[0]), smooth[: grid.shape[0]]) * norm


def sharp_bounds_per_sample(sample) -> tuple[float, float]:
    """(v_o, v_p) of ``bounds.sharp_bounds_empirical`` as one ``np.dot``
    over the whole merged grid of one sample (``merged_u_grid``), the
    treated arm shifted by the difference of ``central_moments`` means."""
    y1, y0 = np.sort(sample.treated), np.sort(sample.control)
    shift = central_moments(sample.treated)[0] - central_moments(sample.control)[0]
    mids, widths = merged_u_grid(y1.shape[0], y0.shape[0])
    qa = quantile_at(y1, mids) - shift
    idx0 = quantile_at(np.arange(y0.shape[0]), mids)
    v_o, v_p = (float(np.dot(widths, (qa - y0[idx]) ** 2)) for idx in (idx0, y0.shape[0] - 1 - idx0))
    return (0.0 if v_o <= 1e-10 * v_p else v_o), v_p


def sigma_sharp_per_sample(sample) -> np.ndarray:
    """The entries of ``covariance.sigma_sharp`` computed for one sample
    and one arm at a time: each arm's moments (``central_moments``), its
    sort, its u-grid quantiles and their ``np.searchsorted`` segment edges,
    its per-segment ``np.add.reduceat`` sums of d and d^2 over the arm with
    a 0 appended, its KDE (``kde_binned_per_arm``) and its Gram sums as 2-D
    products; the reference for the ragged batch stage."""
    if sample.n1 < 30 or sample.n0 < 30:
        raise ValidationError(
            f"influence-function covariance needs >= 30 per arm, got n1={sample.n1}, n0={sample.n0}"
        )
    e = sample.n1 / sample.n
    trim = float(_u_trim(min(sample.n1, sample.n0)))
    du = (1.0 - 2.0 * trim) / U_GRID_SIZE
    u = trim + (np.arange(U_GRID_SIZE) + 0.5) * du
    arms = []
    for raw, share, sign in ((sample.treated, e, 1.0), (sample.control, 1.0 - e, -1.0)):
        y = np.sort(raw)
        arms.append((y, central_moments(raw), quantile_at(y, u), 1.0 / share, sign))
    gram, total = np.zeros((3, 3)), np.zeros(3)
    for k, (y, (mean, var, mu3, mu4), q, w, sign) in enumerate(arms):
        if y[0] == y[-1]:  # a zero-spread arm's influence values are all 0
            continue
        f = kde_binned_per_arm(y, q, silverman_bandwidth(y, var))
        if (f < DENSITY_FLOOR).any():
            raise NumericalError(f"{('treated', 'control')[k]}-arm density below floor on the u-grid")
        m = y.shape[0]
        powers = np.zeros((2, m + 1))
        powers[0, :m] = y - mean
        powers[1] = powers[0] * powers[0]
        edges = np.concatenate(([0], np.searchsorted(y, q, side="right"), [m]))
        counts = edges[1:] - edges[:-1]
        segments = np.add.reduceat(powers, edges[:-1], axis=1)
        other_y, (other_mean, *_), other_q, _, _ = arms[1 - k]
        q_other = other_q - other_mean
        b = np.array([[0.0, w], [0.0, w], [sign * w, 0.0]])
        a = (2.0 * du * w) / f * np.array([q_other[::-1], q_other])
        g = np.zeros((3, U_GRID_SIZE + 1))
        g[:2, -2::-1] = np.cumsum(a[:, ::-1], axis=1)
        g[:2] -= (a @ u)[:, None] + var * w
        g[:2] *= counts > 0  # an empty segment's reduceat entry is the next element
        cross = b @ (segments @ g.T)
        second = m * np.array([[var, mu3], [mu3, mu4]])
        gram += b @ second @ b.T + cross + cross.T + (g * counts) @ g.T
        total += b @ np.array([0.0, m * var]) + g @ counts
    mean_psi = total / sample.n
    return SigmaMatrix(gram / sample.n - np.outer(mean_psi, mean_psi), SigmaMethod.SHARP_PLUGIN).entries


def split_benchmark_two_sorts(sample, in_cell, permutations, seed):
    """(w2_y1, w2_y0, null_p95) of ``calibration.split_benchmark`` for the
    cell-one mask ``in_cell``, as it was computed before the arms were
    sorted once: each permutation shuffles each arm's labels in row order,
    and both cells are sorted afresh; the reference for the sort-free null,
    with the same W2 kernel."""
    arms = [(sample.outcomes[sample.treatments == arm], in_cell[sample.treatments == arm]) for arm in (1, 0)]

    def distance(values, labels):
        first, second = values[labels], values[~labels]
        first.sort()
        second.sort()
        return _w2_sorted(first, second)

    w2_y1, w2_y0 = (distance(*arm) for arm in arms)
    null_p95 = None
    if permutations > 0:
        rng = np.random.default_rng(seed)
        stats = [math.hypot(*(distance(values, labels[rng.permutation(labels.size)]) for values, labels in arms))
                 for _ in range(permutations)]
        null_p95 = float(np.quantile(stats, 0.95))
    return w2_y1, w2_y0, null_p95


def sweep_csv_rowwise(tau_star, bounds, known, q, deltas) -> str:
    """The CSV text of ``drpredict sweep``: rows assembled one by one from
    the ``sweep_delta`` columns, each value formatted with ``.10g`` and
    written by ``csv.writer``; the reference for ``cli._write_columns``.

    ``bounds`` None is population mode, where the known bracket ``known``
    fills tau_p, tau_o and tau_dr; otherwise ``known``, if given, adds a
    tau_dr column to the (tau_p, tau_o) pair of ``bounds``.
    """
    if bounds is None:
        header = ["delta", "tau_p", "tau_o", "tau_dr"]
        table = sweep_delta(tau_star, known, q, deltas)
        rows = [[d, t, t, t] for d, t in zip(table.delta.tolist(), table.tau_p.tolist())]
    else:
        header = ["delta", "tau_p", "tau_o"]
        rows = [list(row) for row in zip(*(col.tolist() for col in sweep_delta(tau_star, bounds, q, deltas)))]
        if known is not None:
            header.append("tau_dr")
            for row, t in zip(rows, sweep_delta(tau_star, known, q, deltas).tau_p.tolist()):
                row.append(t)
    out = io.StringIO(newline="")
    csv.writer(out).writerows(chain([header], ([f"{x:.10g}" for x in row] for row in rows)))
    return out.getvalue()


def jsonify(obj):
    """Replace non-finite floats with null and numpy arrays with lists, so
    that ``json.dumps`` writes strict JSON."""
    if isinstance(obj, float) and not math.isfinite(obj):
        return None
    if isinstance(obj, np.ndarray):
        return jsonify(obj.tolist())
    if isinstance(obj, dict):
        return {k: jsonify(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [jsonify(v) for v in obj]
    return obj


def dump_json(obj) -> str:
    """The JSON text of a report as the standard library's indented encoder
    writes it; the reference for ``cli._dump_json``."""
    return json.dumps(jsonify(obj), indent=2, allow_nan=False)


def newton_root_full(fun, x, lo, hi, tol, *args):
    """``solver.newton_root`` as it was before it dropped converged entries:
    every step evaluates ``fun`` on every entry, and a converged entry only
    stops moving. The reference for the active-set iteration, whose every
    entry must follow the same iterates."""
    x, lo, hi, *args = np.broadcast_arrays(*(np.asarray(y, dtype=float) for y in (x, lo, hi, *args)))
    last = before_last = hi - lo
    done = np.zeros(x.shape, dtype=bool)
    eps = np.finfo(float).eps
    with np.errstate(all="ignore"):
        for _ in range(200):
            f, df = fun(x, *args)
            lo = np.where(f <= 0.0, x, lo)
            hi = np.where(f >= 0.0, x, hi)
            near = tol + 4.0 * eps * np.abs(x)
            newton = x - f / df
            step = np.abs(newton - x)
            inside = (lo <= newton) & (newton <= hi)
            small = step <= near
            x_new = np.where(inside & (small | (2.0 * step <= np.abs(before_last))), newton,
                             np.where(small, x, 0.5 * lo + 0.5 * hi))
            before_last, last = last, x_new - x
            x = np.where(done, x, x_new)
            done |= small | (np.abs(last) <= near)
            if done.all():
                return x
    raise NumericalError("bracketed Newton did not converge in 200 steps")


def empirical_cdf(dist: EmpiricalDistribution, y: float) -> float:
    """Fraction of observations <= y (right-continuous step function)."""
    return float(np.searchsorted(dist.sorted_values, y, side="right")) / dist.m


def empirical_quantile(dist: EmpiricalDistribution, u: float) -> float:
    """Left-continuous generalized inverse of the empirical CDF.

    For u in ((k-1)/m, k/m] this is the k-th order statistic, i.e.
    ``sorted_values[ceil(u*m) - 1]``, which is inf{ y : F(y) >= u }; the
    scalar, checked form of ``sample.quantile_at``.

    Raises
    ------
    ValidationError
        If u is outside (0, 1].
    """
    if not 0.0 < u <= 1.0:
        raise ValidationError(f"quantile level must lie in (0, 1], got {u}")
    return float(quantile_at(dist.sorted_values, u))


def dual_objective(tau: float, tau_star: float, v: float, config: RobustConfig) -> float:
    """Worst-case objective M(tau) whose argmin is the robust predictor
    (``solver.solve_minimax``).

    Raises
    ------
    ValidationError
        If v < 0.
    """
    if v < 0.0:
        raise ValidationError(f"variance must be nonnegative, got {v}")
    value, _, _ = penalty_derivs(tau, config.q)
    return math.sqrt(v + (tau_star - tau) ** 2) + config.delta * float(value)


def sharp_bounds_population(q1, q0, grid_size: int = 10_000) -> VarianceBounds:
    """Coupling-based bounds from known quantile functions.

    The variances of Q1(U) - Q0(U) and Q1(U) - Q0(1 - U) are evaluated with
    the midpoint rule on a uniform grid over (0,1), so quantile callables
    only ever see interior points. Used to compute population targets.

    Parameters
    ----------
    q1, q0 : callable
        Vectorized quantile functions defined on (0, 1).
    grid_size : int
        Number of quadrature points, at least 100.

    Raises
    ------
    ValidationError
        If ``grid_size`` < 100.
    """
    if grid_size < 100:
        raise ValidationError(f"grid_size must be >= 100, got {grid_size}")
    u = (np.arange(grid_size) + 0.5) / grid_size
    v1 = np.asarray(q1(u), dtype=float)
    v0 = np.asarray(q0(u), dtype=float)
    # The grid is symmetric under u -> 1-u, so the antitonic pairing is a flip.
    return VarianceBounds(v_o=float((v1 - v0).var()), v_p=float((v1 - v0[::-1]).var()),
                          method=BoundsMethod.SHARP)


def sigma_bootstrap(sample, method=BoundsMethod.SHARP, draws: int = 500, seed=None) -> np.ndarray:
    """Nonparametric bootstrap covariance (resampling within arms) of
    (V_p, V_o, tau*), scaled by n: the cross-check for the analytic Sigma
    routes. ``method`` is a ``BoundsMethod`` or its value.
    """
    if draws < 2:
        raise ValidationError(f"need at least 2 bootstrap draws, got {draws}")
    use_sharp = BoundsMethod(method) is BoundsMethod.SHARP
    rng = np.random.default_rng(seed)
    y1 = sample.treated
    y0 = sample.control
    stats = np.empty((draws, 3))
    for b in range(draws):
        r1 = y1[rng.integers(0, y1.shape[0], y1.shape[0])]
        r0 = y0[rng.integers(0, y0.shape[0], y0.shape[0])]
        if use_sharp:
            res = ExperimentalSample(
                np.concatenate((r1, r0)),
                np.concatenate((np.ones(r1.shape[0], dtype=np.int8), np.zeros(r0.shape[0], dtype=np.int8))),
            )
            vb = sharp_bounds_empirical(res)
        else:
            vb = neyman_bounds(float(r1.var()), float(r0.var()))
        stats[b] = (vb.v_p, vb.v_o, float(r1.mean() - r0.mean()))
    return sample.n * np.cov(stats, rowvar=False, ddof=1)
