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
from typing import NamedTuple

import numpy as np

from drpredict.bounds import BoundsMethod, variance_bounds
from drpredict.calibration import _w2_sorted
from drpredict.covariance import U_GRID_SIZE, _checked, _u_trim
from drpredict.exceptions import NumericalError, ValidationError
from drpredict.sample import ExperimentalSample, order_statistic
from drpredict.solver import RobustConfig, penalty_derivs, sweep_delta


class Bracket(NamedTuple):
    """A variance bracket: the pessimistic (upper) and optimistic (lower) bound."""

    v_p: float
    v_o: float


def bounds_of(sample, method=BoundsMethod.SHARP) -> Bracket:
    """The bracket of one sample: ``bounds.variance_bounds`` of its batch of one."""
    return Bracket(*variance_bounds(sample.arms, method)[0].tolist())


def neyman_bracket(s1_sq: float, s0_sq: float) -> Bracket:
    """(sigma1 +- sigma0)^2, the Neyman bracket of two arm variances, in
    scalar arithmetic."""
    s1, s0 = math.sqrt(s1_sq), math.sqrt(s0_sq)
    return Bracket((s1 + s0) ** 2, (s1 - s0) ** 2)


def quantile_at(values_sorted: np.ndarray, u) -> np.ndarray:
    """Vectorized left-continuous quantile over a pre-sorted value array, at
    a level or an array of levels in (0, 1]: level u maps to
    ``values_sorted[k - 1]`` with k the least integer such that k/m >= u,
    the k-th order statistic (``sample.order_statistic``).
    """
    return values_sorted[order_statistic(values_sorted.shape[0], u)]


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


def merged_block_repeats(chunks: np.ndarray, n1: np.ndarray, n0: np.ndarray):
    """``bounds._merged_block`` as it was before the smaller arm's index was
    derived from the larger arm's: both indices spread over the cells by
    ``np.repeat`` and put in order by ``np.where``; the oracle that the
    kernel must match bit for bit."""
    pairs, i0, i1 = chunks.T
    na, nb = np.maximum(n1[pairs], n0[pairs]), np.minimum(n1[pairs], n0[pairs])
    span = i1 - i0
    ia = np.arange(int(span.sum())) + np.repeat(i0 - (np.cumsum(span) - span), span)
    na_c, nb_c = np.repeat(na, span), np.repeat(nb, span)
    scaled = ia * nb_c
    b_last = (scaled + nb_c - 1) // na_c
    counts = b_last - scaled // na_c + 1
    cells = np.add.reduceat(counts, np.cumsum(span) - span)
    ia = np.repeat(ia, counts)
    ib = np.repeat(b_last + 1 - np.cumsum(counts), counts)
    ib += np.arange(ib.shape[0])
    ticks = ia + 1.0
    ticks /= np.repeat(na, cells)
    widths = ib + 1.0
    widths /= np.repeat(nb, cells)
    np.minimum(ticks, widths, out=ticks)
    np.subtract(ticks[1:], ticks[:-1], out=widths[1:])
    first = np.cumsum(cells) - cells
    widths[first] = ticks[first] - i0 / na
    swap = np.repeat(n1[pairs] < n0[pairs], cells)
    return np.where(swap, ib, ia), np.where(swap, ia, ib), widths, pairs, cells


def w2_merged_grid(a_sorted: np.ndarray, b_sorted: np.ndarray) -> float:
    """1-D W2 between two sorted samples, from the quantile functions at the
    midpoints of the whole merged grid, its cells summed by
    ``np.add.reduceat`` as the package sums each chunk."""
    mids, widths = merged_u_grid(a_sorted.shape[0], b_sorted.shape[0])
    diff = quantile_at(a_sorted, mids) - quantile_at(b_sorted, mids)
    return math.sqrt(float(np.add.reduceat(widths * (diff * diff), [0])[0]))


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
    q: np.ndarray,
    spacing: np.ndarray,
    q_other: np.ndarray,
) -> None:
    """Write the (V_p, V_o, tau*) influence values of one arm's sorted
    outcomes ``y`` into the rows of ``out``.

    ``share`` is the arm's fraction of the sample and ``sign`` is +1 for the
    treated arm, -1 for the control arm. The quantile-process piece is the
    integral of Qdot_i(u) * Q_other(u) du, with ``q_other`` the other arm's
    quantiles less that arm's mean, reversed for the antitone coupling (V_p), where
    Qdot_i(u) du = -[1{y_i <= Q(u)} - u] dQ(u) / share, and dQ(u) on a grid
    cell is the arm's quantile ``spacing`` across it. The indicator is a
    step in u, so the integral is a suffix sum over the grid plus one
    searchsorted per observation.
    """
    arm_dot = (y - mean) / share
    out[2] = sign * arm_dot
    sig_dot = ((y - mean) ** 2 - float(y.var())) / share
    k = np.searchsorted(q, y, side="left")
    for row, weights in ((0, q_other[::-1]), (1, q_other)):
        a = spacing * weights
        suffix = np.concatenate((np.cumsum(a[::-1])[::-1], [0.0]))
        theta_dot = -(suffix[k] - float(np.dot(u, a))) / share
        out[row] = sig_dot - 2.0 * theta_dot


def _arm_spacing(y_sorted: np.ndarray, cells: np.ndarray) -> np.ndarray:
    """The quantile spacings of a sorted arm across the u-grid cells whose
    edges are ``cells``, as ``covariance.sigma_sharp_batch`` uses them: the
    differences of its order statistics at the edges, all 0 for a
    zero-spread arm."""
    return np.diff(quantile_at(y_sorted, cells))


def _u_grid(n_min: int, grid_size: int):
    """The midpoints and the cell edges of ``covariance.sigma_sharp_batch``'s
    trimmed u-grid."""
    trim = float(_u_trim(n_min))
    du = (1.0 - 2.0 * trim) / grid_size
    return trim + (np.arange(grid_size) + 0.5) * du, trim + np.arange(grid_size + 1) * du


def sigma_sharp_influence(sample, grid_size: int = 400) -> np.ndarray:
    """The entries of ``covariance.sigma_sharp_batch`` as the Gram matrix of a
    (3, n) array of per-observation influence values, on the same u-grid
    and quantile spacings; the reference for its segment-sum assembly."""
    y1, y0 = np.sort(sample.treated), np.sort(sample.control)
    e = sample.n1 / sample.n
    tau1, tau0 = float(y1.mean()), float(y0.mean())
    u, cells = _u_grid(min(sample.n1, sample.n0), grid_size)
    q1, q0 = quantile_at(y1, u), quantile_at(y0, u)
    psi = np.empty((3, sample.n))
    _arm_influence(psi[:, : sample.n1], y1, e, 1.0, tau1, u, q1, _arm_spacing(y1, cells), q0 - tau0)
    _arm_influence(psi[:, sample.n1 :], y0, 1.0 - e, -1.0, tau0, u, q0, _arm_spacing(y0, cells), q1 - tau1)
    psi -= psi.mean(axis=1, keepdims=True)
    return psi @ psi.T / sample.n


# ------------------------------------------- the per-sample path, one at a time


def central_moments(y: np.ndarray) -> tuple[float, float, float, float]:
    """(mean, variance, mu3, mu4) of one arm as drawn, the biased (1/n)
    central moments, each an ``np.mean``, and exactly (value, 0, 0, 0) for
    an arm of one value; the reference for ``sample.ArmBatch.moments``."""
    if y.min() == y.max():
        return float(y[0]), 0.0, 0.0, 0.0
    with np.errstate(over="ignore", invalid="ignore"):
        mean = y.mean()
        d = y - mean
        d2 = d * d
        return float(mean), float(d2.mean()), float((d2 * d).mean()), float((d2 * d2).mean())


def sigma_neyman_per_sample(sample) -> np.ndarray:
    """The entries of ``covariance.sigma_neyman`` for one sample in scalar
    arithmetic, from each arm's ``central_moments``; the reference for the
    batch stage. A constant arm has loadings 0."""
    (_, s1_sq, mu3_1, mu4_1), (_, s0_sq, mu3_0, mu4_0) = map(central_moments, (sample.treated, sample.control))
    e = sample.n1 / sample.n
    s1, s0 = math.sqrt(s1_sq), math.sqrt(s0_sq)
    a_plus, a_minus = (1.0 + s0 / s1, 1.0 - s0 / s1) if s1 > 0.0 else (0.0, 0.0)
    b_plus, b_minus = (1.0 + s1 / s0, 1.0 - s1 / s0) if s0 > 0.0 else (0.0, 0.0)
    w1, w0 = (mu4_1 - s1_sq * s1_sq) / e, (mu4_0 - s0_sq * s0_sq) / (1.0 - e)
    c1, c0 = mu3_1 / e, mu3_0 / (1.0 - e)
    s = np.empty((3, 3))
    s[0, 0] = a_plus * a_plus * w1 + b_plus * b_plus * w0
    s[1, 1] = a_minus * a_minus * w1 + b_minus * b_minus * w0
    s[0, 1] = s[1, 0] = a_plus * a_minus * w1 + b_plus * b_minus * w0
    s[0, 2] = s[2, 0] = a_plus * c1 - b_plus * c0
    s[1, 2] = s[2, 1] = a_minus * c1 - b_minus * c0
    s[2, 2] = s1_sq / e + s0_sq / (1.0 - e)
    return _checked(s[None])[0]


def sharp_bounds_per_sample(sample) -> tuple[float, float]:
    """(v_o, v_p) of the sharp ``bounds.variance_bounds`` as one sum over the
    whole merged grid of one sample (``merged_u_grid``), the treated arm
    shifted by the difference of ``central_moments`` means. The cells are
    summed by ``np.add.reduceat``, as the package sums each chunk."""
    y1, y0 = np.sort(sample.treated), np.sort(sample.control)
    shift = central_moments(sample.treated)[0] - central_moments(sample.control)[0]
    mids, widths = merged_u_grid(y1.shape[0], y0.shape[0])
    qa = quantile_at(y1, mids) - shift
    idx0 = quantile_at(np.arange(y0.shape[0]), mids)
    v_o, v_p = (float(np.add.reduceat((qa - y0[idx]) ** 2 * widths, [0])[0])
                for idx in (idx0, y0.shape[0] - 1 - idx0))
    return (0.0 if v_o <= 1e-10 * v_p else v_o), v_p


def sigma_sharp_per_sample(sample) -> np.ndarray:
    """The entries of ``covariance.sigma_sharp_batch`` computed for one sample
    and one arm at a time: each arm's moments (``central_moments``), its
    sort, its u-grid quantiles and their ``np.searchsorted`` segment edges,
    its per-segment ``np.add.reduceat`` sums of d and d^2 over the arm with
    a 0 appended, its quantile spacings (``_arm_spacing``) and its Gram sums
    as 2-D products; the reference for the ragged batch stage."""
    if sample.n1 < 30 or sample.n0 < 30:
        raise ValidationError(
            f"influence-function covariance needs >= 30 per arm, got n1={sample.n1}, n0={sample.n0}"
        )
    e = sample.n1 / sample.n
    u, cells = _u_grid(min(sample.n1, sample.n0), U_GRID_SIZE)
    arms = []
    for raw, share, sign in ((sample.treated, e, 1.0), (sample.control, 1.0 - e, -1.0)):
        y = np.sort(raw)
        arms.append((y, central_moments(raw), quantile_at(y, u), 1.0 / share, sign))
    gram, total = np.zeros((3, 3)), np.zeros(3)
    for k, (y, (mean, var, mu3, mu4), q, w, sign) in enumerate(arms):
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
        a = (2.0 * w) * _arm_spacing(y, cells) * np.array([q_other[::-1], q_other])
        g = np.zeros((3, U_GRID_SIZE + 1))
        g[:2, -2::-1] = np.cumsum(a[:, ::-1], axis=1)
        g[:2] -= (a @ u)[:, None] + var * w
        g[:2] *= counts > 0  # an empty segment's reduceat entry is the next element
        cross = b @ (segments @ g.T)
        second = m * np.array([[var, mu3], [mu3, mu4]])
        gram += b @ second @ b.T + cross + cross.T + (g * counts) @ g.T
        total += b @ np.array([0.0, m * var]) + g @ counts
    mean_psi = total / sample.n
    return _checked((gram / sample.n - np.outer(mean_psi, mean_psi))[None])[0]


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


def sweep_csv_rowwise(tau_star, bounds, true_v, q, deltas) -> str:
    """The CSV text of ``drpredict sweep``: rows assembled one by one, each
    value formatted with ``.10g`` and written by ``csv.writer``; the
    reference for ``cli._write_columns``. Each prediction is a separate
    ``sweep_delta`` call on one variance.

    ``bounds`` None is population mode, where the known variance ``true_v``
    fills tau_p, tau_o and tau_dr; otherwise ``true_v``, if given, adds a
    tau_dr column to the (tau_p, tau_o) pair of ``bounds``.
    """
    if bounds is None:
        header = ["delta", "tau_p", "tau_o", "tau_dr"]
        variances = [true_v] * 3
    else:
        header = ["delta", "tau_p", "tau_o"] + ([] if true_v is None else ["tau_dr"])
        variances = [bounds.v_p, bounds.v_o] + ([] if true_v is None else [true_v])
    columns = [np.asarray(deltas).tolist()] + [sweep_delta(tau_star, [v], q, deltas)[0].tolist() for v in variances]
    out = io.StringIO(newline="")
    csv.writer(out).writerows(chain([header], ([f"{x:.10g}" for x in row] for row in zip(*columns))))
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


def empirical_cdf(values_sorted: np.ndarray, y: float) -> float:
    """Fraction of the sorted values <= y (right-continuous step function)."""
    return float(np.searchsorted(values_sorted, y, side="right")) / values_sorted.shape[0]


def empirical_quantile(values_sorted: np.ndarray, u: float) -> float:
    """Left-continuous generalized inverse of the empirical CDF of a sorted
    array.

    For u in ((k-1)/m, k/m] this is the k-th order statistic, which is
    inf{ y : F(y) >= u }: k is found by a search of the breakpoints k/m (as
    doubles, the ticks of ``merged_u_grid``); the reference for
    ``sample.order_statistic``, which computes k from ceil(u*m).

    Raises
    ------
    ValidationError
        If u is outside (0, 1].
    """
    if not 0.0 < u <= 1.0:
        raise ValidationError(f"quantile level must lie in (0, 1], got {u}")
    m = values_sorted.shape[0]
    return float(values_sorted[np.searchsorted(np.arange(1, m + 1) / m, u, side="left")])


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


def sharp_bounds_population(q1, q0, grid_size: int = 10_000) -> Bracket:
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
    return Bracket(v_p=float((v1 - v0[::-1]).var()), v_o=float((v1 - v0).var()))


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
            vb = bounds_of(res)
        else:
            vb = neyman_bracket(float(r1.var()), float(r0.var()))
        stats[b] = (vb.v_p, vb.v_o, float(r1.mean() - r0.mean()))
    return sample.n * np.cov(stats, rowvar=False, ddof=1)
