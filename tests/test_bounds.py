import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from scipy import stats

from drpredict import ExperimentalSample, ValidationError, bounds
from drpredict.bounds import mean_square_gaps, merged_grid_blocks, variance_bounds
from drpredict.sample import arm_batch
from oracles import bounds_of, merged_block_repeats, merged_u_grid, quantile_at, sharp_bounds_population


def _sample(y1, y0):
    y = np.concatenate([y1, y0])
    t = np.concatenate([np.ones(len(y1), dtype=int), np.zeros(len(y0), dtype=int)])
    return ExperimentalSample(y, t)


# ----------------------------------------------------------------- the array


def test_bounds_container_validation():
    # a constant treated arm pairs with the control arm and with it reversed
    # on the same cells, so the two sums differ by rounding alone; where the
    # comonotone one comes out above the antitone one, v_o is clamped to v_p
    rng = np.random.default_rng(31)
    samples = [_sample(np.full(int(n1), 2.5), rng.normal(0.0, 1.0, 40 - int(n1)) ** 3)
               for n1 in rng.integers(3, 37, 200)]
    arms = arm_batch(samples)
    lo1, lo0, end = arms.starts[0:-1:2], arms.starts[1::2], arms.starts[2::2]
    raw_o, raw_p = mean_square_gaps(arms.values, arms.values, (lo1, lo0 - lo1, lo0, end - lo0), arms.ate,
                                    antitone=True).T
    v = variance_bounds(arms)
    assert v.shape == (200, 2) and v.dtype == np.float64
    assert np.array_equal(v[:, 0], raw_p)
    above = raw_o > raw_p
    assert above.any()
    assert np.array_equal(v[:, 1], np.where(above, raw_p, raw_o))


# -------------------------------------------------------------------- neyman


def test_neyman_hand_values():
    # arm variances 4 and 1 (1/n): v_o = (2 - 1)^2, v_p = (2 + 1)^2
    v_p, v_o = variance_bounds(_sample([-1.0, 3.0], [4.0, 6.0]).arms, "neyman")[0].tolist()
    assert (v_o, v_p) == (1.0, 9.0)


def test_neyman_degenerate():
    v = variance_bounds(arm_batch([_sample([1.0, 1.0], [3.0, 3.0]), _sample([0.5, 0.5], [-1.0, 1.0])]),
                        "neyman")
    assert v.tolist() == [[0.0, 0.0], [1.0, 1.0]]


# ------------------------------------------------------------ empirical sharp


def test_sharp_identical_marginals():
    s = _sample([1.0, 2.0, 3.0], [1.0, 2.0, 3.0])
    b = bounds_of(s)
    assert b.v_o == pytest.approx(0.0, abs=1e-12)
    assert b.v_p == pytest.approx(4.0 * (2.0 / 3.0))


def test_sharp_two_point():
    s = _sample([0.0, 2.0], [0.0, 2.0])
    b = bounds_of(s)
    assert b.v_o == pytest.approx(0.0, abs=1e-12)
    assert b.v_p == pytest.approx(4.0)


def test_sharp_equal_sizes_match_sorted_pairing():
    rng = np.random.default_rng(42)
    y1 = rng.normal(1.0, 2.0, 250)
    y0 = rng.gamma(2.0, 1.5, 250)
    b = bounds_of(_sample(y1, y0))
    s1, s0 = np.sort(y1), np.sort(y0)
    d_co = s1 - s0
    d_anti = s1 - s0[::-1]
    assert b.v_o == pytest.approx(d_co.var(), abs=1e-10)
    assert b.v_p == pytest.approx(d_anti.var(), abs=1e-10)


def test_sharp_unequal_sizes_match_fine_grid_quadrature():
    rng = np.random.default_rng(3)
    y1 = np.sort(rng.normal(0.0, 1.0, 7))
    y0 = np.sort(rng.normal(1.0, 3.0, 11))
    b = bounds_of(_sample(y1, y0))
    # brute-force the integrals on a very fine midpoint grid
    G = 7 * 11 * 2000
    u = (np.arange(G) + 0.5) / G
    q1 = y1[np.minimum(np.ceil(u * 7).astype(int), 7) - 1]
    q0 = y0[np.minimum(np.ceil(u * 11).astype(int), 11) - 1]
    q0r = y0[np.minimum(np.ceil((1 - u) * 11).astype(int), 11) - 1]
    cov_u = (q1 * q0).mean() - q1.mean() * q0.mean()
    cov_l = (q1 * q0r).mean() - q1.mean() * q0.mean()
    v_o = y1.var() + y0.var() - 2 * cov_u
    v_p = y1.var() + y0.var() - 2 * cov_l
    assert b.v_o == pytest.approx(v_o, abs=1e-9)
    assert b.v_p == pytest.approx(v_p, abs=1e-9)


# arm sizes spanning several 2^15-cell blocks: n1 << n0, n1 = n0, coprime
BLOCKED_SIZES = [(50, 200_003), (140_000, 140_000), (131_071, 65_537)]


@pytest.mark.parametrize("n1, n0", BLOCKED_SIZES + [(7, 11), (9, 9), (2, 200_003), (1, 1)])
def test_blocks_tile_the_merged_grid(n1, n0):
    # the enumeration walks the sorted-union grid cell by cell, in u order:
    # its widths are the oracle's and its indices are quantile_at's at the
    # oracle's midpoints, exactly; swapping the sizes swaps the indices only
    mids, widths = merged_u_grid(n1, n0)
    idx1, idx0 = quantile_at(np.arange(n1), mids), quantile_at(np.arange(n0), mids)
    for sizes, expected in (((n1, n0), (idx1, idx0)), ((n0, n1), (idx0, idx1))):
        blocks = list(merged_grid_blocks(*sizes))
        assert all(b[0].shape[0] <= 2 * (1 << 15) for b in blocks)
        for k, want in enumerate(expected):
            assert np.array_equal(np.concatenate([b[k] for b in blocks]), want)
        assert np.array_equal(np.concatenate([b[2] for b in blocks]), widths)


@pytest.mark.parametrize("sizes", [
    [(9, 9)], [(140_000, 140_000)],  # equal
    [(7, 11)], [(131_071, 65_537)],  # coprime
    [(2, 70_000)], [(70_000, 2)], [(11, 7)], [(65_537, 131_071)],  # and swapped
    [(100_003, 99_991)], [(99_991, 100_003)],  # several 2^15-cell chunks
    # ragged blocks mixing swapped and unswapped pairs; pairs with a
    # one-value larger arm put a chunk's first cell after a cell of the same
    # larger-arm index
    [(7, 11), (300, 700), (9, 9), (11, 7), (700, 300), (1, 1), (1, 2), (2, 1), (1, 1), (3, 1)],
    [(2, 200_003), (5, 3), (40_000, 1), (1, 1), (3, 5)],
], ids=["equal", "equal-chunks", "coprime", "coprime-chunks", "2-vs-70000", "70000-vs-2", "swapped",
        "swapped-chunks", "several-chunks", "several-chunks-swapped", "ragged", "ragged-chunks"])
def test_merged_blocks_are_the_repeat_oracles_bit_for_bit(sizes, monkeypatch):
    n1, n0 = (np.array(x) for x in zip(*sizes))
    got = list(merged_grid_blocks(n1, n0))
    monkeypatch.setattr(bounds, "_merged_block", merged_block_repeats)
    want = list(merged_grid_blocks(n1, n0))
    assert len(got) == len(want)
    for g, w in zip(got, want):
        for part_g, part_w in zip(g, w):
            assert part_g.dtype == part_w.dtype and np.array_equal(part_g, part_w)


@pytest.mark.parametrize("n1, n0", BLOCKED_SIZES)
def test_sharp_blocked_match_merged_grid(n1, n0):
    rng = np.random.default_rng(n1 + n0)
    y1, y0 = np.sort(rng.normal(1.0, 2.0, n1)), np.sort(rng.lognormal(0.0, 1.0, n0))
    mids, widths = merged_u_grid(n1, n0)
    q1, q0 = quantile_at(y1, mids), quantile_at(y0, mids)
    q0_rev = quantile_at(y0, 1.0 - mids)
    m1, m0 = np.dot(widths, q1), np.dot(widths, q0)
    cov_u = np.dot(widths, q1 * q0) - m1 * m0
    cov_l = np.dot(widths, q1 * q0_rev) - m1 * m0
    b = bounds_of(_sample(y1, y0))
    assert b.v_o == pytest.approx(y1.var() + y0.var() - 2.0 * cov_u, rel=1e-12)
    assert b.v_p == pytest.approx(y1.var() + y0.var() - 2.0 * cov_l, rel=1e-12)


def test_sharp_insufficient_data():
    # constructor allows 1-vs-many; bounds need two per arm
    s = _sample([1.0], [2.0, 3.0])
    with pytest.raises(ValidationError):
        bounds_of(s)


def test_sharp_gaussian_agrees_with_neyman():
    # comonotone/antitonic couplings of Gaussian marginals give corr = +/-1,
    # so the sharp bounds coincide with (sigma1 -+ sigma0)^2
    rng = np.random.default_rng(11)
    n = 20_000
    y1 = rng.normal(2.0, 2.0, n)
    y0 = rng.normal(0.2, 1.0, n)
    b = bounds_of(_sample(y1, y0))
    assert b.v_o == pytest.approx(1.0, abs=0.08)
    assert b.v_p == pytest.approx(9.0, rel=0.03)


# ----------------------------------------------------------- population sharp


def test_population_identical_normals():
    b = sharp_bounds_population(stats.norm.ppf, stats.norm.ppf, grid_size=20_000)
    assert b.v_o == pytest.approx(0.0, abs=1e-10)
    assert b.v_p == pytest.approx(4.0, rel=1e-3)


def test_population_gaussian_closed_form():
    q1 = lambda u: 2.0 * stats.norm.ppf(u) + 2.0
    q0 = lambda u: stats.norm.ppf(u) + 0.2
    b = sharp_bounds_population(q1, q0, grid_size=50_000)
    assert b.v_o == pytest.approx(1.0, rel=2e-3)
    assert b.v_p == pytest.approx(9.0, rel=2e-3)


def test_population_degenerate():
    const = lambda u: np.full_like(np.asarray(u, dtype=float), 3.0)
    b = sharp_bounds_population(const, const, grid_size=100)
    assert b.v_o == 0.0 and b.v_p == 0.0


def test_population_grid_size_validation():
    with pytest.raises(ValidationError):
        sharp_bounds_population(stats.norm.ppf, stats.norm.ppf, grid_size=99)


# ------------------------------------------------------- ordering properties


@pytest.mark.parametrize("rho", [-0.9, 0.0, 0.9])
def test_any_coupling_lies_inside_bounds(rho):
    rng = np.random.default_rng(int(10 * (rho + 1)))
    n = 40_000
    cov = [[4.0, rho * 2.0 * 1.0], [rho * 2.0 * 1.0, 1.0]]
    draws = rng.multivariate_normal([1.0, 0.0], cov, size=n)
    true_var = float((draws[:, 0] - draws[:, 1]).var())
    b = bounds_of(_sample(draws[:, 0], draws[:, 1]))
    # bounds from the same sample's marginals must bracket the realized
    # variance up to Monte Carlo error (3 SEs of a variance estimate)
    se = true_var * math.sqrt(2.0 / n) * 3.0
    assert b.v_o <= true_var + se
    assert b.v_p >= true_var - se


def test_sharp_inside_neyman_population_scale():
    rng = np.random.default_rng(5)
    y1 = rng.gamma(2.0, 2.0, 30_000)
    y0 = rng.lognormal(0.0, 0.7, 30_000)
    s = _sample(y1, y0)
    sharp = bounds_of(s)
    ney = bounds_of(s, "neyman")
    assert ney.v_o <= sharp.v_o + 1e-9
    assert sharp.v_p <= ney.v_p + 1e-9


finite = st.floats(min_value=-100, max_value=100, allow_nan=False, allow_infinity=False)


@settings(max_examples=120, deadline=None)
@given(
    y1=st.lists(finite, min_size=2, max_size=25),
    y0=st.lists(finite, min_size=2, max_size=25),
)
def test_sharp_bounds_always_ordered(y1, y0):
    b = bounds_of(_sample(y1, y0))
    assert 0.0 <= b.v_o <= b.v_p


@settings(max_examples=80, deadline=None)
@given(
    y1=st.lists(finite, min_size=2, max_size=20),
    y0=st.lists(finite, min_size=2, max_size=20),
    c=st.floats(min_value=0.1, max_value=10.0),
    shift=finite,
)
# arms close together far from 0, where raw cross moments less a product
# of means lose their digits
@example(y1=[99.0, 99.5, 99.9], y0=[98.0, 99.25], c=10.0, shift=100.0)
# bounds in the subnormal range, where rounding is absolute
@example(y1=[0.0, 0.0], y0=[0.0, 2e-155], c=0.5, shift=0.0)
def test_sharp_bounds_affine_equivariance(y1, y0, c, shift):
    """Scaling both arms by c scales both bounds by c^2; shifts do nothing.

    Both bounds are mean square gaps, so an error of at most r in each gap
    moves them by at most r (2 sqrt(v) + r), where r covers the rounding of
    the transformed inputs, of the mean difference and of the gaps. Below
    the normal range each operation rounds by up to 2^-1074 instead: a few
    of those per outcome cover the sums of squares.
    """
    base = bounds_of(_sample(y1, y0))
    scaled = bounds_of(
        _sample([c * v + shift for v in y1], [c * v + shift for v in y0])
    )
    r = 16.0 * np.finfo(float).eps * (c * max(abs(v) for v in y1 + y0) + abs(shift))
    tol = r * (2.0 * c * math.sqrt(base.v_p) + r) + 4.0 * (len(y1) + len(y0)) * math.ulp(0.0)
    assert scaled.v_o == pytest.approx(c * c * base.v_o, abs=tol)
    assert scaled.v_p == pytest.approx(c * c * base.v_p, abs=tol)


@pytest.mark.parametrize("shift1, shift0", [(1e8, 1e8), (1e6, 0.0), (0.0, -1e6), (-1e8, 1e8)])
def test_sharp_bounds_invariant_to_shifts_of_either_arm(shift1, shift0):
    # a shift moves every outcome by up to half an ulp of the shift, and the
    # mean difference by as much again: the bounds move by no more
    rng = np.random.default_rng(10)
    y1, y0 = rng.normal(2.0, 2.0, 3000), rng.normal(0.2, 1.0, 7000)
    base = bounds_of(_sample(y1, y0))
    shifted = bounds_of(_sample(y1 + shift1, y0 + shift0))
    r = 4.0 * np.finfo(float).eps * (abs(shift1) + abs(shift0) + 10.0)
    tol = r * (2.0 * math.sqrt(base.v_p) + r)
    assert shifted.v_o == pytest.approx(base.v_o, abs=tol)
    assert shifted.v_p == pytest.approx(base.v_p, abs=tol)


@settings(max_examples=60, deadline=None)
@given(
    y1=st.lists(finite, min_size=2, max_size=15),
    y0=st.lists(finite, min_size=2, max_size=15),
)
def test_neyman_contains_sharp_empirical(y1, y0):
    # with 1/n variances on both routes the containment is exact algebraically
    s = _sample(y1, y0)
    sharp = bounds_of(s)
    ney = bounds_of(s, "neyman")
    assert ney.v_o <= sharp.v_o + 1e-8
    assert sharp.v_p <= ney.v_p + 1e-8
