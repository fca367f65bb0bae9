import json
import math
import tracemalloc
from dataclasses import asdict

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from drpredict import ValidationError
from drpredict.calibration import (
    RadiusBenchmark,
    SplitRule,
    _w2_sorted,
    split_benchmark,
)
from drpredict.sample import ExperimentalSample
from oracles import merged_u_grid, quantile_at, split_benchmark_resort, split_benchmark_two_sorts


def _dist(values):
    return np.sort(np.asarray(values, dtype=float))


def _sample(y1, y0):
    y = np.concatenate([y1, y0])
    t = np.concatenate([np.ones(len(y1), dtype=int), np.zeros(len(y0), dtype=int)])
    return ExperimentalSample(y, t)


# ------------------------------------------------------------- 1-D W2 metric


def test_w2_identity():
    a = _dist([3.0, 1.0, 2.0])
    assert _w2_sorted(a, a) == 0.0
    big = _dist(np.random.default_rng(0).normal(size=200_003))  # several blocks
    assert _w2_sorted(big, big) == 0.0


def test_w2_translation():
    rng = np.random.default_rng(0)
    base = rng.normal(size=57)
    for c in (0.5, -2.25, 1e-3):
        d = _w2_sorted(_dist(base), _dist(base + c))
        assert d == pytest.approx(abs(c), abs=1e-10)


def test_w2_sorted_pair_oracle():
    rng = np.random.default_rng(1)
    for m in (2, 5, 64, 301):
        a = rng.normal(size=m)
        b = rng.normal(2.0, 3.0, size=m)
        oracle = math.sqrt(np.mean((np.sort(a) - np.sort(b)) ** 2))
        assert _w2_sorted(_dist(a), _dist(b)) == pytest.approx(oracle, abs=1e-10)


def test_w2_unequal_sizes_against_fine_grid():
    rng = np.random.default_rng(2)
    a, b = rng.normal(size=7), rng.exponential(size=11)
    grid = (np.arange(7 * 11 * 4000) + 0.5) / (7 * 11 * 4000)
    qa = np.sort(a)[np.ceil(grid * 7).astype(int) - 1]
    qb = np.sort(b)[np.ceil(grid * 11).astype(int) - 1]
    brute = math.sqrt(np.mean((qa - qb) ** 2))
    assert _w2_sorted(_dist(a), _dist(b)) == pytest.approx(brute, abs=1e-9)


@pytest.mark.parametrize("ma, mb", [(50, 200_003), (140_000, 140_000), (131_071, 65_537)])
def test_w2_blocked_matches_merged_grid(ma, mb):
    rng = np.random.default_rng(ma + mb)
    a, b = _dist(rng.normal(size=ma)), _dist(rng.exponential(size=mb))
    mids, widths = merged_u_grid(ma, mb)
    diff = quantile_at(a, mids) - quantile_at(b, mids)
    oracle = math.sqrt(np.dot(widths, diff * diff))
    assert _w2_sorted(a, b) == pytest.approx(oracle, rel=1e-12)


def test_w2_symmetry_exact():
    rng = np.random.default_rng(3)
    a, b = _dist(rng.normal(size=13)), _dist(rng.normal(size=29))
    assert _w2_sorted(a, b) == _w2_sorted(b, a)


def test_w2_triangle_inequality():
    rng = np.random.default_rng(4)
    for _ in range(60):
        sizes = rng.integers(2, 40, size=3)
        xs = [_dist(rng.normal(rng.normal(), 1 + rng.random(), size=s)) for s in sizes]
        dab = _w2_sorted(xs[0], xs[1])
        dbc = _w2_sorted(xs[1], xs[2])
        dac = _w2_sorted(xs[0], xs[2])
        assert dac <= dab + dbc + 1e-10


@settings(max_examples=100, deadline=None)
@given(s=st.floats(min_value=-50, max_value=50), seed=st.integers(0, 2**31))
def test_w2_scale_equivariance(s, seed):
    rng = np.random.default_rng(seed)
    a, b = rng.normal(size=9), rng.normal(size=17)
    base = _w2_sorted(_dist(a), _dist(b))
    scaled = _w2_sorted(_dist(s * a), _dist(s * b))
    assert scaled == pytest.approx(abs(s) * base, rel=1e-12, abs=1e-12)


# ------------------------------------------------------------------- splits


def test_benchmark_container_invariants():
    RadiusBenchmark(3.0, 4.0, 5.0, "ok")
    with pytest.raises(ValidationError):
        RadiusBenchmark(3.0, 4.0, 6.0, "bad quadrature")
    with pytest.raises(ValidationError):
        RadiusBenchmark(-1.0, 4.0, math.sqrt(17), "negative")


def test_two_cluster_median_split():
    y1 = np.concatenate([np.zeros(20), np.full(20, 10.0)])
    y0 = np.concatenate([np.ones(20), np.full(20, 11.0)])
    s = _sample(y1, y0)
    b = split_benchmark(s, SplitRule.MEDIAN_OUTCOME, permutations=0)
    assert b.w2_y1 == pytest.approx(10.0, abs=1e-12)
    assert b.w2_y0 == pytest.approx(10.0, abs=1e-12)
    assert b.joint_lower_bound == pytest.approx(math.sqrt(200.0), abs=1e-10)
    assert b.null_p95 is None


def test_homogeneous_halves_within_permutation_null():
    rng = np.random.default_rng(5)
    raw = _sample(rng.normal(size=300), rng.normal(size=300))
    order = rng.permutation(600)  # interleave arms so each half sees both
    s = ExperimentalSample(raw.outcomes[order], raw.treatments[order])
    b = split_benchmark(s, "halves", permutations=200, seed=42)
    assert b.null_p95 is not None
    assert b.joint_lower_bound <= b.null_p95
    assert b.split_description == "first half of rows"


def test_provided_mask_matches_manual_computation():
    rng = np.random.default_rng(6)
    y1, y0 = rng.normal(size=40), rng.normal(size=50)
    s = _sample(y1, y0)
    mask = np.zeros(90, dtype=bool)
    mask[::2] = True
    b = split_benchmark(s, SplitRule.PROVIDED_MASK, mask=mask, permutations=0)
    manual_1 = _w2_sorted(
        _dist(s.outcomes[(s.treatments == 1) & mask]),
        _dist(s.outcomes[(s.treatments == 1) & ~mask]),
    )
    assert b.w2_y1 == pytest.approx(manual_1, abs=1e-14)


def test_split_preconditions():
    rng = np.random.default_rng(7)
    s = _sample(rng.normal(size=10), rng.normal(size=10))
    with pytest.raises(ValidationError):
        split_benchmark(s, "provided_mask")  # no mask
    with pytest.raises(ValidationError):
        split_benchmark(s, "provided_mask", mask=np.ones(3, dtype=bool))
    lopsided = np.zeros(20, dtype=bool)
    lopsided[0] = True  # one treated unit in cell one
    with pytest.raises(ValidationError):
        split_benchmark(s, "provided_mask", mask=lopsided, permutations=0)


def _split_case(name, seed):
    """(sample, provided mask) for one null-oracle case."""
    if name == "cells-of-2":
        # each arm has exactly 2 rows in each cell under every split rule
        rng = np.random.default_rng(seed)
        t = np.tile([1, 0], 4)
        y = np.arange(8.0) + 0.1 * rng.random(8)
        mask = np.tile([True, True, False, False], 2)
        return ExperimentalSample(y, t), mask
    n1, n0 = {"several-blocks": (150_000, 290_000), "unequal": (53, 71)}[name]
    rng = np.random.default_rng(seed)
    t = rng.permutation(np.repeat([1, 0], [n1, n0]))
    y = np.where(t == 1, rng.normal(1.0, 2.0, t.size), rng.lognormal(0.0, 1.0, t.size))
    return ExperimentalSample(y, t), rng.random(t.size) < 0.4


@pytest.mark.parametrize("split", list(SplitRule))
@pytest.mark.parametrize("name, seed, permutations", [
    ("cells-of-2", 0, 40), ("cells-of-2", 1, 40), ("cells-of-2", 2, 7),
    ("unequal", 3, 200), ("unequal", 4, 5),
    ("several-blocks", 5, 3),  # cells span several 2^15-cell blocks
])
def test_split_null_matches_resorting_oracle(name, seed, permutations, split):
    s, mask = _split_case(name, seed)
    y = s.outcomes
    in_cell = {
        SplitRule.MEDIAN_OUTCOME: y <= np.median(y),
        SplitRule.HALVES: np.arange(s.n) < (s.n + 1) // 2,
        SplitRule.PROVIDED_MASK: mask,
    }[split]
    b = split_benchmark(s, split, mask=mask, permutations=permutations, seed=seed)
    w2_y1, w2_y0, null_p95 = split_benchmark_resort(y, s.treatments, in_cell, permutations, seed)
    assert b.w2_y1 == pytest.approx(w2_y1, rel=1e-12, abs=0.0)
    assert b.w2_y0 == pytest.approx(w2_y0, rel=1e-12, abs=0.0)
    assert b.null_p95 == pytest.approx(null_p95, rel=1e-12, abs=0.0)
    if name != "several-blocks":  # one block: the same sums, bit for bit
        assert (b.w2_y1, b.w2_y0, b.null_p95) == (w2_y1, w2_y0, null_p95)
    # sorting each cell afresh and summing it with the same kernel gives the
    # same bits, over one block or several
    assert (b.w2_y1, b.w2_y0, b.null_p95) == split_benchmark_two_sorts(s, in_cell, permutations, seed)


@pytest.mark.parametrize("seed", range(6))
def test_split_null_is_the_public_w2_bit_for_bit(seed):
    # the split sorts each arm once and reads its cells in that order, and
    # gives the numbers of _w2_sorted on each cell sorted on its own
    s, mask = _split_case("unequal", seed)
    b = split_benchmark(s, SplitRule.PROVIDED_MASK, mask=mask, permutations=30, seed=seed)
    arms = [(s.outcomes[s.treatments == arm], mask[s.treatments == arm]) for arm in (1, 0)]

    def w2(values, cells):
        return _w2_sorted(_dist(values[cells]), _dist(values[~cells]))

    assert (b.w2_y1, b.w2_y0) == tuple(w2(*arm) for arm in arms)
    rng = np.random.default_rng(seed)
    stats = [math.hypot(*(w2(values, cells[rng.permutation(cells.size)]) for values, cells in arms))
             for _ in range(30)]
    assert b.null_p95 == float(np.quantile(stats, 0.95))


def test_split_null_allocates_no_whole_sample_copies():
    # per permutation: one arm's labels and its two cells, but no row-index
    # arrays or re-masked copies of the outcomes
    rng = np.random.default_rng(14)
    n = 1_000_000
    t = (rng.random(n) < 0.3).astype(np.int8)
    s = ExperimentalSample(np.where(t == 1, rng.normal(2.0, 2.0, n), rng.normal(0.2, 1.0, n)), t)
    tracemalloc.start()
    try:
        split_benchmark(s, SplitRule.MEDIAN_OUTCOME, permutations=2, seed=1)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 27 * n


def test_benchmark_json_round_trip():
    b = RadiusBenchmark(3.0, 4.0, 5.0, "test", null_p95=4.5)
    d = asdict(b)
    assert list(d.items()) == [
        ("w2_y1", 3.0),
        ("w2_y0", 4.0),
        ("joint_lower_bound", 5.0),
        ("split_description", "test"),
        ("null_p95", 4.5),
    ]
    assert RadiusBenchmark(**json.loads(json.dumps(d))) == b
