"""The ragged batch: consecutive samples' arms in one array, each per-sample
stage one pass over it. A record must equal its batch of one, and agree
with the per-sample oracles of ``tests/oracles.py``."""

import numpy as np
import pytest

from drpredict import ExperimentalSample
from drpredict import covariance as cov_module
from drpredict import inference
from drpredict.bounds import merged_grid_blocks, sharp_bounds_empirical
from drpredict.calibration import SplitRule, split_benchmark
from drpredict.covariance import sigma_sharp, sigma_sharp_many
from drpredict.inference import estimate_robust, estimate_robust_many
from drpredict.sample import BATCH_ROWS, arm_batch, quantile_at, sample_batches
from drpredict.solver import RobustConfig
from oracles import (
    central_moments,
    kde_binned_per_arm,
    merged_u_grid,
    sharp_bounds_per_sample,
    sigma_sharp_per_sample,
    silverman_bandwidth,
    split_benchmark_two_sorts,
)

CFG = RobustConfig(0.5, 2.0)


def _sample(y1, y0):
    y = np.concatenate([y1, y0])
    t = np.concatenate([np.ones(len(y1), dtype=int), np.zeros(len(y0), dtype=int)])
    order = np.random.default_rng(len(y)).permutation(len(y))  # arms interleaved, as drawn
    return ExperimentalSample(y[order], t[order])


def _mixed():
    """One list of samples that the ragged batch cuts in three: a constant
    arm, heavy ties, an arm whose u-grid splits into several KDE windows, a
    30-row arm, and a sample larger than the row budget between small ones."""
    rng = np.random.default_rng(41)
    clusters = np.concatenate((rng.normal(0.0, 1.0, 980), rng.normal(1e3, 1.0, 10), rng.normal(2e3, 1.0, 10)))
    return [
        _sample(rng.normal(2.0, 2.0, 300), rng.normal(0.2, 1.0, 700)),
        _sample(rng.normal(2.0, 2.0, 300), np.full(700, 1.7)),  # constant control arm
        _sample(np.round(rng.normal(2.0, 2.0, 900), 0), np.round(rng.normal(0.2, 1.0, 2100), 0)),  # ties
        _sample(rng.normal(2.0, 2.0, 6_000), rng.lognormal(0.0, 1.0, 14_000)),  # over the budget
        _sample(clusters, rng.normal(size=1_500)),  # several KDE windows
        _sample(rng.normal(2.0, 2.0, 30), rng.normal(0.2, 1.0, 100)),  # a 30-row arm
        _sample(rng.standard_t(3, 400), rng.normal(size=600)),
    ]


def test_mixed_batch_is_cut_as_the_budget_says():
    samples = _mixed()
    assert [[s.n for s in b] for b in sample_batches(samples)] == [
        [1_000, 1_000, 3_000], [20_000], [2_500, 130, 1_000]]
    windows = np.diff(quantile_at(samples[4].sorted_arms[0], (np.arange(400) + 0.5) / 400))
    assert np.count_nonzero(windows > 100.0) >= 2  # 16 bandwidths are far less than 100


@pytest.mark.parametrize("method", ["sharp", "neyman"])
def test_records_equal_batches_of_one(method):
    samples = _mixed()
    if method == "neyman":
        samples = [s for s in samples if min(s.arm_moments[0][1], s.arm_moments[1][1]) > 0]
    ests = estimate_robust_many(iter(samples), CFG, method)
    for est, sample in zip(ests, samples):
        alone = estimate_robust(ExperimentalSample(sample.outcomes, sample.treatments), CFG, method)
        assert (est.tau_p, est.tau_o, est.sd_p, est.sd_o, est.bounds, est.moments, est.n) == (
            alone.tau_p, alone.tau_o, alone.sd_p, alone.sd_o, alone.bounds, alone.moments, alone.n)
        assert np.array_equal(est.sigma.entries, alone.sigma.entries)
    many = sigma_sharp_many(iter(samples))
    assert all(np.array_equal(got.entries, sigma_sharp(s).entries) for got, s in zip(many, samples))


def test_records_agree_with_the_per_sample_oracles():
    samples = _mixed()
    ests = estimate_robust_many(samples, CFG)
    for est, sample in zip(ests, samples):
        m = est.moments
        # moments: np.mean on each arm as drawn, bit for bit
        assert ((m.tau1, m.sigma1_sq, m.mu3_1, m.mu4_1), (m.tau0, m.sigma0_sq, m.mu3_0, m.mu4_0)) == (
            central_moments(sample.treated), central_moments(sample.control))
        v_o, v_p = sharp_bounds_per_sample(sample)
        assert abs(est.bounds.v_o - v_o) <= 1e-13 * v_p
        assert abs(est.bounds.v_p - v_p) <= 1e-13 * v_p
        oracle = sigma_sharp_per_sample(sample)
        scale = np.sqrt(np.outer(np.diag(oracle), np.diag(oracle)))
        assert np.all(np.abs(est.sigma.entries - oracle) <= 1e-13 * scale)


def test_no_batch_exceeds_the_budget_unless_it_holds_one_sample(monkeypatch):
    rng = np.random.default_rng(42)
    sizes = [int(n) for n in rng.choice([160, 900, 5_000, 9_000, 16_384, 20_000], 40)]

    def draws():
        for n in sizes:
            yield _sample(rng.normal(2.0, 2.0, n // 4), rng.normal(0.2, 1.0, n - n // 4))

    seen = []
    real = inference.arm_batch
    monkeypatch.setattr(inference, "arm_batch", lambda batch: seen.append([s.n for s in batch]) or real(batch))
    estimate_robust_many(draws(), CFG)
    assert [n for batch in seen for n in batch] == sizes  # every sample once, in order
    for batch, following in zip(seen, seen[1:] + [[None]]):
        assert sum(batch) <= BATCH_ROWS or len(batch) == 1
        if following[0] is not None:  # a batch closes only when the next sample does not fit
            assert sum(batch) + following[0] > BATCH_ROWS
    assert any(len(batch) > 1 for batch in seen) and any(sum(batch) > BATCH_ROWS for batch in seen)


def test_arm_batch_of_one_sample_is_its_cached_arms():
    s = _mixed()[0]
    assert arm_batch([s]) is s.arms
    two = arm_batch([s, s])
    assert np.array_equal(two.values, np.concatenate((s.arms.values, s.arms.values)))
    assert np.array_equal(two.moments, np.concatenate((s.arms.moments, s.arms.moments), axis=1))
    assert two.starts.tolist() == [0, s.n1, s.n, s.n + s.n1, 2 * s.n]
    assert not two.values.flags.writeable


def test_kde_is_the_per_arm_kde_bit_for_bit():
    # several arms of one ragged array, at two FFT periods, one of them
    # with its u-grid split into several windows
    samples = _mixed()
    arms = [np.sort(a) for s in (samples[0], samples[4], samples[3]) for a in (s.treated, s.control)]
    values = np.concatenate(arms)
    starts = np.cumsum([0] + [a.size for a in arms])
    u = 0.01 + (np.arange(400) + 0.5) * 0.98 / 400
    x = np.array([quantile_at(a, u) for a in arms])
    h = np.array([silverman_bandwidth(a, float(a.var())) for a in arms])
    got = cov_module._kde(values, starts[:-1], starts[1:], x, h)
    for k, arm in enumerate(arms):
        assert np.array_equal(got[k], kde_binned_per_arm(arm, x[k], h[k]))


@pytest.mark.parametrize("sizes", [[(7, 11), (300, 700), (9, 9)], [(2, 200_003), (5, 3)], [(40_000, 1)]])
def test_blocks_of_several_pairs_tile_each_merged_grid(sizes):
    # a chunk's cells are those of its pair's merged grid, in order; a pair
    # is never cut across blocks unless its larger arm passes 2^15 cells
    n1, n0 = (np.array(x) for x in zip(*sizes))
    got = {p: [[], [], []] for p in range(len(sizes))}
    for idx1, idx0, widths, pairs, cells in merged_grid_blocks(n1, n0):
        assert idx1.shape[0] <= 2 * (1 << 15)
        ends = np.cumsum(cells)
        for p, lo, hi in zip(pairs, ends - cells, ends):
            for k, part in enumerate((idx1, idx0, widths)):
                got[p][k].append(part[lo:hi])
    for p, (m1, m0) in enumerate(sizes):
        mids, widths = merged_u_grid(m1, m0)
        want = (quantile_at(np.arange(m1), mids), quantile_at(np.arange(m0), mids), widths)
        for k in range(3):
            assert np.array_equal(np.concatenate(got[p][k]), want[k])


def _tied_sample(seed):
    """Outcomes on a coarse grid, with +0.0 and -0.0 both present."""
    rng = np.random.default_rng(seed)
    y = np.round(rng.normal(0.0, 1.5, 4_000))
    y[rng.random(y.size) < 0.1] = -0.0
    y[rng.random(y.size) < 0.1] = 0.0
    t = (rng.random(y.size) < 0.35).astype(int)
    return ExperimentalSample(y, t)


@pytest.mark.parametrize("permutations", [0, 1, 20])
@pytest.mark.parametrize("split", list(SplitRule))
def test_sort_free_null_is_the_two_sort_null_bit_for_bit(split, permutations):
    for seed in range(3):
        s = _tied_sample(seed)
        mask = np.random.default_rng(seed + 10).random(s.n) < 0.45
        in_cell = {
            SplitRule.MEDIAN_OUTCOME: s.outcomes <= np.median(s.outcomes),
            SplitRule.HALVES: np.arange(s.n) < (s.n + 1) // 2,
            SplitRule.PROVIDED_MASK: mask,
        }[split]
        b = split_benchmark(s, split, mask=mask, permutations=permutations, seed=seed)
        assert (b.w2_y1, b.w2_y0, b.null_p95) == split_benchmark_two_sorts(s, in_cell, permutations, seed)


def test_sharp_bounds_of_a_sample_over_the_budget_are_blocked_alone():
    # 140,000 per arm: five chunks of 2^15 cells, the same whether the
    # sample is alone or after a small one in the same call
    rng = np.random.default_rng(43)
    big = _sample(rng.normal(1.0, 2.0, 140_000), rng.lognormal(0.0, 1.0, 140_000))
    small = _sample(rng.normal(size=50), rng.normal(size=70))
    alone = sharp_bounds_empirical(big)
    ests = estimate_robust_many([small, big], CFG)
    assert ests[1].bounds == alone
    v_o, v_p = sharp_bounds_per_sample(big)
    assert abs(alone.v_p - v_p) <= 1e-12 * v_p and abs(alone.v_o - v_o) <= 1e-12 * v_p
