"""The ragged batch: consecutive samples' arms in one array, each per-sample
stage one pass over it. A record must equal its batch of one, and agree
with the per-sample oracles of ``tests/oracles.py``."""

import numpy as np
import pytest

from drpredict import ExperimentalSample
from drpredict import inference, simulation
from drpredict.bounds import merged_grid_blocks
from drpredict.calibration import SplitRule, split_benchmark
from drpredict.covariance import sigma_sharp_batch
from drpredict.inference import estimate_robust_many
from drpredict.sample import arm_batch
from drpredict.simulation import case_preset, run_coverage_study
from drpredict.solver import RobustConfig
from oracles import (
    bounds_of,
    central_moments,
    merged_u_grid,
    neyman_bracket,
    quantile_at,
    sharp_bounds_per_sample,
    sigma_neyman_per_sample,
    sigma_sharp_per_sample,
    split_benchmark_two_sorts,
)

CFG = RobustConfig(0.5, 2.0)


def _sample(y1, y0):
    y = np.concatenate([y1, y0])
    t = np.concatenate([np.ones(len(y1), dtype=int), np.zeros(len(y0), dtype=int)])
    order = np.random.default_rng(len(y)).permutation(len(y))  # arms interleaved, as drawn
    return ExperimentalSample(y[order], t[order])


def _mixed():
    """One list of samples, 28,630 rows in all: a constant arm, heavy ties,
    an arm of far clusters, a 30-row arm, and a sample larger than the
    study's row budget between small ones."""
    rng = np.random.default_rng(41)
    clusters = np.concatenate((rng.normal(0.0, 1.0, 980), rng.normal(1e3, 1.0, 10), rng.normal(2e3, 1.0, 10)))
    return [
        _sample(rng.normal(2.0, 2.0, 300), rng.normal(0.2, 1.0, 700)),
        _sample(rng.normal(2.0, 2.0, 300), np.full(700, 1.7)),  # constant control arm
        _sample(np.round(rng.normal(2.0, 2.0, 900), 0), np.round(rng.normal(0.2, 1.0, 2100), 0)),  # ties
        _sample(rng.normal(2.0, 2.0, 6_000), rng.lognormal(0.0, 1.0, 14_000)),  # over the budget
        _sample(clusters, rng.normal(size=1_500)),  # far clusters
        _sample(rng.normal(2.0, 2.0, 30), rng.normal(0.2, 1.0, 100)),  # a 30-row arm
        _sample(rng.standard_t(3, 400), rng.normal(size=600)),
    ]


def test_mixed_batch_is_cut_as_the_budget_says(monkeypatch):
    # estimate_robust_many has no row budget of its own: it runs what it is
    # given as one ragged batch, whatever its rows; only the coverage
    # study cuts samples into batches
    samples = _mixed()
    seen = []
    real = inference.arm_batch
    monkeypatch.setattr(inference, "arm_batch", lambda batch: seen.append([s.n for s in batch]) or real(batch))
    estimate_robust_many(samples, CFG)
    assert seen == [[1_000, 1_000, 3_000, 20_000, 2_500, 130, 1_000]]


@pytest.mark.parametrize("method", ["sharp", "neyman"])
def test_records_equal_batches_of_one(method):
    samples = _mixed()
    if method == "neyman":
        samples = [s for s in samples if s.arms.moments[1].min() > 0]
    ests = estimate_robust_many(iter(samples), CFG, method)
    for r, sample in enumerate(samples):
        alone = estimate_robust_many([ExperimentalSample(sample.outcomes, sample.treatments)], CFG, method)
        for name in ("tau_star", "v", "tau", "sigma", "sd", "n", "status"):
            assert np.array_equal(getattr(ests, name)[r:r + 1], getattr(alone, name)), (r, name)
    many = sigma_sharp_batch(arm_batch(samples))
    assert all(np.array_equal(got, sigma_sharp_batch(s.arms)[0]) for got, s in zip(many, samples))


def test_records_agree_with_the_per_sample_oracles():
    samples = _mixed()
    ests = estimate_robust_many(samples, CFG)
    moments = arm_batch(samples).moments
    neyman = estimate_robust_many(samples, CFG, "neyman")
    for r, sample in enumerate(samples):
        treated, control = central_moments(sample.treated), central_moments(sample.control)
        # moments: np.mean on each arm as drawn, bit for bit (exact on the constant arm)
        assert moments[:, 2 * r : 2 * r + 2].T.tolist() == [list(treated), list(control)]
        assert ests.tau_star[r] == treated[0] - control[0]
        v_o, v_p = sharp_bounds_per_sample(sample)
        assert abs(ests.v[r, 1] - v_o) <= 1e-13 * v_p
        assert abs(ests.v[r, 0] - v_p) <= 1e-13 * v_p
        oracle = sigma_sharp_per_sample(sample)
        scale = np.sqrt(np.outer(np.diag(oracle), np.diag(oracle)))
        assert np.all(np.abs(ests.sigma[r] - oracle) <= 1e-13 * scale)
        # the Neyman route: bounds and Sigma bit for bit those of scalar arithmetic
        assert tuple(neyman.v[r].tolist()) == neyman_bracket(treated[1], control[1])
        assert neyman.sigma[r].tolist() == sigma_neyman_per_sample(sample).tolist()


def test_no_batch_exceeds_the_budget_unless_it_holds_one_sample(monkeypatch):
    # the coverage study's batches: every replication once, at most the budget's
    # rows in a batch unless it holds one sample, and a batch closes only when
    # the next sample does not fit. The rule is the same at any budget; the
    # sizes below reach both of its cases at 2^14 rows
    budget = 1 << 14
    monkeypatch.setattr(simulation, "BATCH_ROWS", budget)
    seen = []
    real = simulation.estimate_robust_many
    monkeypatch.setattr(simulation, "estimate_robust_many",
                        lambda samples, *args: seen.append([s.n for s in samples]) or real(samples, *args))
    for n, replications in ((160, 110), (900, 100), (5_000, 100), (20_000, 100)):
        seen.clear()
        run_coverage_study(*case_preset(1, n=n), replications=replications)
        assert [size for batch in seen for size in batch] == [n] * replications, n
        for batch, following in zip(seen, seen[1:] + [[None]]):
            assert sum(batch) <= budget or len(batch) == 1
            if following[0] is not None:
                assert sum(batch) + following[0] > budget
        if n == 160:
            assert len(seen) == 2 and len(seen[0]) > 1
        if n == 20_000:
            assert all(sum(batch) > budget for batch in seen)


def test_arm_batch_of_one_sample_is_its_cached_arms():
    s = _mixed()[0]
    assert arm_batch([s]) is s.arms
    two = arm_batch([s, s])
    assert np.array_equal(two.values, np.concatenate((s.arms.values, s.arms.values)))
    assert np.array_equal(two.moments, np.concatenate((s.arms.moments, s.arms.moments), axis=1))
    assert two.starts.tolist() == [0, s.n1, s.n, s.n + s.n1, 2 * s.n]
    assert not two.values.flags.writeable


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
    alone = bounds_of(big)
    ests = estimate_robust_many([small, big], CFG)
    assert tuple(ests.v[1].tolist()) == alone
    v_o, v_p = sharp_bounds_per_sample(big)
    assert abs(alone.v_p - v_p) <= 1e-12 * v_p and abs(alone.v_o - v_o) <= 1e-12 * v_p
