import json
import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.optimize import brentq
from scipy.special import ndtr, ndtri

from drpredict import NumericalError, ValidationError
from drpredict import inference
from drpredict.cli import main
from drpredict.inference import (
    IMMethod,
    IntervalEstimate,
    estimate_robust,
    estimate_robust_many,
    im_interval,
    plain_im_interval,
    plain_im_intervals,
    two_step_interval,
    two_step_intervals,
)
from drpredict.sample import ExperimentalSample, load_sample
from drpredict.solver import RobustConfig
from oracles import newton_root_full

Z_TWO_SIDED = 1.959964
Z_ONE_SIDED = 1.644854


def _sample(y1, y0):
    y = np.concatenate([y1, y0])
    t = np.concatenate([np.ones(len(y1), dtype=int), np.zeros(len(y0), dtype=int)])
    return ExperimentalSample(y, t)


def _case1(rng, n):
    n1 = rng.binomial(n, 0.3)
    return _sample(rng.normal(2.0, 2.0, n1), rng.normal(0.2, 1.0, n - n1))


@pytest.mark.parametrize(
    "entry",
    [
        lambda smp: estimate_robust_many([smp], RobustConfig(0.5, 2.0), method="bogus"),
    ],
    ids=["estimate_robust_many"],
)
def test_unknown_bounds_method_is_validation_error(entry):
    with pytest.raises(ValidationError, match="'bogus'; expected one of 'sharp', 'neyman'"):
        entry(_case1(np.random.default_rng(2), 200))


CFG = RobustConfig(0.1, 2.0)


# --------------------------------------------------------------- im_interval


def test_point_identified_reduces_to_two_sided_z():
    est = im_interval(1.5, 1.5, 2.0, 2.0, n=400, alpha=0.05)
    assert est.c_values[0] == pytest.approx(Z_TWO_SIDED, abs=1e-5)
    assert est.lower == pytest.approx(1.5 - Z_TWO_SIDED * 2.0 / 20.0, abs=1e-6)
    assert est.upper == pytest.approx(1.5 + Z_TWO_SIDED * 2.0 / 20.0, abs=1e-6)
    assert est.method is IMMethod.IM


def test_wide_interval_reaches_one_sided_z():
    est = im_interval(0.0, 50.0, 1.0, 1.0, n=400, alpha=0.05)
    assert est.c_values[0] == pytest.approx(Z_ONE_SIDED, abs=1e-6)


def test_critical_value_against_independent_root_finder():
    for w, alpha in [(0.5, 0.05), (1.0, 0.05), (2.0, 0.01), (3.0, 0.10), (0.1, 0.20)]:
        expected = brentq(
            lambda c: ndtr(c + w) - ndtr(-c) - (1 - alpha),
            ndtri(1 - alpha) - 1e-9,
            ndtri(1 - alpha / 2) + 1e-9,
            xtol=1e-12,
        )
        n, sd = 2500, 3.0
        width = w * sd / math.sqrt(n)
        est = im_interval(0.0, width, sd, sd, n=n, alpha=alpha)
        assert est.c_values[0] == pytest.approx(expected, abs=1e-8), (w, alpha)
        assert est.lower == pytest.approx(-expected * sd / 50.0, abs=1e-8)


def test_zero_sd_degenerates_to_estimated_range():
    est = im_interval(1.0, 2.0, 0.0, 0.0, n=100, alpha=0.05)
    assert (est.lower, est.upper) == (1.0, 2.0)


def test_asymmetric_sds_extend_each_side_separately():
    est = im_interval(0.0, 1.0, 1.0, 3.0, n=100, alpha=0.05)
    c = est.c_values[0]
    assert est.lower == pytest.approx(-c * 0.1)
    assert est.upper == pytest.approx(1.0 + c * 0.3)


def test_tiny_inversion_swaps_with_warning():
    with pytest.warns(UserWarning, match="swap"):
        est = im_interval(1.0 + 5e-11, 1.0, 0.5, 2.0, n=100, alpha=0.05)
    ref = im_interval(1.0, 1.0 + 5e-11, 2.0, 0.5, n=100, alpha=0.05)
    assert est.lower == pytest.approx(ref.lower)
    assert est.upper == pytest.approx(ref.upper)


def test_material_inversion_raises():
    with pytest.raises(NumericalError):
        im_interval(1.0 + 1e-6, 1.0, 0.5, 0.5, n=100, alpha=0.05)


def test_im_domain_errors():
    with pytest.raises(ValidationError):
        im_interval(0.0, 1.0, 1.0, 1.0, n=100, alpha=0.0)
    with pytest.raises(ValidationError):
        im_interval(0.0, 1.0, 1.0, 1.0, n=100, alpha=1.0)
    with pytest.raises(ValidationError):
        im_interval(0.0, 1.0, 1.0, 1.0, n=0, alpha=0.05)
    with pytest.raises(ValidationError):
        im_interval(0.0, 1.0, -0.1, 1.0, n=100, alpha=0.05)


@settings(max_examples=200, deadline=None)
@given(
    w=st.floats(min_value=0.0, max_value=100.0),
    alpha=st.floats(min_value=0.01, max_value=0.30),
)
def test_critical_value_stays_in_bracket(w, alpha):
    n, sd = 10_000, 1.0
    est = im_interval(0.0, w * sd / 100.0, sd, sd, n=n, alpha=alpha)
    c = est.c_values[0]
    assert ndtri(1 - alpha) - 1e-9 <= c <= ndtri(1 - alpha / 2) + 1e-9


def test_active_set_critical_values_match_full_array_oracle(monkeypatch):
    # widths from 0 (the two-sided limit) through inf (the one-sided one):
    # dropping converged entries must not change any entry's iterates
    w = np.concatenate(([0.0, np.inf], np.geomspace(1e-8, 60.0, 16 * 101 - 2)))
    w = np.random.default_rng(4).permutation(w).reshape(16, 101)
    got = inference._im_critical(w, 0.05)
    monkeypatch.setattr(inference, "newton_root", newton_root_full)
    assert got.shape == w.shape
    assert np.array_equal(got, inference._im_critical(w, 0.05))


def test_norm_cdf_matches_ndtr():
    x = np.linspace(-38.0, 38.0, 76_001)
    got, ref = inference._norm_cdf(x), ndtr(x)
    assert got.dtype == np.float64 and got.shape == x.shape
    np.testing.assert_allclose(got, ref, rtol=0.0, atol=1e-15)
    tail = ref > 1e-300
    np.testing.assert_allclose(got[tail], ref[tail], rtol=1e-13, atol=0.0)
    for v in (-37.0, -1.25, 0.0, 0.3, 8.0):
        scalar, expected = inference._norm_cdf(v), ndtr(v)
        assert np.ndim(scalar) == 0 and scalar.dtype == np.float64
        assert abs(scalar - expected) <= min(1e-15, 1e-13 * expected)


def test_z_matches_ndtri():
    p = np.linspace(1e-6, 1.0 - 1e-6, 20_001)
    got = np.array([inference._z(v) for v in p])
    np.testing.assert_allclose(got, ndtri(p), rtol=1e-14, atol=0.0)
    assert inference._z(1.0) == math.inf


def test_im_monotone_in_alpha():
    prev = None
    for alpha in (0.01, 0.05, 0.10, 0.20):
        est = im_interval(0.0, 1.0, 2.0, 2.0, n=100, alpha=alpha)
        if prev is not None:
            assert est.lower >= prev.lower - 1e-12
            assert est.upper <= prev.upper + 1e-12
        prev = est


# --------------------------------------------------------- IntervalEstimate


def test_interval_estimate_validation():
    with pytest.raises(ValidationError):
        IntervalEstimate(2.0, 1.0, 0.05, IMMethod.IM)
    with pytest.raises(ValidationError):
        IntervalEstimate(0.0, 1.0, 1.5, IMMethod.IM)
    with pytest.raises(ValidationError):
        IntervalEstimate(math.nan, math.nan, 0.05, IMMethod.IM)  # no failed first step
    ok = IntervalEstimate(0.0, 2.0, 0.05, "im")
    assert ok.length == 2.0
    assert ok.contains(1.3) and not ok.contains(2.1)
    stopped = IntervalEstimate(
        math.nan, math.nan, 0.05, IMMethod.IM_BONFERRONI,
        first_step=(-0.1, 0.2), rejected_first_step=False,
    )
    assert not stopped.contains(0.0)
    assert math.isnan(stopped.length)


# ----------------------------------------------------------- estimate_robust


def test_delta_zero_is_classic_ate_inference():
    rng = np.random.default_rng(1)
    s = _case1(rng, 3000)
    est = estimate_robust(s, RobustConfig(0.0, 2.0), "sharp")
    assert est.tau_p == est.tau_star == est.tau_o
    assert est.sd_p == est.sd_o == est.sigma.sigma_tau
    iv = plain_im_interval(estimate_robust(s, RobustConfig(0.0, 2.0), "sharp"), alpha=0.05)
    half = Z_TWO_SIDED * est.sigma.sigma_tau / math.sqrt(3000)
    assert iv.lower == pytest.approx(est.tau_star - half, abs=1e-6)
    assert iv.upper == pytest.approx(est.tau_star + half, abs=1e-6)


def test_negative_effect_orders_endpoints():
    rng = np.random.default_rng(8)
    n1 = 900
    s = _sample(rng.normal(-2.0, 2.0, n1), rng.normal(-0.2, 1.0, 2100))
    est = estimate_robust(s, CFG, "neyman")
    # negative tau*: shrinkage moves the estimates up, so tau_p >= tau_o
    assert est.tau_p >= est.tau_o
    iv = plain_im_interval(estimate_robust(s, CFG, "neyman"))
    assert iv.lower < iv.upper < 0.0


def test_q1_estimates_carry_no_sds(monkeypatch):
    def no_sigma(*args, **kwargs):
        raise AssertionError("sigma_sharp_batch ran for q = 1")

    monkeypatch.setattr(inference, "sigma_sharp_batch", no_sigma)
    rng = np.random.default_rng(9)
    est = estimate_robust(_case1(rng, 1000), RobustConfig(0.5, 1.0), "sharp")
    assert est.sigma is None and est.sd_p is None and est.sd_o is None
    assert abs(est.tau_p) <= abs(est.tau_o) <= abs(est.tau_star)
    with pytest.raises(ValidationError):
        plain_im_interval(est)
    with pytest.raises(ValidationError):
        two_step_interval(est)


def _fields(est):
    return (est.tau_p, est.tau_o, est.sd_p, est.sd_o, est.bounds, est.moments, est.n)


@pytest.mark.parametrize("method", ["sharp", "neyman"])
@pytest.mark.parametrize("config", [CFG, RobustConfig(0.0, 2.0), RobustConfig(0.7, 1.5)])
def test_batch_equals_batches_of_one(method, config):
    rng = np.random.default_rng(21)
    # a near-null sample, whose first step keeps zero, among rejecting ones
    y1, y0 = rng.normal(0, 1, 300), rng.normal(0, 1, 300)
    samples = [_case1(rng, 600), _sample(y1 - y1.mean() + y0.mean() + 0.01, y0),
               _case1(rng, 900), _sample(rng.normal(-2, 2, 400), rng.normal(0, 1, 500))]
    ests = estimate_robust_many(iter(samples), config, method)
    singles = [estimate_robust(s, config, method) for s in samples]
    assert [_fields(e) for e in ests] == [_fields(e) for e in singles]
    assert plain_im_intervals(ests) == [plain_im_interval(e) for e in singles]
    unions = two_step_intervals(ests, grid_points=51)
    assert unions == [two_step_interval(e, grid_points=51) for e in singles]
    assert [u.rejected_first_step for u in unions] == [True, False, True, True]


def test_lazy_batch_holds_one_sample_at_a_time():
    # each sample is reduced to O(grid) summaries as it arrives, so a batch
    # drawn lazily never holds more than one sample
    def draws(count):
        for seed in range(count):
            yield _case1(np.random.default_rng(seed), 100_000)

    peaks = []
    for count in (1, 16):
        tracemalloc.start()
        try:
            assert len(estimate_robust_many(draws(count), CFG)) == count
            peaks.append(tracemalloc.get_traced_memory()[1])
        finally:
            tracemalloc.stop()
    assert peaks[1] < 2 * peaks[0]


def test_empty_batches():
    assert estimate_robust_many(iter(()), CFG) == []
    assert plain_im_intervals([]) == []
    assert two_step_intervals([]) == []


def test_mixed_batch_raises():
    rng = np.random.default_rng(22)
    s = _case1(rng, 600)
    est = estimate_robust(s, CFG, "sharp")
    for other in (estimate_robust(s, RobustConfig(0.2, 2.0), "sharp"),
                  estimate_robust(s, CFG, "neyman")):
        for batch in ([est, other], [other, est]):
            with pytest.raises(ValidationError, match="share one config"):
                plain_im_intervals(batch)
            with pytest.raises(ValidationError, match="share one config"):
                two_step_intervals(batch)


def test_batch_with_zero_effect_raises_zero_tau():
    rng = np.random.default_rng(23)
    y0 = rng.normal(0.0, 1.0, 60)
    zero = _sample(y0, y0)  # identical arms: tau_hat is exactly 0
    with pytest.raises(NumericalError, match="numerically zero"):
        estimate_robust(zero, CFG)
    with pytest.raises(NumericalError, match="numerically zero"):
        estimate_robust_many([_case1(rng, 600), zero, _case1(rng, 600)], CFG)


def test_infer_json_equals_the_library_pipeline(tmp_path, capsys):
    rng = np.random.default_rng(12)
    s = _case1(rng, 800)
    path = tmp_path / "trial.csv"
    np.savetxt(path, np.column_stack([s.outcomes, s.treatments]), fmt=["%.17g", "%d"],
               delimiter=",", header="y,t", comments="")
    assert main(["infer", "--data", str(path), "--delta", "0.1", "--json"]) == 0
    doc = json.loads(capsys.readouterr().out)

    est = estimate_robust(load_sample(path, "y", "t"), CFG, "sharp")
    im = plain_im_interval(est)
    union = two_step_interval(est)
    assert (doc["tau_p"], doc["sd_p"]) == (est.tau_p, est.sd_p)
    assert doc["im"] == {
        "lower": im.lower, "upper": im.upper, "alpha": im.alpha, "c": im.c_values[0],
    }
    assert doc["im_bonferroni"] == {
        "lower": union.lower,
        "upper": union.upper,
        "alpha": union.alpha,
        "beta": 0.045,
        "c_min": union.c_values[0],
        "c_max": union.c_values[1],
        "grid_points": union.grid_points,
    }


# ---------------------------------------------------------- two-step interval


def test_two_step_preconditions():
    rng = np.random.default_rng(2)
    s = _case1(rng, 600)
    with pytest.raises(ValidationError):
        two_step_interval(estimate_robust(s, RobustConfig(0.5, 1.0)))
    with pytest.raises(ValidationError):
        two_step_interval(estimate_robust(s, CFG), alpha=0.05, beta=0.05)
    with pytest.raises(ValidationError):
        two_step_interval(estimate_robust(s, CFG), alpha=0.05, beta=-0.01)
    with pytest.raises(ValidationError):
        two_step_interval(estimate_robust(s, CFG), grid_points=24)
    with pytest.raises(ValidationError):
        two_step_interval(estimate_robust(s, CFG), alpha=1.0)


def test_two_step_stops_when_zero_not_rejected():
    rng = np.random.default_rng(3)
    s = _sample(rng.normal(0.0, 1.0, 500), rng.normal(0.0, 1.0, 500))
    est = two_step_interval(estimate_robust(s, CFG, "neyman"))
    assert est.rejected_first_step is False
    assert math.isnan(est.lower) and math.isnan(est.upper)
    assert est.first_step[0] < 0.0 < est.first_step[1]
    assert not est.contains(0.0)


def test_two_step_with_zero_beta_stops_at_first_step():
    # beta = 0 asks for the quantile at level 1, an infinite first step
    s = _case1(np.random.default_rng(17), 400)
    est = two_step_interval(estimate_robust(s, CFG), alpha=0.05, beta=0.0)
    assert est.rejected_first_step is False
    assert est.first_step == (-math.inf, math.inf)


def test_two_step_diagnostics_and_critical_range():
    rng = np.random.default_rng(4)
    s = _case1(rng, 2000)
    est = two_step_interval(
        estimate_robust(s, CFG, "sharp"), alpha=0.05, beta=0.045, grid_points=51
    )
    assert est.rejected_first_step is True
    assert est.method is IMMethod.IM_BONFERRONI
    assert est.grid_points == 51
    assert est.alpha == 0.05
    assert est.first_step[0] > 0.0
    alpha2 = 0.005
    lo_c, hi_c = est.c_values
    assert ndtri(1 - alpha2) - 1e-9 <= lo_c <= hi_c <= ndtri(1 - alpha2 / 2) + 1e-9


def test_two_step_contains_plain_im():
    rng = np.random.default_rng(5)
    for n in (500, 2000):
        for method in ("sharp", "neyman"):
            s = _case1(rng, n)
            union = two_step_interval(estimate_robust(s, CFG, method))
            im = plain_im_interval(estimate_robust(s, CFG, method))
            assert union.lower <= im.lower + 1e-12
            assert union.upper >= im.upper - 1e-12


def test_two_step_at_delta_zero_reports_the_zero_width_critical_value():
    # at delta = 0 every grid point has tau_p = tau_o = t and zero conditional
    # SDs, so the union is the first-step interval, and each grid point's c
    # is the zero-width limit z(1 - (alpha - beta)/2), as in the plain IM step
    s = _case1(np.random.default_rng(9), 2000)
    alpha, beta = 0.05, 0.045
    est = two_step_interval(estimate_robust(s, RobustConfig(0.0, 2.0)), alpha, beta)
    assert est.rejected_first_step is True
    assert (est.lower, est.upper) == est.first_step
    z = float(ndtri(1.0 - (alpha - beta) / 2.0))
    assert est.c_values[0] == est.c_values[1] == pytest.approx(z, rel=1e-14)


@pytest.mark.parametrize("alpha, beta", [(1e-17, 0.0), (1e-300, 0.0), (0.05, 0.04999999999999999)])
def test_levels_with_an_infinite_normal_quantile_are_rejected(alpha, beta):
    # z(1 - level/2) is infinite for alpha and for alpha - beta here; beta = 0
    # alone stays legal (test_two_step_with_zero_beta_stops_at_first_step)
    est = estimate_robust(_case1(np.random.default_rng(10), 2000), CFG)
    with pytest.raises(ValidationError, match="infinite"):
        if beta == 0.0:
            plain_im_interval(est, alpha)
        else:
            two_step_interval(est, alpha, beta)
    if beta == 0.0:
        with pytest.raises(ValidationError, match="infinite"):
            im_interval(0.0, 1.0, 1.0, 1.0, n=100, alpha=alpha)


def test_two_step_monotone_in_alpha():
    rng = np.random.default_rng(6)
    s = _case1(rng, 2000)
    wide = two_step_interval(estimate_robust(s, CFG, "sharp"), alpha=0.01, beta=0.005)
    narrow = two_step_interval(estimate_robust(s, CFG, "sharp"), alpha=0.10, beta=0.045)
    assert wide.lower <= narrow.lower and wide.upper >= narrow.upper


def test_two_step_methods_agree_closely():
    rng = np.random.default_rng(7)
    s = _case1(rng, 4000)
    a = two_step_interval(estimate_robust(s, CFG, "sharp"))
    b = two_step_interval(estimate_robust(s, CFG, "neyman"))
    assert a.lower == pytest.approx(b.lower, abs=0.06)
    assert a.upper == pytest.approx(b.upper, abs=0.06)


def test_case1_reproduces_reference_averages():
    # the reference per-case averages pin down the (unstated) design size at
    # roughly n=500; endpoint averages scale as 1/sqrt(n) beyond the fixed
    # population range [1.576, 1.722]
    rng = np.random.default_rng(99)
    reps, n = 300, 500
    lo_ts, hi_ts, lo_im, hi_im, ratios = [], [], [], [], []
    for _ in range(reps):
        s = _case1(rng, n)
        union = two_step_interval(estimate_robust(s, CFG, "sharp"))
        im = plain_im_interval(estimate_robust(s, CFG, "sharp"))
        lo_im.append(im.lower)
        hi_im.append(im.upper)
        if union.rejected_first_step:
            lo_ts.append(union.lower)
            hi_ts.append(union.upper)
            ratios.append(union.length / im.length)
    assert len(lo_ts) == reps  # tau* = 1.8 is far from 0 at n=500
    assert np.mean(lo_ts) == pytest.approx(1.235, abs=0.05)
    assert np.mean(hi_ts) == pytest.approx(2.080, abs=0.05)
    assert np.mean(lo_im) == pytest.approx(1.299, abs=0.05)
    assert np.mean(hi_im) == pytest.approx(2.000, abs=0.05)
    assert np.mean(ratios) == pytest.approx(1.207, abs=0.1)
