import json
import math

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
from drpredict.simulation import GaussianDGP, case_preset, draw_sample
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


def test_im_level_is_at_most_one_half():
    # above 1/2, z(1 - alpha) < 0 and c would pull the ends inside the estimates
    with pytest.raises(ValidationError, match=r"alpha must be in \(0, 0.5\], got 0.55"):
        im_interval(0.0, 0.2, 1.0, 1.0, n=100, alpha=0.55)
    est = im_interval(0.0, 0.2, 1.0, 1.0, n=100, alpha=0.5)
    assert est.c_values[0] >= 0.0
    assert est.lower <= 0.0 and est.upper >= 0.2
    s = _case1(np.random.default_rng(2), 2000)
    with pytest.raises(ValidationError, match=r"alpha must be in \(0, 0.5\], got 0.6"):
        two_step_interval(estimate_robust(s, CFG), alpha=0.6, beta=0.5)
    union = two_step_interval(estimate_robust(s, CFG), alpha=0.5, beta=0.045)
    assert union.rejected_first_step is True and union.c_values[0] >= 0.0


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
    unions = two_step_intervals(ests)
    assert unions == [two_step_interval(e) for e in singles]
    assert [u.rejected_first_step for u in unions] == [True, False, True, True]


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
    # identical arms: tau_hat and v_o are exactly 0, so tau_o = tau_hat at the kink
    zero = _sample(y0, y0)
    kink = "no smooth expansion at v_b = 0 with tau_b = tau_star"
    with pytest.raises(NumericalError, match=kink):
        estimate_robust(zero, CFG)
    with pytest.raises(NumericalError, match=kink):
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
    est = two_step_interval(estimate_robust(s, CFG, "sharp"), alpha=0.05, beta=0.045)
    assert est.rejected_first_step is True
    assert est.method is IMMethod.IM_BONFERRONI
    assert est.alpha == 0.05
    assert est.first_step[0] > 0.0
    alpha2 = 0.005
    lo_c, hi_c = est.c_values
    assert ndtri(1 - alpha2) - 1e-9 <= lo_c <= hi_c <= ndtri(1 - alpha2 / 2) + 1e-9


def _grid_only(monkeypatch):
    """Turn the certificate off, so every row runs the 101-point grid."""
    monkeypatch.setattr(inference, "_certified", lambda ends, *args: np.zeros(ends.shape[0], dtype=bool))


def test_two_step_union_does_not_depend_on_the_grid_size(monkeypatch):
    # the union over the fixed 101-point grid is the 25- and the 2,001-point
    # union, bit for bit, in every built-in design on both bound routes
    assert inference._GRID_POINTS == 101
    _grid_only(monkeypatch)
    rejected = 0
    for case in range(1, 7):
        dgp, config = case_preset(case, 1000)
        samples = [draw_sample(dgp, child) for child in np.random.SeedSequence(7).spawn(50)]
        for method in ("sharp", "neyman"):
            ests = estimate_robust_many(samples, config, method)
            unions = {}
            for points in (25, 101, 2001):
                monkeypatch.setattr(inference, "_GRID_POINTS", points)
                unions[points] = [(u.lower, u.upper) for u in two_step_intervals(ests)
                                  if u.rejected_first_step]
            assert unions[25] == unions[101] == unions[2001], (case, method)
            rejected += len(unions[101])
    assert rejected == 526  # case 4's first step rejects in 13 of its 50 draws


def _scaled(sample, scale):
    return ExperimentalSample(sample.outcomes * scale, sample.treatments)


def _eqvar_like():
    """80 rows like eqvar.csv: the treated arm is the control arm plus 1,
    and the Neyman v_o is a rounding residue of order 1e-32, not 0."""
    y0 = np.random.default_rng(0).normal(size=40)
    return _sample(y0 + 1.0, y0)


def _pos():
    """The outcomes and treatments of ``tools/compare_outputs.py``'s pos.csv."""
    rng = np.random.default_rng(20250601)
    t = (rng.random(3000) < 0.3).astype(int)
    return np.where(t == 1, rng.normal(2.0, 2.0, 3000), rng.normal(0.2, 1.0, 3000)), t


def _unions_and_certificate(monkeypatch, ests):
    """The two-step unions of a batch, the same unions from the 101-point
    grid alone, and which rejecting rows the certificate passed."""
    passed = []
    certified = inference._certified
    with monkeypatch.context() as m:
        m.setattr(inference, "_certified", lambda *args: passed.append(certified(*args)) or passed[-1])
        unions = two_step_intervals(ests)
    with monkeypatch.context() as m:
        _grid_only(m)
        grid = two_step_intervals(ests)
    return unions, grid, np.concatenate(passed)


@pytest.mark.filterwarnings("ignore::drpredict.covariance.NearEqualVariancesWarning")
def test_certified_union_is_the_grid_union(monkeypatch):
    # wherever the certificate passes, the union from the two ends is the
    # 101-point union bit for bit: lower and upper end and the c range
    passed = {}
    for case in range(1, 7):
        dgp, config = case_preset(case, 1000)
        samples = [draw_sample(dgp, child) for child in np.random.SeedSequence(7).spawn(50)]
        for method in ("sharp", "neyman"):
            ests = estimate_robust_many(samples, config, method)
            unions, grid, passed[case, method] = _unions_and_certificate(monkeypatch, ests)
            assert unions == grid, (case, method)
    assert sum(p.size for p in passed.values()) == 526
    # the coverage benchmark's designs: every first step rejects, and the
    # certificate passes on at least 99% of the rows
    study = np.concatenate([passed[case, method] for case in (1, 3, 5, 6) for method in ("sharp", "neyman")])
    assert study.size == 400 and study.mean() >= 0.99

    # where the ends alone would be wrong (pos-like samples times 10^4) or a
    # bound sits at v = 0 (the shifted arms), the certificate fails
    y, t = _pos()
    pos = [ExperimentalSample(1e4 * y, t), _scaled(_case1(np.random.default_rng(26), 3000), 1e4)]
    for samples, method in ((pos, "sharp"), (pos, "neyman"), ([_eqvar_like()], "neyman")):
        ests = estimate_robust_many(samples, RobustConfig(0.5, 2.0), method)
        unions, grid, certified = _unions_and_certificate(monkeypatch, ests)
        assert unions == grid and not certified.any(), method
    assert 0.0 < ests[0].bounds.v_o < 1e-30

    # a narrow bracket at n = 300, where c_n moves with the scaled width: the
    # ends alone would misreport the c range
    dgp = GaussianDGP(mu1=2.0, mu0=0.04, sigma1=2.0, sigma0=0.2, rho=0.7, e=0.3, n=300)
    samples = [draw_sample(dgp, child) for child in np.random.SeedSequence(5).spawn(50)]
    unions, grid, certified = _unions_and_certificate(monkeypatch, estimate_robust_many(samples, CFG))
    assert unions == grid and certified.size == 50 and not certified.any()
    assert all(u.c_values[0] < u.c_values[1] for u in unions)

    # above the no-shrinkage threshold with v_o near 0 (sigma1 = sigma0)
    for rho in (1.0, 0.7):
        dgp = GaussianDGP(mu1=1.2, mu0=0.2, sigma1=1.0, sigma0=1.0, rho=rho, e=0.3, n=4000)
        samples = [draw_sample(dgp, child) for child in np.random.SeedSequence(9).spawn(60)]
        for method in ("sharp", "neyman"):
            ests = estimate_robust_many(samples, RobustConfig(2.0, 2.0), method)
            unions, grid, certified = _unions_and_certificate(monkeypatch, ests)
            assert unions == grid and certified.size == 60, (rho, method)


@pytest.mark.filterwarnings("ignore::drpredict.covariance.NearEqualVariancesWarning")
def test_batch_mixing_certified_and_grid_rows_equals_batches_of_one(monkeypatch):
    # Gaussian samples, which pass the certificate, beside a pos-like sample
    # times 10^4 and a shifted-arm sample, which run the grid: each row is
    # what it is alone
    rng = np.random.default_rng(27)
    y, t = _pos()
    samples = [_case1(rng, 800), ExperimentalSample(1e4 * y, t), _case1(rng, 1500), _eqvar_like(),
               _sample(rng.normal(-2.0, 2.0, 400), rng.normal(0.0, 1.0, 600))]
    config = RobustConfig(0.5, 2.0)
    ests = estimate_robust_many(samples, config, "neyman")
    singles = [two_step_interval(estimate_robust(s, config, "neyman")) for s in samples]
    unions, grid, certified = _unions_and_certificate(monkeypatch, ests)
    assert certified.tolist() == [True, False, True, False, True]
    assert unions == singles == grid


def test_two_step_contains_plain_im():
    rng = np.random.default_rng(5)
    for n in (500, 2000):
        for method in ("sharp", "neyman"):
            s = _case1(rng, n)
            union = two_step_interval(estimate_robust(s, CFG, method))
            im = plain_im_interval(estimate_robust(s, CFG, method))
            assert union.lower <= im.lower + 1e-12
            assert union.upper >= im.upper - 1e-12
    # pos.csv times 10^4 and 10^-2 at delta = 0.5, where the radius is small
    # or large beside the outcomes. Times 10^4, tau_p stays near 0 over half
    # the first-step interval, and the union's lower end comes from inside
    # it: the two ends alone give +2.69, above the IM interval's -245.5.
    # (Containment is no law there: on other pos-like draws the delta
    # method's SD of tau_p reaches further down than the union does.)
    y, t = _pos()
    for scale in (1e4, 1e-2):
        for method in ("sharp", "neyman"):
            est = estimate_robust(ExperimentalSample(scale * y, t), RobustConfig(0.5, 2.0), method)
            union, im = two_step_interval(est), plain_im_interval(est)
            assert union.rejected_first_step
            assert union.lower <= im.lower and union.upper >= im.upper, (scale, method)


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
