import contextlib
import json
import math
import warnings
from dataclasses import fields, is_dataclass

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.optimize import brentq
from scipy.special import ndtr, ndtri

from drpredict import NearEqualVariancesWarning, NumericalError, ValidationError
from drpredict import inference
from drpredict.cli import main
from drpredict.covariance import KINK, OK, check_status, conditional_sd_bounds
from drpredict.inference import (
    estimate_robust_many,
    plain_im_intervals,
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


def _one(sample, config, method="sharp"):
    """The record of a sample's batch of one."""
    return estimate_robust_many([sample], config, method)


def _arrays(result):
    """The fields of a record, or the arrays of a tuple, in order."""
    return [getattr(result, f.name) for f in fields(result)] if is_dataclass(result) else list(result)


def _equal(a, b):
    """Whether two results hold the same arrays bit for bit, a NaN matching a NaN."""
    return all(np.array_equal(x, y, equal_nan=x.dtype.kind == "f") if isinstance(x, np.ndarray) else x == y
               for x, y in zip(_arrays(a), _arrays(b), strict=True))


def _assert_rows_equal(batch, singles):
    """Each row of a batch's result is, bit for bit, its sample's result alone."""
    for k, one in enumerate(singles):
        rows = [x[k:k + 1] if isinstance(x, np.ndarray) else x for x in _arrays(batch)]
        assert _equal(rows, one), k


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


# -------------------------------------------------------------- the IM step


def _im(lo, hi, sd_lo, sd_hi, n, alpha):
    """(lower, upper, c_n) of the IM step for one range."""
    return tuple(float(x) for x in inference._im_endpoints(lo, hi, sd_lo, sd_hi, n, alpha))


def test_point_identified_reduces_to_two_sided_z():
    lower, upper, c = _im(1.5, 1.5, 2.0, 2.0, n=400, alpha=0.05)
    assert c == pytest.approx(Z_TWO_SIDED, abs=1e-5)
    assert lower == pytest.approx(1.5 - Z_TWO_SIDED * 2.0 / 20.0, abs=1e-6)
    assert upper == pytest.approx(1.5 + Z_TWO_SIDED * 2.0 / 20.0, abs=1e-6)


def test_wide_interval_reaches_one_sided_z():
    assert _im(0.0, 50.0, 1.0, 1.0, n=400, alpha=0.05)[2] == pytest.approx(Z_ONE_SIDED, abs=1e-6)


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
        lower, _, c = _im(0.0, width, sd, sd, n=n, alpha=alpha)
        assert c == pytest.approx(expected, abs=1e-8), (w, alpha)
        assert lower == pytest.approx(-expected * sd / 50.0, abs=1e-8)


def test_zero_sd_degenerates_to_estimated_range():
    assert _im(1.0, 2.0, 0.0, 0.0, n=100, alpha=0.05)[:2] == (1.0, 2.0)


def test_asymmetric_sds_extend_each_side_separately():
    lower, upper, c = _im(0.0, 1.0, 1.0, 3.0, n=100, alpha=0.05)
    assert lower == pytest.approx(-c * 0.1)
    assert upper == pytest.approx(1.0 + c * 0.3)


def test_im_domain_errors():
    with pytest.raises(ValidationError):
        _im(0.0, 1.0, 1.0, 1.0, n=100, alpha=0.0)
    with pytest.raises(ValidationError):
        _im(0.0, 1.0, 1.0, 1.0, n=100, alpha=1.0)


def test_im_level_is_at_most_one_half():
    # above 1/2, z(1 - alpha) < 0 and c would pull the ends inside the estimates
    with pytest.raises(ValidationError, match=r"alpha must be in \(0, 0.5\], got 0.55"):
        _im(0.0, 0.2, 1.0, 1.0, n=100, alpha=0.55)
    lower, upper, c = _im(0.0, 0.2, 1.0, 1.0, n=100, alpha=0.5)
    assert c >= 0.0
    assert lower <= 0.0 and upper >= 0.2
    est = _one(_case1(np.random.default_rng(2), 2000), CFG)
    with pytest.raises(ValidationError, match=r"alpha must be in \(0, 0.5\], got 0.6"):
        two_step_intervals(est, alpha=0.6, beta=0.5)
    union = two_step_intervals(est, alpha=0.5, beta=0.045)
    assert union.rejected[0] and union.c_min[0] >= 0.0


@settings(max_examples=200, deadline=None)
@given(
    w=st.floats(min_value=0.0, max_value=100.0),
    alpha=st.floats(min_value=0.01, max_value=0.30),
)
def test_critical_value_stays_in_bracket(w, alpha):
    n, sd = 10_000, 1.0
    c = _im(0.0, w * sd / 100.0, sd, sd, n=n, alpha=alpha)[2]
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
        est = _im(0.0, 1.0, 2.0, 2.0, n=100, alpha=alpha)
        if prev is not None:
            assert est[0] >= prev[0] - 1e-12
            assert est[1] <= prev[1] + 1e-12
        prev = est


# ------------------------------------------------------ estimate_robust_many


def test_delta_zero_is_classic_ate_inference():
    rng = np.random.default_rng(1)
    s = _case1(rng, 3000)
    est = _one(s, RobustConfig(0.0, 2.0), "sharp")
    assert est.tau[0, 0] == est.tau_star[0] == est.tau[0, 1]
    assert est.sd[0, 0] == est.sd[0, 1] == est.sd_tau[0]
    assert est.status.tolist() == [[OK, OK]]
    lower, upper, _ = plain_im_intervals(est, alpha=0.05)
    half = Z_TWO_SIDED * est.sd_tau[0] / math.sqrt(3000)
    assert lower[0] == pytest.approx(est.tau_star[0] - half, abs=1e-6)
    assert upper[0] == pytest.approx(est.tau_star[0] + half, abs=1e-6)


def test_negative_effect_orders_endpoints():
    rng = np.random.default_rng(8)
    n1 = 900
    s = _sample(rng.normal(-2.0, 2.0, n1), rng.normal(-0.2, 1.0, 2100))
    est = _one(s, CFG, "neyman")
    # negative tau*: shrinkage moves the estimates up, so tau_p >= tau_o
    assert est.tau[0, 0] >= est.tau[0, 1]
    lower, upper, _ = plain_im_intervals(est)
    assert lower[0] < upper[0] < 0.0


def test_q1_estimates_carry_no_sds(monkeypatch):
    def no_sigma(*args, **kwargs):
        raise AssertionError("sigma_sharp_batch ran for q = 1")

    monkeypatch.setattr(inference, "sigma_sharp_batch", no_sigma)
    rng = np.random.default_rng(9)
    est = _one(_case1(rng, 1000), RobustConfig(0.5, 1.0), "sharp")
    assert est.sigma is None and np.isnan(est.sd_tau).all() and np.isnan(est.sd).all()
    assert est.status.tolist() == [["q = 1", "q = 1"]]
    check_status(est.status)  # q = 1 is no failure
    assert abs(est.tau[0, 0]) <= abs(est.tau[0, 1]) <= abs(est.tau_star[0])
    with pytest.raises(ValidationError):
        plain_im_intervals(est)
    with pytest.raises(ValidationError):
        two_step_intervals(est)


@pytest.mark.parametrize("method", ["sharp", "neyman"])
@pytest.mark.parametrize("config", [CFG, RobustConfig(0.0, 2.0), RobustConfig(0.7, 1.5)])
def test_batch_equals_batches_of_one(method, config):
    rng = np.random.default_rng(21)
    # a near-null sample, whose first step keeps zero, among rejecting ones
    y1, y0 = rng.normal(0, 1, 300), rng.normal(0, 1, 300)
    samples = [_case1(rng, 600), _sample(y1 - y1.mean() + y0.mean() + 0.01, y0),
               _case1(rng, 900), _sample(rng.normal(-2, 2, 400), rng.normal(0, 1, 500))]
    rejected = [True, False, True, True]
    warns = contextlib.nullcontext()
    if method == "neyman":
        # in one ragged batch: a constant arm, arm variances within 1e-3 of
        # each other, and an ordinary sample
        y1, y0 = rng.normal(0, 1, 400), rng.normal(0.2, 1, 500)
        near = _sample(2.0 + (y1 - y1.mean()) * (y0.std() / y1.std() * 1.0002), y0)
        assert abs(near.arms.moments[1, 0] / near.arms.moments[1, 1] - 1.0) < 1e-3
        samples += [_sample(rng.normal(2, 2, 400), np.full(300, 0.5)), near, _case1(rng, 700)]
        rejected += [True, True, True]
        warns = pytest.warns(NearEqualVariancesWarning)
    with warns:
        ests = estimate_robust_many(iter(samples), config, method)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", NearEqualVariancesWarning)
        singles = [_one(s, config, method) for s in samples]
    assert ests.tau.shape == ests.sd.shape == ests.status.shape == (len(samples), 2)
    _assert_rows_equal(ests, singles)
    _assert_rows_equal(plain_im_intervals(ests), [plain_im_intervals(e) for e in singles])
    unions = two_step_intervals(ests)
    _assert_rows_equal(unions, [two_step_intervals(e) for e in singles])
    assert unions.rejected.tolist() == rejected


def test_empty_batches():
    # a record has a row per sample, so a batch of none is an input error
    with pytest.raises(ValidationError, match="at least one sample"):
        estimate_robust_many(iter(()), CFG)


def _eqvar_like():
    """80 rows like eqvar.csv: the treated arm is the control arm plus 1,
    and the Neyman v_o is a rounding residue of order 1e-32, not 0."""
    y0 = np.random.default_rng(0).normal(size=40)
    return _sample(y0 + 1.0, y0)


def test_kink_sample_leaves_the_rows_beside_it_as_they_are_alone():
    # a sharp-route batch with a shifted-arm sample (v_o = 0 and tau_o =
    # tau*, the kink) between two Gaussian samples: nothing raises, the kink
    # row says why it has no sd_o, and the Gaussian rows are what they are
    # alone in every array, the intervals' too
    rng = np.random.default_rng(24)
    samples = [_case1(rng, 600), _eqvar_like(), _case1(rng, 900)]
    config = RobustConfig(0.5, 2.0)
    est = estimate_robust_many(samples, config)
    assert est.v[1, 1] == 0.0 and est.tau[1, 1] == est.tau_star[1]
    assert est.status.tolist() == [[OK, OK], [OK, KINK], [OK, OK]]
    assert np.isnan(est.sd[1, 1]) and np.isfinite(est.sd[1, 0])
    assert np.isfinite(np.delete(est.sd, 1, axis=0)).all()
    im, union = plain_im_intervals(est), two_step_intervals(est)
    assert all(np.isnan(x[1]) for x in im)
    assert union.rejected[1] and np.isnan([union.lower[1], union.upper[1], union.c_min[1]]).all()
    assert union.status[1].tolist() == [OK, KINK]
    gaussian = [0, 2]
    alone = [_one(samples[k], config) for k in gaussian]
    for result, singles in ((est, alone), (im, [plain_im_intervals(e) for e in alone]),
                            (union, [two_step_intervals(e) for e in alone])):
        _assert_rows_equal([x[gaussian] if isinstance(x, np.ndarray) else x for x in _arrays(result)], singles)
    kink = "no smooth expansion at v_b = 0 with tau_b = tau_star"
    for status in (est.status, union.status):
        with pytest.raises(NumericalError, match=kink):
            check_status(status)


def test_batch_with_zero_effect_raises_zero_tau():
    rng = np.random.default_rng(23)
    y0 = rng.normal(0.0, 1.0, 60)
    # identical arms: tau_hat and v_o are exactly 0, so tau_o = tau_hat at
    # the kink; the status raises it, for the sample alone and in a batch
    zero = _sample(y0, y0)
    kink = "no smooth expansion at v_b = 0 with tau_b = tau_star"
    for samples in ([zero], [_case1(rng, 600), zero, _case1(rng, 600)]):
        est = estimate_robust_many(samples, CFG)
        with pytest.raises(NumericalError, match=kink):
            check_status(est.status)


def test_infer_json_equals_the_library_pipeline(tmp_path, capsys):
    rng = np.random.default_rng(12)
    s = _case1(rng, 800)
    path = tmp_path / "trial.csv"
    np.savetxt(path, np.column_stack([s.outcomes, s.treatments]), fmt=["%.17g", "%d"],
               delimiter=",", header="y,t", comments="")
    assert main(["infer", "--data", str(path), "--delta", "0.1", "--json"]) == 0
    doc = json.loads(capsys.readouterr().out)

    est = _one(load_sample(path, "y", "t"), CFG, "sharp")
    lower, upper, c = plain_im_intervals(est)
    union = two_step_intervals(est)
    assert (doc["tau_p"], doc["sd_p"], doc["sd_tau"]) == (est.tau[0, 0], est.sd[0, 0], est.sd_tau[0])
    assert doc["im"] == {"lower": lower[0], "upper": upper[0], "alpha": 0.05, "c": c[0]}
    assert doc["first_step"] == {"lower": union.first_lo[0], "upper": union.first_hi[0], "level": 0.955}
    assert doc["im_bonferroni"] == {
        "lower": union.lower[0],
        "upper": union.upper[0],
        "alpha": 0.05,
        "beta": 0.045,
        "c_min": union.c_min[0],
        "c_max": union.c_max[0],
    }


# ---------------------------------------------------------- two-step interval


def test_two_step_preconditions():
    rng = np.random.default_rng(2)
    s = _case1(rng, 600)
    with pytest.raises(ValidationError):
        two_step_intervals(_one(s, RobustConfig(0.5, 1.0)))
    est = _one(s, CFG)
    with pytest.raises(ValidationError):
        two_step_intervals(est, alpha=0.05, beta=0.05)
    with pytest.raises(ValidationError):
        two_step_intervals(est, alpha=0.05, beta=-0.01)
    with pytest.raises(ValidationError):
        two_step_intervals(est, alpha=1.0)


def test_two_step_stops_when_zero_not_rejected():
    rng = np.random.default_rng(3)
    s = _sample(rng.normal(0.0, 1.0, 500), rng.normal(0.0, 1.0, 500))
    union = two_step_intervals(_one(s, CFG, "neyman"))
    assert not union.rejected[0]
    assert np.isnan([union.lower[0], union.upper[0], union.c_min[0], union.c_max[0]]).all()
    assert union.first_lo[0] < 0.0 < union.first_hi[0]
    assert union.status.tolist() == [[OK, OK]]


def test_two_step_with_zero_beta_stops_at_first_step():
    # beta = 0 asks for the quantile at level 1, an infinite first step
    s = _case1(np.random.default_rng(17), 400)
    union = two_step_intervals(_one(s, CFG), alpha=0.05, beta=0.0)
    assert not union.rejected[0]
    assert (union.first_lo[0], union.first_hi[0]) == (-math.inf, math.inf)


def test_two_step_diagnostics_and_critical_range():
    rng = np.random.default_rng(4)
    s = _case1(rng, 2000)
    union = two_step_intervals(_one(s, CFG, "sharp"), alpha=0.05, beta=0.045)
    assert union.rejected[0]
    assert union.first_lo[0] > 0.0
    alpha2 = 0.005
    assert ndtri(1 - alpha2) - 1e-9 <= union.c_min[0] <= union.c_max[0] <= ndtri(1 - alpha2 / 2) + 1e-9


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
                u = two_step_intervals(ests)
                unions[points] = (u.lower[u.rejected].tolist(), u.upper[u.rejected].tolist())
            assert unions[25] == unions[101] == unions[2001], (case, method)
            rejected += len(unions[101][0])
    assert rejected == 526  # case 4's first step rejects in 13 of its 50 draws


def _scaled(sample, scale):
    return ExperimentalSample(sample.outcomes * scale, sample.treatments)


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
            assert _equal(unions, grid), (case, method)
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
        assert _equal(unions, grid) and not certified.any(), method
    assert 0.0 < ests.v[0, 1] < 1e-30

    # a narrow bracket at n = 300, where c_n moves with the scaled width: the
    # ends alone would misreport the c range
    dgp = GaussianDGP(mu1=2.0, mu0=0.04, sigma1=2.0, sigma0=0.2, rho=0.7, e=0.3, n=300)
    samples = [draw_sample(dgp, child) for child in np.random.SeedSequence(5).spawn(50)]
    unions, grid, certified = _unions_and_certificate(monkeypatch, estimate_robust_many(samples, CFG))
    assert _equal(unions, grid) and certified.size == 50 and not certified.any()
    assert (unions.c_min < unions.c_max).all()

    # above the no-shrinkage threshold with v_o near 0 (sigma1 = sigma0)
    for rho in (1.0, 0.7):
        dgp = GaussianDGP(mu1=1.2, mu0=0.2, sigma1=1.0, sigma0=1.0, rho=rho, e=0.3, n=4000)
        samples = [draw_sample(dgp, child) for child in np.random.SeedSequence(9).spawn(60)]
        for method in ("sharp", "neyman"):
            ests = estimate_robust_many(samples, RobustConfig(2.0, 2.0), method)
            unions, grid, certified = _unions_and_certificate(monkeypatch, ests)
            assert _equal(unions, grid) and certified.size == 60, (rho, method)


def test_certificate_refuses_a_row_whose_critical_value_is_not_saturated(monkeypatch):
    # a row the certificate passes at n = 1,000 (case 1, sharp), given to it
    # again with n shrunk until the least c + w lies in (6, 8.5), and then
    # in (8.5, sqrt(76 + c^2)), where c + w >= 8.5 holds but w (2c + w) >= 76
    # does not: there c_n still moves with the scaled width w across the
    # grid, and the row must fail
    dgp, config = case_preset(1, 1000)
    sample = draw_sample(dgp, np.random.SeedSequence(7).spawn(50)[0])
    calls = []
    certified = inference._certified
    monkeypatch.setattr(inference, "_certified", lambda *args: calls.append(args) or certified(*args))
    two_step_intervals(_one(sample, config))
    (ends, tau, v, s_bb, n, config, level), = calls
    assert certified(ends, tau, v, s_bb, n, config, level).tolist() == [True]
    # the least w over the interval, over sqrt(n): the spread |tau_o| - |tau_p|
    # at the ends, less how far it can stray between them, over the largest SD
    slope_lo, slope_hi, sd_hi, _, tau_err, _ = conditional_sd_bounds(np.abs(ends), tau, v, s_bb, config)
    fall, climb = max(slope_hi[0, 0] - slope_lo[0, 1], 0.0), max(slope_hi[0, 1] - slope_lo[0, 0], 0.0)
    reach = abs(ends[0, 0, 1] - ends[0, 0, 0]) * fall * climb / (fall + climb) + 2.0 * tau_err.max()
    per_root_n = ((np.abs(tau[0, 1]) - np.abs(tau[0, 0])).min() - reach) / sd_hi.max()
    c = inference._z(1.0 - level)
    assert c + math.sqrt(n[0]) * per_root_n > 20.0
    for lo, hi in ((6.0, 8.5), (8.5, math.sqrt(76.0 + c * c))):
        small = round(((0.5 * (lo + hi) - c) / per_root_n) ** 2)
        assert lo < c + math.sqrt(small) * per_root_n < hi
        assert certified(ends, tau, v, s_bb, np.array([small]), config, level).tolist() == [False], lo


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
    singles = [two_step_intervals(_one(s, config, "neyman")) for s in samples]
    unions, grid, certified = _unions_and_certificate(monkeypatch, ests)
    assert certified.tolist() == [True, False, True, False, True]
    _assert_rows_equal(unions, singles)
    assert _equal(unions, grid)


def test_two_step_contains_plain_im():
    rng = np.random.default_rng(5)
    for n in (500, 2000):
        for method in ("sharp", "neyman"):
            est = _one(_case1(rng, n), CFG, method)
            union, (im_lo, im_hi, _) = two_step_intervals(est), plain_im_intervals(est)
            assert union.lower[0] <= im_lo[0] + 1e-12
            assert union.upper[0] >= im_hi[0] - 1e-12
    # pos.csv times 10^4 and 10^-2 at delta = 0.5, where the radius is small
    # or large beside the outcomes. Times 10^4, tau_p stays near 0 over half
    # the first-step interval, and the union's lower end comes from inside
    # it: the two ends alone give +2.69, above the IM interval's -245.5.
    # (Containment is no law there: on other pos-like draws the delta
    # method's SD of tau_p reaches further down than the union does.)
    y, t = _pos()
    for scale in (1e4, 1e-2):
        for method in ("sharp", "neyman"):
            est = _one(ExperimentalSample(scale * y, t), RobustConfig(0.5, 2.0), method)
            union, (im_lo, im_hi, _) = two_step_intervals(est), plain_im_intervals(est)
            assert union.rejected[0]
            assert union.lower[0] <= im_lo[0] and union.upper[0] >= im_hi[0], (scale, method)


def test_two_step_at_delta_zero_reports_the_zero_width_critical_value():
    # at delta = 0 every grid point has tau_p = tau_o = t and zero conditional
    # SDs, so the union is the first-step interval, and each grid point's c
    # is the zero-width limit z(1 - (alpha - beta)/2), as in the plain IM step
    s = _case1(np.random.default_rng(9), 2000)
    alpha, beta = 0.05, 0.045
    union = two_step_intervals(_one(s, RobustConfig(0.0, 2.0)), alpha, beta)
    assert union.rejected[0]
    assert (union.lower[0], union.upper[0]) == (union.first_lo[0], union.first_hi[0])
    z = float(ndtri(1.0 - (alpha - beta) / 2.0))
    assert union.c_min[0] == union.c_max[0] == pytest.approx(z, rel=1e-14)


@pytest.mark.parametrize("alpha, beta", [(1e-17, 0.0), (1e-300, 0.0), (0.05, 0.04999999999999999)])
def test_levels_with_an_infinite_normal_quantile_are_rejected(alpha, beta):
    # z(1 - level/2) is infinite for alpha and for alpha - beta here; beta = 0
    # alone stays legal (test_two_step_with_zero_beta_stops_at_first_step)
    est = _one(_case1(np.random.default_rng(10), 2000), CFG)
    with pytest.raises(ValidationError, match="infinite"):
        if beta == 0.0:
            plain_im_intervals(est, alpha)
        else:
            two_step_intervals(est, alpha, beta)
    if beta == 0.0:
        with pytest.raises(ValidationError, match="infinite"):
            _im(0.0, 1.0, 1.0, 1.0, n=100, alpha=alpha)


def test_two_step_monotone_in_alpha():
    rng = np.random.default_rng(6)
    est = _one(_case1(rng, 2000), CFG, "sharp")
    wide = two_step_intervals(est, alpha=0.01, beta=0.005)
    narrow = two_step_intervals(est, alpha=0.10, beta=0.045)
    assert wide.lower[0] <= narrow.lower[0] and wide.upper[0] >= narrow.upper[0]


def test_two_step_methods_agree_closely():
    rng = np.random.default_rng(7)
    s = _case1(rng, 4000)
    a = two_step_intervals(_one(s, CFG, "sharp"))
    b = two_step_intervals(_one(s, CFG, "neyman"))
    assert a.lower[0] == pytest.approx(b.lower[0], abs=0.06)
    assert a.upper[0] == pytest.approx(b.upper[0], abs=0.06)


def test_case1_reproduces_reference_averages():
    # the reference per-case averages pin down the (unstated) design size at
    # roughly n=500; endpoint averages scale as 1/sqrt(n) beyond the fixed
    # population range [1.576, 1.722]
    rng = np.random.default_rng(99)
    reps, n = 300, 500
    est = estimate_robust_many([_case1(rng, n) for _ in range(reps)], CFG, "sharp")
    union, (im_lo, im_hi, _) = two_step_intervals(est), plain_im_intervals(est)
    assert union.rejected.all()  # tau* = 1.8 is far from 0 at n=500
    assert np.mean(union.lower) == pytest.approx(1.235, abs=0.05)
    assert np.mean(union.upper) == pytest.approx(2.080, abs=0.05)
    assert np.mean(im_lo) == pytest.approx(1.299, abs=0.05)
    assert np.mean(im_hi) == pytest.approx(2.000, abs=0.05)
    ratios = (union.upper - union.lower) / (im_hi - im_lo)
    assert np.mean(ratios) == pytest.approx(1.207, abs=0.1)
