import concurrent.futures
import csv
import json
import math
import os
import tracemalloc
from dataclasses import asdict

import numpy as np
import pytest
from scipy import stats

from drpredict import ExperimentalSample, NumericalError, ValidationError
from drpredict import simulation
from drpredict.covariance import prediction_sd_grid, sigma_sharp_batch
from drpredict.inference import _im_critical, _im_endpoints, _z, estimate_robust_many
from drpredict.simulation import (
    GaussianDGP,
    SimulationReport,
    _draw_potentials,
    _replicate_batch,
    case_preset,
    draw_sample,
    population_truth,
    run_coverage_study,
    write_reports_csv,
)
from drpredict.solver import RobustConfig, penalty_derivs, solve_minimax
from oracles import bounds_of, sharp_bounds_population


# ------------------------------------------------------------------ designs


def test_dgp_validation():
    ok = dict(mu1=1.0, mu0=0.0, sigma1=1.0, sigma0=1.0, rho=0.0, e=0.5, n=10)
    GaussianDGP(**ok)
    for bad in (
        dict(sigma1=0.0),
        dict(sigma0=-1.0),
        dict(rho=1.5),
        dict(rho=-1.01),
        dict(e=0.0),
        dict(e=1.0),
        dict(n=1),
    ):
        with pytest.raises(ValidationError):
            GaussianDGP(**{**ok, **bad})


def test_case_presets():
    with pytest.raises(ValidationError):
        case_preset(7)
    dgp1, cfg1 = case_preset(1)
    assert (dgp1.mu1, dgp1.mu0, dgp1.rho, dgp1.e, dgp1.n) == (2.0, 0.2, 0.7, 0.3, 1000)
    assert (cfg1.delta, cfg1.q) == (0.1, 2.0)
    _, cfg2 = case_preset(2)
    assert cfg2.delta == 1.0
    dgp3, cfg3 = case_preset(3, n=500)
    assert (dgp3.sigma1, dgp3.sigma0, dgp3.n) == (0.02, 0.01, 500)
    assert cfg3.delta == pytest.approx(0.01)
    dgp4, cfg4 = case_preset(4)
    assert (dgp4.mu1, dgp4.mu0) == (2.0, 0.2)
    assert cfg4.delta == 1.0
    # cost order p maps to the conjugate dual order q
    assert case_preset(5)[1].q == pytest.approx(3.0)
    assert case_preset(6)[1].q == pytest.approx(1.5)


def test_population_predictions_match_reference_values():
    reference = {1: 1.686, 2: 0.879, 3: 0.018, 4: 0.157, 5: 1.682, 6: 1.680}
    for case, value in reference.items():
        dgp, cfg = case_preset(case)
        truth = population_truth(dgp, cfg)
        assert truth.tau_dr == pytest.approx(value, abs=0.002), case
        # prediction sandwich: more variance shrinks harder
        assert truth.tau_p <= truth.tau_dr <= truth.tau_o


def test_population_truth_case1_parameters():
    dgp, cfg = case_preset(1)
    truth = population_truth(dgp, cfg)
    assert truth.tau_star == pytest.approx(1.8)
    assert truth.v_joint == pytest.approx(2.2)
    assert truth.v_o == pytest.approx(1.0)
    assert truth.v_p == pytest.approx(9.0)


@pytest.mark.parametrize("sigma1, sigma0", [(1e300, 1e300), (1e300, 1.0), (1e200, 1e200)])
def test_population_truth_with_an_overflowing_variance_is_validation_error(sigma1, sigma0):
    # sigma**2 raised OverflowError here; the squares are now inf, which the
    # solver's finite-variance check rejects
    dgp = GaussianDGP(mu1=1.0, mu0=0.0, sigma1=sigma1, sigma0=sigma0, rho=0.7, e=0.3, n=100)
    with pytest.raises(ValidationError, match="variance must be finite"):
        population_truth(dgp, RobustConfig(0.1, 2.0))


def test_population_bounds_agree_with_quadrature():
    # closed form (sigma1 -+ sigma0)^2 against numerical coupling integrals
    dgp, _ = case_preset(1)
    v_o_num, v_p_num = None, None
    q1 = lambda u: dgp.mu1 + dgp.sigma1 * stats.norm.ppf(u)
    q0 = lambda u: dgp.mu0 + dgp.sigma0 * stats.norm.ppf(u)
    b = sharp_bounds_population(q1, q0, grid_size=20_000)
    assert b.v_o == pytest.approx(1.0, rel=0.01)
    assert b.v_p == pytest.approx(9.0, rel=0.01)


# ------------------------------------------------------------------ sampling


def test_draw_sample_deterministic():
    dgp, _ = case_preset(1, n=300)
    a = draw_sample(dgp, 12345)
    b = draw_sample(dgp, 12345)
    np.testing.assert_array_equal(a.outcomes, b.outcomes)
    np.testing.assert_array_equal(a.treatments, b.treatments)
    c = draw_sample(dgp, 12346)
    assert not np.array_equal(a.outcomes, c.outcomes)


def test_comonotone_equal_scale_is_pure_shift():
    dgp = GaussianDGP(mu1=1.5, mu0=0.5, sigma1=2.0, sigma0=2.0, rho=1.0, e=0.5, n=200)
    y1, y0, _ = _draw_potentials(dgp, np.random.default_rng(0))
    # a pure location shift, up to one rounding ulp per coordinate
    np.testing.assert_allclose(y1 - y0, 1.0, rtol=0, atol=1e-16 * np.abs(y1).max())


def test_treated_share_concentrates():
    dgp, _ = case_preset(1, n=1_000_000)
    s = draw_sample(dgp, 7)
    assert abs(s.n1 / s.n - 0.3) < 0.002


def test_degenerate_sample_raises_after_retry():
    dgp = GaussianDGP(mu1=0.0, mu0=0.0, sigma1=1.0, sigma0=1.0, rho=0.0, e=0.001, n=5)
    with pytest.raises(ValidationError):
        draw_sample(dgp, 0)


def test_degenerate_sample_retry_succeeds():
    # find a seed whose first draw is single-arm but whose second is usable,
    # then confirm draw_sample recovers instead of raising
    dgp = GaussianDGP(mu1=0.0, mu0=0.0, sigma1=1.0, sigma0=1.0, rho=0.0, e=0.05, n=12)
    for seed in range(400):
        rng = np.random.default_rng(seed)
        _, _, t1 = _draw_potentials(dgp, rng)
        _, _, t2 = _draw_potentials(dgp, rng)
        first_bad = t1.sum() in (0, dgp.n)
        second_ok = 0 < t2.sum() < dgp.n
        if first_bad and second_ok:
            s = draw_sample(dgp, seed)
            assert 0 < s.n1 < dgp.n
            return
    pytest.fail("no retry seed found in range")


# ------------------------------------------------------------ coverage study


def test_coverage_study_validation():
    dgp, cfg = case_preset(1, n=200)
    with pytest.raises(ValidationError):
        run_coverage_study(dgp, cfg, replications=99)
    with pytest.raises(ValidationError):
        run_coverage_study(dgp, cfg, replications=100, beta=0.06)


def test_coverage_study_deterministic():
    dgp, cfg = case_preset(1, n=300)
    a = run_coverage_study(dgp, cfg, replications=100, seed=11, case="case1")
    b = run_coverage_study(dgp, cfg, replications=100, seed=11, case="case1")
    assert a == b
    assert 0.0 <= a.coverage_im <= 1.0
    assert a.case == "case1" and a.n == 300 and a.replications == 100


@pytest.mark.parametrize("cpus", [1, None])
def test_coverage_study_workers_capped_at_cpu_count(cpus, monkeypatch):
    dgp, cfg = case_preset(1, n=200)
    serial = run_coverage_study(dgp, cfg, replications=100, seed=5)

    def no_pool(*args, **kwargs):
        raise AssertionError("a process pool was started")

    monkeypatch.setattr(os, "cpu_count", lambda: cpus)
    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", no_pool)
    assert run_coverage_study(dgp, cfg, replications=100, seed=5, workers=64) == serial


def test_coverage_study_case1_sanity():
    dgp, cfg = case_preset(1, n=1000)
    rep = run_coverage_study(dgp, cfg, replications=300, seed=3, case="case1")
    # table value is 0.958; smoke band leaves room for 300-rep noise
    assert 0.90 <= rep.coverage_im <= 1.0
    assert rep.coverage_bonf >= rep.coverage_im - 0.02
    assert rep.rejected_count == 300  # tau*=1.8 is 15 sigma from 0 here
    assert rep.length_ratio_mean >= 1.0
    assert rep.bonf_lower_mean <= rep.im_lower_mean
    assert rep.bonf_upper_mean >= rep.im_upper_mean
    assert rep.truth.tau_dr == pytest.approx(1.686, abs=0.002)


def test_coverage_study_delta_zero_reduces_to_ate():
    dgp, _ = case_preset(1, n=800)
    cfg = RobustConfig(0.0, 2.0)
    truth = population_truth(dgp, cfg)
    assert truth.tau_dr == truth.tau_star == pytest.approx(1.8)
    rep = run_coverage_study(dgp, cfg, replications=400, seed=5)
    assert rep.coverage_im == pytest.approx(0.95, abs=0.035)
    assert rep.coverage_bonf == pytest.approx(0.955, abs=0.035)


def _blocks(dgp, cfg, edges, seed=7, replications=100):
    children = np.random.SeedSequence(seed).spawn(replications)
    return np.concatenate([
        _replicate_batch(dgp, cfg, children[lo:hi], 0.05, 0.045, "sharp")
        for lo, hi in zip(edges[:-1], edges[1:])
    ])


@pytest.mark.parametrize("batch", [16, 100])  # 16: a study batch at n = 1000
@pytest.mark.parametrize("case", [1, 3])
def test_replications_do_not_depend_on_their_batch(case, batch):
    dgp, cfg = case_preset(case, n=400)
    whole = _blocks(dgp, cfg, [0, 100])
    assert whole.shape == (100, 6)
    for edges in ([*range(0, 100, batch), 100], [0, 37, 100], list(range(101))):
        assert np.array_equal(_blocks(dgp, cfg, edges), whole, equal_nan=True)


def _old_replication(dgp, cfg, child, alpha=0.05, beta=0.045):
    """One replication as composed before the study was batched: one scalar
    prediction_sd_grid call per prediction, a one-entry IM step, and a
    (2, grid) two-step whose conditional SD is |gap / (2 A^3)| sqrt(S_bb) / M''."""
    sample = draw_sample(dgp, child)
    tau_star = float(sample.arms.ate[0])
    bounds = bounds_of(sample)
    s = sigma_sharp_batch(sample.arms)[0]
    tau_p, tau_o = solve_minimax(tau_star, [bounds.v_p, bounds.v_o], cfg.delta, cfg.q).tolist()
    sd_p, sd_o = (
        float(prediction_sd_grid(tau_star, tau_b, v_b, (s[b, b], s[b, 2], s[2, 2]), cfg)[0])
        for b, (tau_b, v_b) in enumerate(((tau_p, bounds.v_p), (tau_o, bounds.v_o)))
    )
    pair = (tau_p, tau_o, sd_p, sd_o) if tau_p <= tau_o else (tau_o, tau_p, sd_o, sd_p)
    im_lower, im_upper, _ = (float(x) for x in _im_endpoints(*pair, sample.n, alpha))

    root_n = math.sqrt(sample.n)
    half = _z(1.0 - beta / 2.0) * (math.sqrt(max(s[2, 2], 0.0)) / root_n)
    first = (tau_star - half, tau_star + half)
    if first[0] <= 0.0 <= first[1]:
        return (im_lower, im_upper, math.nan, math.nan, math.nan, False)
    ts = np.linspace(first[0], first[1], 101)
    v = np.array([[bounds.v_p], [bounds.v_o]])
    tau = solve_minimax(ts, v, cfg.delta, cfg.q)
    gap = ts - tau
    a_sq = v + gap * gap
    a = np.sqrt(a_sq)
    curvature = v / (a_sq * a) + cfg.delta * penalty_derivs(tau, cfg.q)[2]
    s_bb = np.array([[s[0, 0]], [s[1, 1]]])
    sd = np.abs(gap / (2.0 * a_sq * a)) * np.sqrt(s_bb) / curvature
    order = np.argsort(tau, axis=0, kind="stable")  # tau_p first on ties
    lo, hi = np.take_along_axis(tau, order, 0)
    sd_lo, sd_hi = np.take_along_axis(sd, order, 0)
    sd_max = np.maximum(sd_lo, sd_hi)
    scaled = np.where(sd_max > 0.0, root_n * (hi - lo) / np.where(sd_max > 0.0, sd_max, 1.0), np.inf)
    c = _im_critical(scaled, alpha - beta)
    lower = float((lo - c * sd_lo / root_n).min())
    upper = float((hi + c * sd_hi / root_n).max())
    return (im_lower, im_upper, lower, upper, (upper - lower) / (im_upper - im_lower), True)


@pytest.mark.parametrize("case", [1, 3, 5, 6])
def test_batched_study_matches_per_replication_composition(case):
    dgp, cfg = case_preset(case, n=1000)
    rep = run_coverage_study(dgp, cfg, replications=100, seed=1)
    target = rep.truth.tau_dr
    records = [_old_replication(dgp, cfg, child)
               for child in np.random.SeedSequence(1).spawn(100)]
    rejected = [r for r in records if r[5]]
    assert rep.rejected_count == len(rejected)
    assert rep.coverage_im == sum(r[0] <= target <= r[1] for r in records) / 100
    assert rep.coverage_bonf == sum(r[2] <= target <= r[3] for r in rejected) / len(rejected)
    for got, column, rows in (
        (rep.im_lower_mean, 0, records), (rep.im_upper_mean, 1, records),
        (rep.bonf_lower_mean, 2, rejected), (rep.bonf_upper_mean, 3, rejected),
        (rep.length_ratio_mean, 4, rejected),
    ):
        assert got == pytest.approx(sum(r[column] for r in rows) / len(rows), rel=1e-13, abs=0)


def test_coverage_study_two_workers_equal_serial(monkeypatch):
    # n = 1,000 and 100 replications make 4 batches of BATCH_ROWS rows, so
    # two workers open a pool of two processes wherever 2 CPUs are reported
    dgp, cfg = case_preset(1, n=1000)
    serial = run_coverage_study(dgp, cfg, replications=100, seed=5)
    opened = []

    class Pool(concurrent.futures.ProcessPoolExecutor):
        def __init__(self, *args, **kwargs):
            opened.append(kwargs)
            super().__init__(*args, **kwargs)

    monkeypatch.setattr(os, "cpu_count", lambda: 2)
    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", Pool)
    assert run_coverage_study(dgp, cfg, replications=100, seed=5, workers=2) == serial
    assert opened == [{"max_workers": 2}]


def test_study_cuts_its_seeds_into_batches_of_rows(monkeypatch):
    # BATCH_ROWS // n replications per estimate_robust_many call, at least
    # one, and each call is one ragged batch
    calls = []
    real = simulation.estimate_robust_many
    monkeypatch.setattr(simulation, "estimate_robust_many",
                        lambda samples, *args: calls.append(len(samples)) or real(samples, *args))
    for n, want in ((1_000, [32] * 3 + [4]), (3_000, [10] * 10), (20_000, [1] * 100)):
        calls.clear()
        run_coverage_study(*case_preset(1, n=n), replications=100)
        assert calls == want, n


def test_study_holds_one_batch_at_a_time():
    # at n = 20,000 each batch is one sample, so however many replications
    # the study runs, its peak stays near that of one estimate
    dgp, cfg = case_preset(1, n=20_000)
    sample = draw_sample(dgp, 0)

    def single():
        estimate_robust_many([ExperimentalSample(sample.outcomes, sample.treatments)], cfg)

    def study():
        run_coverage_study(dgp, cfg, replications=100)

    single()  # the first call in a process also fills caches
    run_coverage_study(*case_preset(1, n=300), replications=100)
    peaks = []
    for run in (single, study):
        tracemalloc.start()
        try:
            run()
            peaks.append(tracemalloc.get_traced_memory()[1])
        finally:
            tracemalloc.stop()
    assert peaks[1] < 2 * peaks[0]


def test_study_raises_the_first_failing_replications_error(monkeypatch):
    # in one batch, replication 3 has identical arms (NumericalError at the
    # kink, found after the batch's per-sample stage) and replication 9 a
    # 5-row arm (ValidationError, found in it); a serial run meets
    # replication 3 first
    real_draw = simulation.draw_sample

    def draw(dgp, child):
        sample = real_draw(dgp, child)
        if child.spawn_key == (3,):
            y0 = sample.control
            return ExperimentalSample(np.concatenate((y0, y0)), np.repeat([1, 0], y0.shape[0]))
        if child.spawn_key == (9,):
            return ExperimentalSample(sample.outcomes[:60], np.repeat([1, 0], [5, 55]))
        return sample

    monkeypatch.setattr(simulation, "draw_sample", draw)
    monkeypatch.setattr(simulation, "BATCH_ROWS", 16 * 200)  # study batches of 16
    dgp, cfg = case_preset(1, n=200)
    with pytest.raises(NumericalError):
        run_coverage_study(dgp, cfg, replications=100, seed=3)
    with pytest.raises(ValidationError):
        _replicate_batch(dgp, cfg, np.random.SeedSequence(3).spawn(100)[4:20], 0.05, 0.045, "sharp")


@pytest.mark.parametrize("bound_method", ["sharp", "neyman"])
def test_study_runs_over_arm_sds_a_millionth_apart(bound_method, monkeypatch):
    # replication 3's treated arm is its control arm scaled by 1 + 1e-6 and
    # shifted: SDs far past rounding apart, so a small v_o, not the kink
    real_draw = simulation.draw_sample

    def draw(dgp, child):
        sample = real_draw(dgp, child)
        if child.spawn_key == (3,):
            y0 = sample.control
            return ExperimentalSample(np.concatenate(((1.0 + 1e-6) * y0 + 1.0, y0)),
                                      np.repeat([1, 0], y0.shape[0]))
        return sample

    monkeypatch.setattr(simulation, "draw_sample", draw)
    dgp, cfg = case_preset(1, n=200)
    report = run_coverage_study(dgp, cfg, replications=100, seed=3, bound_method=bound_method)
    assert 0.0 <= report.coverage_im <= 1.0


def test_report_validation():
    dgp, cfg = case_preset(1, n=300)
    rep = run_coverage_study(dgp, cfg, replications=100, seed=1)
    with pytest.raises(ValidationError):
        SimulationReport(**{**rep.__dict__, "coverage_im": 1.2})


# ------------------------------------------------------------- serialization


def test_report_serialization(tmp_path):
    dgp, cfg = case_preset(3, n=400)
    rep = run_coverage_study(dgp, cfg, replications=100, seed=2, case="case3")

    csv_path = tmp_path / "table.csv"
    write_reports_csv([rep], csv_path)
    with open(csv_path, newline="") as fh:
        rows = list(csv.reader(fh))
    assert rows[0] == [
        "case", "tau_dr", "coverage_im", "coverage_imbonf",
        "ci_lo", "ci_hi", "bonf_lo", "bonf_hi", "length_ratio",
    ]
    assert rows[1][0] == "case3"
    assert float(rows[1][1]) == pytest.approx(rep.truth.tau_dr, rel=1e-4)
    assert float(rows[1][2]) == pytest.approx(rep.coverage_im, abs=1e-4)

    payload = json.loads(json.dumps(asdict(rep)))
    assert payload["case"] == "case3"
    assert payload["bound_method"] == "sharp"
    assert payload["truth"]["tau_dr"] == pytest.approx(rep.truth.tau_dr)
    assert payload["replications"] == 100
