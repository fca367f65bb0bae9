import math
import tracemalloc

import numpy as np
import pytest

from drpredict import ExperimentalSample, NumericalError, ValidationError
from drpredict.bounds import BoundsMethod, VarianceBounds, sharp_bounds_empirical
from drpredict.covariance import (
    NearEqualVariancesWarning,
    SigmaMatrix,
    prediction_sd_grid,
    sigma_neyman,
    sigma_sharp,
    sigma_sharp_batch,
    zero_tau_limit_sd,
)
from drpredict import covariance as cov_module
from drpredict.moments import ArmMoments, estimate_moments
from drpredict.sample import arm_batch, quantile_at
from drpredict.solver import RobustConfig, solve_minimax
from oracles import kde_at, kde_binned, sigma_bootstrap, sigma_sharp_influence


def _sample(y1, y0):
    y = np.concatenate([y1, y0])
    t = np.concatenate([np.ones(len(y1), dtype=int), np.zeros(len(y0), dtype=int)])
    return ExperimentalSample(y, t)


def _bandwidth(y_sorted):
    """The Silverman bandwidth of one sorted arm, as a ragged batch of one."""
    return cov_module._silverman_bandwidths(y_sorted, np.array([0, y_sorted.size]),
                                            np.array([float(y_sorted.var())]))[0]


def _case1_marginals(rng, n):
    """Treated N(2, 4), control N(0.2, 1), treated share 0.3 (fixed split)."""
    n1 = int(round(0.3 * n))
    y1 = rng.normal(2.0, 2.0, n1)
    y0 = rng.normal(0.2, 1.0, n - n1)
    return _sample(y1, y0)


# exact covariance for the case-1 design, derived from Gaussian moments
# (mu3 = 0, mu4 = 3 sigma^4) pushed through the delta method:
#   w1 = (3*16-16)/0.3, w0 = (3-1)/0.7,
#   loadings (1 +- 1/2) on arm 1 and (1 +- 2) on arm 0
CASE1_S00 = 2.25 * (32.0 / 0.3) + 9.0 * (2.0 / 0.7)  # 265.714...
CASE1_S11 = 0.25 * (32.0 / 0.3) + 1.0 * (2.0 / 0.7)  # 29.523...
CASE1_S01 = 0.75 * (32.0 / 0.3) - 3.0 * (2.0 / 0.7)  # 71.428...
CASE1_S22 = 4.0 / 0.3 + 1.0 / 0.7  # 14.761...


# --------------------------------------------------------------- SigmaMatrix


def test_sigma_matrix_validation():
    s = SigmaMatrix(np.eye(3))
    assert s.sigma_tau == 1.0
    with pytest.raises(ValidationError, match="3x3"):
        SigmaMatrix(np.eye(2))
    with pytest.raises(ValidationError, match="symmetric"):
        SigmaMatrix(np.array([[1.0, 0.5, 0], [0.2, 1, 0], [0, 0, 1]]))
    bad_diag = np.eye(3)
    bad_diag[1, 1] = -0.5
    with pytest.raises(ValidationError, match="negative variance"):
        SigmaMatrix(bad_diag)
    not_finite = np.eye(3)
    not_finite[2, 2] = math.nan
    with pytest.raises(ValidationError, match="non-finite"):
        SigmaMatrix(not_finite)


def test_sigma_matrix_psd_repair():
    # strongly indefinite matrix gets clipped to its PSD part
    s = np.array([[1.0, 2.0, 0.0], [2.0, 1.0, 0.0], [0.0, 0.0, 1.0]])
    fixed = SigmaMatrix(s)
    eigs = np.linalg.eigvalsh(fixed.entries)
    assert eigs[0] >= -1e-12
    # the PSD part of [[1,2],[2,1]] is 1.5 on the diagonal, 1.5 off
    assert fixed.entries[0, 0] == pytest.approx(1.5)
    assert fixed.entries[0, 1] == pytest.approx(1.5)


def test_sigma_matrix_keeps_tiny_negative_eigenvalue():
    # indefiniteness within plug-in noise is tolerated, not repaired
    eps = 1e-10
    s = np.diag([1.0, 1.0, 1.0])
    s[0, 1] = s[1, 0] = 1.0 + eps  # smallest eigenvalue ~ -eps
    out = SigmaMatrix(s)
    assert out.entries[0, 1] == pytest.approx(1.0 + eps)


# -------------------------------------------------------------- sigma_neyman


def test_neyman_sigma_symmetric_arms():
    m = ArmMoments(
        tau1=0.0, tau0=0.0, sigma1_sq=1.0, sigma0_sq=1.0,
        mu3_1=0.0, mu3_0=0.0, mu4_1=3.0, mu4_0=3.0, e_hat=0.5,
    )
    with pytest.warns(NearEqualVariancesWarning):
        s = sigma_neyman(m)
    assert s.entries[2, 2] == pytest.approx(4.0)  # sigma^2/e + sigma^2/(1-e)
    # equal variances: lower-bound loadings vanish entirely
    assert s.entries[1, 1] == pytest.approx(0.0, abs=1e-12)


def test_neyman_sigma_case1_analytic():
    m = ArmMoments(
        tau1=2.0, tau0=0.2, sigma1_sq=4.0, sigma0_sq=1.0,
        mu3_1=0.0, mu3_0=0.0, mu4_1=48.0, mu4_0=3.0, e_hat=0.3,
    )
    s = sigma_neyman(m).entries
    assert s[0, 0] == pytest.approx(CASE1_S00, rel=1e-12)
    assert s[1, 1] == pytest.approx(CASE1_S11, rel=1e-12)
    assert s[0, 1] == pytest.approx(CASE1_S01, rel=1e-12)
    assert s[0, 2] == pytest.approx(0.0, abs=1e-12)
    assert s[1, 2] == pytest.approx(0.0, abs=1e-12)
    assert s[2, 2] == pytest.approx(CASE1_S22, rel=1e-12)


def test_neyman_sigma_matches_large_sample_moments():
    rng = np.random.default_rng(100)
    s_hat = sigma_neyman(estimate_moments(_case1_marginals(rng, 1_000_000))).entries
    for (i, j), target in {
        (0, 0): CASE1_S00, (1, 1): CASE1_S11, (0, 1): CASE1_S01, (2, 2): CASE1_S22,
    }.items():
        assert s_hat[i, j] == pytest.approx(target, rel=0.02), (i, j)
    assert abs(s_hat[0, 2]) < 0.02 * math.sqrt(CASE1_S00 * CASE1_S22)
    assert abs(s_hat[1, 2]) < 0.02 * math.sqrt(CASE1_S11 * CASE1_S22)


def test_neyman_sigma_monte_carlo_validation():
    # The decisive check that the delta-method loadings are right: simulate
    # the actual estimators and compare n*Var across replications with the
    # analytic diagonal. (A naive mixed-sign/ squared-ratio variant of the
    # loadings would give 238.1 and 85.7 here — far outside the bands.)
    rng = np.random.default_rng(2024)
    reps, n = 6000, 2000
    n1 = 600
    stats = np.empty((reps, 3))
    for r in range(reps):
        y1 = rng.normal(2.0, 2.0, n1)
        y0 = rng.normal(0.2, 1.0, n - n1)
        s1, s0 = y1.std(), y0.std()
        stats[r] = ((s1 + s0) ** 2, (s1 - s0) ** 2, y1.mean() - y0.mean())
    mc = n * np.var(stats, axis=0)
    assert mc[0] == pytest.approx(CASE1_S00, rel=0.07)
    assert mc[1] == pytest.approx(CASE1_S11, rel=0.07)
    assert mc[2] == pytest.approx(CASE1_S22, rel=0.07)
    mc_cov = n * np.cov(stats, rowvar=False)
    assert mc_cov[0, 1] == pytest.approx(CASE1_S01, rel=0.08)


def test_neyman_sigma_rejects_zero_variance():
    m = ArmMoments(
        tau1=0.0, tau0=0.0, sigma1_sq=0.0, sigma0_sq=1.0,
        mu3_1=0.0, mu3_0=0.0, mu4_1=0.0, mu4_0=3.0, e_hat=0.5,
    )
    with pytest.raises(ValidationError):
        sigma_neyman(m)


# --------------------------------------------------------------- sigma_sharp


def test_sharp_sigma_constant_arms_is_zero():
    s = _sample(np.ones(40), np.ones(40))
    out = sigma_sharp(s)
    np.testing.assert_allclose(out.entries, 0.0, atol=1e-12)


def test_sharp_sigma_smoke_gaussian():
    rng = np.random.default_rng(7)
    out = sigma_sharp(_case1_marginals(rng, 10_000))
    assert np.all(np.isfinite(out.entries))
    # tau* slot is exact algebra (no KDE), so it should be close already
    assert out.entries[2, 2] == pytest.approx(CASE1_S22, rel=0.10)


def test_sharp_sigma_diagonals_match_monte_carlo():
    # Monte Carlo oracle: variability of the actual sharp-bound estimators
    # across replications, against the influence-function plug-in computed
    # on one large sample.
    rng = np.random.default_rng(11)
    reps, n = 2000, 2000
    stats = np.empty((reps, 3))
    for r in range(reps):
        smp = _case1_marginals(rng, n)
        vb = sharp_bounds_empirical(smp)
        stats[r] = (vb.v_p, vb.v_o, float(smp.treated.mean() - smp.control.mean()))
    mc = n * np.var(stats, axis=0)

    big = _case1_marginals(np.random.default_rng(12), 100_000)
    plug = sigma_sharp(big).entries
    assert plug[0, 0] == pytest.approx(mc[0], rel=0.10)
    assert plug[1, 1] == pytest.approx(mc[1], rel=0.10)
    assert plug[2, 2] == pytest.approx(mc[2], rel=0.10)


def test_sharp_sigma_preconditions():
    rng = np.random.default_rng(0)
    small = _sample(rng.normal(size=29), rng.normal(size=50))
    with pytest.raises(ValidationError):
        sigma_sharp(small)


def test_sharp_sigma_is_scale_equivariant():
    # Sigma of outcomes scaled by c is Sigma scaled by (c^2, c^2, c) on
    # (V_p, V_o, tau*): whether it exists does not depend on the units
    smp = _case1_marginals(np.random.default_rng(18), 2000)
    base = sigma_sharp(smp).entries
    bound = 1e-10 * np.sqrt(np.outer(np.diag(base), np.diag(base)))
    for c in (1e-4, 1e4):
        d = np.array([c * c, c * c, c])
        scaled = sigma_sharp(_sample(c * smp.treated, c * smp.control)).entries
        assert np.all(np.abs(scaled / np.outer(d, d) - base) <= bound), c


@pytest.mark.parametrize("scale", [1e-200, 1e-300, 1e200])
def test_sharp_sigma_outcome_scale_beyond_double_precision(scale):
    # the arm variance underflows to 0, so Silverman's bandwidth is 0, or
    # it overflows
    rng = np.random.default_rng(8)
    s = _sample(scale * rng.normal(size=200), scale * rng.normal(size=200))
    with pytest.raises(NumericalError, match="bandwidth .* outcome scale"):
        sigma_sharp(s)


@pytest.mark.parametrize("shift1, shift0", [
    (1e3, 0.0), (-1e3, 0.0), (0.0, 1e3), (0.0, -1e3), (1e3, 1e3), (-1e3, -1e3), (1e3, -1e3),
])
def test_sharp_sigma_invariant_to_shifts_of_either_arm(shift1, shift0):
    # V_p, V_o and tau* do not move when an arm is shifted, so neither may
    # their covariance: each arm enters centred on its own mean
    smp = _case1_marginals(np.random.default_rng(17), 4000)
    base = sigma_sharp(smp).entries
    shifted = sigma_sharp(_sample(smp.treated + shift1, smp.control + shift0)).entries
    scale = np.sqrt(np.outer(np.diag(base), np.diag(base)))
    assert np.all(np.abs(shifted - base) <= 1e-10 * scale)


# --------------------------------------------- binned KDE against exact KDE

_FAMILIES = {
    "normal": lambda rng, n: rng.normal(2.0, 2.0, n),
    "lognormal": lambda rng, n: rng.lognormal(0.0, 1.0, n),
    "t3": lambda rng, n: rng.standard_t(3, n),
}

# gates set before the fact: the worst errors seen were 2.4e-4 on the
# densities (t3 and lognormal at n = 1000) and 6.5e-5 on Sigma
KDE_RTOL = 1e-3
SIGMA_RTOL = 2e-4


def _u_grid_quantiles(y_sorted, grid_size=400):
    """The points at which sigma_sharp evaluates an arm's density."""
    trim = cov_module._u_trim(y_sorted.shape[0])
    du = (1.0 - 2.0 * trim) / grid_size
    return quantile_at(y_sorted, trim + (np.arange(grid_size) + 0.5) * du)


@pytest.mark.parametrize("n", [1_000, 100_000])
@pytest.mark.parametrize("family", sorted(_FAMILIES))
def test_binned_kde_matches_exact_kde(family, n):
    y = np.sort(_FAMILIES[family](np.random.default_rng(n), n))
    x = _u_grid_quantiles(y)
    h = _bandwidth(y)
    exact = kde_at(y, x, h)
    np.testing.assert_allclose(kde_binned(y, x, h), exact, rtol=KDE_RTOL, atol=0.0)


@pytest.mark.parametrize("family", sorted(_FAMILIES))
def test_sharp_sigma_binned_matches_exact_kde(family, monkeypatch):
    rng = np.random.default_rng(21)
    draw = _FAMILIES[family]
    smp = _sample(draw(rng, 6_000), 0.5 * draw(rng, 14_000) + 0.2)
    binned = sigma_sharp(smp).entries
    # the batch stage takes every density from one _kde call: have it
    # return the exact densities of the same arms, points and bandwidths
    def exact_kde(values, lo, hi, x, h):
        return np.array([kde_at(values[a:b], xk, hk) for a, b, xk, hk in zip(lo, hi, x, h)])

    monkeypatch.setattr(cov_module, "_kde", exact_kde)
    exact = sigma_sharp(smp).entries
    assert not np.array_equal(binned, exact)
    scale = np.sqrt(np.outer(np.diag(exact), np.diag(exact)))
    assert np.all(np.abs(binned - exact) <= SIGMA_RTOL * scale)


# the segment-sum assembly against the (3, n) influence array: the same
# sums grouped another way. Gate set before the fact; the worst error seen
# was 1.6e-14 of the scale (rounded arms at n = 1000)
_SIGMA_FAMILIES = {
    **_FAMILIES,
    "rounded": lambda rng, n: np.round(rng.normal(2.0, 2.0, n), 1),
    "zero_spread": lambda rng, n: np.full(n, 0.5),
}


@pytest.mark.parametrize("n", [1_000, 100_000])
@pytest.mark.parametrize("family", sorted(_SIGMA_FAMILIES))
def test_sharp_sigma_matches_influence_oracle(family, n):
    rng = np.random.default_rng(n + 3)
    n1 = int(0.3 * n)
    y1 = _FAMILIES["normal"](rng, n1) if family == "zero_spread" else _SIGMA_FAMILIES[family](rng, n1)
    smp = _sample(y1, 0.5 * _SIGMA_FAMILIES[family](rng, n - n1) + 0.2)
    oracle = sigma_sharp_influence(smp)
    scale = np.sqrt(np.outer(np.diag(oracle), np.diag(oracle)))
    assert np.all(np.abs(sigma_sharp(smp).entries - oracle) <= 1e-12 * scale)


def test_sharp_sigma_allocates_no_per_observation_influence_array():
    n = 1_000_000
    smp = _case1_marginals(np.random.default_rng(13), n)
    smp.arms  # the sample's own cached sort and moments
    tracemalloc.start()
    try:
        sigma_sharp(smp)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 24 * n  # the bytes of a (3, n) float64 array


def _far_cluster(rng, n):
    """Standard normal, with 1% of the arm at 1e4: one u-grid point sits
    about 3.6e6 bins from the rest."""
    return np.where(np.arange(n) % 100 == 0, 1e4, rng.normal(size=n))


@pytest.mark.parametrize("draw", [lambda rng, n: rng.standard_cauchy(n), _far_cluster], ids=["cauchy", "far_cluster"])
def test_binned_kde_grid_follows_quantiles(draw, monkeypatch):
    # a grid over the whole range of the treated arm would need millions of
    # bins; the binned KDE's windows cover only the u-grid quantiles
    rng = np.random.default_rng(8)
    y1 = draw(rng, 100_000)
    smp = _sample(y1, rng.normal(size=100_000))
    periods = []
    rfft = np.fft.rfft

    def spy(a, n=None, *args, **kwargs):
        periods.append(n)
        return rfft(a, n, *args, **kwargs)

    monkeypatch.setattr(np.fft, "rfft", spy)
    out = sigma_sharp(smp)
    monkeypatch.undo()
    assert np.all(np.isfinite(out.entries))
    reach = cov_module.KDE_BINS_PER_BANDWIDTH * cov_module.KDE_REACH_BANDWIDTHS
    bound = 400 * (2 * reach + 3)  # the docstring's bins per u-grid point
    assert 0 < max(p for p in periods if p is not None) <= 2 * (bound + reach)
    y1.sort()
    h = _bandwidth(y1)
    assert (y1[-1] - y1[0]) / (h / cov_module.KDE_BINS_PER_BANDWIDTH) > 10 * bound
    x = _u_grid_quantiles(y1)
    np.testing.assert_allclose(kde_binned(y1, x, h), kde_at(y1, x, h), rtol=KDE_RTOL, atol=0.0)


# ----------------------------------------------------------- batched Sigma


def _mixed_batch():
    """Samples whose arms smooth at several FFT periods (n = 60, 1,000 and
    10^4), with a Student-t(2) arm whose u-grid quantiles split into several
    KDE windows and a zero-spread arm."""
    rng = np.random.default_rng(31)
    return [
        _case1_marginals(rng, 1_000),
        _sample(rng.normal(2.0, 2.0, 30), rng.normal(0.2, 1.0, 30)),
        _sample(np.random.default_rng(1).standard_t(2, 3_000), rng.normal(size=7_000)),
        _sample(rng.lognormal(0.0, 1.0, 5_000), rng.lognormal(0.0, 1.5, 5_000)),
        _sample(rng.normal(2.0, 2.0, 300), np.full(700, 0.5)),
        _sample(rng.lognormal(0.0, 1.0, 40), rng.normal(size=60)),
    ]


def test_sigma_sharp_many_is_sigma_sharp_bit_for_bit(monkeypatch):
    batch = _mixed_batch()
    t2 = batch[2].arms.values[: batch[2].n1]
    h = _bandwidth(t2)
    gap = 2 * cov_module.KDE_REACH_BANDWIDTHS * h  # the widest run of one window
    assert np.count_nonzero(np.diff(_u_grid_quantiles(t2, 400)) > gap) >= 3
    periods = []
    spectrum = cov_module._kernel_spectrum

    def spy(period):
        periods.append(period)
        return spectrum(period)

    monkeypatch.setattr(cov_module, "_kernel_spectrum", spy)
    many = sigma_sharp_batch(arm_batch(batch))
    assert len(set(periods)) >= 3
    monkeypatch.undo()
    singles = [sigma_sharp(s) for s in batch]
    assert len(many) == len(batch)
    for got, want in zip(many, singles):
        assert np.array_equal(got.entries, want.entries)
        assert not got.entries.flags.writeable


def test_kernel_spectrum_cache_matches_a_fresh_spectrum(monkeypatch):
    periods = set()
    spectrum = cov_module._kernel_spectrum

    def spy(period):
        periods.add(period)
        return spectrum(period)

    monkeypatch.setattr(cov_module, "_kernel_spectrum", spy)
    sigma_sharp_batch(arm_batch(_mixed_batch()))
    monkeypatch.undo()
    assert len(periods) >= 3
    r = cov_module.KDE_BINS_PER_BANDWIDTH * cov_module.KDE_REACH_BANDWIDTHS
    for period in sorted(periods):
        kernel = np.zeros(period)
        taps = np.exp(-0.5 * (np.arange(-r, r + 1) / cov_module.KDE_BINS_PER_BANDWIDTH) ** 2)
        kernel[np.arange(-r, r + 1) % period] = taps
        cached = spectrum(period)
        assert cached is spectrum(period)
        assert not cached.flags.writeable
        assert np.array_equal(cached, np.fft.rfft(kernel)), period


def _diffuse(rng, n):
    """An arm so diffuse that its density is beyond double precision: its
    variance overflows, so the bandwidth check fails."""
    return 1e200 * rng.normal(size=n)


_FAILING = {
    "small-arm": lambda rng: _sample(rng.normal(size=29), rng.normal(size=50)),
    "treated-density": lambda rng: _sample(_diffuse(rng, 100), rng.normal(size=100)),
    "control-density": lambda rng: _sample(rng.normal(size=100), _diffuse(rng, 100)),
    "both-densities": lambda rng: _sample(_diffuse(rng, 100), _diffuse(rng, 100) + 1.0),
}


@pytest.mark.parametrize("k", [0, 2, 4])
@pytest.mark.parametrize("kind", sorted(_FAILING))
def test_sigma_sharp_many_raises_what_the_failing_sample_raises(kind, k):
    rng = np.random.default_rng(32)
    batch = [_case1_marginals(rng, 1_000) for _ in range(5)]
    batch[k] = _FAILING[kind](rng)
    with pytest.raises((ValidationError, NumericalError)) as alone:
        sigma_sharp(batch[k])
    with pytest.raises(alone.type) as batched:
        sigma_sharp_batch(arm_batch(batch))
    assert str(batched.value) == str(alone.value)


# -------------------------------------------------------- delta-method SDs


def _case1_setup(delta=0.1, q=2.0):
    cfg = RobustConfig(delta, q)
    b = VarianceBounds(v_o=1.0, v_p=9.0, method="neyman")
    tau_p = solve_minimax(1.8, b.v_p, cfg)
    tau_o = solve_minimax(1.8, b.v_o, cfg)
    return cfg, b, tau_p, tau_o


def _sigma_b(sigma):
    """(S_bb, S_bt, S_tt) of both bounds, in the order (V_p, V_o)."""
    s = sigma.entries
    own = [0, 1]
    return s[own, own], s[own, 2], s[2, 2]


def test_loadings_delta_zero_recovers_ate_variance():
    cfg = RobustConfig(0.0, 2.0)
    v = np.array([9.0, 1.0])
    d_v, d_tau, m = cov_module._loading_terms(1.8, np.array([1.8, 1.8]), v, cfg)
    np.testing.assert_allclose(d_v, [0.0, 0.0])
    np.testing.assert_allclose(d_tau, [-1.0 / 3.0, -1.0])
    np.testing.assert_allclose(m, [1.0 / 3.0, 1.0])
    sigma = SigmaMatrix(np.diag([5.0, 5.0, CASE1_S22]))
    sd = prediction_sd_grid(1.8, np.array([1.8, 1.8]), v, _sigma_b(sigma), cfg)
    np.testing.assert_allclose(sd, math.sqrt(CASE1_S22))


def test_loadings_structure_and_signs():
    cfg, b, tau_p, tau_o = _case1_setup()
    d_v, _, m = cov_module._loading_terms(1.8, np.array([tau_p, tau_o]), np.array([b.v_p, b.v_o]), cfg)
    assert d_v[0] > 0.0  # more variance -> more shrinkage -> positive gap
    assert np.all(m > 0.0)


def test_loadings_zero_tau_error():
    cfg = RobustConfig(2.0, 1.0)
    b = VarianceBounds(v_o=1.0, v_p=9.0, method="neyman")
    # q=1 with a big radius thresholds the prediction to exactly zero
    tau_p = solve_minimax(0.5, b.v_p, cfg)
    assert tau_p == 0.0
    tau = np.array([tau_p, solve_minimax(0.5, b.v_o, cfg)])
    with pytest.raises(NumericalError, match="slot 0"):
        prediction_sd_grid(0.5, tau, np.array([b.v_p, b.v_o]), (1.0, 0.0, 1.0), cfg)


def test_conditional_variance_never_larger():
    sigma = sigma_neyman(
        ArmMoments(
            tau1=2.0, tau0=0.2, sigma1_sq=4.0, sigma0_sq=1.0,
            mu3_1=0.0, mu3_0=0.0, mu4_1=48.0, mu4_0=3.0, e_hat=0.3,
        )
    )
    for delta in (0.05, 0.1, 0.5, 1.0):
        cfg, b, tau_p, tau_o = _case1_setup(delta)
        tau, v = np.array([tau_p, tau_o]), np.array([b.v_p, b.v_o])
        un = prediction_sd_grid(1.8, tau, v, _sigma_b(sigma), cfg)
        cond = prediction_sd_grid(1.8, tau, v, _sigma_b(sigma), cfg, conditional=True)
        assert np.all(cond <= un + 1e-12)


def test_conditional_sd_grid_matches_loadings():
    # the conditional SD along a grid of source effects, with S_bt and S_tt
    # left out, equals one call per grid point with the full Sigma entries
    cfg, b, _, _ = _case1_setup(0.4)
    sigma = SigmaMatrix(np.diag([CASE1_S00, CASE1_S11, CASE1_S22]))
    s = sigma.entries
    ts = np.array([0.8, 1.2, 1.8, 2.5])
    tau_ps = np.array([solve_minimax(t, b.v_p, cfg) for t in ts])
    grid_sd = prediction_sd_grid(ts, tau_ps, b.v_p, (s[0, 0], 0.0, 0.0), cfg, conditional=True)
    for i, t in enumerate(ts):
        sd_p = prediction_sd_grid(t, tau_ps[i], b.v_p, (s[0, 0], s[0, 2], s[2, 2]), cfg, conditional=True)
        assert grid_sd[i] == pytest.approx(float(sd_p), rel=1e-12)


def test_prediction_sd_grid_matches_loadings():
    # a batch of (tau_p, tau_o) pairs in one call equals, entry for entry,
    # one call per pair
    cfg = RobustConfig(0.4, 3.0)
    sigma = sigma_neyman(
        ArmMoments(
            tau1=2.0, tau0=0.2, sigma1_sq=4.0, sigma0_sq=1.0,
            mu3_1=0.5, mu3_0=-0.2, mu4_1=48.0, mu4_0=3.0, e_hat=0.3,
        )
    )
    b = VarianceBounds(v_o=1.0, v_p=9.0, method="neyman")
    tau_star = np.array([[-2.5], [0.8], [1.8], [4.0]])
    v = np.array([[b.v_p, b.v_o]])
    tau = np.array([[solve_minimax(t, vb, cfg) for vb in v[0]] for t in tau_star[:, 0]])
    for conditional in (False, True):
        grid = prediction_sd_grid(tau_star, tau, v, _sigma_b(sigma), cfg, conditional)
        for i, t in enumerate(tau_star[:, 0]):
            pair = prediction_sd_grid(t, tau[i], v[0], _sigma_b(sigma), cfg, conditional)
            assert grid[i].tolist() == pair.tolist()


def test_prediction_sd_grid_raises_as_loadings():
    cfg = RobustConfig(0.5, 2.0)
    sigma_b = (1.0, 0.0, 1.0)
    with pytest.raises(NumericalError, match="slot 1"):
        prediction_sd_grid(np.array([[1.0], [0.5]]), np.array([[0.9, 0.8], [0.4, 0.0]]),
                           np.array([[4.0, 1.0]]), sigma_b, cfg)
    # the kink (v_b = 0, tau_b = tau*) of an earlier pair comes first
    with pytest.raises(NumericalError, match="no smooth expansion"):
        prediction_sd_grid(np.array([[1.0], [0.5]]), np.array([[0.9, 1.0], [0.4, 0.0]]),
                           np.array([[4.0, 0.0]]), sigma_b, cfg)
    # the conditional SD on a first-step grid does not check
    sd = prediction_sd_grid(np.array([0.5, 1.0]), np.array([0.0, 0.9]), 4.0, (1.0, 0.0, 0.0), cfg,
                            conditional=True)
    assert np.all(np.isfinite(sd))


# ----------------------------------------------------------- zero-effect law


def test_zero_tau_limit_sd():
    assert zero_tau_limit_sd(2.0, 5.0, RobustConfig(1.0, 3.0)) == 2.0
    assert zero_tau_limit_sd(2.0, 5.0, RobustConfig(0.0, 2.0)) == 2.0
    assert zero_tau_limit_sd(2.0, 2.0, RobustConfig(1.0, 2.0)) == pytest.approx(1.0)
    with pytest.raises(ValidationError):
        zero_tau_limit_sd(2.0, 5.0, RobustConfig(1.0, 1.5))
    with pytest.raises(ValidationError):
        zero_tau_limit_sd(0.0, 5.0, RobustConfig(1.0, 2.0))
    with pytest.raises(ValidationError):
        zero_tau_limit_sd(1.0, -1.0, RobustConfig(1.0, 2.0))


# ----------------------------------------------------------------- bootstrap


def test_bootstrap_sigma_consistent_with_plugin():
    rng = np.random.default_rng(3)
    smp = _case1_marginals(rng, 4000)
    boot = sigma_bootstrap(smp, method="sharp", draws=300, seed=42)
    # agree with the analytic tau* variance within bootstrap noise
    assert boot[2, 2] == pytest.approx(CASE1_S22, rel=0.25)
    plug = sigma_sharp(smp)
    assert boot[0, 0] == pytest.approx(plug.entries[0, 0], rel=0.3)


def test_bootstrap_requires_draws():
    rng = np.random.default_rng(3)
    with pytest.raises(ValidationError):
        sigma_bootstrap(_case1_marginals(rng, 200), draws=1)


def test_bootstrap_takes_the_bounds_method_enum():
    smp = _case1_marginals(np.random.default_rng(4), 200)
    sharp = sigma_bootstrap(smp, method="sharp", draws=20, seed=9)
    assert np.array_equal(sigma_bootstrap(smp, method=BoundsMethod.SHARP, draws=20, seed=9), sharp)
    neyman = sigma_bootstrap(smp, method=BoundsMethod.NEYMAN, draws=20, seed=9)
    assert np.array_equal(sigma_bootstrap(smp, method="neyman", draws=20, seed=9), neyman)
    assert not np.array_equal(sharp, neyman)
    with pytest.raises(ValidationError):
        sigma_bootstrap(smp, method="Sharp", draws=20, seed=9)


# ---------------------------------------------------------------- bandwidth


@pytest.mark.parametrize(
    "y",
    [
        np.arange(30.0),  # n = 30: (n - 1) / 4 = 7.25 and 21.75
        np.repeat([0.0, 1.0, 2.5], [7, 9, 14]),  # ties on both quartiles
        np.concatenate(([-5.0], np.full(40, 2.0), [9.0])),  # zero IQR
        np.full(31, 3.0),  # one value
        np.array([1.0, 2.0]),
        np.random.default_rng(4).standard_t(3, 299),
        np.random.default_rng(5).lognormal(0.0, 2.0, 700),
    ],
    ids=["n30", "ties", "zero-iqr", "constant", "n2", "t3-299", "lognormal-700"],
)
def test_sorted_percentile_is_numpy_percentile(y):
    # each arm alone, and between two others in one ragged array
    y = np.sort(y)
    ragged = np.concatenate((np.arange(5.0), y, [7.0, 8.0]))
    starts = np.array([0, 5, 5 + y.size, ragged.size])
    for fraction in (0.25, 0.75):
        want = np.percentile(y, 100 * fraction)
        assert cov_module._sorted_percentiles(y, np.array([0, y.size]), fraction)[0] == want
        assert cov_module._sorted_percentiles(ragged, starts, fraction)[1] == want
    q25, q75 = np.percentile(y, [25.0, 75.0])
    iqr = float(q75 - q25)
    sd = float(y.std())
    spread = min(sd, iqr / 1.34) if iqr > 0.0 else sd
    assert _bandwidth(y) == 0.9 * spread * y.shape[0] ** (-0.2)
    var = np.array([2.0, float(y.var()), 0.25])
    assert cov_module._silverman_bandwidths(ragged, starts, var)[1] == _bandwidth(y)
