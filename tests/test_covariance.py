import math
import tracemalloc

import numpy as np
import pytest

from drpredict import ExperimentalSample, NumericalError, ValidationError
from drpredict.bounds import BoundsMethod
from drpredict.covariance import (
    CURVATURE,
    KINK,
    OK,
    NearEqualVariancesWarning,
    check_status,
    conditional_sd_bounds,
    prediction_sd_grid,
    sigma_neyman,
    sigma_sharp_batch,
)
from drpredict import covariance as cov_module
from drpredict.sample import arm_batch
from drpredict.solver import RobustConfig, solve_minimax, solve_minimax_many
from oracles import Bracket, bounds_of, sigma_bootstrap, sigma_sharp_influence


def _sample(y1, y0):
    y = np.concatenate([y1, y0])
    t = np.concatenate([np.ones(len(y1), dtype=int), np.zeros(len(y0), dtype=int)])
    return ExperimentalSample(y, t)


def _neyman(tau, var, mu3, mu4, e):
    """``sigma_neyman`` of one sample from its (treated, control) means,
    variances, mu3 and mu4 and its treated share ``e``."""
    return sigma_neyman(np.array([tau, var, mu3, mu4], dtype=float), np.array([e]))[0]


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


# ------------------------------------------------------- the checks of Sigma


def test_sigma_matrix_validation():
    # the checks of an (R, 3, 3) stack: a valid one comes back read-only, and
    # the first invalid matrix raises what it raises alone
    ok = cov_module._checked(np.stack((np.eye(3), 2.0 * np.eye(3))))
    assert ok.tolist() == [np.eye(3).tolist(), (2.0 * np.eye(3)).tolist()]
    assert not ok.flags.writeable
    skewed = np.array([[1.0, 0.5, 0], [0.2, 1, 0], [0, 0, 1]])
    bad_diag = np.eye(3)
    bad_diag[1, 1] = -0.5
    not_finite = np.eye(3)
    not_finite[2, 2] = math.nan
    for bad, message in ((skewed, "not symmetric"), (bad_diag, "negative variance"),
                         (not_finite, "non-finite")):
        with pytest.raises(ValidationError, match=message):
            cov_module._checked(np.stack((np.eye(3), bad, not_finite)))


def test_sigma_matrix_psd_repair():
    # strongly indefinite matrix gets clipped to its PSD part
    s = np.array([[1.0, 2.0, 0.0], [2.0, 1.0, 0.0], [0.0, 0.0, 1.0]])
    fixed = cov_module._checked(s[None])[0]
    eigs = np.linalg.eigvalsh(fixed)
    assert eigs[0] >= -1e-12
    # the PSD part of [[1,2],[2,1]] is 1.5 on the diagonal, 1.5 off
    assert fixed[0, 0] == pytest.approx(1.5)
    assert fixed[0, 1] == pytest.approx(1.5)


def test_sigma_matrix_keeps_tiny_negative_eigenvalue():
    # indefiniteness within plug-in noise is tolerated, not repaired
    eps = 1e-10
    s = np.diag([1.0, 1.0, 1.0])
    s[0, 1] = s[1, 0] = 1.0 + eps  # smallest eigenvalue ~ -eps
    out = cov_module._checked(s[None])[0]
    assert out[0, 1] == pytest.approx(1.0 + eps)


# -------------------------------------------------------------- sigma_neyman


def test_neyman_sigma_symmetric_arms():
    with pytest.warns(NearEqualVariancesWarning):
        s = _neyman((0.0, 0.0), (1.0, 1.0), (0.0, 0.0), (3.0, 3.0), 0.5)
    assert s[2, 2] == pytest.approx(4.0)  # sigma^2/e + sigma^2/(1-e)
    # equal variances: lower-bound loadings vanish entirely
    assert s[1, 1] == pytest.approx(0.0, abs=1e-12)


def test_neyman_sigma_case1_analytic():
    s = _neyman((2.0, 0.2), (4.0, 1.0), (0.0, 0.0), (48.0, 3.0), 0.3)
    assert s[0, 0] == pytest.approx(CASE1_S00, rel=1e-12)
    assert s[1, 1] == pytest.approx(CASE1_S11, rel=1e-12)
    assert s[0, 1] == pytest.approx(CASE1_S01, rel=1e-12)
    assert s[0, 2] == pytest.approx(0.0, abs=1e-12)
    assert s[1, 2] == pytest.approx(0.0, abs=1e-12)
    assert s[2, 2] == pytest.approx(CASE1_S22, rel=1e-12)


def test_neyman_sigma_matches_large_sample_moments():
    rng = np.random.default_rng(100)
    smp = _case1_marginals(rng, 1_000_000)
    s_hat = sigma_neyman(smp.arms.moments, np.array([smp.n1 / smp.n]))[0]
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
    with pytest.raises(ValidationError, match="both arm variances are 0"):
        _neyman((0.0, 1.7), (0.0, 0.0), (0.0, 0.0), (0.0, 0.0), 0.5)


@pytest.mark.parametrize("constant", ["treated", "control"])
def test_neyman_sigma_drops_a_zero_variance_arm(constant, recwarn):
    # a constant arm has no noise: Sigma is the other arm's part alone, with
    # loadings 1 on both bounds, (sigma +- 0)^2, and no near-equality warning
    arm = dict(sigma_sq=4.0, mu3=0.5, mu4=48.0)
    zero = dict(sigma_sq=0.0, mu3=0.0, mu4=0.0)
    one, other = (zero, arm) if constant == "treated" else (arm, zero)
    e = 0.3
    s = _neyman((2.0, 1.7), (one["sigma_sq"], other["sigma_sq"]), (one["mu3"], other["mu3"]),
                (one["mu4"], other["mu4"]), e)
    share, sign = (1.0 - e, -1.0) if constant == "treated" else (e, 1.0)
    w = (48.0 - 16.0) / share
    np.testing.assert_array_equal(s[:2, :2], np.full((2, 2), w))
    np.testing.assert_array_equal(s[:2, 2], np.full(2, sign * 0.5 / share))
    assert s[2, 2] == 4.0 / share
    assert len(recwarn) == 0


def test_neyman_sigma_batch_raises_and_warns_as_its_first_failing_sample(recwarn):
    # each sample's (treated, control) variances, mu3 and mu4: near-equal
    # variances, an ordinary pair, and two constant arms
    near = ((1.0, 1.0005), (0.5, -0.2), (48.0, 3.1))
    plain = ((4.0, 1.0), (0.5, -0.2), (48.0, 3.0))
    zero = ((0.0, 0.0), (0.0, 0.0), (0.0, 0.0))

    def batch(*samples):
        moments = np.array([[0.0] * 2 * len(samples)]
                           + [[x for smp in samples for x in smp[i]] for i in range(3)])
        return sigma_neyman(moments, np.full(len(samples), 0.3))

    alone = {id(smp): _neyman((0.0, 0.0), *smp, 0.3).tolist() for smp in (near, plain)}
    samples = (plain, near, plain)
    assert [s.tolist() for s in batch(*samples)] == [alone[id(smp)] for smp in samples]
    # once for the batch, once for the near-equal sample alone
    assert [w.category for w in recwarn] == [NearEqualVariancesWarning] * 2
    recwarn.clear()
    with pytest.raises(ValidationError, match="both arm variances are 0"):
        batch(zero, near)
    assert len(recwarn) == 0
    with pytest.warns(NearEqualVariancesWarning):
        with pytest.raises(ValidationError, match="both arm variances are 0"):
            batch(plain, near, zero)
    # a matrix that fails its checks before the zero pair raises first
    nan = ((4.0, 1.0), (0.5, -0.2), (np.nan, 3.0))
    with pytest.raises(ValidationError, match="non-finite entries"):
        batch(plain, nan, zero)


# -------------------------------------------------------------- sharp Sigma


def test_sharp_sigma_constant_arms_is_zero():
    s = _sample(np.ones(40), np.ones(40))
    out = sigma_sharp_batch(s.arms)[0]
    np.testing.assert_array_equal(out, 0.0)  # spacings, d and variances all exactly 0


def test_sharp_sigma_smoke_gaussian():
    rng = np.random.default_rng(7)
    out = sigma_sharp_batch(_case1_marginals(rng, 10_000).arms)[0]
    assert np.all(np.isfinite(out))
    # tau* slot is exact algebra (no quantile spacings), so it should be close already
    assert out[2, 2] == pytest.approx(CASE1_S22, rel=0.10)


def test_sharp_sigma_diagonals_match_monte_carlo():
    # Monte Carlo oracle: variability of the actual sharp-bound estimators
    # across replications, against the influence-function plug-in computed
    # on one large sample.
    rng = np.random.default_rng(11)
    reps, n = 2000, 2000
    stats = np.empty((reps, 3))
    for r in range(reps):
        smp = _case1_marginals(rng, n)
        vb = bounds_of(smp)
        stats[r] = (vb.v_p, vb.v_o, float(smp.treated.mean() - smp.control.mean()))
    mc = n * np.var(stats, axis=0)

    big = _case1_marginals(np.random.default_rng(12), 100_000)
    plug = sigma_sharp_batch(big.arms)[0]
    assert plug[0, 0] == pytest.approx(mc[0], rel=0.10)
    assert plug[1, 1] == pytest.approx(mc[1], rel=0.10)
    assert plug[2, 2] == pytest.approx(mc[2], rel=0.10)


def test_sharp_sigma_preconditions():
    rng = np.random.default_rng(0)
    small = _sample(rng.normal(size=29), rng.normal(size=50))
    with pytest.raises(ValidationError):
        sigma_sharp_batch(small.arms)[0]


def test_sharp_sigma_is_scale_equivariant():
    # Sigma of outcomes scaled by c is Sigma scaled by (c^2, c^2, c) on
    # (V_p, V_o, tau*): whether it exists does not depend on the units
    smp = _case1_marginals(np.random.default_rng(18), 2000)
    base = sigma_sharp_batch(smp.arms)[0]
    bound = 1e-10 * np.sqrt(np.outer(np.diag(base), np.diag(base)))
    for c in (1e-4, 1e4):
        d = np.array([c * c, c * c, c])
        scaled = sigma_sharp_batch(_sample(c * smp.treated, c * smp.control).arms)[0]
        assert np.all(np.abs(scaled / np.outer(d, d) - base) <= bound), c


@pytest.mark.parametrize("scale", [1e-200, 1e-300, 1e200])
def test_sharp_sigma_outcome_scale_beyond_double_precision(scale):
    # the arm variance underflows to 0 or overflows
    rng = np.random.default_rng(8)
    s = _sample(scale * rng.normal(size=200), scale * rng.normal(size=200))
    with pytest.raises(NumericalError, match="arm variance .* outcome scale"):
        sigma_sharp_batch(s.arms)[0]


@pytest.mark.parametrize("shift1, shift0", [
    (1e3, 0.0), (-1e3, 0.0), (0.0, 1e3), (0.0, -1e3), (1e3, 1e3), (-1e3, -1e3), (1e3, -1e3),
])
def test_sharp_sigma_invariant_to_shifts_of_either_arm(shift1, shift0):
    # V_p, V_o and tau* do not move when an arm is shifted, so neither may
    # their covariance: each arm enters centred on its own mean
    smp = _case1_marginals(np.random.default_rng(17), 4000)
    base = sigma_sharp_batch(smp.arms)[0]
    shifted = sigma_sharp_batch(_sample(smp.treated + shift1, smp.control + shift0).arms)[0]
    scale = np.sqrt(np.outer(np.diag(base), np.diag(base)))
    assert np.all(np.abs(shifted - base) <= 1e-10 * scale)


# --------------------------------------------- the influence-array oracle

_FAMILIES = {
    "normal": lambda rng, n: rng.normal(2.0, 2.0, n),
    "lognormal": lambda rng, n: rng.lognormal(0.0, 1.0, n),
    "t3": lambda rng, n: rng.standard_t(3, n),
}


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
    assert np.all(np.abs(sigma_sharp_batch(smp.arms)[0] - oracle) <= 1e-12 * scale)


def test_sharp_sigma_allocates_no_per_observation_influence_array():
    n = 1_000_000
    smp = _case1_marginals(np.random.default_rng(13), n)
    smp.arms  # the sample's own cached sort and moments
    tracemalloc.start()
    try:
        sigma_sharp_batch(smp.arms)[0]
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 24 * n  # the bytes of a (3, n) float64 array


def _far_cluster(rng, n):
    """Standard normal, with 1% of the arm at 1e4: one u-grid cell spans
    the jump from the bulk to the cluster."""
    return np.where(np.arange(n) % 100 == 0, 1e4, rng.normal(size=n))


@pytest.mark.parametrize("draw", [lambda rng, n: rng.standard_cauchy(n), _far_cluster], ids=["cauchy", "far_cluster"])
def test_sharp_sigma_of_a_wide_arm_matches_influence_oracle(draw):
    # an arm whose range is far wider than its u-grid quantiles' spread: a
    # few cells carry most of the spacing, and Sigma stays finite
    rng = np.random.default_rng(8)
    smp = _sample(draw(rng, 100_000), rng.normal(size=100_000))
    out = sigma_sharp_batch(smp.arms)[0]
    assert np.all(np.isfinite(out))
    oracle = sigma_sharp_influence(smp)
    scale = np.sqrt(np.outer(np.diag(oracle), np.diag(oracle)))
    assert np.all(np.abs(out - oracle) <= 1e-12 * scale)


def test_sharp_sigma_of_heavily_tied_arms_is_finite_and_quiet():
    # 3,000 rows on 7 and 3 distinct values: most u-grid cells have a
    # spacing of 0, a few carry a whole gap between values
    rng = np.random.default_rng(19)
    smp = _sample(np.round(rng.normal(2.0, 1.0, 900)), np.round(rng.normal(0.2, 0.4, 2100)))
    assert np.unique(smp.control).size <= 5
    with np.errstate(all="raise"):
        out = sigma_sharp_batch(smp.arms)[0]
    assert np.all(np.isfinite(out)) and np.all(np.diag(out) > 0.0)
    oracle = sigma_sharp_influence(smp)
    scale = np.sqrt(np.outer(np.diag(oracle), np.diag(oracle)))
    assert np.all(np.abs(out - oracle) <= 1e-12 * scale)


# ----------------------------------------------------------- batched Sigma


def _mixed_batch():
    """Samples of several sizes (n = 60, 1,000 and 10^4), with a
    Student-t(2) arm, heavy lognormal tails and a zero-spread arm."""
    rng = np.random.default_rng(31)
    return [
        _case1_marginals(rng, 1_000),
        _sample(rng.normal(2.0, 2.0, 30), rng.normal(0.2, 1.0, 30)),
        _sample(np.random.default_rng(1).standard_t(2, 3_000), rng.normal(size=7_000)),
        _sample(rng.lognormal(0.0, 1.0, 5_000), rng.lognormal(0.0, 1.5, 5_000)),
        _sample(rng.normal(2.0, 2.0, 300), np.full(700, 0.5)),
        _sample(rng.lognormal(0.0, 1.0, 40), rng.normal(size=60)),
    ]


def test_sigma_sharp_many_is_sigma_sharp_bit_for_bit():
    batch = _mixed_batch()
    many = sigma_sharp_batch(arm_batch(batch))
    singles = [sigma_sharp_batch(s.arms)[0] for s in batch]
    assert len(many) == len(batch)
    for got, want in zip(many, singles):
        assert np.array_equal(got, want)
        assert not got.flags.writeable


def _diffuse(rng, n):
    """An arm so diffuse that its variance overflows, so the scale check
    fails."""
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
        sigma_sharp_batch(batch[k].arms)[0]
    with pytest.raises(alone.type) as batched:
        sigma_sharp_batch(arm_batch(batch))
    assert str(batched.value) == str(alone.value)


# -------------------------------------------------------- delta-method SDs


def _case1_setup(delta=0.1, q=2.0):
    cfg = RobustConfig(delta, q)
    b = Bracket(v_p=9.0, v_o=1.0)
    tau_p = solve_minimax(1.8, b.v_p, cfg)
    tau_o = solve_minimax(1.8, b.v_o, cfg)
    return cfg, b, tau_p, tau_o


def _sigma_b(sigma):
    """(S_bb, S_bt, S_tt) of both bounds, in the order (V_p, V_o)."""
    s = sigma
    own = [0, 1]
    return s[own, own], s[own, 2], s[2, 2]


def test_loadings_delta_zero_recovers_ate_variance():
    cfg = RobustConfig(0.0, 2.0)
    v = np.array([9.0, 1.0])
    d_v, d_tau, m = cov_module._loading_terms(1.8, np.array([1.8, 1.8]), v, cfg)
    np.testing.assert_allclose(d_v, [0.0, 0.0])
    np.testing.assert_allclose(d_tau, [-1.0 / 3.0, -1.0])
    np.testing.assert_allclose(m, [1.0 / 3.0, 1.0])
    sigma = np.diag([5.0, 5.0, CASE1_S22])
    sd, _ = prediction_sd_grid(1.8, np.array([1.8, 1.8]), v, _sigma_b(sigma), cfg)
    np.testing.assert_allclose(sd, math.sqrt(CASE1_S22))


def test_loadings_structure_and_signs():
    cfg, b, tau_p, tau_o = _case1_setup()
    d_v, _, m = cov_module._loading_terms(1.8, np.array([tau_p, tau_o]), np.array([b.v_p, b.v_o]), cfg)
    assert d_v[0] > 0.0  # more variance -> more shrinkage -> positive gap
    assert np.all(m > 0.0)


def test_loadings_zero_tau_error():
    cfg = RobustConfig(2.0, 1.0)
    b = Bracket(v_p=9.0, v_o=1.0)
    # q=1 with a big radius thresholds the prediction to exactly zero, where
    # the penalty's curvature is not finite
    tau_p = solve_minimax(0.5, b.v_p, cfg)
    assert tau_p == 0.0
    tau = np.array([tau_p, solve_minimax(0.5, b.v_o, cfg)])
    sd, status = prediction_sd_grid(0.5, tau, np.array([b.v_p, b.v_o]), (1.0, 0.0, 1.0), cfg)
    assert tau[1] == 0.0 and status.tolist() == [CURVATURE, CURVATURE]
    assert np.isnan(sd).all()
    with pytest.raises(NumericalError, match="at tau_b = 0 for q < 2"):
        check_status(status)


def test_conditional_variance_never_larger():
    sigma = _neyman((2.0, 0.2), (4.0, 1.0), (0.0, 0.0), (48.0, 3.0), 0.3)
    for delta in (0.05, 0.1, 0.5, 1.0):
        cfg, b, tau_p, tau_o = _case1_setup(delta)
        tau, v = np.array([tau_p, tau_o]), np.array([b.v_p, b.v_o])
        un = prediction_sd_grid(1.8, tau, v, _sigma_b(sigma), cfg)[0]
        cond = prediction_sd_grid(1.8, tau, v, _sigma_b(sigma), cfg, conditional=True)[0]
        assert np.all(cond <= un + 1e-12)


def test_conditional_sd_grid_matches_loadings():
    # the conditional SD along a grid of source effects, with S_bt and S_tt
    # left out, equals one call per grid point with the full Sigma entries
    cfg, b, _, _ = _case1_setup(0.4)
    s = np.diag([CASE1_S00, CASE1_S11, CASE1_S22])
    ts = np.array([0.8, 1.2, 1.8, 2.5])
    tau_ps = np.array([solve_minimax(t, b.v_p, cfg) for t in ts])
    grid_sd = prediction_sd_grid(ts, tau_ps, b.v_p, (s[0, 0], 0.0, 0.0), cfg, conditional=True)[0]
    for i, t in enumerate(ts):
        sd_p = prediction_sd_grid(t, tau_ps[i], b.v_p, (s[0, 0], s[0, 2], s[2, 2]), cfg, conditional=True)[0]
        assert grid_sd[i] == pytest.approx(float(sd_p), rel=1e-12)


def test_prediction_sd_grid_matches_loadings():
    # a batch of (tau_p, tau_o) pairs in one call equals, entry for entry,
    # one call per pair
    cfg = RobustConfig(0.4, 3.0)
    sigma = _neyman((2.0, 0.2), (4.0, 1.0), (0.5, -0.2), (48.0, 3.0), 0.3)
    b = Bracket(v_p=9.0, v_o=1.0)
    tau_star = np.array([[-2.5], [0.8], [1.8], [4.0]])
    v = np.array([[b.v_p, b.v_o]])
    tau = np.array([[solve_minimax(t, vb, cfg) for vb in v[0]] for t in tau_star[:, 0]])
    for conditional in (False, True):
        grid, status = prediction_sd_grid(tau_star, tau, v, _sigma_b(sigma), cfg, conditional)
        assert (status == OK).all()
        for i, t in enumerate(tau_star[:, 0]):
            pair = prediction_sd_grid(t, tau[i], v[0], _sigma_b(sigma), cfg, conditional)[0]
            assert grid[i].tolist() == pair.tolist()


def test_prediction_sd_grid_raises_as_loadings():
    # each entry's status names why it has no SD, its SD is NaN, and
    # check_status raises for the first such entry in C order
    cfg = RobustConfig(0.5, 1.5)
    sigma_b = (1.0, 0.0, 1.0)
    curvature = "no smooth expansion at tau_b = 0 for q < 2"
    kink = "no smooth expansion at v_b = 0 with tau_b = tau_star"

    def check(t, tau, v, statuses, message, conditional=False):
        sd, status = prediction_sd_grid(t, tau, v, sigma_b, cfg, conditional)
        assert status.tolist() == statuses
        assert (np.isnan(sd) == (status != OK)).all()
        with pytest.raises(NumericalError, match=message):
            check_status(status)

    check(np.array([[1.0], [0.5]]), np.array([[0.9, 0.8], [0.4, 0.0]]), np.array([[4.0, 1.0]]),
          [[OK, OK], [OK, CURVATURE]], curvature)
    # the first failing entry in C order decides: the kink of an earlier
    # pair, then a zero prediction before a later kink
    check(np.array([[1.0], [0.5]]), np.array([[0.9, 1.0], [0.4, 0.0]]), np.array([[4.0, 0.0]]),
          [[OK, KINK], [OK, CURVATURE]], kink)
    check(np.array([[0.5], [1.0]]), np.array([[0.4, 0.0], [0.9, 1.0]]), np.array([[4.0, 0.0]]),
          [[OK, CURVATURE], [OK, KINK]], curvature)
    # the conditional SD follows the same rule
    for t, tau, v, status, message in ((0.5, 0.0, 4.0, CURVATURE, curvature), (1.0, 1.0, 0.0, KINK, kink)):
        check(np.array([1.0, t]), np.array([0.9, tau]), v, [OK, status], message, conditional=True)
    # with q >= 2 a zero prediction has a finite curvature and an SD
    sd, status = prediction_sd_grid(np.array([0.5, 1.0]), np.array([0.0, 0.9]), 4.0, (1.0, 0.0, 0.0),
                                    RobustConfig(0.5, 2.0), conditional=True)
    assert np.all(np.isfinite(sd)) and status.tolist() == [OK, OK]
    check_status(status)


# ----------------------------------------------------------- zero-effect law


def test_conditional_sd_bounds_enclose_a_dense_grid():
    # over each interval of one sign, the prediction's slope (by differences)
    # and the conditional SD lie inside the enclosures from the two ends, and
    # so does the SD's slope
    rng = np.random.default_rng(26)
    for q in (1.5, 2.0, 3.0):
        for _ in range(15):
            config = RobustConfig(float(np.exp(rng.uniform(-4.0, 1.0))), q)
            v, s_bb = rng.uniform(0.2, 9.0), rng.uniform(1.0, 100.0)
            lo = rng.uniform(0.3, 3.0)
            ts = rng.choice([-1.0, 1.0]) * np.linspace(lo, lo + rng.uniform(0.05, 1.0), 20_001)
            tau = solve_minimax_many(ts, v, config)
            sd = prediction_sd_grid(ts, tau, v, (s_bb, 0.0, 0.0), config, conditional=True)[0]
            slope_lo, slope_hi, sd_hi, sd_slope, tau_err, sd_err = conditional_sd_bounds(
                np.abs(ts[[0, -1]]), tau[[0, -1]], v, s_bb, config)
            slope = np.diff(np.abs(tau)) / np.diff(np.abs(ts))
            assert slope_lo <= slope.min() and slope.max() <= slope_hi, (q, config, v)
            assert sd.max() <= sd_hi
            assert np.all(np.abs(np.diff(sd) / np.diff(np.abs(ts))) <= sd_slope)
            # rounding allowances: of a few hundred ulps, and at most 1e-6 of the SD
            assert 0.0 < tau_err < 1e-12 and 0.0 < sd_err <= 1e-6 * sd_hi
    # no enclosure where v_b = 0, or where a prediction is 0
    for ends, tau, v in (([1.0, 1.5], [1.0, 1.5], 0.0), ([0.0, 0.5], [0.0, 0.4], 1.0)):
        bounds = conditional_sd_bounds(np.array(ends), np.array(tau), v, 1.0, RobustConfig(0.5, 2.0))
        assert np.isnan(bounds[:4]).all()


def test_zero_effect_sd_is_the_zero_effect_limit():
    # at tau* = tau_b = 0 the delta-method SD is the limit law's SD:
    # sigma_tau / (1 + delta sqrt(V_b / 2)) at q = 2, and sigma_tau for
    # q > 2, where B''(0) = 0
    rng = np.random.default_rng(71)
    sigma_tau = rng.uniform(0.1, 10.0, 2000)
    v_b = rng.uniform(0.01, 50.0, 2000)
    delta = rng.uniform(0.01, 5.0, 2000)
    q = np.where(rng.random(2000) < 0.5, 2.0, rng.uniform(2.0, 12.0, 2000))
    sigma_b = (rng.uniform(0.1, 5.0), rng.uniform(-1.0, 1.0), sigma_tau**2)
    for k in range(2000):
        cfg = RobustConfig(float(delta[k]), float(q[k]))
        assert solve_minimax(0.0, float(v_b[k]), cfg) == 0.0
        sd = float(prediction_sd_grid(0.0, 0.0, v_b[k], (*sigma_b[:2], sigma_b[2][k]), cfg)[0])
        limit = sigma_tau[k] / (1.0 + delta[k] * math.sqrt(v_b[k] / 2.0)) if q[k] == 2.0 else sigma_tau[k]
        assert sd == pytest.approx(limit, rel=4 * np.finfo(float).eps, abs=0.0)
    # q in (1, 2): the limit law is not normal, and the zero prediction has no SD
    for q_low in (1.01, 1.5, 1.99):
        sd, status = prediction_sd_grid(0.0, 0.0, 4.0, (1.0, 0.0, 1.0), RobustConfig(1.0, q_low))
        assert np.isnan(sd) and status == CURVATURE


# ----------------------------------------------------------------- bootstrap


def test_bootstrap_sigma_consistent_with_plugin():
    rng = np.random.default_rng(3)
    smp = _case1_marginals(rng, 4000)
    boot = sigma_bootstrap(smp, method="sharp", draws=300, seed=42)
    # agree with the analytic tau* variance within bootstrap noise
    assert boot[2, 2] == pytest.approx(CASE1_S22, rel=0.25)
    plug = sigma_sharp_batch(smp.arms)[0]
    assert boot[0, 0] == pytest.approx(plug[0, 0], rel=0.3)


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
