import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from drpredict import ExperimentalSample, NumericalError, ValidationError
from drpredict import sample as sample_module
from drpredict.bounds import mean_square_gaps, sharp_bounds_empirical
from drpredict.inference import estimate_robust
from drpredict.moments import check_fourth_moments, estimate_moments
from drpredict.solver import RobustConfig


def _sample(y1, y0):
    y = np.concatenate([y1, y0])
    t = np.concatenate([np.ones(len(y1), dtype=int), np.zeros(len(y0), dtype=int)])
    return ExperimentalSample(y, t)


def test_diff_means_hand_computed():
    s = _sample([2.0, 4.0], [1.0, 3.0])
    assert estimate_moments(s).ate == pytest.approx(1.0)


def test_moments_hand_computed():
    # treated: {0, 2} -> mean 1, var 1, mu3 0, mu4 1
    # control: {1, 1, 4} -> mean 2, var 2, mu3 (1+1-8... ) compute directly
    s = _sample([0.0, 2.0], [1.0, 1.0, 4.0])
    m = estimate_moments(s)
    assert m.tau1 == pytest.approx(1.0)
    assert m.sigma1_sq == pytest.approx(1.0)
    assert m.mu3_1 == pytest.approx(0.0)
    assert m.mu4_1 == pytest.approx(1.0)
    assert m.tau0 == pytest.approx(2.0)
    d = np.array([1.0, 1.0, 4.0]) - 2.0
    assert m.sigma0_sq == pytest.approx((d**2).mean())
    assert m.mu3_0 == pytest.approx((d**3).mean())
    assert m.mu4_0 == pytest.approx((d**4).mean())
    assert m.e_hat == pytest.approx(2.0 / 5.0)
    assert m.ate == pytest.approx(-1.0)


def test_moments_biased_normalization():
    # 1/n, not 1/(n-1): variance of {0, 2} is 1, not 2
    s = _sample([0.0, 2.0], [0.0, 2.0])
    m = estimate_moments(s)
    assert m.sigma1_sq == pytest.approx(1.0)
    assert m.sigma0_sq == pytest.approx(1.0)


def test_moments_insufficient_arm():
    s = _sample([1.0], [2.0, 3.0])
    with pytest.raises(ValidationError, match="treated"):
        estimate_moments(s)
    s = _sample([1.0, 2.0], [3.0])
    with pytest.raises(ValidationError, match="control"):
        estimate_moments(s)


finite = st.floats(min_value=-1e4, max_value=1e4, allow_nan=False, allow_infinity=False)


@settings(max_examples=150, deadline=None)
@given(
    y1=st.lists(finite, min_size=2, max_size=40),
    y0=st.lists(finite, min_size=2, max_size=40),
)
def test_moment_properties(y1, y0):
    s = _sample(y1, y0)
    m = estimate_moments(s)
    # nonnegative even moments
    assert m.sigma1_sq >= 0 and m.sigma0_sq >= 0
    assert m.mu4_1 >= 0 and m.mu4_0 >= 0
    # Cauchy-Schwarz / Jensen: mu4 >= sigma^4 (small tolerance for fp error)
    assert m.mu4_1 >= m.sigma1_sq**2 - 1e-6 * max(1.0, m.mu4_1)
    assert m.mu4_0 >= m.sigma0_sq**2 - 1e-6 * max(1.0, m.mu4_0)
    assert m.ate == pytest.approx(np.mean(y1) - np.mean(y0), abs=1e-9)


@settings(max_examples=100, deadline=None)
@given(
    y1=st.lists(finite, min_size=2, max_size=30),
    y0=st.lists(finite, min_size=2, max_size=30),
    shift=finite,
)
def test_moments_translation_equivariance(y1, y0, shift):
    m0 = estimate_moments(_sample(y1, y0))
    m1 = estimate_moments(_sample([v + shift for v in y1], [v + shift for v in y0]))
    scale = max(1.0, abs(shift))
    assert m1.tau1 - m0.tau1 == pytest.approx(shift, abs=1e-6 * scale)
    # central moments are shift-invariant
    assert m1.sigma1_sq == pytest.approx(m0.sigma1_sq, rel=1e-5, abs=1e-4 * scale**2)
    assert m1.mu3_0 == pytest.approx(m0.mu3_0, rel=1e-5, abs=1e-3 * scale**3)


def test_check_fourth_moments_indexes_an_arm_only_to_raise(monkeypatch):
    finite = _sample(np.array([1.0, 2.0, 4.0]), np.array([0.0, 3.0]))
    huge = _sample(np.array([1e200, -1e200, 3e200]), np.array([0.0, 1.0]))
    cases = [(smp, estimate_moments(smp)) for smp in (finite, huge)]
    reads = []
    for arm in ("treated", "control"):
        real = getattr(ExperimentalSample, arm).fget
        monkeypatch.setattr(ExperimentalSample, arm,
                            property(lambda s, arm=arm, real=real: reads.append(arm) or real(s)))
    check_fourth_moments(*cases[0])
    assert reads == []
    with pytest.raises(NumericalError, match="^the fourth moments of the treated arm overflow: "
                       r"the outcome scale \(arm SD 1\.63e\+200, largest \|y\| 3e\+200\)"):
        check_fourth_moments(*cases[1])
    assert reads == ["treated"]


def test_each_arms_moments_are_computed_once_per_sample(monkeypatch):
    # the sharp bounds centre the treated arm by estimate_moments' own ATE
    for seed in range(20):
        rng = np.random.default_rng(seed)
        n1 = rng.binomial(1000, 0.3)
        smp = _sample(rng.normal(2.0, 2.0, n1), rng.normal(0.2, 1.0, 1000 - n1))
        y1, y0 = smp.sorted_arms
        bounds = sharp_bounds_empirical(smp)
        v_o, v_p = mean_square_gaps(y1 - estimate_moments(smp).ate, y0, (0, y1.size, 0, y0.size),
                                    antitone=True)[0]
        assert (bounds.v_o, bounds.v_p) == (v_o, v_p)
    # one moments pass over the sample's batch of one, covering both arms
    calls = []
    real = sample_module._ragged_moments
    monkeypatch.setattr(sample_module, "_ragged_moments",
                        lambda values, starts: calls.append(np.diff(starts).tolist()) or real(values, starts))
    for method in ("sharp", "neyman"):
        calls.clear()
        estimate_robust(_sample(smp.treated.copy(), smp.control.copy()), RobustConfig(0.5, 2.0), method)
        assert calls == [[smp.n1, smp.n0]]
