import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from drpredict import ExperimentalSample, NumericalError, ValidationError
from drpredict import sample as sample_module
from drpredict.bounds import mean_square_gaps, variance_bounds
from drpredict.inference import estimate_robust_many
from drpredict.sample import arm_batch, check_fourth_moments
from drpredict.solver import RobustConfig


def _sample(y1, y0):
    y = np.concatenate([y1, y0])
    t = np.concatenate([np.ones(len(y1), dtype=int), np.zeros(len(y0), dtype=int)])
    return ExperimentalSample(y, t)


def _moments(s):
    """(treated, control): each arm's (mean, variance, mu3, mu4)."""
    return s.arms.moments.T.tolist()


def test_diff_means_hand_computed():
    s = _sample([2.0, 4.0], [1.0, 3.0])
    assert s.arms.ate.tolist() == [pytest.approx(1.0)]
    # one entry per sample of a batch, each that of its sample alone
    batch = arm_batch([s, _sample([0.0, 2.0], [1.0, 1.0, 4.0]), s])
    assert batch.ate.tolist() == [s.arms.ate[0], -1.0, s.arms.ate[0]]


def test_a_constant_arm_has_exact_moments():
    # np.mean gives 1,000 copies of 1.7 a variance of 1.97e-31, a residue
    # of the rounded mean; an arm of one value gets exactly (value, 0, 0, 0),
    # also between other arms of a ragged batch
    const = np.full(1_000, 1.7)
    assert float(const.var()) > 0.0
    rng = np.random.default_rng(5)
    s = _sample(rng.normal(2.0, 2.0, 300), const)
    treated, control = _moments(s)
    assert control == [1.7, 0.0, 0.0, 0.0]
    assert treated[1] > 0.0
    batch = arm_batch([s, _sample(np.full(40, -3e5), rng.normal(size=50)), s])
    assert batch.moments[:, 1].tolist() == [1.7, 0.0, 0.0, 0.0]
    assert batch.moments[:, 2].tolist() == [-3e5, 0.0, 0.0, 0.0]
    assert np.array_equal(batch.moments[:, 4:], batch.moments[:, :2])


def test_moments_hand_computed():
    # treated: {0, 2} -> mean 1, var 1, mu3 0, mu4 1
    # control: {1, 1, 4} -> mean 2, var 2, mu3 (1+1-8... ) compute directly
    s = _sample([0.0, 2.0], [1.0, 1.0, 4.0])
    (tau1, s1_sq, mu3_1, mu4_1), (tau0, s0_sq, mu3_0, mu4_0) = _moments(s)
    assert tau1 == pytest.approx(1.0)
    assert s1_sq == pytest.approx(1.0)
    assert mu3_1 == pytest.approx(0.0)
    assert mu4_1 == pytest.approx(1.0)
    assert tau0 == pytest.approx(2.0)
    d = np.array([1.0, 1.0, 4.0]) - 2.0
    assert s0_sq == pytest.approx((d**2).mean())
    assert mu3_0 == pytest.approx((d**3).mean())
    assert mu4_0 == pytest.approx((d**4).mean())
    assert s.n1 / s.n == pytest.approx(2.0 / 5.0)
    assert s.arms.ate[0] == pytest.approx(-1.0)


def test_moments_biased_normalization():
    # 1/n, not 1/(n-1): variance of {0, 2} is 1, not 2
    s = _sample([0.0, 2.0], [0.0, 2.0])
    assert s.arms.moments[1].tolist() == [pytest.approx(1.0)] * 2


def test_moments_insufficient_arm():
    s = _sample([1.0], [2.0, 3.0])
    with pytest.raises(ValidationError, match="treated"):
        s.arms
    s = _sample([1.0, 2.0], [3.0])
    with pytest.raises(ValidationError, match="control"):
        s.arms
    # one check for every stage: the first short arm of a batch, in order
    good = _sample([1.0, 2.0], [3.0, 4.0])
    with pytest.raises(ValidationError, match=r"^control arm has 1 observation\(s\), need >= 2$"):
        arm_batch([good, s, _sample([1.0], [2.0, 3.0])])


finite = st.floats(min_value=-1e4, max_value=1e4, allow_nan=False, allow_infinity=False)


@settings(max_examples=150, deadline=None)
@given(
    y1=st.lists(finite, min_size=2, max_size=40),
    y0=st.lists(finite, min_size=2, max_size=40),
)
def test_moment_properties(y1, y0):
    s = _sample(y1, y0)
    for _, var, _, mu4 in _moments(s):
        # nonnegative even moments
        assert var >= 0 and mu4 >= 0
        # Cauchy-Schwarz / Jensen: mu4 >= sigma^4 (small tolerance for fp error)
        assert mu4 >= var**2 - 1e-6 * max(1.0, mu4)
    assert s.arms.ate[0] == pytest.approx(np.mean(y1) - np.mean(y0), abs=1e-9)


@settings(max_examples=100, deadline=None)
@given(
    y1=st.lists(finite, min_size=2, max_size=30),
    y0=st.lists(finite, min_size=2, max_size=30),
    shift=finite,
)
def test_moments_translation_equivariance(y1, y0, shift):
    m0 = _sample(y1, y0).arms.moments
    m1 = _sample([v + shift for v in y1], [v + shift for v in y0]).arms.moments
    scale = max(1.0, abs(shift))
    assert m1[0, 0] - m0[0, 0] == pytest.approx(shift, abs=1e-6 * scale)
    # central moments are shift-invariant
    assert m1[1, 0] == pytest.approx(m0[1, 0], rel=1e-5, abs=1e-4 * scale**2)
    assert m1[2, 1] == pytest.approx(m0[2, 1], rel=1e-5, abs=1e-3 * scale**3)


def test_check_fourth_moments_indexes_an_arm_only_to_raise(monkeypatch):
    finite = _sample(np.array([1.0, 2.0, 4.0]), np.array([0.0, 3.0]))
    huge = _sample(np.array([1e200, -1e200, 3e200]), np.array([0.0, 1.0]))
    huge_control = _sample(np.array([0.0, 1.0]), np.array([2e200, -2e200, 6e200]))
    reads = []
    real = sample_module.ArmBatch.arm
    monkeypatch.setattr(sample_module.ArmBatch, "arm", lambda arms, k: reads.append(k) or real(arms, k))
    check_fourth_moments(arm_batch([finite, finite]))
    assert reads == []
    message = ("^the fourth moments of the treated arm overflow: "
               r"the outcome scale \(arm SD 1\.63e\+200, largest \|y\| 3e\+200\) is beyond double precision$")
    with pytest.raises(NumericalError, match=message):
        check_fourth_moments(huge.arms)
    # in a batch: the first failing arm in sample order, treated before
    # control, with the message of its sample alone
    for batch in ([finite, huge, huge_control], [finite, huge, huge], [huge, huge_control]):
        with pytest.raises(NumericalError, match=message):
            check_fourth_moments(arm_batch(batch))
    with pytest.raises(NumericalError, match="^the fourth moments of the control arm overflow: "
                       r"the outcome scale \(arm SD 3\.27e\+200, largest \|y\| 6e\+200\)"):
        check_fourth_moments(arm_batch([finite, huge_control, huge]))
    assert reads == [0, 2, 2, 0, 3]


def test_each_arms_moments_are_computed_once_per_sample(monkeypatch):
    # the sharp bounds centre the treated arm by the batch's own ATE
    for seed in range(20):
        rng = np.random.default_rng(seed)
        n1 = rng.binomial(1000, 0.3)
        smp = _sample(rng.normal(2.0, 2.0, n1), rng.normal(0.2, 1.0, 1000 - n1))
        y1, y0 = smp.arms.values[: smp.n1], smp.arms.values[smp.n1 :]
        v_o, v_p = mean_square_gaps(y1 - smp.arms.ate[0], y0, (0, y1.size, 0, y0.size),
                                    antitone=True)[0]
        assert variance_bounds(smp.arms)[0].tolist() == [v_p, v_o]
    # one moments pass over the sample's batch of one, covering both arms
    calls = []
    real = sample_module._ragged_moments
    monkeypatch.setattr(sample_module, "_ragged_moments",
                        lambda values, starts: calls.append(np.diff(starts).tolist()) or real(values, starts))
    for method in ("sharp", "neyman"):
        calls.clear()
        estimate_robust_many([_sample(smp.treated.copy(), smp.control.copy())], RobustConfig(0.5, 2.0), method)
        assert calls == [[smp.n1, smp.n0]]
