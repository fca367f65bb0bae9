import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from drpredict import NumericalError, ValidationError
from drpredict import solver as solver_module
from drpredict.bounds import VarianceBounds
from drpredict.solver import (
    RobustConfig,
    homogeneous_threshold,
    newton_root,
    penalty_curvature_range,
    penalty_derivs,
    proximity_derivs,
    solve_minimax,
    solve_minimax_many,
    sweep_delta,
)
from oracles import dual_objective, newton_root_full


# -------------------------------------------------------------------- config


def test_config_validation():
    RobustConfig(delta=0.0, q=1.0)
    with pytest.raises(ValidationError):
        RobustConfig(delta=-0.1, q=2.0)
    with pytest.raises(ValidationError):
        RobustConfig(delta=1.0, q=0.99)
    with pytest.raises(ValidationError):
        RobustConfig(delta=math.nan, q=2.0)
    with pytest.raises(ValidationError):
        RobustConfig(delta=1.0, q=math.inf)


def test_config_from_p():
    assert RobustConfig.from_p(0.5, 2.0).q == pytest.approx(2.0)
    assert RobustConfig.from_p(0.5, 3.0).q == pytest.approx(1.5)
    assert RobustConfig.from_p(0.5, 1.5).q == pytest.approx(3.0)
    assert RobustConfig.from_p(0.5, math.inf).q == 1.0
    with pytest.raises(ValidationError):
        RobustConfig.from_p(0.5, 1.0)
    with pytest.raises(ValidationError):
        RobustConfig.from_p(0.5, 0.5)


# ----------------------------------------------------------------- objective


def test_objective_hand_values():
    assert dual_objective(0.0, 0.0, 1.0, RobustConfig(0.0, 2.0)) == pytest.approx(1.0)
    assert dual_objective(0.0, 3.0, 0.0, RobustConfig(1.0, 2.0)) == pytest.approx(3.0 + math.sqrt(2.0))
    assert dual_objective(2.0, 2.0, 5.0, RobustConfig(0.5, 2.0)) == pytest.approx(
        math.sqrt(5.0) + 0.5 * math.sqrt(6.0)
    )


def test_objective_rejects_negative_variance():
    with pytest.raises(ValidationError):
        dual_objective(0.0, 1.0, -1e-9, RobustConfig(1.0, 2.0))


@settings(max_examples=300, deadline=None)
@given(
    t1=st.floats(-20, 20),
    t2=st.floats(-20, 20),
    lam=st.floats(0, 1),
    tau_star=st.floats(-10, 10),
    v=st.floats(0, 10),
    delta=st.floats(0, 3),
    q=st.sampled_from([1.0, 1.5, 2.0, 3.0, 10.0]),
)
def test_objective_convex(t1, t2, lam, tau_star, v, delta, q):
    cfg = RobustConfig(delta, q)
    mid = lam * t1 + (1 - lam) * t2
    lhs = dual_objective(mid, tau_star, v, cfg)
    rhs = lam * dual_objective(t1, tau_star, v, cfg) + (1 - lam) * dual_objective(t2, tau_star, v, cfg)
    assert lhs <= rhs + 1e-10


# ----------------------------------------------------------------- threshold


def test_threshold_values():
    assert homogeneous_threshold(2.0, 2.0) == pytest.approx(math.sqrt(1.5), abs=1e-12)
    assert homogeneous_threshold(1.0, 2.0) == pytest.approx(math.sqrt(3.0), abs=1e-12)
    assert homogeneous_threshold(2.0, 3.0) == pytest.approx(1.25 ** (2.0 / 3.0), abs=1e-12)
    # sign-symmetric
    assert homogeneous_threshold(-2.0, 2.0) == homogeneous_threshold(2.0, 2.0)


def test_threshold_decreasing_in_effect_size():
    vals = [homogeneous_threshold(t, 2.0) for t in (0.5, 1.0, 2.0, 4.0, 8.0)]
    assert all(a > b for a, b in zip(vals, vals[1:]))


def test_threshold_domain():
    with pytest.raises(ValidationError):
        homogeneous_threshold(0.0, 2.0)
    with pytest.raises(ValidationError):
        homogeneous_threshold(1.0, 1.0)
    with pytest.raises(ValidationError):
        homogeneous_threshold(1.0, 0.5)


def test_threshold_tends_to_one_as_q_to_one():
    assert homogeneous_threshold(2.0, 1.0 + 1e-9) == pytest.approx(1.0, abs=1e-6)


# -------------------------------------------------------------------- solver


def test_delta_zero_returns_tau_star_exactly():
    cfg = RobustConfig(0.0, 2.0)
    for ts, v in [(2.0, 0.0), (-3.5, 1.0), (0.17, 10.0)]:
        assert solve_minimax(ts, v, cfg) == ts


def test_tau_star_zero_is_fixed_point():
    for q in (1.0, 1.5, 2.0, 3.0):
        for d in (0.0, 0.5, 2.0):
            assert solve_minimax(0.0, 3.0, RobustConfig(d, q)) == 0.0


def test_homogeneous_no_shrinkage_up_to_threshold():
    thr = homogeneous_threshold(2.0, 2.0)
    assert solve_minimax(2.0, 0.0, RobustConfig(1.0, 2.0)) == 2.0
    assert solve_minimax(2.0, 0.0, RobustConfig(thr, 2.0)) == 2.0
    just_past = solve_minimax(2.0, 0.0, RobustConfig(thr + 1e-6, 2.0))
    assert just_past < 2.0
    well_past = solve_minimax(2.0, 0.0, RobustConfig(2.0, 2.0))
    assert 0.0 < well_past < just_past


def test_table_values_case1_case2():
    assert solve_minimax(1.8, 2.2, RobustConfig(0.1, 2.0)) == pytest.approx(1.686, abs=1e-3)
    assert solve_minimax(1.8, 2.2, RobustConfig(1.0, 2.0)) == pytest.approx(0.879, abs=1e-3)


def test_q1_closed_form_oracle():
    # for q=1 and v>0 the optimum has the closed form
    # tau_star - delta*sqrt(v/(1-delta^2)), floored at 0 (and 0 when delta>=1)
    rng = np.random.default_rng(8)
    for _ in range(200):
        a = rng.uniform(0.05, 5.0) * rng.choice([-1.0, 1.0])
        v = rng.uniform(1e-3, 10.0)
        d = rng.uniform(0.0, 2.0)
        got = solve_minimax(a, v, RobustConfig(d, 1.0))
        if d >= 1.0:
            want = 0.0
        else:
            want = max(0.0, abs(a) - d * math.sqrt(v / (1.0 - d * d))) * math.copysign(1.0, a)
        assert got == pytest.approx(want, abs=5e-9), (a, v, d)


def test_q1_homogeneous_keeps_tau_star():
    # v = 0 with q = 1 and delta < 1: the closed form leaves tau* unshrunk
    assert solve_minimax(2.0, 0.0, RobustConfig(0.5, 1.0)) == 2.0
    assert solve_minimax(-2.0, 0.0, RobustConfig(0.5, 1.0)) == -2.0


def _q1_closed_form(tau_star, v, delta):
    if delta >= 1.0:
        return 0.0
    shrunk = max(0.0, abs(tau_star) - delta * math.sqrt(v / (1.0 - delta * delta)))
    return math.copysign(shrunk, tau_star)


@settings(max_examples=300, deadline=None)
@given(
    tau_star=st.floats(-10, 10),
    v=st.one_of(st.just(0.0), st.floats(0, 10)),
    delta=st.floats(0, 3),
    q=st.sampled_from([1.0, 1.5, 2.0, 3.0, 10.0]),
)
def test_solution_properties_with_exact_zero_variance(tau_star, v, delta, q):
    got = solve_minimax(tau_star, v, RobustConfig(delta, q))
    assert math.isfinite(got)
    assert got == 0.0 or math.copysign(1.0, got) == math.copysign(1.0, tau_star)
    assert abs(got) <= abs(tau_star)
    if q == 1.0:
        assert got == pytest.approx(_q1_closed_form(tau_star, v, delta), abs=1e-12)


def test_q1_hard_threshold_snaps_to_zero():
    # strong radius with q=1 kills the effect exactly
    assert solve_minimax(1.0, 4.0, RobustConfig(1.5, 1.0)) == 0.0
    assert solve_minimax(-1.0, 4.0, RobustConfig(1.5, 1.0)) == 0.0


def test_foc_residual_at_solution():
    rng = np.random.default_rng(21)
    for _ in range(300):
        ts = rng.uniform(-5, 5)
        v = rng.uniform(1e-4, 10.0)
        d = rng.uniform(1e-3, 3.0)
        q = rng.choice([1.5, 2.0, 3.0, 10.0])
        t_hat = solve_minimax(ts, v, RobustConfig(d, q))
        if t_hat == 0.0:
            continue
        _, pd1, _ = proximity_derivs(t_hat, ts, v)
        _, bd1, _ = penalty_derivs(t_hat, q)
        assert abs(pd1 + d * bd1) <= 1e-8, (ts, v, d, q)


def test_monotone_in_variance():
    cfg = RobustConfig(0.7, 2.0)
    vals = [solve_minimax(2.5, v, cfg) for v in (0.0, 0.5, 1.0, 2.0, 5.0, 10.0)]
    assert all(x >= y - 1e-12 for x, y in zip(vals, vals[1:]))
    # mirrored for negative effects
    vals_neg = [solve_minimax(-2.5, v, cfg) for v in (0.0, 1.0, 5.0)]
    assert all(x <= y + 1e-12 for x, y in zip(vals_neg, vals_neg[1:]))


def test_sign_mirror_symmetry():
    rng = np.random.default_rng(4)
    for _ in range(100):
        ts = rng.uniform(0.01, 5.0)
        v = rng.uniform(0.0, 10.0)
        d = rng.uniform(0.0, 3.0)
        q = rng.choice([1.0, 1.5, 2.0, 3.0])
        plus = solve_minimax(ts, v, RobustConfig(d, q))
        minus = solve_minimax(-ts, v, RobustConfig(d, q))
        assert minus == pytest.approx(-plus, abs=1e-12)


def test_immediate_shrinkage_with_positive_variance():
    for q in (1.5, 2.0, 3.0):
        for d in (1e-3, 0.1, 1.0):
            t_hat = solve_minimax(2.0, 1.0, RobustConfig(d, q))
            assert 0.0 < t_hat < 2.0


def test_q_ordering_at_large_delta():
    # Once the radius is large, bigger q shrinks less: the prediction decays
    # toward zero at rate delta^(-1/(q-1)). (At small radii the curves can
    # cross, so the ordering is only asserted in the large-delta regime.)
    for d in (2.0, 3.0):
        for v in (0.0, 1.5, 5.0):
            vals = [solve_minimax(2.0, v, RobustConfig(d, q)) for q in (1.0, 1.5, 2.0, 3.0, 10.0)]
            assert all(x <= y + 1e-9 for x, y in zip(vals, vals[1:])), (d, v, vals)


def test_q1_reaches_zero_but_q_above_one_never_does():
    # hard-thresholding happens only at q = 1
    big = RobustConfig(3.0, 1.0)
    assert solve_minimax(2.0, 5.0, big) == 0.0
    for q in (1.5, 2.0, 3.0, 10.0):
        assert solve_minimax(2.0, 5.0, RobustConfig(3.0, q)) > 0.0


def test_solution_beats_grid():
    # optimum value no worse than a fine grid scan of the objective
    rng = np.random.default_rng(13)
    for _ in range(25):
        ts = rng.uniform(-4, 4)
        v = rng.uniform(0, 8)
        d = rng.uniform(0, 2.5)
        q = rng.choice([1.0, 1.5, 2.0, 3.0])
        cfg = RobustConfig(d, q)
        t_hat = solve_minimax(ts, v, cfg)
        m_hat = dual_objective(t_hat, ts, v, cfg)
        grid = np.linspace(min(0.0, ts), max(0.0, ts), 4001)
        m_grid = min(dual_objective(t, ts, v, cfg) for t in grid)
        assert m_hat <= m_grid + 1e-9


def test_solver_rejects_negative_variance():
    with pytest.raises(ValidationError):
        solve_minimax(1.0, -0.5, RobustConfig(1.0, 2.0))


@pytest.mark.parametrize(
    "tau_star,v",
    [
        (math.nan, 1.0),  # returned nan
        (1.0, math.nan),  # returned 0.5: a NaN variance passed a `v < 0` check
        (math.inf, 1.0),  # raised NumericalError
        (-math.inf, 1.0),
        (1.0, math.inf),
    ],
)
def test_solver_rejects_nonfinite_inputs(tau_star, v):
    cfg = RobustConfig(0.5, 2.0)
    with pytest.raises(ValidationError):
        solve_minimax(tau_star, v, cfg)
    with pytest.raises(ValidationError):
        solve_minimax_many(np.array([1.0, tau_star]), np.array([v, 1.0]), cfg)
    with pytest.raises(ValidationError):  # sweep_delta returned NaN or 9.09e-13 rows
        sweep_delta(tau_star, VarianceBounds(v_o=v, v_p=v, method="sharp"), cfg.q, [cfg.delta])


@pytest.mark.parametrize("sign", [1.0, -1.0])
def test_solver_near_the_largest_double(sign):
    # the bisection midpoint 0.5 * (lo + hi) overflowed to inf on the
    # bracket [0, 1e308] once Newton steps were refused, and the solver
    # raised "did not converge in 200 steps"; the minimiser is tau* less
    # about 1/sqrt(3), which rounds to tau* itself
    tau_star = sign * 1e308
    assert solve_minimax(tau_star, 1.0, RobustConfig(0.5, 2.0)) == pytest.approx(tau_star, rel=1e-15)
    bounds = VarianceBounds(v_o=1.0, v_p=1.0, method="sharp")
    _, [tau_p], [tau_o] = sweep_delta(tau_star, bounds, 2.0, [0.5])
    assert tau_p == tau_o == pytest.approx(tau_star, rel=1e-15)


@pytest.mark.parametrize("tau_star", [1e60, 1e200, -1e300, 1e308])
def test_solver_bisects_down_from_a_huge_effect(tau_star):
    # the root sits near 0 and every Newton step from |tau*|/2 leaves the
    # bracket, so bisection of [0, |tau*|] alone must reach it: over 1,000
    # halvings at 1e308. The first-order condition is then
    # -1 + delta tau / sqrt(2 + tau^2) = 0, so tau = sqrt(2/3) at delta = 2.
    want = math.copysign(math.sqrt(2.0 / 3.0), tau_star)
    assert solve_minimax(tau_star, 1.0, RobustConfig(2.0, 2.0)) == pytest.approx(want, rel=1e-12)
    bounds = VarianceBounds(v_o=1.0, v_p=1.0, method="sharp")
    _, [tau_p], [tau_o] = sweep_delta(tau_star, bounds, 2.0, [2.0])
    assert tau_p == tau_o == pytest.approx(want, rel=1e-12)


def test_newton_root_bisects_a_bracket_near_the_largest_double():
    # a vanishing slope refuses every Newton step, so only bisection moves
    def fun(x):
        return x - 1.5e308, np.full(x.shape, 1e-300)

    root = newton_root(fun, 1.2e308, 1e308, 1.7e308, 1e-12)
    assert float(root) == pytest.approx(1.5e308, rel=1e-14)


def test_newton_root_raises_when_it_does_not_converge(monkeypatch):
    # an interior root that one Newton step does not reach
    cfg = RobustConfig(0.5, 2.0)
    assert solve_minimax(1.8, 1.0, cfg) not in (0.0, 1.8)
    monkeypatch.setattr(solver_module, "_MAX_ITER", 1)
    with pytest.raises(NumericalError, match="did not converge in 1 steps"):
        solve_minimax(1.8, 1.0, cfg)


def _sweep_with(newton, monkeypatch, *sweep_args):
    """``sweep_delta(*sweep_args)`` with ``newton`` as the solver's root finder."""
    with monkeypatch.context() as patch:
        patch.setattr(solver_module, "newton_root", newton)
        return sweep_delta(*sweep_args)


DENSE_DELTAS = 0.0 + np.arange(15_001) * 0.0002  # the grid of `sweep --deltas 0:3:0.0002`


@pytest.mark.parametrize("sign", [1.0, -1.0])
@pytest.mark.parametrize("v_o,v_p", [(0.4, 2.5), (0.0, 0.0)])
@pytest.mark.parametrize("q", [1.5, 2.0, 3.0, 10.0])
def test_active_set_newton_matches_full_array_oracle(q, v_o, v_p, sign, monkeypatch):
    # dropping converged entries must not change any entry's iterates
    tau_star = sign * 1.7
    bounds = VarianceBounds(v_o=v_o, v_p=v_p, method="sharp")
    want = _sweep_with(newton_root_full, monkeypatch, tau_star, bounds, q, DENSE_DELTAS)
    got = sweep_delta(tau_star, bounds, q, DENSE_DELTAS)
    assert all(np.array_equal(g, w) for g, w in zip(got, want))
    assert np.count_nonzero(got.tau_o != tau_star) > 5_000  # most radii were solved


@pytest.mark.parametrize("tau_star", [1e308, -1e308, 1.7e308])
def test_active_set_newton_matches_oracle_near_the_largest_double(tau_star, monkeypatch):
    bounds = VarianceBounds(v_o=0.25, v_p=1.0, method="sharp")
    deltas = [0.1, 0.5, 0.9]
    want = _sweep_with(newton_root_full, monkeypatch, tau_star, bounds, 2.0, deltas)
    got = sweep_delta(tau_star, bounds, 2.0, deltas)
    assert all(np.array_equal(g, w) for g, w in zip(got, want))


def test_newton_root_slices_its_arguments_to_the_unconverged_entries():
    # f(x) = x - a on [0, 1] with a sliced alongside x: entries that converge
    # early leave the later steps, and each finds its own root
    a = np.linspace(0.0, 1.0, 7).reshape(7, 1) ** np.array([1.0, 3.0])
    sizes = []

    def fun(x, a):
        sizes.append(x.size)
        return x - a, np.where(a > 0.5, 1.0, 1e-300)  # a tiny slope forces bisection

    root = newton_root(fun, 0.5, 0.0, 1.0, 1e-12, a)
    assert root.shape == a.shape
    assert root == pytest.approx(a, abs=1e-11)
    assert sizes[0] == a.size and sizes[-1] < a.size
    assert newton_root(fun, np.empty(0), 0.0, 1.0, 1e-12, np.empty(0)).shape == (0,)


# --------------------------------------------------------------- derivatives


def _central(fun, x, h=1e-6):
    return (fun(x + h) - fun(x - h)) / (2 * h)


def test_proximity_derivs_match_finite_differences():
    rng = np.random.default_rng(3)
    for _ in range(50):
        ts = rng.uniform(-5, 5)
        v = rng.uniform(0.01, 10)
        t = rng.uniform(-5, 5)
        val, d1, d2 = proximity_derivs(t, ts, v)
        f = lambda x: math.sqrt(v + (ts - x) ** 2)
        assert val == pytest.approx(f(t), rel=1e-12)
        assert d1 == pytest.approx(_central(f, t), rel=1e-6, abs=1e-8)
        g = lambda x: proximity_derivs(x, ts, v)[1]
        assert d2 == pytest.approx(_central(g, t), rel=1e-5, abs=1e-7)


def test_penalty_derivs_match_finite_differences():
    rng = np.random.default_rng(9)
    for q in (1.5, 2.0, 3.0, 10.0):
        for _ in range(30):
            t = rng.uniform(0.05, 5.0) * rng.choice([-1.0, 1.0])
            val, d1, d2 = penalty_derivs(t, q)
            f = lambda x: (2.0 + abs(x) ** q) ** (1.0 / q)
            assert val == pytest.approx(f(t), rel=1e-12)
            assert d1 == pytest.approx(_central(f, t), rel=1e-6, abs=1e-9)
            g = lambda x: penalty_derivs(x, q)[1]
            assert d2 == pytest.approx(_central(g, t), rel=1e-5, abs=1e-8)


def test_penalty_curvature_range_encloses_a_dense_grid():
    # B'' between the bounds, and the slope of B'' (by differences) below the
    # bound on |B'''|, everywhere on each interval, on both sides of the
    # peak of B'' for q > 2
    rng = np.random.default_rng(26)
    for q in (1.2, 1.5, 2.0, 3.0, 10.0):
        for _ in range(20):
            lo = rng.uniform(0.01, 3.0)
            hi = lo + rng.uniform(0.0, 2.0)
            b_lo, b_hi, b_ddd = penalty_curvature_range(np.array([lo]), np.array([hi]), q)
            tau = np.linspace(lo, hi, 20_001)
            b_dd = penalty_derivs(tau, q)[2]
            assert b_lo[0] <= b_dd.min() * (1.0 + 1e-13) and b_dd.max() <= b_hi[0] * (1.0 + 1e-13), (q, lo, hi)
            assert np.all(np.abs(np.diff(b_dd) / np.diff(tau)) <= b_ddd[0]), (q, lo, hi)


def test_penalty_derivs_at_zero():
    val, d1, d2 = penalty_derivs(0.0, 2.0)
    assert val == pytest.approx(math.sqrt(2.0))
    assert d1 == 0.0
    assert d2 == pytest.approx(2.0 ** -0.5)
    assert penalty_derivs(0.0, 3.0)[2] == 0.0
    assert penalty_derivs(0.0, 1.5)[2] == math.inf
    # q = 1: zero curvature away from the kink
    assert penalty_derivs(1.7, 1.0) == (3.7, 1.0, 0.0)
    assert penalty_derivs(-1.7, 1.0) == (3.7, -1.0, 0.0)


def test_proximity_derivs_kink_rejected():
    with pytest.raises(ValidationError):
        proximity_derivs(1.0, 1.0, 0.0)
    with pytest.raises(ValidationError, match="nonnegative"):
        proximity_derivs(0.0, 1.0, -1.0)


# --------------------------------------------------------------------- sweep


def test_sweep_delta_zero_row():
    b = VarianceBounds(v_o=1.0, v_p=4.0, method="sharp")
    table = sweep_delta(2.0, b, 2.0, [0.0])
    assert [col.tolist() for col in table] == [[0.0], [2.0], [2.0]]


def test_sweep_flat_below_threshold_when_homogeneous():
    b = VarianceBounds(v_o=0.0, v_p=0.0, method="sharp")
    thr = homogeneous_threshold(2.0, 2.0)
    table = sweep_delta(2.0, b, 2.0, np.linspace(0, thr, 7))
    assert np.all(table.tau_p == 2.0) and np.all(table.tau_o == 2.0)


def test_sweep_monotone_in_delta():
    b = VarianceBounds(v_o=0.5, v_p=3.0, method="sharp")
    table = sweep_delta(1.7, b, 2.0, np.linspace(0, 3, 31))
    assert np.all(np.diff(table.tau_p) <= 1e-10)
    assert np.all(np.diff(table.tau_o) <= 1e-10)


def test_sweep_validation():
    b = VarianceBounds(v_o=0.5, v_p=3.0, method="sharp")
    with pytest.raises(ValidationError):
        sweep_delta(1.0, b, 2.0, [])
    with pytest.raises(ValidationError):
        sweep_delta(1.0, b, 2.0, [0.1, -0.2])
    with pytest.raises(ValidationError):
        sweep_delta(1.0, b, 2.0, [[0.1, 0.2]])


@pytest.mark.parametrize("v_o,v_p,rows", [(1.5, 1.5, 1), (0.0, 0.0, 1), (0.5, 3.0, 2)])
def test_sweep_solves_each_distinct_variance_once(v_o, v_p, rows, monkeypatch):
    points = []

    def counting(fun, x, lo, hi, tol, *args):
        points.append(np.size(x))
        return newton_root(fun, x, lo, hi, tol, *args)

    monkeypatch.setattr(solver_module, "newton_root", counting)
    deltas = np.linspace(1.5, 4.0, 6)  # past the v = 0 threshold 1.22, so every radius is solved
    got = sweep_delta(2.0, VarianceBounds(v_o=v_o, v_p=v_p, method="sharp"), 2.0, deltas)
    assert sum(points) == rows * deltas.size
    monkeypatch.undo()
    assert (got.tau_p is got.tau_o) == (v_o == v_p)
    for d, tau_p, tau_o in zip(*(col.tolist() for col in got)):
        assert tau_p == solve_minimax(2.0, v_p, RobustConfig(d, 2.0))
        assert tau_o == solve_minimax(2.0, v_o, RobustConfig(d, 2.0))


# ------------------------------------------------------------ bound estimates


def test_predict_bounds_ordering():
    b = VarianceBounds(v_o=1.0, v_p=4.0, method="sharp")
    cfg = RobustConfig(0.5, 2.0)
    tau_p, tau_o = solve_minimax_many(2.0, [b.v_p, b.v_o], cfg).tolist()
    assert 0.0 < tau_p < tau_o < 2.0
    neg_p, neg_o = solve_minimax_many(-2.0, [b.v_p, b.v_o], cfg).tolist()
    assert neg_p == pytest.approx(-tau_p)
    assert -2.0 < neg_o < neg_p < 0.0


# ---------------------------------------------------------- vectorized solver


def test_vectorized_matches_scalar():
    rng = np.random.default_rng(17)
    for q in (1.5, 2.0, 3.0, 7.0):
        ts = rng.uniform(-5, 5, size=40)
        v = float(rng.uniform(0.0, 8.0))
        d = float(rng.uniform(1e-3, 3.0))
        cfg = RobustConfig(d, q)
        got = solve_minimax_many(ts, v, cfg)
        want = np.array([solve_minimax(t, v, cfg) for t in ts])
        np.testing.assert_allclose(got, want, atol=1e-10)


def test_vectorized_homogeneous_exact():
    cfg = RobustConfig(1.0, 2.0)  # below threshold for |tau*|=2
    out = solve_minimax_many(np.array([2.0, -2.0, 0.0]), 0.0, cfg)
    np.testing.assert_array_equal(out, [2.0, -2.0, 0.0])


def test_vectorized_q1_closed_form():
    rng = np.random.default_rng(31)
    ts = rng.uniform(-5, 5, size=200)
    vs = np.where(rng.random(200) < 0.25, 0.0, rng.uniform(0.0, 10.0, size=200))
    for d in (0.0, 0.3, 0.9, 1.0, 2.0):
        got = solve_minimax_many(ts, vs, RobustConfig(d, 1.0))
        want = [_q1_closed_form(t, v, d) for t, v in zip(ts, vs)]
        np.testing.assert_allclose(got, want, rtol=0, atol=1e-12)
    zeroed = solve_minimax_many(np.array([-1.0, 1.0]), 4.0, RobustConfig(1.5, 1.0))
    assert [math.copysign(1.0, x) for x in zeroed] == [1.0, 1.0]  # +0.0, never -0.0


def test_vectorized_rejects_negative_variance():
    with pytest.raises(ValidationError):
        solve_minimax_many(np.array([1.0, 2.0]), [1.0, -0.5], RobustConfig(0.5, 2.0))


# ------------------------------------------------- reference kernel (oracle)


def _reference_foc(tau, a, v, delta, q):
    """First-order condition on (0, a) for a = |tau_star| > 0, tau > 0."""
    prox = (tau - a) / math.sqrt(v + (a - tau) ** 2)
    return prox + delta * tau ** (q - 1.0) * (2.0 + tau**q) ** (1.0 / q - 1.0)


def _reference_solve(tau_star, v, delta, q):
    """Scalar solver for q > 1 by FOC bisection: the kernel the bracketed
    Newton core replaced, kept as its oracle."""
    if delta == 0.0:
        return tau_star
    if tau_star == 0.0:
        return 0.0
    a = abs(tau_star)
    if v == 0.0 and delta <= (2.0 / a**q + 1.0) ** (1.0 - 1.0 / q):
        return tau_star
    lo, hi = 0.0, a
    for _ in range(200):
        if hi - lo <= 1e-12:
            break
        mid = 0.5 * (lo + hi)
        if not lo < mid < hi:  # double-precision floor reached
            break
        if _reference_foc(mid, a, v, delta, q) < 0.0:
            lo = mid
        else:
            hi = mid
    return math.copysign(0.5 * (lo + hi), tau_star)


def test_core_matches_reference_bisection():
    rng = np.random.default_rng(2025)
    for q in (1.5, 2.0, 3.0, 7.3, 10.0):
        for _ in range(500):
            ts = float(rng.uniform(-5, 5))
            v = 0.0 if rng.random() < 0.2 else float(rng.uniform(0.0, 10.0))
            d = float(rng.uniform(0.0, 3.0))
            got = solve_minimax(ts, v, RobustConfig(d, q))
            want = _reference_solve(ts, v, d, q)
            assert abs(got - want) <= 1e-10, (ts, v, d, q, got, want)
