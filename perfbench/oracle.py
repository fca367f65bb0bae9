"""Computations made apart from drpredict, used to check its outputs.

Nothing here imports drpredict. Each value is derived from the generator's
own arrays or from the definition of the method:

    M(tau) = sqrt(v + (tau* - tau)^2) + delta * (2 + |tau|^q)^(1/q)

is minimised by a bounded Brent search, the variance bounds come from the
explicit comonotone and antitone couplings, and the Gaussian delta-method
SDs are derived from the first-order condition by hand.
"""

import math

import numpy as np
from scipy.optimize import minimize_scalar
from scipy.stats import norm


def objective(t, tau_star, v, delta, q):
    return math.sqrt(v + (tau_star - t) ** 2) + delta * (2.0 + abs(t) ** q) ** (1.0 / q)


def minimiser(tau_star, v, delta, q):
    """Argmin of M over [0, |tau*|] (signed like tau*), by bounded Brent."""
    a = abs(tau_star)
    if a == 0.0 or delta == 0.0:
        return tau_star

    def f(t):
        return objective(t, a, v, delta, q)

    res = minimize_scalar(f, bounds=(0.0, a), method="bounded",
                          options={"xatol": 1e-14 * max(1.0, a)})
    best = min((res.x, a, 0.0), key=f)  # Brent never evaluates the end points
    return math.copysign(best, tau_star)


def matches_minimiser(got, tau_star, v, delta, q, rel=1e-6):
    """True when ``got`` equals the independent argmin or is at least as good.

    Brent locates a flat minimum only to about sqrt(machine eps), so a
    reported point that beats it on the objective also counts as a match.
    """
    want = minimiser(tau_star, v, delta, q)
    a = abs(tau_star)
    if abs(got - want) <= rel * max(1.0, a):
        return True
    f_got = objective(abs(got), a, v, delta, q)
    f_want = objective(abs(want), a, v, delta, q)
    return math.copysign(1.0, got) == math.copysign(1.0, tau_star) and f_got <= f_want + 1e-13 * (1.0 + f_want)


def foc(t, a, v, delta, q):
    """M'(t) for t > 0 and a = |tau*| > 0; nondecreasing in t.

    At v = 0 the first term is the sign of t - a (0 on the kink itself).
    """
    t = np.asarray(t, dtype=float)
    gap = t - a
    with np.errstate(invalid="ignore", divide="ignore"):
        prox = np.sign(gap) if v == 0.0 else gap / np.sqrt(v + gap * gap)
    return prox + delta * t ** (q - 1.0) * (2.0 + t ** q) ** (1.0 / q - 1.0)


def root_bracketed(t, a, v, delta, q, rel=1e-9, abs_=1e-11):
    """Boolean mask: the FOC changes sign within the precision of ``t``.

    ``t`` holds |tau| values printed with 10 significant digits, so the true
    root lies within 5e-10 |t| of each, plus the solver's own tolerance.
    """
    t = np.abs(np.asarray(t, dtype=float))
    eps = rel * t + abs_
    return (foc(t - eps, a, v, delta, q) <= 0.0) & (foc(t + eps, a, v, delta, q) >= 0.0)


def q1_closed_form(a, v, delta):
    """|tau| for q = 1: max(0, a - delta sqrt(v / (1 - delta^2))), 0 for delta >= 1."""
    delta = np.asarray(delta, dtype=float)
    inside = delta < 1.0
    d = np.where(inside, delta, 0.0)
    shrunk = np.maximum(0.0, a - d * np.sqrt(v / (1.0 - d * d)))
    return np.where(inside, shrunk, 0.0)


def homogeneous_threshold(a, q):
    """Largest radius at which v = 0 leaves tau* unshrunk (q > 1)."""
    return (2.0 / a ** q + 1.0) ** (1.0 - 1.0 / q)


def coupling_bounds(y1, y0):
    """(v_o, v_p): Var(Y1 - Y0) under the comonotone and antitone couplings.

    Each sorted arm is repeated lcm/n_arm times, so pairing the two
    repeated vectors position by position realises the couplings exactly.
    """
    n1, n0 = y1.shape[0], y0.shape[0]
    m = math.lcm(n1, n0)
    r1 = np.repeat(np.sort(y1), m // n1)
    r0 = np.repeat(np.sort(y0), m // n0)
    return float((r1 - r0).var()), float((r1 - r0[::-1]).var())


def _penalty_curvature(t, q):
    """d^2/dt^2 (2 + t^q)^(1/q) for t > 0."""
    return 2.0 * (q - 1.0) * t ** (q - 2.0) * (2.0 + t ** q) ** (1.0 / q - 2.0)


def gaussian_prediction_sds(sigma1, sigma0, e, tau_star, delta, q):
    """Delta-method SDs of sqrt(n)(tau_hat_b - tau_b), b in (p, o), for Gaussian arms.

    With Gaussian arms mu3 = 0 and mu4 = 3 sigma^4, so Var(s_arm^2) is
    2 sigma^4 / share and the bound estimates are uncorrelated with
    tau_hat. Bounds are (sigma1 -+ sigma0)^2; each prediction solves
    F(tau; V, tau*) = 0 with F = M', so dtau = -(F_V dV + F_tau* dtau*) / F_tau.
    """
    w1 = 2.0 * sigma1 ** 4 / e
    w0 = 2.0 * sigma0 ** 4 / (1.0 - e)
    var_tau = sigma1 ** 2 / e + sigma0 ** 2 / (1.0 - e)
    out = []
    for sign in (1.0, -1.0):  # pessimistic (V_p), then optimistic (V_o)
        v_b = (sigma1 + sign * sigma0) ** 2
        var_v = (1.0 + sign * sigma0 / sigma1) ** 2 * w1 + (1.0 + sign * sigma1 / sigma0) ** 2 * w0
        tau_b = abs(minimiser(tau_star, v_b, delta, q))
        gap = abs(tau_star) - tau_b
        a = math.sqrt(v_b + gap * gap)
        f_v = gap / (2.0 * a ** 3)
        f_tau = gap * gap / a ** 3 - 1.0 / a
        curvature = v_b / a ** 3 + delta * _penalty_curvature(tau_b, q)
        out.append(math.sqrt(f_v * f_v * var_v + f_tau * f_tau * var_tau) / curvature)
    return out[0], out[1]


def im_residual(c, w, alpha):
    """Phi(c + w) - Phi(-c) - (1 - alpha): zero at the IM critical value."""
    return float(norm.cdf(c + w) - norm.cdf(-c) - (1.0 - alpha))


def z(p):
    return float(norm.ppf(p))
