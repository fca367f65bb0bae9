"""Seeded inputs and the command plan of each workload.

A workload is a list of operations, one ``drpredict`` CLI invocation each,
that a run repeats in whole rounds. Every operation carries the check its
output must pass; the checks compare against ``oracle``, never against a
stored copy of an earlier output.

Each workload also runs, several times per run and on small inputs, the
commands it is not about ("companions"), so that every end-to-end metric has
a value on every workload (see README.md for which workload each metric is
about). A round also holds ``drpredict --help`` invocations ("setup"), which
are timed for ``setup_s`` and are not operations.
"""

import csv
import json
import math
import os
from dataclasses import dataclass
from pathlib import Path

import numpy as np

import oracle

# Design case 1 arms: every generated CSV draws from these.
MU1, SIGMA1, MU0, SIGMA0 = 2.0, 2.0, 0.2, 1.0
# estimate and infer settings; ALPHA and BETA are the CLI's infer defaults.
DELTA, Q = 0.5, 2.0
ALPHA, BETA = 0.05, 0.045
# Built-in simulation designs: sigma1, sigma0, radius, q, the paper's tau_dr.
# All share rho = 0.7, mu1 = sigma1 and mu0 = 0.2 sigma0.
CASES = {
    1: (2.0, 1.0, 0.1, 2.0, 1.686),
    3: (0.02, 0.01, 0.01, 2.0, 0.018),
    5: (2.0, 1.0, 0.1, 3.0, 1.682),
    6: (2.0, 1.0, 0.1, 1.5, 1.680),
}
RHO = 0.7
REPLICATIONS = 100   # the CLI's minimum per case
DENSE_RADII = 15001  # radii per population sweep in sweep-dense
DATA_RADII = 10001   # radii per data sweep in sweep-dense
SMALL_RADII = 2001   # radii of the companion population sweep
SAMPLED_ROWS = 20    # sweep rows per invocation checked against the minimiser

WORKLOADS = ("trial-1e6", "coverage-n1000", "sweep-dense")
# Rounds a run makes at least, whatever --seconds says. One trial-1e6 round
# holds a single 10-second estimate and infer; the machine's speed drifts by
# tens of percent over such spans, so the median needs two of each.
MIN_ROUNDS = {"trial-1e6": 2}


@dataclass
class Op:
    """One CLI invocation: ``python -m drpredict.cli *argv``."""

    kind: str            # setup | estimate | infer | calibrate | simulate | sweep
    argv: list
    out: Path            # output file, removed before each invocation
    check: object        # callable(stdout_text) -> list of problems
    work: int = 0        # replications or minimax problems when it succeeds
    expect_fail: bool = False


class Problems(list):
    def that(self, ok, what):
        if not ok:
            self.append(what)

    def close(self, what, got, want, rtol=0.0, atol=0.0):
        ok = isinstance(got, (int, float)) and math.isfinite(got) \
            and abs(got - want) <= atol + rtol * abs(want)
        self.that(ok, f"{what}: got {got!r}, expected {want!r}")


def _read_json(path, problems):
    try:
        with open(path, encoding="utf-8") as fh:
            return json.load(fh)
    except (OSError, ValueError) as exc:
        problems.append(f"no readable JSON output {path.name}: {exc}")
        return None


def _read_table(lines, problems, header):
    rows = list(csv.reader(lines))
    if not rows or rows[0] != header:
        problems.append(f"CSV header {rows[0] if rows else None}, expected {header}")
        return None
    return np.array(rows[1:], dtype=float).reshape(-1, len(header))


# ------------------------------------------------------------------- inputs


@dataclass
class Trial:
    """A generated CSV and the generator's own statistics of it."""

    path: Path
    n: int
    n1: int
    n0: int
    tau_star: float
    s1_sq: float
    s0_sq: float
    neyman: tuple   # (v_o, v_p)
    sharp: tuple    # (v_o, v_p)


def make_trial(path, n1, n0, rng):
    """Write a shuffled CSV with exactly n1 treated and n0 control rows.

    Values are written with repr, so the program parses the very floats
    the statistics below are computed from.
    """
    y1 = MU1 + SIGMA1 * rng.standard_normal(n1)
    y0 = MU0 + SIGMA0 * rng.standard_normal(n0)
    y = np.concatenate((y1, y0))
    t = np.concatenate((np.ones(n1, dtype=np.int8), np.zeros(n0, dtype=np.int8)))
    order = rng.permutation(n1 + n0)
    y, t = y[order], t[order]
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("y,t\n")
        fh.write("".join(f"{a!r},{b}\n" for a, b in zip(y.tolist(), t.tolist())))
        fh.flush()
        os.fsync(fh.fileno())  # no write-back of the input while invocations are timed
    y1, y0 = y[t == 1], y[t == 0]
    s1_sq, s0_sq = float(y1.var()), float(y0.var())
    s1, s0 = math.sqrt(s1_sq), math.sqrt(s0_sq)
    return Trial(
        path=path, n=n1 + n0, n1=n1, n0=n0,
        tau_star=float(y1.mean() - y0.mean()),
        s1_sq=s1_sq, s0_sq=s0_sq,
        neyman=((s1 - s0) ** 2, (s1 + s0) ** 2),
        sharp=oracle.coupling_bounds(y1, y0),
    )


# ------------------------------------------------------------------- checks


def _check_predictions(p, rep, tau_star, bounds):
    v_o, v_p = bounds
    for name, v in (("tau_p", v_p), ("tau_o", v_o)):
        p.that(oracle.matches_minimiser(rep[name], tau_star, v, DELTA, Q),
               f"{name} = {rep[name]!r} is not the argmin at v = {v!r}")


def _check_sds(p, rep, tr, population_sd):
    e = tr.n1 / tr.n
    p.close("sd_tau", rep["sd_tau"], math.sqrt(tr.s1_sq / e + tr.s0_sq / (1.0 - e)), rtol=1e-9)
    if population_sd:  # only meaningful where sampling noise is far below 3%
        sd_p, sd_o = oracle.gaussian_prediction_sds(SIGMA1, SIGMA0, e, MU1 - MU0, DELTA, Q)
        p.close("sd_p", rep["sd_p"], sd_p, rtol=0.03)
        p.close("sd_o", rep["sd_o"], sd_o, rtol=0.03)


def check_estimate(tr, path, population_sd):
    p = Problems()
    rep = _read_json(path, p)
    if rep is None:
        return p
    for key in ("n", "n1", "n0"):
        p.that(rep[key] == getattr(tr, key), f"{key} = {rep[key]}, expected {getattr(tr, key)}")
    p.close("tau_star", rep["tau_star"], tr.tau_star, rtol=1e-12, atol=1e-12)
    for method in ("neyman", "sharp"):
        for k, key in enumerate(("v_o", "v_p")):
            p.close(f"{method}.{key}", rep["bounds"][method][key], getattr(tr, method)[k],
                    rtol=1e-9, atol=1e-12)
    sharp = rep["bounds"]["sharp"]
    _check_predictions(p, rep, rep["tau_star"], (sharp["v_o"], sharp["v_p"]))
    _check_sds(p, rep, tr, population_sd)
    return p


def check_infer(tr, path, population_sd):
    p = Problems()
    rep = _read_json(path, p)
    if rep is None:
        return p
    p.that(rep["status"] == "ok", f"status {rep['status']!r}")
    p.that(rep["n"] == tr.n, f"n = {rep['n']}")
    p.close("tau_star", rep["tau_star"], tr.tau_star, rtol=1e-12, atol=1e-12)
    _check_predictions(p, rep, rep["tau_star"], tr.sharp)
    _check_sds(p, rep, tr, population_sd)
    if p:
        return p
    root_n = math.sqrt(rep["n"])
    half = oracle.z(1.0 - BETA / 2.0) * rep["sd_tau"] / root_n
    p.close("first_step.lower", rep["first_step"]["lower"], rep["tau_star"] - half, rtol=1e-12)
    p.close("first_step.upper", rep["first_step"]["upper"], rep["tau_star"] + half, rtol=1e-12)

    (lo, sd_lo), (hi, sd_hi) = sorted(((rep["tau_p"], rep["sd_p"]), (rep["tau_o"], rep["sd_o"])))
    im = rep["im"]
    c = im["c"]
    w = root_n * (hi - lo) / max(sd_lo, sd_hi)
    p.that(oracle.z(1.0 - ALPHA) - 1e-9 <= c <= oracle.z(1.0 - ALPHA / 2.0) + 1e-9,
           f"IM c = {c} outside [z(1-alpha), z(1-alpha/2)]")
    p.that(abs(oracle.im_residual(c, w, ALPHA)) <= 1e-8, f"IM c = {c} does not solve the IM equation")
    p.close("im.lower", im["lower"], lo - c * sd_lo / root_n, rtol=1e-12, atol=1e-12)
    p.close("im.upper", im["upper"], hi + c * sd_hi / root_n, rtol=1e-12, atol=1e-12)

    union = rep["im_bonferroni"]
    alpha2 = ALPHA - BETA
    c_lo, c_hi = oracle.z(1.0 - alpha2) - 1e-9, oracle.z(1.0 - alpha2 / 2.0) + 1e-9
    p.that(c_lo <= union["c_min"] <= union["c_max"] <= c_hi,
           f"union c range [{union['c_min']}, {union['c_max']}] outside [{c_lo}, {c_hi}]")
    p.that(union["lower"] <= lo and hi <= union["upper"],
           f"union [{union['lower']}, {union['upper']}] misses [{lo}, {hi}]")
    return p


def check_calibrate(path):
    p = Problems()
    rep = _read_json(path, p)
    if rep is None:
        return p
    for key in ("w2_y1", "w2_y0"):
        p.that(math.isfinite(rep[key]) and rep[key] > 0.0, f"{key} = {rep[key]!r}")
    p.close("joint_lower_bound", rep["joint_lower_bound"], math.hypot(rep["w2_y1"], rep["w2_y0"]),
            rtol=1e-12)
    p.that(rep["null_p95"] is not None and rep["null_p95"] > 0.0, f"null_p95 = {rep['null_p95']!r}")
    return p


def _coverage_floor(r):
    return 1.0 - ALPHA - 4.0 * math.sqrt(ALPHA * (1.0 - ALPHA) / r)


def check_simulate(path, cases):
    p = Problems()
    doc = _read_json(path, p)
    if doc is None:
        return p
    reports = doc["reports"]
    p.that(len(reports) == len(cases), f"{len(reports)} reports for {len(cases)} cases")
    for rep, case in zip(reports, cases):
        s1, s0, delta, q, paper = CASES[case]
        truth = rep["truth"]
        tag = f"case {case}"
        p.close(f"{tag} truth.v_o", truth["v_o"], (s1 - s0) ** 2, rtol=1e-12)
        p.close(f"{tag} truth.v_p", truth["v_p"], (s1 + s0) ** 2, rtol=1e-12)
        tau_star = s1 - 0.2 * s0
        v_joint = s1 * s1 + s0 * s0 - 2.0 * RHO * s1 * s0
        p.that(oracle.matches_minimiser(truth["tau_dr"], tau_star, v_joint, delta, q),
               f"{tag} tau_dr = {truth['tau_dr']!r} is not the argmin")
        p.close(f"{tag} tau_dr vs paper", truth["tau_dr"], paper, atol=2e-3)
        p.that(rep["replications"] == REPLICATIONS, f"{tag} replications {rep['replications']}")
        floor = _coverage_floor(rep["replications"])
        p.that(rep["coverage_im"] >= floor, f"{tag} IM coverage {rep['coverage_im']} < {floor:.4f}")
        rejected = rep["rejected_count"]
        p.that(rejected > 0, f"{tag} first step never rejected")
        if rejected:
            floor = _coverage_floor(rejected)
            p.that(rep["coverage_bonf"] >= floor,
                   f"{tag} union coverage {rep['coverage_bonf']} < {floor:.4f}")
    return p


def _check_sweep_column(p, tag, deltas, tau, tau_star, v, q, rng):
    """Properties every sweep column must have, for a known (tau*, v)."""
    a = abs(tau_star)
    scale = max(1.0, a)
    p.that(np.all((tau == 0.0) | (np.sign(tau) == np.sign(tau_star))), f"{tag}: sign differs from tau*")
    mag = np.abs(tau)
    p.that(np.all(mag <= a * (1.0 + 1e-9)), f"{tag}: |tau| exceeds |tau*|")
    p.that(np.all(np.diff(mag) <= 1e-9 * scale), f"{tag}: |tau| grows with delta")
    if q == 1.0:
        err = np.abs(mag - oracle.q1_closed_form(a, v, deltas))
        p.that(err.max() <= 1e-9 * scale, f"{tag}: q = 1 closed form missed by {err.max():.3g}")
        interior = np.zeros(deltas.shape, dtype=bool)
    elif v == 0.0:
        thr = oracle.homogeneous_threshold(a, q)
        flat = deltas <= thr * (1.0 - 1e-12)
        p.that(np.all(tau[flat] == float(f"{tau_star:.10g}")), f"{tag}: shrinks below the threshold {thr}")
        interior = deltas > thr * (1.0 + 1e-12)
    else:
        interior = deltas > 0.0
    if interior.any():
        ok = oracle.root_bracketed(mag[interior], a, v, deltas[interior], q)
        p.that(ok.all(), f"{tag}: FOC residual off at {int((~ok).sum())} rows")
    for i in rng.choice(deltas.shape[0], size=min(SAMPLED_ROWS, deltas.shape[0]), replace=False):
        p.that(oracle.matches_minimiser(tau[i], tau_star, v, deltas[i], q),
               f"{tag}: row {i} (delta {deltas[i]!r}) = {tau[i]!r} is not the argmin")


def _grid(stop, radii):
    """The radius grid ``0:stop:step`` the CLI builds, as start + i * step."""
    step = stop / (radii - 1)
    return f"0:{stop!r}:{step!r}", np.arange(radii) * step


def _sweep_table(path, header, deltas, p):
    """The sweep's CSV as an array, or None after recording why not."""
    try:
        with open(path, encoding="utf-8", newline="") as fh:
            table = _read_table(fh, p, header)
    except OSError as exc:
        p.append(f"no CSV output: {exc}")
        return None
    if table is None:
        return None
    if table.shape[0] != deltas.shape[0]:
        p.append(f"{table.shape[0]} rows, expected {deltas.shape[0]}")
        return None
    p.that(np.array_equal(table[:, 0], [float(f"{d:.10g}") for d in deltas]),
           "delta column differs from the grid")
    return table


def check_population_sweep(path, deltas, tau_star, v, q, seed):
    p = Problems()
    table = _sweep_table(path, ["delta", "tau_p", "tau_o", "tau_dr"], deltas, p)
    if table is None:
        return p
    tau = table[:, 1]
    p.that(np.array_equal(tau, table[:, 2]) and np.array_equal(tau, table[:, 3]),
           "population columns differ")
    _check_sweep_column(p, f"q={q:g} v={v:.4g}", deltas, tau, tau_star, v, q, np.random.default_rng(seed))
    return p


def check_data_sweep(path, deltas, tr, method, q, seed):
    p = Problems()
    table = _sweep_table(path, ["delta", "tau_p", "tau_o"], deltas, p)
    if table is None:
        return p
    v_o, v_p = getattr(tr, method)
    rng = np.random.default_rng(seed)
    tau_p, tau_o = table[:, 1], table[:, 2]
    scale = max(1.0, abs(tr.tau_star))
    p.that(np.all(np.abs(tau_p) <= np.abs(tau_o) + 1e-9 * scale), f"{method}: |tau_p| > |tau_o|")
    _check_sweep_column(p, f"{method} tau_p", deltas, tau_p, tr.tau_star, v_p, q, rng)
    _check_sweep_column(p, f"{method} tau_o", deltas, tau_o, tr.tau_star, v_o, q, rng)
    return p


def check_kept_sweep(stdout):
    """`sweep --deltas 0.5 --true-v 0 --tau-star 2 --q 1`: the q = 1 closed form gives 2."""
    p = Problems()
    table = _read_table(stdout.splitlines(), p, ["delta", "tau_p", "tau_o", "tau_dr"])
    if table is not None:
        p.that(table.tolist() == [[0.5, 2.0, 2.0, 2.0]], f"rows {table.tolist()}, expected [[0.5, 2, 2, 2]]")
    return p


# -------------------------------------------------------------- operations


def _estimate(work, tr, population_sd):
    out = work / f"estimate-{tr.n}.json"
    argv = ["estimate", "--data", str(tr.path), "--delta", repr(DELTA), "--q", repr(Q),
            "--bounds", "sharp", "--out", str(out)]
    return Op("estimate", argv, out, lambda _: check_estimate(tr, out, population_sd))


def _infer(work, tr, population_sd):
    out = work / f"infer-{tr.n}.json"
    argv = ["infer", "--data", str(tr.path), "--delta", repr(DELTA), "--out", str(out)]
    return Op("infer", argv, out, lambda _: check_infer(tr, out, population_sd))


def _calibrate(work, tr, permutations, seed):
    out = work / f"benchmark-{tr.n}.json"
    argv = ["benchmark", "--data", str(tr.path), "--split", "median_outcome",
            "--permutations", str(permutations), "--seed", str(seed), "--out", str(out)]
    return Op("calibrate", argv, out, lambda _: check_calibrate(out))


def _simulate(work, cases, seed):
    prefix = work / ("sim-" + "".join(map(str, cases)))
    argv = ["simulate", *[x for c in cases for x in ("--case", str(c))], "--n", "1000",
            "--replications", str(REPLICATIONS), "--bounds", "sharp", "--seed", str(seed),
            "--threads", "1", "--out", str(prefix)]
    out = prefix.with_suffix(".json")
    return Op("simulate", argv, out, lambda _: check_simulate(out, cases),
              work=len(cases) * REPLICATIONS)


def _population_sweep(work, tag, tau_star, v, q, stop, radii, seed):
    out = work / f"sweep-{tag}.csv"
    grid, deltas = _grid(stop, radii)
    argv = ["sweep", "--deltas", grid, "--true-v", repr(v), "--tau-star", repr(tau_star),
            "--q", repr(q), "--out", str(out)]
    return Op("sweep", argv, out, lambda _: check_population_sweep(out, deltas, tau_star, v, q, seed),
              work=radii)


def _data_sweep(work, tr, method, q, stop, radii, seed):
    out = work / f"sweep-data-{method}.csv"
    grid, deltas = _grid(stop, radii)
    argv = ["sweep", "--data", str(tr.path), "--bounds", method, "--deltas", grid,
            "--q", repr(q), "--out", str(out)]
    return Op("sweep", argv, out, lambda _: check_data_sweep(out, deltas, tr, method, q, seed),
              work=2 * radii)


def _truth_sweep(work, seed):
    """Companion population sweep at the generator's tau* and Var(Y1) + Var(Y0)."""
    return _population_sweep(work, "truth", MU1 - MU0, SIGMA1 ** 2 + SIGMA0 ** 2, Q, 2.0,
                             SMALL_RADII, seed)


def check_help(stdout):
    p = Problems()
    p.that(stdout.startswith("usage:"), "no usage text on stdout")
    return p


def _setup():
    """`drpredict --help`: start-up, import and parser. It is timed for setup_s
    and is not one of the workload's operations."""
    return Op("setup", ["--help"], None, check_help)


def _interleave(main, companions):
    """Spread the companions evenly between (and around) the main invocations,
    so that their samples fall at different times of the round."""
    chunks = np.array_split(np.arange(len(companions)), len(main) + 1)
    out = [companions[i] for i in chunks[0]]
    for op, chunk in zip(main, chunks[1:]):
        out += [op] + [companions[i] for i in chunk]
    return out


def _small_csv_ops(work, tr, seed):
    return [
        _estimate(work, tr, population_sd=False),
        _infer(work, tr, population_sd=False),
        _calibrate(work, tr, permutations=20, seed=seed),
    ]


def trial_1e6(work, seed, rng):
    tr = make_trial(work / "trial-1e6.csv", 300_000, 700_000, rng)
    # companions: a small coverage study, and a short radius sweep twice
    sweep = _truth_sweep(work, seed)
    return [_setup(), _estimate(work, tr, population_sd=True), _simulate(work, [1], seed), sweep,
            _infer(work, tr, population_sd=True), _calibrate(work, tr, permutations=5, seed=seed), sweep]


def coverage_n1000(work, seed, rng):
    tr = make_trial(work / "trial-1e3.csv", 300, 700, rng)
    # companions: the CSV commands on 10^3 rows and a short radius sweep, twice
    companions = _small_csv_ops(work, tr, seed) + [_truth_sweep(work, seed)]
    return [_setup()] + companions + [_simulate(work, sorted(CASES), seed)] + companions


def sweep_dense(work, seed, rng):
    ops = []
    for i, q in enumerate((1.0, 1.5, 2.0, 3.0, 10.0)):
        sign = 1.0 if i % 2 == 0 else -1.0
        tau_star, v = sign * rng.uniform(1.0, 3.0), rng.uniform(0.25, 4.0)
        ops.append(_population_sweep(work, f"q{q:g}-v", tau_star, v, q, 3.0, DENSE_RADII, seed + i))
        if q > 1.0:  # q = 1 with v = 0 is the kept invocation below
            tau_star = -sign * rng.uniform(1.0, 3.0)
            stop = 2.0 * oracle.homogeneous_threshold(abs(tau_star), q)
            ops.append(_population_sweep(work, f"q{q:g}-0", tau_star, 0.0, q, stop, DENSE_RADII, seed + i))
    # Fails today with a ZeroDivisionError in the q = 1 slope polish.
    ops.append(Op("sweep", ["sweep", "--deltas", "0.5", "--true-v", "0", "--tau-star", "2", "--q", "1"],
                  None, check_kept_sweep, work=1, expect_fail=True))
    tr = make_trial(work / "trial-1e4.csv", 3_000, 7_000, rng)
    ops += [
        _data_sweep(work, tr, "sharp", 2.0, 3.0, DATA_RADII, seed),
        _data_sweep(work, tr, "neyman", 1.5, 3.0, DATA_RADII, seed),
    ]
    # companions: the CSV commands on 10^4 rows and a small coverage study,
    # three times each
    companions = 3 * (_small_csv_ops(work, tr, seed) + [_simulate(work, [1], seed)])
    companions = [_setup()] + companions + [_setup()]
    return _interleave(ops, companions)


PLANS = {"trial-1e6": trial_1e6, "coverage-n1000": coverage_n1000, "sweep-dense": sweep_dense}


def build(name, work, seed):
    """Generate the workload's inputs under ``work`` and return its operations."""
    rng = np.random.default_rng([seed, WORKLOADS.index(name)])
    return PLANS[name](Path(work), seed, rng)
