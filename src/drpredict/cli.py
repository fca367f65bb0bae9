"""Command-line front end.

Five subcommands: ``estimate`` (point estimates and SDs from a CSV),
``sweep`` (predictions along a radius grid), ``infer`` (IM and two-step
confidence intervals), ``simulate`` (the coverage study), and ``benchmark``
(data-driven radius calibration). Human-readable reports go to stdout;
``--json`` switches stdout to a JSON document, and ``--out`` writes the same
document, byte for byte, to a file. Every JSON document embeds the run
manifest; CSV outputs get a ``<name>.manifest.json`` sidecar.
Reruns with an equal manifest and input digest produce identical outputs.

Exit codes: 0 success, 2 input error, 3 numerical error, 4 the two-step
procedure stopped at its first step (``status: no-second-step``).
"""

import argparse
import math
import os
import sys
import warnings
from dataclasses import asdict
from json.encoder import encode_basestring_ascii

import numpy as np

from . import __version__
from .bounds import BoundsMethod, variance_bounds
from .calibration import SplitRule, split_benchmark
from .covariance import check_status
from .exceptions import NumericalError, ValidationError
from .inference import (
    check_two_step_args,
    estimate_robust_many,
    plain_im_intervals,
    two_step_intervals,
)
from .sample import load_mask, load_sample
from .simulation import (
    GaussianDGP,
    case_preset,
    run_coverage_study,
    write_reports_csv,
)
from .solver import RobustConfig, sweep_delta

EXIT_OK = 0
EXIT_INPUT = 2
EXIT_NUMERICAL = 3
EXIT_NO_SECOND_STEP = 4


# ----------------------------------------------------------------- manifest


def _manifest(command: str, config: dict, data=None) -> dict:
    """What produced an output: command, resolved flags, version, and the
    SHA-256 of the input file ``data``, if any. Two runs with equal
    manifests produce identical output bytes."""
    sha = None
    if data is not None:
        import hashlib  # loaded only to hash a file: it loads OpenSSL

        sha = hashlib.sha256()
        with open(data, "rb") as fh:
            for chunk in iter(lambda: fh.read(65536), b""):
                sha.update(chunk)
    return {"command": command, "config": config, "version": __version__,
            "input_sha256": None if sha is None else sha.hexdigest()}


def _dump_json(obj, indent: str = "\n") -> str:
    """The text of ``json.dumps(obj, indent=2, allow_nan=False)``, with each
    non-finite float written as null and a numpy array written as its list.

    A list of floats, such as a sweep's radii, is written in one join of
    ``float.__repr__``, which is how json writes each float.
    """
    if isinstance(obj, str):
        return encode_basestring_ascii(obj)
    if obj is None:
        return "null"
    if obj is True:
        return "true"
    if obj is False:
        return "false"
    if isinstance(obj, int):
        return int.__repr__(obj)
    if isinstance(obj, float):
        return float.__repr__(obj) if math.isfinite(obj) else "null"
    if isinstance(obj, np.ndarray):
        obj = obj.tolist()
    inner = indent + "  "
    if isinstance(obj, (list, tuple)):
        if not obj:
            return "[]"
        # a sum of floats is finite only if every term is
        if set(map(type, obj)) == {float} and math.isfinite(sum(obj)):
            items = map(float.__repr__, obj)
        else:
            items = (_dump_json(x, inner) for x in obj)
        return "[" + inner + ("," + inner).join(items) + indent + "]"
    if isinstance(obj, dict):
        if not obj:
            return "{}"
        items = (f"{encode_basestring_ascii(k)}: {_dump_json(v, inner)}" for k, v in obj.items())
        return "{" + inner + ("," + inner).join(items) + indent + "}"
    raise TypeError(f"Object of type {type(obj).__name__} is not JSON serializable")


def _write_json(path, report: dict) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        print(_dump_json(report), file=fh)


def _emit(args, report: dict, text_lines) -> None:
    """Write the JSON report to ``--out``, then print it (``--json``) or the text."""
    if args.out:
        _write_json(args.out, report)
    print(_dump_json(report) if args.json else "\n".join(text_lines))


def _fmt(x) -> str:
    if x is None or (isinstance(x, float) and not math.isfinite(x)):
        return "n/a"
    return f"{x:.6g}"


# -------------------------------------------------------------------- flags


# the defaults of the flags about a data file; sweep's parser leaves them
# None, so that its population mode, which reads no file, can refuse them
_DATA_DEFAULTS = {"bounds": BoundsMethod.SHARP.value, "outcome": "y", "treatment": "t"}


def _add_data_flags(sub, required=True):
    sub.add_argument("--data", required=required, metavar="CSV",
                     help="experiment file, one row per unit")
    sub.add_argument("--outcome", default=_DATA_DEFAULTS["outcome"], metavar="COL",
                     help="outcome column (default: y)")
    sub.add_argument("--treatment", default=_DATA_DEFAULTS["treatment"], metavar="COL",
                     help="treatment column, coded 0/1 (default: t)")


def _add_order_flags(sub):
    group = sub.add_mutually_exclusive_group()
    group.add_argument("--p", type=float, dest="p_order", metavar="P",
                       help="transport cost norm order, p > 1; stored as q = p/(p-1)")
    group.add_argument("--q", type=float, dest="q_order", metavar="Q",
                       help="dual order q >= 1 directly (default: 2)")


def _add_report_flags(sub):
    sub.add_argument("--json", action="store_true", help="JSON report on stdout")
    sub.add_argument("--out", metavar="FILE", help="also write the JSON report here")


def _add_bounds_flag(sub):
    sub.add_argument("--bounds", choices=[m.value for m in BoundsMethod],
                     default=_DATA_DEFAULTS["bounds"],
                     help="variance-bound method (default: sharp)")


def _q_from_args(args) -> float:
    """The dual order q: from ``--p`` as p/(p-1), else ``--q`` (default 2)."""
    if args.p_order is not None:
        return RobustConfig.from_p(0.0, args.p_order).q
    return 2.0 if args.q_order is None else args.q_order


def _config_from_args(args) -> RobustConfig:
    return RobustConfig(delta=args.delta, q=_q_from_args(args))


# Caps on the counts the CLI accepts, each a stated multiple of the largest
# value that a test, the benchmark or the paper's design uses. A count past
# its cap is an input error (exit 2), raised before anything is allocated.
_MAX_RADII = 10**6  # 66 times the densest grid in use (15,001 radii)
_MAX_N = 10 * 10**6  # 10 times the largest sample drawn (10^6 rows)
_MAX_REPLICATIONS = 100 * 1000  # 100 times the largest study (1,000, the default)
_MAX_PERMUTATIONS = 100 * 200  # 100 times the largest null (200, the default)


def _check_count(flag: str, value: int, cap: int) -> None:
    if value > cap:
        raise ValidationError(f"{flag} must be at most {cap}, got {value}")


def _parse_delta_grid(text: str) -> np.ndarray:
    """Radius grids: ``start:stop:step`` (inclusive), a comma list, or one value."""
    text = text.strip()
    if not text:
        raise ValidationError("--deltas must be nonempty")
    try:
        if ":" in text:
            parts = text.split(":")
            if len(parts) != 3:
                raise ValidationError(
                    f"--deltas range must be start:stop:step, got {text!r}"
                )
            start, stop, step = (float(p) for p in parts)
            if not all(map(math.isfinite, (start, stop, step))):
                raise ValidationError(f"--deltas range must be finite, got {text!r}")
            if step <= 0.0:
                raise ValidationError(f"--deltas step must be positive, got {step}")
            steps = (stop - start) / step + 1e-9  # the grid has floor(steps) + 1 radii
            if steps < 0.0:
                raise ValidationError(f"--deltas range {text!r} is empty")
            if steps >= _MAX_RADII:
                raise ValidationError(f"--deltas range {text!r} has over {_MAX_RADII} radii")
            # the radius i is start + i * step, each product and sum rounded once
            return start + np.arange(int(steps) + 1) * step
        values = [float(p) for p in text.split(",") if p.strip()]
    except ValueError:
        raise ValidationError(f"--deltas contains a non-numeric entry: {text!r}") from None
    if not values:
        raise ValidationError("--deltas must be nonempty")
    return np.array(values)


# ----------------------------------------------------------------- estimate


def cmd_estimate(args) -> int:
    config = _config_from_args(args)
    sample = load_sample(args.data, args.outcome, args.treatment)
    method = BoundsMethod(args.bounds)
    est = estimate_robust_many([sample], config, method)
    check_status(est.status)
    # the report shows both brackets; compute only the one not selected
    (sharp_v_p, sharp_v_o), (neyman_v_p, neyman_v_o) = (
        (est.v if m is method else variance_bounds(sample.arms, m))[0].tolist()
        for m in (BoundsMethod.SHARP, BoundsMethod.NEYMAN))
    tau_star, sd_tau = est.tau_star.item(), est.sd_tau.item()
    (tau_p, tau_o), (sd_p, sd_o) = est.tau[0].tolist(), est.sd[0].tolist()

    report = {
        "manifest": _manifest("estimate", {
            "delta": config.delta,
            "q": config.q,
            "bounds": method.value,
            "outcome_column": args.outcome,
            "treatment_column": args.treatment,
        }, args.data),
        "n": sample.n,
        "n1": sample.n1,
        "n0": sample.n0,
        "tau_star": tau_star,
        "bounds": {
            "sharp": {"v_o": sharp_v_o, "v_p": sharp_v_p},
            "neyman": {"v_o": neyman_v_o, "v_p": neyman_v_p},
        },
        "tau_p": tau_p,
        "tau_o": tau_o,
        "sd_tau": sd_tau,
        "sd_p": sd_p,
        "sd_o": sd_o,
    }
    _emit(args, report, [
        f"n = {sample.n} (treated {sample.n1}, control {sample.n0})",
        f"tau_star = {_fmt(tau_star)}   sd = {_fmt(sd_tau)}",
        "variance bounds:",
        f"  sharp  : v_o = {_fmt(sharp_v_o)}, v_p = {_fmt(sharp_v_p)}",
        f"  neyman : v_o = {_fmt(neyman_v_o)}, v_p = {_fmt(neyman_v_p)}",
        f"predictions ({method.value} bounds, delta = {_fmt(config.delta)}, "
        f"q = {_fmt(config.q)}):",
        f"  tau_p = {_fmt(tau_p)}   sd = {_fmt(sd_p)}",
        f"  tau_o = {_fmt(tau_o)}   sd = {_fmt(sd_o)}",
    ])
    return EXIT_OK


# -------------------------------------------------------------------- sweep


_SWEEP_BLOCK = 4096  # sweep rows formatted and written at a time


def _write_columns(fh, header, columns) -> None:
    """Write float array ``columns`` under ``header`` as the CSV that
    csv.writer writes: comma-separated fields, "\r\n" line ends, values as
    ``.10g`` (no field needs quoting). Block by block, each distinct column
    object is formatted once, in one %-format call, however many times
    ``columns`` lists it."""
    fh.write(",".join(header) + "\r\n")
    distinct = {id(col): col for col in columns}
    size = len(columns[0])
    for start in range(0, size, _SWEEP_BLOCK):
        stop = min(start + _SWEEP_BLOCK, size)
        fmt = "\n".join(["%.10g"] * (stop - start))
        text = {key: (fmt % tuple(col[start:stop].tolist())).split("\n")
                for key, col in distinct.items()}
        rows = zip(*(text[id(col)] for col in columns))
        fh.write("\r\n".join(map(",".join, rows)) + "\r\n")


def cmd_sweep(args) -> int:
    deltas = _parse_delta_grid(args.deltas)
    q = _q_from_args(args)

    population = args.data is None
    if args.true_v is not None and not (math.isfinite(args.true_v) and args.true_v >= 0.0):
        raise ValidationError(f"--true-v must be finite and nonnegative, got {args.true_v}")
    # a known effect variance is a bracket of zero width: its tau_p is tau_dr
    known = [] if args.true_v is None else [args.true_v]
    if population:
        given = [name for name in _DATA_DEFAULTS if getattr(args, name) is not None]
        if given:
            raise ValidationError(f"--{given[0]} needs --data; population mode reads no data file")
        if not known or args.tau_star is None:
            raise ValidationError("population mode (no --data) requires both --true-v and --tau-star")
        if not math.isfinite(args.tau_star):
            raise ValidationError(f"--tau-star must be finite, got {args.tau_star}")
        header = ["delta", "tau_p", "tau_o", "tau_dr"]
        tau_star, variances = args.tau_star, known * 3
    else:
        if args.tau_star is not None:
            raise ValidationError(
                "--tau-star is population mode only; with --data the effect is estimated"
            )
        vars(args).update((k, v) for k, v in _DATA_DEFAULTS.items() if getattr(args, k) is None)
        sample = load_sample(args.data, args.outcome, args.treatment)
        tau_star = float(sample.arms.ate[0])
        header = ["delta", "tau_p", "tau_o"] + ["tau_dr"] * len(known)
        variances = [*variance_bounds(sample.arms, args.bounds)[0].tolist(), *known]
    columns = [deltas, *sweep_delta(tau_star, variances, q, deltas)]

    if not args.out:
        _write_columns(sys.stdout, header, columns)
        return EXIT_OK
    with open(args.out, "w", newline="") as fh:
        _write_columns(fh, header, columns)
    _write_json(args.out + ".manifest.json", _manifest("sweep", {
        "deltas": deltas,
        "q": q,
        "bounds": args.bounds,
        "tau_star": args.tau_star,
        "true_v": args.true_v,
        "outcome_column": args.outcome,
        "treatment_column": args.treatment,
    }, args.data))
    return EXIT_OK


# -------------------------------------------------------------------- infer


def cmd_infer(args) -> int:
    config = _config_from_args(args)
    check_two_step_args(config, args.alpha, args.beta)
    sample = load_sample(args.data, args.outcome, args.treatment)
    method = BoundsMethod(args.bounds)
    est = estimate_robust_many([sample], config, method)
    check_status(est.status)
    im_lo, im_hi, c = (x.item() for x in plain_im_intervals(est, args.alpha))
    union = two_step_intervals(est, args.alpha, args.beta)
    check_status(union.status)
    ok = bool(union.rejected[0])
    first_lo, first_hi, lower, upper, c_min, c_max = (
        x.item() for x in (union.first_lo, union.first_hi, union.lower, union.upper, union.c_min, union.c_max))
    tau_star, sd_tau = est.tau_star.item(), est.sd_tau.item()
    (tau_p, tau_o), (sd_p, sd_o) = est.tau[0].tolist(), est.sd[0].tolist()

    report = {
        "manifest": _manifest("infer", {
            "delta": config.delta,
            "q": config.q,
            "alpha": args.alpha,
            "beta": args.beta,
            "bounds": method.value,
            "outcome_column": args.outcome,
            "treatment_column": args.treatment,
        }, args.data),
        "status": "ok" if ok else "no-second-step",
        "n": sample.n,
        "tau_star": tau_star,
        "tau_p": tau_p,
        "tau_o": tau_o,
        "sd_tau": sd_tau,
        "sd_p": sd_p,
        "sd_o": sd_o,
        "first_step": {
            "lower": first_lo,
            "upper": first_hi,
            "level": 1.0 - args.beta,
        },
        "im": {
            "lower": im_lo,
            "upper": im_hi,
            "alpha": args.alpha,
            "c": c,
        },
        "im_bonferroni": {
            "lower": lower,
            "upper": upper,
            "alpha": args.alpha,
            "beta": args.beta,
            "c_min": c_min,
            "c_max": c_max,
        } if ok else None,
    }
    _emit(args, report, [
        f"tau_star = {_fmt(tau_star)}, tau_p = {_fmt(tau_p)}, "
        f"tau_o = {_fmt(tau_o)}",
        f"first step ({_fmt(100 * (1 - args.beta))}%): "
        f"[{_fmt(first_lo)}, {_fmt(first_hi)}]",
        f"IM {100 * (1 - args.alpha):g}%: [{_fmt(im_lo)}, {_fmt(im_hi)}]"
        f"   c = {_fmt(c)}",
        (f"IM-Bonferroni {100 * (1 - args.alpha):g}%: "
         f"[{_fmt(lower)}, {_fmt(upper)}]"
         f"   c in [{_fmt(c_min)}, {_fmt(c_max)}]" if ok
         else "status: no-second-step (first-step interval contains zero)"),
    ])
    return EXIT_OK if ok else EXIT_NO_SECOND_STEP


# ----------------------------------------------------------------- simulate


_DGP_FLAGS = ("mu1", "mu0", "sigma1", "sigma0", "delta")


def cmd_simulate(args) -> int:
    _check_count("--n", args.n, _MAX_N)
    _check_count("--replications", args.replications, _MAX_REPLICATIONS)
    custom_given = any(getattr(args, name) is not None for name in (*_DGP_FLAGS, "rho", "e")) \
        or args.p_order is not None or args.q_order is not None
    if args.case and custom_given:
        raise ValidationError(
            "--case presets fix the design; drop the DGP flags "
            "(--mu1/--mu0/--sigma1/--sigma0/--rho/--e/--delta/--p/--q)"
        )
    if args.case:
        runs = [(f"case{c}", *case_preset(c, args.n)) for c in args.case]
        dgp_config = {"cases": list(args.case)}
    else:
        missing = [name for name in _DGP_FLAGS if getattr(args, name) is None]
        if missing:
            raise ValidationError(
                "custom designs need --" + ", --".join(missing)
                + " (or use --case 1..6)"
            )
        rho = 0.7 if args.rho is None else args.rho
        e = 0.3 if args.e is None else args.e
        dgp = GaussianDGP(
            mu1=args.mu1, mu0=args.mu0,
            sigma1=args.sigma1, sigma0=args.sigma0,
            rho=rho, e=e, n=args.n,
        )
        config = _config_from_args(args)
        runs = [("custom", dgp, config)]
        dgp_config = {
            "mu1": args.mu1, "mu0": args.mu0,
            "sigma1": args.sigma1, "sigma0": args.sigma0,
            "rho": rho, "e": e,
            "delta": config.delta, "q": config.q,
        }

    reports = [
        run_coverage_study(
            dgp, cfg, args.replications,
            alpha=args.alpha, beta=args.beta, bound_method=args.bounds,
            seed=args.seed, case=name, workers=args.workers,
        )
        for name, dgp, cfg in runs
    ]

    manifest = _manifest("simulate", {
        **dgp_config,
        "n": args.n,
        "replications": args.replications,
        "alpha": args.alpha,
        "beta": args.beta,
        "bounds": args.bounds,
        "seed": args.seed,
    })
    _write_json(args.out + ".json",
                {"manifest": manifest, "reports": [asdict(r) for r in reports]})
    write_reports_csv(reports, args.out + ".csv")
    _write_json(args.out + ".manifest.json", manifest)

    print("case      tau_dr   cov_im   cov_bonf   ratio   rejected")
    for r in reports:
        print(f"{r.case:<8} {r.truth.tau_dr:>8.4f} {r.coverage_im:>8.4f} "
              f"{r.coverage_bonf:>10.4f} {r.length_ratio_mean:>7.3f} "
              f"{r.rejected_count:>6d}/{r.replications}")
    print(f"wrote {args.out}.json, {args.out}.csv, {args.out}.manifest.json")
    return EXIT_OK


# ---------------------------------------------------------------- benchmark


def cmd_benchmark(args) -> int:
    _check_count("--permutations", args.permutations, _MAX_PERMUTATIONS)
    split = SplitRule(args.split)
    # the two flags go together, checked before the data file is read
    if split is SplitRule.PROVIDED_MASK and args.mask_col is None:
        raise ValidationError("--split provided_mask requires --mask-col")
    if split is not SplitRule.PROVIDED_MASK and args.mask_col is not None:
        raise ValidationError(f"--mask-col needs --split provided_mask, got --split {split.value}")
    sample = load_sample(args.data, args.outcome, args.treatment)
    mask = None if args.mask_col is None else load_mask(args.data, args.mask_col)
    bench = split_benchmark(
        sample, split, mask=mask, permutations=args.permutations, seed=args.seed
    )

    manifest = _manifest("benchmark", {
        "split": split.value,
        "mask_column": args.mask_col,
        "permutations": args.permutations,
        "seed": args.seed,
        "outcome_column": args.outcome,
        "treatment_column": args.treatment,
    }, args.data)
    lines = [
        f"split: {bench.split_description}",
        f"W2(treated cells) = {_fmt(bench.w2_y1)}",
        f"W2(control cells) = {_fmt(bench.w2_y0)}",
        f"joint lower bound = {_fmt(bench.joint_lower_bound)}",
    ]
    if bench.null_p95 is not None:
        lines.append(f"permutation null 95th percentile = {_fmt(bench.null_p95)}")
    _emit(args, {"manifest": manifest, **asdict(bench)}, lines)
    return EXIT_OK


# --------------------------------------------------------------------- main


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="drpredict",
        description="Robust treatment-effect prediction for new populations.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    est = sub.add_parser("estimate", help="point estimates and SDs from a CSV")
    _add_data_flags(est)
    est.add_argument("--delta", type=float, required=True, help="transport radius, >= 0")
    _add_order_flags(est)
    _add_bounds_flag(est)
    _add_report_flags(est)
    est.set_defaults(func=cmd_estimate)

    swp = sub.add_parser("sweep", help="tau_p/tau_o along a radius grid (CSV)")
    _add_data_flags(swp, required=False)
    swp.add_argument("--deltas", "--delta", dest="deltas", required=True,
                     metavar="GRID", help="radius grid: start:stop:step, a comma "
                     "list, or one value")
    _add_order_flags(swp)
    _add_bounds_flag(swp)
    swp.add_argument("--true-v", type=float, dest="true_v", metavar="V",
                     help="known effect variance; adds a tau_dr column")
    swp.add_argument("--tau-star", type=float, dest="tau_star", metavar="TAU",
                     help="known unrestricted effect (population mode, no --data)")
    swp.add_argument("--out", metavar="FILE", help="write the CSV here "
                     "(plus FILE.manifest.json)")
    swp.set_defaults(func=cmd_sweep, **dict.fromkeys(_DATA_DEFAULTS))

    inf = sub.add_parser("infer", help="IM and two-step confidence intervals")
    _add_data_flags(inf)
    inf.add_argument("--delta", type=float, required=True, help="transport radius, >= 0")
    _add_order_flags(inf)
    _add_bounds_flag(inf)
    inf.add_argument("--alpha", type=float, default=0.05,
                     help="overall level, at most 0.5 (default: 0.05)")
    inf.add_argument("--beta", type=float, default=0.045,
                     help="first-step share of the level (default: 0.045)")
    _add_report_flags(inf)
    inf.set_defaults(func=cmd_infer)

    sim = sub.add_parser("simulate", help="Monte Carlo coverage study")
    sim.add_argument("--case", type=int, action="append", choices=range(1, 7),
                     metavar="1..6", help="built-in design; repeat for several")
    sim.add_argument("--mu1", type=float, help="custom design: treated mean")
    sim.add_argument("--mu0", type=float, help="custom design: control mean")
    sim.add_argument("--sigma1", type=float, help="custom design: treated SD")
    sim.add_argument("--sigma0", type=float, help="custom design: control SD")
    sim.add_argument("--rho", type=float,
                     help="custom design: potential-outcome correlation (default: 0.7)")
    sim.add_argument("--e", type=float,
                     help="custom design: treatment probability (default: 0.3)")
    sim.add_argument("--delta", type=float, default=None, help="custom design: radius")
    _add_order_flags(sim)
    _add_bounds_flag(sim)
    sim.add_argument("--n", type=int, default=1000,
                     help=f"sample size per replication, at most {_MAX_N} (default: 1000)")
    sim.add_argument("--replications", type=int, default=1000,
                     help=f"100 to {_MAX_REPLICATIONS} (default: 1000)")
    sim.add_argument("--alpha", type=float, default=0.05)
    sim.add_argument("--beta", type=float, default=0.045)
    sim.add_argument("--seed", type=int, default=0)
    sim.add_argument("--workers", "--threads", type=int, default=1, dest="workers",
                     help="worker processes for replications, at most the CPU "
                     "count (default: 1)")
    sim.add_argument("--out", default="drpredict_sim", metavar="PREFIX",
                     help="output prefix (default: drpredict_sim)")
    sim.set_defaults(func=cmd_simulate)

    ben = sub.add_parser("benchmark", help="within-sample transport distances "
                         "to calibrate the radius")
    _add_data_flags(ben)
    ben.add_argument("--split", choices=[s.value for s in SplitRule],
                     default=SplitRule.MEDIAN_OUTCOME.value,
                     help="how to cut the sample in two (default: median_outcome)")
    ben.add_argument("--mask-col", dest="mask_col", metavar="COL",
                     help="0/1 column defining the split (with --split provided_mask)")
    ben.add_argument("--permutations", type=int, default=200,
                     help=f"label permutations for the null scale, at most "
                     f"{_MAX_PERMUTATIONS}; 0 disables (default: 200)")
    ben.add_argument("--seed", type=int, default=0)
    _add_report_flags(ben)
    ben.set_defaults(func=cmd_benchmark)

    return parser


def _show_warning(message, category, filename, lineno, file=None, line=None):
    # one line, free of source paths, so stderr does not depend on the install
    print(f"warning: {message}", file=sys.stderr)


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    with warnings.catch_warnings():
        warnings.showwarning = _show_warning
        try:
            code = args.func(args)
            sys.stdout.flush()  # a closed pipe shows here, not at interpreter exit
            return code
        except BrokenPipeError:
            # the reader of stdout has gone (say, `| head`): end quietly, and
            # send what is still buffered to devnull, so the flush at exit cannot fail
            os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
            return EXIT_OK
        except (ValidationError, OSError, UnicodeDecodeError) as exc:
            print(f"error: {exc}", file=sys.stderr)
            return EXIT_INPUT
        except NumericalError as exc:
            print(f"numerical error: {exc}", file=sys.stderr)
            return EXIT_NUMERICAL


if __name__ == "__main__":
    sys.exit(main())
