"""Check the sharp Sigma's SDs against Monte Carlo, for two checkouts.

    python tools/sigma_mc.py ROOT_A ROOT_B [--replications 2000] [--out FILE]

For each row of ROWS, draws ``--replications`` seeded samples and, with the
package of ROOT_A/src and then of ROOT_B/src (each in a child process),
computes every sample's sharp bounds (V_hat_p, V_hat_o) and its plug-in
Sigma (``covariance.sigma_sharp_batch``). A row reports, per checkout and
per bound, the mean plug-in SD sqrt(S_ii) against the Monte Carlo SD of
sqrt(n) V_hat across the replications, and their relative error. The Monte
Carlo SE of an SD is about 1 / sqrt(2 (replications - 1)) of it.

Both checkouts see the same samples, so their Monte Carlo SDs agree unless
the bounds themselves changed. The summary gives, per checkout, the mean
|relative error| and the lowest relative error over the continuous rows'
cells, and the tied row's cells. The table is printed, and written as JSON
to ``--out`` when given. The package is only ever run in child processes,
never imported here.
"""

import argparse
import json
import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np

SEED = 20251019
E = 0.3  # every row's treated share
BATCH = 16  # samples per ragged batch in a child

# (name, n, treated arm, control arm, tied). An arm is (family, location,
# scale): outcomes location + scale * X, X standard normal or Student t5;
# "lognormal" takes exp(location + scale * N(0, 1)) and "rounded" rounds a
# normal outcome to the nearest integer. Cases 1 and 4 are the built-in
# designs' marginals.
ROWS = [
    ("case 1", 1_000, ("normal", 2.0, 2.0), ("normal", 0.2, 1.0), False),
    ("case 1", 4_000, ("normal", 2.0, 2.0), ("normal", 0.2, 1.0), False),
    ("case 4", 1_000, ("normal", 2.0, 20.0), ("normal", 0.2, 10.0), False),
    ("case 4", 4_000, ("normal", 2.0, 20.0), ("normal", 0.2, 10.0), False),
    ("t5 arms", 2_000, ("t5", 2.0, 2.0), ("t5", 0.2, 1.0), False),
    ("lognormal arms", 2_000, ("lognormal", 0.0, 0.8), ("lognormal", 0.0, 0.5), False),
    ("rounded normal (ties)", 2_000, ("rounded", 2.0, 2.0), ("rounded", 0.2, 1.0), True),
]


def draw(row: int, replication: int):
    """(outcomes, treatments) of one replication of one row."""
    _, n, treated, control, _ = ROWS[row]
    rng = np.random.default_rng([SEED, row, replication])
    t = (rng.random(n) < E).astype(np.int8)
    y = np.empty(n)
    for arm, (family, loc, scale) in ((1, treated), (0, control)):
        mask = t == arm
        x = rng.standard_t(5, mask.sum()) if family == "t5" else rng.standard_normal(mask.sum())
        x = loc + scale * x
        y[mask] = np.exp(x) if family == "lognormal" else np.round(x) if family == "rounded" else x
    return y, t


def child(row: int, replications: int) -> None:
    """Print, as JSON, each replication's (V_hat_p, V_hat_o, S_00, S_11)."""
    from drpredict.bounds import variance_bounds
    from drpredict.covariance import sigma_sharp_batch
    from drpredict.sample import ExperimentalSample, arm_batch

    out = []
    for first in range(0, replications, BATCH):
        samples = [ExperimentalSample(*draw(row, r)) for r in range(first, min(first + BATCH, replications))]
        arms = arm_batch(samples)
        for b, s in zip(variance_bounds(arms), sigma_sharp_batch(arms)):
            # a checkout older than the array record gives objects per sample
            v_p, v_o = (b.v_p, b.v_o) if hasattr(b, "v_p") else b.tolist()
            s = getattr(s, "entries", s)
            out.append([v_p, v_o, float(s[0, 0]), float(s[1, 1])])
    json.dump(out, sys.stdout)


def run_side(root: Path, row: int, replications: int) -> np.ndarray:
    env = dict(os.environ, PYTHONPATH=str(root / "src"), PYTHONHASHSEED="0")
    proc = subprocess.run([sys.executable, __file__, "--child", str(row), str(replications)],
                          env=env, capture_output=True, text=True, check=True, timeout=3600)
    return np.array(json.loads(proc.stdout))


def summarise(stats: np.ndarray, n: int) -> dict:
    """Per bound: the Monte Carlo SD of sqrt(n) V_hat, the mean plug-in SD
    and their relative error."""
    cells = {}
    for k, bound in enumerate(("V_p", "V_o")):
        mc = math.sqrt(n) * float(np.std(stats[:, k], ddof=1))
        plug = float(np.mean(np.sqrt(stats[:, 2 + k])))
        cells[bound] = {"mc_sd": mc, "plugin_sd": plug, "rel_error": plug / mc - 1.0}
    return cells


def main(argv=None) -> int:
    if argv is None and sys.argv[1:2] == ["--child"]:
        child(int(sys.argv[2]), int(sys.argv[3]))
        return 0
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("root_a", type=Path)
    parser.add_argument("root_b", type=Path)
    parser.add_argument("--replications", type=int, default=2_000)
    parser.add_argument("--out", type=Path, help="write the table as JSON here")
    args = parser.parse_args(argv)
    roots = {"a": args.root_a.resolve(), "b": args.root_b.resolve()}
    rows = []
    for k, (name, n, treated, control, tied) in enumerate(ROWS):
        entry = {"data": name, "n": n, "treated": treated, "control": control, "tied": tied,
                 "replications": args.replications}
        for side, root in roots.items():
            entry[side] = summarise(run_side(root, k, args.replications), n)
        rows.append(entry)
        print(f"{name:<22} n={n:<5} " + "  ".join(
            f"{side} {bound} {entry[side][bound]['rel_error']:+.1%} (MC SD {entry[side][bound]['mc_sd']:.4g})"
            for side in roots for bound in ("V_p", "V_o")), flush=True)
    summary = {}
    for side in roots:
        continuous = [row[side][b]["rel_error"] for row in rows if not row["tied"] for b in ("V_p", "V_o")]
        summary[side] = {
            "continuous_mean_abs_rel_error": float(np.mean(np.abs(continuous))),
            "continuous_lowest_rel_error": min(continuous),
            "tied_rel_errors": [row[side][b]["rel_error"] for row in rows if row["tied"] for b in ("V_p", "V_o")],
        }
        print(f"{side}: mean |rel error| {summary[side]['continuous_mean_abs_rel_error']:.2%}, lowest "
              f"{summary[side]['continuous_lowest_rel_error']:+.1%} over the continuous cells; tied row "
              + ", ".join(f"{x:+.1%}" for x in summary[side]["tied_rel_errors"]))
    if args.out:
        doc = {"seed": SEED, "e": E, "mc_se_of_an_sd": 1.0 / math.sqrt(2.0 * (args.replications - 1)),
               "rows": rows, "summary": summary}
        args.out.write_text(json.dumps(doc, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
