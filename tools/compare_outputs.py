"""Compare the CLI outputs of two checkouts on one fixed set of invocations.

    python tools/compare_outputs.py ROOT_A ROOT_B [--rtol 1e-13] [--work DIR]

Writes seeded input files, then runs every invocation in INVOCATIONS as
``python -m drpredict.cli ARGS`` once with ROOT_A/src and once with
ROOT_B/src on PYTHONPATH, each checkout in its own fresh directory holding
the same inputs. For every invocation it compares the exit code, stdout,
stderr and each file the invocation wrote. Outputs that differ and parse as
JSON on both sides are compared number by number; everything else must be
byte-identical. The report lists each invocation that differs, the largest
relative change of any JSON number and where it was found.

Exit status: 0 when exit codes and all non-JSON outputs are identical and
no JSON number moved by more than --rtol relative; 1 otherwise. The package
is only ever run in child processes, never imported here.
"""

import argparse
import json
import math
import os
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

import numpy as np

SEED = 20250601

# (name, argv). Paths are relative to the working directory of a checkout.
INVOCATIONS = [
    ("estimate-sharp", ["estimate", "--data", "pos.csv", "--delta", "0.5"]),
    ("estimate-neyman", ["estimate", "--data", "pos.csv", "--delta", "0.5", "--bounds", "neyman"]),
    ("estimate-q3", ["estimate", "--data", "pos.csv", "--delta", "0.5", "--q", "3"]),
    ("estimate-q1-sharp", ["estimate", "--data", "pos.csv", "--delta", "0.5", "--q", "1"]),
    ("estimate-q1-neyman", ["estimate", "--data", "pos.csv", "--delta", "0.5", "--q", "1",
                            "--bounds", "neyman"]),
    ("estimate-delta0", ["estimate", "--data", "pos.csv", "--delta", "0"]),
    ("estimate-p3-json", ["estimate", "--data", "pos.csv", "--delta", "0.5", "--p", "3", "--json"]),
    ("estimate-json-out", ["estimate", "--data", "pos.csv", "--delta", "0.5", "--json",
                           "--out", "estimate.json"]),
    ("estimate-q1-json", ["estimate", "--data", "pos.csv", "--delta", "0.5", "--q", "1", "--json"]),
    ("estimate-neg-neyman", ["estimate", "--data", "neg.csv", "--delta", "0.5", "--bounds", "neyman"]),
    ("estimate-zero", ["estimate", "--data", "zero.csv", "--delta", "0.5"]),
    ("estimate-missing", ["estimate", "--data", "missing.csv", "--delta", "0.5"]),
    ("estimate-not-utf8", ["estimate", "--data", "notutf8.csv", "--delta", "0.5"]),
    ("estimate-directory", ["estimate", "--data", "datadir", "--delta", "0.5"]),
    ("estimate-zero40-sharp", ["estimate", "--data", "zero40.csv", "--delta", "0.5"]),
    ("estimate-zero40-q1", ["estimate", "--data", "zero40.csv", "--delta", "0.5", "--q", "1"]),
    ("estimate-zero40-neyman", ["estimate", "--data", "zero40.csv", "--delta", "0.5",
                                "--bounds", "neyman"]),
    ("estimate-eqvar-sharp", ["estimate", "--data", "eqvar.csv", "--delta", "0.5"]),
    ("estimate-eqvar-neyman", ["estimate", "--data", "eqvar.csv", "--delta", "0.5",
                               "--bounds", "neyman"]),
    ("estimate-big-json", ["estimate", "--data", "big.csv", "--delta", "0.5", "--json"]),
    ("infer-json-out", ["infer", "--data", "pos.csv", "--delta", "0.5", "--json", "--out", "infer.json"]),
    ("infer-text", ["infer", "--data", "pos.csv", "--delta", "0.5"]),
    ("infer-neyman", ["infer", "--data", "pos.csv", "--delta", "0.5", "--bounds", "neyman"]),
    ("infer-q1", ["infer", "--data", "pos.csv", "--delta", "0.5", "--q", "1"]),
    ("infer-beta-too-big", ["infer", "--data", "pos.csv", "--delta", "0.5", "--beta", "0.06"]),
    # an IM level above 1/2 would give a negative critical value: exit 2
    ("infer-alpha-above-half", ["infer", "--data", "pos.csv", "--delta", "0.5", "--alpha", "0.6",
                                "--beta", "0.5"]),
    ("infer-beta0-json", ["infer", "--data", "pos.csv", "--delta", "0.5", "--beta", "0", "--json"]),
    ("infer-delta0", ["infer", "--data", "pos.csv", "--delta", "0"]),
    ("infer-null", ["infer", "--data", "null.csv", "--delta", "0.5"]),
    ("infer-neg-q1.5", ["infer", "--data", "neg.csv", "--delta", "0.5", "--q", "1.5"]),
    ("infer-zero", ["infer", "--data", "zero.csv", "--delta", "0.5"]),
    ("infer-zero40", ["infer", "--data", "zero40.csv", "--delta", "0.5"]),
    ("infer-zero40-delta0", ["infer", "--data", "zero40.csv", "--delta", "0"]),
    ("infer-eqvar-neyman", ["infer", "--data", "eqvar.csv", "--delta", "0.5", "--bounds", "neyman"]),
    ("infer-eqvar-delta2", ["infer", "--data", "eqvar.csv", "--delta", "2"]),
    ("infer-big-json", ["infer", "--data", "big.csv", "--delta", "0.5", "--json"]),
    ("estimate-ties-json", ["estimate", "--data", "ties.csv", "--delta", "0.5", "--json"]),
    ("infer-ties-json", ["infer", "--data", "ties.csv", "--delta", "0.5", "--json"]),
    ("estimate-flat-json", ["estimate", "--data", "flat.csv", "--delta", "0.5", "--json"]),
    ("estimate-flat-neyman-json", ["estimate", "--data", "flat.csv", "--delta", "0.5", "--bounds", "neyman",
                                   "--json"]),
    ("infer-flat-json", ["infer", "--data", "flat.csv", "--delta", "0.5", "--json"]),
    ("sweep-data-true-v", ["sweep", "--data", "pos.csv", "--deltas", "0:1:0.05", "--true-v", "2"]),
    ("sweep-data-dense", ["sweep", "--data", "pos.csv", "--deltas", "0:3:0.0002",
                          "--out", "sweep_data.csv"]),
    ("sweep-population-q1", ["sweep", "--deltas", "0:2:0.1", "--true-v", "1.5", "--tau-star", "2",
                             "--q", "1", "--out", "sweep_q1.csv"]),
    ("sweep-population-dense", ["sweep", "--deltas", "0:3:0.0002", "--true-v", "1.5",
                                "--tau-star", "2"]),
    ("benchmark-json", ["benchmark", "--data", "pos.csv", "--permutations", "20", "--json"]),
    ("benchmark-mask", ["benchmark", "--data", "pos.csv", "--split", "provided_mask",
                        "--mask-col", "m"]),
    ("benchmark-not-utf8", ["benchmark", "--data", "notutf8.csv"]),
    ("benchmark-big-halves", ["benchmark", "--data", "big.csv", "--split", "halves",
                              "--permutations", "3", "--json"]),
    ("estimate-text-out", ["estimate", "--data", "pos.csv", "--delta", "0.5", "--out", "e.json"]),
    ("infer-null-json", ["infer", "--data", "null.csv", "--delta", "0.5", "--json"]),
    ("benchmark-no-permutations", ["benchmark", "--data", "pos.csv", "--permutations", "0"]),
    ("sweep-data-p3", ["sweep", "--data", "pos.csv", "--deltas", "0:1:0.1", "--p", "3"]),
    ("benchmark-ties-json", ["benchmark", "--data", "ties.csv", "--json"]),
    ("benchmark-flat-json", ["benchmark", "--data", "flat.csv", "--json"]),
    ("benchmark-big-halves-200", ["benchmark", "--data", "big.csv", "--split", "halves",
                                  "--permutations", "200", "--seed", "7", "--json"]),
    ("benchmark-negative-seed", ["benchmark", "--data", "pos.csv", "--seed", "-1",
                                 "--permutations", "5"]),
    ("simulate-cases-1-5", ["simulate", "--case", "1", "--case", "5", "--out", "sim15"]),
    ("simulate-custom-neyman", ["simulate", "--mu1", "1", "--mu0", "0", "--sigma1", "2",
                                "--sigma0", "1", "--delta", "0.2", "--bounds", "neyman",
                                "--replications", "300", "--out", "simcustom"]),
    ("simulate-case3-workers2", ["simulate", "--case", "3", "--workers", "2", "--out", "sim3"]),
    # five batches of replications, the last holding two, over two workers
    ("simulate-case1-130-workers2", ["simulate", "--case", "1", "--replications", "130",
                                     "--workers", "2", "--out", "simw"]),
    ("simulate-four-cases", ["simulate", "--case", "1", "--case", "3", "--case", "5", "--case", "6",
                             "--n", "1000", "--replications", "100", "--threads", "1",
                             "--out", "simbench"]),
    # n = 3000: 10 replications per call, one ragged batch of 30,000 of the
    # 2^15 rows; 10 calls, the last as full as the rest
    ("simulate-case2-n3000", ["simulate", "--case", "2", "--n", "3000", "--replications", "100",
                              "--out", "simr"]),
    ("simulate-custom-p3", ["simulate", "--mu1", "1", "--mu0", "0", "--sigma1", "2", "--sigma0", "1",
                            "--delta", "0.2", "--p", "3", "--replications", "100", "--out", "simp3"]),
    # the tiny-scale design (SDs 0.02 and 0.01) and the large one (SDs 20 and 10)
    ("simulate-cases-3-4", ["simulate", "--case", "3", "--case", "4", "--replications", "200",
                            "--out", "sim34"]),
    # the sweep table's two writer paths: stdout, and --out with its manifest
    ("sweep-population-v0-q3", ["sweep", "--deltas", "0:4:0.0005", "--true-v", "0",
                                "--tau-star", "-1.5", "--q", "3"]),
    ("sweep-data-true-v-out", ["sweep", "--data", "neg.csv", "--deltas", "0:2:0.0005",
                               "--bounds", "neyman", "--true-v", "2", "--out", "sweep_true_v.csv"]),
    # radius lists as given: unsorted, repeated and a negative zero, in the
    # CSV and in the manifest
    ("sweep-list-out", ["sweep", "--deltas", "0.5,0.1,0.5,-0,2,0.1", "--true-v", "1",
                        "--tau-star", "2", "--out", "sweep_list.csv"]),
    ("sweep-one-radius-out", ["sweep", "--deltas", "0.7", "--true-v", "1", "--tau-star", "-2",
                              "--out", "sweep_one.csv"]),
    # q = 1.5 takes the most Newton steps
    ("sweep-population-q1.5-out", ["sweep", "--deltas", "0:3:0.0002", "--true-v", "0.5",
                                   "--tau-star", "2.5", "--q", "1.5", "--out", "sweep_q15.csv"]),
    ("sweep-data-q10", ["sweep", "--data", "pos.csv", "--deltas", "0:3:0.001", "--q", "10"]),
    # inputs at the edges of double precision, each ending in exit 0, 2 or 3:
    # a root near 0 that takes over 200 bisections of [0, 1e60] to reach
    ("sweep-tau-star-1e60", ["sweep", "--deltas", "2", "--true-v", "1", "--tau-star", "1e60"]),
    # outcomes of scale 1e-200, whose arm variances underflow to 0
    ("estimate-tiny-scale", ["estimate", "--data", "tiny.csv", "--delta", "0.5"]),
    # population variances that overflow
    ("simulate-huge-sd", ["simulate", "--mu1", "1", "--mu0", "0", "--sigma1", "1e300",
                          "--sigma0", "1e300", "--delta", "0.1", "--replications", "100",
                          "--out", "simhuge"]),
    # alpha - beta so small that z(1 - (alpha - beta)/2) is infinite
    ("infer-level-infinite-z", ["infer", "--data", "pos.csv", "--delta", "0.5", "--alpha", "0.05",
                                "--beta", "0.04999999999999999"]),
    # pos.csv with its treated arm, and with both arms, shifted by 10^6
    ("estimate-shift-treated", ["estimate", "--data", "pos_treated_1e6.csv", "--delta", "0.5",
                                "--json"]),
    ("infer-shift-treated", ["infer", "--data", "pos_treated_1e6.csv", "--delta", "0.5", "--json"]),
    ("estimate-shift-both", ["estimate", "--data", "pos_both_1e6.csv", "--delta", "0.5", "--json"]),
    ("infer-shift-both", ["infer", "--data", "pos_both_1e6.csv", "--delta", "0.5", "--json"]),
    # a control arm of 1,400 copies of 1.7, whose variance is exactly 0
    # (np.var leaves a rounding residue of 4.9e-32)
    ("estimate-const-sharp-json", ["estimate", "--data", "const.csv", "--delta", "0.5", "--json"]),
    ("estimate-const-neyman-json", ["estimate", "--data", "const.csv", "--delta", "0.5",
                                    "--bounds", "neyman", "--json"]),
    # outcomes near 5e307, whose arm sums overflow: exit 3 on both routes,
    # with no numpy warning on stderr
    ("estimate-q1-vast-sharp", ["estimate", "--data", "vast.csv", "--delta", "0.5", "--q", "1"]),
    ("estimate-q1-vast-neyman", ["estimate", "--data", "vast.csv", "--delta", "0.5", "--q", "1",
                                 "--bounds", "neyman"]),
    # outcomes near 1e200 with an SD of 1e197: finite means, overflowing
    # variances, exit 3
    ("estimate-q1-wide-neyman", ["estimate", "--data", "wide.csv", "--delta", "0.5", "--q", "1",
                                 "--bounds", "neyman"]),
    # pos.csv in units 10^4 times smaller: the sharp Sigma scales with them
    ("estimate-pos1e4-json", ["estimate", "--data", "pos1e4.csv", "--delta", "0.5", "--json"]),
    ("infer-pos1e4-json", ["infer", "--data", "pos1e4.csv", "--delta", "0.5", "--json"]),
    # a difference in means of exactly 0 with v_o = 1 and v_p = 9: the
    # zero-effect SDs at q = 2, no smooth expansion (null SDs) at q = 1.5
    ("estimate-zeromean-q2-json", ["estimate", "--data", "zeromean.csv", "--delta", "0.5", "--q", "2",
                                   "--json"]),
    ("estimate-zeromean-q1.5-json", ["estimate", "--data", "zeromean.csv", "--delta", "0.5",
                                     "--q", "1.5", "--json"]),
    # pos.csv in units 100 times larger: a radius large beside the outcomes
    ("infer-pos1e-2-json", ["infer", "--data", "pos1e-2.csv", "--delta", "0.5", "--json"]),
    # the near-homogeneous design above the no-shrinkage threshold: equal arm
    # SDs and rho = 1, so v_o is near 0 and every two-step union runs its grid
    ("simulate-homogeneous-delta2", ["simulate", "--mu1", "1.2", "--mu0", "0.2", "--sigma1", "1",
                                     "--sigma0", "1", "--rho", "1", "--delta", "2", "--n", "4000",
                                     "--replications", "100", "--out", "simhomog"]),
    # equal arm SDs on the Neyman route: batches of samples whose arm
    # variances are near equal, whose numbers pin the batched Neyman stage
    ("simulate-eqvar-neyman", ["simulate", "--mu1", "1.2", "--mu0", "0.2", "--sigma1", "1",
                               "--sigma0", "1", "--delta", "0.5", "--bounds", "neyman",
                               "--replications", "100", "--out", "simeqvar"]),
    # --mask-col without --split provided_mask is an input error (exit 2)
    ("benchmark-mask-col-halves", ["benchmark", "--data", "pos.csv", "--split", "halves",
                                   "--mask-col", "m", "--permutations", "0"]),
    # unequal cells over several 2^15-cell blocks, at the default count
    ("benchmark-big-median-200", ["benchmark", "--data", "big.csv", "--split", "median_outcome",
                                  "--permutations", "200", "--json"]),
    # a mask column over more than 2^15 rows, read by the C reader
    ("benchmark-mask-big", ["benchmark", "--data", "masked_big.csv", "--split", "provided_mask",
                            "--mask-col", "m", "--permutations", "20", "--json"]),
    # mask entries the C reader leaves to the row parser: " 1" is taken, "01" is exit 2
    ("benchmark-mask-space", ["benchmark", "--data", "mask_space.csv", "--split", "provided_mask",
                              "--mask-col", "m", "--json"]),
    ("benchmark-mask-01", ["benchmark", "--data", "mask_01.csv", "--split", "provided_mask",
                           "--mask-col", "m"]),
    # a treated arm of scale 1e-160 beside a unit control arm: its subnormal
    # variance gives an infinite Neyman loading on influence terms of 0
    ("estimate-subnormal-neyman", ["estimate", "--data", "subnormal.csv", "--delta", "0.5",
                                   "--bounds", "neyman", "--json"]),
    # a data sweep whose --true-v equals its v_p (4 on both routes, tau* = 1)
    ("sweep-pm1-true-v-equals-v-p", ["sweep", "--data", "pm1.csv", "--bounds", "neyman", "--true-v", "4",
                                     "--deltas", "0:2:0.01"]),
    # a bad mask entry in row 2 and an unparsable outcome in row 4: the outcome is reported
    ("benchmark-mask-two-faults", ["benchmark", "--data", "two_faults.csv", "--split", "provided_mask",
                                   "--mask-col", "m"]),
    # population mode has no data file, so --bounds is an input error (exit 2)
    ("sweep-population-bounds", ["sweep", "--deltas", "0.5", "--true-v", "1", "--tau-star", "1",
                                 "--bounds", "neyman", "--out", "sweep_bounds.csv"]),
    # each status an SD can have besides ok and q = 1: the kink in JSON mode
    # (exit 0, sd_o null); tau_b = 0 with q < 2, the infinite curvature
    # (exit 0, both SDs n/a); and infer on the Neyman route on equal arms,
    # whose equal SDs floor v_o to 0 as a shift does on the sharp route,
    # at the kink (exit 3)
    ("estimate-eqvar-json", ["estimate", "--data", "eqvar.csv", "--delta", "0.5", "--json"]),
    ("estimate-zero40-q1.5", ["estimate", "--data", "zero40.csv", "--delta", "0.5", "--q", "1.5"]),
    ("infer-zero40-neyman", ["infer", "--data", "zero40.csv", "--delta", "0.5", "--bounds", "neyman"]),
    # two constant arms: the bracket (0, 0) and the all-zero Sigma on both
    # routes, the same predictions with no SDs
    ("estimate-twoconst-sharp", ["estimate", "--data", "twoconst.csv", "--delta", "0.5"]),
    ("estimate-twoconst-neyman", ["estimate", "--data", "twoconst.csv", "--delta", "0.5",
                                  "--bounds", "neyman"]),
    # a treated arm that is the control arm times 1 + 1e-6 plus 1: on both
    # routes sqrt(v_o) is far past rounding, so a small v_o and no kink
    ("infer-millionth-sharp", ["infer", "--data", "millionth.csv", "--delta", "0.5"]),
    ("infer-millionth-neyman", ["infer", "--data", "millionth.csv", "--delta", "0.5",
                                "--bounds", "neyman"]),
    # pos.csv in units 10^13 times smaller: tau* near 1.8e-13, whose
    # predictions are roots far below any absolute solver tolerance
    ("estimate-tiny-json", ["estimate", "--data", "pos1e-13.csv", "--delta", "0.5", "--json"]),
    ("infer-tiny-json", ["infer", "--data", "pos1e-13.csv", "--delta", "0.5", "--json"]),
]


def _write_csv(path, y, t, extra=None):
    cols = [y, t] + ([extra] if extra is not None else [])
    header = "y,t" + (",m" if extra is not None else "")
    fmt = ["%.17g", "%d"] + (["%d"] if extra is not None else [])
    np.savetxt(path, np.column_stack(cols), fmt=fmt, delimiter=",", header=header, comments="")


def write_inputs(work: Path) -> None:
    """The seeded inputs every invocation reads."""
    rng = np.random.default_rng(SEED)
    t = (rng.random(3000) < 0.3).astype(int)
    y = np.where(t == 1, rng.normal(2.0, 2.0, 3000), rng.normal(0.2, 1.0, 3000))
    m = (rng.random(3000) < 0.5).astype(int)
    _write_csv(work / "pos.csv", y, t, m)
    _write_csv(work / "pos_treated_1e6.csv", y + 1e6 * t, t)
    _write_csv(work / "pos_both_1e6.csv", y + 1e6, t)
    _write_csv(work / "pos1e4.csv", 1e4 * y, t)
    _write_csv(work / "pos1e-2.csv", 1e-2 * y, t)
    _write_csv(work / "neg.csv", -y, t)
    t_null = (rng.random(800) < 0.5).astype(int)
    _write_csv(work / "null.csv", rng.normal(0.0, 1.0, 800), t_null)
    _write_csv(work / "zero.csv", rng.normal(0.0, 1.0, 6), np.repeat([1, 0], 3))
    y40 = rng.normal(0.0, 1.0, 40)
    _write_csv(work / "zero40.csv", np.concatenate((y40, y40)), np.repeat([1, 0], 40))
    _write_csv(work / "eqvar.csv", np.concatenate((y40 + 1.0, y40)), np.repeat([1, 0], 40))
    t_big = (rng.random(300_000) < 0.3).astype(int)
    y_big = np.where(t_big == 1, rng.normal(2.0, 2.0, 300_000), rng.lognormal(0.2, 1.0, 300_000))
    _write_csv(work / "big.csv", y_big, t_big)
    # outcomes rounded to 0.1, so both arms are full of ties
    t_ties = (rng.random(3000) < 0.3).astype(int)
    y_ties = np.where(t_ties == 1, rng.normal(2.0, 2.0, 3000), rng.normal(0.2, 1.0, 3000))
    _write_csv(work / "ties.csv", np.round(y_ties, 1), t_ties)
    # a zero-spread control arm
    y_flat = np.concatenate((rng.normal(2.0, 2.0, 600), np.full(1400, 0.5)))
    _write_csv(work / "flat.csv", y_flat, np.repeat([1, 0], [600, 1400]))
    _write_csv(work / "tiny.csv", 1e-200 * rng.normal(0.0, 1.0, 400), np.repeat([1, 0], 200))
    y_const = np.concatenate((rng.normal(2.0, 2.0, 600), np.full(1400, 1.7)))
    _write_csv(work / "const.csv", y_const, np.repeat([1, 0], [600, 1400]))
    _write_csv(work / "vast.csv", 1e306 * rng.normal(50.0, 1.0, 1000), np.repeat([1, 0], 500))
    # drawn last, so that the inputs above stay the same
    _write_csv(work / "wide.csv", 1e200 * (1.0 + 1e-3 * rng.normal(0.0, 1.0, 1000)), np.repeat([1, 0], 500))
    # drawn after wide.csv, so that the inputs above stay the same
    t_mask = (rng.random(50_000) < 0.4).astype(int)
    y_mask = np.where(t_mask == 1, rng.normal(1.0, 2.0, 50_000), rng.normal(0.0, 1.0, 50_000))
    _write_csv(work / "masked_big.csv", y_mask, t_mask, (rng.random(50_000) < 0.5).astype(int))
    _write_csv(work / "subnormal.csv", np.concatenate((1e-160 * rng.normal(0.0, 1.0, 200),
                                                       rng.normal(0.0, 1.0, 200))), np.repeat([1, 0], 200))
    # pos.csv with the mask entry of its second data row written " 1" and "01"
    lines = (work / "pos.csv").read_text().splitlines()
    for name, entry in (("mask_space.csv", " 1"), ("mask_01.csv", "01")):
        row = lines[2].rsplit(",", 1)[0] + "," + entry
        (work / name).write_text("\n".join(lines[:2] + [row] + lines[3:]) + "\n")
    (work / "notutf8.csv").write_bytes(b"y,t\n1.0,1\n\xff,0\n")
    (work / "datadir").mkdir()
    # 40 treated rows alternating +-2 and 60 control rows alternating +-1
    y_zero = np.concatenate((np.tile([2.0, -2.0], 20), np.tile([1.0, -1.0], 30)))
    _write_csv(work / "zeromean.csv", y_zero, np.repeat([1, 0], [40, 60]))
    # fixed literals, no draws: 20 copies each of 0 and 2 treated, 30 each of -1 and 1 control
    _write_csv(work / "pm1.csv", np.repeat([0.0, 2.0, -1.0, 1.0], [20, 20, 30, 30]), np.repeat([1, 0], [40, 60]))
    (work / "two_faults.csv").write_text("y,t,m\n1.0,1,2\n2.0,0,0\noops,1,1\n3.0,0,1\n")
    # fixed literals, no draws, written last: 40 treated rows of 2.5, 40 control rows of 1.0
    _write_csv(work / "twoconst.csv", np.repeat([2.5, 1.0], 40), np.repeat([1, 0], 40))
    # written after the rest, from its own generator: 40 control rows of six
    # decimals, and 40 treated rows of them times 1 + 1e-6 plus 1
    y_m = np.random.default_rng(5).normal(size=40).round(6)
    _write_csv(work / "millionth.csv", np.concatenate(((1.0 + 1e-6) * y_m + 1.0, y_m)), np.repeat([1, 0], 40))
    # written last, no draws: pos.csv's outcomes times 1e-13
    _write_csv(work / "pos1e-13.csv", 1e-13 * y, t)


def _snapshot(work: Path) -> dict:
    return {p.name: (p.stat().st_mtime_ns, p.stat().st_size) for p in work.iterdir() if p.is_file()}


def run_side(root: Path, work: Path) -> dict:
    """Run every invocation with root/src on PYTHONPATH; outputs by name."""
    env = dict(os.environ)
    env["PYTHONPATH"] = str(root / "src")
    env["PYTHONHASHSEED"] = "0"
    out = {}
    for name, argv in INVOCATIONS:
        before = _snapshot(work)
        proc = subprocess.run([sys.executable, "-m", "drpredict.cli", *argv], cwd=work, env=env,
                              capture_output=True, timeout=900)
        after = _snapshot(work)
        written = {f: (work / f).read_bytes() for f in sorted(after) if before.get(f) != after[f]}
        out[name] = {"exit": proc.returncode, "stdout": proc.stdout, "stderr": proc.stderr,
                     **{f"file {f}": data for f, data in written.items()}}
    return out


def _max_rel(a, b, where=""):
    """(largest relative change, its path) between two JSON values of the
    same shape, or None when the shapes or any non-number differ."""
    if isinstance(a, bool) or isinstance(b, bool) or a is None or b is None or isinstance(a, str):
        return (0.0, where) if a == b and type(a) is type(b) else None
    if isinstance(a, (int, float)) and isinstance(b, (int, float)):
        if a == b:
            return 0.0, where
        return abs(a - b) / max(abs(a), abs(b)), where
    if isinstance(a, dict) and isinstance(b, dict):
        if list(a) != list(b):
            return None
        pairs = [(a[k], b[k], f"{where}.{k}") for k in a]
    elif isinstance(a, list) and isinstance(b, list):
        if len(a) != len(b):
            return None
        pairs = [(x, y, f"{where}[{i}]") for i, (x, y) in enumerate(zip(a, b))]
    else:
        return None
    worst = (0.0, where)
    for x, y, path in pairs:
        got = _max_rel(x, y, path)
        if got is None:
            return None
        worst = max(worst, got, key=lambda w: w[0])
    return worst


def compare(side_a: dict, side_b: dict, rtol: float) -> bool:
    ok = True
    worst = (0.0, "")
    identical = 0
    for name, _ in INVOCATIONS:
        a, b = side_a[name], side_b[name]
        notes = []
        for key in sorted(set(a) | set(b)):
            if a.get(key) == b.get(key):
                continue
            if key == "exit":
                notes.append(f"exit code {a['exit']} -> {b['exit']}")
                ok = False
                continue
            if key not in a or key not in b:
                notes.append(f"{key} written on one side only")
                ok = False
                continue
            try:
                rel = _max_rel(json.loads(a[key]), json.loads(b[key]))
            except ValueError:
                rel = None
            if rel is None:
                notes.append(f"{key}: bytes differ")
                ok = False
            else:
                notes.append(f"{key}: JSON numbers, max rel {rel[0]:.2g} at {rel[1] or '.'}")
                ok &= rel[0] <= rtol
                worst = max(worst, (rel[0], f"{name} {key} {rel[1]}"), key=lambda w: w[0])
        if notes:
            print(f"DIFF {name}: " + "; ".join(notes))
        else:
            identical += 1
    print(f"{identical} of {len(INVOCATIONS)} invocations identical in exit code, stdout, "
          f"stderr and written files")
    print(f"largest relative change of a JSON number: {worst[0]:.3g}"
          + (f" ({worst[1]})" if worst[0] else ""))
    print("PASS" if ok else f"FAIL (rtol {rtol:g})")
    return ok


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("root_a", type=Path)
    parser.add_argument("root_b", type=Path)
    parser.add_argument("--rtol", type=float, default=1e-13,
                        help="largest relative change allowed in a JSON number (default: 1e-13)")
    parser.add_argument("--work", type=Path, help="keep the run directories here "
                        "(default: a temporary directory, removed afterwards)")
    args = parser.parse_args(argv)
    base = args.work or Path(tempfile.mkdtemp(prefix="compare_outputs_"))
    try:
        sides = []
        for label, root in (("a", args.root_a), ("b", args.root_b)):
            work = base / label
            work.mkdir(parents=True)
            write_inputs(work)
            sides.append(run_side(root.resolve(), work))
        return 0 if compare(*sides, args.rtol) else 1
    finally:
        if args.work is None:
            shutil.rmtree(base, ignore_errors=True)


if __name__ == "__main__":
    sys.exit(main())
