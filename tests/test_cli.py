import concurrent.futures
import csv
import hashlib
import json
import math
import os
import subprocess
import sys
import tracemalloc
from pathlib import Path

import jsonschema
import numpy as np
import pytest
from scipy.optimize import minimize_scalar

from drpredict import cli
from drpredict import sample as sample_module
from drpredict.cli import _build_parser, _dump_json, _manifest, _parse_delta_grid, _q_from_args, main
from drpredict.exceptions import ParseError, ValidationError
from drpredict.sample import load_mask, load_sample
from drpredict.simulation import case_preset, draw_sample
from oracles import bounds_of, central_moments, dump_json, neyman_bracket, sweep_csv_rowwise

SCHEMA_DIR = None  # set in _schema


def _schema(name):
    from importlib.resources import files

    return json.loads(files("drpredict.schemas").joinpath(name).read_text())


def _write_csv(path, y, t, extra=None):
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        header = ["y", "t"] + (list(extra) if extra else [])
        writer.writerow(header)
        for i, (yi, ti) in enumerate(zip(y, t)):
            row = [f"{yi:.10g}", int(ti)]
            if extra:
                row += [extra[col][i] for col in extra]
            writer.writerow(row)
    return str(path)


def _case1_file(path, n=600, seed=42):
    dgp, config = case_preset(1, n=n)
    sample = draw_sample(dgp, seed)
    return _write_csv(path, sample.outcomes, sample.treatments), config


@pytest.fixture
def case1_csv(tmp_path):
    path, _ = _case1_file(tmp_path / "case1.csv")
    return path


# -------------------------------------------------------------- delta grids


def test_delta_grid_forms():
    assert _parse_delta_grid("0:2:0.5") == pytest.approx([0.0, 0.5, 1.0, 1.5, 2.0])
    assert _parse_delta_grid("0.25").tolist() == [0.25]
    assert _parse_delta_grid("0.1, 0.3,1") == pytest.approx([0.1, 0.3, 1.0])
    # inclusive endpoint despite float step
    assert _parse_delta_grid("0:2:0.1")[-1] == pytest.approx(2.0)
    assert len(_parse_delta_grid("0:2:0.1")) == 21
    assert len(_parse_delta_grid("0:3:0.0002")) == 15001  # the densest grid in use
    # the array grid holds the very floats of start + i * step in Python
    assert _parse_delta_grid("0.1:3:0.0002").tolist() == [0.1 + i * 0.0002 for i in range(14501)]


@pytest.mark.parametrize("bad", ["", "  ", "1:2", "0:1:-0.5", "a,b", "1:x:3", ",",
                                 "0:inf:1", "-inf:1:1", "0:1:nan", "0:2e6:1", "0:1:4e-7",
                                 "-1e308:1e308:1e-300"])
def test_delta_grid_rejects(bad):
    # rejected before the grid is built: a non-finite or over-long range
    # would otherwise raise OverflowError or exhaust memory
    tracemalloc.start()
    try:
        with pytest.raises(ValidationError):
            _parse_delta_grid(bad)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1 << 20


def test_sweep_non_finite_range_exits_2(capsys):
    code = main(["sweep", "--deltas", "0:inf:1", "--true-v", "1", "--tau-star", "1"])
    assert code == 2
    assert capsys.readouterr().err.startswith("error: --deltas range must be finite")


# ----------------------------------------------------------------- estimate


def test_estimate_json_validates_and_collapses_at_zero_radius(case1_csv, capsys):
    code = main(["estimate", "--data", case1_csv, "--delta", "0", "--json"])
    assert code == 0
    doc = json.loads(capsys.readouterr().out)
    jsonschema.validate(doc, _schema("estimate.schema.json"))
    assert doc["tau_p"] == doc["tau_o"] == doc["tau_star"]
    assert doc["sd_p"] == doc["sd_tau"]
    assert doc["manifest"]["command"] == "estimate"
    assert doc["manifest"]["config"]["q"] == 2.0


def test_estimate_p_maps_to_q(case1_csv, capsys):
    code = main(["estimate", "--data", case1_csv, "--delta", "0.1", "--p", "3", "--json"])
    assert code == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["manifest"]["config"]["q"] == pytest.approx(1.5)


def test_estimate_flag_exclusion_is_usage_error(case1_csv):
    with pytest.raises(SystemExit) as exc:
        main(["estimate", "--data", case1_csv, "--delta", "0.1", "--p", "2", "--q", "2"])
    assert exc.value.code == 2


def test_estimate_missing_file_exits_2(tmp_path, capsys):
    code = main(["estimate", "--data", str(tmp_path / "nope.csv"), "--delta", "0"])
    assert code == 2
    assert "nope.csv" in capsys.readouterr().err


def test_estimate_bad_row_names_row_and_column(tmp_path, capsys):
    path = tmp_path / "bad.csv"
    path.write_text("y,t\n1.0,1\noops,0\n2.0,0\n1.5,1\n")
    code = main(["estimate", "--data", str(path), "--delta", "0"])
    assert code == 2
    err = capsys.readouterr().err
    assert "row 3" in err and "'y'" in err


@pytest.mark.parametrize("argv", [
    ["estimate", "--data", "{latin1}", "--delta", "0.5"],
    ["benchmark", "--data", "{latin1}"],
    ["estimate", "--data", "{directory}", "--delta", "0.5"],
], ids=["estimate-non-utf8", "benchmark-non-utf8", "estimate-directory"])
def test_unreadable_data_exits_2(argv, tmp_path, capsys):
    latin1 = tmp_path / "latin1.csv"
    latin1.write_bytes(b"y,t\n1.0,1\n\xff2.0,0\n")
    paths = {"latin1": str(latin1), "directory": str(tmp_path)}
    code = main([arg.format(**paths) for arg in argv])
    assert code == 2
    assert capsys.readouterr().err.startswith("error: ")


def test_estimate_q1_reports_point_estimates_without_sds(case1_csv, capsys):
    code = main(["estimate", "--data", case1_csv, "--delta", "0.5", "--q", "1", "--json"])
    assert code == 0
    doc = json.loads(capsys.readouterr().out)
    jsonschema.validate(doc, _schema("estimate.schema.json"))
    assert doc["sd_p"] is None and doc["sd_o"] is None and doc["sd_tau"] is None
    assert abs(doc["tau_p"]) <= abs(doc["tau_o"]) <= abs(doc["tau_star"])


@pytest.mark.parametrize("command", [
    ["estimate", "--delta", "0.1"],
    ["infer", "--delta", "0.1"],
    ["benchmark", "--permutations", "10"],
], ids=["estimate", "infer", "benchmark"])
def test_out_file_equals_stdout_json(command, case1_csv, tmp_path, capsys):
    out = tmp_path / "report.json"
    code = main([*command, "--data", case1_csv, "--json", "--out", str(out)])
    assert code == 0
    stdout = capsys.readouterr().out
    assert out.read_bytes() == stdout.encode("utf-8")
    assert json.loads(stdout)["manifest"]["command"] == command[0]


# -------------------------------------------------------------------- sweep


def test_sweep_population_mode_reproduces_known_value(capsys):
    code = main(["sweep", "--tau-star", "1.8", "--true-v", "2.2", "--deltas", "0.1"])
    assert code == 0
    rows = list(csv.DictReader(capsys.readouterr().out.splitlines()))
    assert len(rows) == 1
    assert float(rows[0]["tau_dr"]) == pytest.approx(1.686, abs=2e-3)
    assert rows[0]["tau_p"] == rows[0]["tau_dr"]


def test_sweep_population_q1_homogeneous_keeps_tau_star(capsys):
    code = main(["sweep", "--deltas", "0.5", "--true-v", "0", "--tau-star", "2", "--q", "1"])
    assert code == 0
    rows = list(csv.DictReader(capsys.readouterr().out.splitlines()))
    assert [(r["tau_p"], r["tau_o"], r["tau_dr"]) for r in rows] == [("2", "2", "2")]


def test_sweep_population_large_q_matches_bounded_minimiser(capsys):
    code = main(["sweep", "--deltas", "0.5", "--true-v", "1", "--tau-star", "5", "--q", "1000"])
    assert code == 0
    rows = list(csv.DictReader(capsys.readouterr().out.splitlines()))

    def objective(t):
        # (2 + t^q)^(1/q) through logaddexp, so t^q is never formed
        penalty = math.exp(np.logaddexp(math.log(2.0), 1000.0 * math.log(t)) / 1000.0)
        return math.sqrt(1.0 + (5.0 - t) ** 2) + 0.5 * penalty

    want = minimize_scalar(objective, bounds=(1e-9, 5.0), method="bounded",
                           options={"xatol": 1e-12}).x
    assert float(rows[0]["tau_dr"]) == pytest.approx(want, rel=1e-7)


@pytest.mark.parametrize("bad", ["-1", "nan", "inf"])  # inf used to exit 0 and print 9.09e-13
def test_sweep_rejects_negative_or_nan_true_v(bad, capsys):
    code = main(["sweep", "--deltas", "0.5", "--true-v", bad, "--tau-star", "2"])
    assert code == 2
    assert "--true-v" in capsys.readouterr().err


@pytest.mark.parametrize("bad", ["nan", "inf"])
def test_sweep_rejects_nonfinite_tau_star(bad, capsys):
    code = main(["sweep", "--deltas", "0.5", "--true-v", "1", "--tau-star", bad])
    assert code == 2
    assert "--tau-star" in capsys.readouterr().err


def test_sweep_population_mode_needs_both_flags(capsys):
    code = main(["sweep", "--tau-star", "1.8", "--deltas", "0.1"])
    assert code == 2
    assert "--true-v" in capsys.readouterr().err


@pytest.mark.parametrize("flag", [["--bounds", "neyman"], ["--bounds", "sharp"], ["--outcome", "zz"],
                                  ["--treatment", "qq"]], ids=["neyman", "sharp", "outcome", "treatment"])
def test_sweep_population_mode_refuses_data_flags(flag, tmp_path, capsys):
    # these flags name a data file's columns and bounds; population mode,
    # which has no file, ignored them and exited 0
    out = tmp_path / "sweep.csv"
    code = main(["sweep", "--deltas", "0.5", "--true-v", "1", "--tau-star", "1", *flag, "--out", str(out)])
    assert (code, capsys.readouterr().err) == (2, f"error: {flag[0]} needs --data; population mode reads no data file\n")
    assert list(tmp_path.iterdir()) == []


def test_sweep_data_mode_monotone_and_flat_at_zero(case1_csv, capsys):
    code = main(["sweep", "--data", case1_csv, "--deltas", "0:1:0.25"])
    assert code == 0
    rows = list(csv.DictReader(capsys.readouterr().out.splitlines()))
    assert [r["delta"] for r in rows] == ["0", "0.25", "0.5", "0.75", "1"]
    tau_p = [float(r["tau_p"]) for r in rows]
    tau_o = [float(r["tau_o"]) for r in rows]
    assert tau_p[0] == tau_o[0]  # delta = 0 collapse
    assert all(a >= b - 1e-12 for a, b in zip(tau_p, tau_p[1:]))  # shrinks
    assert all(p <= o + 1e-12 for p, o in zip(tau_p, tau_o))
    assert "tau_dr" not in rows[0]


def test_sweep_homogeneous_flat_segment_then_decay(tmp_path, capsys):
    # treated arm = control arm + 2, so the comonotone coupling gives v_o = 0
    # exactly and tau_o stays at tau_star until the homogeneity threshold
    rng = np.random.default_rng(5)
    base = rng.normal(size=150)
    y = np.concatenate([base + 2.0, base])
    t = np.concatenate([np.ones(150), np.zeros(150)])
    path = _write_csv(tmp_path / "hom.csv", y, t)
    code = main(["sweep", "--data", path, "--deltas", "0:2:0.1"])
    assert code == 0
    rows = list(csv.DictReader(capsys.readouterr().out.splitlines()))
    tau_o = np.array([float(r["tau_o"]) for r in rows])
    assert tau_o[:8] == pytest.approx(tau_o[0], abs=1e-9)  # flat below threshold
    assert tau_o[-1] < tau_o[0] - 0.3  # decays past it


def test_sweep_out_writes_csv_with_manifest_sidecar(case1_csv, tmp_path):
    out = tmp_path / "sweep.csv"
    code = main(["sweep", "--data", case1_csv, "--deltas", "0.1,0.2",
                 "--true-v", "2.2", "--out", str(out)])
    assert code == 0
    rows = list(csv.DictReader(out.read_text().splitlines()))
    assert set(rows[0]) == {"delta", "tau_p", "tau_o", "tau_dr"}
    manifest = json.loads((tmp_path / "sweep.csv.manifest.json").read_text())
    jsonschema.validate(manifest, _schema("manifest.schema.json"))
    assert manifest["config"]["deltas"] == [0.1, 0.2]
    assert manifest["input_sha256"] is not None


# flags after "sweep"; DATA stands for the case-1 file
SWEEP_WRITER_CASES = {
    "population-dense": ["--deltas", "0:3:0.0002", "--true-v", "1.5", "--tau-star", "2"],
    "population-v0-q3": ["--deltas", "0:4:0.01", "--true-v", "0", "--tau-star", "-1.5",
                         "--q", "3"],
    "population-q1": ["--deltas", "0:2:0.1", "--true-v", "1.5", "--tau-star", "2", "--q", "1"],
    "population-one-radius": ["--deltas", "0.7", "--true-v", "2.5", "--tau-star", "1"],
    "data-sharp": ["--data", "DATA", "--deltas", "0:2:0.001"],
    "data-neyman-true-v": ["--data", "DATA", "--deltas", "0:1:0.05", "--bounds", "neyman",
                           "--true-v", "2"],
    "data-q1-true-v": ["--data", "DATA", "--deltas", "0:2:0.1", "--q", "1", "--true-v", "0.5"],
}


def _sweep_rowwise(argv):
    """The CSV that the row-by-row csv.writer path writes for ``argv``."""
    args = _build_parser().parse_args(argv)
    deltas, q = _parse_delta_grid(args.deltas), _q_from_args(args)
    if args.data is None:
        return sweep_csv_rowwise(args.tau_star, None, args.true_v, q, deltas)
    sample = load_sample(args.data, args.outcome or "y", args.treatment or "t")
    (tau1, s1_sq, _, _), (tau0, s0_sq, _, _) = map(central_moments, (sample.treated, sample.control))
    bounds = neyman_bracket(s1_sq, s0_sq) if args.bounds == "neyman" else bounds_of(sample)
    return sweep_csv_rowwise(tau1 - tau0, bounds, args.true_v, q, deltas)


@pytest.mark.parametrize("to_file", [False, True], ids=["stdout", "out"])
@pytest.mark.parametrize("flags", SWEEP_WRITER_CASES.values(), ids=SWEEP_WRITER_CASES.keys())
def test_sweep_writer_matches_rowwise_csv_writer(flags, to_file, case1_csv, tmp_path, capsys):
    argv = ["sweep", *(case1_csv if f == "DATA" else f for f in flags)]
    want = _sweep_rowwise(argv).encode("ascii")
    assert want.count(b"\r\n") == len(_parse_delta_grid(argv[argv.index("--deltas") + 1])) + 1
    # compared as bytes, so that a failure reports the first differing byte
    # instead of a line diff of up to 15,002 lines
    if to_file:
        out = tmp_path / "sweep.csv"
        assert main(argv + ["--out", str(out)]) == 0
        assert out.read_bytes() == want
        assert capsys.readouterr().out == ""
    else:
        assert main(argv) == 0
        assert capsys.readouterr().out.encode("ascii") == want


def test_sweep_into_a_closed_pipe_ends_quietly():
    # `sweep ... | head -1` used to print "error: [Errno 32] Broken pipe" and exit 2
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(Path(cli.__file__).parents[1]),
                                                      env.get("PYTHONPATH")]))
    argv = ["sweep", "--deltas", "0:3:0.0002", "--true-v", "1", "--tau-star", "2"]
    proc = subprocess.Popen([sys.executable, "-m", "drpredict.cli", *argv], env=env,
                            stdout=subprocess.PIPE, stderr=subprocess.PIPE)
    # the table is about 0.7 MB, far more than a pipe holds, so the program
    # is still writing when the pipe closes
    first = proc.stdout.readline()
    proc.stdout.close()
    err = proc.stderr.read()
    proc.stderr.close()
    assert (first, proc.wait(timeout=120), err) == (b"delta,tau_p,tau_o,tau_dr\r\n", 0, b"")


def test_outputs_do_not_depend_on_the_blas_thread_count(tmp_path):
    # equal manifests give equal bytes on any core count: at 15,000 rows the
    # merged-grid sums once went through np.dot, which OpenBLAS splits
    # across threads
    path, _ = _case1_file(tmp_path / "case1.csv", n=15_000)
    commands = [["estimate", "--data", path, "--delta", "0.5", "--json"],
                ["benchmark", "--data", path, "--permutations", "3", "--json"]]
    outputs = []
    for threads in ("1", "2"):
        env = dict(os.environ, OPENBLAS_NUM_THREADS=threads, OMP_NUM_THREADS=threads,
                   MKL_NUM_THREADS=threads)
        env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(Path(cli.__file__).parents[1]),
                                                          env.get("PYTHONPATH")]))
        runs = [subprocess.run([sys.executable, "-m", "drpredict.cli", *argv], env=env,
                               capture_output=True, timeout=300) for argv in commands]
        assert [(proc.returncode, proc.stderr) for proc in runs] == [(0, b"")] * 2
        outputs.append([proc.stdout for proc in runs])
    assert outputs[0] == outputs[1]


# ----------------------------------------------------------- the JSON writer


def _reports_written(monkeypatch, argv):
    """The objects that ``main(argv)`` hands to the JSON file writer."""
    written = []
    real = cli._write_json

    def spy(path, report):
        written.append(report)
        real(path, report)

    monkeypatch.setattr(cli, "_write_json", spy)
    assert main(argv) == 0
    monkeypatch.undo()
    return written


@pytest.mark.parametrize("grid", ["0.7", "0.5,-0", "0:3:0.0002", "0.3,0.1,0.3,-0,2"])
def test_dump_json_matches_the_standard_encoder_on_sweep_manifests(grid, tmp_path, monkeypatch):
    out = tmp_path / "sweep.csv"
    [manifest] = _reports_written(monkeypatch, ["sweep", "--deltas", grid, "--true-v", "1",
                                                "--tau-star", "2", "--out", str(out)])
    want = dump_json(manifest)
    assert _dump_json(manifest) == want
    assert (tmp_path / "sweep.csv.manifest.json").read_text() == want + "\n"


def test_dump_json_matches_the_standard_encoder_on_reports(case1_csv, tmp_path, monkeypatch, capsys):
    reports = []
    for argv in (["estimate", "--data", case1_csv, "--delta", "0.5"],
                 ["infer", "--data", case1_csv, "--delta", "0.5", "--json"]):
        reports += _reports_written(monkeypatch, argv + ["--out", str(tmp_path / "r.json")])
    reports += _reports_written(monkeypatch, ["simulate", "--case", "1", "--n", "200",
                                              "--replications", "100",
                                              "--out", str(tmp_path / "sim")])
    assert len(reports) == 4  # simulate writes its report and its manifest
    for report in reports:
        assert _dump_json(report) == dump_json(report)


def test_dump_json_matches_the_standard_encoder_on_edge_values():
    value = {
        "bools": [True, False], "ints": [0, -7, 2**70], "none": None,
        "tiny": 5e-324, "huge": 1e308, "nan": math.nan, "infs": [math.inf, -math.inf],
        "floats": [1.0, math.nan, -0.0], "overflowing sum": [1e308, 1e308],
        "empty": [], "empty dict": {}, "nested": [[], [[1.5, -0.0], ()], {"k": (1, 2.5)}],
        "array": np.array([[0.25, np.inf], [-0.0, 5e-324]]), "text": 'caf\u00e9 "q"\n',
    }
    for obj in (value, [], {}, 1.5, math.nan, [value, [value]]):
        assert _dump_json(obj) == dump_json(obj)
    with pytest.raises(TypeError):
        _dump_json({"numpy int": np.int64(3)})  # json.dumps rejects it too


def test_sweep_rejects_tau_star_with_data(case1_csv, capsys):
    code = main(["sweep", "--data", case1_csv, "--deltas", "0.1",
                 "--tau-star", "1.8"])
    assert code == 2


# -------------------------------------------------------------------- infer


def test_infer_json_validates_and_nests(case1_csv, capsys):
    code = main(["infer", "--data", case1_csv, "--delta", "0.1", "--json"])
    assert code == 0
    doc = json.loads(capsys.readouterr().out)
    jsonschema.validate(doc, _schema("infer.schema.json"))
    assert doc["status"] == "ok"
    bonf = doc["im_bonferroni"]
    assert bonf["lower"] <= doc["im"]["lower"]
    assert bonf["upper"] >= doc["im"]["upper"]
    # Case 1 truth range is [1.576, 1.722]; a fixed-seed n=600 interval
    # should land in a loose band around it
    assert 0.8 < bonf["lower"] < 1.7
    assert 1.75 < bonf["upper"] < 2.7


def test_infer_zero_effect_exits_4_with_status(tmp_path, capsys):
    rng = np.random.default_rng(11)
    n = 400
    t = (rng.random(n) < 0.5).astype(int)
    path = _write_csv(tmp_path / "null.csv", rng.normal(size=n), t)
    code = main(["infer", "--data", path, "--delta", "0.1", "--json"])
    assert code == 4
    doc = json.loads(capsys.readouterr().out)
    jsonschema.validate(doc, _schema("infer.schema.json"))
    assert doc["status"] == "no-second-step"
    assert doc["im_bonferroni"] is None
    assert doc["first_step"]["lower"] < 0.0 < doc["first_step"]["upper"]


def test_infer_q1_is_usage_error(case1_csv, capsys):
    code = main(["infer", "--data", case1_csv, "--delta", "0.1", "--q", "1"])
    assert code == 2
    assert "q > 1" in capsys.readouterr().err


@pytest.mark.parametrize("argv", [
    ["infer", "--data", "{missing}", "--delta", "0.5", "--alpha", "0.6", "--beta", "0.5"],
    ["simulate", "--case", "1", "--replications", "100", "--alpha", "0.6", "--beta", "0.5",
     "--out", "{out}"],
], ids=["infer", "simulate"])
def test_im_level_above_one_half_exits_2(argv, tmp_path, capsys):
    # the level is refused before the data is read or drawn: the missing
    # file is never opened, and no report is written
    paths = {"missing": str(tmp_path / "missing.csv"), "out": str(tmp_path / "sim")}
    assert main([arg.format(**paths) for arg in argv]) == 2
    assert capsys.readouterr().err == "error: alpha must be in (0, 0.5], got 0.6\n"
    assert list(tmp_path.iterdir()) == []


@pytest.mark.parametrize("argv", [
    ["estimate", "--delta", "0.5", "--q", "1", "--allow-q1"],
    ["infer", "--delta", "0.5", "--grid-points", "101"],
    ["simulate", "--case", "1", "--grid-points", "101"],
], ids=["estimate-allow-q1", "infer-grid-points", "simulate-grid-points"])
def test_deleted_options_are_unknown(argv, case1_csv, tmp_path, capsys):
    # the two-step grid is a fixed 101 points, and estimate --q 1 needs no opt-in
    extra = ["--out", str(tmp_path / "sim")] if argv[0] == "simulate" else ["--data", case1_csv]
    with pytest.raises(SystemExit) as exc:
        main(argv + extra)
    assert exc.value.code == 2
    flag = [arg for arg in argv if arg.startswith("--")][-1]
    assert f"unrecognized arguments: {flag}" in capsys.readouterr().err
    assert sorted(p.name for p in tmp_path.iterdir()) == ["case1.csv"]


def _shifted_arms_file(path, shift, scale=1.0):
    """80 rows: the treated arm is the control arm times ``scale`` plus
    ``shift``. The control arm has six decimals, so that the file's ten
    digits hold a shift of it exactly and the two arm SDs agree to rounding."""
    y0 = np.random.default_rng(5).normal(size=40).round(6)
    return _write_csv(path, np.concatenate((scale * y0 + shift, y0)), np.repeat([1, 0], 40))


_KINK_ERROR = "numerical error: no smooth expansion at v_b = 0 with tau_b = tau_star\n"


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("bounds", ["sharp", "neyman"])
def test_homogeneous_effect_kink_prints_the_estimates_and_infer_exits_3(bounds, tmp_path, capsys):
    # v_o is 0 on either route and tau_o = tau*: the kink, where the
    # delta-method expansion does not exist. estimate prints both
    # predictions with a null sd_o; infer, which needs the SD, exits 3
    path = _shifted_arms_file(tmp_path / "shift.csv", 1.0)
    argv = ["--data", path, "--delta", "0.5", "--bounds", bounds]
    assert main(["estimate", *argv, "--json"]) == 0
    captured = capsys.readouterr()
    assert captured.err == ""
    doc = json.loads(captured.out)
    assert doc["bounds"][bounds]["v_o"] == 0.0
    assert doc["tau_o"] == doc["tau_star"] and 0.0 < doc["tau_p"] < doc["tau_o"]
    assert doc["sd_o"] is None and doc["sd_p"] > 0.0
    assert main(["infer", *argv]) == 3
    assert capsys.readouterr().err == _KINK_ERROR


def test_two_step_grid_kink_is_numerical_error(tmp_path, capsys):
    # at delta = 2 the estimate itself is smooth, but the two-step grid
    # reaches t <= sqrt(2/3), where tau_o = t with v_o = 0
    path = _shifted_arms_file(tmp_path / "shift.csv", 1.0)
    assert main(["infer", "--data", path, "--delta", "2"]) == 3
    assert capsys.readouterr().err == "numerical error: no smooth expansion at v_b = 0 with tau_b = tau_star\n"


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("bounds", ["sharp", "neyman"])
def test_identical_arms_print_the_estimates_and_infer_exits_3(bounds, tmp_path, capsys):
    # tau_hat = 0 and v_o = 0: tau_o = tau_hat sits at the kink
    path = _shifted_arms_file(tmp_path / "same.csv", 0.0)
    assert main(["estimate", "--data", path, "--delta", "0.5", "--bounds", bounds]) == 0
    captured = capsys.readouterr()
    assert captured.err == ""
    lines = captured.out.splitlines()
    assert lines[1].startswith("tau_star = 0   sd = ")
    assert lines[-2].startswith("  tau_p = 0   sd = ") and lines[-2] != "  tau_p = 0   sd = n/a"
    assert lines[-1] == "  tau_o = 0   sd = n/a"
    assert main(["infer", "--data", path, "--delta", "0.5", "--bounds", bounds]) == 3
    assert capsys.readouterr().err == _KINK_ERROR


@pytest.mark.filterwarnings("error")
def test_two_constant_arms_estimate_alike_on_both_routes(tmp_path, capsys):
    # both routes give the bracket (0, 0) and the all-zero Sigma: the same
    # predictions, no SD at the kink, and no warning of any kind
    path = _write_csv(tmp_path / "twoconst.csv", np.repeat([2.5, 1.0], 40), np.repeat([1, 0], 40))
    docs = {}
    for bounds in ("sharp", "neyman"):
        assert main(["estimate", "--data", path, "--delta", "0.5", "--bounds", bounds, "--json"]) == 0
        captured = capsys.readouterr()
        assert captured.err == ""
        docs[bounds] = json.loads(captured.out)
    sharp, neyman = docs["sharp"], docs["neyman"]
    keys = ["tau_star", "tau_p", "tau_o", "sd_tau", "sd_p", "sd_o"]
    assert [sharp[k] for k in keys] == [neyman[k] for k in keys] == [1.5, 1.5, 1.5, 0.0, None, None]
    assert sharp["bounds"] == neyman["bounds"] == {"sharp": {"v_o": 0.0, "v_p": 0.0},
                                                    "neyman": {"v_o": 0.0, "v_p": 0.0}}


def test_neyman_arm_sds_a_millionth_apart_are_not_the_kink(tmp_path, capsys):
    # (s1 - s0) / (s1 + s0) = 5e-7 is far past rounding: the Neyman v_o is
    # small but not 0, so infer gives an interval
    path = _shifted_arms_file(tmp_path / "near.csv", 1.0, scale=1.0 + 1e-6)
    assert main(["estimate", "--data", path, "--delta", "0.5", "--bounds", "neyman", "--json"]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert 0.0 < doc["bounds"]["neyman"]["v_o"] < 1e-10 * doc["bounds"]["neyman"]["v_p"]
    assert doc["sd_o"] > 0.0
    assert main(["infer", "--data", path, "--delta", "0.5", "--bounds", "neyman", "--json"]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert math.isfinite(doc["im"]["lower"]) and math.isfinite(doc["im"]["upper"])


def _zero_mean_file(path):
    """40 treated rows alternating +-2 and 60 control rows alternating +-1:
    tau_hat = 0 exactly, v_o = 1 and v_p = 9."""
    y = np.concatenate((np.tile([2.0, -2.0], 20), np.tile([1.0, -1.0], 30)))
    return _write_csv(path, y, np.repeat([1, 0], [40, 60]))


def test_zero_effect_estimate_reports_the_limit_sds(tmp_path, capsys):
    path = _zero_mean_file(tmp_path / "zeromean.csv")
    assert main(["estimate", "--data", path, "--delta", "0.5", "--q", "2", "--json"]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert (doc["tau_star"], doc["tau_p"], doc["tau_o"]) == (0.0, 0.0, 0.0)
    v = doc["bounds"]["sharp"]
    assert (v["v_p"], v["v_o"]) == pytest.approx((9.0, 1.0), rel=1e-12)
    # the zero-effect limit sigma_tau / (1 + delta sqrt(V_b / 2))
    for sd, v_b in ((doc["sd_p"], v["v_p"]), (doc["sd_o"], v["v_o"])):
        assert sd == pytest.approx(doc["sd_tau"] / (1.0 + 0.5 * math.sqrt(v_b / 2.0)), rel=1e-14)
    # q in (1, 2): B''(0) is infinite, so the zero predictions have no smooth
    # expansion: estimate prints them with null SDs, and infer exits 3
    assert main(["estimate", "--data", path, "--delta", "0.5", "--q", "1.5", "--json"]) == 0
    captured = capsys.readouterr()
    assert captured.err == ""
    doc = json.loads(captured.out)
    assert (doc["tau_star"], doc["tau_p"], doc["tau_o"]) == (0.0, 0.0, 0.0)
    assert doc["sd_p"] is None and doc["sd_o"] is None and doc["sd_tau"] > 0.0
    assert main(["infer", "--data", path, "--delta", "0.5", "--q", "1.5"]) == 3
    assert capsys.readouterr().err == ("numerical error: no smooth expansion at tau_b = 0 for q < 2: "
                                       "the penalty's curvature is not finite\n")


_CUSTOM_DGP = ["--mu1", "1", "--mu0", "0", "--delta", "0.1", "--n", "300", "--replications", "100"]


@pytest.mark.parametrize("argv, code, err", [
    # bisecting [0, 1e60] down to the root near sqrt(2/3) takes over 200 steps
    (["sweep", "--deltas", "2", "--true-v", "1", "--tau-star", "1e60"], 0, ""),
    # outcomes of scale 1e-200: the arm variance underflows to 0
    (["estimate", "--data", "{tiny}", "--delta", "0.5"], 3,
     "numerical error: treated arm variance 0.0: the outcome scale (arm SD 0) is beyond double precision"),
    # the treated arm, 1 + 1e-300 z, rounds to a constant arm, which is exact
    (["simulate", *_CUSTOM_DGP, "--sigma1", "1e-300", "--sigma0", "1e-300", "--out", "{out}"], 3,
     "numerical error: control arm variance 0.0: the outcome scale (arm SD 0) is beyond double precision"),
    (["simulate", *_CUSTOM_DGP, "--sigma1", "1e300", "--sigma0", "1e300", "--out", "{out}"],
     2, "error: variance must be finite"),
    # z(1 - level/2) is infinite for these alpha - beta and alpha
    (["infer", "--data", "{case1}", "--delta", "0.5", "--alpha", "0.05",
      "--beta", "0.04999999999999999"], 2, "error: level 1.3877787807814457e-17 is too small"),
    (["infer", "--data", "{case1}", "--delta", "0.5", "--alpha", "1e-17", "--beta", "0"],
     2, "error: level 1e-17 is too small"),
    (["simulate", *_CUSTOM_DGP, "--sigma1", "2", "--sigma0", "1", "--alpha", "1e-300",
      "--beta", "0", "--out", "{out}"], 2, "error: level 1e-300 is too small"),
    # outcomes of scale 1e200: fourth moments and squared gaps overflow
    (["estimate", "--data", "{huge}", "--delta", "0.5"], 3,
     "numerical error: the fourth moments of the treated arm overflow: the outcome scale (arm SD 9.78e+199,"),
    (["estimate", "--data", "{huge}", "--delta", "0.5", "--bounds", "neyman"], 3,
     "numerical error: the fourth moments of the treated arm overflow: the outcome scale (arm SD 9.78e+199,"),
    (["benchmark", "--data", "{huge}"], 3,
     "numerical error: the squared quantile gaps of the treated arm overflow: the outcome scale (arm SD 9.78e+199,"),
    # a treated arm at 1e300, whose unit SD is lost in rounding
    (["simulate", "--mu1", "1e300", "--mu0", "0", "--sigma1", "1", "--sigma0", "1", "--delta", "0.1",
      "--replications", "100", "--out", "{out}"], 3,
     "numerical error: the fourth moments of the treated arm overflow: the outcome scale (arm SD 0, "
     "largest |y| 1e+300) is beyond double precision"),
    # outcomes near 5e307: each arm's sum overflows before its mean is taken
    (["estimate", "--data", "{vast}", "--delta", "0.5", "--q", "1"], 3,
     "numerical error: the squared quantile gaps of the control arm overflow"),
    (["estimate", "--data", "{vast}", "--delta", "0.5", "--q", "1", "--bounds", "neyman"], 3,
     "numerical error: the second moments of the treated arm overflow"),
    # outcomes near 1e200 with an SD of 1e197: the means are finite, the variances overflow
    (["estimate", "--data", "{wide}", "--delta", "0.5", "--q", "1", "--bounds", "neyman"], 3,
     "numerical error: the second moments of the treated arm overflow"),
    # a treated arm of scale 1e-160 beside a unit control arm: the Neyman
    # loading 1 + sigma0/sigma1 squares past double precision, but the arm's
    # influence terms are exactly 0, so it adds nothing to Sigma
    (["estimate", "--data", "{subnormal}", "--delta", "0.5", "--bounds", "neyman"], 0, ""),
    # input errors of a range, a mask, a file and a worker count
    (["sweep", "--deltas", "2:1:0.5", "--true-v", "1", "--tau-star", "1"], 2,
     "error: --deltas range '2:1:0.5' is empty"),
    (["benchmark", "--data", "{masked}", "--split", "provided_mask", "--mask-col", "m"], 2,
     "error: mask entries must be 0 or 1, got '2' (row 4, column 'm')"),
    (["estimate", "--data", "{empty}", "--delta", "0.5"], 2, "error: empty file: no header row (row 1)"),
    (["simulate", "--case", "1", "--workers", "0", "--out", "{out}"], 2, "error: workers must be >= 1, got 0"),
], ids=["sweep-tau-star-1e60", "estimate-tiny-scale", "simulate-tiny-sd", "simulate-huge-sd",
        "infer-alpha-minus-beta", "infer-alpha", "simulate-alpha", "estimate-huge-scale",
        "estimate-huge-scale-neyman", "benchmark-huge-scale", "simulate-huge-mean",
        "estimate-q1-overflowing-sum", "estimate-q1-overflowing-sum-neyman",
        "estimate-q1-overflowing-variance-neyman", "estimate-subnormal-arm-neyman", "sweep-empty-range", "benchmark-mask-entry-2",
        "estimate-empty-file", "simulate-workers-0"])
def test_extreme_inputs_end_in_a_documented_exit_code(argv, code, err, case1_csv, tmp_path, capsys):
    rng = np.random.default_rng(6)
    tiny = _write_csv(tmp_path / "tiny.csv", 1e-200 * rng.normal(size=400), np.repeat([1, 0], 200))
    huge = _write_csv(tmp_path / "huge.csv", 1e200 * rng.normal(size=400), np.repeat([1, 0], 200))
    vast = _write_csv(tmp_path / "vast.csv", 1e306 * (50.0 + np.random.default_rng(1).normal(size=1000)),
                      np.repeat([1, 0], 500))
    wide = _write_csv(tmp_path / "wide.csv", 1e200 * (1.0 + 1e-3 * np.random.default_rng(2).normal(size=1000)),
                      np.repeat([1, 0], 500))
    subnormal = _write_csv(tmp_path / "subnormal.csv", np.concatenate((1e-160 * rng.normal(size=200),
                                                                       rng.normal(size=200))),
                           np.repeat([1, 0], 200))
    masked = _write_csv(tmp_path / "masked.csv", [1.0, 2.0, 3.0, 4.0], [1, 0, 1, 0], {"m": [0, 1, 2, 0]})
    (tmp_path / "empty.csv").write_bytes(b"")
    paths = {"tiny": tiny, "huge": huge, "vast": vast, "wide": wide, "subnormal": subnormal, "case1": case1_csv,
             "masked": masked, "empty": str(tmp_path / "empty.csv"), "out": str(tmp_path / "run")}
    assert main([a.format(**paths) for a in argv]) == code
    captured = capsys.readouterr()
    assert captured.err.startswith(err)
    assert "warning" not in captured.err
    if argv[0] == "sweep" and code == 0:
        assert captured.out.splitlines()[1] == "2,0.8164965809,0.8164965809,0.8164965809"


# ----------------------------------------------------------------- simulate


def test_simulate_case1_files_validate_and_rerun_identically(tmp_path, capsys):
    args = ["simulate", "--case", "1", "--n", "300", "--replications", "120",
            "--seed", "9", "--out", str(tmp_path / "run")]
    assert main(args) == 0
    capsys.readouterr()
    doc = json.loads((tmp_path / "run.json").read_text())
    jsonschema.validate(doc, _schema("simulate.schema.json"))
    report = doc["reports"][0]
    assert report["case"] == "case1"
    assert report["truth"]["tau_dr"] == pytest.approx(1.686, abs=2e-3)
    assert 0.85 <= report["coverage_im"] <= 1.0
    assert report["coverage_bonf"] >= report["coverage_im"] - 0.02

    first = {p.name: p.read_bytes() for p in tmp_path.iterdir()}
    assert main(args) == 0
    capsys.readouterr()
    second = {p.name: p.read_bytes() for p in tmp_path.iterdir()}
    assert first == second


def test_simulate_threads_do_not_change_output(tmp_path, capsys):
    base = ["simulate", "--case", "1", "--n", "300", "--replications", "100",
            "--seed", "9"]
    assert main(base + ["--out", str(tmp_path / "serial")]) == 0
    assert main(base + ["--threads", "3", "--out", str(tmp_path / "pooled")]) == 0
    capsys.readouterr()
    serial = (tmp_path / "serial.csv").read_bytes()
    pooled = (tmp_path / "pooled.csv").read_bytes()
    assert serial == pooled
    assert json.loads((tmp_path / "serial.json").read_text())["reports"] == \
        json.loads((tmp_path / "pooled.json").read_text())["reports"]


def test_simulate_workers_and_threads_spell_one_flag(tmp_path, capsys, monkeypatch):
    def no_pool(*args, **kwargs):
        raise AssertionError("a process pool was started")

    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", no_pool)
    base = ["simulate", "--case", "1", "--n", "300", "--replications", "100",
            "--seed", "9"]
    assert main(base + ["--workers", "1", "--out", str(tmp_path / "w")]) == 0
    assert main(base + ["--threads", "1", "--out", str(tmp_path / "t")]) == 0
    capsys.readouterr()
    for suffix in (".json", ".csv", ".manifest.json"):
        assert (tmp_path / f"w{suffix}").read_bytes() == (tmp_path / f"t{suffix}").read_bytes()


def test_simulate_too_few_replications_exits_2(tmp_path, capsys):
    code = main(["simulate", "--case", "1", "--replications", "10",
                 "--out", str(tmp_path / "x")])
    assert code == 2
    assert "replications" in capsys.readouterr().err


def test_simulate_case_and_dgp_flags_conflict(tmp_path, capsys):
    # a preset fixes rho and e as well; a run that ignored --rho or --e would
    # report the preset's design under them
    for flag in (["--mu1", "2.0"], ["--rho", "0.2"], ["--e", "0.5"]):
        code = main(["simulate", "--case", "1", *flag, "--replications", "100",
                     "--out", str(tmp_path / "x")])
        assert code == 2
        err = capsys.readouterr().err
        assert err.startswith("error: --case presets fix the design")
        assert "/--rho/--e/" in err
        assert not (tmp_path / "x.json").exists()


def test_simulate_custom_dgp_needs_all_flags(tmp_path, capsys):
    code = main(["simulate", "--mu1", "2.0", "--mu0", "0.2",
                 "--out", str(tmp_path / "x")])
    assert code == 2
    assert "--sigma1" in capsys.readouterr().err


def test_simulate_custom_dgp_runs(tmp_path, capsys):
    code = main(["simulate", "--mu1", "2.0", "--mu0", "0.2", "--sigma1", "2.0",
                 "--sigma0", "1.0", "--delta", "0.1", "--n", "300",
                 "--replications", "100", "--out", str(tmp_path / "run")])
    assert code == 0
    doc = json.loads((tmp_path / "run.json").read_text())
    jsonschema.validate(doc, _schema("simulate.schema.json"))
    assert doc["reports"][0]["case"] == "custom"
    assert doc["manifest"]["config"]["rho"] == 0.7


# ---------------------------------------------------------------- benchmark


def test_benchmark_identical_subsamples_near_zero(tmp_path, capsys):
    # each arm = two interleaved copies of the same values: the provided mask
    # splits both arms into identical cells
    base1 = np.linspace(0.0, 5.0, 40)
    base0 = np.linspace(-1.0, 1.0, 30)
    y = np.concatenate([base1, base1, base0, base0])
    t = np.concatenate([np.ones(80), np.zeros(60)])
    cell = np.concatenate(
        [np.ones(40), np.zeros(40), np.ones(30), np.zeros(30)]
    ).astype(int)
    path = _write_csv(tmp_path / "dup.csv", y, t, extra={"cell": cell})
    code = main(["benchmark", "--data", path, "--split", "provided_mask",
                 "--mask-col", "cell", "--permutations", "0", "--json"])
    assert code == 0
    doc = json.loads(capsys.readouterr().out)
    jsonschema.validate(doc, _schema("benchmark.schema.json"))
    assert doc["w2_y1"] == pytest.approx(0.0, abs=1e-12)
    assert doc["w2_y0"] == pytest.approx(0.0, abs=1e-12)
    assert doc["null_p95"] is None


def test_benchmark_shifted_cells_recover_shift(tmp_path, capsys):
    rng = np.random.default_rng(3)
    half1, half0 = rng.normal(size=50), rng.normal(size=45)
    shift = 0.75
    y = np.concatenate([half1, half1 + shift, half0, half0 + shift])
    t = np.concatenate([np.ones(100), np.zeros(90)])
    cell = np.concatenate(
        [np.ones(50), np.zeros(50), np.ones(45), np.zeros(45)]
    ).astype(int)
    path = _write_csv(tmp_path / "shift.csv", y, t, extra={"cell": cell})
    code = main(["benchmark", "--data", path, "--split", "provided_mask",
                 "--mask-col", "cell", "--permutations", "150", "--json"])
    assert code == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["w2_y1"] == pytest.approx(shift, abs=1e-10)
    assert doc["w2_y0"] == pytest.approx(shift, abs=1e-10)
    assert doc["joint_lower_bound"] == pytest.approx(math.hypot(shift, shift), abs=1e-9)
    assert doc["joint_lower_bound"] > doc["null_p95"]  # a real shift, not noise


def test_benchmark_missing_mask_column_exits_2(case1_csv, capsys):
    code = main(["benchmark", "--data", case1_csv, "--split", "provided_mask",
                 "--mask-col", "cell"])
    assert code == 2
    assert "'cell'" in capsys.readouterr().err


@pytest.mark.parametrize("row, want", [
    ("2.0,0, 1", [False, True, True]),  # stripped, as the row parser does
    ('2.0,0,"1"', [False, True, True]),
    ("2.0,0,01", "mask entries must be 0 or 1, got '01' (row 3, column 'm')"),
    ("2.0,0,+1", "mask entries must be 0 or 1, got '+1' (row 3, column 'm')"),
    ("2.0,0,1.0", "mask entries must be 0 or 1, got '1.0' (row 3, column 'm')"),
    ("2.0,0,", "mask entries must be 0 or 1, got '' (row 3, column 'm')"),
    ("2.0,0", "mask entries must be 0 or 1, got '' (row 3, column 'm')"),  # a short row
    ("2.0,0,1", [False, True, True]),
], ids=["space-1", "quoted-1", "01", "plus-1", "1.0", "blank", "short-row", "clean"])
def test_mask_column_reads_as_the_row_parser(row, want, tmp_path, monkeypatch):
    path = tmp_path / "m.csv"
    path.write_text(f"y,t,m\n1.0,1,0\n{row}\n3.0,1,1\n")

    def outcome():
        try:
            return load_mask(path, "m").tolist()
        except ParseError as err:
            return str(err)

    assert outcome() == want
    with monkeypatch.context() as patch:  # the row reading alone
        patch.setattr(sample_module, "_read_columns", lambda *args: None)
        assert outcome() == want
    if row == "2.0,0,1":  # a clean column is the C reader's alone
        monkeypatch.setattr(sample_module, "_rows", None)
        assert outcome() == want


def test_benchmark_reports_a_data_error_before_a_mask_error(tmp_path, capsys):
    # a bad mask entry in row 2 and an unparsable outcome in row 4: the
    # sample is read, and its error reported, before the mask
    path = tmp_path / "two_faults.csv"
    path.write_text("y,t,m\n1.0,1,2\n2.0,0,0\noops,1,1\n3.0,0,1\n")
    code = main(["benchmark", "--data", str(path), "--split", "provided_mask", "--mask-col", "m"])
    assert (code, capsys.readouterr().err) == (
        2, "error: cannot parse outcome 'oops' as a real number (row 4, column 'y')\n")


def test_benchmark_mask_flag_required_with_provided_mask(case1_csv, capsys):
    code = main(["benchmark", "--data", case1_csv, "--split", "provided_mask"])
    assert code == 2
    assert "--mask-col" in capsys.readouterr().err


@pytest.mark.parametrize("split", [[], ["--split", "halves"], ["--split", "median_outcome"]],
                         ids=["default", "halves", "median_outcome"])
def test_benchmark_mask_col_without_provided_mask_exits_2(split, case1_csv, tmp_path, capsys):
    # the flags are checked before the data file is read: a missing file
    # gets the same message, and nothing is written
    chosen = "median_outcome" if not split else split[1]
    for data in (case1_csv, str(tmp_path / "absent.csv")):
        out = tmp_path / "bench.json"
        code = main(["benchmark", "--data", data, *split, "--mask-col", "nosuchcol", "--out", str(out)])
        captured = capsys.readouterr()
        assert code == 2
        assert captured.err == f"error: --mask-col needs --split provided_mask, got --split {chosen}\n"
        assert captured.out == "" and not out.exists()


@pytest.mark.parametrize("args", [
    ["benchmark", "--seed", "-1", "--permutations", "5"],
    ["benchmark", "--permutations", "-3"],
    ["simulate", "--case", "1", "--replications", "100", "--seed", "-1"],
], ids=["benchmark-seed", "benchmark-permutations", "simulate-seed"])
def test_negative_seed_or_permutations_exits_2(args, case1_csv, tmp_path, capsys):
    extra = ["--data", case1_csv] if args[0] == "benchmark" else ["--out", str(tmp_path / "sim")]
    assert main(args + extra) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and "must be >= 0, got -" in err
    assert sorted(p.name for p in tmp_path.iterdir()) == ["case1.csv"]


HUGE = "1000000000000"


@pytest.mark.parametrize("args", [
    ["simulate", "--case", "1", "--n", HUGE],
    ["simulate", "--mu1", "1", "--mu0", "0", "--sigma1", "2", "--sigma0", "1", "--delta", "0.2",
     "--n", "1" + "0" * 21],
    ["simulate", "--case", "1", "--n", "100", "--replications", HUGE],
    ["benchmark", "--permutations", HUGE],
], ids=["simulate-n", "simulate-custom-n", "simulate-replications", "benchmark-permutations"])
def test_huge_count_exits_2_before_allocating(args, case1_csv, tmp_path, capsys):
    # each count has a cap; past it the run is an input error, not a
    # MemoryError traceback or a run that never ends
    extra = ["--out", str(tmp_path / "sim")] if args[0] == "simulate" else ["--data", case1_csv]
    tracemalloc.start()
    try:
        code = main(args + extra)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert code == 2
    assert peak < 1 << 20
    err = capsys.readouterr().err
    assert err.startswith("error: --") and "must be at most" in err
    assert sorted(p.name for p in tmp_path.iterdir()) == ["case1.csv"]


def test_benchmark_determinism(case1_csv, capsys):
    args = ["benchmark", "--data", case1_csv, "--permutations", "80",
            "--seed", "5", "--json"]
    assert main(args) == 0
    first = capsys.readouterr().out
    assert main(args) == 0
    assert capsys.readouterr().out == first


# ----------------------------------------------------------------- manifest


def test_manifest_round_trip_and_equality(tmp_path):
    data = tmp_path / "data.csv"
    data.write_bytes(b"y,t\n1.0,1\n2.0,0\n")
    m1 = _manifest("estimate", {"delta": 0.1, "q": 2.0}, str(data))
    m2 = _manifest("estimate", {"delta": 0.1, "q": 2.0}, str(data))
    assert m1 == m2
    assert list(m1) == ["command", "config", "version", "input_sha256"]
    assert m1["command"] == "estimate"
    assert m1["input_sha256"] == hashlib.sha256(data.read_bytes()).hexdigest()
    assert json.loads(json.dumps(m1)) == m1
    jsonschema.validate(m1, _schema("manifest.schema.json"))
    assert m1 != _manifest("estimate", {"delta": 0.2, "q": 2.0}, str(data))
    assert _manifest("simulate", {"seed": 0})["input_sha256"] is None
