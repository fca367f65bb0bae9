"""Performance benchmark of the drpredict CLI: end to end, and per layer.

    python3 perfbench/run.py [--workload trial-1e6|coverage-n1000|sweep-dense|all]
                             [--seed N] [--seconds S] [--trace 0|1]

Run from the root of a checkout; the package is taken from ``src`` there, as
``python -m drpredict.cli`` with ``src`` on PYTHONPATH. Inputs are generated
from ``--seed`` under ``.perfbench_work/``. Every invocation's output is
checked against computations made apart from the program (``oracle.py``).

``--trace 0`` times each invocation as its own process (wall time, and peak
RSS from ``os.wait4``) in whole rounds until ``--seconds`` have passed and
at least ``workloads.MIN_ROUNDS`` rounds have run. It reports the end-to-end
metrics of BENCHMARK.json: the median over the run's invocations, scaled by
the machine-speed index around each invocation (``speed.py``). ``--trace 1`` runs the same
rounds in process through ``drpredict.cli.main``, once plain and once with
timing wrappers (``inproc.py``), and reports the per-layer metrics.

The last line of stdout is one JSON object:
{"correct": ..., "attempted": ..., "failed": ..., "metrics": {name: {"value", "unit"}}}
"""

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
# Started before numpy is loaded: every timed process is forked from it, so
# that this process's pages do not count in their peak RSS (see spawner.py).
SPAWNER = subprocess.Popen([sys.executable, str(HERE / "spawner.py")], stdin=subprocess.PIPE,
                           stdout=subprocess.PIPE, text=True)

import speed  # noqa: E402
import workloads  # noqa: E402

ROOT = HERE.parent
SRC = ROOT / "src"
WORK_ROOT = ROOT / ".perfbench_work"
OK_EXITS = {0, 2, 3, 4}
TRACEBACK = "Traceback (most recent call last)"
# One BLAS thread per process: the machine is small and shared, and the
# program's matrix products are tiny next to its numpy elementwise work.
THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
SPEED_SAMPLES = 2  # speed.sample() passes before each invocation
TIMES = ("setup_s", "estimate_s", "infer_s", "calibrate_s")
RATES = ("replications_per_s", "solves_per_s")


def child_env():
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, (str(SRC), env.get("PYTHONPATH"))))
    env.update({var: "1" for var in THREAD_VARS})
    return env


def run_process(cmd, stdout_path, stderr_path, env):
    """Run one process to its end: (exit code, wall seconds, peak RSS in MB)."""
    request = {"cmd": cmd, "cwd": str(ROOT), "env": env, "stdout": str(stdout_path), "stderr": str(stderr_path)}
    SPAWNER.stdin.write(json.dumps(request) + "\n")
    SPAWNER.stdin.flush()
    reply = json.loads(SPAWNER.stdout.readline())
    return reply["code"], reply["wall"], reply["maxrss_kb"] / 1024.0  # ru_maxrss is in KiB on Linux


def process_problems(code, stderr):
    problems = []
    if code not in OK_EXITS:
        problems.append(f"exit code {code}")
    if TRACEBACK in stderr:
        problems.append("traceback: " + stderr.strip().splitlines()[-1])
    return problems


def judge(op, code, stdout, stderr):
    """Problems with one invocation; none means it succeeded."""
    problems = process_problems(code, stderr)
    if not problems:
        try:
            problems += op.check(stdout)
        except (KeyError, TypeError, ValueError, IndexError) as exc:
            problems.append(f"malformed output: {exc!r}")
    return problems


class Tally:
    """Operations attempted and failed; a failure not expected makes the run incorrect."""

    def __init__(self):
        self.attempted = self.failed = 0
        self.correct = True
        self.reported = set()

    def add(self, index, op, problems):
        self.attempted += 1
        if not problems:
            return
        self.failed += 1
        self.correct &= op.expect_fail
        if index not in self.reported:  # rounds repeat the same failure
            self.reported.add(index)
            label = "expected failure" if op.expect_fail else "FAILED"
            print(f"  {label}: op {index} ({' '.join(op.argv[:1] + op.argv[-6:])}): {'; '.join(problems)[:400]}")


def speed_indices(timings):
    """Each invocation's speed index: the median of the speed passes taken
    before the invocations within a quarter of the run on either side of it,
    over speed.NOMINAL_S. The machine's speed wanders within a run too, so a
    window near the invocation follows it better than the whole run does."""
    h = len(timings) // 4
    return [statistics.median(p for t in timings[max(0, k - h):k + h + 1] for p in t["speed"])
            / speed.NOMINAL_S for k in range(len(timings))]


def end_to_end(ops, timings, indices):
    """The time and rate metrics of the run, from each succeeding invocation's
    wall time divided by its speed index."""
    samples = {name: [] for name in TIMES + RATES}
    sweeps = {}  # round -> [solves, scaled wall]
    for t, index in zip(timings, indices):
        if not t["ok"]:
            continue
        op, scaled = ops[t["op"]], t["wall"] / index
        if op.kind == "simulate":
            samples["replications_per_s"].append(op.work / scaled)
        elif op.kind == "sweep":
            acc = sweeps.setdefault(t["round"], [0.0, 0.0])
            acc[0] += op.work
            acc[1] += scaled
        else:
            samples[f"{op.kind}_s"].append(scaled)
    samples["solves_per_s"] = [solves / wall for solves, wall in sweeps.values()]
    return {name: statistics.median(v) for name, v in samples.items() if v}


def run_untraced(ops, seconds, min_rounds, work, env):
    tally = Tally()
    cli = [sys.executable, "-m", "drpredict.cli"]
    # One CPU for this process and the spawner's children, so that the speed
    # index is taken on the CPU the invocations run on.
    cpu = {max(os.sched_getaffinity(0))}
    os.sched_setaffinity(0, cpu)
    os.sched_setaffinity(SPAWNER.pid, cpu)
    # Untimed: the first process of a run pays for cold files and bytecode.
    run_process(cli + ["--help"], work / "warmup.out", work / "warmup.err", env)
    for _ in range(SPEED_SAMPLES):
        speed.sample()
    timings = []  # one record per invocation; also written to timings.json
    peak = 0.0
    start = time.perf_counter()
    rounds = 0
    while True:
        for i, op in enumerate(ops):
            if op.out is not None:
                op.out.unlink(missing_ok=True)
            out, err = work / f"op{i}.out", work / f"op{i}.err"
            passes = [speed.sample() for _ in range(SPEED_SAMPLES)]
            code, wall, rss = run_process(cli + op.argv, out, err, env)
            peak = max(peak, rss)
            problems = judge(op, code, out.read_text(errors="replace"), err.read_text(errors="replace"))
            if op.kind != "setup":
                tally.add(i, op, problems)
            elif problems:
                print(f"  FAILED: drpredict --help: {'; '.join(problems)[:400]}")
                tally.correct = False
            timings.append({"round": rounds, "op": i, "kind": op.kind, "wall": wall,
                            "speed": passes, "ok": not problems})
        rounds += 1
        if rounds >= min_rounds and time.perf_counter() - start >= seconds:
            break
    (work / "timings.json").write_text(json.dumps(timings), encoding="utf-8")
    indices = speed_indices(timings)
    values = end_to_end(ops, timings, indices)
    values["peak_rss_mb"] = peak
    raw = end_to_end(ops, timings, [1.0] * len(timings))
    print(f"  {rounds} round(s) of {len(ops)} invocations, "
          f"{sum(t['kind'] == 'setup' for t in timings)} of them setup")
    print(f"  speed index {statistics.median(indices):.4f} (median; {min(indices):.4f}-{max(indices):.4f}); "
          "unscaled medians: " + ", ".join(f"{name} {value:.6g}" for name, value in raw.items()))
    return tally, values


def run_traced(ops, seconds, work, env):
    """One in-process child without wrappers, one with; per-layer values per round.

    In process, ``--help`` would only print usage and exit, so the setup
    invocations are left out, and one round is enough whatever MIN_ROUNDS says.
    """
    ops = [op for op in ops if op.kind != "setup"]
    tally = Tally()
    children = {}
    for trace in (False, True):
        tag = "traced" if trace else "plain"
        plan_path, result_path = work / f"plan-{tag}.json", work / f"result-{tag}.json"
        for op in ops:
            if op.out is not None:
                op.out.unlink(missing_ok=True)
        plan = {"argv": [op.argv for op in ops], "seconds": seconds, "trace": trace,
                "spans": str(work / "spans.json")}
        plan_path.write_text(json.dumps(plan), encoding="utf-8")
        cmd = [sys.executable, str(HERE / "inproc.py"), str(plan_path), str(result_path)]
        code, _, _ = run_process(cmd, work / f"{tag}.out", work / f"{tag}.err", env)
        if code != 0:
            raise RuntimeError(f"in-process {tag} run exited {code}: "
                               + (work / f"{tag}.err").read_text(errors="replace")[-2000:])
        result = json.loads(result_path.read_text(encoding="utf-8"))
        # Outputs on disk are the last round's; rounds repeat identical inputs.
        last = result["rounds"][-1]["ops"]
        checked = [judge(op, r["exit"], r["stdout"], r["stderr"]) for op, r in zip(ops, last)]
        for rnd in result["rounds"]:
            for i, (op, r) in enumerate(zip(ops, rnd["ops"])):
                tally.add(i, op, process_problems(r["exit"], r["stderr"]) or checked[i])
        children[tag] = result
        print(f"  {tag}: {len(result['rounds'])} round(s), median round "
              f"{statistics.median(r['wall'] for r in result['rounds']):.3f} s")

    traced = children["traced"]
    rounds = len(traced["rounds"])
    values = {"cli.import_s": traced["import_s"],
              "trace.overhead_s": statistics.median(r["wall"] for r in traced["rounds"])
              - statistics.median(r["wall"] for r in children["plain"]["rounds"])}
    for prefix, agg in traced["layers"].items():
        for field, total in agg.items():
            values[f"{prefix}.{field}"] = total / rounds
    for name in traced["absent"]:
        print(f"  absent: {name} (no such function in this version; its metrics read 0)")
    return tally, values


def run_workload(name, seed, seconds, trace, spec):
    work = WORK_ROOT / name
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    print(f"workload {name}: seed {seed}, {seconds} s, trace {int(trace)}")
    start = time.perf_counter()
    ops = workloads.build(name, work, seed)
    print(f"  inputs generated in {time.perf_counter() - start:.2f} s")
    env = child_env()
    if trace:
        tally, values = run_traced(ops, seconds, work, env)
    else:
        tally, values = run_untraced(ops, seconds, workloads.MIN_ROUNDS.get(name, 1), work, env)
    for path in work.glob("trial-*.csv"):
        path.unlink()

    metrics = {}
    for m in spec["per_layer" if trace else "end_to_end"]:
        value = values.get(m["name"])
        if value is None:
            print(f"  FAILED: no value for {m['name']}")
            tally.correct = False
            continue
        metrics[m["name"]] = {"value": value, "unit": m["unit"]}
        print(f"  {m['name']:<40} {value:>14.6g} {m['unit']}")
    print(f"  operations: attempted {tally.attempted}, failed {tally.failed}, correct {tally.correct}")
    return {"correct": tally.correct, "attempted": tally.attempted, "failed": tally.failed, "metrics": metrics}


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", default="all", choices=(*workloads.WORKLOADS, "all"))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=None,
                        help="measuring time per run (default: run_seconds of BENCHMARK.json)")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seed < 0:
        parser.error("--seed must be >= 0")

    if not (SRC / "drpredict" / "cli.py").is_file():
        print(f"error: no drpredict package under {SRC}; run from a checkout of the repository",
              file=sys.stderr)
        return 2
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    seconds = spec["run_seconds"] if args.seconds is None else args.seconds
    names = workloads.WORKLOADS if args.workload == "all" else (args.workload,)

    results = {name: run_workload(name, args.seed, seconds, bool(args.trace), spec) for name in names}
    if len(results) == 1:
        final = results[names[0]]
    else:
        for name, res in results.items():
            print(json.dumps({"workload": name, **res}))
        final = {
            "correct": all(r["correct"] for r in results.values()),
            "attempted": sum(r["attempted"] for r in results.values()),
            "failed": sum(r["failed"] for r in results.values()),
            "metrics": {f"{name}/{k}": v for name, r in results.items() for k, v in r["metrics"].items()},
        }
    print(json.dumps(final))
    return 0


if __name__ == "__main__":
    try:
        sys.exit(main())
    finally:
        SPAWNER.stdin.close()
        SPAWNER.wait()
