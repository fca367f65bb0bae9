"""Run planned drpredict CLI invocations in one process, optionally traced.

    python perfbench/inproc.py PLAN.json RESULT.json

PLAN.json holds ``argv`` (a list of argument lists for ``drpredict.cli.main``),
``seconds`` (rounds repeat until this much time has passed), ``trace`` and
``spans`` (where the spans go). With ``trace`` true, timing wrappers are put
around the functions in ``TARGETS``, rebound under every name that holds
them in any ``drpredict`` module, and each call records a span
[name, start, end, parent, points, raised] in memory; all spans are written
to the ``spans`` file when the run ends. The program itself is not changed.
"""

import contextlib
import functools
import io
import json
import sys
import time
import traceback

# metric prefix -> (module, function). Private functions may disappear in a
# later version; they are then reported as absent.
TARGETS = {
    "cli.main": ("drpredict.cli", "main"),
    "sample.load_sample": ("drpredict.sample", "load_sample"),
    "moments.estimate_moments": ("drpredict.moments", "estimate_moments"),
    "bounds.sharp_bounds_empirical": ("drpredict.bounds", "sharp_bounds_empirical"),
    "covariance.sigma_sharp": ("drpredict.covariance", "sigma_sharp"),
    "covariance.kde": ("drpredict.covariance", "_kde_at"),
    "covariance.loadings": ("drpredict.covariance", "loadings"),
    "solver.solve_minimax": ("drpredict.solver", "solve_minimax"),
    "solver.solve_minimax_many": ("drpredict.solver", "solve_minimax_many"),
    "inference.im_critical": ("drpredict.inference", "_im_critical"),
    "inference.two_step": ("drpredict.inference", "_two_step_from_pieces"),
    "simulation.draw_sample": ("drpredict.simulation", "draw_sample"),
    "simulation.run_coverage_study": ("drpredict.simulation", "run_coverage_study"),
    "calibration.split_benchmark": ("drpredict.calibration", "split_benchmark"),
    "calibration.wasserstein2_1d": ("drpredict.calibration", "wasserstein2_1d"),
}
# Targets whose first argument is an array; its size is recorded as points.
COUNT_POINTS = {"solver.solve_minimax_many", "inference.im_critical"}
STDOUT_KEEP = 65536  # bytes of an invocation's stdout kept for its check


class Tracer:
    def __init__(self):
        self.spans = []
        self.stack = []

    def wrap(self, name, fn):
        spans, stack = self.spans, self.stack
        clock = time.perf_counter
        points = name in COUNT_POINTS
        from numpy import size  # loaded by drpredict by now, so outside the timed import

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            rec = [name, 0.0, 0.0, stack[-1] if stack else -1,
                   int(size(args[0])) if points and args else 0, False]
            stack.append(len(spans))
            spans.append(rec)
            rec[1] = clock()
            try:
                return fn(*args, **kwargs)
            except BaseException:
                rec[5] = True
                raise
            finally:
                rec[2] = clock()
                stack.pop()

        return wrapper

    def install(self):
        """Wrap every target; return the names of targets that do not exist."""
        modules = [m for k, m in list(sys.modules.items())
                   if m is not None and (k == "drpredict" or k.startswith("drpredict."))]
        absent = []
        for name, (modname, attr) in TARGETS.items():
            original = getattr(sys.modules.get(modname), attr, None)
            if original is None:
                absent.append(name)
                continue
            wrapper = self.wrap(name, original)
            for module in modules:
                for key, value in list(vars(module).items()):
                    if value is original:
                        setattr(module, key, wrapper)
        return absent


def summarise(spans):
    """Per target: self time (duration minus direct wrapped children), calls,
    calls that raised, and points."""
    child = [0.0] * len(spans)
    for name, start, end, parent, _, _ in spans:
        if parent >= 0:
            child[parent] += end - start
    out = {name: {"self_s": 0.0, "calls": 0, "raised": 0, "points": 0} for name in TARGETS}
    for i, (name, start, end, _, points, raised) in enumerate(spans):
        agg = out[name]
        agg["self_s"] += end - start - child[i]
        agg["calls"] += 1
        agg["raised"] += raised
        agg["points"] += points
    return out


def _invoke(cli, argv):
    out, err = io.StringIO(), io.StringIO()
    tb = None
    start = time.perf_counter()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = cli.main(argv)
        except SystemExit as exc:
            code = exc.code if isinstance(exc.code, int) else int(exc.code is not None)
        except Exception:  # recorded as a failed operation, like a crashed process
            code = 1
            tb = traceback.format_exc()
    wall = time.perf_counter() - start
    stderr = err.getvalue() + (tb or "")
    return {"exit": code, "wall": wall, "stdout": out.getvalue()[:STDOUT_KEEP], "stderr": stderr}


def main(plan_path, result_path):
    with open(plan_path, encoding="utf-8") as fh:
        plan = json.load(fh)
    start = time.perf_counter()
    import drpredict.cli  # noqa: F401  (timed: the package's import cost)
    import_s = time.perf_counter() - start
    cli = sys.modules["drpredict.cli"]

    tracer = Tracer()
    absent = tracer.install() if plan["trace"] else []
    rounds = []
    start = time.perf_counter()
    while True:
        begin = time.perf_counter()
        ops = [_invoke(cli, argv) for argv in plan["argv"]]
        rounds.append({"wall": time.perf_counter() - begin, "ops": ops})
        if time.perf_counter() - start >= plan["seconds"]:
            break
    layers = {}
    if plan["trace"]:
        layers = summarise(tracer.spans)
        names = sorted(TARGETS)
        index = {n: i for i, n in enumerate(names)}
        with open(plan["spans"], "w", encoding="utf-8") as fh:
            json.dump({"fields": ["name", "start", "end", "parent", "points", "raised"],
                       "names": names,
                       "spans": [[index[s[0]], *s[1:]] for s in tracer.spans]}, fh)
    with open(result_path, "w", encoding="utf-8") as fh:
        json.dump({"import_s": import_s, "absent": absent, "layers": layers, "rounds": rounds}, fh)


if __name__ == "__main__":
    main(sys.argv[1], sys.argv[2])
