"""The package surface: every exported name resolves, and no module reaches
into the private names of another."""

import ast
import importlib.util
import os
import subprocess
import sys
from pathlib import Path

import pytest

import drpredict

SRC = Path(drpredict.__file__).parent
MODULES = sorted(p.stem for p in SRC.glob("*.py") if p.stem != "__init__")


def _is_private(name):
    return name.startswith("_") and not (name.startswith("__") and name.endswith("__"))


def _private_imports(path):
    tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
    for node in ast.walk(tree):
        if not isinstance(node, ast.ImportFrom):
            continue
        if node.level == 0 and (node.module or "").split(".")[0] != "drpredict":
            continue
        for alias in node.names:
            if _is_private(alias.name):
                yield f"{path.name}:{node.lineno} imports {alias.name}"


def test_no_module_imports_a_private_name_from_another():
    found = [hit for path in sorted(SRC.glob("*.py")) for hit in _private_imports(path)]
    assert found == []


def test_every_exported_name_resolves():
    assert len(set(drpredict.__all__)) == len(drpredict.__all__)
    assert [name for name in drpredict.__all__ if not hasattr(drpredict, name)] == []


@pytest.mark.parametrize("module", MODULES)
def test_module_exports_resolve(module):
    mod = importlib.import_module(f"drpredict.{module}")
    assert [name for name in getattr(mod, "__all__", ()) if not hasattr(mod, name)] == []


def _cli_import_probe(expression):
    """The value of ``expression``, a Python literal, evaluated in a fresh
    interpreter after ``import drpredict.cli``."""
    probe = f"import drpredict.cli, sys; print(repr(({expression})))"
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC.parent), env.get("PYTHONPATH")]))
    out = subprocess.run([sys.executable, "-c", probe], env=env, check=True,
                         capture_output=True, text=True, timeout=120).stdout
    return ast.literal_eval(out.strip())


def test_cli_import_loads_no_scipy():
    # scipy.special alone used to cost every CLI process about 0.3 s, also
    # through the numpy.testing and numpy.f2py modules it pulls in
    loaded = _cli_import_probe(
        "sorted(m for m in sys.modules "
        "if m.split('.')[0] == 'scipy' or m.startswith(('numpy.testing', 'numpy.f2py')))"
    )
    assert loaded == []


# Loaded where first used, not at start-up: together they cost each CLI
# process about 20 ms and 7 MB (statistics pulls in fractions and decimal,
# hashlib loads OpenSSL).
LAZY_MODULES = ["concurrent.futures", "hashlib", "numpy.random", "statistics"]


def test_cli_import_loads_only_what_start_up_needs():
    lazy, own = _cli_import_probe(
        f"sorted(m for m in {LAZY_MODULES!r} if m in sys.modules), "
        "sorted(m for m in sys.modules if m.startswith('drpredict.'))"
    )
    assert lazy == []
    # every module is still loaded up front, so a tracer that wraps the
    # package's functions after the import finds each one
    assert own == [f"drpredict.{m}" for m in MODULES]


def test_batch_pipeline_is_exported():
    # the coverage study reaches the batch stage through these public names
    from drpredict import inference

    batch = {"estimate_robust_many", "plain_im_intervals", "two_step_intervals"}
    assert batch <= set(drpredict.__all__)
    assert batch <= set(inference.__all__)
    assert "estimate_ate_diff_means" not in drpredict.__all__  # ArmBatch.ate


def test_one_error_class_per_exit_code():
    from drpredict import exceptions

    exported = {name for name in drpredict.__all__
                if isinstance(getattr(drpredict, name), type)
                and issubclass(getattr(drpredict, name), Exception)
                and not issubclass(getattr(drpredict, name), Warning)}
    assert exported == {"DrPredictError", "ValidationError", "ParseError", "NumericalError"}
    defined = {name for name, obj in vars(exceptions).items()
               if isinstance(obj, type) and issubclass(obj, drpredict.DrPredictError)}
    assert defined == exported
    # every error maps to exit 2 (ValidationError) or exit 3 (NumericalError)
    assert issubclass(drpredict.ParseError, drpredict.ValidationError)
    assert not issubclass(drpredict.NumericalError, drpredict.ValidationError)
    for module in MODULES:
        for obj in vars(importlib.import_module(f"drpredict.{module}")).values():
            if isinstance(obj, type) and issubclass(obj, drpredict.DrPredictError) \
                    and obj is not drpredict.DrPredictError:
                assert issubclass(obj, (drpredict.ValidationError, drpredict.NumericalError)), obj


def test_one_delta_method_sd_function():
    from drpredict import covariance

    gone = {"Loadings", "loadings", "prediction_sds", "conditional_sd_grid", "merged_u_grid",
            "merged_u_blocks", "DomainError", "InsufficientData", "ConvergenceError",
            "ZeroTauError", "UnsupportedRegime", "UnsupportedConfig", "OrderError",
            "DensityError", "DegenerateSample", "_replicate_block", "_kde_binned",
            "sigma_bootstrap", "dual_objective", "empirical_cdf", "empirical_quantile",
            "sharp_bounds_population", "arm_variances", "sample_batches", "sigma_sharp_many",
            "variance_bounds_many", "_per_sample_stages", "sorted_arms", "arm_moments",
            "SigmaMethod", "DENSITY_FLOOR", "_sorted_percentiles", "_silverman_bandwidths",
            "_kernel_spectrum", "_kde", "KDE_BINS_PER_BANDWIDTH", "KDE_REACH_BANDWIDTHS",
            "zero_tau_limit_sd", "_check_expansion", "_MAX_GRID_POINTS", "quantile_at",
            "im_interval", "proximity_derivs", "homogeneous_threshold", "EmpiricalDistribution",
            "wasserstein2_1d", "sigma_sharp", "ArmMoments", "estimate_moments",
            "estimate_moments_many", "sharp_bounds_many", "SweepTable", "read_columns",
            "_load_mask_column", "_load_mask_rows", "RobustEstimates", "IntervalEstimate", "IMMethod",
            "SigmaMatrix", "VarianceBounds", "_shared_config", "_sigma_matrices", "estimate_robust",
            "plain_im_interval", "two_step_interval", "sharp_bounds_empirical", "neyman_bounds"}
    assert gone & set(drpredict.__all__) == set()
    # the arm moments live in sample.ArmBatch alone
    assert importlib.util.find_spec("drpredict.moments") is None
    modules = [importlib.import_module(f"drpredict.{m}") for m in MODULES] + [drpredict.ExperimentalSample]
    assert [(mod.__name__, name) for mod in modules for name in gone if hasattr(mod, name)] == []
    # the coverage study alone decides which samples share a ragged batch
    assert [mod.__name__ for mod in modules if hasattr(mod, "BATCH_ROWS")] == ["drpredict.simulation"]
    assert "prediction_sd_grid" in covariance.__all__
