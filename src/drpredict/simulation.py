"""Bivariate-Gaussian designs and the Monte Carlo coverage harness.

The potential-outcome pairs are jointly Gaussian, treatments are Bernoulli
and independent of the potential outcomes, and only the treated-arm or
control-arm outcome is revealed per unit. Because the joint correlation is
known by construction, the population minimax prediction (the coverage
target) can be computed from the true joint variance of the effect — the
quantity that is only partially identified in real data.
"""

from __future__ import annotations

import csv
import functools
import math
import os
from dataclasses import dataclass

import numpy as np

from .bounds import BoundsMethod
from .covariance import check_status
from .exceptions import DrPredictError, ValidationError
from .inference import (
    check_two_step_args,
    estimate_robust_many,
    plain_im_intervals,
    two_step_intervals,
)
from .sample import ExperimentalSample
from .solver import RobustConfig, solve_minimax

__all__ = [
    "GaussianDGP",
    "PopulationTruth",
    "SimulationReport",
    "case_preset",
    "draw_sample",
    "population_truth",
    "run_coverage_study",
    "write_reports_csv",
]


@dataclass(frozen=True)
class GaussianDGP:
    """Bivariate-normal potential outcomes with Bernoulli assignment."""

    mu1: float
    mu0: float
    sigma1: float
    sigma0: float
    rho: float
    e: float
    n: int

    def __post_init__(self):
        if self.sigma1 <= 0.0 or self.sigma0 <= 0.0:
            raise ValidationError("arm standard deviations must be positive")
        if not -1.0 <= self.rho <= 1.0:
            raise ValidationError(f"rho must lie in [-1, 1], got {self.rho}")
        if not 0.0 < self.e < 1.0:
            raise ValidationError(f"assignment probability must be in (0, 1), got {self.e}")
        if self.n < 2:
            raise ValidationError(f"sample size must be >= 2, got {self.n}")


@dataclass(frozen=True)
class PopulationTruth:
    """Population-level quantities implied by a GaussianDGP and a config."""

    tau_star: float
    v_joint: float
    v_o: float
    v_p: float
    tau_dr: float
    tau_p: float
    tau_o: float


def population_truth(dgp: GaussianDGP, config: RobustConfig) -> PopulationTruth:
    """Exact population targets: effect variance, bounds, and predictions.

    For Gaussian marginals the sharp coupling bounds coincide with the
    (sigma1 -+ sigma0)^2 moment bounds, so one pair serves both methods.
    """
    tau_star = dgp.mu1 - dgp.mu0
    s1, s0 = dgp.sigma1, dgp.sigma0
    # products, not **, which raises OverflowError: the solver rejects an inf
    v_joint = s1 * s1 + s0 * s0 - 2.0 * dgp.rho * s1 * s0
    v_o = (s1 - s0) * (s1 - s0)
    v_p = (s1 + s0) * (s1 + s0)
    tau_dr, tau_p, tau_o = solve_minimax(tau_star, [v_joint, v_p, v_o], config.delta, config.q).tolist()
    return PopulationTruth(
        tau_star=tau_star,
        v_joint=v_joint,
        v_o=v_o,
        v_p=v_p,
        tau_dr=tau_dr,
        tau_p=tau_p,
        tau_o=tau_o,
    )


def _draw_potentials(dgp: GaussianDGP, rng: np.random.Generator):
    """Draw (y1, y0, t) with the exact joint law; both potentials returned."""
    z1 = rng.standard_normal(dgp.n)
    z2 = rng.standard_normal(dgp.n)
    y1 = dgp.mu1 + dgp.sigma1 * z1
    y0 = dgp.mu0 + dgp.sigma0 * (dgp.rho * z1 + math.sqrt(1.0 - dgp.rho**2) * z2)
    t = (rng.random(dgp.n) < dgp.e).astype(np.int8)
    return y1, y0, t


def draw_sample(dgp: GaussianDGP, seed) -> ExperimentalSample:
    """One revealed-outcome sample; deterministic given the seed.

    An all-treated or all-control draw is retried once with fresh
    randomness; a second failure raises ValidationError.
    """
    rng = np.random.default_rng(seed)
    for attempt in (0, 1):
        y1, y0, t = _draw_potentials(dgp, rng)
        if 0 < int(t.sum()) < dgp.n:
            y = np.where(t == 1, y1, y0)
            return ExperimentalSample(y, t)
    raise ValidationError(
        f"both draws produced an empty arm (n={dgp.n}, e={dgp.e})"
    )


# --------------------------------------------------------------- case presets

_CASE_PARAMS = {
    1: dict(sigma1=2.0, sigma0=1.0, c=0.1, p=2.0),
    2: dict(sigma1=2.0, sigma0=1.0, c=1.0, p=2.0),
    3: dict(sigma1=0.02, sigma0=0.01, c=1.0, p=2.0),
    4: dict(sigma1=20.0, sigma0=10.0, c=0.1, p=2.0, mu_scale=(0.1, 0.02)),
    5: dict(sigma1=2.0, sigma0=1.0, c=0.1, p=1.5),
    6: dict(sigma1=2.0, sigma0=1.0, c=0.1, p=3.0),
}


def case_preset(case: int, n: int = 1000):
    """The six built-in designs: (GaussianDGP, RobustConfig).

    All share rho=0.7 and e=0.3; means default to mu1=sigma1, mu0=0.2*sigma0
    (case 4 scales them down by a factor of 10); the radius is c*sigma0; the
    cost-norm order p maps to the dual order q = p/(p-1).
    """
    if case not in _CASE_PARAMS:
        raise ValidationError(f"case must be one of 1..6, got {case}")
    params = _CASE_PARAMS[case]
    m1_scale, m0_scale = params.get("mu_scale", (1.0, 0.2))
    dgp = GaussianDGP(
        mu1=m1_scale * params["sigma1"],
        mu0=m0_scale * params["sigma0"],
        sigma1=params["sigma1"],
        sigma0=params["sigma0"],
        rho=0.7,
        e=0.3,
        n=n,
    )
    config = RobustConfig.from_p(params["c"] * params["sigma0"], params["p"])
    return dgp, config


# ------------------------------------------------------------ coverage study

# Rows per ragged batch of samples: 32 replications at n = 1000, and a
# sample of more rows is a batch of its own. A replication holds its share
# of the batch's arrays until its batch ends, so the peak RSS grows with the
# batch. Since most two-step unions come from their first-step interval's
# two ends, a batch no longer carries (R, 2, 101) grid arrays. Designs 1, 3,
# 5 and 6 at n = 1000, 100 replications each, on one CPU (medians of 25
# alternating in-process runs): 287, 254 and 258 ms with 16, 32 and 64
# replications per batch; `simulate` of the same study peaked at 40.2, 42.8
# and 47.1 MB RSS.
BATCH_ROWS = 1 << 15


@dataclass(frozen=True)
class SimulationReport:
    """Aggregated results of one coverage study."""

    case: str
    n: int
    replications: int
    seed: int
    bound_method: BoundsMethod
    alpha: float
    beta: float
    truth: PopulationTruth
    coverage_im: float
    coverage_bonf: float
    im_lower_mean: float
    im_upper_mean: float
    bonf_lower_mean: float
    bonf_upper_mean: float
    length_ratio_mean: float
    rejected_count: int

    def __post_init__(self):
        object.__setattr__(self, "bound_method", BoundsMethod(self.bound_method))
        for name in ("coverage_im", "coverage_bonf"):
            value = getattr(self, name)
            if not 0.0 <= value <= 1.0:
                raise ValidationError(f"{name} must be in [0, 1], got {value}")


def _replicate_batch(dgp, config, children, alpha, beta, bound_method):
    """Replications of the given child seeds, as an (R, 6) array of records
    (im_lo, im_hi, bonf_lo, bonf_hi, length_ratio, rejected as 0 or 1).

    The batch's samples are drawn and estimated as one ragged batch
    (``estimate_robust_many``). A prediction with no smooth expansion, on
    the estimates or on a two-step grid, raises its ``check_status`` error.
    If the batch raises, its replications are rerun one by one, so that the
    exception is the first failing replication's, as in a serial run.
    """
    try:
        samples = [draw_sample(dgp, child) for child in children]
        est = estimate_robust_many(samples, config, bound_method)
        check_status(est.status)
        im_lo, im_hi, _ = plain_im_intervals(est, alpha)
        union = two_step_intervals(est, alpha, beta)
        check_status(union.status)
    except DrPredictError:
        if len(children) > 1:
            for child in children:
                _replicate_batch(dgp, config, [child], alpha, beta, bound_method)
        raise
    # NaN union ends, and so a NaN length ratio, where the first step kept zero
    ratio = (union.upper - union.lower) / (im_hi - im_lo)
    return np.stack((im_lo, im_hi, union.lower, union.upper, ratio, union.rejected), axis=1)


def run_coverage_study(
    dgp: GaussianDGP,
    config: RobustConfig,
    replications: int,
    alpha: float = 0.05,
    beta: float = 0.045,
    bound_method=BoundsMethod.SHARP,
    seed: int = 0,
    case: str = "custom",
    workers: int = 1,
) -> SimulationReport:
    """Coverage of the population prediction by both interval constructions.

    Per replication: draw a sample, form the plain IM interval and the
    two-step union from the same bound/covariance estimates, and record
    whether each covers the population minimax prediction. The IM interval
    is averaged over every replication; two-step results are averaged over
    the replications whose first step rejected a zero effect.

    The replications' child seeds are spawned once, in index order, and cut
    into batches of ``BATCH_ROWS // dgp.n`` (at least one), each one ragged
    batch of samples: this is the one place that decides which samples
    share a batch. ``_replicate_batch`` is mapped over the batches.
    ``workers`` > 1 maps them over a process pool of at most
    ``os.cpu_count()`` processes and at most one per batch. A replication's
    record depends only on its seed, and the records are aggregated in index
    order, so the report is identical for any worker count.
    """
    if replications < 100:
        raise ValidationError(f"replications must be >= 100, got {replications}")
    if workers < 1:
        raise ValidationError(f"workers must be >= 1, got {workers}")
    if seed < 0:
        raise ValidationError(f"seed must be >= 0, got {seed}")
    check_two_step_args(config, alpha, beta)
    bound_method = BoundsMethod(bound_method)
    truth = population_truth(dgp, config)
    target = truth.tau_dr

    children = np.random.SeedSequence(seed).spawn(replications)
    size = max(1, BATCH_ROWS // dgp.n)
    batches = [children[lo : lo + size] for lo in range(0, replications, size)]
    replicate = functools.partial(
        _replicate_batch, dgp, config, alpha=alpha, beta=beta, bound_method=bound_method
    )
    workers = min(workers, len(batches), os.cpu_count() or 1)
    if workers == 1:
        per_batch = list(map(replicate, batches))
    else:
        import concurrent.futures  # only a study with workers > 1 pays for loading it

        with concurrent.futures.ProcessPoolExecutor(max_workers=workers) as pool:
            per_batch = list(pool.map(replicate, batches))

    records = np.concatenate(per_batch)
    rejected = records[records[:, 5] == 1.0]
    covered_im = np.count_nonzero((records[:, 0] <= target) & (target <= records[:, 1]))
    covered_bonf = np.count_nonzero((rejected[:, 2] <= target) & (target <= rejected[:, 3]))
    im_lo, im_hi = records[:, :2].mean(axis=0).tolist()
    n_rej = rejected.shape[0]
    bf_lo, bf_hi, ratio = rejected[:, 2:5].mean(axis=0).tolist() if n_rej else [math.nan] * 3
    return SimulationReport(
        case=case,
        n=dgp.n,
        replications=replications,
        seed=seed,
        bound_method=bound_method,
        alpha=alpha,
        beta=beta,
        truth=truth,
        coverage_im=int(covered_im) / replications,
        coverage_bonf=int(covered_bonf) / n_rej if n_rej else 0.0,
        im_lower_mean=im_lo,
        im_upper_mean=im_hi,
        bonf_lower_mean=bf_lo,
        bonf_upper_mean=bf_hi,
        length_ratio_mean=ratio,
        rejected_count=n_rej,
    )


# ------------------------------------------------------------- serialization

_CSV_HEADER = (
    "case",
    "tau_dr",
    "coverage_im",
    "coverage_imbonf",
    "ci_lo",
    "ci_hi",
    "bonf_lo",
    "bonf_hi",
    "length_ratio",
)


def write_reports_csv(reports, path) -> None:
    """Table-shaped CSV: one row per case report."""
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(_CSV_HEADER)
        for r in reports:
            writer.writerow(
                [
                    r.case,
                    f"{r.truth.tau_dr:.6g}",
                    f"{r.coverage_im:.4f}",
                    f"{r.coverage_bonf:.4f}",
                    f"{r.im_lower_mean:.6g}",
                    f"{r.im_upper_mean:.6g}",
                    f"{r.bonf_lower_mean:.6g}",
                    f"{r.bonf_upper_mean:.6g}",
                    f"{r.length_ratio_mean:.6g}",
                ]
            )

