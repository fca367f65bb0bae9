"""Arm-level moment estimation; the ATE estimate is ``ArmMoments.ate``."""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .exceptions import NumericalError
from .sample import ArmBatch, ExperimentalSample

__all__ = ["ArmMoments", "check_fourth_moments", "estimate_moments", "estimate_moments_many", "scale_error"]


@dataclass(frozen=True)
class ArmMoments:
    """Central moments of both arms plus the empirical treatment share.

    All moments are the biased (1/n per arm) versions, which is what the
    plug-in asymptotic-variance formulas expect.
    """

    tau1: float
    tau0: float
    sigma1_sq: float
    sigma0_sq: float
    mu3_1: float
    mu3_0: float
    mu4_1: float
    mu4_0: float
    e_hat: float

    @property
    def ate(self) -> float:
        """Difference in means tau1 - tau0."""
        return self.tau1 - self.tau0


def estimate_moments(sample: ExperimentalSample) -> ArmMoments:
    """First four central moments per arm and the empirical treatment
    share: ``estimate_moments_many`` of the sample's batch of one.

    Raises
    ------
    ValidationError
        If either arm has fewer than two observations (``sample.arms``).
    """
    return estimate_moments_many(sample.arms)[0]


def estimate_moments_many(arms: ArmBatch) -> list:
    """``estimate_moments`` for each sample of an ``ArmBatch``."""
    out = []
    sizes = np.diff(arms.starts).tolist()
    per_sample = arms.moments.T.reshape(-1, 8).tolist()
    for n1, n0, (tau1, s1, m3_1, m4_1, tau0, s0, m3_0, m4_0) in zip(sizes[0::2], sizes[1::2], per_sample):
        out.append(ArmMoments(
            tau1=tau1,
            tau0=tau0,
            sigma1_sq=s1,
            sigma0_sq=s0,
            mu3_1=m3_1,
            mu3_0=m3_0,
            mu4_1=m4_1,
            mu4_0=m4_0,
            e_hat=n1 / (n1 + n0),
        ))
    return out


def scale_error(arm: str, y: np.ndarray, what: str) -> NumericalError:
    """The error for an arm of outcomes ``y`` whose ``what`` overflow. It
    names the arm's largest magnitude and its SD, taken on y / max|y| so
    that it does not overflow itself."""
    peak = float(np.abs(y).max())
    return NumericalError(
        f"{what} of the {arm} arm overflow: the outcome scale (arm SD "
        f"{peak * float(np.std(y / peak)):.3g}, largest |y| {peak:.3g}) is beyond double precision"
    )


def check_fourth_moments(sample: ExperimentalSample, moments: ArmMoments) -> None:
    """Raise ``scale_error`` unless both arms' fourth moments, about their
    means and about 0, are finite: every covariance of the bounds needs the
    former, and the delta-method SDs powers of tau* up to the third."""
    for arm, mean, mu4 in (("treated", moments.tau1, moments.mu4_1),
                           ("control", moments.tau0, moments.mu4_0)):
        if not math.isfinite(mu4 + (mean * mean) * (mean * mean)):
            raise scale_error(arm, getattr(sample, arm), "the fourth moments")
