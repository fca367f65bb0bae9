"""Arm-level moment estimation; the ATE estimate is ``ArmMoments.ate``."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .exceptions import ValidationError
from .sample import ExperimentalSample

__all__ = ["ArmMoments", "estimate_moments"]


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


def _central_moments(y: np.ndarray) -> tuple[float, float, float, float]:
    mean = y.mean()
    d = y - mean
    d2 = d * d
    return float(mean), float(d2.mean()), float((d2 * d).mean()), float((d2 * d2).mean())


def estimate_moments(sample: ExperimentalSample) -> ArmMoments:
    """First four central moments per arm and the empirical treatment share.

    Raises
    ------
    ValidationError
        If either arm has fewer than two observations (no second moment).
    """
    if sample.n1 < 2:
        raise ValidationError(f"treated arm has {sample.n1} observation(s), need >= 2")
    if sample.n0 < 2:
        raise ValidationError(f"control arm has {sample.n0} observation(s), need >= 2")
    tau1, s1, m3_1, m4_1 = _central_moments(sample.treated)
    tau0, s0, m3_0, m4_0 = _central_moments(sample.control)
    return ArmMoments(
        tau1=tau1,
        tau0=tau0,
        sigma1_sq=s1,
        sigma0_sq=s0,
        mu3_1=m3_1,
        mu3_0=m3_0,
        mu4_1=m4_1,
        mu4_0=m4_0,
        e_hat=sample.n1 / sample.n,
    )
