"""Poisson photon-counting model: exposure policies, variances, sampling."""

from __future__ import annotations

import weakref
from dataclasses import dataclass

import numpy as np

from .errors import InvalidStateError
from .linalg import DensityMatrix, Ket, as_density
from .plans import ProtocolPlan, _born, estimator_sums

PER_SETTING = "per-setting-unit-time"
SPLIT_TOTAL = "split-total"
ALLOCATIONS = (PER_SETTING, SPLIT_TOTAL)

# Largest photon rate n_t.  A drawn cell's Poisson mean n_t T p never
# exceeds n_t, and numpy's Poisson sampler takes means up to about 9.2e18.
MAX_PHOTON_RATE = 1e18


@dataclass(frozen=True)
class ShotPolicy:
    """Mean photon rate and how observation time is split across settings.

    ``per-setting-unit-time`` observes every setting for one time unit
    with mean rate n_t; ``split-total`` divides a single time unit
    equally across the plan's settings.
    """

    n_t: float
    allocation: str = PER_SETTING

    def __post_init__(self) -> None:
        if not 0 < self.n_t <= MAX_PHOTON_RATE:
            raise InvalidStateError(f"photon rate n_t={self.n_t!r} must lie in (0, {MAX_PHOTON_RATE:g}]")
        if self.allocation not in ALLOCATIONS:
            raise InvalidStateError(f"unknown allocation {self.allocation!r}")

    def exposure(self, n_settings: int) -> float:
        """Observation time per setting."""
        return 1.0 if self.allocation == PER_SETTING else 1.0 / n_settings


def allocation_factor(allocation: str, n_settings: int) -> float:
    """Multiplier taking unit-exposure variances to the policy's variances."""
    if allocation == PER_SETTING:
        return 1.0
    if allocation == SPLIT_TOTAL:
        return float(n_settings)
    raise InvalidStateError(f"unknown allocation {allocation!r}")


def element_variance(
    plan: ProtocolPlan,
    rho: DensityMatrix | Ket,
    policy: ShotPolicy,
) -> tuple[float, float]:
    """Rate-normalized shot variances (n_t var Re, n_t var Im).

    Counts are independent Poisson per outcome, so each estimator part
    X = sum_o c_o n_o / (n_t T) has n_t Var(X) = sum_o c_o^2 p_o / T,
    summed over settings.  The result does not depend on n_t.
    """
    factor = allocation_factor(policy.allocation, plan.n_settings)
    sums = estimator_sums(plan, as_density(rho), (plan.coeff_re ** 2, plan.coeff_im ** 2))
    return factor * sums[0], factor * sums[1]


# One (plan, state) pair and what its draws read: a read-only (3, cells)
# stack of the checked, clipped Born probabilities of the stored outcome
# cells and the real and imaginary coefficients on them.  Plan and state
# are held by weak reference, so the memo never keeps a plan alive.
_PROBABILITY_MEMO: tuple = (None, None, None)


def _shot_probabilities(plan: ProtocolPlan, rho: DensityMatrix | Ket) -> np.ndarray:
    """(p, c_re, c_im) over the stored outcome cells, computed once per (plan, state) pair.

    The cells are the rows of ``plan.block_amplitudes``, the outcomes the
    estimator weighs; the full stack ``plan.amplitudes`` is never read.
    Plans and states are immutable (their arrays are read-only), so
    repeated draws for the same two objects reuse the last stack.
    """
    global _PROBABILITY_MEMO
    plan_ref, rho_ref, held = _PROBABILITY_MEMO
    if plan_ref is not None and plan_ref() is plan and rho_ref() is rho:
        return held
    p = _born(plan.block_amplitudes, as_density(rho))
    if p.min() < -1e-12:
        raise InvalidStateError(f"negative outcome probability {p.min():g}; cannot draw counts")
    held = np.stack([np.clip(p, 0.0, None), plan.block_entries(plan.coeff_re),
                     plan.block_entries(plan.coeff_im)]).reshape(3, -1)
    held.setflags(write=False)
    _PROBABILITY_MEMO = (weakref.ref(plan), weakref.ref(rho), held)
    return held


def simulate_shots(
    plan: ProtocolPlan,
    rho: DensityMatrix | Ket,
    policy: ShotPolicy,
    rng: np.random.Generator,
) -> complex:
    """One finite-statistics extraction from Poisson counts.

    Counts are independent Poisson variables per outcome, so only the
    stored outcome blocks, the cells the estimator weighs, are drawn;
    every other cell has a zero coefficient and would not change the
    estimate.  Counts are normalized by the known exposure, which keeps
    the estimator exactly unbiased.
    """
    held = _shot_probabilities(plan, rho)
    exposure = policy.exposure(plan.n_settings)
    counts = rng.poisson(policy.n_t * exposure * held[0])
    re, im = held[1:] @ (counts / (policy.n_t * exposure))
    return complex(re, im)
