"""Poisson photon-counting model: exposure policies, variances, sampling.

Counts are independent Poisson per outcome cell.  An estimate weighs the
cells of each (setting, post-selected block) by one weight times the
cell's meter-sign product (see the ``plans`` docstring), so it reads the
counts only through two sums per (setting, block): the cells of sign +1
and those of sign -1.  A sum of independent Poisson counts is one
Poisson count at the summed mean, so a draw takes one count per such
sign class, 4 n_settings of them in (setting, block, +/-) order, and the
estimate keeps the distribution a count per cell would give it.
"""

from __future__ import annotations

import functools
import weakref
from dataclasses import dataclass

import numpy as np

from .errors import InvalidStateError
from .linalg import DensityMatrix, Ket
from .plans import (
    MEMBER_ENTRIES,
    PlanBatch,
    ProtocolPlan,
    _born,
    check_state_dims,
    estimator_operators,
    member_traces,
    readout_amplitudes,
    sign_products,
)

PER_SETTING = "per-setting-unit-time"
SPLIT_TOTAL = "split-total"
ALLOCATIONS = (PER_SETTING, SPLIT_TOTAL)

# Largest photon rate n_t.  A drawn class's Poisson mean n_t T p, p the
# summed probability of its cells, never exceeds n_t, and numpy's Poisson
# sampler takes means up to about 9.2e18.
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
        """Observation time per setting: the inverse of ``allocation_factor``."""
        return 1.0 / allocation_factor(self.allocation, n_settings)


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
    summed over settings, which is Tr(W rho) / T with W the plan's
    variance operator, built once per plan and read against the
    element's coupled block of the state.  The result does not depend
    on n_t.
    """
    check_state_dims(rho, plan)
    factor = allocation_factor(policy.allocation, plan.n_settings)
    var_re, var_im = member_traces(plan.estimator_operators, rho, plan.support)
    return factor * float(var_re), factor * float(var_im)


def batch_variances(batch: PlanBatch, rho: DensityMatrix, policy: ShotPolicy) -> np.ndarray:
    """Every plan's ``element_variance``, (G, M, 2), from one stacked product.

    Every member reads the batch's one canonical ``estimator_operators``
    pair against its block of ``rho``, which must have the batch's dims.
    """
    factor = allocation_factor(policy.allocation, batch.n_settings)
    return factor * member_traces(estimator_operators(batch), rho, batch.supports)


# One (plan, state) pair, the photon rate, and what its draws read: the
# read-only Poisson means of the sign classes, each the sum of its cells'
# rate * p, p their checked, clipped Born probabilities, and the
# (2, classes) Re and Im class coefficients.  Weak references: the memo
# never keeps a plan alive.
_PROBABILITY_MEMO: tuple = (None, None, None, None)


def _shot_means(plan: ProtocolPlan, rho: DensityMatrix | Ket, rate: float) -> tuple[np.ndarray, np.ndarray]:
    """(means, coefficients) over the sign classes, computed once per (plan, state, rate).

    The cells are the rows of ``plan.block_amplitudes``, blocks s and
    s', the outcomes the estimator weighs, read against the element's
    coupled block of the state; the full stack ``plan.amplitudes`` is
    never read.  Each cell is checked and clipped before the cells of a
    class are summed.
    Plans and states are immutable (their arrays are read-only), so
    repeated draws for the same two objects at one rate reuse the last.
    """
    global _PROBABILITY_MEMO
    plan_ref, rho_ref, held_rate, held = _PROBABILITY_MEMO
    if plan_ref is not None and plan_ref() is plan and rho_ref() is rho and held_rate == rate:
        return held
    p = _born(plan.block_amplitudes, rho, plan.support)
    held = (_class_means(_means(p.reshape(1, -1), rate), plan.n_meters)[0], _class_coefficients(plan.weights))
    for array in held:
        array.setflags(write=False)
    _PROBABILITY_MEMO = (weakref.ref(plan), weakref.ref(rho), rate, held)
    return held


def _means(p: np.ndarray, rate: float) -> np.ndarray:
    """The Poisson means rate * p, p clipped at 0, of each member's cells, a row of p.

    A probability below -1e-12 is no rounding error: the first member
    holding one raises.
    """
    lows = p.min(-1)
    if lows.min() < -1e-12:
        raise InvalidStateError(f"negative outcome probability {lows[lows < -1e-12][0]:g}; cannot draw counts")
    return rate * np.clip(p, 0.0, None)


@functools.cache
def _sign_order(n_meters: int) -> np.ndarray:
    """The meter patterns of sign product +1, then those of -1, each in readout order; read-only."""
    signs = sign_products(n_meters)
    order = np.concatenate([np.flatnonzero(signs > 0), np.flatnonzero(signs < 0)])
    order.setflags(write=False)
    return order


def _class_means(cells: np.ndarray, n_meters: int) -> np.ndarray:
    """Sum each member's cell means, a row (settings, blocks, patterns) flat, into its sign-class means.

    Gives (members, 4 n_settings) in (setting, block, +/-) order, the
    cells of a class summed in readout order, so each member's sums are
    those it would have alone.
    """
    n = 2 ** n_meters
    grouped = cells.reshape(len(cells), -1, n)[..., _sign_order(n_meters)].reshape(len(cells), -1, 2, n // 2)
    return functools.reduce(np.add, np.moveaxis(grouped, -1, 0)).reshape(len(cells), -1)


def _class_coefficients(weights: np.ndarray) -> np.ndarray:
    """The (2, 4 n_settings) Re and Im coefficients of the sign classes: each block weight times +1, then -1."""
    return (weights[..., None] * np.array([1.0, -1.0])).reshape(2, -1)


def _draw(means: np.ndarray, coefficients: np.ndarray, rate: float, rng: np.random.Generator) -> complex:
    """One Poisson draw of the classes at ``means``, normalized by the ``rate`` and weighed row by row."""
    re, im = coefficients @ (rng.poisson(means) / rate)
    return complex(re, im)


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
    estimate.  One count is drawn per sign class of those blocks (see
    the module docstring), which gives the estimate the distribution of
    one count per cell.  Counts are normalized by the known exposure,
    which keeps the estimator exactly unbiased.
    """
    check_state_dims(rho, plan)
    rate = policy.n_t * policy.exposure(plan.n_settings)
    return _draw(*_shot_means(plan, rho, rate), rate, rng)


def simulate_batch_shots(batch: PlanBatch, rho: DensityMatrix, policy: ShotPolicy, rngs) -> list[complex]:
    """``simulate_shots`` of every member of a one-strength batch, member i drawing from the i-th of ``rngs``.

    Every member reads the canonical element's two blocks, s then s',
    rotated once per batch, and one table of class coefficients.
    Members draw in order, their Born probabilities, each the
    ``block_amplitudes`` of the member's plan against its block of
    ``rho``, formed ``MEMBER_ENTRIES`` worth at a time in one stacked
    product and summed into sign-class means; the first member holding a
    negative probability raises.  Each member's draw gives the value
    ``simulate_shots`` gives on its plan with the same generator.  ``rho``
    must have the batch's dims.
    """
    (rows,), (weights,) = batch.rows, batch.weights
    amps = readout_amplitudes(rows)
    coefficients = _class_coefficients(weights)
    rate = policy.n_t * policy.exposure(batch.n_settings)
    rngs, step, draws = iter(rngs), max(1, MEMBER_ENTRIES // amps.size), []
    for part in (batch.supports[lo:lo + step] for lo in range(0, len(batch.supports), step)):
        p = _born(amps, rho, part).reshape(len(part), -1)
        means = _class_means(_means(p, rate), batch.n_meters)
        draws += [_draw(row, coefficients, rate, rng) for row, rng in zip(means, rngs)]
    return draws
