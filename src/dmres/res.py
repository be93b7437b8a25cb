"""Single-coupling direct characterization (the res scheme), and the scheme table.

One swap-involution coupling per qudit whose indices differ, one qubit
meter each, then post-selection in the computational basis with meter
readout in the sigma_x / sigma_y bases.  The estimator weights below
make the extraction an exact identity at any strength with
sin(2g) != 0.

``SCHEMES`` holds every fact that differs between ``res`` and ``seq``,
one ``plans.Scheme`` row each: its couplings and its canonical weights,
from which ``plans.stack`` builds every plan.  ``configuration_stacks``
is the one path from an element set to plan stacks for full-matrix
characterization.  An element set is a pair of flat-index arrays on
``dims`` (see ``dmres.elements``), grouped by coupled shape dims[C], C
the qudits where s and s' differ, since every element of that shape
reads the plan of (0...0, 1...1) on dims[C] through its support (see
``dmres.plans``), whichever qudits C names: each group's plan is built
once, for that element, and no member's ``ElementIndex`` is built.
"""

from __future__ import annotations

import functools
import inspect
import math

import numpy as np

from .elements import ElementIndex, coupled_shape, offdiagonal_pairs, shape_groups
from .errors import DmresError, InvalidCouplingError, InvalidElementError, InvalidStateError
from .linalg import DensityMatrix, Ket, as_density, check_joint_dim
from .operators import make_involution
from .plans import (
    Coupling,
    MeasurementSetting,
    ProtocolPlan,
    RES_SCHEME,
    SEQ_SCHEME,
    SINGULAR_TOL,
    Scheme,
    _born,
    _estimator_grams,
    check_state_dims,
    enumerate_settings,
    member_traces,
    stack,
)
from . import seq


def singular_strength(g: float) -> bool:
    """Whether res is undefined at ``g``: its estimator divides by sin^l(2g)."""
    return abs(math.sin(2.0 * g)) <= SINGULAR_TOL


def _check_strength(g: float, l: int) -> float:
    if singular_strength(g):
        raise InvalidCouplingError(
            f"sin(2g)=0 at g={g!r}: the 1/(2 sin^{l}(2g)) estimator normalization diverges"
        )
    return float(np.sin(2.0 * g))


def _res_weights(canonical: ElementIndex, rows: np.ndarray, gs):
    """The canonical element's block weights (G, 2, n_settings, 2) realizing the exact extraction identity; no calibration.

    Per setting b the weight on block s' = 1...1 is prod_j (i if b_j = y)
    and its conjugate on block s = 0...0, times the 1/(2 sin^l 2g)
    normalization at each strength of ``gs``; no block row is read.
    """
    n_meters = canonical.n_couplings
    settings = enumerate_settings(n_meters)
    w = np.array([1, 1j, -1, -1j])[[s.meter_bases.count("y") % 4 for s in settings]]
    unit = np.zeros((len(settings), 2), dtype=complex)
    unit[:, 0] += w.conj()  # += keeps every zero +0
    unit[:, 1] += w
    norm = np.array([1.0 / (2.0 * _check_strength(g, n_meters) ** n_meters) for g in gs])
    coeff = np.zeros((len(gs),) + unit.shape, dtype=complex)
    coeff += norm[:, None, None] * unit
    return np.stack([coeff.real, coeff.imag], axis=1), None


@functools.cache
def _involution(d: int, a: int, b: int) -> np.ndarray:
    """Read-only entries of ``make_involution(d, a, b)``, built once per index pair."""
    entries = make_involution(d, a, b).entries
    entries.setflags(write=False)
    return entries


def _res_couplings(element: ElementIndex) -> tuple[Coupling, ...]:
    couplings = []
    for n in element.coupled_set:
        a, b = element.s[n], element.s_prime[n]
        op = _involution(element.dims[n], min(a, b), max(a, b))
        couplings.append(Coupling(qudit=n, kind="involution", op=op, label=f"C[{a},{b}]@q{n}"))
    return tuple(couplings)


RES = Scheme(RES_SCHEME, _res_couplings, _res_weights, singular_strength, meters=1, calibrated=False)


def plan_res(element: ElementIndex, g: float) -> ProtocolPlan:
    """Build the single-coupling plan for an off-diagonal element: the res ``stack`` of one."""
    return stack(element.dims, [(element.s_flat, element.s_prime_flat)], RES, (g,))[0, 0]


class OutcomeDistribution:
    """Probabilities over (system outcome, meter signs) for one setting."""

    def __init__(self, setting: MeasurementSetting, probabilities: np.ndarray):
        self.setting = setting
        self.probabilities = probabilities

    def check(self) -> None:
        """Reject a probability below -1e-12 or a total off 1 by more than 1e-10."""
        if self.probabilities.min() < -1e-12:
            raise InvalidElementError(f"negative outcome probability {self.probabilities.min():g}")
        total = float(self.probabilities.sum())
        if abs(total - 1.0) > 1e-10:
            raise InvalidElementError(f"outcome probabilities sum to {total!r}")


def outcome_distribution(
    rho: DensityMatrix | Ket, plan: ProtocolPlan, setting: MeasurementSetting | int
) -> OutcomeDistribution:
    """The outcome probabilities of one of the plan's settings, by index or value; any other raises ``InvalidCouplingError``."""
    check_state_dims(rho, plan)
    idx = plan.settings.index(setting) if setting in plan.settings else setting
    if isinstance(idx, MeasurementSetting) or not 0 <= idx < plan.n_settings:
        raise InvalidCouplingError(f"setting {setting!r} is not one of the plan's {plan.n_settings} settings")
    return OutcomeDistribution(plan.settings[idx], _born(plan.amplitudes[idx], rho))


def extract_element(rho: DensityMatrix | Ket, plan: ProtocolPlan) -> complex:
    """Estimate <s| rho |s'> from the plan's outcome probabilities.

    Extraction is scheme independent: the plan carries the estimator,
    so ``res`` and ``seq`` plans are read the same way.  Each part is
    Tr(G rho), with G the sum of the coefficient-weighted outcome
    projectors of that part, read from the weights and the block rows
    (see ``dmres.plans``) rather than from rotated readout rows.  G lives
    on the element's coupled block, so only that block of the state is
    read; a ``Ket`` is never densified.
    """
    check_state_dims(rho, plan)
    return complex(*member_traces(_estimator_grams(plan), rho, plan.support))


def diagonal_element(rho: DensityMatrix | Ket, s) -> float:
    """<s| rho |s>: the probability of system outcome s, no meters needed; |psi_s|^2 for a ``Ket``.

    An ``s`` outside ``rho.dims`` raises ``InvalidElementError``.
    """
    idx = ElementIndex.create(rho.dims, s, s).s_flat
    if isinstance(rho, Ket):
        amplitude = rho.amplitudes[idx:idx + 1]  # the array product np.outer forms: the densified bytes
        return float((amplitude * amplitude.conj()).real[0])
    return float(rho.entries[idx, idx].real)


SCHEMES = {row.name: row for row in (RES, seq.SEQ)}

# each scheme's single-plan builder, by which ``characterize`` is told the scheme
PLAN_BUILDERS = {plan_res: RES_SCHEME, seq.plan_seq: SEQ_SCHEME}


def scheme_entry(name: str) -> Scheme:
    """``SCHEMES[name]``; a name not in the table raises ``InvalidStateError``."""
    if name not in SCHEMES:
        raise InvalidStateError(f"unknown scheme {name!r}")
    return SCHEMES[name]


def configuration_stacks(dims, pairs, groups, scheme: str, gs):
    """Yield the ``scheme`` plans of the flat-index pairs (M, 2) on ``dims`` at every strength of ``gs``.

    The one path from an element set to plans: ``groups`` is
    ``shape_groups`` of the pairs, and each coupled shape is built once
    by ``plans.stack`` and yielded as one stack holding the
    pairs at its positions, so ``stack[k, i]`` is member i's plan at
    ``gs[k]``.  The joint dimension d_C 2^m of the largest shape, d_C
    the dimension of its coupled qudits and m the scheme's meters per
    coupled qudit times their number, is checked before anything is
    built.
    """
    entry = scheme_entry(scheme)
    shapes = [coupled_shape(dims, *pairs[members[0]]) for members in groups]
    check_joint_dim(max((math.prod(shape) * 2 ** (entry.meters * len(shape)) for shape in shapes), default=0))
    for members in groups:
        yield stack(dims, pairs[members], entry, gs)


def configuration_batches(dims, g: float, plan_builder=plan_res):
    """``configuration_stacks`` of every upper-triangle pair u < v, row-major, at the one strength ``g``.

    ``plan_builder`` names the scheme: a ``PLAN_BUILDERS`` builder, also
    behind ``functools.wraps`` wrappers; any other raises ``DmresError``.
    """
    builder = inspect.unwrap(plan_builder)
    names = [name for known, name in PLAN_BUILDERS.items() if known is builder]
    if not names:
        raise DmresError(
            f"plan builder {getattr(plan_builder, '__name__', plan_builder)!r} has no "
            "configuration stack: use plan_res or plan_seq"
        )
    u, v = offdiagonal_pairs(dims)
    yield from configuration_stacks(dims, np.stack([u, v], -1), shape_groups(dims, u, v), names[0], (g,))


def characterize(rho: DensityMatrix | Ket, g: float, plan_builder=plan_res) -> DensityMatrix:
    """Assemble the full matrix estimate.

    Diagonal entries come from post-selection statistics alone; the
    upper triangle is read batch by batch, every member's estimate from
    the batch's one canonical product and the member's block of the
    state, and scattered to its pairs (u, v), the lower triangle by
    conjugation.  No positivity projection is applied.
    """
    rho = as_density(rho)
    est = np.diag(np.diag(rho.entries).real).astype(complex)
    for batch in configuration_batches(rho.dims, g, plan_builder):
        (values,) = member_traces(_estimator_grams(batch), rho, batch.supports)
        value = np.empty(len(values), dtype=complex)
        value.real, value.imag = values.T
        u, v = batch.pairs.T
        est[u, v] = value
        est[v, u] = value.conj()
        del batch, values  # freed before the next batch is built
    return DensityMatrix.create(est, rho.dims, check_positive=False)
