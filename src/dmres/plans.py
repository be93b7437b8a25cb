"""Measurement protocol plans and the shared probability engine.

A plan fixes the couplings, the meter readout settings and the
estimator weights for one density-matrix element.  Its readout
amplitudes form one (n_settings, outcomes, system-dim) stack: with
``A_s`` the slice of setting ``s``, the probability of outcome ``o`` for
input ``rho`` is ``<a_o| rho |a_o>`` with ``a_o`` the o-th row of ``A_s``.

Outcomes come in blocks of 2^m meter patterns, one block per system
outcome.  Every estimator, ``res`` or calibrated ``seq``, is a weighted
sum of meter correlators at the post-selected outcomes s and s': on
each (setting, block) of those two its coefficients are one weight
times the product of meter signs, and every other block has none.  So
a plan stores its estimator as those weights, ``weights[t, b, k]`` for
part t (0 Re, 1 Im), setting b and block k; ``coefficient_tables``
alone writes them out as full tables, for export.  A plan also stores
the unrotated columns ``base``; the readout amplitudes of blocks s and s',
``block_amplitudes``, which shot draws read, and the full stack
``amplitudes``, which only outcome distributions and the response map
read, are each rotated from ``base`` on first use and kept.

Exact estimates and variance operators rotate no readout row.  Setting
b's rows of block k are R_b B_k, with B_k the block's rows of ``base``
and R_b unitary on the meter patterns, and R_b^dag diag(signs) R_b is
the setting's Pauli product Sigma_b = diag(phase_b) J, with J the
exchange of each pattern with its complement.  Weights w_{b,k}
therefore sum to
sum_k B_k^dag diag(phi_k) J B_k, with phi_k = sum_b w_{b,k} phase_b:
one small product per block however many settings there are.  Its
squares, constant on the block's patterns, weigh B_k^dag B_k whatever
the setting.

The engine never forms a joint-space matrix.  Amplitudes live in a
(d_1, ..., d_N, 2, ..., 2, columns) tensor; each coupling is its
closed-form 2d x 2d gate on one (qudit, meter) axis pair, and readout
rotations are applied meter by meter for all settings at once.

Elements with one coupled set C share one plan up to a relabeling.
Per qudit, relabel the basis so that s_n goes to 0 and s'_n to 1: the
res swap C[s_n, s'_n] becomes C[0, 1], the seq projector pi[s_n]
becomes pi[0], and the uniform-superposition projector is unchanged.
So with P that system-basis permutation, P(s) = 0...0 and P(s') = 1_C,
an element's ``base[(k, pattern), u]`` is the canonical element
(0...0, 1_C)'s ``base[(P k, pattern), P u]``, and its weights are the
canonical weights, their two blocks swapped when s > s'.  A
``PlanBatch`` is the one plan stack: elements with one coupled set at G
strengths, holding the canonical element's ``base`` and weights once and
one relabeling per member.  Each scheme builds its plans only as such a
stack, a single plan being the stack of one.  The estimate, variance
and readout contractions run on the canonical arrays, once per stack,
and each member's result is gathered through its relabeling; a plan
reads through the same path, from its own arrays mapped back to the
canonical element.
"""

from __future__ import annotations

import functools
import itertools
import math
from dataclasses import dataclass, field, replace
from functools import cached_property
from typing import Sequence

import numpy as np

from .elements import ElementIndex
from .errors import InvalidCouplingError, InvalidElementError
from .linalg import SIGMA_X, SIGMA_Y, DensityMatrix, Ket, check_joint_dim
from .operators import coupling_gate, meter_readout_basis
from .stateio import encode_json, format_float

RES_SCHEME = "res"
SEQ_SCHEME = "seq"

# One tolerance for singular strengths.  res needs |sin(2g)| above it,
# since its estimator divides by sin^l(2g); seq needs |sin(g)| above it,
# since its projector couplings otherwise leave the meters blank and the
# relative calibration floor would keep rounding noise.  Each scheme
# states its rule once (``res.singular_strength``,
# ``seq.singular_strength``, both in ``res.SCHEMES``); its builder
# refuses those strengths and strength grids drop them.
SINGULAR_TOL = 1e-9

# Entries, at most 16 bytes each (4 MiB), that the per-member arrays of
# one stack may hold at once: a coupled set's members are yielded that
# many at a time, at least one.
MEMBER_ENTRIES = 2 ** 18


@dataclass(frozen=True)
class Coupling:
    """One system-meter coupling: operator ``op`` on ``qudit``, one meter."""

    qudit: int
    kind: str  # "involution" or "projector"
    op: np.ndarray
    label: str


@dataclass(frozen=True)
class MeasurementSetting:
    """Per-meter readout bases, each 'x' or 'y'."""

    meter_bases: tuple[str, ...]

    @property
    def label(self) -> str:
        return "".join(self.meter_bases)


@dataclass(frozen=True)
class CalibrationInfo:
    residual_re: float
    residual_im: float
    smallest_singular_value: float


class _PlanLayout:
    """Counts shared by plans and plan stacks."""

    @property
    def n_settings(self) -> int:
        return len(self.settings)

    @property
    def n_meters(self) -> int:
        return len(self.settings[0].meter_bases)

    @property
    def outcomes_per_setting(self) -> int:
        return self.base.shape[-2]


@dataclass(frozen=True)
class ProtocolPlan(_PlanLayout):
    """One element's plan at one strength.

    ``base`` holds the unrotated columns U |u> (x) |0...0>, (outcomes,
    dim), and ``weights`` the estimator, (2, n_settings, 2): part t's
    weight on setting b and post-selected block k, in index order (see
    the module docstring).  The constructor rejects weights of any other
    shape.
    """

    element: ElementIndex
    scheme: str
    g: float
    couplings: tuple[Coupling, ...]
    settings: tuple[MeasurementSetting, ...]
    weights: np.ndarray  # (2, n_settings, 2)
    base: np.ndarray
    calibration: CalibrationInfo | None = field(default=None, compare=False)

    def __post_init__(self) -> None:
        want = (2, self.n_settings, 2)
        if np.shape(self.weights) != want:
            raise InvalidCouplingError(
                f"estimator weights have shape {np.shape(self.weights)}, want {want}: a (Re, Im) "
                f"weight per setting and post-selected block {self.blocks}"
            )

    @property
    def post_selectors(self) -> tuple[int, int]:
        """Flat indices (s, s') of the element's post-selected system outcomes."""
        return (self.element.s_flat, self.element.s_prime_flat)

    @cached_property
    def blocks(self) -> tuple[int, ...]:
        """The post-selected system outcomes s and s' the estimator reads, in index order."""
        return post_selected_blocks(self.element)

    @cached_property
    def relabeling(self) -> np.ndarray:
        """The system-basis permutation P taking the element to its canonical one, (dim,)."""
        return relabelings([self.element])[0]

    @cached_property
    def canonical_rows(self) -> np.ndarray:
        """The canonical element's rows of ``base`` on its blocks 0...0 and 1_C, (2, 2^m, dim).

        Read off the plan's own blocks s and s', its columns taken back
        through P: canonical column P u is the plan's column u.
        """
        d = self.base.shape[-1]
        rows = self.base.reshape(d, -1, d)[[self.element.s_flat, self.element.s_prime_flat]]
        return np.take(rows, np.argsort(self.relabeling), axis=-1)

    @cached_property
    def block_amplitudes(self) -> np.ndarray:
        """Read-only readout amplitudes of blocks s and s', rotated from ``base`` on first use.

        (n_settings, 2 * 2^m, dim): the canonical element's two blocks
        are rotated and relabeled, as a stack's shot draws do.
        """
        swapped = self.element.s_flat > self.element.s_prime_flat
        return _member_rows(rotated_rows(self.canonical_rows), self.relabeling, swapped)

    @cached_property
    def amplitudes(self) -> np.ndarray:
        """Read-only readout amplitudes of every outcome, rotated from ``base`` on first use.

        (n_settings, outcomes, dim).
        """
        return readout_amplitudes(self.base, self.element.dim)

    @cached_property
    def estimator_operators(self) -> np.ndarray:
        """Read-only (2, dim, dim) ``estimator_operators`` stack (W_re, W_im), computed on first use."""
        operators = estimator_operators(self)
        operators.setflags(write=False)
        return operators

    @cached_property
    def _tables(self) -> np.ndarray:
        tables = coefficient_tables(self.weights, self.blocks, self.element.dim)
        tables.setflags(write=False)
        return tables

    @property
    def coeff_re(self) -> np.ndarray:
        """Read-only Re coefficient table (n_settings, outcomes) of ``weights``, built on first use.

        Only exports read it.
        """
        return self._tables[0]

    @property
    def coeff_im(self) -> np.ndarray:
        """Read-only Im coefficient table, as ``coeff_re``."""
        return self._tables[1]


@dataclass(frozen=True)
class PlanBatch(_PlanLayout):
    """Plans of elements with one coupled set at G strengths, stacked.

    Every member is a relabeling of the canonical element (0...0, 1_C)
    of the coupled set C (see the module docstring), so the stack holds
    that element's unrotated columns ``base`` (G, outcomes, dim), its
    ``weights`` (G, 2, n_settings, 2) and its ``calibrations[k]`` at
    ``gs[k]``, if any, once, and ``relabelings[i]`` (M, dim), the
    permutation P of member i.  ``couplings[i]`` are member i's own.
    ``batch[k, i]`` is member i's plan at ``gs[k]``, its ``base`` and
    weights gathered from the canonical ones.  The engine's estimate
    and variance contractions accept a batch, run once on the canonical
    arrays and gain the (strength, member) axes in the gather.
    """

    elements: tuple[ElementIndex, ...]
    scheme: str
    gs: tuple[float, ...]
    couplings: tuple[tuple[Coupling, ...], ...]
    settings: tuple[MeasurementSetting, ...]
    weights: np.ndarray  # (G, 2, n_settings, 2), the canonical element's
    base: np.ndarray  # (G, outcomes, dim), the canonical element's
    relabelings: np.ndarray  # (M, dim)
    calibrations: tuple[CalibrationInfo, ...] | None = field(default=None, compare=False)

    @cached_property
    def canonical(self) -> ElementIndex:
        """The element (0...0, 1_C) every member relabels to."""
        return canonical_element(self.elements[0])

    @cached_property
    def canonical_rows(self) -> np.ndarray:
        """The rows of ``base`` on the canonical blocks 0...0 and 1_C, (G, 2, 2^m, dim)."""
        d = self.base.shape[-1]
        blocks = list(post_selected_blocks(self.canonical))
        return self.base.reshape(self.base.shape[:-2] + (d, -1, d))[..., blocks, :, :]

    def __getitem__(self, key: tuple[int, int]) -> ProtocolPlan:
        k, i = key
        element, perm, d = self.elements[i], self.relabelings[i], self.base.shape[-1]
        base = np.take(self.base[k].reshape(d, -1, d)[perm], perm, axis=-1)
        plan = ProtocolPlan(
            element=element,
            scheme=self.scheme,
            g=self.gs[k],
            couplings=self.couplings[i],
            settings=self.settings,
            weights=self.weights[k, ..., ::-1] if element.s_flat > element.s_prime_flat else self.weights[k],
            base=base.reshape(self.base.shape[1:]),
            calibration=None if self.calibrations is None else self.calibrations[k],
        )
        # the values the plan's cached properties would read off its own arrays, known here
        vars(plan).update(relabeling=perm, canonical_rows=self.canonical_rows[k])
        return plan


def member_chunks(batch: PlanBatch):
    """Yield ``batch``'s members in order, stacked at most ``MEMBER_ENTRIES`` entries' worth at a time.

    The canonical arrays are shared by every chunk.  A member's
    relabeled operator pair in a stacked estimate or variance holds
    2 dim^2 entries per strength; a chunk holds at least one member.
    """
    d = batch.base.shape[-1]
    step = max(1, MEMBER_ENTRIES // (2 * d * d * len(batch.gs)))
    for lo in range(0, len(batch.elements), step):
        part = slice(lo, lo + step)
        yield replace(batch, elements=batch.elements[part], couplings=batch.couplings[part],
                      relabelings=batch.relabelings[part])


def canonical_element(element: ElementIndex) -> ElementIndex:
    """(0...0, 1_C): the element of ``element``'s coupled set C that every member relabels to."""
    return _canonical_element(element.dims, element.coupled_set)


@functools.cache
def _canonical_element(dims: tuple[int, ...], coupled: tuple[int, ...]) -> ElementIndex:
    return ElementIndex(dims, (0,) * len(dims), tuple(int(n in coupled) for n in range(len(dims))))


def relabelings(elements: Sequence[ElementIndex]) -> np.ndarray:
    """(M, dim) system-basis permutations: ``P[i, u]`` is the canonical index of basis state u for element i.

    Per qudit, P sends s_n to 0 and s'_n, where it differs, to 1, and
    the other levels after them in their order; P is the product of
    these, in row-major flat indices.  So P(s) = 0...0 and P(s') = 1_C,
    with C the coupled set.  Elements must share their dims.
    """
    levels, digits, strides = _relabeling_tables(elements[0].dims)
    pairs = np.array([e.s + e.s_prime for e in elements]).reshape(len(elements), 2, -1)
    qudits = np.arange(pairs.shape[-1])
    moved = levels[qudits, pairs[:, 0], pairs[:, 1]]  # (M, N, max d): each qudit's relabeling
    return moved[:, qudits, digits] @ strides


@functools.cache
def _relabeling_tables(dims: tuple[int, ...]):
    """Read-only tables for ``relabelings`` on ``dims``.

    levels[n, a, b] is qudit n's relabeling for s_n = a, s'_n = b (padded
    to the largest dimension), digits[u] the qudit indices of flat index
    u, row-major, and strides the row-major strides.
    """
    levels = np.zeros((len(dims), max(dims), max(dims), max(dims)), dtype=np.intp)
    for n, d in enumerate(dims):
        for a, b in itertools.product(range(d), repeat=2):
            order = list(dict.fromkeys([a, b, *range(d)]))  # canonical level -> level
            levels[n, a, b, order] = range(d)
    digits = np.array(list(itertools.product(*map(range, dims))), dtype=np.intp).reshape(-1, len(dims))
    strides = np.array([math.prod(dims[n + 1:]) for n in range(len(dims))], dtype=np.intp)
    for table in (levels, digits, strides):
        table.setflags(write=False)
    return levels, digits, strides


def coefficient_tables(weights: np.ndarray, blocks: Sequence[int], dim: int) -> np.ndarray:
    """The (Re, Im) coefficient tables of block weights, (..., 2, n_settings, outcomes).

    The one place the correlator form is written out: ``weights`` is
    (..., 2, n_settings, 2), each (setting, block) of ``blocks`` gets its
    weight times the meter signs, and every other block is zero.  Every
    zero entry is +0, whatever the sign of its weight.
    """
    signs = sign_products(weights.shape[-2].bit_length() - 1)
    tables = np.zeros(weights.shape[:-1] + (dim, len(signs)))
    tables[..., list(blocks), :] = weights[..., None] * signs
    tables += 0.0  # a zero weight times sign -1 is -0
    return tables.reshape(weights.shape[:-1] + (-1,))


def finite_strengths(gs) -> tuple[float, ...]:
    """The strengths of a grid as floats, each of which must be finite."""
    gs = tuple(float(g) for g in gs)
    for g in gs:
        if not math.isfinite(g):
            raise InvalidCouplingError(f"coupling strength g={g!r} is not finite")
    return gs


def check_off_diagonal(elements: Sequence[ElementIndex]) -> None:
    """Reject diagonal elements: they are read without meters."""
    for e in elements:
        if e.is_diagonal:
            raise InvalidElementError(f"element {e.label()} is diagonal; use diagonal_element instead")


def post_selected_blocks(element: ElementIndex) -> tuple[int, ...]:
    """The two system outcomes s and s' an element's estimator reads, in index order."""
    return tuple(sorted({element.s_flat, element.s_prime_flat}))


@functools.cache
def enumerate_settings(n_meters: int) -> tuple[MeasurementSetting, ...]:
    """Every choice of x or y per meter, meter 0 most significant; built once per meter count."""
    return tuple(
        MeasurementSetting(bases) for bases in itertools.product(("x", "y"), repeat=n_meters)
    )


@functools.cache
def sign_products(n_meters: int) -> np.ndarray:
    """Product of meter signs for each outcome pattern, in readout row order; read-only."""
    signs = np.ones(1)
    for _ in range(n_meters):
        signs = np.concatenate([signs, -signs])
    signs.setflags(write=False)
    return signs


@functools.cache
def _flip_phases(n_meters: int) -> np.ndarray:
    """phase[b, o] with Sigma_b = diag(phase[b]) J for every setting b.

    sigma_x and sigma_y vanish on their diagonal, so the setting's Pauli
    product Sigma_b sends meter pattern q to its complement: J is the
    exchange matrix and phase[b, o] = prod_i sigma_{b_i}[o_i, 1 - o_i],
    each in {+-1, +-i}.  Rows follow ``enumerate_settings`` and columns
    the readout pattern order, meter 0 most significant in both.
    """
    paulis = np.stack([SIGMA_X, SIGMA_Y])
    if np.any(np.diagonal(paulis, axis1=-2, axis2=-1)):
        raise AssertionError("the meter Paulis must vanish on their diagonal")
    anti = paulis[:, [0, 1], [1, 0]]  # anti[b, o] = sigma_b[o, 1 - o]
    phase = np.ones((1, 1), dtype=complex)
    for _ in range(n_meters):
        phase = (phase[:, None, :, None] * anti[None, :, None, :]).reshape(2 * len(phase), -1)
    phase.setflags(write=False)
    return phase


def _apply_couplings(tensor: np.ndarray, dims: tuple[int, ...], couplings: Sequence[Coupling],
                     gs: np.ndarray) -> np.ndarray:
    """Apply each coupling's local gate, first coupling first, at every strength.

    ``tensor`` has axes (G, d_1, ..., d_N, 2, ..., 2, rest) with strength
    ``gs[k]`` on slice k and meter i on axis 1 + N + i; each coupling is
    one batched matmul of its (G, 2d, 2d) gate stack on the (qudit,
    meter i) axis pair.
    """
    n = len(dims)
    for i, c in enumerate(couplings):
        pair = (1 + c.qudit, 1 + n + i)
        order = (0,) + pair + tuple(k for k in range(1, tensor.ndim) if k not in pair)
        moved = tensor.transpose(order)
        gate = coupling_gate(c.kind, c.op, gs)
        moved = (gate @ moved.reshape(gate.shape[:2] + (-1,))).reshape(moved.shape)
        tensor = moved.transpose([order.index(k) for k in range(len(order))])
    return tensor


def joint_unitary(dims: Sequence[int], couplings: Sequence[Coupling], g: float) -> np.ndarray:
    """Total coupling unitary on system (x) meters; first coupling acts first."""
    dims = tuple(dims)
    m = len(couplings)
    joint = math.prod(dims) * 2 ** m
    check_joint_dim(joint)
    eye = np.eye(joint, dtype=complex).reshape((1,) + dims + (2,) * m + (joint,))
    return _apply_couplings(eye, dims, couplings, np.reshape(g, 1)).reshape(joint, joint)


def base_amplitudes(dims: Sequence[int], couplings: Sequence[Coupling], g) -> np.ndarray:
    """Columns are U |u> (x) |0...0> for each system basis ket |u>.

    Rows are (system outcome, meter pattern) with meter 0 most
    significant: shape (d_sys * 2^m, d_sys), or a leading strength axis
    (G, d_sys * 2^m, d_sys) for an array ``g`` of G strengths.
    """
    dims = tuple(dims)
    d_sys = math.prod(dims)
    m = len(couplings)
    check_joint_dim(d_sys * 2 ** m)
    gs = np.asarray(g, dtype=float)
    stack = gs.reshape(-1)
    start = np.zeros((stack.size, d_sys, 2 ** m, d_sys), dtype=complex)
    start[:, np.arange(d_sys), 0, np.arange(d_sys)] = 1.0
    out = _apply_couplings(start.reshape((stack.size,) + dims + (2,) * m + (d_sys,)),
                           dims, couplings, stack)
    return out.reshape(gs.shape + (d_sys * 2 ** m, d_sys))


def per_meter(blocks: np.ndarray, stack: np.ndarray) -> np.ndarray:
    """Apply one of the 2x2 matrices ``stack[b]`` to each meter, for every choice.

    ``blocks`` is (rows, 2^m, cols) with meter 0 most significant in the
    middle axis.  The result is (2^m, rows * 2^m, cols): one slice per
    choice of b for every meter, in ``enumerate_settings`` order.
    """
    rows, n_patterns, cols = blocks.shape
    m = n_patterns.bit_length() - 1
    out = blocks[None]
    for i in range(m):
        tail = 2 ** (m - i - 1) * cols
        out = np.einsum("boi,spir->sbpor", stack, out.reshape(-1, rows * 2 ** i, 2, tail))
    return out.reshape(-1, rows * n_patterns, cols)


READOUT_STACK = np.stack([meter_readout_basis(b).conj().T for b in ("x", "y")])


def readout_amplitudes(base: np.ndarray, d_sys: int, blocks: Sequence[int] | None = None) -> np.ndarray:
    """Rotate the meter factors of ``base`` into each setting's eigenbasis.

    Returns one read-only (n_settings, outcomes, d_sys) stack; slice i is
    the readout amplitude matrix of setting i in ``enumerate_settings``
    order.  ``blocks`` keeps only those system outcomes' rows, in that
    order, and the row axis shrinks to len(blocks) * 2^m.  A strength
    stack (G, outcomes, d_sys) of ``base`` is folded into the row axis and
    gives a leading G axis.
    """
    lead = base.shape[:-2]
    rows = base.reshape(lead + (d_sys, -1, d_sys))
    if blocks is not None:
        rows = rows[..., list(blocks), :, :]
    return rotated_rows(rows)


def rotated_rows(rows: np.ndarray) -> np.ndarray:
    """``readout_amplitudes`` of block rows (..., blocks, 2^m, d_sys): read-only (..., n_settings, blocks * 2^m, d_sys)."""
    lead, (n_blocks, n_patterns, d_sys) = rows.shape[:-3], rows.shape[-3:]
    full = per_meter(rows.reshape(-1, n_patterns, d_sys), READOUT_STACK)
    full = np.ascontiguousarray(full.reshape(full.shape[0], -1, n_blocks * n_patterns, d_sys).swapaxes(0, 1))
    full = full.reshape(lead + full.shape[1:])
    full.setflags(write=False)
    return full


def _member_rows(rotated: np.ndarray, perm: np.ndarray, swapped: bool) -> np.ndarray:
    """A member's readout rows of blocks s and s' from the canonical element's, read-only.

    ``rotated`` is the canonical element's (n_settings, 2 * 2^m, dim)
    ``rotated_rows``; the member's blocks come in index order, so
    swapped when s > s', and its column u is canonical column P u.
    """
    rows = rotated.reshape(rotated.shape[0], 2, -1, rotated.shape[-1])
    rows = np.take(rows[:, ::-1] if swapped else rows, perm, axis=-1).reshape(rotated.shape)
    rows.setflags(write=False)
    return rows


def check_state_dims(state: DensityMatrix | Ket, plan: ProtocolPlan) -> None:
    """Reject a state whose local dimensions differ from the plan's."""
    if state.dims != plan.element.dims:
        raise InvalidElementError(f"state dims {state.dims} do not match plan dims {plan.element.dims}")


def _born(amps: np.ndarray, state: DensityMatrix | Ket) -> np.ndarray:
    """<a_o| rho |a_o> for every row a_o of an amplitude stack."""
    flat = amps.reshape(-1, amps.shape[-1])
    if isinstance(state, Ket):
        p = np.abs(flat @ state.amplitudes) ** 2
    else:
        p = ((flat @ state.entries) * flat.conj()).sum(-1).real
    return p.reshape(amps.shape[:-1])


def all_probabilities(plan: ProtocolPlan, state: DensityMatrix | Ket) -> np.ndarray:
    """(n_settings, outcomes_per_setting) Born probabilities of every outcome."""
    return _born(plan.amplitudes, state)


def _canonical_form(plan: ProtocolPlan | PlanBatch):
    """(rows, weights, relabelings): the canonical element's block rows and weights, and P.

    rows are the rows of ``base`` of the canonical blocks 0...0 and 1_C,
    (2, 2^m, dim), and weights (2, n_settings, 2) their estimator, with a
    leading strength axis for a batch; P is a plan's (dim,) relabeling or
    a batch's (M, dim) relabelings.  A plan's are read off its own arrays
    (see ``ProtocolPlan.canonical_rows``), which is exact, so a plan and
    the stack it came from contract the same arrays.
    """
    if isinstance(plan, PlanBatch):
        return plan.canonical_rows, plan.weights, plan.relabelings
    weights = plan.weights[..., ::-1] if plan.element.s_flat > plan.element.s_prime_flat else plan.weights
    return plan.canonical_rows, np.ascontiguousarray(weights), plan.relabeling


def _relabeled(operators: np.ndarray, perms: np.ndarray) -> np.ndarray:
    """Each member's operator pair from the canonical pair (..., 2, dim, dim): op_i[t, v, u] = op[t, P_i v, P_i u].

    (..., M, 2, dim, dim) for a batch's (M, dim) relabelings, (..., 2,
    dim, dim) for a plan's (dim,); contiguous either way.
    """
    return operators[..., np.arange(2)[:, None, None], perms[..., None, :, None], perms[..., None, None, :]]


def _estimator_grams(plan: ProtocolPlan | PlanBatch) -> np.ndarray:
    """G[..., t, v, u] = sum over (setting, outcome) of c_t conj(a[v]) a[u], c_t part t's coefficients.

    Each is sum_k B_k^dag diag(phi_k) J B_k (see the module docstring),
    both blocks in one product, formed once for the canonical element
    and relabeled; estimate part t of a state is Tr(G_t rho).  A batch
    gives one pair per strength and member, (G, M, 2, dim, dim).
    """
    rows, weights, perms = _canonical_form(plan)
    phi = weights.swapaxes(-1, -2) @ _flip_phases(plan.n_meters)  # (..., 2, blocks, patterns)
    lead, d = rows.shape[:-3], rows.shape[-1]
    flipped = phi[..., None] * rows[..., None, :, ::-1, :]
    pairs = rows.reshape(lead + (1, -1, d))
    return _relabeled(pairs.conj().swapaxes(-1, -2) @ flipped.reshape(lead + (2, -1, d)), perms)


def expectations(operators: np.ndarray, state: DensityMatrix) -> np.ndarray:
    """Tr(O rho) for each operator O of a (..., dim, dim) stack, real for Hermitian O."""
    return np.einsum("...vu,uv->...", operators, state.entries).real


def functional_matrix(plan: ProtocolPlan) -> np.ndarray:
    """System operator K with estimate(rho) = sum_uv K[u,v] rho[u,v].

    Unbiasedness means K is the single matrix unit at (s, s'), which is
    checkable without any quantum state.
    """
    g_re, g_im = _estimator_grams(plan)
    return (g_re + 1j * g_im).T


def estimator_operators(plan: ProtocolPlan | PlanBatch) -> np.ndarray:
    """Hermitian operators W[..., t] with sum over (setting, outcome) of c_t^2 p = Tr(W_t rho).

    These give per-state shot variances of part t (0 Re, 1 Im) at unit
    per-setting exposure as linear functionals of the state: (2, dim,
    dim) for a plan, with (strength, member) axes for a batch.  Each is
    sum_k alpha_k B_k^dag B_k (see the module docstring), with alpha_k
    block k's squared weights summed over settings left to right, formed
    once for the canonical element and relabeled, so no readout row is
    rotated.
    """
    rows, weights, perms = _canonical_form(plan)
    alpha = np.cumsum(weights ** 2, axis=-2)[..., -1, :]  # left to right, as add.accumulate runs
    n_patterns, d = rows.shape[-2:]
    scale = np.repeat(alpha, n_patterns, axis=-1)[..., None]
    rows = rows.reshape(rows.shape[:-3] + (1, -1, d))
    return _relabeled(rows.conj().swapaxes(-1, -2) @ (scale * rows), perms)


def plan_document(plan: ProtocolPlan) -> str:
    """Structured text export of a plan for audit."""
    coeff_table = []
    for i, setting in enumerate(plan.settings):
        for o in range(plan.outcomes_per_setting):
            coeff_table.append(
                {
                    "setting": setting.label,
                    "outcome": o,
                    "re": format_float(plan.coeff_re[i, o]),
                    "im": format_float(plan.coeff_im[i, o]),
                }
            )
    doc = {
        "scheme": plan.scheme,
        "element": {
            "dims": list(plan.element.dims),
            "s": list(plan.element.s),
            "s_prime": list(plan.element.s_prime),
        },
        "g": format_float(plan.g),
        "couplings": [
            {"qudit": c.qudit, "kind": c.kind, "label": c.label} for c in plan.couplings
        ],
        "settings": [s.label for s in plan.settings],
        "post_selectors": list(plan.post_selectors),
        "coefficients": coeff_table,
    }
    return encode_json(doc) + "\n"
