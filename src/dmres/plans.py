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
alone writes them out as full tables, for export.  A draw therefore
needs one Poisson count per sign class, the patterns of one (setting,
block) whose sign product is +1 or -1 (see ``shots``).  The readout
amplitudes of blocks s and s', ``block_amplitudes``, whose cells shot
draws read and sum into those classes, are rotated from the stored
block rows on first use and kept.  The
full-space columns ``base`` and the full stack ``amplitudes``, which
only outcome distributions, the response map and tests read, are built
on first use.

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

Elements with one coupled shape dims[C], C the qudits where s and s'
differ, share one plan up to a relabeling.  Every other qudit is left
alone, so an element's estimate, variance and shot cells live on the
d_C x d_C block of rho over C.  Per coupled qudit, relabel the basis so
that s_n goes to 0 and s'_n to 1: the res swap C[s_n, s'_n] becomes
C[0, 1], the seq projector pi[s_n] becomes pi[0], and the
uniform-superposition projector is unchanged.  So every element of
coupled shape dims[C], whichever qudits C names, reads the plan of the
canonical element, the fully coupled element (0...0, 1...1) of the
subsystem dims[C], through its support: the full-basis index of each of
the d_C canonical columns.  Plans keep only that element's unrotated
rows of its blocks 0...0 and 1...1, ``rows``, (2, 2^m, d_C), and its
weights; those two blocks are every member's s and s', in that order.  A
``PlanBatch`` is the one plan stack: elements with one coupled shape at
G strengths, holding ``rows`` and weights once and one support per
member.  Each scheme builds its plans only as such a stack, a single
plan being the stack of one.  The estimate, variance and readout
contractions run on the canonical arrays, once per stack, and meet each
member's block of the state in one gather; ``embedded`` puts a
canonical operator into the full space where a caller needs it there.
"""

from __future__ import annotations

import functools
import itertools
import math
from dataclasses import dataclass, field
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
# one stack may hold at once: ``member_traces`` (d_C^2 per member) and a
# batch shot draw gather that many entries' worth of members at a time,
# at least one.
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


@dataclass(frozen=True)
class ProtocolPlan(_PlanLayout):
    """One element's plan at one strength.

    ``rows`` holds the canonical element's unrotated rows of its blocks
    0...0 and 1...1, (2, 2^m, d_C), ``support`` the full-basis index of
    each of their d_C columns (see the module docstring), and
    ``weights`` the estimator, (2, n_settings, 2): part t's weight on
    setting b and post-selected block k, s then s'.  The constructor
    rejects weights of any other shape.
    """

    element: ElementIndex
    scheme: str
    g: float
    couplings: tuple[Coupling, ...]
    settings: tuple[MeasurementSetting, ...]
    weights: np.ndarray  # (2, n_settings, 2)
    rows: np.ndarray  # (2, 2^m, d_C), the canonical element's
    support: np.ndarray  # (d_C,)
    calibration: CalibrationInfo | None = field(default=None, compare=False)

    def __post_init__(self) -> None:
        want = (2, self.n_settings, 2)
        if np.shape(self.weights) != want:
            raise InvalidCouplingError(
                f"estimator weights have shape {np.shape(self.weights)}, want {want}: a (Re, Im) "
                f"weight per setting and post-selected block {self.post_selectors}"
            )

    @property
    def outcomes_per_setting(self) -> int:
        return self.element.dim * self.n_settings

    @property
    def post_selectors(self) -> tuple[int, int]:
        """Flat indices (s, s') of the element's post-selected system outcomes."""
        return (self.element.s_flat, self.element.s_prime_flat)

    @cached_property
    def base(self) -> np.ndarray:
        """Read-only columns U |u> (x) |0...0> of the full space, (outcomes, dim), built on first use."""
        base = base_amplitudes(self.element.dims, self.couplings, self.g)
        base.setflags(write=False)
        return base

    @cached_property
    def block_amplitudes(self) -> np.ndarray:
        """Read-only readout amplitudes of blocks s and s' on the coupled block, rotated from ``rows`` on first use.

        (n_settings, 2 * 2^m, d_C): block s then block s', column c at
        full-basis index ``support[c]``, as a stack's shot draws read them.
        """
        return readout_amplitudes(self.rows)

    @cached_property
    def amplitudes(self) -> np.ndarray:
        """Read-only readout amplitudes of every outcome, rotated from ``base`` on first use.

        (n_settings, outcomes, dim).
        """
        d = self.element.dim
        return readout_amplitudes(self.base.reshape(d, -1, d))

    @cached_property
    def estimator_operators(self) -> np.ndarray:
        """Read-only (2, d_C, d_C) ``estimator_operators`` pair (W_re, W_im), computed on first use."""
        operators = estimator_operators(self)
        operators.setflags(write=False)
        return operators

    @cached_property
    def _tables(self) -> np.ndarray:
        tables = coefficient_tables(self.weights, self.post_selectors, self.element.dim)
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
    """Plans of elements with one coupled shape at G strengths, stacked.

    Every member reads the canonical element of the coupled shape (see
    the module docstring), so the stack holds that element's block
    ``rows`` (G, 2, 2^m, d_C), its ``weights`` (G, 2, n_settings, 2) and
    its ``calibrations[k]`` at ``gs[k]``, if any, once, and
    ``supports[i]`` (M, d_C), the support of member i, on its own
    coupled set.  ``batch[k, i]`` is member i's plan at ``gs[k]``, with
    the couplings the scheme's rule gives member i.  The engine's
    estimate and variance contractions accept a batch and run once on
    the canonical arrays.
    """

    elements: tuple[ElementIndex, ...]
    scheme: str
    gs: tuple[float, ...]
    settings: tuple[MeasurementSetting, ...]
    weights: np.ndarray  # (G, 2, n_settings, 2), the canonical element's
    rows: np.ndarray  # (G, 2, 2^m, d_C), the canonical element's
    supports: np.ndarray  # (M, d_C)
    calibrations: tuple[CalibrationInfo, ...] | None = field(default=None, compare=False)

    @property
    def outcomes_per_setting(self) -> int:
        return self.elements[0].dim * self.n_settings

    def __getitem__(self, key: tuple[int, int]) -> ProtocolPlan:
        from .res import scheme_entry  # the scheme table sits above the engine
        k, i = key
        element = self.elements[i]
        return ProtocolPlan(
            element=element,
            scheme=self.scheme,
            g=self.gs[k],
            couplings=scheme_entry(self.scheme).couplings(element),
            settings=self.settings,
            weights=self.weights[k],
            rows=self.rows[k],
            support=self.supports[i],
            calibration=None if self.calibrations is None else self.calibrations[k],
        )


def canonical_element(element: ElementIndex) -> ElementIndex:
    """(0...0, 1...1) on dims[C]: the element of ``element``'s coupled shape that every member reads."""
    return _canonical_element(tuple(element.dims[n] for n in element.coupled_set))


@functools.cache
def _canonical_element(dims: tuple[int, ...]) -> ElementIndex:
    return ElementIndex(dims, (0,) * len(dims), (1,) * len(dims))


def supports(elements: Sequence[ElementIndex]) -> np.ndarray:
    """(M, d_C) full-basis indices of each element's coupled block, in the canonical element's column order.

    On each coupled qudit canonical level 0 is s_n, level 1 is s'_n and
    the other levels follow in their order; every other qudit stays at
    s_n.  So column 0...0 is s and column 1...1 is s'.  Elements must
    share their coupled shape; each reads its own coupled set.
    """
    dims, shape = elements[0].dims, canonical_element(elements[0]).dims
    strides = [math.prod(dims[n + 1:]) for n in range(len(dims))]
    # s_n, s'_n and the stride of each member's j-th coupled qudit, (M, l) each
    a, b, stride = np.array([[(e.s[n], e.s_prime[n], strides[n]) for n in e.coupled_set]
                             for e in elements]).transpose(2, 0, 1)
    digits = np.indices(shape).reshape(len(shape), -1)  # canonical, row-major
    index = (np.array([e.s for e in elements]).reshape(len(elements), -1) @ strides)[:, None]
    for j, d in enumerate(shape):
        levels = _level_orders(d)[a[:, j], b[:, j]]  # (M, d): canonical level -> level
        index = index + (levels[:, digits[j]] - a[:, j, None]) * stride[:, j, None]
    return index


@functools.cache
def _level_orders(d: int) -> np.ndarray:
    """Read-only (d, d, d) table: [a, b] lists a d-level qudit's levels a and b, then the rest in order."""
    table = np.array([[list(dict.fromkeys([a, b, *range(d)])) for b in range(d)] for a in range(d)])
    table.setflags(write=False)
    return table


def canonical_rows(canonical: ElementIndex, couplings: Sequence[Coupling], gs) -> np.ndarray:
    """The canonical element's unrotated rows of its blocks 0...0 and 1...1 at every strength: (G, 2, 2^m, d_C)."""
    d = canonical.dim
    base = base_amplitudes(canonical.dims, couplings, gs)
    return base.reshape(len(gs), d, -1, d)[:, [canonical.s_flat, canonical.s_prime_flat]]


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


def readout_amplitudes(rows: np.ndarray) -> np.ndarray:
    """Rotate the meter factors of block rows (..., blocks, 2^m, d) into each setting's eigenbasis.

    Returns one read-only (..., n_settings, blocks * 2^m, d) stack; slice
    i is the readout amplitude matrix of setting i in
    ``enumerate_settings`` order.
    """
    lead, (n_blocks, n_patterns, d_sys) = rows.shape[:-3], rows.shape[-3:]
    full = per_meter(rows.reshape(-1, n_patterns, d_sys), READOUT_STACK)
    full = np.ascontiguousarray(full.reshape(full.shape[0], -1, n_blocks * n_patterns, d_sys).swapaxes(0, 1))
    full = full.reshape(lead + full.shape[1:])
    full.setflags(write=False)
    return full


def check_state_dims(state: DensityMatrix | Ket, plan: ProtocolPlan) -> None:
    """Reject a state whose local dimensions differ from the plan's."""
    if state.dims != plan.element.dims:
        raise InvalidElementError(f"state dims {state.dims} do not match plan dims {plan.element.dims}")


def _born(amps: np.ndarray, state: DensityMatrix | Ket, supports: np.ndarray | None = None) -> np.ndarray:
    """<a_o| rho |a_o> for every row a_o of an amplitude stack.

    The columns of ``amps`` are the whole state's, or, with ``supports``
    one support (d_C,) or one per member (M, d_C), each block's at its
    support, giving ``amps.shape[:-1]`` or (M,) + that.  A Ket is read
    as its amplitudes, never densified; every block runs the products
    of a block read alone.
    """
    flat = amps.reshape(-1, amps.shape[-1])
    if isinstance(state, Ket):
        psi = state.amplitudes if supports is None else state.amplitudes[supports]
        p = np.abs(flat @ psi[..., None])[..., 0] ** 2
    else:
        rho = state.entries if supports is None else state.entries[supports[..., :, None], supports[..., None, :]]
        p = ((flat @ rho) * flat.conj()).sum(-1).real
    return p.reshape(p.shape[:-1] + amps.shape[:-1])


def all_probabilities(plan: ProtocolPlan, state: DensityMatrix | Ket) -> np.ndarray:
    """(n_settings, outcomes_per_setting) Born probabilities of every outcome."""
    return _born(plan.amplitudes, state)


def member_traces(operators: np.ndarray, state: DensityMatrix | Ket, supports: np.ndarray) -> np.ndarray:
    """Tr(O rho_i) for each canonical operator O of a (..., t, d_C, d_C) stack and each member's block rho_i.

    ``supports`` is one support (d_C,) or one per member (M, d_C), giving
    (..., t) or (..., M, t).  Each block is one gather of the state,
    ``MEMBER_ENTRIES // d_C^2`` members at a time; a Ket is read as its
    amplitudes, never as a density matrix.  Real for Hermitian O.
    """
    members = supports.reshape(-1, supports.shape[-1])
    step, parts = max(1, MEMBER_ENTRIES // members.shape[-1] ** 2), []
    for part in (members[lo:lo + step] for lo in range(0, len(members), step)):
        if isinstance(state, Ket):
            block = state.amplitudes[part]
            parts.append(np.einsum("...tvu,mv,mu->...mt", operators, block.conj(), block).real)
        else:
            # rho_i transposed, so both operands share one layout and each
            # member's sum runs in one order however many members there are
            block = state.entries[part[:, None, :], part[:, :, None]]
            parts.append(np.einsum("...tvu,mvu->...mt", operators, block).real)
    values = np.concatenate(parts, axis=-2)
    return values.reshape(values.shape[:-2] + supports.shape[:-1] + values.shape[-1:])


def embedded(operators: np.ndarray, supports: np.ndarray, dim: int) -> np.ndarray:
    """Canonical operators (..., d_C, d_C) put into the full space at each support, zero off the block.

    ``supports`` is one support (d_C,) or one per member (M, d_C), giving
    (..., dim, dim) or (..., M, dim, dim): operator entry (a, b) lands at
    (support[a], support[b]).
    """
    members = supports.reshape(-1, supports.shape[-1])
    out = np.zeros(operators.shape[:-2] + (len(members), dim, dim), dtype=operators.dtype)
    out[..., np.arange(len(members))[:, None, None], members[:, :, None], members[:, None, :]] = \
        operators[..., None, :, :]
    return out.reshape(operators.shape[:-2] + supports.shape[:-1] + (dim, dim))


def _estimator_grams(plan: ProtocolPlan | PlanBatch) -> np.ndarray:
    """G[..., t, v, u] = sum over (setting, outcome) of c_t conj(a[v]) a[u], c_t part t's coefficients.

    Each is sum_k B_k^dag diag(phi_k) J B_k (see the module docstring),
    both blocks in one product, formed on the canonical element's
    coupled block; estimate part t of a member is Tr(G_t rho_i), rho_i
    its block of the state.  (2, d_C, d_C) for a plan, one pair per
    strength for a batch.
    """
    rows = plan.rows
    phi = plan.weights.swapaxes(-1, -2) @ _flip_phases(plan.n_meters)  # (..., 2, blocks, patterns)
    lead, d = rows.shape[:-3], rows.shape[-1]
    flipped = phi[..., None] * rows[..., None, :, ::-1, :]
    pairs = rows.reshape(lead + (1, -1, d))
    return pairs.conj().swapaxes(-1, -2) @ flipped.reshape(lead + (2, -1, d))


def functional_matrix(plan: ProtocolPlan) -> np.ndarray:
    """System operator K with estimate(rho) = sum_uv K[u,v] rho[u,v].

    Unbiasedness means K is the single matrix unit at (s, s'), which is
    checkable without any quantum state.
    """
    g_re, g_im = embedded(_estimator_grams(plan), plan.support, plan.element.dim)
    return (g_re + 1j * g_im).T


def estimator_operators(plan: ProtocolPlan | PlanBatch) -> np.ndarray:
    """Hermitian operators W[..., t] with sum over (setting, outcome) of c_t^2 p = Tr(W_t rho_i).

    These give per-state shot variances of part t (0 Re, 1 Im) at unit
    per-setting exposure as linear functionals of each member's block
    rho_i of the state: (2, d_C, d_C) for a plan, one pair per strength
    for a batch.  Each is sum_k alpha_k B_k^dag B_k (see the module
    docstring), with alpha_k block k's squared weights summed over
    settings left to right, formed on the canonical element's coupled
    block, so no readout row is rotated.
    """
    alpha = np.cumsum(plan.weights ** 2, axis=-2)[..., -1, :]  # left to right, as add.accumulate runs
    n_patterns, d = plan.rows.shape[-2:]
    scale = np.repeat(alpha, n_patterns, axis=-1)[..., None]
    rows = plan.rows.reshape(plan.rows.shape[:-3] + (1, -1, d))
    return rows.conj().swapaxes(-1, -2) @ (scale * rows)


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
