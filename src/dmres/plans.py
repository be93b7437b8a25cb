"""Measurement protocol plans and the shared probability engine.

A plan fixes the couplings, the meter readout settings and the
estimator coefficients for one density-matrix element.  Its readout
amplitudes form one (n_settings, outcomes, system-dim) stack: with
``A_s`` the slice of setting ``s``, the probability of outcome ``o`` for
input ``rho`` is ``<a_o| rho |a_o>`` with ``a_o`` the o-th row of ``A_s``.

Outcomes come in blocks of 2^m meter patterns, one block per system
outcome.  An estimator reads only the blocks its coefficients live on:
the post-selected outcomes s and s' for ``res`` and the correlator
``seq`` estimator, every block for a ``seq`` plan calibrated on the full
outcome space.  A plan therefore stores the unrotated columns ``base``,
the tuple ``blocks`` and the readout amplitudes of those blocks alone;
extraction, shot variances and draws, variance operators and the
functional matrix contract these rows with the matching slice of the
coefficient table.  The full stack ``amplitudes``, which only outcome
distributions and the full-support response map need, is rotated from
``base`` on first use and kept.

The engine never forms a joint-space matrix.  Amplitudes live in a
(d_1, ..., d_N, 2, ..., 2, columns) tensor; each coupling is its
closed-form 2d x 2d gate on one (qudit, meter) axis pair, and readout
rotations are applied meter by meter for all settings at once.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass, field
from functools import cached_property
from typing import Sequence

import numpy as np

from .elements import ElementIndex
from .errors import InvalidCouplingError
from .linalg import DensityMatrix, Ket, check_joint_dim
from .operators import coupling_gate, meter_readout_basis
from .stateio import encode_json, format_float

RES_SCHEME = "res"
SEQ_SCHEME = "seq"

# One tolerance for singular strengths.  res needs |sin(2g)| above it,
# since its estimator divides by sin^l(2g); seq needs |g| above it, since
# its projector couplings otherwise leave the meters blank (at g = pi the
# calibration reports the vanishing singular value instead).  Strength
# grids drop points where |sin(2g)| (res) or |sin(g)| (seq) is below it.
SINGULAR_TOL = 1e-9


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
    method: str


class _PlanLayout:
    """Counts and stored-block access shared by plans and plan families."""

    @property
    def n_meters(self) -> int:
        return len(self.couplings)

    @property
    def n_settings(self) -> int:
        return len(self.settings)

    @property
    def outcomes_per_setting(self) -> int:
        return self.element.dim * 2 ** self.n_meters

    @property
    def post_selectors(self) -> tuple[int, int]:
        """Flat indices (s, s') of the element's post-selected system outcomes."""
        return (self.element.s_flat, self.element.s_prime_flat)

    @cached_property
    def amplitudes(self) -> np.ndarray:
        """Read-only readout amplitudes of every outcome, rotated from ``base`` on first use.

        (n_settings, outcomes, dim) for a plan, with a leading strength
        axis for a family.  A plan that stores every block already holds it.
        """
        if len(self.blocks) == self.element.dim:
            return self.block_amplitudes
        return readout_amplitudes(self.base, self.element.dim)

    def block_entries(self, table: np.ndarray) -> np.ndarray:
        """The entries of a (..., n_settings, outcomes) table on the stored blocks.

        Ordered as the rows of ``block_amplitudes``; a table over every
        block comes back as it is.
        """
        if len(self.blocks) == self.element.dim:
            return table
        lead = np.shape(table)[:-1]
        blocks = np.take(np.reshape(table, lead + (self.element.dim, -1)), self.blocks, axis=-2)
        return blocks.reshape(lead + (-1,))


@dataclass(frozen=True)
class ProtocolPlan(_PlanLayout):
    """One element's plan at one strength.

    ``base`` holds the unrotated columns U |u> (x) |0...0>, (outcomes,
    dim); ``blocks`` the system outcomes the coefficients live on, and
    ``block_amplitudes`` their readout amplitudes, (n_settings,
    len(blocks) * 2^m, dim), read-only.  The constructor rejects nonzero
    coefficients off those blocks.
    """

    element: ElementIndex
    scheme: str
    g: float
    couplings: tuple[Coupling, ...]
    settings: tuple[MeasurementSetting, ...]
    coeff_re: np.ndarray  # (n_settings, n_outcomes)
    coeff_im: np.ndarray
    base: np.ndarray
    blocks: tuple[int, ...]
    block_amplitudes: np.ndarray
    calibration: CalibrationInfo | None = field(default=None, compare=False)

    def __post_init__(self) -> None:
        for table in (self.coeff_re, self.coeff_im):
            if np.count_nonzero(table) != np.count_nonzero(self.block_entries(table)):
                raise InvalidCouplingError(
                    f"estimator coefficients outside the stored outcome blocks {self.blocks}"
                )

    def coefficients(self) -> np.ndarray:
        return self.coeff_re + 1j * self.coeff_im


@dataclass(frozen=True)
class PlanFamily(_PlanLayout):
    """One element's plans over a strength grid, stacked on a leading axis.

    The arrays are those of ``ProtocolPlan`` with a leading axis of
    ``len(gs)`` strengths; ``family[k]`` is the plan at ``gs[k]``, whose
    arrays are views of slice k.  The engine's contractions accept a
    family wherever they accept a plan and keep the strength axis.
    """

    element: ElementIndex
    scheme: str
    gs: tuple[float, ...]
    couplings: tuple[Coupling, ...]
    settings: tuple[MeasurementSetting, ...]
    coeff_re: np.ndarray  # (G, n_settings, n_outcomes)
    coeff_im: np.ndarray
    base: np.ndarray  # (G, n_outcomes, dim)
    blocks: tuple[int, ...]
    block_amplitudes: np.ndarray  # read-only (G, n_settings, len(blocks) * 2^m, dim)
    calibrations: tuple[CalibrationInfo | None, ...] | None = field(default=None, compare=False)

    def __len__(self) -> int:
        return len(self.gs)

    def __getitem__(self, k: int) -> ProtocolPlan:
        return ProtocolPlan(
            element=self.element,
            scheme=self.scheme,
            g=self.gs[k],
            couplings=self.couplings,
            settings=self.settings,
            coeff_re=self.coeff_re[k],
            coeff_im=self.coeff_im[k],
            base=self.base[k],
            blocks=self.blocks,
            block_amplitudes=self.block_amplitudes[k],
            calibration=None if self.calibrations is None else self.calibrations[k],
        )


def finite_strengths(gs) -> tuple[float, ...]:
    """The strengths of a grid as floats, each of which must be finite."""
    gs = tuple(float(g) for g in gs)
    for g in gs:
        if not math.isfinite(g):
            raise InvalidCouplingError(f"coupling strength g={g!r} is not finite")
    return gs


def post_selected_blocks(element: ElementIndex) -> tuple[int, ...]:
    """The two system outcomes s and s' an element's estimator reads, in index order."""
    return tuple(sorted({element.s_flat, element.s_prime_flat}))


def enumerate_settings(n_meters: int) -> tuple[MeasurementSetting, ...]:
    return tuple(
        MeasurementSetting(bases) for bases in itertools.product(("x", "y"), repeat=n_meters)
    )


def sign_products(n_meters: int) -> np.ndarray:
    """Product of meter signs for each outcome pattern, in readout row order."""
    patterns = np.array(list(itertools.product((1, -1), repeat=n_meters)), dtype=float)
    if n_meters == 0:
        return np.ones(1)
    return patterns.prod(axis=1)


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
    n_patterns = base.shape[-2] // d_sys
    rows = base.reshape(lead + (d_sys, n_patterns, d_sys))
    if blocks is not None:
        rows = rows[..., list(blocks), :, :]
    n_rows = rows.shape[-3] * n_patterns
    full = per_meter(rows.reshape(-1, n_patterns, d_sys), READOUT_STACK)
    full = np.ascontiguousarray(full.reshape(full.shape[0], -1, n_rows, d_sys).swapaxes(0, 1))
    full = full.reshape(lead + full.shape[1:])
    full.setflags(write=False)
    return full


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


def estimator_sums(plan: ProtocolPlan, state: DensityMatrix | Ket, tables) -> tuple[float, ...]:
    """sum over (setting, outcome) of t * p for each (n_settings, outcomes) table t.

    p are the state's Born probabilities.  Only the stored blocks are
    evaluated, so each table must vanish off them, as the plan's
    coefficients (and any function of them that keeps zeros) do.
    """
    p = _born(plan.block_amplitudes, state)
    return tuple(float(np.sum(plan.block_entries(t) * p)) for t in tables)


def _weighted_gram(plan: ProtocolPlan | PlanFamily, weights: np.ndarray) -> np.ndarray:
    """G[v, u] = sum over (setting, outcome) of w conj(a[v]) a[u], per strength of a family.

    The sum runs over the stored blocks; ``weights`` is a full
    (..., n_settings, outcomes) table that vanishes off them.
    """
    amps = plan.block_amplitudes
    a = amps.reshape(amps.shape[:-3] + (-1, amps.shape[-1]))
    w = plan.block_entries(weights)
    return a.conj().swapaxes(-1, -2) @ (np.reshape(w, a.shape[:-1] + (1,)) * a)


def functional_matrix(plan: ProtocolPlan) -> np.ndarray:
    """System operator K with estimate(rho) = sum_uv K[u,v] rho[u,v].

    Unbiasedness means K is the single matrix unit at (s, s'), which is
    checkable without any quantum state.
    """
    return _weighted_gram(plan, plan.coefficients()).T


def estimator_operators(plan: ProtocolPlan | PlanFamily) -> tuple[np.ndarray, np.ndarray]:
    """Hermitian operators (W_re, W_im) with sum c^2 p = Tr(W rho).

    These give per-state shot variances at unit per-setting exposure as
    linear functionals of the state; a family gives (G, dim, dim) stacks.
    """
    return _weighted_gram(plan, plan.coeff_re ** 2), _weighted_gram(plan, plan.coeff_im ** 2)


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
