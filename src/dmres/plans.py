"""Measurement protocol plans and the shared probability engine.

A plan fixes the couplings, the meter readout settings and the
estimator coefficients for one density-matrix element.  Everything a
plan needs at evaluation time is captured by its readout amplitudes,
one (n_settings, outcomes, system-dim) stack: with ``A_s`` the slice of
setting ``s``, the probability of outcome ``o`` for input ``rho`` is
``<a_o| rho |a_o>`` with ``a_o`` the o-th row of ``A_s``.

The engine never forms a joint-space matrix.  Amplitudes live in a
(d_1, ..., d_N, 2, ..., 2, columns) tensor; each coupling is its
closed-form 2d x 2d gate on one (qudit, meter) axis pair, and readout
rotations are applied meter by meter for all settings at once.
"""

from __future__ import annotations

import itertools
import json
import math
from dataclasses import dataclass, field
from typing import Sequence

import numpy as np

from .elements import ElementIndex
from .errors import InvalidCouplingError
from .linalg import DensityMatrix, Ket, check_joint_dim
from .operators import coupling_gate, meter_readout_basis
from .stateio import format_float

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


@dataclass(frozen=True)
class ProtocolPlan:
    element: ElementIndex
    scheme: str
    g: float
    couplings: tuple[Coupling, ...]
    settings: tuple[MeasurementSetting, ...]
    post_selectors: tuple[int, int]  # flat indices (s, s')
    coeff_re: np.ndarray  # (n_settings, n_outcomes)
    coeff_im: np.ndarray
    amplitudes: np.ndarray  # read-only (n_settings, outcomes, dim) readout amplitudes
    calibration: CalibrationInfo | None = field(default=None, compare=False)
    has_estimator: bool = True

    @property
    def n_meters(self) -> int:
        return len(self.couplings)

    @property
    def n_settings(self) -> int:
        return len(self.settings)

    @property
    def outcomes_per_setting(self) -> int:
        return self.element.dim * 2 ** self.n_meters

    def coefficients(self) -> np.ndarray:
        return self.coeff_re + 1j * self.coeff_im


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
                     g: float) -> np.ndarray:
    """Apply each coupling's local gate, first coupling first.

    ``tensor`` has axes (d_1, ..., d_N, 2, ..., 2, rest) with meter i on
    axis N + i; each gate acts on the (qudit, meter) axis pair only.
    """
    n = len(dims)
    for i, c in enumerate(couplings):
        axes = (c.qudit, n + i)
        moved = np.moveaxis(tensor, axes, (0, 1))
        gate = coupling_gate(c.kind, c.op, g)
        moved = (gate @ moved.reshape(gate.shape[0], -1)).reshape(moved.shape)
        tensor = np.moveaxis(moved, (0, 1), axes)
    return tensor


def joint_unitary(dims: Sequence[int], couplings: Sequence[Coupling], g: float) -> np.ndarray:
    """Total coupling unitary on system (x) meters; first coupling acts first."""
    dims = tuple(dims)
    m = len(couplings)
    joint = math.prod(dims) * 2 ** m
    check_joint_dim(joint)
    eye = np.eye(joint, dtype=complex).reshape(dims + (2,) * m + (joint,))
    return _apply_couplings(eye, dims, couplings, g).reshape(joint, joint)


def base_amplitudes(dims: Sequence[int], couplings: Sequence[Coupling], g: float) -> np.ndarray:
    """Columns are U |u> (x) |0...0> for each system basis ket |u>.

    Rows are (system outcome, meter pattern) with meter 0 most
    significant: shape (d_sys * 2^m, d_sys).
    """
    dims = tuple(dims)
    d_sys = math.prod(dims)
    m = len(couplings)
    check_joint_dim(d_sys * 2 ** m)
    start = np.zeros((d_sys, 2 ** m, d_sys), dtype=complex)
    start[np.arange(d_sys), 0, np.arange(d_sys)] = 1.0
    out = _apply_couplings(start.reshape(dims + (2,) * m + (d_sys,)), dims, couplings, g)
    return out.reshape(d_sys * 2 ** m, d_sys)


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


def readout_amplitudes(
    base: np.ndarray,
    settings: Sequence[MeasurementSetting],
    d_sys: int,
) -> np.ndarray:
    """Rotate the meter factors of ``base`` into each setting's eigenbasis.

    Returns one read-only (n_settings, outcomes, d_sys) stack; slice i is
    the readout amplitude matrix of ``settings[i]``.
    """
    full = per_meter(base.reshape(d_sys, -1, d_sys), READOUT_STACK)
    m = full.shape[0].bit_length() - 1
    order = [sum(1 << (m - 1 - j) for j, b in enumerate(s.meter_bases) if b == "y")
             for s in settings]
    if order != list(range(full.shape[0])):
        full = full[order]
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


def setting_probabilities(plan: ProtocolPlan, state: DensityMatrix | Ket, setting_index: int) -> np.ndarray:
    return _born(plan.amplitudes[setting_index], state)


def all_probabilities(plan: ProtocolPlan, state: DensityMatrix | Ket) -> np.ndarray:
    """(n_settings, outcomes_per_setting) Born probabilities."""
    return _born(plan.amplitudes, state)


def _weighted_gram(plan: ProtocolPlan, weights: np.ndarray) -> np.ndarray:
    """G[v, u] = sum over (setting, outcome) of w conj(a[v]) a[u]."""
    a = plan.amplitudes.reshape(-1, plan.element.dim)
    return a.conj().T @ (np.reshape(weights, (-1, 1)) * a)


def functional_matrix(plan: ProtocolPlan) -> np.ndarray:
    """System operator K with estimate(rho) = sum_uv K[u,v] rho[u,v].

    Unbiasedness means K is the single matrix unit at (s, s'), which is
    checkable without any quantum state.
    """
    return _weighted_gram(plan, plan.coefficients()).T


def estimator_operators(plan: ProtocolPlan) -> tuple[np.ndarray, np.ndarray]:
    """Hermitian operators (W_re, W_im) with sum c^2 p = Tr(W rho).

    These give per-state shot variances at unit per-setting exposure as
    linear functionals of the state.
    """
    return _weighted_gram(plan, plan.coeff_re ** 2), _weighted_gram(plan, plan.coeff_im ** 2)


def apply_estimator(plan: ProtocolPlan, probabilities: np.ndarray) -> complex:
    """Contract the coefficient table with (n_settings, n_outcomes) probabilities."""
    if not plan.has_estimator:
        raise InvalidCouplingError(
            "plan carries no estimator coefficients (built at a singular strength)"
        )
    re = float(np.sum(plan.coeff_re * probabilities))
    im = float(np.sum(plan.coeff_im * probabilities))
    return complex(re, im)


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

    def encode(obj):
        if isinstance(obj, dict):
            return "{" + ", ".join(f"{json.dumps(k)}: {encode(v)}" for k, v in obj.items()) + "}"
        if isinstance(obj, list):
            return "[" + ", ".join(encode(v) for v in obj) + "]"
        if isinstance(obj, str):
            try:
                float(obj)
                return obj
            except ValueError:
                return json.dumps(obj)
        return json.dumps(obj)

    return encode(doc) + "\n"
