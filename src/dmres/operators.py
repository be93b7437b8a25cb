"""Operator constructions: swap involutions, subspace Hadamards, couplings."""

from __future__ import annotations

import numpy as np

from .errors import InvalidCouplingError, InvalidElementError
from .linalg import SIGMA_Y, Observable, UnitaryMatrix


def _check_pair(d: int, a: int, a_prime: int) -> None:
    if not (0 <= a < d and 0 <= a_prime < d):
        raise InvalidElementError(f"indices ({a},{a_prime}) out of range for dimension {d}")
    if a == a_prime:
        raise InvalidElementError(
            f"a = a' = {a}: the element is diagonal and has no swap observable"
        )


def make_involution(d: int, a: int, a_prime: int) -> Observable:
    """Hermitian involution swapping |a> and |a'>, fixing every other basis state."""
    _check_pair(d, a, a_prime)
    c = np.eye(d, dtype=complex)
    c[a, a] = 0.0
    c[a_prime, a_prime] = 0.0
    c[a, a_prime] = 1.0
    c[a_prime, a] = 1.0
    return Observable.create(c)


def make_subspace_hadamard(d: int, a: int, a_prime: int) -> UnitaryMatrix:
    """Hermitian unitary acting as the 2x2 Hadamard on span{|a>, |a'>}.

    Conjugating the reflection 1 - 2|a'><a'| with it yields
    ``make_involution(d, a, a_prime)``.
    """
    _check_pair(d, a, a_prime)
    h = np.eye(d, dtype=complex)
    r = 1.0 / np.sqrt(2.0)
    h[a, a] = r
    h[a, a_prime] = r
    h[a_prime, a] = r
    h[a_prime, a_prime] = -r
    return UnitaryMatrix.create(h)


def reflection(d: int, a_prime: int) -> Observable:
    """The ordinary observable 1 - 2|a'><a'|."""
    o = np.eye(d, dtype=complex)
    o[a_prime, a_prime] = -1.0
    return Observable.create(o)


def _kron_meter(op: np.ndarray, meter: np.ndarray) -> np.ndarray:
    """op (x) M for a d x d ``op`` and a stack (..., 2, 2) of meter matrices."""
    d = op.shape[0]
    prod = op[:, None, :, None] * meter[..., None, :, None, :]
    return prod.reshape(meter.shape[:-2] + (2 * d, 2 * d))


def coupling_gate(kind: str, op: np.ndarray, g) -> np.ndarray:
    """exp(-i g op (x) sigma_y) on qudit (x) meter as a plain 2d x 2d array.

    Only the integrated strength g enters; an array of strengths gives a
    stack of gates, shape g.shape + (2d, 2d).  An involution (op^2 = 1)
    gives cos(g) 1 - i sin(g) op (x) sigma_y; a projector (op^2 = op)
    gives (1 - op) (x) 1 + op (x) R(g), with R(g) the real rotation by g
    in the meter plane.  The operator is not checked here.
    """
    g = np.asarray(g, dtype=float)[..., None, None]
    cos, sin = np.cos(g), np.sin(g)
    d = op.shape[0]
    if kind == "involution":
        return cos * np.eye(2 * d, dtype=complex) - 1j * sin * _kron_meter(op, SIGMA_Y)
    if kind == "projector":
        rot = np.concatenate([np.concatenate([cos, -sin], -1),
                              np.concatenate([sin, cos], -1)], -2).astype(complex)
        return _kron_meter(np.eye(d) - op, np.eye(2)) + _kron_meter(op, rot)
    raise InvalidCouplingError(f"unknown coupling kind {kind!r}")


def uniform_superposition_projector(d: int) -> np.ndarray:
    """|b><b| with |b> the uniform superposition of all basis states."""
    b = np.full(d, 1.0 / np.sqrt(d), dtype=complex)
    return np.outer(b, b.conj())


def meter_readout_basis(basis: str) -> np.ndarray:
    """Columns are the +1 and -1 eigenvectors of sigma_x or sigma_y."""
    if basis == "x":
        return np.array([[1.0, 1.0], [1.0, -1.0]], dtype=complex) / np.sqrt(2.0)
    if basis == "y":
        return np.array([[1.0, 1.0], [1.0j, -1.0j]], dtype=complex) / np.sqrt(2.0)
    raise InvalidCouplingError(f"unknown meter basis {basis!r}")
