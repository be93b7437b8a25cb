"""Element indices: which density-matrix entry a protocol targets.

Inside the library an element set is a pair of flat-index arrays (u, v)
on ``dims``, s and s' in row-major order.  This module lists such sets,
groups them by coupled shape, maps them to supports and names them;
``ElementIndex``, the public type, is built only where asked for.
"""

from __future__ import annotations

import functools
import math
import operator
from dataclasses import dataclass
from functools import cached_property
from typing import Sequence

import numpy as np

from .errors import InvalidElementError


@dataclass(frozen=True)
class ElementIndex:
    """Pair of multi-indices naming the entry <s| rho |s_prime>."""

    dims: tuple[int, ...]
    s: tuple[int, ...]
    s_prime: tuple[int, ...]

    def __post_init__(self) -> None:
        if not (len(self.dims) == len(self.s) == len(self.s_prime)):
            raise InvalidElementError(
                f"index lengths {len(self.s)}/{len(self.s_prime)} do not match {len(self.dims)} qudits"
            )
        for n, (d, a, ap) in enumerate(zip(self.dims, self.s, self.s_prime)):
            if not (0 <= a < d and 0 <= ap < d):
                raise InvalidElementError(f"indices ({a},{ap}) out of range for qudit {n} of dimension {d}")

    @classmethod
    def create(cls, dims: Sequence[int], s: Sequence[int], s_prime: Sequence[int]) -> "ElementIndex":
        """The element of integer ``dims``, ``s`` and ``s_prime``; any other entry raises ``InvalidElementError``."""
        return cls(_integers(dims, "dims"), _integers(s, "indices"), _integers(s_prime, "indices"))

    @property
    def n_qudits(self) -> int:
        return len(self.dims)

    @cached_property
    def dim(self) -> int:
        return int(np.prod(self.dims))

    @cached_property
    def coupled_set(self) -> tuple[int, ...]:
        return tuple(n for n in range(self.n_qudits) if self.s[n] != self.s_prime[n])

    @property
    def n_couplings(self) -> int:
        return len(self.coupled_set)

    @property
    def is_diagonal(self) -> bool:
        return self.s == self.s_prime

    @cached_property
    def s_flat(self) -> int:
        return int(np.ravel_multi_index(self.s, self.dims))

    @cached_property
    def s_prime_flat(self) -> int:
        return int(np.ravel_multi_index(self.s_prime, self.dims))

    def conjugate(self) -> "ElementIndex":
        return ElementIndex(self.dims, self.s_prime, self.s)

    def label(self) -> str:
        """'s,s_prime' with one digit per qudit, or indices joined by '.' once a
        dimension exceeds 10, where digits alone would name several elements."""
        return _labels(self.dims, [self.s], [self.s_prime])[0]


def _integers(values, what: str) -> tuple[int, ...]:
    """``values`` as ints, numpy integers included; a float, string or other entry raises ``InvalidElementError``."""
    values = tuple(values)
    try:
        return tuple(operator.index(a) for a in values)
    except TypeError:
        raise InvalidElementError(f"{what} {values!r} are not all integers") from None


def _labels(dims, s_rows, s_prime_rows) -> list[str]:
    """'s,s_prime' for each pair of per-qudit index rows, as ``ElementIndex.label`` writes it."""
    sep = "." if max(dims, default=0) > 10 else ""
    return [f"{sep.join(map(str, s))},{sep.join(map(str, sp))}" for s, sp in zip(s_rows, s_prime_rows)]


@functools.cache
def _radices(dims: tuple[int, ...]) -> tuple[np.ndarray, np.ndarray]:
    """Read-only row-major strides and sizes (N,) of ``dims``, built once per dims."""
    strides = np.array([math.prod(dims[n + 1:]) for n in range(len(dims))], dtype=np.intp)
    sizes = np.array(dims, dtype=np.intp)
    strides.setflags(write=False)
    sizes.setflags(write=False)
    return strides, sizes


def _digits(dims: Sequence[int], flat) -> np.ndarray:
    """Per-qudit indices (..., N) of flat row-major indices on ``dims``."""
    strides, sizes = _radices(tuple(dims))
    return np.asarray(flat, dtype=np.intp)[..., None] // strides % sizes


def pair_labels(dims: Sequence[int], u, v) -> list[str]:
    """``ElementIndex.label`` of each pair (u[i], v[i]), without building an element."""
    return _labels(dims, _digits(dims, u).tolist(), _digits(dims, v).tolist())


def element_from_flat(dims: Sequence[int], s_flat: int, sp_flat: int) -> ElementIndex:
    """The element <s| rho |s'> of flat row-major indices ``s_flat`` and ``sp_flat``.

    Each must be an integer in 0..D-1, D the product of ``dims``; any
    other raises ``InvalidElementError``.
    """
    dims = _integers(dims, "dims")
    dim = math.prod(dims)
    for flat in (s_flat, sp_flat):
        if not isinstance(flat, (int, np.integer)) or not 0 <= flat < dim:
            raise InvalidElementError(f"flat index {flat!r} is not an integer in 0..{dim - 1} (D={dim})")
    s, s_prime = _digits(dims, [s_flat, sp_flat]).tolist()
    return ElementIndex(dims, tuple(s), tuple(s_prime))


def offdiagonal_pairs(dims: Sequence[int], ordered: bool = False) -> tuple[np.ndarray, np.ndarray]:
    """Flat indices (u, v) of every off-diagonal element in row-major (s, s') order; u < v unless ``ordered``."""
    dim = math.prod(dims)
    if ordered:
        return np.nonzero(~np.eye(dim, dtype=bool))
    return np.triu_indices(dim, 1)


def completely_offdiagonal_pairs(dims: Sequence[int], ordered: bool = False) -> tuple[np.ndarray, np.ndarray]:
    """The ``offdiagonal_pairs`` whose indices differ on every qudit, in their order."""
    u, v = offdiagonal_pairs(dims, ordered)
    keep = (_digits(dims, u) != _digits(dims, v)).all(-1)
    return u[keep], v[keep]


def coupled_shape(dims: Sequence[int], u: int, v: int) -> tuple[int, ...]:
    """dims[C] of the pair (u, v), C the qudits where its indices differ."""
    du, dv = _digits(dims, [u, v]).tolist()
    return tuple(int(d) for d, a, b in zip(dims, du, dv) if a != b)


def shape_groups(dims: Sequence[int], u, v) -> list[np.ndarray]:
    """The positions of the pairs of each coupled shape dims[C], one array per shape.

    Shapes come in the order of their first pair and positions in list
    order.  Each pair's shape is packed into one integer, a digit per
    coupled qudit naming its dimension by rank among the distinct
    dimensions (a small base, so that the code of any set small enough
    to list fits in 64 bits), and the codes are grouped by one 1-D
    ``np.unique``.
    """
    coupled = _digits(dims, u) != _digits(dims, v)
    rank = {d: r for r, d in enumerate(sorted(set(dims)), 1)}
    code = np.zeros(len(coupled), dtype=np.int64)
    for n, d in enumerate(dims):
        code = np.where(coupled[:, n], code * (len(rank) + 1) + rank[d], code)
    _, first, inverse = np.unique(code, return_index=True, return_inverse=True)
    return [np.flatnonzero(inverse == k) for k in np.argsort(first)]


def supports(dims: Sequence[int], u, v) -> np.ndarray:
    """(M, d_C) full-basis indices of each pair's coupled block, in the canonical element's column order.

    On each coupled qudit canonical level 0 is s_n, level 1 is s'_n and
    the other levels follow in their order; every other qudit stays at
    s_n.  So column 0...0 is s and column 1...1 is s'.  Pairs must share
    their coupled shape; each reads its own coupled set.
    """
    du, dv = _digits(dims, u), _digits(dims, v)
    coupled = du != dv
    shape = [d for d, c in zip(dims, coupled[0].tolist()) if c]
    # s_n, s'_n and the stride of each pair's j-th coupled qudit, (M, l) each
    strides = np.broadcast_to(_radices(tuple(dims))[0], du.shape)
    a, b, stride = (x[coupled].reshape(len(du), -1) for x in (du, dv, strides))
    index = np.asarray(u)[:, None]
    for j, d in enumerate(shape):
        order = _level_orders(d)[a[:, j], b[:, j]]  # (M, d): canonical level -> level
        step = (order - a[:, j, None]) * stride[:, j, None]
        index = (index[:, :, None] + step[:, None, :]).reshape(len(index), -1)  # canonical row-major
    return index


@functools.cache
def _level_orders(d: int) -> np.ndarray:
    """Read-only (d, d, d) table: [a, b] lists a d-level qudit's levels a and b, then the rest in order."""
    table = np.array([[list(dict.fromkeys([a, b, *range(d)])) for b in range(d)] for a in range(d)])
    table.setflags(write=False)
    return table


def _elements(dims: tuple[int, ...], u, v) -> list[ElementIndex]:
    rows = zip(_digits(dims, u).tolist(), _digits(dims, v).tolist())
    return [ElementIndex(dims, tuple(s), tuple(sp)) for s, sp in rows]


def all_offdiagonal_elements(dims: Sequence[int], ordered: bool = False) -> list[ElementIndex]:
    """Every off-diagonal element in row-major (s, s') order; upper triangle only unless ``ordered``."""
    dims = _integers(dims, "dims")
    return _elements(dims, *offdiagonal_pairs(dims, ordered))


def completely_offdiagonal_elements(dims: Sequence[int], ordered: bool = False) -> list[ElementIndex]:
    """Elements with every per-qudit index differing (all-qudit coherences)."""
    dims = _integers(dims, "dims")
    return _elements(dims, *completely_offdiagonal_pairs(dims, ordered))


def precision_element_set(n_qudits: int, d: int) -> list[ElementIndex]:
    """Elements entering the mean-precision average: the completely off-diagonal ones.

    A single qudit's are all of its index pairs.  ``n_qudits`` and ``d``
    are checked as a ``SystemSpec``, which raises ``InvalidStateError``
    for an empty system.
    """
    from .precision import SystemSpec  # the one check of a system's sizes

    return completely_offdiagonal_elements(SystemSpec(n_qudits, d).dims)
