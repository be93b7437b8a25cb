"""Element indices: which density-matrix entry a protocol targets."""

from __future__ import annotations

import itertools
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
        return cls(tuple(int(d) for d in dims), tuple(int(a) for a in s), tuple(int(a) for a in s_prime))

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
        sep = "." if max(self.dims, default=0) > 10 else ""
        return f"{sep.join(map(str, self.s))},{sep.join(map(str, self.s_prime))}"


def element_from_flat(dims: Sequence[int], s_flat: int, sp_flat: int) -> ElementIndex:
    return ElementIndex.create(dims, np.unravel_index(s_flat, dims), np.unravel_index(sp_flat, dims))


def all_offdiagonal_elements(dims: Sequence[int], ordered: bool = False) -> list[ElementIndex]:
    """Every off-diagonal element in row-major (s, s') order; upper triangle only unless ``ordered``."""
    dims = tuple(int(d) for d in dims)
    indices = list(itertools.product(*map(range, dims)))  # row-major, as np.unravel_index
    pairs = itertools.permutations(indices, 2) if ordered else itertools.combinations(indices, 2)
    return [ElementIndex(dims, s, s_prime) for s, s_prime in pairs]


def completely_offdiagonal_elements(dims: Sequence[int], ordered: bool = False) -> list[ElementIndex]:
    """Elements with every per-qudit index differing (all-qudit coherences)."""
    return [
        e for e in all_offdiagonal_elements(dims, ordered=ordered)
        if e.n_couplings == e.n_qudits
    ]


def precision_element_set(n_qudits: int, d: int) -> list[ElementIndex]:
    """Elements entering the mean-precision average.

    Single qudits average over every index pair; multi-qudit systems
    average over the completely off-diagonal pairs only.
    """
    dims = (d,) * n_qudits
    if n_qudits == 1:
        return all_offdiagonal_elements(dims)
    return completely_offdiagonal_elements(dims)
