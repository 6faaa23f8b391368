"""The height of a monomial ideal.

The minimal primes of a monomial ideal are generated by variables: they are
the inclusion-minimal variable sets that meet every generator's support.
The height is the least size of such a set.  A pure function on immutable
inputs; safe for concurrent use.
"""
from __future__ import annotations

from itertools import combinations

from .core import MonomialIdeal, _minimal_supports


def _supports(ideal: MonomialIdeal) -> list[frozenset[int]]:
    """The inclusion-minimal generator supports of a nonzero proper ideal.

    A support containing another is hit whenever the smaller one is, so
    these alone decide which variable sets are covers.
    """
    if ideal.is_zero():
        raise ValueError("the zero ideal has no variable-generated minimal primes")
    if ideal.is_unit():
        raise ValueError("the unit ideal has no minimal primes")
    return [frozenset(i for i, e in enumerate(s) if e) for s in _minimal_supports(ideal)]


def height(ideal: MonomialIdeal) -> int:
    """Minimum cardinality over the minimal primes (the codimension).

    A smallest variable set hitting every support is a minimal prime, so
    this is the first k for which some k variables hit every support.
    """
    supports = _supports(ideal)
    variables = sorted(frozenset().union(*supports))
    return next(
        k
        for k in range(1, len(variables) + 1)
        if any(all(s.intersection(c) for s in supports) for c in combinations(variables, k))
    )

