"""Combinatorial invariants of a monomial ideal.

Minimal primes of a monomial ideal are generated by variables, so they are
identified here with variable-index sets: the inclusion-minimal transversals
of the hypergraph of generator supports.  Pure functions on immutable
inputs; safe for concurrent use.
"""
from __future__ import annotations

from itertools import combinations

from .core import MonomialIdeal, _minimal_supports

VariableSubset = frozenset[int]


def _supports(ideal: MonomialIdeal) -> list[VariableSubset]:
    """The inclusion-minimal generator supports of a nonzero proper ideal.

    A support containing another is hit whenever the smaller one is, so
    these alone decide which variable sets are covers.
    """
    if ideal.is_zero():
        raise ValueError("the zero ideal has no variable-generated minimal primes")
    if ideal.is_unit():
        raise ValueError("the unit ideal has no minimal primes")
    return [frozenset(i for i, e in enumerate(s) if e) for s in _minimal_supports(ideal)]


def minimal_primes(ideal: MonomialIdeal) -> list[VariableSubset]:
    """Inclusion-minimal variable sets hitting every generator's support.

    The ideal must be nonzero and proper.  Output is sorted by size, then by
    sorted member list, for deterministic downstream reports.
    """
    supports = _supports(ideal)
    covers: set[VariableSubset] = set()

    def extend(chosen: set[int], remaining: list[frozenset[int]]) -> None:
        uncovered = [s for s in remaining if not (s & chosen)]
        if not uncovered:
            covers.add(frozenset(chosen))
            return
        branch = min(uncovered, key=lambda s: (len(s), sorted(s)))
        rest = [s for s in uncovered if s is not branch]
        for var in sorted(branch):
            chosen.add(var)
            extend(chosen, rest)
            chosen.discard(var)

    extend(set(), supports)

    minimal = [c for c in covers if not any(o < c for o in covers)]
    return sorted(minimal, key=lambda c: (len(c), sorted(c)))


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


def dim_quotient(ideal: MonomialIdeal) -> int:
    """Krull dimension of the quotient ring: variable count minus height."""
    return ideal.ring.var_count - height(ideal)
