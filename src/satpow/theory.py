"""The height of a monomial ideal.

The minimal primes of a monomial ideal are generated by variables: they are
the inclusion-minimal variable sets that meet every generator's support.
The height is the least size of such a set.  A pure function on immutable
inputs; safe for concurrent use.
"""
from __future__ import annotations

from functools import reduce
from itertools import combinations
from operator import or_

from .core import MonomialIdeal, _minimal_supports


def height(ideal: MonomialIdeal) -> int:
    """Minimum cardinality over the minimal primes (the codimension).

    The covers are decided by the inclusion-minimal generator supports
    alone, read as bit masks: a support containing another is hit whenever
    the smaller one is.  A smallest variable set hitting every support is a
    minimal prime, so this is the first k for which some k variables hit
    every support.
    """
    if ideal.is_zero():
        raise ValueError("the zero ideal has no variable-generated minimal primes")
    if ideal.is_unit():
        raise ValueError("the unit ideal has no minimal primes")
    supports = _minimal_supports(ideal)
    used = reduce(or_, supports)
    variables = [1 << i for i in range(used.bit_length()) if used >> i & 1]
    return next(
        k
        for k in range(1, len(variables) + 1)
        if any(all(s & sum(c) for s in supports) for c in combinations(variables, k))
    )
