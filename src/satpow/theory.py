"""The height of a monomial ideal.

The minimal primes of a monomial ideal are generated by variables: they are
the inclusion-minimal variable sets that meet every generator's support.
The height is the least size of such a set.  A polynomial ring is
Cohen-Macaulay, so ht I + dim A/I = d for the d variables (Bruns and
Herzog, Cohen-Macaulay Rings, 2.1.4), and dim A/I = dim A/sqrt(I), read
off the Hilbert numerator of the radical.  A pure function on immutable
inputs; safe for concurrent use.
"""
from __future__ import annotations

from .core import MonomialIdeal, Packing, _minimal_supports
from .hilbert import _quotient, _record, dim_and_mult


def height(ideal: MonomialIdeal) -> int:
    """Minimum cardinality over the minimal primes (the codimension).

    d - dim A/sqrt(I), with sqrt(I) generated by the squarefree x_S over
    the inclusion-minimal generator supports S, which ``_minimal_supports``
    gives as bit masks in canonical order, packed here for the numerator
    of the quotient (1)/sqrt(I), the unit ideal packing to 0.
    """
    if ideal.is_zero():
        raise ValueError("the zero ideal has no variable-generated minimal primes")
    if ideal.is_unit():
        raise ValueError("the unit ideal has no minimal primes")
    d = ideal.ring.var_count
    pk = Packing(d, 1)
    radical = tuple(pk.pack(tuple(s >> i & 1 for i in range(d))) for s in _minimal_supports(ideal))
    dim, _ = dim_and_mult(_record(_quotient(pk, radical, (0,), {})), d)
    return d - dim
