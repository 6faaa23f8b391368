"""The saturation-power filtration and its numerical series.

For a base ideal I and a saturating ideal J, the n-th saturation power is
(I^n : J^inf).  These form a multiplicative filtration containing the
ordinary powers, and the per-n quotient modules carry the dimension and
multiplicity series that the rest of the pipeline fits.

The saturation is computed by localizing before powering.  For a monomial
x_S with support S, (I^n : x_S^inf) = pi_S(I)^n, where pi_S sets the
variables of S to 1; it is a localization, so it commutes with products.
Saturating by J is saturating by its radical, so

    (I^n : J^inf) = intersection over S of pi_S(I)^n,

with S over the inclusion-minimal supports of J's generators.
``MonomialIdeal.packed_localizations`` keeps only the distinct,
inclusion-minimal pi_S(I): pi_S(I) containing pi_T(I) gives pi_S(I)^n
containing pi_T(I)^n, which adds nothing to the intersection: the 4-cycle
keeps 2 of its 4, and a 9-edge graph on 6 vertices 5 of its 6.  They are
small, so their powers are cheap, where saturating I^n itself takes colons
of its many generators; I^n is never saturated.  ``symbolic_power`` passes
the localizations alone to ``Packing.rungs`` and meets its last rung.

A series lives in one ``core.Packing``, sized for its top power:
``sample_series`` passes I and the localizations to ``Packing.rungs``, and
each rung, its meet and the Hilbert numerators of its quotient work on the
same packed ints.  Only ``symbolic_power`` unpacks a saturation; a sample
keeps its generator count.  All returned values are immutable.
"""
from __future__ import annotations

from collections import deque, namedtuple
from collections.abc import Sequence

from .core import MonomialIdeal
from .errors import InsufficientDataError, ZeroIdealError
from .hilbert import packed_quotient_data


SeriesSample = namedtuple("SeriesSample", "n symbolic_gens module_dim f")
SeriesSample.__doc__ = """One row of the series: n, the generator count of (I^n : J^inf), and dim/e0 of the quotient.

``module_dim`` is None when the quotient is the empty module (the
saturated power equals the ordinary power), in which case f is 0.
"""


def _check_nonzero(base: MonomialIdeal) -> None:
    if base.is_zero():
        raise ZeroIdealError("symbolic powers of the zero ideal are not defined here")


def symbolic_power(base: MonomialIdeal, saturator: MonomialIdeal, n: int) -> MonomialIdeal:
    """(I^n : J^inf); the unit ideal for n = 0."""
    if n < 0:
        raise ValueError(f"symbolic power wants n >= 0, got {n}")
    _check_nonzero(base)
    pk, _, locs = base.packed_localizations(saturator, n)  # rejects a zero J, also at n = 0
    if n == 0:
        return MonomialIdeal.unit(base.ring)
    return MonomialIdeal._from_packed(base.ring, pk, pk.meet(deque(pk.rungs(locs, n), maxlen=1).pop()))


def sample_series(
    base: MonomialIdeal, saturator: MonomialIdeal, nmax: int
) -> list[SeriesSample]:
    """Samples for n = 1..nmax, from the rungs of I and its localizations in one packing.

    Rung n holds I^n, the inner ideal of each quotient, then the n-th powers
    of the kept localizations (see the module docstring), which meet in the
    saturation; a lone localization equal to I is not passed twice, as the
    saturation is then I^n.  The packing holds I^nmax, so every rung stays
    packed from I to the last quotient.
    """
    if nmax < 1:
        raise ValueError(f"sample_series wants nmax >= 1, got {nmax}")
    _check_nonzero(base)
    pk, gens, locs = base.packed_localizations(saturator, nmax)
    samples = []
    for n, (power, *ladders) in enumerate(pk.rungs([gens] if locs == [gens] else [gens, *locs], nmax), 1):
        symbolic = pk.meet(ladders) if ladders else power
        data = packed_quotient_data(pk, power, symbolic)
        samples.append(SeriesSample(n, len(symbolic), data.module_dim, data.e0))
    return samples


def dim_stabilization(samples: Sequence[SeriesSample]) -> tuple[int | None, int]:
    """Eventual constant of the dimension sequence, with its onset n.

    Trusts the longest constant suffix of the observed window (the onset is
    reported, never certified).  None is a legitimate constant (the empty
    module).  A suffix shorter than 3 raises InsufficientDataError.
    """
    if len(samples) < 3:
        raise InsufficientDataError(
            f"dimension stabilization wants >= 3 samples, got {len(samples)}"
        )
    dims = [s.module_dim for s in samples]
    start = len(dims) - 1
    while start > 0 and dims[start - 1] == dims[-1]:
        start -= 1
    if len(dims) - start < 3:
        raise InsufficientDataError(
            "constant dimension suffix is shorter than 3 samples"
        )
    return dims[-1], samples[start].n
