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

with S over the inclusion-minimal supports of J's generators.  Each
pi_S(I) is formed once, as (I : x_S^inf), and kept only if it is distinct
and inclusion-minimal among them: pi_S(I) containing pi_T(I) gives
pi_S(I)^n containing pi_T(I)^n, which adds nothing to the intersection.
The kept ideals are small, so their powers are cheap, where saturating
I^n itself drops supports from its many generators.

Samples for distinct n are independent once the power ladders exist; all
returned values are immutable.
"""
from __future__ import annotations

from dataclasses import dataclass
from functools import reduce
from typing import Optional, Sequence

from .core import Monomial, MonomialIdeal, _minimal_supports
from .errors import InsufficientDataError, ZeroIdealError
from .hilbert import quotient_module_data


@dataclass(frozen=True)
class SeriesSample:
    """One row of the series: n, the saturated ideal, and dim/e0 of the quotient.

    ``module_dim`` is None when the quotient is the empty module (the
    saturated power equals the ordinary power), in which case f is 0.
    """

    n: int
    symbolic_ideal: MonomialIdeal
    module_dim: Optional[int]
    f: int


def _check_nonzero(base: MonomialIdeal, saturator: MonomialIdeal) -> None:
    if base.is_zero():
        raise ZeroIdealError("symbolic powers of the zero ideal are not defined here")
    if saturator.is_zero():
        raise ZeroIdealError("saturation by the zero ideal")


def _localizations(base: MonomialIdeal, saturator: MonomialIdeal) -> list[MonomialIdeal]:
    """The distinct inclusion-minimal (I : x_S^inf), S over the minimal supports of J.

    They come in the canonical order of the x_S, which fixes the order of
    the intersections.  One of them equals I only if all the others
    contain I, so then it is the only one kept.
    """
    locs: list[MonomialIdeal] = []
    for s in _minimal_supports(saturator):
        loc = base.saturate_monomial(Monomial(s))
        if loc not in locs:
            locs.append(loc)
    return [loc for loc in locs if not any(o is not loc and loc.contains_ideal(o) for o in locs)]


def _intersection(ideals: Sequence[MonomialIdeal]) -> MonomialIdeal:
    return reduce(MonomialIdeal.intersect, ideals)


def symbolic_power(base: MonomialIdeal, saturator: MonomialIdeal, n: int) -> MonomialIdeal:
    """(I^n : J^inf); the unit ideal for n = 0."""
    _check_nonzero(base, saturator)
    if n < 0:
        raise ValueError(f"symbolic power wants n >= 0, got {n}")
    return _intersection([loc.power(n) for loc in _localizations(base, saturator)])


def sample_series(
    base: MonomialIdeal, saturator: MonomialIdeal, nmax: int
) -> list[SeriesSample]:
    """Samples for n = 1..nmax, from incremental power ladders.

    One ladder holds I^n, the inner ideal of each quotient.  The saturation
    (I^n : J^inf) is the intersection of one more ladder per kept
    localization pi_S(I) (see the module docstring), each built by
    multiplying by its own pi_S(I).  A localization equal to I reuses the
    I^n ladder: the saturation is then I^n itself.
    """
    _check_nonzero(base, saturator)
    if nmax < 1:
        raise ValueError(f"sample_series wants nmax >= 1, got {nmax}")
    locs = _localizations(base, saturator)
    steps = [] if locs == [base] else locs
    samples = []
    power, ladders = base, steps
    for n in range(1, nmax + 1):
        symbolic = _intersection(ladders) if ladders else power
        data = quotient_module_data(power, symbolic)
        samples.append(
            SeriesSample(n=n, symbolic_ideal=symbolic, module_dim=data.module_dim, f=data.e0)
        )
        if n < nmax:
            power = power.multiply(base)
            ladders = [ladder.multiply(step) for ladder, step in zip(ladders, steps)]
    return samples


def dim_stabilization(samples: Sequence[SeriesSample]) -> tuple[Optional[int], int]:
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
