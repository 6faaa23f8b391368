"""The saturation-power filtration and its numerical series.

For a base ideal I and a saturating ideal J, the n-th saturation power is
(I^n : J^inf).  These form a multiplicative filtration containing the
ordinary powers, and the per-n quotient modules carry the dimension and
multiplicity series that the rest of the pipeline fits.

Samples for distinct n are independent once the power ladder exists; all
returned values are immutable.
"""
from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Optional, Sequence

from .core import MonomialIdeal
from .errors import InsufficientDataError, ZeroIdealError
from .hilbert import quotient_module_data

FiltrationProvider = Callable[[int], MonomialIdeal]


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


@dataclass(frozen=True)
class FiltrationReport:
    """Outcome of the filtration-axiom check; violation is None on success."""

    ok: bool
    violation: Optional[str]


def _check_nonzero(base: MonomialIdeal, saturator: MonomialIdeal) -> None:
    if base.is_zero():
        raise ZeroIdealError("symbolic powers of the zero ideal are not defined here")
    if saturator.is_zero():
        raise ZeroIdealError("saturation by the zero ideal")


def symbolic_power(base: MonomialIdeal, saturator: MonomialIdeal, n: int) -> MonomialIdeal:
    """(I^n : J^inf); the unit ideal for n = 0."""
    _check_nonzero(base, saturator)
    if n < 0:
        raise ValueError(f"symbolic power wants n >= 0, got {n}")
    if n == 0:
        return MonomialIdeal.unit(base.ring)
    return base.power(n).saturate_ideal(saturator)


def sample_series(
    base: MonomialIdeal, saturator: MonomialIdeal, nmax: int
) -> list[SeriesSample]:
    """Samples for n = 1..nmax, reusing an incremental ladder of powers."""
    _check_nonzero(base, saturator)
    if nmax < 1:
        raise ValueError(f"sample_series wants nmax >= 1, got {nmax}")
    samples = []
    power = base
    for n in range(1, nmax + 1):
        symbolic = power.saturate_ideal(saturator)
        data = quotient_module_data(power, symbolic)
        samples.append(
            SeriesSample(n=n, symbolic_ideal=symbolic, module_dim=data.module_dim, f=data.e0)
        )
        if n < nmax:
            power = power.multiply(base)
    return samples


def symbolic_provider(
    base: MonomialIdeal, saturator: MonomialIdeal
) -> FiltrationProvider:
    """The saturation-power filtration as a provider rule n -> (I^n : J^inf)."""
    return lambda n: symbolic_power(base, saturator, n)


def check_filtration(
    provider: FiltrationProvider, base: MonomialIdeal, nmax: int
) -> FiltrationReport:
    """Verify the multiplicative-filtration axioms up to level nmax.

    Checks J_0 = A, the descending chain, containment of ordinary powers,
    and multiplicativity J_a * J_b within J_{a+b} for a + b <= nmax.  The
    first violated axiom is reported; violations are data, not faults.
    """
    levels = [provider(n) for n in range(nmax + 1)]
    if not levels[0].is_unit():
        return FiltrationReport(False, "J_0 is not the unit ideal")
    for n in range(nmax):
        if not levels[n].contains_ideal(levels[n + 1]):
            return FiltrationReport(False, f"J_{n + 1} is not contained in J_{n}")
    power = MonomialIdeal.unit(base.ring)
    for n in range(1, nmax + 1):
        power = power.multiply(base)
        if not levels[n].contains_ideal(power):
            return FiltrationReport(False, f"I^{n} is not contained in J_{n}")
    for a in range(1, nmax):
        for b in range(a, nmax - a + 1):
            product = levels[a].multiply(levels[b])
            if not levels[a + b].contains_ideal(product):
                return FiltrationReport(
                    False, f"J_{a} * J_{b} is not contained in J_{a + b}"
                )
    return FiltrationReport(True, None)


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
