from __future__ import annotations

import itertools
import random
from dataclasses import dataclass
from math import comb
from operator import add
from typing import Callable, Optional

import pytest

from satpow import (
    MonomialIdeal, Numerator, RingContext, SeriesSample, filtration, height, minimalize, sample_series,
    symbolic_power,
)
from satpow.core import Packing, Row


@pytest.fixture
def ring2() -> RingContext:
    return RingContext(("x", "y"))


@pytest.fixture
def ring3() -> RingContext:
    return RingContext(("x", "y", "z"))


def M(*exps: int) -> tuple[int, ...]:
    return exps


def ideal(ring: RingContext, *gens: tuple[int, ...]) -> MonomialIdeal:
    return minimalize(gens, ring)


def contains_ideal(outer: MonomialIdeal, inner: MonomialIdeal) -> bool:
    """True iff every generator of ``inner`` lies in ``outer``, by one packed ``Row`` of ``outer``."""
    assert outer.ring == inner.ring
    pk = Packing(outer.ring.var_count, max(map(max, outer.gens + inner.gens), default=0))
    row = Row(pk, list(map(pk.pack, outer.gens)))
    return all(row.has_divisor(pk.pack(g)) for g in inner.gens)


def contains(i: MonomialIdeal, m: tuple[int, ...]) -> bool:
    """True iff the monomial ``m`` lies in ``i``, as containment of the principal ideal (m)."""
    return contains_ideal(i, minimalize([m], i.ring))


def row_quotient(pk: Packing, inner: tuple[int, ...], outer: tuple[int, ...]) -> tuple[list[int], Numerator]:
    """Containment and numerator difference of outer/inner by the quadratic path, an oracle for ``packed_quotient_data``.

    Each packed generator of ``inner`` is tested against one ``Row`` of all
    of ``outer``; those outside the outer ideal, in canonical order, come
    first, none if it holds the inner one.  Then K(inner) - K(outer), from
    ``reference_numerator`` of each ideal, which shares no code with the
    quotient walk it checks.
    """
    row = Row(pk, outer)
    missing = [g for g in inner if not row.has_divisor(g)]
    ring = RingContext(tuple(f"x{v}" for v in range(len(pk.shifts))))
    inner_k, outer_k = (dense(reference_numerator(MonomialIdeal(ring, map(pk.unpack, g)))) for g in (inner, outer))
    return missing, as_numerator(dense_sum(inner_k, [-c for c in outer_k]))


def sample_series_with_saturations(
    base: MonomialIdeal, saturator: MonomialIdeal, nmax: int
) -> list[tuple[SeriesSample, MonomialIdeal]]:
    """``sample_series`` with the saturation of each sample, as the ideal.

    A spy on ``filtration.packed_quotient_data`` unpacks the outer ideal
    that each sample's quotient is taken in, and each sample's
    ``symbolic_gens`` must be its generator count.
    """
    saturations = []
    real = filtration.packed_quotient_data

    def spy(pk, inner, outer):
        outer = tuple(outer)
        saturations.append(MonomialIdeal._from_packed(base.ring, pk, outer))
        return real(pk, inner, outer)

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(filtration, "packed_quotient_data", spy)
        samples = sample_series(base, saturator, nmax)
    assert [s.symbolic_gens for s in samples] == list(map(len, saturations))
    return list(zip(samples, saturations))


def colon_monomial(i: MonomialIdeal, m: tuple[int, ...]) -> MonomialIdeal:
    """(I : m), as the colon by the principal ideal (m)."""
    return i.colon_ideal(minimalize([m], i.ring))


def support(m: tuple[int, ...]) -> tuple[int, ...]:
    """Indices of the variables with a positive exponent in ``m``."""
    return tuple(i for i, e in enumerate(m) if e > 0)


def monomials_up_to(d: int, degree: int) -> list[tuple[int, ...]]:
    """All exponent vectors in d variables of total degree <= degree."""
    out = []
    for exps in itertools.product(range(degree + 1), repeat=d):
        if sum(exps) <= degree:
            out.append(exps)
    return out


def member(gens: list[tuple[int, ...]], w: tuple[int, ...]) -> bool:
    """Test-local divisibility membership, independent of package internals."""
    for g in gens:
        if all(ge <= we for ge, we in zip(g, w)):
            return True
    return False


def reference_minimal(cands) -> list[tuple[int, ...]]:
    """Antichain of divisibility-minimal exponent tuples, canonically sorted.

    The tuple-by-tuple filter the library used before its packed kernel:
    candidates in (degree, lex with the leading variable largest) order, each
    tested against the kept ones of lower degree.
    """

    def divides(a, b) -> bool:
        for x, y in zip(a, b):
            if x > y:
                return False
        return True

    ordered = sorted(set(cands), key=lambda t: (sum(t), tuple(-e for e in t)))
    kept: list[tuple[int, ...]] = []
    kept_degs: list[int] = []
    for t in ordered:
        deg = sum(t)
        dominated = False
        for kd, k in zip(kept_degs, kept):
            if kd >= deg:
                # later candidates have degree >= kd; an equal-degree divisor
                # would be equal, and duplicates are already removed
                break
            if divides(k, t):
                dominated = True
                break
        if not dominated:
            kept.append(t)
            kept_degs.append(deg)
    return kept


def random_ideal(
    rng: random.Random, ring: RingContext, max_gens: int = 6, max_exp: int = 4
) -> MonomialIdeal:
    d = ring.var_count
    n_gens = rng.randint(1, max_gens)
    gens = [
        tuple(rng.randint(0, max_exp) for _ in range(d))
        for _ in range(n_gens)
    ]
    return minimalize(gens, ring)


def graph_pair(count: int, edges) -> tuple[MonomialIdeal, MonomialIdeal]:
    """The edge ideal of the graph on x0 .. x{count-1} with the ``edges``, pairs of vertices, and J the maximal ideal."""
    ring = RingContext(tuple(f"x{i}" for i in range(count)))
    gens = [tuple(int(v in edge) for v in range(count)) for edge in edges]
    return minimalize(gens, ring), minimalize([tuple(int(v == i) for v in range(count)) for i in range(count)], ring)


def cycle_pair(m: int) -> tuple[MonomialIdeal, MonomialIdeal]:
    """The edge ideal of the m-cycle x0 - x1 - ... - x{m-1} - x0, and J the maximal ideal."""
    return graph_pair(m, [(i, (i + 1) % m) for i in range(m)])


def odd_cycle_symbolic_power(k: int, n: int) -> list[tuple[int, ...]]:
    """Canonical generators of I^(n), I the edge ideal of the (2k+1)-cycle of ``cycle_pair``, by a closed form.

    I^(n) is the sum over t <= n/(k+1) of I^(n - t(k+1)) (x0 ... x{2k})^t
    (Gu, Ha, O'Rourke and Skelton, "Symbolic powers of edge ideals of
    graphs", Comm. Algebra 48, 2020).  The maximal ideal is the only
    embedded prime of I^n (Chen, Morey and Sung, Rocky Mountain J. Math.
    32, 2002), so this is also (I^n : m^inf).  Built from
    ``reference_minimal`` over tuple sums only, it shares no code with the
    localizations, the rungs of their powers or the meet.
    """
    m = 2 * k + 1
    edges = [tuple(int(v in (i, (i + 1) % m)) for v in range(m)) for i in range(m)]
    powers = [[(0,) * m]]  # I^0 .. I^n
    for _ in range(n):
        powers.append(reference_minimal(tuple(map(add, g, e)) for g in powers[-1] for e in edges))
    return reference_minimal(
        tuple(e + t for e in g) for t in range(n // (k + 1) + 1) for g in powers[n - t * (k + 1)]
    )


def reference_numerator(ideal: MonomialIdeal) -> Numerator:
    """Hilbert numerator K(A/I) by the degree-1 pivot recursion.

    Splits on the first variable x lying in two or more generator supports,
    K(A/I) = K(A/(I + (x))) + z * K(A/(I : x)), down to complete
    intersections.  Independent of the library's pivot, minimalization and
    sparse terms: the arithmetic is on dense coefficient lists.
    """
    d = ideal.ring.var_count
    memo: dict[tuple[tuple[int, ...], ...], list[int]] = {}

    def minimal(cands) -> tuple[tuple[int, ...], ...]:
        cands = set(cands)
        return tuple(
            sorted(g for g in cands if not member([h for h in cands if h != g], g))
        )

    def numerator(gens: tuple[tuple[int, ...], ...]) -> list[int]:
        if gens in memo:
            return memo[gens]
        shared = [i for i in range(d) if sum(1 for g in gens if g[i] > 0) >= 2]
        if not shared:
            result = [1]
            for g in gens:
                factor = [0] * (sum(g) + 1)
                factor[0] = 1
                factor[-1] -= 1
                result = dense_product(result, factor)
        else:
            x = shared[0]
            unit = tuple(1 if i == x else 0 for i in range(d))
            plus = minimal([g for g in gens if g[x] == 0] + [unit])
            colon = minimal(g[:x] + (max(g[x] - 1, 0),) + g[x + 1 :] for g in gens)
            result = dense_sum(numerator(plus), [0] + numerator(colon))
        memo[gens] = result
        return result

    return as_numerator(numerator(minimal(ideal.gens)))


def dense_product(a: list[int], b: list[int]) -> list[int]:
    """The schoolbook product of two dense coefficient lists, z^0 first."""
    out = [0] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        for j, y in enumerate(b):
            out[i + j] += x * y
    return out


def dense_sum(a: list[int], b: list[int]) -> list[int]:
    """The sum of two dense coefficient lists, z^0 first."""
    return [x + y for x, y in itertools.zip_longest(a, b, fillvalue=0)]


def dense(numerator: Numerator) -> list[int]:
    """The dense coefficient list of a ``Numerator``, z^0 first."""
    out = [0] * (numerator.degrees[-1] + 1 if numerator.degrees else 0)
    for t, c in zip(numerator.degrees, numerator.coeffs):
        out[t] = c
    return out


def as_numerator(coeffs: list[int]) -> Numerator:
    """The sparse ``Numerator`` of a dense coefficient list, z^0 first."""
    terms = [(t, c) for t, c in enumerate(coeffs) if c]
    return Numerator(tuple(t for t, _ in terms), tuple(c for _, c in terms))


def hilbert_function_oracle(ideal: MonomialIdeal, degree_bound: int) -> list[int]:
    """Count monomials of each degree <= degree_bound outside the ideal.

    Exhaustive enumeration on plain exponent tuples, sharing no code with
    the packed kernel or the numerator recursion it checks; not for large
    inputs.
    """
    if degree_bound < 0:
        raise ValueError("degree bound must be non-negative")
    gens = ideal.gens
    d = ideal.ring.var_count
    return [
        sum(not member(gens, exps) for exps in compositions(t, d))
        for t in range(degree_bound + 1)
    ]


def compositions(total: int, parts: int):
    """Every exponent vector with ``parts`` entries summing to ``total``."""
    if parts == 1:
        yield (total,)
        return
    for first in range(total + 1):
        for rest in compositions(total - first, parts - 1):
            yield (first,) + rest


def expand_numerator(numerator: Numerator, ambient_d: int, degree_bound: int) -> list[int]:
    """Power-series coefficients of K(z)/(1-z)^d up to degree_bound."""
    out = []
    for t in range(degree_bound + 1):
        total = 0
        for j, c in zip(numerator.degrees, numerator.coeffs):
            if j > t:
                break
            total += c * comb(t - j + ambient_d - 1, ambient_d - 1)
        out.append(total)
    return out


# ---------------------------------------------------------------------------
# Oracles for the filtration axioms and for the minimal primes
# ---------------------------------------------------------------------------

FiltrationProvider = Callable[[int], MonomialIdeal]
VariableSubset = frozenset[int]


@dataclass(frozen=True)
class FiltrationReport:
    """Outcome of the filtration-axiom check; violation is None on success."""

    ok: bool
    violation: Optional[str]


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
        if not contains_ideal(levels[n], levels[n + 1]):
            return FiltrationReport(False, f"J_{n + 1} is not contained in J_{n}")
    power = MonomialIdeal.unit(base.ring)
    for n in range(1, nmax + 1):
        power = power.multiply(base)
        if not contains_ideal(levels[n], power):
            return FiltrationReport(False, f"I^{n} is not contained in J_{n}")
    for a in range(1, nmax):
        for b in range(a, nmax - a + 1):
            product = levels[a].multiply(levels[b])
            if not contains_ideal(levels[a + b], product):
                return FiltrationReport(
                    False, f"J_{a} * J_{b} is not contained in J_{a + b}"
                )
    return FiltrationReport(True, None)


def minimal_primes(ideal: MonomialIdeal) -> list[VariableSubset]:
    """Inclusion-minimal variable sets hitting every generator's support.

    The minimal primes of a monomial ideal are generated by variables, so
    they are identified here with these variable-index sets.  The ideal must
    be nonzero and proper.  Output is sorted by size, then by sorted member
    list.  The supports are read from ``ideal.gens``, not from the helper
    that ``height`` uses.
    """
    if ideal.is_zero():
        raise ValueError("the zero ideal has no variable-generated minimal primes")
    if ideal.is_unit():
        raise ValueError("the unit ideal has no minimal primes")
    supports = [sum(1 << v for v in support(g)) for g in ideal.gens]  # variable v is bit v
    covers: list[int] = []

    def extend(chosen: int, barred: int, remaining: list[int]) -> None:
        # each branch bars the variables its earlier siblings chose, so no
        # cover is reached twice.  A cover is inclusion-minimal iff each of
        # its variables is the only one it holds of some support, as covers
        # are closed upwards; choosing more never gives a variable such a
        # support back, so a branch stops once one has none.
        private = 0
        for s in supports:
            held = s & chosen
            if held & (held - 1) == 0:
                private |= held
        if private != chosen:
            return
        uncovered = [s for s in remaining if not s & chosen]
        if not uncovered:
            covers.append(chosen)
            return
        branch = min(uncovered, key=lambda s: ((s & ~barred).bit_count(), s))
        for v in range(branch.bit_length()):
            bit = 1 << v
            if branch & ~barred & bit:
                extend(chosen | bit, barred, uncovered)
                barred |= bit

    extend(0, 0, supports)
    primes = [frozenset(v for v in range(c.bit_length()) if c >> v & 1) for c in covers]
    return sorted(primes, key=lambda c: (len(c), sorted(c)))


def dim_quotient(ideal: MonomialIdeal) -> int:
    """Krull dimension of the quotient ring: variable count minus height."""
    return ideal.ring.var_count - height(ideal)
