"""Text formats: monomial expressions, ideal files, and the corpus format.

A monomial expression is a product of powers over the declared ring, e.g.
``x^2*y`` or ``1``; whitespace is ignored and ``^`` binds tighter than ``*``.
An ideal file declares the ring and the two named ideals::

    ring x y z
    I: x*y, y*z, z*x
    J: x*y*z

Blank lines and ``#`` comments are allowed.  A corpus file is a JSON array
of named entries carrying the same data plus optional expected invariants.
Serialization emits canonical generator order, so parse o serialize is the
identity on canonical files.
"""
from __future__ import annotations

import json
from dataclasses import dataclass, field
from pathlib import Path
from typing import Optional

from .core import Monomial, MonomialIdeal, RingContext, minimalize
from .errors import ParseError


def parse_monomial(text: str, ring: RingContext) -> Monomial:
    """Parse a product-of-powers expression over the ring's variables."""
    stripped = "".join(text.split())
    if not stripped:
        raise ParseError("empty monomial expression")
    index = {name: i for i, name in enumerate(ring.var_names)}
    exps = [0] * ring.var_count
    for factor in stripped.split("*"):
        if not factor:
            raise ParseError(f"empty factor in {text!r}")
        if factor == "1":
            continue
        name, sep, power = factor.partition("^")
        if name not in index:
            raise ParseError(f"unknown variable {name!r} in {text!r}")
        if sep:
            if not (power.isascii() and power.isdigit()):
                raise ParseError(
                    f"malformed exponent {power!r} in {text!r} (non-negative integer required)"
                )
            exps[index[name]] += int(power)
        else:
            exps[index[name]] += 1
    return Monomial(exps)


def format_monomial(m: Monomial, ring: RingContext) -> str:
    """Canonical text form: ``x^2*y`` style, or ``1`` for the unit."""
    parts = []
    for name, e in zip(ring.var_names, m.exponents):
        if e == 1:
            parts.append(name)
        elif e > 1:
            parts.append(f"{name}^{e}")
    return "*".join(parts) if parts else "1"


def format_ideal(ideal: MonomialIdeal) -> str:
    """Comma-separated canonical generators; ``0`` for the zero ideal."""
    if ideal.is_zero():
        return "0"
    return ", ".join(format_monomial(g, ideal.ring) for g in ideal.gens)


@dataclass(frozen=True)
class IdealPair:
    """A ring with its two named ideals, as read from an ideal file."""

    ring: RingContext
    base: MonomialIdeal      # the I block
    saturator: MonomialIdeal  # the J block


def parse_ideal_file(text: str) -> IdealPair:
    """Parse the ``ring`` / ``I:`` / ``J:`` file format."""
    ring: Optional[RingContext] = None
    blocks: dict[str, MonomialIdeal] = {}
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if ring is None:
            head, *names = line.split()
            if head != "ring" or not names:
                raise ParseError(
                    f"line {lineno}: expected 'ring <names...>' first, got {raw!r}"
                )
            try:
                ring = RingContext(tuple(names))
            except ValueError as exc:
                raise ParseError(f"line {lineno}: {exc}") from exc
            continue
        name, sep, body = line.partition(":")
        name = name.strip()
        if not sep or name not in ("I", "J"):
            raise ParseError(f"line {lineno}: expected 'I:' or 'J:' block, got {raw!r}")
        if name in blocks:
            raise ParseError(f"line {lineno}: duplicate block {name!r}")
        exprs = [e for e in (piece.strip() for piece in body.split(",")) if e]
        if not exprs:
            raise ParseError(f"line {lineno}: ideal {name!r} needs at least one generator")
        try:
            gens = [parse_monomial(e, ring) for e in exprs]
        except ParseError as exc:
            raise ParseError(f"line {lineno}: {exc}") from exc
        blocks[name] = minimalize(gens, ring)
    if ring is None:
        raise ParseError("missing 'ring' declaration")
    for required in ("I", "J"):
        if required not in blocks:
            raise ParseError(f"missing ideal block {required!r}")
    return IdealPair(ring=ring, base=blocks["I"], saturator=blocks["J"])


def format_ideal_file(pair: IdealPair) -> str:
    """Canonical ideal-file text (round-trips through parse_ideal_file)."""
    lines = [
        "ring " + " ".join(pair.ring.var_names),
        "I: " + format_ideal(pair.base),
        "J: " + format_ideal(pair.saturator),
    ]
    return "\n".join(lines) + "\n"


def load_ideal_file(path: str | Path) -> IdealPair:
    return parse_ideal_file(Path(path).read_text(encoding="utf-8"))


# ---------------------------------------------------------------------------
# Corpus format
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class CorpusEntry:
    """One named (I, J) pair with optional expected invariants."""

    name: str
    pair: IdealPair
    expect: dict = field(default_factory=dict)


def parse_corpus(text: str) -> list[CorpusEntry]:
    """Parse a corpus: a JSON array of {name, ring, I, J, expect?} objects."""
    try:
        data = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ParseError(f"corpus is not valid JSON: {exc}") from exc
    if not isinstance(data, list):
        raise ParseError("corpus must be a JSON array of entries")
    entries: list[CorpusEntry] = []
    seen: set[str] = set()
    for pos, item in enumerate(data):
        where = f"corpus entry {pos}"
        if not isinstance(item, dict):
            raise ParseError(f"{where}: expected an object")
        name = item.get("name")
        if not isinstance(name, str) or not name:
            raise ParseError(f"{where}: missing or empty 'name'")
        if name in seen:
            raise ParseError(f"{where}: duplicate name {name!r}")
        seen.add(name)
        ring_names = item.get("ring")
        if not isinstance(ring_names, list) or not ring_names:
            raise ParseError(f"{where} ({name}): 'ring' must be a non-empty list")
        try:
            ring = RingContext(tuple(ring_names))
        except ValueError as exc:
            raise ParseError(f"{where} ({name}): {exc}") from exc
        ideals = {}
        for key in ("I", "J"):
            exprs = item.get(key)
            if not isinstance(exprs, list) or not exprs:
                raise ParseError(f"{where} ({name}): '{key}' must be a non-empty list")
            gens = [parse_monomial(str(e), ring) for e in exprs]
            ideals[key] = minimalize(gens, ring)
        if ideals["I"].is_unit():
            raise ParseError(f"{where} ({name}): the base ideal I must be proper")
        expect = item.get("expect", {})
        if not isinstance(expect, dict):
            raise ParseError(f"{where} ({name}): 'expect' must be an object")
        entries.append(
            CorpusEntry(
                name=name,
                pair=IdealPair(ring=ring, base=ideals["I"], saturator=ideals["J"]),
                expect=dict(expect),
            )
        )
    if not entries:
        raise ParseError("corpus is empty")
    return entries


def load_corpus(path: str | Path) -> list[CorpusEntry]:
    return parse_corpus(Path(path).read_text(encoding="utf-8"))
