from __future__ import annotations

import json
import re

import pytest

from satpow import ParseError, RingContext
from satpow.cli import default_corpus_path, main
from satpow.parsing import (
    format_ideal,
    format_ideal_file,
    format_monomial,
    load_corpus,
    parse_corpus,
    parse_ideal_file,
    parse_monomial,
)


@pytest.fixture
def ring3():
    return RingContext(("x", "y", "z"))


class TestParseMonomial:
    def test_power_product(self, ring3):
        assert parse_monomial("x^2*y", ring3).exponents == (2, 1, 0)

    def test_unit(self, ring3):
        assert parse_monomial("1", ring3).exponents == (0, 0, 0)

    def test_repeated_factors_multiply(self, ring3):
        assert parse_monomial("x*x*y^0", ring3).exponents == (2, 0, 0)

    def test_whitespace_insensitive(self, ring3):
        assert parse_monomial("  x ^ 2 *  y ", ring3).exponents == (2, 1, 0)

    def test_unknown_variable(self, ring3):
        with pytest.raises(ParseError, match="unknown variable"):
            parse_monomial("x*w", ring3)

    def test_negative_exponent(self, ring3):
        with pytest.raises(ParseError, match="exponent"):
            parse_monomial("x^-2", ring3)

    def test_fractional_exponent(self, ring3):
        with pytest.raises(ParseError, match="exponent"):
            parse_monomial("x^2.5", ring3)

    def test_missing_exponent(self, ring3):
        with pytest.raises(ParseError, match="exponent"):
            parse_monomial("x^", ring3)

    def test_non_ascii_digits_are_malformed(self, ring3):
        # '³' and '٣' are Unicode digits that int() would reject or misread
        for power in ("\u00b3", "\u0663", "1\u0663"):
            with pytest.raises(ParseError, match="malformed exponent"):
                parse_monomial(f"x^{power}", ring3)
        with pytest.raises(ParseError, match="^line 2: malformed exponent"):
            parse_ideal_file("ring x y\nI: x^\u00b3, y\nJ: x\n")

    def test_empty_input(self, ring3):
        with pytest.raises(ParseError, match="empty"):
            parse_monomial("   ", ring3)

    def test_empty_factor(self, ring3):
        with pytest.raises(ParseError, match="factor"):
            parse_monomial("x**y", ring3)

    def test_round_trip_through_format(self, ring3):
        for text in ("x^2*y", "1", "x*y*z", "z^5"):
            m = parse_monomial(text, ring3)
            assert parse_monomial(format_monomial(m, ring3), ring3) == m


class TestIdealFile:
    CANONICAL = "ring x y z\nI: x*y, x*z, y*z\nJ: x, y, z\n"

    def test_parse_then_format_is_identity_on_canonical(self):
        pair = parse_ideal_file(self.CANONICAL)
        assert format_ideal_file(pair) == self.CANONICAL

    def test_messy_input_canonicalizes(self):
        messy = "# triangle\nring x y z\n\nI: z*x, x*y, y*z, x*y*z\nJ:  x,y , z\n"
        pair = parse_ideal_file(messy)
        assert format_ideal_file(pair) == self.CANONICAL

    def test_missing_ring(self):
        with pytest.raises(ParseError, match="ring"):
            parse_ideal_file("I: x\nJ: y\n")

    def test_missing_block(self):
        with pytest.raises(ParseError, match="missing ideal block 'J'"):
            parse_ideal_file("ring x y\nI: x\n")

    def test_duplicate_block(self):
        with pytest.raises(ParseError, match="duplicate"):
            parse_ideal_file("ring x y\nI: x\nI: y\nJ: y\n")

    def test_empty_generator_list(self):
        with pytest.raises(ParseError, match="at least one generator"):
            parse_ideal_file("ring x y\nI: \nJ: y\n")

    def test_unknown_block_name(self):
        with pytest.raises(ParseError, match="expected 'I:' or 'J:'"):
            parse_ideal_file("ring x y\nK: x\n")

    def test_zero_ideal_formats_as_zero(self, ring3):
        from satpow import MonomialIdeal

        assert format_ideal(MonomialIdeal.zero(ring3)) == "0"


class TestCorpus:
    def test_shipped_corpus_loads(self):
        entries = load_corpus(default_corpus_path())
        assert len(entries) == 11
        names = [e.name for e in entries]
        assert len(set(names)) == len(names)
        assert "c3-triangle" in names

    def test_expectations_match_computed_invariants(self):
        from satpow import height

        for entry in load_corpus(default_corpus_path()):
            expect = entry.expect
            if "height" in expect:
                assert height(entry.pair.base) == expect["height"], entry.name
            if "equigenerated" in expect:
                assert entry.pair.base.is_equigenerated() == expect["equigenerated"], entry.name

    def test_not_an_array(self):
        with pytest.raises(ParseError, match="array"):
            parse_corpus(json.dumps({"name": "x"}))

    def test_missing_name(self):
        with pytest.raises(ParseError, match="name"):
            parse_corpus(json.dumps([{"ring": ["x"], "I": ["x"], "J": ["x"]}]))

    def test_duplicate_names(self):
        entry = {"name": "a", "ring": ["x"], "I": ["x"], "J": ["x"]}
        with pytest.raises(ParseError, match="duplicate"):
            parse_corpus(json.dumps([entry, dict(entry)]))

    def test_unit_base_ideal_rejected(self):
        bad = [{"name": "a", "ring": ["x"], "I": ["1"], "J": ["x"]}]
        with pytest.raises(ParseError, match="proper"):
            parse_corpus(json.dumps(bad))

    def test_generator_error_names_its_entry(self):
        good = {"name": "ok", "ring": ["x"], "I": ["x"], "J": ["x"]}
        bad = {"name": "a", "ring": ["x"], "I": ["x*q"], "J": ["x"]}
        message = "corpus entry 1 (a): unknown variable 'q' in 'x*q'"
        with pytest.raises(ParseError, match=f"^{re.escape(message)}$"):
            parse_corpus(json.dumps([good, bad]))

    @pytest.mark.parametrize("name, shown", [(1, "1"), (["y"], "['y']")])
    def test_non_string_variable_name_rejected(self, name, shown):
        bad = [{"name": "a", "ring": ["x", name], "I": ["x"], "J": ["x"]}]
        message = f"corpus entry 0 (a): invalid variable name: {shown}"
        with pytest.raises(ParseError, match=f"^{re.escape(message)}$"):
            parse_corpus(json.dumps(bad))

    def test_non_string_variable_name_exits_one(self, tmp_path, capsys):
        corpus = tmp_path / "corpus.json"
        corpus.write_text(json.dumps([{"name": "a", "ring": ["x", 1], "I": ["x"], "J": ["x"]}]))
        assert main(["verify", str(corpus)]) == 1
        assert capsys.readouterr().err == "error: corpus entry 0 (a): invalid variable name: 1\n"

    def test_empty_generator_list_rejected(self):
        bad = [{"name": "a", "ring": ["x"], "I": [], "J": ["x"]}]
        with pytest.raises(ParseError, match="non-empty"):
            parse_corpus(json.dumps(bad))

    def test_invalid_json(self):
        with pytest.raises(ParseError, match="JSON"):
            parse_corpus("[not json")

    def test_empty_corpus_rejected(self):
        with pytest.raises(ParseError, match="empty"):
            parse_corpus("[]")
