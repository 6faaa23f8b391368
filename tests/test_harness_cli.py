from __future__ import annotations

import json
from fractions import Fraction
from pathlib import Path

import pytest

from satpow import cli, core, harness, sample_series
from satpow.harness import (
    CSV_COLUMNS,
    VERDICT_CONSISTENT,
    VERDICT_HYPOTHESIS,
    VERDICT_INCONSISTENT,
    VERDICT_INSUFFICIENT,
    VerifyRecord,
    exit_code_for,
    render_series_csv,
    render_series_table,
    render_verify_csv,
    render_verify_json,
    render_verify_table,
    run_fit,
    run_series,
    run_verify,
)
from satpow.parsing import load_corpus, parse_corpus, parse_ideal_file

DATA = Path(__file__).parent / "data"

TRIANGLE_FILE = "ring x y z\nI: x*y, y*z, z*x\nJ: x, y, z\n"

EDGE_FILE = (
    "ring t0 w1 g2 a3 e4 p5\n"
    "I: t0*g2, t0*w1, g2*w1, a3*w1, t0*e4, a3*t0, p5*e4, e4*g2, p5*a3\n"
    "J: t0, w1, g2, a3, e4, p5\n"
)

TRIANGLE_ENTRY = {
    "name": "triangle",
    "ring": ["x", "y", "z"],
    "I": ["x*y", "y*z", "z*x"],
    "J": ["x", "y", "z"],
}
MIXED_ENTRY = {
    "name": "mixed",
    "ring": ["x", "y"],
    "I": ["x", "y^2"],
    "J": ["x*y"],
}
UNIT_J_ENTRY = {
    "name": "unit-j",
    "ring": ["x", "y", "z"],
    "I": ["x*y", "y*z", "z*x"],
    "J": ["1"],
}


def small_corpus(*entries):
    return parse_corpus(json.dumps(list(entries)))


class TestRunners:
    def test_run_series_counts(self):
        pair = parse_ideal_file(TRIANGLE_FILE)
        samples = run_series(pair, 4)
        assert [s.f for s in samples] == [0, 1, 3, 7]

    def test_run_fit_triangle(self):
        pair = parse_ideal_file(TRIANGLE_FILE)
        samples, qp = run_fit(pair, 12, g_max=6, min_tail=2)
        assert (qp.period, qp.degree) == (2, 3)
        assert qp.coeffs[3] == (Fraction(1, 12), Fraction(1, 12))
        assert qp.coeffs[2] == (Fraction(1, 8), Fraction(1, 8))

    def test_verify_triangle_consistent(self):
        records = run_verify(small_corpus(TRIANGLE_ENTRY), nmax=12, min_tail=2)
        (r,) = records
        assert r.verdict == VERDICT_CONSISTENT
        assert r.equigenerated and r.height == 2 and r.height_ok
        assert (r.dim_tail, r.dim_onset) == (0, 2)
        assert (r.period, r.degree) == (2, 3)
        assert r.a_c == Fraction(1, 12)
        assert r.a_c_const and r.a_c_positive and r.a_c1_const
        assert r.qp_grade == 0

    def test_verify_hypothesis_not_met_still_reports_observations(self):
        records = run_verify(small_corpus(MIXED_ENTRY), nmax=10, min_tail=2)
        (r,) = records
        assert r.verdict == VERDICT_HYPOTHESIS
        assert not r.equigenerated
        assert r.fitted
        assert r.degree == 2 and r.a_c == 1

    def test_verify_zero_function_trivially_consistent(self):
        records = run_verify(small_corpus(UNIT_J_ENTRY), nmax=8, min_tail=2)
        (r,) = records
        assert r.verdict == VERDICT_CONSISTENT
        assert r.degree is None and r.fitted
        assert r.dim_tail is None

    def test_verify_insufficient_data(self):
        records = run_verify(small_corpus(TRIANGLE_ENTRY), nmax=5, min_tail=3)
        (r,) = records
        assert r.verdict == VERDICT_INSUFFICIENT
        assert not r.fitted and r.period is None

    def test_every_entry_gets_exactly_one_verdict(self):
        entries = load_corpus(cli.default_corpus_path())
        records = run_verify(entries, nmax=12, min_tail=2)
        assert [r.name for r in records] == [e.name for e in entries]


class TestExitCodes:
    def _record(self, verdict):
        return VerifyRecord(
            name="r", equigenerated=True, height=2, height_ok=True,
            dim_tail=0, dim_onset=1, period=1, degree=0, a_c=Fraction(1),
            a_c_const=True, a_c_positive=True, a_c1_const=True, qp_grade=-1,
            fitted=verdict != VERDICT_INSUFFICIENT, verdict=verdict,
        )

    def test_all_consistent_is_zero(self):
        assert exit_code_for([self._record(VERDICT_CONSISTENT)]) == 0

    def test_insufficient_is_two(self):
        records = [self._record(VERDICT_CONSISTENT), self._record(VERDICT_INSUFFICIENT)]
        assert exit_code_for(records) == 2

    def test_inconsistent_is_three_and_wins(self):
        records = [
            self._record(VERDICT_INSUFFICIENT),
            self._record(VERDICT_INCONSISTENT),
        ]
        assert exit_code_for(records) == 3


class TestRendering:
    @pytest.fixture
    def records(self):
        return run_verify(
            small_corpus(TRIANGLE_ENTRY, MIXED_ENTRY, UNIT_J_ENTRY), nmax=12, min_tail=2
        )

    def test_csv_columns_fixed(self, records):
        header = render_verify_csv(records).splitlines()[0]
        assert header.split(",") == CSV_COLUMNS

    def test_csv_cells(self, records):
        lines = render_verify_csv(records).splitlines()
        triangle = lines[1].split(",")
        assert triangle[:7] == ["triangle", "true", "2", "0", "2", "3", "1/12"]
        unit_j = lines[3].split(",")
        assert unit_j[3] == "empty" and unit_j[5] == "zero-function"

    def test_json_round_trips(self, records):
        rows = json.loads(render_verify_json(records))
        assert [row["name"] for row in rows] == ["triangle", "mixed", "unit-j"]
        assert all(list(row.keys()) == CSV_COLUMNS for row in rows)

    def test_outputs_deterministic(self, records):
        again = run_verify(
            small_corpus(TRIANGLE_ENTRY, MIXED_ENTRY, UNIT_J_ENTRY), nmax=12, min_tail=2
        )
        assert render_verify_csv(records) == render_verify_csv(again)
        assert render_verify_json(records) == render_verify_json(again)
        assert render_verify_table(records) == render_verify_table(again)

    def test_series_rows_build_no_monomials(self, monkeypatch):
        pair = parse_ideal_file(TRIANGLE_FILE)
        expected = render_series_csv(sample_series(pair.base, pair.saturator, 6))

        def fail(exponents):
            raise AssertionError("a Monomial was built to count generators")

        monkeypatch.setattr(core, "Monomial", fail)
        assert render_series_csv(sample_series(pair.base, pair.saturator, 6)) == expected

    def test_tables_without_rows_keep_the_header(self):
        assert render_verify_table([]).splitlines()[0].split() == CSV_COLUMNS
        assert render_series_table([]) == "n  f  dim  symbolic_gens\n-  -  ---  -------------\n"


class TestCli:
    @pytest.fixture
    def ideal_file(self, tmp_path):
        path = tmp_path / "triangle.ideal"
        path.write_text(TRIANGLE_FILE, encoding="utf-8")
        return str(path)

    def test_show_canonicalizes(self, ideal_file, capsys):
        assert cli.main(["show", ideal_file]) == 0
        assert capsys.readouterr().out == "ring x y z\nI: x*y, x*z, y*z\nJ: x, y, z\n"

    def test_power(self, ideal_file, capsys):
        assert cli.main(["power", ideal_file, "-n", "2"]) == 0
        out = capsys.readouterr().out.strip()
        assert out == "x^2*y^2, x^2*y*z, x^2*z^2, x*y^2*z, x*y*z^2, y^2*z^2"

    def test_colon_and_saturate(self, tmp_path, capsys):
        path = tmp_path / "pair.ideal"
        path.write_text("ring x y\nI: x^2*y\nJ: y\n", encoding="utf-8")
        assert cli.main(["colon", str(path)]) == 0
        assert capsys.readouterr().out.strip() == "x^2"
        assert cli.main(["saturate", str(path)]) == 0
        assert capsys.readouterr().out.strip() == "x^2"

    def test_hilbert(self, ideal_file, capsys):
        assert cli.main(["hilbert", ideal_file]) == 0
        out = capsys.readouterr().out
        assert "dim = 1" in out and "e0 = 3" in out

    def test_symbolic(self, ideal_file, capsys):
        assert cli.main(["symbolic", ideal_file, "-n", "2"]) == 0
        assert capsys.readouterr().out.strip() == "x*y*z, x^2*y^2, x^2*z^2, y^2*z^2"

    def test_series_formats(self, ideal_file, capsys):
        assert cli.main(["series", ideal_file, "--nmax", "4", "--format", "csv"]) == 0
        lines = capsys.readouterr().out.splitlines()
        assert lines[0] == "n,f,dim,symbolic_gens"
        assert lines[1] == "1,0,empty,3"
        assert cli.main(["series", ideal_file, "--nmax", "4", "--format", "json"]) == 0
        rows = json.loads(capsys.readouterr().out)
        assert rows[1]["f"] == "1"

    def test_fit_command(self, ideal_file, capsys):
        code = cli.main(
            ["fit", ideal_file, "--nmax", "12", "--min-tail", "2", "--format", "json"]
        )
        assert code == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["period"] == 2 and payload["degree"] == 3
        assert payload["coeffs"][3] == ["1/12", "1/12"]

    def test_fit_insufficient_data_exits_two(self, ideal_file, capsys):
        assert cli.main(["fit", ideal_file, "--nmax", "6"]) == 2

    def test_verify_default_corpus(self, capsys):
        assert cli.main(["verify", "--min-tail", "2", "--format", "csv"]) == 0
        out = capsys.readouterr().out
        assert out.splitlines()[0].split(",") == CSV_COLUMNS
        assert "engine-inconsistent" not in out

    def test_verify_out_file_and_determinism(self, tmp_path, capsys):
        out_a = tmp_path / "a.csv"
        out_b = tmp_path / "b.csv"
        assert cli.main(["verify", "--min-tail", "2", "--format", "csv", "--out", str(out_a)]) == 0
        assert cli.main(["verify", "--min-tail", "2", "--format", "csv", "--out", str(out_b)]) == 0
        assert out_a.read_bytes() == out_b.read_bytes()

    def test_verify_matches_stored_csv(self, tmp_path):
        # the shipped corpus at --nmax 12, as computed before the packed kernel
        out = tmp_path / "verify.csv"
        argv = ["verify", "--nmax", "12", "--min-tail", "2", "--format", "csv", "--out", str(out)]
        assert cli.main(argv) == 0
        assert out.read_bytes() == (DATA / "verify-n12.csv").read_bytes()

    def test_symbolic_matches_stored_output(self, tmp_path, capsys):
        # (I^6 : m^inf) for a 6-vertex edge graph, as computed before the
        # saturation was built from localized power ladders
        path = tmp_path / "edge.ideal"
        path.write_text(EDGE_FILE, encoding="utf-8")
        assert cli.main(["symbolic", str(path), "-n", "6"]) == 0
        assert capsys.readouterr().out.encode() == (DATA / "edge-symbolic-n6.txt").read_bytes()

    def test_verify_insufficient_exits_two(self, tmp_path):
        corpus = tmp_path / "corpus.json"
        corpus.write_text(json.dumps([TRIANGLE_ENTRY]), encoding="utf-8")
        assert cli.main(["verify", str(corpus), "--nmax", "5"]) == 2

    def test_verify_engine_bug_exits_three(self, monkeypatch):
        broken = VerifyRecord(
            name="broken", equigenerated=True, height=2, height_ok=True,
            dim_tail=0, dim_onset=1, period=2, degree=1, a_c=None,
            a_c_const=False, a_c_positive=False, a_c1_const=True, qp_grade=1,
            fitted=True, verdict=VERDICT_INCONSISTENT,
        )
        monkeypatch.setattr(harness, "run_verify", lambda *a, **k: [broken])
        assert cli.main(["verify"]) == 3

    @pytest.mark.parametrize(
        "exc, resource", [(MemoryError, "out of memory"), (RecursionError, "recursion depth")]
    )
    def test_exhausted_resource_exits_three(self, ideal_file, monkeypatch, capsys, exc, resource):
        def exhaust(ideal):
            raise exc()

        monkeypatch.setattr(cli, "numerator_of_quotient", exhaust)
        assert cli.main(["hilbert", ideal_file]) == 3
        err = capsys.readouterr().err
        assert err.count("\n") == 1
        assert err.startswith("error: ") and resource in err

    def test_usage_error_exits_one(self, capsys):
        assert cli.main(["power"]) == 1
        assert cli.main(["no-such-command"]) == 1

    @pytest.mark.parametrize(
        "argv",
        [
            ["power", "FILE", "-n", "-1"],
            ["power", "FILE", "-n", "two"],
            ["symbolic", "FILE", "-n", "-1"],
            ["series", "FILE", "--nmax", "0"],
            ["fit", "FILE", "--gmax", "0"],
            ["fit", "FILE", "--min-tail", "1"],
            ["verify", "--nmax", "0"],
            ["verify", "--min-tail", "1"],
        ],
    )
    def test_option_out_of_range_exits_one(self, ideal_file, argv, capsys):
        assert cli.main([ideal_file if a == "FILE" else a for a in argv]) == 1
        err = capsys.readouterr().err
        assert err.count("\n") == 1 and err.startswith("error: ")

    def test_internal_value_error_exits_three(self, ideal_file, monkeypatch, capsys):
        def broken(pair, nmax):
            raise ValueError("a broken invariant")

        monkeypatch.setattr(harness, "run_series", broken)
        assert cli.main(["series", ideal_file]) == 3
        err = capsys.readouterr().err
        assert err.count("\n") == 1 and "engine bug" in err and "a broken invariant" in err

    def test_non_utf8_file_exits_one(self, tmp_path, capsys):
        bad = tmp_path / "latin1.ideal"
        bad.write_bytes("ring x\nI: x\nJ: x # \u00e9\n".encode("latin-1"))
        assert cli.main(["show", str(bad)]) == 1
        assert capsys.readouterr().err.startswith("error: ")

    def test_parse_error_exits_one(self, tmp_path, capsys):
        bad = tmp_path / "bad.ideal"
        bad.write_text("ring x\nI: q\nJ: x\n", encoding="utf-8")
        assert cli.main(["show", str(bad)]) == 1
        assert cli.main(["show", str(tmp_path / "missing.ideal")]) == 1
