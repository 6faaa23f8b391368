"""satpow's runtime needs the standard library only."""
from __future__ import annotations

import ast
import copy
import importlib.util
import os
import pickle
import subprocess
import sys
from pathlib import Path

import pytest

import satpow
import satpow.cli
from satpow.harness import VerifyRecord
from satpow.parsing import CorpusEntry, IdealPair

PACKAGE = Path(satpow.__file__).parent


def absolute_imports(tree: ast.AST) -> list[str]:
    """The top-level module of every absolute import in ``tree``."""
    names = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            names += [alias.name for alias in node.names]
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            names.append(node.module)
    return [name.split(".")[0] for name in names]


def test_modules_import_only_the_standard_library():
    modules = sorted(PACKAGE.rglob("*.py"))
    assert len(modules) >= 9
    allowed = sys.stdlib_module_names | {"satpow"}
    for path in modules:
        tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
        foreign = sorted(set(absolute_imports(tree)) - allowed)
        assert not foreign, f"{path.name} imports {foreign}"


# Every satpow command is a fresh process, so what importing the CLI loads is
# paid on every run; these modules cost the most and satpow needs none of them
# at start-up.  The last five only some commands load, inside the function
# that uses each (``fractions`` brings ``decimal`` and ``numbers``).
LOADED_BY_SOME_COMMANDS = ["fractions", "decimal", "numbers", "json", "csv"]
NOT_AT_START_UP = [
    "typing", "dataclasses", "inspect", "pathlib", "importlib.resources", "tempfile",
    *LOADED_BY_SOME_COMMANDS,
]
CHILD_ENV = dict(os.environ, PYTHONPATH=str(PACKAGE.parent))


def _loaded_after(code: str) -> set[str]:
    """The modules loaded after ``code`` ran in a fresh ``python -S`` child that prints nothing."""
    code += "; print(*sorted(sys.modules))"
    run = subprocess.run(
        [sys.executable, "-S", "-c", code], env=CHILD_ENV, capture_output=True, text=True, check=True
    )
    return set(run.stdout.split())


def test_cli_start_up_loads_no_heavy_module():
    loaded = _loaded_after("import sys, satpow.cli, satpow.parsing")
    assert "satpow.cli" in loaded
    assert sorted(loaded.intersection(NOT_AT_START_UP)) == []


# perfbench/trace_child.py's install() wraps satpow functions in the satpow
# modules already loaded and exits when a name is in none of them, so every
# module must load at ``import satpow.cli``: a module-level lazy import would
# break the traced benchmark.  This test goes with that tracer (ROADMAP
# item 3b), which is what still blocks lazy imports of satpow's own modules.
def test_cli_import_loads_every_satpow_module():
    modules = {f"satpow.{path.stem}" for path in PACKAGE.glob("*.py") if path.stem != "__init__"}
    assert len(modules) >= 8
    assert sorted(modules - _loaded_after("import sys, satpow.cli")) == []


# (satpow arguments, the stored file they print, the modules satpow imports
# for them); a report in table or text form needs none of them
COMMANDS = [
    ("hilbert tests/data/three-vars.ideal", "three-vars-hilbert.txt", []),
    ("symbolic tests/data/edge-graph.ideal -n 6", "edge-symbolic-n6.txt", []),
    ("series tests/data/edge-graph.ideal --nmax 6", "edge-graph-series-n6.txt", []),
    ("fit tests/data/huge-exponent.ideal --nmax 20 --min-tail 2", "huge-exponent-fit-n20.txt", ["fractions"]),
    ("verify --nmax 12 --min-tail 2 --format csv", "verify-n12.csv", ["csv", "fractions", "json"]),
    ("series tests/data/edge-graph.ideal --nmax 6 --format json", "edge-graph-series-n6.json", ["json"]),
]


# runs ``main`` on its arguments, then lists the loaded modules on stderr
RUN_MAIN = (
    "import sys; from satpow.cli import main; code = main(sys.argv[1:]); "
    "print(*sorted(sys.modules), file=sys.stderr); sys.exit(code)"
)


@pytest.mark.parametrize("args, stored, uses", COMMANDS, ids=[stored for _, stored, _ in COMMANDS])
def test_a_command_loads_only_the_modules_it_uses(args, stored, uses):
    root = Path(__file__).parents[1]
    run = subprocess.run(
        [sys.executable, "-S", "-c", RUN_MAIN, *args.split()],
        cwd=root, env=CHILD_ENV, capture_output=True, check=True,
    )
    assert run.stdout == (root / "tests" / "data" / stored).read_bytes()
    loaded = set(run.stderr.decode().split())
    if uses:
        # decimal and numbers come with fractions, as the standard library has it
        assert sorted(loaded.intersection(["csv", "fractions", "json"])) == uses
    else:
        assert sorted(loaded.intersection(LOADED_BY_SOME_COMMANDS)) == []


def test_the_guard_sees_foreign_imports():
    tree = ast.parse("import numpy.linalg\nfrom sympy import Poly\nfrom . import core\nimport json")
    assert absolute_imports(tree) == ["numpy", "sympy", "json"]


# The public surface, in the order of ``satpow.__all__``.
PUBLIC = [
    "MonomialIdeal", "RingContext", "minimalize",
    "InconsistencyError", "InsufficientDataError", "ParseError", "RingMismatchError", "ZeroIdealError",
    "SeriesSample", "dim_stabilization", "sample_series", "symbolic_power",
    "HilbertData", "Numerator", "dim_and_mult", "numerator_of_quotient", "quotient_module_data",
    "QuasiPolynomial", "coeff_is_constant", "evaluate", "fit", "grade",
    "height",
    "__version__",
]

# Names that left the package: test-only oracles now in tests/conftest.py,
# members that had no caller, one caller they were folded into, or only
# tests as callers, the monomial class with its divisibility function (a
# monomial is an exponent tuple), the period collapse that the ascending
# search made a no-op, the dense numerator class (a numerator is sparse
# terms, a ``Numerator``), the fitter's second interpolation (it reads
# its coefficients off the difference rows it already built), and the
# second ways to check rings, build colons, fill a row and read supports
# (``Packing.of``, ``Packing.colon_parts``, ``Row.extend`` and
# ``Packing.supports`` are the one way each; the supports are read in the
# packing that takes them, so ``core._minimal_supports`` and its second
# packing left), and Bigatti's pivot
# split of the Hilbert numerator (past three fields the numerator walks
# ``Packing.levels``, as a large meet does), and ``Packing.power``, as
# ``Packing.rungs`` builds every power.  The module ``satpow.theory`` left
# too: the height is one quotient in ``hilbert``.  So did the command
# line's own usage exception, as ``ParseError`` covers the command line.
REMOVED_FROM_PACKAGE = [
    "check_filtration", "symbolic_provider", "FiltrationReport", "minimal_primes", "dim_quotient",
    "Monomial", "divides", "IntPolynomial",
]
REMOVED_MEMBERS = {
    satpow.MonomialIdeal: [
        "from_monomials", "is_proper", "__iter__", "__contains__", "__mul__", "__pow__", "colon_monomial", "_gens",
        "contains", "localizations", "contains_ideal", "zero", "_check_ring",
    ],
    satpow.hilbert: ["IntPolynomial", "_pick_pivot"],
    satpow.HilbertData: ["numerator", "ambient_d"],
    satpow.QuasiPolynomial: ["is_zero"],
    satpow.core: ["_minimal_supports"],
    satpow.core.Packing: ["support_counts", "exponents", "degree", "colons", "split", "power"],
    satpow.core.Row: ["_masks"],
    satpow.SeriesSample: ["symbolic_ideal"],
    satpow.harness: ["run_series", "run_fit"],
    satpow.cli: ["_UsageError"],
    satpow.quasipoly: ["_collapse_period", "_interpolate"],
}


def test_public_surface_is_fixed():
    assert satpow.__all__ == PUBLIC
    assert len(set(satpow.__all__)) == len(satpow.__all__)
    for name in satpow.__all__:
        assert hasattr(satpow, name), name


def test_removed_names_stay_removed():
    for name in REMOVED_FROM_PACKAGE:
        assert not hasattr(satpow, name), name
    for name in ("Monomial", "divides"):
        assert not hasattr(satpow.core, name), name
    for cls, names in REMOVED_MEMBERS.items():
        for name in names:
            assert not hasattr(cls, name), f"{cls.__name__}.{name}"
    assert importlib.util.find_spec("satpow.theory") is None


def test_an_ideal_has_one_stored_form():
    ring = satpow.RingContext(("x", "y"))
    ideal = satpow.MonomialIdeal(ring, [(2, 0), (0, 1)])
    assert satpow.MonomialIdeal.__slots__ == ("ring", "_exps")
    assert len(ideal) == 2
    assert ideal.gens is ideal.gens == ((2, 0), (0, 1))
    assert satpow.MonomialIdeal.unit(ring) == satpow.MonomialIdeal(ring, [(0, 0)])


def _records():
    """One of each record type, with a field to assign to."""
    ring = satpow.RingContext(("x",))
    ideal = satpow.MonomialIdeal(ring, [(1,)])
    pair = IdealPair(ring=ring, base=ideal, saturator=ideal)
    verify = VerifyRecord(
        name="a", equigenerated=True, height=1, verdict="insufficient-data"
    )
    return [
        (ring, "var_names"),
        (satpow.SeriesSample(n=1, symbolic_gens=1, module_dim=None, f=0), "f"),
        (satpow.quotient_module_data(ideal, ideal), "e0"),
        (satpow.numerator_of_quotient(ideal), "degrees"),
        (satpow.fit([(n, 0) for n in range(1, 6)]), "period"),
        (pair, "base"),
        (CorpusEntry(name="a", pair=pair, expect={}), "name"),
        (verify, "verdict"),
    ]


RECORDS = _records()


@pytest.mark.parametrize("record, field", RECORDS, ids=[type(r).__name__ for r, _ in RECORDS])
def test_records_are_immutable_and_copy(record, field):
    with pytest.raises(AttributeError):
        setattr(record, field, getattr(record, field))
    with pytest.raises(AttributeError):
        record.extra = 1
    assert copy.copy(record) == record
    assert pickle.loads(pickle.dumps(record)) == record


def test_a_record_with_no_rule_is_its_named_tuple():
    # a subclass holding only a docstring is a second type for one fact;
    # RingContext validates its names and VerifyRecord is keyword-only
    ruled = (satpow.RingContext, VerifyRecord)
    for record, _ in RECORDS:
        cls = type(record)
        assert (cls.__bases__ == (tuple,)) is (cls not in ruled), cls.__name__
        assert not cls.__doc__.startswith(cls.__name__ + "("), cls.__name__  # its own docstring, not the default
