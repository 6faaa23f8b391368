"""satpow's runtime needs the standard library only."""
from __future__ import annotations

import ast
import sys
from pathlib import Path

import satpow

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
    assert len(modules) >= 10
    allowed = sys.stdlib_module_names | {"satpow"}
    for path in modules:
        tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
        foreign = sorted(set(absolute_imports(tree)) - allowed)
        assert not foreign, f"{path.name} imports {foreign}"


def test_the_guard_sees_foreign_imports():
    tree = ast.parse("import numpy.linalg\nfrom sympy import Poly\nfrom . import core\nimport json")
    assert absolute_imports(tree) == ["numpy", "sympy", "json"]


# The public surface, in the order of ``satpow.__all__``.
PUBLIC = [
    "Monomial", "MonomialIdeal", "RingContext", "divides", "minimalize",
    "InconsistencyError", "InsufficientDataError", "ParseError", "RingMismatchError", "ZeroIdealError",
    "SeriesSample", "dim_stabilization", "sample_series", "symbolic_power",
    "HilbertData", "IntPolynomial", "dim_and_mult", "numerator_of_quotient", "quotient_module_data",
    "QuasiPolynomial", "coeff_is_constant", "evaluate", "fit", "grade",
    "height",
    "__version__",
]

# Names that left the package: test-only oracles now in tests/conftest.py,
# and members that had no caller.
REMOVED_FROM_PACKAGE = ["check_filtration", "symbolic_provider", "FiltrationReport", "minimal_primes", "dim_quotient"]
REMOVED_MEMBERS = {
    satpow.MonomialIdeal: [
        "from_monomials", "is_proper", "__iter__", "__contains__", "__mul__", "__pow__", "colon_monomial", "_gens",
    ],
    satpow.Monomial: ["is_one"],
    satpow.IntPolynomial: ["coefficient", "__mul__"],
}


def test_public_surface_is_fixed():
    assert satpow.__all__ == PUBLIC
    assert len(set(satpow.__all__)) == len(satpow.__all__)
    for name in satpow.__all__:
        assert hasattr(satpow, name), name


def test_removed_names_stay_removed():
    for name in REMOVED_FROM_PACKAGE:
        assert not hasattr(satpow, name), name
    for cls, names in REMOVED_MEMBERS.items():
        for name in names:
            assert not hasattr(cls, name), f"{cls.__name__}.{name}"


def test_an_ideal_has_one_stored_form():
    ring = satpow.RingContext(("x", "y"))
    ideal = satpow.MonomialIdeal(ring, [(2, 0), (0, 1)])
    assert satpow.MonomialIdeal.__slots__ == ("ring", "_exps")
    assert len(ideal) == 2
    assert ideal.gens == (satpow.Monomial((2, 0)), satpow.Monomial((0, 1)))
    assert ideal.gens is not ideal.gens
    assert satpow.MonomialIdeal.unit(ring) == satpow.MonomialIdeal(ring, [(0, 0)])
