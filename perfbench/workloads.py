"""Workload inputs for the satpow benchmark, and the checks on their outputs.

Each workload turns a seed into one input file and the CLI arguments that
run it.  The same seed always gives the same file.  Every check here is
independent of the program under test: it reads satpow's text output and
compares it with a stored reference, a closed form, or an exact oracle
written below that shares no code with ``satpow``.
"""
from __future__ import annotations

import csv
import io
import itertools
import json
import random
import re
from dataclasses import dataclass
from pathlib import Path
from typing import Any, Callable

HERE = Path(__file__).resolve().parent

# The stored CSV of `satpow verify --nmax 20 --min-tail 2 --format csv` on
# the shipped corpus.  No verify column depends on variable names or on the
# order generators are written in, so each seed must reproduce it byte for byte.
CORPUS_REFERENCE = HERE / "reference" / "corpus-n20.csv"

# A check returns the problems it found; an empty list means the output is right.
Check = Callable[[bytes, Any], list]


@dataclass(frozen=True)
class Case:
    """One workload instance: its input file, CLI arguments and output check.

    ``check(output, expected)`` must pass on satpow's output and must fail
    with ``wrong_expected``, a deliberately wrong expectation; the runner
    uses the second call to show that a wrong result is not passed.
    """

    input_path: Path
    cli_args: list
    loader: str  # the public satpow.parsing loader for the input file
    check: Check
    expected: Any
    wrong_expected: Any


# ---------------------------------------------------------------------------
# corpus-n20: the theorem checklist over the shipped corpus
# ---------------------------------------------------------------------------

def corpus_case(seed: int, corpus_path: Path, workdir: Path) -> Case:
    """The shipped corpus with seeded variable names and generator order.

    Seed 0 keeps every entry as shipped.  Any other seed gives each entry's
    variables fresh names, in the same ring order, and shuffles its I and J
    generator lists.  The ring order itself stays: shuffling it changes the
    work (seed 3 of such shuffles ran about 13% faster than seeds 0-4, at
    the same machine speed), which would make the runs of one commit spread
    more than any regression bound.
    """
    entries = json.loads(corpus_path.read_text(encoding="utf-8"))
    rng = random.Random(seed)
    for entry in entries if seed else []:
        names = [f"{letter}{i}" for i, letter in enumerate(rng.sample("abcdefghpqrstuvw", len(entry["ring"])))]
        rename = dict(zip(entry["ring"], names))
        entry["ring"] = names
        for key in ("I", "J"):
            entry[key] = [_rename(expr, rename) for expr in entry[key]]
            rng.shuffle(entry[key])
    path = workdir / "corpus.json"
    path.write_text(json.dumps(entries, indent=1) + "\n", encoding="utf-8")
    expect = {e["name"]: e.get("expect", {}) for e in entries}
    reference = CORPUS_REFERENCE.read_bytes()
    wrong = reference.replace(b"consistent-with-theorem", b"hypothesis-not-met", 1)
    return Case(
        input_path=path,
        cli_args=["verify", str(path), "--nmax", "20", "--min-tail", "2", "--format", "csv"],
        loader="load_corpus",
        check=check_corpus,
        expected=(reference, expect),
        wrong_expected=(wrong, expect),
    )


def _rename(expr: str, rename: dict) -> str:
    if expr.strip() == "1":
        return expr
    factors = (factor.strip().partition("^") for factor in expr.split("*"))
    return "*".join(rename[name] + sep + power for name, sep, power in factors)


def check_corpus(output: bytes, expected: tuple) -> list:
    reference, expect = expected
    problems = []
    if output != reference:
        problems.append("verify CSV differs from the stored reference")
    rows = {row["name"]: row for row in csv.DictReader(io.StringIO(output.decode()))}
    for name, block in expect.items():
        row = rows.get(name)
        if row is None:
            problems.append(f"{name}: missing from the verify CSV")
            continue
        if "height" in block and row["height"] != str(block["height"]):
            problems.append(f"{name}: height {row['height']}, expected {block['height']}")
        if "equigenerated" in block:
            want = "true" if block["equigenerated"] else "false"
            if row["equigenerated"] != want:
                problems.append(f"{name}: equigenerated {row['equigenerated']}, expected {want}")
    return problems


# ---------------------------------------------------------------------------
# edge-symbolic: one large saturation, (I^6 : m^inf) for a graph edge ideal
# ---------------------------------------------------------------------------

# A connected non-bipartite graph on 6 vertices with 9 edges: the Hamiltonian
# cycle 0-1-2-4-5-3-0 plus the chords 0-2, 0-4, 1-3 (0-2 closes the triangle
# 0-1-2).  Among the 10 isomorphism classes of "6-cycle plus 3 chords, not
# bipartite" it is the most common one.  The graph and the ring order are
# fixed because the saturation cost depends on both: the 10 classes took
# 2.2-5.1 s in one vertex order, and ten seeded random graphs with random
# vertex orders 2.0-5.4 s, which no per-run median could make steady across
# seeds.
EDGE_GRAPH = ((0, 1), (0, 2), (0, 3), (0, 4), (1, 2), (1, 3), (2, 4), (3, 5), (4, 5))
EDGE_POWER = 6


def edge_case(seed: int, workdir: Path) -> Case:
    """``EDGE_GRAPH`` written with seeded variable names and edge order."""
    rng = random.Random(seed)
    names = [f"{letter}{i}" for i, letter in enumerate(rng.sample("abcdefghpqrstuvw", 6))]
    edges = list(EDGE_GRAPH)
    rng.shuffle(edges)
    factors = [rng.sample([names[a], names[b]], 2) for a, b in edges]
    text = (
        "ring " + " ".join(names) + "\n"
        + "I: " + ", ".join(f"{u}*{v}" for u, v in factors) + "\n"
        + "J: " + ", ".join(names) + "\n"
    )
    path = workdir / "edge.ideal"
    path.write_text(text, encoding="utf-8")
    return Case(
        input_path=path,
        cli_args=["symbolic", str(path), "-n", str(EDGE_POWER)],
        loader="load_ideal_file",
        check=check_symbolic,
        expected=(names, EDGE_GRAPH, EDGE_POWER),
        wrong_expected=(names, EDGE_GRAPH, EDGE_POWER + 1),
    )


def check_symbolic(output: bytes, expected: tuple) -> list:
    names, edges, n = expected
    try:
        gens = parse_generators(output.decode().strip(), names)
    except ValueError as exc:
        return [f"unreadable output: {exc}"]
    return saturation_problems(gens, edges, len(names), n)


def parse_generators(text: str, names: list) -> list:
    """Exponent vectors from a comma-separated list such as ``a0^2*b1, c2``."""
    index = {name: i for i, name in enumerate(names)}
    gens = []
    for expr in text.split(","):
        vec = [0] * len(names)
        for factor in expr.strip().split("*"):
            name, _, power = factor.partition("^")
            if name not in index or (power and not power.isdigit()):
                raise ValueError(f"bad factor {factor!r}")
            vec[index[name]] += int(power) if power else 1
        gens.append(tuple(vec))
    return gens


# Exponent vectors are packed into one integer, 8 bits per variable, so that
# divisibility is one subtraction: a | b iff ((b | G) - a) & G == G, where G
# holds the top bit of each field.  This needs every exponent below 128.
_FIELD = 8


def _pack(vec) -> int:
    return sum(e << (_FIELD * i) for i, e in enumerate(vec))


def _minimal(packed: set, guard: int) -> list:
    """Divisibility-minimal elements of a set of packed monomials."""
    by_degree = sorted(packed, key=lambda m: sum(m.to_bytes(16, "little")))
    kept = []
    for m in by_degree:
        mg = m | guard
        if not any((mg - k) & guard == guard for k in kept):
            kept.append(m)
    return kept


def saturation_problems(gens: list, edges, d: int, n: int) -> list:
    """Whether ``gens`` minimally generate (I^n : m^inf), I the edge ideal.

    The saturation by the maximal ideal m is the intersection over i of
    P_i = (I^n : x_i^inf), and P_i is generated by the generators of I^n with
    the x_i exponent set to 0.  The check proves, with O the ideal of ``gens``:

    * ``gens`` is an antichain under divisibility;
    * I^n is contained in O;
    * every generator of O lies in every P_i, so O is inside the saturation;
    * every monomial of the saturation with all exponents below n lies in O.
      A monomial of the saturation outside I^n has every exponent below n
      (an x_i exponent of n or more together with membership in P_i puts it
      in I^n), so this shows the saturation is inside O.
    """
    if any(e >= 1 << (_FIELD - 1) for g in gens for e in g):
        return ["an output exponent is too large for the oracle"]
    guard = _pack([1 << (_FIELD - 1)] * d)
    out = sorted({_pack(g) for g in gens}, key=lambda m: sum(m.to_bytes(16, "little")))

    def in_ideal(m: int, ideal_gens) -> bool:
        mg = m | guard
        return any((mg - g) & guard == guard for g in ideal_gens)

    if len(out) != len(gens):
        return ["the output repeats a generator"]
    if any(in_ideal(m, out[:i]) for i, m in enumerate(out)):
        return ["the output is not an antichain"]

    edge_vecs = [_pack([1 if v in edge else 0 for v in range(d)]) for edge in edges]
    power = _minimal({sum(c) for c in itertools.combinations_with_replacement(edge_vecs, n)}, guard)
    if not all(in_ideal(p, out) for p in power):
        return ["I^n is not contained in the output ideal"]

    masks = [~(((1 << _FIELD) - 1) << (_FIELD * i)) for i in range(d)]
    columns = [_minimal({p & mask for p in power}, guard) for mask in masks]
    if not all(in_ideal(m, column) for m in out for column in columns):
        return ["an output generator is not in the saturation"]

    for vec in itertools.product(range(n), repeat=d):
        m = _pack(vec)
        if all(in_ideal(m, column) for column in columns) and not in_ideal(m, out):
            return [f"monomial {vec} is in the saturation but not in the output"]
    return []


# ---------------------------------------------------------------------------
# deep-hilbert: one deep numerator recursion
# ---------------------------------------------------------------------------

DEEP_EXPONENT = 1000


def deep_case(seed: int, workdir: Path) -> Case:
    """I = (x^e y^e, y^e z^e, z^e x^e) with seeded names, ring and generator order.

    The ideal is symmetric in its three variables, so every seed asks for
    the same computation.
    """
    rng = random.Random(seed)
    names = rng.sample("abcdefghpqrstuvwxyz", 3)
    e = DEEP_EXPONENT
    pairs = [(names[0], names[1]), (names[1], names[2]), (names[2], names[0])]
    rng.shuffle(pairs)
    ring = rng.sample(names, 3)
    text = (
        "ring " + " ".join(ring) + "\n"
        + "I: " + ", ".join(f"{u}^{e}*{v}^{e}" for u, v in pairs) + "\n"
        + "J: " + ", ".join(ring) + "\n"
    )
    path = workdir / "deep.ideal"
    path.write_text(text, encoding="utf-8")
    return Case(
        input_path=path,
        cli_args=["hilbert", str(path)],
        loader="load_ideal_file",
        check=check_hilbert,
        expected=(1, 3 * e * e, e),
        wrong_expected=(1, 3 * e * e + 1, e),
    )


def check_hilbert(output: bytes, expected: tuple) -> list:
    """dim = 1, e0 = 3e^2 and numerator 1 - 3z^(2e) + 2z^(3e).

    The lcm of any two generators is x^e y^e z^e, so inclusion-exclusion over
    the three generators gives the numerator over (1 - z)^3 in closed form.
    """
    dim, e0, e = expected
    text = output.decode()
    numerator = [0] * (3 * e + 1)
    numerator[0], numerator[2 * e], numerator[3 * e] = 1, -3, 2
    want = {
        "dim": str(dim),
        "e0": str(e0),
        "numerator coefficients (z^0 first)": str(numerator),
    }
    got = dict(re.findall(r"^(.*?)(?: =|:) (.*)$", text, flags=re.MULTILINE))
    return [f"{key} is {got.get(key)!r}, expected {value!r}"[:200]
            for key, value in want.items() if got.get(key) != value]


WORKLOADS = ("corpus-n20", "edge-symbolic", "deep-hilbert")


def make_case(workload: str, seed: int, corpus_path: Path, workdir: Path) -> Case:
    if workload == "corpus-n20":
        return corpus_case(seed, corpus_path, workdir)
    if workload == "edge-symbolic":
        return edge_case(seed, workdir)
    if workload == "deep-hilbert":
        return deep_case(seed, workdir)
    raise ValueError(f"unknown workload {workload!r}")
