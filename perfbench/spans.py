"""Per-layer metrics derived from the spans of one traced satpow run.

A span is [name, start, end, parent, run_id, counts] as written by
``trace_child.py``.  ``busy`` time of a set of spans is the time covered by
the outermost spans of the set, so a layer that calls itself is not counted
twice.  ``self`` time of a span is its duration minus the time its direct
child spans cover.
"""
from __future__ import annotations

from typing import Callable

# name -> unit, in the order BENCHMARK.json lists the per-layer metrics.
# trace.overhead_s is added by the runner, which has the untraced runs.
LAYER_METRICS = {
    "core.busy_s": "s",
    "core.saturate.busy_s": "s",
    "core.intersect.busy_s": "s",
    "core.intersect.cands": "count",
    "core.intersect.kept_ratio": "ratio",
    "core.multiply.busy_s": "s",
    "core.multiply.kept_ratio": "ratio",
    "core.power_gens": "count",
    "core.sat_gens": "count",
    "hilbert.busy_s": "s",
    "hilbert.numerator.busy_s": "s",
    "hilbert.numerator_power.busy_s": "s",
    "hilbert.numerator_sat.busy_s": "s",
    "hilbert.numerator.calls": "count",
    "hilbert.numerator.max_len": "count",
    "hilbert.quotient.equal_ratio": "ratio",
    "hilbert.quotient.equal_s": "s",
    "hilbert.dim_and_mult.busy_s": "s",
    "filtration.sample_series.self_s": "s",
    "quasipoly.fit.busy_s": "s",
    "theory.height.busy_s": "s",
    "harness.run_verify.self_s": "s",
    "harness.render.busy_s": "s",
    "parsing.busy_s": "s",
    "parsing.format.busy_s": "s",
    "cli.self_s": "s",
}


def _outermost(spans: list, match: Callable[[str], bool], within: int = -1) -> list:
    """Indices of matching spans below span ``within`` with no matching ancestor."""
    found = []
    for i, s in enumerate(spans):
        if not match(s[0]):
            continue
        parent, inside = s[3], within < 0
        while parent >= 0 and not match(spans[parent][0]):
            inside = inside or parent == within
            parent = spans[parent][3]
        if parent < 0 and inside:
            found.append(i)
    return found


def _busy(spans: list, match: Callable[[str], bool], within: int = -1) -> float:
    return sum(spans[i][2] - spans[i][1] for i in _outermost(spans, match, within))


def series_split(spans: list) -> list:
    """Core and Hilbert busy time inside each sample_series call, in call order.

    ``satpow verify`` samples one series per corpus entry, in corpus order,
    so this attributes the compute to entries.
    """
    return [
        {
            "core_s": _busy(spans, lambda n: n.startswith("core."), i),
            "hilbert_s": _busy(spans, lambda n: n.startswith("hilbert."), i),
            "series_s": s[2] - s[1],
        }
        for i, s in enumerate(spans)
        if s[0] == "filtration.sample_series"
    ]


def layer_metrics(spans: list) -> dict:
    duration = [s[2] - s[1] for s in spans]
    children: dict = {}
    for i, s in enumerate(spans):
        children.setdefault(s[3], []).append(i)

    def busy(match: Callable[[str], bool]) -> float:
        return _busy(spans, match)

    def named(name: str) -> list:
        return [s for s in spans if s[0] == name]

    def self_time(name: str) -> float:
        return sum(
            duration[i] - sum(duration[c] for c in children.get(i, []))
            for i, s in enumerate(spans)
            if s[0] == name
        )

    def total(name: str, key: str) -> int:
        return sum(s[5][key] for s in named(name))

    def ratio(numerator: float, denominator: float) -> float:
        return numerator / denominator if denominator else 0.0

    # Inside quotient_module_data(inner, outer) the first numerator is that
    # of I^n (inner) and the second that of the saturation (outer).
    first_numerator = second_numerator = 0.0
    for i, s in enumerate(spans):
        if s[0] == "hilbert.quotient":
            calls = [c for c in children.get(i, []) if spans[c][0] == "hilbert.numerator"]
            if calls:
                first_numerator += duration[calls[0]]
            for c in calls[1:]:
                second_numerator += duration[c]

    quotients = named("hilbert.quotient")
    numerators = named("hilbert.numerator")
    return {
        "core.busy_s": busy(lambda n: n.startswith("core.")),
        "core.saturate.busy_s": busy(lambda n: n == "core.saturate"),
        "core.intersect.busy_s": busy(lambda n: n == "core.intersect"),
        "core.intersect.cands": total("core.intersect", "cands"),
        "core.intersect.kept_ratio": ratio(
            total("core.intersect", "kept"), total("core.intersect", "cands")
        ),
        "core.multiply.busy_s": busy(lambda n: n == "core.multiply"),
        "core.multiply.kept_ratio": ratio(
            total("core.multiply", "kept"), total("core.multiply", "cands")
        ),
        "core.power_gens": total("core.saturate", "in"),
        "core.sat_gens": total("core.saturate", "out"),
        "hilbert.busy_s": busy(lambda n: n.startswith("hilbert.")),
        "hilbert.numerator.busy_s": busy(lambda n: n == "hilbert.numerator"),
        "hilbert.numerator_power.busy_s": first_numerator,
        "hilbert.numerator_sat.busy_s": second_numerator,
        "hilbert.numerator.calls": len(numerators),
        "hilbert.numerator.max_len": max((s[5]["len"] for s in numerators), default=0),
        "hilbert.quotient.equal_ratio": ratio(
            sum(1 for s in quotients if s[5]["equal"]), len(quotients)
        ),
        "hilbert.quotient.equal_s": sum(s[2] - s[1] for s in quotients if s[5]["equal"]),
        "hilbert.dim_and_mult.busy_s": busy(lambda n: n == "hilbert.dim_and_mult"),
        "filtration.sample_series.self_s": self_time("filtration.sample_series"),
        "quasipoly.fit.busy_s": busy(lambda n: n == "quasipoly.fit"),
        "theory.height.busy_s": busy(lambda n: n == "theory.height"),
        "harness.run_verify.self_s": self_time("harness.run_verify"),
        "harness.render.busy_s": busy(lambda n: n == "harness.render"),
        "parsing.busy_s": busy(lambda n: n == "parsing.load"),
        "parsing.format.busy_s": busy(lambda n: n == "parsing.format"),
        "cli.self_s": self_time("cli.main"),
    }
