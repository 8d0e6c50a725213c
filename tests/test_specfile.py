import json
import re
from fractions import Fraction as F

import pytest

from ddmlab import measures, symbolic
from ddmlab.covers import Cover
from ddmlab.errors import RejectedInputError
from ddmlab.specfile import (
    decimal_string,
    format_rational,
    load_spec,
    parse_rational,
    parse_set,
    parse_spec,
    witness_payload,
)
from ddmlab.symbolic import WindowSet


def test_rational_round_trip():
    assert parse_rational("3/4", "x") == F(3, 4)
    assert parse_rational("-2/6", "x") == F(-1, 3)
    assert parse_rational(5, "x") == F(5)
    assert parse_rational("7", "x") == F(7)
    assert format_rational(F(-1, 3)) == "-1/3"
    for bad in ("1.5", "a/b", "1/0", None, True):
        with pytest.raises(RejectedInputError, match="^x "):
            parse_rational(bad, "x")


def test_decimal_rendering_is_display_only():
    assert decimal_string(F(1, 3), 4) == "0.3333"
    assert decimal_string(F(-5, 4), 2) == "-1.25"
    assert decimal_string(F(7), 0) == "7"


class TestSetLiterals:
    def test_atoms(self):
        assert parse_set("full", 2) == WindowSet.full_space(2)
        assert parse_set("empty", 2) == WindowSet.empty(2)
        assert parse_set("cyl(-1,[1,0])", 2) == WindowSet.cylinder(2, -1, [1, 0])

    def test_union(self):
        s = parse_set("union(cyl(0,[0]), cyl(0,[1]))", 2)
        assert s == WindowSet.full_space(2)
        nested = parse_set("union(cyl(0,[0,1]), union(cyl(2,[1]), empty))", 2)
        assert nested == symbolic.union(
            WindowSet.cylinder(2, 0, [0, 1]), WindowSet.cylinder(2, 2, [1])
        )

    def test_round_trip_through_literal(self):
        for text in ("full", "empty", "cyl(0,[1])", "union(cyl(0,[0,0]), cyl(1,[1,1]))"):
            s = parse_set(text, 2)
            assert parse_set(s.literal(), 2) == s

    def test_errors(self):
        for bad, message in [
            ("cyl(0)", "expected ',' at 5 in 'cyl(0)'"),
            ("cyl(0,[2])", "symbol 2 outside alphabet"),
            ("union()", "expected full, empty, cyl or union at 6"),
            ("blob", "expected full, empty, cyl or union at 0"),
            ("cyl(0,[1]) trailing", "expected the end of the literal at 11"),
            ("cyl( 0 , [1 ,x])", "expected an integer at 13"),
            ("union(full empty)", "expected ')' at 11"),
        ]:
            with pytest.raises(RejectedInputError, match=re.escape(message)):
                parse_set(bad, 2)


SPEC = {
    "alphabet": 2,
    "measures": {
        "chain": {
            "kind": "markov",
            "pi": ["1/3", "2/3"],
            "A": [["1/2", "1/2"], ["1/4", "3/4"]],
        },
        "auto": {"kind": "stationary_markov", "A": [["1/2", "1/2"], ["1/4", "3/4"]]},
        "point": {"kind": "dirac", "period": [0, 1], "exceptions": {"3": 0}},
        "coin": {"kind": "bernoulli", "p": ["1/2", "1/2"]},
        "avg": {"kind": "cesaro", "base": "point", "n": 2},
        "mix": {"kind": "convex", "weights": ["1/2", "1/2"], "parts": ["coin", "point"]},
        "gap": {"kind": "signed_diff", "psi": "avg", "c": "1/2", "phi": "coin"},
    },
    "sets": {"zero": "cyl(0,[0])", "everything": "full"},
    "configs": {"c1": {"depth": 2, "width": 1, "base_shift": -1}},
    "commands": {"eval": {"measure": "chain", "set": "zero"}},
}


def test_parse_spec_resolves_references():
    spec = parse_spec(SPEC)
    assert spec.n == 2
    assert measures.eval0(spec.measure("chain"), spec.window_set("zero")) == F(1, 3)
    assert spec.measure("auto").pi == (F(1, 3), F(2, 3))
    assert spec.measure("point").point_at(3) == 0
    assert spec.measure("avg").n == 2
    assert not spec.measure("gap").nonnegative
    cfg = spec.config("c1")
    assert (cfg.depth, cfg.width, cfg.base_shift) == (2, 1, -1)
    # inline literals work anywhere a set name does
    assert spec.window_set("cyl(1,[1])") == WindowSet.cylinder(2, 1, [1])


def test_unresolvable_references_are_reported():
    with pytest.raises(RejectedInputError, match="unresolvable"):
        parse_spec({"alphabet": 2, "measures": {"a": {"kind": "cesaro", "base": "b", "n": 1}}})


def test_a_malformed_measure_reports_its_own_defect():
    bad = {"kind": "markov", "pi": ["1/2", "1/3"], "A": [["1/2", "1/2"], ["1/2", "1/2"]]}
    with pytest.raises(RejectedInputError, match="initial vector is not a distribution"):
        parse_spec({"alphabet": 2, "measures": {"m": bad}})
    # a defect behind a forward reference is reported too
    with pytest.raises(RejectedInputError, match="initial vector is not a distribution"):
        parse_spec({"alphabet": 2, "measures": {
            "a": {"kind": "cesaro", "base": "m", "n": 1}, "m": bad}})


def test_load_spec_from_file(tmp_path):
    path = tmp_path / "problem.json"
    path.write_text(json.dumps(SPEC))
    spec = load_spec(str(path))
    assert spec.commands["eval"]["measure"] == "chain"


def test_witness_payload():
    cover = Cover(((0, WindowSet.cylinder(2, 0, [1])), (-1, WindowSet.cylinder(2, 0, [0]))))
    payload = witness_payload(cover)
    assert payload["base_shift"] == 0
    assert {e["m"] for e in payload["entries"]} == {0, -1}
    assert payload["entries"][0]["set"] in ("cyl(0,[1])", "cyl(0,[0])")
