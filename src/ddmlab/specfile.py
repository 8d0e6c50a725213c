"""Problem-spec file: one self-describing JSON document per batch.

Rationals are decimal-free "p/q" strings (or plain integers).  Measures are
tagged records that may reference other named measures.  Window sets use
the textual literal syntax ``full``, ``empty``, ``cyl(j,[a,b,...])`` and
``union(...)``.
"""

from __future__ import annotations

import json
import re
from dataclasses import dataclass, field
from fractions import Fraction

from . import measures, symbolic
from .covers import TruncationConfig
from .errors import RejectedInputError


class _UnknownMeasureName(RejectedInputError):
    """A measure record references a name not (yet) defined."""


def expect_object(value, what: str) -> dict:
    if not isinstance(value, dict):
        raise RejectedInputError(f"{what} must be a JSON object, not {value!r}")
    return value


def expect_array(value, what: str) -> list:
    if not isinstance(value, list):
        raise RejectedInputError(f"{what} must be a JSON array, not {value!r}")
    return value


def expect_integer(value, what: str) -> int:
    """An integer given as a JSON number or a string of digits."""
    if not isinstance(value, bool) and isinstance(value, (int, str)):
        try:
            return int(value)
        except ValueError:
            pass
    raise RejectedInputError(f"{what} must be an integer, not {value!r}")


def expect_integers(value, what: str) -> list[int]:
    return [expect_integer(x, what) for x in expect_array(value, what)]


_RATIONAL = re.compile(r"^\s*(-?\d+)\s*(?:/\s*(\d+)\s*)?$")


def parse_rational(text, what: str) -> Fraction:
    """A rational given as an integer or a "p/q" string."""
    if isinstance(text, Fraction):
        return text
    if isinstance(text, int) and not isinstance(text, bool):
        return Fraction(text)
    m = _RATIONAL.match(text) if isinstance(text, str) else None
    if not m:
        raise RejectedInputError(f"{what} must be a rational, not {text!r}")
    num = int(m.group(1))
    den = int(m.group(2)) if m.group(2) else 1
    if den == 0:
        raise RejectedInputError(f"{what} has a zero denominator")
    return Fraction(num, den)


def parse_rationals(value, what: str) -> tuple[Fraction, ...]:
    return tuple(parse_rational(x, what) for x in expect_array(value, what))


def parse_matrix(value) -> tuple[tuple[Fraction, ...], ...]:
    return tuple(parse_rationals(row, "a row of A") for row in expect_array(value, "A"))


def format_rational(x: Fraction) -> str:
    return f"{x.numerator}/{x.denominator}"


def decimal_string(x: Fraction, digits: int) -> str:
    """Display-only fixed-point rendering, truncated toward zero."""
    sign = "-" if x < 0 else ""
    x = abs(x)
    scaled = x.numerator * 10 ** digits // x.denominator
    whole, frac = divmod(scaled, 10 ** digits)
    return f"{sign}{whole}.{str(frac).rjust(digits, '0')}" if digits else f"{sign}{whole}"


# -- set literals --------------------------------------------------------


def parse_set(text: str, n: int) -> symbolic.WindowSet:
    if not isinstance(text, str):
        raise RejectedInputError(f"a set literal must be a string, not {text!r}")
    parser = _SetParser(text, n)
    result = parser.expression()
    parser.expect_end()
    return result


class _SetParser:
    def __init__(self, text: str, n: int):
        self.text = text
        self.pos = 0
        self.n = n

    def error(self, message: str):
        raise RejectedInputError(f"{message} at {self.pos} in {self.text!r}")

    def skip(self):
        while self.pos < len(self.text) and self.text[self.pos].isspace():
            self.pos += 1

    def expect(self, token: str):
        self.skip()
        if not self.text.startswith(token, self.pos):
            self.error(f"expected {token!r}")
        self.pos += len(token)

    def expect_end(self):
        self.skip()
        if self.pos != len(self.text):
            self.error("trailing input")

    def peek_word(self) -> str:
        self.skip()
        m = re.match(r"[a-z_]+", self.text[self.pos :])
        return m.group(0) if m else ""

    def integer(self) -> int:
        self.skip()
        m = re.match(r"-?\d+", self.text[self.pos :])
        if not m:
            self.error("expected an integer")
        self.pos += len(m.group(0))
        return int(m.group(0))

    def expression(self) -> symbolic.WindowSet:
        word = self.peek_word()
        if word == "full":
            self.expect("full")
            return symbolic.WindowSet.full_space(self.n)
        if word == "empty":
            self.expect("empty")
            return symbolic.WindowSet.empty(self.n)
        if word == "cyl":
            return self.cylinder()
        if word == "union":
            self.expect("union")
            self.expect("(")
            parts = [self.expression()]
            while True:
                self.skip()
                if self.text.startswith(",", self.pos):
                    self.pos += 1
                    parts.append(self.expression())
                else:
                    break
            self.expect(")")
            return symbolic.union_all(self.n, parts)
        self.error("expected full, empty, cyl or union")

    def cylinder(self) -> symbolic.WindowSet:
        self.expect("cyl")
        self.expect("(")
        start = self.integer()
        self.expect(",")
        self.expect("[")
        word = [self.integer()]
        while True:
            self.skip()
            if self.text.startswith(",", self.pos):
                self.pos += 1
                word.append(self.integer())
            else:
                break
        self.expect("]")
        self.expect(")")
        return symbolic.WindowSet.cylinder(self.n, start, word)


# -- measures ------------------------------------------------------------


def parse_measure(record, named: dict, n: int) -> measures.CylinderMeasure:
    if isinstance(record, str):
        if record not in named:
            raise _UnknownMeasureName(f"unknown measure name {record!r}")
        return named[record]
    if not isinstance(record, dict) or "kind" not in record:
        raise RejectedInputError(f"measure record needs a kind: {record!r}")
    kind = record["kind"]
    if kind == "markov":
        return measures.MarkovMeasure(parse_rationals(record["pi"], "pi"), parse_matrix(record["A"]))
    if kind == "stationary_markov":
        return measures.stationary_markov(parse_matrix(record["A"]))
    if kind == "dirac":
        exceptions = tuple(
            (expect_integer(j, "an exception coordinate"), expect_integer(s, "a symbol"))
            for j, s in expect_object(record.get("exceptions", {}), "exceptions").items()
        )
        period = tuple(expect_integers(record["period"], "period"))
        return measures.DiracMeasure(n, period, exceptions)
    if kind == "bernoulli":
        return measures.BernoulliMeasure(parse_rationals(record["p"], "p"))
    if kind == "cesaro":
        base = parse_measure(record["base"], named, n)
        return measures.cesaro(base, expect_integer(record["n"], "n"))
    if kind == "convex":
        parts = tuple(parse_measure(p, named, n) for p in expect_array(record["parts"], "parts"))
        return measures.ConvexMeasure(parse_rationals(record["weights"], "weights"), parts)
    if kind == "signed_diff":
        return measures.SignedDiffMeasure(
            parse_measure(record["psi"], named, n),
            parse_rational(record["c"], "c"),
            parse_measure(record["phi"], named, n),
        )
    raise RejectedInputError(f"unknown measure kind {kind!r}")


def parse_config(record: dict) -> TruncationConfig:
    expect_object(record, "a config")
    pinned = {
        key: expect_integer(record[key], key)
        for key in ("window_lo", "window_hi")
        if record.get(key) is not None
    }
    return TruncationConfig(
        depth=expect_integer(record.get("depth", 1), "depth"),
        width=expect_integer(record.get("width", 0), "width"),
        base_shift=expect_integer(record.get("base_shift", 0), "base_shift"),
        **pinned,
    )


@dataclass
class ProblemSpec:
    n: int  # alphabet size
    measures: dict = field(default_factory=dict)
    sets: dict = field(default_factory=dict)
    configs: dict = field(default_factory=dict)
    commands: dict = field(default_factory=dict)

    def measure(self, name: str) -> measures.CylinderMeasure:
        if not isinstance(name, str) or name not in self.measures:
            raise RejectedInputError(f"unknown measure name {name!r}")
        return self.measures[name]

    def window_set(self, name: str) -> symbolic.WindowSet:
        if isinstance(name, str) and name in self.sets:
            return self.sets[name]
        # allow inline literals wherever a set name is expected
        return parse_set(name, self.n)

    def config(self, name) -> TruncationConfig:
        if isinstance(name, dict):
            return parse_config(name)
        if not isinstance(name, str) or name not in self.configs:
            raise RejectedInputError(f"unknown config name {name!r}")
        return self.configs[name]


def load_spec(path: str) -> ProblemSpec:
    with open(path, "r", encoding="utf-8") as fh:
        raw = json.load(fh)
    return parse_spec(raw)


def parse_spec(raw: dict) -> ProblemSpec:
    expect_object(raw, "the spec")
    n = expect_integer(raw.get("alphabet", 2), "alphabet")
    if n < 1:
        raise RejectedInputError("alphabet needs at least one symbol")
    section = {key: expect_object(raw.get(key, {}), key)
               for key in ("measures", "sets", "configs", "commands")}
    named: dict = {}
    pending = dict(section["measures"])
    # named measures may reference each other; resolve until stable.  Only a
    # reference to a name not yet resolved leaves a measure pending: every
    # other error is the record's own defect and is raised as it is.
    progress = True
    while pending and progress:
        progress = False
        for name in list(pending):
            try:
                named[name] = parse_measure(pending[name], named, n)
            except _UnknownMeasureName:
                continue
            del pending[name]
            progress = True
    if pending:
        raise RejectedInputError(f"unresolvable measure references: {sorted(pending)}")
    sets = {name: parse_set(text, n) for name, text in section["sets"].items()}
    configs = {name: parse_config(rec) for name, rec in section["configs"].items()}
    return ProblemSpec(n, named, sets, configs, dict(section["commands"]))


def witness_payload(cover) -> dict:
    entries = [
        {"m": m, "set": a.literal()}
        for m, a in cover.entries
    ]
    payload = {"base_shift": cover.base_shift, "entries": entries}
    if cover.cost_base is not None:
        payload["cost_base"] = cover.cost_base
    return payload
