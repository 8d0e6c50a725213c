"""Problem-spec file: one self-describing JSON document per batch.

Rationals are decimal-free "p/q" strings (or plain integers).  Measures are
tagged records that may reference other named measures, in any order.
Window sets use the textual literal syntax ``full``, ``empty``,
``cyl(j,[a,b,...])`` and ``union(...)``.

Every defect of the input is raised as a ``RejectedInputError`` where it is
read, and names what is wrong: a missing field and its owner, a reference
that is undefined or cyclic, the position of a bad literal token, or the
file that cannot be read.
"""

from __future__ import annotations

import json
import re
from dataclasses import dataclass, field
from fractions import Fraction

from . import measures, symbolic
from .covers import TruncationConfig
from .errors import RejectedInputError


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
    num, den = (expect_integer(g or 1, what) for g in m.groups())
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


_TOKEN = re.compile(r"\s*(-?\d+|[a-z_]+|\S)")


def parse_set(text: str, n: int) -> symbolic.WindowSet:
    """A set literal, read by recursive descent over its tokens."""
    if not isinstance(text, str):
        raise RejectedInputError(f"a set literal must be a string, not {text!r}")
    # (position, token) pairs, last token first, ending in "" at the end
    tokens = [(len(text), "")] + [(m.start(1), m.group(1)) for m in _TOKEN.finditer(text)][::-1]

    def take(*wanted, what=""):
        """The next token, one of ``wanted`` (an integer when none is given)."""
        pos, token = tokens[-1]
        if not (token in wanted if wanted else re.fullmatch(r"-?\d+", token)):
            raise RejectedInputError(f"expected {what or repr(wanted[0])} at {pos} in {text!r}")
        tokens.pop()
        return token

    def integer():
        # not int(): a digit string too long for int() is the input's defect
        return expect_integer(take(what="an integer"), "a set literal's integer")

    def expression():
        word = take("full", "empty", "cyl", "union", what="full, empty, cyl or union")
        if word == "full":
            return symbolic.WindowSet.full_space(n)
        if word == "empty":
            return symbolic.WindowSet.empty(n)
        take("(")
        if word == "union":
            # the parts are read here, not by a helper: one frame per level
            parts = [expression()]
            while take(",", ")", what="')'") == ",":
                parts.append(expression())
            return symbolic.union_all(n, parts)
        start = integer()
        take(",")
        take("[")
        cells = [integer()]
        while take(",", "]", what="']'") == ",":
            cells.append(integer())
        take(")")
        return symbolic.WindowSet.cylinder(n, start, cells)

    try:
        result = expression()
    except RecursionError:
        raise RejectedInputError("a set literal nests its parentheses too deeply") from None
    take("", what="the end of the literal")
    return result


# -- measures ------------------------------------------------------------


def required(record: dict, owner: str, name: str, alternative: str = ""):
    """A required field of ``record``, named with its owner when missing."""
    if name not in record:
        also = f" or {alternative!r}" if alternative else ""
        raise RejectedInputError(f"{owner} needs a field {name!r}{also}")
    return record[name]


def parse_measure(record, resolve, n: int) -> measures.CylinderMeasure:
    """A measure record, or a measure name that ``resolve`` looks up."""
    if isinstance(record, str):
        return resolve(record)
    kind = required(expect_object(record, "a measure record"), "a measure record", "kind")

    def get(name):
        return required(record, f"a {kind} measure", name)

    if kind == "markov":
        return measures.MarkovMeasure(parse_rationals(get("pi"), "pi"), parse_matrix(get("A")))
    if kind == "stationary_markov":
        return measures.stationary_markov(parse_matrix(get("A")))
    if kind == "dirac":
        exceptions = tuple(
            (expect_integer(j, "an exception coordinate"), expect_integer(s, "a symbol"))
            for j, s in expect_object(record.get("exceptions", {}), "exceptions").items()
        )
        period = tuple(expect_integers(get("period"), "period"))
        return measures.DiracMeasure(n, period, exceptions)
    if kind == "bernoulli":
        return measures.BernoulliMeasure(parse_rationals(get("p"), "p"))
    if kind == "cesaro":
        base = parse_measure(get("base"), resolve, n)
        return measures.cesaro(base, expect_integer(get("n"), "n"))
    if kind == "convex":
        parts = tuple(parse_measure(p, resolve, n) for p in expect_array(get("parts"), "parts"))
        return measures.ConvexMeasure(parse_rationals(get("weights"), "weights"), parts)
    if kind == "signed_diff":
        return measures.SignedDiffMeasure(
            parse_measure(get("psi"), resolve, n),
            parse_rational(get("c"), "c"),
            parse_measure(get("phi"), resolve, n),
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
    try:
        with open(path, "r", encoding="utf-8") as fh:
            raw = json.load(fh)
    except (OSError, RecursionError, ValueError) as exc:
        raise RejectedInputError(f"cannot read the spec file {path!r}: {exc}") from exc
    return parse_spec(raw)


def parse_spec(raw: dict) -> ProblemSpec:
    expect_object(raw, "the spec")
    n = expect_integer(raw.get("alphabet", 2), "alphabet")
    if n < 1:
        raise RejectedInputError("alphabet needs at least one symbol")
    section = {key: expect_object(raw.get(key, {}), key)
               for key in ("measures", "sets", "configs", "commands")}
    records, named = section["measures"], {}
    reading: list = []  # the named measures being read, innermost last

    def resolve(name: str) -> measures.CylinderMeasure:
        # named measures may reference each other in any order: each is read
        # when first used, so its defect is raised where it is read
        if name in named:
            return named[name]
        if name not in records or name in reading:
            why = "it closes a cycle" if name in reading else "no measure has that name"
            raise RejectedInputError(
                f"unresolvable measure reference {name!r} in measure {reading[-1]!r}: {why}")
        reading.append(name)
        named[name] = parse_measure(records[name], resolve, n)
        reading.pop()
        return named[name]

    for name in records:
        try:
            resolve(name)
        except RecursionError:
            raise RejectedInputError(f"measure {name!r} nests its references too deeply") from None
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
