"""Hypothesis properties of the window-set canonical form, the set literal
syntax and the command-line front door."""

import contextlib
import io
import json
import re

import pytest

pytest.importorskip("hypothesis")
from hypothesis import given, settings, strategies as st

from ddmlab import symbolic
from ddmlab.cli import main
from ddmlab.specfile import parse_set
from ddmlab.symbolic import Window, WindowSet

SETTINGS = settings(max_examples=300, deadline=None, derandomize=True, database=None)


def reference_canonical_key(n, window, bits, full):
    """The canonical key as first written: the hi-digit test walks the
    n-runs of ranks one by one."""
    if window is None:
        return ("full",) if full else ("empty",)
    total = n ** window.span
    if bits == 0:
        return ("empty",)
    if bits == (1 << total) - 1:
        return ("full",)
    lo, hi = window.lo, window.hi
    changed = True
    while changed and hi > lo:
        changed = False
        sub = n ** (hi - lo)
        mask = (1 << sub) - 1
        first = bits & mask
        if all(((bits >> (a * sub)) & mask) == first for a in range(1, n)):
            bits = first
            lo += 1
            changed = True
            continue
        runs = n ** (hi - lo)
        run_mask = (1 << n) - 1
        compressed = 0
        ok = True
        for r in range(runs):
            run = (bits >> (r * n)) & run_mask
            if run == run_mask:
                compressed |= 1 << r
            elif run != 0:
                ok = False
                break
        if ok:
            bits = compressed
            hi -= 1
            changed = True
    return (lo, hi, bits)


MAX_SPAN = {1: 6, 2: 6, 3: 4}


@st.composite
def raw_sets(draw):
    """(n, window, bits): a bitset on an inner window, single words as often
    as general sets, refined to a window up to two coordinates wider on
    each side, so that redundant end coordinates are common."""
    n = draw(st.sampled_from([1, 2, 3]))
    span = draw(st.integers(1, MAX_SPAN[n] - 2))
    cells = n ** span
    bits = draw(st.one_of(
        st.integers(0, (1 << cells) - 1),
        st.integers(0, cells - 1).map(lambda r: 1 << r),
    ))
    left, right = draw(st.integers(0, 2)), draw(st.integers(0, 2))
    lo = draw(st.integers(-4, 4))
    wide = 0
    for rank in range(n ** (left + span + right)):
        if bits >> (rank // n ** right % cells) & 1:
            wide |= 1 << rank
    return n, Window(lo - left, lo + span - 1 + right), wide


@SETTINGS
@given(raw_sets())
def test_canonical_key_matches_the_run_by_run_reference(raw):
    n, window, bits = raw
    assert symbolic._canonical_key(n, window, bits, False) == reference_canonical_key(
        n, window, bits, False
    )


@settings(max_examples=40, deadline=None, derandomize=True, database=None)
@given(st.sampled_from([2, 3]), st.integers(1, 3), st.integers(0, 2 ** 27 - 1),
       st.integers(0, 4), st.booleans())
def test_wide_sets_trim_block_by_block(n, span, seed, extra, flip):
    # a set refined by free right digits to more than 8 * 1024 runs has the
    # canonical key of the set it was refined from; one more rank makes the
    # last digit matter
    cells = n ** span
    inner = seed % (1 << cells) or 1
    right = (15 if n == 2 else 10) - span + extra
    rep = n ** right
    wide = int("".join(c * rep for c in format(inner, f"0{cells}b")), 2)
    window = Window(-1, span - 2 + right)
    if flip:
        wide ^= 1
        assert symbolic._without_last_digit(n, wide, cells * rep) is None
    else:
        expected = reference_canonical_key(n, Window(-1, span - 2), inner, False)
        assert symbolic._canonical_key(n, window, wide, False) == expected


def reference_bits_on(s, window):
    """The set's bitset on a containing window, rank by rank: a rank is a
    member when its word's restriction to the canonical window is."""
    key, n = s.canonical_key(), s.n
    if key in (("full",), ("empty",)):
        return (1 << n ** window.span) - 1 if key == ("full",) else 0
    lo, hi, bits = key
    right, cells = n ** (window.hi - hi), n ** (hi - lo + 1)
    return sum(1 << rank for rank in range(n ** window.span) if bits >> (rank // right % cells) & 1)


@SETTINGS
@given(st.sampled_from([2, 3]), st.integers(1, 7), st.data(), st.integers(-2, 2),
       st.integers(0, 2), st.integers(0, 3), st.sampled_from([None, "full", "empty"]))
def test_bits_on_widens_as_the_rank_by_rank_reference(n, span, data, lo, left, right, degenerate):
    # sparse, dense and general sets of up to 128 cells, widened on both sides
    span = min(span, 4) if n == 3 else span
    cells = n ** span
    bits = data.draw(st.one_of(
        st.integers(1, (1 << cells) - 1),
        st.integers(0, cells - 1).map(lambda r: 1 << r),
        st.sets(st.integers(0, cells - 1), min_size=1, max_size=6).map(
            lambda ranks: sum(1 << r for r in ranks)),
        st.integers(0, cells - 1).map(lambda r: (1 << cells) - 1 - (1 << r)),
    ), label="bits")
    if degenerate:
        s = WindowSet.full_space(n) if degenerate == "full" else WindowSet.empty(n)
    else:
        s = WindowSet(n, Window(lo, lo + span - 1), bits)
    window = Window(lo - left, lo + span - 1 + right)
    assert s.bits_on(window) == reference_bits_on(s, window)


@SETTINGS
@given(raw_sets(), st.sampled_from([None, "full", "empty"]))
def test_literal_round_trip(raw, degenerate):
    n, window, bits = raw
    if degenerate == "full":
        s = WindowSet.full_space(n)
    elif degenerate == "empty":
        s = WindowSet.empty(n)
    else:
        s = WindowSet(n, window, bits)
    assert parse_set(s.literal(), n) == s


# -- the command line on fuzzed specs -----------------------------------------


SPEC = {
    "alphabet": 2,
    "measures": {
        "point": {"kind": "dirac", "period": [0, 1]},
        "chain": {"kind": "markov", "pi": ["1/3", "2/3"],
                  "A": [["1/2", "1/2"], ["1/4", "3/4"]]},
        "coin": {"kind": "bernoulli", "p": ["1/2", "1/2"]},
        "avg1": {"kind": "cesaro", "base": "point", "n": 1},
        "mix": {"kind": "convex", "weights": ["1/2", "1/2"], "parts": ["point", "coin"]},
        "signed": {"kind": "signed_diff", "psi": "coin", "c": "1/2", "phi": "chain"},
    },
    "sets": {"zero": "cyl(0,[0])", "all": "full"},
    "configs": {"c": {"depth": 1, "width": 0, "base_shift": 0}},
    "commands": {
        "eval": {"measure": "chain", "set": "zero"},
        "phi": {"measure": "mix", "set": "zero", "depths": [1, 2], "widths": [0],
                "shifts": [0, -1]},
        "psi": {"objective": "avg1", "phi": "point", "set": "all", "eps": ["1", "1/2"],
                "shifts": [0, -1], "config": "c"},
        "chain": {"phi": "chain", "objectives": ["avg1", "signed"], "eps": "1/2",
                  "set": "zero", "config": "c", "c": ["0", "1/2"]},
        "example": {"name": "e1", "params": {"ns": [1, 2], "truncations": [[1, 0]],
                                             "A": [["1/2", "1/2"], ["1/4", "3/4"]],
                                             "pi0": ["1/2", "1/2"]}},
    },
}

LEAVES = st.one_of(
    st.none(), st.booleans(), st.integers(-3, 4),
    st.sampled_from(["", "x", "1/2", "-1/3", "1/0", "full", "empty", "cyl(0,[1])",
                     "cyl(-1,[0,1])", "union(cyl(0,[0]), cyl(1,[1]))", "cyl(0,[2])",
                     "point", "chain", "coin", "mix", "markov", "dirac", "convex", "c", "e2"]),
)
JSON = st.recursive(
    LEAVES,
    lambda inner: st.one_of(st.lists(inner, max_size=3),
                            st.dictionaries(st.sampled_from(["kind", "n", "p", "depth", "x"]),
                                            inner, max_size=3)),
    max_leaves=6,
)


def paths(node, prefix=()):
    """Every path into a JSON tree, the root's included."""
    out = [prefix]
    if isinstance(node, dict):
        for key, value in node.items():
            out += paths(value, prefix + (key,))
    elif isinstance(node, list):
        for k, value in enumerate(node):
            out += paths(value, prefix + (k,))
    return out


def mutated(spec, path, value):
    """A copy of the spec with the node at ``path`` replaced, or deleted
    when ``value`` is the deletion marker."""
    if not path:
        return None if value is DELETE else value
    spec = json.loads(json.dumps(spec))
    node = spec
    for key in path[:-1]:
        node = node[key]
    if value is DELETE and isinstance(node, dict):
        del node[path[-1]]
    else:
        node[path[-1]] = None if value is DELETE else value
    return spec


DELETE = object()
ALL_PATHS = paths(SPEC)


@settings(max_examples=250, deadline=None, derandomize=True, database=None)
@given(st.sampled_from(sorted(SPEC["commands"])),
       st.lists(st.tuples(st.sampled_from(ALL_PATHS), st.one_of(st.just(DELETE), JSON)),
                min_size=1, max_size=3))
def test_cli_answers_a_fuzzed_spec_with_one_json_line(tmp_path_factory, command, edits):
    spec = SPEC
    for path, value in edits:
        try:
            spec = mutated(spec, path, value)
        except (KeyError, IndexError, TypeError):
            pass  # an earlier edit removed or replaced this path
    path = tmp_path_factory.mktemp("spec") / "spec.json"
    path.write_text(json.dumps(spec))
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main([command, "--spec", str(path), "--witness"])
    lines = out.getvalue().splitlines()
    assert code in (0, 1, 2, 3, 4)
    assert len(lines) == 1
    payload = json.loads(lines[0])
    # a malformed spec is the input's defect: exit 4 would blame the program
    assert code != 4, (lines[0], err.getvalue())
    # and its message names the defect, never a bare key such as 'A'
    if code == 2:
        assert not re.fullmatch(r"'[^']*'", payload["error"]), payload["error"]
