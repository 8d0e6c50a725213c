import json
import os
import subprocess
import sys
from decimal import Decimal
from fractions import Fraction as F
from pathlib import Path

import pytest

import ddmlab
from ddmlab import cli, engine
from ddmlab.budgeted import BudgetedProblem, psi_budgeted
from ddmlab.cli import main
from ddmlab.covers import Cover, cover_cost, is_valid_cover
from ddmlab.errors import BudgetExceededError
from ddmlab.measures import DiracMeasure, eval0
from ddmlab.specfile import load_spec, parse_set
from ddmlab.symbolic import WindowSet

SPEC = {
    "alphabet": 2,
    "measures": {
        "point": {"kind": "dirac", "period": [0, 1]},
        "chain": {
            "kind": "markov",
            "pi": ["1/3", "2/3"],
            "A": [["1/2", "1/2"], ["1/4", "3/4"]],
        },
        "avg1": {"kind": "cesaro", "base": "point", "n": 1},
    },
    "sets": {"zero": "cyl(0,[0])", "all": "full"},
    "configs": {"c": {"depth": 1, "width": 0, "base_shift": 0}},
    "commands": {
        "eval": {"measure": "chain", "set": "zero"},
        "phi": {"measure": "point", "set": "all", "depths": [1], "widths": [0], "shifts": [0]},
        "psi": {
            "objective": "avg1",
            "phi": "point",
            "set": "all",
            "eps": ["1", "1/2"],
            "shifts": [0, -1],
            "config": "c",
        },
        "chain": {"phi": "chain", "objectives": ["avg1"], "eps": "1/2", "set": "zero",
                  "config": "c"},
        "example": {"name": "e1", "params": {"ns": [1, 2], "truncations": [[1, 0]]}},
        "verify": {"suite": "defect"},
    },
}


@pytest.fixture()
def spec_path(tmp_path):
    path = tmp_path / "spec.json"
    path.write_text(json.dumps(SPEC))
    return str(path)


def run(capsys, *argv):
    code = main(list(argv))
    return code, capsys.readouterr().out


def test_eval(spec_path, capsys):
    code, out = run(capsys, "eval", "--spec", spec_path)
    payload = json.loads(out)
    assert code == 0
    assert payload["value"] == "1/3"


def test_eval_decimal_column(spec_path, capsys):
    code, out = run(capsys, "eval", "--spec", spec_path, "--decimal", "4")
    assert json.loads(out)["decimal"] == "0.3333"


def test_phi_with_witness(spec_path, capsys):
    code, out = run(capsys, "phi", "--spec", spec_path, "--witness")
    payload = json.loads(out)
    assert code == 0
    row = payload["rows"][0]
    assert row["value"] == "0/1"
    entries = row["witness"]["entries"]
    assert {e["m"] for e in entries} == {0, -1}


def test_phi_csv(spec_path, capsys):
    code, out = run(capsys, "phi", "--spec", spec_path, "--out", "csv")
    lines = out.strip().splitlines()
    assert lines[0].split(",") == ["D", "W", "i", "value"]
    assert lines[1].endswith("0/1")


def test_psi_grid(spec_path, capsys):
    code, out = run(capsys, "psi", "--spec", spec_path)
    payload = json.loads(out)
    assert code == 0
    assert payload["monotone_in_slack"] and payload["monotone_in_shift"]
    assert len(payload["rows"]) == 4


def test_chain(spec_path, capsys):
    code, out = run(capsys, "chain", "--spec", spec_path)
    payload = json.loads(out)
    assert code == 0
    assert len(payload["rows"]) == 1


def test_example(spec_path, capsys):
    code, out = run(capsys, "example", "--spec", spec_path)
    payload = json.loads(out)
    assert code == 0 and payload["ok"]


def test_verify_suite_and_exit_code(spec_path, capsys):
    code, out = run(capsys, "verify", "--spec", spec_path, "--seed", "3")
    payload = json.loads(out)
    assert code == 0
    assert payload["counts"]["FAIL"] == 0
    assert payload["seed"] == 3


def test_verify_positional_override(spec_path, capsys):
    code, out = run(capsys, "verify", "defect", "--spec", spec_path)
    assert code == 0
    assert json.loads(out)["suite"] == "defect"


def test_builtin_spec_needs_no_file(capsys):
    code, out = run(capsys, "eval")
    assert code == 0
    assert json.loads(out)["value"] == "1/3"


def test_unknown_name_is_an_input_error(spec_path, capsys, tmp_path):
    bad = dict(SPEC, commands={"eval": {"measure": "nope", "set": "zero"}})
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(bad))
    code, out = run(capsys, "eval", "--spec", str(path))
    assert code == 2
    assert json.loads(out)["kind"] == "input"


def test_negative_decimal_is_an_input_error(capsys):
    code, out = run(capsys, "eval", "--decimal", "-2")
    lines = out.strip().splitlines()
    assert code == 2 and len(lines) == 1
    payload = json.loads(lines[0])
    assert payload["kind"] == "input" and "--decimal" in payload["error"]


@pytest.mark.parametrize("command", ["eval", "phi", "psi", "chain"])
def test_a_stray_name_is_an_input_error(spec_path, capsys, command):
    code, out = run(capsys, command, "bogus", "--spec", spec_path)
    payload = json.loads(out)
    assert (code, payload["kind"]) == (2, "input")
    assert all(word in payload["error"] for word in (command, "'bogus'", "example", "verify"))


def digits_of(text):
    """The integer a digit string stands for, read through Decimal, which
    has no limit on its length."""
    return int(Decimal(text))


def test_a_decimal_past_the_int_string_limit_prints_exactly(capsys):
    # str() of an int refuses more than 4,300 digits; 1/3 to 5,000 places
    # once exited 4 on it
    code, out = run(capsys, "eval", "--decimal", "5000")
    assert code == 0
    assert json.loads(out)["decimal"] == "0." + "3" * 5000


def test_a_value_past_the_int_string_limit_prints_exactly(capsys, tmp_path):
    # the Cesaro average of 8,000 shifts of a non-stationary chain has a
    # numerator and a denominator of thousands of digits each
    spec = dict(SPEC, measures={
        "uniform": {"kind": "markov", "pi": ["1/2", "1/2"], "A": [["1/2", "1/2"], ["1/4", "3/4"]]},
        "avg": {"kind": "cesaro", "base": "uniform", "n": 8000},
    }, commands={"eval": {"measure": "avg", "set": "zero"}})
    path = tmp_path / "cesaro.json"
    path.write_text(json.dumps(spec))
    code, out = run(capsys, "eval", "--spec", str(path), "--decimal", "30")
    assert code == 0
    payload = json.loads(out)
    num, den = payload["value"].split("/")
    assert min(len(num), len(den)) > 4300
    loaded = load_spec(str(path))
    value = eval0(loaded.measure("avg"), loaded.window_set("zero"))
    assert F(digits_of(num), digits_of(den)) == value
    assert payload["decimal"] == "0." + str(value.numerator * 10 ** 30 // value.denominator)


def test_a_spec_integer_past_the_int_string_limit_is_still_an_input_error(capsys, tmp_path):
    spec = dict(SPEC, commands={"chain": dict(SPEC["commands"]["chain"], eps="1/" + "3" * 5000)})
    path = tmp_path / "long.json"
    path.write_text(json.dumps(spec))
    code, out = run(capsys, "chain", "--spec", str(path))
    payload = json.loads(out)
    assert (code, payload["kind"]) == (2, "input")
    assert "eps must be an integer" in payload["error"]


def test_bitset_cap_is_a_resource_error(capsys, tmp_path):
    # width 25 lists the query cells on [0, 25], past the 2**22-cell cap
    phi = {"measure": "chain", "set": "zero", "depths": [1], "widths": [25], "shifts": [0]}
    path = tmp_path / "wide.json"
    path.write_text(json.dumps(dict(SPEC, commands={"phi": phi})))
    code, out = run(capsys, "phi", "--spec", str(path))
    payload = json.loads(out)
    assert code == 3
    assert payload["kind"] == "resource" and "bitset cap" in payload["error"]


def test_deep_point_mass_on_a_wide_window_solves(capsys, tmp_path):
    # the working window [-30, 10] holds 2**41 cells, but the point mass
    # prices every full node off its orbit at 0, so the walk stays shallow
    phi = {"measure": "point", "set": "all", "depths": [30], "widths": [10], "shifts": [0]}
    path = tmp_path / "deep.json"
    path.write_text(json.dumps(dict(SPEC, commands={"phi": phi})))
    code, out = run(capsys, "phi", "--spec", str(path), "--witness")
    assert code == 0
    [row] = json.loads(out)["rows"]
    assert row["value"] == "0/1"
    witness = Cover(
        tuple((e["m"], parse_set(e["set"], 2)) for e in row["witness"]["entries"]),
        base_shift=row["witness"]["base_shift"],
    )
    assert is_valid_cover(WindowSet.full_space(2), witness)
    assert cover_cost(witness, DiracMeasure(2, (0, 1))) == 0


def test_missing_file_is_an_input_error(capsys):
    code, out = run(capsys, "eval", "--spec", "/nonexistent.json")
    assert code == 2


def test_unknown_suite_is_an_input_error(spec_path, capsys):
    code, out = run(capsys, "verify", "no-such-suite", "--spec", spec_path)
    assert code == 2


def test_determinism_same_seed_same_bytes(spec_path, capsys):
    _, first = run(capsys, "verify", "oracle", "--spec", spec_path, "--seed", "7")
    _, second = run(capsys, "verify", "oracle", "--spec", spec_path, "--seed", "7")
    assert first == second


def test_explicit_constraints_payload(tmp_path, capsys):
    spec = dict(SPEC)
    spec["commands"] = {
        "psi": {
            "objective": "avg1",
            "set": "all",
            "config": "c",
            "constraints": [{"measure": "point", "bound": "1/2"}],
        }
    }
    path = tmp_path / "constrained.json"
    path.write_text(json.dumps(spec))
    code, out = run(capsys, "psi", "--spec", str(path))
    assert code == 0
    assert json.loads(out)["value"] == "1/1"


def test_resource_cap_exit_code(tmp_path, capsys):
    spec = dict(SPEC)
    spec["commands"] = {
        "chain": {
            "phi": "chain",
            "objectives": ["avg1", "avg1", "avg1", "avg1"],
            "eps": "1/2",
            "set": "zero",
            "config": "c",
        }
    }
    path = tmp_path / "deep.json"
    path.write_text(json.dumps(spec))
    code, out = run(capsys, "chain", "--spec", str(path))
    assert code == 3
    assert json.loads(out)["kind"] == "resource"


def test_front_cap_is_a_resource_error(tmp_path, capsys, monkeypatch):
    spec = dict(SPEC)
    spec["sets"] = dict(SPEC["sets"], left="cyl(-1,[0])")
    spec["commands"] = {
        "psi": {
            "objective": "chain",
            "set": "left",
            "config": "c",
            "constraints": [{"measure": "point", "bound": "1/2"}],
        }
    }
    path = tmp_path / "front.json"
    path.write_text(json.dumps(spec))
    loaded = load_spec(str(path))
    chain, point = loaded.measure("chain"), loaded.measure("point")
    problem = BudgetedProblem(
        loaded.window_set("left"), chain, ((point, F(1, 2)),), loaded.config("c")
    )
    # the chain and the point mass trade off: two vectors at the root
    root = engine.RootFront(problem.q, [chain, point], problem.cfg)
    assert [tuple(map(F, vec, root.dens)) for vec, _ in root.options] == [
        (F(1, 3), F(1)), (F(5, 6), F(0))
    ]
    assert psi_budgeted(problem).value == F(5, 6)
    monkeypatch.setattr(engine, "FRONT_CAP", 1)
    with pytest.raises(BudgetExceededError, match=r"\(engine\.FRONT_CAP = 1\)"):
        psi_budgeted(problem)
    code, out = run(capsys, "psi", "--spec", str(path))
    assert code == 3
    assert '"kind": "resource"' in out and "engine.FRONT_CAP = 1" in out


def test_forged_price_is_an_internal_error_under_optimize_flag():
    # the certificate re-check is explicit code, so python -O keeps it
    script = (
        "import sys\n"
        "from ddmlab import cli, covers\n"
        "assert False, 'asserts must be off'\n"
        "real = covers.cover_cost\n"
        "covers.cover_cost = lambda c, mu: real(c, mu) + 1\n"
        "sys.exit(cli.main(['phi']))\n"
    )
    src = str(Path(ddmlab.__file__).resolve().parents[1])
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    env = dict(os.environ, PYTHONPATH=path)
    done = subprocess.run(
        [sys.executable, "-O", "-c", script], capture_output=True, text=True, env=env
    )
    assert done.returncode == 4, done.stderr
    payload = json.loads(done.stdout)
    assert payload["kind"] == "internal"
    assert "prices cost component 0" in payload["error"]


def _psi_run(capsys, tmp_path, **changes):
    spec = dict(SPEC)
    spec["configs"] = {"c": dict(SPEC["configs"]["c"], **changes.pop("config", {}))}
    spec["commands"] = {"psi": dict(SPEC["commands"]["psi"], **changes)}
    path = tmp_path / "psi.json"
    path.write_text(json.dumps(spec))
    code, out = run(capsys, "psi", "--spec", str(path))
    return code, json.loads(out)


@pytest.mark.parametrize(
    "changes, named",
    [
        ({"config": {"base_shift": -1}}, "base_shift"),
        ({"config": {"window_lo": -9, "window_hi": 9}}, "window_lo"),
        ({"shifts": []}, "shift list"),
        ({"eps": []}, "slack list"),
    ],
)
def test_psi_grid_input_the_grid_cannot_use_is_an_input_error(
    capsys, tmp_path, changes, named
):
    code, payload = _psi_run(capsys, tmp_path, **changes)
    assert code == 2
    assert payload["kind"] == "input" and named in payload["error"]


@pytest.mark.parametrize(
    "argv, known",
    [(["verify", "foo"], "known suites: all, "), (["example", "e3"], "known examples: e1, e2")],
)
def test_unknown_names_are_named_in_the_error(capsys, argv, known):
    code, out = run(capsys, *argv)
    payload = json.loads(out)
    assert code == 2 and payload["kind"] == "input"
    assert repr(argv[1]) in payload["error"] and known in payload["error"]


@pytest.mark.parametrize(
    "command, payload, named",
    [
        ("eval", {"set": "zero"}, "'measure'"),
        ("psi", {"objective": "avg1", "set": "all", "eps": ["1"]}, "'phi' or 'constraints'"),
    ],
)
def test_missing_command_field_is_named(capsys, tmp_path, command, payload, named):
    path = tmp_path / "missing.json"
    path.write_text(json.dumps(dict(SPEC, commands={command: payload})))
    code, out = run(capsys, command, "--spec", str(path))
    payload = json.loads(out)
    assert code == 2 and payload["kind"] == "input"
    assert f"the {command} command" in payload["error"] and named in payload["error"]


def test_unexpected_exception_is_an_internal_error(capsys, monkeypatch):
    # a KeyError or a ValueError is a fault of the program too: only a
    # package error is the input's
    for error, shown in [
        (RuntimeError("boom"), "RuntimeError: boom"),
        (KeyError("boom"), "KeyError: 'boom'"),
        (ValueError("boom"), "ValueError: boom"),
    ]:
        def broken(spec, payload, args):
            raise error

        monkeypatch.setitem(cli.COMMANDS, "eval", broken)
        code = main(["eval"])
        captured = capsys.readouterr()
        lines = captured.out.strip().splitlines()
        assert code == 4 and len(lines) == 1
        payload = json.loads(lines[0])
        assert payload == {"error": shown, "kind": "internal"}
        assert "Traceback" in captured.err and "boom" in captured.err


def _edited(path, value):
    """The test spec with the node at ``path`` (a tuple of keys) replaced."""
    spec = json.loads(json.dumps(SPEC))
    if not path:
        return value
    node = spec
    for key in path[:-1]:
        node = node.setdefault(key, {})
    node[path[-1]] = value
    return spec


# one malformed spec per place the reader used to assume a JSON type; before
# the reader checked the types, each of them raised a TypeError or an
# AttributeError, which exited 4 as if the program were at fault.  The last
# four once exited 2 without naming the field, or were accepted.
MALFORMED = [
    ("eval", (), [], "the spec must be a JSON object"),
    ("eval", ("alphabet",), None, "alphabet must be an integer"),
    ("eval", ("measures",), [1], "measures must be a JSON object"),
    ("eval", ("sets",), None, "sets must be a JSON object"),
    ("eval", ("configs",), [1], "configs must be a JSON object"),
    ("eval", ("commands",), [1], "commands must be a JSON object"),
    ("eval", ("sets", "zero"), 5, "a set literal must be a string"),
    ("eval", ("measures", "chain", "pi"), None, "pi must be a JSON array"),
    ("eval", ("measures", "chain", "A"), [5, 5], "a row of A must be a JSON array"),
    ("eval", ("measures", "point", "period"), None, "period must be a JSON array"),
    ("eval", ("measures", "point", "exceptions"), [1], "exceptions must be a JSON object"),
    ("eval", ("measures", "coin"), {"kind": "bernoulli", "p": True}, "p must be a JSON array"),
    ("eval", ("measures", "avg1", "n"), None, "n must be an integer"),
    ("eval", ("measures", "mix"), {"kind": "convex", "weights": ["1"], "parts": None},
     "parts must be a JSON array"),
    ("eval", ("measures", "mix"), {"kind": "convex", "weights": None, "parts": ["point"]},
     "weights must be a JSON array"),
    ("eval", ("configs", "c"), [1], "a config must be a JSON object"),
    ("eval", ("configs", "c", "depth"), None, "depth must be an integer"),
    ("chain", ("configs", "c", "window_lo"), [0], "window_lo must be an integer"),
    ("eval", ("commands", "eval"), "measure set", "the eval command must be a JSON object"),
    ("eval", ("commands", "eval", "set"), [1], "a set literal must be a string"),
    ("eval", ("commands", "eval", "measure"), [1], "unknown measure name"),
    ("psi", ("commands", "psi", "config"), [1], "unknown config name"),
    ("phi", ("commands", "phi", "depths"), 5, "depths must be a JSON array"),
    ("phi", ("commands", "phi", "widths"), [None], "widths must be an integer"),
    ("psi", ("commands", "psi", "constraints"), 5, "constraints must be a JSON array"),
    ("psi", ("commands", "psi", "constraints"), ["measure"],
     "a psi constraint must be a JSON object"),
    ("psi", ("commands", "psi", "eps"), 5, "eps must be a JSON array"),
    ("psi", ("commands", "psi", "shifts"), [None], "shifts must be an integer"),
    ("chain", ("commands", "chain", "objectives"), 5, "objectives must be a JSON array"),
    ("chain", ("commands", "chain", "c"), 5, "c must be a JSON array"),
    ("example", ("commands", "example", "params"), 5, "params must be a JSON object"),
    ("example", ("commands", "example", "params", "ns"), 5, "ns must be a JSON array"),
    ("example", ("commands", "example", "params", "truncations"), [5],
     "a truncation must be a JSON array"),
    ("example", ("commands", "example"), {"name": "e2", "params": {"A": 5}},
     "A must be a JSON array"),
    ("example", ("commands", "example"), {"name": "e2", "params": {"pi0": 5}},
     "pi0 must be a JSON array"),
    ("phi", ("commands", "phi", "depths"), ["x"], "depths must be an integer, not 'x'"),
    ("phi", ("commands", "phi", "widths"), ["1.5"], "widths must be an integer, not '1.5'"),
    ("phi", ("commands", "phi", "base_graded"), "no", "base_graded must be a JSON boolean"),
    ("eval", ("measures", "coin"), {"kind": "bernoulli", "p": [True, 0]},
     "p must be a rational, not True"),
    # a missing field of each measure kind is named with its kind, where it
    # once was a bare key such as 'A'
    ("eval", ("measures", "chain"), {"kind": "markov", "A": [["1"]]},
     "a markov measure needs a field 'pi'"),
    ("eval", ("measures", "chain"), {"kind": "markov", "pi": ["1"]},
     "a markov measure needs a field 'A'"),
    ("eval", ("measures", "auto"), {"kind": "stationary_markov"},
     "a stationary_markov measure needs a field 'A'"),
    ("eval", ("measures", "point"), {"kind": "dirac"}, "a dirac measure needs a field 'period'"),
    ("eval", ("measures", "coin"), {"kind": "bernoulli"}, "a bernoulli measure needs a field 'p'"),
    ("eval", ("measures", "avg1"), {"kind": "cesaro", "n": 1},
     "a cesaro measure needs a field 'base'"),
    ("eval", ("measures", "avg1"), {"kind": "cesaro", "base": "point"},
     "a cesaro measure needs a field 'n'"),
    ("eval", ("measures", "mix"), {"kind": "convex", "weights": ["1"]},
     "a convex measure needs a field 'parts'"),
    ("eval", ("measures", "mix"), {"kind": "convex", "parts": ["point"]},
     "a convex measure needs a field 'weights'"),
    ("eval", ("measures", "gap"), {"kind": "signed_diff", "c": "1", "phi": "point"},
     "a signed_diff measure needs a field 'psi'"),
    ("eval", ("measures", "gap"), {"kind": "signed_diff", "psi": "point", "phi": "point"},
     "a signed_diff measure needs a field 'c'"),
    ("eval", ("measures", "gap"), {"kind": "signed_diff", "psi": "point", "c": "1"},
     "a signed_diff measure needs a field 'phi'"),
    ("eval", ("measures", "gap"), {"psi": "point"}, "a measure record needs a field 'kind'"),
    ("eval", ("measures", "avg1", "base"), "nope",
     "unresolvable measure reference 'nope' in measure 'avg1': no measure has that name"),
    ("eval", ("measures", "point"), {"kind": "cesaro", "base": "avg1", "n": 1},
     "unresolvable measure reference 'point' in measure 'avg1': it closes a cycle"),
    ("example", ("commands", "example", "params", "truncations"), [[1]],
     "a truncation must be a [depth, width] pair, not [1]"),
    ("example", ("commands", "example", "params", "truncations"), [[1, 0], [1, 0, 2]],
     "a truncation must be a [depth, width] pair, not [1, 0, 2]"),
    # e2's start vector is checked before any ratio is taken: these once
    # exited 4 with an IndexError or a ZeroDivisionError
    ("example", ("commands", "example"), {"name": "e2", "params": {"pi0": []}},
     "matrix and initial vector sizes disagree"),
    ("example", ("commands", "example"), {"name": "e2", "params": {"pi0": ["1"]}},
     "matrix and initial vector sizes disagree"),
    ("example", ("commands", "example"), {"name": "e2", "params": {"pi0": ["0", "1"]}},
     "pi0 must be positive; state 0 has 0"),
    ("example", ("commands", "example"), {"name": "e2", "params": {"A": [["1"]]}},
     "A has 1 states, not the alphabet's 2"),
    # bytes stand for the file itself, which is not JSON
    ("eval", (), b"{not json", "cannot read the spec file {path!r}"),
    # a literal nested past the recursion limit once exited 4 with RecursionError
    pytest.param("eval", ("commands", "eval", "set"), "union(" * 1000 + "cyl(0,[0])" + ")" * 1000,
                 "a set literal nests its parentheses too deeply", id="eval-nested-literal"),
]


@pytest.mark.parametrize("command, path, value, phrase", MALFORMED)
def test_malformed_spec_is_an_input_error(capsys, tmp_path, command, path, value, phrase):
    spec = _edited(path, value)
    spec_file = tmp_path / "spec.json"
    if isinstance(spec, bytes):
        spec_file.write_bytes(spec)
    else:
        spec_file.write_text(json.dumps(spec))
    code, out = run(capsys, command, "--spec", str(spec_file))
    payload = json.loads(out)
    assert (code, payload["kind"]) == (2, "input")
    assert phrase.format(path=str(spec_file)) in payload["error"]
