"""Batch front door: ddmlab <command> --spec FILE [options].

Commands take their payload from the spec file's ``commands`` section, so a
run is reproducible from the file alone; flags only select the command, the
output format, the seed, and display options.  Exit codes: 0 ok, 1 fail
verdict or infeasible budget, 2 input error, 3 resource cap (node, front,
enumeration, chain-length or bitset cap), 4 internal error.  A package error
is reported under the kind its class states (see ``errors``); any other
exception is a fault of the program, reported as internal with its
traceback on stderr.
"""

from __future__ import annotations

import argparse
import json
import sys
import traceback
from fractions import Fraction

from . import engine, examples, measures, suites
from .budgeted import BudgetedProblem, psi_budgeted, psi_chain, psi_eps_grid, psi_signed
from .covers import TruncationConfig
from .errors import LabError, RejectedInputError
from .specfile import (
    ProblemSpec,
    decimal_string,
    expect_array,
    expect_integers,
    expect_object,
    format_rational,
    load_spec,
    parse_matrix,
    parse_rational,
    parse_rationals,
    parse_spec,
    required,
    witness_payload,
)

EXIT_OK = 0
EXIT_FAIL = 1
EXIT_INTERNAL = 4
EXIT_CODES = {"infeasible": EXIT_FAIL, "input": 2, "resource": 3, "internal": EXIT_INTERNAL}


def default_spec() -> ProblemSpec:
    """Built-in problem set: both reference instances."""
    return parse_spec(
        {
            "alphabet": 2,
            "measures": {
                "point": {"kind": "dirac", "period": [0, 1]},
                "chain": {
                    "kind": "markov",
                    "pi": ["1/3", "2/3"],
                    "A": [["1/2", "1/2"], ["1/4", "3/4"]],
                },
                "uniform_chain": {
                    "kind": "markov",
                    "pi": ["1/2", "1/2"],
                    "A": [["1/2", "1/2"], ["1/4", "3/4"]],
                },
                "avg2": {"kind": "cesaro", "base": "point", "n": 2},
            },
            "sets": {"all": "full", "none": "empty", "zero": "cyl(0,[0])"},
            "configs": {"default": {"depth": 1, "width": 0, "base_shift": 0}},
            "commands": {
                "eval": {"measure": "chain", "set": "zero"},
                "phi": {
                    "measure": "point",
                    "set": "all",
                    "depths": [1, 2],
                    "widths": [0],
                    "shifts": [0, -1],
                },
                "psi": {
                    "objective": "avg2",
                    "phi": "point",
                    "set": "all",
                    "eps": ["1", "1/2", "1/4"],
                    "shifts": [0, -1],
                    "config": "default",
                },
                "chain": {
                    "phi": "chain",
                    "objectives": ["avg2"],
                    "eps": "1/2",
                    "set": "zero",
                    "config": "default",
                },
                "example": {"name": "e1"},
                "verify": {"suite": "all"},
            },
        }
    )


def _put_result(row: dict, value: Fraction, args, witness=None):
    """Write ``value``, then its decimal form and the witness when asked for;
    the insertion order is the CSV column order."""
    row["value"] = format_rational(value)
    if args.decimal is not None:
        row["decimal"] = decimal_string(value, args.decimal)
    if args.witness and witness is not None:
        row["witness"] = witness_payload(witness)


def cmd_eval(spec: ProblemSpec, payload: dict, args) -> tuple[dict, int]:
    name, literal = (required(payload, "the eval command", key) for key in ("measure", "set"))
    value = measures.eval0(spec.measure(name), spec.window_set(literal))
    out = {"command": "eval", "measure": name, "set": literal}
    _put_result(out, value, args)
    return out, EXIT_OK


def cmd_phi(spec: ProblemSpec, payload: dict, args) -> tuple[dict, int]:
    mu = spec.measure(required(payload, "the phi command", "measure"))
    q = spec.window_set(required(payload, "the phi command", "set"))
    depths = expect_integers(payload.get("depths", [1]), "depths")
    widths = expect_integers(payload.get("widths", [0]), "widths")
    shifts = expect_integers(payload.get("shifts", [0]), "shifts")
    base_graded = payload.get("base_graded", False)
    if not isinstance(base_graded, bool):
        raise RejectedInputError(f"base_graded must be a JSON boolean, not {base_graded!r}")
    solver = engine.phi_paren_truncated if base_graded else engine.phi_truncated
    rows = []
    for d in depths:
        for w in widths:
            for i in shifts:
                cert = solver(q, mu, TruncationConfig(d, w, i))
                row = {"D": d, "W": w, "i": i}
                _put_result(row, cert.value, args, cert.witness)
                rows.append(row)
    return {"command": "phi", "base_graded": base_graded, "rows": rows}, EXIT_OK


def cmd_psi(spec: ProblemSpec, payload: dict, args) -> tuple[dict, int]:
    psi = spec.measure(required(payload, "the psi command", "objective"))
    q = spec.window_set(required(payload, "the psi command", "set"))
    cfg = spec.config(payload.get("config", {"depth": 1}))
    if "constraints" in payload:
        # explicit strict bounds instead of the slack-by-shift grid
        constraints = []
        for c in expect_array(payload["constraints"], "constraints"):
            c = expect_object(c, "a psi constraint")
            constraints.append((
                spec.measure(required(c, "a psi constraint", "measure")),
                parse_rational(required(c, "a psi constraint", "bound"), "bound"),
            ))
        cert = psi_budgeted(BudgetedProblem(q, psi, tuple(constraints), cfg))
        out = {"command": "psi"}
        _put_result(out, cert.value, args, cert.witness)
        return out, EXIT_OK
    phi = spec.measure(required(payload, "the psi command", "phi", alternative="constraints"))
    eps_list = parse_rationals(required(payload, "the psi command", "eps"), "eps")
    shifts = expect_integers(payload.get("shifts", [0]), "shifts")
    grid = psi_eps_grid(q, psi, phi, eps_list, shifts, cfg)
    rows = []
    for eps in grid.eps_list:
        for i in grid.i_list:
            cert = grid.cells[(eps, i)]
            row = {"eps": format_rational(eps), "i": i}
            if cert is None:
                row["value"] = "infeasible"
            else:
                _put_result(row, cert.value, args, cert.witness)
            rows.append(row)
    out = {
        "command": "psi",
        "phi_surrogate": format_rational(grid.phi_surrogate),
        "monotone_in_slack": grid.nondecreasing_as_eps_shrinks,
        "monotone_in_shift": grid.nondecreasing_as_i_decreases,
        "rows": rows,
    }
    return out, EXIT_OK


def cmd_chain(spec: ProblemSpec, payload: dict, args) -> tuple[dict, int]:
    phi = spec.measure(required(payload, "the chain command", "phi"))
    q = spec.window_set(required(payload, "the chain command", "set"))
    cfg = spec.config(payload.get("config", {"depth": 1}))
    eps = parse_rational(payload.get("eps", "1/2"), "eps")
    names = expect_array(required(payload, "the chain command", "objectives"), "objectives")
    objectives = [spec.measure(name) for name in names]
    scales = payload.get("c")
    if scales is None:
        certs = psi_chain(q, phi, objectives, eps, cfg)
    else:
        certs = psi_signed(q, phi, objectives, parse_rationals(scales, "c"), eps, cfg)
    rows = []
    for level, cert in enumerate(certs, start=1):
        row = {"level": level}
        _put_result(row, cert.value, args, cert.witness)
        rows.append(row)
    return {"command": "chain", "eps": format_rational(eps), "rows": rows}, EXIT_OK


def _report_payload(reports) -> tuple[dict, int]:
    checks = []
    counts = {"PASS": 0, "FAIL": 0, "INCONCLUSIVE": 0}
    for report in reports:
        for check in report.checks:
            counts[check.verdict] += 1
            checks.append({"suite": report.title, **check.as_dict()})
    ok = counts["FAIL"] == 0
    payload = {"checks": checks, "counts": counts, "ok": ok}
    return payload, EXIT_OK if ok else EXIT_FAIL


def cmd_example(spec: ProblemSpec, payload: dict, args) -> tuple[dict, int]:
    name = args.name or payload.get("name", "e1")
    params = expect_object(payload.get("params", {}), "params")
    if name == "e1":
        listed = params.get("truncations", [[1, 0], [2, 1], [3, 2]])
        pairs = [expect_integers(t, "a truncation") for t in expect_array(listed, "truncations")]
        for pair in pairs:
            if len(pair) != 2:
                raise RejectedInputError(f"a truncation must be a [depth, width] pair, not {pair}")
        report = examples.example_one(expect_integers(params.get("ns", [1, 2, 3, 4]), "ns"), pairs)
    elif name == "e2":
        a = parse_matrix(params["A"]) if "A" in params else examples.DEFAULT_CHAIN
        if len(a) != spec.n:
            raise RejectedInputError(f"A has {len(a)} states, not the alphabet's {spec.n}")
        pi0 = parse_rationals(params["pi0"], "pi0") if "pi0" in params else None
        samples = suites.example_sample_sets(args.seed, spec.n)
        report = examples.example_two(a, pi0, sample_sets=samples)
    else:
        raise RejectedInputError(f"unknown example {name!r}; known examples: e1, e2")
    out, code = _report_payload([report])
    out["command"] = "example"
    out["name"] = name
    return out, code


def cmd_verify(spec: ProblemSpec, payload: dict, args) -> tuple[dict, int]:
    name = args.name or payload.get("suite", "all")
    reports = suites.run_suite(name, args.seed)
    out, code = _report_payload(reports)
    out["command"] = "verify"
    out["suite"] = name
    out["seed"] = args.seed
    return out, code


COMMANDS = {
    "eval": cmd_eval,
    "phi": cmd_phi,
    "psi": cmd_psi,
    "chain": cmd_chain,
    "example": cmd_example,
    "verify": cmd_verify,
}


def render_csv(payload: dict) -> str:
    rows = payload.get("rows") or payload.get("checks")
    if rows is None:
        rows = [payload]
    keys: list[str] = []
    for row in rows:
        for key in row:
            if key not in keys and not isinstance(row[key], (dict, list)):
                keys.append(key)
    lines = [",".join(keys)]
    for row in rows:
        lines.append(",".join(str(row.get(key, "")) for key in keys))
    return "\n".join(lines) + "\n"


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="ddmlab",
        description="exact cover-optimum computations on shift spaces",
    )
    parser.add_argument("command", choices=sorted(COMMANDS))
    parser.add_argument("name", nargs="?", default=None,
                        help="suite or example name (verify/example only)")
    parser.add_argument("--spec", default=None, help="problem spec JSON file")
    parser.add_argument("--out", choices=["json", "csv"], default="json")
    parser.add_argument("--witness", action="store_true",
                        help="include optimal covers in the output")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--decimal", type=int, default=None, metavar="K",
                        help="add a K-digit decimal rendering (display only)")
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        if args.decimal is not None and args.decimal < 0:
            raise RejectedInputError(f"--decimal K must be nonnegative, got {args.decimal}")
        spec = load_spec(args.spec) if args.spec else default_spec()
        payload = expect_object(spec.commands.get(args.command, {}), f"the {args.command} command")
        out, code = COMMANDS[args.command](spec, payload, args)
    except LabError as exc:
        print(json.dumps({"error": str(exc), "kind": exc.kind}, sort_keys=True))
        return EXIT_CODES[exc.kind]
    except Exception as exc:
        # a defect of the program, never a verdict: name it, keep the traceback
        traceback.print_exc()
        error = f"{type(exc).__name__}: {exc}"
        print(json.dumps({"error": error, "kind": "internal"}, sort_keys=True))
        return EXIT_INTERNAL
    if args.out == "csv":
        sys.stdout.write(render_csv(out))
    else:
        print(json.dumps(out, sort_keys=True, separators=(",", ":")))
    return code


if __name__ == "__main__":
    raise SystemExit(main())
