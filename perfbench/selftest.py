#!/usr/bin/env python3
"""The benchmark's own test.

    python3 perfbench/selftest.py

Runs a short traced run of every workload twice and checks that every count
repeats exactly and the result digest is identical, that the certificate
re-check ran at least once per solve, that each workload exercises the
layers it is meant to, and that the correctness gate rejects a tampered
certificate.  Exits 1 on the first failed check.
"""

from __future__ import annotations

import dataclasses
import sys

import run
import workloads

# short prefixes: (operations, deepest ladder rung for deep-ladder)
SHORT = {"phi-sweep": (27, None), "psi-fronts": (16, None),
         "algebra-split": (74, None), "deep-ladder": (3, 6)}
SEED = 3


def counts(metrics):
    """The metrics that are pure counts (or ratios of counts)."""
    return {name: value for name, (value, unit) in metrics.items()
            if unit in ("count", "ratio")}


def check(condition, message):
    if not condition:
        raise AssertionError(message)
    print(f"ok  {message}")


def traced(workload):
    limit, depth = SHORT[workload]
    kwargs = {"limit": limit}
    if depth is not None:
        kwargs["ladder_depth"] = depth
    metrics, attempted, failed, details, _ = run.traced_run(workload, SEED, **kwargs)
    check(failed == 0, f"{workload}: {attempted} traced operations pass the gate")
    return metrics, details


def test_workload(workload):
    first, first_details = traced(workload)
    second, second_details = traced(workload)
    check(counts(first) == counts(second), f"{workload}: counters repeat exactly")
    check(first_details["digest"] == second_details["digest"],
          f"{workload}: result digest repeats")
    c = counts(first)
    check(c["covers.cert_check.calls"] >= c["engine.solves"] + c["budgeted.solves"],
          f"{workload}: cert_check.calls >= engine.solves + budgeted.solves")
    check(c["engine.nodes"] > 0 and c["measures.cell_value.calls"] > 0,
          f"{workload}: the scalar tree priced nodes")
    if workload in ("phi-sweep", "deep-ladder"):
        check(c["budgeted.prune.calls"] == 0, f"{workload}: no Pareto pruning")
    if workload == "psi-fronts":
        check(c["budgeted.prune.in_vectors"] >= c["budgeted.prune.kept_vectors"] > 0
              and c["budgeted.front_max"] > 1, f"{workload}: fronts were built and pruned")
    if workload == "algebra-split":
        check(c["verify.handle.evals"] > 0 and c["verify.fail_verdicts"] == 0,
              f"{workload}: handles evaluated, no FAIL verdict")
    else:
        check(c["verify.handle.calls"] == 0, f"{workload}: no set-function handle")
    if workload == "deep-ladder":
        ladder = [n for label, n in first_details["op_nodes"] if label.startswith("ladder")]
        per_family = len(ladder) // 2
        rising = all(a < b for a, b in zip(ladder[:per_family], ladder[1:per_family]))
        check(rising, f"{workload}: engine.nodes grows with D ({ladder[:per_family]})")


def test_gate_rejects_tampering():
    lab, ops, _ = run.setup("phi-sweep", SEED)
    op = ops[0]
    cert = op.run()
    check(op.check(cert) is None, "gate accepts a genuine certificate")
    forged = dataclasses.replace(cert, value=cert.value + 1)
    check(op.check(forged) is not None, "gate rejects a certificate with a wrong value")
    gate = run.Gate(ops)
    gate.record(0, forged, None)
    check(bool(gate.failures), "a rejected certificate counts as a failed operation")


def main():
    try:
        test_gate_rejects_tampering()
        for workload in workloads.WORKLOADS:
            test_workload(workload)
    except AssertionError as exc:
        print(f"FAILED {exc}")
        return 1
    print("selftest passed")
    return 0


if __name__ == "__main__":
    sys.exit(main())
