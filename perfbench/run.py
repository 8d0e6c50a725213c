#!/usr/bin/env python3
"""ddmlab benchmark: certified-solve throughput, reach and per-layer counters.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a source checkout; the library is imported from its
``src/`` directory.  A single-threaded closed loop: the next operation is
issued only after the previous one returned.

``--trace 0`` repeats the workload's seeded list of operations in passes for
``--seconds``, takes every operation's median time over the passes, scales
the times by a calibration loop timed alongside, then runs the depth probe,
and prints every end-to-end metric.  Set-up time is sampled in
fresh interpreters (``--setup-only``) between the passes.  ``--trace 1``
runs a fixed prefix of the same operations twice, untraced and then with
layer wrappers installed, and prints every per-layer metric.  Both re-check
every result outside the timed region and exit 1 when a check fails.  The
last line of stdout is one JSON object; the run record (and, when traced,
the spans) go to ``perfbench/out/``.
"""

from __future__ import annotations

import argparse
import gc
import hashlib
import importlib
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from fractions import Fraction
from pathlib import Path
from types import SimpleNamespace

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "out"
REFERENCE = HERE / "reference.json"

sys.path.insert(0, str(HERE))

import workloads  # noqa: E402  (the benchmark's own module, beside this file)
from tracer import Tracer  # noqa: E402

# cold set-ups per run, in fresh interpreters spread evenly over the run
SETUP_SAMPLES = 9
# a timed run repeats the workload's whole operation list at least this
# many times, and then as often as fits in --seconds
MIN_PASSES = 3
# prefix of each workload's operations that the traced run executes and
# that the digest covers
PREFIX_OPS = {"phi-sweep": 270, "psi-fronts": 160, "algebra-split": 148, "deep-ladder": 12}
# deep-ladder's traced run also walks the probe ladder up to this depth
TRACE_LADDER_DEPTH = 9
# reference-depth solves of the depth probe per measure in each pass
REFERENCE_PER_PASS = 2
# a calibration loop runs after every this many operations of a pass
CALIBRATE_EVERY = 8
# median calibration loop on the baseline machine (a 2-core x86-64 VM,
# Python 3.11.7): times are reported as they would be at that speed
CALIBRATION_REF_S = 0.0009
# op_ms.tail percentile of each workload, fixed so that its runs report
# the same percentile, and low enough to leave at least TAIL_BEYOND of the
# workload's operations beyond it.
TAIL_PERCENTILE = {"phi-sweep": 95, "psi-fronts": 80, "algebra-split": 95, "deep-ladder": 80}
TAIL_BEYOND = 10
LIBRARY_MODULES = ("symbolic", "measures", "engine", "covers", "budgeted",
                   "verify", "suites", "errors")


class SetupError(Exception):
    """The library cannot be imported from this checkout."""


def load_lab() -> SimpleNamespace:
    """Import ddmlab from the checkout's ``src``."""
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))
    try:
        return SimpleNamespace(**{
            name: importlib.import_module(f"ddmlab.{name}") for name in LIBRARY_MODULES
        })
    except ImportError as exc:
        raise SetupError(f"cannot import ddmlab from {SRC}: {exc}") from exc


def setup(workload, seed):
    """Import the library and generate the seeded inputs."""
    lab = load_lab()
    ops = workloads.WORKLOADS[workload](lab, seed)
    probe = workloads.DepthProbe(lab, seed)
    return lab, ops, probe


def cold_setup_s(workload, seed):
    """Wall time from starting a fresh interpreter on this script to its
    inputs being ready, which is when a run issues its first timed call."""
    start = time.perf_counter()
    child = subprocess.Popen(
        [sys.executable, __file__, "--workload", workload, "--seed", str(seed),
         "--seconds", "0", "--setup-only"], stdout=subprocess.PIPE)
    ready = child.stdout.readline()
    took = time.perf_counter() - start
    child.stdout.read()
    child.stdout.close()
    if child.wait() != 0 or ready != b"ready\n":
        raise SetupError(f"set-up in a fresh interpreter failed (exit {child.returncode})")
    return took


# -- run record ---------------------------------------------------------------


def git_sha():
    """HEAD of the checkout when it is a git work tree, else None."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        path = git / ref
        if path.exists():
            return path.read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        return None
    return None


def environment(seed):
    return {
        "python": platform.python_version(),
        "nproc": os.cpu_count(),
        "git_sha": git_sha(),
        "loadavg_start": list(os.getloadavg()),
        "seed": seed,
    }


def reference_digest(workload, seed):
    ref = json.loads(REFERENCE.read_text())
    if seed != ref["reference_seed"]:
        return None
    return ref["digests"].get(workload)


# -- correctness gate -----------------------------------------------------------


class Gate:
    """Re-checks results outside the timed region and builds the digest."""

    def __init__(self, ops):
        self.ops = ops
        self.texts: dict[int, str] = {}
        self.failures: list[str] = []

    def fail(self, index, reason):
        self.failures.append(f"op {index} ({self.ops[index].label}): {reason}")

    def record(self, index, result, error):
        op = self.ops[index]
        if error is not None:
            self.fail(index, f"unexpected {error}")
            return
        text = op.render(result)
        if index in self.texts:
            if self.texts[index] != text:
                self.fail(index, "repeat gave a different result")
            return
        reason = op.check(result)
        if reason:
            self.fail(index, reason)
        self.texts[index] = text

    def digest(self, count):
        lines = [f"{k}:{self.ops[k].label}:{self.texts.get(k)}" for k in range(count)]
        return hashlib.sha256("\n".join(lines).encode()).hexdigest()


def calibrate():
    """Wall time of a fixed loop of the kinds of work the library does
    (rational arithmetic, tuple keys, dict look-ups, bit counts); it runs
    no library code, so only the machine changes it."""
    start = time.perf_counter()
    table = {}
    total = Fraction(0)
    for i in range(150):
        key = (i & 31, i >> 5)
        table[key] = table.get(key, 0) + bin(i * 2654435761).count("1")
        total += Fraction(i % 7 + 1, i % 11 + 1)
    return time.perf_counter() - start


def run_op(op):
    try:
        return op.run(), None
    except Exception as exc:  # a failed operation is counted, not fatal
        return None, repr(exc)


def percentile(sorted_values, pct):
    """Nearest-rank percentile of an ascending list."""
    rank = max(1, -(-len(sorted_values) * pct // 100))
    return sorted_values[int(rank) - 1]


def beyond(count, pct):
    """Number of samples above the nearest-rank percentile ``pct``."""
    return count - int(-(-count * pct // 100))


# -- the two kinds of run -------------------------------------------------------


def timed_run(workload, seed, seconds):
    lab, ops, probe = setup(workload, seed)
    prefix = PREFIX_OPS[workload]

    gate = Gate(ops)
    samples = [[] for _ in ops]
    calibration = []
    families = tuple(probe.measures)
    reference = {family: [] for family in families}
    # reference solves are spread over each pass, between its operations,
    # so that they meet the machine as the operations do
    reference_at = {len(ops) * k // REFERENCE_PER_PASS for k in range(REFERENCE_PER_PASS)}
    certs = []
    setup_times = []
    passes = 0
    pass_s = 0.0
    start = time.perf_counter()
    deadline = start + seconds
    # collections run between passes, outside the timed calls
    gc.disable()
    try:
        while passes < MIN_PASSES or time.perf_counter() + pass_s <= deadline:
            # set-ups sit between passes; their time is not operation time
            while (len(setup_times) < SETUP_SAMPLES and time.perf_counter()
                   >= start + seconds * len(setup_times) / SETUP_SAMPLES):
                setup_times.append(cold_setup_s(workload, seed))
            pass_start = time.perf_counter()
            results = []
            for index, op in enumerate(ops):
                t0 = time.perf_counter()
                result, error = run_op(op)
                samples[index].append(time.perf_counter() - t0)
                results.append((result, error))
                if index % CALIBRATE_EVERY == 0:
                    calibration.append(calibrate())
                if index in reference_at:
                    for family in families:
                        took, cert = probe.reference_solve(family)
                        reference[family].append(took)
                        certs.append(cert)
            pass_s = time.perf_counter() - pass_start
            for index, (result, error) in enumerate(results):
                gate.record(index, result, error)
            del results
            passes += 1
            gc.collect()
    finally:
        gc.enable()
    while len(setup_times) < SETUP_SAMPLES:
        setup_times.append(cold_setup_s(workload, seed))
    elapsed = time.perf_counter() - start

    digest = gate.digest(prefix)
    expected = reference_digest(workload, seed)
    if expected is not None and digest != expected:
        gate.failures.append(f"digest {digest} differs from the reference {expected}")

    # each operation at its median over the passes, and the probe at the
    # median of its reference solves
    typical = sorted(statistics.median(v) for v in samples)
    fixed_s = sum(statistics.median(v) for v in reference.values())
    # the share of time a shared machine runs slow drifts from run to run;
    # the calibration loop, timed between the operations, drifts with it, and
    # the times are reported at the calibration's reference speed
    scale = CALIBRATION_REF_S / statistics.median(calibration)
    reach = {}
    budget_s = probe.BUDGET_S / scale
    for family in probe.measures:
        reached, stop, rungs, finished = probe.reach(family, budget_s)
        reach[family] = {"depth": reached, "reach_stop": list(stop),
                         "rung_s": [[d, round(t, 6)] for d, t in rungs]}
        certs.extend(finished)
    seen = {}
    for family, depth, cert in certs:
        text = workloads.render_cert(cert)
        if (family, depth) in seen:
            reason = None if seen[family, depth] == text else "repeat gave a different result"
        else:
            seen[family, depth] = text
            reason = workloads.check_cert(lab, probe.q, cert, [probe.measures[family]])
        if reason:
            gate.failures.append(f"probe {family} D={depth}: {reason}")

    tail_pct = TAIL_PERCENTILE[workload]
    tail_beyond = beyond(len(typical), tail_pct)
    if tail_beyond < TAIL_BEYOND:
        gate.failures.append(f"op_ms.tail: only {tail_beyond} of {len(typical)} operations "
                             f"beyond p{tail_pct}, fewer than {TAIL_BEYOND}")
    count = passes * len(ops)
    attempted = count + len(certs)
    failed = len(gate.failures)
    metrics = {
        "setup_s": (statistics.median(setup_times), "s"),
        "ops_per_s": (len(typical) / sum(typical) / scale, "1/s"),
        "op_ms.p50": (percentile(typical, 50) * scale * 1e3, "ms"),
        "op_ms.tail": (percentile(typical, tail_pct) * scale * 1e3, "ms"),
        "fixed_depth_s": (fixed_s * scale, "s"),
        "reach_depth.markov_form": (reach["markov_form"]["depth"], "D"),
        "reach_depth.fallback": (reach["fallback"]["depth"], "D"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB"),
    }
    details = {
        "ops": count,
        "op_set": len(ops),
        "passes": passes,
        "calibration": {"median_s": statistics.median(calibration),
                        "samples": len(calibration), "scale": scale},
        "unscaled": {"ops_per_s": len(typical) / sum(typical),
                     "op_ms.p50": percentile(typical, 50) * 1e3,
                     "op_ms.tail": percentile(typical, tail_pct) * 1e3,
                     "fixed_depth_s": fixed_s},
        "run_s": elapsed,
        "tail_percentile": tail_pct,
        "tail_beyond": tail_beyond,
        "failed_frac": f"{failed}/{attempted}",
        "setup_samples_s": setup_times,
        "digest": digest,
        "probe": {"ref_depth": probe.REF_DEPTH, "budget_s": budget_s,
                  "reference_s": reference, **reach},
        "failures": gate.failures[:20],
    }
    return metrics, attempted, failed, details


def traced_run(workload, seed, limit=None, ladder_depth=TRACE_LADDER_DEPTH):
    """Fixed operation list, untraced then traced; deterministic counters."""
    count = PREFIX_OPS[workload] if limit is None else limit

    def op_list():
        lab, ops, probe = setup(workload, seed)
        ops = ops[:count]
        if workload == "deep-ladder":
            ops += [probe.op(family, depth) for family in probe.measures
                    for depth in range(2, ladder_depth + 1)]
        return lab, ops

    _, plain_ops = op_list()
    start = time.perf_counter()
    plain = [run_op(op) for op in plain_ops]
    plain_s = time.perf_counter() - start

    lab, ops = op_list()
    tracer = Tracer(lab)
    tracer.install()
    try:
        start = time.perf_counter()
        traced = [tracer.run_op(k, lambda op=op: run_op(op)) for k, op in enumerate(ops)]
        traced_s = time.perf_counter() - start
    finally:
        tracer.uninstall()

    gate = Gate(ops)
    plain_gate = Gate(plain_ops)
    for k, ((result, error), (presult, perror)) in enumerate(zip(traced, plain)):
        gate.record(k, result, error)
        plain_gate.record(k, presult, perror)
    digest = gate.digest(min(count, PREFIX_OPS[workload]))
    if plain_gate.digest(len(ops)) != gate.digest(len(ops)):
        gate.failures.append("traced and untraced results differ")
    expected = reference_digest(workload, seed) if limit is None else None
    if expected is not None and digest != expected:
        gate.failures.append(f"digest {digest} differs from the reference {expected}")

    metrics = tracer.layer_metrics(traced_s - plain_s)
    details = {
        "ops": len(ops),
        "untraced_s": plain_s,
        "traced_s": traced_s,
        "digest": digest,
        "spans": sum(1 for s in tracer.spans if s is not None),
        "op_nodes": [[ops[k].label, n] for k, n in sorted(tracer.op_nodes.items())],
        "failures": gate.failures[:20],
    }
    return metrics, len(ops), len(gate.failures), details, tracer


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-only", action="store_true",
                        help="set up, print 'ready' and exit (times set-up from outside)")
    args = parser.parse_args(argv)

    if args.setup_only:
        try:
            setup(args.workload, args.seed)
        except SetupError as exc:
            print(f"perfbench: {exc}", file=sys.stderr)
            return 2
        print("ready", flush=True)
        return 0

    env = environment(args.seed)
    try:
        if args.trace:
            metrics, attempted, failed, details, tracer = traced_run(args.workload, args.seed)
        else:
            metrics, attempted, failed, details = timed_run(
                args.workload, args.seed, args.seconds)
    except SetupError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 2
    env["loadavg_end"] = list(os.getloadavg())

    OUT.mkdir(exist_ok=True)
    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    if args.trace:
        tracer.write_spans(OUT / f"spans-{stem}.jsonl")
    result = {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }
    record = {"workload": args.workload, "seconds": args.seconds, "trace": args.trace,
              **env, **details, "result": result}
    (OUT / f"run-{stem}.json").write_text(json.dumps(record, indent=1) + "\n")

    for name, (value, unit) in metrics.items():
        print(f"{name:42s} {value:>16.6g} {unit}")
    if not args.trace:
        print(f"{'op_ms.tail percentile':42s} {details['tail_percentile']:>16} "
              f"({details['tail_beyond']} of {details['op_set']} operations beyond)")
    print(f"{'failed_frac':42s} {failed}/{attempted}")
    for failure in details["failures"]:
        print(f"FAILED {failure}")
    print(json.dumps(result))
    return 0 if failed == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
