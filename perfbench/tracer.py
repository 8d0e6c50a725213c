"""Layer tracing for the traced benchmark run.

Wrappers are installed around the library's public functions from here, so
the library's source is untouched.  Every wrapped call pushes a frame on one
stack, which gives exact self time (span minus the time its child frames
cover).  Calls at layer boundaries (solves, fronts, certificate checks,
verifiers) are also kept as spans in memory and written out at the end;
the hot inner calls (window-set algebra, pricing, handle lookups) are only
aggregated, because keeping one record per call would cost more memory and
time than the work being measured.
"""

from __future__ import annotations

import functools
import json
import sys
import time
from collections import Counter, defaultdict

SOLVES = ("engine.solve", "budgeted.solve")

# names kept as individual spans; every other wrapped name is aggregated
SPAN_NAMES = {
    "op",
    "engine.solve",
    "engine.build_frame",
    "budgeted.solve",
    "budgeted.prune",
    "budgeted.psi_eps_grid",
    "budgeted.psi_chain",
    "budgeted.psi_signed",
    "covers.cert_check",
    "verify.algebra_build",
    "verify.splitting_closure",
    "verify.caratheodory_measurable",
}


class Frame:
    __slots__ = ("name", "start", "child", "span", "data")

    def __init__(self, name, start, span, data):
        self.name = name
        self.start = start
        self.child = 0.0
        self.span = span
        self.data = data


class Tracer:
    """Stack of open frames, per-name aggregates and the recorded spans."""

    def __init__(self, lab):
        self.lab = lab
        self.stack: list[Frame] = []
        self.spans: list[tuple] = []
        self.calls: Counter = Counter()
        self.self_s: defaultdict = defaultdict(float)
        self.total_s: defaultdict = defaultdict(float)
        self.counts: Counter = Counter()
        self.node_max = 0
        self.op_nodes: dict = {}
        self.op_id = None
        self.solve_depth = 0
        self._patches: list = []

    # -- frames ------------------------------------------------------------

    def _parent_span(self):
        for frame in reversed(self.stack):
            if frame.span is not None:
                return frame.span
        return None

    def enter(self, name, data=None):
        span = None
        if name in SPAN_NAMES:
            span = len(self.spans)
            self.spans.append(None)  # filled on exit
        frame = Frame(name, time.perf_counter(), span, data)
        if span is not None:
            frame.data = dict(data or (), parent=self._parent_span())
        self.stack.append(frame)
        if name in SOLVES:
            self.solve_depth += 1
        return frame

    def exit(self, frame):
        end = time.perf_counter()
        popped = self.stack.pop()
        if popped is not frame:  # pragma: no cover - guards wrapper misuse
            raise RuntimeError("trace stack out of order")
        duration = end - frame.start
        own = duration - frame.child
        self.self_s[frame.name] += own
        self.total_s[frame.name] += duration
        if self.stack:
            self.stack[-1].child += duration
        if frame.name in SOLVES:
            self.solve_depth -= 1
        if frame.span is not None:
            self.spans[frame.span] = (
                frame.span, frame.name, frame.start, end,
                frame.data["parent"], self.op_id, own,
            )

    def run_op(self, op_id, fn):
        """Run one benchmark operation under a root span."""
        self.op_id = op_id
        frame = self.enter("op")
        try:
            return fn()
        finally:
            self.exit(frame)
            self.op_id = None

    # -- installation -------------------------------------------------------

    def _replace(self, original, wrapper):
        """Point every ddmlab module attribute bound to ``original`` at the
        wrapper, so ``from .x import f`` copies are traced too."""
        hits = 0
        for name, module in list(sys.modules.items()):
            if name != "ddmlab" and not name.startswith("ddmlab."):
                continue
            for attr, value in list(vars(module).items()):
                if value is original:
                    self._patches.append((module, attr, original))
                    setattr(module, attr, wrapper)
                    hits += 1
        if not hits:  # pragma: no cover - the library layout changed
            raise RuntimeError(f"nothing to trace for {original!r}")

    def _replace_method(self, cls, attr, wrapper):
        self._patches.append((cls, attr, cls.__dict__[attr]))
        setattr(cls, attr, wrapper)

    def uninstall(self):
        for owner, attr, original in reversed(self._patches):
            setattr(owner, attr, original)
        self._patches.clear()

    def install(self):
        lab = self.lab
        symbolic, measures, engine = lab.symbolic, lab.measures, lab.engine
        covers, budgeted, verify = lab.covers, lab.budgeted, lab.verify
        tracer = self

        def timed(name, fn, on_enter=None, on_exit=None, on_error=None):
            @functools.wraps(fn)
            def wrapper(*args, **kwargs):
                data = on_enter(args) if on_enter else None
                frame = tracer.enter(name, data)
                try:
                    result = fn(*args, **kwargs)
                except BaseException as exc:
                    tracer.exit(frame)
                    if on_error:
                        on_error(frame, exc)
                    raise
                tracer.exit(frame)
                if on_exit:
                    on_exit(frame, args, result)
                return result

            return wrapper

        def counted_leaf(name, fn):
            """Timed and counted, but no span: the hot inner calls."""

            @functools.wraps(fn)
            def wrapper(*args, **kwargs):
                stack = tracer.stack
                outer = stack[-1].name if stack else None
                frame = Frame(name, time.perf_counter(), None, None)
                stack.append(frame)
                try:
                    return fn(*args, **kwargs)
                finally:
                    stack.pop()
                    duration = time.perf_counter() - frame.start
                    tracer.self_s[name] += duration - frame.child
                    if stack:
                        stack[-1].child += duration
                    if outer != name:  # nested calls of one kind count once
                        tracer.calls[name] += 1

            return wrapper

        # -- symbolic
        for attr, name in (("canonical_key", "symbolic.canonical_key"),
                           ("bits_on", "symbolic.bits_on")):
            self._replace_method(symbolic.WindowSet, attr,
                                 counted_leaf(name, symbolic.WindowSet.__dict__[attr]))
        self._replace(symbolic.set_algebra,
                      counted_leaf("symbolic.set_algebra", symbolic.set_algebra))
        init = symbolic.WindowSet.__init__

        @functools.wraps(init)
        def windowset_init(*args, **kwargs):
            tracer.counts["symbolic.windowsets_built"] += 1
            init(*args, **kwargs)

        self._replace_method(symbolic.WindowSet, "__init__", windowset_init)

        # -- measures: every concrete cell_value, summed over kinds
        for cls in _subclasses(measures.CylinderMeasure):
            if "cell_value" in cls.__dict__:
                self._replace_method(cls, "cell_value",
                                     counted_leaf("measures.cell_value", cls.__dict__["cell_value"]))
        self._replace(measures.eval0, counted_leaf("measures.eval0", measures.eval0))
        eval_shifted = counted_leaf("measures.eval_shifted", measures.eval_shifted)

        @functools.wraps(measures.eval_shifted)
        def priced(*args, **kwargs):
            # a price made directly under a solve span is one tree node
            # (budgeted solves price every cost component per node)
            if tracer.stack and tracer.stack[-1].name in SOLVES:
                tracer.stack[-1].data["prices"] += 1
            return eval_shifted(*args, **kwargs)

        self._replace(measures.eval_shifted, priced)

        # -- engine
        def solve_data(comps):
            return lambda args: {"prices": 0, "comps": comps(args)}

        def solve_exit(counter):
            def done(frame, args=None, result=None):
                nodes = frame.data["prices"] // frame.data["comps"]
                tracer.counts[counter] += nodes
                tracer.node_max = max(tracer.node_max, nodes)
                if tracer.op_id is not None:
                    tracer.op_nodes[tracer.op_id] = tracer.op_nodes.get(tracer.op_id, 0) + nodes
            return done

        def solve_error(counter):
            done = solve_exit(counter)

            def failed(frame, exc):
                done(frame)
                if getattr(exc, "_perfbench_seen", False):
                    return  # already counted by an inner solve
                if isinstance(exc, lab.errors.BudgetExceededError):
                    tracer.counts["engine.cap_hits"] += 1
                elif isinstance(exc, lab.errors.InfeasibleError):
                    tracer.counts["budgeted.infeasible"] += 1
                exc._perfbench_seen = True
            return failed

        for fn in (engine.phi_truncated, engine.phi_paren_truncated):
            self._replace(fn, timed(
                "engine.solve", fn, solve_data(lambda args: 1),
                solve_exit("engine.nodes"), solve_error("engine.nodes")))
        self._replace(engine.build_frame, timed("engine.build_frame", engine.build_frame))

        # -- covers: the certificate re-check, counted under a solve only
        def cert_enter(args):
            return {"under_solve": tracer.solve_depth > 0}

        def cert_exit(frame, args, result):
            if frame.data["under_solve"]:
                tracer.counts["covers.cert_check.calls"] += 1
                tracer.counts["covers.cert_check.self_s"] += (
                    tracer.spans[frame.span][6]
                )

        for fn in (covers.is_valid_cover, covers.cover_cost):
            self._replace(fn, timed("covers.cert_check", fn, cert_enter, cert_exit))

        # -- budgeted
        self._replace(budgeted.psi_budgeted, timed(
            "budgeted.solve", budgeted.psi_budgeted,
            solve_data(lambda args: 1 + len(args[0].constraints)),
            solve_exit("budgeted.nodes"), solve_error("budgeted.nodes")))

        def prune_exit(frame, args, result):
            tracer.counts["budgeted.prune.in_vectors"] += len(args[0])
            tracer.counts["budgeted.prune.kept_vectors"] += len(result)
            tracer.counts["budgeted.front_max"] = max(
                tracer.counts["budgeted.front_max"], len(result))

        self._replace(budgeted.prune, timed("budgeted.prune", budgeted.prune, None, prune_exit))
        for attr in ("psi_eps_grid", "psi_chain", "psi_signed"):
            fn = getattr(budgeted, attr)
            self._replace(fn, timed(f"budgeted.{attr}", fn))

        # -- verify
        self._replace_method(verify.FiniteAlgebra, "__init__", timed(
            "verify.algebra_build", verify.FiniteAlgebra.__dict__["__init__"]))
        handle_call = verify.SetFunctionHandle.__dict__["__call__"]
        handle_leaf = counted_leaf("verify.handle", handle_call)

        @functools.wraps(handle_call)
        def handle(self_, s):
            before = len(self_._cache)
            try:
                return handle_leaf(self_, s)
            finally:
                tracer.counts["verify.handle.evals"] += len(self_._cache) - before

        self._replace_method(verify.SetFunctionHandle, "__call__", handle)

        def closure_exit(frame, args, report):
            tracer.counts["verify.checks"] += len(report.checks)
            tracer.counts["verify.fail_verdicts"] += len(report.failed)

        def measurable_exit(frame, args, result):
            tracer.counts["verify.checks"] += 1

        self._replace(verify.check_splitting_closure, timed(
            "verify.splitting_closure", verify.check_splitting_closure, None, closure_exit))
        self._replace(verify.caratheodory_measurable, timed(
            "verify.caratheodory_measurable", verify.caratheodory_measurable, None,
            measurable_exit))

    # -- results ------------------------------------------------------------

    def layer_metrics(self, overhead_s: float) -> dict:
        """Every per-layer metric by name, as (value, unit)."""
        calls, self_s, counts = self.calls, self.self_s, self.counts
        spans = [s for s in self.spans if s is not None]
        span_calls = Counter(s[1] for s in spans)
        node_cap = self.lab.engine.NODE_CAP
        front_cap = self.lab.engine.FRONT_CAP
        engine_nodes = counts["engine.nodes"]
        engine_time = self.total_s["engine.solve"]
        prune_in = counts["budgeted.prune.in_vectors"]
        handle_calls = calls["verify.handle"]
        out = {
            "symbolic.canonical_key.calls": (calls["symbolic.canonical_key"], "count"),
            "symbolic.canonical_key.self_s": (self_s["symbolic.canonical_key"], "s"),
            "symbolic.bits_on.calls": (calls["symbolic.bits_on"], "count"),
            "symbolic.bits_on.self_s": (self_s["symbolic.bits_on"], "s"),
            "symbolic.set_algebra.calls": (calls["symbolic.set_algebra"], "count"),
            "symbolic.set_algebra.self_s": (self_s["symbolic.set_algebra"], "s"),
            "symbolic.windowsets_built": (counts["symbolic.windowsets_built"], "count"),
            "measures.cell_value.calls": (calls["measures.cell_value"], "count"),
            "measures.cell_value.self_s": (self_s["measures.cell_value"], "s"),
            "measures.eval_shifted.calls": (calls["measures.eval_shifted"], "count"),
            "measures.eval_shifted.self_s": (self_s["measures.eval_shifted"], "s"),
            "measures.eval0.calls": (calls["measures.eval0"], "count"),
            "measures.eval0.self_s": (self_s["measures.eval0"], "s"),
            "engine.solves": (span_calls["engine.solve"], "count"),
            "engine.solve.self_s": (self_s["engine.solve"], "s"),
            "engine.nodes": (engine_nodes, "count"),
            "engine.nodes_per_s": (engine_nodes / engine_time if engine_time else 0.0, "1/s"),
            "engine.node_cap_headroom": (node_cap - self.node_max, "count"),
            "engine.build_frame.self_s": (self_s["engine.build_frame"], "s"),
            "engine.cap_hits": (counts["engine.cap_hits"], "count"),
            "covers.cert_check.calls": (counts["covers.cert_check.calls"], "count"),
            "covers.cert_check.self_s": (counts["covers.cert_check.self_s"], "s"),
            "budgeted.solves": (span_calls["budgeted.solve"], "count"),
            "budgeted.solve.self_s": (self_s["budgeted.solve"], "s"),
            "budgeted.nodes": (counts["budgeted.nodes"], "count"),
            "budgeted.prune.calls": (span_calls["budgeted.prune"], "count"),
            "budgeted.prune.self_s": (self_s["budgeted.prune"], "s"),
            "budgeted.prune.in_vectors": (prune_in, "count"),
            "budgeted.prune.kept_vectors": (counts["budgeted.prune.kept_vectors"], "count"),
            "budgeted.prune.kept_ratio": (
                counts["budgeted.prune.kept_vectors"] / prune_in if prune_in else 0.0, "ratio"),
            "budgeted.front_max": (counts["budgeted.front_max"], "count"),
            "budgeted.front_cap_headroom": (front_cap - counts["budgeted.front_max"], "count"),
            "budgeted.infeasible": (counts["budgeted.infeasible"], "count"),
            "verify.algebra_build.calls": (span_calls["verify.algebra_build"], "count"),
            "verify.algebra_build.self_s": (self_s["verify.algebra_build"], "s"),
            "verify.handle.calls": (handle_calls, "count"),
            "verify.handle.evals": (counts["verify.handle.evals"], "count"),
            "verify.handle.hit_ratio": (
                1 - counts["verify.handle.evals"] / handle_calls if handle_calls else 0.0, "ratio"),
            "verify.splitting_closure.self_s": (self_s["verify.splitting_closure"], "s"),
            "verify.caratheodory_measurable.self_s": (
                self_s["verify.caratheodory_measurable"], "s"),
            "verify.checks": (counts["verify.checks"], "count"),
            "verify.fail_verdicts": (counts["verify.fail_verdicts"], "count"),
            "trace.overhead_s": (overhead_s, "s"),
        }
        return out

    def write_spans(self, path):
        """Write the kept spans as JSON lines, one span per line."""
        with open(path, "w", encoding="utf-8") as fh:
            for span in self.spans:
                if span is None:
                    continue
                sid, name, start, end, parent, op, own = span
                fh.write(json.dumps({
                    "id": sid, "name": name, "start": start, "end": end,
                    "parent": parent, "op": op, "self_s": own,
                }) + "\n")


def _subclasses(cls):
    out = []
    for sub in cls.__subclasses__():
        out.append(sub)
        out.extend(_subclasses(sub))
    return out
