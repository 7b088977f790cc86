"""Span tracing for the traced run, from outside the library.

:class:`Tracer` wraps the library's public functions at every place a caller
looks them up: the defining module, each ``cosetlab`` module that bound the
name with ``from ... import``, and the class dictionary for methods.  It
wraps call boundaries only.  Per-element work is read from the library's own
counters (``OracleFunction.evaluations``, the decision oracles' call counts)
or, for group streaming, from an ``itertools.count`` zipped onto the
iterator, which adds no Python-level call per element.

Spans stay in memory as ``[name, start, end, parent, case]`` rows and are
written out once, when the run ends.  The wrappers exist only between
:meth:`Tracer.install` and :meth:`Tracer.uninstall`; the timed passes run
on the library's own function objects, which :func:`patched_names` checks
against a snapshot taken before any wrapper existed.
"""

from __future__ import annotations

import functools
import itertools
import json
import operator
import sys
from time import perf_counter

# (module, attribute, span name).  A ``Class.method`` attribute wraps the
# method in the class dictionary.
SPANS = [
    ("cosetlab.perms", "build_stabilizer_chain", "perms.chain_build"),
    ("cosetlab.perms", "random_element", "perms.random_element"),
    ("cosetlab.groups", "close_under_op", "groups.closure"),
    ("cosetlab.groups", "reduce_generators", "groups.closure"),
    ("cosetlab.instances", "plant_hsp", "instances.plant"),
    ("cosetlab.instances", "plant_coset", "instances.plant"),
    ("cosetlab.instances", "plant_hidden_shift", "instances.plant"),
    ("cosetlab.instances", "plant_ghsh", "instances.plant"),
    ("cosetlab.instances", "plant_orbit_coset", "instances.plant"),
    ("cosetlab.instances", "verify_promise", "instances.verify"),
    ("cosetlab.instances", "HspInstance.kernel", "instances.kernel"),
    ("cosetlab.reductions", "hidden_coset_to_hsp", "reductions.reduce"),
    ("cosetlab.reductions", "ghsh_to_hsp", "reductions.reduce"),
    ("cosetlab.reductions", "orbit_coset_to_hsp", "reductions.reduce"),
    ("cosetlab.reductions", "embed_wreath_instance", "reductions.reduce"),
    ("cosetlab.reductions", "recover_coset_solution", "reductions.recover"),
    ("cosetlab.reductions", "recover_ghsh_functions", "reductions.recover"),
    ("cosetlab.reductions", "recover_orbit_solution", "reductions.recover"),
    ("cosetlab.search_decision", "build_hsp_search_plan", "search_decision.plan"),
    ("cosetlab.search_decision", "QueryBatch.run", "search_decision.batch"),
    ("cosetlab.search_decision", "DecisionOracle.answer", "search_decision.answer"),
    ("cosetlab.search_decision", "ShiftDecisionOracle.answer", "search_decision.answer"),
    ("cosetlab.search_decision", "DihedralDecisionOracle.answer",
     "search_decision.answer"),
    ("cosetlab.search_decision", "finish_hsp_search", "search_decision.reconstruct"),
    ("cosetlab.search_decision", "reconstruct_from_answers",
     "search_decision.reconstruct"),
    ("cosetlab.search_decision", "dihedral_search_via_decision", "search_decision.dihedral"),
    ("cosetlab.search_decision", "hsh_search_via_decision", "search_decision.shift"),
    ("cosetlab.checking", "brute_decide", "checking.brute_decide"),
    ("cosetlab.checking", "checker_hspD", "checking.checker"),
    ("cosetlab.checking", "checker_hsp", "checking.checker"),
    ("workloads", "run_command", "cli.command"),
]

# Per-layer metric -> unit.  Counts are per traced case.  A ``_share`` is the
# layer's self time over the traced case time, so a layer that a workload
# never calls reads 0 without posing as a measured time.
SHARES = {
    "perms.chain_build_share": ("perms.chain_build",),
    "groups.closure_share": ("groups.closure",),
    "instances.kernel_share": ("instances.kernel",),
    "instances.plant_share": ("instances.plant",),
    "instances.verify_share": ("instances.verify",),
    "reductions.reduce_share": ("reductions.reduce",),
    "reductions.recover_share": ("reductions.recover",),
    "search_decision.plan_share": ("search_decision.plan",),
    "search_decision.answer_share": ("search_decision.batch", "search_decision.answer"),
    "search_decision.reconstruct_share": ("search_decision.reconstruct",),
    "search_decision.dihedral_share": ("search_decision.dihedral",),
    "search_decision.shift_share": ("search_decision.shift",),
    "checking.brute_decide_share": ("checking.brute_decide",),
    "checking.checker_share": ("checking.checker",),
    "cli.command_share": ("cli.command",),
}
LAYER_METRICS = {
    "perms.chain_builds": "count",
    "perms.chain_build_share": "ratio",
    "perms.random_elements": "count",
    "groups.elements_streamed": "count",
    "groups.closure_calls": "count",
    "groups.closure_share": "ratio",
    "instances.source_evals": "count",
    "instances.derived_evals": "count",
    "instances.kernel_builds": "count",
    "instances.kernel_share": "ratio",
    "instances.kernel_yield": "ratio",
    "instances.plant_share": "ratio",
    "instances.verify_share": "ratio",
    "reductions.reduce_share": "ratio",
    "reductions.recover_share": "ratio",
    "search_decision.plan_share": "ratio",
    "search_decision.queries": "count",
    "search_decision.answer_share": "ratio",
    "search_decision.reconstruct_share": "ratio",
    "search_decision.dihedral_share": "ratio",
    "search_decision.shift_share": "ratio",
    "checking.brute_decide_calls": "count",
    "checking.brute_decide_share": "ratio",
    "checking.nontrivial_frac": "ratio",
    "checking.checker_share": "ratio",
    "checking.trials": "count",
    "cli.commands": "count",
    "cli.command_share": "ratio",
    "cli.report_bytes": "B",
    "trace.case_s": "s",
    "trace.overhead_frac": "ratio",
}


def _resolve(module_name: str, attr: str):
    module = sys.modules[module_name]
    if "." in attr:
        cls_name, meth = attr.split(".")
        return getattr(module, cls_name), meth
    return module, attr


def self_times(spans) -> list[float]:
    """Each span's duration minus the part of it that its children cover.

    ``spans`` rows are ``[name, start, end, parent, case]`` with ``parent``
    the index of the enclosing row, or -1.
    """
    children: dict[int, list[tuple[float, float]]] = {}
    for row in spans:
        if row[3] >= 0:
            children.setdefault(row[3], []).append((row[1], row[2]))
    out = []
    for i, row in enumerate(spans):
        covered = 0.0
        cur_start = cur_end = None
        for start, end in sorted(children.get(i, ())):
            start, end = max(start, row[1]), min(end, row[2])
            if end <= start:
                continue
            if cur_end is None or start > cur_end:
                if cur_end is not None:
                    covered += cur_end - cur_start
                cur_start, cur_end = start, end
            else:
                cur_end = max(cur_end, end)
        if cur_end is not None:
            covered += cur_end - cur_start
        out.append((row[2] - row[1]) - covered)
    return out


class Tracer:
    """Collects spans and boundary counts while its wrappers are installed."""

    def __init__(self):
        self.spans: list[list] = []
        self.stack: list[int] = []
        self.case: int | None = None
        self.counts = {"nontrivial": 0, "kernel_streamed": 0, "kernel_kept": 0,
                       "kernel_builds": 0, "trials": 0, "report_bytes": 0,
                       "elements_streamed": 0, "source_evals": 0, "derived_evals": 0}
        self._streams: list = []
        self._oracles: list[tuple[object, bool]] = []
        self._restore: list[tuple[object, str, object]] = []

    # -- wrapping ---------------------------------------------------------------

    def _span(self, name: str, fn, after=None):
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            spans, stack = tracer.spans, tracer.stack
            row = [name, 0.0, 0.0, stack[-1] if stack else -1, tracer.case]
            stack.append(len(spans))
            spans.append(row)
            row[1] = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                row[2] = perf_counter()
                stack.pop()
            if after is not None:
                after(args, result)
            return result

        return traced

    def _kernel(self, fn):
        tracer = self

        def kernel(inst, *args, **kwargs):
            before = inst.oracle.evaluations
            result = fn(inst, *args, **kwargs)
            # A build evaluates the identity once plus every streamed element;
            # a cached call evaluates nothing.
            spent = inst.oracle.evaluations - before
            if spent:
                tracer.counts["kernel_builds"] += 1
                tracer.counts["kernel_streamed"] += spent - 1
                tracer.counts["kernel_kept"] += len(result)
            return result

        return self._span("instances.kernel", functools.wraps(fn)(kernel))

    def _iter_elements(self, fn):
        streams = self._streams

        @functools.wraps(fn)
        def iter_elements(group, *args, **kwargs):
            counter = itertools.count()
            streams.append(counter)
            return map(operator.itemgetter(0), zip(fn(group, *args, **kwargs), counter))

        return iter_elements

    def _oracle_init(self, fn):
        tracer = self

        @functools.wraps(fn)
        def __init__(oracle, *args, **kwargs):
            fn(oracle, *args, **kwargs)
            source = any(tracer.spans[i][0] == "instances.plant" for i in tracer.stack)
            tracer._oracles.append((oracle, source))

        return __init__

    def _after(self, name: str):
        counts = self.counts
        if name == "checking.brute_decide":
            def after(args, result):
                counts["nontrivial"] += result.value == "nontrivial"
        elif name == "checking.checker":
            def after(args, result):
                counts["trials"] += result.checker_steps
        elif name == "cli.command":
            def after(args, result):
                counts["report_bytes"] += len(result)
        else:
            after = None
        return after

    def _patch(self, owner, attr: str, wrapper) -> None:
        self._restore.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, wrapper)

    def install(self) -> None:
        """Wrap every listed function wherever a caller looks it up."""
        modules = [m for n, m in sorted(sys.modules.items())
                   if n == "cosetlab" or n.startswith("cosetlab.") or n == "workloads"]
        for module_name, attr, name in SPANS:
            owner, key = _resolve(module_name, attr)
            original = owner.__dict__[key]
            if isinstance(owner, type):
                wrapper = (self._kernel(original) if name == "instances.kernel"
                           else self._span(name, original, self._after(name)))
                self._patch(owner, key, wrapper)
                continue
            wrapper = self._span(name, original, self._after(name))
            for module in modules:
                for bound, value in list(vars(module).items()):
                    if value is original:
                        self._patch(module, bound, wrapper)
        groups_mod = sys.modules["cosetlab.groups"]
        self._patch(groups_mod.FiniteGroup, "iter_elements",
                    self._iter_elements(groups_mod.FiniteGroup.iter_elements))
        oracle_cls = sys.modules["cosetlab.instances"].OracleFunction
        self._patch(oracle_cls, "__init__", self._oracle_init(oracle_cls.__init__))

    def uninstall(self) -> None:
        while self._restore:
            owner, attr, original = self._restore.pop()
            setattr(owner, attr, original)

    # -- per-case bookkeeping ---------------------------------------------------

    def end_case(self) -> None:
        """Fold the case's streamed-element and oracle counters into totals."""
        self.counts["elements_streamed"] += sum(next(c) for c in self._streams)
        for oracle, source in self._oracles:
            key = "source_evals" if source else "derived_evals"
            self.counts[key] += oracle.evaluations
        self._streams.clear()
        self._oracles.clear()

    # -- results ----------------------------------------------------------------

    def layer_metrics(self, cases: int, case_time: float) -> dict[str, float]:
        """Layer metrics from the spans and counts of ``cases`` cases that took
        ``case_time`` seconds in all.  ``trace.overhead_frac`` is left to the
        caller, which has the untraced pass."""
        selfs = self_times(self.spans)
        by_name: dict[str, float] = {}
        calls: dict[str, int] = {}
        queries = 0
        for i, row in enumerate(self.spans):
            name = row[0]
            by_name[name] = by_name.get(name, 0.0) + selfs[i]
            calls[name] = calls.get(name, 0) + 1
            if name == "search_decision.answer":
                if row[3] < 0 or self.spans[row[3]][0] != "search_decision.answer":
                    queries += 1
        c = self.counts
        per = 1.0 / cases
        out = {metric: sum(by_name.get(n, 0.0) for n in names) / case_time
               for metric, names in SHARES.items()}
        decides = calls.get("checking.brute_decide", 0)
        out.update({
            "perms.chain_builds": calls.get("perms.chain_build", 0) * per,
            "perms.random_elements": calls.get("perms.random_element", 0) * per,
            "groups.elements_streamed": c["elements_streamed"] * per,
            "groups.closure_calls": calls.get("groups.closure", 0) * per,
            "instances.source_evals": c["source_evals"] * per,
            "instances.derived_evals": c["derived_evals"] * per,
            "instances.kernel_builds": c["kernel_builds"] * per,
            "instances.kernel_yield": (c["kernel_kept"] / c["kernel_streamed"]
                                       if c["kernel_streamed"] else 0.0),
            "search_decision.queries": queries * per,
            "checking.brute_decide_calls": decides * per,
            "checking.nontrivial_frac": c["nontrivial"] / decides if decides else 0.0,
            "checking.trials": c["trials"] * per,
            "cli.commands": calls.get("cli.command", 0) * per,
            "cli.report_bytes": c["report_bytes"] * per,
            "trace.case_s": case_time * per,
        })
        return out

    def write(self, path) -> None:
        with open(path, "w") as fh:
            for i, row in enumerate(self.spans):
                fh.write(json.dumps({"id": i, "name": row[0], "start": row[1],
                                     "end": row[2], "parent": row[3],
                                     "case": row[4]}) + "\n")


def function_objects() -> dict[tuple[str, str], int]:
    """Identity of every attribute of every ``cosetlab`` module and class."""
    out = {}
    for name, module in sorted(sys.modules.items()):
        if not (name == "cosetlab" or name.startswith("cosetlab.")):
            continue
        for attr, value in vars(module).items():
            out[(name, attr)] = id(value)
            if isinstance(value, type) and value.__module__ == name:
                for member, inner in vars(value).items():
                    out[(name, f"{attr}.{member}")] = id(inner)
    return out


def patched_names(pristine: dict[tuple[str, str], int]) -> list[str]:
    """Names bound to another object than in the ``pristine`` snapshot of
    :func:`function_objects`; empty when the library runs unpatched."""
    now = function_objects()
    return sorted(f"{m}.{a}" for (m, a), ident in now.items() if pristine.get((m, a)) != ident)
