"""Command-line front end: plant, reduce, solve, search, check, selftest.

Machine-readable JSON goes to stdout; human diagnostics go to stderr.  Exit
codes: 0 success, 2 invalid input (including promise violations), 1 internal
invariant violation.  Identical arguments and seed reproduce identical output
apart from the elapsed-time field.
"""

from __future__ import annotations

import hashlib
import json
import sys
import time

import click

from .checking import (BruteForceDecisionOracle, BruteForceDihedralOracle,
                       BruteForceShiftOracle, BruteSearchProgram, BugSpec,
                       brute_coset_solve, brute_ghsh_solve, brute_hsp_solve,
                       brute_orbit_solve, checker_hsp, checker_hspD, wrap_buggy)
from .groups import (DihedralElement, FiniteGroup, cyclic_group, dihedral_group,
                     element_from_json, element_to_json, symmetric_group,
                     wreath_group)
from .instances import (GhshInstance, GroupAction, HiddenCosetInstance,
                        HspInstance, OrbitCosetInstance, Side, instance_from_json,
                        instance_to_json, plant_coset, plant_ghsh, plant_hsp,
                        plant_orbit_coset, verify_promise)
from .perms import ExceedsCapError, parse_cycles
from .reductions import instance_from_json_any, reduced_instance_to_json
from .search_decision import (NoShiftError, NotSmoothError,
                              OracleInconsistentError, dihedral_search_via_decision,
                              hsh_search_via_decision, hsp_search_via_decision)
from .selftest import SUITES, run_suites


class InputError(click.ClickException):
    """Invalid input: exit 2, machine-readable error object on stdout."""

    exit_code = 2

    def show(self, file=None):
        print(json.dumps({"error": self.format_message()}))
        super().show(file)


def _log(message: str) -> None:
    print(message, file=sys.stderr)


def parse_group(shorthand: str) -> FiniteGroup:
    """Expand group shorthands: s<n>, z<n>, d<n>, wr:<inner>:<copies>."""
    text = shorthand.strip().lower()
    if text.startswith("wr:"):
        body = text[3:]
        inner, _, copies = body.rpartition(":")
        if not inner or not copies.isdigit():
            raise InputError(f"malformed wreath shorthand: {shorthand!r}")
        return wreath_group(parse_group(inner), int(copies))
    kind, number = text[:1], text[1:]
    if not number.isdigit():
        raise InputError(f"unknown group shorthand: {shorthand!r}")
    n = int(number)
    if kind == "s":
        return symmetric_group(n)
    if kind == "z":
        return cyclic_group(n)
    if kind == "d":
        return dihedral_group(n)
    raise InputError(f"unknown group shorthand: {shorthand!r}")


def parse_element(text: str, group: FiniteGroup):
    """Parse one element: JSON form, cycles for permutations, an integer for
    cyclic groups, or r<k>[s] for dihedral groups."""
    text = text.strip()
    ident = group.identity
    if text.startswith("{"):
        return element_from_json(json.loads(text))
    if hasattr(ident, "degree"):
        return parse_cycles(text, ident.degree)
    if isinstance(ident, DihedralElement):
        body = text.lower()
        if body in ("id", "", "()"):
            return ident
        flip = 1 if body.endswith("s") else 0
        body = body[:-1] if flip else body
        rot = int(body[1:]) if body.startswith("r") else int(body or 0)
        return DihedralElement(ident.rotations, rot, flip)
    if hasattr(ident, "modulus"):
        return type(ident)(ident.modulus, int(text))
    raise InputError(f"cannot parse element {text!r} for this group shape")


def parse_elements(text: str, group: FiniteGroup) -> list:
    text = text.strip()
    if not text:
        return []
    parts = []
    depth = 0
    current = []
    for ch in text:
        if ch in "({[":
            depth += 1
        elif ch in ")}]":
            depth -= 1
        if ch == "," and depth == 0:
            parts.append("".join(current))
            current = []
        else:
            current.append(ch)
    parts.append("".join(current))
    return [parse_element(p, group) for p in parts if p.strip()]


def parse_action(shorthand: str, cap: int) -> GroupAction:
    """Action shorthands: cyclic:<n> (one n-cycle orbit) or
    two-orbit:<n>:<a>:<b> (a- and b-cycles under Z_n; a and b divide n)."""
    parts = shorthand.strip().lower().split(":")
    if parts[0] == "cyclic" and len(parts) == 2:
        n = int(parts[1])
        group = cyclic_group(n)
        images = tuple((s + 1) % n for s in range(n))
        return GroupAction(group, tuple(f"s{i}" for i in range(n)), (images,), cap)
    if parts[0] == "two-orbit" and len(parts) == 4:
        n, a, b = int(parts[1]), int(parts[2]), int(parts[3])
        if n % a or n % b:
            raise InputError("orbit sizes must divide the group order")
        group = cyclic_group(n)
        first = [(s + 1) % a for s in range(a)]
        second = [a + ((s + 1) % b) for s in range(b)]
        states = tuple([f"a{i}" for i in range(a)] + [f"b{i}" for i in range(b)])
        return GroupAction(group, states, (tuple(first + second),), cap)
    raise InputError(f"unknown action shorthand: {shorthand!r}")


def _query_group(query):
    for attr in ("group", "base", "instance"):
        inner = getattr(query, attr, None)
        if inner is None:
            continue
        if attr == "group":
            return inner
        return _query_group(inner)
    raise InputError("cannot read a group off this query")


def parse_bug_spec(spec_text: str, seed: int) -> BugSpec | None:
    """None means the honest program; otherwise the deviation to inject."""
    text = spec_text.strip().lower()
    if text == "bruteforce":
        return None
    if not text.startswith("buggy:"):
        raise InputError(f"unknown program spec: {spec_text!r}")
    body = text[len("buggy:"):]
    if body == "always-trivial":
        return BugSpec("always_trivial")
    if body == "always-nontrivial":
        return BugSpec("always_nontrivial")
    try:
        if body.startswith("flip:"):
            return BugSpec("flip_with_prob", flip_probability=float(body[5:]), seed=seed)
        if body.startswith("wrong-if-order-gt:"):
            bound = int(body[len("wrong-if-order-gt:"):])
            return BugSpec("wrong_on_matching",
                           predicate=lambda q: _query_group(q).order() > bound)
    except ValueError as exc:
        raise InputError(f"bad program spec {spec_text!r}: {exc}")
    raise InputError(f"unknown bug mode: {spec_text!r}")


def parse_program(spec_text: str, flavor: str, cap: int, seed: int):
    base = (BruteForceDecisionOracle(cap) if flavor == "decision"
            else BruteSearchProgram(cap))
    spec = parse_bug_spec(spec_text, seed)
    return base if spec is None else wrap_buggy(base, spec)


def _read_instance_json(path: str | None) -> dict:
    raw = sys.stdin.read() if path in (None, "-") else open(path).read()
    try:
        return json.loads(raw)
    except json.JSONDecodeError as exc:
        raise InputError(f"malformed instance JSON: {exc}")


def _digest(data: dict) -> str:
    return hashlib.sha256(json.dumps(data, sort_keys=True).encode()).hexdigest()[:16]


def _emit_report(ctx, outputs: dict, counters: dict, digest: str | None,
                 started: float) -> None:
    report = {
        "command": ctx.obj["argv"],
        "seed": ctx.obj["seed"],
        "instance_digest": digest,
        "outputs": outputs,
        "counters": counters,
        "elapsed_s": round(time.monotonic() - started, 6),
    }
    print(json.dumps(report, indent=2, sort_keys=True))


def _load_and_verify(path, cap):
    data = _read_instance_json(path)
    try:
        instance = instance_from_json_any(data, cap)
    except (ValueError, KeyError, TypeError) as exc:
        raise InputError(f"bad instance: {exc}")
    try:
        if not verify_promise(instance, cap):
            raise InputError("instance violates its promise")
    except ExceedsCapError as exc:
        raise InputError(str(exc))
    return data, instance


@click.group()
@click.option("--seed", type=int, default=0, help="64-bit seed for all randomness.")
@click.option("--cap", type=int, default=100_000, help="Enumeration cap.")
@click.pass_context
def main(ctx, seed, cap):
    """Desk-scale hidden-structure workbench over small finite groups."""
    ctx.obj = {"seed": seed, "cap": cap, "argv": sys.argv[1:]}


@main.group()
def plant():
    """Construct a planted instance and print its JSON."""


@plant.command("hsp")
@click.option("--group", "group_text", required=True)
@click.option("--subgroup", "subgroup_text", default="", help="Comma-separated generators.")
@click.option("--side", type=click.Choice(["left", "right"]), default="left")
@click.pass_context
def plant_hsp_cmd(ctx, group_text, subgroup_text, side):
    started = time.monotonic()
    cap = ctx.obj["cap"]
    group = parse_group(group_text)
    gens = parse_elements(subgroup_text, group)
    inst = plant_hsp(group, gens, Side(side), cap)
    if not verify_promise(inst, cap):
        raise click.ClickException("planted instance failed its own promise")
    data = instance_to_json(inst)
    labels = {inst.oracle.evaluate(g) for g in group.elements(cap)}
    _emit_report(ctx, {"instance": data, "distinct_labels": len(labels)},
                 {"oracle_evaluations": inst.oracle.evaluations}, _digest(data), started)


@plant.command("coset")
@click.option("--group", "group_text", required=True)
@click.option("--subgroup", "subgroup_text", default="")
@click.option("--shift", "shift_text", required=True)
@click.pass_context
def plant_coset_cmd(ctx, group_text, subgroup_text, shift_text):
    started = time.monotonic()
    cap = ctx.obj["cap"]
    group = parse_group(group_text)
    gens = parse_elements(subgroup_text, group)
    shift = parse_element(shift_text, group)
    inst = plant_coset(group, gens, shift, cap)
    if not verify_promise(inst, cap):
        raise click.ClickException("planted instance failed its own promise")
    data = instance_to_json(inst)
    _emit_report(ctx, {"instance": data},
                 {"oracle_evaluations": inst.f1.evaluations + inst.f2.evaluations},
                 _digest(data), started)


@plant.command("ghsh")
@click.option("--group", "group_text", required=True)
@click.option("--shift", "shift_text", required=True)
@click.option("--copies", type=int, default=2)
@click.pass_context
def plant_ghsh_cmd(ctx, group_text, shift_text, copies):
    started = time.monotonic()
    cap = ctx.obj["cap"]
    group = parse_group(group_text)
    shift = parse_element(shift_text, group)
    inst = plant_ghsh(group, shift, copies, cap)
    if not verify_promise(inst, cap):
        raise click.ClickException("planted instance failed its own promise")
    data = instance_to_json(inst)
    _emit_report(ctx, {"instance": data},
                 {"oracle_evaluations": sum(f.evaluations for f in inst.functions)},
                 _digest(data), started)


@plant.command("orbit-coset")
@click.option("--action", "action_text", required=True)
@click.option("--phi1", type=int, default=0)
@click.option("--shift", "shift_text", default="none",
              help="Element text, or 'none' for a disjoint-orbit instance.")
@click.pass_context
def plant_orbit_cmd(ctx, action_text, phi1, shift_text):
    started = time.monotonic()
    cap = ctx.obj["cap"]
    action = parse_action(action_text, cap)
    shift = (None if shift_text.strip().lower() == "none"
             else parse_element(shift_text, action.group))
    inst = plant_orbit_coset(action, phi1, shift)
    if not verify_promise(inst, cap):
        raise click.ClickException("planted instance failed its own promise")
    data = instance_to_json(inst)
    _emit_report(ctx, {"instance": data}, {}, _digest(data), started)


@main.command("reduce")
@click.option("--in", "path", default="-", help="Instance JSON path, - for stdin.")
@click.pass_context
def reduce_cmd(ctx, path):
    """Carry a coset / shift-chain / orbit instance into hidden-subgroup form."""
    started = time.monotonic()
    cap = ctx.obj["cap"]
    data, instance = _load_and_verify(path, cap)
    try:
        reduced_json = reduced_instance_to_json(data)
    except ValueError as exc:
        raise InputError(str(exc))
    reduced = instance_from_json_any(reduced_json, cap)
    ok = verify_promise(reduced, cap)
    if not ok:
        raise click.ClickException("reduced instance failed its promise")
    _emit_report(ctx, {"instance": reduced_json,
                       "provenance": reduced_json["construction"]["via"],
                       "hidden_subgroup_generators":
                           [element_to_json(g) for g in (reduced.planted_subgroup or ())]},
                 {"oracle_evaluations": reduced.oracle.evaluations},
                 _digest(reduced_json), started)


@main.command("solve")
@click.option("--in", "path", default="-")
@click.pass_context
def solve_cmd(ctx, path):
    """Brute-force reference solution of a planted instance."""
    started = time.monotonic()
    cap = ctx.obj["cap"]
    data, instance = _load_and_verify(path, cap)
    if isinstance(instance, HspInstance):
        gens = brute_hsp_solve(instance, cap)
        outputs = {"subgroup_generators": [element_to_json(g) for g in gens]}
        counters = {"oracle_evaluations": instance.oracle.evaluations}
    elif isinstance(instance, HiddenCosetInstance):
        gens, shift = brute_coset_solve(instance, cap)
        outputs = {"subgroup_generators": [element_to_json(g) for g in gens],
                   "shift": element_to_json(shift)}
        counters = {"oracle_evaluations":
                    instance.f1.evaluations + instance.f2.evaluations}
    elif isinstance(instance, GhshInstance):
        shift = brute_ghsh_solve(instance, cap)
        outputs = {"shift": element_to_json(shift)}
        counters = {"oracle_evaluations":
                    sum(f.evaluations for f in instance.functions)}
    elif isinstance(instance, OrbitCosetInstance):
        shift, stab = brute_orbit_solve(instance, cap)
        outputs = {"disjoint": shift is None,
                   "shift": None if shift is None else element_to_json(shift),
                   "stabilizer_generators": [element_to_json(g) for g in stab]}
        counters = {}
    else:
        raise InputError("unsolvable instance kind")
    _emit_report(ctx, outputs, counters, _digest(data), started)


@main.command("search-via-decision")
@click.option("--in", "path", default="-")
@click.option("--oracle", "oracle_text", default="bruteforce",
              help="bruteforce or buggy:<mode>.")
@click.option("--emit-querylog", is_flag=True, default=False)
@click.option("--smooth-bound", type=int, default=7,
              help="Smoothness bound for dihedral instances.")
@click.pass_context
def search_cmd(ctx, path, oracle_text, emit_querylog, smooth_bound):
    """Solve the search problem using only a decision oracle."""
    started = time.monotonic()
    cap, seed = ctx.obj["cap"], ctx.obj["seed"]
    data, instance = _load_and_verify(path, cap)
    querylog = None
    try:
        bug = parse_bug_spec(oracle_text, seed)
        if isinstance(instance, HspInstance):
            ident = instance.group.identity
            if isinstance(ident, DihedralElement):
                oracle = BruteForceDihedralOracle(cap)
                oracle = oracle if bug is None else wrap_buggy(oracle, bug)
                residue = dihedral_search_via_decision(ident.rotations, smooth_bound,
                                                       instance, oracle)
                outputs = {"shift_exponent": residue}
                if emit_querylog:
                    querylog = [{"index": list(e.index)} for e in oracle.call_log]
                counters = {"decision_queries": oracle.calls,
                            "oracle_evaluations": instance.oracle.evaluations}
            else:
                oracle = parse_program(oracle_text, "decision", cap, seed)
                found = hsp_search_via_decision(instance, oracle, cap)
                outputs = {"found": None if found is None else element_to_json(found)}
                if emit_querylog:
                    querylog = [{"index": list(e.index)} for e in oracle.call_log]
                counters = {"decision_queries": oracle.calls,
                            "oracle_evaluations": instance.oracle.evaluations}
        elif isinstance(instance, HiddenCosetInstance):
            if instance.planted_subgroup:
                raise InputError(
                    "shift search needs injective functions; plant with an empty subgroup")
            oracle = BruteForceShiftOracle(cap)
            oracle = oracle if bug is None else wrap_buggy(oracle, bug)
            found = hsh_search_via_decision(instance.group, instance.f1, instance.f2,
                                            oracle)
            outputs = {"shift": element_to_json(found)}
            if emit_querylog:
                querylog = [{"index": list(e.index)} for e in oracle.call_log]
            counters = {"decision_queries": oracle.calls,
                        "oracle_evaluations":
                            instance.f1.evaluations + instance.f2.evaluations}
        else:
            raise InputError("search-via-decision expects an hsp, dihedral, or "
                             "hidden-shift instance")
    except (OracleInconsistentError, NoShiftError, NotSmoothError) as exc:
        raise click.ClickException(f"search failed: {exc}")
    if querylog is not None:
        outputs["querylog"] = querylog
    _emit_report(ctx, outputs, counters, _digest(data), started)


@main.command("check")
@click.option("--in", "path", default="-")
@click.option("--program", "program_text", default="bruteforce")
@click.option("--flavor", type=click.Choice(["decision", "search"]), default="decision")
@click.option("--k", type=int, default=7)
@click.option("--runs", type=int, default=1)
@click.pass_context
def check_cmd(ctx, path, program_text, flavor, k, runs):
    """Certify a program's answer on this instance; repeat --runs times."""
    started = time.monotonic()
    cap, seed = ctx.obj["cap"], ctx.obj["seed"]
    if k < 1:
        raise InputError(f"--k must be at least 1, got {k}")
    if runs < 1:
        raise InputError(f"--runs must be at least 1, got {runs}")
    data, instance = _load_and_verify(path, cap)
    if not isinstance(instance, HspInstance):
        raise InputError("checkers take hidden-subgroup instances")
    per_run = []
    counts = {"CORRECT": 0, "BUGGY": 0}
    for run in range(runs):
        program = parse_program(program_text, flavor, cap, seed + run)
        checker = checker_hspD if flavor == "decision" else checker_hsp
        verdict = checker(program, instance, k, seed=seed + run, cap=cap)
        counts[verdict.verdict] += 1
        per_run.append({
            "verdict": verdict.verdict,
            "trials": verdict.checker_steps,
            "oracle_calls": verdict.oracle_calls,
            "per_trial": [{"index": str(t.index), "ok": t.ok, "detail": t.detail}
                          for t in verdict.transcript],
        })
    outputs = {"verdict": per_run[-1]["verdict"] if runs == 1 else None,
               "verdict_counts": counts, "runs": per_run}
    _emit_report(ctx, outputs,
                 {"oracle_calls": sum(r["oracle_calls"] for r in per_run)},
                 _digest(data), started)


@main.command("selftest")
@click.option("--suite", "suites", multiple=True,
              type=click.Choice(sorted(SUITES) + ["all"]), default=("all",))
@click.option("--max-degree", type=int, default=4)
@click.pass_context
def selftest_cmd(ctx, suites, max_degree):
    """Run the built-in property sweeps and report pass counts."""
    started = time.monotonic()
    names = sorted(SUITES) if "all" in suites else list(suites)
    results = run_suites(names, max_degree=max_degree, seed=ctx.obj["seed"])
    outputs = {"suites": [
        {"suite": name,
         "properties": [{"name": r.name, "cases": r.cases, "failures": r.failures}
                        for r in rows]}
        for name, rows in results.items()]}
    failures = sum(r.failures for rows in results.values() for r in rows)
    _emit_report(ctx, outputs, {"total_failures": failures}, None, started)
    if failures:
        _log(f"{failures} property failures")
        raise SystemExit(1)


if __name__ == "__main__":
    main()
