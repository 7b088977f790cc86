"""Command-line front end: plant, reduce, solve, search, check, selftest.

Machine-readable JSON goes to stdout; human diagnostics go to stderr.  Exit
codes: 0 success, 2 invalid input (including promise violations), 1 internal
invariant violation.  Identical arguments and seed reproduce identical output
apart from the elapsed-time field.
"""

from __future__ import annotations

import contextlib
import hashlib
import json
import sys
import time

import click

from .checking import (BruteForceDecisionOracle, BruteForceShiftOracle,
                       BruteSearchProgram, BugSpec, brute_coset_solve,
                       brute_ghsh_solve, brute_hsp_solve, brute_orbit_solve,
                       checker_hsp, checker_hspD, require_checkable, wrap_buggy)
from .groups import (DEFAULT_CAP, DihedralElement, FiniteGroup, cyclic_group,
                     dihedral_group, element_from_json, element_to_json,
                     symmetric_group, wreath_group)
from .instances import (GhshInstance, GroupAction, HiddenCosetInstance,
                        HspInstance, OrbitCosetInstance, Side, instance_to_json,
                        plant_coset, plant_ghsh, plant_hsp, plant_orbit_coset,
                        verify_promise)
from .perms import ExceedsCapError, Permutation, parse_cycles
from .reductions import instance_from_json_any, reduce_instance, reduced_instance_to_json
from .search_decision import (OracleInconsistentError, dihedral_search_via_decision,
                              hsh_search_via_decision, hsp_search_via_decision)
from .selftest import MAX_DEGREE, MIN_DEGREE, SUITES, run_suites


def _print_error(message: str) -> None:
    """The machine-readable error object every exit-2 path prints on stdout."""
    print(json.dumps({"error": message}))


class InputError(click.ClickException):
    """Invalid input: exit 2, machine-readable error object on stdout."""

    exit_code = 2

    def show(self, file=None):
        _print_error(self.format_message())
        super().show(file)


class _JsonUsageGroup(click.Group):
    """The top-level group.  Click raises a usage error (a bad option value or
    choice, a missing or unknown option or command, or a bare group such as
    ``cosetlab`` or ``cosetlab plant``) while it parses the group's arguments
    or a subcommand's, which happens inside these two calls; each such error
    prints its JSON error object and goes on to click, which prints its own
    text and exits 2.  An enumeration that outgrows ``--cap`` anywhere in a
    command is invalid input.  The arguments click was given are kept in the
    context's ``meta`` for the report to echo."""

    def make_context(self, info_name, args, parent=None, **extra):
        argv = list(args)
        with _usage_errors():
            ctx = super().make_context(info_name, args, parent, **extra)
        ctx.meta["cosetlab.argv"] = argv
        return ctx

    def invoke(self, ctx):
        with _usage_errors():
            try:
                return super().invoke(ctx)
            except ExceedsCapError as exc:
                raise InputError(str(exc)) from exc


@contextlib.contextmanager
def _usage_errors():
    try:
        yield
    except click.exceptions.NoArgsIsHelpError as exc:
        _print_error(f"{exc.ctx.command_path}: missing command")
        raise
    except click.UsageError as exc:
        _print_error(exc.format_message())
        raise


@contextlib.contextmanager
def _input_errors():
    """Report the library's rejection of an argument as invalid input: the
    constructors and planters raise ValueError."""
    try:
        yield
    except ValueError as exc:
        raise InputError(str(exc)) from exc


def _log(message: str) -> None:
    print(message, file=sys.stderr)


def parse_group(shorthand: str, cap: int) -> FiniteGroup:
    """Expand group shorthands: s<n>, z<n>, d<n>, wr:<inner>:<copies>; the
    group enumerates under ``cap``."""
    text = shorthand.strip().lower()
    if text.startswith("wr:"):
        body = text[3:]
        inner, _, copies = body.rpartition(":")
        if not inner or not copies.isdigit():
            raise InputError(f"malformed wreath shorthand: {shorthand!r}")
        return wreath_group(parse_group(inner, cap), int(copies))
    kind, number = text[:1], text[1:]
    if not number.isdigit():
        raise InputError(f"unknown group shorthand: {shorthand!r}")
    n = int(number)
    if kind == "s":
        return symmetric_group(n, cap)
    if kind == "z":
        return cyclic_group(n, cap)
    if kind == "d":
        return dihedral_group(n, cap)
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
        group = cyclic_group(n, cap)
        images = tuple((s + 1) % n for s in range(n))
        return GroupAction(group, tuple(f"s{i}" for i in range(n)), (images,))
    if parts[0] == "two-orbit" and len(parts) == 4:
        n, a, b = int(parts[1]), int(parts[2]), int(parts[3])
        if min(n, a, b) < 1:
            raise InputError("group and orbit sizes must be positive")
        if n % a or n % b:
            raise InputError("orbit sizes must divide the group order")
        group = cyclic_group(n, cap)
        first = [(s + 1) % a for s in range(a)]
        second = [a + ((s + 1) % b) for s in range(b)]
        states = tuple([f"a{i}" for i in range(a)] + [f"b{i}" for i in range(b)])
        return GroupAction(group, states, (tuple(first + second),))
    raise InputError(f"unknown action shorthand: {shorthand!r}")


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
                           predicate=lambda q: q.group.order() > bound)
    except ValueError as exc:
        raise InputError(f"bad program spec {spec_text!r}: {exc}")
    raise InputError(f"unknown bug mode: {spec_text!r}")


def _program(honest, bug: BugSpec | None):
    """The honest program, or it wrapped to deviate as ``bug`` says."""
    return honest if bug is None else wrap_buggy(honest, bug)


def parse_program(spec_text: str, flavor: str, seed: int):
    base = (BruteForceDecisionOracle() if flavor == "decision"
            else BruteSearchProgram())
    return _program(base, parse_bug_spec(spec_text, seed))


def _read_instance_json(path: str | None) -> dict:
    try:
        raw = sys.stdin.read() if path in (None, "-") else open(path).read()
    except OSError as exc:
        raise InputError(f"cannot read instance: {exc}")
    try:
        data = json.loads(raw)
    except json.JSONDecodeError as exc:
        raise InputError(f"malformed instance JSON: {exc}")
    if not isinstance(data, dict):
        raise InputError("instance JSON must be an object")
    return data


def _digest(data: dict) -> str:
    return hashlib.sha256(json.dumps(data, sort_keys=True).encode()).hexdigest()[:16]


def _emit_report(ctx, outputs: dict, counters: dict, digest: str | None) -> None:
    report = {
        "command": ctx.obj["argv"],
        "seed": ctx.obj["seed"],
        "instance_digest": digest,
        "outputs": outputs,
        "counters": counters,
        "elapsed_s": round(time.monotonic() - ctx.obj["started"], 6),
    }
    print(json.dumps(report, indent=2, sort_keys=True))


def _counters(instance) -> dict:
    """The summed evaluations of the instance's own oracles, and of the
    source functions a reduced instance's verification reads."""
    if isinstance(instance, HspInstance):
        oracles = (instance.oracle, *getattr(instance.source, "functions", ()))
    elif isinstance(instance, (HiddenCosetInstance, GhshInstance)):
        oracles = instance.functions
    else:
        return {}
    return {"oracle_evaluations": sum(f.evaluations for f in oracles)}


def _load_and_verify(path, cap):
    data = _read_instance_json(path)
    try:
        instance = instance_from_json_any(data, cap)
    except (ValueError, KeyError, TypeError, ExceedsCapError) as exc:
        raise InputError(f"bad instance: {exc}")
    try:
        kept = verify_promise(instance)
    except ExceedsCapError as exc:
        # An instance whose group verification lists first, past the cap.
        raise InputError(f"bad instance: {exc}")
    if not kept:
        raise InputError("instance violates its promise")
    return data, instance


def _verified(inst):
    """A freshly planted instance, which must keep its own promise."""
    if not verify_promise(inst):
        raise click.ClickException("planted instance failed its own promise")
    return inst


def _emit_planted(ctx, inst, **outputs) -> None:
    """The report of a plant command: the instance's JSON, any further
    outputs, and the instance's counters."""
    data = instance_to_json(inst)
    _emit_report(ctx, {"instance": data, **outputs}, _counters(inst), _digest(data))


@click.group(cls=_JsonUsageGroup)
@click.option("--seed", type=int, default=0, help="64-bit seed for all randomness.")
@click.option("--cap", type=int, default=DEFAULT_CAP,
              help="Enumeration cap of every group the command builds.")
@click.pass_context
def main(ctx, seed, cap):
    """Desk-scale hidden-structure workbench over small finite groups."""
    ctx.obj = {"seed": seed, "cap": cap, "argv": ctx.meta["cosetlab.argv"],
               "started": time.monotonic()}


@main.group()
def plant():
    """Construct a planted instance and print its JSON."""


@plant.command("hsp")
@click.option("--group", "group_text", required=True)
@click.option("--subgroup", "subgroup_text", default="", help="Comma-separated generators.")
@click.option("--side", type=click.Choice(["left", "right"]), default="left")
@click.pass_context
def plant_hsp_cmd(ctx, group_text, subgroup_text, side):
    with _input_errors():
        group = parse_group(group_text, ctx.obj["cap"])
        gens = parse_elements(subgroup_text, group)
        inst = _verified(plant_hsp(group, gens, Side(side)))
    # The labels are the cosets of the kernel the verification left cached.
    _emit_planted(ctx, inst, distinct_labels=group.order() // len(inst.kernel()))


@plant.command("coset")
@click.option("--group", "group_text", required=True)
@click.option("--subgroup", "subgroup_text", default="")
@click.option("--shift", "shift_text", required=True)
@click.pass_context
def plant_coset_cmd(ctx, group_text, subgroup_text, shift_text):
    with _input_errors():
        group = parse_group(group_text, ctx.obj["cap"])
        gens = parse_elements(subgroup_text, group)
        shift = parse_element(shift_text, group)
        inst = _verified(plant_coset(group, gens, shift))
    _emit_planted(ctx, inst)


@plant.command("ghsh")
@click.option("--group", "group_text", required=True)
@click.option("--shift", "shift_text", required=True)
@click.option("--copies", type=int, default=2)
@click.pass_context
def plant_ghsh_cmd(ctx, group_text, shift_text, copies):
    with _input_errors():
        group = parse_group(group_text, ctx.obj["cap"])
        shift = parse_element(shift_text, group)
        inst = _verified(plant_ghsh(group, shift, copies))
    _emit_planted(ctx, inst)


@plant.command("orbit-coset")
@click.option("--action", "action_text", required=True)
@click.option("--phi1", type=int, default=0)
@click.option("--shift", "shift_text", default="none",
              help="Element text, or 'none' for a disjoint-orbit instance.")
@click.pass_context
def plant_orbit_cmd(ctx, action_text, phi1, shift_text):
    with _input_errors():
        action = parse_action(action_text, ctx.obj["cap"])
        shift = (None if shift_text.strip().lower() == "none"
                 else parse_element(shift_text, action.group))
        inst = _verified(plant_orbit_coset(action, phi1, shift))
    _emit_planted(ctx, inst)


@main.command("reduce")
@click.option("--in", "path", default="-", help="Instance JSON path, - for stdin.")
@click.pass_context
def reduce_cmd(ctx, path):
    """Carry a coset / shift-chain / orbit instance into hidden-subgroup form."""
    data, instance = _load_and_verify(path, ctx.obj["cap"])
    with _input_errors():
        reduced_json = reduced_instance_to_json(data)
    reduced = reduce_instance(instance)
    if not verify_promise(reduced):
        raise click.ClickException("reduced instance failed its promise")
    _emit_report(ctx, {"instance": reduced_json,
                       "provenance": reduced_json["construction"]["via"],
                       "hidden_subgroup_generators":
                           [element_to_json(g) for g in (reduced.planted_subgroup or ())]},
                 _counters(reduced), _digest(reduced_json))


@main.command("solve")
@click.option("--in", "path", default="-")
@click.pass_context
def solve_cmd(ctx, path):
    """Brute-force reference solution of a planted instance."""
    data, instance = _load_and_verify(path, ctx.obj["cap"])
    outputs = _solve(instance)
    _emit_report(ctx, outputs, _counters(instance), _digest(data))


def _solve(instance) -> dict:
    if isinstance(instance, HspInstance):
        gens = brute_hsp_solve(instance)
        return {"subgroup_generators": [element_to_json(g) for g in gens]}
    if isinstance(instance, HiddenCosetInstance):
        gens, shift = brute_coset_solve(instance)
        return {"subgroup_generators": [element_to_json(g) for g in gens],
                "shift": element_to_json(shift)}
    if isinstance(instance, GhshInstance):
        return {"shift": element_to_json(brute_ghsh_solve(instance))}
    if isinstance(instance, OrbitCosetInstance):
        shift, stab = brute_orbit_solve(instance)
        return {"disjoint": shift is None,
                "shift": None if shift is None else element_to_json(shift),
                "stabilizer_generators": [element_to_json(g) for g in stab]}
    raise InputError("unsolvable instance kind")


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
    seed = ctx.obj["seed"]
    data, instance = _load_and_verify(path, ctx.obj["cap"])
    bug = parse_bug_spec(oracle_text, seed)
    try:
        if isinstance(instance, HspInstance):
            ident = instance.group.identity
            oracle = _program(BruteForceDecisionOracle(), bug)
            if isinstance(ident, DihedralElement):
                # Verification left the kernel cached: this check and the
                # search's queries read it and evaluate no label.
                hidden = instance.kernel()
                if len(hidden) != 2 or not any(g.flip for g in hidden):
                    raise InputError("dihedral search needs a hidden subgroup {id, r^a s}")
                with _input_errors():  # an order that is not smooth
                    outputs = {"shift_exponent": dihedral_search_via_decision(
                        instance, smooth_bound, oracle)}
            else:
                if not isinstance(ident, Permutation):
                    raise InputError("hidden subgroup search runs over permutation "
                                     "and dihedral groups")
                found = hsp_search_via_decision(instance, oracle)
                outputs = {"found": None if found is None else element_to_json(found)}
        elif isinstance(instance, HiddenCosetInstance):
            if instance.planted_subgroup:
                raise InputError(
                    "shift search needs injective functions; plant with an empty subgroup")
            if not isinstance(instance.group.identity, Permutation):
                raise InputError("shift search runs over permutation groups")
            oracle = _program(BruteForceShiftOracle(), bug)
            outputs = {"shift": element_to_json(hsh_search_via_decision(instance, oracle))}
        else:
            raise InputError("search-via-decision expects an hsp, dihedral, or "
                             "hidden-shift instance")
    except OracleInconsistentError as exc:
        raise click.ClickException(f"search failed: {exc}")
    if emit_querylog:
        outputs["querylog"] = [{"index": list(e.index)} for e in oracle.call_log]
    _emit_report(ctx, outputs, {"decision_queries": oracle.calls, **_counters(instance)},
                 _digest(data))


@main.command("check")
@click.option("--in", "path", default="-")
@click.option("--program", "program_text", default="bruteforce")
@click.option("--flavor", type=click.Choice(["decision", "search"]), default="decision")
@click.option("--k", type=int, default=7)
@click.option("--runs", type=int, default=1)
@click.pass_context
def check_cmd(ctx, path, program_text, flavor, k, runs):
    """Certify a program's answer on this instance; repeat --runs times."""
    seed = ctx.obj["seed"]
    if k < 1:
        raise InputError(f"--k must be at least 1, got {k}")
    if runs < 1:
        raise InputError(f"--runs must be at least 1, got {runs}")
    data, instance = _load_and_verify(path, ctx.obj["cap"])
    with _input_errors():
        require_checkable(instance)
    per_run = []
    counts = {"CORRECT": 0, "BUGGY": 0}
    for run in range(runs):
        program = parse_program(program_text, flavor, seed + run)
        checker = checker_hspD if flavor == "decision" else checker_hsp
        verdict = checker(program, instance, k, seed=seed + run)
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
                 {"oracle_calls": sum(r["oracle_calls"] for r in per_run),
                  **_counters(instance)},
                 _digest(data))


@main.command("selftest")
@click.option("--suite", "suites", multiple=True,
              type=click.Choice(sorted(SUITES) + ["all"]), default=("all",))
@click.option("--max-degree", type=int, default=4)
@click.pass_context
def selftest_cmd(ctx, suites, max_degree):
    """Run the built-in property sweeps and report pass counts."""
    if max_degree < MIN_DEGREE:
        raise InputError(f"--max-degree must be at least {MIN_DEGREE}, got {max_degree}")
    if max_degree > MAX_DEGREE:
        raise InputError(f"--max-degree must be at most {MAX_DEGREE}, the largest degree "
                         f"the suites run; got {max_degree}")
    names = sorted(SUITES) if "all" in suites else list(suites)
    results = run_suites(names, max_degree=max_degree, seed=ctx.obj["seed"])
    outputs = {"suites": [
        {"suite": name,
         "properties": [{"name": r.name, "cases": r.cases, "failures": r.failures}
                        for r in rows]}
        for name, rows in results.items()]}
    failures = sum(r.failures for rows in results.values() for r in rows)
    _emit_report(ctx, outputs, {"total_failures": failures}, None)
    if failures:
        _log(f"{failures} property failures")
        raise SystemExit(1)


if __name__ == "__main__":
    main()
