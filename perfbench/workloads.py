"""The three benchmark workloads: seeded cases, the calls they make, and checks.

Each workload is a list of rounds, and a run completes whole rounds.  A
round holds the same mix of case kinds on every seed: all 156 subgroups of
S5, one trivial-S4 checker call, or one case of each README pipeline kind.
The seed varies only the inputs inside a kind (generating sets, conjugates,
shifts, checker seeds) and the order.  Expected answers come from
:mod:`reference` during set-up.

The library is reached through its module objects at call time
(``instances.plant_hsp``, not a name bound at import), so the traced run's
wrappers see every call the benchmark makes.
"""

from __future__ import annotations

import contextlib
import io
import json
import random
import sys
from dataclasses import dataclass, field
from typing import Callable

from cosetlab import checking, cli, groups, instances, perms, search_decision

import reference as ref

# Subgroup classes of S5, one generating set each; the conjugates of these
# representatives are all 156 subgroups of S5.
S5_CLASSES = {
    "trivial": [""], "c2": ["(1 2)"], "c2x": ["(1 2)(3 4)"], "c3": ["(1 2 3)"],
    "c4": ["(1 2 3 4)"], "v4": ["(1 2)", "(3 4)"], "v4n": ["(1 2)(3 4)", "(1 3)(2 4)"],
    "c5": ["(1 2 3 4 5)"], "c6": ["(1 2 3)(4 5)"], "s3": ["(1 2 3)", "(1 2)"],
    "s3x": ["(1 2 3)", "(1 2)(4 5)"], "d4": ["(1 2 3 4)", "(1 3)"],
    "d5": ["(1 2 3 4 5)", "(2 5)(3 4)"], "a4": ["(1 2 3)", "(1 2)(3 4)"],
    "d6": ["(1 2 3)(4 5)", "(1 2)"], "f20": ["(1 2 3 4 5)", "(2 3 5 4)"],
    "s4": ["(1 2 3 4)", "(1 2)"], "a5": ["(1 2 3)", "(1 2 3 4 5)"],
    "s5": ["(1 2)", "(1 2 3 4 5)"],
}
# Coset pipelines over S4 keep to subgroups of order at most 4: promise
# verification of the reduced instance is quadratic in its 2|H|^2-element
# kernel, and larger subgroups would swamp every other pipeline.
S4_SMALL_CLASSES = ["", "(1 2)", "(1 2)(3 4)", "(1 2 3)", "(1 2 3 4)",
                    "(1 2),(3 4)", "(1 2)(3 4),(1 3)(2 4)"]
S3_CLASSES = ["", "(1 2)", "(1 2 3)", "(1 2 3),(1 2)"]
TWO_ORBIT = (6, 2, 3)


@dataclass
class Case:
    kind: str
    inputs: object
    expected: object


@dataclass
class Outcome:
    ok: bool
    source_evals: int
    decision_calls: int = 0
    detail: str = ""


@dataclass
class Workload:
    name: str
    rounds: list[list[Case]]
    run_case: Callable[["Workload", Case], Outcome]
    state: dict = field(default_factory=dict)

    def schedule(self, index: int) -> list[Case]:
        """Round ``index``; the seeded pool repeats when a run outlasts it."""
        return self.rounds[index % len(self.rounds)]

    def run(self, case: Case) -> Outcome:
        return self.run_case(self, case)


def _cycle(choices: list, r: int):
    """Round ``r``'s pick: strata that vary inside a pipeline kind take turns
    by round, so every run holds the same mix whatever the seed."""
    return choices[r % len(choices)]


def _random_conjugate_gens(rng: random.Random, texts, n: int, pool) -> list[tuple]:
    s = rng.choice(pool)
    return [ref.conjugate(ref.perm_from_cycles(t, n), s) for t in texts]


def _random_generating_set(rng: random.Random, members: frozenset, identity: tuple,
                           count: int) -> list[tuple]:
    """``count`` random members that generate the whole group ``members``."""
    ordered = sorted(members)
    if len(ordered) == 1:
        return [identity]
    while True:
        gens = [rng.choice(ordered) for _ in range(count)]
        if ref.closure(gens, identity) == members:
            return gens


# -- search_s5 ------------------------------------------------------------------------


def _s5_subgroups() -> list[tuple[str, int, frozenset]]:
    """Every subgroup of S5 (156 of them) as (class, generator count, members)."""
    pool = ref.symmetric(5)
    e = ref.perm_identity(5)
    out = []
    for kind, texts in S5_CLASSES.items():
        rep = ref.closure([ref.perm_from_cycles(t, 5) for t in texts], e)
        seen = set()
        for s in pool:
            members = frozenset(ref.conjugate(h, s) for h in rep)
            if members not in seen:
                seen.add(members)
                out.append((kind, len(texts), members))
    return out


def make_search_s5(seed: int, rounds: int = 2) -> Workload:
    """A round plants every subgroup of S5 once, in seeded order, each with a
    seeded generating set of one or two elements.  A search costs the same
    for every generating set of one subgroup, so each round holds the same
    work whatever the seed."""
    rng = random.Random(f"search_s5:{seed}")
    e = ref.perm_identity(5)
    subgroups = _s5_subgroups()
    out = []
    for _ in range(rounds):
        cases = []
        for kind, count, members in subgroups:
            gens = _random_generating_set(rng, members, e, count)
            library_gens = tuple(perms.Permutation(g[1]) for g in gens)
            cases.append(Case(kind, library_gens, members))
        rng.shuffle(cases)
        out.append(cases)
    s5 = groups.symmetric_group(5)
    s5.elements()
    return Workload("search_s5", out, _run_search_s5,
                    {"group": s5, "identity": e, "oracle": checking.BruteForceDecisionOracle})


def _run_search_s5(w: Workload, case: Case) -> Outcome:
    inst = instances.plant_hsp(w.state["group"], case.inputs, instances.Side.LEFT)
    oracle = w.state["oracle"]()
    found = search_decision.hsp_search_via_decision(inst, oracle)
    members, e = case.expected, w.state["identity"]
    if len(members) == 1:
        ok, detail = found is None, f"found {found} in a trivial subgroup"
    else:
        got = None if found is None else ref.perm(found.images)
        ok = got is not None and got != e and got in members
        detail = f"found {found}, outside the planted subgroup or trivial"
    return Outcome(ok, inst.oracle.evaluations, oracle.calls, "" if ok else detail)


# -- checker_s4_trivial ---------------------------------------------------------------


def make_checker_s4_trivial(seed: int, rounds: int = 16) -> Workload:
    rng = random.Random(f"checker_s4_trivial:{seed}")
    out = [[Case("trivial-s4", rng.randrange(2 ** 31), "CORRECT")] for _ in range(rounds)]
    s4 = groups.symmetric_group(4)
    s4.elements()
    return Workload("checker_s4_trivial", out, _run_checker,
                    {"group": s4, "oracle": checking.BruteForceDecisionOracle})


def _run_checker(w: Workload, case: Case) -> Outcome:
    inst = instances.plant_hsp(w.state["group"], (), instances.Side.LEFT)
    verdict = checking.checker_hspD(w.state["oracle"](), inst, k=1, seed=case.inputs)
    ok = verdict.verdict == case.expected
    return Outcome(ok, inst.oracle.evaluations, verdict.oracle_calls,
                   "" if ok else f"verdict {verdict.verdict}")


# -- cli_pipelines ----------------------------------------------------------------------


def run_command(args: list[str], stdin_text: str) -> str:
    """One in-process ``cosetlab`` invocation; returns its stdout."""
    saved = sys.stdin, sys.argv
    sys.stdin, sys.argv = io.StringIO(stdin_text), ["cosetlab", *args]
    out = io.StringIO()
    try:
        with contextlib.redirect_stdout(out):
            cli.main.main(args=args, prog_name="cosetlab", standalone_mode=False)
    finally:
        sys.stdin, sys.argv = saved
    return out.getvalue()


def _coset_case(rng: random.Random, r: int, group: str) -> Case:
    """plant coset -> reduce -> solve, with a random subgroup and shift."""
    if group.startswith("z"):
        n = int(group[1:])
        d = _cycle([d for d in range(1, n + 1) if n % d == 0], r)
        text = "" if d == n else str(d)
        e = ref.residue(n, 0)
        members = ref.closure([ref.residue(n, d)], e)
        value = rng.randrange(n)
        shift, shift_text = ref.residue(n, value), str(value)
    else:
        n = int(group[1:])
        classes = S3_CLASSES if n == 3 else S4_SMALL_CLASSES
        pool = ref.symmetric(n)
        e = ref.perm_identity(n)
        gens = _random_conjugate_gens(rng, _cycle(classes, r).split(","), n, pool)
        members = ref.closure(gens, e)
        text = ",".join(ref.cycles_text(g) for g in gens if g != e)
        shift = rng.choice(pool)
        shift_text = ref.cycles_text(shift)
    commands = [["plant", "coset", "--group", group, "--subgroup", text,
                 "--shift", shift_text], ["reduce"], ["solve"]]
    expected = ("kernel", ref.coset_pair_kernel(members, shift), ref.wreath((e, e), 0))
    return Case(f"coset-{group}", commands, expected)


def _ghsh_case(rng: random.Random, r: int) -> Case:
    n, copies = _cycle([(3, 3), (4, 2)], r)
    u = rng.choice(ref.symmetric(n))
    e = ref.perm_identity(n)
    commands = [["plant", "ghsh", "--group", f"s{n}", "--shift", ref.cycles_text(u),
                 "--copies", str(copies)], ["reduce"], ["solve"]]
    expected = ("kernel", ref.shift_chain_kernel(u, copies, e), ref.wreath((e,) * copies, 0))
    return Case("ghsh", commands, expected)


def _orbit_case(rng: random.Random, r: int) -> Case:
    n, a, b = TWO_ORBIT
    act = ref.two_orbit_action(n, a, b)
    phi1 = rng.randrange(a + b)
    if r % 2:
        v = rng.randrange(n)
        shift_text, phi0 = str(v), act(v, phi1)
    else:
        shift_text, phi0 = "none", (a if phi1 < a else 0)
    commands = [["plant", "orbit-coset", "--action", f"two-orbit:{n}:{a}:{b}",
                 "--phi1", str(phi1), "--shift", shift_text], ["reduce"], ["solve"]]
    e = ref.residue(n, 0)
    expected = ("kernel", ref.orbit_pair_kernel(n, act, phi0, phi1), ref.wreath((e, e), 0))
    return Case("orbit-coset", commands, expected)


def _dihedral_case(rng: random.Random) -> Case:
    a = rng.randrange(360)
    commands = [["plant", "hsp", "--group", "d360", "--subgroup", f"r{a}s"],
                ["search-via-decision", "--smooth-bound", "5"]]
    return Case("dihedral-d360", commands, ("shift_exponent", a))


def _shift_case(rng: random.Random) -> Case:
    u = rng.choice(ref.symmetric(5))
    commands = [["plant", "coset", "--group", "s5", "--subgroup", "",
                 "--shift", ref.cycles_text(u)], ["search-via-decision"]]
    return Case("hidden-shift-s5", commands, ("shift", u))


def _check_case(rng: random.Random, r: int) -> Case:
    pool = ref.symmetric(3)
    gens = _random_conjugate_gens(rng, _cycle(S3_CLASSES[1:], r).split(","), 3, pool)
    text = ",".join(ref.cycles_text(g) for g in gens)
    commands = [["plant", "hsp", "--group", "s3", "--subgroup", text],
                ["--seed", str(rng.randrange(2 ** 31)), "check",
                 "--program", "buggy:always-trivial", "--k", "7"]]
    return Case("check-buggy", commands, ("verdict", "BUGGY"))


def make_cli_pipelines(seed: int, rounds: int = 64) -> Workload:
    rng = random.Random(f"cli_pipelines:{seed}")
    # Three dihedral searches a round, with about four cheaper and four dearer
    # pipelines around them, keep the median case inside one pipeline kind, so
    # case_s_p50 does not jump between kinds from run to run.
    out = []
    for r in range(rounds):
        out.append([_coset_case(rng, r, "z4"), _coset_case(rng, r, "z6"),
                    _coset_case(rng, r, "s3"), _coset_case(rng, r, "s4"),
                    _ghsh_case(rng, r), _orbit_case(rng, r), _dihedral_case(rng),
                    _dihedral_case(rng), _dihedral_case(rng),
                    _shift_case(rng), _check_case(rng, r)])
    return Workload("cli_pipelines", out, _run_cli)


def _run_cli(w: Workload, case: Case) -> Outcome:
    stdin_text = ""
    evals = 0
    for args in case.inputs:
        report = json.loads(run_command(args, stdin_text))
        evals += report["counters"].get("oracle_evaluations", 0)
        outputs = report["outputs"]
        if "instance" in outputs:
            stdin_text = json.dumps(outputs["instance"])
    what = case.expected[0]
    if what == "kernel":
        _, members, identity = case.expected
        got = ref.closure([ref.from_json(g) for g in outputs["subgroup_generators"]],
                          identity)
        ok = got == members
    elif what == "shift":
        ok = ref.from_json(outputs["shift"]) == case.expected[1]
    else:
        ok = outputs[what] == case.expected[1]
    detail = "" if ok else f"{case.kind}: output {what} disagrees with the planted spec"
    return Outcome(ok, evals, 0, detail)


MAKERS = {"search_s5": make_search_s5,
          "checker_s4_trivial": make_checker_s4_trivial,
          "cli_pipelines": make_cli_pipelines}
