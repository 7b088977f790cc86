"""Built-in property sweeps runnable from the command line.

Each suite replays the named construction against brute-force enumeration on
small groups and reports case/failure counts; the test suite covers the same
ground more exhaustively.
"""

from __future__ import annotations

import itertools
import random
from dataclasses import dataclass

from .checking import (BruteForceDecisionOracle, BruteForceShiftOracle, BugSpec,
                       brute_hsp_solve, checker_hspD, wrap_buggy)
from .groups import (DihedralElement, FiniteGroup, close_under_op, cyclic_group,
                     dihedral_group, element_key, group_op, symmetric_group,
                     wreath_embed, wreath_group)
from .instances import Side, plant_coset, plant_ghsh, plant_hsp, verify_promise
from .perms import Permutation, build_stabilizer_chain, compose
from .reductions import (ghsh_to_hsp, hidden_coset_to_hsp, recover_coset_solution,
                         recover_ghsh_functions)
from .search_decision import (dihedral_search_via_decision, hsh_search_via_decision,
                              hsp_search_via_decision)


@dataclass(frozen=True)
class PropertyResult:
    name: str
    cases: int
    failures: int


def _random_perm(n: int, rng: random.Random) -> Permutation:
    images = list(range(1, n + 1))
    rng.shuffle(images)
    return Permutation(tuple(images))


def _subgroups(group: FiniteGroup) -> list[tuple]:
    """Distinct subgroups as sorted element-key tuples, from one- and
    two-generator closures (enough for the groups used here)."""
    elems = group.elements()
    seen = set()
    out = []
    for a, b in itertools.product(elems, repeat=2):
        closure = close_under_op([a, b], group.identity)
        key = tuple(sorted(element_key(g) for g in closure))
        if key not in seen:
            seen.add(key)
            out.append((key, [a, b]))
    return out


# The degrees a suite can run: the chain check clamps to this range and the
# search suite stops at 4, so a larger --max-degree would change nothing.
MIN_DEGREE, MAX_DEGREE = 3, 6


def run_algebra_suite(max_degree: int, seed: int) -> list[PropertyResult]:
    rng = random.Random(seed)
    results = []

    cases = failures = 0
    s3 = symmetric_group(3)
    wr = wreath_group(s3, 2)
    pool = wr.elements()
    for _ in range(300):
        x, y, z = rng.choice(pool), rng.choice(pool), rng.choice(pool)
        cases += 1
        if group_op(group_op(x, y), z) != group_op(x, group_op(y, z)):
            failures += 1
    results.append(PropertyResult("wreath-associativity", cases, failures))

    cases = failures = 0
    for _ in range(400):
        x, y = rng.choice(pool), rng.choice(pool)
        cases += 1
        if wreath_embed(group_op(x, y)) != compose(wreath_embed(x), wreath_embed(y)):
            failures += 1
    results.append(PropertyResult("doubled-point-embedding-homomorphism", cases, failures))

    cases = failures = 0
    n = max(MIN_DEGREE, min(max_degree, MAX_DEGREE))
    for _ in range(12):
        gens = [_random_perm(n, rng) for _ in range(2)]
        chain = build_stabilizer_chain(gens, n)
        brute = close_under_op(gens, Permutation.identity(n))
        cases += 1
        if chain.order != len(brute):
            failures += 1
    results.append(PropertyResult("stabilizer-chain-order-vs-closure", cases, failures))
    return results


def run_reductions_suite(max_degree: int, seed: int) -> list[PropertyResult]:
    results = []

    cases = failures = 0
    for group in (cyclic_group(4), symmetric_group(3)):
        elems = group.elements()
        subgroup_gens = {tuple(sorted(element_key(x) for x in
                               close_under_op([a], group.identity))): [a]
                         for a in elems}
        for gens in subgroup_gens.values():
            for u in elems:
                hc = plant_coset(group, gens, u)
                reduced = hidden_coset_to_hsp(hc)
                k_gens = brute_hsp_solve(reduced)
                sub, u2 = recover_coset_solution(k_gens)
                sub_elems = close_under_op(gens, group.identity)
                want = {element_key(g) for g in sub_elems}
                got = {element_key(g)
                       for g in close_under_op(sub, group.identity)}
                coset = {element_key(group_op(h, u)) for h in sub_elems}
                cases += 1
                if got != want or element_key(u2) not in coset:
                    failures += 1
    results.append(PropertyResult("hidden-coset-round-trip", cases, failures))

    cases = failures = 0
    for m in (4, 5):
        group = cyclic_group(m)
        for copies in (2, 3):
            for u in group.elements():
                inst = plant_ghsh(group, u, copies)
                reduced = ghsh_to_hsp(inst)
                kernel = reduced.kernel()
                want = close_under_op(reduced.planted_subgroup, reduced.group.identity)
                F = recover_ghsh_functions(reduced)
                ok = ({element_key(g) for g in kernel}
                      == {element_key(g) for g in want}
                      and len(kernel) == copies
                      and all(F(i, g) == inst.F(i, g)
                              for i in range(1, copies + 1)
                              for g in group.elements()))
                cases += 1
                if not ok or not verify_promise(reduced):
                    failures += 1
    results.append(PropertyResult("shift-chain-embedding", cases, failures))
    return results


def run_search_suite(max_degree: int, seed: int) -> list[PropertyResult]:
    results = []

    cases = failures = 0
    degrees = [3] + ([4] if max_degree >= 4 else [])
    for n in degrees:
        group = symmetric_group(n)
        for _, gens in _subgroups(group):
            inst = plant_hsp(group, gens, Side.LEFT)
            hidden = close_under_op(gens, group.identity)
            found = hsp_search_via_decision(inst, BruteForceDecisionOracle())
            cases += 1
            if len(hidden) == 1:
                if found is not None:
                    failures += 1
            elif (found is None or found.is_identity()
                  or element_key(found) not in {element_key(g) for g in hidden}):
                failures += 1
    results.append(PropertyResult("search-via-decision-vs-planted", cases, failures))

    cases = failures = 0
    group = symmetric_group(3)
    for u in group.elements():
        hc = plant_coset(group, (), u)
        got = hsh_search_via_decision(group, hc.f1, hc.f2, BruteForceShiftOracle())
        cases += 1
        if got != u:
            failures += 1
    results.append(PropertyResult("shift-search-via-decision", cases, failures))

    cases = failures = 0
    for a in range(12):
        inst = plant_hsp(dihedral_group(12), (DihedralElement(12, a, 1),), Side.LEFT)
        oracle = BruteForceDecisionOracle()
        got = dihedral_search_via_decision(inst, 5, oracle)
        cases += 1
        if got != a or oracle.calls != 7:
            failures += 1
    results.append(PropertyResult("smooth-dihedral-residue-climb", cases, failures))
    return results


def run_checkers_suite(max_degree: int, seed: int) -> list[PropertyResult]:
    results = []
    group = symmetric_group(3)
    nontrivial = plant_hsp(group, (Permutation((2, 1, 3)),), Side.LEFT)
    trivial = plant_hsp(group, (), Side.LEFT)

    cases = failures = 0
    for inst in (nontrivial, trivial):
        verdict = checker_hspD(BruteForceDecisionOracle(), inst, k=4, seed=seed)
        cases += 1
        if verdict.verdict != "CORRECT":
            failures += 1
    results.append(PropertyResult("decision-checker-completeness", cases, failures))

    cases = failures = 0
    for run in range(20):
        bad = wrap_buggy(BruteForceDecisionOracle(), BugSpec("always_trivial"))
        verdict = checker_hspD(bad, nontrivial, k=4, seed=seed + run)
        cases += 1
        if verdict.verdict != "BUGGY":
            failures += 1
    results.append(PropertyResult("decision-checker-soundness", cases, failures))
    return results


SUITES = {
    "algebra": run_algebra_suite,
    "reductions": run_reductions_suite,
    "search": run_search_suite,
    "checkers": run_checkers_suite,
}


def run_suites(names, max_degree: int = 4, seed: int = 0) -> dict[str, list[PropertyResult]]:
    out = {}
    for name in names:
        if name not in SUITES:
            raise ValueError(f"unknown suite {name!r}; choose from {sorted(SUITES)}")
        out[name] = SUITES[name](max_degree, seed)
    return out
