"""Acceptance suite: one test per criterion, each printing a pass line.

Run with ``pytest tests/test_acceptance.py -v -s``.  Expected values come
from brute-force enumeration computed inside each test, never from the code
paths under check.
"""

import itertools
import random
import time

from cosetlab.checking import (BruteForceDecisionOracle, BruteForceShiftOracle,
                               BruteSearchProgram, BugSpec, brute_hsp_solve,
                               checker_hsp, checker_hspD, wrap_buggy)
from cosetlab.groups import (CyclicElement, DihedralElement, TupleElement,
                             WreathElement, close_under_op, cyclic_group,
                             dihedral_group, element_key, element_pow, group_op,
                             invert, symmetric_group, wreath_embed, wreath_group)
from cosetlab.instances import (GroupAction, Side, plant_coset, plant_ghsh,
                                plant_hsp, plant_orbit_coset, verify_promise)
from cosetlab.perms import Permutation, build_stabilizer_chain, compose
from cosetlab.reductions import (ghsh_to_hsp, hidden_coset_to_hsp,
                                 orbit_coset_to_hsp, recover_coset_solution,
                                 recover_ghsh_functions, recover_orbit_solution)
from cosetlab.search_decision import (build_hsp_search_plan,
                                      dihedral_search_via_decision,
                                      finish_hsp_search, hsh_search_via_decision,
                                      hsp_search_via_decision)


def keys(elems):
    return {element_key(g) for g in elems}


def all_subgroups(group):
    """Every distinct subgroup generated by at most two elements (covers the
    full subgroup lattice for the groups used here)."""
    elems = group.elements()
    out = {}
    for a in elems:
        for b in elems:
            closure = close_under_op([a, b], group.identity)
            out.setdefault(tuple(sorted(keys(closure))), (a, b))
    return list(out.items())


def random_perm(n, rng):
    images = list(range(1, n + 1))
    rng.shuffle(images)
    return Permutation(tuple(images))


def test_criterion_1_hidden_coset_round_trip():
    started = time.monotonic()
    cases = 0
    for group in (cyclic_group(4), cyclic_group(6), symmetric_group(3)):
        for sub_keys, gens in all_subgroups(group):
            sub_elems = close_under_op(gens, group.identity)
            for u in group.elements():
                source = plant_coset(group, gens, u)
                reduced = hidden_coset_to_hsp(source)
                recovered, u2 = recover_coset_solution(brute_hsp_solve(reduced))
                assert keys(close_under_op(recovered, group.identity)) \
                    == set(sub_keys)
                coset = {element_key(group_op(h, u)) for h in sub_elems}
                coset2 = {element_key(group_op(h, u2)) for h in sub_elems}
                assert element_key(u2) in coset and coset2 == coset
                cases += 1
    elapsed = time.monotonic() - started
    assert elapsed < 60
    print(f"PASS criterion 1: hidden-coset round trip, {cases} cases, "
          f"0 failures, {elapsed:.1f}s")


def test_criterion_2_shift_chain_embedding():
    started = time.monotonic()
    cases = 0
    for m in (4, 5, 6):
        group = cyclic_group(m)
        for copies in (2, 3):
            for u in group.elements():
                source = plant_ghsh(group, u, copies)
                reduced = ghsh_to_hsp(source)
                slots = tuple([u] * (copies - 1) + [element_pow(u, 1 - copies)])
                generator = WreathElement(slots, 1)
                generated = close_under_op([generator], reduced.group.identity)
                kernel = reduced.kernel()
                assert len(kernel) == copies
                assert keys(kernel) == keys(generated)
                F = recover_ghsh_functions(reduced)
                for i in range(1, copies + 1):
                    for g in group.elements():
                        assert F(i, g) == source.F(i, g)
                cases += 1
    elapsed = time.monotonic() - started
    assert elapsed < 60
    print(f"PASS criterion 2: shift-chain embedding, {cases} cases, "
          f"0 failures, {elapsed:.1f}s")


def _cyclic_action(n):
    group = cyclic_group(n)
    return GroupAction(group, tuple(f"s{i}" for i in range(n)),
                       (tuple((s + 1) % n for s in range(n)),))


def _two_orbit_action(n, a, b):
    group = cyclic_group(n)
    row = tuple([(s + 1) % a for s in range(a)]
                + [a + ((s + 1) % b) for s in range(b)])
    states = tuple([f"a{i}" for i in range(a)] + [f"b{i}" for i in range(b)])
    return GroupAction(group, states, (row,))


def test_criterion_3_orbit_coset_recovery():
    started = time.monotonic()
    instances = []
    for n in (4, 6, 8, 12):
        act = _cyclic_action(n)
        for shift in (0, 1, n // 2):
            instances.append((act, plant_orbit_coset(act, 0, CyclicElement(n, shift))))
    for (n, a, b) in ((4, 4, 2), (6, 3, 2), (6, 6, 3), (12, 4, 3), (12, 6, 2)):
        act = _two_orbit_action(n, a, b)
        instances.append((act, plant_orbit_coset(act, 0, None)))
        instances.append((act, plant_orbit_coset(act, 0, CyclicElement(n, 1))))
        instances.append((act, plant_orbit_coset(act, a, None)))
    assert len(instances) >= 20
    for act, inst in instances:
        reduced = orbit_coset_to_hsp(inst)
        shift, stab = recover_orbit_solution(brute_hsp_solve(reduced), inst)
        expected_stab = keys(act.stabilizer_elements(inst.phi1))
        assert keys(close_under_op(stab, act.group.identity)) == expected_stab
        if inst.orbits_intersect():
            assert shift is not None
            assert act.act(shift, inst.phi1) == inst.phi0
        else:
            assert shift is None
    elapsed = time.monotonic() - started
    assert elapsed < 30
    print(f"PASS criterion 3: orbit-coset recovery, {len(instances)} instances, "
          f"0 failures, {elapsed:.1f}s")


def _run_search_case(group, gens, n):
    hidden = keys(close_under_op(gens, group.identity))
    inst = plant_hsp(group, gens, Side.LEFT)
    plan = build_hsp_search_plan(inst)
    assert len(plan.batch.records) <= n ** 5
    oracle = BruteForceDecisionOracle()
    answers = plan.batch.run(oracle)
    assert max(r.created_stamp for r in plan.batch.records) < plan.batch.sealed_stamp
    assert plan.batch.sealed_stamp < min(e.stamp for e in oracle.call_log)
    found = finish_hsp_search(plan, answers)
    if len(hidden) == 1:
        assert found is None
    else:
        assert found is not None and not found.is_identity()
        assert element_key(found) in hidden


def test_criterion_4_search_to_decision_truth_table():
    started = time.monotonic()
    cases = 0
    for group, n in ((symmetric_group(3), 3), (symmetric_group(4), 4)):
        for _, gens in all_subgroups(group):
            _run_search_case(group, gens, n)
            cases += 1
    s5 = symmetric_group(5)
    elems = s5.elements()
    rng = random.Random(2024)
    for _ in range(100):
        gens = tuple(rng.choice(elems) for _ in range(rng.randint(1, 2)))
        _run_search_case(s5, gens, 5)
        cases += 1
    elapsed = time.monotonic() - started
    assert elapsed < 600
    print(f"PASS criterion 4: search via decision (truth table), {cases} cases, "
          f"0 failures, {elapsed:.1f}s")


def test_criterion_5_hidden_shift_search():
    started = time.monotonic()
    cases = 0
    for group, n in ((symmetric_group(3), 3), (symmetric_group(4), 4)):
        chain = build_stabilizer_chain(group.generators, n)
        sizes = {i: len(chain.transversal(i)) for i in range(1, n + 1)}
        elems = group.elements()
        rng = random.Random(71 + n)
        for _ in range(50):
            u = rng.choice(elems)
            source = plant_coset(group, (), u)
            oracle = BruteForceShiftOracle()
            got = hsh_search_via_decision(group, source.f1, source.f2, oracle)
            assert got == u
            per_level = {}
            for entry in oracle.call_log:
                per_level[entry.index[0]] = per_level.get(entry.index[0], 0) + 1
            for level, count in per_level.items():
                assert count <= 1 + sizes[level]
            cases += 1
    elapsed = time.monotonic() - started
    assert elapsed < 60
    print(f"PASS criterion 5: hidden-shift search via decision, {cases} cases, "
          f"0 failures, {elapsed:.1f}s")


def test_criterion_6_smooth_dihedral_search():
    started = time.monotonic()
    expected_queries = {12: 7, 60: 12, 360: 17}
    cases = 0
    for n, bound in ((12, 5), (60, 5), (360, 5)):
        group = dihedral_group(n)
        for a in range(n):
            inst = plant_hsp(group, (DihedralElement(n, a, 1),), Side.LEFT)
            oracle = BruteForceDecisionOracle()
            got = dihedral_search_via_decision(inst, bound, oracle)
            assert got == a
            assert oracle.calls == expected_queries[n]
            cases += 1
    elapsed = time.monotonic() - started
    assert elapsed < 60
    print(f"PASS criterion 6: smooth dihedral search, {cases} cases, "
          f"0 failures, {elapsed:.1f}s")


def _checker_corpus():
    """100 planted instances cycling through every subgroup of S3 and S4."""
    pool = []
    for group in (symmetric_group(3), symmetric_group(4)):
        for _, gens in all_subgroups(group):
            pool.append((group, gens))
    corpus = []
    index = 0
    while len(corpus) < 100:
        corpus.append(pool[index % len(pool)])
        index += 1
    return corpus


def test_criterion_7_checker_completeness():
    started = time.monotonic()
    correct_d = correct_s = 0
    for run, (group, gens) in enumerate(_checker_corpus()):
        inst = plant_hsp(group, gens, Side.LEFT)
        verdict_d = checker_hspD(BruteForceDecisionOracle(), inst, k=7, seed=run)
        verdict_s = checker_hsp(BruteSearchProgram(), inst, k=7, seed=run)
        correct_d += verdict_d.verdict == "CORRECT"
        correct_s += verdict_s.verdict == "CORRECT"
    assert correct_d == 100
    assert correct_s == 100
    elapsed = time.monotonic() - started
    print(f"PASS criterion 7: checker completeness, decision {correct_d}/100, "
          f"search {correct_s}/100, {elapsed:.1f}s")


def test_criterion_8_checker_soundness():
    started = time.monotonic()
    s3 = symmetric_group(3)
    nontrivial = plant_hsp(s3, (Permutation((2, 1, 3)),), Side.LEFT)
    buggy = 0
    for run in range(100):
        program = wrap_buggy(BruteForceDecisionOracle(), BugSpec("always_trivial"))
        verdict = checker_hspD(program, nontrivial, k=7, seed=run)
        buggy += verdict.verdict == "BUGGY"
    # per-run bound 1 - 2^-7, threshold three sigma below the mean
    assert buggy >= 96

    trivial = plant_hsp(s3, (), Side.LEFT)
    buggy_n = 0
    for run in range(100):
        program = wrap_buggy(BruteForceDecisionOracle(),
                             BugSpec("always_nontrivial"))
        verdict = checker_hspD(program, trivial, k=7, seed=run)
        buggy_n += verdict.verdict == "BUGGY"
    assert buggy_n == 100
    elapsed = time.monotonic() - started
    print(f"PASS criterion 8: checker soundness, always-trivial {buggy}/100 BUGGY, "
          f"always-nontrivial {buggy_n}/100 BUGGY, {elapsed:.1f}s")


def test_criterion_9_algebra_suite():
    started = time.monotonic()
    rng = random.Random(5150)

    s4 = [Permutation(tuple(p)) for p in itertools.permutations(range(1, 5))]
    pools = {
        "perm": s4,
        "cyclic": [CyclicElement(12, v) for v in range(12)],
        "dihedral": [DihedralElement(9, r, f) for r in range(9) for f in (0, 1)],
        "wreath": [WreathElement((rng.choice(s4), rng.choice(s4)), t)
                   for t in (0, 1) for _ in range(40)],
        "tuple": [TupleElement((CyclicElement(6, rng.randrange(6)),
                                rng.choice(s4))) for _ in range(40)],
    }
    for shape, pool in pools.items():
        for _ in range(1000):
            x, y, z = rng.choice(pool), rng.choice(pool), rng.choice(pool)
            assert group_op(group_op(x, y), z) == group_op(x, group_op(y, z)), shape

    wr = wreath_group(symmetric_group(3), 2)
    elems = wr.elements()
    embedded = {w: wreath_embed(w) for w in elems}
    for x in elems:
        for y in elems:
            assert compose(embedded[x], embedded[y]) == wreath_embed(group_op(x, y))

    def brute_closure(gens, n):
        out = {tuple(range(1, n + 1))}
        frontier = list(out)
        while frontier:
            nxt = []
            for a in frontier:
                for g in gens:
                    b = tuple(g.images[x - 1] for x in a)
                    if b not in out:
                        out.add(b)
                        nxt.append(b)
            frontier = nxt
        return out

    factor_checked = 0
    for _ in range(50):
        gens = [random_perm(6, rng) for _ in range(rng.randint(1, 2))]
        chain = build_stabilizer_chain(gens, 6)
        assert chain.order == len(brute_closure(gens, 6))
        if chain.order <= 1000:
            elems = list(chain.elements())
            assert len({e.images for e in elems}) == chain.order
            for p in elems:
                factors = chain.factor(p)
                acc = Permutation.identity(6)
                for f in factors:
                    acc = compose(acc, f)
                assert acc == p
            factor_checked += 1
    assert factor_checked > 0
    elapsed = time.monotonic() - started
    assert elapsed < 120
    print(f"PASS criterion 9: algebra suite, 0 failures, "
          f"{factor_checked} factorization groups, {elapsed:.1f}s")
