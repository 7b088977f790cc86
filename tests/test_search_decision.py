import random

import pytest

from cosetlab.checking import (BruteForceDecisionOracle, BruteForceShiftOracle,
                               BruteSearchProgram, BugSpec, _translated_instance,
                               brute_decide, checker_hsp, checker_hspD, wrap_buggy)
from cosetlab.groups import (DihedralElement, FiniteGroup, close_under_op,
                             cyclic_group, dihedral_group, element_key, group_op,
                             invert, symmetric_group, wreath_group)
from cosetlab.instances import HspInstance, Side, plant_coset, plant_hsp
from cosetlab.perms import build_stabilizer_chain, parse_cycles
from cosetlab.reductions import (GammaSetStabilizer, PairedOracle, StructuredHspInstance,
                                 embed_wreath_group)
from cosetlab.search_decision import (DecisionAnswer, NoShiftError, NotSmoothError,
                                      OracleInconsistentError,
                                      build_hsp_search_plan, crt_combine,
                                      dihedral_search_via_decision,
                                      finish_hsp_search, hsh_search_via_decision,
                                      hsp_search_via_decision, memoized_labels,
                                      reconstruct_from_answers, smooth_factorize)


def keys(elems):
    return {element_key(g) for g in elems}


def subgroups_of(group):
    elems = group.elements()
    out = {}
    for a in elems:
        for b in elems:
            closure = close_under_op([a, b], group.identity)
            out.setdefault(tuple(sorted(keys(closure))), (a, b))
    return list(out.values())


def test_batch_size_formula():
    s4 = symmetric_group(4)
    inst = plant_hsp(s4, (), Side.LEFT)
    plan = build_hsp_search_plan(inst)
    n = 4
    expected = sum((n - i) ** 2 * (n - i + 1) ** 2 for i in range(1, n + 1))
    assert len(plan.batch.records) == expected
    assert expected <= n ** 5


def test_search_examples():
    s3 = symmetric_group(3)
    rot = parse_cycles("(1 2 3)", 3)
    inst = plant_hsp(s3, (rot,), Side.LEFT)
    found = hsp_search_via_decision(inst, BruteForceDecisionOracle())
    assert element_key(found) in keys([rot, invert(rot)])

    trivial = plant_hsp(s3, (), Side.LEFT)
    assert hsp_search_via_decision(trivial, BruteForceDecisionOracle()) is None

    s4 = symmetric_group(4)
    swap34 = parse_cycles("(3 4)", 4)
    inst4 = plant_hsp(s4, (swap34,), Side.LEFT)
    plan = build_hsp_search_plan(inst4)
    answers = plan.batch.run(BruteForceDecisionOracle())
    hits = [idx for idx, ans in answers.items() if ans is DecisionAnswer.NONTRIVIAL]
    assert max(idx[0] for idx in hits) == 3
    assert {(j, j2) for (i, j, j2, _, _) in hits if i == 3} == {(4, 4)}
    assert finish_hsp_search(plan, answers) == swap34


def test_search_nonadaptive_and_order_independent():
    s3 = symmetric_group(3)
    inst = plant_hsp(s3, (parse_cycles("(1 2)", 3),), Side.LEFT)
    plan = build_hsp_search_plan(inst)
    created = [r.created_stamp for r in plan.batch.records]
    oracle = BruteForceDecisionOracle()
    answers = plan.batch.run(oracle)
    assert max(created) < plan.batch.sealed_stamp
    assert plan.batch.sealed_stamp < min(e.stamp for e in oracle.call_log)

    found = reconstruct_from_answers(3, answers)
    shuffled_items = list(answers.items())
    random.Random(4).shuffle(shuffled_items)
    assert reconstruct_from_answers(3, dict(shuffled_items)) == found


def test_claim_pattern_at_critical_level_s4_subgroups():
    s4 = symmetric_group(4)
    n = 4
    for gens in subgroups_of(s4):
        hidden = close_under_op(gens, s4.identity)
        if len(hidden) == 1:
            continue
        inst = plant_hsp(s4, gens, Side.LEFT)
        plan = build_hsp_search_plan(inst)
        answers = plan.batch.run(BruteForceDecisionOracle())
        # critical level: least i whose pointwise stabilizer inside the
        # hidden subgroup collapses to the identity
        def fixes(h, upto):
            return all(h.apply(x) == x for x in range(1, upto + 1))
        crit = next(i for i in range(n + 1)
                    if sum(1 for h in hidden if fixes(h, i)) == 1)
        level_hidden = [h for h in hidden if fixes(h, crit - 1)]
        for (i, j, j2, k, ell), ans in answers.items():
            if i != crit:
                continue
            expect = any(h.apply(i) == j and h.apply(j2) == i and h.apply(k) == ell
                         for h in level_hidden)
            assert (ans is DecisionAnswer.NONTRIVIAL) == expect, (i, j, j2, k, ell)
        hits = [idx for idx, ans in answers.items()
                if ans is DecisionAnswer.NONTRIVIAL]
        assert max(idx[0] for idx in hits) == crit


def test_search_matches_planted_truth_s3_s4():
    for group in (symmetric_group(3), symmetric_group(4)):
        for gens in subgroups_of(group):
            hidden = keys(close_under_op(gens, group.identity))
            inst = plant_hsp(group, gens, Side.LEFT)
            found = hsp_search_via_decision(inst, BruteForceDecisionOracle())
            if len(hidden) == 1:
                assert found is None
            else:
                assert found is not None and not found.is_identity()
                assert element_key(found) in hidden


def test_nested_plan_queries_match_flat_constraints():
    """Each query nests on the prefix instance of its (i, j, j'); its answer
    must equal that of the query built with all three constraints flat."""
    instances = [plant_hsp(group, gens, Side.LEFT)
                 for group in (symmetric_group(3), symmetric_group(4))
                 for gens in subgroups_of(group)]
    s3 = symmetric_group(3)
    chain = build_stabilizer_chain(s3.generators, 3)
    label = memoized_labels(plant_hsp(s3, (), Side.LEFT).oracle)
    instances.append(_translated_instance(label, random.Random(5), chain,
                                          embed_wreath_group(wreath_group(s3, 2)))[1])
    seen = set()
    for inst in instances:
        plan = build_hsp_search_plan(inst)
        n = plan.instance.group.identity.degree
        for record in plan.batch.records:
            i, j, j2, k, ell = record.index
            level = record.instance.base.base
            flat = StructuredHspInstance(level, (
                GammaSetStabilizer(frozenset({(i, 1), (j, 2)})),
                GammaSetStabilizer(frozenset({(i, 2), (j2, 1)})),
                GammaSetStabilizer(frozenset({(k, 1), (ell, 2)}))))
            answer = brute_decide(record.instance)
            assert answer is brute_decide(flat), record.index
            seen.add(answer)
    assert seen == set(DecisionAnswer)


def _reference_queries(n):
    """The plan's queries written out from the definition: index tuple, the
    two prefix pair sets, the last pair set, in query order."""
    for i in range(1, n + 1):
        for j in range(i + 1, n + 1):
            for j2 in range(i + 1, n + 1):
                for k in range(i, n + 1):
                    for ell in range(i, n + 1):
                        yield ((i, j, j2, k, ell),
                               ({(i, 1), (j, 2)}, {(i, 2), (j2, 1)}), {(k, 1), (ell, 2)})


def _plan_queries(plan):
    return [(r.index, tuple(set(c.pairs) for c in r.instance.base.constraints),
             set(r.instance.constraints[0].pairs)) for r in plan.batch.records]


def _trial_instances(group, seeds):
    """Seeded flattened translate-trial instances of the trivial instance,
    sharing one flattened group as the checkers' trials do."""
    n = group.identity.degree
    chain = build_stabilizer_chain(group.generators, n)
    flat_group = embed_wreath_group(wreath_group(group, 2))
    trivial = plant_hsp(group, (), Side.LEFT)
    label = memoized_labels(trivial.oracle)
    return flat_group, [_translated_instance(label, random.Random(seed), chain,
                                             flat_group)[1] for seed in seeds]


def _over_fresh_group(inst):
    """The instance's oracle over a separate copy of its group, whose plan
    levels are built afresh."""
    g = inst.group
    copy = FiniteGroup(g.generators, g.identity, g.name, g.elements_hint, g.known_order)
    return HspInstance(copy, inst.oracle, inst.side)


def test_shared_skeleton_plans_match_fresh_plans():
    """One set of plan levels per group serves every instance over it: the
    same queries in the same order as the definition and as a plan over a
    separate group object, and on S3 the same answers, so no instance's
    kernel leaks into another's plan."""
    families = []
    for group in (symmetric_group(3), symmetric_group(4)):
        families.append((group, [plant_hsp(group, gens, Side.LEFT)
                                 for gens in subgroups_of(group)], group.order() == 6))
    families.append((*_trial_instances(symmetric_group(3), (0, 1, 2)), True))
    for group, insts, decide in families:
        expected = list(_reference_queries(group.identity.degree))
        for inst in insts:
            shared = build_hsp_search_plan(inst)
            fresh = build_hsp_search_plan(_over_fresh_group(inst))
            assert _plan_queries(shared) == expected
            assert _plan_queries(fresh) == expected
            if decide:
                assert ([brute_decide(r.instance) for r in shared.batch.records]
                        == [brute_decide(r.instance) for r in fresh.batch.records])
                assert (finish_hsp_search(shared, shared.batch.run(BruteForceDecisionOracle()))
                        == hsp_search_via_decision(inst, BruteForceDecisionOracle()))


def test_search_keeps_one_skeleton_per_group(monkeypatch):
    """A second search over the same group object builds no chain; another
    group object builds its own skeleton."""
    from cosetlab import search_decision
    s4 = symmetric_group(4)
    insts = [plant_hsp(s4, (), Side.LEFT),
             plant_hsp(s4, (parse_cycles("(1 2)(3 4)", 4),), Side.LEFT)]
    fresh = [finish_hsp_search(plan, plan.batch.run(BruteForceDecisionOracle()))
             for plan in (build_hsp_search_plan(_over_fresh_group(i)) for i in insts)]
    builds = []
    monkeypatch.setattr(search_decision, "build_stabilizer_chain",
                        lambda *args, _build=build_stabilizer_chain:
                        builds.append(args) or _build(*args))
    oracle = BruteForceDecisionOracle()
    assert [hsp_search_via_decision(i, oracle) for i in insts] == fresh
    assert len(builds) == 1
    other = symmetric_group(4)
    assert hsp_search_via_decision(plant_hsp(other, (), Side.LEFT), oracle) is None
    assert len(builds) == 2


def _select_matches_evaluate_and_compare(oracle, stream, label):
    before = oracle.evaluations
    expected = [g for g in stream if oracle.evaluate(g) == label]
    spent = oracle.evaluations - before
    before = oracle.evaluations
    selected = oracle.select(iter(stream), label)
    assert list(map(id, selected)) == list(map(id, expected))
    assert oracle.evaluations - before == spent == len(stream)


def _check_paired_select(oracle, stream):
    labels = [oracle.evaluate(w) for w in stream]
    base = oracle.evaluate(stream[0].identity_like())
    # A non-identity label whose two parts differ, where one exists.
    other = next((lab for lab in labels if lab != base and lab[0] != lab[1]),
                 next((lab for lab in labels if lab != base), None))
    for label in (base, other):
        if label is not None:
            _select_matches_evaluate_and_compare(oracle, stream, label)
    before = oracle.evaluations
    assert oracle.select(iter(stream), "not a pair") == []
    assert oracle.evaluations - before == len(stream)


def _level_groups(plan):
    """The wreath group of every plan level, in level order."""
    bases = dict.fromkeys(r.instance.base.base for r in plan.batch.records)
    return [base.group for base in bases]


def test_paired_select_matches_evaluate_and_compare():
    """On every level of the plans over S3, S4 and a flattened S3 wr Z2
    trial group, the paired oracle's slot-by-slot selection keeps what
    evaluate-and-compare keeps, in stream order, at the same count: for the
    plan's slot labels of every instance and for two unrelated random
    labelings, which keep no promise."""
    families = [(group, [plant_hsp(group, gens, Side.LEFT) for gens in subgroups_of(group)])
                for group in (symmetric_group(3), symmetric_group(4))]
    families.append(_trial_instances(symmetric_group(3), (0, 1, 2)))
    rng = random.Random(8)
    for group, insts in families:
        levels = _level_groups(build_hsp_search_plan(insts[0]))
        assert len(levels) == group.identity.degree - 1
        streams = [list(wreath.iter_elements()) for wreath in levels]
        for inst in insts:
            plan = build_hsp_search_plan(inst)
            assert _level_groups(plan) == levels
            paired = plan.batch.records[0].instance.base.base.oracle
            for stream in streams:
                _check_paired_select(paired, stream)
        for stream in streams:
            slot_elements = list(dict.fromkeys(w.slots[1] for w in stream))
            f1, f2 = ({g: rng.randrange(3) for g in slot_elements} for _ in range(2))
            _check_paired_select(PairedOracle(f1.__getitem__, f2.__getitem__, "random"),
                                 stream)


def test_plan_holds_one_stabilizer_per_pair_set():
    flat_group, (flat,) = _trial_instances(symmetric_group(3), (7,))
    for inst in (plant_hsp(symmetric_group(4), (), Side.LEFT), flat):
        plan = build_hsp_search_plan(inst)
        n = plan.instance.group.identity.degree
        objects = {}
        for r in plan.batch.records:
            for c in (*r.instance.base.constraints, *r.instance.constraints):
                objects.setdefault(c.pairs, set()).add(id(c))
        assert all(len(ids) == 1 for ids in objects.values())
        assert len(objects) == n * n


def test_search_rejects_inconsistent_oracle():
    s3 = symmetric_group(3)
    trivial = plant_hsp(s3, (), Side.LEFT)
    liar = wrap_buggy(BruteForceDecisionOracle(), BugSpec("always_nontrivial"))
    with pytest.raises(OracleInconsistentError):
        hsp_search_via_decision(trivial, liar)


def test_search_requires_permutation_group():
    z6 = cyclic_group(6)
    inst = plant_hsp(z6, (), Side.LEFT)
    with pytest.raises(TypeError):
        hsp_search_via_decision(inst, BruteForceDecisionOracle())


def test_each_planted_label_is_read_once():
    """A truth-table search reads the planted oracle once per group element,
    and a checker call's translate trials read it at most once per element
    between them, so the count does not move with k.  A dihedral search
    reads the instance's kernel once: the identity, then every element."""
    for n, shifts in ((12, range(12)), (60, (0, 37, 59)), (360, (0, 121, 359))):
        for a in shifts:
            inst = dihedral_instance(n, a)
            dihedral_search_via_decision(inst, 5, BruteForceDecisionOracle())
            assert inst.oracle.evaluations <= inst.group.order() + 1, (n, a)
    for group in (symmetric_group(3), symmetric_group(4)):
        for gens in subgroups_of(group):
            inst = plant_hsp(group, gens, Side.LEFT)
            hsp_search_via_decision(inst, BruteForceDecisionOracle())
            assert inst.oracle.evaluations == group.order(), gens
            for checker, program in ((checker_hspD, BruteForceDecisionOracle),
                                     (checker_hsp, BruteSearchProgram)):
                for seed in range(3):
                    counts = []
                    for k in (1, 5):
                        inst = plant_hsp(group, gens, Side.LEFT)
                        checker(program(), inst, k, seed)
                        counts.append(inst.oracle.evaluations)
                    assert counts[0] == counts[1], (checker.__name__, gens, seed)


# -- shift search ----------------------------------------------------------------


def test_shift_search_exhaustive_s3():
    s3 = symmetric_group(3)
    for u in s3.elements():
        hc = plant_coset(s3, (), u)
        oracle = BruteForceShiftOracle()
        got = hsh_search_via_decision(s3, hc.f1, hc.f2, oracle)
        assert got == u
        # level-by-level query budget: one existence probe plus at most one
        # probe per representative
        per_level = {}
        for entry in oracle.call_log:
            per_level[entry.index[0]] = per_level.get(entry.index[0], 0) + 1
        transversal_sizes = {1: 3, 2: 2, 3: 1}
        for level, count in per_level.items():
            assert count <= 1 + transversal_sizes[level]


def test_shift_search_identity_shift_uses_one_query_per_level():
    s4 = symmetric_group(4)
    hc = plant_coset(s4, (), s4.identity)
    oracle = BruteForceShiftOracle()
    got = hsh_search_via_decision(s4, hc.f1, hc.f2, oracle)
    assert got.is_identity()
    assert oracle.calls == 4


def test_shift_search_random_s4():
    s4 = symmetric_group(4)
    rng = random.Random(12)
    elems = s4.elements()
    for _ in range(10):
        u = rng.choice(elems)
        hc = plant_coset(s4, (), u)
        got = hsh_search_via_decision(s4, hc.f1, hc.f2, BruteForceShiftOracle())
        assert got == u
        for g in elems:
            assert hc.f1.evaluate(g) == hc.f2.evaluate(group_op(g, got))


def test_shift_search_unrelated_functions():
    from cosetlab.instances import OracleFunction
    s3 = symmetric_group(3)
    hc = plant_coset(s3, (), parse_cycles("(1 2)", 3))
    # injective but unrelated to f1 by any right translate
    scramble = {element_key(g): i * i + 1 for i, g in enumerate(s3.elements())}
    rogue = OracleFunction(lambda g: scramble[element_key(g)])
    with pytest.raises(NoShiftError):
        hsh_search_via_decision(s3, hc.f1, rogue, BruteForceShiftOracle())


def test_shift_search_rejects_lying_oracle():
    s3 = symmetric_group(3)
    hc = plant_coset(s3, (), parse_cycles("(1 2 3)", 3))
    liar = wrap_buggy(BruteForceShiftOracle(), BugSpec("always_nontrivial"))
    before = hc.f1.evaluations + hc.f2.evaluations
    with pytest.raises(NoShiftError):
        hsh_search_via_decision(s3, hc.f1, hc.f2, liar)
    assert hc.f1.evaluations + hc.f2.evaluations == before + 2


# -- dihedral search -------------------------------------------------------------


def test_smooth_factorize():
    assert smooth_factorize(12, 5) == ((2, 2), (3, 1))
    assert smooth_factorize(60, 5) == ((2, 2), (3, 1), (5, 1))
    with pytest.raises(NotSmoothError):
        smooth_factorize(14, 5)
    with pytest.raises(ValueError):
        smooth_factorize(1, 5)


def test_crt_combine():
    assert crt_combine([(1, 4), (2, 3)]) == (5, 12)
    assert crt_combine([(3, 7)]) == (3, 7)
    assert crt_combine([(0, 4), (0, 3), (0, 5)]) == (0, 60)
    with pytest.raises(ValueError):
        crt_combine([(1, 4), (1, 6)])
    with pytest.raises(ValueError):
        crt_combine([])


def dihedral_instance(n, a):
    return plant_hsp(dihedral_group(n), (DihedralElement(n, a, 1),), Side.LEFT)


def test_dihedral_search_examples():
    oracle = BruteForceDecisionOracle()
    assert dihedral_search_via_decision(dihedral_instance(12, 5), 5, oracle) == 5
    assert oracle.calls == 7
    # the residue climb visits moduli 2, 4, then 3
    assert [e.index[:2] for e in oracle.call_log] == (
        [(2, 1)] * 2 + [(2, 2)] * 2 + [(3, 1)] * 3)

    oracle0 = BruteForceDecisionOracle()
    assert dihedral_search_via_decision(dihedral_instance(12, 0), 5, oracle0) == 0
    assert oracle0.calls == 7

    oracle60 = BruteForceDecisionOracle()
    assert dihedral_search_via_decision(dihedral_instance(60, 37), 5,
                                        oracle60) == 37
    assert oracle60.calls == 12


def test_dihedral_search_exhaustive_n12():
    for a in range(12):
        oracle = BruteForceDecisionOracle()
        got = dihedral_search_via_decision(dihedral_instance(12, a), 5, oracle)
        assert got == a
        assert oracle.calls == 7


def test_dihedral_search_not_smooth():
    with pytest.raises(NotSmoothError):
        dihedral_search_via_decision(dihedral_instance(14, 3), 5,
                                     BruteForceDecisionOracle())


def test_dihedral_rejects_wrong_instance_shape():
    s3 = symmetric_group(3)
    inst = plant_hsp(s3, (), Side.LEFT)
    with pytest.raises(TypeError):
        dihedral_search_via_decision(inst, 5, BruteForceDecisionOracle())
