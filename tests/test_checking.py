import random

import pytest

from cosetlab.checking import (BruteForceDecisionOracle, BruteSearchProgram,
                               BugSpec, TrialRecord,
                               brute_coset_solve, brute_decide, brute_ghsh_solve,
                               brute_hsp_solve, brute_orbit_solve, checker_hsp,
                               checker_hspD, trial_rng, wrap_buggy)
from cosetlab.groups import (CyclicElement, FiniteGroup, WreathElement,
                             close_under_op, cyclic_group, element_key, group_op,
                             invert, symmetric_group, wreath_embed, wreath_unembed)
from cosetlab.instances import (GroupAction, Side, plant_coset, plant_ghsh,
                                plant_hsp, plant_orbit_coset)
from cosetlab.perms import parse_cycles
from cosetlab.reductions import GroupConstraint, StructuredHspInstance
from cosetlab.search_decision import DecisionAnswer, QueryRecord


def keys(elems):
    return {element_key(g) for g in elems}


def test_brute_hsp_solve_examples():
    s3 = symmetric_group(3)
    swap = parse_cycles("(1 2)", 3)
    gens = brute_hsp_solve(plant_hsp(s3, (swap,), Side.LEFT))
    assert keys(close_under_op(gens, s3.identity)) == keys([s3.identity, swap])

    assert brute_hsp_solve(plant_hsp(s3, (), Side.LEFT)) == []

    full = brute_hsp_solve(plant_hsp(s3, tuple(s3.generators), Side.LEFT))
    assert len(close_under_op(full, s3.identity)) == 6


def test_brute_coset_and_ghsh_solvers():
    z4 = cyclic_group(4)
    sub, shift = brute_coset_solve(plant_coset(z4, (CyclicElement(4, 2),),
                                               CyclicElement(4, 1)))
    assert keys(close_under_op(sub, z4.identity)) == keys(
        [CyclicElement(4, 0), CyclicElement(4, 2)])
    assert shift.value in (1, 3)

    got = brute_ghsh_solve(plant_ghsh(cyclic_group(5), CyclicElement(5, 2), 3))
    assert got == CyclicElement(5, 2)


def test_brute_orbit_solver():
    z4 = cyclic_group(4)
    act = GroupAction(z4, ("s0", "s1", "s2", "s3"), ((1, 2, 3, 0),))
    shift, stab = brute_orbit_solve(plant_orbit_coset(act, 0, CyclicElement(4, 2)))
    assert act.act(shift, 0) == 2
    assert stab == []


def test_brute_decide_examples():
    s3 = symmetric_group(3)
    swap12 = parse_cycles("(1 2)", 3)
    inst = plant_hsp(s3, (swap12,), Side.LEFT)

    same = StructuredHspInstance(inst, [GroupConstraint(
        FiniteGroup((swap12,), s3.identity))])
    assert brute_decide(same) is DecisionAnswer.NONTRIVIAL

    other = StructuredHspInstance(inst, [GroupConstraint(
        FiniteGroup((parse_cycles("(1 3)", 3),), s3.identity))])
    assert brute_decide(other) is DecisionAnswer.TRIVIAL

    trivial = StructuredHspInstance(plant_hsp(s3, (), Side.LEFT), [])
    assert brute_decide(trivial) is DecisionAnswer.TRIVIAL


def make_query(inst):
    return QueryRecord(("probe",), StructuredHspInstance(inst, ()))


def test_wrap_buggy_decision_modes():
    s3 = symmetric_group(3)
    nontrivial = plant_hsp(s3, (parse_cycles("(1 2)", 3),), Side.LEFT)
    trivial = plant_hsp(s3, (), Side.LEFT)

    always_t = wrap_buggy(BruteForceDecisionOracle(), BugSpec("always_trivial"))
    always_n = wrap_buggy(BruteForceDecisionOracle(), BugSpec("always_nontrivial"))
    for inst in (nontrivial, trivial):
        assert always_t.answer(make_query(inst)) is DecisionAnswer.TRIVIAL
        assert always_n.answer(make_query(inst)) is DecisionAnswer.NONTRIVIAL

    never_flips = wrap_buggy(BruteForceDecisionOracle(),
                             BugSpec("flip_with_prob", flip_probability=0.0))
    honest = BruteForceDecisionOracle()
    for inst in (nontrivial, trivial):
        assert never_flips.answer(make_query(inst)) == honest.answer(make_query(inst))

    z12 = cyclic_group(12)
    big_groups = BugSpec("wrong_on_matching",
                         predicate=lambda q: q.base.group.order() > 6)
    wrong_on_big = wrap_buggy(BruteForceDecisionOracle(), big_groups)
    small_inst = plant_hsp(cyclic_group(4), (), Side.LEFT)
    big_inst = plant_hsp(z12, (), Side.LEFT)
    assert wrong_on_big.answer(make_query(small_inst)) is DecisionAnswer.TRIVIAL
    assert wrong_on_big.answer(make_query(big_inst)) is DecisionAnswer.NONTRIVIAL


def test_bug_spec_validation():
    with pytest.raises(ValueError):
        BugSpec("sometimes")
    with pytest.raises(ValueError):
        BugSpec("wrong_on_matching")


def test_trial_rng_stable_and_split():
    a = trial_rng(7, 0)
    b = trial_rng(7, 0)
    c = trial_rng(7, 1)
    seq_a = [a.random() for _ in range(5)]
    assert seq_a == [b.random() for _ in range(5)]
    assert seq_a != [c.random() for _ in range(5)]


def test_checker_hspD_completeness_both_branches():
    s3 = symmetric_group(3)
    for gens in ((), (parse_cycles("(1 2)", 3),), (parse_cycles("(1 2 3)", 3),)):
        inst = plant_hsp(s3, gens, Side.LEFT)
        verdict = checker_hspD(BruteForceDecisionOracle(), inst, k=5, seed=3)
        assert verdict.verdict == "CORRECT"
        assert all(t.ok for t in verdict.transcript)


def test_checker_hspD_trivial_branch_nonadaptive():
    s3 = symmetric_group(3)
    inst = plant_hsp(s3, (), Side.LEFT)
    program = BruteForceDecisionOracle()
    verdict = checker_hspD(program, inst, k=3, seed=0)
    assert verdict.verdict == "CORRECT"
    assert verdict.construction_done_stamp is not None
    assert verdict.first_trial_call_stamp is not None
    assert verdict.construction_done_stamp < verdict.first_trial_call_stamp


def test_checker_hspD_soundness_always_trivial():
    s3 = symmetric_group(3)
    inst = plant_hsp(s3, (parse_cycles("(1 2)", 3),), Side.LEFT)
    buggy_runs = 0
    for run in range(25):
        program = wrap_buggy(BruteForceDecisionOracle(), BugSpec("always_trivial"))
        verdict = checker_hspD(program, inst, k=7, seed=run)
        buggy_runs += verdict.verdict == "BUGGY"
    assert buggy_runs == 25


def test_checker_hspD_always_nontrivial_on_trivial_instance():
    s3 = symmetric_group(3)
    inst = plant_hsp(s3, (), Side.LEFT)
    program = wrap_buggy(BruteForceDecisionOracle(), BugSpec("always_nontrivial"))
    verdict = checker_hspD(program, inst, k=7, seed=5)
    assert verdict.verdict == "BUGGY"


def test_checker_hspD_flipping_program_caught():
    s3 = symmetric_group(3)
    inst = plant_hsp(s3, (parse_cycles("(1 2 3)", 3),), Side.LEFT)
    program = wrap_buggy(BruteForceDecisionOracle(),
                         BugSpec("flip_with_prob", flip_probability=0.3, seed=11))
    verdict = checker_hspD(program, inst, k=7, seed=11)
    assert verdict.verdict in ("CORRECT", "BUGGY")  # never crashes
    # flipping the top-level answer forces the trivial branch, which must
    # then fail to reproduce the planted swaps
    always_wrong_top = wrap_buggy(
        BruteForceDecisionOracle(),
        BugSpec("wrong_on_matching", predicate=lambda q: not q.constraints))
    verdict2 = checker_hspD(always_wrong_top, inst, k=7, seed=12)
    assert verdict2.verdict == "BUGGY"


def test_checker_hsp_completeness():
    s3 = symmetric_group(3)
    for gens in ((), (parse_cycles("(1 2)", 3),), tuple(s3.generators)):
        inst = plant_hsp(s3, gens, Side.LEFT)
        verdict = checker_hsp(BruteSearchProgram(), inst, k=5, seed=2)
        assert verdict.verdict == "CORRECT"


def test_checker_hsp_rejects_trivial_claim():
    s3 = symmetric_group(3)
    inst = plant_hsp(s3, (parse_cycles("(1 2)", 3),), Side.LEFT)
    program = wrap_buggy(BruteSearchProgram(), BugSpec("always_trivial"))
    verdict = checker_hsp(program, inst, k=5, seed=2)
    assert verdict.verdict == "BUGGY"


def test_checker_hsp_rejects_proper_subgroup():
    s4 = symmetric_group(4)
    double = (parse_cycles("(1 2)(3 4)", 4), parse_cycles("(1 3)(2 4)", 4))
    inst = plant_hsp(s4, double, Side.LEFT)

    def drop_on_doubled(result):
        gens, rep = result
        return gens[:1], rep

    program = wrap_buggy(
        BruteSearchProgram(),
        BugSpec("wrong_on_matching", mutate=drop_on_doubled,
                predicate=lambda i: i.group.identity.degree == 8))
    verdict = checker_hsp(program, inst, k=5, seed=9)
    assert verdict.verdict == "BUGGY"


def test_checker_hsp_rejects_shift_outside_coset():
    s3 = symmetric_group(3)
    swap = parse_cycles("(1 2)", 3)
    inst = plant_hsp(s3, (swap,), Side.LEFT)
    outside = parse_cycles("(1 2 3)", 3)  # not in <(1 2)>

    def fake_shift(result):
        gens, rep = result
        out = []
        for p in gens:
            w = wreath_unembed(p, 3)
            if w.shift == 1:
                out.append(wreath_embed(WreathElement((invert(outside), outside), 1)))
            else:
                out.append(p)
        return out, rep

    program = wrap_buggy(
        BruteSearchProgram(),
        BugSpec("wrong_on_matching", mutate=fake_shift,
                predicate=lambda i: i.group.identity.degree == 6))
    verdict = checker_hsp(program, inst, k=4, seed=13)
    assert verdict.verdict == "BUGGY"
    reasons = [t.detail for t in verdict.transcript if not t.ok]
    assert any("coset" in r or "subgroup" in r for r in reasons)


def test_checker_hsp_nonadaptive_trials():
    s3 = symmetric_group(3)
    inst = plant_hsp(s3, (parse_cycles("(1 2)", 3),), Side.LEFT)
    program = BruteSearchProgram()
    verdict = checker_hsp(program, inst, k=4, seed=1)
    assert verdict.verdict == "CORRECT"
    assert verdict.construction_done_stamp < verdict.first_trial_call_stamp


def test_checker_requires_left_side_instances():
    s3 = symmetric_group(3)
    inst = plant_hsp(s3, (parse_cycles("(1 2)", 3),), Side.RIGHT)
    with pytest.raises(ValueError):
        checker_hspD(BruteForceDecisionOracle(), inst, k=2)


def test_verdict_reflects_transcript_only():
    s3 = symmetric_group(3)
    inst = plant_hsp(s3, (parse_cycles("(1 2)", 3),), Side.LEFT)
    verdict = checker_hspD(BruteForceDecisionOracle(), inst, k=2, seed=0)
    assert verdict.verdict == ("CORRECT" if all(t.ok for t in verdict.transcript)
                               else "BUGGY")
    assert verdict.checker_steps == len(verdict.transcript)
    assert verdict.oracle_calls > 0
