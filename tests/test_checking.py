import gc
import random
import weakref

import pytest

from cosetlab.checking import (BruteForceDecisionOracle, BruteSearchProgram,
                               BugSpec, TrialRecord,
                               brute_coset_solve, brute_decide, brute_ghsh_solve,
                               brute_hsp_solve, brute_orbit_solve, checker_hsp,
                               checker_hspD, trial_rng, wrap_buggy)
from cosetlab.groups import (CyclicElement, FiniteGroup, WreathElement,
                             close_under_op, cyclic_group, element_key, group_op,
                             invert, symmetric_group, wreath_embed, wreath_unembed)
from cosetlab.instances import (GroupAction, OracleFunction, Side, plant_coset,
                                plant_ghsh, plant_hsp, plant_orbit_coset)
from cosetlab.perms import Permutation, parse_cycles
from cosetlab.reductions import StructuredHspInstance, SubgroupConstraint
from cosetlab.search_decision import (DecisionAnswer, QueryRecord,
                                      hsp_search_via_decision)


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

    same = StructuredHspInstance(inst, [SubgroupConstraint(
        FiniteGroup((swap12,), s3.identity))])
    assert brute_decide(same) is DecisionAnswer.NONTRIVIAL

    other = StructuredHspInstance(inst, [SubgroupConstraint(
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

    def drop_on_doubled(gens):
        return gens[:1]

    program = wrap_buggy(
        BruteSearchProgram(),
        BugSpec("wrong_on_matching", mutate=drop_on_doubled,
                predicate=lambda i: i.group.identity.degree == 8))
    verdict = checker_hsp(program, inst, k=5, seed=9)
    assert verdict.verdict == "BUGGY"


def _trials_claim_shift(v):
    """A search program that answers every trial honestly except that each
    slot-swapping generator it names becomes ((v^-1, v); 1)."""

    def fake_shift(gens):
        out = []
        for p in gens:
            w = wreath_unembed(p, 3)
            if w.shift == 1:
                out.append(wreath_embed(WreathElement((invert(v), v), 1)))
            else:
                out.append(p)
        return out

    return wrap_buggy(
        BruteSearchProgram(),
        BugSpec("wrong_on_matching", mutate=fake_shift,
                predicate=lambda i: i.group.identity.degree == 6))


def test_checker_hsp_rejects_shift_outside_coset():
    s3 = symmetric_group(3)
    swap = parse_cycles("(1 2)", 3)
    inst = plant_hsp(s3, (swap,), Side.LEFT)
    outside = parse_cycles("(1 2 3)", 3)  # not in <(1 2)>
    verdict = checker_hsp(_trials_claim_shift(outside), inst, k=4, seed=13)
    assert verdict.verdict == "BUGGY"
    reasons = [t.detail for t in verdict.transcript if not t.ok]
    assert any("coset" in r or "subgroup" in r for r in reasons)


def test_checker_hsp_rejects_a_shift_outside_the_trivial_coset():
    # Over the trivial subgroup the fake swap recovers the right (trivial)
    # subgroup, so only the shift check can catch it: on every trial whose
    # planted u is not v.
    inst = plant_hsp(symmetric_group(3), (), Side.LEFT)
    v = parse_cycles("(1 2 3)", 3)
    verdict = checker_hsp(_trials_claim_shift(v), inst, k=4, seed=13)
    assert verdict.verdict == "BUGGY"
    failed = [t.detail for t in verdict.transcript if not t.ok]
    assert failed == ["recovered shift lies outside the claimed coset"] * 3


@pytest.mark.parametrize("claim, trials_only", [
    pytest.param(Permutation((2, 1, 3, 4)), False, id="degree-4-claim"),
    pytest.param(CyclicElement(3, 1), False, id="cyclic-claim"),
    pytest.param(CyclicElement(3, 1), True, id="cyclic-trial-claim"),
])
def test_checker_hsp_rejects_a_malformed_claim(claim, trials_only):
    # The program under check is untrusted: a claim of the wrong shape is a
    # BUGGY verdict naming it, not an exception.
    inst = plant_hsp(symmetric_group(3), (), Side.LEFT)
    program = wrap_buggy(
        BruteSearchProgram(),
        BugSpec("wrong_on_matching", mutate=lambda gens: [claim],
                predicate=lambda i: not trials_only or i.group.identity.degree == 6))
    verdict = checker_hsp(program, inst, k=2, seed=0)
    assert verdict.verdict == "BUGGY"
    rejected = [t for t in verdict.transcript if not t.ok]
    assert rejected and all(str(claim) in t.detail for t in rejected)
    assert rejected[0].index == (0 if trials_only else "members")


def test_checker_hsp_nonadaptive_trials():
    s3 = symmetric_group(3)
    inst = plant_hsp(s3, (parse_cycles("(1 2)", 3),), Side.LEFT)
    program = BruteSearchProgram()
    verdict = checker_hsp(program, inst, k=4, seed=1)
    assert verdict.verdict == "CORRECT"
    assert verdict.construction_done_stamp < verdict.first_trial_call_stamp
    assert [e.index for e in program.call_log] == [("whole-input",), (0,), (1,), (2,), (3,)]


def test_checker_requires_left_side_instances():
    s3 = symmetric_group(3)
    rejected = [
        (plant_hsp(s3, (parse_cycles("(1 2)", 3),), Side.RIGHT), "left cosets"),
        (plant_hsp(cyclic_group(4), (), Side.LEFT), "permutation groups"),
        (plant_coset(s3, (), parse_cycles("(1 2)", 3)), "hidden-subgroup instances"),
    ]
    for inst, message in rejected:
        for checker, program in ((checker_hspD, BruteForceDecisionOracle()),
                                 (checker_hsp, BruteSearchProgram())):
            with pytest.raises(ValueError, match=message):
                checker(program, inst, k=2)
            assert program.calls == 0


def test_verdict_reflects_transcript_only():
    s3 = symmetric_group(3)
    inst = plant_hsp(s3, (parse_cycles("(1 2)", 3),), Side.LEFT)
    verdict = checker_hspD(BruteForceDecisionOracle(), inst, k=2, seed=0)
    assert verdict.verdict == ("CORRECT" if all(t.ok for t in verdict.transcript)
                               else "BUGGY")
    assert verdict.checker_steps == len(verdict.transcript)
    assert verdict.oracle_calls > 0


@pytest.fixture
def every_oracle(monkeypatch):
    """Every OracleFunction created while the fixture is active."""
    made = []
    init = OracleFunction.__init__

    def recording_init(self, *args, **kwargs):
        init(self, *args, **kwargs)
        made.append(self)

    monkeypatch.setattr(OracleFunction, "__init__", recording_init)
    return made


def test_checker_counters_are_pinned(every_oracle):
    # Same enumeration, same work: the counts of the sift-and-close chain
    # and the streamed kernels, recorded before elements were trusted.
    inst = plant_hsp(symmetric_group(3), (), Side.LEFT)
    program = BruteForceDecisionOracle()
    verdict = checker_hspD(program, inst, k=1, seed=0)
    assert verdict.verdict == "CORRECT"
    assert program.calls == 1485
    # The whole-input kernel reads the identity and the 6 elements; the
    # trial reads each of the 6 once more, through the instance's label store.
    assert inst.oracle.evaluations == 7 + 6
    assert sum(f.evaluations for f in every_oracle) == 11042


def test_search_counters_are_pinned(every_oracle):
    s4 = symmetric_group(4)
    gens = (parse_cycles("(1 2 3 4)", 4), parse_cycles("(1 3)", 4))
    inst = plant_hsp(s4, gens, Side.LEFT)
    program = BruteForceDecisionOracle()
    found = hsp_search_via_decision(inst, program)
    assert found is not None and not found.is_identity()
    assert program.calls == 184
    # Each of the 24 elements once, through the instance's label store.
    assert inst.oracle.evaluations == 24
    assert sum(f.evaluations for f in every_oracle) == 1259


@pytest.fixture
def chain_builds(monkeypatch):
    """Calls of build_stabilizer_chain, counted where each module looks it up."""
    from cosetlab import checking, search_decision
    calls = []
    for module in (checking, search_decision):
        def counting(*args, _build=module.build_stabilizer_chain, **kwargs):
            calls.append(args)
            return _build(*args, **kwargs)
        monkeypatch.setattr(module, "build_stabilizer_chain", counting)
    return calls


def test_translate_trials_build_each_chain_once(chain_builds):
    # One chain of G drives the u draws; the decision checker's k plans share
    # one skeleton over one flattened G wr Z2 (eight chains before).  The
    # search checker's trials need no plan, so G's chain is its only one.
    inst = plant_hsp(symmetric_group(3), (parse_cycles("(1 2)", 3),), Side.LEFT)
    program = wrap_buggy(BruteForceDecisionOracle(), BugSpec("always_trivial"))
    assert checker_hspD(program, inst, k=7, seed=0).verdict == "BUGGY"
    assert [args[1] for args in chain_builds] == [3, 6]
    chain_builds.clear()
    assert checker_hsp(BruteSearchProgram(), inst, k=7, seed=0).verdict == "CORRECT"
    assert [args[1] for args in chain_builds] == [3]


def test_checker_call_frees_its_flattened_group(monkeypatch):
    # The flattened G wr Z2 keeps its plan levels, which hold no reference
    # back to it, so it is freed by refcount when the call returns: with the
    # cyclic collector off, a reference cycle would keep it alive.
    from cosetlab import checking
    refs = []

    def recording(*args, _embed=checking.embed_wreath_group):
        group = _embed(*args)
        refs.append(weakref.ref(group))
        return group

    monkeypatch.setattr(checking, "embed_wreath_group", recording)
    s3 = symmetric_group(3)
    gc.disable()
    try:
        for inst in (plant_hsp(s3, (), Side.LEFT),
                     plant_hsp(s3, (parse_cycles("(1 2)", 3),), Side.LEFT)):
            for program in (BruteForceDecisionOracle(),
                            wrap_buggy(BruteForceDecisionOracle(), BugSpec("always_trivial"))):
                checker_hspD(program, inst, k=2, seed=0)
            checker_hsp(BruteSearchProgram(), inst, k=2, seed=0)
        freed = [ref() is None for ref in refs]  # read before the collector runs again
    finally:
        gc.enable()
    assert freed == [True] * 5


def test_flip_transcripts_are_pinned():
    # Per-trial results and call counts of earlier releases, which built every
    # trial's group, chain and plan afresh.
    inst = plant_hsp(symmetric_group(3), (parse_cycles("(1 2)", 3),), Side.LEFT)
    spec = BugSpec("flip_with_prob", flip_probability=0.3, seed=4)
    verdict = checker_hspD(wrap_buggy(BruteForceDecisionOracle(), spec), inst, k=7, seed=4)
    assert verdict.oracle_calls == 10389
    assert [(t.ok, t.detail) for t in verdict.transcript] == [
        (False, "level 4 point 4: 0 accepted images"),
        (False, "level 5 point 6: 2 accepted images"),
        (False, "level 5 point 5: 0 accepted images"),
        (False, "assembled element does not share the identity label"),
        (False, "level 5 point 6: 0 accepted images"),
        (False, "level 5 point 5: 2 accepted images"),
        (False, "level 4 point 6: 0 accepted images")]
    spec = BugSpec("flip_with_prob", flip_probability=0.3, seed=4)
    verdict = checker_hsp(wrap_buggy(BruteSearchProgram(), spec), inst, k=7, seed=4)
    no_swap = ("no slot-swapping generator; any generating set of the hidden subgroup "
               "of a paired-coset instance must contain one")
    differs = "recovered subgroup differs from the claimed one"
    assert verdict.oracle_calls == 8
    assert [(t.ok, t.detail) for t in verdict.transcript] == [
        (True, ""), (False, no_swap), (False, differs), (False, no_swap), (False, no_swap),
        (False, differs), (False, differs), (False, differs)]
