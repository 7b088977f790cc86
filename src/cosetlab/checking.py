"""Reference solvers, one fault-injection wrapper, and the two program checkers.

The brute-force solvers work straight from the problem definitions by full
enumeration and serve as the independent oracles everything else is tested
against.  The checkers certify a program's answer on one input: the decision
checker re-derives a witness through the search reduction, the search checker
replays the program on translated self-instances; both query the program
under check nonadaptively within a run and drive per-trial randomness from a
splittable seed.
"""

from __future__ import annotations

import hashlib
import random
from dataclasses import dataclass
from typing import Callable, Sequence

from .groups import (FiniteGroup, GroupElement, WreathElement,
                     close_under_op, element_key, group_op, invert,
                     reduce_generators, wreath_group, wreath_unembed)
from .instances import (GhshInstance, HiddenCosetInstance, HspInstance, Label,
                        OracleFunction, OrbitCosetInstance, Side)
from .perms import (ExceedsCapError, Permutation, StabilizerChain,
                    build_stabilizer_chain, random_element)
from .reductions import (InvalidKGeneratorsError, PairedOracle, StructuredHspInstance,
                         embed_wreath_group, embed_wreath_oracle, recover_coset_solution)
from .search_decision import (DecisionAnswer, DecisionOracle,
                              OracleInconsistentError, QueryRecord,
                              build_hsp_search_plan, event_stamp, finish_hsp_search,
                              hsp_search_via_decision)


def trial_rng(master_seed: int, index: int) -> random.Random:
    """Independent per-trial stream derived stably from (seed, trial index)."""
    digest = hashlib.sha256(f"{master_seed}:{index}".encode()).digest()
    return random.Random(int.from_bytes(digest[:8], "big"))


# -- brute-force reference solvers ---------------------------------------------------


def brute_hsp_solve(inst: HspInstance) -> list[GroupElement]:
    """Generators of {g : f(g) = f(id)}, reduced greedily; empty list when trivial."""
    return reduce_generators(inst.kernel(), inst.group.identity, inst.group.cap)


def brute_coset_solve(inst: HiddenCosetInstance) -> tuple[list[GroupElement], GroupElement]:
    """The full shift coset, as (subgroup generators, least shift)."""
    shifts = inst.brute_shift_set()
    if not shifts:
        raise ValueError("no shift relates the two functions; promise violated")
    least = min(shifts, key=element_key)
    least_inv = invert(least)
    members = [group_op(v, least_inv) for v in shifts]
    return reduce_generators(members, inst.group.identity, inst.group.cap), least


def brute_ghsh_solve(inst: GhshInstance) -> GroupElement:
    shifts = inst.brute_shift_set()
    if len(shifts) != 1:
        raise ValueError(f"expected a unique shift, found {len(shifts)}")
    return shifts[0]


def brute_orbit_solve(inst: OrbitCosetInstance
                      ) -> tuple[GroupElement | None, list[GroupElement]]:
    """A mapping element (None when orbits are disjoint) plus stabilizer generators."""
    act = inst.action
    stab = act.stabilizer_generators(inst.phi1)
    mapping = [g for g in act.group.elements()
               if act.act(g, inst.phi1) == inst.phi0]
    if not mapping:
        return None, stab
    return min(mapping, key=element_key), stab


def brute_decide(structured: StructuredHspInstance) -> DecisionAnswer:
    """Nontrivial iff some non-identity element shares the identity label and
    lies in every constraint group: the base kernel filtered through the
    instance's bound conjunction.  A structured base supplies its kernel
    already filtered through its own constraints."""
    for g in filter(structured.accepts, structured.base.kernel()):
        if not g.is_identity():
            return DecisionAnswer.NONTRIVIAL
    return DecisionAnswer.TRIVIAL


class BruteForceDecisionOracle(DecisionOracle):
    """Answers structured decision queries by enumerate-and-filter: the
    search plans' and the checker's, and the dihedral search's."""

    def _answer(self, query: QueryRecord) -> DecisionAnswer:
        return brute_decide(query.instance)


class BruteForceShiftOracle(DecisionOracle):
    """Answers hidden-coset decision records: NONTRIVIAL iff some element of
    the record's group relates its two functions, that is iff the record's
    instance's own shift set, read through its label stores, is non-empty."""

    def _answer(self, query: QueryRecord) -> DecisionAnswer:
        if query.instance.brute_shift_set():
            return DecisionAnswer.NONTRIVIAL
        return DecisionAnswer.TRIVIAL


class BruteSearchProgram(DecisionOracle):
    """A hidden-subgroup search program: instance -> subgroup generators."""

    def _answer(self, query: QueryRecord) -> list[GroupElement]:
        return brute_hsp_solve(query.instance)


# -- fault injection -------------------------------------------------------------------


@dataclass
class BugSpec:
    """How a wrapped program's answers deviate.

    Modes: ``always_trivial``, ``always_nontrivial``, ``flip_with_prob``
    (probability ``flip_probability``, own seeded stream), and
    ``wrong_on_matching`` (answers flipped or mutated exactly where
    ``predicate`` matches what the program is asked, as
    :class:`BuggyProgram` says).  ``mutate`` applies to search programs and
    rewrites the answered generator list; the default drops the last
    generator.
    """

    mode: str
    flip_probability: float = 0.0
    predicate: Callable | None = None
    seed: int = 0
    mutate: Callable | None = None

    MODES = ("always_trivial", "always_nontrivial", "flip_with_prob",
             "wrong_on_matching")

    def __post_init__(self):
        if self.mode not in self.MODES:
            raise ValueError(f"unknown bug mode {self.mode!r}")
        if self.mode == "wrong_on_matching" and self.predicate is None:
            raise ValueError("wrong_on_matching needs a predicate")
        if not 0.0 <= self.flip_probability <= 1.0:
            raise ValueError(f"flip probability {self.flip_probability} is outside [0, 1]")


def _drop_last_generator(gens):
    return gens[:-1]


class BuggyProgram(DecisionOracle):
    """Wraps any program so its answers deviate exactly as ``spec`` says.

    What the modes mean per protocol: a decision program answers a
    :class:`QueryRecord` TRIVIAL or NONTRIVIAL.  A search program, asked a
    record holding an :class:`HspInstance`, always-trivial claims no
    generators; always-nontrivial keeps an honest nontrivial claim and
    otherwise claims the first non-identity group generator.  A wrong answer
    is the other decision, or ``spec.mutate`` applied to a search answer.
    The predicate sees the record's instance (a dihedral search's has the
    instance's D_n as its group, a shift search's the level group).
    Flips draw from one ``random.Random(spec.seed)`` stream, in call order.
    """

    def __init__(self, inner: DecisionOracle, spec: BugSpec):
        super().__init__()
        self.inner = inner
        self.spec = spec
        self._rng = random.Random(spec.seed)

    def _answer(self, query):
        spec = self.spec
        search = isinstance(query.instance, HspInstance)
        if spec.mode == "always_trivial":
            return [] if search else DecisionAnswer.TRIVIAL
        if spec.mode == "always_nontrivial" and not search:
            return DecisionAnswer.NONTRIVIAL
        honest = self.inner.answer(query)
        if spec.mode == "always_nontrivial":
            if honest:
                return honest
            fake = [g for g in query.instance.group.generators if not g.is_identity()]
            return fake[:1]
        if spec.mode == "flip_with_prob":
            wrong = self._rng.random() < spec.flip_probability
        else:
            wrong = spec.predicate(query.instance)
        if not wrong:
            return honest
        if search:
            return (spec.mutate or _drop_last_generator)(honest)
        if honest is DecisionAnswer.TRIVIAL:
            return DecisionAnswer.NONTRIVIAL
        return DecisionAnswer.TRIVIAL


# ``wrap_buggy(program, spec)`` is how the CLI, the selftest, the tests and
# perfbench inject faults.
wrap_buggy = BuggyProgram


# -- checkers --------------------------------------------------------------------------


@dataclass(frozen=True)
class TrialRecord:
    index: object
    description: str
    ok: bool
    detail: str = ""


@dataclass(frozen=True)
class CheckerVerdict:
    """CORRECT or BUGGY, derived purely from the transcript of sub-results."""

    verdict: str
    transcript: tuple[TrialRecord, ...]
    checker_steps: int
    oracle_calls: int
    construction_done_stamp: int | None = None
    first_trial_call_stamp: int | None = None


def _verdict(transcript: Sequence[TrialRecord], oracle_calls: int,
             construction_done=None, first_trial_call=None) -> CheckerVerdict:
    ok = all(t.ok for t in transcript)
    return CheckerVerdict("CORRECT" if ok else "BUGGY", tuple(transcript),
                          checker_steps=len(transcript), oracle_calls=oracle_calls,
                          construction_done_stamp=construction_done,
                          first_trial_call_stamp=first_trial_call)


def _translated_instance(label: Callable[[Permutation], Label], rng: random.Random,
                         chain: StabilizerChain,
                         flat_group: FiniteGroup) -> tuple[GroupElement, HspInstance]:
    """One self-trial: translate f, read through ``label``, by a random u,
    pair f with f(. u^-1), and flatten the pair onto ``flat_group``, the
    trials' shared flattened G wr Z_2."""
    u = random_element(chain, rng)
    u_inv = invert(u)
    f2 = OracleFunction(lambda g: label(group_op(g, u_inv)),
                        description="translated labels")
    paired = PairedOracle(label, f2.evaluate, "paired coset functions")
    return u, HspInstance(flat_group, embed_wreath_oracle(paired.evaluate, chain.degree),
                          Side.LEFT)


def require_checkable(inst) -> int:
    """The degree of a checker's input.  Raises ValueError unless it is a
    hidden-subgroup instance over a permutation group with left-side labels."""
    if not isinstance(inst, HspInstance):
        raise ValueError("checkers take hidden-subgroup instances")
    identity = inst.group.identity
    if not isinstance(identity, Permutation):
        raise ValueError("checkers run over permutation groups")
    if inst.side is not Side.LEFT:
        raise ValueError("checkers need label-distinct left cosets; plant with the left side")
    return identity.degree


def _translate_trials(inst: HspInstance, k: int, seed: int) -> list[tuple]:
    """k ``(t, u, flat instance)`` trials over one flattened G wr Z_2.

    G's chain (which drives the u draws) and the flattened group are built
    once; each trial builds only its translated, paired and flattened oracle.
    Every trial reads f through the instance's label store, so the k trials
    evaluate f at most once per element of G between them, and not at all
    once verification has filled the store.
    """
    n = inst.group.identity.degree
    chain = build_stabilizer_chain(inst.group.generators, n)
    flat_group = embed_wreath_group(wreath_group(inst.group, 2))
    return [(t, *_translated_instance(inst.label, trial_rng(seed, t), chain, flat_group))
            for t in range(k)]


def _judge_trials(program: DecisionOracle, trials: list[tuple],
                  judge: Callable[..., TrialRecord], transcript: list[TrialRecord],
                  calls_before: int) -> CheckerVerdict:
    """Run ``judge(t, u, prepared)`` on every trial, all of them built before
    the first program call, and close the verdict."""
    construction_done = event_stamp()
    first_call_index = program.calls
    transcript.extend(judge(*trial) for trial in trials)
    first_trial_call = (program.call_log[first_call_index].stamp
                        if program.calls > first_call_index else None)
    return _verdict(transcript, program.calls - calls_before,
                    construction_done, first_trial_call)


def checker_hspD(program: DecisionOracle, inst: HspInstance, k: int,
                 seed: int = 0) -> CheckerVerdict:
    """Certify a decision program's answer on one instance.

    A NONTRIVIAL answer is checked by running the search reduction with the
    program as its oracle, which confirms the witness it returns.  A TRIVIAL
    answer is checked by k independent trials: translate the function by a
    random u, pair the functions over the doubled points, and demand the
    program-driven search return exactly the slot-swapping element built from
    u.  All trial query batches are constructed before the program is
    consulted again.
    """
    if k < 1:
        raise ValueError("k must be at least 1")
    n = require_checkable(inst)
    calls_before = program.calls
    transcript: list[TrialRecord] = []

    first = program.answer(QueryRecord(("whole-input",),
                                       StructuredHspInstance(inst, ())))
    if first is DecisionAnswer.NONTRIVIAL:
        try:
            found = hsp_search_via_decision(inst, program)
        except OracleInconsistentError as exc:
            transcript.append(TrialRecord("search", "witness search", False, str(exc)))
            return _verdict(transcript, program.calls - calls_before)
        detail = "no witness found" if found is None else f"witness {found}"
        transcript.append(TrialRecord("search", "witness search", found is not None, detail))
        return _verdict(transcript, program.calls - calls_before)

    def judge(t, u, plan):
        expected = WreathElement((invert(u), u), 1)
        try:
            answers = plan.batch.run(program)
            found = finish_hsp_search(plan, answers)
        except OracleInconsistentError as exc:
            return TrialRecord(t, "translate trial", False, str(exc))
        if found is None:
            return TrialRecord(t, "translate trial", False, "no hidden element found")
        got = wreath_unembed(found, n)
        if got != expected:
            return TrialRecord(t, "translate trial", False,
                               f"recovered {got}, expected the planted swap")
        return TrialRecord(t, "translate trial", True)

    # The trials share one flattened group, which keeps its plan levels.
    plans = [(t, u, build_hsp_search_plan(flat))
             for t, u, flat in _translate_trials(inst, k, seed)]
    return _judge_trials(program, plans, judge, transcript, calls_before)


def _rejected_claim(inst: HspInstance, claimed: Sequence[GroupElement]) -> str:
    """Why a claimed generator is not in the hidden subgroup, or "" when every
    one shares the identity's label, read through the instance's label
    store.  The claim is untrusted, so a generator the store cannot even key
    or the oracle read is rejected, not raised."""
    base_label = inst.label(inst.group.identity)
    for s in claimed:
        try:
            if inst.label(s) != base_label:
                return f"{s} is not in the hidden subgroup"
        except Exception as exc:
            return f"claimed generator {s} rejected: {exc}"
    return ""


def checker_hsp(program: DecisionOracle, inst: HspInstance, k: int,
                seed: int = 0) -> CheckerVerdict:
    """Certify a search program's output on one instance.

    The claimed generators must share the identity's label; then k translate
    trials re-run the program on the paired instance and require it to name
    the same subgroup and a shift in the same right coset as the planted u.
    Trial instances are all constructed before the program sees any of them.
    """
    if k < 1:
        raise ValueError("k must be at least 1")
    n = require_checkable(inst)
    calls_before = program.calls
    transcript: list[TrialRecord] = []

    claimed = program.answer(QueryRecord(("whole-input",), inst))
    detail = _rejected_claim(inst, claimed)
    try:
        claimed_closure = set(close_under_op(claimed, inst.group.identity, inst.group.cap))
    except (ValueError, ExceedsCapError) as exc:
        claimed_closure = None
        detail = detail or f"claimed generators do not close: {exc}"
    transcript.append(TrialRecord("members", "claimed generators lie in the subgroup",
                                  not detail, detail))
    if claimed_closure is None:
        # No claimed subgroup is left for the trials to compare with.
        return _verdict(transcript, program.calls - calls_before)

    def judge(t, u, record):
        claimed_emb = program.answer(record)
        try:
            k_gens = [wreath_unembed(p, n) for p in claimed_emb]
            sub_gens, u_prime = recover_coset_solution(k_gens)
        except (InvalidKGeneratorsError, ValueError) as exc:
            return TrialRecord(t, "translate trial", False, str(exc))
        recovered = set(close_under_op(sub_gens, inst.group.identity, inst.group.cap))
        if recovered != claimed_closure:
            return TrialRecord(t, "translate trial", False,
                               "recovered subgroup differs from the claimed one")
        if group_op(u_prime, invert(u)) not in claimed_closure:
            return TrialRecord(t, "translate trial", False,
                               "recovered shift lies outside the claimed coset")
        return TrialRecord(t, "translate trial", True)

    records = [(t, u, QueryRecord((t,), flat))
               for t, u, flat in _translate_trials(inst, k, seed)]
    return _judge_trials(program, records, judge, transcript, calls_before)
