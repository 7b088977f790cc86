"""Search-to-decision reductions over permutation and dihedral groups.

The permutation-group search builds its entire query list before the first
oracle call (a truth-table reduction); batches carry monotonic stamps so the
ordering is checkable after the fact.  The shift search walks the stabilizer
chain adaptively with hidden-coset decision records, and the dihedral search
climbs prime-power moduli with one sealed batch of intersection queries per
level.  Every search confirms its witness against the instance before it
returns it, and raises OracleInconsistentError when the witness fails.
"""

from __future__ import annotations

import enum
import itertools
import math
from dataclasses import dataclass
from typing import NamedTuple, Sequence

from .groups import DihedralElement, FiniteGroup, dihedral_subgroup, wreath_group
from .instances import HiddenCosetInstance, HspInstance, OracleFunction, Side
from .perms import Permutation, StabilizerChain, build_stabilizer_chain
from .reductions import (GammaSetStabilizer, PairedOracle, StructuredHspInstance,
                         SubgroupConstraint)

# Monotonic stamps shared by query records, batch sealing and oracle call
# logging: ``event_stamp()`` returns the next one.
event_stamp = itertools.count(1).__next__


class DecisionAnswer(enum.Enum):
    """A decision program's answer to a :class:`QueryRecord`.  For a
    hidden-subgroup record: does the hidden subgroup meet the constraints in
    more than the identity?  For a hidden-coset record: does some element of
    the record's group relate its two functions?"""

    TRIVIAL = "trivial"
    NONTRIVIAL = "nontrivial"


class OracleInconsistentError(RuntimeError):
    """The answer vector cannot have come from a correct decision oracle."""


class NotSmoothError(ValueError):
    """A prime factor above the smoothness bound remains."""


class QueryRecord:
    """One decision query: an index tuple, the instance it asks about, and the
    stamp taken when it was made.  A slotted class, since a plan makes one per
    query; immutable by convention."""

    __slots__ = ("index", "instance", "created_stamp")

    def __init__(self, index: tuple, instance):
        self.index = index
        self.instance = instance
        self.created_stamp = event_stamp()


class QueryBatch:
    """Ordered query list that must be sealed before any oracle contact."""

    def __init__(self):
        self.records: list[QueryRecord] = []
        self.sealed_stamp: int | None = None

    def add(self, index: tuple, instance) -> QueryRecord:
        if self.sealed_stamp is not None:
            raise RuntimeError("batch already sealed")
        record = QueryRecord(index, instance)
        self.records.append(record)
        return record

    def seal(self) -> None:
        if self.sealed_stamp is None:
            self.sealed_stamp = event_stamp()

    def run(self, oracle: "DecisionOracle") -> dict:
        """Seal, then answer every record in order; answers keyed by index tuple."""
        self.seal()
        return {r.index: oracle.answer(r) for r in self.records}


class CallLogEntry(NamedTuple):
    """One oracle call: its stamp and the index of the query it answered."""

    stamp: int
    index: tuple


class DecisionOracle:
    """Base class for every program the reductions and checkers query.

    Every call is a :class:`QueryRecord`.  A decision program answers a
    hidden-subgroup or hidden-coset record with a :class:`DecisionAnswer`; a
    search program answers a record holding an :class:`HspInstance` with a
    list of subgroup generators.  ``answer`` logs each call with a stamp and
    the record's index, then defers to ``_answer``.
    """

    def __init__(self):
        self.call_log: list[CallLogEntry] = []

    def answer(self, query: QueryRecord):
        self.call_log.append(CallLogEntry(event_stamp(), query.index))
        return self._answer(query)

    def _answer(self, query: QueryRecord):
        raise NotImplementedError

    @property
    def calls(self) -> int:
        return len(self.call_log)


# The shift and dihedral searches ask through the decision protocol.  The names
# stay because perfbench/tracing.py looks each one up and wraps ``answer`` in
# the class dictionary.
ShiftDecisionOracle = DecisionOracle
DihedralDecisionOracle = DecisionOracle


# -- hidden subgroup search over permutation groups ---------------------------------


def _chain_level_group(group: FiniteGroup, chain: StabilizerChain,
                       level: int) -> FiniteGroup:
    gens = chain.subgroup_generators(level)
    return FiniteGroup(gens, Permutation.identity(chain.degree),
                       name=f"stabilizer level {level}",
                       elements_hint=lambda: list(chain.elements(level)),
                       known_order=chain.level_order(level), cap=group.cap)


@dataclass
class HspSearchPlan:
    """A sealed-to-be query family for one search, plus the instance whose
    label store the queries and the reconstruction read."""

    instance: HspInstance
    batch: QueryBatch


def _plan_levels(group: FiniteGroup) -> tuple:
    """The part of a truth-table plan that depends on the group alone.

    ``levels[i-1]`` is ``(wreath, prefixes)``: the pointwise stabilizer of
    1..i-1 wreath the slot swap, and one ``(pair, queries)`` entry per
    (i, j, j') in query order, where ``pair`` holds the (i, j) and (i, j')
    doubled-point stabilizers and ``queries`` the index tuple and (k, l)
    stabilizer of each query.  Stabilizers with equal pair sets are one
    object.  Level n asks no query (no j > n), so the levels stop at n - 1.
    """
    identity = group.identity
    if not isinstance(identity, Permutation):
        raise TypeError("search-to-decision runs over permutation groups")
    n = identity.degree
    for g in group.generators:
        if not isinstance(g, Permutation) or g.degree != n:
            raise TypeError("search-to-decision runs over permutation groups")
    chain = build_stabilizer_chain(group.generators, n)
    # Every constraint stabilizes some {(a, 1), (b, 2)}: n^2 pair sets in all.
    stabilizer = {(a, b): GammaSetStabilizer(frozenset({(a, 1), (b, 2)}))
                  for a in range(1, n + 1) for b in range(1, n + 1)}
    levels = []
    for i in range(1, n):
        wreath = wreath_group(_chain_level_group(group, chain, i - 1), 2)
        lasts = [(k, ell) for k in range(i, n + 1) for ell in range(i, n + 1)]
        prefixes = tuple(
            ((stabilizer[i, j], stabilizer[j2, i]),
             tuple([((i, j, j2, k, ell), stabilizer[k, ell]) for k, ell in lasts]))
            for j in range(i + 1, n + 1) for j2 in range(i + 1, n + 1))
        levels.append((wreath, prefixes))
    return tuple(levels)


def build_hsp_search_plan(inst: HspInstance) -> HspSearchPlan:
    """Construct the full truth-table query family for a permutation instance.

    For each level i the base is the paired oracle over (pointwise stabilizer
    of 1..i-1) wreath the slot swap, constrained by three doubled-point
    setwise stabilizers indexed by (i, j), (i, j'), (k, l).  The group's
    levels are built on its first search and kept with the group object, so
    every later search over it only joins its instance.
    Each query nests on the prefix instance of its (i, j, j'), so the
    prefix's filtered kernel is computed once for all its (k, l).
    """
    group = inst.group
    levels = group.derived("plan levels", lambda: _plan_levels(group))
    batch = QueryBatch()
    # Slot values repeat across the quadratically many wreath elements and
    # across levels; through the instance's label store the search evaluates
    # each element at most once, and none that verification already read.
    paired = PairedOracle(inst.label, inst.label, f"paired {inst.oracle.description}")
    for wreath, prefixes in levels:
        base = HspInstance(wreath, paired, Side.LEFT)
        for pair, queries in prefixes:
            prefix = StructuredHspInstance(base, pair)
            for index, last in queries:
                batch.add(index, StructuredHspInstance(prefix, (last,)))
    return HspSearchPlan(inst, batch)


def reconstruct_from_answers(n: int, answers: dict) -> Permutation | None:
    """Assemble the hidden element from a complete answer vector.

    Reads the largest level with any nontrivial answer, fixes the smallest
    witnessing (j, j') there, then takes the unique accepted image l for each
    point k.  Order of the answer map is irrelevant.
    """
    hits = [idx for idx, ans in answers.items() if ans is DecisionAnswer.NONTRIVIAL]
    if not hits:
        return None
    level = max(idx[0] for idx in hits)
    witnesses = sorted({(j, j2) for (i, j, j2, _, _) in hits if i == level})
    j, j2 = witnesses[0]
    images = {x: x for x in range(1, level)}
    for k in range(level, n + 1):
        accepted = [ell for ell in range(level, n + 1)
                    if answers.get((level, j, j2, k, ell)) is DecisionAnswer.NONTRIVIAL]
        if len(accepted) != 1:
            raise OracleInconsistentError(
                f"level {level} point {k}: {len(accepted)} accepted images")
        images[k] = accepted[0]
    try:
        found = Permutation(tuple(images[x] for x in range(1, n + 1)))
    except ValueError as exc:
        raise OracleInconsistentError(f"assembled images are not a permutation: {exc}")
    return found


def finish_hsp_search(plan: HspSearchPlan, answers: dict) -> Permutation | None:
    inst = plan.instance
    found = reconstruct_from_answers(inst.group.identity.degree, answers)
    if found is None:
        return None
    if found.is_identity():
        raise OracleInconsistentError("assembled element is the identity")
    if inst.label(found) != inst.label(inst.group.identity):
        raise OracleInconsistentError("assembled element does not share the identity label")
    return found


def hsp_search_via_decision(inst: HspInstance, oracle: DecisionOracle) -> Permutation | None:
    """Find a nontrivial hidden-subgroup member with a decision oracle only.

    The whole query batch is constructed and sealed before the first call.
    Returns None when every answer is trivial (hidden subgroup trivial for a
    correct oracle); raises OracleInconsistentError when the answers cannot be
    explained by any hidden subgroup, or when the element they assemble is the
    identity or does not share the identity's label.
    """
    plan = build_hsp_search_plan(inst)
    answers = plan.batch.run(oracle)
    return finish_hsp_search(plan, answers)


# -- hidden shift search over permutation groups ------------------------------------


def hsh_search_via_decision(hc: HiddenCosetInstance, oracle: DecisionOracle) -> Permutation:
    """Recover the translate u with f1(g) = f2(g u) by walking the chain.

    Each query is a hidden-coset decision record on a level group L of the
    chain: ``QueryRecord(index, HiddenCosetInstance(L, f1, f2(. a)))``, whose
    answer is NONTRIVIAL exactly when some element of L relates the pair (so
    when the pair's hidden subgroup over L wr Z_2 holds a slot swap).  At each
    level, first ask whether the current pair already relates on the level
    group; otherwise exactly one coset representative, composed onto the
    running translate, must make it so.  The answer composes bottom-up: the
    representative found at the deepest level applies first.  The assembled
    translate must satisfy f1(id) = f2(u); as f2 is injective only the true
    shift does, so a lying oracle raises OracleInconsistentError.  The
    queries and that check read f1 and f2 through the instance's label
    stores, so the search evaluates each function at most once per element,
    and not at all once verification has filled the stores.
    """
    group = hc.group
    identity = group.identity
    if not isinstance(identity, Permutation):
        raise TypeError("shift search runs over permutation groups")
    n = identity.degree
    chain = build_stabilizer_chain(group.generators, n)
    label1, label2 = hc.labels
    f1 = OracleFunction(label1)
    acc = Permutation.identity(n)
    for level in range(1, n + 1):
        level_group = _chain_level_group(group, chain, level)

        def relates(index: tuple, a: Permutation) -> bool:
            f2 = OracleFunction(lambda g: label2(g.op(a)))
            record = QueryRecord(index, HiddenCosetInstance(level_group, f1, f2))
            return oracle.answer(record) is DecisionAnswer.NONTRIVIAL

        if relates((level, "stay"), acc):
            continue
        reps = [rep for b, rep in sorted(chain.transversal(level).items())
                if not rep.is_identity()]
        found = next((rep for rep in reps
                      if relates((level, tuple(rep.images)), rep.op(acc))), None)
        if found is None:
            raise OracleInconsistentError(f"no translate accepted at level {level}")
        acc = found.op(acc)
    if label1(identity) != label2(acc):
        raise OracleInconsistentError("assembled translate does not relate the two functions")
    return acc


# -- dihedral search over smooth orders ----------------------------------------------


def smooth_factorize(n: int, bound: int) -> tuple[tuple[int, int], ...]:
    """The prime factorization of n as (p, e) pairs, p ascending; raises
    NotSmoothError when a prime above the bound divides n."""
    if n < 2 or bound < 2:
        raise ValueError("need n >= 2 and bound >= 2")
    factors = []
    rest = n
    p = 2
    while p <= bound and rest > 1:
        if rest % p == 0:
            e = 0
            while rest % p == 0:
                rest //= p
                e += 1
            factors.append((p, e))
        p += 1
    if rest > 1:
        raise NotSmoothError(f"residual factor {rest} exceeds bound {bound}")
    return tuple(factors)


def crt_combine(residues: Sequence[tuple[int, int]]) -> tuple[int, int]:
    """Unique residue matching every (r_i, m_i); moduli must be coprime.

    Returns (value, product of moduli).
    """
    if not residues:
        raise ValueError("need at least one residue")
    value, modulus = residues[0][0] % residues[0][1], residues[0][1]
    for r, m in residues[1:]:
        if math.gcd(modulus, m) != 1:
            raise ValueError(f"moduli {modulus} and {m} are not coprime")
        inv = pow(modulus, -1, m)
        t = ((r - value) * inv) % m
        value += modulus * t
        modulus *= m
    return value % modulus, modulus


def dihedral_search_via_decision(inst: HspInstance, bound: int,
                                 oracle: DecisionOracle) -> int:
    """Recover a from the hidden order-two subgroup {id, r^a s} of the
    instance's dihedral group D_n.

    For each prime power p^e dividing n, the residue of a mod p^j is learned
    one level at a time from one sealed batch of p intersection queries, one
    per candidate offset: does the hidden subgroup meet <r^(p^j), r^offset s>
    in more than the identity?  The residues combine by remaindering.  Total
    queries: sum of e_i * p_i.  The combined r^a s must share the identity's
    label, read through the instance's label store, or
    OracleInconsistentError is raised.
    """
    ident = inst.group.identity
    if not isinstance(ident, DihedralElement):
        raise TypeError("expected an instance over a dihedral group")
    n = ident.rotations
    factors = smooth_factorize(n, bound)
    residues = []
    for p, e in factors:
        known = 0
        for j in range(1, e + 1):
            step = p ** j
            offsets = [t * p ** (j - 1) + known for t in range(p)]
            batch = QueryBatch()
            for t, offset in enumerate(offsets):
                subgroup = dihedral_subgroup(n, step, offset, cap=inst.group.cap)
                batch.add((p, j, t),
                          StructuredHspInstance(inst, (SubgroupConstraint(subgroup),)))
            answers = batch.run(oracle)
            accepted = [offset for t, offset in enumerate(offsets)
                        if answers[p, j, t] is DecisionAnswer.NONTRIVIAL]
            if len(accepted) != 1:
                raise OracleInconsistentError(
                    f"{len(accepted)} accepted offsets at modulus {step}")
            known = accepted[0]
        residues.append((known, p ** e))
    value, modulus = crt_combine(residues)
    assert modulus == n
    if inst.label(DihedralElement(n, value, 1)) != inst.label(ident):
        raise OracleInconsistentError(f"r^{value}s does not share the identity label")
    return value
