"""Search-to-decision reductions over permutation and dihedral groups.

The permutation-group search builds its entire query list before the first
oracle call (a truth-table reduction); batches carry monotonic stamps so the
ordering is checkable after the fact.  The shift search walks the stabilizer
chain adaptively, and the dihedral search climbs prime-power moduli with one
nonadaptive block of queries per level.
"""

from __future__ import annotations

import enum
import itertools
import math
from dataclasses import dataclass, field
from typing import Callable, Sequence

from .groups import (DEFAULT_CAP, DihedralElement, FiniteGroup, GroupElement,
                     wreath_group)
from .instances import HspInstance, Label, OracleFunction, Side
from .perms import Permutation, StabilizerChain, build_stabilizer_chain
from .reductions import GammaSetStabilizer, StructuredHspInstance, paired_oracle

_clock = itertools.count(1)


def event_stamp() -> int:
    """Monotonic stamp shared by batch sealing and oracle call logging."""
    return next(_clock)


class DecisionAnswer(enum.Enum):
    TRIVIAL = "trivial"
    NONTRIVIAL = "nontrivial"


class OracleInconsistentError(RuntimeError):
    """The answer vector cannot have come from a correct decision oracle."""


class NoShiftError(RuntimeError):
    """No translate accepted at some chain level; promise violated or oracle buggy."""


class NotSmoothError(ValueError):
    """A prime factor above the smoothness bound remains."""


@dataclass(frozen=True)
class QueryRecord:
    """One decision query: an index tuple plus the instance it asks about."""

    index: tuple
    instance: object
    created_stamp: int = field(default_factory=event_stamp)


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


@dataclass(frozen=True)
class CallLogEntry:
    stamp: int
    index: tuple


class DecisionOracle:
    """Base class for every program the reductions and checkers query.

    One protocol serves all of them: a structured decision query
    (:class:`QueryRecord`), a shift query, a dihedral subgroup query, or a
    bare :class:`HspInstance` handed to a search program.  ``answer`` logs
    each call with a stamp, then defers to ``_answer``; ``cap`` bounds the
    enumerations a brute-force answerer makes.
    """

    def __init__(self, cap: int = DEFAULT_CAP):
        self.cap = cap
        self.call_log: list[CallLogEntry] = []

    def answer(self, query):
        # A search program's query is an instance, which carries no index.
        self.call_log.append(CallLogEntry(event_stamp(), getattr(query, "index", ())))
        return self._answer(query)

    def _answer(self, query):
        raise NotImplementedError

    @property
    def calls(self) -> int:
        return len(self.call_log)


# The shift and dihedral protocols are the decision protocol.  The names stay
# because perfbench/tracing.py looks each one up and wraps ``answer`` in the
# class dictionary.
ShiftDecisionOracle = DecisionOracle
DihedralDecisionOracle = DecisionOracle


# -- hidden subgroup search over permutation groups ---------------------------------


def _chain_level_group(chain: StabilizerChain, level: int) -> FiniteGroup:
    gens = chain.subgroup_generators(level)
    return FiniteGroup(gens, Permutation.identity(chain.degree),
                       name=f"stabilizer level {level}",
                       elements_hint=lambda: list(chain.elements(level)),
                       known_order=chain.level_order(level))


@dataclass
class HspSearchPlan:
    """A sealed-to-be query family for one search, plus what reconstruction needs."""

    instance: HspInstance
    chain: StabilizerChain
    batch: QueryBatch


def build_hsp_search_plan(inst: HspInstance, cap: int = DEFAULT_CAP) -> HspSearchPlan:
    """Construct the full truth-table query family for a permutation instance.

    For each level i the base is the paired oracle over (pointwise stabilizer
    of 1..i-1) wreath the slot swap, constrained by three doubled-point
    setwise stabilizers indexed by (i, j), (i, j'), (k, l).
    """
    identity = inst.group.identity
    if not isinstance(identity, Permutation):
        raise TypeError("search-to-decision runs over permutation groups")
    n = identity.degree
    for g in inst.group.generators:
        if not isinstance(g, Permutation) or g.degree != n:
            raise TypeError("search-to-decision runs over permutation groups")
    chain = build_stabilizer_chain(inst.group.generators, n)
    batch = QueryBatch()
    label_memo: dict = {}

    def slot_label(g) -> Label:
        # Memoized because slot values repeat across the quadratically many
        # wreath elements.  Keyed by object identity: slot objects are drawn
        # from one shared element list, and the stored reference keeps the id
        # stable.
        hit = label_memo.get(id(g))
        if hit is None:
            hit = label_memo[id(g)] = (g, inst.oracle.evaluate(g))
        return hit[1]

    paired = paired_oracle(slot_label, slot_label, f"paired {inst.oracle.description}")
    for i in range(1, n + 1):
        level_group = _chain_level_group(chain, i - 1)
        base = HspInstance(wreath_group(level_group, 2, cap), paired, Side.LEFT)
        for j in range(i + 1, n + 1):
            for j2 in range(i + 1, n + 1):
                for k in range(i, n + 1):
                    for ell in range(i, n + 1):
                        constraints = (
                            GammaSetStabilizer(n, frozenset({(i, 1), (j, 2)})),
                            GammaSetStabilizer(n, frozenset({(i, 2), (j2, 1)})),
                            GammaSetStabilizer(n, frozenset({(k, 1), (ell, 2)})),
                        )
                        batch.add((i, j, j2, k, ell),
                                  StructuredHspInstance(base, constraints))
    return HspSearchPlan(inst, chain, batch)


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
    n = plan.chain.degree
    found = reconstruct_from_answers(n, answers)
    if found is None:
        return None
    inst = plan.instance
    if inst.oracle.evaluate(found) != inst.oracle.evaluate(inst.group.identity):
        raise OracleInconsistentError("assembled element does not share the identity label")
    return found


def hsp_search_via_decision(inst: HspInstance, oracle: DecisionOracle,
                            cap: int = DEFAULT_CAP) -> Permutation | None:
    """Find a nontrivial hidden-subgroup member with a decision oracle only.

    The whole query batch is constructed and sealed before the first call.
    Returns None when every answer is trivial (hidden subgroup trivial for a
    correct oracle); raises OracleInconsistentError when the answers cannot be
    explained by any hidden subgroup.
    """
    plan = build_hsp_search_plan(inst, cap)
    answers = plan.batch.run(oracle)
    return finish_hsp_search(plan, answers)


# -- hidden shift search over permutation groups ------------------------------------


@dataclass(frozen=True)
class ShiftQuery:
    """Does some translate relate the two functions on this subgroup?"""

    index: tuple
    group: FiniteGroup
    f1: Callable[[GroupElement], Label]
    f2: Callable[[GroupElement], Label]


def hsh_search_via_decision(group: FiniteGroup, f1: OracleFunction,
                            f2: OracleFunction, oracle: DecisionOracle,
                            cap: int = DEFAULT_CAP) -> Permutation:
    """Recover the translate u with f1(g) = f2(g u) by walking the chain.

    At each level, first ask whether the current pair already relates on the
    next stabilizer; otherwise exactly one coset representative, composed onto
    the running translate, must make it so.  The answer composes bottom-up:
    the representative found at the deepest level applies first.
    """
    identity = group.identity
    if not isinstance(identity, Permutation):
        raise TypeError("shift search runs over permutation groups")
    n = identity.degree
    chain = build_stabilizer_chain(group.generators, n)
    acc = Permutation.identity(n)
    for i in range(n):
        level_group = _chain_level_group(chain, i + 1)
        current = acc
        base_query = ShiftQuery((i + 1, "stay"), level_group, f1.evaluate,
                                lambda g, a=current: f2.evaluate(g.op(a)))
        if oracle.answer(base_query):
            continue
        reps = [rep for b, rep in sorted(chain.transversal(i + 1).items())
                if not rep.is_identity()]
        found = None
        for rep in reps:
            candidate = rep.op(current)
            query = ShiftQuery((i + 1, tuple(rep.images)), level_group, f1.evaluate,
                               lambda g, a=candidate: f2.evaluate(g.op(a)))
            if oracle.answer(query):
                found = rep
                break
        if found is None:
            raise NoShiftError(f"no translate accepted at level {i + 1}")
        acc = found.op(acc)
    return acc


# -- dihedral search over smooth orders ----------------------------------------------


@dataclass(frozen=True)
class SmoothFactorization:
    """Prime factorization with every prime at most the bound."""

    n: int
    bound: int
    factors: tuple[tuple[int, int], ...]

    def __post_init__(self):
        total = 1
        for p, e in self.factors:
            total *= p ** e
            if p > self.bound:
                raise NotSmoothError(f"factor {p} exceeds bound {self.bound}")
        if total != self.n:
            raise ValueError("factors do not multiply back to n")


def smooth_factorize(n: int, bound: int) -> SmoothFactorization:
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
    return SmoothFactorization(n, bound, tuple(factors))


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


@dataclass(frozen=True)
class DihedralSubgroupQuery:
    """Is the hidden subgroup's reflection inside <r^step, r^offset s>?"""

    index: tuple
    instance: HspInstance
    step: int
    offset: int

    def subgroup(self) -> FiniteGroup:
        ident = self.instance.group.identity
        if not isinstance(ident, DihedralElement):
            raise TypeError("dihedral query needs a dihedral instance")
        n = ident.rotations
        step, offset = self.step % n, self.offset % n
        gens = [DihedralElement(n, step, 0), DihedralElement(n, offset, 1)]
        count = n // math.gcd(step, n) if step else 1

        def listing():
            rots = sorted({(k * step) % n for k in range(count)})
            return ([DihedralElement(n, r, 0) for r in rots]
                    + [DihedralElement(n, (r + offset) % n, 1) for r in rots])

        return FiniteGroup(gens, ident.identity_like(), name=f"<r^{step}, r^{offset}s>",
                           elements_hint=listing, known_order=2 * count)


def dihedral_search_via_decision(n: int, bound: int, inst: HspInstance,
                                 oracle: DecisionOracle) -> int:
    """Recover a from the hidden order-two subgroup {id, r^a s} of D_n.

    For each prime power p^e dividing n, the residue of a mod p^j is learned
    one level at a time with exactly p queries per level, always reusing the
    original function restricted to <r^(p^j), r^offset s>.  The residues
    combine by remaindering.  Total queries: sum of e_i * p_i.
    """
    fact = smooth_factorize(n, bound)
    ident = inst.group.identity
    if not isinstance(ident, DihedralElement) or ident.rotations != n:
        raise TypeError(f"expected an instance over the dihedral group of order {2 * n}")
    residues = []
    for p, e in fact.factors:
        known = 0
        for j in range(1, e + 1):
            step = p ** j
            block = [DihedralSubgroupQuery((p, j, t), inst, step,
                                           t * p ** (j - 1) + known)
                     for t in range(p)]
            accepted = [q for q in block
                        if oracle.answer(q) is DecisionAnswer.NONTRIVIAL]
            if len(accepted) != 1:
                raise OracleInconsistentError(
                    f"{len(accepted)} accepted offsets at modulus {step}")
            known = accepted[0].offset
        residues.append((known, p ** e))
    value, modulus = crt_combine(residues)
    assert modulus == n
    return value
