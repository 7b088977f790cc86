"""Constructions carrying shift and orbit problems into hidden-subgroup form.

Each construction builds a derived oracle over a wreath product of the input
group with a two- or n-fold cyclic slot shift, together with the generators
of the subgroup the derived oracle provably hides (available when the source
instance was planted).  Recovery maps run the constructions backwards.

The intersection gadget represents a hidden-subgroup instance constrained by
extra groups without materializing the direct product; solvers consume the
base instance plus membership predicates.
"""

from __future__ import annotations

from typing import Callable, Iterable, Sequence

from .groups import (DEFAULT_CAP, FiniteGroup, GroupElement, WreathElement,
                     close_under_op, element_key, element_pow, group_op, invert,
                     reduce_generators, wreath_embed, wreath_group, wreath_unembed)
from .instances import (GhshInstance, HiddenCosetInstance, HspInstance, Label,
                        OracleFunction, OrbitCosetInstance, Side, instance_from_json)
from .perms import Permutation


class InvalidKGeneratorsError(ValueError):
    """Raised when a claimed generating set lacks the slot-swapping part."""


REDUCTION_NAMES = {
    "hidden_coset": "hidden-coset-to-hsp",
    "ghsh": "shift-chain-to-hsp",
    "orbit_coset": "orbit-coset-to-hsp",
}


def reduce_instance(instance) -> HspInstance:
    """Apply the construction matching the instance's problem family."""
    if isinstance(instance, HiddenCosetInstance):
        return hidden_coset_to_hsp(instance)
    if isinstance(instance, GhshInstance):
        return ghsh_to_hsp(instance)
    if isinstance(instance, OrbitCosetInstance):
        return orbit_coset_to_hsp(instance)
    raise TypeError(f"no reduction applies to {type(instance).__name__}")


def reduced_instance_to_json(source_json: dict) -> dict:
    """Serialized form of a reduced instance: the source plus provenance."""
    problem = source_json.get("problem")
    if problem not in REDUCTION_NAMES:
        raise ValueError(f"no reduction applies to problem {problem!r}")
    return {"problem": "hsp",
            "construction": {"via": REDUCTION_NAMES[problem],
                             "source": source_json}}


def instance_from_json_any(data: dict, cap: int = DEFAULT_CAP):
    """Rebuild a planted instance, re-applying a recorded construction if any;
    a construction record must read as ``reduced_instance_to_json`` writes it."""
    if "construction" in data:
        construction = data["construction"]
        if not (isinstance(construction, dict) and "source" in construction):
            raise ValueError("construction must be an object with a source")
        source = construction["source"]
        if not isinstance(source, dict):
            raise ValueError("construction source must be an instance object")
        reduced = reduce_instance(instance_from_json(source, cap))
        if data != reduced_instance_to_json(source):
            raise ValueError("construction record does not match its source")
        return reduced
    return instance_from_json(data, cap)


# -- hidden coset <-> hidden subgroup ---------------------------------------------


class PairedOracle(OracleFunction):
    """Two functions paired over the slots of two-slot wreath elements:
    (f1(a), f2(b)) on ((a, b), 0) and (f2(b), f1(a)) on ((a, b), 1).  Every
    pairing is built this way: the hidden-coset and orbit-coset reductions,
    the checker trials and each level of the search-to-decision plan.

    ``select`` tests a pair label slot by slot, in label order, and computes
    the second slot's label only when the first one matches; it still tests
    every element it is given, one count each.
    """

    def __init__(self, f1: Callable[[GroupElement], Label],
                 f2: Callable[[GroupElement], Label], description: str):
        self.f1 = f1
        self.f2 = f2

        def paired(w: WreathElement) -> Label:
            a, b = w.slots
            if w.shift == 0:
                return (f1(a), f2(b))
            return (f2(b), f1(a))

        super().__init__(paired, description)

    def select(self, elements: Iterable[GroupElement], label: Label) -> list[GroupElement]:
        if not (isinstance(label, tuple) and len(label) == 2):
            # No paired label equals it; the generic path selects nothing.
            return super().select(elements, label)
        f1, f2 = self.f1, self.f2
        first, second = label
        kept: list[GroupElement] = []
        keep = kept.append
        tested = 0
        try:
            for tested, w in enumerate(elements, 1):
                a, b = w.slots
                if w.shift == 0:
                    if f1(a) == first and f2(b) == second:
                        keep(w)
                elif f2(b) == first and f1(a) == second:
                    keep(w)
        finally:
            self._count += tested
        return kept


def hidden_coset_to_hsp(hc: HiddenCosetInstance) -> HspInstance:
    """Pair the two functions over the two-slot wreath product.

    The derived oracle reads (f1, f2) on the slots through the source's label
    stores, swapping the pair when the shift bit is set.  It is constant on
    (H x u^-1 H u x {0}) u (u^-1 H x H u x {1}) and distinct on that
    subgroup's left cosets.
    """
    wreath = wreath_group(hc.group, 2)
    planted = None
    if hc.planted_subgroup is not None and hc.planted_shift is not None:
        e = hc.group.identity
        u = hc.planted_shift
        u_inv = invert(u)
        gens: list[GroupElement] = []
        for h in hc.planted_subgroup:
            gens.append(WreathElement((h, e), 0))
            gens.append(WreathElement((e, group_op(group_op(u_inv, h), u)), 0))
        gens.append(WreathElement((u_inv, u), 1))
        planted = tuple(gens)

    oracle = PairedOracle(*hc.labels, "paired coset functions")
    return HspInstance(wreath, oracle, Side.LEFT, planted_subgroup=planted)


def recover_coset_solution(k_gens: Sequence[WreathElement]
                           ) -> tuple[list[GroupElement], GroupElement]:
    """Read (subgroup generators, shift) back off generators of the hidden
    subgroup of a paired-coset instance.

    The shift is the second slot of the first slot-swapping generator in
    canonical order; every generator then contributes two subgroup members.
    """
    swapping = sorted((g for g in k_gens if g.shift == 1), key=element_key)
    if not swapping:
        raise InvalidKGeneratorsError(
            "no slot-swapping generator; any generating set of the hidden "
            "subgroup of a paired-coset instance must contain one")
    u = swapping[0].slots[1]
    u_inv = invert(u)
    sub_gens: list[GroupElement] = []
    for g in k_gens:
        a, b = g.slots
        if g.shift == 0:
            sub_gens.append(a)
            sub_gens.append(group_op(group_op(u, b), u_inv))
        else:
            sub_gens.append(group_op(u, a))
            sub_gens.append(group_op(b, u_inv))
    kept = [g for g in sub_gens if not g.is_identity()]
    return kept, u


# -- n-function shift chains -------------------------------------------------------


def ghsh_to_hsp(inst: GhshInstance) -> HspInstance:
    """Spread the function chain over the n-slot wreath product.

    Component j of the derived oracle reads the store of the function indexed
    by the shifted slot position, so the n relations fold into constancy on
    right cosets of the n-element cyclic subgroup generated by
    (u, ..., u, u^(1-n), 1).
    """
    n = inst.copies
    wreath = wreath_group(inst.group, n)
    labels = inst.labels

    def spread(w: WreathElement) -> Label:
        return tuple(labels[(j + w.shift) % n](w.slots[j]) for j in range(n))

    planted = None
    if inst.planted_shift is not None:
        u = inst.planted_shift
        slots = tuple([u] * (n - 1) + [element_pow(u, 1 - n)])
        planted = (WreathElement(slots, 1),)

    oracle = OracleFunction(spread, description="spread shift chain")
    return HspInstance(wreath, oracle, Side.RIGHT, planted_subgroup=planted)


def recover_ghsh_functions(reduced: HspInstance) -> Callable[[int, GroupElement], Label]:
    """Uniform access to the original chain: component i of the reduced
    instance's stored label at the diagonal shift-free element (g, ..., g, 0)."""
    identity = reduced.group.identity
    if not isinstance(identity, WreathElement):
        raise TypeError("expected an instance over a wreath product")
    n = identity.copies

    def F(i: int, g: GroupElement) -> Label:
        if not 1 <= i <= n:
            raise ValueError(f"function index {i} out of range 1..{n}")
        return reduced.label(WreathElement((g,) * n, 0))[i - 1]

    return F


# -- orbit coset -------------------------------------------------------------------


def orbit_coset_to_hsp(oc: OrbitCosetInstance) -> HspInstance:
    """Pair the two orbit-state maps over the two-slot wreath product.

    Labels are ordered pairs of state ids.  The hidden subgroup is the product
    of the two point stabilizers on the shift-free part, extended by the
    shift-swapping coset when the two orbits intersect.
    """
    act = oc.action
    group = act.group
    wreath = wreath_group(group, 2)
    phi0, phi1 = oc.phi0, oc.phi1
    e = group.identity
    gens: list[GroupElement] = []
    for s in act.stabilizer_generators(phi0):
        gens.append(WreathElement((s, e), 0))
    for s in act.stabilizer_generators(phi1):
        gens.append(WreathElement((e, s), 0))
    mapping = [g for g in group.elements() if act.act(g, phi1) == phi0]
    if mapping:
        u = min(mapping, key=element_key)
        gens.append(WreathElement((invert(u), u), 1))

    oracle = PairedOracle(lambda a: act.states[act.act(a, phi0)],
                          lambda b: act.states[act.act(b, phi1)], "paired orbit maps")
    return HspInstance(wreath, oracle, Side.LEFT, planted_subgroup=tuple(gens))


def recover_orbit_solution(k_gens: Sequence[WreathElement], oc: OrbitCosetInstance
                           ) -> tuple[GroupElement | None, list[GroupElement]]:
    """From hidden-subgroup generators of a paired-orbit instance, produce a
    mapping element (or None as a disjointness certificate) and generators of
    the stabilizer of the second state."""
    group = oc.action.group
    identity = WreathElement((group.identity,) * 2, 0)
    closure = close_under_op(k_gens, identity, group.cap)
    stab = [w.slots[1] for w in closure if w.shift == 0]
    stab_gens = reduce_generators(stab, group.identity, group.cap)
    swapping = sorted((w for w in closure if w.shift == 1), key=element_key)
    if not swapping:
        return None, stab_gens
    return swapping[0].slots[1], stab_gens


# -- intersection gadget -----------------------------------------------------------


class SubgroupConstraint:
    """Membership in a generated group: by arithmetic for a cyclic or
    dihedral group, else by lookup in the group's list, built on the first
    test (see ``FiniteGroup.contains``)."""

    def __init__(self, group: FiniteGroup):
        self.group = group
        self.contains = group.contains


class GammaSetStabilizer:
    """Setwise stabilizer of doubled points (row, column), columns 1-based,
    tested on two-slot wreath elements over permutations.

    The pair set is compiled at construction.  A wreath element with shift t
    sends (r, c) to row ``slots[d].images[r-1]`` of column d + 1, where
    d = (c - 1 + t) mod 2; so for each shift the test is one slot condition
    ``(d, r - 1, allowed rows of column d + 1)`` per pair.  The action is a
    bijection, so mapping the set into itself is mapping it onto itself, and
    the first condition that fails decides.  ``contains`` is the compiled
    test; it raises TypeError on anything but a wreath element.
    """

    def __init__(self, pairs: frozenset[tuple[int, int]]):
        self.pairs = pairs
        ordered = sorted(pairs)
        allowed = (frozenset(r for r, c in ordered if c == 1),
                   frozenset(r for r, c in ordered if c == 2))
        slot_conditions = ([], [])
        for r, c in ordered:
            for t in (0, 1):
                d = (c - 1 + t) % 2
                slot_conditions[t].append((d, r - 1, allowed[d]))
        self._conditions = (tuple(slot_conditions[0]), tuple(slot_conditions[1]))
        self.contains = _doubled_point_test(*self._conditions)


def _doubled_point_test(shift0: tuple, shift1: tuple) -> Callable[[GroupElement], bool]:
    """One predicate over compiled doubled-point conditions: the slot
    conditions of a wreath element's shift, tested in order until one fails."""
    by_shift = (shift0, shift1)

    def test(x: GroupElement) -> bool:
        if not isinstance(x, WreathElement):
            raise TypeError("doubled-point stabilizer needs wreath elements")
        slots = x.slots
        for d, i, allowed in by_shift[x.shift]:
            if slots[d].images[i] not in allowed:
                return False
        return True

    return test


def _conjunction(constraints: tuple) -> Callable[[GroupElement], bool]:
    """One predicate for every constraint at once; the first failure decides.
    Doubled-point stabilizers join their conditions into one compiled test."""
    if len(constraints) == 1:
        return constraints[0].contains
    if constraints and all(isinstance(c, GammaSetStabilizer) for c in constraints):
        return _doubled_point_test(
            *(sum((c._conditions[k] for c in constraints), ()) for k in range(2)))
    tests = tuple(c.contains for c in constraints)

    def accepts(g: GroupElement) -> bool:
        for test in tests:
            if not test(g):
                return False
        return True

    return accepts


class StructuredHspInstance:
    """A hidden-subgroup instance joined with constraint groups.

    Stands for the product-domain instance whose hidden subgroup is the
    diagonal copy of (base hidden subgroup) intersected with every constraint;
    the product is never materialized.  Solvers filter the base kernel through
    ``accepts``, the constraints' predicates bound once into one conjunction.
    The base may itself be a structured instance: intersection is associative,
    so nesting changes no kernel, and instances sharing a constraint prefix
    share that prefix's filtered kernel, which ``kernel`` computes once and
    caches.  A slotted class, since a plan makes one per query.
    """

    __slots__ = ("base", "constraints", "accepts", "_kernel")

    def __init__(self, base: HspInstance | StructuredHspInstance,
                 constraints: Sequence[SubgroupConstraint | GammaSetStabilizer] = ()):
        self.base = base
        self.constraints = tuple(constraints)
        self.accepts = _conjunction(self.constraints)
        self._kernel: list[GroupElement] | None = None

    @property
    def group(self) -> FiniteGroup:
        return self.base.group

    def kernel(self) -> list[GroupElement]:
        """Base-kernel elements satisfying every constraint (the diagonal,
        read off its first coordinate); computed on the first call and cached."""
        if self._kernel is None:
            self._kernel = list(filter(self.accepts, self.base.kernel()))
        return self._kernel


# -- flattening wreath instances to permutation instances ---------------------------


def embed_wreath_group(group: FiniteGroup) -> FiniteGroup:
    """The permutation group on the doubled points isomorphic to a two-slot
    wreath product of permutations; it streams the wreath elements embedded."""
    identity = group.identity
    if not isinstance(identity, WreathElement) or identity.copies != 2:
        raise TypeError("expected a two-slot wreath product of permutations")
    rows = identity.slots[0].degree
    return FiniteGroup(
        [wreath_embed(w) for w in group.generators], Permutation.identity(2 * rows),
        name=f"{group.name or 'wreath'} on {2 * rows} points",
        elements_hint=lambda: map(wreath_embed, group.iter_elements()),
        known_order=group.known_order, cap=group.cap)


def embed_wreath_oracle(read: Callable[[WreathElement], Label], rows: int) -> OracleFunction:
    """A reader over the wreath product, read on the doubled points of
    ``rows`` rows: each flat permutation is unembedded, then read."""
    return OracleFunction(lambda p: read(wreath_unembed(p, rows)),
                          description="flattened wreath labels")


def embed_wreath_instance(inst: HspInstance) -> HspInstance:
    """Transport an instance over a two-slot wreath of permutations to the
    isomorphic permutation group on the doubled points: the flattened group
    joined with the instance's label store, flattened."""
    group = embed_wreath_group(inst.group)
    planted = None
    if inst.planted_subgroup is not None:
        planted = tuple(wreath_embed(w) for w in inst.planted_subgroup)
    return HspInstance(group, embed_wreath_oracle(inst.label, group.identity.degree // 2),
                       inst.side, planted_subgroup=planted)
