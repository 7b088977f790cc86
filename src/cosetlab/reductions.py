"""Constructions carrying shift and orbit problems into hidden-subgroup form.

Each construction builds a derived oracle over a wreath product of the input
group with a two- or n-fold cyclic slot shift, together with the generators
of the subgroup the derived oracle provably hides (available when the source
instance was planted).  Recovery maps run the constructions backwards.

The intersection gadget represents a hidden-subgroup instance constrained by
extra groups without materializing the direct product; solvers consume the
base instance plus membership predicates, while an audit oracle exposes the
literal product-domain function for small cross-checks.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Sequence

from .groups import (DEFAULT_CAP, FiniteGroup, GroupElement, WreathElement,
                     close_under_op, element_key, element_pow, gamma_point_image,
                     group_op, invert, reduce_generators, wreath_embed,
                     wreath_group, wreath_unembed)
from .instances import (GhshInstance, HiddenCosetInstance, HspInstance, Label,
                        OracleFunction, OrbitCosetInstance, Side)
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
    """Rebuild a planted instance, re-applying a recorded construction if any."""
    from .instances import instance_from_json
    if "construction" in data:
        source = instance_from_json(data["construction"]["source"], cap)
        return reduce_instance(source)
    return instance_from_json(data, cap)


# -- hidden coset <-> hidden subgroup ---------------------------------------------


def paired_oracle(f1: Callable[[GroupElement], Label],
                  f2: Callable[[GroupElement], Label],
                  description: str) -> OracleFunction:
    """Pair two functions over the slots of two-slot wreath elements.

    Gives (f1(a), f2(b)) on ((a, b), 0) and (f2(b), f1(a)) on ((a, b), 1).
    Every pairing construction is this one: the hidden-coset and orbit-coset
    reductions and each level of the search-to-decision plan.
    """

    def paired(w: WreathElement) -> Label:
        a, b = w.slots
        if w.shift == 0:
            return (f1(a), f2(b))
        return (f2(b), f1(a))

    return OracleFunction(paired, description=description)


def hidden_coset_to_hsp(hc: HiddenCosetInstance) -> HspInstance:
    """Pair the two functions over the two-slot wreath product.

    The derived oracle evaluates (f1, f2) on the slots, swapping the pair when
    the shift bit is set.  It is constant exactly on
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

    oracle = paired_oracle(hc.f1.evaluate, hc.f2.evaluate, "paired coset functions")
    return HspInstance(wreath, oracle, Side.LEFT, planted_subgroup=planted)


def recover_coset_solution(k_gens: Sequence[WreathElement],
                           group: FiniteGroup) -> tuple[list[GroupElement], GroupElement]:
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

    Component j of the derived oracle applies the function indexed by the
    shifted slot position, so the n relations fold into constancy on right
    cosets of the n-element cyclic subgroup generated by
    (u, ..., u, u^(1-n), 1).
    """
    n = inst.copies
    wreath = wreath_group(inst.group, n)

    def spread(w: WreathElement) -> Label:
        return tuple(inst.F(((j + w.shift) % n) + 1, w.slots[j]) for j in range(n))

    planted = None
    if inst.planted_shift is not None:
        u = inst.planted_shift
        slots = tuple([u] * (n - 1) + [element_pow(u, 1 - n)])
        planted = (WreathElement(slots, 1),)

    oracle = OracleFunction(spread, description="spread shift chain")
    return HspInstance(wreath, oracle, Side.RIGHT, planted_subgroup=planted)


def recover_ghsh_functions(reduced: HspInstance) -> Callable[[int, GroupElement], Label]:
    """Uniform access to the original chain: component i of the derived oracle
    at the diagonal shift-free element (g, ..., g, 0)."""
    identity = reduced.group.identity
    if not isinstance(identity, WreathElement):
        raise TypeError("expected an instance over a wreath product")
    n = identity.copies

    def F(i: int, g: GroupElement) -> Label:
        if not 1 <= i <= n:
            raise ValueError(f"function index {i} out of range 1..{n}")
        value = reduced.oracle.evaluate(WreathElement((g,) * n, 0))
        return value[i - 1]

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

    oracle = paired_oracle(lambda a: act.states[act.act(a, phi0)],
                           lambda b: act.states[act.act(b, phi1)], "paired orbit maps")
    return HspInstance(wreath, oracle, Side.LEFT, planted_subgroup=tuple(gens))


def recover_orbit_solution(k_gens: Sequence[WreathElement], oc: OrbitCosetInstance,
                           cap: int = DEFAULT_CAP
                           ) -> tuple[GroupElement | None, list[GroupElement]]:
    """From hidden-subgroup generators of a paired-orbit instance, produce a
    mapping element (or None as a disjointness certificate) and generators of
    the stabilizer of the second state."""
    identity = WreathElement((oc.action.group.identity,) * 2, 0)
    closure = close_under_op(k_gens, identity, cap)
    stab = [w.slots[1] for w in closure if w.shift == 0]
    stab_gens = reduce_generators(stab, oc.action.group.identity, cap)
    swapping = sorted((w for w in closure if w.shift == 1), key=element_key)
    if not swapping:
        return None, stab_gens
    return swapping[0].slots[1], stab_gens


# -- intersection gadget -----------------------------------------------------------


class Constraint:
    """Membership predicate standing in for one factor of the product domain."""

    def contains(self, x: GroupElement) -> bool:
        raise NotImplementedError


@dataclass
class GroupConstraint(Constraint):
    """Constraint given by an explicit generated group."""

    group: FiniteGroup
    cap: int = DEFAULT_CAP

    def contains(self, x: GroupElement) -> bool:
        return self.group.contains(x, self.cap)


@dataclass(frozen=True)
class GammaSetStabilizer(Constraint):
    """Setwise stabilizer of doubled points (row, column), columns 1-based.

    Accepts two-slot wreath elements over permutations and checks images under
    the doubled-point action without flattening, or plain permutations over
    the flattened 2n points.
    """

    rows: int
    pairs: frozenset[tuple[int, int]]

    def contains(self, x: GroupElement) -> bool:
        if isinstance(x, WreathElement):
            return {gamma_point_image(x, r, c) for (r, c) in self.pairs} == self.pairs
        if isinstance(x, Permutation):
            flat = {r + (c - 1) * self.rows for (r, c) in self.pairs}
            return {x.apply(p) for p in flat} == flat
        raise TypeError("doubled-point stabilizer needs wreath elements or permutations")


class StructuredHspInstance:
    """A hidden-subgroup instance joined with constraint groups.

    Stands for the product-domain instance whose hidden subgroup is the
    diagonal copy of (base hidden subgroup) intersected with every constraint;
    the product is never materialized.  Solvers filter the base kernel through
    the constraint predicates.  ``audit_oracle`` exposes the literal
    product-domain function for small-case cross-checks.
    """

    def __init__(self, base: HspInstance, constraints: Sequence[Constraint] = ()):
        self.base = base
        self.constraints = tuple(constraints)

    def diagonal_kernel(self, cap: int = DEFAULT_CAP) -> list[GroupElement]:
        """Base-kernel elements satisfying every constraint (the diagonal,
        read off its first coordinate)."""
        return [g for g in self.base.kernel(cap)
                if all(c.contains(g) for c in self.constraints)]

    def audit_oracle(self) -> OracleFunction:
        """The product-domain function (f(g), g g_1^-1, ..., g g_k^-1) over
        tuple elements; for exhaustive comparison on small cases only."""
        base_oracle = self.base.oracle
        k = len(self.constraints)

        def f_prime(t) -> Label:
            items = t.items
            if len(items) != k + 1:
                raise ValueError(f"expected a {k + 1}-component tuple element")
            g = items[0]
            parts = [base_oracle.evaluate(g)]
            for gi in items[1:]:
                parts.append(element_key(group_op(g, invert(gi))))
            return tuple(parts)

        return OracleFunction(f_prime, description="intersection audit")


# -- flattening wreath instances to permutation instances ---------------------------


def embed_wreath_instance(inst: HspInstance, cap: int = DEFAULT_CAP) -> HspInstance:
    """Transport an instance over a two-slot wreath of permutations to the
    isomorphic permutation group on the doubled points."""
    identity = inst.group.identity
    if not isinstance(identity, WreathElement) or identity.copies != 2:
        raise TypeError("expected an instance over a two-slot wreath product")
    rows = identity.slots[0].degree
    gens = [wreath_embed(w) for w in inst.group.generators]
    flat_group = FiniteGroup(
        gens, Permutation.identity(2 * rows),
        name=f"{inst.group.name or 'wreath'} on {2 * rows} points",
        elements_hint=lambda: (wreath_embed(w) for w in inst.group.iter_elements(cap)),
        known_order=inst.group.known_order)
    wrapped = inst.oracle
    oracle = OracleFunction(lambda p: wrapped.evaluate(wreath_unembed(p, rows)),
                            description=f"flattened {wrapped.description}")
    planted = None
    if inst.planted_subgroup is not None:
        planted = tuple(wreath_embed(w) for w in inst.planted_subgroup)
    return HspInstance(flat_group, oracle, inst.side, planted_subgroup=planted)
