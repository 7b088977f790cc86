"""Group constructions the tests use as references; the library never needs them.

The direct product over tuple elements, the literal product-domain oracle of
a structured instance, full setwise stabilizers in S_n, and the doubled-point
action of two-slot wreath elements written from its definition.
"""

from __future__ import annotations

import itertools
from typing import Iterable

from cosetlab.groups import (FiniteGroup, TupleElement, WreathElement, element_key,
                             group_op, invert)
from cosetlab.instances import HspInstance, Label, OracleFunction
from cosetlab.perms import Permutation
from cosetlab.reductions import StructuredHspInstance


def product_group(factors: list[FiniteGroup]) -> FiniteGroup:
    """Direct product over TupleElement components."""
    idents = tuple(f.identity for f in factors)
    gens = []
    for idx, f in enumerate(factors):
        for g in f.generators:
            gens.append(TupleElement(tuple(g if j == idx else idents[j]
                                           for j in range(len(factors)))))

    def all_elements():
        parts = [f.elements() for f in factors]
        return (TupleElement(combo) for combo in itertools.product(*parts))

    known = None
    if all(f.known_order is not None for f in factors):
        known = 1
        for f in factors:
            known *= f.known_order
    return FiniteGroup(gens, TupleElement(idents), name="product",
                       elements_hint=all_elements, known_order=known)


def audit_oracle(structured: StructuredHspInstance) -> OracleFunction:
    """The product-domain function (f(g), g g_1^-1, ..., g g_k^-1) of a
    structured instance over a plain base, over tuple elements; for
    exhaustive comparison on small cases only."""
    if not isinstance(structured.base, HspInstance):
        raise TypeError("the audit oracle needs a plain hidden-subgroup base")
    base_oracle = structured.base.oracle
    k = len(structured.constraints)

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


def point_set(points: Iterable[int], n: int) -> tuple[int, ...]:
    """Normalize a subset of {1..n} to a sorted duplicate-free tuple."""
    pts = sorted(points)
    if len(set(pts)) != len(pts):
        raise ValueError(f"duplicate points in {pts}")
    if pts and (pts[0] < 1 or pts[-1] > n):
        raise ValueError(f"points {pts} not inside 1..{n}")
    return tuple(pts)


def setwise_stabilizer_generators(n: int, points: Iterable[int]) -> list[Permutation]:
    """Generators of the full setwise stabilizer of ``points`` inside S_n.

    The stabilizer splits as the product of the symmetric groups on the set
    and on its complement, so transpositions of neighbours within each part
    generate it.
    """
    inside = point_set(points, n)
    outside = tuple(x for x in range(1, n + 1) if x not in set(inside))
    gens = []
    for part in (inside, outside):
        for a, b in zip(part, part[1:]):
            gens.append(Permutation.from_cycles(n, [(a, b)]))
    return gens


def gamma_point_image(w: WreathElement, row: int, col: int) -> tuple[int, int]:
    """Image of the point (row, col), col in {1, 2}, under a two-slot wreath element."""
    target = (col - 1 + w.shift) % 2
    return w.slots[target].apply(row), target + 1
