import itertools
import json
import random

import pytest

from cosetlab.groups import (CyclicElement, DihedralElement, FiniteGroup,
                             ShapeMismatchError, TupleElement, WreathElement,
                             close_under_op, cyclic_group, dihedral_group,
                             element_from_json, element_key, element_pow,
                             element_to_json, enumerate_group, group_from_json,
                             group_op, group_to_json, identity_like, invert,
                             normal_form_group, symmetric_group, wreath_embed,
                             wreath_group, wreath_unembed)
from cosetlab.perms import ExceedsCapError, Permutation, parse_cycles
from reference_groups import product_group


def wz4(a, b, t):
    return WreathElement((CyclicElement(4, a), CyclicElement(4, b)), t)


def test_wreath_op_slot_formula():
    # slot j of x*y multiplies x's slot (j + y.shift) onto y's slot j
    assert group_op(wz4(1, 2, 1), wz4(3, 0, 1)) == wz4(1, 1, 0)


def test_identity_laws_per_shape():
    rng = random.Random(3)
    samples = [
        Permutation((3, 1, 2)),
        CyclicElement(7, 4),
        DihedralElement(12, 5, 1),
        wz4(2, 3, 1),
        TupleElement((CyclicElement(3, 2), DihedralElement(4, 1, 0))),
    ]
    for x in samples:
        e = identity_like(x)
        assert group_op(x, e) == x
        assert group_op(e, x) == x
        assert group_op(x, invert(x)) == e
        assert group_op(invert(x), x) == e


def test_dihedral_reflection_involution():
    r = DihedralElement(12, 1, 1)
    assert group_op(r, r) == DihedralElement(12, 0, 0)
    # s r = r^-1 s
    s = DihedralElement(12, 0, 1)
    rot = DihedralElement(12, 1, 0)
    assert group_op(s, rot) == group_op(invert(rot), s)


def test_wreath_inverse_formula():
    assert invert(wz4(1, 2, 1)) == wz4(2, 3, 1)
    assert invert(wz4(0, 0, 0)) == wz4(0, 0, 0)
    rng = random.Random(9)
    for _ in range(100):
        x = wz4(rng.randrange(4), rng.randrange(4), rng.randrange(2))
        assert invert(invert(x)) == x


def test_shape_mismatch_errors():
    with pytest.raises(ShapeMismatchError):
        group_op(CyclicElement(4, 1), CyclicElement(5, 1))
    with pytest.raises(ShapeMismatchError):
        group_op(CyclicElement(4, 1), DihedralElement(4, 1, 0))
    with pytest.raises(ShapeMismatchError):
        group_op(wz4(1, 1, 0), WreathElement((CyclicElement(4, 0),), 0))
    with pytest.raises(ShapeMismatchError):
        WreathElement((CyclicElement(4, 1), DihedralElement(4, 0, 0)), 0)


def shape_pools(rng):
    s4 = [Permutation(tuple(p)) for p in itertools.permutations(range(1, 5))]
    return {
        "perm": s4,
        "cyclic": [CyclicElement(12, v) for v in range(12)],
        "dihedral": [DihedralElement(6, r, f) for r in range(6) for f in (0, 1)],
        "wreath": [WreathElement((rng.choice(s4), rng.choice(s4)), t)
                   for t in (0, 1) for _ in range(30)],
        "tuple": [TupleElement((CyclicElement(5, rng.randrange(5)),
                                rng.choice(s4))) for _ in range(40)],
    }


def test_associativity_all_shapes():
    rng = random.Random(17)
    for shape, pool in shape_pools(rng).items():
        for _ in range(1000):
            x, y, z = rng.choice(pool), rng.choice(pool), rng.choice(pool)
            assert group_op(group_op(x, y), z) == group_op(x, group_op(y, z)), shape


def test_nested_wreath_elements_compose():
    inner = wz4(1, 2, 1)
    outer = WreathElement((inner, invert(inner)), 1)
    assert group_op(outer, invert(outer)) == identity_like(outer)
    e = identity_like(outer)
    assert group_op(outer, e) == outer


def test_element_pow():
    x = CyclicElement(10, 3)
    assert element_pow(x, 0) == CyclicElement(10, 0)
    assert element_pow(x, 4) == CyclicElement(10, 2)
    assert element_pow(x, -1) == CyclicElement(10, 7)
    p = parse_cycles("(1 2 3)", 3)
    assert element_pow(p, 3).is_identity()
    assert element_pow(p, -2) == p


def test_wreath_embed_examples():
    idp = Permutation.identity(2)
    # identity element flattens to the identity on 4 points
    assert wreath_embed(WreathElement((idp, idp), 0)).is_identity()
    # pure column swap
    assert wreath_embed(WreathElement((idp, idp), 1)).images == (3, 4, 1, 2)
    # slot acting inside column 1, no swap
    swap = parse_cycles("(1 2)", 2)
    assert wreath_embed(WreathElement((swap, idp), 0)).images == (2, 1, 3, 4)


def test_wreath_embed_homomorphism_exhaustive():
    wr = wreath_group(symmetric_group(3), 2)
    elems = wr.elements()
    assert len(elems) == 72
    embedded = {w: wreath_embed(w) for w in elems}
    for x in elems:
        for y in elems:
            assert embedded[x].op(embedded[y]) == wreath_embed(group_op(x, y))


def test_wreath_unembed_roundtrip_and_errors():
    wr = wreath_group(symmetric_group(3), 2)
    for w in wr.elements():
        assert wreath_unembed(wreath_embed(w), 3) == w
    # a permutation mixing the two columns has no wreath preimage
    with pytest.raises(ValueError):
        wreath_unembed(parse_cycles("(1 4)", 6), 3)
    with pytest.raises(ValueError):
        wreath_unembed(Permutation.identity(5), 3)


def test_enumerate_group_examples():
    d12 = dihedral_group(12)
    assert len(enumerate_group(d12)) == 24

    empty = FiniteGroup((), CyclicElement(5, 0))
    assert enumerate_group(empty) == [CyclicElement(5, 0)]

    z5wr3 = wreath_group(cyclic_group(5), 3)
    assert len(enumerate_group(z5wr3)) == 5 ** 3 * 3 == 375


def test_enumeration_deterministic_and_matches_hint():
    wr = wreath_group(cyclic_group(3), 2)
    via_closure = enumerate_group(wr)
    via_hint = wr.elements()
    assert sorted(map(element_key, via_closure)) == sorted(map(element_key, via_hint))
    assert enumerate_group(wr) == via_closure


def test_wreath_orders_formula():
    for base, order in ((cyclic_group(2), 2), (cyclic_group(3), 3),
                        (cyclic_group(4), 4), (cyclic_group(5), 5),
                        (symmetric_group(3), 6)):
        for copies in (2, 3):
            wr = wreath_group(base, copies)
            expected = order ** copies * copies
            assert wr.order() == expected
            if expected <= 700:
                assert len(enumerate_group(wr)) == expected


def test_exceeds_cap():
    with pytest.raises(ExceedsCapError):
        enumerate_group(symmetric_group(6, cap=100))
    with pytest.raises(ExceedsCapError):
        wreath_group(symmetric_group(5, cap=1000), 3).elements()


def test_derived_group_enumerates_under_its_source_cap():
    # The wreath's base has more elements than the default cap.
    wide = wreath_group(cyclic_group(100_001, cap=200_000), 1)
    assert wide.cap == 200_000
    assert len(wide.elements()) == 100_001


def test_element_json_roundtrip():
    samples = [
        Permutation((2, 1, 3)),
        CyclicElement(9, 4),
        DihedralElement(12, 7, 1),
        wz4(1, 3, 1),
        WreathElement((wz4(1, 0, 1), wz4(2, 2, 0)), 1),
        TupleElement((CyclicElement(4, 1), Permutation((2, 1)))),
    ]
    for x in samples:
        blob = json.dumps(element_to_json(x), sort_keys=True)
        back = element_from_json(json.loads(blob))
        assert back == x
        assert json.dumps(element_to_json(back), sort_keys=True) == blob


def test_group_json_roundtrip():
    s4 = symmetric_group(4)
    data = group_to_json(s4)
    assert data["degree"] == 4
    back = group_from_json(data)
    assert {element_key(g) for g in back.elements()} == \
        {element_key(g) for g in s4.elements()}

    d6 = dihedral_group(6)
    back2 = group_from_json(group_to_json(d6))
    assert back2.order() == 12


def test_product_group():
    prod = product_group([cyclic_group(3), cyclic_group(4)])
    assert prod.order() == 12
    elems = prod.elements()
    assert len({element_key(e) for e in elems}) == 12
    x = TupleElement((CyclicElement(3, 1), CyclicElement(4, 2)))
    assert prod.contains(x)


def test_canonical_order_is_total_per_shape():
    pool = [wz4(a, b, t) for a in range(4) for b in range(4) for t in range(2)]
    keys = sorted(element_key(x) for x in pool)
    assert len(set(keys)) == len(pool)


def _shape_pool():
    """Elements of all five shapes, each built twice: by the algebra (the
    trusted path) and again through its JSON form (the validating path)."""
    perms = [Permutation(p) for n in range(1, 5)
             for p in itertools.permutations(range(1, n + 1))]
    perms += [Permutation(p) for p in itertools.islice(
        itertools.permutations(range(1, 6)), 0, 120, 7)]
    cyclic = [x for m in range(1, 7) for x in cyclic_group(m).elements()]
    dihedral = [x for n in range(1, 6) for x in dihedral_group(n).elements()]
    wreath = (wreath_group(symmetric_group(2), 2).elements()
              + wreath_group(cyclic_group(3), 2).elements()
              + wreath_group(cyclic_group(2), 3).elements())
    tuples = product_group([cyclic_group(2), symmetric_group(2)]).elements()
    shapes = [perms, cyclic, dihedral, wreath, tuples]
    pool = []
    for shape, elems in enumerate(shapes):
        for x in elems:
            twin = group_op(x, x.identity_like())
            pool.append((shape, x))
            pool.append((shape, twin))
            pool.append((shape, element_from_json(element_to_json(x))))
    return pool


def test_element_equality_matches_element_key():
    pool = _shape_pool()
    for shape_x, x in pool:
        for shape_y, y in pool:
            equal = x == y
            assert equal == (element_key(x) == element_key(y)), (x, y)
            if equal:
                assert hash(x) == hash(y), (x, y)
            if shape_x != shape_y:
                assert not equal, (x, y)
    # Equal elements built on different paths are distinct objects that
    # collapse to one dictionary key.
    assert len({x: None for _, x in pool}) == len({element_key(x) for _, x in pool})


def test_public_constructors_reject_bad_input():
    with pytest.raises(ValueError):
        Permutation((1, 1, 2))
    with pytest.raises(ValueError):
        Permutation(())
    with pytest.raises(ValueError):
        Permutation((1.0, 2.0))
    with pytest.raises(ShapeMismatchError):
        WreathElement((Permutation((2, 1)), CyclicElement(2, 1)), 0)
    with pytest.raises(ValueError):
        CyclicElement(0, 1)
    with pytest.raises(ValueError):
        DihedralElement(4, 1, 2)
    with pytest.raises(ValueError):
        element_from_json({"kind": "perm", "images": [1, 2, 2]})
    with pytest.raises(ValueError):
        Permutation.identity(0)


@pytest.mark.parametrize("data", [
    None,
    [1, 2],
    {"kind": "perm"},
    {"kind": "perm", "images": 5},
    {"kind": "cyclic", "modulus": 4, "value": 1.5},
    {"kind": "dihedral", "rotations": "6", "rot": 1, "flip": 0},
    {"kind": "wreath", "slots": [], "shift": 0},
    {"kind": "wreath", "slots": [{"kind": "cyclic", "modulus": 2, "value": 1}], "shift": None},
    {"kind": "tuple", "items": [{"kind": "nope"}]},
])
def test_element_from_json_rejects_malformed_input_with_value_error(data):
    with pytest.raises(ValueError):
        element_from_json(data)


def test_group_from_json_rejects_a_false_identity_and_mixed_shapes():
    z4 = group_to_json(cyclic_group(4))
    z4["identity"] = element_to_json(CyclicElement(4, 1))
    with pytest.raises(ValueError):
        group_from_json(z4)
    with pytest.raises(ValueError):
        group_from_json({"degree": 3, "generators": [[2, 1]]})
    mixed = group_to_json(cyclic_group(4))
    mixed["generators"].append(element_to_json(DihedralElement(4, 1, 0)))
    with pytest.raises(ShapeMismatchError):
        group_from_json(mixed)


def _foreign_elements(identity):
    """Elements the group of ``identity`` never contains: other shapes, and
    the same shape over another size."""
    if isinstance(identity, CyclicElement):
        m = identity.modulus
        sized = [CyclicElement(m + 1, v) for v in range(m + 1)]
        other = [DihedralElement(m, 0, 0), DihedralElement(m, 1, 1)]
    else:
        n = identity.rotations
        sized = [DihedralElement(n + 1, r, f) for f in (0, 1) for r in range(n + 1)]
        other = [CyclicElement(n, 0), CyclicElement(2 * n, 1)]
    return sized + other + [Permutation.identity(2), wz4(0, 0, 0)]


def _assert_normal_form_matches_closure(whole, gens):
    identity = whole.identity
    closure = close_under_op(gens, identity)
    members = set(closure)
    for group in (normal_form_group(identity, gens),
                  group_from_json({"identity": element_to_json(identity),
                                   "generators": [element_to_json(g) for g in gens]})):
        elements = group.elements()
        assert set(elements) == members and len(elements) == len(closure), gens
        assert group.order() == len(closure), gens
        assert [element_key(x) for x in elements] == sorted(map(element_key, closure))
        for x in whole.elements():
            assert group.contains(x) == (x in members), (gens, x)
        for x in _foreign_elements(identity):
            assert not group.contains(x), (gens, x)
        back = group_from_json(json.loads(json.dumps(group_to_json(group))))
        assert set(back.elements()) == members and back.order() == len(closure)


def test_normal_form_matches_closure_on_every_generator_pair():
    wholes = ([cyclic_group(m) for m in range(1, 13)]
              + [dihedral_group(n) for n in range(1, 13)])
    for whole in wholes:
        _assert_normal_form_matches_closure(whole, [])
        for a, b in itertools.combinations_with_replacement(whole.elements(), 2):
            _assert_normal_form_matches_closure(whole, [a, b])


def test_normal_form_matches_closure_on_seeded_pairs_of_d360():
    d360 = dihedral_group(360)
    rng = random.Random(360)
    elements = d360.elements()
    for _ in range(50):
        _assert_normal_form_matches_closure(d360, rng.sample(elements, 2))


def test_cyclic_and_dihedral_elements_are_values():
    pool = _shape_pool()
    labels = {element_key(x) for _, x in pool}
    labels |= {(element_key(x), element_key(y)) for _, x in pool[:40] for _, y in pool[-40:]}
    for shape, x in pool:
        if not isinstance(x, (CyclicElement, DihedralElement)):
            continue
        # Built by the algebra, through JSON and by the constructor: one value.
        again = type(x)(*x)
        assert again == x and hash(again) == hash(x) and again is not x
        assert not any(x == label for label in labels), x
        assert not any(x == y for other, y in pool if other != shape), x
    # A field tuple of another shape is no element of it.
    assert CyclicElement(2, 1) != Permutation((2, 1))
    assert DihedralElement(3, 2, 1) != Permutation((3, 2, 1))
    assert CyclicElement(3, 1) != DihedralElement(3, 1, 0)


@pytest.mark.parametrize("build, message", [
    (lambda: CyclicElement(True, 1),
     "modulus and value must be integers: CyclicElement(modulus=True, value=1)"),
    (lambda: CyclicElement(4, False),
     "modulus and value must be integers: CyclicElement(modulus=4, value=False)"),
    (lambda: CyclicElement(4, 1.0),
     "modulus and value must be integers: CyclicElement(modulus=4, value=1.0)"),
    (lambda: CyclicElement("4", 1),
     "modulus and value must be integers: CyclicElement(modulus='4', value=1)"),
    (lambda: CyclicElement(0, 1), "modulus must be positive"),
    (lambda: CyclicElement(-3, 1), "modulus must be positive"),
    (lambda: DihedralElement(True, 1, 0), "rotations, rot and flip must be integers: "
     "DihedralElement(rotations=True, rot=1, flip=0)"),
    (lambda: DihedralElement(4, 1, True), "rotations, rot and flip must be integers: "
     "DihedralElement(rotations=4, rot=1, flip=True)"),
    (lambda: DihedralElement(4, "1", 0), "rotations, rot and flip must be integers: "
     "DihedralElement(rotations=4, rot='1', flip=0)"),
    (lambda: DihedralElement(4.0, 1, 0), "rotations, rot and flip must be integers: "
     "DihedralElement(rotations=4.0, rot=1, flip=0)"),
    (lambda: DihedralElement(0, 1, 0), "rotation order must be positive"),
    (lambda: DihedralElement(-1, 0, 5), "rotation order must be positive"),
    (lambda: DihedralElement(4, 1, 2), "flip must be 0 or 1"),
    (lambda: DihedralElement(4, 1, -1), "flip must be 0 or 1"),
])
def test_cyclic_and_dihedral_constructors_name_the_bad_input(build, message):
    with pytest.raises(ValueError) as info:
        build()
    assert str(info.value) == message


def test_closure_counts_the_identity_against_the_cap():
    for identity in (Permutation.identity(1), CyclicElement(1, 0)):
        for cap in (0, -1):
            with pytest.raises(ExceedsCapError, match=f"closure exceeds cap {cap}"):
                close_under_op([], identity, cap)
        assert close_under_op([], identity, 1) == [identity]
