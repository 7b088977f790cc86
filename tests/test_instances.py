import itertools
import json
import random

import pytest

from cosetlab import groups, instances
from cosetlab.checking import brute_coset_solve, brute_ghsh_solve
from cosetlab.cli import parse_action
from cosetlab.groups import (DEFAULT_CAP, CyclicElement, DihedralElement,
                             close_under_op, cyclic_group, dihedral_group,
                             element_key, group_op, symmetric_group)
from cosetlab.instances import (GhshInstance, GroupAction, HspInstance,
                                NoDisjointOrbitError, OracleFunction,
                                PromiseViolationError, Side, instance_from_json,
                                instance_to_json, plant_coset, plant_ghsh,
                                plant_hsp, plant_orbit_coset, verify_promise)
from cosetlab.perms import parse_cycles
from cosetlab.reductions import hidden_coset_to_hsp, reduce_instance


def keys(elems):
    return {element_key(g) for g in elems}


def subgroup_list(group):
    """All distinct subgroups reachable from two generators."""
    elems = group.elements()
    seen = {}
    for a in elems:
        for b in elems:
            closure = close_under_op([a, b], group.identity)
            seen.setdefault(tuple(sorted(keys(closure))), (a, b))
    return list(seen.values())


def test_plant_hsp_s3_examples():
    s3 = symmetric_group(3)
    swap = parse_cycles("(1 2)", 3)
    inst = plant_hsp(s3, (swap,), Side.LEFT)
    labels = {inst.oracle.evaluate(g) for g in s3.elements()}
    assert len(labels) == 3
    assert inst.oracle.evaluate(swap) == inst.oracle.evaluate(s3.identity)

    full = plant_hsp(s3, tuple(s3.generators), Side.LEFT)
    assert len({full.oracle.evaluate(g) for g in s3.elements()}) == 1

    trivial = plant_hsp(s3, (), Side.LEFT)
    values = [trivial.oracle.evaluate(g) for g in s3.elements()]
    assert len(set(values)) == 6


def test_plant_hsp_rejects_outsiders():
    z4 = cyclic_group(4)
    with pytest.raises(PromiseViolationError):
        plant_hsp(z4, (CyclicElement(5, 1),), Side.LEFT)


def test_planted_kernel_equals_subgroup_closure():
    for group in (symmetric_group(3), symmetric_group(4), dihedral_group(6)):
        for side in (Side.LEFT, Side.RIGHT):
            for _, gens in zip(range(40), subgroup_list(group)):
                inst = plant_hsp(group, gens, side)
                expected = keys(close_under_op(gens, group.identity))
                assert keys(inst.kernel()) == expected
                assert verify_promise(inst)


def test_plant_coset_examples():
    z4 = cyclic_group(4)
    inst = plant_coset(z4, (CyclicElement(4, 2),), CyclicElement(4, 1))
    shifts = keys(inst.brute_shift_set())
    assert shifts == {element_key(CyclicElement(4, v)) for v in (1, 3)}

    u = CyclicElement(4, 3)
    shift_only = plant_coset(z4, (), u)
    assert keys(shift_only.brute_shift_set()) == {element_key(u)}

    same = plant_coset(z4, (), CyclicElement(4, 0))
    for g in z4.elements():
        assert same.f1.evaluate(g) == same.f2.evaluate(g)


def test_plant_hidden_shift_is_injective_coset_case():
    from cosetlab.instances import plant_hidden_shift
    s3 = symmetric_group(3)
    u = parse_cycles("(1 3 2)", 3)
    inst = plant_hidden_shift(s3, u)
    values = [inst.f1.evaluate(g) for g in s3.elements()]
    assert len(set(values)) == 6
    assert keys(inst.brute_shift_set()) == {element_key(u)}


def test_plant_coset_shift_set_is_exact_coset_nonabelian():
    s3 = symmetric_group(3)
    sub = (parse_cycles("(1 2)", 3),)
    sub_elems = close_under_op(sub, s3.identity)
    for u in s3.elements():
        inst = plant_coset(s3, sub, u)
        expected = {element_key(group_op(h, u)) for h in sub_elems}
        assert keys(inst.brute_shift_set()) == expected
        assert verify_promise(inst)


def test_plant_ghsh_chain_relations():
    z5 = cyclic_group(5)
    u = CyclicElement(5, 2)
    inst = plant_ghsh(z5, u, 3)
    for i in (1, 2):
        for g in z5.elements():
            assert inst.F(i, g) == inst.F(i + 1, group_op(u, g))

    same = plant_ghsh(z5, CyclicElement(5, 0), 3)
    for g in z5.elements():
        assert len({same.F(i, g) for i in (1, 2, 3)}) == 1

    with pytest.raises(ValueError):
        plant_ghsh(z5, u, 1)


def test_plant_ghsh_composes_once_per_function(monkeypatch):
    s3 = symmetric_group(3)
    s3.elements()
    calls = []
    compose = groups.compose
    monkeypatch.setattr(groups, "compose", lambda x, y: calls.append(1) or compose(x, y))
    plant_ghsh(s3, parse_cycles("(1 2 3)", 3), 500)
    assert len(calls) <= 1000


def test_ghsh_shift_unique():
    for group in (cyclic_group(4), cyclic_group(6), symmetric_group(3),
                  dihedral_group(4)):
        for u in group.elements():
            for copies in (2, 3):
                inst = plant_ghsh(group, u, copies)
                found = inst.brute_shift_set()
                assert len(found) == 1
                assert element_key(found[0]) == element_key(u)
                assert verify_promise(inst)


def cyclic_action(n):
    group = cyclic_group(n)
    images = tuple((s + 1) % n for s in range(n))
    return GroupAction(group, tuple(f"s{i}" for i in range(n)), (images,))


def two_orbit_action(n, a, b):
    group = cyclic_group(n)
    row = tuple([(s + 1) % a for s in range(a)]
                + [a + ((s + 1) % b) for s in range(b)])
    states = tuple([f"a{i}" for i in range(a)] + [f"b{i}" for i in range(b)])
    return GroupAction(group, states, (row,))


def test_group_action_validation():
    z4 = cyclic_group(4)
    with pytest.raises(ValueError):
        GroupAction(z4, ("x", "y"), ((0, 0),))
    with pytest.raises(ValueError):
        # 4-cycle on 3 states is not an action of Z_4's generator of order 4
        GroupAction(z4, ("x", "y", "z"), ((1, 2, 0),))


def test_group_action_composes_each_generator_edge_once(monkeypatch):
    # The action's table is built on the group's one closure, which composes
    # each element with each generator once: |G| products per generator.
    calls = []

    def counting(x, y, _op=groups.group_op):
        calls.append(1)
        return _op(x, y)

    for module in (groups, instances):
        monkeypatch.setattr(module, "group_op", counting)
    two_orbit_action(12, 4, 3)
    assert len(calls) == 12
    s4 = symmetric_group(4)
    s4.elements()
    calls.clear()
    # S4 on the four points, one image row per generator.
    act = GroupAction(s4, ("p1", "p2", "p3", "p4"),
                      tuple(tuple(g.images[i] - 1 for i in range(4))
                            for g in s4.generators))
    assert len(calls) == 2 * 24
    assert act.orbit(0) == {0, 1, 2, 3}
    assert len(act.stabilizer_elements(0)) == 6


def test_group_action_checks_repeated_generators():
    z4 = cyclic_group(4)
    g = CyclicElement(4, 1)
    group = groups.FiniteGroup([g, g], z4.identity)
    assert GroupAction(group, ("a", "b", "c", "d"), ((1, 2, 3, 0),) * 2).orbit(0) == {
        0, 1, 2, 3}
    with pytest.raises(ValueError, match="does not extend"):
        GroupAction(group, ("a", "b", "c", "d"), ((1, 2, 3, 0), (3, 0, 1, 2)))


def test_plant_orbit_coset_examples():
    act = cyclic_action(4)
    same = plant_orbit_coset(act, 0, CyclicElement(4, 0))
    assert same.phi0 == same.phi1 == 0

    inst = plant_orbit_coset(act, 0, CyclicElement(4, 2))
    assert inst.phi0 == 2
    assert act.stabilizer_generators(0) == []
    assert verify_promise(inst)

    disjoint = plant_orbit_coset(two_orbit_action(4, 4, 2), 0, None)
    assert not disjoint.orbits_intersect()
    assert verify_promise(disjoint)

    with pytest.raises(NoDisjointOrbitError):
        plant_orbit_coset(act, 0, None)


def test_verify_promise_rejects_bad_instances():
    s3 = symmetric_group(3)
    # constant label breaks distinctness for a proper subgroup claim
    bad = HspInstance(s3, OracleFunction(lambda g: 0), Side.LEFT,
                      planted_subgroup=(parse_cycles("(1 2)", 3),))
    assert not verify_promise(bad)

    # non-injective first function breaks the shift-chain promise
    z4 = cyclic_group(4)
    squash = OracleFunction(lambda g: g.value % 2)
    chain = GhshInstance(z4, (squash, squash))
    assert not verify_promise(chain)

    # right-side labels claimed as left-side fail for a non-normal subgroup
    planted = plant_hsp(s3, (parse_cycles("(1 2)", 3),), Side.RIGHT)
    relabeled = HspInstance(s3, planted.oracle, Side.LEFT,
                            planted_subgroup=planted.planted_subgroup)
    assert not verify_promise(relabeled)


def test_oracle_determinism_and_counting():
    z6 = cyclic_group(6)
    inst = plant_hsp(z6, (CyclicElement(6, 3),), Side.LEFT)
    g = CyclicElement(6, 4)
    before = inst.oracle.evaluations
    values = {inst.oracle.evaluate(g) for _ in range(100)}
    assert len(values) == 1
    assert inst.oracle.evaluations == before + 100


def test_instance_json_roundtrip():
    s3 = symmetric_group(3)
    planted = plant_hsp(s3, (parse_cycles("(1 2 3)", 3),), Side.LEFT)
    data = json.loads(json.dumps(instance_to_json(planted)))
    back = instance_from_json(data)
    for g in s3.elements():
        assert back.oracle.evaluate(g) == planted.oracle.evaluate(g)

    hc = plant_coset(cyclic_group(4), (CyclicElement(4, 2),), CyclicElement(4, 1))
    back2 = instance_from_json(json.loads(json.dumps(instance_to_json(hc))))
    assert keys(back2.brute_shift_set()) == keys(hc.brute_shift_set())

    gh = plant_ghsh(cyclic_group(5), CyclicElement(5, 2), 3)
    back3 = instance_from_json(json.loads(json.dumps(instance_to_json(gh))))
    assert element_key(back3.brute_shift_set()[0]) == element_key(CyclicElement(5, 2))

    oc = plant_orbit_coset(cyclic_action(4), 1, CyclicElement(4, 2))
    back4 = instance_from_json(json.loads(json.dumps(instance_to_json(oc))))
    assert back4.phi0 == oc.phi0 and back4.phi1 == oc.phi1


def test_verify_coset_evaluates_identity_once():
    z6 = cyclic_group(6)
    inst = plant_coset(z6, (CyclicElement(6, 3),), CyclicElement(6, 1))
    assert verify_promise(inst)
    n = z6.order()
    # f1 and f2 are read once per element into the label tables; the shift
    # set, the kernel and the solver read the tables
    assert inst.f1.evaluations == n
    assert inst.f2.evaluations == n
    gens, shift = brute_coset_solve(inst)
    assert element_key(shift) == element_key(CyclicElement(6, 1))
    assert keys(close_under_op(gens, z6.identity)) == keys(
        [CyclicElement(6, 0), CyclicElement(6, 3)])
    assert (inst.f1.evaluations, inst.f2.evaluations) == (n, n)


def test_verify_ghsh_reads_each_function_once_per_element():
    s3 = symmetric_group(3)
    u = parse_cycles("(1 2 3)", 3)
    inst = plant_ghsh(s3, u, 3)
    assert verify_promise(inst)
    n = s3.order()
    assert [f.evaluations for f in inst.functions] == [n, n, n]
    assert brute_ghsh_solve(inst) == u
    assert [f.evaluations for f in inst.functions] == [n, n, n]


# -- the kernel a verification leaves cached ---------------------------------------


def _assert_cached_kernel_is_streamed_kernel(build):
    """A verified instance's cached kernel, read with no evaluation, equals
    the kernel a fresh unverified copy streams, element for element and in
    order."""
    verified, fresh = build(), build()
    assert verify_promise(verified)
    before = verified.oracle.evaluations
    cached = verified.kernel()
    assert verified.oracle.evaluations == before
    assert [element_key(g) for g in cached] == [element_key(g) for g in fresh.kernel()]


def test_cached_kernel_matches_streamed_kernel_on_every_small_subgroup():
    for group in (symmetric_group(3), symmetric_group(4)):
        for side in (Side.LEFT, Side.RIGHT):
            for gens in subgroup_list(group):
                _assert_cached_kernel_is_streamed_kernel(
                    lambda: plant_hsp(group, gens, side))


def test_cached_kernel_matches_streamed_kernel_on_dihedral_reflections():
    for n in (12, 60):
        group = dihedral_group(n)
        for a in range(n):
            for side in (Side.LEFT, Side.RIGHT):
                _assert_cached_kernel_is_streamed_kernel(
                    lambda: plant_hsp(group, (DihedralElement(n, a, 1),), side))


def test_cached_kernel_matches_streamed_kernel_on_golden_reductions():
    z4, z5 = cyclic_group(4), cyclic_group(5)
    sources = [
        lambda: plant_coset(z4, (CyclicElement(4, 2),), CyclicElement(4, 1)),
        lambda: plant_ghsh(z5, CyclicElement(5, 2), 3),
        lambda: plant_orbit_coset(parse_action("cyclic:4", DEFAULT_CAP), 1,
                                  CyclicElement(4, 2)),
        lambda: plant_orbit_coset(parse_action("two-orbit:6:2:3", DEFAULT_CAP), 3,
                                  CyclicElement(6, 4)),
    ]
    for source in sources:
        _assert_cached_kernel_is_streamed_kernel(lambda: reduce_instance(source()))


def test_failed_promise_leaves_no_cached_kernel():
    rng = random.Random(19)
    failed = 0
    for inst in _hsp_cases(rng):
        elems = inst.group.elements()
        table = {element_key(g): inst.oracle.evaluate(g) for g in elems}
        for corrupt in CORRUPTIONS:
            case = _relabeled(inst.group, corrupt(table, rng), inst.side,
                              inst.planted_subgroup)
            if verify_promise(case):
                continue
            failed += 1
            before = case.oracle.evaluations
            case.kernel()
            # Nothing was cached: the kernel streams, one evaluation per
            # element plus the identity.
            assert case.oracle.evaluations == before + len(elems) + 1
    assert failed > 100
    s3 = symmetric_group(3)
    planted = plant_hsp(s3, (parse_cycles("(1 2)", 3),), Side.RIGHT)
    # A kernel that is the planted subgroup, on cosets of the wrong side: the
    # promise fails in the coset sweep, after the closure test passed.
    relabeled = HspInstance(s3, planted.oracle, Side.LEFT,
                            planted_subgroup=planted.planted_subgroup)
    assert not verify_promise(relabeled)
    before = relabeled.oracle.evaluations
    relabeled.kernel()
    assert relabeled.oracle.evaluations == before + s3.order() + 1


# -- verify_promise against a literal pairwise reference ---------------------------


def reference_verify_hsp(inst):
    """Pairwise closure plus one coset per element, straight from the definition."""
    elems = inst.group.elements()
    labels = {element_key(g): inst.oracle.evaluate(g) for g in elems}
    kernel = [g for g in elems
              if labels[element_key(g)] == labels[element_key(inst.group.identity)]]
    kernel_keys = {element_key(g) for g in kernel}
    for a in kernel:
        for b in kernel:
            if element_key(group_op(a, b)) not in kernel_keys:
                return False
    if inst.planted_subgroup is not None:
        planted = close_under_op(inst.planted_subgroup, inst.group.identity,
                                 inst.group.cap)
        if {element_key(g) for g in planted} != kernel_keys:
            return False
    seen_labels: dict = {}
    for g in elems:
        if inst.side is Side.LEFT:
            coset = {element_key(group_op(g, h)) for h in kernel}
        else:
            coset = {element_key(group_op(h, g)) for h in kernel}
        lab = labels[element_key(g)]
        if any(labels[k] != lab for k in coset):
            return False
        if lab in seen_labels and seen_labels[lab] != frozenset(coset):
            return False
        seen_labels[lab] = frozenset(coset)
    return True


def _merge(table, rng):
    distinct = sorted(set(table.values()), key=repr)
    if len(distinct) < 2:
        return table
    a, b = rng.sample(distinct, 2)
    return {k: a if v == b else v for k, v in table.items()}


def _split(table, rng):
    k = rng.choice(sorted(table))
    return {**table, k: ("split", k)}


def _swap(table, rng):
    a, b = rng.sample(sorted(table), 2)
    return {**table, a: table[b], b: table[a]}


def _randomize(table, rng):
    width = rng.randint(1, len(table))
    return {k: rng.randrange(width) for k in table}


CORRUPTIONS = (_merge, _split, _swap, _randomize)


def _relabeled(group, table, side, planted):
    oracle = OracleFunction(lambda g: table[element_key(g)], description="relabeled")
    return HspInstance(group, oracle, side, planted_subgroup=planted)


def _hsp_cases(rng):
    """Plain instances on a random side, and paired-coset reductions."""
    for group in (cyclic_group(4), cyclic_group(6), symmetric_group(3),
                  symmetric_group(4), dihedral_group(6)):
        elems = group.elements()
        for _ in range(6):
            gens = tuple(rng.sample(elems, rng.randint(0, 2)))
            yield plant_hsp(group, gens, rng.choice((Side.LEFT, Side.RIGHT)))
    for group in (cyclic_group(4), cyclic_group(6), symmetric_group(3)):
        elems = group.elements()
        for _ in range(4):
            gens = tuple(rng.sample(elems, rng.randint(0, 2)))
            yield hidden_coset_to_hsp(plant_coset(group, gens, rng.choice(elems)))


def test_verify_promise_matches_pairwise_reference():
    rng = random.Random(20061017)
    outcomes = []
    for inst in _hsp_cases(rng):
        elems = inst.group.elements()
        table = {element_key(g): inst.oracle.evaluate(g) for g in elems}
        other = tuple(rng.sample(elems, rng.randint(1, 2)))
        variants = [table] + [corrupt(table, rng) for corrupt in CORRUPTIONS]
        for labels in variants:
            for side in (Side.LEFT, Side.RIGHT):
                for planted in (inst.planted_subgroup, None, other):
                    case = _relabeled(inst.group, labels, side, planted)
                    expected = reference_verify_hsp(case)
                    assert verify_promise(case) == expected
                    outcomes.append(expected)
    assert True in outcomes and False in outcomes
    assert len(outcomes) == 42 * 5 * 2 * 3


def test_verify_promise_matches_reference_on_foreign_planted_generators():
    s3 = symmetric_group(3)
    foreign = (parse_cycles("(1 2)", 4),)
    injective = plant_hsp(s3, (), Side.LEFT).oracle
    closed = HspInstance(s3, injective, Side.LEFT, planted_subgroup=foreign)
    with pytest.raises(ValueError):
        reference_verify_hsp(closed)
    with pytest.raises(ValueError):
        verify_promise(closed)

    pair = {element_key(parse_cycles(c, 3)) for c in ("(1 2)", "(1 3)")}
    unclosed = OracleFunction(
        lambda g: "e" if g.is_identity() or element_key(g) in pair else element_key(g))
    case = HspInstance(s3, unclosed, Side.LEFT, planted_subgroup=foreign)
    assert reference_verify_hsp(case) is False
    assert verify_promise(case) is False


# -- planted labels over Z_m and D_n ----------------------------------------------


def _normal_form_plantings():
    """Every Z_m (m <= 24) with a subgroup of each single element, and every
    D_n (n <= 12) with a subgroup of each pair of elements."""
    for m in range(1, 25):
        group = cyclic_group(m)
        for g in group.elements():
            yield group, (g,)
    for n in range(1, 13):
        group = dihedral_group(n)
        for pair in itertools.combinations_with_replacement(group.elements(), 2):
            yield group, pair


def test_arithmetic_coset_labels_match_the_table():
    cases = 0
    for group, gens in _normal_form_plantings():
        elems = group.elements()
        sub = close_under_op(gens, group.identity)
        for side in (Side.LEFT, Side.RIGHT):
            table = instances._coset_label_table(elems, sub, side)
            oracle = plant_hsp(group, gens, side).oracle
            for g in elems:
                assert oracle.evaluate(g) == table[element_key(g)], (gens, side, g)
            cases += 1
    assert cases == 3356
    # The translated function of a coset pair reads the same labels.
    rng = random.Random(25)
    for group, gens in _normal_form_plantings():
        if rng.random() < 0.1:
            u = rng.choice(group.elements())
            table = instances._coset_label_table(
                group.elements(), close_under_op(gens, group.identity), Side.LEFT)
            hc = plant_coset(group, gens, u)
            for g in group.elements():
                assert hc.f1.evaluate(g) == table[element_key(g)]
                assert hc.f2.evaluate(group_op(g, u)) == table[element_key(g)]


def test_planting_over_cyclic_and_dihedral_groups_lists_no_group(monkeypatch):
    listed = []
    for name in ("elements", "iter_elements"):
        method = getattr(groups.FiniteGroup, name)
        monkeypatch.setattr(groups.FiniteGroup, name,
                            lambda self, method=method, name=name:
                            listed.append(name) or method(self))
    for group, gens, shift in (
            (cyclic_group(24), (CyclicElement(24, 9),), CyclicElement(24, 5)),
            (dihedral_group(360), (DihedralElement(360, 121, 1),), DihedralElement(360, 7, 1)),
            (dihedral_group(12), (DihedralElement(12, 4, 0),), DihedralElement(12, 3, 0))):
        hint = group.elements_hint
        hints = []
        group.elements_hint = lambda: hints.append(1) or hint()
        insts = [plant_hsp(group, gens, Side.LEFT), plant_hsp(group, gens, Side.RIGHT),
                 plant_coset(group, gens, shift)]
        assert listed == [] and hints == [], group
        for inst in insts:
            assert verify_promise(inst), (group, inst)
        assert hints == [1], group
        listed.clear()
