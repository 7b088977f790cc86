import itertools
import json
from functools import partial

import pytest
from click.testing import CliRunner

from cosetlab.checking import brute_hsp_solve
from cosetlab.cli import main
from cosetlab.groups import (CyclicElement, FiniteGroup, WreathElement,
                             close_under_op, cyclic_group, element_from_json,
                             element_key, group_op, invert, symmetric_group,
                             wreath_embed, wreath_group)
from cosetlab.instances import (GhshInstance, GroupAction, HspInstance, OracleFunction,
                                Side, plant_coset, plant_ghsh, plant_hsp,
                                plant_orbit_coset, verify_promise)
from cosetlab.perms import Permutation, parse_cycles
from cosetlab.reductions import (GammaSetStabilizer, InvalidKGeneratorsError,
                                 StructuredHspInstance, SubgroupConstraint,
                                 embed_wreath_instance, ghsh_to_hsp,
                                 hidden_coset_to_hsp, orbit_coset_to_hsp,
                                 recover_coset_solution, recover_ghsh_functions,
                                 recover_orbit_solution, reduce_instance)
from reference_groups import audit_oracle, gamma_point_image, product_group


def keys(elems):
    return {element_key(g) for g in elems}


def closure_keys(gens, identity):
    return keys(close_under_op(gens, identity))


def subgroups_of(group):
    elems = group.elements()
    out = {}
    for a in elems:
        for b in elems:
            gens = (a, b)
            out.setdefault(tuple(sorted(closure_keys(gens, group.identity))), gens)
    return list(out.values())


def wz(m, a, b, t):
    return WreathElement((CyclicElement(m, a), CyclicElement(m, b)), t)


# -- paired-coset construction -------------------------------------------------------


def test_coset_reduction_kernel_z4():
    z4 = cyclic_group(4)
    hc = plant_coset(z4, (CyclicElement(4, 2),), CyclicElement(4, 1))
    reduced = hidden_coset_to_hsp(hc)
    kernel = reduced.kernel()
    assert len(kernel) == 8
    expected = keys([wz(4, a, b, 0) for a in (0, 2) for b in (0, 2)]
                    + [wz(4, a, b, 1) for a in (1, 3) for b in (1, 3)])
    assert keys(kernel) == expected
    assert keys(kernel) == closure_keys(reduced.planted_subgroup,
                                        reduced.group.identity)


def test_coset_reduction_trivial_subgroup_two_element_kernel():
    s3 = symmetric_group(3)
    u = parse_cycles("(1 2 3)", 3)
    reduced = hidden_coset_to_hsp(plant_coset(s3, (), u))
    kernel = reduced.kernel()
    expected = [WreathElement((Permutation.identity(3),) * 2, 0),
                WreathElement((invert(u), u), 1)]
    assert keys(kernel) == keys(expected)


def test_coset_reduction_full_subgroup():
    z4 = cyclic_group(4)
    reduced = hidden_coset_to_hsp(plant_coset(z4, tuple(z4.generators),
                                              CyclicElement(4, 0)))
    assert len(reduced.kernel()) == reduced.group.order() == 32


def kernel_formula(group, sub_elems, u):
    """The predicted hidden subgroup of the paired-coset construction."""
    u_inv = invert(u)
    part0 = [WreathElement((h, group_op(group_op(u_inv, hp), u)), 0)
             for h in sub_elems for hp in sub_elems]
    part1 = [WreathElement((group_op(u_inv, h), group_op(hp, u)), 1)
             for h in sub_elems for hp in sub_elems]
    return keys(part0 + part1)


def test_coset_reduction_promise_exhaustive():
    for group in (cyclic_group(4), cyclic_group(6), symmetric_group(3)):
        for gens in subgroups_of(group):
            sub_elems = close_under_op(gens, group.identity)
            for u in group.elements():
                reduced = hidden_coset_to_hsp(plant_coset(group, gens, u))
                assert keys(reduced.kernel()) == kernel_formula(group, sub_elems, u)
                assert verify_promise(reduced)


def test_s4_coset_pipeline_through_cli_recovers_kernel():
    """plant coset -> reduce -> solve on the full S4, verified at every step."""
    def step(args, stdin=None):
        result = CliRunner().invoke(main, args, input=stdin, catch_exceptions=False)
        assert result.exit_code == 0
        return json.loads(result.output)["outputs"]

    planted = step(["plant", "coset", "--group", "s4",
                    "--subgroup", "(1 2 3 4),(1 2)", "--shift", "(1 3)"])
    reduced = step(["reduce"], json.dumps(planted["instance"]))
    solved = step(["solve"], json.dumps(reduced["instance"]))

    s4 = symmetric_group(4)
    sub_elems = close_under_op([parse_cycles("(1 2 3 4)", 4), parse_cycles("(1 2)", 4)],
                               s4.identity)
    gens = [element_from_json(g) for g in solved["subgroup_generators"]]
    identity = WreathElement((s4.identity, s4.identity), 0)
    assert closure_keys(gens, identity) == kernel_formula(
        s4, sub_elems, parse_cycles("(1 3)", 4))


def test_recover_coset_solution_spec_example():
    z4 = cyclic_group(4)
    k_gens = [wz(4, 1, 3, 1), wz(4, 2, 2, 0)]
    sub, shift = recover_coset_solution(k_gens)
    assert closure_keys(sub, z4.identity) == keys([CyclicElement(4, 0),
                                                   CyclicElement(4, 2)])
    assert element_key(shift) in keys([CyclicElement(4, 1), CyclicElement(4, 3)])


def test_recover_coset_solution_trivial():
    s3 = symmetric_group(3)
    u = parse_cycles("(1 3)", 3)
    sub, shift = recover_coset_solution([WreathElement((invert(u), u), 1)])
    assert closure_keys(sub, s3.identity) == {element_key(s3.identity)}
    assert shift == u


def test_recover_coset_requires_swap_generator():
    with pytest.raises(InvalidKGeneratorsError):
        recover_coset_solution([wz(4, 2, 2, 0)])


def test_coset_round_trip_exhaustive_z6():
    from cosetlab.checking import brute_hsp_solve
    z6 = cyclic_group(6)
    for gens in subgroups_of(z6):
        sub_keys = closure_keys(gens, z6.identity)
        sub_elems = close_under_op(gens, z6.identity)
        for u in z6.elements():
            reduced = hidden_coset_to_hsp(plant_coset(z6, gens, u))
            recovered, u2 = recover_coset_solution(brute_hsp_solve(reduced))
            assert closure_keys(recovered, z6.identity) == sub_keys
            assert element_key(u2) in {element_key(group_op(h, u))
                                       for h in sub_elems}


# -- shift-chain construction --------------------------------------------------------


def test_ghsh_reduction_z5_example():
    z5 = cyclic_group(5)
    u = CyclicElement(5, 2)
    reduced = ghsh_to_hsp(plant_ghsh(z5, u, 3))
    kernel = reduced.kernel()
    assert len(kernel) == 3
    gen = reduced.planted_subgroup[0]
    # u^(1-n) = 2^-2 = 1 mod 5
    assert gen == WreathElement((CyclicElement(5, 2), CyclicElement(5, 2),
                                 CyclicElement(5, 1)), 1)
    assert keys(kernel) == closure_keys([gen], reduced.group.identity)
    assert reduced.side is Side.RIGHT
    assert verify_promise(reduced)


def test_ghsh_reduction_identity_shift():
    z4 = cyclic_group(4)
    reduced = ghsh_to_hsp(plant_ghsh(z4, CyclicElement(4, 0), 3))
    ident = CyclicElement(4, 0)
    assert keys(reduced.kernel()) == closure_keys(
        [WreathElement((ident,) * 3, 1)], reduced.group.identity)


def test_ghsh_two_copies_matches_pairing():
    s3 = symmetric_group(3)
    u = parse_cycles("(1 2)", 3)
    reduced = ghsh_to_hsp(plant_ghsh(s3, u, 2))
    gen = reduced.planted_subgroup[0]
    assert gen == WreathElement((u, invert(u)), 1)
    assert group_op(gen, gen) == reduced.group.identity
    # constant on right cosets of the generated pair
    kernel_keys = keys(reduced.kernel())
    assert kernel_keys == closure_keys([gen], reduced.group.identity)
    for x in reduced.group.elements():
        assert (reduced.oracle.evaluate(group_op(gen, x))
                == reduced.oracle.evaluate(x))


def test_ghsh_promise_preserved_nonabelian():
    s3 = symmetric_group(3)
    for copies in (2, 3):
        for u in s3.elements():
            reduced = ghsh_to_hsp(plant_ghsh(s3, u, copies))
            kernel = reduced.kernel()
            assert len(kernel) == copies
            assert keys(kernel) == closure_keys(reduced.planted_subgroup,
                                                reduced.group.identity)
            assert verify_promise(reduced)


def test_recover_ghsh_functions_exhaustive():
    z5 = cyclic_group(5)
    u = CyclicElement(5, 2)
    source = plant_ghsh(z5, u, 3)
    reduced = ghsh_to_hsp(source)
    F = recover_ghsh_functions(reduced)
    for i in (1, 2, 3):
        for g in z5.elements():
            assert F(i, g) == source.F(i, g)
    assert F(2, CyclicElement(5, 3)) == source.F(2, CyclicElement(5, 3))
    for accessor in (F, source.F):
        for i in (0, -1, 4):
            with pytest.raises(ValueError):
                accessor(i, z5.identity)


# -- source reads ----------------------------------------------------------------------


def _s4_class_representatives():
    """One subgroup of S4 per conjugacy class, told apart by the multiset of
    its members' cycle types."""
    s4 = symmetric_group(4)
    reps = {}
    for gens in subgroups_of(s4):
        members = close_under_op(gens, s4.identity)
        shape = tuple(sorted(tuple(sorted(map(len, g.cycles()))) for g in members))
        reps.setdefault(shape, gens)
    assert len(reps) == 11
    return list(reps.values())


def _read_count_sources(family):
    """Makers of fresh planted sources, one per case of ``family``."""
    s3, s4 = symmetric_group(3), symmetric_group(4)
    if family == "coset-s3":
        return [partial(plant_coset, s3, gens, u)
                for gens in subgroups_of(s3) for u in s3.elements()]
    if family == "coset-s4":
        shift = parse_cycles("(1 3)", 4)
        return [partial(plant_coset, s4, gens, shift)
                for gens in _s4_class_representatives()]
    return [partial(plant_ghsh, group, parse_cycles(cycle, group.identity.degree), copies)
            for group, cycle in ((s3, "(1 2 3)"), (s4, "(1 2 3 4)"))
            for copies in (2, 3)]


def _reads(source):
    """The evaluation count of each of the source's functions."""
    chain = isinstance(source, GhshInstance)
    functions = source.functions if chain else (source.f1, source.f2)
    return [f.evaluations for f in functions]


def _reduce_verify_solve(source):
    reduced = reduce_instance(source)
    assert verify_promise(reduced)
    assert brute_hsp_solve(reduced)  # every reduced hidden subgroup holds a slot shift


@pytest.mark.parametrize("family", ["coset-s3", "coset-s4", "chain"])
def test_reductions_read_sources_through_their_label_stores(family):
    # The derived oracles read the source functions through the source's
    # label stores: a verified source is not read again, and an unverified
    # one is read once per element of G, however large the wreath product.
    for make in _read_count_sources(family):
        verified = make()
        once = [verified.group.order()] * len(_reads(verified))
        assert verify_promise(verified)
        assert _reads(verified) == once
        _reduce_verify_solve(verified)
        assert _reads(verified) == once

        fresh = make()
        _reduce_verify_solve(fresh)
        assert _reads(fresh) == once


# -- paired-orbit construction -------------------------------------------------------


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


def trivial_action(n, states):
    group = cyclic_group(n)
    return GroupAction(group, tuple(states), (tuple(range(len(states))),))


def test_orbit_reduction_disjoint_trivial_stabilizers():
    act = two_orbit_action(4, 4, 4)
    inst = plant_orbit_coset(act, 0, None)
    reduced = orbit_coset_to_hsp(inst)
    assert keys(reduced.kernel()) == {element_key(reduced.group.identity)}
    shift, stab = recover_orbit_solution(reduced.planted_subgroup, inst)
    assert shift is None and stab == []


def test_orbit_reduction_trivial_action():
    act = trivial_action(3, ("x", "y"))
    inst = plant_orbit_coset(act, 0, CyclicElement(3, 0))
    reduced = orbit_coset_to_hsp(inst)
    assert len(reduced.kernel()) == reduced.group.order() == 18


def test_orbit_reduction_cyclic_shift():
    act = cyclic_action(4)
    inst = plant_orbit_coset(act, 0, CyclicElement(4, 2))
    reduced = orbit_coset_to_hsp(inst)
    kernel = reduced.kernel()
    swaps = [w for w in kernel if w.shift == 1]
    assert len(swaps) == 1
    assert swaps[0] == wz(4, 2, 2, 1)
    shift, stab = recover_orbit_solution(kernel, inst)
    assert act.act(shift, inst.phi1) == inst.phi0
    assert stab == []
    assert verify_promise(reduced)


def test_orbit_reduction_kernel_matches_stabilizer_structure():
    act = two_orbit_action(6, 3, 2)
    for phi1 in (0, 4):
        for shift in (None, CyclicElement(6, 2)) if phi1 == 0 else (None,):
            if shift is None and phi1 == 0:
                inst = plant_orbit_coset(act, phi1, None)
            elif shift is None:
                inst = plant_orbit_coset(act, phi1, None)
            else:
                inst = plant_orbit_coset(act, phi1, shift)
            reduced = orbit_coset_to_hsp(inst)
            kernel = reduced.kernel()
            stab0 = act.stabilizer_elements(inst.phi0)
            stab1 = act.stabilizer_elements(inst.phi1)
            mapping = [g for g in act.group.elements()
                       if act.act(g, inst.phi1) == inst.phi0]
            expected = [WreathElement((a, b), 0) for a in stab0 for b in stab1]
            expected += [WreathElement((group_op(s, invert(m)),
                                        group_op(m, s2)), 1)
                         for m in mapping[:1] for s in stab1 for s2 in stab1]
            assert keys(kernel) == keys(expected)
            assert keys(kernel) == closure_keys(reduced.planted_subgroup,
                                                reduced.group.identity)
            assert verify_promise(reduced)


# -- intersection gadget -------------------------------------------------------------


def test_multi_intersection_no_constraints():
    s3 = symmetric_group(3)
    inst = plant_hsp(s3, (parse_cycles("(1 2)", 3),), Side.LEFT)
    structured = StructuredHspInstance(inst, [])
    assert keys(structured.kernel()) == keys(inst.kernel())


def test_multi_intersection_examples():
    s3 = symmetric_group(3)
    inst = plant_hsp(s3, (parse_cycles("(1 2)", 3),), Side.LEFT)

    same = SubgroupConstraint(FiniteGroup((parse_cycles("(1 2)", 3),), s3.identity))
    structured = StructuredHspInstance(inst, [same])
    assert len(structured.kernel()) == 2

    other = SubgroupConstraint(FiniteGroup((parse_cycles("(1 3)", 3),), s3.identity))
    structured2 = StructuredHspInstance(inst, [other])
    assert keys(structured2.kernel()) == {element_key(s3.identity)}


def test_multi_intersection_audit_oracle_matches_diagonal():
    s3 = symmetric_group(3)
    sub = FiniteGroup((parse_cycles("(1 2)", 3),), s3.identity)
    inst = plant_hsp(s3, (parse_cycles("(1 2)", 3), parse_cycles("(1 3)", 3)),
                     Side.LEFT)
    structured = StructuredHspInstance(inst, [SubgroupConstraint(sub)])
    product = product_group([s3, sub])
    audit = HspInstance(product, audit_oracle(structured), Side.LEFT)
    diag = keys(structured.kernel())
    from cosetlab.groups import TupleElement
    expected = {element_key(TupleElement((g, g)))
                for g in structured.kernel()}
    assert keys(audit.kernel()) == expected
    assert verify_promise(audit)


def _gamma_corpus():
    """Every subset of the 6 doubled points of S3 wr Z2, and every two-point
    set of the 8 doubled points of S4 wr Z2."""
    for n, sizes in ((3, range(7)), (4, (2,))):
        points = [(r, c) for r in range(1, n + 1) for c in (1, 2)]
        for size in sizes:
            for pairs in map(frozenset, itertools.combinations(points, size)):
                yield n, pairs


def test_gamma_set_stabilizer_matches_embedding():
    elements = {n: wreath_group(symmetric_group(n), 2).elements() for n in (3, 4)}
    seen = {3: 0, 4: 0}
    for n, pairs in _gamma_corpus():
        seen[n] += 1
        constraint = GammaSetStabilizer(pairs)
        flat = {r + (c - 1) * n for (r, c) in pairs}
        for w in elements[n]:
            compiled = constraint.contains(w)
            assert compiled == ({gamma_point_image(w, r, c) for (r, c) in pairs} == pairs)
            embedded = wreath_embed(w)
            assert compiled == ({embedded.apply(p) for p in flat} == flat)
        with pytest.raises(TypeError):
            constraint.contains(wreath_embed(elements[n][0]))
    assert seen == {3: 64, 4: 28}


def test_joined_stabilizers_accept_what_each_accepts():
    wr = wreath_group(symmetric_group(3), 2)
    base = HspInstance(wr, OracleFunction(lambda w: 0), Side.LEFT)
    stabilizers = [GammaSetStabilizer(pairs)
                   for n, pairs in _gamma_corpus() if n == 3 and len(pairs) == 2]
    for first, second in itertools.product(stabilizers, repeat=2):
        accepts = StructuredHspInstance(base, (first, second)).accepts
        for w in wr.elements():
            assert accepts(w) == (first.contains(w) and second.contains(w))
        with pytest.raises(TypeError):
            accepts(wreath_embed(wr.identity))


def test_nested_structured_instance_matches_flat_constraints():
    s3 = symmetric_group(3)
    inst = plant_hsp(s3, (parse_cycles("(1 2)", 3), parse_cycles("(1 3)", 3)),
                     Side.LEFT)
    first = SubgroupConstraint(FiniteGroup((parse_cycles("(1 2 3)", 3),), s3.identity))
    second = SubgroupConstraint(FiniteGroup((parse_cycles("(1 2)", 3),
                                             parse_cycles("(1 3)", 3)), s3.identity))
    prefix = StructuredHspInstance(inst, [first])
    nested = StructuredHspInstance(prefix, [second])
    flat = StructuredHspInstance(inst, [first, second])
    assert nested.group is inst.group
    assert keys(nested.kernel()) == keys(flat.kernel()) == closure_keys(
        [parse_cycles("(1 2 3)", 3)], s3.identity)
    assert prefix.kernel() is prefix.kernel()
    with pytest.raises(TypeError):
        audit_oracle(nested)


def test_embed_wreath_instance_transports_kernel():
    s3 = symmetric_group(3)
    u = parse_cycles("(1 2 3)", 3)
    reduced = hidden_coset_to_hsp(plant_coset(s3, (parse_cycles("(1 2)", 3),), u))
    flat = embed_wreath_instance(reduced)
    assert flat.group.order() == reduced.group.order()
    assert keys(flat.kernel()) == keys([wreath_embed(w) for w in reduced.kernel()])
    assert verify_promise(flat)
