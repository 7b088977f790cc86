import itertools
import random

import pytest

from cosetlab.groups import symmetric_group, wreath_embed, wreath_group
from cosetlab.perms import (Permutation, StabilizerChain, build_stabilizer_chain,
                            compose, format_cycles, parse_cycles, random_element)
from reference_groups import point_set, setwise_stabilizer_generators


def brute_closure(gens, n):
    """Independent oracle: plain breadth-first closure over image tuples."""
    elems = {tuple(range(1, n + 1))}
    frontier = list(elems)
    while frontier:
        nxt = []
        for a in frontier:
            for g in gens:
                b = tuple(g.images[x - 1] for x in a)
                if b not in elems:
                    elems.add(b)
                    nxt.append(b)
        frontier = nxt
    return elems


def random_perm(n, rng):
    images = list(range(1, n + 1))
    rng.shuffle(images)
    return Permutation(tuple(images))


def test_compose_left_to_right():
    p = Permutation((2, 1, 3))
    q = Permutation((1, 3, 2))
    # hand evaluation of x -> q(p(x)): 1 -> q(2) = 3, 2 -> q(1) = 1, 3 -> q(3) = 2
    assert compose(p, q).images == (3, 1, 2)


def test_compose_identity_and_inverse():
    rng = random.Random(7)
    for _ in range(50):
        p = random_perm(5, rng)
        assert compose(p, Permutation.identity(5)) == p
        assert compose(Permutation.identity(5), p) == p
        assert compose(p, p.inverse()).is_identity()
        assert compose(p.inverse(), p).is_identity()


def test_compose_degree_mismatch():
    with pytest.raises(ValueError):
        compose(Permutation((2, 1)), Permutation((1, 2, 3)))


def test_compose_associative():
    rng = random.Random(11)
    for _ in range(300):
        p, q, r = (random_perm(6, rng) for _ in range(3))
        assert compose(compose(p, q), r) == compose(p, compose(q, r))


def test_permutation_validation():
    with pytest.raises(ValueError):
        Permutation((1, 1, 3))
    with pytest.raises(ValueError):
        Permutation(())


def test_cycles_and_parsing():
    p = parse_cycles("(1 2)(3 4)", 5)
    assert p.images == (2, 1, 4, 3, 5)
    assert parse_cycles("()", 3).is_identity()
    assert parse_cycles("(1 2 3 4)", 4).images == (2, 3, 4, 1)
    assert format_cycles(p) == "(1 2)(3 4)"
    with pytest.raises(ValueError):
        parse_cycles("(1 9)", 4)
    with pytest.raises(ValueError):
        parse_cycles("1 2", 4)


def test_chain_s4_example():
    gens = [parse_cycles("(1 2)", 4), parse_cycles("(1 2 3 4)", 4)]
    chain = build_stabilizer_chain(gens, 4)
    assert chain.order == len(brute_closure(gens, 4)) == 24
    assert len(chain.transversal(1)) == 4
    assert len(chain.transversal(2)) == 3
    assert len(chain.transversal(3)) == 2


def test_chain_trivial_and_order_two():
    chain = build_stabilizer_chain([], 3)
    assert chain.order == 1
    assert all(len(chain.transversal(i)) == 1 for i in (1, 2, 3))

    chain2 = build_stabilizer_chain([parse_cycles("(1 2)", 3)], 3)
    assert chain2.order == 2
    reps = chain2.transversal(1)
    assert set(reps) == {1, 2}
    assert reps[2].images == (2, 1, 3)


def test_membership_against_closure():
    gens = [parse_cycles("(1 2)", 3)]
    chain = build_stabilizer_chain(gens, 3)
    assert chain.contains(parse_cycles("(1 2)", 3))
    assert not chain.contains(parse_cycles("(1 3)", 3))
    assert chain.contains(Permutation.identity(3))


def test_chain_order_and_membership_random_groups():
    rng = random.Random(23)
    for n in (4, 5, 6, 7):
        everything = [Permutation(p) for p in itertools.permutations(range(1, n + 1))]
        for _ in range(6):
            gens = [random_perm(n, rng) for _ in range(rng.randint(1, 2))]
            chain = build_stabilizer_chain(gens, n)
            closure = brute_closure(gens, n)
            assert chain.order == len(closure)
            if n <= 6:
                sample = everything
            else:
                sample = rng.sample(everything, 400)
            for p in sample:
                assert chain.contains(p) == (p.images in closure)


def test_unique_factorization_small_orders():
    rng = random.Random(5)
    checked = 0
    while checked < 8:
        n = rng.choice((4, 5, 6))
        gens = [random_perm(n, rng) for _ in range(2)]
        chain = build_stabilizer_chain(gens, n)
        if chain.order > 1000:
            continue
        checked += 1
        elems = list(chain.elements())
        assert len(elems) == chain.order
        assert len({e.images for e in elems}) == chain.order
        for p in elems:
            factors = chain.factor(p)
            assert len(factors) == n
            for lvl, f in enumerate(reversed(factors)):
                assert f in chain.transversal(lvl + 1).values()
            acc = Permutation.identity(n)
            for f in factors:
                acc = compose(acc, f)
            assert acc == p


def test_random_element_trivial_group():
    chain = build_stabilizer_chain([], 4)
    rng = random.Random(0)
    for _ in range(10):
        assert random_element(chain, rng).is_identity()


def test_random_element_uniform_on_s3():
    gens = [parse_cycles("(1 2)", 3), parse_cycles("(1 2 3)", 3)]
    chain = build_stabilizer_chain(gens, 3)
    rng = random.Random(42)
    counts = {}
    for _ in range(6000):
        g = random_element(chain, rng)
        counts[g.images] = counts.get(g.images, 0) + 1
    assert len(counts) == 6
    assert all(850 <= c <= 1150 for c in counts.values())


def test_random_element_deterministic_given_seed():
    gens = [parse_cycles("(1 2 3 4)", 4), parse_cycles("(1 2)", 4)]
    chain = build_stabilizer_chain(gens, 4)
    first = [random_element(chain, random.Random(99)) for _ in range(20)]
    second = [random_element(chain, random.Random(99)) for _ in range(20)]
    assert first == second


def test_setwise_stabilizer_examples():
    gens = setwise_stabilizer_generators(4, (1, 2))
    closure = brute_closure(gens, 4)
    assert len(closure) == 4
    assert {g.images for g in gens} == {(2, 1, 3, 4), (1, 2, 4, 3)}

    for pts in ((), tuple(range(1, 5))):
        gens = setwise_stabilizer_generators(4, pts)
        assert len(brute_closure(gens, 4)) == 24


def test_setwise_stabilizer_exhaustive():
    for n in (3, 4, 5, 6):
        all_perms = [Permutation(p) for p in itertools.permutations(range(1, n + 1))]
        for size in range(n + 1):
            pts = tuple(range(1, size + 1))
            closure = brute_closure(setwise_stabilizer_generators(n, pts), n)
            direct = {p.images for p in all_perms
                      if {p.apply(x) for x in pts} == set(pts)}
            assert closure == direct


def test_point_set_validation():
    assert point_set((3, 1), 4) == (1, 3)
    with pytest.raises(ValueError):
        point_set((1, 1), 4)
    with pytest.raises(ValueError):
        point_set((0,), 4)


def test_subgroup_generators_generate_stabilizers():
    gens = [parse_cycles("(1 2)", 4), parse_cycles("(1 2 3 4)", 4)]
    chain = build_stabilizer_chain(gens, 4)
    for k in range(5):
        level_gens = chain.subgroup_generators(k)
        closure = brute_closure(level_gens, 4) if level_gens else {tuple(range(1, 5))}
        direct = {p for p in brute_closure(gens, 4)
                  if all(p[x - 1] == x for x in range(1, k + 1))}
        assert closure == direct
        assert len(list(chain.elements(k))) == len(direct)


def reference_build_stabilizer_chain(gens, n):
    """Literal copy of the sift-and-close builder before it stored inverses:
    it sifts with ``rep.inverse()`` recomputed at every step."""
    gens = list(gens)
    for g in gens:
        if g.degree != n:
            raise ValueError(f"generator degree {g.degree} does not match {n}")
    transversals = [{i: Permutation.identity(n)} for i in range(1, n + 1)]

    def insert(p):
        for lvl in range(n):
            if p.is_identity():
                return False
            b = p.apply(lvl + 1)
            rep = transversals[lvl].get(b)
            if rep is None:
                transversals[lvl][b] = p
                return True
            p = compose(p, rep.inverse())
        return False

    for g in gens:
        insert(g)
    while True:
        reps = [rep for tv in transversals for rep in tv.values()
                if not rep.is_identity()]
        reps.extend(g for g in gens if not g.is_identity())
        changed = False
        for a in reps:
            for b in reps:
                if insert(compose(a, b)):
                    changed = True
        if not changed:
            break
    return StabilizerChain(n, tuple(transversals))


def _chain_cases():
    rng = random.Random(31)
    for n in range(1, 7):
        for _ in range(4):
            yield [random_perm(n, rng) for _ in range(rng.randint(0, 3))], n
    for k in (3, 4):
        wreath = wreath_group(symmetric_group(k), 2)
        yield [wreath_embed(w) for w in wreath.generators], 2 * k


def test_chain_matches_reference_builder():
    for gens, n in _chain_cases():
        chain = build_stabilizer_chain(gens, n)
        ref = reference_build_stabilizer_chain(gens, n)
        # Same representatives, inserted in the same order.
        assert ([list(tv.items()) for tv in chain.transversals]
                == [list(tv.items()) for tv in ref.transversals])
        for k in range(n + 1):
            assert list(chain.elements(k)) == list(ref.elements(k))
        rng_a, rng_b = random.Random(n), random.Random(n)
        assert ([random_element(chain, rng_a) for _ in range(25)]
                == [random_element(ref, rng_b) for _ in range(25)])
