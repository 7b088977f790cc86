"""Expected answers, computed without the code under test.

Elements are plain hashable tuples, decoded from the library's JSON element
forms where outputs are checked:

* permutation ``("p", images)``, composed left to right (``p`` then ``q``);
* residue ``("c", modulus, value)``;
* wreath element ``("w", slots, shift)``, multiplied by the slot-permuting
  rule ``(g; t)(g'; t') = (g_{j+t'} g'_j; t + t')``.

Every expected answer is a set built from a problem's definition and its
planted data, so a benchmark check never trusts the library's own closure,
reduction or brute-force solver.
"""

from __future__ import annotations

import itertools


def perm(images) -> tuple:
    return ("p", tuple(images))


def perm_identity(n: int) -> tuple:
    return perm(range(1, n + 1))


def perm_from_cycles(text: str, n: int) -> tuple:
    """``"(1 2)(3 4 5)"`` to a permutation; ``""`` and ``"()"`` give the identity."""
    images = list(range(1, n + 1))
    for chunk in text.replace(")", "").split("("):
        points = [int(x) for x in chunk.split()]
        for a, b in zip(points, points[1:] + points[:1]):
            images[a - 1] = b
    return perm(images)


def cycles_text(p: tuple) -> str:
    """Cycle notation of a permutation, the form the CLI parses."""
    images = p[1]
    seen, out = set(), []
    for start in range(1, len(images) + 1):
        if start in seen or images[start - 1] == start:
            continue
        cycle, x = [], start
        while x not in seen:
            seen.add(x)
            cycle.append(x)
            x = images[x - 1]
        out.append("(" + " ".join(map(str, cycle)) + ")")
    return "".join(out) or "()"


def residue(modulus: int, value: int) -> tuple:
    return ("c", modulus, value % modulus)


def wreath(slots, shift: int) -> tuple:
    return ("w", tuple(slots), shift % len(slots))


def mul(x: tuple, y: tuple) -> tuple:
    kind = x[0]
    if kind == "p":
        xi, yi = x[1], y[1]
        return ("p", tuple(yi[v - 1] for v in xi))
    if kind == "c":
        return ("c", x[1], (x[2] + y[2]) % x[1])
    if kind == "w":
        n = len(x[1])
        return ("w", tuple(mul(x[1][(j + y[2]) % n], y[1][j]) for j in range(n)),
                (x[2] + y[2]) % n)
    raise ValueError(f"unknown element kind {kind!r}")


def inv(x: tuple) -> tuple:
    kind = x[0]
    if kind == "p":
        out = [0] * len(x[1])
        for i, v in enumerate(x[1], start=1):
            out[v - 1] = i
        return ("p", tuple(out))
    if kind == "c":
        return ("c", x[1], (-x[2]) % x[1])
    if kind == "w":
        n, t = len(x[1]), x[2]
        return ("w", tuple(inv(x[1][(m - t) % n]) for m in range(n)), (-t) % n)
    raise ValueError(f"unknown element kind {kind!r}")


def power(x: tuple, e: int, identity: tuple) -> tuple:
    out, base = identity, (x if e >= 0 else inv(x))
    for _ in range(abs(e)):
        out = mul(out, base)
    return out


def closure(gens, identity: tuple) -> frozenset:
    """The subgroup generated by ``gens``, by breadth-first products."""
    seen = {identity}
    frontier = [identity]
    gens = list(gens)
    while frontier:
        nxt = []
        for a in frontier:
            for g in gens:
                b = mul(a, g)
                if b not in seen:
                    seen.add(b)
                    nxt.append(b)
        frontier = nxt
    return frozenset(seen)


def symmetric(n: int) -> list[tuple]:
    return [perm(p) for p in itertools.permutations(range(1, n + 1))]


def conjugate(x: tuple, s: tuple) -> tuple:
    """``s^-1 x s``; for permutations, in one pass: it sends s(i) to s(x(i))."""
    if x[0] == "p":
        xi, si = x[1], s[1]
        out = [0] * len(xi)
        for i, v in enumerate(xi):
            out[si[i] - 1] = si[v - 1]
        return ("p", tuple(out))
    return mul(mul(inv(s), x), s)


def from_json(data) -> tuple:
    """Decode the library's JSON element form."""
    kind = data["kind"]
    if kind == "perm":
        return perm(data["images"])
    if kind == "cyclic":
        return residue(data["modulus"], data["value"])
    if kind == "wreath":
        return wreath([from_json(s) for s in data["slots"]], data["shift"])
    raise ValueError(f"unexpected element kind {kind!r}")


# -- hidden subgroups of the reductions, from their definitions ---------------------


def coset_pair_kernel(members: frozenset, shift: tuple) -> frozenset:
    """Hidden subgroup of the paired coset functions over ``G wr Z_2``.

    With f1 labelling left cosets gH and f2(g) = f1(g u^-1), the pair (f1, f2)
    on the slots, swapped under the shift bit, is constant exactly on
    (H x u^-1 H u; 0) and (u^-1 H x H u; 1).
    """
    u_inv = inv(shift)
    out = {wreath((a, conjugate(b, shift)), 0) for a in members for b in members}
    out |= {wreath((mul(u_inv, a), mul(b, shift)), 1) for a in members for b in members}
    return frozenset(out)


def shift_chain_kernel(shift: tuple, copies: int, identity: tuple) -> frozenset:
    """Hidden subgroup of the spread chain f_i(g) = key(u^(1-i) g) over
    ``G wr Z_n``: slot j of the member with shift t is u^((j+t) mod n - j)."""
    n = copies
    return frozenset(
        wreath([power(shift, (j + t) % n - j, identity) for j in range(n)], t)
        for t in range(n))


def two_orbit_action(n: int, a: int, b: int):
    """State map of ``two-orbit:n:a:b``: residue v moves state s by v steps
    around an a-cycle (states 0..a-1) or a b-cycle (states a..a+b-1)."""
    def act(v: int, s: int) -> int:
        if s < a:
            return (s + v) % a
        return a + (s - a + v) % b
    return act


def orbit_pair_kernel(n: int, act, phi0: int, phi1: int) -> frozenset:
    """Hidden subgroup of the paired orbit maps over ``Z_n wr Z_2``: shift-free
    members fix phi0 and phi1 slotwise, swapping members exchange them."""
    out = set()
    for x in range(n):
        for y in range(n):
            if act(x, phi0) == phi0 and act(y, phi1) == phi1:
                out.add(wreath((residue(n, x), residue(n, y)), 0))
            if act(x, phi0) == phi1 and act(y, phi1) == phi0:
                out.add(wreath((residue(n, x), residue(n, y)), 1))
    return frozenset(out)
