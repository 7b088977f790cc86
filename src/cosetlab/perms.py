"""Permutations on {1..n} and stabilizer chains with strong generating sets.

Composition reads left to right: the product ``p q`` applies ``p`` first and
``q`` second, so ``compose(p, q)`` maps ``x`` to ``q(p(x))``.  Points are
1-based throughout; the serialized form of a permutation is its image array.

Permutations are validated where they enter: the public constructor,
:meth:`Permutation.from_cycles` and :func:`parse_cycles`.  Results of the
algebra's own operations (products, inverses, identities, chain enumeration
and sampling) are bijections by construction and skip the check.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import Iterable, Iterator


@dataclass(frozen=True)
class Permutation:
    """A bijection on {1..n}, stored as the tuple of images of 1..n."""

    images: tuple[int, ...]

    def __post_init__(self):
        n = len(self.images)
        if n < 1:
            raise ValueError("permutation degree must be at least 1")
        if (not all(type(x) is int for x in self.images)
                or sorted(self.images) != list(range(1, n + 1))):
            raise ValueError(f"not a permutation of 1..{n}: {self.images}")

    @classmethod
    def identity(cls, n: int) -> "Permutation":
        if n < 1:
            raise ValueError("permutation degree must be at least 1")
        return _perm(tuple(range(1, n + 1)))

    @classmethod
    def from_cycles(cls, n: int, cycles: Iterable[Iterable[int]]) -> "Permutation":
        images = list(range(1, n + 1))
        for cycle in cycles:
            cycle = list(cycle)
            if len(set(cycle)) != len(cycle):
                raise ValueError(f"repeated point in cycle {cycle}")
            for a, b in zip(cycle, cycle[1:] + cycle[:1]):
                if not 1 <= a <= n:
                    raise ValueError(f"point {a} out of range 1..{n}")
                images[a - 1] = b
        return cls(tuple(images))

    @property
    def degree(self) -> int:
        return len(self.images)

    def apply(self, x: int) -> int:
        return self.images[x - 1]

    def is_identity(self) -> bool:
        return self.images == tuple(range(1, len(self.images) + 1))

    def op(self, other: "Permutation") -> "Permutation":
        return compose(self, other)

    def inverse(self) -> "Permutation":
        out = [0] * len(self.images)
        for x, img in enumerate(self.images, start=1):
            out[img - 1] = x
        return _perm(tuple(out))

    def identity_like(self) -> "Permutation":
        return Permutation.identity(self.degree)

    def sort_key(self):
        return ("perm", self.images)

    def cycles(self) -> list[tuple[int, ...]]:
        """Disjoint cycles of length at least 2, each starting at its least point."""
        seen: set[int] = set()
        out = []
        for start in range(1, self.degree + 1):
            if start in seen or self.apply(start) == start:
                continue
            cycle = [start]
            seen.add(start)
            x = self.apply(start)
            while x != start:
                cycle.append(x)
                seen.add(x)
                x = self.apply(x)
            out.append(tuple(cycle))
        return out

    def __repr__(self):
        return f"Permutation({list(self.images)})"

    def __str__(self):
        return format_cycles(self)


_new = object.__new__
_set = object.__setattr__


def _perm(images: tuple[int, ...]) -> Permutation:
    """Trusted constructor: ``images`` must already be a permutation tuple."""
    p = _new(Permutation)
    _set(p, "images", images)
    return p


def compose(p: Permutation, q: Permutation) -> Permutation:
    """Apply ``p`` first, then ``q``."""
    qi = q.images
    if len(p.images) != len(qi):
        raise ValueError(f"degree mismatch: {p.degree} != {q.degree}")
    return _perm(tuple([qi[img - 1] for img in p.images]))


def format_cycles(p: Permutation) -> str:
    cycles = p.cycles()
    if not cycles:
        return "()"
    return "".join("(" + " ".join(map(str, c)) + ")" for c in cycles)


def parse_cycles(text: str, n: int) -> Permutation:
    """Parse cycle notation like ``(1 2)(3 4)`` into a degree-n permutation.

    An empty string or ``()`` denotes the identity.  Points may be separated
    by spaces or commas.
    """
    stripped = text.strip()
    if stripped in ("", "()", "id"):
        return Permutation.identity(n)
    if stripped.count("(") != stripped.count(")") or not stripped.startswith("("):
        raise ValueError(f"malformed cycle notation: {text!r}")
    cycles = []
    for chunk in stripped.replace(")", ")\n").split("\n"):
        chunk = chunk.strip()
        if not chunk:
            continue
        if not (chunk.startswith("(") and chunk.endswith(")")):
            raise ValueError(f"malformed cycle notation: {text!r}")
        body = chunk[1:-1].replace(",", " ").split()
        if body:
            cycles.append([int(tok) for tok in body])
    return Permutation.from_cycles(n, cycles)


class ExceedsCapError(RuntimeError):
    """Raised when an enumeration grows past its declared cap."""


@dataclass(frozen=True, eq=False)
class StabilizerChain:
    """Pointwise-stabilizer chain of a permutation group with coset tables.

    ``transversals[i-1]`` maps an image point ``b`` to the unique stored coset
    representative of the stabilizer of 1..i inside the stabilizer of 1..i-1
    that sends ``i`` to ``b``.  Every group element factors uniquely as
    ``c_n c_{n-1} ... c_1`` with ``c_i`` drawn from table ``i`` (applied left
    to right).
    """

    degree: int
    transversals: tuple[dict[int, Permutation], ...]

    @property
    def order(self) -> int:
        return self.level_order(0)

    def level_order(self, k: int) -> int:
        """Order of the pointwise stabilizer of {1..k}."""
        out = 1
        for tv in self.transversals[k:]:
            out *= len(tv)
        return out

    def transversal(self, i: int) -> dict[int, Permutation]:
        """Coset representatives at level ``i`` (1-based), keyed by image of point ``i``."""
        return dict(self.transversals[i - 1])

    def subgroup_generators(self, k: int) -> list[Permutation]:
        """Generators of the pointwise stabilizer of {1..k}; k=0 gives the whole group."""
        return [rep for tv in self.transversals[k:] for rep in _sorted_reps(tv)
                if not rep.is_identity()]

    def sift(self, p: Permutation) -> tuple[Permutation | None, int]:
        """Strip coset representatives off ``p`` level by level.

        Returns ``(None, degree)`` when ``p`` factors completely (is a member),
        else ``(residue, level)`` for the first level whose table has no
        representative matching the residue's image.
        """
        if p.degree != self.degree:
            raise ValueError(f"degree mismatch: {p.degree} != {self.degree}")
        for lvl in range(self.degree):
            b = p.apply(lvl + 1)
            rep = self.transversals[lvl].get(b)
            if rep is None:
                return p, lvl
            p = compose(p, rep.inverse())
        return None, self.degree

    def contains(self, p: Permutation) -> bool:
        residue, _ = self.sift(p)
        return residue is None

    def factor(self, p: Permutation) -> list[Permutation]:
        """The unique factorization ``[c_n, ..., c_1]`` in application order."""
        factors: list[Permutation] = []
        for lvl in range(self.degree):
            b = p.apply(lvl + 1)
            rep = self.transversals[lvl].get(b)
            if rep is None:
                raise ValueError("permutation is not a member of the chain's group")
            factors.append(rep)
            p = compose(p, rep.inverse())
        factors.reverse()
        return factors

    def elements(self, k: int = 0) -> Iterator[Permutation]:
        """All elements of the pointwise stabilizer of {1..k}, deterministically ordered."""
        n = self.degree
        acc = [Permutation.identity(n)]
        for lvl in range(n - 1, k - 1, -1):
            reps = _sorted_reps(self.transversals[lvl])
            acc = [compose(partial, rep) for partial in acc for rep in reps]
        return iter(acc)


def _sorted_reps(tv: dict[int, Permutation]) -> list[Permutation]:
    return [tv[b] for b in sorted(tv)]


def build_stabilizer_chain(gens: Iterable[Permutation], n: int) -> StabilizerChain:
    """Deterministic sift-and-close construction of a stabilizer chain.

    New representatives are sifted in until every pairwise product of stored
    representatives (and input generators) factors through the tables, which
    certifies the strong generating set.  Quadratic in the number of
    representatives, which is fine at small degree.
    """
    gens = list(gens)
    for g in gens:
        if g.degree != n:
            raise ValueError(f"generator degree {g.degree} does not match {n}")
    identity = Permutation.identity(n)
    transversals: list[dict[int, Permutation]] = [{i: identity} for i in range(1, n + 1)]
    # Each representative's inverse, stored when the representative is.
    inverses: list[dict[int, Permutation]] = [{i: identity} for i in range(1, n + 1)]

    def insert(p: Permutation) -> bool:
        for lvl in range(n):
            if p.is_identity():
                return False
            b = p.images[lvl]
            rep_inv = inverses[lvl].get(b)
            if rep_inv is None:
                transversals[lvl][b] = p
                inverses[lvl][b] = p.inverse()
                return True
            p = compose(p, rep_inv)
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


def random_element(chain: StabilizerChain, rng: random.Random) -> Permutation:
    """Uniform draw: one independent representative per level, composed bottom up.

    Uniformity follows from the unique factorization through the coset tables.
    """
    g = Permutation.identity(chain.degree)
    for lvl in range(chain.degree - 1, -1, -1):
        g = compose(g, rng.choice(_sorted_reps(chain.transversals[lvl])))
    return g
