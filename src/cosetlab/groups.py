"""Closed element algebra over cyclic, dihedral, wreath, and tuple shapes.

All shapes share one abstract multiplication, exposed as :func:`group_op`.
Permutations participate directly (see :mod:`cosetlab.perms`).  The wreath
shape follows the slot-permuting rule

    (g_1, ..., g_n, t) o (g'_1, ..., g'_n, t') = (g_{t'(1)} g'_1, ..., g_{t'(n)} g'_n, t + t')

where ``t'`` permutes slot indices cyclically by ``j -> j + t' (mod n)`` and
slot products use the shared multiplication.  A wreath element over two
permutation slots acts on the doubled point set and embeds into a symmetric
group of twice the degree; the embedding here is arranged to be a
homomorphism under left-to-right composition (the slot acting on a column is
the one indexed by the column's destination).

Elements are validated where they enter: the public constructors and
:func:`element_from_json`.  Results of ``op``, ``inverse`` and the element
streams of the standard constructions are well formed by construction and
are built without re-checking.  Equal elements are exactly those with equal
:func:`element_key`, and every shape hashes, so dictionaries and sets of
elements are keyed by the elements themselves; ``element_key`` orders them
and serves as a label (and keys the planted oracles' label tables, see
:mod:`cosetlab.instances`).

Cyclic and dihedral elements are named tuples of their fields, so they are
built, hashed and compared in C.  They therefore also compare equal to plain
tuples of the same fields (``CyclicElement(4, 1) == (4, 1)``); nothing in the
library compares them that way, and no element equals one of another shape
or a label, whose first field is a shape name.
"""

from __future__ import annotations

import itertools
import math
from collections import namedtuple
from dataclasses import dataclass
from typing import Callable, Iterable, Iterator, Union

from .perms import ExceedsCapError, Permutation, _perm, compose

_new = object.__new__
_tuple_new = tuple.__new__


class ShapeMismatchError(ValueError):
    """Raised when two elements of incompatible shapes are combined."""


class CyclicElement(namedtuple("CyclicElement", "modulus value")):
    """Residue in the additive group of integers mod ``modulus``."""

    __slots__ = ()

    def __new__(cls, modulus: int, value: int):
        if not type(modulus) is type(value) is int:
            raise ValueError("modulus and value must be integers: "
                             f"CyclicElement(modulus={modulus!r}, value={value!r})")
        if modulus < 1:
            raise ValueError("modulus must be positive")
        return _tuple_new(cls, (modulus, value % modulus))

    def op(self, other: "CyclicElement") -> "CyclicElement":
        m = self.modulus
        if type(other) is not CyclicElement or other.modulus != m:
            _check_shape(self, other)
        return _tuple_new(CyclicElement, (m, (self.value + other.value) % m))

    def inverse(self) -> "CyclicElement":
        return _cyclic(self.modulus, -self.value % self.modulus)

    def identity_like(self) -> "CyclicElement":
        return _cyclic(self.modulus, 0)

    def is_identity(self) -> bool:
        return self.value == 0

    def sort_key(self):
        return ("cyclic", self.modulus, self.value)

    def __str__(self):
        return f"{self.value} (mod {self.modulus})"


class DihedralElement(namedtuple("DihedralElement", "rotations rot flip")):
    """Element r^rot s^flip of the dihedral group of order 2*rotations.

    Multiplication uses the relation s r = r^-1 s, so
    (a, b) * (c, d) = (a + (-1)^b c, b xor d).
    """

    __slots__ = ()

    def __new__(cls, rotations: int, rot: int, flip: int):
        if not type(rotations) is type(rot) is type(flip) is int:
            raise ValueError("rotations, rot and flip must be integers: DihedralElement("
                             f"rotations={rotations!r}, rot={rot!r}, flip={flip!r})")
        if rotations < 1:
            raise ValueError("rotation order must be positive")
        if flip not in (0, 1):
            raise ValueError("flip must be 0 or 1")
        return _tuple_new(cls, (rotations, rot % rotations, flip))

    def op(self, other: "DihedralElement") -> "DihedralElement":
        n, a, b = self
        if type(other) is not DihedralElement or other.rotations != n:
            _check_shape(self, other)
        _, c, d = other
        return _tuple_new(DihedralElement, (n, (a - c if b else a + c) % n, b ^ d))

    def inverse(self) -> "DihedralElement":
        if self.flip:
            return self
        return _dihedral(self.rotations, -self.rot % self.rotations, 0)

    def identity_like(self) -> "DihedralElement":
        return _dihedral(self.rotations, 0, 0)

    def is_identity(self) -> bool:
        return self.rot == 0 and self.flip == 0

    def sort_key(self):
        return ("dihedral", self.rotations, self.flip, self.rot)

    def __str__(self):
        return f"r^{self.rot}" + ("s" if self.flip else "")


class WreathElement:
    """Tuple of same-shape slot elements plus a cyclic slot shift.

    A plain slotted class rather than a dataclass: wreath elements are
    constructed by the million when structured groups are streamed, so the
    algebra builds them through :func:`_wreath` without the slot check the
    public constructor makes.  Instances are immutable by convention.
    """

    __slots__ = ("slots", "shift")

    def __init__(self, slots: tuple["GroupElement", ...], shift: int):
        n = len(slots)
        if n < 1:
            raise ValueError("wreath element needs at least one slot")
        if type(shift) is not int:
            raise ValueError(f"shift must be an integer, got {shift!r}")
        first = type(slots[0])
        for s in slots:
            if type(s) is not first:
                raise ShapeMismatchError("wreath slots mix shapes")
        self.slots = slots
        self.shift = shift % n

    def __eq__(self, other):
        return (isinstance(other, WreathElement) and self.shift == other.shift
                and self.slots == other.slots)

    def __hash__(self):
        return hash((self.slots, self.shift))

    def __repr__(self):
        return f"WreathElement({self.slots!r}, {self.shift})"

    @property
    def copies(self) -> int:
        return len(self.slots)

    def op(self, other: "WreathElement") -> "WreathElement":
        _check_shape(self, other)
        n = len(self.slots)
        mine, theirs, t = self.slots, other.slots, other.shift
        slots = tuple([group_op(mine[(j + t) % n], theirs[j]) for j in range(n)])
        return _wreath(slots, (self.shift + t) % n)

    def inverse(self) -> "WreathElement":
        n = len(self.slots)
        slots = tuple([invert(self.slots[(m - self.shift) % n]) for m in range(n)])
        return _wreath(slots, -self.shift % n)

    def identity_like(self) -> "WreathElement":
        return _wreath(tuple([s.identity_like() for s in self.slots]), 0)

    def is_identity(self) -> bool:
        return self.shift == 0 and all(s.is_identity() for s in self.slots)

    def sort_key(self):
        return ("wreath", len(self.slots), tuple(s.sort_key() for s in self.slots),
                self.shift)

    def __str__(self):
        inner = ", ".join(str(s) for s in self.slots)
        return f"({inner}; shift {self.shift})"


@dataclass(frozen=True)
class TupleElement:
    """Direct-product element with independent components."""

    items: tuple["GroupElement", ...]

    def op(self, other: "TupleElement") -> "TupleElement":
        if not isinstance(other, TupleElement) or len(self.items) != len(other.items):
            raise ShapeMismatchError("tuple shape mismatch")
        return TupleElement(tuple(group_op(a, b) for a, b in zip(self.items, other.items)))

    def inverse(self) -> "TupleElement":
        return TupleElement(tuple(invert(a) for a in self.items))

    def identity_like(self) -> "TupleElement":
        return TupleElement(tuple(a.identity_like() for a in self.items))

    def is_identity(self) -> bool:
        return all(a.is_identity() for a in self.items)

    def sort_key(self):
        return ("tuple", tuple(a.sort_key() for a in self.items))


GroupElement = Union[Permutation, CyclicElement, DihedralElement, WreathElement,
                     TupleElement]


# Trusted constructors: the algebra's own results, already well formed.

def _cyclic(modulus: int, value: int) -> CyclicElement:
    return _tuple_new(CyclicElement, (modulus, value))


def _dihedral(rotations: int, rot: int, flip: int) -> DihedralElement:
    return _tuple_new(DihedralElement, (rotations, rot, flip))


def _wreath(slots: tuple, shift: int) -> WreathElement:
    """``slots`` a tuple of one shape, ``shift`` already reduced mod its length."""
    w = _new(WreathElement)
    w.slots = slots
    w.shift = shift
    return w


def _check_shape(x: GroupElement, y: GroupElement) -> None:
    if type(x) is not type(y):
        raise ShapeMismatchError(f"cannot combine {type(x).__name__} with {type(y).__name__}")
    if isinstance(x, Permutation):
        if x.degree != y.degree:
            raise ShapeMismatchError(f"degree mismatch: {x.degree} != {y.degree}")
    elif isinstance(x, CyclicElement):
        if x.modulus != y.modulus:
            raise ShapeMismatchError(f"modulus mismatch: {x.modulus} != {y.modulus}")
    elif isinstance(x, DihedralElement):
        if x.rotations != y.rotations:
            raise ShapeMismatchError(f"dihedral order mismatch: {x.rotations} != {y.rotations}")
    elif isinstance(x, WreathElement):
        if len(x.slots) != len(y.slots):
            raise ShapeMismatchError("wreath copy-count mismatch")


def group_op(x: GroupElement, y: GroupElement) -> GroupElement:
    """The shared multiplication; for permutations this reads left to right."""
    if type(x) is not type(y):
        raise ShapeMismatchError(f"cannot combine {type(x).__name__} with {type(y).__name__}")
    if type(x) is Permutation:
        return compose(x, y)
    return x.op(y)


def invert(x: GroupElement) -> GroupElement:
    return x.inverse()


def identity_like(x: GroupElement) -> GroupElement:
    return x.identity_like()


def element_key(x: GroupElement):
    """Total order key within a shape; doubles as the canonical serialized form."""
    return x.sort_key()


def element_pow(x: GroupElement, e: int) -> GroupElement:
    out = x.identity_like()
    base = x if e >= 0 else invert(x)
    for _ in range(abs(e)):
        out = group_op(out, base)
    return out


# -- JSON forms ---------------------------------------------------------------

def element_to_json(x: GroupElement):
    if isinstance(x, Permutation):
        return {"kind": "perm", "images": list(x.images)}
    if isinstance(x, CyclicElement):
        return {"kind": "cyclic", "modulus": x.modulus, "value": x.value}
    if isinstance(x, DihedralElement):
        return {"kind": "dihedral", "rotations": x.rotations, "rot": x.rot,
                "flip": x.flip}
    if isinstance(x, WreathElement):
        return {"kind": "wreath", "slots": [element_to_json(s) for s in x.slots],
                "shift": x.shift}
    if isinstance(x, TupleElement):
        return {"kind": "tuple", "items": [element_to_json(s) for s in x.items]}
    raise TypeError(f"not a group element: {x!r}")


def element_from_json(data) -> GroupElement:
    """Parse and validate a JSON element; any malformed input raises ValueError."""
    try:
        return _element_from_json(data)
    except (AttributeError, KeyError, TypeError) as exc:
        raise ValueError(f"malformed element {data!r}: {exc!r}") from exc


def _element_from_json(data) -> GroupElement:
    kind = data.get("kind")
    if kind == "perm":
        return Permutation(tuple(data["images"]))
    if kind == "cyclic":
        return CyclicElement(data["modulus"], data["value"])
    if kind == "dihedral":
        return DihedralElement(data["rotations"], data["rot"], data["flip"])
    if kind == "wreath":
        return WreathElement(tuple(_element_from_json(s) for s in data["slots"]),
                             data["shift"])
    if kind == "tuple":
        return TupleElement(tuple(_element_from_json(s) for s in data["items"]))
    raise ValueError(f"unknown element kind: {kind!r}")


# -- groups given by generator lists -------------------------------------------

DEFAULT_CAP = 100_000


class FiniteGroup:
    """A finite group presented by generators over one element shape.

    ``elements_hint``, when provided, is a zero-argument callable yielding
    every element in a fixed deterministic order (used for structured groups
    such as wreath products over an already-enumerated base, where
    breadth-first closure would be needlessly slow and materializing the
    list may be needlessly large).

    ``member``, when provided, tests membership without listing the group,
    and ``normal_form`` is the ``(d, c, reflects)`` of a group built by
    :func:`normal_form_group` (None for any other group), which the planted
    oracles read to label cosets by arithmetic.

    ``cap`` bounds every enumeration of the group; every group derived from
    this one (a wreath product, a flattening, a stabilizer level) takes it.
    """

    def __init__(self, generators: Iterable[GroupElement], identity: GroupElement,
                 name: str = "",
                 elements_hint: Callable[[], Iterable[GroupElement]] | None = None,
                 known_order: int | None = None, cap: int = DEFAULT_CAP,
                 member: Callable[[GroupElement], bool] | None = None,
                 normal_form: tuple[int, int, bool] | None = None):
        self.generators: tuple[GroupElement, ...] = tuple(generators)
        self.identity = identity
        self.name = name
        self.elements_hint = elements_hint
        self.known_order = known_order
        self.cap = cap
        self.member = member
        self.normal_form = normal_form
        self._elements: list[GroupElement] | None = None
        self._members: frozenset | None = None
        self._derived: dict = {}

    def derived(self, key, build: Callable[[], object]):
        """A structure other modules derive from this group (a search plan's
        levels, say): ``build()`` on the first call with ``key``, kept with
        the group and returned by every later call.  A structure kept here
        must not refer back to the group, or the two form a reference cycle
        that outlives the group's last user until the cyclic collector runs."""
        if key not in self._derived:
            self._derived[key] = build()
        return self._derived[key]

    def iter_elements(self) -> Iterator[GroupElement]:
        """Stream every element once, without forcing the list into memory.

        The cap guards open-ended closure; a hint-backed group of known order
        streams freely since its size was fixed at construction.
        """
        if self._elements is not None:
            return iter(self._elements)
        if self.elements_hint is not None:
            if self.known_order is not None:
                return iter(self.elements_hint())

            def capped():
                count = 0
                for g in self.elements_hint():
                    count += 1
                    if count > self.cap:
                        raise ExceedsCapError(f"group exceeds cap {self.cap}")
                    yield g
            return capped()
        return iter(self.elements())

    def elements(self) -> list[GroupElement]:
        if self._elements is None:
            if self.known_order is not None and self.known_order > self.cap:
                raise ExceedsCapError(
                    f"group has {self.known_order} elements, cap {self.cap}")
            if self.elements_hint is not None:
                self._elements = list(self.iter_elements())
            else:
                self._elements = enumerate_group(self)
        return self._elements

    def order(self) -> int:
        if self.known_order is not None:
            return self.known_order
        if self._elements is not None:
            return len(self._elements)
        return sum(1 for _ in self.iter_elements())

    def contains(self, x: GroupElement) -> bool:
        """Whether ``x`` is an element of the group; an element of another
        shape or size is not.  Answered by the group's ``member`` test when it
        has one, else by lookup in its element list, built on the first call."""
        if self.member is not None:
            return self.member(x)
        if self._members is None:
            self._members = frozenset(self.elements())
        return x in self._members

    def __repr__(self):
        label = self.name or f"{len(self.generators)} generators"
        return f"FiniteGroup({label})"


def close_under_op(seeds: Iterable[GroupElement], identity: GroupElement,
                   cap: int = DEFAULT_CAP,
                   visit: Callable[[GroupElement, int, GroupElement], None] | None = None
                   ) -> list[GroupElement]:
    """Breadth-first closure from the identity, layers tie-broken by serialized
    form.  ``visit(a, i, b)``, when given, sees every product the closure
    composes, ``b = a seeds[i]``, once each; every ``a`` it is handed was
    itself a ``b`` of an earlier call, or is the identity, which counts
    against ``cap`` like every other element."""
    if cap < 1:
        raise ExceedsCapError(f"closure exceeds cap {cap}")
    gens = sorted(enumerate(seeds), key=lambda seed: element_key(seed[1]))
    seen = {identity}
    out = [identity]
    frontier = [identity]
    while frontier:
        nxt = []
        for a in frontier:
            for i, g in gens:
                b = group_op(a, g)
                if visit is not None:
                    visit(a, i, b)
                if b not in seen:
                    seen.add(b)
                    nxt.append(b)
                    if len(seen) > cap:
                        raise ExceedsCapError(f"closure exceeds cap {cap}")
        nxt.sort(key=element_key)
        out.extend(nxt)
        frontier = nxt
    return out


def enumerate_group(g: FiniteGroup) -> list[GroupElement]:
    return close_under_op(g.generators, g.identity, g.cap)


def reduce_generators(elements: Iterable[GroupElement], identity: GroupElement,
                      cap: int = DEFAULT_CAP) -> list[GroupElement]:
    """Greedy small generating set: add canonical-order elements until they span."""
    todo = sorted(elements, key=element_key)
    gens: list[GroupElement] = []
    span = {identity}
    for x in todo:
        if x in span:
            continue
        gens.append(x)
        span = set(close_under_op(gens, identity, cap))
    return gens


# -- standard constructions -----------------------------------------------------

def symmetric_group(n: int, cap: int = DEFAULT_CAP) -> FiniteGroup:
    gens = []
    if n >= 2:
        gens.append(Permutation.from_cycles(n, [(1, 2)]))
    if n >= 3:
        gens.append(Permutation.from_cycles(n, [tuple(range(1, n + 1))]))
    return FiniteGroup(gens, Permutation.identity(n), name=f"S{n}",
                       known_order=math.factorial(n), cap=cap)


def normal_form_group(identity: CyclicElement | DihedralElement,
                      generators: Iterable[GroupElement], name: str = "",
                      cap: int = DEFAULT_CAP) -> FiniteGroup:
    """The group that ``generators`` generate in Z_m or D_n (the shape of
    ``identity``), in arithmetic normal form rather than by closure.

    In Z_m it is <d>, with d = gcd(m, the generators' values).  In D_n it is
    {r^(kd)}, joined by {r^(kd+c) s} when some generator is a reflection:
    d = gcd(n, the rotation generators' exponents, the differences between
    the reflection generators' exponents), since two reflections r^b s,
    r^b' s multiply to r^(b - b'), and c is one reflection's exponent mod d.
    The group knows its order, lists its elements in ``element_key`` order,
    tests membership by arithmetic and keeps ``(d, c, reflects)`` as its
    ``normal_form`` (c = 0 and no reflection in Z_m).  The generators must
    share the identity's shape and size.
    """
    gens = tuple(generators)
    if type(identity) is CyclicElement:
        m = identity.modulus
        d = math.gcd(m, *(g.value for g in gens))

        def listing():
            return [_tuple_new(CyclicElement, (m, v)) for v in range(0, m, d)]

        def member(x) -> bool:
            return type(x) is CyclicElement and x.modulus == m and x.value % d == 0

        return FiniteGroup(gens, identity, name, listing, m // d, cap, member,
                           (d, 0, False))
    n = identity.rotations
    reflections = [g.rot for g in gens if g.flip]
    d = math.gcd(n, *(g.rot for g in gens if not g.flip),
                 *(b - reflections[0] for b in reflections))
    flips = (0, 1) if reflections else (0,)
    c = reflections[0] % d if reflections else 0

    def listing():
        return [_tuple_new(DihedralElement, (n, r + c * f, f))
                for f in flips for r in range(0, n, d)]

    def member(x) -> bool:
        return (type(x) is DihedralElement and x.rotations == n and x.flip in flips
                and (x.rot - c * x.flip) % d == 0)

    return FiniteGroup(gens, identity, name, listing, len(flips) * (n // d), cap, member,
                       (d, c, bool(reflections)))


def cyclic_group(m: int, cap: int = DEFAULT_CAP) -> FiniteGroup:
    return normal_form_group(CyclicElement(m, 0), [CyclicElement(m, 1)] if m > 1 else [],
                             f"Z{m}", cap)


def dihedral_group(n: int, cap: int = DEFAULT_CAP) -> FiniteGroup:
    return normal_form_group(DihedralElement(n, 0, 0),
                             [DihedralElement(n, 1, 0), DihedralElement(n, 0, 1)],
                             f"D{n}", cap)


def dihedral_subgroup(n: int, step: int, offset: int, cap: int = DEFAULT_CAP) -> FiniteGroup:
    """The subgroup <r^step, r^offset s> of the dihedral group of order 2n."""
    step, offset = step % n, offset % n
    return normal_form_group(DihedralElement(n, 0, 0),
                             [DihedralElement(n, step, 0), DihedralElement(n, offset, 1)],
                             f"<r^{step}, r^{offset}s>", cap)


def wreath_group(base: FiniteGroup, copies: int) -> FiniteGroup:
    """The wreath product of ``base`` with the cyclic shift on ``copies`` slots,
    under ``base``'s cap."""
    if copies < 1:
        raise ValueError("copies must be at least 1")
    e = base.identity
    gens: list[GroupElement] = []
    for slot in range(copies):
        for g in base.generators:
            slots = tuple(g if j == slot else e for j in range(copies))
            gens.append(WreathElement(slots, 0))
    gens.append(WreathElement((e,) * copies, 1))

    def all_elements():
        return _wreath_stream(base.elements(), copies)

    known = None
    if base.known_order is not None:
        known = base.known_order ** copies * copies
    return FiniteGroup(gens, WreathElement((e,) * copies, 0),
                       name=f"{base.name or 'G'} wr Z{copies}",
                       elements_hint=all_elements, known_order=known, cap=base.cap)


def _wreath_stream(base_elems: list[GroupElement], copies: int) -> Iterator[WreathElement]:
    """Every wreath element over ``base_elems``, shift-major; :func:`_wreath`
    written out inline, since this loop runs once per element streamed."""
    for t in range(copies):
        for slots in itertools.product(base_elems, repeat=copies):
            w = _new(WreathElement)
            w.slots = slots
            w.shift = t
            yield w


def group_to_json(g: FiniteGroup):
    if all(isinstance(x, Permutation) for x in (*g.generators, g.identity)):
        return {"degree": g.identity.degree,
                "generators": [list(x.images) for x in g.generators]}
    return {"identity": element_to_json(g.identity),
            "generators": [element_to_json(x) for x in g.generators]}


def group_from_json(data, cap: int = DEFAULT_CAP) -> FiniteGroup:
    """Parse and validate a JSON group: the identity must be one, and every
    generator must share its shape.  A cyclic or dihedral group is built in
    normal form (:func:`normal_form_group`), any other by closure."""
    if "degree" in data:
        identity = Permutation.identity(data["degree"])
        gens = [Permutation(tuple(images)) for images in data["generators"]]
    else:
        identity = element_from_json(data["identity"])
        gens = [element_from_json(x) for x in data["generators"]]
        if not identity.is_identity():
            raise ValueError(f"group identity {identity} is not an identity element")
    for g in gens:
        _check_shape(identity, g)
    if type(identity) in (CyclicElement, DihedralElement):
        return normal_form_group(identity, gens, cap=cap)
    return FiniteGroup(gens, identity, cap=cap)


# -- the doubled-point action of two-slot wreath elements ------------------------

def wreath_embed(w: WreathElement) -> Permutation:
    """Flatten a two-slot wreath element over degree-n permutations into one
    permutation of 2n points.

    The map is a group homomorphism for the slot-permuting multiplication and
    left-to-right composition; column c of the doubled point set is sent to
    column c + shift and acted on by the slot with that destination index.
    Two slot permutations of one degree give a bijection, so the result is
    built without re-checking.
    """
    if len(w.slots) != 2:
        raise ValueError("embedding is defined for two-slot wreath elements")
    if not all(isinstance(s, Permutation) for s in w.slots):
        raise ShapeMismatchError("embedding needs permutation slots")
    n = w.slots[0].degree
    if w.slots[1].degree != n:
        raise ShapeMismatchError("slot degrees differ")
    t = w.shift
    first = w.slots[t].images            # column 1 lands in column 1 + t
    second = w.slots[1 - t].images       # column 2 lands in column 2 - t
    return _perm(tuple([x + t * n for x in first] + [x + (1 - t) * n for x in second]))


def wreath_unembed(p: Permutation, n: int) -> WreathElement:
    """Two-sided inverse of :func:`wreath_embed` on its image.

    Raises ValueError when ``p`` is not a permutation of 2n points respecting
    the two-column structure.  A permutation sending each column wholly into
    one column sends it onto that column, so the slot tuples read off it are
    bijections.
    """
    if not isinstance(p, Permutation):
        raise ShapeMismatchError(f"expected a permutation, got {p}")
    if p.degree != 2 * n:
        raise ValueError(f"expected degree {2 * n}, got {p.degree}")
    images = p.images
    shift = 0 if images[0] <= n else 1
    # Slot 0 acts on the column that lands in column 1, slot 1 on the other.
    stay, move = (images[:n], images[n:]) if shift == 0 else (images[n:], images[:n])
    if max(stay) > n or min(move) <= n:
        raise ValueError("permutation does not preserve the column structure")
    return _wreath((_perm(stay), _perm(tuple([x - n for x in move]))), shift)
