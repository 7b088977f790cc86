"""Oracle functions and planted problem instances.

Every instance family wraps black-box value-labeled functions over a finite
group.  Planted builders construct the oracle so the defining promise holds
by construction; :func:`verify_promise` re-checks it by exhaustive
enumeration.  Labels are opaque comparable tokens; the planted builders use
the canonical serialized form of the least coset member, computed by
arithmetic over Z_m and D_n (whose elements are plain named tuples, equal to
tuples of their fields though nothing here compares them so) and read from a
table over any other group.

Shift conventions differ per family and are carried explicitly: the n-function
shift chain uses ``f_i(g) = f_{i+1}(u g)`` (left convention), the two-function
coset family uses ``f_1(g) = f_2(g u)`` (right convention).
"""

from __future__ import annotations

import enum
import itertools
from typing import Callable, Hashable, Iterable

from .groups import (DEFAULT_CAP, CyclicElement, FiniteGroup, GroupElement,
                     WreathElement, close_under_op, element_from_json,
                     element_key, element_to_json, group_from_json, group_op,
                     group_to_json, invert, normal_form_group, reduce_generators)
from .perms import ExceedsCapError, Permutation

Label = Hashable


class Side(enum.Enum):
    LEFT = "left"
    RIGHT = "right"


class PromiseViolationError(ValueError):
    """Raised when a planted construction is handed inconsistent data."""


class OracleFunction:
    """Deterministic black-box function from group elements to labels.

    Every evaluation is counted exactly.  A derived oracle over a wreath
    product ``G wr Z_n`` carries its ``arrangement`` as data: for each shift
    t, one ``(reader, component)`` pair per slot j, so that on an element of
    shift t the label's ``component`` is ``reader`` of slot j.  It is None
    for every other oracle.
    """

    def __init__(self, fn: Callable[[GroupElement], Label], description: str = "",
                 arrangement: tuple | None = None):
        self._fn = fn
        self.description = description
        self.arrangement = arrangement
        self._count = 0

    def evaluate(self, g: GroupElement) -> Label:
        self._count += 1
        return self._fn(g)

    def select(self, elements: Iterable[GroupElement], label: Label) -> list[GroupElement]:
        """The elements labeled ``label``, in stream order.  Evaluates every
        element once, so the count advances by one per element tested;
        subclasses that know the label's structure may test it cheaper."""
        fn = self._fn
        kept: list[GroupElement] = []
        tested = 0
        try:
            for tested, g in enumerate(elements, 1):
                if fn(g) == label:
                    kept.append(g)
        finally:
            self._count += tested
        return kept

    @property
    def evaluations(self) -> int:
        return self._count

    def __repr__(self):
        return f"OracleFunction({self.description or 'anonymous'}, evals={self._count})"


def _coset_label_table(elements: list[GroupElement], subgroup: list[GroupElement],
                       side: Side) -> dict:
    """Label map assigning each coset the serialized form of its least member,
    keyed by each member's serialized form.

    Sweeping the sorted element list guarantees the first unlabeled member of
    a coset is its minimum, so the label is canonical.  Unlike most
    element maps this one is keyed by ``element_key``: the planted oracles
    look it up with elements their callers have just built, and a key tuple
    hashes and compares in C, where a permutation or a wreath element would
    call its ``__hash__`` and ``__eq__`` in Python.
    """
    table: dict = {}
    for g in sorted(elements, key=element_key):
        label = element_key(g)
        if label in table:
            continue
        for h in subgroup:
            table[element_key(group_op(g, h) if side is Side.LEFT else group_op(h, g))] = label
    return table


_MISS = object()


def label_store(oracle: OracleFunction,
                identity: GroupElement) -> Callable[[GroupElement], Label]:
    """``oracle`` read through a store of its labels: the first read of an
    element evaluates it, every later read of an equal element is a lookup.

    The store is keyed by element value, chosen once from the group's
    identity: a permutation's image tuple, which hashes and compares in C,
    and the element itself for any other shape.
    """
    table: dict = {}
    lookup = table.get
    evaluate = oracle.evaluate
    if isinstance(identity, Permutation):
        def label(g: Permutation) -> Label:
            hit = lookup(g.images, _MISS)
            if hit is _MISS:
                hit = table[g.images] = evaluate(g)
            return hit
    else:
        def label(g: GroupElement) -> Label:
            hit = lookup(g, _MISS)
            if hit is _MISS:
                hit = table[g] = evaluate(g)
            return hit
    return label


class HspInstance:
    """A function constant on a hidden subgroup and distinct across its cosets
    on the declared side.  ``label`` reads the oracle through the instance's
    label store.  A reduced instance keeps the instance it was reduced from
    as its ``source`` (None for any other)."""

    def __init__(self, group: FiniteGroup, oracle: OracleFunction, side: Side,
                 planted_subgroup: tuple[GroupElement, ...] | None = None,
                 source=None):
        self.group = group
        self.oracle = oracle
        self.side = side
        self.planted_subgroup = planted_subgroup
        self.source = source
        self.label = label_store(oracle, group.identity)
        self._kernel: list[GroupElement] | None = None

    def kernel(self) -> list[GroupElement]:
        """Elements sharing the identity's label, in stream order; equals the
        hidden subgroup when the promise holds.  A verification that the
        promise holds leaves the kernel it found here.  Otherwise the oracle
        selects it from a stream of the group, so large structured groups are
        never held in memory at once (nor their labels in the store); cached
        after the first call."""
        if self._kernel is None:
            oracle = self.oracle
            base = oracle.evaluate(self.group.identity)
            self._kernel = oracle.select(self.group.iter_elements(), base)
        return self._kernel


class HiddenCosetInstance:
    """Two functions related by right translation: f1(g) = f2(g u).

    The set of all valid shifts is a full coset of the subgroup on which f1
    is constant.  Injective f1, f2 (trivial subgroup) is the hidden-shift
    special case.
    """

    def __init__(self, group: FiniteGroup, f1: OracleFunction, f2: OracleFunction,
                 planted_subgroup: tuple[GroupElement, ...] | None = None,
                 planted_shift: GroupElement | None = None):
        self.group = group
        self.f1 = f1
        self.f2 = f2
        self.planted_subgroup = planted_subgroup
        self.planted_shift = planted_shift
        self.labels = (label_store(f1, group.identity), label_store(f2, group.identity))
        self._shifts: list[GroupElement] | None = None

    @property
    def functions(self) -> tuple[OracleFunction, OracleFunction]:
        return (self.f1, self.f2)

    def brute_shift_set(self) -> list[GroupElement]:
        """Every w with f1(g) = f2(g w) for all g, in element order, read
        through the label stores; cached.  f1 is read on every element first,
        then each candidate reads f2 up to its first mismatch."""
        if self._shifts is None:
            label1, label2 = self.labels
            elems = self.group.elements()
            tagged = [(g, label1(g)) for g in elems]
            self._shifts = [w for w in elems
                            if all(lab == label2(group_op(g, w)) for g, lab in tagged)]
        return self._shifts


class GhshInstance:
    """n injective functions chained by a left shift: f_i(g) = f_{i+1}(u g)."""

    def __init__(self, group: FiniteGroup, functions: tuple[OracleFunction, ...],
                 planted_shift: GroupElement | None = None):
        if len(functions) < 2:
            raise ValueError("need at least two functions")
        self.group = group
        self.functions = functions
        self.planted_shift = planted_shift
        self.labels = tuple(label_store(f, group.identity) for f in functions)
        self._shifts: list[GroupElement] | None = None

    @property
    def copies(self) -> int:
        return len(self.functions)

    def F(self, i: int, g: GroupElement) -> Label:
        """Uniform access to the function family, 1-based index: the raw
        reference, which evaluates the function, not its label store."""
        if not 1 <= i <= self.copies:
            raise ValueError(f"function index {i} out of range 1..{self.copies}")
        return self.functions[i - 1].evaluate(g)

    def brute_shift_set(self) -> list[GroupElement]:
        """Every v with f_i(g) = f_{i+1}(v g) for all i and g, in element
        order, read through the label stores; cached."""
        if self._shifts is None:
            pairs = tuple(zip(self.labels, self.labels[1:]))
            elems = self.group.elements()
            self._shifts = [v for v in elems
                            if all(label(g) == nxt(group_op(v, g))
                                   for label, nxt in pairs for g in elems)]
        return self._shifts


class GroupAction:
    """A left action of a finite group on opaque states, given on generators.

    ``generator_images[k][s]`` is the state index reached from state ``s``
    under generator ``k``.  The action of every element is read off the
    group's closure, which the group's cap bounds, and checked to be a
    homomorphism on each of its generator edges.
    """

    def __init__(self, group: FiniteGroup, states: tuple[str, ...],
                 generator_images: tuple[tuple[int, ...], ...]):
        if len(generator_images) != len(group.generators):
            raise ValueError("one image row per generator required")
        m = len(states)
        if len(set(states)) != m:
            raise ValueError("state names must be distinct")
        for row in generator_images:
            if sorted(row) != list(range(m)):
                raise ValueError(f"action row is not a permutation of states: {row}")
        self.group = group
        self.states = states
        self.generator_images = generator_images
        self._perms = perms = {group.identity: tuple(range(m))}

        def extend(x: GroupElement, k: int, y: GroupElement) -> None:
            # The closure reaches x before it composes x with a generator, so
            # every edge defines or checks its target.  Left action:
            # (x g) . s = x . (g . s).
            px = perms[x]
            py = tuple([px[r] for r in generator_images[k]])
            if perms.setdefault(y, py) != py:
                raise ValueError("generator table does not extend to a group action")

        close_under_op(group.generators, group.identity, group.cap, extend)

    def act(self, x: GroupElement, state: int) -> int:
        perm = self._perms.get(x)
        if perm is None:
            raise ValueError("element outside the acting group")
        return perm[state]

    def orbit(self, state: int) -> set[int]:
        return {perm[state] for perm in self._perms.values()}

    def stabilizer_elements(self, state: int) -> list[GroupElement]:
        return [g for g, perm in self._perms.items() if perm[state] == state]

    def stabilizer_generators(self, state: int) -> list[GroupElement]:
        return reduce_generators(self.stabilizer_elements(state), self.group.identity,
                                 self.group.cap)


class NoDisjointOrbitError(ValueError):
    """Raised when a disjoint-orbit instance is requested of a transitive action."""


class OrbitCosetInstance:
    """Two states under a group action; solved by a mapping element plus the
    stabilizer of the second state, or a disjointness certificate."""

    def __init__(self, action: GroupAction, phi0: int, phi1: int,
                 planted_shift: GroupElement | None = None):
        self.action = action
        self.phi0 = phi0
        self.phi1 = phi1
        self.planted_shift = planted_shift

    @property
    def group(self) -> FiniteGroup:
        return self.action.group

    def orbits_intersect(self) -> bool:
        return self.phi0 in self.action.orbit(self.phi1)


# -- planted builders -----------------------------------------------------------

def _coset_label(group: FiniteGroup, subgroup_gens: tuple[GroupElement, ...],
                 side: Side) -> Callable[[GroupElement], Label]:
    """The planted labelling: g goes to the serialized form of the least
    member of its coset, on ``side``, of the subgroup H the generators
    generate.

    In Z_m and D_n it is arithmetic on H's normal form (d, c, reflects), so
    neither G nor H is listed.  The least member of a coset of H = <d> in Z_m
    is v mod d.  For r^k s^f in D_n, a coset of rotations-only H keeps f and
    has least rotation k mod d; a coset of an H with reflections holds
    rotations, the least of them r^((k - f c) mod d) on the left, r^(k mod d)
    for f = 0 and r^((c - k) mod d) for f = 1 on the right.  Any other group
    is tabulated by :func:`_coset_label_table`, which lists H, then G.  Past
    the cap, the arithmetic fails as those listings would.
    """
    cap = group.cap
    if group.normal_form is None:
        sub = close_under_op(subgroup_gens, group.identity, cap)
        table = _coset_label_table(group.elements(), sub, side)
        return lambda g: table[element_key(g)]
    sub = normal_form_group(group.identity, subgroup_gens, cap=cap)
    if sub.order() > cap:
        raise ExceedsCapError(f"closure exceeds cap {cap}")
    if group.order() > cap:
        raise ExceedsCapError(f"group has {group.order()} elements, cap {cap}")
    d, c, reflects = sub.normal_form
    if type(group.identity) is CyclicElement:
        m = group.identity.modulus
        return lambda g: ("cyclic", m, g.value % d)
    n = group.identity.rotations
    if not reflects:
        return lambda g: ("dihedral", n, g.flip, g.rot % d)
    if side is Side.LEFT:
        return lambda g: ("dihedral", n, 0, (g.rot - g.flip * c) % d)
    return lambda g: ("dihedral", n, 0, (c - g.rot if g.flip else g.rot) % d)


def plant_hsp(group: FiniteGroup, subgroup_gens: Iterable[GroupElement],
              side: Side = Side.LEFT) -> HspInstance:
    """Oracle labeling cosets of the subgroup by their least member."""
    subgroup_gens = tuple(subgroup_gens)
    for g in subgroup_gens:
        if not group.contains(g):
            raise PromiseViolationError(f"subgroup generator outside the group: {g}")
    oracle = OracleFunction(_coset_label(group, subgroup_gens, side),
                            description=f"{side.value}-coset labels")
    return HspInstance(group, oracle, side, planted_subgroup=subgroup_gens)


def plant_coset(group: FiniteGroup, subgroup_gens: Iterable[GroupElement],
                shift: GroupElement) -> HiddenCosetInstance:
    """Translation-related pair with shift set exactly (subgroup)(shift).

    f1 labels cosets gH; f2(g) = f1(g u^-1) then satisfies f1(g) = f2(g u)
    and every member of Hu is a valid shift.
    """
    subgroup_gens = tuple(subgroup_gens)
    if not group.contains(shift):
        raise PromiseViolationError(f"shift outside the group: {shift}")
    for g in subgroup_gens:
        if not group.contains(g):
            raise PromiseViolationError(f"subgroup generator outside the group: {g}")
    label = _coset_label(group, subgroup_gens, Side.LEFT)
    shift_inv = invert(shift)
    f1 = OracleFunction(label, description="coset labels")
    f2 = OracleFunction(lambda g: label(group_op(g, shift_inv)),
                        description="translated coset labels")
    return HiddenCosetInstance(group, f1, f2, planted_subgroup=subgroup_gens,
                               planted_shift=shift)


def plant_hidden_shift(group: FiniteGroup, shift: GroupElement) -> HiddenCosetInstance:
    """Injective special case of the coset family: both functions injective,
    exactly one valid shift."""
    return plant_coset(group, (), shift)


def plant_ghsh(group: FiniteGroup, shift: GroupElement, copies: int) -> GhshInstance:
    """Injective chain f_i(g) = serialized(u^(1-i) g)."""
    if copies < 2:
        raise ValueError("need at least two functions")
    if not group.contains(shift):
        raise PromiseViolationError(f"shift outside the group: {shift}")
    funcs = []
    shift_inv = invert(shift)
    prefix = group.identity  # u^(1-i), one step further per function
    for i in range(1, copies + 1):
        funcs.append(OracleFunction(
            lambda g, prefix=prefix: element_key(group_op(prefix, g)),
            description=f"f{i}"))
        prefix = group_op(prefix, shift_inv)
    return GhshInstance(group, tuple(funcs), planted_shift=shift)


def plant_orbit_coset(action: GroupAction, phi1: int,
                      shift: GroupElement | None) -> OrbitCosetInstance:
    """Pair of states, either related by the given element or from disjoint orbits."""
    if not 0 <= phi1 < len(action.states):
        raise ValueError(f"state index out of range: {phi1}")
    if shift is not None:
        phi0 = action.act(shift, phi1)
        return OrbitCosetInstance(action, phi0, phi1, planted_shift=shift)
    orbit = action.orbit(phi1)
    outside = [s for s in range(len(action.states)) if s not in orbit]
    if not outside:
        raise NoDisjointOrbitError("the action is transitive; no disjoint orbit exists")
    return OrbitCosetInstance(action, outside[0], phi1, planted_shift=None)


# -- promise verification ---------------------------------------------------------

def verify_promise(instance) -> bool:
    """Exhaustively re-check the defining invariant of an instance.

    Hidden subgroup instances are checked exactly in one sweep: a planted
    subgroup whose closure equals the kernel proves the kernel is a subgroup,
    and the cosets of a subgroup partition the group, so each coset is
    checked once rather than once per member.  A reduced instance is checked
    through its source (see :func:`_verify_reduced`).

    Verification fills each function's label store, reading the function
    once per element, and what it finds stays with the instance: every later
    read of a label is a lookup, a hidden-subgroup instance that keeps its
    promise caches its kernel, and coset and shift-chain instances cache
    their shift set.
    """
    if isinstance(instance, HspInstance):
        if instance.source is not None:
            return _verify_reduced(instance)
        return _verify_hsp(instance)
    if isinstance(instance, HiddenCosetInstance):
        return _verify_coset(instance)
    if isinstance(instance, GhshInstance):
        return _verify_ghsh(instance)
    if isinstance(instance, OrbitCosetInstance):
        return _verify_orbit_coset(instance)
    raise TypeError(f"not an instance: {instance!r}")


def _is_closed(kernel: list[GroupElement], kernel_set: set) -> bool:
    return all(group_op(a, b) in kernel_set for a in kernel for b in kernel)


def _is_generated(kernel: list[GroupElement], planted: tuple[GroupElement, ...] | None,
                  group: FiniteGroup) -> bool:
    """Whether ``kernel`` is the closure of the planted generators or, with
    none planted, closed under the group operation."""
    kernel_set = set(kernel)
    if planted is None:
        return _is_closed(kernel, kernel_set)
    try:
        closure = close_under_op(planted, group.identity, group.cap)
    except (ExceedsCapError, ValueError):
        # Planted generators of another shape, or a closure past the cap:
        # an unclosed kernel still fails the promise before that is raised.
        if not _is_closed(kernel, kernel_set):
            return False
        raise
    return set(closure) == kernel_set


def _hsp_kernel(group: FiniteGroup, label: Callable[[GroupElement], Label], side: Side,
                planted: tuple[GroupElement, ...] | None) -> list[GroupElement] | None:
    """The subgroup ``label`` hides on ``side`` of ``group``, in element
    order, or None when the labels break the promise: the kernel (elements
    labeled like the identity) must be a subgroup, the labels constant on
    each of its cosets on ``side``, and no two cosets may share a label.

    Reading every element through ``label`` evaluates it once; the checks
    read the store.  A planted subgroup settles closure: if the kernel equals
    the closure of the planted generators it is a generated subgroup, and if
    not the promise fails, so the pairwise closure check runs only without
    one.  Once the kernel K is a subgroup, the elements sharing a label (the
    label's fiber) are exactly one coset of K when the coset of any one of
    them lies in the fiber and there are |G|/|K| fibers: each fiber then
    holds at least |K| elements, and together they hold |G|.  A fiber's
    member g is g e itself, so only the other members of K are composed.
    """
    elems = group.elements()
    labels = [label(g) for g in elems]
    identity = group.identity
    base = label(identity)
    kernel = [g for g, lab in zip(elems, labels) if lab == base]
    if not _is_generated(kernel, planted, group):
        return None
    fibers = dict(zip(labels, elems))  # one member of each label's fiber
    if len(fibers) * len(kernel) != len(elems):
        return None
    others = [h for h in kernel if h != identity]
    left = side is Side.LEFT
    for lab, g in fibers.items():
        for h in others:
            if label(group_op(g, h) if left else group_op(h, g)) != lab:
                return None
    return kernel


def _verify_hsp(inst: HspInstance) -> bool:
    """The literal check of :func:`_hsp_kernel` on the instance's own label
    store.  When the promise holds, the kernel, in element order, is left as
    the instance's cached kernel.  On a reduced instance it lists the whole
    wreath product; it is kept as the reference that the tests and the
    selftest check the reduction theorems, and so :func:`_verify_reduced`,
    against."""
    kernel = _hsp_kernel(inst.group, inst.label, inst.side, inst.planted_subgroup)
    if kernel is None:
        return False
    inst._kernel = kernel
    return True


def _verify_reduced(inst: HspInstance) -> bool:
    """A reduced instance keeps its promise when its source keeps its own:
    the paper's reduction theorems carry the one to the other.  So its
    source is verified exhaustively, and its kernel is the product of the
    source's label fibers that the derived oracle's arrangement names for the
    identity's label; that kernel must be the closure of the planted
    generators, and is left cached.

    No element of the wreath product ``G wr Z_n`` is listed, but past the cap
    this fails as listing it would: with "group has N elements" when G knows
    its order, else, once G is listed, with "group exceeds cap".
    """
    group = inst.group
    base = inst.source.group
    copies = group.identity.copies
    if group.known_order is not None:
        if group.known_order > group.cap:
            raise ExceedsCapError(f"group has {group.known_order} elements, cap {group.cap}")
    elif copies * len(base.elements()) ** copies > group.cap:
        raise ExceedsCapError(f"group exceeds cap {group.cap}")
    if not verify_promise(inst.source):
        return False
    kernel = _fiber_product(base.elements(), inst.oracle.arrangement,
                            inst.label(group.identity))
    if not _is_generated(kernel, inst.planted_subgroup, group):
        return False
    inst._kernel = kernel
    return True


def _fiber_product(base_elems: list[GroupElement], arrangement: tuple,
                   label: Label) -> list[WreathElement]:
    """The wreath elements an arranged oracle gives ``label``, in the order
    the wreath product streams them: shift by shift, then the product of the
    slots' fibers with slot 0 outermost, each fiber in base-element order."""
    found: list[WreathElement] = []
    for t, slots in enumerate(arrangement):
        fibers = [[g for g in base_elems if read(g) == label[component]]
                  for read, component in slots]
        found.extend(WreathElement(prod, t) for prod in itertools.product(*fibers))
    return found


def _verify_coset(inst: HiddenCosetInstance) -> bool:
    """f1 hides a subgroup K on left cosets, read through its label store
    (the planted subgroup, if any), and the shift set is one coset K v."""
    shifts = inst.brute_shift_set()
    if not shifts:
        return False
    kernel = _hsp_kernel(inst.group, inst.labels[0], Side.LEFT, inst.planted_subgroup)
    if kernel is None:
        return False
    v = shifts[0]
    expected = {group_op(h, v) for h in kernel}
    if set(shifts) != expected:
        return False
    if inst.planted_shift is not None:
        if inst.planted_shift not in expected:
            return False
    return True


def _verify_ghsh(inst: GhshInstance) -> bool:
    elems = inst.group.elements()
    for label in inst.labels:
        if len({label(g) for g in elems}) != len(elems):
            return False
    shifts = inst.brute_shift_set()
    if len(shifts) != 1:
        return False
    if inst.planted_shift is not None:
        if shifts[0] != inst.planted_shift:
            return False
    return True


def _verify_orbit_coset(inst: OrbitCosetInstance) -> bool:
    # GroupAction validated its table at construction; check the planted data.
    m = len(inst.action.states)
    if not (0 <= inst.phi0 < m and 0 <= inst.phi1 < m):
        return False
    if inst.planted_shift is not None:
        return inst.action.act(inst.planted_shift, inst.phi1) == inst.phi0
    return not inst.orbits_intersect()


# -- JSON forms -------------------------------------------------------------------

def instance_to_json(instance) -> dict:
    """Planted spec only; oracles are reconstructed, never serialized as tables."""
    if isinstance(instance, HspInstance):
        if instance.planted_subgroup is None:
            raise ValueError("only planted instances serialize")
        return {"problem": "hsp",
                "group": group_to_json(instance.group),
                "side": instance.side.value,
                "planted": {"subgroup": [element_to_json(g)
                                         for g in instance.planted_subgroup]}}
    if isinstance(instance, HiddenCosetInstance):
        if instance.planted_subgroup is None or instance.planted_shift is None:
            raise ValueError("only planted instances serialize")
        return {"problem": "hidden_coset",
                "group": group_to_json(instance.group),
                "planted": {"subgroup": [element_to_json(g)
                                         for g in instance.planted_subgroup],
                            "shift": element_to_json(instance.planted_shift)}}
    if isinstance(instance, GhshInstance):
        if instance.planted_shift is None:
            raise ValueError("only planted instances serialize")
        return {"problem": "ghsh",
                "group": group_to_json(instance.group),
                "copies": instance.copies,
                "planted": {"shift": element_to_json(instance.planted_shift)}}
    if isinstance(instance, OrbitCosetInstance):
        act = instance.action
        return {"problem": "orbit_coset",
                "action": {"group": group_to_json(act.group),
                           "states": list(act.states),
                           "generator_images": [list(r) for r in act.generator_images]},
                "phi1": instance.phi1,
                "planted": {"shift": None if instance.planted_shift is None
                            else element_to_json(instance.planted_shift)}}
    raise TypeError(f"not an instance: {instance!r}")


def instance_from_json(data: dict, cap: int = DEFAULT_CAP):
    """Rebuild a planted instance; its group enumerates under ``cap``."""
    problem = data.get("problem")
    if problem == "hsp":
        group = group_from_json(data["group"], cap)
        gens = tuple(element_from_json(x) for x in data["planted"]["subgroup"])
        return plant_hsp(group, gens, Side(data.get("side", "left")))
    if problem == "hidden_coset":
        group = group_from_json(data["group"], cap)
        gens = tuple(element_from_json(x) for x in data["planted"]["subgroup"])
        shift = element_from_json(data["planted"]["shift"])
        return plant_coset(group, gens, shift)
    if problem == "ghsh":
        group = group_from_json(data["group"], cap)
        shift = element_from_json(data["planted"]["shift"])
        return plant_ghsh(group, shift, data["copies"])
    if problem == "orbit_coset":
        spec = data["action"]
        action = GroupAction(group_from_json(spec["group"], cap),
                             tuple(spec["states"]),
                             tuple(tuple(r) for r in spec["generator_images"]))
        planted = data["planted"]["shift"]
        shift = None if planted is None else element_from_json(planted)
        return plant_orbit_coset(action, data["phi1"], shift)
    raise ValueError(f"unknown problem kind: {problem!r}")
