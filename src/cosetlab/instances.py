"""Oracle functions and planted problem instances.

Every instance family wraps black-box value-labeled functions over a finite
group.  Planted builders construct the oracle so the defining promise holds
by construction; :func:`verify_promise` re-checks it by exhaustive
enumeration.  Labels are opaque comparable tokens; the planted builders use
the canonical serialized form of the least coset member.

Shift conventions differ per family and are carried explicitly: the n-function
shift chain uses ``f_i(g) = f_{i+1}(u g)`` (left convention), the two-function
coset family uses ``f_1(g) = f_2(g u)`` (right convention).
"""

from __future__ import annotations

import enum
from typing import Callable, Hashable, Iterable, Iterator

from .groups import (DEFAULT_CAP, FiniteGroup, GroupElement, close_under_op,
                     element_from_json, element_key, element_pow, element_to_json,
                     group_from_json, group_op, group_to_json, invert,
                     reduce_generators)
from .perms import ExceedsCapError

Label = Hashable


class Side(enum.Enum):
    LEFT = "left"
    RIGHT = "right"


class PromiseViolationError(ValueError):
    """Raised when a planted construction is handed inconsistent data."""


class OracleFunction:
    """Deterministic black-box function from group elements to labels.

    Every evaluation is counted exactly.
    """

    def __init__(self, fn: Callable[[GroupElement], Label], description: str = ""):
        self._fn = fn
        self.description = description
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
    a coset is its minimum, so the label is canonical.  Unlike the other
    element maps this one is keyed by ``element_key``: the planted oracles
    look it up with elements their callers have just built, and for flat
    shapes a key tuple hashes and compares in C, where an element would call
    its ``__hash__`` and ``__eq__`` in Python.
    """
    table: dict = {}
    for g in sorted(elements, key=element_key):
        label = element_key(g)
        if label in table:
            continue
        for h in subgroup:
            table[element_key(group_op(g, h) if side is Side.LEFT else group_op(h, g))] = label
    return table


class HspInstance:
    """A function constant on a hidden subgroup and distinct across its cosets
    on the declared side."""

    def __init__(self, group: FiniteGroup, oracle: OracleFunction, side: Side,
                 planted_subgroup: tuple[GroupElement, ...] | None = None):
        self.group = group
        self.oracle = oracle
        self.side = side
        self.planted_subgroup = planted_subgroup
        self._kernel: list[GroupElement] | None = None

    def kernel(self) -> list[GroupElement]:
        """Elements sharing the identity's label; equals the hidden subgroup
        when the promise holds.  The oracle selects them from a stream of the
        group, so large structured groups are never held in memory at once;
        cached after the first call."""
        if self._kernel is None:
            oracle = self.oracle
            base = oracle.evaluate(self.group.identity)
            self._kernel = oracle.select(self.group.iter_elements(), base)
        return self._kernel


def relating_shifts(elements: list[GroupElement], f1: Callable[[GroupElement], Label],
                    f2: Callable[[GroupElement], Label]) -> Iterator[GroupElement]:
    """Each w of ``elements``, in order, with f1(g) = f2(g w) for every g of
    ``elements``.  f1 is read on every element first; a candidate w stops at
    its first mismatch, so a caller that takes only the first shift pays only
    for the candidates before it."""
    tagged = [(g, f1(g)) for g in elements]
    for w in elements:
        if all(lab == f2(group_op(g, w)) for g, lab in tagged):
            yield w


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

    def brute_shift_set(self) -> list[GroupElement]:
        return list(relating_shifts(self.group.elements(), self.f1.evaluate,
                                    self.f2.evaluate))


class GhshInstance:
    """n injective functions chained by a left shift: f_i(g) = f_{i+1}(u g)."""

    def __init__(self, group: FiniteGroup, functions: tuple[OracleFunction, ...],
                 planted_shift: GroupElement | None = None):
        if len(functions) < 2:
            raise ValueError("need at least two functions")
        self.group = group
        self.functions = functions
        self.planted_shift = planted_shift

    @property
    def copies(self) -> int:
        return len(self.functions)

    def F(self, i: int, g: GroupElement) -> Label:
        """Uniform access to the function family, 1-based index."""
        return self.functions[i - 1].evaluate(g)

    def brute_shift_set(self) -> list[GroupElement]:
        elems = self.group.elements()
        out = []
        for v in elems:
            ok = all(self.functions[i].evaluate(g)
                     == self.functions[i + 1].evaluate(group_op(v, g))
                     for i in range(len(self.functions) - 1) for g in elems)
            if ok:
                out.append(v)
        return out


class GroupAction:
    """A left action of a finite group on opaque states, given on generators.

    ``generator_images[k][s]`` is the state index reached from state ``s``
    under generator ``k``.  The action of arbitrary elements is derived by
    breadth-first extension and checked to be a homomorphism on the closure,
    which the group's cap bounds.
    """

    def __init__(self, group: FiniteGroup, states: tuple[str, ...],
                 generator_images: tuple[tuple[int, ...], ...]):
        if len(generator_images) != len(group.generators):
            raise ValueError("one image row per generator required")
        m = len(states)
        for row in generator_images:
            if sorted(row) != list(range(m)):
                raise ValueError(f"action row is not a permutation of states: {row}")
        self.group = group
        self.states = states
        self.generator_images = generator_images
        self._perms: dict = {}
        self._build()

    def _build(self) -> None:
        cap = self.group.cap
        ident = self.group.identity
        m = len(self.states)
        self._perms[ident] = tuple(range(m))
        # Each element enters the frontier once and each of its generator
        # edges either defines its target or is compared with it, so the
        # pass checks the homomorphism property on every edge of the closure.
        frontier = [ident]
        while frontier:
            nxt = []
            for x in frontier:
                px = self._perms[x]
                for g, row in zip(self.group.generators, self.generator_images):
                    y = group_op(x, g)
                    # left action: (x g) . s = x . (g . s)
                    py = tuple(px[row[s]] for s in range(m))
                    if y not in self._perms:
                        self._perms[y] = py
                        nxt.append(y)
                        if len(self._perms) > cap:
                            raise ExceedsCapError(f"action closure exceeds cap {cap}")
                    elif self._perms[y] != py:
                        raise ValueError("generator table does not extend to a group action")
            frontier = nxt

    def act(self, x: GroupElement, state: int) -> int:
        perm = self._perms.get(x)
        if perm is None:
            raise ValueError("element outside the acting group")
        return perm[state]

    def orbit(self, state: int) -> set[int]:
        return {perm[state] for perm in self._perms.values()}

    def stabilizer_elements(self, state: int) -> list[GroupElement]:
        return [g for g in self.group.elements() if self.act(g, state) == state]

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

    def orbits_intersect(self) -> bool:
        return self.phi0 in self.action.orbit(self.phi1)


# -- planted builders -----------------------------------------------------------

def plant_hsp(group: FiniteGroup, subgroup_gens: Iterable[GroupElement],
              side: Side = Side.LEFT) -> HspInstance:
    """Oracle labeling cosets of the subgroup by their least member."""
    subgroup_gens = tuple(subgroup_gens)
    for g in subgroup_gens:
        if not group.contains(g):
            raise PromiseViolationError(f"subgroup generator outside the group: {g}")
    sub = close_under_op(subgroup_gens, group.identity, group.cap)
    table = _coset_label_table(group.elements(), sub, side)
    oracle = OracleFunction(lambda g: table[element_key(g)],
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
    sub = close_under_op(subgroup_gens, group.identity, group.cap)
    table = _coset_label_table(group.elements(), sub, Side.LEFT)
    shift_inv = invert(shift)
    f1 = OracleFunction(lambda g: table[element_key(g)], description="coset labels")
    f2 = OracleFunction(lambda g: table[element_key(group_op(g, shift_inv))],
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
    for i in range(1, copies + 1):
        prefix = element_pow(shift, 1 - i)
        funcs.append(OracleFunction(
            lambda g, prefix=prefix: element_key(group_op(prefix, g)),
            description=f"f{i}"))
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
    checked once rather than once per member.
    """
    if isinstance(instance, HspInstance):
        return _verify_hsp(instance)
    if isinstance(instance, HiddenCosetInstance):
        return _verify_coset(instance)
    if isinstance(instance, GhshInstance):
        return _verify_ghsh(instance)
    if isinstance(instance, OrbitCosetInstance):
        return _verify_orbit_coset(instance)
    raise TypeError(f"not an instance: {instance!r}")


_MISSING = object()


def _is_closed(kernel: list[GroupElement], kernel_set: set) -> bool:
    return all(group_op(a, b) in kernel_set for a in kernel for b in kernel)


def _verify_hsp(inst: HspInstance) -> bool:
    """The kernel (elements labeled like the identity) is a subgroup, the
    labels are constant on each of its cosets on the declared side, and no
    two cosets share a label.

    Every element is evaluated exactly once.  A planted subgroup settles
    closure: if the kernel equals the closure of the planted generators it is
    a generated subgroup, and if not the promise fails, so the pairwise
    closure check runs only without one.  Once the kernel is a subgroup its
    cosets partition the group and ``xK = gK`` for every ``x`` in ``gK``, so
    a single sweep that builds a coset only from an element no earlier coset
    covered checks every coset exactly once.
    """
    elems = inst.group.elements()
    labels = {g: inst.oracle.evaluate(g) for g in elems}
    base = labels[inst.group.identity]
    kernel = [g for g, lab in labels.items() if lab == base]
    kernel_set = set(kernel)
    if inst.planted_subgroup is None:
        if not _is_closed(kernel, kernel_set):
            return False
    else:
        try:
            planted = close_under_op(inst.planted_subgroup, inst.group.identity,
                                     inst.group.cap)
        except (ExceedsCapError, ValueError):
            # Planted generators of another shape, or a closure past the cap:
            # an unclosed kernel still fails the promise before that is raised.
            if not _is_closed(kernel, kernel_set):
                return False
            raise
        if set(planted) != kernel_set:
            return False
    left = inst.side is Side.LEFT
    # Labels of the elements no checked coset covers yet; popping a member
    # reads its label and marks it covered in one lookup.
    uncovered = dict(labels)
    seen_labels: set = set()
    for g, lab in labels.items():
        if g not in uncovered:
            continue
        if lab in seen_labels:
            return False
        seen_labels.add(lab)
        for h in kernel:
            member = group_op(g, h) if left else group_op(h, g)
            if uncovered.pop(member, _MISSING) != lab:
                return False
    return True


def _verify_coset(inst: HiddenCosetInstance) -> bool:
    shifts = inst.brute_shift_set()
    if not shifts:
        return False
    base = inst.f1.evaluate(inst.group.identity)
    kernel = [g for g in inst.group.elements() if inst.f1.evaluate(g) == base]
    v = shifts[0]
    expected = {group_op(h, v) for h in kernel}
    if set(shifts) != expected:
        return False
    if inst.planted_shift is not None:
        if inst.planted_shift not in expected:
            return False
    if inst.planted_subgroup is not None:
        planted = close_under_op(inst.planted_subgroup, inst.group.identity,
                                 inst.group.cap)
        if set(planted) != set(kernel):
            return False
    return True


def _verify_ghsh(inst: GhshInstance) -> bool:
    elems = inst.group.elements()
    for f in inst.functions:
        values = [f.evaluate(g) for g in elems]
        if len(set(values)) != len(values):
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
