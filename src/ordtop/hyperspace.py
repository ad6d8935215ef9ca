"""Hyperspaces of downsets for finite ordered spaces.

A finite Priestley space is just a finite poset with the discrete
topology, so the hyperspace of a finite poset P is the set of nonempty
downsets ordered by inclusion, with union as join and the principal-ideal
map as the canonical embedding.  This module builds that object, checks
clopen-selector axioms, verifies the free-join-semilattice universal
property against enumerated homomorphisms, and decides density questions
for the Vietoris topology on the one-point compactification of the
naturals.
"""

from __future__ import annotations

from itertools import product
from typing import Iterable

from .ordinal import CheckReport, Record, _is_int, _put
from .poset import (
    FinitePoset,
    PosetError,
    _union,
    all_downsets,
    inclusion_order,
    join_table_laws,
    poset_from_covers,
    selector_conditions,
)


MAX_ASSIGNMENTS = 8 ** 6  # maps P -> Y hat_extension enumerates; 1 s on 6 elements
MAX_CHAIN = 64  # FinJoinSemilattice.chain, whose join table has k * k entries


class HyperspaceError(ValueError):
    pass


class Hyperspace(Record):
    """All nonempty downsets of a finite poset, ordered by inclusion."""

    _fields = ("base", "points", "maxima")

    def __init__(self, base: FinitePoset, points: tuple, maxima: tuple):
        _put(self, "base", base)
        _put(self, "points", points)  # nonempty downset bitmasks, sorted by (size, value)
        _put(self, "maxima", maxima)  # maxima[k]: the mask of the maxima of points[k]

    @property
    def size(self) -> int:
        return len(self.points)

    def eta(self, i: int) -> int:
        """Principal downset of base element i."""
        return self.base.down_mask(i)


def build_hyperspace(poset: FinitePoset) -> Hyperspace:
    """Construct the hyperspace and re-verify its structural identities:
    principal downsets present, closure under union with each of them, and
    every point the downset of the maxima ``all_downsets`` gives it, which
    together make the points exactly the join closure of the principal
    downsets (all nonempty downsets) and so closed under union.  The
    maxima are kept, one mask per point."""
    if poset.n == 0:
        raise PosetError("empty poset has an empty hyperspace")
    downsets = all_downsets(poset)
    masks = sorted(m for m in downsets if m)
    masks.sort(key=int.bit_count)  # stable: by size, then by value
    point_set = set(masks)
    principal = principal_selector(poset)
    if not point_set.issuperset(principal):
        raise AssertionError("principal downset missing from the hyperspace")
    if not point_set.issuperset([a | d for a in masks for d in principal]):
        raise AssertionError("hyperspace not closed under union")
    maxima = tuple(downsets[m] for m in masks)
    below = poset.below
    for m, top in zip(masks, maxima):
        if top | _union(below, top) != m:
            raise AssertionError("point is not the downset of its maxima")
    return Hyperspace(poset, tuple(masks), maxima)


def hyperspace_to_dot(h: Hyperspace) -> str:
    lines = ["digraph hyperspace {", "  rankdir=BT;"]
    hp = inclusion_order(h.base, h.points)
    for i, label in enumerate(hp.labels):
        lines.append(f'  p{i} [label="{label}"];')
    for i, j in hp.covers():
        lines.append(f"  p{i} -> p{j};")
    lines.append("}")
    return "\n".join(lines) + "\n"


# -- clopen selector checks ---------------------------------------------

def selector_axioms_check(space: FinitePoset, sets) -> CheckReport:
    """Check the clopen-selector conditions for a family over a finite space.

    ``sets[i]`` is the bitmask of U_i over the element indices of ``space``.
    The conditions: each point belongs to its own set; two distinct points
    never belong to each other's sets; membership nests the sets (these
    three are ``poset.selector_conditions``); and the induced relation (x
    below y iff x is in U_y) is a strict order.
    The report also records whether antisymmetry and nesting together agree
    with the strict-order condition when membership holds, whether minimal
    members of the family are singletons, and whether the family is
    well-founded under inclusion; all but the last decide the verdict.
    The last is always true: strict inclusion on a finite family has no
    infinite descending chain, so it is reported as a constant.

    The witness is the first violation of the three conditions, each by
    element and then by offending element in element order (see
    ``selector_conditions``).  The other conditions need no witness of
    their own, since the three imply them: nesting makes the induced
    relation transitive, and a minimal U_x holds only x (each y in it has
    U_y = U_x by nesting, against antisymmetry).  Labels are read only to
    name the witness, so a passing check on a closed order renders none.
    """
    if len(sets) != space.n:
        raise PosetError("selector needs one set per point")
    conditions, witness = selector_conditions(sets, lambda i: space.labels[i])
    # the induced relation is irreflexive by construction, and antisymmetric
    # exactly when the selector is; transitivity: x in U_y, y in U_z, x != z
    # put x in U_z.  Nesting gives it at once (U_y is inside U_z), so the
    # union pass runs only on a family that is not nested
    if conditions["nesting"]:
        transitive = True
    else:
        strict = [u & ~(1 << i) for i, u in enumerate(sets)]
        transitive = not any(_union(strict, s) & ~s & ~(1 << z)
                             for z, s in enumerate(strict))
    induced = transitive and conditions["antisymmetry"]
    equivalent = ((conditions["antisymmetry"] and conditions["nesting"]) == induced
                  if conditions["membership"] else True)

    # every set holds a minimal one, so the minimal sets are all singletons
    # exactly when every set meets a singleton set of the family
    singletons = 0
    for u in sets:
        if u.bit_count() == 1:
            singletons |= u
    minimal_singletons = all(u & singletons for u in sets)

    passed = all(conditions.values()) and induced and equivalent and minimal_singletons
    return CheckReport("selector-axioms", passed, witness, {"conditions": {
        **conditions,
        "induced-order": induced,
        "equivalence": equivalent,
        "minimal-singletons": minimal_singletons,
        "well-founded": True,
    }})


def principal_selector(poset: FinitePoset) -> tuple:
    """The family of principal downsets of a finite poset, as masks."""
    return tuple([b | 1 << i for i, b in enumerate(poset.below)])  # down_mask, inlined


def kplus_selector(h: Hyperspace):
    """The family { K-plus } on the hyperspace: the selector set of a point
    K is everything below it.  Returns the hyperspace order and the family,
    one mask per point of that order.  The order's point labels are
    rendered only when read, as a failing check's witness reads them.
    """
    hp = inclusion_order(h.base, h.points)
    return hp, principal_selector(hp)


# -- universal property ---------------------------------------------------

class FinJoinSemilattice(Record):
    """Finite join semilattice: carrier poset plus a total join table."""

    _fields = ("carrier", "join_table")

    def __init__(self, carrier: FinitePoset, join_table: tuple):
        _put(self, "carrier", carrier)
        _put(self, "join_table", join_table)  # row-major: join_table[i][j] = index of i v j
        broken, up = join_table_laws(join_table)
        if broken is not None:
            raise HyperspaceError(f"join must be {broken[0]}")
        if any(up[i] != self.carrier.up_mask(i) for i in range(self.carrier.n)):
            raise HyperspaceError("induced order disagrees with carrier order")

    @property
    def n(self) -> int:
        return self.carrier.n

    def join(self, i: int, j: int) -> int:
        return self.join_table[i][j]

    @classmethod
    def from_poset(cls, poset: FinitePoset) -> "FinJoinSemilattice":
        """Join = least upper bound, the element whose up mask is the meet of
        the two up masks; fails at the first pair, row-major, that has none."""
        up = [poset.up_mask(i) for i in range(poset.n)]
        index = {m: k for k, m in enumerate(up)}
        table = tuple(tuple(index.get(a & b, -1) for b in up) for a in up)
        for i, row in enumerate(table):
            if -1 in row:
                raise HyperspaceError(f"no least upper bound for ({i},{row.index(-1)})")
        return cls(poset, table)

    @classmethod
    def chain(cls, k: int) -> "FinJoinSemilattice":
        """The chain 0 < 1 < ... < k - 1; past ``MAX_CHAIN`` it is refused
        before its join table is built."""
        if k > MAX_CHAIN:
            raise HyperspaceError(f"chain length {k} over MAX_CHAIN = {MAX_CHAIN}")
        p = poset_from_covers([str(i) for i in range(k)],
                              [(str(i), str(i + 1)) for i in range(k - 1)])
        return cls.from_poset(p)


def hat_extension(h: Hyperspace, y: FinJoinSemilattice, f: dict):
    """Extend an increasing map f: P -> Y to the hyperspace ``h`` of P by joins.

    Returns the extension (downset mask -> Y index) and a report verifying
    it is a join homomorphism restricting to f, and that it is the only
    join homomorphism doing so.  Uniqueness is checked against the fully
    enumerated homomorphisms when the sizes allow (at most 64 points, 8
    values and ``MAX_ASSIGNMENTS`` maps of the elements into Y), otherwise
    on the generators (sound because the principal downsets join-generate).
    """
    poset = h.base
    fi = []
    for i, name in enumerate(poset.labels):
        if name not in f:
            raise HyperspaceError(f"f missing element {name!r}")
        fi.append(f[name])
        if not (_is_int(fi[i]) and 0 <= fi[i] < y.n):
            raise HyperspaceError(f"f maps {name!r} outside the semilattice")

    # f is increasing exactly when its join over each principal downset is f of the top
    g = _join_along(y.join_table, _join_steps(h, fi), fi)
    if g is None:
        raise HyperspaceError("f is not increasing")
    values = dict(zip(h.points, g))

    # a join with each generator is enough: every point is a join of them
    is_hom = all(values[a | d] == y.join(values[a], fi[i])
                 for i, d in enumerate(principal_selector(poset)) for a in h.points)

    witness = None
    if h.size <= 64 and y.n <= 8 and y.n ** poset.n <= MAX_ASSIGNMENTS:
        method = "enumerated"
        homs = _enumerated_homs(h, y, fi)
        unique = homs == {tuple(g)}
        if not unique:
            witness = ("homs", len(homs))
        count = len(homs)
    else:
        method = "generators"
        # the join closure of the eta image is everything (checked in
        # build_hyperspace), so a join hom agreeing with f on it is hat
        unique = True
        count = 1

    return values, CheckReport("universal-property", is_hom and unique,
                               witness, {"method": method, "homs_found": count})


def _join_steps(h: Hyperspace, fi) -> list:
    """One step per point m of ``h``, in order: the index of its lower cover
    m - {i}, i maximal in m (-1 when that is empty), the element i, and the
    value f(i) that m must take if m is the principal downset of i, else
    -1.  The points come by size, so each lower cover comes before m."""
    pos = {m: k for k, m in enumerate(h.points)}
    steps = []
    for m, top in zip(h.points, h.maxima):
        low = top & -top
        i = low.bit_length() - 1
        steps.append((pos.get(m ^ low, -1), i, fi[i] if m == h.eta(i) else -1))
    return steps


def _join_along(table, steps, assign):
    """The join over each point of the values ``assign`` gives its
    elements, one table lookup per point; None as soon as a principal
    downset misses the value its step wants."""
    g = []
    for lower, i, want in steps:
        v = assign[i] if lower < 0 else table[g[lower]][assign[i]]
        if want >= 0 and v != want:
            return None
        g.append(v)
    return g


def _enumerated_homs(h: Hyperspace, y: FinJoinSemilattice, fi) -> set:
    """Every join homomorphism from ``h`` to ``y`` that recovers ``fi`` on
    the principal downsets, as a tuple of values over ``h.points``, read
    off the join extension of each map of the elements into ``y``."""
    steps = _join_steps(h, fi)
    homs = set()
    for assign in product(range(y.n), repeat=h.base.n):
        g = _join_along(y.join_table, steps, assign)
        if g is not None:
            homs.add(tuple(g))
    return homs


# -- one-point compactification model -------------------------------------

class Descriptor(Record):
    """Clopen subset of N u {infinity}: a finite set of naturals, or a
    cofinite set given by its finite complement in N (which then contains
    the point at infinity)."""

    _fields = ("cofinite", "elems")

    def __init__(self, cofinite: bool, elems: frozenset):
        _put(self, "cofinite", cofinite)
        _put(self, "elems", frozenset(elems))
        if any(not _is_int(x) or x < 0 for x in self.elems):
            raise HyperspaceError("malformed descriptor: members must be naturals")

    @classmethod
    def finite(cls, xs: Iterable[int]) -> "Descriptor":
        return cls(False, frozenset(xs))

    @classmethod
    def cofinite_complement(cls, xs: Iterable[int]) -> "Descriptor":
        return cls(True, frozenset(xs))

    def contains(self, n: int) -> bool:
        return (n not in self.elems) if self.cofinite else (n in self.elems)

    def meets_naturals(self, other: "Descriptor") -> int | None:
        """Least natural in the intersection, or None if it is empty."""
        if not self.cofinite:
            return min((x for x in self.elems if other.contains(x)), default=None)
        if not other.cofinite:
            return other.meets_naturals(self)
        banned = self.elems | other.elems
        n = 0
        while n in banned:
            n += 1
        return n


class OnePointModel(Record):
    """Symbolic one-point compactification of the discrete naturals."""

    _fields = ("horizon",)

    def __init__(self, horizon: int = 10_000):
        _put(self, "horizon", horizon)

    def validate(self, d: Descriptor):
        if not isinstance(d, Descriptor):
            raise HyperspaceError("malformed descriptor")
        if d.elems and max(d.elems) >= self.horizon:
            raise HyperspaceError("descriptor exceeds horizon")


def vietoris_density_witness(model: OnePointModel, u: Descriptor,
                             vs: Iterable[Descriptor]):
    """Decide whether the basic Vietoris open determined by ``u`` and the
    ``vs`` is nonempty, and exhibit a finite set of naturals inside it
    when it is.  Returns the witness as a sorted list, or None when the
    basic open is empty.
    """
    vs = list(vs)
    model.validate(u)
    for v in vs:
        model.validate(v)
    picks = set()
    for v in vs:
        n = u.meets_naturals(v)
        if n is None:
            return None
        picks.add(n)
    if not picks:
        # no lower constraints: any nonempty finite subset of u works
        n = u.meets_naturals(Descriptor.cofinite_complement(()))
        if n is None:
            return None
        picks.add(n)
    return sorted(picks)
