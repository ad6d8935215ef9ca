"""Explicit finite posets with downset enumeration and rank machinery.

Elements are indexed 0..n-1 with string labels; the strict order is kept
as per-element bitmasks of the elements strictly below, together with the
transposed ``above`` masks and the lower covers, found in the one pass
over each below mask that checks the order.  Downsets are bitmasks over
element indices in declaration order, which makes closure checks and
hashing cheap and canonical, and lets ``max_of`` test each member with one
AND against its ``above`` mask, O(k) for a k-element mask.

Closure conditions are decided with one mask union per set (``_union``,
the OR of a table's rows over the bits of a mask): the downward closure
of a hyperspace point, the selector nesting test and the transitivity of
a selector's induced order.
``selector_conditions``, the one selector check of the package, takes one
such mask per point; the pairwise scan of each set's members runs only
after the union test fails, and names only the witness's points.

``all_downsets`` is the one enumeration of downsets, and of antichains as
their maxima, behind every enumerating operation of the package: it maps
each downset mask to the mask of its maxima, the antichain whose closure
it is (Birkhoff).  It refuses more than ``MAX_ELEMENTS`` elements or
``MAX_DOWNSETS`` downsets.  The rank checks take that table, enumerated
once per poset, and find no maxima again: ``kw_rank(downsets)`` ranks it,
and ``zaguia_verify_ranks(poset, kw, maxima)`` reads each downset's maxima
from it.  ``inclusion_order``, given bare masks, tests each member of a
point against ``above`` instead; it orders downsets from their lower
covers, never by pairs, into an order closed by that construction, which
skips the checking pass (``_closed``).
Its labels, the ``{a,b}`` strings of ``downset_labels``, are derived on
first read, as its ``above`` masks are: a selector check that passes reads
neither.
"""

from __future__ import annotations

from functools import cached_property, lru_cache
from itertools import permutations
from typing import Iterable, NamedTuple

from .ordinal import CheckReport, Record, _put

MAX_ELEMENTS = 20
MAX_DOWNSETS = 1 << 11  # an 11-element antichain: every command on it within 0.65 s on 2 CPUs


class PosetError(ValueError):
    """Construction or precondition failure on a finite poset."""


def _bits(mask: int) -> Iterable[int]:
    """Indices of the set bits of ``mask``, ascending."""
    while mask:
        low = mask & -mask
        yield low.bit_length() - 1
        mask ^= low


def _union(table, mask: int) -> int:
    """The OR of ``table[i]`` over the set bits i of ``mask``."""
    # the bit walk of _bits, inlined: a generator costs more than the OR
    out = 0
    while mask:
        low = mask & -mask
        out |= table[low.bit_length() - 1]
        mask ^= low
    return out


class FinitePoset(Record):
    """Finite strict order, transitively closed.

    ``below[i]`` is the bitmask of elements strictly less than element i.
    ``above[i]``, derived from ``below`` at construction, is the bitmask of
    elements strictly greater than element i, so "is some member of S above
    i" is ``above[i] & S`` and ``max_of`` costs O(k) for a k-element mask.
    ``lower[i]``, found by the same pass, is the bitmask of the elements
    that i covers: those below i and below nothing else below i.  An order
    built closed (``_closed``) skips that pass: it is given ``lower``, and
    derives ``above`` and ``labels`` on first read.
    """

    _fields = ("labels", "below")  # ``above`` and ``lower`` derive from them

    def __init__(self, labels, below):
        _put(self, "labels", labels := tuple(labels))
        _put(self, "below", below := tuple(below))
        n = len(labels)
        if len(set(labels)) != n:
            raise PosetError("duplicate element name")
        if len(below) != n:
            raise PosetError("below must have one mask per element")
        # no antisymmetry test: by transitivity, i < j < i would make i < i
        above = [0] * n
        lower = [0] * n
        for i, mask in enumerate(below):
            if mask >> n:
                raise PosetError("below mask out of range")
            bit = 1 << i
            if mask & bit:
                raise PosetError("order must be irreflexive")
            # the walk of _union, inlined because it also fills ``above``
            closure = 0
            rest = mask
            while rest:
                low = rest & -rest
                j = low.bit_length() - 1
                closure |= below[j]
                above[j] |= bit
                rest ^= low
            if closure & ~mask:
                raise PosetError("order must be transitive")
            lower[i] = mask & ~closure
        _put(self, "above", tuple(above))
        _put(self, "lower", tuple(lower))

    @cached_property
    def above(self) -> tuple:  # read only where the constructor did not fill it
        above = [0] * len(self.below)
        for i, mask in enumerate(self.below):
            for j in _bits(mask):
                above[j] |= 1 << i
        return tuple(above)

    @cached_property
    def labels(self) -> tuple:  # read only on a closed order: its downsets, rendered
        return tuple(downset_labels(self._base, self._masks))

    @property
    def n(self) -> int:
        return len(self.below)

    def index(self, name: str) -> int:
        try:
            return self.labels.index(name)
        except ValueError:
            raise PosetError(f"unknown element {name!r}") from None

    def down_mask(self, i: int) -> int:
        return self.below[i] | (1 << i)

    def up_mask(self, i: int) -> int:
        return self.above[i] | (1 << i)

    def full_mask(self) -> int:
        return (1 << self.n) - 1

    def max_of(self, mask: int) -> int:
        """Bitmask of the maximal elements within ``mask``."""
        # the bit walk of _bits, inlined: a generator costs more than the
        # test itself
        above = self.above
        out = 0
        rest = mask
        while rest:
            low = rest & -rest
            if not (above[low.bit_length() - 1] & mask):
                out |= low
            rest ^= low
        return out

    def covers(self) -> list:
        """Hasse diagram edges (i, j) with i covered by j, by j then i."""
        return [(i, j) for j, low in enumerate(self.lower) for i in _bits(low)]

    def names(self, mask: int) -> frozenset:
        return frozenset(self.labels[i] for i in _bits(mask))

    def __repr__(self):
        rel = [(self.labels[i], self.labels[j]) for (i, j) in self.covers()]
        return f"FinitePoset({list(self.labels)}, covers={rel})"


# -- construction ------------------------------------------------------

def poset_from_covers(elements: Iterable[str], covers: Iterable) -> FinitePoset:
    """Build the transitive closure of a cover relation; rejects cycles."""
    labels = tuple(elements)
    if len(set(labels)) != len(labels):
        raise PosetError("duplicate element name")
    idx = {name: i for i, name in enumerate(labels)}
    n = len(labels)
    pairs = []
    for a, b in covers:
        if a not in idx:
            raise PosetError(f"unknown element {a!r} in cover")
        if b not in idx:
            raise PosetError(f"unknown element {b!r} in cover")
        pairs.append((idx[a], idx[b]))
    return FinitePoset(labels, _transitive_closure(n, pairs))


def _transitive_closure(n: int, pairs) -> tuple:
    """Below masks of the transitive closure of the relation ``pairs``
    (i, j), i below j, on elements 0..n-1.

    Elements are closed in topological order (Kahn's algorithm), so a
    long chain needs no recursion; a pair on a cycle, a self-loop
    included, never becomes ready and is reported.
    """
    up = [[] for _ in range(n)]
    pending = [0] * n  # pairs into j not yet closed
    for i, j in pairs:
        up[i].append(j)
        pending[j] += 1
    below = [0] * n
    ready = [j for j in range(n) if not pending[j]]
    while ready:
        i = ready.pop()
        for j in up[i]:
            below[j] |= below[i] | (1 << i)
            pending[j] -= 1
            if not pending[j]:
                ready.append(j)
    if any(pending):
        raise PosetError("cycle detected in covers")
    return tuple(below)


def poset_from_json(data: dict) -> FinitePoset:
    """Schema: {"elements": [names...], "covers": [[a, b]...]} with a < b,
    each name a string and "covers" optional; any other shape is a
    ``PosetError`` that names the field."""
    if not isinstance(data, dict) or "elements" not in data:
        raise PosetError("poset JSON must have an 'elements' field")
    elements, covers = data["elements"], data.get("covers", [])
    if not (isinstance(elements, list) and all(isinstance(e, str) for e in elements)):
        raise PosetError("poset 'elements' must be a list of strings")
    if not isinstance(covers, list):
        raise PosetError("poset 'covers' must be a list of [a, b] pairs")
    for k, cover in enumerate(covers):
        if not (isinstance(cover, list) and len(cover) == 2
                and all(isinstance(name, str) for name in cover)):
            raise PosetError(f"poset cover {k} must be a list of two element names")
    return poset_from_covers(elements, covers)


def poset_to_dot(poset: FinitePoset) -> str:
    """Hasse diagram in DOT, one rank layer per well-founded rank."""
    layers: dict = {}  # rank -> the layer's nodes, in index order
    for name, r in zip(poset.labels, ranks(poset).by_index):
        layers.setdefault(r, []).append(f'"{name}";')
    lines = ["digraph poset {", "  rankdir=BT;"]
    for r in sorted(layers):
        lines.append(f"  {{ rank=same; {' '.join(layers[r])} }}")
    for i, j in poset.covers():
        lines.append(f'  "{poset.labels[i]}" -> "{poset.labels[j]}";')
    lines.append("}")
    return "\n".join(lines) + "\n"


# -- basic queries -----------------------------------------------------

class Ranks(NamedTuple):
    elem_rank: dict
    poset_rank: int
    by_index: tuple


def ranks(poset: FinitePoset) -> Ranks:
    """Well-founded rank of each element and of the whole poset."""
    n = poset.n
    rank = [0] * n
    order = sorted(range(n), key=lambda i: poset.below[i].bit_count())
    for i in order:
        rank[i] = max((rank[j] + 1 for j in _bits(poset.lower[i])), default=0)
    poset_rank = max((r + 1 for r in rank), default=0)
    return Ranks({poset.labels[i]: rank[i] for i in range(n)}, poset_rank, tuple(rank))


def width(poset: FinitePoset) -> int:
    """Maximum antichain size, read off one maximum matching by König's
    theorem.

    Each element i has a left and a right copy, with an edge from left i
    to right j when i < j.  A maximum matching M leaves n - |M| chains in
    a minimum chain cover.  The elements whose left copy an alternating
    path from an unmatched left copy reaches, and whose right copy it does
    not, form an antichain of that size (Dilworth).  The antichain and its
    size are re-verified.
    """
    n = poset.n
    match_right, free_right = _max_matching(poset)
    unmatched = sorted(set(range(n)).difference(match_right))
    left, right, _, free = _alternating_search(poset.above, match_right, free_right,
                                               unmatched)
    antichain = left & ~right
    if free >= 0 or poset.max_of(antichain) != antichain:
        raise AssertionError("König's construction gave no antichain")
    best, cover = antichain.bit_count(), len(unmatched)
    if best != cover:
        raise AssertionError(f"antichain {best} != chain cover {cover}")
    return best


def _max_matching(poset: FinitePoset):
    """A maximum matching of the split graph of ``width``, by Kuhn's
    algorithm: the left partner of each right copy, or -1, and the mask of
    the unmatched right copies."""
    n = poset.n
    match_right = [-1] * n
    match_left = [-1] * n
    free_right = poset.full_mask()
    for root in range(n):
        _, _, parent, j = _alternating_search(poset.above, match_right, free_right, [root])
        if j >= 0:
            free_right ^= 1 << j
        while j >= 0:  # flip the augmenting path, from its free end back to root
            i = parent[j]
            match_right[j], match_left[i], j = i, j, match_left[i]
    return match_right, free_right


def _alternating_search(above, match_right, free_right: int, roots):
    """Breadth-first search along alternating paths from the left copies
    ``roots``: from left i to each right j above it, from a matched right j
    to its partner.  It stops at the first free right copy it meets.

    Returns the masks of the left and right copies reached, the left copy
    each right one was reached from, and the free right copy, or -1.
    """
    left = right = 0
    for i in roots:
        left |= 1 << i
    parent = {}
    queue = list(roots)
    for i in queue:  # grows while it is walked
        fresh = above[i] & ~right
        free = fresh & free_right
        if free:
            j = (free & -free).bit_length() - 1
            parent[j] = i
            return left, right | fresh, parent, j
        right |= fresh
        for j in _bits(fresh):
            parent[j] = i
            k = match_right[j]
            left |= 1 << k
            queue.append(k)
    return left, right, parent, -1


# -- downset enumeration ----------------------------------------------

def all_downsets(poset: FinitePoset) -> dict:
    """Every downset as a bitmask, including 0 and the full set, mapped to
    the mask of its maxima.  Elements come in a linear extension, so a
    downset takes the next one exactly when it holds everything below it,
    and that element is then maximal: it joins the maxima, and the maxima
    below it leave.  Raises ``PosetError`` past ``MAX_ELEMENTS`` elements
    or ``MAX_DOWNSETS`` downsets."""
    if poset.n > MAX_ELEMENTS:
        raise PosetError(f"poset has {poset.n} elements, over MAX_ELEMENTS = {MAX_ELEMENTS}")
    below = poset.below
    out = {0: 0}
    for i in sorted(range(poset.n), key=lambda i: below[i].bit_count()):
        bit, under = 1 << i, below[i]
        out.update([(m | bit, top & ~under | bit) for m, top in out.items() if not under & ~m])
        if len(out) > MAX_DOWNSETS:
            raise PosetError(f"poset has more than MAX_DOWNSETS = {MAX_DOWNSETS} downsets")
    return out


def downset_lattice(poset: FinitePoset) -> FinitePoset:
    """The lattice of all downsets ordered by inclusion, smallest first;
    elements are labeled by their member sets."""
    masks = sorted(all_downsets(poset))
    masks.sort(key=int.bit_count)  # stable: by size, then by value
    return inclusion_order(poset, masks)


def downset_labels(poset: FinitePoset, masks) -> list:
    """The member names of each downset in ``masks``, sorted and braced:
    ``{a,b}``.  The labels are sorted once, so each mask costs one pass over
    them."""
    labels = poset.labels
    order = sorted(range(poset.n), key=labels.__getitem__)
    return ["{" + ",".join([labels[i] for i in order if m >> i & 1]) + "}" for m in masks]


def inclusion_order(poset: FinitePoset, masks) -> FinitePoset:
    """The downsets ``masks`` of ``poset`` ordered by inclusion; element i
    is ``masks[i]``, labeled by ``downset_labels`` on first read of
    ``labels``, so a caller that reads none renders none.  Each L
    comes after its lower covers L - {i}, i maximal in L, the empty set
    aside, as in all (nonempty) downsets sorted by size; then below L lie
    its lower covers and what lies below them (Birkhoff; Davey and
    Priestley, ch. 5).  That order is closed: below L lie only proper
    subsets of L, and it holds what lies below each cover, so by induction
    along the covers it is transitive.  It is built by ``_closed``."""
    if masks and (min(masks) < 0 or max(masks) >> poset.n):
        raise PosetError("inclusion order needs downsets, each after its lower covers")
    pos = {m: k for k, m in enumerate(masks)}
    below = [0] * len(masks)
    covers = [0] * len(masks)
    poset_below, above = poset.below, poset.above
    for k, m in enumerate(masks):
        rest = m
        while rest:  # the maxima of m, as in max_of
            low = rest & -rest
            rest ^= low
            i = low.bit_length() - 1
            if above[i] & m:
                continue
            lower = m ^ low
            j = pos.get(lower, -1)
            if poset_below[i] & ~lower or lower and not 0 <= j < k:
                raise PosetError("inclusion order needs downsets, each after its lower covers")
            if j >= 0:
                below[k] |= below[j] | 1 << j
                covers[k] |= 1 << j
    return _closed(poset, masks, below, covers)


def _closed(poset: FinitePoset, masks, below: list, lower: list) -> FinitePoset:
    """Internal constructor of an order closed by how it was built, as
    ``ordinal._trusted`` is of a key: no checking pass, the given lower
    covers, and ``above`` and the labels, ``downset_labels(poset, masks)``,
    derived on first read.  Duplicate labels are still refused.  Distinct
    masks render distinct ``{`` + sorted names joined by ``,`` + ``}``
    unless a name holds a comma (``a,b`` beside ``a`` and ``b``) or is
    empty (``{}`` for both the empty set and ``{""}``); only then are the
    strings compared."""
    order = object.__new__(FinitePoset)
    _put(order, "_base", poset)
    _put(order, "_masks", masks := tuple(masks))
    _put(order, "below", tuple(below))
    _put(order, "lower", tuple(lower))
    names = poset.labels
    keys = masks if all(names) and "," not in "".join(names) else order.labels
    if len(set(keys)) != len(masks):
        raise PosetError("duplicate element name")
    return order


def kw_rank(downsets: dict) -> dict:
    """Well-founded rank of every nonempty downset under inclusion, keyed
    by the downset's mask; ``downsets`` is a poset's ``all_downsets``."""
    if len(downsets) < 2:
        raise PosetError("empty poset")
    masks = [m for m in downsets if m]
    masks.sort(key=int.bit_count)
    rank: dict = {}
    for m in masks:
        best = -1
        rest = downsets[m]
        while rest:  # each lower cover m - {i}, i maximal in m
            low = rest & -rest
            pred = m ^ low
            if pred and rank[pred] > best:
                best = rank[pred]
            rest ^= low
        rank[m] = best + 1
    return rank


# -- selectors -----------------------------------------------------------

def selector_conditions(sets, name) -> tuple:
    """The three conditions of a selector x -> U_x on points 0..k-1:
    each point lies in its own set (membership), two distinct points never
    lie in each other's sets (antisymmetry), and each set contains the set
    of every one of its members (nesting).

    ``sets[i]`` is the bitmask of U_i over the point indices, and
    ``name(i)`` names point i in the witness; it is called for the
    witness's points only.  Returns the verdict of each condition and the
    first violation, or None: conditions in the order above, then points
    in index order, then the first offending point in index order; an
    antisymmetry pair is (i, j) with i < j.
    """
    k = len(sets)
    if any(u >> k for u in sets):
        raise PosetError("selector set out of range")
    conditions = ("membership", "antisymmetry", "nesting")
    # one bit per set for membership, one union per set for nesting; given
    # both, i in U_j and j in U_i make U_i = U_j, so antisymmetry is "all
    # sets distinct"; the scan below only names the witness
    if (all(u >> i & 1 for i, u in enumerate(sets)) and len(set(sets)) == k
            and not any(_union(sets, u) & ~u for u in sets)):
        return dict.fromkeys(conditions, True), None
    found: dict = {}
    for i, u in enumerate(sets):
        if not u >> i & 1:
            found.setdefault("membership", i)
        for j in _bits(u):
            if j > i and sets[j] >> i & 1:
                found.setdefault("antisymmetry", (i, j))
            if sets[j] & ~u:
                found.setdefault("nesting", (i, j))
    first = next(c for c in conditions if c in found)  # the mask test failed
    points = found[first]
    witness = name(points) if first == "membership" else tuple(map(name, points))
    return {c: c not in found for c in conditions}, (first, witness)


def join_table_laws(table) -> tuple:
    """The first semilattice law a join table breaks, as ``(law, witness)``,
    or None; and the up masks up[x] = {z : x v z = z}, or None when
    idempotence (witness i) or commutativity (witness (i, j)) fails.
    A commutative, idempotent join is associative exactly when up[i v j] =
    up[i] & up[j] for all i, j (Davey and Priestley, ch. 2); the row scan
    naming the first (i, j) to break associativity runs only if that fails."""
    up = []
    for i, row in enumerate(table):
        if row[i] != i:
            return ("idempotent", i), None
        for j, v in enumerate(row):
            if v != table[j][i]:
                return ("commutative", (i, j)), None
        up.append(sum(1 << z for z, v in enumerate(row) if v == z))
    if all(up[v] == up_i & up_j for row, up_i in zip(table, up) for v, up_j in zip(row, up)):
        return None, up
    for i, row_i in enumerate(table):
        for j, row_j in enumerate(table):
            if list(table[row_i[j]]) != [row_i[v] for v in row_j]:
                return ("associative", (i, j)), up
    raise AssertionError("up masks broke associativity that the row scan did not")


# -- union-rank verification -------------------------------------------

def zaguia_verify(poset: FinitePoset) -> CheckReport:
    """Check the union-rank inequalities for downsets of a finite poset:
    ``zaguia_verify_ranks`` on the ground truth, the enumerated rank of
    every nonempty downset (``kw_rank``).  Claim 1 is symmetric in its two
    downsets, so each unordered pair is scanned once."""
    downsets = all_downsets(poset)
    return zaguia_verify_ranks(poset, kw_rank(downsets), downsets)


def zaguia_verify_ranks(poset: FinitePoset, kw: dict, maxima: dict) -> CheckReport:
    """Check the union-rank inequalities against the rank table ``kw``,
    keyed by the mask of every nonempty downset of ``poset`` as
    ``kw_rank`` gives it; ``maxima`` maps each key of ``kw`` to the mask of
    its maximal elements, as ``all_downsets`` does.

    The natural sum on the finite ranks is plain integer addition.

    ``claim1``/``claim2`` verify the inductive reading in which each piece
    counts itself (ranks taken in the lattice with the empty set adjoined);
    ``claim1_literal``/``claim2_literal`` record the unshifted reading,
    which fails as soon as two pieces are disjoint.  ``claim3`` covers the
    ordinal bounds rank(down p) < w^rank(p) and rank(K) <= w^rank(P).  On a
    finite poset every rank is finite, so below w = w^1: both bounds hold
    at every rank(p) >= 1, and rank(P) >= 1 on a nonempty poset.  What is
    left is rank(p) = 0, where w^0 = 1, so claim 3 decides that each
    minimal element i has kw[{i}] = 0; the first i, in index order, that
    does not names the witness ({i}, {i}).  The verdict is claims 1 to 3;
    the witness is the first counterexample to one of them, as two sorted
    lists of element names.

    Both readings of claim 1 are symmetric in the pair (A, B), so each
    unordered pair is scanned once, A at or before B in the order of ``kw``;
    the witness is still the first failing pair of the full square.
    """
    items = list(kw.items())
    claim1 = claim1_literal = True
    claim2 = claim2_literal = True
    counterexample = None

    # (a, b) fails exactly when (b, a) does, and (b, a) comes first in
    # row-major order when b comes before a; so the first failure of the
    # full square has a at or before b, and the upper triangle finds it
    for i, (a, ra) in enumerate(items):
        for b, rb in items[i:]:
            ru = kw[a | b]
            if ru > rb + ra:
                claim1_literal = False
                # shifted reading: every piece also counts itself
                if claim1 and ru > rb + ra + 1:
                    claim1 = False
                    counterexample = (poset.names(a), poset.names(b))

    down_rank = [kw[poset.down_mask(i)] for i in range(poset.n)]
    for m, rm in items:
        top = maxima[m]
        total = 0  # the principal ranks of the maxima, summed
        rest = top
        while rest:  # the bit walk of _bits, inlined as in max_of
            low = rest & -rest
            total += down_rank[low.bit_length() - 1]
            rest ^= low
        if rm > total + top.bit_count() - 1:
            claim2 = False
            if counterexample is None:
                counterexample = (poset.names(m), poset.names(top))
        if rm > total:
            claim2_literal = False

    claim3 = True
    for i, under in enumerate(poset.below):
        if not under and down_rank[i]:  # i minimal, so rank(i) = 0, and w^0 = 1
            claim3 = False
            if counterexample is None:
                counterexample = (poset.names(1 << i), frozenset({poset.labels[i]}))
            break

    witness = None if counterexample is None else [sorted(d) for d in counterexample]
    return CheckReport("zaguia", claim1 and claim2 and claim3, witness, {
        "claims": {
            "claim1": claim1,
            "claim2": claim2,
            "claim3": claim3,
            "claim1_literal": claim1_literal,
            "claim2_literal": claim2_literal,
        },
        "poset": f"n={poset.n}, downsets={len(items)}",
    })


# -- corpora ------------------------------------------------------------

@lru_cache(maxsize=None)
def all_labeled_posets(n: int) -> tuple:
    """Every labeled poset on elements "0".."n-1" (feasible for n <= 5):
    the transitive relations on i < j in order, each mapped through every
    permutation, each labeled poset kept the first time it turns up.  One
    relabeling pass per orbit (63 for n = 5, of 357 relations): a relation
    whose orbit an earlier relation has given adds nothing, so it is
    skipped."""
    if n > 5:
        raise PosetError("labeled enumeration beyond 5 elements explodes")
    labels = tuple(str(i) for i in range(n))
    pair_list = [(i, j) for i in range(n) for j in range(i + 1, n)]
    natural: list = []  # the relations on i < j that are transitive
    for choice in range(1 << len(pair_list)):
        below = [0] * n
        for k, (i, j) in enumerate(pair_list):
            if choice >> k & 1:
                below[j] |= 1 << i
        if not any(_union(below, m) & ~m for m in below):
            natural.append(below)
    # each relation's relabelings in permutation order, each kept the first
    # time its below masks turn up; the identity comes first, so ``seen`` is
    # a union of whole orbits, and a relation already in it is skipped
    seen = set()
    out = []
    for below in natural:
        if tuple(below) in seen:
            continue
        pairs = [(i, j) for j in range(n) for i in _bits(below[j])]
        for perm in permutations(range(n)):
            mapped = [0] * n
            for i, j in pairs:
                mapped[perm[j]] |= 1 << perm[i]
            key = tuple(mapped)
            if key not in seen:
                seen.add(key)
                out.append(FinitePoset(labels, key))
    return tuple(out)


def random_poset(rng, n: int, edge_prob: float = 0.35) -> FinitePoset:
    """Seeded random poset: random DAG on a shuffled order, closed transitively."""
    order = list(range(n))
    rng.shuffle(order)
    pairs = [(order[a], order[b]) for a in range(n) for b in range(a + 1, n)
             if rng.random() < edge_prob]
    return FinitePoset(tuple(str(i) for i in range(n)), _transitive_closure(n, pairs))
