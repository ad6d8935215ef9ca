"""Almost disjoint families over the naturals with decidable representations.

Family members are eventually periodic: a residue set modulo a period,
toggled by a finite symmetric difference.  That makes membership, infinitude
and pairwise almost-disjointness all decidable by residue arithmetic, with an
infinite-intersection certificate (a common residue class) on failure.

On top of the families this module builds the finite-subset coding of the
star construction, the join of the quotient semilattice over a family
(finite sets, branches, and a top), net-convergence certificates for that
join, finite stages of the Lusin construction with exact fresh-intersection
counts, and the canonical-selector check for the associated compact space.

A point of the quotient semilattice is one int: a nonempty finite set of
naturals below ``MAX_POINT_MEMBER`` is its positive bitmask, branch r is
``-(r + 1)`` (``~r``) and the top is 0.  Other modules make points only
with ``parse_point``, from the text ``fin:1,2``, ``branch:0`` or ``top``,
and print them with ``format_point``.
"""

from __future__ import annotations

import re
from array import array
from bisect import bisect_left
from functools import cached_property
from heapq import merge
from itertools import chain, combinations, islice
from math import comb, gcd, lcm
from typing import Iterable, Sequence

from .ordinal import CheckReport, Record, _is_int, _put, parse_natural, parse_naturals

SCAN_CAP = 10_000_000
MAX_TRUNCATION = 1 << 14  # mrowka_selector_check; 18 MB of point masks
MAX_CODE_BOUND = 1 << 24  # star_truncation's bound on code values, so each code is a small int
MAX_STAR_CODES = 1 << 20  # star_truncation's codes enumerated and compared; 0.4 s and 86 MB
MAX_LUSIN_PICKS = 1 << 18  # lusin_iterate; at most about 1.2 s and 27 MB on 2 CPUs
MAX_POINT_MEMBER = 1 << 20  # parse_point; the largest join takes 0.22-0.25 s in a fresh process
MAX_HORIZON = 1 << 20  # convergence_check masks every set up to it: about 0.15 s
MAX_STAGE_MEMBER = (1 << 63) - 1  # LusinStage keeps its picks as array("q")


class MrowkaError(ValueError):
    pass


class EvPeriodicSet(Record):
    """Symmetric difference of {n : n mod period in residues} with a
    finite toggle set."""

    _fields = ("period", "residues", "delta")

    def __init__(self, period: int, residues: frozenset, delta: frozenset = frozenset()):
        _put(self, "period", period)
        _put(self, "residues", frozenset(residues))
        _put(self, "delta", frozenset(delta))
        if self.period < 1:
            raise MrowkaError("period must be positive")
        if any(r < 0 or r >= self.period for r in self.residues):
            raise MrowkaError("residues must lie in [0, period)")
        if any(d < 0 for d in self.delta):
            raise MrowkaError("delta members must be naturals")

    @property
    def is_infinite(self) -> bool:
        return bool(self.residues)

    def contains(self, n: int) -> bool:
        return (n % self.period in self.residues) != (n in self.delta)

    def ascending(self, start: int = 0):
        """Members from ``start`` on, in increasing order: one ``range`` per
        residue r, stepping by the period while a member less r stays below
        ``SCAN_CAP``, merged with the members the delta adds and without
        those it removes.  An infinite set raises once its ranges run out."""
        p = self.period
        runs = [range(start + (r - start) % p, SCAN_CAP + r, p) for r in self.residues]
        added = sorted(x for x in self.delta if x >= start and x % p not in self.residues)
        removed = self.delta.difference(added)
        members = runs[0] if len(runs) == 1 and not added else merge(*runs, added)
        if removed:
            members = (n for n in members if n not in removed)
        yield from members
        if runs:
            raise MrowkaError("scan cap exceeded")

    def mask_below(self, n: int) -> int:
        """Bitmask of the members below n >= 0: one period's residues,
        doubled until they cover n bits, then toggled by the delta below n."""
        mask, width = code_of(r for r in self.residues if r < n), self.period
        while width < n:
            mask |= mask << width
            width *= 2
        return (mask & ((1 << n) - 1)) ^ code_of(d for d in self.delta if d < n)

    @classmethod
    def from_json(cls, data: dict) -> "EvPeriodicSet":
        if not isinstance(data, dict) or "period" not in data:
            raise MrowkaError("each family set must have a 'period' field")
        if not _is_int(data["period"]):
            raise MrowkaError("a family set's 'period' must be an integer")
        for name in ("residues", "delta"):
            values = data.get(name, [])
            if not (isinstance(values, list) and all(_is_int(v) for v in values)):
                raise MrowkaError(f"a family set's {name!r} must be a list of integers")
        return cls(data["period"], frozenset(data.get("residues", ())),
                   frozenset(data.get("delta", ())))


def common_residue_classes(a: EvPeriodicSet, b: EvPeriodicSet) -> list:
    """Residue classes mod lcm of the periods along which both sets are
    eventually full, ascending; nonempty exactly when the intersection is
    infinite.  By the Chinese remainder theorem residues ra, rb with
    ra = rb mod g = gcd share one class, ra + a.period * t, so the cost
    follows the numbers of residues and classes, not the periods."""
    g = gcd(a.period, b.period)
    qa, qb = a.period // g, b.period // g
    inverse = pow(qa, -1, qb)
    by_class: dict = {}
    for rb in b.residues:
        by_class.setdefault(rb % g, []).append(rb)
    return sorted(ra + a.period * ((rb - ra) // g * inverse % qb)
                  for ra in a.residues for rb in by_class.get(ra % g, ()))


def ad_check(sets: Sequence[EvPeriodicSet]) -> CheckReport:
    """Pairwise almost-disjointness by residue arithmetic; on failure the
    witness names the offending pair and a common residue class."""
    for k, s in enumerate(sets):
        if not isinstance(s, EvPeriodicSet):
            raise MrowkaError("ad_check needs eventually periodic sets")
        if not s.is_infinite:
            raise MrowkaError(f"set {k} is finite")
    for i in range(len(sets)):
        for j in range(i + 1, len(sets)):
            common = common_residue_classes(sets[i], sets[j])
            if common:
                modulus = lcm(sets[i].period, sets[j].period)
                return CheckReport("almost-disjoint", False,
                                   {"pair": [i, j], "residue": common[0], "modulus": modulus})
    return CheckReport("almost-disjoint", True)


def family_sets(data: dict) -> tuple:
    """The sets of a family file, ``{"sets": [{"period": ..., "residues":
    [...], "delta": [...]}, ...]}``, not yet checked to be almost disjoint."""
    if not isinstance(data, dict) or "sets" not in data:
        raise MrowkaError("family JSON must have a 'sets' field")
    if not isinstance(data["sets"], list):
        raise MrowkaError("family JSON's 'sets' must be a list")
    return tuple(EvPeriodicSet.from_json(s) for s in data["sets"])


class ADFamily(Record):
    """Validated almost disjoint family of infinite eventually periodic sets."""

    _fields = ("sets",)

    def __init__(self, sets: tuple):
        _put(self, "sets", tuple(sets))
        report = ad_check(self.sets)
        if not report.passed:
            raise MrowkaError(f"family is not almost disjoint: {report.witness}")

    @classmethod
    def progressions(cls, modulus: int) -> "ADFamily":
        return cls(tuple(EvPeriodicSet(modulus, frozenset({r})) for r in range(modulus)))

    @classmethod
    def from_json(cls, data: dict) -> "ADFamily":
        return cls(family_sets(data))

    def __len__(self) -> int:
        return len(self.sets)


# -- the quotient semilattice ------------------------------------------------

def parse_point(text: str) -> int:
    """The point that ``fin:1,2``, ``branch:0`` or ``top`` names."""
    if text == "top":
        return 0
    head = text.partition(":")[0]
    if head == "fin":
        members = parse_naturals(text, len("fin:"))
        if not members:
            raise MrowkaError("finite point must be nonempty")
        if max(members) >= MAX_POINT_MEMBER:
            raise MrowkaError(f"point members must be below MAX_POINT_MEMBER = {MAX_POINT_MEMBER}")
        return code_of(members)
    if head == "branch":
        return ~parse_natural(text, len("branch:"))
    raise MrowkaError(f"point must be fin:..., branch:i or top, got {text!r}")


def format_point(p: int) -> str:
    """The text of a point.  A finite one is read back through ``bin``, one
    search per member: a loop over every bit would cost the bound."""
    if p > 0:
        return "fin:" + ",".join([str(m.start()) for m in re.finditer("1", bin(p)[:1:-1])])
    return f"branch:{~p}" if p else "top"


def g_join(x: int, y: int, fam: ADFamily) -> int:
    """Join in the quotient: the image of the union of the two downsets.

    Finite sets join by union; a finite set absorbed by a branch's set
    joins into the branch, otherwise the pair collapses to the top; two
    distinct branches always collapse.
    """
    if min(x, y) < -len(fam.sets):
        raise MrowkaError("branch index out of range")
    if x > 0 and y > 0:
        return x | y
    if x == y:
        return x
    fin, br = (x, y) if x > 0 else (y, x)
    if fin > 0 and br < 0 and not fin & ~fam.sets[~br].mask_below(fin.bit_length()):
        return br
    return 0  # the top


# -- star construction ---------------------------------------------------------

def code_of(sigma: Iterable[int]) -> int:
    """Bitmask of a finite set of naturals, set in a bytearray: an int would be copied per bit."""
    members = list(sigma)
    buf = bytearray(max(members, default=-1) // 8 + 1)
    for k in members:
        buf[k >> 3] |= 1 << (k & 7)
    return int.from_bytes(buf, "little")


def star_truncation(fam: ADFamily, n_bound: int):
    """Codes of the nonempty finite subsets of each branch, truncated to
    code values below ``n_bound`` (a set codes as the sum of 2^k over its
    members).

    The pairwise intersection law is re-verified exactly: the shared codes
    of two branches are the codes of the finite subsets of the (finite)
    intersection.  A mask of p members has 2^p submasks, each enumerated,
    and each pair compares the codes of its smaller branch, so the codes
    enumerated and compared are counted from popcounts and refused past
    ``MAX_STAR_CODES`` before any is built.
    """
    if n_bound > MAX_CODE_BOUND:
        raise MrowkaError(f"code bound {n_bound} over MAX_CODE_BOUND = {MAX_CODE_BOUND}")
    bits = max(0, (n_bound - 1).bit_length())
    masks = [a.mask_below(bits) for a in fam.sets]
    sizes = [1 << mask.bit_count() for mask in masks]
    codes = sum(sizes) + sum((1 << (a & b).bit_count()) + min(size_a, size_b)
                             for (a, size_a), (b, size_b) in combinations(zip(masks, sizes), 2))
    if codes > MAX_STAR_CODES:
        raise MrowkaError(f"star truncation below {n_bound} takes {codes} codes, "
                          f"over MAX_STAR_CODES = {MAX_STAR_CODES}")
    per_branch = [frozenset(_submasks_below(mask, n_bound)) for mask in masks]
    passed = True
    witness = None
    for i in range(len(per_branch)):
        for j in range(i + 1, len(per_branch)):
            expected = frozenset(_submasks_below(masks[i] & masks[j], n_bound))
            if per_branch[i] & per_branch[j] != expected:
                passed = False
                witness = {"pair": [i, j]}
    report = CheckReport("star-truncation", passed, witness,
                         {"sizes": [len(c) for c in per_branch]})
    return {i: per_branch[i] for i in range(len(per_branch))}, report


def _submasks_below(mask: int, n_bound: int):
    s = mask
    while True:
        if s and s < n_bound:
            yield s
        if s == 0:
            return
        s = (s - 1) & mask


# -- convergence of joins --------------------------------------------------------

def check_horizon(horizon: int) -> None:
    """Refuse a convergence horizon past ``MAX_HORIZON``; it needs only the
    number, so a family can be refused before it is loaded."""
    if horizon > MAX_HORIZON:
        raise MrowkaError(f"horizon {horizon} over MAX_HORIZON = {MAX_HORIZON}")


def convergence_check(fam: ADFamily, i: int, j: int, horizon: int) -> CheckReport:
    """Certify, below a horizon, the convergence behaviour of prefix nets:
    the prefixes of branch i converge to the branch point (they grow
    without bound inside it), while the joins of the prefixes of branches
    i and j escape every branch from a threshold on.

    The threshold is the least n at which both prefixes are nonempty and
    their union already fails to sit inside any branch; unions only grow,
    so escape is permanent once witnessed.  Everything is read off the
    masks below the horizon, A and B of branches i and j and K of each
    branch k: branch k's escape witness, the least member of the union
    outside it, is the least bit of (A | B) & ~K, and the threshold is one
    past the largest witness.  Branch i's witness lies in B and branch j's
    in A, so both prefixes are nonempty there.  A horizon past
    ``MAX_HORIZON`` is refused before any set is masked (``check_horizon``).
    """
    check_horizon(horizon)
    if i == j:
        raise MrowkaError("branch indices must differ")
    if not (0 <= i < len(fam.sets) and 0 <= j < len(fam.sets)):
        raise MrowkaError("branch index out of range")
    horizon = max(horizon, 0)  # mask_below needs a natural; nothing lies below 0
    a_prefix, b_prefix = fam.sets[i].mask_below(horizon), fam.sets[j].mask_below(horizon)
    union = a_prefix | b_prefix
    # string keys, as printed: sorted JSON puts "10" before "2"
    witnesses = {}
    for k, branch_set in enumerate(fam.sets):
        out = union & ~branch_set.mask_below(horizon)
        witnesses[str(k)] = (out & -out).bit_length() - 1
    if min(witnesses.values()) < 0:
        raise MrowkaError("horizon too small to certify (threshold not reached)")
    threshold = max(witnesses.values()) + 1
    below = (1 << threshold) - 1
    if g_join(a_prefix & below, b_prefix & below, fam) != union & below:
        raise AssertionError("join of finite prefixes must be their union")
    # a member at or past half the horizon: more members than below it
    growth = a_prefix.bit_count() >= 2 and a_prefix >> horizon // 2 != 0
    return CheckReport("join-convergence", growth, None if growth else "prefixes stalled",
                       {"threshold": threshold, "escape_witnesses": witnesses})


# -- Lusin stages ------------------------------------------------------------------

class LusinStage(Record):
    """Finite stage of the Lusin construction: for each prior set, the
    block of fresh elements taken from it (the n-th block has exactly n
    members that avoid all earlier sets).  The stage is the finite
    certificate of the new set; its unconstructed continuation is the
    disjoint tail living outside the listed sets (empty when they cover
    the naturals).

    Each block is an ``array("q")`` of its picks, unboxed, and
    ``members``, cached, is one ascending ``array("q")`` of the elements
    of all blocks.  Any other sequence given as a block is packed so, and
    a member past ``MAX_STAGE_MEMBER``, which does not fit, is refused.
    So a stage compares by value but is not hashable.  ``ascending``
    bisects ``members``.  The scan reads each prior set, stage or
    ``EvPeriodicSet``, through ``ascending`` alone: which sets hold a
    candidate it asks the membership index."""

    _fields = ("blocks", "m", "l1_counts")

    def __init__(self, blocks: tuple, m: int, l1_counts: tuple):
        _put(self, "blocks", tuple(
            b if isinstance(b, array) and b.typecode == "q" else _stage_block(b)
            for b in blocks))
        _put(self, "m", m)
        _put(self, "l1_counts", l1_counts)

    @cached_property
    def members(self) -> array:
        return array("q", sorted(chain.from_iterable(self.blocks)))

    def ascending(self, start: int = 0):
        """Members from ``start`` on, in increasing order."""
        members = self.members
        return iter(members[bisect_left(members, start):])


def _stage_block(picks: Sequence[int]) -> array:
    """``picks`` packed as a stage block; a member that does not fit the
    typecode, past ``MAX_STAGE_MEMBER`` or below -2^63, is refused."""
    try:
        return array("q", picks)
    except OverflowError:
        if max(picks) > MAX_STAGE_MEMBER:
            raise MrowkaError(f"stage member {max(picks)} over MAX_STAGE_MEMBER = {MAX_STAGE_MEMBER}")
        raise MrowkaError("stage members must be naturals")


class _MembershipIndex:
    """Ages of the prior sets containing a given natural, resolved by one
    residue lookup per period group and two lookups by natural.

    Sets are stored by age (the last prior set has age 0), so ``push``
    puts a new set in front of the enumeration without touching the
    others.  These hold them:

    - ``by_period``: period -> residue -> ascending ages of the eventually
      periodic sets with that residue class;
    - ``toggled``: natural -> ages of the eventually periodic sets whose
      delta holds it, which flip its membership in those sets;
    - ``youngest``: an ``array`` indexed by natural below ``span``, the
      largest age of a stage holding it or -1 for none; ``far`` maps the
      naturals from ``span`` on that a stage holds to that age;
    - ``older``: natural -> the tuple of the other ages of stages holding
      it.  In a Lusin run most naturals lie in one stage only.

    When a stage brings members past its end, the array grows to the
    largest of them and of the ``far`` naturals up to which at least one
    slot in ``DENSE_SHARE`` is held, and ``far`` hands over the naturals
    it then covers; ``naturals`` counts the naturals that stages hold.  So
    a few members near ``SCAN_CAP`` stay in a small dict instead of
    stretching the array.

    The scan reads the index once per block and once per stage, binding
    these tables once per call rather than once per natural: ``fresh``
    takes a block's picks from its candidates, and ``tally`` recounts the
    finished stage.  A natural's first set is the one with its largest
    age, the largest of its ``youngest`` age and the last age in each
    period group's list.  A natural that a delta holds takes its exact
    ages from ``ages_of``, which reads every age of each natural it is
    given.

    The index is also the scan state ``lusin_iterate`` carries from one
    stage to the next: ``starts`` holds, by position, the natural each
    prior set's scan resumes from, and ``advance`` enumerates a finished
    stage first.  Construction trusts ``prev``: ``lusin_iterate`` builds
    the index over an ``ADFamily``, checked when it was built, and
    ``lusin_stage`` checks its own ``prev`` before building one.  Later
    stages add only finite ``LusinStage`` sets, so the periodic members
    stay as checked."""

    # tracemalloc over 20,000 held naturals: 29.5 bytes each in a dict; in
    # the array 4 bytes a slot, so 17.0 bytes each at a quarter held and 34.0
    # at an eighth
    DENSE_SHARE = 4

    def __init__(self, prev: Sequence):
        self.size = 0
        self.by_period: dict = {}
        self.toggled: dict = {}
        self.youngest = array("i")
        self.span = self.naturals = 0
        self.far: dict = {}
        self.older: dict = {}
        for s in reversed(prev):
            self.push(s)
        self.starts = [0] * self.size

    def advance(self, stage: "LusinStage"):
        """Enumerate ``stage`` first from now on.  Every other set moves
        one place down and resumes after its last pick: a member skipped
        before is still covered by an earlier set, and one picked before
        is covered by ``stage``."""
        self.push(stage)
        self.starts = [0] + [block[-1] + 1 if block else start
                             for block, start in zip(stage.blocks, self.starts)]

    def push(self, s):
        """Index ``s`` as the new first set of the enumeration."""
        age = self.size
        if isinstance(s, EvPeriodicSet):
            table = self.by_period.setdefault(s.period, {})
            for r in s.residues:
                table.setdefault(r, []).append(age)
            toggled = self.toggled
            for x in s.delta:
                toggled[x] = toggled.get(x, ()) + (age,)
        elif isinstance(s, LusinStage):
            if s.members and s.members[0] < 0:
                raise MrowkaError("stage members must be naturals")
            self._grow(s.members)
            youngest, span, far, older = self.youngest, self.span, self.far, self.older
            self.naturals += len(s.members)
            for x in s.members:
                if x < span:
                    prior = youngest[x]
                    youngest[x] = age
                else:
                    prior = far.get(x, -1)
                    far[x] = age
                if prior >= 0:
                    older[x] = older.get(x, ()) + (prior,)
                    self.naturals -= 1
        else:
            raise MrowkaError(f"unsupported set representation: {type(s).__name__}")
        self.size += 1

    def _grow(self, members: tuple):
        """Extend ``youngest`` over the ascending ``members`` from ``span``
        on and the naturals of ``far``, as far as the share allows."""
        far, share, span = self.far, self.DENSE_SHARE, self.span
        start = bisect_left(members, span)
        held = self.naturals - len(far)
        # the array up to x needs (x + 1) / share held naturals; all of
        # them held leaves none at or past ``limit`` within reach
        limit = share * (self.naturals + len(members) - start)
        if start == len(members) or members[start] >= limit:
            return
        near = [x for x in far if x < limit]
        if near:  # a natural of ``far`` may come again in ``members``
            candidates, start = sorted(set(near).union(islice(members, start, None))), 0
        else:
            candidates = members
        # the largest candidate up to which enough naturals are held
        for i in range(len(candidates) - 1, start - 1, -1):
            if share * (held + i - start + 1) > candidates[i]:
                end = candidates[i] + 1
                break
        else:
            return
        youngest = self.youngest
        youngest.extend(array("i", [-1]) * (end - span))
        self.span = end
        for x in near:
            if x < end:
                youngest[x] = far.pop(x)

    def ages_of(self, xs: Iterable[int]):
        """Yield (x, ages) for each natural x of ``xs``: the ages of all
        sets containing x, in no fixed order."""
        older, youngest, span, far, toggled = (
            self.older, self.youngest, self.span, self.far, self.toggled)
        tables = [(period, table.get) for period, table in self.by_period.items()]
        for x in xs:
            age = youngest[x] if x < span else far.get(x, -1)
            ages = [age] if age >= 0 else []
            if x in older:
                ages += older[x]
            for period, residue_ages in tables:
                ages += residue_ages(x % period, ())
            if x in toggled:
                # a stage's age is never toggled, so the flip touches only sets with a delta
                ages = set(ages).symmetric_difference(toggled[x])
            yield x, ages

    def fresh(self, candidates: Iterable[int], n: int) -> list:
        """The first n naturals of ``candidates`` that no set before
        position n holds.  The set at position n has age ``limit``, so a
        natural is covered when one of its ages is past ``limit``; its
        test stops at the first such age."""
        limit = self.size - 1 - n
        youngest, span, far, toggled = self.youngest, self.span, self.far, self.toggled
        tables = [(period, table.get) for period, table in self.by_period.items()]
        chosen: list = []
        if not n:
            return chosen
        for x in candidates:
            if x in toggled:
                ((_, ages),) = self.ages_of((x,))
                if max(ages) > limit:
                    continue
            elif (youngest[x] if x < span else far.get(x, -1)) > limit:
                continue
            else:
                covered = False
                for period, residue_ages in tables:
                    ages = residue_ages(x % period)
                    if ages and ages[-1] > limit:
                        covered = True
                        break
                if covered:
                    continue
            chosen.append(x)
            if len(chosen) == n:
                break
        return chosen

    def tally(self, blocks: Sequence) -> tuple:
        """The recount of a finished stage's ``blocks``, by position: how
        many picked naturals have their first set there, and the largest
        picked natural its set holds (-1 for none).  This pass is the check
        of the scan, so it reads every age anew rather than trusting
        ``fresh``."""
        older, youngest, span, far, toggled = (
            self.older, self.youngest, self.span, self.far, self.toggled)
        tables = [(period, table.get) for period, table in self.by_period.items()]
        counts = [0] * self.size  # by age until the end
        maxima = [-1] * self.size
        for block in blocks:
            for x in block:
                if x in toggled:
                    ((_, ages),) = self.ages_of((x,))
                    oldest = max(ages)
                else:
                    oldest = youngest[x] if x < span else far.get(x, -1)
                    ages = [oldest] if oldest >= 0 else []
                    if x in older:
                        ages += older[x]
                    for period, residue_ages in tables:
                        more = residue_ages(x % period)
                        if more:
                            ages += more
                            if more[-1] > oldest:
                                oldest = more[-1]
                counts[oldest] += 1
                for age in ages:
                    if x > maxima[age]:
                        maxima[age] = x
        # the set of age a sits at position size - 1 - a
        counts.reverse()
        maxima.reverse()
        return counts, maxima


def lusin_stage(prev: Sequence, index: _MembershipIndex | None = None) -> LusinStage:
    """Build the next set against the enumerated prior family: exactly n
    fresh elements inside the n-th prior set, fresh meaning outside all
    earlier ones, always the least such candidates.

    ``index``, which ``lusin_iterate`` passes, must describe ``prev``; its
    ``starts`` let each scan resume where the previous stage left it
    instead of starting from 0.  Without it the stage checks ``prev`` and
    builds its own index.  Each block is one ``fresh`` call of the index
    over the lazy ``ascending`` of its prior set; then ``tally`` recounts
    the finished blocks from the index alone, a separate pass that catches
    a scan that picked covered naturals.

    Raises when some prior set cannot supply n fresh elements, or when the
    eventually periodic members of ``prev`` are finite or fail
    almost-disjointness.
    """
    m = len(prev)
    if index is None:
        periodic = [s for s in prev if isinstance(s, EvPeriodicSet)]
        if not all(s.is_infinite for s in periodic):
            raise MrowkaError("prior set is finite")
        rep = ad_check(periodic)
        if not rep.passed:
            raise MrowkaError(f"non-AD input: {rep.witness}")
        index = _MembershipIndex(prev)
    if index.size != m:
        raise MrowkaError("scan state does not match the prior family")
    blocks = []
    for n in range(m):
        chosen = index.fresh(prev[n].ascending(index.starts[n]), n)
        if len(chosen) < n:
            raise MrowkaError(
                f"prior set {n} has fewer than {n} elements outside its predecessors")
        blocks.append(_stage_block(chosen))  # each list freed once packed

    # exact-count recount over the finished blocks: they should be
    # disjoint, and an element taken twice would break a count
    counts, maxima = index.tally(blocks)
    for n in range(m):
        if counts[n] != n:
            raise AssertionError(f"fresh-intersection count at {n} is {counts[n]}, wanted {n}")
    # finite consequence of the splitting condition: for each probe k, how
    # many prior sets meet the new set only below k (boundedly many)
    probes = sorted({0, 1} | {b[-1] + 1 for b in blocks if b})  # each block ascends
    maxima.sort()
    l1 = tuple((k, bisect_left(maxima, k)) for k in probes)
    return LusinStage(tuple(blocks), m, l1)


def check_lusin_picks(m: int, steps: int) -> None:
    """Refuse a run of ``steps`` Lusin stages over m sets that takes more
    than ``MAX_LUSIN_PICKS`` picks; it needs only the count of the sets,
    so a family can be refused before it is loaded."""
    picks = comb(m + steps, 3) - comb(m, 3) if steps > 0 else 0  # sum of C(m + k, 2), k < steps
    if picks > MAX_LUSIN_PICKS:
        raise MrowkaError(f"{steps} Lusin steps over {m} sets take {picks} picks, "
                          f"over MAX_LUSIN_PICKS = {MAX_LUSIN_PICKS}")


def lusin_iterate(base: ADFamily, steps: int) -> list:
    """Run consecutive stages, enumerating newest stages first so that
    every prior set still has fresh elements to offer.  The membership
    index is carried across stages (see ``_MembershipIndex.advance``).
    The family was checked when the ``ADFamily`` was built, and is not
    checked again.

    A stage over m prior sets picks m(m-1)/2 elements, each indexed once
    when another stage follows, so the run's work and memory grow with its
    total picks; a run of more than ``MAX_LUSIN_PICKS`` is refused before
    any work."""
    check_lusin_picks(len(base), steps)
    stages: list = []
    index = _MembershipIndex(base.sets)
    for step in range(steps):
        prev = list(reversed(stages)) + list(base.sets)
        stage = lusin_stage(prev, index)
        stages.append(stage)
        if step + 1 < steps:  # no later scan reads the last stage
            index.advance(stage)
    return stages


# -- canonical selector of the compact space ---------------------------------------

def mrowka_selector_check(sets: Sequence[EvPeriodicSet] | ADFamily,
                          truncation: int) -> CheckReport:
    """Check the canonical selector of the compactified family space on a
    truncated point set: singletons at the naturals, the branch sets at
    the branches, everything at the top point.

    Clopenness of a branch set needs almost-disjointness (an infinite
    shared residue class makes one branch accumulate inside another); that
    is certified by residue arithmetic and reported with a witness.
    The point sets are bitmasks whose total size is quadratic in the
    truncation, so the truncation is capped at ``MAX_TRUNCATION``; a
    negative one keeps no naturals.
    """
    from .poset import selector_conditions  # the mrowka group loads poset only here

    if truncation > MAX_TRUNCATION:
        raise MrowkaError(f"truncation bound {truncation} over MAX_TRUNCATION = {MAX_TRUNCATION}")

    validated = isinstance(sets, ADFamily)  # its constructor ran ad_check
    members = tuple(sets.sets) if validated else tuple(sets)
    # points by index: the naturals below the truncation, the branches, the top
    t = max(truncation, 0)
    m = len(members)
    top = t + m
    labels = ([str(n) for n in range(t)] + [f"('branch', {k})" for k in range(m)]
              + ["inf"])
    if validated:
        ad_ok = True
    else:
        try:
            rep = ad_check(members)
            ad_ok, ad_witness = rep.passed, ("infinite overlap", rep.witness)
        except MrowkaError as e:
            ad_ok, ad_witness = False, ("bad member", str(e))

    traces = [a.mask_below(t) for a in members]
    u = [1 << n for n in range(t)]
    for k, a in enumerate(members):
        # closure of the branch set: another branch accumulating inside it
        # (infinite overlap) belongs to the closure, spoiling the selector;
        # an almost disjoint family has none, so only a failed check scans
        accumulating = 0 if ad_ok else code_of(
            t + j for j, b in enumerate(members) if j != k and common_residue_classes(a, b))
        u.append(traces[k] | 1 << (t + k) | accumulating)
    u.append((2 << top) - 1)
    conditions, witness = selector_conditions(u, labels.__getitem__)

    induced_ok = (all(bool(u[t + k] >> n & 1) == a.contains(n)
                      for k, a in enumerate(members) for n in range(t))
                  and all(u[top] >> (t + k) & 1 for k in range(m)))
    if not ad_ok:
        witness = witness or ad_witness

    # combinatorial heights: naturals 0, branches 1 (nonempty at the
    # truncation and certified infinite), top 2
    heights_ok = all(a.is_infinite and trace
                     for a, trace in zip(members, traces)) and bool(members)
    if not heights_ok:
        witness = witness or ("heights", "branch empty at truncation" if members else "family has no branch")

    passed = all(conditions.values()) and induced_ok and ad_ok and heights_ok
    return CheckReport("mrowka-selector", passed, witness, {
        "conditions": conditions, "induced_order": induced_ok, "ad": ad_ok,
        "heights": heights_ok})
