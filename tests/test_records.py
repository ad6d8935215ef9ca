"""The value classes against the data classes they replaced.

Every value class of the package derives from ``ordinal.Record``.  Before
that, each was a ``@dataclass``; those definitions are kept here, field
lists and ``__post_init__`` bodies as they were, and named as they were so
that ``repr`` and argument errors print the same class names.  On seeded
instances of every class the two must agree on ``repr``, ``==`` and
``!=``, ``hash`` (or its ``TypeError``), defaults, keyword construction,
argument and validation errors, ``__dict__`` against slots, copy and
pickle, and what assignment and deletion do.
"""

import copy
import pickle
import random
from array import array
from dataclasses import dataclass, field

import pytest

from ordtop import acceptance, clopen, hyperspace, mrowka, ordinal, poset, spaceterm
from ordtop.clopen import ClopenError
from ordtop.hyperspace import HyperspaceError
from ordtop.mrowka import MAX_STAGE_MEMBER, MrowkaError, _stage_block, ad_check
from ordtop.ordinal import OMEGA, ONE, ZERO, OrdinalError, _check_coeff, format_ordinal
from ordtop.poset import PosetError, _bits, join_table_laws
from ordtop.spaceterm import TermError


# -- the replaced definitions ------------------------------------------------------

@dataclass(frozen=True, eq=False, slots=True, init=False)
class Ordinal:
    _key: tuple

    def __init__(self, terms=()):
        key = []
        for exp, coeff in terms:
            if not isinstance(exp, Ordinal):
                raise OrdinalError("exponent must be an Ordinal")
            _check_coeff(coeff)
            key.append((exp._key, coeff))
        for (k1, _), (k2, _) in zip(key, key[1:]):
            if k1 <= k2:
                raise OrdinalError("exponents must strictly decrease")
        _set_key(self, tuple(key))

    def __eq__(self, other):
        if other.__class__ is Ordinal:
            return self._key == other._key
        return NotImplemented

    def __hash__(self):
        return hash(self._key)

    def __repr__(self) -> str:
        return f"Ord({format_ordinal(ordinal._trusted(self._key))})"


_set_key = Ordinal._key.__set__


@dataclass(frozen=True, slots=True)
class CheckReport:
    check: str
    passed: bool
    witness: object = None
    data: dict = field(default_factory=dict)


@dataclass(frozen=True)
class FinitePoset:
    labels: tuple
    below: tuple
    above: tuple = field(init=False, repr=False, compare=False)
    lower: tuple = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        labels = tuple(self.labels)
        object.__setattr__(self, "labels", labels)
        object.__setattr__(self, "below", tuple(self.below))
        n = len(labels)
        if len(set(labels)) != n:
            raise PosetError("duplicate element name")
        if len(self.below) != n:
            raise PosetError("below must have one mask per element")
        below = self.below
        above = [0] * n
        lower = [0] * n
        for i, mask in enumerate(below):
            if mask >> n:
                raise PosetError("below mask out of range")
            bit = 1 << i
            if mask & bit:
                raise PosetError("order must be irreflexive")
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
        object.__setattr__(self, "above", tuple(above))
        object.__setattr__(self, "lower", tuple(lower))

    def __repr__(self):
        # the parent's own repr, which the decorator left in place
        return poset.FinitePoset.__repr__(self)

    def covers(self):
        return [(i, j) for j, low in enumerate(self.lower) for i in _bits(low)]


@dataclass(frozen=True)
class Hyperspace:
    base: FinitePoset
    points: tuple
    maxima: tuple


@dataclass(frozen=True)
class FinJoinSemilattice:
    carrier: FinitePoset
    join_table: tuple

    def __post_init__(self):
        broken, up = join_table_laws(self.join_table)
        if broken is not None:
            raise HyperspaceError(f"join must be {broken[0]}")
        if any(up[i] != self.carrier.up_mask(i) for i in range(self.carrier.n)):
            raise HyperspaceError("induced order disagrees with carrier order")


@dataclass(frozen=True)
class Descriptor:
    cofinite: bool
    elems: frozenset

    def __post_init__(self):
        object.__setattr__(self, "elems", frozenset(self.elems))
        if any(not ordinal._is_int(x) or x < 0 for x in self.elems):
            raise HyperspaceError("malformed descriptor: members must be naturals")


@dataclass(frozen=True)
class OnePointModel:
    horizon: int = 10_000


@dataclass(frozen=True)
class EvPeriodicSet:
    period: int
    residues: frozenset
    delta: frozenset = frozenset()

    def __post_init__(self):
        object.__setattr__(self, "residues", frozenset(self.residues))
        object.__setattr__(self, "delta", frozenset(self.delta))
        if self.period < 1:
            raise MrowkaError("period must be positive")
        if any(r < 0 or r >= self.period for r in self.residues):
            raise MrowkaError("residues must lie in [0, period)")
        if any(d < 0 for d in self.delta):
            raise MrowkaError("delta members must be naturals")


@dataclass(frozen=True)
class ADFamily:
    sets: tuple

    def __post_init__(self):
        object.__setattr__(self, "sets", tuple(self.sets))
        report = ad_check(self.sets)
        if not report.passed:
            raise MrowkaError(f"family is not almost disjoint: {report.witness}")


@dataclass(frozen=True)
class LusinStage:
    blocks: tuple
    m: int
    l1_counts: tuple

    def __post_init__(self):
        object.__setattr__(self, "blocks", tuple(
            b if isinstance(b, array) and b.typecode == "q" else _stage_block(b)
            for b in self.blocks))


@dataclass(frozen=True)
class ClopenSet:
    ambient: ordinal.Ordinal
    zero_included: bool = False
    intervals: tuple = ()

    def __post_init__(self):
        object.__setattr__(self, "intervals", tuple(self.intervals))
        prev_t = None
        for s, t in self.intervals:
            if not s < t:
                raise ClopenError("interval needs s < t")
            if not t <= self.ambient:
                raise ClopenError("interval exceeds ambient")
            if prev_t is not None and not prev_t < s:
                raise ClopenError("intervals must be disjoint, increasing, non-adjacent")
            prev_t = t


@dataclass(frozen=True)
class OrdSpace:
    alpha: ordinal.Ordinal


@dataclass(frozen=True)
class SumTerm:
    parts: tuple

    def __post_init__(self):
        object.__setattr__(self, "parts", tuple(self.parts))
        if not self.parts:
            raise TermError("sum needs at least one part")


@dataclass(frozen=True)
class ProdTerm:
    left: object
    right: object


@dataclass(frozen=True)
class Skeleton:
    poset: FinitePoset
    labels: tuple

    def __post_init__(self):
        object.__setattr__(self, "labels", tuple(self.labels))
        if len(self.labels) != self.poset.n:
            raise TermError("one label per element required")
        if any(not self.labels[i] < self.labels[j]
               for i in range(self.poset.n) for j in _bits(self.poset.above[i])):
            raise TermError("labels must strictly increase along the order")


@dataclass(frozen=True)
class SkelTerm:
    skeleton: Skeleton


@dataclass(frozen=True)
class SpaceReport:
    height: ordinal.Ordinal
    endpoint_count: int
    rank: object


@dataclass
class CriterionResult:
    number: int
    name: str
    passed: bool
    elapsed: float
    detail: str = ""


# -- seeded arguments, valid and invalid, for each class ---------------------------

def _old_ordinal(o):
    if not isinstance(o, ordinal.Ordinal):
        return o
    return Ordinal(tuple((_old_ordinal(e), c) for e, c in o.terms))


def _ordinals(rng, k):
    return [ordinal.random_ordinal(rng, max_terms=3, depth=1, max_coeff=3) for _ in range(k)]


def _posets(rng, k):
    return [poset.random_poset(rng, rng.randrange(5)) for _ in range(k)]


def _args(cls_name, rng):
    """(valid argument tuples, keyword forms of some of them, invalid argument
    tuples) for the class named ``cls_name``; the tuples repeat, so that
    equal instances are among them."""
    P, W = ordinal.parse_ordinal, OMEGA
    if cls_name == "Ordinal":
        valid = [(o.terms,) for o in _ordinals(rng, 8)] + [()]
        bad = [(((ONE, 0),),), (((ONE, 1), (ONE, 1)),), (((1, 1),),), (((ONE, True),),)]
        return valid, [{"terms": valid[0][0]}], bad
    if cls_name == "CheckReport":
        valid = [(rng.choice("ab"), rng.random() < 0.5, rng.choice([None, 1, (2, 3), "w"]),
                  rng.choice([{}, {"k": 1}])) for _ in range(8)]
        valid += [("a", True), ("a", True, None), ("b", False, None, None)]
        return valid, [{"check": "c", "passed": False}, {"check": "c", "passed": 1, "data": {}}], []
    if cls_name == "FinitePoset":
        valid = [(p.labels, list(p.below)) for p in _posets(rng, 8)]
        base = poset.random_poset(rng, 3)
        valid.append((poset.downset_labels(base, [1, 3]), (0, 1)))
        bad = [(("a", "a"), (0, 0)), (("a",), (0, 0)), (("a", "b"), (4, 0)), (("a", "b"), (1, 0)),
               (("a", "b", "c"), (0, 1, 2)), (("a", "b"), 5)]
        return valid, [{"labels": "ab", "below": (0, 1)}], bad
    if cls_name == "Hyperspace":
        hs = [hyperspace.build_hyperspace(p) for p in _posets(rng, 6) if p.n]
        return [(h.base, h.points, h.maxima) for h in hs], [{"base": hs[0].base, "points": (),
                                                            "maxima": ()}], []
    if cls_name == "FinJoinSemilattice":
        chains = [poset.poset_from_covers(list(range(k)), [(i, i + 1) for i in range(k - 1)])
                  for k in (1, 2, 3, 2)]
        valid = [(c, hyperspace.FinJoinSemilattice.from_poset(c).join_table) for c in chains]
        two = chains[1]
        bad = [(two, ((0, 0), (0, 1))), (two, ((0, 1), (1, 0))), (two, ((1, 1), (1, 1)))]
        return valid, [{"carrier": two, "join_table": valid[1][1]}], bad
    if cls_name == "Descriptor":
        valid = [(rng.random() < 0.5, frozenset(rng.sample(range(9), rng.randrange(4))))
                 for _ in range(8)] + [(True, [1, 2]), (True, {2, 1})]
        return valid, [{"cofinite": False, "elems": ()}], [(False, {-1}), (True, {1.5}), (False, {True})]
    if cls_name == "OnePointModel":
        return [(rng.randrange(1, 4) * 10,) for _ in range(6)] + [(), (10_000,)], [{"horizon": 5}], []
    if cls_name == "EvPeriodicSet":
        valid = []
        for _ in range(8):
            p = rng.randrange(1, 5)
            valid.append((p, {r for r in range(p) if rng.random() < 0.5},
                          frozenset(rng.sample(range(12), rng.randrange(3)))))
        valid += [(2, [1]), (2, (1,), ())]
        bad = [(0, ()), (2, {2}), (2, {-1}), (2, {1}, {-3})]
        return valid, [{"period": 3, "residues": {0}}, {"period": 3, "residues": [], "delta": [4]}], bad
    if cls_name == "ADFamily":
        valid = [(tuple(mrowka.EvPeriodicSet(m, {r}) for r in range(m)),)
                 for m in (rng.randrange(1, 4) for _ in range(5))]
        valid.append(([mrowka.EvPeriodicSet(2, {0}, {3})],))
        bad = [((mrowka.EvPeriodicSet(2, {0}), mrowka.EvPeriodicSet(4, {2})),)]
        return valid, [{"sets": valid[0][0]}], bad
    if cls_name == "LusinStage":
        valid = []
        for _ in range(6):
            blocks = tuple([rng.randrange(9) for _ in range(n)] for n in range(rng.randrange(4)))
            valid.append((blocks, rng.randrange(3), tuple(rng.randrange(3) for _ in range(2))))
        valid += [((array("q", [4, 1]),), 1, ()), (([4, 1],), 1, ()), (((-1,),), 1, ())]
        bad = [(((1 << 63,),), 1, ()), ((("x",),), 1, ())]
        return valid, [{"blocks": ((),), "m": 1, "l1_counts": (0,)}], bad
    if cls_name == "ClopenSet":
        valid = [(W * 2, rng.random() < 0.5, [(P("1"), W)]) for _ in range(3)]
        valid += [(W * 2, False, ((P("3"), W), (W + 1, W * 2))), (W,), (W, True), (W, False, ())]
        bad = [(W, False, [(W, ONE)]), (W, False, [(ONE, W * 2)]), (W * 2, False, [(ONE, W), (W, W * 2)]),
               (W, False, [(ONE, "x")])]
        return valid, [{"ambient": W, "intervals": [(ZERO, W)]}, {"ambient": W, "zero_included": True}], bad
    if cls_name == "OrdSpace":
        return [(o,) for o in _ordinals(rng, 6)] + [(W,), (W,)], [{"alpha": ONE}], []
    if cls_name == "SumTerm":
        parts = [spaceterm.OrdSpace(o) for o in _ordinals(rng, 3)]
        return [(parts,), (tuple(parts),), (parts[:1],)], [{"parts": parts[1:]}], [((),), ([],)]
    if cls_name == "ProdTerm":
        a, b = (spaceterm.OrdSpace(o) for o in _ordinals(rng, 2))
        return [(a, b), (b, a), (a, b), (a, a)], [{"left": a, "right": b}], []
    if cls_name == "Skeleton":
        chain = poset.poset_from_covers("xy", [("x", "y")])
        vee = poset.poset_from_covers("xyz", [("x", "z"), ("y", "z")])
        valid = [(chain, [ONE, W]), (chain, (ZERO, W)), (vee, [ONE, ONE, W]), (chain, [ONE, W])]
        bad = [(chain, [ONE]), (chain, [W, ONE]), (vee, [ONE, W, W])]
        return valid, [{"poset": chain, "labels": [ZERO, ONE]}], bad
    if cls_name == "SkelTerm":
        chain = poset.poset_from_covers("xy", [("x", "y")])
        sks = [spaceterm.Skeleton(chain, ls) for ls in ([ONE, W], [ZERO, W], [ONE, W])]
        return [(s,) for s in sks], [{"skeleton": sks[0]}], []
    if cls_name == "SpaceReport":
        valid = [(o, rng.randrange(1, 3), rng.choice([None, o])) for o in _ordinals(rng, 6)]
        return valid + [(W, 1, None), (W, 1, None)], [{"height": W, "endpoint_count": 2, "rank": ONE}], []
    if cls_name == "CriterionResult":
        valid = [(rng.randrange(1, 4), rng.choice("ab"), rng.random() < 0.5, rng.choice([0.5, 1.0]),
                  rng.choice(["", "x"])) for _ in range(8)] + [(1, "a", True, 0.5)]
        return valid, [{"number": 2, "name": "n", "passed": False, "elapsed": 0.0}], []
    raise AssertionError(cls_name)


NEW = {cls.__name__: cls for cls in (
    ordinal.Ordinal, ordinal.CheckReport, poset.FinitePoset, hyperspace.Hyperspace,
    hyperspace.FinJoinSemilattice, hyperspace.Descriptor, hyperspace.OnePointModel,
    mrowka.EvPeriodicSet, mrowka.ADFamily, mrowka.LusinStage, clopen.ClopenSet, spaceterm.OrdSpace,
    spaceterm.SumTerm, spaceterm.ProdTerm, spaceterm.Skeleton, spaceterm.SkelTerm,
    spaceterm.SpaceReport, acceptance.CriterionResult)}
OLD = {name: globals()[name] for name in NEW}


def _raised(fn):
    """The class and text of the exception ``fn`` raises, or None; every
    ``AttributeError`` counts as one class, since the data classes raised
    ``FrozenInstanceError``, a subclass of it."""
    try:
        fn()
    except AttributeError as e:
        return "AttributeError", str(e)
    except Exception as e:
        return type(e).__name__, str(e)
    return None


def _hash(x):
    try:
        return hash(x)
    except TypeError as e:
        return str(e)


def _old_args(name, args):
    """The arguments for the replaced class: the old ``Ordinal`` takes old
    ``Ordinal`` exponents."""
    if name != "Ordinal" or not args:
        return args
    return (tuple((_old_ordinal(e), c) for e, c in args[0]),)


def _pair(name, args=(), kwargs={}):
    """The new record and the replaced data class built from the same arguments."""
    old_kwargs = {k: _old_args(name, (v,))[0] for k, v in kwargs.items()}
    return NEW[name](*args, **kwargs), OLD[name](*_old_args(name, args), **old_kwargs)


@pytest.mark.parametrize("name", list(NEW))
@pytest.mark.parametrize("seed", range(3))
def test_record_matches_the_replaced_data_class(name, seed):
    valid, keywords, bad = _args(name, random.Random(seed * 1000 + len(name)))
    valid += valid[:2]  # equal instances, built apart
    pairs = [_pair(name, a) for a in valid] + [_pair(name, (), kw) for kw in keywords]
    fields = list(OLD[name].__dataclass_fields__)
    for new, old in pairs:
        assert repr(new) == repr(old)
        assert _hash(new) == _hash(old)
        assert hasattr(new, "__dict__") == hasattr(old, "__dict__")
        assert [repr(getattr(new, f)) for f in fields] == [repr(getattr(old, f)) for f in fields]
        assert new.__eq__(object()) is NotImplemented and old.__eq__(object()) is NotImplemented
        assert (new == 1, new != 1) == (old == 1, old != 1) == (False, True)
        for dup in (copy.copy, copy.deepcopy, lambda x: pickle.loads(pickle.dumps(x))):
            assert dup(new) == new and repr(dup(new)) == repr(new)
    for new_i, old_i in pairs:
        for new_j, old_j in pairs:
            assert (new_i == new_j, new_i != new_j) == (old_i == old_j, old_i != old_j)
    assert sum(a == b for _, a in pairs for _, b in pairs) > len(pairs)
    # assignment and deletion, each on a fresh pair: a mutable record changes
    for f in fields + ["other"]:
        for act in (lambda x: setattr(x, f, 1), lambda x: delattr(x, f)):
            new, old = _pair(name, valid[0])
            if f == "other" and not hasattr(old, "__dict__"):
                # a slotted data class's __setattr__ and __delattr__ passed other
                # names to super() with the class that slots=True had replaced, a
                # TypeError where the interpreter does not mend that
                assert _raised(lambda: act(old))[0] in ("TypeError", "AttributeError")
                assert _raised(lambda: act(new))[0] == "AttributeError"
                continue
            assert _raised(lambda: act(new)) == _raised(lambda: act(old)), f
    if name == "CheckReport":
        assert NEW[name]("a", True).data == {}
        assert NEW[name]("a", True).data is not NEW[name]("a", True).data
    for a in bad:
        assert _raised(lambda: NEW[name](*a)) is not None, a
        assert _raised(lambda: NEW[name](*a)) == _raised(lambda: OLD[name](*_old_args(name, a))), a
    # too few arguments, too many, and an unknown keyword
    args = valid[0]
    calls = [lambda cls, a, k=k: cls(*a[:k]) for k in range(len(args))]
    calls += [lambda cls, a: cls(*a, *[1] * 6), lambda cls, a: cls(*a, bogus=1)]
    for call in calls:
        assert _raised(lambda: call(NEW[name], args)) == \
            _raised(lambda: call(OLD[name], _old_args(name, args)))
    assert _raised(lambda: NEW[name](*args, *[1] * 6))[0] == "TypeError"
