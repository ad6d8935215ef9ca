import json
import os
import random
import subprocess
import sys
from itertools import product

import pytest

import ordtop
import ordtop.poset as poset_module
from ordtop.hyperspace import (
    MAX_ASSIGNMENTS,
    MAX_CHAIN,
    Descriptor,
    FinJoinSemilattice,
    Hyperspace,
    HyperspaceError,
    OnePointModel,
    _enumerated_homs,
    build_hyperspace,
    hat_extension,
    hyperspace_to_dot,
    kplus_selector,
    principal_selector,
    selector_axioms_check,
    vietoris_density_witness,
)
from ordtop.mrowka import ADFamily, EvPeriodicSet, mrowka_selector_check
from ordtop.ordinal import CheckReport
from ordtop.poset import (
    FinitePoset,
    PosetError,
    _union,
    all_downsets,
    all_labeled_posets,
    downset_labels,
    downset_lattice,
    inclusion_order,
    join_table_laws,
    kw_rank,
    poset_from_covers,
    random_poset,
    ranks,
    selector_conditions,
)
from test_poset import antichain, chain, close_down, is_downset


def leq(poset, i, j):
    """i <= j in ``poset``."""
    return i == j or bool(poset.below[j] >> i & 1)


def one_point_poset(n):
    """Finite-scale pattern of the compactified naturals: an n-antichain
    below a single top point."""
    names = [str(i) for i in range(n)] + ["inf"]
    return poset_from_covers(names, [(str(i), "inf") for i in range(n)])


def one_point_rank_discrepancy(n):
    """Both rank conventions for the hyperspace of the compactified
    naturals, at finite scale n.

    The sup-plus-one convention gives n+1 for the hyperspace (climbing to
    w+1 with n), while the sup-of-point-ranks convention gives n (climbing
    to w); the claimed equality rank(H) = w^rank(X) holds only under the
    second convention, so the mismatch is flagged rather than resolved.
    """
    h = build_hyperspace(one_point_poset(n))
    r = ranks(inclusion_order(h.base, h.points))
    base_r = ranks(h.base)
    return {
        "scale": n,
        "hyperspace_rank_sup_plus_one": r.poset_rank,
        "hyperspace_rank_sup_only": max(r.elem_rank.values()),
        "base_rank_sup_plus_one": base_r.poset_rank,
        "base_rank_sup_only": max(base_r.elem_rank.values()),
        "flag": "rank conventions disagree; recorded without normalizing",
    }


# -- construction --------------------------------------------------------

def test_singleton_hyperspace():
    h = build_hyperspace(antichain(1))
    assert h.size == 1


def test_antichain_hyperspace_counts_subsets():
    h = build_hyperspace(antichain(4))
    assert h.size == 2 ** 4 - 1


def test_one_point_pattern():
    # n-antichain plus a top: nonempty subsets of the antichain, plus the
    # full space
    for n in (2, 4, 6):
        h = build_hyperspace(one_point_poset(n))
        assert h.size == (2 ** n - 1) + 1
        full = h.base.full_mask()
        assert full in h.points


def test_hyperspace_equals_downset_lattice_minus_bottom():
    rng = random.Random(0)
    for _ in range(25):
        p = random_poset(rng, 5)
        h = build_hyperspace(p)
        lat = downset_lattice(p)
        assert h.size == lat.n - 1
        assert set(h.points) == set(kw_rank(all_downsets(p)))


def join_closure(masks):
    """Every union of one or more of ``masks``, by a frontier search."""
    closure = set(masks)
    frontier = list(closure)
    while frontier:
        a = frontier.pop()
        for b in list(closure):
            if a | b not in closure:
                closure.add(a | b)
                frontier.append(a | b)
    return closure


def test_points_are_the_join_closure_of_the_principal_downsets():
    rng = random.Random(9)
    posets = [p for n in range(1, 5) for p in all_labeled_posets(n)]
    for p in posets + [random_poset(rng, rng.randint(5, 9)) for _ in range(40)]:
        h = build_hyperspace(p)
        assert set(h.points) == join_closure(h.eta(i) for i in range(p.n)), p


def test_eta_is_an_order_embedding():
    rng = random.Random(1)
    for _ in range(25):
        p = random_poset(rng, 6)
        h = build_hyperspace(p)
        for i in range(p.n):
            for j in range(p.n):
                assert leq(p, i, j) == (h.eta(i) | h.eta(j) == h.eta(j))


def test_join_is_union_and_lattice_is_distributive():
    p = random_poset(random.Random(2), 5)
    h = build_hyperspace(p)
    pts = h.points
    for a in pts:
        for b in pts:
            # the union is a point and the least point above a and b
            assert a | b in pts
            assert all(a | b | c == c for c in pts if a | c == c and b | c == c)
            for c in pts:
                assert (a | b) & c == ((a & c) | (b & c))


def _structure_pairwise(poset, family):
    # build_hyperspace's checks as they were, with the union of every pair
    # of points; returns the first failure, or None
    masks = sorted((m for m in family if m), key=lambda m: (m.bit_count(), m))
    point_set = set(masks)
    for a in masks:
        for b in masks:
            if a | b not in point_set:
                return "hyperspace not closed under union"
    if not point_set.issuperset(poset.down_mask(i) for i in range(poset.n)):
        return "principal downset missing from the hyperspace"
    for m in masks:
        if close_down(poset, poset.max_of(m)) != m:
            return "point is not the downset of its maxima"
    return None


def _structure(monkeypatch, poset, family):
    # what build_hyperspace says when all_downsets returns ``family``
    monkeypatch.setattr("ordtop.hyperspace.all_downsets",
                        lambda p: {m: p.max_of(m) for m in family})
    try:
        h = build_hyperspace(poset)
    except AssertionError as e:
        return str(e)
    assert set(h.points) == set(family) - {0}
    return None


def test_build_hyperspace_asserts_its_structure(monkeypatch):
    # three broken families, each with one fault; principal downsets are
    # 0b001, 0b011 and 0b100 in the chain 0 < 1 beside 2
    p = poset_from_covers(["0", "1", "2"], [("0", "1")])
    for family, message in (
            ([0b001, 0b011, 0b100, 0b101], "hyperspace not closed under union"),
            ([0b001, 0b011], "principal downset missing from the hyperspace"),
            ([0b001, 0b010, 0b011, 0b100, 0b101, 0b110, 0b111],
             "point is not the downset of its maxima")):
        assert _structure_pairwise(p, family) == message
        assert _structure(monkeypatch, p, family) == message


def test_build_hyperspace_checks_the_stored_maxima(monkeypatch):
    # each real downset in turn, its stored maxima short of one element
    for p in (poset_from_covers(["0", "1", "2"], [("0", "1")]), antichain(3), chain(3)):
        real = all_downsets(p)
        for m, top in real.items():
            for i in range(p.n):
                if top >> i & 1:
                    doctored = {**real, m: top ^ 1 << i}
                    monkeypatch.setattr("ordtop.hyperspace.all_downsets", lambda _: doctored)
                    with pytest.raises(AssertionError,
                                       match="point is not the downset of its maxima"):
                        build_hyperspace(p)


def _seeded_posets(seed, count):
    rng = random.Random(seed)
    out = [antichain(11)]
    while len(out) < count:
        p = random_poset(rng, rng.randint(6, 14), rng.choice([0.1, 0.2, 0.35]))
        try:
            all_downsets(p)
        except PosetError:
            continue
        out.append(p)
    return out


def test_union_check_on_generators_matches_the_pairwise_scan(monkeypatch):
    rng = random.Random(21)
    posets = [p for n in range(1, 6) for p in all_labeled_posets(n)]
    for k, p in enumerate(posets + _seeded_posets(22, 12)):
        every = list(all_downsets(p))
        families = [every]
        if k < len(posets):
            families.append(every[1:])  # the empty set is no point either way
            # a point missing, never a principal one: only the unions break
            joins = [m for m in every if p.max_of(m).bit_count() > 1]
            if joins:
                families.append([m for m in every if m != rng.choice(joins)])
            # a set that is not a downset: the verdict still agrees
            odd = [m for m in range(1, 1 << p.n) if not is_downset(p, m)]
            if odd:
                families.append(every + [rng.choice(odd)])
        for family in families:
            got, want = _structure(monkeypatch, p, family), _structure_pairwise(p, family)
            assert (got is None) == (want is None), (p, family)
            if all(is_downset(p, m) for m in family):
                assert got == want, (p, family)


# -- max decomposition: the maxima each point keeps -------------------------

def maxima_names(h, m):
    """The names of the stored maxima of the point ``m`` of ``h``."""
    return h.base.names(h.maxima[h.points.index(m)])


def test_max_decomposition_principal():
    p = chain(3)
    h = build_hyperspace(p)
    assert maxima_names(h, p.down_mask(2)) == {"2"}


def test_max_decomposition_full_antichain():
    p = antichain(3)
    h = build_hyperspace(p)
    assert maxima_names(h, p.full_mask()) == {"0", "1", "2"}


def test_max_decomposition_matches_pairwise_scan():
    rng = random.Random(3)
    for _ in range(30):
        p = random_poset(rng, 6)
        h = build_hyperspace(p)
        assert len(h.maxima) == len(h.points)
        for m in h.points:
            oracle = {p.labels[i] for i in range(p.n)
                      if m >> i & 1 and not any(m >> j & 1 and p.below[j] >> i & 1
                                                for j in range(p.n))}
            assert maxima_names(h, m) == oracle


# -- selector axioms -------------------------------------------------------

def _masks(space, family):
    """A family given as label sets, one per element, as the masks the
    check takes."""
    return tuple(sum(1 << space.index(y) for y in family[x]) for x in space.labels)


def _label_dict(space, sets):
    return {space.labels[i]: space.names(u) for i, u in enumerate(sets)}


def test_principal_ideals_are_a_selector():
    rng = random.Random(4)
    for _ in range(25):
        p = random_poset(rng, 6)
        rep = selector_axioms_check(p, principal_selector(p))
        assert rep.passed


def test_principal_selector_is_the_down_masks():
    p = poset_from_covers(["a", "b", "c"], [("a", "c"), ("b", "c")])
    assert principal_selector(p) == (0b001, 0b010, 0b111)


def test_whole_space_twice_fails_antisymmetry():
    p = antichain(2)
    rep = selector_axioms_check(p, (0b11, 0b11))
    assert not rep.data["conditions"]["antisymmetry"] and not rep.passed
    assert rep.witness == ("antisymmetry", ("0", "1"))


def test_kplus_selector_passes_on_every_hyperspace():
    rng = random.Random(5)
    for _ in range(20):
        p = random_poset(rng, 5)
        hp, fam = kplus_selector(build_hyperspace(p))
        rep = selector_axioms_check(hp, fam)
        assert rep.passed
        assert rep.data["conditions"]["well-founded"]


def test_forced_hyperspace_labels_are_the_rendered_strings():
    # every label of every hyperspace order for n <= 5, forced; the list
    # renderer downset_labels is the oracle
    orders = 0
    for n in range(1, 6):
        for p in all_labeled_posets(n):
            h = build_hyperspace(p)
            hp = inclusion_order(h.base, h.points)
            strings = downset_labels(h.base, h.points)
            assert hp.n == len(hp.labels) == len(strings)
            assert [hp.labels[i] for i in range(hp.n)] == strings
            assert list(hp.labels) == strings and hp.labels == tuple(strings)
            assert len(set(strings)) == len(strings)
            eager = FinitePoset(tuple(strings), hp.below)
            assert hp == eager and eager == hp and hash(hp) == hash(eager)
            orders += 1
    assert orders == 4473


def test_kplus_selector_path_renders_no_label(monkeypatch):
    def no_labels(poset, masks):
        raise AssertionError("a label was rendered")

    monkeypatch.setattr(poset_module, "downset_labels", no_labels)
    for n in range(1, 5):
        for p in all_labeled_posets(n):
            hp, fam = kplus_selector(build_hyperspace(p))
            assert selector_axioms_check(hp, fam).passed


def test_broken_kplus_family_names_its_witness_in_the_rendered_strings():
    # one point j taken out of one set U_k: the report is the one the
    # eagerly labeled order gives, and it fails when j is k or lies below
    # some other member of U_k (a lower cover of k may leave a selector)
    failed = 0
    for n in range(1, 4):
        for p in all_labeled_posets(n):
            h = build_hyperspace(p)
            hp, fam = kplus_selector(h)
            strings = downset_labels(p, h.points)
            eager = FinitePoset(tuple(strings), hp.below)
            for k, u in enumerate(fam):
                for j in range(hp.n):
                    if not u >> j & 1:
                        continue
                    broken = fam[:k] + (u ^ 1 << j,) + fam[k + 1:]
                    rep = selector_axioms_check(inclusion_order(p, h.points), broken)
                    assert rep == selector_axioms_check(eager, broken)
                    if j == k or hp.lower[k] >> j & 1 == 0:
                        assert not rep.passed and rep.witness is not None
                        names = rep.witness[1]
                        assert set(names if isinstance(names, tuple) else (names,)) <= set(strings)
                        failed += 1
    assert failed > 100, failed


def test_selector_incomplete_assignment_rejected():
    p = antichain(2)
    with pytest.raises(PosetError, match="one set per point"):
        selector_axioms_check(p, (0b01,))
    with pytest.raises(PosetError, match="out of range"):
        selector_axioms_check(p, (0b01, 0b110))


def test_selector_equivalence_of_conditions():
    # a family failing nesting must also fail the induced-order condition
    p = poset_from_covers(["a", "b", "c"], [("a", "b"), ("b", "c")])
    fam = _masks(p, {"a": {"a", "c"}, "b": {"b"}, "c": {"c", "b"}})
    rep = selector_axioms_check(p, fam)
    assert rep.data["conditions"]["equivalence"]


def _selector_check_all_pairs(space, sets):
    # the check as it was on label sets, before the bitmask scan and before
    # the successor index: the induced relation's transitivity scans every
    # pair of pairs in ``rel``; the witness scans walk labels in element
    # order, antisymmetry pairs in string order, nesting members and family
    # sets in sorted order; ``sets`` maps each label to its set of labels;
    # returns the report and the induced relation
    names = list(space.labels)
    witness = None
    cond1 = True
    for x in names:
        if x not in sets[x]:
            cond1 = False
            witness = witness or ("membership", x)
    cond2 = True
    for x in names:
        for y in names:
            if x < y and x in sets[y] and y in sets[x]:
                cond2 = False
                witness = witness or ("antisymmetry", (x, y))
    cond3 = True
    for x in names:
        for y in sorted(sets[x]):
            if y in sets and not sets[y] <= sets[x]:
                cond3 = False
                witness = witness or ("nesting", (x, y))
    rel = {(x, y) for y in names for x in sets[y] if x != y and x in names}
    irreflexive = all((x, x) not in rel for x in names)
    transitive = all((x, z) in rel
                     for (x, y) in rel for (y2, z) in rel
                     if y == y2 and x != z)
    antisym4 = all((y, x) not in rel for (x, y) in rel)
    cond4 = irreflexive and transitive and antisym4
    equivalent = (cond2 and cond3) == cond4 if cond1 else True
    family_sets = set(sets.values())
    minimal_singletons = True
    for u in sorted(family_sets, key=lambda u: (len(u), sorted(u))):
        if not any(v < u for v in family_sets):
            if len(u) != 1:
                minimal_singletons = False
                witness = witness or ("minimal-not-singleton", sorted(u))
    passed = cond1 and cond2 and cond3 and cond4 and equivalent and minimal_singletons
    return CheckReport("selector-axioms", passed, witness, {"conditions": {
        "membership": cond1, "antisymmetry": cond2, "nesting": cond3,
        "induced-order": cond4, "equivalence": equivalent,
        "minimal-singletons": minimal_singletons, "well-founded": True}}), rel


def _random_family(rng, space):
    # each set gets its own point most of the time and random others, so
    # families that are irreflexive and antisymmetric but not transitive
    # turn up often
    return tuple(sum(1 << j for j in range(space.n)
                     if (j == i and rng.random() < 0.9) or rng.random() < 0.3)
                 for i in range(space.n))


def test_selector_check_matches_all_pairs_scan():
    # labels "0".."5" sort as strings in element order, so the report,
    # witness included, is the old one
    rng = random.Random(12)
    p = poset_from_covers(["a", "b", "c"], [("a", "b"), ("b", "c")])
    cases = [(p, _masks(p, {"a": {"a", "c"}, "b": {"b"}, "c": {"c", "b"}}))]
    for _ in range(400):
        space = random_poset(rng, rng.randrange(1, 7))
        cases.append((space, _random_family(rng, space)))
    for space in all_labeled_posets(3):
        cases.append((space, principal_selector(space)))
    non_transitive = 0
    for space, fam in cases:
        rep = selector_axioms_check(space, fam)
        oracle, rel = _selector_check_all_pairs(space, _label_dict(space, fam))
        assert (rep.data["conditions"]["induced-order"]
                == oracle.data["conditions"]["induced-order"])
        assert rep.witness == oracle.witness
        assert rep == oracle
        if (all((y, x) not in rel for (x, y) in rel)
                and any((x, z) not in rel for (x, y) in rel for (y2, z) in rel
                        if y == y2 and x != z)):
            non_transitive += 1
    assert non_transitive >= 20


def _induced_order_by_union_pass(space, sets):
    # the induced-order condition as selector_axioms_check computed it before
    # it read transitivity from nesting: one union pass over the strict sets
    conditions, _ = selector_conditions(sets, space.labels.__getitem__)
    strict = [u & ~(1 << i) for i, u in enumerate(sets)]
    transitive = not any(_union(strict, s) & ~s & ~(1 << z) for z, s in enumerate(strict))
    return conditions["nesting"], transitive, transitive and conditions["antisymmetry"]


def _swapped_family(rng, n):
    # points matched in pairs, each holding its partner and, half the time,
    # itself: the induced relation is transitive (x below y below z makes
    # z = x), and nesting fails where a point misses its own set
    order = rng.sample(range(n), n)
    partner = {}
    for k in range(0, n - 1, 2):
        if rng.random() < 0.7:
            partner[order[k]], partner[order[k + 1]] = order[k + 1], order[k]
    sets = []
    for i in range(n):
        own = 1 << i if rng.random() < (0.5 if i in partner else 0.9) else 0
        sets.append(own | (1 << partner[i] if i in partner else 0))
    return tuple(sets)


def test_induced_order_matches_the_union_pass():
    # nesting makes the induced relation transitive, so the check skips the
    # union pass on a nested family; seeded families where nesting holds,
    # where it fails, and where it fails with the relation still transitive
    rng = random.Random(27)
    cases = []
    for _ in range(300):
        space = random_poset(rng, rng.randrange(1, 7))
        cases.append((space, _random_family(rng, space)))
        cases.append((space, _swapped_family(rng, space.n)))
        cases.append((space, principal_selector(space)))
    for p in all_labeled_posets(3):
        cases.append(kplus_selector(build_hyperspace(p)))
    kinds = {}
    for space, fam in cases:
        nesting, transitive, induced = _induced_order_by_union_pass(space, fam)
        assert selector_axioms_check(space, fam).data["conditions"]["induced-order"] == induced
        kinds[nesting, transitive] = kinds.get((nesting, transitive), 0) + 1
    assert (True, False) not in kinds
    assert min(kinds.values()) >= 30, kinds


def test_selector_check_on_unsorted_labels_keeps_verdict_and_conditions():
    # where element order is not string order, an antisymmetry or nesting
    # witness names the first pair in element order, which the old scan
    # did not; the verdict, the conditions and the failing condition agree
    rng = random.Random(13)
    pool = ["b", "a", "10", "2", "z", "x1", "x"]
    moved = 0
    for _ in range(600):
        base = random_poset(rng, rng.randrange(2, 7))
        space = FinitePoset(tuple(rng.sample(pool, base.n)), base.below)
        fam = _random_family(rng, space)
        rep = selector_axioms_check(space, fam)
        oracle, _ = _selector_check_all_pairs(space, _label_dict(space, fam))
        assert (rep.passed, rep.data) == (oracle.passed, oracle.data)
        assert (rep.witness is None) == (oracle.witness is None)
        if rep.witness is not None:
            assert rep.witness[0] == oracle.witness[0]
            moved += rep.witness != oracle.witness
    assert moved >= 20


_WITNESS_SCRIPT = """
import json
from ordtop.hyperspace import selector_axioms_check
from ordtop.mrowka import EvPeriodicSet, mrowka_selector_check
from ordtop.poset import poset_from_covers
space = poset_from_covers(list("abcde"), [])
a, b, c, d, e = (1 << i for i in range(5))
families = [
    # U_a holds b, c and d, whose sets reach e outside U_a: three nesting failures
    (a | b | c | d, b | e, c | e, d | e, e),
    # b and c, b and d lie in each other's sets
    (a, b | c | d, b | c, b | d, e),
    # c is not in its own set
    (a, b, a, d, e),
]
witnesses = [selector_axioms_check(space, f).witness for f in families]
# residue classes mod 12; sets 10 and 11 also take the classes of sets 2
# and 3, so two pairs of branch points lie in each other's sets
sets = [EvPeriodicSet(12, frozenset({r})) for r in range(12)]
sets[10] = EvPeriodicSet(12, frozenset({2, 10}))
sets[11] = EvPeriodicSet(12, frozenset({3, 11}))
witnesses.append(mrowka_selector_check(sets, 16).witness)
print(json.dumps(witnesses))
"""


def test_selector_witnesses_do_not_depend_on_hash_seed():
    # set iteration order follows PYTHONHASHSEED; the witnesses must not
    src = os.path.dirname(os.path.dirname(os.path.abspath(ordtop.__file__)))
    outputs = set()
    for seed in ("1", "2", "3", "4"):
        env = dict(os.environ, PYTHONHASHSEED=seed, PYTHONPATH=src)
        proc = subprocess.run([sys.executable, "-c", _WITNESS_SCRIPT], env=env,
                              capture_output=True, text=True, check=True)
        outputs.add(proc.stdout)
    assert len(outputs) == 1
    assert json.loads(outputs.pop()) == [
        ["nesting", ["a", "b"]], ["antisymmetry", ["b", "c"]], ["membership", "c"],
        ["antisymmetry", ["('branch', 2)", "('branch', 10)"]]]


def selector_conditions_scan(labels, sets):
    # selector_conditions as it was: all three conditions decided by the
    # scan of each set's members, which now runs only to name a witness
    k = len(sets)
    if len(labels) != k:
        raise PosetError("selector needs one set per point")
    if any(u >> k for u in sets):
        raise PosetError("selector set out of range")
    found = {}
    for i, u in enumerate(sets):
        if not u >> i & 1:
            found.setdefault("membership", labels[i])
        for j in range(k):
            if u >> j & 1:
                if j > i and sets[j] >> i & 1:
                    found.setdefault("antisymmetry", (labels[i], labels[j]))
                if sets[j] & ~u:
                    found.setdefault("nesting", (labels[i], labels[j]))
    conditions = ("membership", "antisymmetry", "nesting")
    witness = next(((c, found[c]) for c in conditions if c in found), None)
    return {c: c not in found for c in conditions}, witness


def minimal_singletons_by_sort(space, sets):
    # the sort-based scan that the singleton union replaced: whether the
    # minimal sets of the family are singletons, and the least one that is
    # not, by size and then by sorted member labels
    minimal = []
    for u in sorted(set(sets), key=lambda u: u.bit_count()):
        if all(v & ~u for v in minimal):
            minimal.append(u)
    bad = [u for u in minimal if u.bit_count() != 1]
    if not bad:
        return True, None
    least = min(bad, key=lambda u: (u.bit_count(), sorted(space.names(u))))
    return False, sorted(space.names(least))


def _mrowka_selector_families(monkeypatch):
    """The (labels, sets) that mrowka_selector_check hands to
    selector_conditions over seeded families: progressions, which pass,
    and sets with deltas and shared residue classes, which fail."""
    recorded = []
    scan = selector_conditions

    def record(sets, name):
        recorded.append((tuple(map(name, range(len(sets)))), tuple(sets)))
        return scan(sets, name)

    monkeypatch.setattr("ordtop.poset.selector_conditions", record)
    for m in range(1, 7):
        for t in (0, 4, 16):
            mrowka_selector_check(ADFamily.progressions(m), t)
    rng = random.Random(14)
    for _ in range(60):
        sets = []
        for _ in range(rng.randint(1, 8)):
            period = rng.choice([1, 2, 3, 4, 6, 12])
            sets.append(EvPeriodicSet(period,
                                      frozenset(rng.sample(range(period), rng.randint(1, period))),
                                      frozenset(rng.sample(range(20), rng.randint(0, 2)))))
        mrowka_selector_check(sets, rng.choice([0, 1, 4, 16]))
    monkeypatch.undo()
    return recorded


def test_selector_conditions_match_the_pairwise_scan(monkeypatch):
    # the cases of test_selector_check_matches_all_pairs_scan, the principal
    # and K-plus families of every labeled poset with n <= 4, and the
    # families of mrowka_selector_check
    rng = random.Random(12)
    cases = []
    for _ in range(400):
        space = random_poset(rng, rng.randrange(1, 7))
        cases.append(("random", space, space.labels, _random_family(rng, space)))
    for n in range(5):
        for p in all_labeled_posets(n):
            cases.append(("labeled", p, p.labels, principal_selector(p)))
            if n:
                hp, fam = kplus_selector(build_hyperspace(p))
                cases.append(("labeled", hp, hp.labels, fam))
    mrowka_cases = _mrowka_selector_families(monkeypatch)
    cases += [("mrowka", None, labels, sets) for labels, sets in mrowka_cases]
    # the scan walks members through _bits; the mask test never does
    walks = []
    bits = poset_module._bits
    monkeypatch.setattr(poset_module, "_bits", lambda mask: walks.append(mask) or bits(mask))
    paths = {}
    not_minimal = 0
    for source, space, labels, sets in cases:
        walks.clear()
        named = []
        got = selector_conditions(sets, lambda i: named.append(i) or labels[i])
        assert got == selector_conditions_scan(labels, sets), (labels, sets)
        passed = all(got[0].values())
        assert bool(walks) != passed, (labels, sets)
        # a pass names no point; a failure names the witness's points, each
        # once, and no other
        if passed:
            assert named == [], (labels, sets)
        else:
            condition, points = got[1]
            points = [points] if condition == "membership" else list(points)
            assert [labels[i] for i in named] == points, (labels, sets)
        path = (source, "scan" if walks else "masks")
        paths[path] = paths.get(path, 0) + 1
        if space is not None:
            # the three conditions imply that the minimal sets are singletons,
            # so the sort's witness is never the report's
            minimal, least = minimal_singletons_by_sort(space, sets)
            rep = selector_axioms_check(space, sets)
            assert rep.data["conditions"]["minimal-singletons"] == minimal, (labels, sets)
            assert least is None or not passed, (labels, sets)
            assert rep.witness == got[1]
            not_minimal += not minimal
    # principal and K-plus families are selectors, so only the others fail
    assert paths == {("random", "masks"): 145, ("random", "scan"): 255,
                     ("labeled", "masks"): 485,
                     ("mrowka", "masks"): 23, ("mrowka", "scan"): 55}
    assert not_minimal == 215  # each beside a failed condition


def priestley_separation_check(poset):
    """For x not below y there is an upset containing x and not y."""
    for x in range(poset.n):
        for y in range(poset.n):
            if not leq(poset, x, y):
                up = poset.up_mask(x)
                if not (up >> x & 1) or (up >> y & 1):
                    return False
    return True


def test_priestley_separation_on_finite_posets():
    rng = random.Random(6)
    for _ in range(30):
        assert priestley_separation_check(random_poset(rng, 6))


# -- universal property -----------------------------------------------------

def test_hat_identity_instance():
    p = random_poset(random.Random(7), 4)
    h = build_hyperspace(p)
    hp = inclusion_order(p, h.points)
    y = FinJoinSemilattice.from_poset(hp)
    labels = dict(zip(h.points, downset_labels(p, h.points)))
    f = {p.labels[i]: hp.labels.index(labels[h.eta(i)]) for i in range(p.n)}
    hat, rep = hat_extension(h, y, f)
    assert rep.passed and rep.data["method"] == "enumerated"
    assert set(hat) == set(h.points)
    # the extension of eta is the identity on points
    for m in h.points:
        assert hp.labels[hat[m]] == labels[m]


def test_hat_constant_map():
    p = antichain(2)
    y = FinJoinSemilattice.chain(2)
    hat, rep = hat_extension(build_hyperspace(p), y, {"0": 1, "1": 1})
    assert rep.passed
    assert set(hat.values()) == {1}


def test_hat_uniqueness_on_random_instances():
    rng = random.Random(8)
    for _ in range(20):
        p = random_poset(rng, 4)
        y = FinJoinSemilattice.chain(rng.randint(2, 5))
        rk = {p.labels[i]: 0 for i in range(p.n)}
        for i in range(p.n):
            rk[p.labels[i]] = min(bin(p.below[i]).count("1"), y.n - 1)
        hat, rep = hat_extension(build_hyperspace(p), y, rk)
        assert rep.passed and rep.data["method"] == "enumerated"
        assert rep.data["homs_found"] == 1


def test_hat_enumerates_at_most_max_assignments():
    # the maps of the elements into Y are enumerated up to MAX_ASSIGNMENTS
    # of them, exactly 8 ** 6; past it the generators decide uniqueness
    assert MAX_ASSIGNMENTS == 8 ** 6
    for n, k, method in ((6, 8, "enumerated"), (7, 8, "generators"),
                         (12, 3, "generators"), (20, 2, "generators")):
        p = chain(n)
        y = FinJoinSemilattice.chain(k)
        assert (k ** n <= MAX_ASSIGNMENTS) == (method == "enumerated")
        f = {p.labels[i]: min(i, k - 1) for i in range(n)}
        _, rep = hat_extension(build_hyperspace(p), y, f)
        assert rep.passed and rep.data == {"method": method, "homs_found": 1}, (n, k)


def test_chain_semilattice_refuses_past_max_chain(monkeypatch):
    # the library refuses before it builds the chain's poset and join table
    assert MAX_CHAIN == 64
    assert FinJoinSemilattice.chain(MAX_CHAIN).n == MAX_CHAIN

    def no_poset(*args):
        raise AssertionError("chain poset built")

    monkeypatch.setattr(poset_module, "poset_from_covers", no_poset)
    for k in (MAX_CHAIN + 1, 10 ** 18):
        with pytest.raises(HyperspaceError, match=f"^chain length {k} over MAX_CHAIN = 64$"):
            FinJoinSemilattice.chain(k)


def _is_hom_pairwise(h, y, values):
    # the homomorphism law over every pair of points, as hat_extension
    # tested it
    return all(values[a | b] == y.join(values[a], values[b])
               for a in h.points for b in h.points)


def test_hom_law_on_generators_matches_the_pairwise_law():
    y2, y3 = FinJoinSemilattice.chain(2), FinJoinSemilattice.chain(3)
    cases = [(p, y2) for n in range(1, 6) for p in all_labeled_posets(n)]
    cases += [(p, y3) for p in _seeded_posets(23, 8)]
    for p, y in cases:
        f = {name: min(r, y.n - 1) for name, r in zip(p.labels, ranks(p).by_index)}
        h = build_hyperspace(p)
        values, rep = hat_extension(h, y, f)
        # into a semilattice both laws hold, so both verdicts are true
        assert rep.passed, p
        assert _is_hom_pairwise(h, y, values), p


def homs_by_join_all(h, y, fi):
    # hat_extension's enumeration as it was: for each map of the elements
    # into y, f recovered by a join over each principal downset, then the
    # join over each point, each a fold through the join table
    def join_all(values):
        it = iter(values)
        out = next(it)
        for v in it:
            out = y.join_table[out][v]
        return out

    p = h.base
    homs = set()
    for assign in product(range(y.n), repeat=p.n):
        if all(join_all(assign[j] for j in range(p.n) if leq(p, j, i)) == fi[i]
               for i in range(p.n)):
            homs.add(tuple(join_all(assign[i] for i in range(p.n) if m >> i & 1)
                           for m in h.points))
    return homs


def test_enumerated_homs_match_the_join_all_enumeration():
    y2, y3 = FinJoinSemilattice.chain(2), FinJoinSemilattice.chain(3)
    cases = [(p, y3, [min(r, 2) for r in ranks(p).by_index])
             for n in range(1, 5) for p in all_labeled_posets(n)]
    # criterion 8's five-element draws at seeds 0 and 1
    five = all_labeled_posets(5)
    for seed in (0, 1):
        rng = random.Random(seed)
        for p in [five[rng.randrange(len(five))] for _ in range(80)]:
            cases.append((p, y2, [min(r, 1) for r in ranks(p).by_index]))
    # every map into y3 on at most 3 elements, increasing or not
    cases += [(p, y3, list(fi)) for n in range(1, 4) for p in all_labeled_posets(n)
              for fi in product(range(3), repeat=n)]
    sizes = {}
    for p, y, fi in cases:
        h = build_hyperspace(p)
        homs = _enumerated_homs(h, y, fi)
        assert homs == homs_by_join_all(h, y, fi), (p, fi)
        sizes[len(homs)] = sizes.get(len(homs), 0) + 1
    # a map recovering f on the generators is their join extension: at most one
    assert set(sizes) == {0, 1} and sizes[0] > 100


def test_hat_rejects_non_increasing_f():
    p = chain(2)
    y = FinJoinSemilattice.chain(2)
    with pytest.raises(HyperspaceError, match="increasing"):
        hat_extension(build_hyperspace(p), y, {"0": 1, "1": 0})


def test_hat_rejects_f_outside_the_semilattice():
    p = chain(2)
    for y, f in ((FinJoinSemilattice.chain(2), {"0": 0, "1": 2}),
                 (FinJoinSemilattice.chain(2), {"0": -1, "1": 0}),
                 (FinJoinSemilattice.chain(0), {"0": -1, "1": -1}),
                 # f's values are indices into Y: a bool, a float or a label of Y is none
                 *((FinJoinSemilattice.chain(2), {"0": bad, "1": 1}) for bad in (True, False, "0", 0.0))):
        with pytest.raises(HyperspaceError, match="outside the semilattice"):
            hat_extension(build_hyperspace(p), y, f)


def test_semilattice_validation():
    # each table breaks exactly one law: a left-zero band is idempotent and
    # associative; rock-paper-scissors is idempotent and commutative; the
    # 2-chain's join is a semilattice, but not over an antichain
    cases = [(chain(2), ((1, 1), (1, 1)), "join must be idempotent"),
             (chain(2), ((0, 0), (1, 1)), "join must be commutative"),
             (antichain(3), ((0, 1, 0), (1, 1, 2), (0, 2, 2)), "join must be associative"),
             (antichain(2), ((0, 1), (1, 1)), "induced order disagrees with carrier order")]
    for carrier, table, message in cases:
        with pytest.raises(HyperspaceError) as err:
            FinJoinSemilattice(carrier, table)
        assert str(err.value) == message
    for p, pair in ((poset_from_covers(["a", "b"], []), "(0,1)"),  # no join of a,b exists
                    (poset_from_covers(["a", "b", "c"], [("a", "b")]), "(0,2)")):
        with pytest.raises(HyperspaceError) as err:
            FinJoinSemilattice.from_poset(p)
        assert str(err.value) == f"no least upper bound for {pair}"


def test_semilattice_checks_idempotence_and_commutativity_first():
    # associativity breaks at (0,1) and commutativity at (1,2): commutativity
    # is checked over the whole table first, so its failure is named
    table = ((0, 1, 0), (1, 1, 2), (0, 1, 2))
    assert triple_scan_laws(table) == ("associative", (0, 1))
    assert join_table_laws(table) == (("commutative", (1, 2)), None)
    with pytest.raises(HyperspaceError, match="^join must be commutative$"):
        FinJoinSemilattice(antichain(3), table)


# -- join tables: the law check and least upper bounds on up masks -----------

def triple_scan_laws(table):
    """The first broken law of a join table by the direct n^3 scan: for
    each i, idempotence, then for each j commutativity and associativity
    at every k.  Returns (law, witness) or None; the witness of
    associativity is the (i, j) of the first failing triple."""
    n = len(table)
    for i in range(n):
        if table[i][i] != i:
            return "idempotent", i
        for j in range(n):
            if table[i][j] != table[j][i]:
                return "commutative", (i, j)
            for k in range(n):
                if table[table[i][j]][k] != table[i][table[j][k]]:
                    return "associative", (i, j)
    return None


def lub_table_oracle(poset):
    """The join table of a poset by searching, for each pair, the upper
    bounds for one below all the others; or the first pair without one."""
    n = poset.n
    table = []
    for i in range(n):
        row = []
        for j in range(n):
            ubs = [k for k in range(n) if leq(poset, i, k) and leq(poset, j, k)]
            lubs = [k for k in ubs if all(leq(poset, k, m) for m in ubs)]
            if len(lubs) != 1:
                return f"no least upper bound for ({i},{j})"
            row.append(lubs[0])
        table.append(tuple(row))
    return tuple(table)


def _assert_laws_match_the_triple_scan(table):
    broken, up = join_table_laws(table)
    oracle = triple_scan_laws(table)
    assert (broken is None) == (oracle is None), table
    if broken is None or broken[0] != "idempotent":
        assert broken == oracle, table
    if up is not None:
        assert up == [sum(1 << z for z in range(len(row)) if row[z] == z)
                      for row in table], table
    return broken


def test_join_laws_match_the_triple_scan_on_all_small_tables():
    # every commutative, idempotent table on 1 to 4 elements: 4,126 tables
    verdicts = {}
    for n in range(1, 5):
        pairs = [(i, j) for i in range(n) for j in range(i + 1, n)]
        for values in product(range(n), repeat=len(pairs)):
            table = [[i if i == j else None for j in range(n)] for i in range(n)]
            for (i, j), v in zip(pairs, values):
                table[i][j] = table[j][i] = v
            broken = _assert_laws_match_the_triple_scan(tuple(map(tuple, table)))
            law = None if broken is None else broken[0]
            verdicts[law] = verdicts.get(law, 0) + 1
    assert sum(verdicts.values()) == 4126
    assert set(verdicts) == {None, "associative"}


def test_join_laws_match_the_triple_scan_near_semilattices():
    # random tables are almost never associative, so take the join table of
    # every labeled join semilattice on at most 5 elements, and every copy
    # of it with one entry changed symmetrically
    semilattices = laws_broken = 0
    for n in range(6):
        for p in all_labeled_posets(n):
            table = lub_table_oracle(p)
            if isinstance(table, str):
                continue
            semilattices += 1
            assert _assert_laws_match_the_triple_scan(table) is None
            for i in range(n):
                for j in range(i, n):
                    for v in range(n):
                        if v == table[i][j]:
                            continue
                        rows = [list(row) for row in table]
                        rows[i][j] = rows[j][i] = v
                        broken = _assert_laws_match_the_triple_scan(tuple(map(tuple, rows)))
                        if i == j:
                            assert broken == ("idempotent", i)
                        laws_broken += broken is not None
    assert semilattices > 0 and laws_broken > 0


def test_from_poset_matches_the_lub_search_on_all_small_posets():
    count = 0
    for n in range(6):
        for p in all_labeled_posets(n):
            count += 1
            expected = lub_table_oracle(p)
            if isinstance(expected, str):
                with pytest.raises(HyperspaceError) as err:
                    FinJoinSemilattice.from_poset(p)
                assert str(err.value) == expected
            else:
                assert FinJoinSemilattice.from_poset(p).join_table == expected
    assert count == 4474


# -- Vietoris density --------------------------------------------------------

def scan_oracle(u, vs, horizon=2000):
    """Independent decision by scanning naturals for each pick."""
    for v in vs:
        if not any(u.contains(n) and v.contains(n) for n in range(horizon)):
            return False
    if not vs:
        return any(u.contains(n) for n in range(horizon))
    return True


def test_density_whole_space_and_cofinite():
    m = OnePointModel()
    u = Descriptor.cofinite_complement(())  # the whole space
    v = Descriptor.cofinite_complement({0, 1, 2})
    w = vietoris_density_witness(m, u, [v])
    assert w == [3]


def test_density_disjoint_is_empty():
    m = OnePointModel()
    u = Descriptor.finite({1, 2})
    v = Descriptor.finite({5})
    assert vietoris_density_witness(m, u, [v]) is None


def test_density_two_cofinite_constraints():
    m = OnePointModel()
    u = Descriptor.cofinite_complement({0})
    vs = [Descriptor.cofinite_complement({1}), Descriptor.cofinite_complement({2})]
    w = vietoris_density_witness(m, u, vs)
    assert w is not None and len(w) <= 2
    for v in vs:
        assert any(v.contains(n) for n in w)
    assert all(u.contains(n) for n in w)


def test_density_matches_scan_oracle():
    rng = random.Random(9)
    m = OnePointModel()
    for _ in range(200):
        def rand_desc():
            if rng.random() < 0.5:
                return Descriptor.finite(rng.sample(range(30), rng.randint(0, 4)))
            return Descriptor.cofinite_complement(rng.sample(range(30), rng.randint(0, 4)))
        u = rand_desc()
        vs = [rand_desc() for _ in range(rng.randint(0, 4))]
        got = vietoris_density_witness(m, u, vs)
        assert (got is not None) == scan_oracle(u, vs)
        if got is not None:
            assert all(u.contains(n) for n in got)
            for v in vs:
                assert any(v.contains(n) for n in got)


def test_density_horizon_enforced():
    m = OnePointModel(horizon=10)
    with pytest.raises(HyperspaceError, match="horizon"):
        vietoris_density_witness(m, Descriptor.finite({11}), [])


def test_descriptor_validation():
    with pytest.raises(HyperspaceError):
        Descriptor.finite({-1})
    # a bool is an int to isinstance, but not a natural
    for bad in (True, False):
        for make in (Descriptor.finite, Descriptor.cofinite_complement):
            with pytest.raises(HyperspaceError, match="members must be naturals"):
                make([bad])
    with pytest.raises(HyperspaceError, match="members must be naturals"):
        vietoris_density_witness(OnePointModel(), Descriptor.finite([True]), [])


# -- structural sweep over small posets ---------------------------------------

def test_structure_sweep_posets_up_to_4():
    for n in range(1, 5):
        for p in all_labeled_posets(n):
            h = build_hyperspace(p)  # raises if any structural identity fails
            hp, fam = kplus_selector(h)
            assert selector_axioms_check(hp, fam).passed


def test_rank_discrepancy_report():
    rep = one_point_rank_discrepancy(5)
    assert rep["hyperspace_rank_sup_plus_one"] == 6
    assert rep["hyperspace_rank_sup_only"] == 5
    assert "flag" in rep


def test_dot_output():
    dot = hyperspace_to_dot(build_hyperspace(antichain(2)))
    assert "digraph" in dot and "{0,1}" in dot
