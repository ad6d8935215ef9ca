import copy
import pickle
import random
from itertools import combinations, permutations
from typing import NamedTuple

import pytest

from ordtop.acceptance import _ranks_rise_along_covers
from ordtop.ordinal import CheckReport, Ordinal, ord_pow, OMEGA
from ordtop.poset import (
    MAX_DOWNSETS,
    MAX_ELEMENTS,
    FinitePoset,
    PosetError,
    _bits,
    _union,
    all_downsets,
    all_labeled_posets,
    downset_labels,
    downset_lattice,
    inclusion_order,
    kw_rank,
    poset_from_covers,
    poset_from_json,
    poset_to_dot,
    random_poset,
    ranks,
    width,
    zaguia_verify,
    zaguia_verify_ranks,
)


def chain(k):
    return poset_from_covers([str(i) for i in range(k)],
                             [(str(i), str(i + 1)) for i in range(k - 1)])


def antichain(k):
    return poset_from_covers([str(i) for i in range(k)], [])


def vee():
    return poset_from_covers(["a", "b", "c"], [("a", "c"), ("b", "c")])


# -- queries only the tests use ------------------------------------------

def lt(poset, i, j):
    """i < j in ``poset``."""
    return bool(poset.below[j] >> i & 1)


def poset_to_json(poset):
    """The poset in the JSON schema ``poset_from_json`` reads."""
    covers = [[poset.labels[i], poset.labels[j]] for (i, j) in poset.covers()]
    return {"elements": list(poset.labels), "covers": covers}


def mask_of(poset, names):
    """Bitmask of the named elements; an unknown name raises."""
    mask = 0
    for name in names:
        mask |= 1 << poset.index(name)
    return mask


def close_down(poset, mask):
    """The downward closure of ``mask``."""
    return mask | _union(poset.below, mask)


def is_downset(poset, mask):
    return close_down(poset, mask) == mask


def min_of(poset, mask):
    """Bitmask of the minimal elements within ``mask``."""
    out = 0
    for i in _bits(mask):
        if not (poset.below[i] & mask):
            out |= 1 << i
    return out


def principal_sets(poset, name):
    """Member names of the principal ideal and of the principal filter of
    an element."""
    i = poset.index(name)
    return poset.names(poset.down_mask(i)), poset.names(poset.up_mask(i))


class Extremal(NamedTuple):
    max: frozenset
    min: frozenset
    is_antichain: bool


def extremal(poset, names):
    mask = mask_of(poset, names)
    max_mask = poset.max_of(mask)
    min_mask = min_of(poset, mask)
    antichain = max_mask == mask and min_mask == mask
    return Extremal(poset.names(max_mask), poset.names(min_mask), antichain)


# -- oracles -----------------------------------------------------------

def listed_downsets(poset):
    """The downset masks in the order ``all_downsets`` gives them: the list
    it built before it kept each downset's maxima."""
    below = poset.below
    out = [0]
    for i in sorted(range(poset.n), key=lambda i: below[i].bit_count()):
        out += [m | 1 << i for m in out if not below[i] & ~m]
    return out


def recursive_downsets(poset):
    """Depth-first downset enumeration in the linear extension that
    ``all_downsets`` uses: the enumeration it replaced."""
    order = sorted(range(poset.n), key=lambda i: poset.below[i].bit_count())
    out = []

    def rec(k, mask):
        if k == len(order):
            out.append(mask)
            return
        i = order[k]
        rec(k + 1, mask)
        if not (poset.below[i] & ~mask):
            rec(k + 1, mask | (1 << i))

    rec(0, 0)
    return out


def antichain_masks(poset):
    """All antichains, the empty one included, depth first with element 0
    decided first and absent before present: the enumeration that the
    maxima of ``all_downsets`` replaced in the skeleton checks."""
    comp = [b | a for b, a in zip(poset.below, poset.above)]
    out = []

    def rec(i, mask):
        if i == poset.n:
            out.append(mask)
            return
        rec(i + 1, mask)
        if not (comp[i] & mask):
            rec(i + 1, mask | (1 << i))

    rec(0, 0)
    return out


def brute_downsets(poset):
    """Filter all 2^n subsets by downward closure."""
    out = []
    for mask in range(1 << poset.n):
        if all(poset.below[i] & ~mask == 0 for i in range(poset.n) if mask >> i & 1):
            out.append(mask)
    return out


def reachable_down(poset, i):
    """Reflexive-transitive reachability in the cover DAG, going down."""
    covers = poset.covers()
    seen = {i}
    frontier = [i]
    while frontier:
        j = frontier.pop()
        for a, b in covers:
            if b == j and a not in seen:
                seen.add(a)
                frontier.append(a)
    return seen


def longest_chain_below(poset, i):
    best = 0
    for j in range(poset.n):
        if lt(poset, j, i):
            best = max(best, longest_chain_below(poset, j) + 1)
    return best


def brute_max_antichain(poset):
    best = 0
    for r in range(poset.n, 0, -1):
        for combo in combinations(range(poset.n), r):
            if all(not lt(poset, a, b) and not lt(poset, b, a)
                   for a, b in combinations(combo, 2)):
                return r
    return best


def mis_max_antichain(poset):
    """Maximum independent set of the comparability graph, by branching on
    a vertex with a comparability left; exponential, and it recurses once
    per element (the search ``width`` used before König's theorem)."""
    adj = [b | a for b, a in zip(poset.below, poset.above)]

    def mis(mask):
        if not mask:
            return 0
        pick = -1
        for i in _bits(mask):
            if adj[i] & mask:
                pick = i
                break
        if pick < 0:
            return mask.bit_count()
        without = mis(mask & ~(1 << pick))
        with_it = 1 + mis(mask & ~(1 << pick) & ~adj[pick])
        return max(without, with_it)

    return mis(poset.full_mask())


def brute_kw_rank(poset):
    """Longest strictly increasing chain of nonempty downsets below each."""
    downs = [m for m in brute_downsets(poset) if m]
    rank = {}
    for m in sorted(downs, key=lambda x: bin(x).count("1")):
        preds = [d for d in downs if d != m and d & ~m == 0]
        rank[m] = max((rank[d] + 1 for d in preds), default=0)
    return rank


# -- construction -------------------------------------------------------

def test_one_element_antichain():
    p = poset_from_covers(["a"], [])
    assert p.n == 1 and p.below == (0,)


def test_vee_shape():
    p = vee()
    assert lt(p, p.index("a"), p.index("c"))
    assert lt(p, p.index("b"), p.index("c"))
    assert not lt(p, p.index("a"), p.index("b"))


def test_cycle_rejected():
    with pytest.raises(PosetError, match="cycle"):
        poset_from_covers(["a", "b"], [("a", "b"), ("b", "a")])


def test_duplicate_and_unknown_names_rejected():
    with pytest.raises(PosetError, match="duplicate"):
        poset_from_covers(["a", "a"], [])
    with pytest.raises(PosetError, match="unknown"):
        poset_from_covers(["a"], [("a", "z")])


def test_transitive_closure_of_covers():
    p = chain(4)
    assert lt(p, p.index("0"), p.index("3"))


def test_json_roundtrip_and_dot():
    p = vee()
    assert poset_from_json(poset_to_json(p)).below == p.below
    dot = poset_to_dot(p)
    assert '"a" -> "c"' in dot and "rank=same" in dot


def dot_by_rank_scans(poset):
    """``poset_to_dot`` as it was before it grouped the elements in one
    pass: one scan of all the elements per rank."""
    by_index = ranks(poset).by_index
    lines = ["digraph poset {", "  rankdir=BT;"]
    for r in sorted(set(by_index)):
        same = " ".join(f'"{poset.labels[i]}";' for i in range(poset.n) if by_index[i] == r)
        lines.append(f"  {{ rank=same; {same} }}")
    lines += [f'  "{poset.labels[i]}" -> "{poset.labels[j]}";' for i, j in poset.covers()]
    return "\n".join(lines + ["}"]) + "\n"


def test_dot_matches_the_per_rank_scans():
    # labeled and random posets, shuffled so that ranks interleave in index
    # order, and downset lattices, whose labels render on first read
    rng = random.Random(46)
    posets = [p for n in range(1, 5) for p in all_labeled_posets(n)]
    posets += [random_poset(rng, rng.choice([8, 12, 16]), 0.3) for _ in range(50)]
    posets += [downset_lattice(p) for p in posets[-20:]]
    for p in posets:
        assert poset_to_dot(p) == dot_by_rank_scans(p), p


# -- principal sets ------------------------------------------------------

def test_principal_sets_antichain():
    p = antichain(3)
    down, up = principal_sets(p, "1")
    assert down == {"1"} and up == {"1"}


def test_principal_sets_chain():
    p = poset_from_covers(["a", "b", "c"], [("a", "b"), ("b", "c")])
    down, up = principal_sets(p, "b")
    assert down == {"a", "b"}
    assert up == {"b", "c"}


def test_principal_sets_match_reachability_oracle():
    rng = random.Random(1)
    for _ in range(40):
        p = random_poset(rng, 7)
        for i in range(p.n):
            down, _ = principal_sets(p, p.labels[i])
            assert down == {p.labels[j] for j in reachable_down(p, i)}


def test_principal_sets_unknown_element():
    with pytest.raises(PosetError):
        principal_sets(antichain(2), "z")


# -- extremal -------------------------------------------------------------

def test_extremal_empty():
    r = extremal(antichain(3), [])
    assert r.max == frozenset() and r.min == frozenset() and r.is_antichain


def test_extremal_chain_ends():
    p = poset_from_covers(["a", "b", "c"], [("a", "b"), ("b", "c")])
    r = extremal(p, ["a", "c"])
    assert r.max == {"c"} and r.min == {"a"} and not r.is_antichain


def test_extremal_matches_pairwise_scan():
    rng = random.Random(2)
    for _ in range(60):
        p = random_poset(rng, 6)
        members = [p.labels[i] for i in range(p.n) if rng.random() < 0.5]
        r = extremal(p, members)
        idxs = [p.index(m) for m in members]
        oracle_max = {p.labels[i] for i in idxs
                      if not any(lt(p, i, j) for j in idxs)}
        oracle_min = {p.labels[i] for i in idxs
                      if not any(lt(p, j, i) for j in idxs)}
        assert r.max == oracle_max and r.min == oracle_min
        assert r.is_antichain == all(not lt(p, a, b) and not lt(p, b, a)
                                     for a, b in combinations(idxs, 2))


# -- ranks ----------------------------------------------------------------

def test_ranks_antichain():
    r = ranks(antichain(5))
    assert set(r.elem_rank.values()) == {0} and r.poset_rank == 1


def test_ranks_chain():
    r = ranks(chain(4))
    assert [r.elem_rank[str(i)] for i in range(4)] == [0, 1, 2, 3]
    assert r.poset_rank == 4


def test_ranks_match_longest_path_oracle():
    rng = random.Random(3)
    for _ in range(30):
        p = random_poset(rng, 8)
        r = ranks(p)
        for i in range(p.n):
            assert r.elem_rank[p.labels[i]] == longest_chain_below(p, i)


def test_ranks_empty_poset():
    assert ranks(FinitePoset((), ())).poset_rank == 0


# -- width ------------------------------------------------------------------

def test_width_chain_and_antichain():
    assert width(chain(5)) == 1
    assert width(antichain(6)) == 6


def test_width_matches_exhaustive_antichain():
    rng = random.Random(4)
    for _ in range(25):
        p = random_poset(rng, 10, edge_prob=rng.choice([0.15, 0.3, 0.5]))
        assert width(p) == brute_max_antichain(p)


def test_width_matches_independent_set_search():
    assert width(FinitePoset((), ())) == mis_max_antichain(FinitePoset((), ())) == 0
    for n in range(1, 6):
        for p in all_labeled_posets(n):
            assert width(p) == mis_max_antichain(p), p
    rng = random.Random(9)
    for _ in range(300):
        p = random_poset(rng, rng.randint(1, 14), edge_prob=rng.choice([0.1, 0.25, 0.4, 0.6]))
        assert width(p) == mis_max_antichain(p), p


def test_width_of_many_disjoint_chains():
    # the independent-set search branches twice per 2-chain: 2^44 leaves here
    names = [f"{side}{i}" for side in "ab" for i in range(44)]
    p = poset_from_covers(names, [(f"a{i}", f"b{i}") for i in range(44)])
    assert width(p) == 44


# -- downset lattice ----------------------------------------------------------

def test_downset_lattice_antichain_is_boolean():
    lat = downset_lattice(antichain(3))
    assert lat.n == 8


def test_downset_lattice_chain():
    lat = downset_lattice(chain(3))
    assert lat.n == 4
    assert width(lat) == 1


def test_inclusion_order_labels_and_order():
    p = antichain(2)
    order = inclusion_order(p, [0b01, 0b10, 0b11])
    assert order.labels == ("{0}", "{1}", "{0,1}")
    assert [(i, j) for i in range(3) for j in range(3) if lt(order, i, j)] == [(0, 2), (1, 2)]
    assert downset_labels(p, [0]) == ["{}"]
    assert downset_lattice(p).labels == ("{}",) + order.labels


def test_inclusion_order_labels_act_as_their_tuple():
    p = poset_from_covers(["b", "a", "c"], [("b", "c")])
    lat = downset_lattice(p)
    masks = sorted(all_downsets(p), key=lambda m: (m.bit_count(), m))  # as downset_lattice orders them
    labels, strings = lat.labels, tuple(downset_labels(p, masks))
    assert type(labels) is tuple and len(labels) == len(strings) == 6
    assert labels == strings and strings == labels and not labels != strings
    assert labels != list(strings) and hash(labels) == hash(strings)
    assert list(labels) == list(strings) and labels[1:4] == strings[1:4]
    assert labels[-1] == "{a,b,c}" and "{a,b}" in labels and labels.count("{b}") == 1
    assert [labels.index(s) for s in strings] == list(range(6))
    assert ("x",) + labels == ("x",) + strings
    with pytest.raises(ValueError):
        labels.index("{c}")  # c is above b: no downset holds c alone
    with pytest.raises(PosetError, match="unknown element"):
        lat.index("{c}")
    assert lat == FinitePoset(strings, lat.below) and hash(lat) == hash(FinitePoset(strings, lat.below))
    assert lat.labels == downset_lattice(p).labels


def test_inclusion_order_refuses_duplicate_names():
    # the same downset twice: equal masks, and so equal names
    p = antichain(2)
    with pytest.raises(PosetError, match="^duplicate element name$"):
        inclusion_order(p, [0b01, 0b10, 0b01])
    # names that render alike from distinct downsets: a comma inside a name,
    # or the empty name beside the empty set; both are refused on the strings
    with pytest.raises(PosetError, match="^duplicate element name$"):
        downset_lattice(poset_from_covers(["a,b", "a", "b"], []))
    with pytest.raises(PosetError, match="^duplicate element name$"):
        downset_lattice(poset_from_covers(["", "a"], []))
    # without the empty set the empty name renders apart: {}, {a}, {,a}
    assert list(inclusion_order(poset_from_covers(["", "a"], []), [1, 2, 3]).labels) == [
        "{}", "{a}", "{,a}"]
    # a comma alone does not collide when no two sets render alike
    assert list(downset_lattice(poset_from_covers(["a,b"], [])).labels) == ["{}", "{a,b}"]


def test_downset_lattice_fence_matches_subset_filter():
    fence = poset_from_covers(["a", "b", "c", "d"],
                              [("a", "b"), ("c", "b"), ("c", "d")])
    assert downset_lattice(fence).n == len(brute_downsets(fence))


def test_all_downsets_match_filter_oracle():
    rng = random.Random(5)
    for _ in range(40):
        p = random_poset(rng, 7)
        assert sorted(all_downsets(p)) == sorted(brute_downsets(p))


def limit_posets():
    """Seeded posets up to both limits: random ones of every size up to
    MAX_ELEMENTS that stay within MAX_DOWNSETS, plus the extreme shapes."""
    rng = random.Random(11)
    out = [chain(MAX_ELEMENTS), antichain(11)]
    for n in range(6, MAX_ELEMENTS + 1):
        for prob in (0.2, 0.35, 0.5):
            p = random_poset(rng, n, prob)
            if len(recursive_downsets(p)) <= MAX_DOWNSETS:
                out.append(p)
    return out


def test_all_downsets_match_the_recursive_oracle():
    for p in [q for n in range(6) for q in all_labeled_posets(n)] + limit_posets():
        got = all_downsets(p)
        assert len(got) == len(set(got))
        assert sorted(got) == sorted(recursive_downsets(p)), p
        assert list(got) == listed_downsets(p), p
        assert all(top == p.max_of(m) for m, top in got.items()), p


def test_antichains_are_the_maxima_of_downsets_in_oracle_order():
    from ordtop.spaceterm import _antichains
    for p in [q for n in range(6) for q in all_labeled_posets(n)] + limit_posets():
        pairs = _antichains(p)
        assert [a for a, _ in pairs] == [m for m in antichain_masks(p) if m], p
        assert all(close_down(p, a) == d for a, d in pairs)


def test_downset_bound_enforced():
    # MAX_ELEMENTS: a chain has few downsets, so only its length is refused
    assert len(all_downsets(chain(MAX_ELEMENTS))) == MAX_ELEMENTS + 1
    with pytest.raises(PosetError, match=f"21 elements, over MAX_ELEMENTS = {MAX_ELEMENTS}"):
        all_downsets(chain(MAX_ELEMENTS + 1))
    # MAX_DOWNSETS: 2^11 downsets for an 11-element antichain; a top over it
    # adds one more
    assert MAX_DOWNSETS == 1 << 11
    assert len(all_downsets(antichain(11))) == MAX_DOWNSETS
    names = [str(i) for i in range(12)]
    topped = poset_from_covers(names, [(str(i), "11") for i in range(11)])
    for p in (topped, antichain(12), antichain(MAX_ELEMENTS)):
        with pytest.raises(PosetError, match=f"more than MAX_DOWNSETS = {MAX_DOWNSETS}"):
            all_downsets(p)
    # every enumerating caller goes through the limits; kw_rank enumerates
    # nothing, it ranks the table all_downsets gives it
    for fn in (downset_lattice, zaguia_verify):
        with pytest.raises(PosetError, match="MAX_DOWNSETS"):
            fn(antichain(12))
        with pytest.raises(PosetError, match="MAX_ELEMENTS"):
            fn(chain(MAX_ELEMENTS + 1))


def test_downset_type_validates_closure():
    p = chain(3)
    assert mask_of(p, []) == 0
    assert mask_of(p, ["0", "1"]) == 0b011
    assert not is_downset(p, mask_of(p, ["2"]))
    assert is_downset(p, mask_of(p, ["1", "0"]))
    with pytest.raises(PosetError, match="unknown element"):
        mask_of(p, ["0", "z"])


# -- kw_rank ---------------------------------------------------------------

def test_kw_rank_singleton():
    p = antichain(1)
    r = kw_rank(all_downsets(p))
    assert r == {1: 0}


def test_kw_rank_antichain_full_set():
    p = antichain(4)
    r = kw_rank(all_downsets(p))
    assert r[p.full_mask()] == 3


def test_kw_rank_chain_top():
    p = chain(5)
    r = kw_rank(all_downsets(p))
    assert r[p.full_mask()] == 4


def test_kw_rank_matches_longest_chain_oracle():
    rng = random.Random(6)
    for _ in range(25):
        p = random_poset(rng, 6)
        assert kw_rank(all_downsets(p)) == brute_kw_rank(p)


def rank_rises_on_all_pairs(rank):
    """Strict monotonicity of a rank map on downsets, over every pair:
    the scan criterion 7 made before it walked lower covers."""
    return all(rank[a] < rank[b] for a in rank for b in rank if a != b and a & ~b == 0)


def test_kw_rank_monotone():
    rng = random.Random(7)
    for _ in range(25):
        p = random_poset(rng, 6)
        assert rank_rises_on_all_pairs(kw_rank(all_downsets(p)))


def ranks_rise_along_covers_by_max_of(p, rank):
    """Criterion 7's cover check before it read the maxima from the
    downset table: each downset's maxima found again by ``max_of``."""
    for mask, r in rank.items():
        rest = p.max_of(mask)
        while rest:
            low = rest & -rest
            if low != mask and not rank[mask ^ low] < r:
                return False
            rest ^= low
    return True


def test_rank_rise_along_covers_matches_the_all_pairs_scan():
    rejected = 0
    for n in range(1, 5):
        for p in all_labeled_posets(n):
            downsets = all_downsets(p)
            rank = kw_rank(downsets)
            assert _ranks_rise_along_covers(rank, downsets) and rank_rises_on_all_pairs(rank), p
            assert ranks_rise_along_covers_by_max_of(p, rank), p
            # plant one non-monotone rank: a downset no higher than one of
            # its lower covers, or the full set no higher than its subsets
            for mask in rank:
                planted = dict(rank)
                planted[mask] = 0 if mask.bit_count() > 1 else max(rank.values())
                if planted == rank:
                    continue  # the one-element poset has nothing to break
                assert not _ranks_rise_along_covers(planted, downsets), (p, mask)
                assert not ranks_rise_along_covers_by_max_of(p, planted), (p, mask)
                assert not rank_rises_on_all_pairs(planted), (p, mask)
                rejected += 1
    assert rejected == 1545


def test_kw_rank_empty_poset_rejected():
    with pytest.raises(PosetError):
        kw_rank(all_downsets(FinitePoset((), ())))


# -- downset identities --------------------------------------------------------

def test_downsets_equal_down_of_max_exhaustive():
    for p in all_labeled_posets(4):
        for m in all_downsets(p):
            if m:
                assert close_down(p, p.max_of(m)) == m


def test_final_sets_are_up_of_min():
    # finite form: every nonempty final subset equals the upset of its minima
    for p in all_labeled_posets(4):
        full = p.full_mask()
        for m in all_downsets(p):
            final = full & ~m
            if final:
                up = 0
                for i in range(p.n):
                    if min_of(p, final) >> i & 1:
                        up |= p.up_mask(i)
                assert up == final


# -- zaguia_verify --------------------------------------------------------------

def test_zaguia_chain_passes():
    rep = zaguia_verify(chain(4))
    assert rep.passed and rep.witness is None
    assert rep.data["claims"]["claim1_literal"] and rep.data["claims"]["claim2_literal"]


def test_zaguia_antichain_literal_reading_fails_but_gating_passes():
    rep = zaguia_verify(antichain(4))
    assert rep.passed and rep.witness is None
    # disjoint pieces break the unshifted reading; the report records it
    assert not rep.data["claims"]["claim1_literal"]
    assert not rep.data["claims"]["claim2_literal"]
    # two rank-0 points whose union has rank 1 break it
    r = kw_rank(all_downsets(antichain(4)))
    assert r[0b11] > r[0b01] + r[0b10]


def test_zaguia_all_labeled_posets_up_to_4():
    for n in range(1, 5):
        for p in all_labeled_posets(n):
            assert zaguia_verify(p).passed


def oracle_zaguia(poset, kw):
    """The union-rank check as it was before it scanned each unordered pair
    once: claim 1 over the full square of downsets in row-major order, and
    claim 2 looking up each maximum's principal-downset rank per downset."""
    masks = list(kw)
    claim1 = claim1_literal = True
    claim2 = claim2_literal = True
    counterexample = None

    for a in masks:
        ra = kw[a]
        for b in masks:
            u = a | b
            ru = kw[u]
            if ru > kw[b] + ra + 1:
                claim1 = False
                if counterexample is None:
                    counterexample = (poset.names(a), poset.names(b))
            if ru > kw[b] + ra:
                claim1_literal = False

    for m in masks:
        parts = [kw[poset.down_mask(i)] for i in _bits(poset.max_of(m))]
        if kw[m] > sum(parts) + len(parts) - 1:
            claim2 = False
            if counterexample is None:
                counterexample = (poset.names(m), poset.names(poset.max_of(m)))
        if kw[m] > sum(parts):
            claim2_literal = False

    elem_ranks = ranks(poset)
    claim3 = True
    for i in range(poset.n):
        r = elem_ranks.by_index[i]
        k = Ordinal.from_int(kw[poset.down_mask(i)])
        if r == 0:
            if not k.is_zero:
                claim3 = False
        elif not k < ord_pow(OMEGA, Ordinal.from_int(r)):
            claim3 = False
        if not claim3 and counterexample is None:
            counterexample = (poset.names(poset.down_mask(i)), frozenset({poset.labels[i]}))
            break
    k_rank = Ordinal.from_int(max(kw.values()) + 1)
    if not k_rank <= ord_pow(OMEGA, Ordinal.from_int(elem_ranks.poset_rank)):
        claim3 = False
        if counterexample is None:
            counterexample = (poset.names(poset.full_mask()), frozenset())

    witness = None if counterexample is None else [sorted(d) for d in counterexample]
    return CheckReport("zaguia", claim1 and claim2 and claim3, witness, {
        "claims": {
            "claim1": claim1,
            "claim2": claim2,
            "claim3": claim3,
            "claim1_literal": claim1_literal,
            "claim2_literal": claim2_literal,
        },
        "poset": f"n={poset.n}, downsets={len(masks)}",
    })


def test_zaguia_claim3_ordinal_bound_spot_check():
    # on a chain the principal downsets are ranked as their tops are
    p = chain(3)
    kw = kw_rank(all_downsets(p))
    principal = [kw[p.down_mask(i)] for i in range(p.n)]
    assert principal == [0, 1, 2] == list(ranks(p).by_index)


def test_zaguia_matches_the_full_square_oracle():
    # every labeled poset up to 4 elements, and criterion 7's random shapes
    rng = random.Random(18)
    posets = [p for n in range(1, 5) for p in all_labeled_posets(n)]
    posets += [random_poset(rng, rng.choice([6, 7, 8]), rng.choice([0.25, 0.35, 0.5]))
               for _ in range(200)]
    for p in posets:
        assert zaguia_verify(p).to_json() == oracle_zaguia(p, kw_rank(all_downsets(p))).to_json(), p


def doctored(poset, changes):
    """``kw_rank`` of ``poset`` with the ranks in ``changes`` put in, keyed
    by mask; a new key goes last."""
    kw = kw_rank(all_downsets(poset))
    kw.update(changes)
    return kw


def maxima_by_max_of(poset, kw):
    """The maxima of every key of ``kw``, a downset or not, by ``max_of``."""
    return {m: poset.max_of(m) for m in kw}


def test_zaguia_witness_is_the_first_failing_pair_in_any_key_order():
    # the full set ranked 5 breaks claim 1 on every pair of pieces whose
    # ranks sum to 3 or less, and with it claim 2; claim 1 names the witness
    p = antichain(3)
    kw = doctored(p, {0b111: 5})
    rng = random.Random(3)
    orders = [list(kw), list(kw)[::-1]] + [rng.sample(list(kw), len(kw)) for _ in range(40)]
    for order in orders:
        table = {m: kw[m] for m in order}
        rep = zaguia_verify_ranks(p, table, maxima_by_max_of(p, table)).to_json()
        assert rep == oracle_zaguia(p, table).to_json(), order
        assert not rep["claims"]["claim1"] and not rep["claims"]["claim2"]
    # in rank order {0} comes before {1,2}; reversed, {1,2} comes first
    # and is named first although it is the later downset of kw_rank
    assert zaguia_verify_ranks(p, kw, maxima_by_max_of(p, kw)).witness == [["0"], ["1", "2"]]
    reverse = {m: kw[m] for m in reversed(list(kw))}
    assert list(kw).index(0b110) > list(kw).index(0b101)
    assert (zaguia_verify_ranks(p, reverse, maxima_by_max_of(p, reverse)).witness
            == [["1", "2"], ["0", "2"]])


def test_zaguia_doctored_tables_match_the_oracle():
    least = poset_from_covers(list("0123"), [("0", "1"), ("0", "2"), ("0", "3")])
    cases = [
        # {0,1,2} ranked 1: {0,1,2} | {0,3} breaks the unshifted reading alone
        (least, {mask_of(least, "012"): 1}, None,
         {"claim1": True, "claim2": True, "claim3": True,
          "claim1_literal": False, "claim2_literal": True}),
        # over the downsets claim 1 implies claim 2, by induction on the
        # maxima; the set {1} of the chain 0 < 1 is no downset, and claim 2
        # alone fails on it, so claim 2 names the witness
        (chain(2), {0b10: 2}, [["1"], ["1"]],
         {"claim1": True, "claim2": False, "claim3": True,
          "claim1_literal": True, "claim2_literal": False}),
        # a rank below -1 fails on the diagonal pair (A, A), which the scan
        # keeps
        (antichain(2), {0b11: -2}, [["0", "1"], ["0", "1"]],
         {"claim1": False, "claim2": True, "claim3": True,
          "claim1_literal": False, "claim2_literal": True}),
        # a minimal element whose principal downset has rank 1
        (antichain(1), {0b1: 1}, [["0"], ["0"]],
         {"claim1": True, "claim2": True, "claim3": False,
          "claim1_literal": True, "claim2_literal": True}),
        # the same among three minimal elements: claims 1 and 2 hold, claim 3
        # fails
        (antichain(3), {0b001: 1}, [["0"], ["0"]],
         {"claim1": True, "claim2": True, "claim3": False,
          "claim1_literal": False, "claim2_literal": False}),
    ]
    for p, changes, witness, claims in cases:
        kw = doctored(p, changes)
        rep = zaguia_verify_ranks(p, kw, maxima_by_max_of(p, kw))
        assert rep.to_json() == oracle_zaguia(p, kw).to_json(), changes
        assert rep.witness == witness and rep.data["claims"] == claims, changes
    # a negative principal rank is reported like any other, not raised as
    # an ordinal: claim 3 fails on it, and claim 1 names the witness
    p = antichain(3)
    kw = doctored(p, {0b001: -1})
    rep = zaguia_verify_ranks(p, kw, maxima_by_max_of(p, kw))
    assert rep.witness == [["0"], ["1"]] and rep.data["claims"] == {
        "claim1": False, "claim2": False, "claim3": False,
        "claim1_literal": False, "claim2_literal": False}
    # one rank raised or lowered by 1 or 2, in every labeled poset up to 3
    # elements
    for n in range(1, 4):
        for p in all_labeled_posets(n):
            for m, r in kw_rank(all_downsets(p)).items():
                for delta in (-2, -1, 1, 2):
                    kw = doctored(p, {m: r + delta})
                    if min(kw.values()) >= 0:
                        assert (zaguia_verify_ranks(p, kw, maxima_by_max_of(p, kw)).to_json()
                                == oracle_zaguia(p, kw).to_json()), (p, m, delta)


def test_labeled_poset_counts():
    assert len(all_labeled_posets(1)) == 1
    assert len(all_labeled_posets(2)) == 3
    assert len(all_labeled_posets(3)) == 19
    assert len(all_labeled_posets(4)) == 219


def all_labeled_posets_by_pair_sets(n):
    # the enumeration before it ran on below masks: relations as sets of
    # pairs, transitivity by a scan of pairs of pairs, and relabelings kept
    # by a frozenset of their pairs
    labels = tuple(str(i) for i in range(n))
    pair_list = [(i, j) for i in range(n) for j in range(i + 1, n)]
    natural = []
    for choice in range(1 << len(pair_list)):
        rel = set()
        for k, (i, j) in enumerate(pair_list):
            if choice >> k & 1:
                rel.add((i, j))
        if all((i, k) in rel for (i, j) in rel for (j2, k) in rel if j == j2):
            natural.append(rel)
    seen = set()
    out = []
    for rel in natural:
        for perm in permutations(range(n)):
            mapped = frozenset((perm[i], perm[j]) for (i, j) in rel)
            if mapped not in seen:
                seen.add(mapped)
                below = [0] * n
                for i, j in mapped:
                    below[j] |= 1 << i
                out.append(FinitePoset(labels, tuple(below)))
    return tuple(out)


def test_labeled_posets_match_the_pair_set_enumeration_in_order():
    # criterion 8 draws five-element posets by index, so the order counts
    for n in range(6):
        got, want = all_labeled_posets(n), all_labeled_posets_by_pair_sets(n)
        assert len(got) == len(want)
        for a, b in zip(got, want):
            assert (a.labels, a.below, a.above) == (b.labels, b.below, b.above), n
    assert len(all_labeled_posets(5)) == 4231


def test_labeled_posets_relabel_each_orbit_once(monkeypatch):
    # one pass of relabelings per unlabeled poset: 1, 2, 5, 16 and 63 of
    # them for n = 1..5 (OEIS A000112), not one per transitive relation
    import ordtop.poset as poset_module

    want = {n: all_labeled_posets(n) for n in range(1, 6)}
    passes = []
    monkeypatch.setattr(poset_module, "permutations",
                        lambda xs: passes.append(1) or permutations(xs))
    all_labeled_posets.cache_clear()
    try:
        for n, orbits in zip(range(1, 6), (1, 2, 5, 16, 63)):
            passes.clear()
            got = all_labeled_posets(n)
            assert len(passes) == orbits, n
            assert [(p.labels, p.below) for p in got] == [(p.labels, p.below) for p in want[n]]
    finally:
        all_labeled_posets.cache_clear()


def test_antichain_masks_count():
    # antichains of a 3-chain: empty + singletons; each is the set of maxima
    # of exactly one downset
    for p, count in ((chain(3), 4), (antichain(3), 8)):
        assert len(antichain_masks(p)) == count
        assert sorted(map(p.max_of, all_downsets(p))) == sorted(antichain_masks(p))


# -- bitmask kernel against the scans it replaced ------------------------------
#
# The precomputed ``above`` masks replaced four hand-rolled scans over
# ``below``, and the lowest-set-bit walk replaced a shift loop.  The replaced
# code is kept here verbatim as the reference.

def _bits_by_shift(mask):
    i = 0
    while mask:
        if mask & 1:
            yield i
        mask >>= 1
        i += 1


def _max_of_pairwise(p, mask):
    out = 0
    for i in _bits_by_shift(mask):
        above_in_mask = any(p.below[j] & (1 << i) for j in _bits_by_shift(mask))
        if not above_in_mask:
            out |= 1 << i
    return out


def _up_mask_by_sum(p, i):
    bit = 1 << i
    return bit | sum(1 << j for j in range(p.n) if p.below[j] & bit)


def _covers_by_between_scan(p):
    out = []
    for j in range(p.n):
        for i in _bits_by_shift(p.below[j]):
            between = p.below[j] & ~p.below[i] & ~(1 << i)
            if not any(p.below[k] & (1 << i) for k in _bits_by_shift(between)):
                out.append((i, j))
    return out


def _kernel_corpus():
    for n in range(6):
        for p in all_labeled_posets(n):
            yield p, range(1 << n)
    rng = random.Random(2007)
    for n in range(6, 15):
        for edge_prob in (0.15, 0.35, 0.6):
            p = random_poset(rng, n, edge_prob)
            masks = [rng.getrandbits(n) for _ in range(60)] + list(all_downsets(p))[:60]
            yield p, masks


def test_bitmask_kernel_matches_replaced_scans():
    for p, masks in _kernel_corpus():
        for i in range(p.n):
            assert p.up_mask(i) == _up_mask_by_sum(p, i)
            assert p.above[i] == p.up_mask(i) & ~(1 << i)
        assert p.covers() == _covers_by_between_scan(p)
        for mask in masks:
            assert p.max_of(mask) == _max_of_pairwise(p, mask)


def test_bit_walk_matches_shift_loop():
    rng = random.Random(11)
    values = [0, 1, 2, 3, (1 << 64) - 1, 1 << 200]
    values += [rng.getrandbits(rng.randrange(1, 300)) for _ in range(300)]
    for mask in values:
        assert list(_bits(mask)) == list(_bits_by_shift(mask))


def test_above_masks_do_not_change_equality_or_hash():
    a = vee()
    b = FinitePoset(a.labels, a.below)
    assert a == b and hash(a) == hash(b) and a.above == b.above
    assert a.above == (4, 4, 0)
    assert repr(a) == "FinitePoset(['a', 'b', 'c'], covers=[('a', 'c'), ('b', 'c')])"


# -- stored lower covers against the pair walks they replaced -------------------
#
# ``covers()`` and ``ranks`` read the ``lower`` masks that the constructor
# stores; before, each walked every comparable pair.  Those walks are kept
# here verbatim as the reference.

def _covers_pairwise(p):
    out = []
    for j in range(p.n):
        for i in _bits(p.below[j]):
            if not (p.above[i] & p.below[j]):
                out.append((i, j))
    return out


def _ranks_pairwise(p):
    n = p.n
    rank = [0] * n
    order = sorted(range(n), key=lambda i: p.below[i].bit_count())
    for i in order:
        rank[i] = max((rank[j] + 1 for j in _bits(p.below[i])), default=0)
    poset_rank = max((r + 1 for r in rank), default=0)
    return {p.labels[i]: rank[i] for i in range(n)}, poset_rank, tuple(rank)


def _lower_cover_corpus():
    for n in range(6):
        yield from all_labeled_posets(n)
    rng = random.Random(2026)
    for n in range(6, 40, 3):
        for edge_prob in (0.1, 0.3, 0.6):
            yield random_poset(rng, n, edge_prob)
    # a chain whose covers run against declaration order
    n = 1200
    yield poset_from_covers([str(i) for i in range(n)],
                            [(str(i + 1), str(i)) for i in range(n - 1)])


def test_lower_covers_match_the_pair_walks():
    for p in _lower_cover_corpus():
        covers = _covers_pairwise(p)
        assert p.covers() == covers
        assert tuple(ranks(p)) == _ranks_pairwise(p)
        lower = [0] * p.n
        for i, j in covers:
            lower[j] |= 1 << i
        assert p.lower == tuple(lower)


# -- the iterative closure against the builders it replaced --------------------

def _poset_from_covers_recursive(elements, covers):
    # the depth-first builder that poset_from_covers replaced: it recurses
    # once per element of a chain, so it only serves short inputs
    labels = tuple(elements)
    if len(set(labels)) != len(labels):
        raise PosetError("duplicate element name")
    idx = {name: i for i, name in enumerate(labels)}
    n = len(labels)
    parents = [[] for _ in range(n)]
    for a, b in covers:
        if a not in idx:
            raise PosetError(f"unknown element {a!r} in cover")
        if b not in idx:
            raise PosetError(f"unknown element {b!r} in cover")
        parents[idx[a]].append(idx[b])
    below = [0] * n
    state = [0] * n  # 0 unvisited, 1 on stack, 2 done

    def visit(j):
        if state[j] == 1:
            raise PosetError("cycle detected in covers")
        if state[j] == 2:
            return
        state[j] = 1
        for i in range(n):
            if j in parents[i]:
                visit(i)
                below[j] |= below[i] | (1 << i)
        state[j] = 2

    for j in range(n):
        visit(j)
    return FinitePoset(labels, tuple(below))


def _random_poset_fixpoint(rng, n, edge_prob=0.35):
    # the random_poset that closed its edges by repeating a pass to a fixpoint
    order = list(range(n))
    rng.shuffle(order)
    below = [0] * n
    for a in range(n):
        for b in range(a + 1, n):
            if rng.random() < edge_prob:
                i, j = order[a], order[b]
                below[j] |= below[i] | (1 << i)
    changed = True
    while changed:
        changed = False
        for j in range(n):
            acc = below[j]
            for i in _bits(below[j]):
                acc |= below[i]
            if acc != below[j]:
                below[j] = acc
                changed = True
    return FinitePoset(tuple(str(i) for i in range(n)), tuple(below))


def _build(builder, elements, covers):
    try:
        p = builder(elements, covers)
    except PosetError as e:
        return "error", str(e)
    return p.labels, p.below


def test_closure_matches_recursive_builder():
    rng = random.Random(8)
    outcomes = set()
    for _ in range(5000):
        n = rng.randint(0, 9)
        names = [f"e{i}" for i in range(n)]
        rng.shuffle(names)
        covers = []
        if n:
            for _ in range(rng.randint(0, 2 * n)):
                a, b = rng.choice(names), rng.choice(names)
                # mostly forward along a hidden order, sometimes back (cycles),
                # sometimes a self-loop, sometimes a name not in the poset
                roll = rng.random()
                if roll < 0.03:
                    b = a
                elif roll < 0.05:
                    b = "ghost"
                elif roll < 0.9 and a > b:
                    a, b = b, a
                covers.append((a, b))
        if rng.random() < 0.02:
            names.append(names[0] if names else "x")
            names.append("x")
        got = _build(poset_from_covers, names, covers)
        assert got == _build(_poset_from_covers_recursive, names, covers), (names, covers)
        outcomes.add(got[1] if got[0] == "error" else "poset")
    assert {"poset", "cycle detected in covers", "duplicate element name"} <= outcomes
    assert any(o.startswith("unknown element") for o in outcomes)


def test_random_poset_matches_fixpoint_closure():
    for seed in range(500):
        rng = random.Random(seed)
        n = rng.randint(0, 12)
        edge_prob = rng.choice([0.15, 0.35, 0.6])
        state = rng.getstate()
        got = random_poset(rng, n, edge_prob)
        rng.setstate(state)
        assert got.below == _random_poset_fixpoint(rng, n, edge_prob).below, seed



# -- the one-pass validator and the cover-built inclusion order --------------

def _validate_pairwise(labels, below):
    # the validator that FinitePoset.__post_init__ replaced: two tests per
    # comparable pair; returns the above masks or raises its first error
    n = len(labels)
    if len(set(labels)) != n:
        raise PosetError("duplicate element name")
    if len(below) != n:
        raise PosetError("below must have one mask per element")
    above = [0] * n
    for i, mask in enumerate(below):
        if mask >> n:
            raise PosetError("below mask out of range")
        if mask & (1 << i):
            raise PosetError("order must be irreflexive")
        for j in _bits(mask):
            if below[j] & ~mask:
                raise PosetError("order must be transitive")
            if below[j] & (1 << i):
                raise PosetError("order must be antisymmetric")
            above[j] |= 1 << i
    return tuple(above)


def _validate_one_pass(labels, below):
    return FinitePoset(labels, below).above


def _validated(validate, labels, below):
    try:
        return validate(labels, below)
    except PosetError as e:
        return str(e)


def test_validator_matches_the_pairwise_checks_on_all_4_label_relations():
    labels = tuple("abcd")
    outcomes = []
    for rel in range(1 << 16):
        below = tuple(rel >> 4 * i & 0b1111 for i in range(4))
        got = _validated(_validate_one_pass, labels, below)
        assert got == _validated(_validate_pairwise, labels, below), below
        outcomes.append(got)
    # every 2-cycle is caught as irreflexivity or transitivity, so the
    # pairwise antisymmetry branch never ran
    assert sum(isinstance(o, tuple) for o in outcomes) == 219 == len(all_labeled_posets(4))
    assert {o for o in outcomes if isinstance(o, str)} == {
        "order must be irreflexive", "order must be transitive"}


def test_validator_matches_the_pairwise_checks_on_seeded_relations():
    rng = random.Random(13)
    outcomes = set()
    for _ in range(3000):
        n = rng.randint(0, 9)
        p = random_poset(rng, n, rng.choice([0.2, 0.5]))
        below = list(p.below)
        for _ in range(rng.choice([0, 0, 1, 2])):  # flip bits, some past n
            if n:
                below[rng.randrange(n)] ^= 1 << rng.randrange(n + 2)
        if rng.random() < 0.05:
            below.append(0)
        labels = tuple(rng.sample("abcdefghijk", n))
        if n and rng.random() < 0.03:
            labels = labels[:-1] + labels[:1]
        got = _validated(_validate_one_pass, labels, tuple(below))
        assert got == _validated(_validate_pairwise, labels, tuple(below)), (labels, below)
        outcomes.add(got if isinstance(got, str) else "poset")
    assert outcomes == {"poset", "order must be irreflexive", "order must be transitive",
                        "below mask out of range", "duplicate element name",
                        "below must have one mask per element"}


def downset_label(poset, mask):
    # the per-mask label builder that downset_labels replaced
    return "{" + ",".join(sorted(poset.names(mask))) + "}"


def test_downset_labels_match_the_per_mask_labels():
    rng = random.Random(31)
    pool = ["b", "a", "10", "2", "z", "x1", "x"]
    posets = [p for n in range(5) for p in all_labeled_posets(n)]
    for _ in range(100):
        base = random_poset(rng, rng.randrange(0, 7))
        posets.append(FinitePoset(tuple(rng.sample(pool, base.n)), base.below))
    for p in posets:
        masks = list(range(1 << p.n))  # any set, not just the downsets
        assert downset_labels(p, masks) == [downset_label(p, m) for m in masks], p


def _inclusion_order_pairwise(poset, masks):
    # the P^2 inclusion test that inclusion_order replaced
    pos = {m: i for i, m in enumerate(masks)}
    below = [0] * len(masks)
    for a in masks:
        for b in masks:
            if a != b and a | b == b:
                below[pos[b]] |= 1 << pos[a]
    return FinitePoset(tuple(downset_label(poset, m) for m in masks), tuple(below))


def _assert_inclusion_order_matches_the_pairwise_scan(p):
    every = sorted(all_downsets(p), key=lambda m: (m.bit_count(), m))
    for masks in (every, every[1:]):
        got, want = inclusion_order(p, masks), _inclusion_order_pairwise(p, masks)
        assert (got.labels, got.below, got.above) == (want.labels, want.below, want.above), p


def test_inclusion_order_matches_the_pairwise_scan_on_all_small_posets():
    for n in range(6):
        for p in all_labeled_posets(n):
            _assert_inclusion_order_matches_the_pairwise_scan(p)


def test_downset_labels_of_all_downsets_match_the_lattice():
    # ``poset downsets`` prints these without building the lattice's order
    for n in range(5):
        for p in all_labeled_posets(n):
            masks = all_downsets(p)
            lattice = downset_lattice(p)
            assert len(masks) == lattice.n
            assert sorted(downset_labels(p, masks)) == sorted(lattice.labels)


def test_inclusion_order_matches_the_pairwise_scan_up_to_max_downsets():
    for p in limit_posets():
        _assert_inclusion_order_matches_the_pairwise_scan(p)


def test_inclusion_order_refuses_families_it_cannot_build_from_covers():
    message = "inclusion order needs downsets, each after its lower covers"
    p = antichain(2)
    with pytest.raises(PosetError, match=message):  # unsorted
        inclusion_order(p, [0b11, 0b01, 0b10])
    with pytest.raises(PosetError, match=message):  # a gap: {1} missing
        inclusion_order(p, [0b01, 0b11])
    q = chain(2)
    for masks in ([0b10], [0b01, 0b10, 0b11]):  # {1} is no downset
        with pytest.raises(PosetError, match=message):
            inclusion_order(q, masks)
    # a bit at or past the last element, or a negative mask, is no downset
    for masks in ([0b100], [0b01, 0b10, 0b11, 0b111], [0b01, 0b10, 0b11, -4]):
        with pytest.raises(PosetError, match=message):
            inclusion_order(p, masks)
    # the empty set may be left out: it is not a point of the hyperspace
    assert inclusion_order(q, [0b01, 0b11]).below == (0, 0b01)
    # a linear extension of inclusion needs no sorting by size
    r = antichain(3)
    masks = list(range(8))
    want = _inclusion_order_pairwise(r, masks)
    assert inclusion_order(r, masks) == want and want.above == inclusion_order(r, masks).above


# -- the closed orders of inclusion_order against the checking walk ------------
#
# ``inclusion_order`` builds its order through ``_closed``, which skips the
# constructor's walk, keeps the covers it found and derives ``above`` on
# first read.  The walk stays here as the oracle.

def _assert_closed_order_matches_the_walk(order):
    assert "above" not in vars(order)
    want = FinitePoset(tuple(order.labels), order.below)
    assert order.labels == want.labels and order.below == want.below
    assert order.lower == want.lower and order.covers() == want.covers()
    assert order == want and want == order and hash(order) == hash(want)
    assert order.above == want.above and vars(order)["above"] == want.above


def test_inclusion_order_matches_the_checking_walk():
    posets = [p for n in range(6) for p in all_labeled_posets(n)] + limit_posets()
    for p in posets:
        every = sorted(all_downsets(p), key=lambda m: (m.bit_count(), m))
        for masks in (every, every[1:]):  # the downset lattice, the hyperspace points
            _assert_closed_order_matches_the_walk(inclusion_order(p, masks))


def test_closed_order_round_trips_before_above_is_read():
    for p in (vee(), antichain(3), poset_from_covers(["a,b", "c"], [("c", "a,b")])):
        for dup in (copy.copy, copy.deepcopy, lambda x: pickle.loads(pickle.dumps(x))):
            order = downset_lattice(p)
            got = dup(order)
            assert "above" not in vars(order) and "above" not in vars(got)
            _assert_closed_order_matches_the_walk(got)
            assert got == order and got.lower == order.lower and got.above == order.above
