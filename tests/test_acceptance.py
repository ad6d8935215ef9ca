"""Runs the full acceptance battery and prints one line per criterion."""

import random
import re
from itertools import count

import pytest

import ordtop.poset as poset_module
from ordtop import acceptance
from ordtop.acceptance import CRITERIA, run_all
from ordtop.hyperspace import build_hyperspace, hat_extension
from ordtop.mrowka import ADFamily, g_join, parse_point
from ordtop.ordinal import (
    ONE,
    ZERO,
    Ordinal,
    TipInfo,
    nat_sum,
    parse_ordinal,
    random_ordinal,
    random_ordinal_below,
    tip_deg,
)
from ordtop.poset import FinitePoset, all_downsets, all_labeled_posets
from ordtop.spaceterm import OrdSpace, ProdTerm, SpaceReport, term_report

RESULTS = {}


def setup_module(module):
    for r in run_all(seed=0):
        RESULTS[r.number] = r
        print(r.line())


@pytest.mark.parametrize("number,name", [(n, name) for n, name, _ in CRITERIA])
def test_criterion(number, name):
    r = RESULTS[number]
    print(r.line())
    assert r.passed, r.detail


# perfbench/run.py tells budget misses from wrong answers with this regex
BUDGET_MISS = re.compile(r"took [\d.]+m?s \(budget \d+m?s\)")


def test_run_all_applies_budgets(monkeypatch):
    assert acceptance.BUDGETS == {1: 0.010, 6: 5.0, 7: 30.0, 13: 10.0}
    # a passing criterion over its budget fails with a budget-miss detail
    monkeypatch.setattr(acceptance, "BUDGETS", {5: 0.001})
    [r] = run_all(seed=0, numbers=[5])
    assert r.elapsed >= 0.001
    assert not r.passed and BUDGET_MISS.fullmatch(r.detail), r.detail
    assert r.detail.endswith("(budget 1ms)")
    # a criterion failing for another reason keeps its own detail
    monkeypatch.setattr(acceptance, "BUDGETS", {1: 0.0})
    monkeypatch.setattr(acceptance, "EXAMPLE_VALUE", "w")
    [r] = run_all(seed=0, numbers=[1])
    assert not r.passed and r.detail.startswith("got "), r.detail



# -- the seeded data of the battery ---------------------------------------------

# Details of the criteria that draw random ordinals, as the randint-based
# generators gave them; criterion 11's laminar count moves with the draws.
SEEDED_DETAILS = {5: "table exact, 1000 strict pairs",
                  6: "10000 triples, 150 enumerated splits",
                  9: "1040 interval spaces",
                  10: "1000 products",
                  11: "1000 selector sets, {} laminar intervals"}
LAMINAR_AT_SEED = [936, 943, 926, 936, 924, 928, 920, 918, 933, 937]


@pytest.mark.parametrize("seed", range(10))
def test_seeded_criteria_details_are_unchanged(seed):
    # called directly, so that a slow host cannot turn a detail into a budget miss
    for number, _, fn in CRITERIA:
        if number in SEEDED_DETAILS:
            want = SEEDED_DETAILS[number].format(LAMINAR_AT_SEED[seed])
            assert fn(seed) == (True, want), (number, seed)


def test_criterion_8_builds_each_hyperspace_once(monkeypatch):
    built, read = [], []

    def counted_build(p):
        built.append(build_hyperspace(p))
        return built[-1]

    def recorded_hat(h, y, f):
        read.append(h)
        return hat_extension(h, y, f)

    monkeypatch.setattr(acceptance, "build_hyperspace", counted_build)
    monkeypatch.setattr(acceptance, "hat_extension", recorded_hat)
    seed = 3
    assert acceptance.criterion_08_hyperspace_suite(seed) == (
        True, "4473 hyperspaces, 322 uniqueness runs")
    # one build per labeled poset with up to 5 elements; each uniqueness
    # run reads a hyperspace the selector loop built
    assert len(built) == 4473
    assert {id(h) for h in read} <= {id(h) for h in built}
    # the runs take every poset with up to 4 elements, then 80 five-element
    # posets, the first 80 draws of random.Random(seed)
    rng = random.Random(seed)
    five = all_labeled_posets(5)
    want = [p for n in range(1, 5) for p in all_labeled_posets(n)]
    want += [five[rng.randrange(len(five))] for _ in range(80)]
    assert [id(h.base) for h in read] == [id(p) for p in want]


def test_criterion_7_enumerates_each_poset_once(monkeypatch):
    # the maxima of every downset come from the one all_downsets table that
    # the ranking, the cover check and the union-rank check all read
    enumerated, max_of_calls = [], count()
    max_of = FinitePoset.max_of

    def counted_downsets(p):
        enumerated.append(p)
        return all_downsets(p)

    def counted_max_of(self, mask):
        next(max_of_calls)
        return max_of(self, mask)

    monkeypatch.setattr(acceptance, "all_downsets", counted_downsets)
    monkeypatch.setattr(poset_module, "all_downsets", counted_downsets)
    monkeypatch.setattr(FinitePoset, "max_of", counted_max_of)
    assert acceptance.criterion_07_zaguia_suite(0) == (True, "1242 posets")
    assert next(max_of_calls) == 0
    assert len(enumerated) == 1242 and len({id(p) for p in enumerated}) == 1242

# -- criterion 10 against its version that tested zero through properties ------

def criterion_10_oracle(seed):
    """Oracle: ``criterion_10_product_rule`` as it was before it tested zero
    on keys, reading ``term_report`` and ``tip_deg`` from the module so that
    a test can patch them for both."""
    rng = random.Random(seed)
    for _ in range(1000):
        a = random_ordinal(rng, max_terms=3, depth=1)
        b = random_ordinal(rng, max_terms=3, depth=1)
        ra, rb = acceptance.term_report(OrdSpace(a)), acceptance.term_report(OrdSpace(b))
        rp = acceptance.term_report(ProdTerm(OrdSpace(a), OrdSpace(b)))
        if rp.height != nat_sum(ra.height, rb.height):
            return False, f"height rule failed at ({a}, {b})"
        if rp.endpoint_count != ra.endpoint_count * rb.endpoint_count:
            return False, f"endpoint product failed at ({a}, {b})"
        best = ZERO
        for x in point_samples_oracle(rng, a):
            rx = ZERO if x.is_zero else acceptance.tip_deg(x).tip_exponent
            for y in point_samples_oracle(rng, b):
                ry = ZERO if y.is_zero else acceptance.tip_deg(y).tip_exponent
                v = nat_sum(rx, ry)
                if best < v:
                    best = v
        if rp.height != best:
            return False, f"tip maximization disagrees at ({a}, {b})"
    return True, "1000 products"


def point_samples_oracle(rng, alpha):
    """Oracle: criterion 10's ``_point_samples`` before it tested zero once."""
    pts = {ZERO, alpha}
    if not alpha.is_zero and not alpha.is_finite:
        pts.add(Ordinal.omega_power(alpha.degree))  # a rank maximizer
    for _ in range(4):
        if not alpha.is_zero:
            pts.add(random_ordinal_below(rng, alpha))
    return pts


@pytest.mark.parametrize("seed", range(10))
def test_criterion_10_matches_its_oracle(seed):
    # test_seeded_criteria_details_are_unchanged pins criterion 10's own result at each seed to this
    assert criterion_10_oracle(seed) == (True, SEEDED_DETAILS[10])


def test_point_samples_match_their_oracle():
    rng = random.Random(10)
    alphas = [random_ordinal(rng, max_terms=3, depth=d) for d in (0, 1, 2) for _ in range(100)]
    assert sum(a.is_zero for a in alphas) > 5 and sum(a.is_finite for a in alphas) > 20
    for alpha in alphas:
        state = rng.getstate()
        got = acceptance._point_samples(rng, alpha)
        after = rng.getstate()
        rng.setstate(state)
        want = point_samples_oracle(rng, alpha)
        assert rng.getstate() == after
        assert list(got) == list(want), alpha


def report_misreporting(report):
    # term_report that misreports the 400th product it is asked for, as wrong(report)
    products = count()

    def patched(term):
        r = term_report(term)
        return report(r) if isinstance(term, ProdTerm) and next(products) == 399 else r
    return patched


def tip_misreporting(_):
    # tip_deg that raises the 5000th tip exponent it gives past every height
    calls, far = count(), parse_ordinal("w^(w^w)")

    def patched(x):
        t = tip_deg(x)
        return TipInfo(t.tip, nat_sum(t.tip_exponent, far), t.degree) \
            if next(calls) == 4999 else t
    return patched


MISREPORTS = [
    ("term_report", report_misreporting,
     lambda r: SpaceReport(nat_sum(r.height, ONE), r.endpoint_count, r.rank),
     "height rule failed"),
    ("term_report", report_misreporting,
     lambda r: SpaceReport(r.height, r.endpoint_count + 1, r.rank), "endpoint product failed"),
    ("tip_deg", tip_misreporting, None, "tip maximization disagrees"),
]


@pytest.mark.parametrize("name,patch,wrong,message", MISREPORTS,
                         ids=["height", "endpoint-count", "tip-exponent"])
def test_criterion_10_fails_as_its_oracle_does(monkeypatch, name, patch, wrong, message):
    verdicts = []
    for fn in (acceptance.criterion_10_product_rule, criterion_10_oracle):
        monkeypatch.setattr(acceptance, name, patch(wrong))
        verdicts.append(fn(4))
    assert verdicts[0] == verdicts[1], verdicts
    assert not verdicts[0][0] and verdicts[0][1].startswith(message + " at ("), verdicts[0]


# -- criterion 12's join-law check against the direct row scan -----------------

def row_scan_join_laws(table):
    """Criterion 12's verdict on a join table by the direct scan:
    idempotence and commutativity row by row, then associativity as one
    full row (i v j) v - against i v (j v -) per pair, n^3 steps in all."""
    size = len(table)
    for i in range(size):
        row = table[i]
        if row[i] != i:
            return "idempotence broke"
        for j in range(size):
            if row[j] != table[j][i]:
                return "commutativity broke"
    for i in range(size):
        row_i = table[i]
        for j in range(size):
            if table[row_i[j]] != [row_i[v] for v in table[j]]:
                return f"associativity broke at ({i},{j})"
    return None


@pytest.fixture(scope="module")
def criterion_12_table():
    # the points and join table of criterion 12
    fam4 = ADFamily.progressions(4)
    texts = ["fin:" + ",".join(str(k) for k in range(8) if mask >> k & 1)
             for mask in range(1, 256)]
    points = [parse_point(t) for t in texts + [f"branch:{r}" for r in range(4)] + ["top"]]
    index = {pt: i for i, pt in enumerate(points)}
    return index, [[index[g_join(x, y, fam4)] for y in points] for x in points]


P = parse_point
# (changed joins, the law they break); a pair changed in both orders keeps
# the table commutative and idempotent
BROKEN_JOINS = [
    ({}, None),
    ({(P("fin:3"), P("fin:3")): P("fin:3,4")}, "idempotence"),
    ({(P("fin:1,5"), P("branch:1")): P("top")}, "commutativity"),
    ({(P("fin:0"), P("fin:1")): P("fin:0,1,2"), (P("fin:1"), P("fin:0")): P("fin:0,1,2")},
     "associativity"),
    ({(P("branch:0"), P("branch:1")): P("branch:2"),
      (P("branch:1"), P("branch:0")): P("branch:2")},
     "associativity"),
]


@pytest.mark.parametrize("changes,law", BROKEN_JOINS)
def test_criterion_12_join_laws_match_the_row_scan(monkeypatch, criterion_12_table,
                                                    changes, law):
    index, table = criterion_12_table
    table = [list(row) for row in table]
    for (x, y), z in changes.items():
        table[index[x]][index[y]] = index[z]
    expected = row_scan_join_laws(table)
    assert (expected or "").startswith(law or ""), expected
    # the top is the point 0, so a changed join is looked up, not or-ed in
    monkeypatch.setattr(acceptance, "g_join",
                        lambda x, y, fam: changes[x, y] if (x, y) in changes
                        else g_join(x, y, fam))
    passed, detail = acceptance.criterion_12_mrowka_suite(0)
    if expected is None:
        assert passed and detail == "260^3 join triples, star at 2^12, 20 convergence pairs"
    else:
        assert (passed, detail) == (False, expected)
