"""Acceptance battery: every check the package must pass, exactly at the
stated sizes and budgets.

Each criterion is a seeded, deterministic function returning pass/fail
plus a human-readable detail line; the pytest suite and the CLI selftest
both run this list.  ``run_all`` times each criterion and applies the
time budgets in ``BUDGETS``.
"""

from __future__ import annotations

import random
import time
from itertools import product

from .clopen import (
    clopen_cb,
    cnf_truncation_grid,
    first_non_treelike_pair,
    min_clopen_with_endpoint,
    tip_selector,
)
from .hyperspace import (
    Descriptor,
    FinJoinSemilattice,
    OnePointModel,
    build_hyperspace,
    hat_extension,
    kplus_selector,
    selector_axioms_check,
    vietoris_density_witness,
)
from .mrowka import (
    ADFamily,
    convergence_check,
    g_join,
    lusin_iterate,
    mrowka_selector_check,
    parse_point,
    star_truncation,
)
from .ordinal import (
    OMEGA,
    ONE,
    ZERO,
    Ordinal,
    Record,
    _trusted,
    format_ordinal,
    nat_prod,
    nat_sum,
    nat_sum_split_below,
    odot,
    ord_pow,
    parse_ordinal,
    random_ordinal,
    random_ordinal_below,
    tip_deg,
)
from .poset import (
    all_downsets,
    all_labeled_posets,
    join_table_laws,
    kw_rank,
    random_poset,
    ranks,
    zaguia_verify_ranks,
)
from .spaceterm import (
    OrdSpace,
    ProdTerm,
    check_height_rank_bounds,
    hyper_antichain_height,
    hyper_point_height,
    term_report,
)

P = parse_ordinal

EXAMPLE_LABELS = ("0", "1", "1", "2", "10", "10", "w+7", "3")
EXAMPLE_VALUE = "w^(w+7) + w^9*2 + w^2 + w + 2"


class CriterionResult(Record):
    # mutable and so unhashable, unlike the other records
    __setattr__, __delattr__, __hash__ = object.__setattr__, object.__delattr__, None
    _fields = ("number", "name", "passed", "elapsed", "detail")

    def __init__(self, number: int, name: str, passed: bool, elapsed: float, detail: str = ""):
        self.number = number
        self.name = name
        self.passed = passed
        self.elapsed = elapsed
        self.detail = detail

    def line(self) -> str:
        status = "PASS" if self.passed else "FAIL"
        return f"{status} criterion-{self.number:02d} {self.name} ({self.elapsed:.3f}s) {self.detail}"


def _fail(detail):
    return False, detail


def criterion_01_example_antichain(seed: int):
    text = format_ordinal(hyper_antichain_height([P(x) for x in EXAMPLE_LABELS]))
    if text != EXAMPLE_VALUE:
        return _fail(f"got {text!r}")
    return True, text


def criterion_02_nat_sum_example(seed: int):
    a = P("w^(w+w)*8 + w^7*3")
    b = P("w^w + w^7 + w^2 + 5")
    want = P("w^(w+w)*8 + w^w + w^7*4 + w^2 + 5")
    got = nat_sum(a, b)
    if got != want:
        return _fail(f"got {got}")
    return True, str(got)


def criterion_03_hessenberg_examples(seed: int):
    two = Ordinal.from_int(2)
    checks = [
        (nat_prod(OMEGA, two), P("w+w"), "w(x)2"),
        (nat_prod(two, OMEGA), P("w+w"), "2(x)w"),
        (odot(OMEGA, 2), P("w+w"), "w(.)2"),
        (odot(two, OMEGA), OMEGA, "2(.)w"),
    ]
    for got, want, label in checks:
        if got != want:
            return _fail(f"{label} gave {got}, wanted {want}")
    return True, "all four products agree"


def criterion_04_tip_examples(seed: int):
    if tip_deg(P("w^w*2 + w^7 + w^3*5")).tip != P("w^3"):
        return _fail("first tip wrong")
    if tip_deg(P("w+5")).tip != ONE:
        return _fail("second tip wrong")
    return True, "tip(w^w*2+w^7+w^3*5)=w^3, tip(w+5)=1"


def criterion_05_hyper_point_table(seed: int):
    table = {"0": "0", "1": "1", "2": "w", "3": "w^2",
             "10": "w^9", "w": "w^w", "w+7": "w^(w+7)"}
    for r, want in table.items():
        if hyper_point_height(P(r)) != P(want):
            return _fail(f"height at rank {r} wrong")
    rng = random.Random(seed)
    pairs = 0
    while pairs < 1000:
        a = random_ordinal(rng, depth=1)
        b = random_ordinal(rng, depth=1)
        if a.is_zero or b.is_zero or a == b:
            continue
        lo, hi = (a, b) if a < b else (b, a)
        if not hyper_point_height(lo) < hyper_point_height(hi):
            return _fail(f"not strict at ({lo}, {hi})")
        pairs += 1
    return True, f"table exact, {pairs} strict pairs"


def criterion_06_nat_sum_properties(seed: int):
    rng = random.Random(seed)
    enum_checked = 0
    for trial in range(10_000):
        a = random_ordinal(rng, max_terms=6, depth=1, max_coeff=6)
        b = random_ordinal(rng, max_terms=6, depth=1, max_coeff=6)
        c = random_ordinal(rng, max_terms=6, depth=1, max_coeff=6)
        ab, ba = nat_sum(a, b), nat_sum(b, a)
        if ab != ba:
            return _fail("commutativity broke")
        if nat_sum(ab, c) != nat_sum(a, nat_sum(b, c)):
            return _fail("associativity broke")
        if nat_sum(a, ZERO) != a:
            return _fail("zero identity broke")
        # order equivalence and strict monotonicity in each argument
        if b != c:
            # with lo < hi the smaller and larger of b and c: a(+)lo < a(+)hi
            # and lo(+)a < hi(+)a, over the sums ab, ac, ba and ca
            b_low = b < c
            ac, ca = nat_sum(a, c), nat_sum(c, a)
            if not ((ab < ac) if b_low else (ac < ab)):
                return _fail("monotonicity broke")
            if not ((ba < ca) if b_low else (ca < ba)):
                return _fail("left monotonicity broke")
        # closure below a power of w dominating both arguments
        delta = nat_sum(a.degree, b.degree) + 1
        if not ab < ord_pow(OMEGA, delta):
            return _fail("closure below w^delta broke")
        # decomposability of anything below the sum
        if not ab.is_zero:
            gamma = random_ordinal_below(rng, ab)
            a_half, b_half = nat_sum_split_below(gamma, a, b, ab)
            if nat_sum(a_half, b_half) != gamma or not (a_half <= a and b_half <= b):
                return _fail(f"decomposition broke at {gamma}")
            if enum_checked < 150 and len(gamma._key) <= 2 and all(
                    c <= 3 for _, c in gamma._key):
                if not _decompose_by_enumeration(gamma, a, b):
                    return _fail(f"enumeration found no split of {gamma}")
                enum_checked += 1
    return True, f"10000 triples, {enum_checked} enumerated splits"


def _decompose_by_enumeration(gamma, a, b):
    """Every split of gamma is a coefficient splitting of its terms; try
    them all and keep any with halves below a and b."""
    key = gamma._key
    for split in product(*(range(c + 1) for _, c in key)):
        left = _trusted(tuple((e, k) for (e, _), k in zip(key, split) if k))
        right = _trusted(tuple((e, c - k) for (e, c), k in zip(key, split) if c - k))
        if left <= a and right <= b and nat_sum(left, right) == gamma:
            return True
    return False


def criterion_07_zaguia_suite(seed: int):
    rng = random.Random(seed)
    count = 0
    for n in range(1, 5):
        for p in all_labeled_posets(n):
            if not _zaguia_one(p):
                return _fail(f"exhaustive poset failed: {p!r}")
            count += 1
    for _ in range(1000):
        p = random_poset(rng, rng.choice([6, 7, 8]), rng.choice([0.25, 0.35, 0.5]))
        if not _zaguia_one(p):
            return _fail(f"random poset failed: {p!r}")
        count += 1
    return True, f"{count} posets"


def _zaguia_one(p) -> bool:
    downsets = all_downsets(p)  # enumerated and ranked once, for both checks
    kw = kw_rank(downsets)
    return _ranks_rise_along_covers(kw, downsets) and zaguia_verify_ranks(p, kw, downsets).passed


def _ranks_rise_along_covers(rank: dict, maxima: dict) -> bool:
    """Strict monotonicity of ``rank``, keyed by the nonempty downsets of a
    poset, checked on each lower cover L - {i} with i in ``maxima[L]``, the
    maximal elements of L: every strict inclusion of nonempty downsets is
    a chain of such covers."""
    for mask, r in rank.items():
        rest = maxima[mask]
        while rest:
            low = rest & -rest
            if low != mask and not rank[mask ^ low] < r:
                return False
            rest ^= low
    return True


def criterion_08_hyperspace_suite(seed: int):
    rng = random.Random(seed)
    # the five-element draws come first; the selector loop draws nothing
    draws = [rng.randrange(len(all_labeled_posets(5))) for _ in range(80)]
    small, drawn = [], dict.fromkeys(draws)  # the hyperspaces the uniqueness runs read
    checked = unique_runs = 0
    for n in range(1, 6):
        for k, p in enumerate(all_labeled_posets(n)):
            h = build_hyperspace(p)  # structural identities assert inside
            hp, fam = kplus_selector(h)
            if not selector_axioms_check(hp, fam).passed:
                return _fail(f"selector axioms failed on {p!r}")
            checked += 1
            if n < 5:
                small.append(h)
            elif k in drawn:
                drawn[k] = h
    y3 = FinJoinSemilattice.chain(3)
    y2 = FinJoinSemilattice.chain(2)
    runs = [(h, y3, 2) for h in small] + [(drawn[k], y2, 1) for k in draws]
    for h, y, cap in runs:
        p = h.base
        f = {name: min(r, cap) for name, r in zip(p.labels, ranks(p).by_index)}
        _, rep = hat_extension(h, y, f)
        if not (rep.passed and rep.data["method"] == "enumerated"):
            return _fail(f"uniqueness failed on {p!r}")
        unique_runs += 1
    return True, f"{checked} hyperspaces, {unique_runs} uniqueness runs"


def criterion_09_bound_chain(seed: int):
    rng = random.Random(seed)
    count = 0
    for _ in range(1000):
        alpha = _random_alpha_below_w_w_10(rng)
        if not check_height_rank_bounds(OrdSpace(alpha)).passed:
            return _fail(f"bounds failed at {alpha}")
        count += 1
    for n in range(1, 41):
        space = OrdSpace(P(f"w+{n}"))
        info = term_report(space)
        if not (check_height_rank_bounds(space).passed
                and info.height == ONE and info.rank == P(f"w+{n + 1}")):
            return _fail(f"sharpness family failed at n={n}")
        count += 1
    return True, f"{count} interval spaces"


def _random_alpha_below_w_w_10(rng):
    # finite-exponent normal forms, optionally headed by w^w * c with c <= 9
    alpha = random_ordinal(rng, max_terms=4, depth=0, max_coeff=9, max_finite_exp=7)
    if rng.random() < 0.3:
        head = Ordinal.omega_power(OMEGA, rng.randint(1, 9))
        alpha = nat_sum(head, alpha)
    return alpha


def criterion_10_product_rule(seed: int):
    """The product rule for scattered ordinal spaces: the Cantor-Bendixson
    height of [0,a]x[0,b] is the natural sum of the factors' heights, its
    end-point count is the product of theirs, and the height is also the
    largest natural sum of two sampled points' ranks (tip exponents)."""
    rng = random.Random(seed)
    for _ in range(1000):
        a = random_ordinal(rng, max_terms=3, depth=1)
        b = random_ordinal(rng, max_terms=3, depth=1)
        ra, rb = term_report(OrdSpace(a)), term_report(OrdSpace(b))
        rp = term_report(ProdTerm(OrdSpace(a), OrdSpace(b)))
        if rp.height != nat_sum(ra.height, rb.height):
            return _fail(f"height rule failed at ({a}, {b})")
        if rp.endpoint_count != ra.endpoint_count * rb.endpoint_count:
            return _fail(f"endpoint product failed at ({a}, {b})")
        best = ZERO
        for x in _point_samples(rng, a):
            rx = tip_deg(x).tip_exponent if x._key else ZERO
            for y in _point_samples(rng, b):
                ry = tip_deg(y).tip_exponent if y._key else ZERO
                v = nat_sum(rx, ry)
                if best < v:
                    best = v
        if rp.height != best:
            return _fail(f"tip maximization disagrees at ({a}, {b})")
    return True, "1000 products"


def _point_samples(rng, alpha):
    pts = {ZERO, alpha}
    key = alpha._key
    if key:
        if key[0][0]:  # infinite
            pts.add(Ordinal.omega_power(alpha.degree))  # a rank maximizer
        for _ in range(4):
            pts.add(random_ordinal_below(rng, alpha))
    return pts


def criterion_11_tip_selector(seed: int):
    rng = random.Random(seed)
    ambient = P("w^w*5")
    betas = []
    while len(betas) < 1000:
        beta = random_ordinal_below(rng, ambient)
        betas.append(beta)
    intervals, heights = [], []
    for beta in betas:
        u = tip_selector(beta, ambient)
        data = clopen_cb(u)
        if not data.unitary or data.lastpt != beta:
            return _fail(f"selector set not unitary at {beta}")
        if not beta.is_zero:
            if data.height != tip_deg(beta).tip_exponent:
                return _fail(f"height wrong at {beta}")
            intervals.append(u.intervals[0])
            heights.append(data.height)
        grid = cnf_truncation_grid(beta)
        if beta.is_zero:
            continue
        if min_clopen_with_endpoint(beta, ambient, grid) != u:
            return _fail(f"grid search disagrees at {beta}")
    bad = first_non_treelike_pair(intervals, heights)
    if bad is not None:
        (s1, t1), (s2, t2) = (intervals[k] for k in bad)
        return _fail(f"not tree-like: ({s1},{t1}] vs ({s2},{t2}]")
    return True, f"{len(betas)} selector sets, {len(intervals)} laminar intervals"


def criterion_12_mrowka_suite(seed: int):
    fam4 = ADFamily.progressions(4)
    # exhaustive semilattice axioms: all nonempty subsets of [0,8), 4
    # branches and the top, with the join table built from the real join
    texts = ["fin:" + ",".join(str(k) for k in range(8) if mask >> k & 1)
             for mask in range(1, 256)]
    points = [parse_point(t) for t in texts + [f"branch:{r}" for r in range(4)] + ["top"]]
    index = {pt: i for i, pt in enumerate(points)}
    table = [[index[g_join(x, y, fam4)] for y in points] for x in points]
    broken, _ = join_table_laws(table)
    if broken is not None:
        law, at = broken
        details = {"idempotent": "idempotence broke", "commutative": "commutativity broke"}
        return _fail(details.get(law) or "associativity broke at ({},{})".format(*at))
    _, star_rep = star_truncation(fam4, 1 << 12)
    if not star_rep.passed:
        return _fail("star intersection law broke")
    fam5 = ADFamily.progressions(5)
    for i in range(5):
        for j in range(5):
            if i != j and not convergence_check(fam5, i, j, 128).passed:
                return _fail(f"convergence failed for pair ({i},{j})")
    if not mrowka_selector_check(fam5, 64).passed:
        return _fail("selector check failed")
    return True, f"{len(table)}^3 join triples, star at 2^12, 20 convergence pairs"


def criterion_13_lusin_stages(seed: int):
    base = ADFamily.progressions(64)
    stages = lusin_iterate(base, 50)  # exact fresh counts re-verified inside
    for stage in stages:
        for n, block in enumerate(stage.blocks):
            if len(block) != n:
                return _fail(f"block {n} has {len(block)} elements")
    return True, f"50 stages, final m={stages[-1].m}"


def criterion_14_vietoris_density(seed: int):
    rng = random.Random(seed)
    model = OnePointModel()
    for _ in range(200):
        def rand_desc():
            if rng.random() < 0.45:
                return Descriptor.finite(rng.sample(range(40), rng.randint(0, 5)))
            return Descriptor.cofinite_complement(rng.sample(range(40), rng.randint(0, 5)))
        u = rand_desc()
        vs = [rand_desc() for _ in range(rng.randint(0, 4))]
        got = vietoris_density_witness(model, u, vs)
        want = _density_scan_oracle(u, vs)
        if (got is not None) != want:
            return _fail("witness decision disagrees with the scan oracle")
        if got is not None:
            if not all(u.contains(n) for n in got):
                return _fail("witness leaves the upper constraint")
            if any(not any(v.contains(n) for n in got) for v in vs):
                return _fail("witness misses a lower constraint")
    return True, "200 basic opens"


def _density_scan_oracle(u, vs, horizon=500):
    for v in vs:
        if not any(u.contains(n) and v.contains(n) for n in range(horizon)):
            return False
    if not vs:
        return any(u.contains(n) for n in range(horizon))
    return True


CRITERIA = [
    (1, "example-antichain-height", criterion_01_example_antichain),
    (2, "natural-sum-example", criterion_02_nat_sum_example),
    (3, "hessenberg-products", criterion_03_hessenberg_examples),
    (4, "tip-extraction", criterion_04_tip_examples),
    (5, "hyper-point-heights", criterion_05_hyper_point_table),
    (6, "natural-sum-properties", criterion_06_nat_sum_properties),
    (7, "downset-rank-bounds", criterion_07_zaguia_suite),
    (8, "hyperspace-structure", criterion_08_hyperspace_suite),
    (9, "height-rank-chain", criterion_09_bound_chain),
    (10, "product-heights", criterion_10_product_rule),
    (11, "tip-selector", criterion_11_tip_selector),
    (12, "quotient-semilattice", criterion_12_mrowka_suite),
    (13, "lusin-stages", criterion_13_lusin_stages),
    (14, "vietoris-density", criterion_14_vietoris_density),
]


# wall-time budgets in seconds, each over its whole criterion
BUDGETS = {1: 0.010, 6: 5.0, 7: 30.0, 13: 10.0}


def _over_budget(elapsed: float, budget: float) -> str:
    """Budget-miss detail, in milliseconds for a budget under a second."""
    if budget < 1:
        return f"took {elapsed * 1000:.2f}ms (budget {budget * 1000:.0f}ms)"
    return f"took {elapsed:.2f}s (budget {budget:.0f}s)"


def run_all(seed: int = 0, numbers=None) -> list:
    """Run the selected criteria (all by default) in order.  A criterion
    that passes but meets or exceeds its budget in ``BUDGETS`` fails with
    a budget-miss detail; any other failure keeps its own detail.  Raises
    ``ValueError`` naming each selected number that no criterion has, and
    on an empty selection."""
    if numbers is not None and not numbers:
        raise ValueError("no criterion number given")
    unknown = sorted(set(numbers or ()) - {number for number, _, _ in CRITERIA})
    if unknown:
        raise ValueError(f"no criterion numbered {', '.join(map(str, unknown))}")
    results = []
    for number, name, fn in CRITERIA:
        if numbers and number not in numbers:
            continue
        t0 = time.perf_counter()
        try:
            passed, detail = fn(seed)
        except Exception as e:  # a crash is a failure, not an abort
            passed, detail = False, f"raised {type(e).__name__}: {e}"
        elapsed = time.perf_counter() - t0
        budget = BUDGETS.get(number)
        if passed and budget is not None and elapsed >= budget:
            passed, detail = False, _over_budget(elapsed, budget)
        results.append(CriterionResult(number, name, passed, elapsed, detail))
    return results
