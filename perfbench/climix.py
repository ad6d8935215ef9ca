"""Seeded CLI call mix and the benchmark's own oracles for it.

Each call is a dict: ``args`` (the argv after ``python -m ordtop.cli``),
``group`` (the subcommand group), ``weight`` (light, heavy or malformed),
``exit`` (the exit codes the contract allows) and, where the benchmark can
compute it without ordtop, ``expect`` (the exact stdout).

Ordinals are generated as nested tuples: an ordinal is a tuple of
``(exponent, coefficient)`` pairs with strictly decreasing exponents, and
an exponent is itself such a tuple.  Python's tuple order on this
representation is the Cantor-normal-form order, so natural sum, natural
product and comparison are computed here without importing ordtop.
"""

from __future__ import annotations

import json
import os
import random

ZERO = ()


def nat(n: int) -> tuple:
    return ((ZERO, n),) if n else ZERO


def _merge(pairs) -> tuple:
    acc: dict = {}
    for e, c in pairs:
        acc[e] = acc.get(e, 0) + c
    return tuple(sorted(acc.items(), reverse=True))


def natsum(a: tuple, b: tuple) -> tuple:
    return _merge(a + b)


def natprod(a: tuple, b: tuple) -> tuple:
    return _merge((natsum(ea, eb), ca * cb) for ea, ca in a for eb, cb in b)


def cmp_text(a: tuple, b: tuple) -> str:
    return "LT" if a < b else "GT" if a > b else "EQ"


def fmt(a: tuple, compact: bool = False) -> str:
    """Canonical rendering, as the CLI documents it."""
    if not a:
        return "0"
    parts = []
    for e, c in a:
        if not e:
            parts.append(str(c))
            continue
        if e == nat(1):
            base = "w"
        elif not e[0][0]:  # finite exponent
            base = f"w^{e[0][1]}"
        elif e == ((nat(1), 1),):
            base = "w^w"
        else:
            base = f"w^({fmt(e, compact=True)})"
        parts.append(base if c == 1 else f"{base}*{c}")
    return ("+" if compact else " + ").join(parts)


def poly(rng, max_terms: int, max_exp: int, max_coeff: int) -> tuple:
    """Polynomial in w with finite exponents; may be 0."""
    k = rng.randint(0, max_terms)
    exps = rng.sample(range(max_exp + 1), min(k, max_exp + 1))
    return tuple(sorted(((nat(e), rng.randint(1, max_coeff)) for e in exps), reverse=True))


def depth2(rng, terms: int, max_coeff: int) -> tuple:
    """Ordinal whose exponents are polynomials in w with finite exponents."""
    exps = set()
    while len(exps) < terms:
        exps.add(poly(rng, 3, 5, 4))
    return tuple(sorted(((e, rng.randint(1, max_coeff)) for e in exps), reverse=True))


# -- posets: covers from lower to higher index, so the relation is acyclic

def random_poset(rng, n: int, p: float) -> dict:
    names = [f"p{i}" for i in range(n)]
    covers = [[names[i], names[j]] for i in range(n) for j in range(i + 1, n)
              if rng.random() < p]
    return {"elements": names, "covers": covers}


def chain_poset(rng, n: int, chains: int) -> dict:
    """``chains`` disjoint chains plus a few cross relations; keeps the
    number of downsets below the product of (chain length + 1)."""
    names = [f"q{i}" for i in range(n)]
    owner = [i % chains for i in range(n)]
    covers = []
    last = {}
    for i in range(n):
        if owner[i] in last:
            covers.append([names[last[owner[i]]], names[i]])
        last[owner[i]] = i
    for _ in range(n // 4):
        i, j = sorted(rng.sample(range(n), 2))
        covers.append([names[i], names[j]])
    return {"elements": names, "covers": covers}


def _below_sets(poset: dict) -> list:
    """below[j] = indices strictly below j, by transitive closure."""
    idx = {name: i for i, name in enumerate(poset["elements"])}
    n = len(idx)
    below = [set() for _ in range(n)]
    for a, b in poset["covers"]:
        below[idx[b]].add(idx[a])
    changed = True
    while changed:
        changed = False
        for j in range(n):
            extra = set().union(*(below[i] for i in below[j])) - below[j]
            if extra:
                below[j] |= extra
                changed = True
    return below


def brute_ranks(poset: dict) -> dict:
    below = _below_sets(poset)
    rank = {}

    def r(j):
        if j not in rank:
            rank[j] = max((r(i) + 1 for i in below[j]), default=0)
        return rank[j]

    names = poset["elements"]
    elem = {names[j]: r(j) for j in range(len(names))}
    return {"elem_rank": elem, "poset_rank": max((v + 1 for v in elem.values()), default=0)}


def brute_width(poset: dict) -> dict:
    below = _below_sets(poset)
    n = len(below)
    best = 0
    for mask in range(1 << n):
        members = [i for i in range(n) if mask >> i & 1]
        if len(members) > best and not any(i in below[j] for i in members for j in members):
            best = len(members)
    return {"width": best}


def progressions(m: int, rng=None) -> dict:
    sets = []
    for r in range(m):
        delta = sorted(rng.sample(range(r, 60, m), 1)) if rng and rng.random() < 0.3 else []
        sets.append({"period": m, "residues": [r], "delta": delta})
    return {"sets": sets}


# -- the call mix ------------------------------------------------------------

class _Files:
    def __init__(self, root: str):
        self.root = root
        self.count = 0

    def write(self, data) -> str:
        self.count += 1
        path = os.path.join(self.root, f"in{self.count:04d}.json")
        with open(path, "w") as fh:
            json.dump(data, fh)
        return path


def _text(rng, max_terms=3, max_exp=4, max_coeff=9):
    return fmt(poly(rng, max_terms, max_exp, max_coeff))


def _light(rng, files: _Files, kind: str, seed: int) -> dict:
    ok = {"exit": [0]}
    if kind == "ord-natsum":
        a, b = poly(rng, 4, 6, 9), poly(rng, 4, 6, 9)
        return {"args": ["ord", "natsum", fmt(a), fmt(b)], "expect": fmt(natsum(a, b)), **ok}
    if kind == "ord-natprod":
        a, b = poly(rng, 3, 4, 5), poly(rng, 3, 4, 5)
        return {"args": ["ord", "natprod", fmt(a), fmt(b)], "expect": fmt(natprod(a, b)), **ok}
    if kind == "ord-cmp":
        a = poly(rng, 3, 4, 3)
        b = a if rng.random() < 0.2 else poly(rng, 3, 4, 3)
        return {"args": ["ord", "cmp", fmt(a), fmt(b)], "expect": cmp_text(a, b), **ok}
    if kind == "ord-value":
        op = rng.choice(["add", "mul", "norm", "tip", "oneplusinv", "odot", "pow"])
        a = fmt(poly(rng, 3, 4, 9) or nat(1))
        if op in ("norm", "tip", "oneplusinv"):
            return {"args": ["ord", op, a], **ok}
        if op == "odot":
            return {"args": ["ord", "odot", a, rng.choice(["w", str(rng.randint(0, 9))])], **ok}
        if op == "pow":
            return {"args": ["ord", "pow", rng.choice(["2", "w", "w+1"]), str(rng.randint(0, 4))],
                    **ok}
        return {"args": ["ord", op, a, _text(rng)], **ok}
    if kind == "poset-ranks":
        p = random_poset(rng, rng.randint(3, 8), 0.3)
        return {"args": ["poset", "ranks", files.write(p)],
                "expect": json.dumps(brute_ranks(p), sort_keys=True), **ok}
    if kind == "poset-width":
        p = random_poset(rng, rng.randint(3, 8), 0.3)
        return {"args": ["poset", "width", files.write(p)],
                "expect": json.dumps(brute_width(p), sort_keys=True), **ok}
    if kind == "poset-other":
        p = files.write(random_poset(rng, rng.randint(2, 6), 0.35))
        sub = rng.choice(["zaguia", "hasse", "downsets"])
        return {"args": ["poset", sub, p], "exit": [0, 1]}
    if kind == "hyper":
        sub = rng.choice(["selector", "universal", "density"])
        if sub == "density":
            def desc():
                members = ",".join(map(str, rng.sample(range(20), rng.randint(0, 3))))
                return f"{rng.choice(['fin', 'cof'])}:{members}"
            args = ["hyper", "density", "--u", desc()]
            for _ in range(rng.randint(0, 3)):
                args += ["--v", desc()]
            return {"args": args, "exit": [0, 1]}
        p = files.write(random_poset(rng, rng.randint(2, 4), 0.4))
        return {"args": ["hyper", sub, p], "exit": [0, 1]}
    if kind == "space":
        a, b = _text(rng, 2, 3, 4), _text(rng, 2, 3, 4)
        sub = rng.choice(["report", "bounds", "hyper-point", "hyper-antichain"])
        if sub == "report":
            return {"args": ["space", "report", f"prod(ord({a}),ord({b}))"], "exit": [0, 1]}
        if sub == "bounds":
            return {"args": ["space", "bounds", f"ord({a})"], "exit": [0, 1]}
        if sub == "hyper-point":
            return {"args": ["space", "hyper-point", a], **ok}
        return {"args": ["space", "hyper-antichain", a, b, _text(rng, 2, 3, 4)], **ok}
    if kind == "clopen":
        s = poly(rng, 2, 3, 5)
        t = natsum(s, poly(rng, 2, 3, 5) or nat(1))
        alpha = natsum(t, poly(rng, 2, 3, 5))
        sub = rng.choice(["cb", "tip", "op"])
        if sub == "cb":
            return {"args": ["clopen", "cb", f"({fmt(s)},{fmt(t)}] @ {fmt(alpha)}"], **ok}
        if sub == "tip":
            return {"args": ["clopen", "tip", fmt(t), fmt(alpha)], **ok}
        return {"args": ["clopen", "op", "union", f"({fmt(s)},{fmt(t)}] @ {fmt(alpha)}",
                         f"(0,{fmt(s)}] @ {fmt(alpha)}" if s else f"{{0}} @ {fmt(alpha)}"], **ok}
    if kind == "mrowka":
        m = rng.randint(2, 6)
        fam = files.write(progressions(m, rng))
        sub = rng.choice(["adcheck", "join", "convergence", "star", "selector"])
        if sub == "join":
            pts = [f"fin:{rng.randint(0, 9)},{rng.randint(0, 9)}",
                   f"branch:{rng.randrange(m)}", "top"]
            return {"args": ["mrowka", "join", fam, rng.choice(pts), rng.choice(pts)], **ok}
        if sub == "convergence":
            i, j = rng.sample(range(m), 2)
            return {"args": ["mrowka", "convergence", fam, str(i), str(j), "--horizon", "64"],
                    "exit": [0, 1]}
        if sub == "star":
            return {"args": ["mrowka", "star", fam, "64"], "exit": [0, 1]}
        if sub == "selector":
            return {"args": ["mrowka", "selector", fam, "--bound", "32"], "exit": [0, 1]}
        return {"args": ["mrowka", "adcheck", fam], "exit": [0, 1]}
    if kind == "selftest":
        crit = rng.choice(["2", "3", "4", "2,3,4", "14"])
        return {"args": ["selftest", "--seed", str(seed), "--criteria", crit], **ok}
    raise ValueError(kind)


def _heavy(rng, files: _Files, kind: str) -> dict:
    if kind == "ord-natprod-wide":
        a, b = depth2(rng, rng.randint(40, 50), 9), depth2(rng, rng.randint(40, 50), 9)
        return {"args": ["ord", "natprod", fmt(a), fmt(b)], "expect": fmt(natprod(a, b)),
                "exit": [0]}
    if kind == "poset-downsets":
        p = files.write(chain_poset(rng, rng.randint(12, 14), 5))
        return {"args": ["poset", "downsets", p], "exit": [0]}
    if kind == "hyper-build":
        p = files.write(chain_poset(rng, rng.randint(12, 14), 6))
        return {"args": ["hyper", "build", p], "exit": [0]}
    if kind == "mrowka-lusin":
        # pure progressions mod m admit m + 1 stages; stay within that
        m = rng.randint(18, 22)
        return {"args": ["mrowka", "lusin", files.write(progressions(m)),
                         "--steps", str(rng.randint(m - 3, m))], "exit": [0]}
    raise ValueError(kind)


def _malformed(rng, files: _Files, kind: str) -> dict:
    bad = {"exit": [2]}
    if kind == "ord-syntax":
        return {"args": ["ord", rng.choice(["natsum", "cmp", "add"]),
                         rng.choice(["w +", "w^", "w^(w", "3*", "w**2"]), "1"], **bad}
    if kind == "ord-odot":
        return {"args": ["ord", "odot", "w", rng.choice(["notanum", "w^2", "-"])], **bad}
    if kind == "poset-cycle":
        p = files.write({"elements": ["a", "b"], "covers": [["a", "b"], ["b", "a"]]})
        return {"args": ["poset", rng.choice(["width", "ranks"]), p], **bad}
    if kind == "poset-unknown":
        p = files.write({"elements": ["a"], "covers": [["a", "zz"]]})
        return {"args": ["poset", "width", p], **bad}
    if kind == "clopen-noambient":
        return {"args": ["clopen", "cb", "(0,w]"], **bad}
    if kind == "space-term":
        return {"args": ["space", "report", rng.choice(["foo(1)", "prod(ord(w))", "ord(w"])],
                **bad}
    if kind == "hyper-descriptor":
        return {"args": ["hyper", "density", "--u", "bogus:1"], **bad}
    if kind == "mrowka-point":
        fam = files.write(progressions(3))
        return {"args": ["mrowka", "join", fam, "nowhere", "top"], **bad}
    raise ValueError(kind)


LIGHT = ["ord-natsum", "ord-natprod", "ord-cmp", "ord-value", "poset-ranks", "poset-width",
         "poset-other", "hyper", "space", "clopen", "mrowka", "selftest"]
HEAVY = ["ord-natprod-wide", "poset-downsets", "hyper-build", "mrowka-lusin"]
MALFORMED = ["ord-syntax", "ord-odot", "poset-cycle", "poset-unknown", "clopen-noambient",
             "space-term", "hyper-descriptor", "mrowka-point"]


def _kinds(rng, pool: list, count: int) -> list:
    """``count`` kinds cycling through a shuffled ``pool``, so every kind
    appears once before any appears twice."""
    out = []
    while len(out) < count:
        block = pool[:]
        rng.shuffle(block)
        out += block
    return out[:count]


def make_calls(seed: int, count: int, heavy_share: float, malformed_share: float,
               root: str) -> list:
    """The seeded call list: fixed shares of light, heavy and malformed
    calls in a seeded order.  Input files are written under ``root``."""
    rng = random.Random(seed)
    files = _Files(root)
    n_heavy = round(count * heavy_share)
    n_bad = round(count * malformed_share)
    plan = ([("light", k) for k in _kinds(rng, LIGHT, count - n_heavy - n_bad)]
            + [("heavy", k) for k in _kinds(rng, HEAVY, n_heavy)]
            + [("malformed", k) for k in _kinds(rng, MALFORMED, n_bad)])
    rng.shuffle(plan)
    calls = []
    for weight, kind in plan:
        if weight == "light":
            call = _light(rng, files, kind, seed)
        elif weight == "heavy":
            call = _heavy(rng, files, kind)
        else:
            call = _malformed(rng, files, kind)
        call.update(weight=weight, kind=kind, group=call["args"][0])
        calls.append(call)
    return calls


def verdict(call: dict, code: int, stdout: str, stderr: str) -> str | None:
    """None when the call kept its contract, else the reason it did not."""
    if "Traceback" in stderr or "Traceback" in stdout:
        return "traceback"
    if code not in call["exit"]:
        return f"exit {code}, wanted {call['exit']}"
    if "expect" in call and stdout.strip() != call["expect"]:
        return f"stdout {stdout.strip()[:80]!r}, wanted {call['expect'][:80]!r}"
    return None
