"""The CLI contract in one table, run through the console script:  python tests/cli_golden.py

A row is (argv as a shell splits it, exit code, expected): for exit 0 or 1 the exact stdout but its last
newline, which ``--json out.json`` also writes byte for byte; for exit 2 the one line on stderr, with stdout
empty.  Calls run where FILES are written, and a selftest criterion's elapsed time is masked on both sides.
tests/test_cli.py runs every row in process; this script runs each through the ``ordtop`` on PATH within
10 s, prints one line per row and exits 1 on any mismatch."""

import json, os, re, shlex, subprocess, sys, tempfile  # noqa: E401
from pathlib import Path

FILES = {
    "poset.json": '{"elements": ["a", "b", "c"], "covers": [["a", "c"], ["b", "c"]]}',
    "diamond.json": json.dumps({"elements": [*"abcde"], "covers": [[*"ac"], [*"bc"], [*"cd"], [*"ce"]]}),
    "family.json": json.dumps({"sets": [{"period": 2, "residues": [r], "delta": []} for r in (0, 1)]}),
    "fam_bad.json": json.dumps({"sets": [{"period": p, "residues": [0], "delta": []} for p in (2, 4)]}),
    # twelve branches: escape_witnesses keys sort as strings, "10" before "2"
    "fam12.json": json.dumps({"sets": [{"period": 12, "residues": [r]} for r in range(12)]}),
    # a poset's elements are a list of names, not a string of them
    "letters.json": '{"elements": "ab"}',
    # the second parity set toggled on 0..11,999: a threshold past 12,000 steps, and toggled Lusin picks
    "toggled.json": json.dumps({"sets": [{"period": 2, "residues": [0]},
                                         {"period": 2, "residues": [1], "delta": [*range(12000)]}]}),
    # two residues per set and deltas that add and remove members, which the Lusin scan merges
    "merged.json": '{"sets": [{"period": 6, "residues": [1, 4], "delta": [0, 7]}, {"period": 6, '
                   '"residues": [0, 3]}, {"period": 6, "residues": [2, 5], "delta": [4, 11]}]}',
}
SKEL = 'skel({"elements": ["a", "b"], "covers": [["a", "b"]]}, {"a": 1, "b": 2})'
SKEL0 = 'skel({"elements": ["a", "b", "c"], "covers": [["a", "b"]]}, {"a": 0, "b": 2, "c": 0})'

# outputs that several rows print
ZAGUIA = ('{"check": "zaguia", "claims": {"claim1": true, "claim1_literal": false, "claim2": true, '
          '"claim2_literal": false, "claim3": true}, "pass": true, "poset": "n=%d, downsets=%d", '
          '"witness": null}')
SELECTOR_AXIOMS = ('{"check": "selector-axioms", "conditions": {"antisymmetry": true, "equivalence": true, '
                   '"induced-order": true, "membership": true, "minimal-singletons": true, "nesting": true, '
                   '"well-founded": true}, "pass": true, "witness": null}')
UNIVERSAL = ('{"check": "universal-property", "homs_found": 1, "method": "enumerated", "pass": true, '
             '"witness": null}')
BOUNDS = ('{"check": "height-rank-bounds", "inequalities": {"height<=rank": true, '
          '"rank<w^h*(endpts+1)": true, "w^h*(endpts+1)<w^(h+1)": true}, "pass": true, "witness": null}')
TREE_LIKE = '{"check": "tree-like", "pairs": 3, "pass": true, "witness": null}'
PARITY = ('{"check": "join-convergence", "escape_witnesses": {"0": 1, "1": 0}, "pass": true, '
          '"threshold": 2, "witness": null}')
CRITERION_1 = "PASS criterion-01 example-antichain-height (0.000s) w^(w+7) + w^9*2 + w^2 + w + 2\n"
SELFTEST = '{"check": "selftest", "pass": true, "seed": 0, "witness": null}'

ROWS = [
    ("ord add w 1", 0, "w + 1"),
    ("ord mul w+1 w", 0, "w^2"),
    ("ord pow w w", 0, "w^w"),
    ("ord natsum w 1", 0, "w + 1"),
    ('ord natsum "w^(w+w)*8 + w^7*3" "w^w + w^7 + w^2 + 5"', 0, "w^(w*2)*8 + w^w + w^7*4 + w^2 + 5"),
    # an Arabic-Indic three, like a full-width one, is no ASCII digit
    ("ord natsum \u0663 1", 2, "error: expected '0', a number, or 'w' (at position 0)"),
    ("ord natprod w+1 w+1", 0, "w^2 + w*2 + 1"),
    ("ord norm 1+w", 0, "w"),
    ("ord odot w+1 3", 0, "w*3 + 3"),
    ("ord cmp w w+1", 0, "LT"),
    ("ord tip w^2+w*3", 0, '{"degree": "2", "tip": "w", "tip_exponent": "1"}'),
    ('ord tip "w^w*2 + w^7 + w^3*5"', 0, '{"degree": "w", "tip": "w^3", "tip_exponent": "3"}'),
    ("ord oneplusinv w+5", 0, "w + 5"),
    ("poset zaguia poset.json", 0, ZAGUIA % (3, 4)),
    ("poset zaguia diamond.json", 0, ZAGUIA % (5, 7)),
    ("poset ranks poset.json", 0, '{"elem_rank": {"a": 0, "b": 0, "c": 1}, "poset_rank": 2}'),
    ("poset ranks diamond.json", 0,
     '{"elem_rank": {"a": 0, "b": 0, "c": 1, "d": 2, "e": 2}, "poset_rank": 3}'),
    ("poset width poset.json", 0, '{"width": 2}'),
    ("poset width diamond.json", 0, '{"width": 2}'),
    ("poset width letters.json", 2, "error: poset 'elements' must be a list of strings"),
    ("poset downsets poset.json", 0, '{"count": 5, "downsets": ["{a,b,c}", "{a,b}", "{a}", "{b}", "{}"]}'),
    ("poset hasse poset.json", 0,
     'digraph poset {\n  rankdir=BT;\n  { rank=same; "a"; "b"; }\n  { rank=same; "c"; }\n  "a" -> "c";\n'
     '  "b" -> "c";\n}'),
    ("poset hasse diamond.json", 0,
     'digraph poset {\n  rankdir=BT;\n  { rank=same; "a"; "b"; }\n  { rank=same; "c"; }\n'
     '  { rank=same; "d"; "e"; }\n  "a" -> "c";\n  "b" -> "c";\n  "c" -> "d";\n  "c" -> "e";\n}'),
    # the commands that print inclusion-order labels, which render on first access
    ("poset downsets poset.json --dot", 0,
     'digraph poset {\n  rankdir=BT;\n  { rank=same; "{}"; }\n  { rank=same; "{a}"; "{b}"; }\n'
     '  { rank=same; "{a,b}"; }\n  { rank=same; "{a,b,c}"; }\n  "{}" -> "{a}";\n  "{}" -> "{b}";\n'
     '  "{a}" -> "{a,b}";\n  "{b}" -> "{a,b}";\n  "{a,b}" -> "{a,b,c}";\n}'),
    ("hyper build poset.json", 0, '{"check": "hyperspace-structure", "pass": true, '
     '"points": ["{a}", "{b}", "{a,b}", "{a,b,c}"], "size": 4, "witness": null}'),
    ("hyper build poset.json --dot", 0,
     'digraph hyperspace {\n  rankdir=BT;\n  p0 [label="{a}"];\n  p1 [label="{b}"];\n  p2 [label="{a,b}"];\n'
     '  p3 [label="{a,b,c}"];\n  p0 -> p2;\n  p1 -> p2;\n  p2 -> p3;\n}'),
    ("hyper selector poset.json", 0, SELECTOR_AXIOMS),
    ("hyper selector diamond.json", 0, SELECTOR_AXIOMS),
    ("hyper universal poset.json", 0, UNIVERSAL),
    ("hyper universal diamond.json --chain 2", 0, UNIVERSAL),
    ("hyper density --u cof: --v cof:0,1,2", 0,
     '{"check": "vietoris-density", "pass": true, "witness": [3]}'),
    ("hyper density --u fin:1 --v fin:2", 1,
     '{"check": "vietoris-density", "pass": false, "witness": null}'),
    ("hyper density --u fin:", 1, '{"check": "vietoris-density", "pass": false, "witness": null}'),
    # descriptors, points and --criteria read numbers by the same nat
    ("hyper density --u fin:\u0663", 2, "error: expected a number (at position 4)"),
    ("hyper density --u cof:0,1,2 --v cof:0,1,2,3,4,5 --horizon 6", 0,
     '{"check": "vietoris-density", "pass": true, "witness": [6]}'),
    ("hyper density --u cof:0,1,2 --v cof:0,1,2,3,4,5 --horizon 5", 2, "error: descriptor exceeds horizon"),
    (f"space report '{SKEL}'", 0, '{"endpoint_count": 1, "height": "2", "rank": "2", "unitary": true}'),
    ('space report "ord(w)"', 0, '{"endpoint_count": 1, "height": "1", "rank": "w + 1", "unitary": true}'),
    ('space report "prod(ord(w),ord(w))"', 0,
     '{"endpoint_count": 1, "height": "2", "rank": "not-computed", "unitary": true}'),
    ('space bounds "ord(w*3+5)"', 0, BOUNDS),
    ('space bounds "ord(7)"', 0, BOUNDS),
    (f"space bounds '{SKEL}'", 0, BOUNDS),
    ("space hyper-point w+1", 0, "w^(w+1)"),
    ("space hyper-antichain 0 1 w", 0, "w^w + 1"),
    ('space hyper-antichain 0 1 1 2 10 10 "w+7" 3', 0, "w^(w+7) + w^9*2 + w^2 + w + 2"),
    (f"space skeleton-bound '{SKEL}'", 0, '{"antichains": 2, "bound": "w^3", '
     '"check": "hyperspace-height-bound", "max_attained": "w", "pass": true, "witness": null}'),
    (f"space skeleton-bound '{SKEL0}'", 0, '{"antichains": 5, "bound": "w^3", '
     '"check": "hyperspace-height-bound", "max_attained": "w", "pass": true, "witness": null}'),
    (f"space monotonicity '{SKEL}'", 0, '{"check": "hyperspace-monotonicity", "pairs": 1, "pass": true, '
     '"strict": 1, "ties": 0, "witness": null}'),
    (f"space monotonicity '{SKEL0}'", 0, '{"check": "hyperspace-monotonicity", "pairs": 7, "pass": true, '
     '"strict": 4, "ties": 3, "witness": null}'),
    ('clopen op union "(0,w] @ w^2" "(w,w*2] @ w^2"', 0, "(0,w*2] @ w^2"),
    ('clopen cb "(0,w] @ w"', 0, '{"endpoints": ["w"], "height": "1", "lastpt": "w", "unitary": true}'),
    ('clopen cb "(0,w^2*2] @ w^2*2"', 0,
     '{"endpoints": ["w^2", "w^2*2"], "height": "2", "lastpt": null, "unitary": false}'),
    # clopen text is read where it stands: the x is at position 5 of the argument
    ('clopen cb "(0,w^x] @ w^2"', 2, "error: expected '0', a number, or 'w' (at position 5)"),
    ("clopen tip w+5 w^2", 0, "(w+4,w+5] @ w^2"),
    ("clopen treelike w^2 w w+3 w*2", 0, TREE_LIKE),
    ("clopen treelike w^3 w^2 w^2+w w^2*2+1", 0, TREE_LIKE),
    ("clopen minclopen w^2+w w^3", 0, "(w^2,w^2+w] @ w^3"),
    # --grid skips blank items, as fin:1,,2 does
    ("clopen minclopen w+1 w^2 --grid 0,,w,w+1", 0, "(w,w+1] @ w^2"),
    ("mrowka adcheck family.json", 0, '{"check": "almost-disjoint", "pass": true, "witness": null}'),
    ("mrowka adcheck fam_bad.json", 1,
     '{"check": "almost-disjoint", "pass": false, "witness": {"modulus": 4, "pair": [0, 1], "residue": 0}}'),
    ("mrowka star family.json 256", 0,
     '{"check": "star-truncation", "pass": true, "sizes": [15, 15], "witness": null}'),
    ("mrowka join family.json fin:0,2 branch:0", 0, "branch:0"),
    ("mrowka join family.json fin:1_0 top", 2, "error: expected ',' (at position 5)"),
    ("mrowka convergence family.json 0 1 --horizon 64", 0, PARITY),
    ("mrowka convergence family.json 0 1 --horizon 128", 0, PARITY),
    ("mrowka convergence fam12.json 0 1", 0, '{"check": "join-convergence", "escape_witnesses": {"0": 1, '
     '"1": 0, "10": 0, "11": 0, "2": 0, "3": 0, "4": 0, "5": 0, "6": 0, "7": 0, "8": 0, "9": 0}, '
     '"pass": true, "threshold": 2, "witness": null}'),
    ("mrowka convergence toggled.json 0 1 --horizon 32768", 0, '{"check": "join-convergence", '
     '"escape_witnesses": {"0": 12001, "1": 12000}, "pass": true, "threshold": 12002, "witness": null}'),
    ("mrowka lusin family.json --steps 2", 0, '{"block_sizes": [0, 1, 2], "check": "lusin-stages", '
     '"final_m": 3, "l1_counts": [[0, 1], [1, 2], [6, 3]], "pass": true, "steps": 2, "witness": null}'),
    ("mrowka lusin family.json --steps 3", 0, '{"block_sizes": [0, 1, 2, 3], "check": "lusin-stages", '
     '"final_m": 4, "l1_counts": [[0, 1], [1, 1], [2, 2], [5, 3], [12, 4]], "pass": true, "steps": 3, '
     '"witness": null}'),
    ("mrowka lusin toggled.json --steps 3", 0, '{"block_sizes": [0, 1, 2, 3], "check": "lusin-stages", '
     '"final_m": 4, "l1_counts": [[0, 1], [1, 1], [5, 2], [12002, 3], [12012, 4]], "pass": true, '
     '"steps": 3, "witness": null}'),
    ("mrowka lusin merged.json --steps 3", 0, '{"block_sizes": [0, 1, 2, 3, 4], "check": "lusin-stages", '
     '"final_m": 5, "l1_counts": [[0, 1], [1, 1], [3, 2], [5, 3], [19, 4], [30, 5]], "pass": true, '
     '"steps": 3, "witness": null}'),
    ("mrowka selector family.json --bound 16", 0, '{"ad": true, "check": "mrowka-selector", "conditions": '
     '{"antisymmetry": true, "membership": true, "nesting": true}, "heights": true, "induced_order": true, '
     '"pass": true, "witness": null}'),
    ("mrowka selector fam_bad.json --bound 8", 1, '{"ad": false, "check": "mrowka-selector", "conditions": '
     '{"antisymmetry": false, "membership": true, "nesting": false}, "heights": true, "induced_order": '
     'true, "pass": false, "witness": ["antisymmetry", ["(\'branch\', 0)", "(\'branch\', 1)"]]}'),
    ("selftest --seed 0 --criteria 1", 0, CRITERION_1 + SELFTEST),
    ("selftest --seed 0 --criteria 1,2", 0, CRITERION_1 +
     "PASS criterion-02 natural-sum-example (0.000s) w^(w*2)*8 + w^w + w^7*4 + w^2 + 5\n" + SELFTEST),
    ("selftest --seed 0 --criteria \uff11", 2, "error: expected a number (at position 0)"),
]

ELAPSED = re.compile(r"^(\w+ criterion-\d+ \S+) \(\d+\.\d+s\)", re.M)


def check(row, run, json_file=False):
    """What ``run(argv)``, which gives a call's exit code, stdout and stderr, gets wrong of a row, or ''.
    With ``json_file``, a row that exits 0 or 1 runs with ``--json out.json``, which must hold its stdout."""
    text, code, expected = row
    if json_file and code == 2:
        return ""
    out = Path("out.json")
    out.unlink(missing_ok=True)
    got = run(shlex.split(text) + ["--json", out.name] * json_file)
    want = (code, expected + "\n", "") if code != 2 else (2, "", expected + "\n")
    if [ELAPSED.sub(r"\1", str(s)) for s in got] != [ELAPSED.sub(r"\1", str(s)) for s in want]:
        return f"exit {got[0]}, stdout {got[1]!r}, stderr {got[2]!r}"
    if json_file and not (out.exists() and out.read_bytes().decode() == got[1]):
        return f"{out.name} does not hold the printed bytes"
    return ""


def mismatches(run, json_file=False):
    """(argv, what is wrong) of each row ``check`` faults, after writing FILES to the working directory."""
    for name, text in FILES.items():
        Path(name).write_text(text)
    return [(row[0], wrong) for row in ROWS if (wrong := check(row, run, json_file))]


def ordtop(argv):
    """One call of the console script on PATH; past 10 s it raises ``subprocess.TimeoutExpired``."""
    proc = subprocess.run(["ordtop", *argv], capture_output=True, timeout=10)
    return proc.returncode, proc.stdout.decode(), proc.stderr.decode()


if __name__ == "__main__":
    with tempfile.TemporaryDirectory() as tmp:
        os.chdir(tmp)
        wrong = dict(mismatches(ordtop, json_file=True) + mismatches(ordtop))
    for text, _, _ in ROWS:
        print(f"{text:64} {wrong.get(text, 'ok')}")
    sys.exit(bool(wrong))
