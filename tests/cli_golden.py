"""The CLI contract in one table, run through the console script:  python tests/cli_golden.py

A row is (argv as a shell splits it, exit code, expected): for exit 0 or 1 the exact stdout but its last
newline, which ``--json out.json`` also writes byte for byte; for exit 2 the one line on stderr, which names
no Python type, with stdout empty.  Calls run where FILES are written, a selftest criterion's elapsed time
is masked on both sides, and a row at a work limit reads it from ordtop.  tests/test_cli.py runs every row
through ``run``, in process, as a test of its own, named by its index and argv, or by its PINNED key; this
script runs each through the ``ordtop`` on PATH within 10 s, prints one line per row and exits 1 on any
mismatch."""

import io, json, os, re, shlex, subprocess, sys, tempfile  # noqa: E401
from contextlib import redirect_stderr, redirect_stdout
from math import comb
from pathlib import Path

from ordtop.cli import main
from ordtop.hyperspace import MAX_CHAIN
from ordtop.mrowka import MAX_HORIZON, MAX_LUSIN_PICKS
from ordtop.ordinal import MAX_COEFF_BITS, MAX_NESTING, MAX_TERMS
from ordtop.poset import MAX_ELEMENTS

# a poset file, or the poset of a skel(...) term, that is not a list of string names with [a, b] name
# pairs as covers is an input error naming it
ELEMENTS = "poset 'elements' must be a list of strings"
COVER = "poset cover %d must be a list of two element names"
BAD_POSETS = [('{"elements": "ab"}', ELEMENTS), ('{"elements": ["a", 2]}', ELEMENTS),
              ('{"elements": ["a", "b"], "covers": "ab"}', "poset 'covers' must be a list of [a, b] pairs"),
              ('{"elements": ["a", "b"], "covers": [["a", ["b"]]]}', COVER % 0),
              ('{"elements": ["a"], "covers": [1]}', COVER % 0),
              ('{"elements": ["a", "b"], "covers": [["a", "b"], ["a", "b", "a"]]}', COVER % 1),
              ('{"elements": ["a", "b"], "covers": [["a", "c"]]}', "unknown element 'c' in cover")]
# every mrowka command reads a family file alike
SETS, PERIOD = "family JSON must have a 'sets' field", "each family set must have a 'period' field"
BAD_FAMILIES = {"nosets.json": ('{"family": []}', SETS), "list.json": ("[1, 2]", SETS),
                "noperiod.json": ('{"sets": [{"residues": [0]}]}', PERIOD),
                "setsint.json": ('{"sets": [3]}', PERIOD)}
NOT_A_LIST = {"sets5.json": '{"sets": 5}', "setsnull.json": '{"sets": null}'}
FAMILY_ARGS = {"adcheck": "", "convergence": " 0 1", "join": " top top", "lusin": "", "selector": "",
               "star": " 8"}
# a set after a good one, and the error it gives; absent lists default to empty, so {"period": 2} is finite
INTEGER, LIST = "a family set's 'period' must be an integer", "a family set's '%s' must be a list of integers"
BAD_SETS = [('{"period": "2", "residues": [0]}', INTEGER), ('{"period": true, "residues": [0]}', INTEGER),
            ('{"period": 2.0, "residues": [0]}', INTEGER), ('{"period": null}', INTEGER),
            *((f'{{"period": 2, "residues": {r}}}', LIST % "residues")
              for r in ("0", '["0"]', "[false]", '{"0": 1}')),
            *((f'{{"period": 2, "residues": [0], "delta": {d}}}', LIST % "delta") for d in ("3", "[1.5]")),
            ('{"period": 2}', "set 1 is finite")]

FILES = {
    "poset.json": '{"elements": ["a", "b", "c"], "covers": [["a", "c"], ["b", "c"]]}',
    "diamond.json": json.dumps({"elements": [*"abcde"], "covers": [[*"ac"], [*"bc"], [*"cd"], [*"ce"]]}),
    "family.json": json.dumps({"sets": [{"period": 2, "residues": [r], "delta": []} for r in (0, 1)]}),
    "fam_bad.json": json.dumps({"sets": [{"period": p, "residues": [0], "delta": []} for p in (2, 4)]}),
    # twelve branches: escape_witnesses keys sort as strings, "10" before "2"
    "fam12.json": json.dumps({"sets": [{"period": 12, "residues": [r]} for r in range(12)]}),
    # the second parity set toggled on 0..11,999: a threshold past 12,000 steps, and toggled Lusin picks
    "toggled.json": json.dumps({"sets": [{"period": 2, "residues": [0]},
                                         {"period": 2, "residues": [1], "delta": [*range(12000)]}]}),
    # two residues per set and deltas that add and remove members, which the Lusin scan merges
    "merged.json": '{"sets": [{"period": 6, "residues": [1, 4], "delta": [0, 7]}, {"period": 6, '
                   '"residues": [0, 3]}, {"period": 6, "residues": [2, 5], "delta": [4, 11]}]}',
    # a residue near a period of 2^41 once cost a 256 GB mask per call
    "long_period.json": json.dumps({"sets": [
        {"period": 1 << 41, "residues": [(1 << 41) - 1, 3], "delta": [5, (1 << 41) + 3]},
        {"period": 2, "residues": [0]}]}),
    "chain.json": json.dumps({"elements": [*map(str, range(MAX_ELEMENTS))],
                              "covers": [[str(i), str(i + 1)] for i in range(MAX_ELEMENTS - 1)]}),
    "empty.json": '{"sets": []}',
    **{f"poset{i}.json": text for i, (text, _) in enumerate(BAD_POSETS)},
    **{name: text for name, (text, _) in BAD_FAMILIES.items()},
    **NOT_A_LIST,
    **{f"set{k}.json": '{"sets": [{"period": 2, "residues": [1]}, %s]}' % text
       for k, (text, _) in enumerate(BAD_SETS)},
}
SKEL = 'skel({"elements": ["a", "b"], "covers": [["a", "b"]]}, {"a": 1, "b": 2})'
SKEL0 = 'skel({"elements": ["a", "b", "c"], "covers": [["a", "b"]]}, {"a": 0, "b": 2, "c": 0})'
SKEL3 = 'skel({"elements": ["a", "b", "c"], "covers": []}, {"a": 0, "b": "w+7", "c": 3})'

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
MROWKA_SELECTOR = ('{"ad": true, "check": "mrowka-selector", "conditions": {"antisymmetry": true, '
                   '"membership": true, "nesting": true}, "heights": true, "induced_order": true, '
                   '"pass": true, "witness": null}')
CRITERION_1 = "PASS criterion-01 example-antichain-height (0.000s) w^(w+7) + w^9*2 + w^2 + w + 2\n"
CRITERION_2 = "PASS criterion-02 natural-sum-example (0.000s) w^(w*2)*8 + w^w + w^7*4 + w^2 + 5\n"
SELFTEST = '{"check": "selftest", "pass": true, "seed": 0, "witness": null}'
# the most steps MAX_LUSIN_PICKS admits over family.json, whose 2 sets take comb(2 + steps, 3) picks
LUSIN_STEPS = next(steps for steps in range(MAX_LUSIN_PICKS) if comb(3 + steps, 3) > MAX_LUSIN_PICKS)

ROWS = [
    ("ord mul w+1 w", 0, "w^2"),
    ("ord natsum w 1", 0, "w + 1"),
    ("ord natprod w+1 w+1", 0, "w^2 + w*2 + 1"),
    ("ord norm 1+w", 0, "w"),
    ("ord odot w+1 3", 0, "w*3 + 3"),
    ("ord cmp w w+1", 0, "LT"),
    ("ord tip w^2+w*3", 0, '{"degree": "2", "tip": "w", "tip_exponent": "1"}'),
    ("ord oneplusinv w+5", 0, "w + 5"),
    ("poset zaguia diamond.json", 0, ZAGUIA % (5, 7)),
    ("poset ranks diamond.json", 0,
     '{"elem_rank": {"a": 0, "b": 0, "c": 1, "d": 2, "e": 2}, "poset_rank": 3}'),
    ("poset width diamond.json", 0, '{"width": 2}'),
    ("poset hasse diamond.json", 0,
     'digraph poset {\n  rankdir=BT;\n  { rank=same; "a"; "b"; }\n  { rank=same; "c"; }\n'
     '  { rank=same; "d"; "e"; }\n  "a" -> "c";\n  "b" -> "c";\n  "c" -> "d";\n  "c" -> "e";\n}'),
    ("hyper selector diamond.json", 0, SELECTOR_AXIOMS),
    ("hyper universal diamond.json --chain 2", 0, UNIVERSAL),
    ("hyper density --u fin:", 1, '{"check": "vietoris-density", "pass": false, "witness": null}'),
    ("hyper density --u cof:0,1,2 --v cof:0,1,2,3,4,5 --horizon 6", 0,
     '{"check": "vietoris-density", "pass": true, "witness": [6]}'),
    ("hyper density --u cof:0,1,2 --v cof:0,1,2,3,4,5 --horizon 5", 2, "error: descriptor exceeds horizon"),
    (f"space report '{SKEL}'", 0, '{"endpoint_count": 1, "height": "2", "rank": "2", "unitary": true}'),
    ('space report "ord(w)"', 0, '{"endpoint_count": 1, "height": "1", "rank": "w + 1", "unitary": true}'),
    ('space report "prod(ord(w),ord(w))"', 0,
     '{"endpoint_count": 1, "height": "2", "rank": "not-computed", "unitary": true}'),
    ('space bounds "ord(7)"', 0, BOUNDS),
    (f"space bounds '{SKEL}'", 0, BOUNDS),
    ("space hyper-point w+1", 0, "w^(w+1)"),
    ("space hyper-antichain 0 1 w", 0, "w^w + 1"),
    (f"space skeleton-bound '{SKEL0}'", 0, '{"antichains": 5, "bound": "w^3", '
     '"check": "hyperspace-height-bound", "max_attained": "w", "pass": true, "witness": null}'),
    (f"space monotonicity '{SKEL0}'", 0, '{"check": "hyperspace-monotonicity", "pairs": 7, "pass": true, '
     '"strict": 4, "ties": 3, "witness": null}'),
    ('clopen cb "(0,w] @ w"', 0, '{"endpoints": ["w"], "height": "1", "lastpt": "w", "unitary": true}'),
    ("clopen treelike w^3 w^2 w^2+w w^2*2+1", 0, TREE_LIKE),
    ("mrowka join family.json fin:0,2 branch:0", 0, "branch:0"),
    ("mrowka join family.json fin:1_0 top", 2, "error: expected ',' (at position 5)"),
    ("mrowka convergence family.json 0 1 --horizon 128", 0, PARITY),
    ("mrowka convergence fam12.json 0 1", 0, '{"check": "join-convergence", "escape_witnesses": {"0": 1, '
     '"1": 0, "10": 0, "11": 0, "2": 0, "3": 0, "4": 0, "5": 0, "6": 0, "7": 0, "8": 0, "9": 0}, '
     '"pass": true, "threshold": 2, "witness": null}'),
    ("mrowka convergence toggled.json 0 1 --horizon 32768", 0, '{"check": "join-convergence", '
     '"escape_witnesses": {"0": 12001, "1": 12000}, "pass": true, "threshold": 12002, "witness": null}'),
    ("mrowka lusin family.json --steps 3", 0, '{"block_sizes": [0, 1, 2, 3], "check": "lusin-stages", '
     '"final_m": 4, "l1_counts": [[0, 1], [1, 1], [2, 2], [5, 3], [12, 4]], "pass": true, "steps": 3, '
     '"witness": null}'),
    ("mrowka lusin toggled.json --steps 3", 0, '{"block_sizes": [0, 1, 2, 3], "check": "lusin-stages", '
     '"final_m": 4, "l1_counts": [[0, 1], [1, 1], [5, 2], [12002, 3], [12012, 4]], "pass": true, '
     '"steps": 3, "witness": null}'),
    ("mrowka lusin merged.json --steps 3", 0, '{"block_sizes": [0, 1, 2, 3, 4], "check": "lusin-stages", '
     '"final_m": 5, "l1_counts": [[0, 1], [1, 1], [3, 2], [5, 3], [19, 4], [30, 5]], "pass": true, '
     '"steps": 3, "witness": null}'),
    ("mrowka selector fam_bad.json --bound 8", 1, '{"ad": false, "check": "mrowka-selector", "conditions": '
     '{"antisymmetry": false, "membership": true, "nesting": false}, "heights": true, "induced_order": '
     'true, "pass": false, "witness": ["antisymmetry", ["(\'branch\', 0)", "(\'branch\', 1)"]]}'),
    ("selftest --seed 0 --criteria 1", 0, CRITERION_1 + SELFTEST),
    ("selftest --seed 0 --criteria 1,2", 0, CRITERION_1 + CRITERION_2 + SELFTEST),
    # a family whose sets are not a list
    *((f"mrowka {command} {name}{args}", 2, "error: family JSON's 'sets' must be a list")
      for name in NOT_A_LIST for command, args in FAMILY_ARGS.items()),
    # the largest inputs MAX_CHAIN and MAX_LUSIN_PICKS admit (tests/limits.py runs their refusals); the
    # Lusin run reaches the scan, which finds no fresh elements at step 4
    (f"hyper universal poset.json --chain {MAX_CHAIN}", 0, UNIVERSAL.replace("enumerated", "generators")),
    (f"mrowka lusin family.json --steps {LUSIN_STEPS}", 2,
     "error: prior set 2 has fewer than 2 elements outside its predecessors"),
    # a family with no set has no branch
    ("mrowka selector empty.json", 1, '{"ad": true, "check": "mrowka-selector", "conditions": '
     '{"antisymmetry": true, "membership": true, "nesting": true}, "heights": false, "induced_order": true, '
     '"pass": false, "witness": ["heights", "family has no branch"]}'),
    # clopen op reads one operand for complement and two for the others
    ('clopen op intersect "(0,w*2] @ w^2" "(w,w^2] @ w^2"', 0, "(w,w*2] @ w^2"),
    ('clopen op intersect "(0,w] @ w^2"', 2, "error: binary operation needs two operands"),
    ('clopen op complement "(0,w] @ w^2" "(0,w] @ w^2"', 2, "error: complement is unary"),
]


def errors(test, calls):
    """Each (argv, error) of ``calls`` under the id pytest gives a test parametrized by (args, error)."""
    return {f"{test}[args{i}-{error}]": [(argv, 2, "error: " + error)]
            for i, (argv, error) in enumerate(calls)}


DIGIT = "expected '0', a number, or 'w' (at position %d)"
POINT = "point must be fin:..., branch:i or top, got '%s'"
POWERS_OF_W = [("0", "1"), ("1", "w"), ("7", "w^7"), ("w", "w^w"), ("w+7", "w^(w+7)"), ("w*3", "w^(w*3)"),
               ("w^2", "w^(w^2)"), ("w^w", "w^(w^w)"), ("w^(w+1)*2+3", "w^(w^(w+1)*2+3)"),
               ("w^(w^w)+w*5+2", "w^(w^(w^w)+w*5+2)"), ("1000000000", "w^1000000000"),
               ("w^3+1000000000", "w^(w^3+1000000000)"),
               ("w^(w^(w+1)*2+3)*4 + w^5*2 + 9", "w^(w^(w^(w+1)*2+3)*4+w^5*2+9)")]
LAST = 1048575  # MAX_POINT_MEMBER - 1, odd

# rows that hand-written tests once pinned, under the tier-1 id each test had, "name" or "name[param id]";
# one id may run several rows
PINNED = {
    "test_ord_natsum_worked_example": [
        # w+w normalizes to w*2 in the canonical exponent rendering
        ('ord natsum "w^(w+w)*8 + w^7*3" "w^w + w^7 + w^2 + 5"', 0, "w^(w*2)*8 + w^w + w^7*4 + w^2 + 5")],
    "test_ord_value_commands": [
        ("ord add w 1", 0, "w + 1"), ("ord mul w 2", 0, "w*2"), ("ord pow 2 w", 0, "w"),
        ("ord natprod w 2", 0, "w*2"), ("ord odot 2 w", 0, "w"), ("ord cmp w+1 w*2", 0, "LT"),
        ('ord norm "w + w"', 0, "w*2"), ("ord oneplusinv w+7", 0, "w + 7")],
    # w^b as printed when it was built by repeated squaring
    **{f"test_ord_pow_of_omega_golden[{b}-{out}\n]": [(f"ord pow w {shlex.quote(b)}", 0, out)]
       for b, out in POWERS_OF_W},
    # the largest inputs the ordinal limits accept, once pinned by tests whose refusals are rows of
    # tests/limits.py now
    "test_ord_pow_coefficient_limit": [(f"ord pow 2 {MAX_COEFF_BITS - 1}", 0, str(1 << MAX_COEFF_BITS - 1))],
    "test_ord_odot_right_operand_limit": [(f"ord odot 1 ' {(1 << MAX_COEFF_BITS) - 1} '", 0,
                                           str((1 << MAX_COEFF_BITS) - 1))],
    "test_ord_limits_are_usage_errors": [(f"ord pow w+1 {MAX_TERMS - 1}", 0, " + ".join(
        [*(f"w^{k}" for k in range(MAX_TERMS - 1, 1, -1)), "w", "1"]))],
    "test_space_term_nesting_limit": [(f"space report '{'sum(' * MAX_NESTING}ord(1){')' * MAX_NESTING}'", 0,
                                       '{"endpoint_count": 2, "height": "0", "rank": "not-computed", '
                                       '"unitary": false}')],
    "test_ord_tip_json": [
        ('ord tip "w^w*2 + w^7 + w^3*5"', 0, '{"degree": "w", "tip": "w^3", "tip_exponent": "3"}')],
    "test_ord_parse_error_is_usage_error": [('ord norm "w +"', 2, "error: " + DIGIT % 3)],
    # a superscript two, an Arabic-Indic three and full-width "12" once crashed int(), or parsed as 3 and
    # 12; now the parser names the position
    "test_ord_non_ascii_digits_are_usage_errors": [
        *((f"ord natsum {a} 1", 2, "error: " + DIGIT % 0) for a in ("\u00b2", "\u0663", "\uff11\uff12")),
        ("ord odot w 1\u0663", 2, "error: unexpected trailing input (at position 1)")],
    # B is 'w' or a natural number in the parser's own number syntax
    "test_ord_odot_bad_right_argument_is_usage_error": [
        (f"ord odot w {shlex.quote(b)}", 2, "error: " + error) for b, error in (
            ("notanum", "expected a number (at position 0)"), ("w^2", "expected a number (at position 0)"),
            ("w+1", "expected a number (at position 0)"), ("", "expected a number (at position 0)"),
            ("3 4", "unexpected trailing input (at position 2)"), ("+5", "expected a number (at position 0)"),
            ("1_000", "unexpected trailing input (at position 1)"),
            ("2*3", "unexpected trailing input (at position 1)"))],
    "test_poset_zaguia_roundtrip": [("poset zaguia poset.json", 0, ZAGUIA % (3, 4))],
    "test_poset_missing_file_exits_2": [
        ("poset zaguia missing.json", 2, "error: [Errno 2] No such file or directory: 'missing.json'")],
    # on a chain the literal claims hold too
    "test_enumeration_limits_are_usage_errors": [
        ("poset zaguia chain.json", 0, ZAGUIA.replace("false", "true") % (MAX_ELEMENTS, MAX_ELEMENTS))],
    "test_poset_ranks_width_downsets": [
        ("poset ranks poset.json", 0, '{"elem_rank": {"a": 0, "b": 0, "c": 1}, "poset_rank": 2}'),
        ("poset width poset.json", 0, '{"width": 2}'),
        ("poset downsets poset.json", 0,
         '{"count": 5, "downsets": ["{a,b,c}", "{a,b}", "{a}", "{b}", "{}"]}'),
        ("poset hasse poset.json", 0, 'digraph poset {\n  rankdir=BT;\n  { rank=same; "a"; "b"; }\n'
         '  { rank=same; "c"; }\n  "a" -> "c";\n  "b" -> "c";\n}')],
    # the commands that print inclusion-order labels, which render on first access
    "test_poset_dot_downsets": [
        ("poset downsets poset.json --dot", 0,
         'digraph poset {\n  rankdir=BT;\n  { rank=same; "{}"; }\n  { rank=same; "{a}"; "{b}"; }\n'
         '  { rank=same; "{a,b}"; }\n  { rank=same; "{a,b,c}"; }\n  "{}" -> "{a}";\n  "{}" -> "{b}";\n'
         '  "{a}" -> "{a,b}";\n  "{b}" -> "{a,b}";\n  "{a,b}" -> "{a,b,c}";\n}')],
    "test_hyper_build_and_selector": [
        ("hyper build poset.json", 0, '{"check": "hyperspace-structure", "pass": true, '
         '"points": ["{a}", "{b}", "{a,b}", "{a,b,c}"], "size": 4, "witness": null}'),
        ("hyper selector poset.json", 0, SELECTOR_AXIOMS), ("hyper universal poset.json", 0, UNIVERSAL)],
    "test_hyper_density": [
        ("hyper density --u cof: --v cof:0,1,2", 0,
         '{"check": "vietoris-density", "pass": true, "witness": [3]}'),
        ("hyper density --u fin:1 --v fin:2", 1,
         '{"check": "vietoris-density", "pass": false, "witness": null}')],
    "test_space_hyper_antichain_worked_example": [
        ('space hyper-antichain 0 1 1 2 10 10 "w+7" 3', 0, "w^(w+7) + w^9*2 + w^2 + w + 2")],
    "test_space_report_and_bounds": [
        ('space report "ord(w^2*3 + w)"', 0,
         '{"endpoint_count": 3, "height": "2", "rank": "w^2*3 + w + 1", "unitary": false}'),
        ('space bounds "ord(w*3+5)"', 0, BOUNDS)],
    "test_space_hyper_point": [("space hyper-point w+7", 0, "w^(w+7)")],
    "test_space_skeleton_commands": [
        (f"space skeleton-bound '{SKEL}'", 0, '{"antichains": 2, "bound": "w^3", '
         '"check": "hyperspace-height-bound", "max_attained": "w", "pass": true, "witness": null}'),
        (f"space monotonicity '{SKEL}'", 0, '{"check": "hyperspace-monotonicity", "pairs": 1, "pass": true, '
         '"strict": 1, "ties": 0, "witness": null}')],
    "test_clopen_commands": [
        ('clopen op union "(0,w] @ w^2" "(w,w*2] @ w^2"', 0, "(0,w*2] @ w^2"),
        ('clopen op complement "{} @ w^2"', 0, "{0} (0,w^2] @ w^2"),
        ('clopen cb "(0,w^2*2] @ w^2*2"', 0,
         '{"endpoints": ["w^2", "w^2*2"], "height": "2", "lastpt": null, "unitary": false}'),
        ("clopen tip w+5 w^2", 0, "(w+4,w+5] @ w^2"), ("clopen treelike w^2 w w+3 w*2", 0, TREE_LIKE),
        ("clopen minclopen w^2+w w^3", 0, "(w^2,w^2+w] @ w^3")],
    "test_clopen_ambient_mismatch_exit_2": [
        ('clopen op union "(0,w] @ w" "(0,w] @ w^2"', 2, "error: ambient mismatch")],
    "test_mrowka_commands": [
        ("mrowka adcheck family.json", 0, '{"check": "almost-disjoint", "pass": true, "witness": null}'),
        ("mrowka star family.json 256", 0,
         '{"check": "star-truncation", "pass": true, "sizes": [15, 15], "witness": null}'),
        ("mrowka join family.json fin:2,4 branch:0", 0, "branch:0"),
        ("mrowka convergence family.json 0 1 --horizon 64", 0, PARITY),
        ("mrowka lusin family.json --steps 2", 0, '{"block_sizes": [0, 1, 2], "check": "lusin-stages", '
         '"final_m": 3, "l1_counts": [[0, 1], [1, 2], [6, 3]], "pass": true, "steps": 2, "witness": null}'),
        ("mrowka selector family.json --bound 16", 0, MROWKA_SELECTOR)],
    "test_mrowka_convergence_horizon_limit": [
        (f"mrowka convergence family.json 0 1 --horizon {MAX_HORIZON}", 0, PARITY)],
    "test_mrowka_failing_check_exits_1": [
        ("mrowka adcheck fam_bad.json", 1, '{"check": "almost-disjoint", "pass": false, '
         '"witness": {"modulus": 4, "pair": [0, 1], "residue": 0}}')],
    "test_selftest_runs_selected_criteria": [
        ("selftest --seed 7 --criteria 1,2,3,4", 0, CRITERION_1 + CRITERION_2 +
         "PASS criterion-03 hessenberg-products (0.000s) all four products agree\n"
         "PASS criterion-04 tip-extraction (0.000s) tip(w^w*2+w^7+w^3*5)=w^3, tip(w+5)=1\n"
         + SELFTEST.replace('"seed": 0', '"seed": 7'))],
    # no criterion runs, and the error names every number without one
    **{f"test_selftest_refuses_unknown_criteria[{criteria}-{unknown}]": [
        (f"selftest --seed 0 --criteria {shlex.quote(criteria)}", 2,
         f"error: no criterion numbered {unknown}")]
       for criteria, unknown in (("99", "99"), ("0,1", "0"), ("15, 2, 0, 15", "0, 15"),
                                 ("1,2,3,4,99", "99"))},
    # an empty selection once read as "all" and ran the whole battery
    **{f"test_selftest_refuses_criteria_without_a_number[{criteria}]": [
        (f"selftest --seed 0 --criteria {shlex.quote(criteria)}", 2, "error: no criterion number given")]
       for criteria in ("", ",", " ", " , ,")},
    "test_cli_more_edges": [
        # 0^0 = 1, powers, and the zero point in the clopen algebra
        ("ord pow 0 0", 0, "1"), ("ord pow w+1 2", 0, "w^2 + w + 1"),
        ('clopen cb "{0} @ w"', 0, '{"endpoints": ["0"], "height": "0", "lastpt": "0", "unitary": true}'),
        ("mrowka join family.json cube:1 top", 2, "error: " + POINT % "cube:1"),
        ("hyper density --u fin:50 --horizon 10", 2, "error: descriptor exceeds horizon"),
        # a skeleton term in the file-free syntax
        (f"space report '{SKEL3}'", 0,
         '{"endpoint_count": 1, "height": "w + 7", "rank": "w + 7", "unitary": true}')],
    "test_hyper_build_dot": [
        ("hyper build poset.json --dot", 0,
         'digraph hyperspace {\n  rankdir=BT;\n  p0 [label="{a}"];\n  p1 [label="{b}"];\n'
         '  p2 [label="{a,b}"];\n  p3 [label="{a,b,c}"];\n  p0 -> p2;\n  p1 -> p2;\n  p2 -> p3;\n}')],
    **{f"test_poset_schema_is_checked[data{i}-{error}]": [
        (f"poset width poset{i}.json", 2, "error: " + error),
        (f"""space report 'skel({text}, {{"a": 0}})'""", 2, "error: " + error)]
       for i, (text, error) in enumerate(BAD_POSETS)},
    "test_hyper_density_bad_descriptor_exits_2": [
        ("hyper density --u bogus:1", 2, "error: descriptor must be fin:... or cof:..., got 'bogus:1'")],
    "test_mrowka_join_bad_point_exits_2": [
        ("mrowka join family.json nowhere top", 2, "error: " + POINT % "nowhere")],
    # every number a point, a descriptor or --criteria holds is the ordinal grammar's nat; the position
    # counts from the start of the argument
    **errors("test_numbers_in_points_descriptors_and_criteria_are_nats", [
        ("mrowka join family.json fin:\u0663 top", "expected a number (at position 4)"),
        ("mrowka join family.json top fin:1_0", "expected ',' (at position 5)"),
        ("mrowka join family.json branch:-1 top", "expected a number (at position 7)"),
        ("mrowka join family.json branch:1, top", "unexpected trailing input (at position 8)"),
        ("hyper density --u fin:\u0663", "expected a number (at position 4)"),
        ("hyper density --u cof:1_0", "expected ',' (at position 5)"),
        ("hyper density --u fin:1 --v cof:2,-3", "expected a number (at position 6)"),
        ("selftest --seed 0 --criteria \uff11", "expected a number (at position 0)"),
        ("selftest --seed 0 --criteria 2,1_4", "expected ',' (at position 3)"),
        # an over-long member is a number, not a coefficient
        ("mrowka join family.json fin:" + "9" * 3100 + " top",
         "number exceeds MAX_COEFF_BITS = 10000 bits (at position 4)")]),
    # click's integer options and arguments read their text by the grammar's nat too; a horizon of 50 leaves
    # fin:50 out, one of 51 takes it in
    "test_integer_options_read_their_values": [
        ("selftest --criteria 1 --seed ' 7 '", 0, CRITERION_1 + SELFTEST.replace('"seed": 0', '"seed": 7')),
        ("hyper density --u fin:50 --horizon 050", 2, "error: descriptor exceeds horizon"),
        ("hyper density --u fin:50 --horizon 51", 0,
         '{"check": "vietoris-density", "pass": true, "witness": [50]}'),
        ("mrowka convergence family.json 1 0", 0, PARITY),
        ("mrowka star family.json 64", 0,
         '{"check": "star-truncation", "pass": true, "sizes": [7, 7], "witness": null}')],
    "test_blank_number_items_are_skipped": [
        ('mrowka join family.json "fin:, 2,,4 ," fin:6', 0, "fin:2,4,6"),
        ('hyper density --u "cof:,0, ,1," --v fin:1,,2', 0,
         '{"check": "vietoris-density", "pass": true, "witness": [2]}'),
        ('selftest --seed 0 --criteria " 2, ,"', 0, CRITERION_2 + SELFTEST)],
    "test_mrowka_join_point_members_are_naturals_below_the_bound": [
        (f"mrowka join family.json fin:1,{LAST} branch:1", 0, "branch:1"),
        (f"mrowka join family.json fin:1,{LAST} branch:0", 0, "top"),
        (f"mrowka join family.json fin:{LAST},0 fin:2", 0, f"fin:0,2,{LAST}"),
        *((f"mrowka join family.json {x} {y}", 2,
           "error: point members must be below MAX_POINT_MEMBER = 1048576")
          for x, y in ((f"fin:{LAST + 1}", "top"), ("fin:2", f"fin:1,{10 ** 10}"))),
        # -2 % 2 == 0 once put -2 inside branch 0; a sign is no part of a number
        ("mrowka join family.json fin:-2 branch:0", 2, "error: expected a number (at position 4)"),
        ("mrowka join family.json fin:-1 fin:3", 2, "error: expected a number (at position 4)"),
        ("mrowka join family.json top fin:4,-1", 2, "error: expected a number (at position 6)")],
    "test_mrowka_masks_ignore_a_long_period": [
        ("mrowka join long_period.json fin:3,5 branch:0", 0, "branch:0"),
        ("mrowka join long_period.json fin:0 branch:0", 0, "top"),
        ("mrowka star long_period.json 256", 0,
         '{"check": "star-truncation", "pass": true, "sizes": [3, 15], "witness": null}'),
        ("mrowka selector long_period.json --bound 16", 0, MROWKA_SELECTOR)],
    **{f"test_space_skeleton_commands_need_skel_term[{command}]": [
        (f'space {command} "ord(w)"', 2, f"error: {command} needs a skel(...) term")]
       for command in ("skeleton-bound", "monotonicity")},
    **{f"test_space_skel_rejects_malformed_label_maps[{name}]": [
        (f"""space report 'skel({{"elements": ["a"], "covers": []}}, {labels})'""", 2, "error: " + error)]
       for name, labels, error in (
           ("list", "[1]", "skel label map must be a JSON object"),
           ("int", "3", "skel label map must be a JSON object"),
           *((f"{kind}-label", f'{{"a": {label}}}',
              f"label of 'a' must be a natural number or an ordinal string, not {label}")
             for kind, label in (("list", "[1]"), ("bool", "true"), ("float", "1.5"), ("negative", "-1"))))},
    **{f"test_mrowka_commands_read_the_family_alike[{command}]": [
        (f"mrowka {command} {name}{args}", 2, "error: " + error)
        for name, (_, error) in BAD_FAMILIES.items()]
       for command, args in FAMILY_ARGS.items()},
    "test_mrowka_adcheck_names_the_malformed_set_field": [
        (f"mrowka adcheck set{k}.json", 2, "error: " + error) for k, (_, error) in enumerate(BAD_SETS)],
    "test_clopen_minclopen_grid": [
        ("clopen minclopen w^2+w w^3 --grid w^2,w^2+w", 0, "(w^2,w^2+w] @ w^3"),
        ("clopen minclopen w^2+w w^3 --grid w,w^2+1", 2,
         "error: no candidate in grid has the prescribed end point")],
    # clopen text and --grid are read on the ordinal parser's cursor: a position counts from the start of
    # the argument, so the x of (0,w^x] is at position 5
    **errors("test_clopen_text_errors_name_their_position_in_the_argument", [
        ('clopen cb "(0,w^x] @ w^2"', DIGIT % 5),
        ('clopen cb "(w w*2] @ w"', "expected ',' in an interval at position 3"),
        ('clopen cb "(0,w @ w"', "expected ']' to close an interval at position 5"),
        ('clopen cb "(0,w]"', "expected '@' or an interval at position 5"),
        ('clopen cb "(0,w] @"', DIGIT % 7),
        ('clopen op union "(0,w] @ w" "(0,w] @ w @ w"', "unexpected trailing input (at position 10)"),
        ('clopen minclopen w+1 w^2 --grid "0, w, w+1, w+x"', DIGIT % 13),
        ('clopen minclopen w+1 w^2 --grid "0, w w+1"', "expected ',' (at position 5)")]),
    # --grid is read by the list rule of fin:1,,2; an empty --grid is the default grid
    "test_clopen_grid_skips_blank_items": [
        (f"clopen minclopen w+1 w^2 --grid {shlex.quote(grid)}", 0, "(w,w+1] @ w^2")
        for grid in ("0,,w,w+1", " 0 , w,w+1,", "0,w,w+1", "")],
}
ROWS += [row for rows in PINNED.values() for row in rows]

ELAPSED = re.compile(r"^(\w+ criterion-\d+ \S+) \(\d+\.\d+s\)", re.M)
PYTHON_TYPE = re.compile(r"'[A-Za-z_]+' object|not supported between instances")


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
    if PYTHON_TYPE.search(got[2]):
        return f"stderr names a Python type: {got[2]!r}"
    if json_file and not (out.exists() and out.read_bytes().decode() == got[1]):
        return f"{out.name} does not hold the printed bytes"
    return ""


def mismatches(run, json_file=False):
    """(index, argv cut to 60 characters, what is wrong) of each row ``check`` faults, after writing FILES
    to the working directory."""
    for name, text in FILES.items():
        Path(name).write_text(text)
    return [(i, row[0][:60], wrong) for i, row in enumerate(ROWS) if (wrong := check(row, run, json_file))]


def run(argv):
    """One call of ``ordtop.cli.main()`` in this process, as the console script makes it: its exit code,
    stdout and stderr.  Any exception but ``SystemExit`` propagates."""
    saved, sys.argv = sys.argv, ["ordtop", *argv]
    out, err = io.StringIO(), io.StringIO()
    try:
        with redirect_stdout(out), redirect_stderr(err):
            main()
        code = 0
    except SystemExit as e:
        code = 0 if e.code is None else e.code
    finally:
        sys.argv = saved
    return code, out.getvalue(), err.getvalue()


def ordtop(argv):
    """One call of the console script on PATH; past 10 s it raises ``subprocess.TimeoutExpired``."""
    proc = subprocess.run(["ordtop", *argv], capture_output=True, timeout=10)
    return proc.returncode, proc.stdout.decode(), proc.stderr.decode()


if __name__ == "__main__":
    with tempfile.TemporaryDirectory() as tmp:
        os.chdir(tmp)
        wrong = {i: what for i, _, what in mismatches(ordtop, json_file=True) + mismatches(ordtop)}
    for i, (text, _, _) in enumerate(ROWS):
        print(f"{i:3} {text[:60]:60} {wrong.get(i, 'ok')}")
    sys.exit(bool(wrong))
