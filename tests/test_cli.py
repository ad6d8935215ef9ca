import ast
import json
import os
import re
import shlex
import subprocess
import sys
from math import comb
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import cli_golden
import ordtop
from cli_golden import FILES, PINNED, ROWS, SKEL, SKEL0, run
from ordtop.mrowka import MAX_LUSIN_PICKS, MAX_POINT_MEMBER
from ordtop.ordinal import MAX_NESTING

VEE, FAM2, FAM_BAD, DIAMOND, FAM12 = (json.loads(FILES[name]) for name in (
    "poset.json", "family.json", "fam_bad.json", "diamond.json", "fam12.json"))
WIDE12 = {"elements": [str(i) for i in range(12)], "covers": []}


# -- what no row pins: click's own usage errors, and checks on more than bytes ------------------------

def test_selftest_requires_seed():
    assert run(["selftest"])[0] == 2


# click's integer options and arguments read their text by the same nat;
# "--" puts a signed argument past click's option parsing
@pytest.mark.parametrize("args, name", [
    (["selftest", "--criteria", "1", "--seed", "N"], "'--seed'"),
    (["hyper", "density", "--u", "fin:1", "--horizon", "N"], "'--horizon'"),
    (["mrowka", "convergence", "FAM", "--", "N", "1"], "'I'"),
    (["mrowka", "convergence", "FAM", "--", "0", "N"], "'J'"),
    (["mrowka", "star", "FAM", "--", "N"], "'CODE_BOUND'"),
    (["mrowka", "convergence", "FAM", "0", "1", "--horizon", "N"], "'--horizon'"),
    (["mrowka", "selector", "FAM", "--bound", "N"], "'--bound'"),
    (["mrowka", "lusin", "FAM", "--steps", "N"], "'--steps'"),
    (["hyper", "universal", "FAM", "--chain", "N"], "'--chain'"),
])
@pytest.mark.parametrize("text, error", [
    ("\u0660", "expected a number (at position 0)"),
    ("1\u0663", "unexpected trailing input (at position 1)"),
    ("1_0", "unexpected trailing input (at position 1)"),
    ("-3", "expected a number (at position 0)"),
    ("+3", "expected a number (at position 0)"),
])
def test_integer_options_are_nats(tmp_path, args, name, text, error):
    fam = tmp_path / "fam.json"
    fam.write_text(json.dumps(FAM2))
    code, out, err = run([str(fam) if a == "FAM" else text if a == "N" else a for a in args])
    assert (code, out) == (2, ""), text
    assert f"Invalid value for {name}: {error}" in err, err


def test_mrowka_selector_bound_below_zero_is_zero(tmp_path):
    fam = tmp_path / "fam.json"
    fam.write_text(json.dumps(FAM2))
    code, out, _ = run(["mrowka", "selector", str(fam), "--bound", "0"])
    assert code == 1
    assert json.loads(out)["witness"] == ["heights", "branch empty at truncation"]
    # a sign is not in the grammar's nat; mrowka_selector_check reads a
    # negative truncation as 0 for library callers
    for bound in ("-1", "-2", "-64"):
        code, out, err = run(["mrowka", "selector", str(fam), "--bound", bound])
        assert (code, out) == (2, ""), bound
        assert "Invalid value for '--bound': expected a number (at position 0)" in err, bound


def test_unwritable_json_file_prints_nothing(tmp_path):
    code, out, err = run(["ord", "add", "1", "2", "--json", str(tmp_path / "nodir" / "OUT.json")])
    assert code == 2 and out == ""
    assert err.startswith("error: [Errno 2]")


def test_poset_chain_longer_than_the_recursion_limit(tmp_path):
    # covers run against declaration order, so a depth-first closure would
    # recurse once per element
    n = sys.getrecursionlimit() + 200
    f = tmp_path / "chain.json"
    f.write_text(json.dumps({"elements": [str(i) for i in range(n)],
                             "covers": [[str(i + 1), str(i)] for i in range(n - 1)]}))
    code, out, _ = run(["poset", "ranks", str(f)])
    assert code == 0
    assert json.loads(out)["poset_rank"] == n
    code, out, _ = run(["poset", "hasse", str(f)])
    assert code == 0
    assert out.count(" -> ") == n - 1
    code, out, _ = run(["poset", "width", str(f)])
    assert code == 0
    assert json.loads(out) == {"width": 1}


def test_hyper_universal_chain_limit(tmp_path):
    f = tmp_path / "p.json"
    f.write_text(json.dumps(VEE))
    for chain, error in (("0", "0 is less than 1"), ("-3", "expected a number (at position 0)")):
        code, out, err = run(["hyper", "universal", str(f), "--chain", chain])
        assert (code, out) == (2, ""), chain
        assert f"Invalid value for '--chain': {error}" in err, chain


def test_json_nested_too_deep_is_usage_error():
    # a 200 KB argument is past the 128 KiB an exec passes on Linux, so no fresh process can be given it
    deep = "[" * 100_000 + "]" * 100_000
    for term in (f"skel({deep}, {{}})", f"skel({json.dumps(VEE)}, {deep})"):
        assert run(["space", "report", term]) == (2, "", "error: JSON nested too deep to decode\n")


def test_mrowka_lusin_steps_limit(tmp_path):
    fam = tmp_path / "fam.json"
    fam.write_text(json.dumps(FAM2))
    # a run has at least one step
    code, out, err = run(["mrowka", "lusin", str(fam), "--steps", "0"])
    assert (code, out) == (2, "")
    assert "Invalid value for '--steps': 0 is less than 1" in err


def test_mrowka_lusin_refuses_over_max_picks_before_loading_the_family(tmp_path, monkeypatch):
    # the progressions mod 1,500: the pairwise check of the family alone
    # takes seconds, and a run over the limit must not pay it
    m, steps = 1500, 10 ** 18
    fam = tmp_path / "fam.json"
    fam.write_text(json.dumps({"sets": [{"period": m, "residues": [r]} for r in range(m)]}))

    def no_ad_check(sets):
        raise AssertionError("ad_check reached")

    monkeypatch.setattr("ordtop.mrowka.ad_check", no_ad_check)
    picks = comb(m + steps, 3) - comb(m, 3)
    assert run(["mrowka", "lusin", str(fam), "--steps", str(steps)]) == (
        2, "", f"error: {steps} Lusin steps over {m} sets take {picks} picks, "
               f"over MAX_LUSIN_PICKS = {MAX_LUSIN_PICKS}\n")


# -- the golden table of tests/cli_golden.py, run in process, each row in one test --------------

@pytest.fixture(scope="module")
def golden_dir(tmp_path_factory):
    root = tmp_path_factory.mktemp("golden")
    for name, text in FILES.items():
        (root / name).write_text(text)
    return root


def _golden_test(rows_by_id):
    """A test of the rows under each param id; the one id '' makes a test without params."""
    def test(rows, golden_dir, monkeypatch):
        monkeypatch.chdir(golden_dir)
        assert [(row[0][:60], wrong) for row in rows if (wrong := cli_golden.check(row, run))] == []
    if list(rows_by_id) == [""]:
        return lambda golden_dir, monkeypatch: test(rows_by_id[""], golden_dir, monkeypatch)
    return pytest.mark.parametrize("rows", list(rows_by_id.values()), ids=list(rows_by_id))(test)


# a row is test_check_commands_golden_output[index-argv], or the test PINNED names, "name" or "name[id]"
_PINNED = {row[0] for rows in PINNED.values() for row in rows}
_TESTS = {"test_check_commands_golden_output": {
    f"{i}-{row[0][:60]}": [row] for i, row in enumerate(ROWS) if row[0] not in _PINNED}}
for _pinned, _rows in PINNED.items():
    _name, _, _id = _pinned.partition("[")
    _TESTS.setdefault(_name, {})[_id[:-1]] = _rows
globals().update((name, _golden_test(rows_by_id)) for name, rows_by_id in _TESTS.items())


def test_json_file_holds_exactly_the_printed_output(tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    assert cli_golden.mismatches(run, json_file=True) == []


def _commands(path=()):
    """(path, options but --help) of each command under ``path``, read from the Commands or Options section
    of its ``--help``."""
    sections = dict(re.findall(r"^(\w+):\n((?:  .*\n)*)", run([*path, "--help"])[1], re.M))
    if "Commands" not in sections:
        yield path, [o for o in re.findall(r"^  (-[\w-]+)", sections["Options"], re.M) if o != "--help"]
    for name in re.findall(r"^  (\S+)", sections.get("Commands", ""), re.M):
        yield from _commands((*path, name))


def _readme_cli():
    """README's block of CLI examples and the Flags paragraph after it."""
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    return re.search(r"```sh\n(ordtop .*?)```\n\nFlags: (.*?)\n\n", readme, re.S).groups()


def test_every_command_and_option_has_a_row_and_readme_names_each_option():
    rows, flags, commands = [shlex.split(text) for text, _, _ in ROWS], _readme_cli()[1], list(_commands())
    assert {path[0] for path, _ in commands} == {"ord", "poset", "hyper", "space", "clopen", "mrowka",
                                                 "selftest"}
    assert all("--json" in options for _, options in commands)
    # a row for the command alone, and for each option but --json, which every exit-0/1 row adds
    missing = [(path, option) for path, options in commands
               for option in [None, *options] if option != "--json"
               and not any(argv[:len(path)] == [*path] and option in (None, *argv) for argv in rows)]
    missing += [option for _, options in commands for option in options
                if not re.search(f"`{option}[ `]", flags)]
    assert missing == []
    assert {code for _, code, _ in ROWS} == {0, 1, 2}


def test_every_readme_example_is_a_row():
    examples = [shlex.split(line) for line in _readme_cli()[0].splitlines()]
    assert len(examples) >= 12 and {argv[0] for argv in examples} == {"ordtop"}
    rows = [shlex.split(text) for text, _, _ in ROWS]
    assert [argv for argv in examples if argv[1:] not in rows] == []


# every ordered pair of these points is joined on each family of JOIN_FAMILIES;
# mrowka_join_golden.json holds [family, x, y, exit code, stdout, stderr] per call
JOIN_POINTS = ["fin:0,4", "fin:1,2", "fin:4,8", "fin:3", "fin:1_0", "branch:0", "branch:1",
               "branch:3", "top", "branch:11", "branch:-1", "fin:", "nowhere", "top:"]
JOIN_FAMILIES = {"fam4": {"sets": [{"period": 4, "residues": [r], "delta": []}
                                   for r in range(4)]},
                 "parity": FAM2}


def test_mrowka_join_golden_sweep(tmp_path):
    with open(os.path.join(os.path.dirname(__file__), "mrowka_join_golden.json")) as fh:
        golden = json.load(fh)
    assert [row[:3] for row in golden] == [[name, x, y] for name in JOIN_FAMILIES
                                           for x in JOIN_POINTS for y in JOIN_POINTS]
    paths = {}
    for name, data in JOIN_FAMILIES.items():
        paths[name] = str(tmp_path / f"{name}.json")
        (tmp_path / f"{name}.json").write_text(json.dumps(data))
    for name, x, y, code, stdout, stderr in golden:
        assert run(["mrowka", "join", paths[name], x, y]) == (code, stdout, stderr), (name, x, y)


# -- import boundary: each group loads only its layers ---------------------------

SRC = os.path.dirname(os.path.dirname(os.path.abspath(ordtop.__file__)))
_IMPORTED = re.compile(r"^import time:\s*\d+ \|\s*\d+ \|\s*(ordtop(?:\.\w+)*)$", re.M)


# each group's call, and the ordtop modules it loads besides the package and the CLI module
LAYERS = {
    ("ord", "natsum", "w", "1"): {"ordinal"},
    ("poset", "width", "poset.json"): {"ordinal", "poset"},
    ("hyper", "build", "poset.json"): {"ordinal", "poset", "hyperspace"},
    ("space", "report", "ord(w)"): {"ordinal", "poset", "spaceterm"},
    ("clopen", "cb", "(0,w] @ w"): {"ordinal", "clopen"},
    ("mrowka", "adcheck", "family.json"): {"ordinal", "mrowka"},
    ("selftest", "--seed", "0", "--criteria", "1"):
        {"ordinal", "poset", "hyperspace", "spaceterm", "clopen", "mrowka", "acceptance"},
}


def _importtime(argv, cwd):
    """The ``-X importtime`` log of a fresh interpreter that runs ``argv``."""
    proc = subprocess.run([sys.executable, "-X", "importtime", *argv], cwd=cwd,
                          env=dict(os.environ, PYTHONPATH=SRC), capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr[-2000:]
    return proc.stderr


def _loaded_layers(argv, cwd):
    """The ordtop modules a fresh interpreter imports to run ``argv``,
    besides the package and the CLI module themselves."""
    return set(_IMPORTED.findall(_importtime(argv, cwd))) - {"ordtop", "ordtop.cli"}


def test_each_group_imports_only_its_layers(golden_dir):
    for args, layers in LAYERS.items():
        loaded = _loaded_layers(["-m", "ordtop.cli", *args], golden_dir)
        assert loaded == {f"ordtop.{m}" for m in layers}, args


def _importers(log):
    """Each module a ``-X importtime`` log lists, mapped to the module that
    imported it: the next one listed less deep, None at the top."""
    rows = [(len(m[1]), m[2]) for m in re.finditer(r"^import time:[^|]*\|[^|]*\|( +)(\S+)$", log, re.M)]
    return {name: next((n for d, n in rows[k + 1:] if d < depth), None)
            for k, (depth, name) in enumerate(rows)}


def test_no_call_loads_dataclasses_and_only_click_loads_inspect(golden_dir):
    # the value classes derive from ordinal.Record: dataclasses, and inspect
    # with it, cost about 14 ms of every fresh process
    argvs = [["-c", "import ordtop.acceptance"], ["-c", "import ordtop.cli"]]
    for argv in argvs + [["-m", "ordtop.cli", *args] for args in LAYERS]:
        importers = _importers(_importtime(argv, golden_dir))
        assert "ordtop.ordinal" in importers and "dataclasses" not in importers, argv
        # click itself imports inspect, in every call but the battery's import
        if argv[1] == "import ordtop.acceptance":
            assert "inspect" not in importers
        else:
            assert importers["inspect"].startswith("click."), (argv, importers["inspect"])


def test_no_module_imports_dataclasses():
    package = os.path.join(SRC, "ordtop")
    for name in sorted(os.listdir(package)):
        if name.endswith(".py"):
            with open(os.path.join(package, name)) as fh:
                text = fh.read()
            assert not re.search(r"^\s*(import|from)\s+dataclasses\b", text, re.M), name


def test_no_test_imports_click():
    # every in-process call goes through cli_golden.run, as the console script calls main(), so a change of
    # the CLI's parser library touches no test harness
    for path in sorted(Path(__file__).parent.glob("*.py")):
        nodes = list(ast.walk(ast.parse(path.read_text())))
        imported = [f"{node.module}.{alias.name}" if isinstance(node, ast.ImportFrom) else alias.name
                    for node in nodes if isinstance(node, (ast.Import, ast.ImportFrom))
                    for alias in node.names]
        names = {getattr(node, "id", getattr(node, "attr", None)) for node in nodes}
        assert not any(m.split(".")[0] == "click" for m in imported) and "CliRunner" not in names, path.name
        # and only cli_golden imports the CLI module
        cli = [m for m in imported if m.startswith("ordtop.cli")]
        assert path.name == "cli_golden.py" or cli == [], path.name


def test_importing_the_cli_does_not_load_the_battery(tmp_path):
    assert _loaded_layers(["-c", "import ordtop.cli"], tmp_path) == {"ordtop.ordinal"}


def test_mrowka_selector_adds_only_the_poset_scan(golden_dir):
    loaded = _loaded_layers(["-m", "ordtop.cli", "mrowka", "selector", "family.json"], golden_dir)
    assert loaded == {"ordtop.ordinal", "ordtop.mrowka", "ordtop.poset"}


# -- fuzz: any argv keeps the exit-code contract ------------------------------------

_FUZZ_FILES = {"vee": VEE, "diamond": DIAMOND, "wide12": WIDE12, "fam2": FAM2, "fam_bad": FAM_BAD,
               "fam12": FAM12, "nosets": {"family": []}, "noperiod": {"sets": [{}]},
               "setsint": {"sets": [3]}, "finite": {"sets": [{"period": 2}]},
               "list": [1, 2], "sets5": {"sets": 5}, "setsnull": {"sets": None},
               "elemnull": {"elements": None}, "coversnull": {"elements": ["a"], "covers": None},
               "residuesnull": {"sets": [{"period": 2, "residues": None}]}}


@pytest.fixture(scope="module")
def fuzz_files(tmp_path_factory):
    root = tmp_path_factory.mktemp("fuzz")
    paths = {}
    for name, data in _FUZZ_FILES.items():
        paths[name] = str(root / f"{name}.json")
        (root / f"{name}.json").write_text(json.dumps(data))
    paths["notjson"] = str(root / "notjson.json")
    (root / "notjson.json").write_text("{nope")
    paths["missing"] = str(root / "missing.json")
    return paths


@st.composite
def _ordinal_text(draw):
    small = st.sampled_from(["0", "1", "2", "7", "w", "w+1", "w*3 + 2", "w^w", "w^(w+1)*2",
                             "w^2 + w + 1", "w+", "(w", "w^", "x", "", "-1", "1000"])
    pick = draw(st.integers(0, 4))
    if pick == 0:
        # from one digit to past Python's 4300-digit int-to-str limit
        k = draw(st.sampled_from([1, 2, 4, 30, 3011, 3012, 4000, 5000]))
        return draw(st.sampled_from("123456789")) * k
    if pick == 1:
        return draw(st.text(alphabet="w0123456789+*^() ", max_size=12))
    if pick == 2:
        return f"{draw(small)}{draw(st.sampled_from('+*^'))}{draw(small)}"
    return draw(small)


def _size(lo, hi):
    return (st.sampled_from(["-1", "0", "1", "2"]) | st.integers(lo, hi).map(str)
            | st.sampled_from(["x", "", "1.5"]))


@st.composite
def _fuzz_argv(draw, files):
    ordinal = _ordinal_text()
    # mostly files of the right kind, sometimes any file
    anyfile = st.sampled_from(sorted(files.values()))
    poset = st.sampled_from([files["vee"], files["diamond"], files["wide12"]]) | anyfile
    family = st.sampled_from([files["fam2"], files["fam12"], files["fam_bad"]]) | anyfile
    term = st.sampled_from(["ord(w)", "ord(7)", "ord(w^2*3 + w)", SKEL, SKEL0,
                            "sum(ord(w),ord(1))", "prod(ord(w),ord(2))",
                            'skel({"elements": ["c", "a", "b"], "covers": [["c", "a"],'
                            ' ["c", "b"]]}, {"c": 0, "a": 1, "b": 1})',
                            "skel(nope)", "ord(", "", "sum()",
                            'skel({"elements": ["a"], "covers": []}, [1])',
                            'skel({"elements": ["a"], "covers": []}, {"a": [1]})',
                            "sum(" * (MAX_NESTING + 1) + "ord(1)" + ")" * (MAX_NESTING + 1)]) | ordinal
    clopen = st.sampled_from(["(0,w] @ w^2", "(w,w*2] @ w^2", "{} @ w^2", "{0} @ w",
                              "(0,w^2*2] @ w^2*2", "(0,w] @ w", "(w,0] @ w", "@", "",
                              "(0,w^x] @ w^2", "(w w*2] @ w", "(0,w] @"])
    descriptor = st.sampled_from(["fin:1,2", "fin:", "cof:", "cof:0,5", "fin:50",
                                  "fin:-1", "fin:a", "bogus:1", ""])
    point = st.sampled_from(["top", "fin:2,4", "fin:", "branch:0", "branch:1",
                             "branch:11", "branch:-1", "branch:x", "nowhere",
                             "fin:-1", f"fin:{MAX_POINT_MEMBER}", "fin:1_0", "top:"])
    criteria = st.sampled_from(["1", "2", "3,4", "1,2,3,4", "99", "x", "1,,2"])
    slots = {
        ("ord", "add"): [ordinal, ordinal], ("ord", "mul"): [ordinal, ordinal],
        ("ord", "pow"): [ordinal, ordinal], ("ord", "natsum"): [ordinal, ordinal],
        ("ord", "natprod"): [ordinal, ordinal], ("ord", "norm"): [ordinal],
        ("ord", "odot"): [ordinal, ordinal | st.just("w")], ("ord", "cmp"): [ordinal, ordinal],
        ("ord", "tip"): [ordinal], ("ord", "oneplusinv"): [ordinal],
        ("poset", "zaguia"): [poset], ("poset", "ranks"): [poset],
        ("poset", "width"): [poset], ("poset", "downsets"): [poset],
        ("poset", "hasse"): [poset],
        ("hyper", "build"): [poset], ("hyper", "selector"): [poset],
        ("hyper", "universal"): [poset, "--chain", _size(-2, 6) | st.just("65")],
        ("hyper", "density"): ["--u", descriptor, "--v", descriptor,
                               "--horizon", _size(-5, 100)],
        ("space", "report"): [term], ("space", "bounds"): [term],
        ("space", "hyper-point"): [ordinal], ("space", "hyper-antichain"): [ordinal, ordinal],
        ("space", "skeleton-bound"): [term], ("space", "monotonicity"): [term],
        ("clopen", "op"): [st.sampled_from(["union", "intersect", "complement", "xor"]),
                           clopen, clopen],
        ("clopen", "cb"): [clopen], ("clopen", "tip"): [ordinal, ordinal],
        ("clopen", "treelike"): [ordinal, ordinal, ordinal],
        ("clopen", "minclopen"): [ordinal, ordinal, "--grid", st.sampled_from(
            ["w^2,w^2+w", "w,w^2+1", "1", "", ","])],
        ("mrowka", "adcheck"): [family], ("mrowka", "star"): [family, _size(-2, 1 << 25)],
        ("mrowka", "join"): [family, point, point],
        ("mrowka", "convergence"): [family, _size(-1, 12), _size(-1, 12),
                                    "--horizon", _size(-2, 200)],
        ("mrowka", "lusin"): [family, "--steps", _size(-2, 4) | st.just(str(10 ** 18))],
        ("mrowka", "selector"): [family, "--bound", _size(-2, 40)],
        ("selftest",): ["--seed", _size(-5, 5), "--criteria", criteria],
    }
    command = draw(st.sampled_from(sorted(slots)))
    args = [draw(s) if not isinstance(s, str) else s for s in slots[command]]
    # sometimes drop an argument, or add an unknown one
    if args and draw(st.integers(0, 4)) == 0:
        del args[draw(st.integers(0, len(args) - 1))]
    if draw(st.integers(0, 9)) == 0:
        args.append(draw(st.sampled_from(["--nope", "extra", "-x"])))
    return [*command, *args]


def test_cli_fuzz_keeps_exit_contract(fuzz_files):
    # run lets any exception but SystemExit out, so a handler's uncaught error fails the example
    @settings(max_examples=300, deadline=None, derandomize=True)
    @given(_fuzz_argv(fuzz_files))
    def call(argv):
        code, out, err = run(argv)
        assert code in (0, 1, 2), argv
        assert "Traceback" not in out + err, argv
        assert not cli_golden.PYTHON_TYPE.search(err), (argv, err)

    call()
