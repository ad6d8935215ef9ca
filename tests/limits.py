"""Every work limit of ordtop, run on both sides in fresh processes:  python tests/limits.py [--json FILE]

A row names a limit constant ``module.NAME`` (or None), the argv of one ``ordtop`` call and its ``in.json``
text, each a function of a value or a string (argv is split on spaces, its ``{}`` takes the value), the
largest accepted value and the refused ones, and the wall time (s) and peak RSS (MB) each call stays within,
under RLIMIT_AS.  Accepted, a call exits 0 or 1 and prints ``stdout`` if given; refused, it exits 2 with
nothing on stdout and one ``error:`` line that names no Python type and holds ``says`` (its ``{}`` the value)
with no digit after it.  tests/test_limits.py runs every refused call in process.  ``--json FILE`` also writes
a JSON list with one record per call: its row's index and constant, its side, argv, exit code, seconds and
peak MB (null for a call killed before it exits)."""

import importlib, json, os, re, resource, subprocess, sys, tempfile, threading, time  # noqa: E401
from collections import namedtuple
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src"
sys.path.insert(0, str(SRC))  # each limit's value is read from the module that refuses past it
from cli_golden import LUSIN_STEPS, PYTHON_TYPE  # noqa: E402

Row = namedtuple("Row", "constant argv text accept refuse seconds mb stdout says",
                 defaults=(None, None, (), 5, 40, None, None))


def limit(constant, argv, text=None, accept=None, past=(), says="%s", **bounds):
    """A row accepted at the constant's value or ``accept``, refused one past and at each of ``past``, where
    it says ``says`` with NAME = value for its %s."""
    module, name = constant.split(".")
    value = getattr(importlib.import_module("ordtop." + module), name)
    accept = value if accept is None else accept
    says = says.replace("%s", f"{name} = {value}")
    return Row(constant, argv, text, accept, (accept + 1, *past), says=says, **bounds)


def refusal(*args, **kwargs):  # a limit row with no accepted side: there the call fails for another reason
    return limit(*args, **kwargs)._replace(accept=None)


def poset(n, covers=None):  # a chain by default
    covers = [(i, i + 1) for i in range(n - 1)] if covers is None else covers
    return json.dumps({"elements": [*map(str, range(n))], "covers": [[str(a), str(b)] for a, b in covers]})


def family(*sets):  # (period, residues, delta) triples, or m for the progressions mod m
    sets = sets if isinstance(sets[0], tuple) else [(sets[0], [r], []) for r in range(sets[0])]
    return json.dumps({"sets": [{"period": p, "residues": r, "delta": d} for p, r, d in sets]})


def pieces(n):  # the clopen set of the n pieces (2k, 2k+1] in [0, w]: 46,893 bytes at n = 4,000
    return " ".join(f"({2 * k},{2 * k + 1}]" for k in range(n)) + " @ w"


AT_0, DOWNSETS = "%s bits (at position 0)", "more than %s downsets"
ENUMERATIONS = ("poset zaguia", "hyper build --dot", "hyper universal", "hyper selector", "poset downsets",
                "poset downsets --dot", "hyper build")
HORIZON = "error: horizon {} over MAX_HORIZON = 1048576\n"
CHAIN = "error: chain length {} over MAX_CHAIN = 64\n"
ROWS = [
    limit("ordinal.MAX_COEFF_BITS", lambda b: f"ord norm {(1 << b) - 1}"),
    # a number in the input is refused at its position, the coefficient of a power or a product as it is built
    limit("ordinal.MAX_COEFF_BITS", lambda b: f"ord odot w {1 << b - 1}", says=AT_0),
    limit("ordinal.MAX_COEFF_BITS", lambda n: f"ord odot w {'9' * n}", accept=3010, past=(5000,), says=AT_0),
    refusal("ordinal.MAX_COEFF_BITS", lambda n: f"ord natprod {'7' * n} {'7' * n}", accept=3999, says=AT_0),
    limit("ordinal.MAX_COEFF_BITS", lambda b: f"ord pow 2 {b - 1}", past=(100_001, 1_000_000_001)),
    limit("ordinal.MAX_COEFF_BITS", lambda b: f"ord pow 2 w+{b - 1}", past=(100_001,)),
    *(limit("ordinal.MAX_COEFF_BITS", lambda n, c=c: f"ord {c} {'7' * n} {'7' * n}", accept=1505,
            past=(2000,)) for c in ("natprod", "mul", "odot")),
    limit("ordinal.MAX_TERMS", lambda t: f"ord pow w+1 {t - 1}", past=(1_000_000_001,)),
    limit("ordinal.MAX_NESTING", lambda d: "ord norm " + "w^" * d + "1", past=(3000,),
          says="nested deeper than %s"),
    limit("ordinal.MAX_NESTING", lambda d: "space report " + "sum(" * d + "ord(1)" + ")" * d, past=(2000,),
          says="error: space terms nested deeper than MAX_NESTING = 100\n"),
    *(limit("poset.MAX_ELEMENTS", c + " in.json", poset, says="over %s") for c in ENUMERATIONS),
    # the n-element antichain has 2^n downsets; a skeleton labels it i mod 3, or 1
    *(limit("poset.MAX_DOWNSETS", c + " in.json", lambda n: poset(n, []), 11, seconds=10, says=DOWNSETS)
      for c in ENUMERATIONS),
    *(limit("poset.MAX_DOWNSETS", lambda n, c=c, label=label: [
        "space", c, f"skel({poset(n, [])}, {json.dumps({str(i): label(i) for i in range(n)})})"],
        None, 11, seconds=10, says=DOWNSETS)
      for c in ("skeleton-bound", "monotonicity") for label in (lambda i: i % 3, lambda i: 1)),
    # maps of an n-chain into the 8-chain: past 8^6 of them, uniqueness is checked on the generators
    *(Row("hyperspace.MAX_ASSIGNMENTS", "hyper universal in.json --chain 8", poset, n, stdout=json.dumps(
        {"check": "universal-property", "homs_found": 1, "method": m, "pass": True, "witness": None}) + "\n")
      for n, m in ((6, "enumerated"), (7, "generators"))),
    limit("hyperspace.MAX_CHAIN", "hyper universal in.json --chain {}", poset(3, [(0, 2), (1, 2)]),
          past=(200, 1_000_000), says=CHAIN),
    limit("clopen.MAX_GRID", lambda n: f"clopen minclopen w*{n - 1} w*{n - 1}", says="%s values"),
    limit("clopen.MAX_GRID", lambda n: f"clopen minclopen w*{n - 1} w^2", past=(2 ** 9999 + 1,),
          says="%s values"),
    # n values below w^2, the first 257 of them ending in w*256, whose piece is the answer
    limit("clopen.MAX_GRID", lambda n: "clopen minclopen w*256 w^2 --grid " + ",".join(
        ["0", *(f"w*{j}" for j in range(1, 257)), *(f"w*256+{k}" for k in range(1, n - 256))]),
        seconds=10, stdout="(w*255,w*256] @ w^2\n"),
    refusal("clopen.MAX_GRID", lambda n: "clopen minclopen w w^2 --grid " + ",".join(map(str, range(n))),
            says="%s values"),
    limit("clopen.MAX_ENDPOINTS", "clopen cb (0,w*{0}]@w*{0}", mb=60),
    limit("clopen.MAX_ENDPOINTS", lambda n: ["clopen", "cb", f"(0,w*{n}] @ w^2"], mb=60,
          says="%s end points"),
    limit("mrowka.MAX_TRUNCATION", "mrowka selector in.json --bound {}", family(2), mb=60,
          says="error: truncation bound {} over MAX_TRUNCATION = 16384\n"),
    limit("mrowka.MAX_CODE_BOUND", "mrowka star in.json {}", family(2)),
    limit("mrowka.MAX_STAR_CODES", "mrowka star in.json {}", family(1), mb=120),
    # the most steps over the progressions mod 64, and the most progressions in one step
    limit("mrowka.MAX_LUSIN_PICKS", "mrowka lusin in.json --steps {}", family(64), 59, seconds=10),
    limit("mrowka.MAX_LUSIN_PICKS", "mrowka lusin in.json", family, 724, seconds=10),
    # admitted over the two parity classes, a run reaches the scan, which fails at step 4
    refusal("mrowka.MAX_LUSIN_PICKS", "mrowka lusin in.json --steps {}", family(2), LUSIN_STEPS, (10 ** 18,),
            says="over MAX_LUSIN_PICKS = 262144\n"),
    # two classes mod v + 1: the one pick of the stage is v, the least member of the second
    limit("mrowka.MAX_STAGE_MEMBER", "mrowka lusin in.json",
          lambda v: family((v + 1, [v - 1], []), (v + 1, [v], []))),
    # two points of 16,000 members below n, the most one argument holds
    limit("mrowka.MAX_POINT_MEMBER", lambda n: "mrowka join in.json " + " ".join(
        "fin:" + ",".join(map(str, range(n - k - 16_000, n - k))) for k in (0, 16_000)), family(2), mb=60),
    limit("mrowka.MAX_HORIZON", "mrowka convergence in.json 0 1 --horizon {}",
          family((2, [0], []), (2, [1], [*range(50_000)])), past=(10 ** 18,), says=HORIZON),
    # an over-limit option is refused before the file is read: a missing one, or one that is not JSON
    *(refusal(c, argv.format(file), "{", says=says) for file in ("missing.json", "in.json")
      for c, argv, says in (("mrowka.MAX_HORIZON", "mrowka convergence {} 0 1 --horizon {{}}", HORIZON),
                            ("hyperspace.MAX_CHAIN", "hyper universal {} --chain {{}}", CHAIN))),
    Row(None, "poset hasse in.json", poset, 3000),
    Row(None, lambda n: "clopen treelike w^2 " + " ".join(f"w*{a // 30 + 1}+{a % 30}" for a in range(n)),
        accept=2400),
    *(Row(None, c + " in.json", lambda d: "[" * d + "]" * d, refuse=(100_000,),
          says="error: JSON nested too deep to decode\n") for c in ("poset width", "mrowka adcheck")),
    Row(None, "selftest --seed 0 --criteria {}", refuse=(99,), says="no criterion numbered 99"),
    Row(None, "selftest --seed 0 --criteria {}", refuse=(",",), says="no criterion number given"),
    Row(None, "mrowka join in.json {} branch:0", family(2), refuse=("fin:-2",), says="expected a number"),
    Row(None, "clopen minclopen w w^2 --grid {}", refuse=(",".join(map(str, range(20))),),
        says="no candidate in grid has the prescribed end point"),
    # the meet of two 4,000-piece sets: one merge of the piece lists, not a test of every pair
    Row(None, lambda n: ["clopen", "op", "intersect", pieces(n), pieces(n)], accept=4000,
        stdout=pieces(4000) + "\n"),
    # a natural product is refused by its count of term pairs: t by 1, and n by n interleaved ones
    limit("ordinal.MAX_PRODUCT_PAIRS",
          lambda t: "ord natprod " + "+".join(f"w^{k}" for k in range(t, 0, -1)) + " 2"),
    limit("ordinal.MAX_PRODUCT_PAIRS", lambda n: "ord natprod " + "+".join(
        f"w^(w+{k})" for k in range(n, 0, -1)) + " " + "+".join(f"w^(w^{k})*3" for k in range(n, 0, -1)),
        accept=50, past=(999,)),
]


def argv(row, value):
    """The argv of the row's call at ``value``."""
    argv = row.argv.format(value) if isinstance(row.argv, str) else row.argv(value)
    return argv.split() if isinstance(argv, str) else argv


def check(row, run, log=None):
    """One line per call of the row through ``run(argv, seconds)``, which gives the call's exit code, stdout,
    stderr, wall time (s) and peak RSS (MB); the line ends in ``ok`` or in what went wrong.  A call runs
    where its ``in.json`` is written.  ``log``, if given, takes each call's record for ``--json``."""
    for refused, value in [(False, row.accept)] * (row.accept is not None) + [(True, v) for v in row.refuse]:
        Path("in.json").write_text((row.text(value) if callable(row.text) else row.text) or "")
        status, out, err, wall, mb = run(call := argv(row, value), row.seconds)
        if log:
            log({"side": "refused" if refused else "accepted", "argv": call, "exit": status,
                 "seconds": round(wall, 4), "mb": None if mb != mb else round(mb, 1)})
        wrong = [f"exit {status}"] * (status not in ((2,) if refused else (0, 1)))
        wrong += [f"{wall:.2f} s over {row.seconds}"] * (wall > row.seconds)
        wrong += [f"{mb:.0f} MB over {row.mb}"] * (mb > row.mb)
        if (out or not re.fullmatch(r"error: .*\n", err) or PYTHON_TYPE.search(err)
                or not re.search(re.escape(row.says.format(value)) + r"(?!\d)", err)
                if refused else row.stdout not in (None, out)):
            wrong.append(f"stdout {out[:80]!r}, stderr {err[:160]!r}")
        yield (f"{row.constant or '-':26} {'refused' if refused else 'accepted':8} "
               f"{' '.join(argv(row, value))[:48]:48}{wall:5.2f} s {mb:4.0f} MB  {'; '.join(wrong) or 'ok'}")


# a call as the console script makes it, which writes its own VmHWM (kB) to file descriptor {} as it exits;
# getrusage and wait4 would count the runner's RSS at the fork as well
CALL = """import atexit, os, sys
atexit.register(lambda: os.write({}, open("/proc/self/status").read().split("VmHWM:")[1].split()[0].encode()))
from ordtop.cli import main
sys.argv[0] = "ordtop"
main()"""


def fresh(argv, seconds):
    """One call of ``ordtop.cli.main()`` in a fresh process under RLIMIT_AS, killed past ``seconds``; the peak
    RSS of a call killed before it exits is NaN."""
    with (tempfile.TemporaryFile("w+") as out, tempfile.TemporaryFile("w+") as err,
          tempfile.TemporaryFile() as kb):
        t0 = time.perf_counter()
        child = subprocess.Popen(
            [sys.executable, "-c", CALL.format(kb.fileno()), *argv], stdout=out, stderr=err,
            pass_fds=(kb.fileno(),), env={**os.environ, "PYTHONPATH": str(SRC)},
            preexec_fn=lambda: resource.setrlimit(resource.RLIMIT_AS, (1 << 30,) * 2))
        timer = threading.Timer(seconds, child.kill)
        timer.start()
        status = child.wait()
        wall = time.perf_counter() - t0
        timer.cancel()
        peak = int(kb.seek(0) or kb.read() or "0") / 1024 or float("nan")
        return (status, *(f.seek(0) or f.read() for f in (out, err)), wall, peak)


if __name__ == "__main__":
    path = Path(sys.argv[sys.argv.index("--json") + 1]).resolve() if "--json" in sys.argv else None
    lines, calls = [], []
    with tempfile.TemporaryDirectory() as tmp:
        os.chdir(tmp)
        for i, row in enumerate(ROWS):
            lines += check(row, fresh, lambda call: calls.append({"row": i, "constant": row.constant} | call))
    print("\n".join(lines))
    if path:
        path.write_text("[\n" + ",\n".join(map(json.dumps, calls)) + "\n]\n")
    sys.exit(any(not line.endswith(" ok") for line in lines))
