"""Every work limit of ordtop, run on both sides in fresh processes:  python tests/limits.py

A row names a limit constant ``module.NAME`` (or None), the argv of one ``python -m ordtop.cli``
call and its ``in.json`` text, each a function of a value or a string (argv is split on spaces, its
``{}`` takes the value), the largest accepted and first refused value, and the wall time (s) and
peak RSS (MB) each side stays within, under RLIMIT_AS.  Accepted, a call exits 0 or 1 and prints
``stdout`` if given; refused, it exits 2 with nothing on stdout and ``says`` on stderr."""

import importlib, json, os, resource, subprocess, sys, tempfile, threading, time  # noqa: E401
from collections import namedtuple
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src"
sys.path.insert(0, str(SRC))  # each limit's value is read from the module that refuses past it
Row = namedtuple("Row", "constant argv text accept refuse seconds mb stdout says",
                 defaults=(None, None, None, 5, 40, None, None))


def limit(constant, argv, text=None, accept=None, **bounds):
    """A row accepted at the constant's value or ``accept``, refused one past, saying NAME = value."""
    module, name = constant.split(".")
    value = getattr(importlib.import_module("ordtop." + module), name)
    accept = value if accept is None else accept
    return Row(constant, argv, text, accept, accept + 1, says=f"{name} = {value}", **bounds)


def poset(n, covers=None):  # a chain by default
    covers = [(i, i + 1) for i in range(n - 1)] if covers is None else covers
    return json.dumps({"elements": [*map(str, range(n))], "covers": [[str(a), str(b)] for a, b in covers]})


def family(*sets):  # (period, residues, delta) triples, or m for the progressions mod m
    sets = sets if isinstance(sets[0], tuple) else [(sets[0], [r], []) for r in range(sets[0])]
    return json.dumps({"sets": [{"period": p, "residues": r, "delta": d} for p, r, d in sets]})


ROWS = [
    limit("ordinal.MAX_COEFF_BITS", lambda b: f"ord norm {(1 << b) - 1}"),
    limit("ordinal.MAX_TERMS", lambda t: f"ord pow w+1 {t - 1}"),
    limit("ordinal.MAX_NESTING", lambda d: "space report " + "sum(" * d + "ord(1)" + ")" * d),
    limit("poset.MAX_ELEMENTS", "poset zaguia in.json", poset),
    # the n-element antichain has 2^n downsets; its skeleton labels i with i mod 3
    *(limit("poset.MAX_DOWNSETS", c + " in.json", lambda n: poset(n, []), 11, seconds=10)
      for c in ("poset zaguia", "hyper build --dot", "hyper universal", "hyper selector")),
    *(limit("poset.MAX_DOWNSETS", lambda n, c=c: ["space", c, "skel(" + poset(n, []) + ", " + json.dumps(
        {str(i): i % 3 for i in range(n)}) + ")"], None, 11, seconds=10)
      for c in ("skeleton-bound", "monotonicity")),
    # maps of an n-chain into the 8-chain: past 8^6 of them, uniqueness is checked on the generators
    *(Row("hyperspace.MAX_ASSIGNMENTS", "hyper universal in.json --chain 8", poset, n, stdout=json.dumps(
        {"check": "universal-property", "homs_found": 1, "method": m, "pass": True, "witness": None}) + "\n")
      for n, m in ((6, "enumerated"), (7, "generators"))),
    limit("hyperspace.MAX_CHAIN", "hyper universal in.json --chain {}", poset(3, [(0, 2), (1, 2)])),
    limit("clopen.MAX_GRID", lambda n: f"clopen minclopen w*{n - 1} w*{n - 1}"),
    # n values below w^2, the first 257 of them ending in w*256, whose piece is the answer
    limit("clopen.MAX_GRID", lambda n: "clopen minclopen w*256 w^2 --grid " + ",".join(
        ["0", *(f"w*{j}" for j in range(1, 257)), *(f"w*256+{k}" for k in range(1, n - 256))]),
        seconds=10, stdout="(w*255,w*256] @ w^2\n"),
    limit("clopen.MAX_ENDPOINTS", "clopen cb (0,w*{0}]@w*{0}", mb=60),
    limit("mrowka.MAX_TRUNCATION", "mrowka selector in.json --bound {}", family(2), mb=60),
    limit("mrowka.MAX_CODE_BOUND", "mrowka star in.json {}", family(2)),
    limit("mrowka.MAX_STAR_CODES", "mrowka star in.json {}", family(1), mb=120),
    # the most steps over the progressions mod 64, and the most progressions in one step
    limit("mrowka.MAX_LUSIN_PICKS", "mrowka lusin in.json --steps {}", family(64), 59, seconds=10),
    limit("mrowka.MAX_LUSIN_PICKS", "mrowka lusin in.json", family, 724, seconds=10),
    # two classes mod v + 1: the one pick of the stage is v, the least member of the second
    limit("mrowka.MAX_STAGE_MEMBER", "mrowka lusin in.json",
          lambda v: family((v + 1, [v - 1], []), (v + 1, [v], []))),
    # two points of 16,000 members below n, the most one argument holds
    limit("mrowka.MAX_POINT_MEMBER", lambda n: "mrowka join in.json " + " ".join(
        "fin:" + ",".join(map(str, range(n - k - 16_000, n - k))) for k in (0, 16_000)), family(2), mb=60),
    limit("mrowka.MAX_HORIZON", "mrowka convergence in.json 0 1 --horizon {}",
          family((2, [0], []), (2, [1], [*range(50_000)]))),
    Row(None, "poset hasse in.json", poset, 3000),
    Row(None, lambda n: "clopen treelike w^2 " + " ".join(f"w*{a // 30 + 1}+{a % 30}" for a in range(n)),
        accept=2400),
    Row(None, "poset width in.json", lambda d: "[" * d + "]" * d, refuse=100_000,
        says="JSON nested too deep"),
    Row(None, "selftest --seed 0 --criteria {}", refuse=99, says="no criterion numbered 99"),
    Row(None, "selftest --seed 0 --criteria {}", refuse=",", says="no criterion number given"),
    Row(None, "mrowka join in.json {} branch:0", family(2), refuse="fin:-2", says="expected a number"),
    Row(None, "clopen minclopen w w^2 --grid {}", refuse=",".join(map(str, range(20))),
        says="no candidate in grid has the prescribed end point"),
]


def check(row):
    """One line per side of the row, ending in ``ok`` or in what went wrong."""
    for refused, value in ((False, row.accept), (True, row.refuse)):
        if value is None:
            continue
        argv = row.argv.format(value) if isinstance(row.argv, str) else row.argv(value)
        argv = argv.split() if isinstance(argv, str) else argv
        with tempfile.TemporaryDirectory() as tmp, tempfile.TemporaryFile("w+") as out, \
                tempfile.TemporaryFile("w+") as err:
            Path(tmp, "in.json").write_text((row.text(value) if callable(row.text) else row.text) or "")
            t0 = time.perf_counter()
            child = subprocess.Popen(
                [sys.executable, "-m", "ordtop.cli", *argv], cwd=tmp, stdout=out, stderr=err,
                env={**os.environ, "PYTHONPATH": str(SRC)},
                preexec_fn=lambda: resource.setrlimit(resource.RLIMIT_AS, (1 << 30,) * 2))
            timer = threading.Timer(row.seconds, child.kill)
            timer.start()
            _, status, usage = os.wait4(child.pid, 0)  # in KB, at least the runner's RSS at the fork
            wall, mb = time.perf_counter() - t0, usage.ru_maxrss / 1024
            timer.cancel()
            child.returncode = status = os.waitstatus_to_exitcode(status)
            out, err = (f.seek(0) or f.read() for f in (out, err))
        wrong = [f"exit {status}"] * (status not in ((2,) if refused else (0, 1)))
        wrong += [f"{wall:.2f} s over {row.seconds}"] * (wall > row.seconds)
        wrong += [f"{mb:.0f} MB over {row.mb}"] * (mb > row.mb)
        if (out or row.says not in err) if refused else row.stdout not in (None, out):
            wrong.append(f"stdout {out[:80]!r}, stderr {err[:160]!r}")
        yield (f"{row.constant or '-':26} {'refused' if refused else 'accepted':8} {' '.join(argv)[:48]:48}"
               f"{wall:5.2f} s {mb:4.0f} MB  {'; '.join(wrong) or 'ok'}")


if __name__ == "__main__":
    lines = [line for row in ROWS for line in check(row)]
    print("\n".join(lines))
    sys.exit(any(not line.endswith(" ok") for line in lines))
