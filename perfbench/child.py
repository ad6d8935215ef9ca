"""One fresh interpreter's share of a benchmark run.

Runs the 14 acceptance criteria in battery order, each through
``acceptance.run_all(seed, numbers=[k])`` under the benchmark's own timer
and with the host's speed probed around and during it (calib.py), so that
criteria 7 and 8 share the cold ``all_labeled_posets`` cache exactly as
``ordtop selftest`` does.  With ``--calls`` it then runs that call list
in-process through click's ``CliRunner``.  With ``--trace 1`` the layer
functions are wrapped before anything runs.  The result is one JSON file.

    python3 perfbench/child.py --seed 3 --trace 0 --out result.json [--calls calls.json]
"""

from __future__ import annotations

import argparse
import contextlib
import json
import time

import calib
import climix


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--calls", default=None)
    ap.add_argument("--out", required=True)
    ap.add_argument("--spans", default=None, help="where a traced pass writes its spans")
    args = ap.parse_args()

    from ordtop import acceptance

    tracer = None
    if args.trace or args.calls:
        import ordtop.cli  # noqa: F401  (bound before wrapping)
    if args.trace:
        from tracer import Tracer
        tracer = Tracer()
        tracer.install()

    def span(name):
        return tracer.span(name) if tracer else contextlib.nullcontext()

    def criterion(number):
        with span("acceptance.criterion"):
            return acceptance.run_all(args.seed, numbers=[number])

    criteria = []
    for number, name, _ in acceptance.CRITERIA:
        [result], raw, ref = calib.timed(lambda: criterion(number))
        criteria.append({"number": number, "name": name, "passed": result.passed,
                         "detail": result.detail, "elapsed": raw, "ref": ref})

    calls = []
    if args.calls:
        from click.testing import CliRunner
        from ordtop.cli import main as cli_main
        with open(args.calls) as fh:
            call_list = json.load(fh)
        runner = CliRunner()
        for call in call_list:
            with span("cli.call"):
                t0 = time.perf_counter()
                res = runner.invoke(cli_main, call["args"])
                elapsed = time.perf_counter() - t0
            stderr = res.stderr
            if res.exception is not None and not isinstance(res.exception, SystemExit):
                stderr += f"\nTraceback: {type(res.exception).__name__}: {res.exception}"
            calls.append({"elapsed": elapsed,
                          "fault": climix.verdict(call, res.exit_code, res.stdout, stderr)})

    out = {"criteria": criteria, "calls": calls}
    if tracer:
        out["trace"] = tracer.summary()
        if args.spans:
            tracer.write_spans(args.spans)
    with open(args.out, "w") as fh:
        json.dump(out, fh)


if __name__ == "__main__":
    main()
