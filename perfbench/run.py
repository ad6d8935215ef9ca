#!/usr/bin/env python3
"""ordtop benchmark: the acceptance battery and a stream of CLI calls.

    python3 perfbench/run.py --workload battery --seed 1 --seconds 30 --trace 0

Run it from the root of a checkout; it builds nothing and imports ordtop
from ``src/``.  Every run does the same things, so that every end-to-end
metric is measured on every workload:

* set-up, five times: generate the seeded CLI inputs and start a fresh
  interpreter that imports ``ordtop.acceptance`` (what ``selftest`` pays
  before its first criterion); ``setup_s`` is the median;
* two battery passes, each all 14 criteria in battery order in a fresh
  interpreter, timed by the benchmark around ``run_all``; a criterion's
  time is its faster pass;
* between the passes, a closed loop with one client making
  ``round(seconds * rate)`` calls of ``python -m ordtop.cli``, each a
  fresh process.

Times are in reference seconds (see calib.py).  The workloads differ in
the CLI stream: ``battery`` makes a short start-up-bound sample of light
calls, ``cli-calls`` twice as many calls per second of run time, a quarter
of them heavy and a twentieth malformed.  The criterion times carry the
split between the ordinal-bound criteria (6, 10, 11) and the bitmask-bound
ones (7, 8, 12, 13), so each layer has a metric that moves and one that
should not.

With ``--trace 1`` the run reports per-layer metrics instead: CLI start-up
probes, then one untraced and two traced battery passes, each followed by
the same call list run in-process; the traced counts must agree between
the two traced passes.  The last line of standard output is the result
object; the line before it is the run record, which is also kept under
``.bench_build/perfbench/records/``.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import re
import resource
import shutil
import statistics
import subprocess
import sys
import time
from collections import Counter
from importlib import metadata

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORK = os.path.join(ROOT, ".bench_build", "perfbench")
sys.path.insert(0, HERE)

import calib  # noqa: E402
import climix  # noqa: E402
import tracer  # noqa: E402

WORKLOADS = {
    "battery": {"cli_rate": 1.0, "heavy": 0.0, "malformed": 0.0},
    "cli-calls": {"cli_rate": 2.0, "heavy": 0.25, "malformed": 0.05},
}
# the time budgets written into ordtop.acceptance, copied to report headroom
BUDGETS_S = {1: 0.010, 6: 5.0, 7: 30.0, 13: 10.0}
CRIT_METRICS = (6, 7, 8, 10, 11, 12, 13)
SETUP_REPEATS = 5
PROBE_REPEATS = 7
BUDGET_MISS = re.compile(r"took [\d.]+m?s \(budget \d+m?s\)")
DEADLINE_S = 170.0


class BenchError(Exception):
    pass


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=int, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()
    start = time.monotonic()
    try:
        spec = _load_spec()
        if args.workload not in WORKLOADS:
            raise BenchError(f"unknown workload {args.workload!r}; have {sorted(WORKLOADS)}")
        run = Run(args, spec, start)
        result, record = run.traced() if args.trace else run.untraced()
        _self_check(spec, result["metrics"], args.trace)
    except BenchError as e:
        print(f"perfbench: {e}", file=sys.stderr)
        sys.exit(1)
    os.makedirs(os.path.join(WORK, "records"), exist_ok=True)
    name = f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    with open(os.path.join(WORK, "records", name), "w") as fh:
        json.dump(record, fh, indent=1)
    print("run record: " + json.dumps(record, sort_keys=True))
    print(json.dumps(result))


def _load_spec() -> dict:
    if not os.path.isfile(os.path.join(ROOT, "src", "ordtop", "acceptance.py")):
        raise BenchError(f"no ordtop sources under {os.path.join(ROOT, 'src')}")
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        spec = json.load(fh)
    if sorted(w["name"] for w in spec["workloads"]) != sorted(WORKLOADS):
        raise BenchError("workloads in BENCHMARK.json differ from the benchmark's own")
    return spec


def _self_check(spec: dict, metrics: dict, trace: int):
    """Every printed metric is declared with its unit, and every declared
    metric of this mode is printed."""
    declared = {m["name"]: m["unit"] for m in spec["per_layer" if trace else "end_to_end"]}
    printed = {k: v["unit"] for k, v in metrics.items()}
    if printed != declared:
        missing = sorted(set(declared) - set(printed))
        extra = sorted(set(printed) - set(declared))
        units = sorted(k for k in set(declared) & set(printed) if declared[k] != printed[k])
        raise BenchError(f"metrics disagree with BENCHMARK.json: missing {missing}, "
                         f"undeclared {extra}, unit mismatch {units}")


class Run:
    def __init__(self, args, spec: dict, start: float):
        self.args = args
        self.workload = WORKLOADS[args.workload]
        self.why = next(w["why"] for w in spec["workloads"] if w["name"] == args.workload)
        self.start = start
        self.dir = os.path.join(WORK, f"{args.workload}-seed{args.seed}-trace{args.trace}")
        shutil.rmtree(self.dir, ignore_errors=True)
        os.makedirs(self.dir)
        self.env = dict(os.environ, PYTHONPATH=os.path.join(ROOT, "src"))
        self.n_calls = max(12, round(args.seconds * self.workload["cli_rate"]))

    # -- pieces ------------------------------------------------------------------

    def _timeout(self) -> float:
        left = DEADLINE_S - (time.monotonic() - self.start)
        if left <= 1:
            raise BenchError("run exceeded its time limit")
        return left

    def _py(self, argv: list, **kw) -> subprocess.CompletedProcess:
        try:
            return subprocess.run([sys.executable, *argv], cwd=ROOT, env=self.env,
                                  capture_output=True, text=True, timeout=self._timeout(), **kw)
        except subprocess.TimeoutExpired as e:
            raise BenchError(f"timed out: {argv[:4]}") from e

    def _make_calls(self) -> str:
        inputs = os.path.join(self.dir, "inputs")
        shutil.rmtree(inputs, ignore_errors=True)
        os.makedirs(inputs)
        w = self.workload
        calls = climix.make_calls(self.args.seed, self.n_calls, w["heavy"], w["malformed"], inputs)
        path = os.path.join(self.dir, "calls.json")
        with open(path, "w") as fh:
            json.dump(calls, fh)
        return path

    def _setup(self) -> tuple:
        """Median of SETUP_REPEATS set-ups; returns (seconds, calls path)."""
        times = []
        for _ in range(SETUP_REPEATS):
            (path, proc), _, ref = calib.timed(
                lambda: (self._make_calls(), self._py(["-c", "import ordtop.acceptance"])),
                during=False)
            times.append(ref)
            if proc.returncode:
                raise BenchError(f"cannot import ordtop.acceptance: {proc.stderr[-500:]}")
        return statistics.median(times), path

    def _child(self, tag: str, trace: int, calls: str | None = None) -> dict:
        out = os.path.join(self.dir, f"{tag}.json")
        argv = [os.path.join(HERE, "child.py"), "--seed", str(self.args.seed),
                "--trace", str(trace), "--out", out]
        if calls:
            argv += ["--calls", calls]
        if trace:
            argv += ["--spans", os.path.join(self.dir, f"{tag}.spans")]
        proc = self._py(argv)
        if proc.returncode:
            raise BenchError(f"battery process failed: {proc.stderr[-2000:]}")
        with open(out) as fh:
            return json.load(fh)

    def _cli_stream(self, calls_path: str) -> list:
        with open(calls_path) as fh:
            calls = json.load(fh)
        samples = []
        cal = calib.calibrate()
        for call in calls:
            t0 = time.perf_counter()
            proc = self._py(["-m", "ordtop.cli", *call["args"]])
            raw = time.perf_counter() - t0
            after = calib.calibrate()  # also the next call's "before"
            samples.append({"raw": raw, "ref": raw * calib.REFERENCE_S / ((cal + after) / 2),
                            "kind": call["kind"],
                            "fault": climix.verdict(call, proc.returncode,
                                                    proc.stdout, proc.stderr)})
            cal = after
        return samples

    def _record(self, **extra) -> dict:
        return {"workload": self.args.workload, "why": self.why, "seed": self.args.seed,
                "seconds": self.args.seconds, "trace": self.args.trace,
                "nproc": os.cpu_count(), "python": platform.python_version(),
                "click": metadata.version("click"), "commit": _commit(),
                "wall_s": time.monotonic() - self.start, **extra}

    # -- the two modes --------------------------------------------------------------

    def untraced(self) -> tuple:
        setup_s, calls_path = self._setup()
        first = self._child("battery1", 0)
        stream = self._cli_stream(calls_path)  # also spaces the two passes apart
        second = self._child("battery2", 0)
        passes = [first["criteria"], second["criteria"]]
        crit = _criteria(passes)
        latencies = sorted(s["ref"] * 1000 for s in stream)
        tail_p, tail_ms = _tail(latencies)
        faults = [s for s in stream if s["fault"]]
        attempted = sum(map(len, passes)) + len(stream)
        failed = len(crit["wrong"]) + len(faults)
        rss = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss / 1024
        values = {
            "setup_s": (setup_s, "s"),
            "battery_s": (crit["battery_s"], "s"),
            **{f"crit{k:02d}_s": (crit["elapsed"][k], "s") for k in CRIT_METRICS},
            "budget_ratio_max": (max(b["ratio"] for b in crit["budgets"]), "ratio"),
            "pass_ratio": (1 - failed / attempted, "ratio"),
            "peak_rss_mb": (rss, "MB"),
            "cli_p50_ms": (statistics.median(latencies), "ms"),
            "cli_tail_ms": (tail_ms, "ms"),
        }
        record = self._record(
            samples={"setup": SETUP_REPEATS, "battery_passes": len(passes),
                     "cli_calls": len(stream)},
            cli_tail_percentile=tail_p,
            budgets=crit["budgets"],
            criteria_raw_s={k: [round(r["elapsed"], 4) for p in passes for r in p
                                if r["number"] == k] for k in crit["elapsed"]},
            cli_raw_p50_ms=statistics.median(s["raw"] * 1000 for s in stream),
            wrong_criteria=crit["wrong"],
            budget_misses=crit["budget_misses"],
            cli_faults=[{"kind": s["kind"], "fault": s["fault"]} for s in faults],
            cli_kinds=Counter(s["kind"] for s in stream))
        correct = not crit["wrong"] and not faults
        return _result(correct, attempted, failed, values), record

    def traced(self) -> tuple:
        calls_path = self._make_calls()
        probes = self._cli_probes()
        plain = self._child("untraced", 0, calls_path)
        passes = [self._child(f"traced{i}", 1, calls_path) for i in (1, 2)]
        counts = [p["trace"]["counts"] for p in passes]
        calls = [p["trace"]["calls"] for p in passes]
        if counts[0] != counts[1] or calls[0] != calls[1]:
            diff = sorted(k for k in set(counts[0]) | set(counts[1])
                          if counts[0].get(k) != counts[1].get(k))
            diff += sorted(k for k in set(calls[0]) | set(calls[1])
                           if calls[0].get(k) != calls[1].get(k))
            raise BenchError(f"traced counts differ between two passes on one seed: {diff}")
        layers = [tracer.layer_metrics(p["trace"]) for p in passes]
        untraced_s = _criteria([plain["criteria"]])["battery_s"]
        traced_s = statistics.mean(_criteria([p["criteria"]])["battery_s"] for p in passes)
        values = {}
        for name, value in layers[0].items():
            both = (value, layers[1][name])
            if name.endswith("_s") or name.endswith("_ratio"):
                values[name] = (statistics.mean(both), "s" if name.endswith("_s") else "ratio")
            else:
                values[name] = (value, "count")
        values.update({
            "cli.interpreter_ms": (probes["interpreter_ms"], "ms"),
            "cli.import_ms": (probes["import_ms"], "ms"),
            "cli.import.acceptance_ms": (probes["import_acceptance_ms"], "ms"),
            "cli.handler_ms": (statistics.mean(c["elapsed"] * 1000 for c in plain["calls"]),
                               "ms"),
            "trace.overhead_ratio": (traced_s / untraced_s, "ratio"),
        })
        runs = [plain] + passes
        crit = _criteria([r["criteria"] for r in runs])
        faults = [c["fault"] for r in runs for c in r["calls"] if c["fault"]]
        attempted = sum(len(r["criteria"]) + len(r["calls"]) for r in runs)
        failed = len(crit["wrong"]) + len(faults)
        record = self._record(
            samples={"probes": PROBE_REPEATS, "battery_passes": {"untraced": 1, "traced": 2},
                     "in_process_calls": len(plain["calls"])},
            spans_per_pass=passes[0]["trace"]["spans"],
            battery_s={"untraced": untraced_s,
                       "traced": [_criteria([p["criteria"]])["battery_s"] for p in passes]},
            counts=counts[0], wrong_criteria=crit["wrong"],
            budget_misses=crit["budget_misses"], cli_faults=faults)
        return _result(not crit["wrong"] and not faults, attempted, failed, values), record

    def _cli_probes(self) -> dict:
        def median_ms(argv, repeats=PROBE_REPEATS):
            times = []
            for _ in range(repeats):
                t0 = time.perf_counter()
                proc = self._py(argv)
                times.append((time.perf_counter() - t0) * 1000)
                if proc.returncode:
                    raise BenchError(f"probe failed: {argv}: {proc.stderr[-500:]}")
            return statistics.median(times)

        imports = []  # 0 once the CLI stops importing the battery eagerly
        for _ in range(3):
            proc = self._py(["-X", "importtime", "-c", "import ordtop.cli"])
            if proc.returncode:
                raise BenchError(f"cannot import ordtop.cli: {proc.stderr[-500:]}")
            match = re.search(r"^import time:\s*\d+ \|\s*(\d+) \|\s*ordtop\.acceptance$",
                              proc.stderr, re.M)
            imports.append(int(match.group(1)) / 1000 if match else 0.0)
        return {"interpreter_ms": median_ms(["-c", "pass"]),
                "import_ms": median_ms(["-c", "import ordtop.cli"]),
                "import_acceptance_ms": statistics.median(imports)}


def _criteria(passes: list) -> dict:
    """Battery verdicts as run_all gave them in every pass.  A criterion
    that fails for any reason but its time budget is wrong; a budget miss
    is listed apart, because it flips with the host's speed when a
    criterion sits near its budget (criterion 6 does), and is measured by
    the budget ratios instead.  A criterion's time is its fastest pass in
    reference seconds, and battery_s the fastest whole pass; the budget
    records carry the raw wall times next to the battery's own verdicts."""
    rows = [r for p in passes for r in p]
    elapsed: dict = {}
    for r in rows:
        elapsed[r["number"]] = min(elapsed.get(r["number"], float("inf")), r["ref"])
    misses = [f"{r['number']:02d}-{r['name']}: {r['detail']}" for r in rows
              if not r["passed"] and BUDGET_MISS.fullmatch(r["detail"])]
    wrong = [f"{r['number']:02d}-{r['name']}: {r['detail']}" for r in rows
             if not r["passed"] and not BUDGET_MISS.fullmatch(r["detail"])]
    budgets = [{"criterion": k, "budget_s": b, "ratio": elapsed[k] / b,
                "raw_ratios": [r["elapsed"] / b for r in rows if r["number"] == k],
                "battery_verdicts": [r["passed"] for r in rows if r["number"] == k]}
               for k, b in BUDGETS_S.items()]
    return {"elapsed": elapsed, "battery_s": min(sum(r["ref"] for r in p) for p in passes),
            "budget_misses": misses, "wrong": wrong, "budgets": budgets}


def _tail(sorted_ms: list) -> tuple:
    """The highest percentile with at least ten samples beyond it (nearest
    rank): the eleventh-largest sample."""
    n = len(sorted_ms)
    if n < 11:
        raise BenchError(f"{n} CLI samples leave no percentile with ten beyond it")
    return round(100 * (n - 10) / n, 2), sorted_ms[n - 11]


def _result(correct: bool, attempted: int, failed: int, values: dict) -> dict:
    return {"correct": correct, "attempted": attempted, "failed": failed,
            "metrics": {k: {"value": v, "unit": u} for k, (v, u) in values.items()}}


def _commit() -> str:
    """HEAD of the checkout, read from .git without running git."""
    git = os.path.join(ROOT, ".git")
    try:
        with open(os.path.join(git, "HEAD")) as fh:
            head = fh.read().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if os.path.isfile(os.path.join(git, ref)):
            with open(os.path.join(git, ref)) as fh:
                return fh.read().strip()
        with open(os.path.join(git, "packed-refs")) as fh:
            for line in fh:
                if line.rstrip().endswith(" " + ref):
                    return line.split()[0]
    except OSError:
        pass
    return "unknown (not a git checkout)"


if __name__ == "__main__":
    main()
