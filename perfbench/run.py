"""Benchmark for wallx: four seeded workloads, end-to-end metrics, and a
traced per-layer run.

    python3 perfbench/run.py --workload a1-report --seed 1 --seconds 20 --trace 0
    python3 perfbench/run.py            # every workload, untraced then traced

Run from the repository root; wallx is imported from ``src/``.  One
process, one caller, closed loop: each problem starts when the previous
one has returned.  A run generates one round of problems from the seed
and repeats whole rounds until ``--seconds`` have passed.  The first
round's outputs are the reference: the digest covers them, the oracles
check them (untimed, after the clock stops), and every later round must
reproduce them exactly.  With ``--trace 0`` the last line carries the
end-to-end metrics; with ``--trace 1`` the first half of the time runs
untraced and the second half traced (all of it, given the untraced rate
with ``--untraced-rate``), and the last line carries the per-layer
metrics.  A command that covers more than one (workload,
trace) pair runs each in a fresh interpreter, so that each peak RSS is
its own.  Details go to ``perfbench/results/``.
"""

import argparse
import gc
import hashlib
import json
import math
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

import speed

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
RESULTS = BENCH / "results"

SETUP_REPEATS = 15
TAIL_LADDER = (99.9, 99, 95, 90, 80, 75, 50)
TAIL_BEYOND = 10

END_TO_END = [("problems_per_s", "1/s"), ("problem_ms_p50", "ms"),
              ("problem_ms_tail", "ms"), ("setup_s", "s"), ("peak_rss_mb", "MB")]

_SETUP_CHILD = """\
import sys, time
t = time.perf_counter()
sys.path[:0] = [{bench!r}, {src!r}]
import wallx_setup
wallx_setup.setup({name!r})
print(repr(time.perf_counter() - t))
"""

# The set-up's speed reference: a fresh interpreter importing a fixed set
# of standard modules, work of the same nature as the set-up.  The kernel
# in speed.py slows more than imports do when the host is loaded (1.8x
# against 1.4x), so it scaled set-up times too far.
_BASELINE_CHILD = """\
import time
t = time.perf_counter()
import argparse, dataclasses, decimal, fractions, hashlib, itertools, json, random, \\
    statistics, typing
print(repr(time.perf_counter() - t))
"""
BASELINE_REFERENCE_S = 0.018   # typical baseline import time on the 2-core host


def _child_seconds(code):
    proc = subprocess.run([sys.executable, "-I", "-c", code], cwd=ROOT,
                          capture_output=True, text=True, timeout=120)
    if proc.returncode != 0:
        raise RuntimeError(f"set-up failed: {proc.stderr.strip()}")
    return float(proc.stdout)


def setup_seconds(name):
    """Importing wallx and building the workload's lattices and model in a
    fresh interpreter, each time next to a baseline interpreter.  Returns
    the median over SETUP_REPEATS pairs of set-up time * BASELINE_REFERENCE_S
    / baseline time, and the times as measured."""
    code = _SETUP_CHILD.format(bench=str(BENCH), src=str(SRC), name=name)
    raw, baseline = [], []
    for _ in range(SETUP_REPEATS):
        raw.append(_child_seconds(code))
        baseline.append(_child_seconds(_BASELINE_CHILD))
    times = [t * BASELINE_REFERENCE_S / b for t, b in zip(raw, baseline)]
    return statistics.median(times), times, raw


def tail_percentile(n):
    """Highest ladder percentile with at least TAIL_BEYOND problems above it."""
    for q in TAIL_LADDER:
        if n - math.ceil(q * n / 100) >= TAIL_BEYOND:
            return q
    return 50


def percentile(values, q):
    """The q-th percentile, interpolated between order statistics."""
    return statistics.quantiles(values, n=1000, method="inclusive")[round(10 * q) - 1]


class Run:
    """One workload's problems, their reference outputs and the tallies."""

    def __init__(self, problems):
        self.problems = problems
        self.reference = []          # canonical text per problem
        self.outputs = []            # first-round output objects, for the oracles
        self.attempted = 0
        self.failed = 0
        self.failures = []

    def execute(self, i, tracer=None):
        problem = self.problems[i]
        if tracer is not None:
            tracer.problem = i
        start = time.perf_counter()
        try:
            out, err = problem.run(), None
        except Exception as exc:  # counted as a failed problem; the run goes on
            out, err = None, exc
        elapsed = time.perf_counter() - start
        self.attempted += 1
        return elapsed, out, err

    def fail(self, i, why):
        self.failed += 1
        if len(self.failures) < 20:
            self.failures.append({"problem": i, "kind": self.problems[i].kind,
                                  "why": why[:300]})

    def rounds(self, seconds, tracer=None, on_first=None):
        """Whole rounds until ``seconds`` of wall time have passed (at least
        one).  Returns per-problem times at reference speed, the same as
        measured, and the speed probe readings.  A probe runs before the
        first problem and after every problem; a problem's time is scaled
        by the mean of the readings just before and just after it."""
        times = [[] for _ in self.problems]
        raw = [[] for _ in self.problems]
        gc.collect()
        start = time.perf_counter()
        probes = [speed.probe()]
        self._round(times, raw, probes, tracer, on_first)
        while time.perf_counter() - start < seconds:
            self._round(times, raw, probes, tracer, None)
        return times, raw, probes

    def _round(self, times, raw, probes, tracer, on_first):
        results = []
        for i in range(len(self.problems)):
            elapsed, out, err = self.execute(i, tracer)
            probes.append(speed.probe())
            raw[i].append(elapsed)
            times[i].append(elapsed * speed.REFERENCE_S * 2 / (probes[-2] + probes[-1]))
            results.append((out, err))
            text = f"raised {type(err).__name__}: {err}" if err else self.problems[i].canon(out)
            if len(self.reference) <= i:
                self.outputs.append(out)
                self.reference.append(text)
            if err is not None:
                self.fail(i, text)
            elif text != self.reference[i]:
                self.fail(i, "output differs from the first round's output")
        if on_first is not None:
            on_first(results)

    def check_oracles(self):
        """Untimed: every reference output against its oracle.  Every
        execution of a problem whose output fails counts."""
        executions = self.attempted // len(self.problems)
        for i, problem in enumerate(self.problems):
            if self.outputs[i] is None:
                continue
            try:
                why = problem.check(self.outputs[i], self.reference[i])
            except Exception as exc:  # an oracle that cannot read the output
                why = f"oracle raised {type(exc).__name__}: {exc}"
            if why is not None:
                for _ in range(executions):
                    self.fail(i, f"oracle: {why}")

    def digest(self):
        h = hashlib.sha256()
        for text in self.reference:
            h.update(text.encode())
            h.update(b"\0")
        return h.hexdigest()


def round_counts(tracer, problems, results):
    """Work counts of one traced round: the tracer's, plus those the
    harness reads off outputs (the CLI's exit codes and bytes)."""
    counts = dict(tracer.counts)
    for problem, (out, err) in zip(problems, results):
        if problem.counts is not None:
            for key, value in problem.counts(out, err).items():
                counts[key] = counts.get(key, 0) + value
    return counts


def timing(times, q):
    """Rate and percentiles over every timed execution (whole rounds, so
    each problem weighs the same)."""
    samples = [t for per_problem in times for t in per_problem]
    return {"problems_per_s": len(samples) / sum(samples),
            "problem_ms_p50": 1000 * percentile(samples, 50),
            "problem_ms_tail": 1000 * percentile(samples, q)}


def end_to_end(run, times, raw, setup, setup_raw):
    """The tail percentile is fixed by the round size, so that ten of the
    round's problems lie beyond it.  The result file also keeps the
    figures as measured, before scaling to reference speed."""
    q = tail_percentile(len(times))
    metrics = timing(times, q)
    metrics["setup_s"] = setup
    metrics["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    return metrics, {
        "tail_percentile": q, "problems_per_round": len(times),
        "rounds": len(times[0]), "problems_timed": len(times) * len(times[0]),
        "unscaled": dict(timing(raw, q), setup_s=statistics.median(setup_raw)),
        "problem_ms": [{"kind": p.kind, "ms": [1000 * t for t in ts]}
                       for p, ts in zip(run.problems, times)]}


def run_workload(name, seed, seconds, trace, untraced_rate=None):
    """One workload, untraced or traced.  A traced run given the untraced
    ``problems_per_s`` of the same workload and seed traces for all of
    ``seconds``; otherwise it first measures that rate untraced for half."""
    import tracing
    import wallx_setup
    import workloads

    record = {"workload": name, "seed": seed, "seconds": seconds, "trace": trace,
              "python": platform.python_version(), "machine": platform.machine(),
              "cpus": os.cpu_count()}
    if not trace:
        setup, setup_all, setup_raw = setup_seconds(name)
        record["setup_runs_s"] = setup_all
    ctx = wallx_setup.setup(name)
    problems, properties = workloads.ROUNDS[name](seed, ctx)
    record["inputs"] = properties
    run = Run(problems)
    RESULTS.mkdir(exist_ok=True)

    if not trace:
        times, raw, probes = run.rounds(seconds)
        metrics, detail = end_to_end(run, times, raw, setup, setup_raw)
        units = dict(END_TO_END)
    else:
        traced_seconds = seconds
        if untraced_rate is None:
            times, _, _ = run.rounds(seconds / 2)
            untraced_rate = timing(times, 50)["problems_per_s"]
            traced_seconds = seconds / 2
        tracer = tracing.Tracer()
        first_counts = {}

        def on_first(results):
            first_counts.update(round_counts(tracer, run.problems, results))

        with tracer.installed():
            t_times, _, probes = run.rounds(traced_seconds, tracer, on_first)
        rounds = len(t_times[0])
        scale = speed.REFERENCE_S / statistics.median(probes)
        metrics = tracing.layer_metrics(tracer.spans, rounds, first_counts, scale)
        metrics["trace.problems_per_s"] = timing(t_times, 50)["problems_per_s"]
        metrics["trace.overhead_ratio"] = untraced_rate / metrics["trace.problems_per_s"]
        detail = {"untraced_problems_per_s": untraced_rate, "traced_rounds": rounds,
                  "spans": len(tracer.spans)}
        units = dict(tracing.PER_LAYER)
        spans_path = RESULTS / f"{name}-seed{seed}-spans.jsonl"
        with open(spans_path, "w", encoding="utf-8") as handle:
            for span in tracer.spans:
                handle.write(json.dumps(dict(zip(
                    ("name", "start", "end", "parent", "problem"), span))) + "\n")
        detail["spans_file"] = str(spans_path.relative_to(ROOT))

    record["speed_probe_median_s"] = statistics.median(probes)
    run.check_oracles()
    if name == "cli-docs":
        record["known_defects"] = workloads.known_defects()
    record.update(detail)
    record["output_digest"] = run.digest()
    record["attempted"] = run.attempted
    record["failed"] = run.failed
    record["failed_frac"] = run.failed / run.attempted
    record["failures"] = run.failures
    record["metrics"] = {k: {"value": v, "unit": units[k]} for k, v in metrics.items()}
    out_path = RESULTS / f"{name}-seed{seed}-trace{int(trace)}.json"
    out_path.write_text(json.dumps(record, indent=2) + "\n", encoding="utf-8")
    record["result_file"] = str(out_path.relative_to(ROOT))
    return record


def report(record):
    name = record["workload"]
    for key, m in record["metrics"].items():
        print(f"{name}  {key} = {m['value']:.6g} {m['unit']}")
    print(f"{name}  failed_frac = {record['failed_frac']:.6g} "
          f"({record['failed']} of {record['attempted']} problems)")
    if "tail_percentile" in record:
        print(f"{name}  problem_ms_tail is p{record['tail_percentile']:g} over "
              f"{record['problems_per_round']} problems ({record['rounds']} timed rounds)")
    for defect in record.get("known_defects", []):
        print(f"{name}  known defect {defect['roadmap']}: {defect['document']}: "
              f"{defect['outcome']}")
    for failure in record["failures"][:5]:
        print(f"{name}  FAILED problem {failure['problem']} ({failure['kind']}): "
              f"{failure['why']}")
    print(f"{name}  output sha256 {record['output_digest']}")
    print(f"{name}  details in {record['result_file']}")


def result_line(metrics, attempted, failed):
    return json.dumps({"correct": failed == 0, "attempted": attempted,
                       "failed": failed, "metrics": metrics})


def run_children(names, args):
    """Each (workload, trace) pair in a fresh interpreter; its lines are
    passed on, and the result lines are merged into one."""
    metrics, attempted, failed = {}, 0, 0
    traces = (0, 1) if args.trace is None else (args.trace,)
    for name in names:
        rate = None
        for trace in traces:
            argv = [sys.executable, str(Path(__file__).resolve()), "--workload", name,
                    "--seed", str(args.seed), "--seconds", str(args.seconds),
                    "--trace", str(trace)]
            if trace and rate is not None:
                argv += ["--untraced-rate", repr(rate)]
            proc = subprocess.run(argv, cwd=ROOT, stdout=subprocess.PIPE, text=True)
            lines = proc.stdout.splitlines()
            if proc.returncode != 0 or not lines:
                print(f"error: {name} (trace {trace}) exited {proc.returncode}",
                      file=sys.stderr)
                return proc.returncode or 1
            print("\n".join(lines[:-1]), flush=True)
            result = json.loads(lines[-1])
            attempted += result["attempted"]
            failed += result["failed"]
            metrics.update({f"{name}.{k}": v for k, v in result["metrics"].items()})
            if not trace:
                rate = result["metrics"]["problems_per_s"]["value"]
    print(result_line(metrics, attempted, failed))
    return 0


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", default="all",
                        help="a1-report, resum-mix, wall-sweep, cli-docs or all")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=20)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=None,
                        help="0: end-to-end metrics; 1: per-layer metrics "
                             "(default: both, one after the other)")
    parser.add_argument("--untraced-rate", type=float, default=None,
                        help="untraced problems_per_s of the same workload and "
                             "seed; with it, a traced run traces all its time")
    args = parser.parse_args(argv)
    if not (SRC / "wallx" / "__init__.py").is_file():
        print(f"error: wallx sources not found under {SRC}", file=sys.stderr)
        return 2
    sys.path[:0] = [str(BENCH), str(SRC)]
    import workloads

    names = tuple(workloads.ROUNDS) if args.workload == "all" else (args.workload,)
    if any(n not in workloads.ROUNDS for n in names):
        parser.error(f"unknown workload {args.workload!r}")
    if len(names) > 1 or args.trace is None:
        return run_children(names, args)
    record = run_workload(names[0], args.seed, args.seconds, args.trace,
                          args.untraced_rate if args.trace else None)
    report(record)
    print(result_line(record["metrics"], record["attempted"], record["failed"]))
    return 0


if __name__ == "__main__":
    sys.exit(main())
