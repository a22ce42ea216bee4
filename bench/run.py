#!/usr/bin/env python3
"""Seeded end-to-end benchmark of the presburger command line.

    python3 bench/run.py [--workload NAME|all] [--seed N] [--seconds S]
                         [--trace 0|1]

One process per workload, one thread.  The workload's query list (see
workloads.py) is generated from the seed and each query's argument vector
is passed to `presburger.cli.main` in this process with stdout captured.
A first pass answers every query and checks each answer against an oracle
that does not use presburger (oracles.py); it also warms the interpreter.
Timed passes then repeat the list until --seconds have passed, and every
answer must be byte-identical to the first pass.  Times are medians over
the timed passes.

Times are CPU seconds of the one thread doing the work (time.thread_time:
while a process-wide CPU timer such as ITIMER_PROF is armed, Linux updates
the process clock only at scheduler ticks), rescaled to a fixed machine
speed.  On a shared virtual machine the speed can drift by tens of
percent within seconds, in CPU time as well as wall time.  So the
benchmark times a fixed piece of interpreted work (reference_work:
Fraction and dict arithmetic, like the program's own) before every query and, through SIGPROF, every SAMPLE_EVERY_S of CPU time
while it runs; the samples' own time is taken out of the query's.  Each
query's time is multiplied by REF_NOMINAL_S over the mean reference time
of the samples of the queries around it, so a long query is scaled by
the speed during it.  The figures read as seconds on a machine where the
reference work takes REF_NOMINAL_S; a change to the program moves them as
it moves raw times.
"""

import argparse
import contextlib
import gc
import io
import json
import math
import os
import resource
import signal
import statistics
import subprocess
import sys
import time
import traceback
from fractions import Fraction
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "out"
sys.path.insert(0, str(HERE))

import oracles  # noqa: E402  (found next to this file)
import tracing  # noqa: E402
import workloads  # noqa: E402

# No seed query comes near this; an overrun counts as a failed query that
# took the whole limit.
QUERY_LIMIT_S = 30.0
SETUP_RUNS = 9
TIMEOUT, CRASH = "timeout", "crash"
# Highest percentile with at least ten queries beyond it.
TAIL_PCT = 100 * (workloads.QUERIES - 10) / workloads.QUERIES

END_TO_END = [
    ("wall_s", "s"), ("query_geomean_s", "s"), ("query_p50_s", "s"),
    ("query_tail_s", "s"), ("setup_s", "s"), ("peak_rss_mib", "MiB"),
    ("output_bytes", "B"),
]

# CPU seconds of reference_work() at the speed all times are scaled to.
REF_NOMINAL_S = 0.002
SETUP_REF_ROUNDS = 25
SCALE_WINDOW = 3
SAMPLE_EVERY_S = 0.05


def reference_work():
    """Fixed interpreted work whose CPU time measures the machine's speed."""
    acc, table = Fraction(0), {}
    for i in range(1, 501):
        acc += Fraction(i % 7 + 1, i)
        table[i, i % 5] = table.get((i % 13, i), 0) + i * i
    return acc, len(table)


def _timed_reference():
    t0 = time.thread_time()
    reference_work()
    return time.thread_time() - t0


class QueryTimeout(BaseException):
    """Raised by SIGALRM inside a query that overran QUERY_LIMIT_S."""


def _on_alarm(signum, frame):
    raise QueryTimeout


def require_sources():
    """Exit with status 1 unless this checkout holds the program's source."""
    if not (SRC / "presburger" / "cli.py").is_file():
        sys.exit(f"bench: no presburger sources under {SRC}")


def load_cli():
    """The presburger.cli module from this checkout's src/.

    Queries call `cli.main` through the module, so the traced run reaches
    the wrapper that replaces it.
    """
    require_sources()
    sys.path.insert(0, str(SRC))
    import presburger.cli
    import presburger.quasipoly  # noqa: F401  (imported lazily by genfun)
    if Path(presburger.cli.__file__).resolve().parent != SRC / "presburger":
        sys.exit(f"bench: imported presburger from {presburger.cli.__file__}")
    return presburger.cli


# Run by `python3 -c` in a fresh interpreter that has loaded nothing of its
# own but sys and time, so the timed imports pull in every module the
# package needs, standard library ones included.  The reference work is
# timed afterwards (by importing this file) to rescale the import time.
SETUP_CHILD = """\
import sys, time
t0 = time.process_time()
sys.path.insert(0, sys.argv[1])
import presburger, presburger.cli, presburger.quasipoly
import_s = time.process_time() - t0
sys.path.insert(0, sys.argv[2])
import run
print(import_s, run.setup_reference())
"""


def setup_reference():
    """Median CPU seconds of the reference work, in a setup child."""
    return statistics.median(_timed_reference()
                             for _ in range(SETUP_REF_ROUNDS))


def measure_setup():
    """Median scaled import time of the package over fresh processes.

    The children may write bytecode next to the sources, as an installed
    package has it; the first child only fills that cache and is not
    counted.
    """
    env = {k: v for k, v in os.environ.items()
           if k not in ("PYTHONDONTWRITEBYTECODE", "PYTHONPYCACHEPREFIX")}
    times = []
    for i in range(SETUP_RUNS + 1):
        proc = subprocess.run([sys.executable, "-c", SETUP_CHILD, str(SRC),
                               str(HERE)], capture_output=True, text=True,
                              timeout=60, check=True, env=env)
        import_s, ref = (float(x) for x in proc.stdout.split())
        if i:
            times.append(import_s * REF_NOMINAL_S / ref)
    return statistics.median(times)


class Sampler:
    """SIGPROF handler: times the reference work while a query runs."""

    def __init__(self):
        self.ref_sum, self.ref_n, self.cost = 0.0, 0, 0.0

    def __call__(self, signum=None, frame=None):
        t0 = time.thread_time()
        self.ref_sum += _timed_reference()
        self.ref_n += 1
        self.cost += time.thread_time() - t0


class Answer:
    """One query's exit code, CPU seconds, stdout and stderr, plus the
    total and number of the reference-work samples taken before and
    during it."""

    __slots__ = ("rc", "seconds", "out", "err", "ref_sum", "ref_n")

    def __init__(self, rc, seconds, out, err, ref_sum=REF_NOMINAL_S,
                 ref_n=1):
        self.rc, self.seconds, self.out, self.err = rc, seconds, out, err
        self.ref_sum, self.ref_n = ref_sum, ref_n


def run_query(cli, argv, stdin_text=""):
    sampler = Sampler()
    sampler()  # one sample just before, so a short query has one too
    sampler.cost = 0.0
    signal.signal(signal.SIGPROF, sampler)
    out, err = io.StringIO(), io.StringIO()
    saved_stdin = sys.stdin
    sys.stdin = io.StringIO(stdin_text)
    rc = CRASH
    signal.setitimer(signal.ITIMER_REAL, QUERY_LIMIT_S)
    signal.setitimer(signal.ITIMER_PROF, SAMPLE_EVERY_S, SAMPLE_EVERY_S)
    t0 = time.thread_time()
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            rc = cli.main(list(argv))
    except QueryTimeout:
        rc = TIMEOUT
    except SystemExit as e:
        rc = e.code if isinstance(e.code, int) else 2
    except Exception:  # a crash inside the program fails this query only
        err.write(traceback.format_exc())
    finally:
        signal.setitimer(signal.ITIMER_PROF, 0)
        t1 = time.thread_time()
        signal.setitimer(signal.ITIMER_REAL, 0)
        sys.stdin = saved_stdin
    seconds = QUERY_LIMIT_S if rc == TIMEOUT else t1 - t0 - sampler.cost
    return Answer(rc, seconds, out.getvalue(), err.getvalue(),
                  sampler.ref_sum, sampler.ref_n)


def run_pass(cli, queries, skip, tracer=None):
    """Answer every query once; queries in `skip` count as overruns."""
    gc.collect()
    answers = []
    for i, q in enumerate(queries):
        if i in skip:
            answers.append(Answer(TIMEOUT, QUERY_LIMIT_S, "", ""))
            continue
        if tracer is not None:
            tracer.query = i
        stdin_text = answers[q.stdin_from].out if q.stdin_from >= 0 else ""
        answers.append(run_query(cli, q.argv, stdin_text))
    return answers


def _synth_roundtrip(cli, answer):
    """Count the synthesized formula through the CLI, as a quasi-polynomial
    that the oracle evaluates at its check points."""
    doc = json.loads(answer.out)
    argv = ["count", doc["formula"], "--count-vars", ",".join(doc["counted"]),
            "--param-vars", doc["param"], "--as", "qp", "--format", "json"]
    return run_query(cli, argv).out


def check_answers(cli, queries, answers, failed, seed):
    """Oracle check of the first pass; returns the wrong answers found.

    A query in `failed` that overran the limit has no answer to check; one
    that exited with any other unexpected code (a crash, a usage or parse
    error) is a wrong answer.
    """
    errors = []
    for i, (q, a) in enumerate(zip(queries, answers)):
        if i in failed and a.rc == TIMEOUT:
            print(f"query {i} (seed {seed}) overran the {QUERY_LIMIT_S:g} s "
                  f"limit: {list(q.argv)}", file=sys.stderr)
            continue
        if i in failed:
            errors.append(f"wrong answer to query {i} (seed {seed}): "
                              f"{list(q.argv)}: exited {a.rc}, expected "
                              f"{q.expect_rc}\n{a.err.strip()}")
            continue
        extra = _synth_roundtrip(cli, a) if q.check[0] == "synth" \
            else None
        try:
            oracles.check(q.check, a.out, extra)
        except (oracles.OracleError, ValueError, KeyError) as e:
            errors.append(f"wrong answer to query {i} (seed {seed}): "
                          f"{list(q.argv)}: {e}")
    return errors


def compare_rerun(queries, first, again, seed):
    return [f"query {i} (seed {seed}) answered differently on a rerun: "
            f"{list(q.argv)}"
            for i, (q, a, b) in enumerate(zip(queries, first, again))
            if a.rc == q.expect_rc and (b.rc != a.rc or b.out != a.out)]


def timed_passes(cli, queries, skip, seconds, first, seed, tracer=None):
    passes, errors = [], []
    start = time.perf_counter()
    while not passes or time.perf_counter() - start < seconds:
        answers = run_pass(cli, queries, skip, tracer)
        errors += compare_rerun(queries, first, answers, seed)
        for a in answers:  # memory must not grow with the number of passes
            a.out = a.err = ""
        passes.append(answers)
    return passes, errors


def _scales(answers):
    """Per query, the factor taking its CPU seconds to the nominal speed:
    REF_NOMINAL_S over the mean reference time of the samples of the
    queries within SCALE_WINDOW of it, which follows the machine's speed
    as it drifts."""
    scales = []
    for i in range(len(answers)):
        window = answers[max(0, i - SCALE_WINDOW):i + SCALE_WINDOW + 1]
        scales.append(REF_NOMINAL_S * sum(a.ref_n for a in window)
                      / sum(a.ref_sum for a in window))
    return scales


def _pass_wall(answers):
    return sum(a.seconds * s for a, s in zip(answers, _scales(answers)))


def latency_metrics(passes):
    n = len(passes[0])
    scaled = [[a.seconds * s for a, s in zip(p, _scales(p))]
              for p in passes]
    per_query = [statistics.median(p[i] for p in scaled) for i in range(n)]
    ranked = sorted(per_query)
    return {
        "wall_s": statistics.median(sum(p) for p in scaled),
        "query_geomean_s": math.exp(statistics.fmean(
            math.log(t) for t in per_query)),
        "query_p50_s": statistics.median(per_query),
        "query_tail_s": ranked[math.ceil(TAIL_PCT / 100 * n) - 1],
    }


def layer_metrics(tracer, traced, untraced):
    totals = tracer.summary()
    npass = len(traced)
    scale = statistics.fmean(s for p in traced for s in _scales(p))
    out = {}
    for name, unit in tracing.PER_LAYER:
        value = totals.get(name, 0)
        if unit == "s":
            value *= scale
        out[name] = value if name.endswith(".period") else value / npass
    calls = totals.get("polyhedra.is_feasible.calls", 0)
    out["polyhedra.is_feasible.feasible_frac"] = (
        totals.get("polyhedra.is_feasible.feasible", 0) / calls
        if calls else 0.0)
    out["trace.overhead_frac"] = (
        statistics.median(_pass_wall(p) for p in traced)
        / statistics.median(_pass_wall(p) for p in untraced) - 1)
    return out


def run_workload(workload, seed, seconds, trace):
    cli = load_cli()
    signal.signal(signal.SIGALRM, _on_alarm)
    setup_s = measure_setup() if not trace else None
    queries = workloads.generate(workload, seed)

    first = run_pass(cli, queries, set())
    failed = {i for i, (q, a) in enumerate(zip(queries, first))
              if a.rc != q.expect_rc}
    skip = {i for i in failed if first[i].rc == TIMEOUT}

    errors = []
    if trace:
        untraced, errs = timed_passes(cli, queries, skip, seconds / 2,
                                      first, seed)
        errors += errs
        with tracing.Tracer() as tracer:
            traced, errs = timed_passes(cli, queries, skip, seconds / 2,
                                        first, seed, tracer)
        errors += errs
        metrics = layer_metrics(tracer, traced, untraced)
        units = dict(tracing.PER_LAYER)
        OUT.mkdir(exist_ok=True)
        tracer.write(OUT / f"trace-{workload}-seed{seed}.json",
                     {"workload": workload, "seed": seed,
                      "passes": len(traced)})
        npass = len(traced)
    else:
        passes, errs = timed_passes(cli, queries, skip, seconds, first,
                                    seed)
        errors += errs
        # read before the oracle checks, whose parsed documents would
        # otherwise set the high-water mark
        rss = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
        metrics = latency_metrics(passes)
        metrics["setup_s"] = setup_s
        metrics["peak_rss_mib"] = rss
        metrics["output_bytes"] = sum(len(a.out.encode()) for a in first)
        units = dict(END_TO_END)
        npass = len(passes)
    errors = check_answers(cli, queries, first, failed, seed) + errors

    for e in errors:
        print(e, file=sys.stderr)
    attempted = len(queries)
    print(f"workload {workload} seed {seed}: {attempted} queries, "
          f"{npass} timed passes, {len(failed)} failed "
          f"(failed_frac {len(failed) / attempted:.4f}), tail percentile "
          f"p{TAIL_PCT:g} of {attempted} queries")
    for name, value in metrics.items():
        print(f"  {name:40s} {value:.6g} {units[name]}")
    print(json.dumps({
        "correct": not errors,
        "attempted": attempted,
        "failed": len(failed),
        "metrics": {name: {"value": value, "unit": units[name]}
                    for name, value in metrics.items()},
    }))
    return 0 if not errors else 1


def run_all(seed, seconds, trace):
    """Every workload in its own fresh process, one after another."""
    status = 0
    summary = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for workload in workloads.WORKLOADS:
        proc = subprocess.run(
            [sys.executable, str(Path(__file__).resolve()), "--workload",
             workload, "--seed", str(seed), "--seconds", str(seconds),
             "--trace", str(trace)], capture_output=True, text=True,
            timeout=900)
        sys.stderr.write(proc.stderr)
        lines = proc.stdout.splitlines()
        print("\n".join(lines[:-1]))
        if proc.returncode != 0 or not lines:
            status = 1
            summary["correct"] = False
            continue
        result = json.loads(lines[-1])
        summary["correct"] &= result["correct"]
        summary["attempted"] += result["attempted"]
        summary["failed"] += result["failed"]
        for name, m in result["metrics"].items():
            summary["metrics"][f"{workload}.{name}"] = m
    print(json.dumps(summary))
    return status


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", default="all",
                    choices=["all", *workloads.WORKLOADS])
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=20)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if args.workload == "all":
        require_sources()
        return run_all(args.seed, args.seconds, args.trace)
    return run_workload(args.workload, args.seed, args.seconds, args.trace)


if __name__ == "__main__":
    sys.exit(main())
