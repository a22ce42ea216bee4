"""Tests of the benchmark itself: run with `python -m pytest bench`."""

import dataclasses
import json
import shutil
import subprocess
import sys
import time
from fractions import Fraction
from pathlib import Path

import pytest

import oracles
import run
import tracing
import workloads

HERE = Path(__file__).resolve().parent


# ---------------------------------------------------------------------------
# seeded generation


@pytest.mark.parametrize("workload", sorted(workloads.WORKLOADS))
def test_generation_is_deterministic(workload):
    a = workloads.generate(workload, 7)
    assert a == workloads.generate(workload, 7)
    assert a != workloads.generate(workload, 8)
    assert len(a) == workloads.QUERIES
    # the same list in a fresh interpreter, so no hash order leaks in
    code = (f"import sys; sys.path.insert(0, {str(HERE)!r}); "
            f"import workloads; print(repr(workloads.generate("
            f"{workload!r}, 7)))")
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True,
                          text=True, check=True)
    assert proc.stdout.strip() == repr(a)


# ---------------------------------------------------------------------------
# oracles on hand-checked cases (README examples among them)


def test_ground_truth_by_hand():
    assert oracles.compositions((1, 2, 2), 100)[100] == 1326
    assert [oracles.partition_count([(1,), (2,), (2,)], (p,))
            for p in range(5)] == [1, 1, 3, 3, 6]
    assert oracles.partition_count([(1, 0), (0, 1), (1, 1)], (1, 1)) == 2
    assert oracles.frobenius(3, 5) == 7
    reach = oracles.semigroup_members((3, 5), 8)
    assert [n for n in range(9) if not reach[n]] == [1, 2, 4, 7]
    assert oracles.knapsack_count((1, 1), 2) == 6
    assert oracles.chain_count(2, 2) == 4  # (0,0) (0,1) (0,2) (1,1)
    assert oracles.knapsack_points((2, 3), 4) == [(0, 0), (0, 1), (1, 0),
                                                  (2, 0)]


def _poly(*terms):
    return [{"exps": [e], "coef": c} for e, c in terms]


def test_pqp_reader_on_readme_quasi_polynomial():
    # count "x + 2*y + 2*z = p" --as qp, as printed in the README
    doc = {"n": 1, "pieces": [{
        "polyhedron": {"dim": 1, "ineqs": [[[1], 0]], "eqs": []},
        "lattice": [[2]],
        "constituents": {"0": _poly((2, "1/8"), (1, "3/4"), (0, "1")),
                         "1": _poly((2, "1/8"), (1, "1/2"), (0, "3/8"))}}]}
    ways = oracles.compositions((1, 2, 2), 100)
    for p in range(101):
        assert oracles.pqp_value(doc, (p,)) == ways[p]


def test_step_reader_on_readme_step_polynomial():
    # count "2*x <= p" --as step, as printed in the README
    def f(a, c):
        return {"coeffs": [a], "const": c}
    doc = {"initial": [], "names": ["p"], "step": {"n": 1, "terms": [
        {"coef": "-1/2", "factors": [f("1/2", "-1")]},
        {"coef": "-1/2", "factors": [f("1/2", "-1"), f("1", "0")]},
        {"coef": "-1/2", "factors": [f("1/2", "-1/2")]},
        {"coef": "1", "factors": [f("1/2", "0")]},
        {"coef": "1/2", "factors": [f("1/2", "0"), f("1", "0")]}]}}
    for p in range(30):
        assert oracles.step_value(doc, p) == p // 2 + 1


def test_gf_reader_evaluates_at_a_point():
    # {0, 1, 2} = 1/(1 - x) - x^3/(1 - x)
    doc = {"names": ["x"], "terms": [
        {"coef": "1", "numer_exp": [0], "denom": [[1]]},
        {"coef": "-1", "numer_exp": [3], "denom": [[1]]}]}
    for t in (2, 12345, oracles.PRIME - 2):
        assert oracles.gf_value_mod(doc, (t,)) == \
            oracles.points_value_mod([(0,), (1,), (2,)], (t,))
    assert oracles.gf_value_mod(doc, (1,)) is None


def test_formula_reader_on_readme_qelim_answer():
    pred = oracles.compile_formula("u >= 2 & u % 2 = 1")
    assert [u for u in range(10) if pred({"u": u})] == [3, 5, 7, 9]
    pred = oracles.compile_formula("!(x % 3 = 1) & (0 = 0 | x >= 4)")
    assert [x for x in range(8) if pred({"x": x})] == [0, 2, 3, 5, 6]


def _cell(ineqs, lattice, rep, eqs=()):
    return {"polyhedron": {"dim": 1, "ineqs": ineqs, "eqs": list(eqs)},
            "lattice": lattice, "rep": rep}


def test_cells_reader_on_readme_dnf():
    # dnf "x % 2 = 1 | x >= 5", as printed in the README
    doc = {"names": ["x"], "cells": [
        _cell([[[1], 0], [[1], 5]], [[2]], [0]),
        _cell([[[1], 0], [[1], 5]], [[2]], [1]),
        _cell([[[-1], -4], [[1], 0]], [[2]], [1])]}
    points = [(x,) for x in range(12)]
    hits = oracles.cells_containing(doc, points)
    assert hits == [1 if x % 2 == 1 or x >= 5 else 0 for x in range(12)]
    oracles.check(("congruence_cells", ("x",), (((1,), 2, 0, True),),
                   [(x,) for x in range(5)]), json.dumps(doc))


def test_check_rejects_wrong_answers():
    oracles.check(("frobenius", 3, 5, 7), "true\n")
    with pytest.raises(oracles.OracleError):
        oracles.check(("frobenius", 3, 5, 6), "true\n")
    oracles.check(("param", "value", "knapsack", ((1, 1),), (2,)), "6\n")
    with pytest.raises(oracles.OracleError):
        oracles.check(("param", "value", "knapsack", ((1, 1),), (2,)), "5\n")
    with pytest.raises(oracles.OracleError):
        oracles.check(("semigroup_formula", ("x",), (3, 5), 10), "x >= 3")


# ---------------------------------------------------------------------------
# the CLI end to end, untraced and traced

CHEAP = {"alternation_formula", "alternation_cells", "vpf", "synth",
         "infinite"}


def _cheap_queries():
    """A few fast queries of every workload, seed 3, with stdin links
    renumbered."""
    out = []
    for workload in sorted(workloads.WORKLOADS):
        queries = workloads.generate(workload, 3)
        keep = [i for i, q in enumerate(queries)
                if q.check[0] in CHEAP or i + 1 < len(queries)
                and queries[i + 1].check[0] == "synth"
                or q.check[:3] == ("param", "qp", "congruence")]
        index = {old: len(out) + new for new, old in enumerate(keep)}
        out += [dataclasses.replace(queries[i], stdin_from=index.get(
            queries[i].stdin_from, -1)) for i in keep]
    return out


@pytest.fixture(scope="module")
def cli():
    return run.load_cli()


def test_tracer_restores_every_patched_name(cli):
    import presburger.lattices
    mods = {name: m for name, m in sys.modules.items()
            if name == "presburger" or name.startswith("presburger.")}
    before = {name: dict(vars(m)) for name, m in mods.items()}
    method = presburger.lattices.Lattice.__dict__["coset_representatives"]
    tracer = tracing.Tracer()
    with tracer:
        assert presburger.genfun.vertices is not before[
            "presburger.genfun"]["vertices"]
        assert presburger.lattices.Lattice.__dict__[
            "coset_representatives"] is not method
    for name, m in mods.items():
        after = vars(m)
        assert all(after[k] is v for k, v in before[name].items()), name
    assert presburger.lattices.Lattice.__dict__[
        "coset_representatives"] is method
    assert len(tracer.names) == len(tracing.TARGETS)


def test_traced_output_is_byte_identical(cli):
    queries = _cheap_queries()
    plain = run.run_pass(cli, queries, set())
    with tracing.Tracer() as tracer:
        traced = run.run_pass(cli, queries, set(), tracer)
    assert all(a.rc == q.expect_rc for q, a in zip(queries, plain))
    assert [(a.rc, a.out) for a in traced] == [(a.rc, a.out) for a in plain]
    assert not run.check_answers(cli, queries, plain, set(), 3)
    summary = tracer.summary()
    for layer in ("cli", "qelim", "semilinear", "polyhedra", "genfun",
                  "quasipoly", "serialize"):
        assert summary.get(f"{layer}.calls", 0) > 0, layer
    roots = [i for i in range(len(tracer.span_start))
             if tracer.span_parent[i] < 0]
    assert {tracer.names[tracer.span_name[i]] for i in roots} == {"cli.main"}
    assert sorted({tracer.span_query[i] for i in roots}) == \
        list(range(len(queries)))


def test_query_limit_counts_an_overrun(monkeypatch, cli):
    monkeypatch.setattr(run, "QUERY_LIMIT_S", 0.05)
    run.signal.signal(run.signal.SIGALRM, run._on_alarm)
    slow = ("count", "x0 + x1 + x2 + x3 + x4 <= p & x0 <= x1 & x1 <= x2",
            "--count-vars", "x0,x1,x2,x3,x4", "--param-vars", "p",
            "--as", "qp")
    start = time.perf_counter()
    answer = run.run_query(cli, slow)
    assert time.perf_counter() - start < 1
    assert (answer.rc, answer.seconds) == (run.TIMEOUT, 0.05)


def test_reference_is_sampled_during_a_query(cli):
    # about 0.2 s of CPU time: sampled before and several times during,
    # and the samples' own time is not counted as the query's
    argv = ("count", "5*x + 7*y + 9*z <= 50", "--count-vars", "x,y,z",
            "--as", "value")
    t0 = time.thread_time()
    answer = run.run_query(cli, argv)
    total = time.thread_time() - t0
    assert answer.rc == 0 and answer.ref_n >= 3
    assert answer.seconds + answer.ref_sum <= total


def test_unexpected_exit_is_a_wrong_answer(monkeypatch, capsys, cli):
    # the infinite count exits 3; expecting 0 makes it a failed query
    argv = workloads._count_argv("x >= p", "x", "value", 3)
    bad = workloads.Query(argv, ("infinite",), expect_rc=0)
    monkeypatch.setattr(workloads, "generate", lambda workload, seed: [bad])
    monkeypatch.setattr(run, "measure_setup", lambda: 0.02)
    assert run.run_workload("decide_dnf", 5, 0.01, 0) == 1
    result = json.loads(capsys.readouterr().out.splitlines()[-1])
    assert (result["correct"], result["failed"]) == (False, 1)
    errors = run.check_answers(cli, [bad], run.run_pass(cli, [bad], set()),
                               {0}, 5)
    assert len(errors) == 1 and "query 0 (seed 5)" in errors[0]


def test_fails_without_sources(tmp_path):
    shutil.copytree(HERE, tmp_path / "bench",
                    ignore=shutil.ignore_patterns("out", "__pycache__"))
    proc = subprocess.run([sys.executable, "bench/run.py", "--workload",
                           "decide_dnf", "--seed", "1", "--seconds", "1",
                           "--trace", "0"], cwd=tmp_path,
                          capture_output=True, text=True, timeout=60)
    assert proc.returncode != 0
    assert proc.stdout == ""


def test_metric_lists_match_benchmark_json():
    spec = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    assert [(m["name"], m["unit"]) for m in spec["end_to_end"]] == \
        run.END_TO_END
    assert [(m["name"], m["unit"]) for m in spec["per_layer"]] == \
        tracing.PER_LAYER
    assert [w["name"] for w in spec["workloads"]] == list(workloads.WORKLOADS)
    assert Fraction(run.TAIL_PCT) == 80
