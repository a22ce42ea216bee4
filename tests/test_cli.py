"""End-to-end command line tests driven through main(argv)."""

import hashlib
import io
import json
import os
import random
import resource
import subprocess
import sys
import time
from fractions import Fraction
from itertools import product
from pathlib import Path

import pytest

import presburger
from oracles import (PRIME, count_solutions, gf_value_mod, knapsack_count,
                     knapsack_points, partition_count, points_value_mod,
                     step_from_obj)
from presburger.cli import _build_parser, main
from presburger.formulas import MODULUS_LIMIT, eval_ground, parse
from presburger.genfun import (cardinality, counting_gf, series_coeffs,
                               series_equal)
from presburger.quasipoly import pqp_to_rgf, rgf_to_pqp, step_eval, vpf_pqp
from presburger.serialize import dumps, gf_from_obj, pqp_from_obj

F = Fraction


def run(capsys, *argv):
    rc = main(list(argv))
    out = capsys.readouterr()
    return rc, out.out, out.err


def run_json(capsys, *argv):
    rc, out, err = run(capsys, *argv, "--format", "json")
    assert rc == 0, err
    return json.loads(out)


def test_decide(capsys):
    for text, want in [("E u. u > 1 & u % 2 = 1", "true"),
                       ("E u. u < 0", "false"),
                       ("A u. E v. v = u + 1", "true")]:
        rc, out, _ = run(capsys, "decide", text)
        assert rc == 0
        assert out.strip() == want


def test_decide_rejects_free_variables(capsys):
    rc, _, err = run(capsys, "decide", "u > 1")
    assert rc == 3
    assert "free variables" in err


def test_parse_error_exit_code(capsys):
    rc, _, err = run(capsys, "qelim", "u >")
    assert rc == 2
    assert "parse error" in err


def test_deep_nesting_is_rejected(capsys):
    for argv in (("decide", "!" * 3000 + "0 = 0"),
                 ("dnf", "(" * 1200 + "x = 0" + ")" * 1200)):
        rc, out, err = run(capsys, *argv)
        assert rc == 4 and out == ""
        assert err == "error: formula nested too deeply\n"


def test_modulus_limit_fails_fast(capsys):
    """Each loop over the residues of a modulus checks MODULUS_LIMIT first:
    negating a congruence (typed, or through the dual of a universal), a
    cell split and Cooper's offsets."""
    big = 10000000
    for argv, what, m in [(("dnf", "!(x % 10000000 = 3)"),
                           "negating a congruence", big),
                          (("dnf", "x % 10000000 = 3 | y >= 1"),
                           "splitting a cell by a congruence", big),
                          (("qelim", "E x. x + y % 10000000 = 3 & x >= z"),
                           "Cooper elimination", big),
                          (("qelim", "A x. x % 100001 = 1 | x >= y"),
                           "negating a congruence", 100001)]:
        t0 = time.process_time()
        rc, out, err = run(capsys, *argv)
        assert time.process_time() - t0 < 1
        assert rc == 4 and out == ""
        assert err == (f"error: {what} needs {m} residues, above the "
                       f"modulus limit {MODULUS_LIMIT}\n")


def test_modulus_limit_on_the_upper_side(capsys, monkeypatch):
    """Cooper's upper side checks MODULUS_LIMIT before its offsets: x has
    three lower bounds and no upper one, so only phi_+inf is split, and
    its congruence stays open in y."""
    qelim_module = sys.modules["presburger.qelim"]
    plus_infinity = qelim_module._at_plus_infinity
    seen = []

    def at_plus_infinity(a, fresh):
        seen.append(a)
        return plus_infinity(a, fresh)

    monkeypatch.setattr(qelim_module, "_at_plus_infinity", at_plus_infinity)
    t0 = time.process_time()
    rc, out, err = run(capsys, "qelim",
                       "E x. x + y % 100003 = 1 & x >= z & x >= w")
    assert time.process_time() - t0 < 1
    assert seen
    assert rc == 4 and out == ""
    assert err == (f"error: Cooper elimination needs 100003 residues, "
                   f"above the modulus limit {MODULUS_LIMIT}\n")


def test_quasi_polynomial_runaways_exit_4():
    """A quasi-polynomial's period and a chamber's lattice index are
    checked against MODULUS_LIMIT before their residues are listed.
    Without the check each of these queries runs for 18 s or more and
    takes a gigabyte or more, so each runs in its own process, capped at
    512 MiB of address space and killed after 10 s."""
    def capped():
        resource.setrlimit(resource.RLIMIT_AS, (512 << 20, 512 << 20))

    for argv, what, m in [
            (("count", "x % 997 = 1 & y % 991 = 2 & x + y <= p",
              "--count-vars", "x,y", "--param-vars", "p", "--as", "qp",
              "--format", "json"), "reading a quasi-polynomial", 997 * 991),
            (("vpf", "997;991", "--as", "qp"),
             "reading a quasi-polynomial", 997 * 991),
            (("vpf", "997,0;0,991;1,1", "--as", "qp"),
             "listing a chamber's cosets", 997 * 991 * 997)]:
        proc = run_module("-m", "presburger", *argv, timeout=10,
                          preexec_fn=capped)
        assert proc.returncode == 4 and proc.stdout == "", proc.stderr
        assert proc.stderr == (f"error: {what} needs {m} residues, above "
                               f"the modulus limit {MODULUS_LIMIT}\n")


def test_cooper_walks_one_residue_class(capsys):
    """Ground congruences with one residue fix the offsets to one class by
    CRT, so a modulus above MODULUS_LIMIT with few offsets left answers."""
    for argv, want in [(("decide", "E x. x % 10000000 = 3"), "true\n"),
                       (("decide", "E x. x % 10000000 = 3 & x % 13 = 4"),
                        "true\n"),
                       (("qelim", "E x. x % 100003 = 1 & x >= y"), "0 = 0\n")]:
        t0 = time.process_time()
        assert run(capsys, *argv) == (0, want, "")
        assert time.process_time() - t0 < 1


def test_qelim_output_is_quantifier_free_and_equivalent(capsys):
    rc, out, _ = run(capsys, "qelim", "E b. u > 1 & 2*b + 1 = u")
    assert rc == 0
    g = parse(out.strip())
    for u in range(61):
        want = u > 1 and u % 2 == 1
        assert eval_ground(g, {"u": u}) == want, u


def test_genfun_json_series(capsys):
    obj = run_json(capsys, "genfun", "u > 1 & u % 2 = 1")
    g = gf_from_obj(obj)
    table = series_coeffs(g, 30)
    for u in range(31):
        want = 1 if u > 1 and u % 2 == 1 else 0
        assert table.get((u,), F(0)) == want


def test_dnf_lists_cells(capsys):
    obj = run_json(capsys, "dnf", "E b. u > 1 & 2*b + 1 = u")
    assert obj["names"] == ["u"]
    assert len(obj["cells"]) == 1
    rc, out, _ = run(capsys, "dnf", "E b. u > 1 & 2*b + 1 = u")
    assert rc == 0 and "cell 1:" in out


def test_count_qp_constituents(capsys):
    obj = run_json(capsys, "count", "2*c1 + 2*c2 <= p",
                   "--count-vars", "c1,c2", "--param-vars", "p",
                   "--as", "qp")
    g = pqp_from_obj(obj)
    (cell, q), = g.pieces
    assert q.constituents == {
        (0,): {(2,): F(1, 8), (1,): F(3, 4), (0,): F(1)},
        (1,): {(2,): F(1, 8), (1,): F(1, 2), (0,): F(3, 8)},
    }


def test_count_gf_and_value(capsys):
    obj = run_json(capsys, "count", "2*c1 + 2*c2 <= p",
                   "--count-vars", "c1,c2", "--param-vars", "p")
    g = gf_from_obj(obj)
    table = series_coeffs(g, 10)
    assert [table.get((p,), F(0)) for p in range(5)] == [1, 1, 3, 3, 6]
    rc, out, _ = run(capsys, "count", "2*c1 + 2*c2 <= p",
                     "--count-vars", "c1,c2", "--param-vars", "p",
                     "--as", "value", "--at", "100")
    assert rc == 0 and out.strip() == "1326"


def test_count_value_four_dim_knapsack(capsys):
    rc, out, _ = run(capsys, "count", "5*x + 7*y + 9*z + 11*w <= 100",
                     "--count-vars", "w,x,y,z", "--as", "value")
    assert rc == 0 and out.strip() == "2193"
    # DP over the coefficients: ways[n] tuples have weight exactly n
    ways = [1] + [0] * 100
    for c in (5, 7, 9, 11):
        for n in range(c, 101):
            ways[n] += ways[n - c]
    assert sum(ways) == 2193


def test_count_value_two_parameters(capsys):
    rc, out, _ = run(capsys, "count", "c <= p1 & c <= p2",
                     "--count-vars", "c", "--param-vars", "p1,p2",
                     "--as", "value", "--at", "3,5")
    assert rc == 0 and out.strip() == "4"


def test_count_value_large_two_parameter_point(capsys):
    rc, out, _ = run(capsys, "count", "x + y <= p + q",
                     "--count-vars", "x,y", "--param-vars", "p,q",
                     "--as", "value", "--at", "600,600")
    # (n + 1)(n + 2)/2 pairs with x + y <= n = 1200
    assert rc == 0 and out.strip() == str(1201 * 1202 // 2) == "721801"


def test_count_value_negative_coordinate_is_zero(capsys):
    for at in ("-1", "-7"):
        rc, out, _ = run(capsys, "count", "x <= p + 5",
                         "--count-vars", "x", "--param-vars", "p",
                         "--as", "value", "--at", at)
        assert rc == 0 and out.strip() == "0", at
    rc, out, _ = run(capsys, "count", "x + y <= p + q",
                     "--count-vars", "x,y", "--param-vars", "p,q",
                     "--as", "value", "--at", "3,-1", "--format", "json")
    assert rc == 0 and json.loads(out) == {"value": "0"}


def test_count_value_parameter_name_also_bound(capsys):
    # the quantifier binds its own p; only the free p takes the value 6
    rc, out, _ = run(capsys, "count", "x <= p & E p. x = 2*p",
                     "--count-vars", "x", "--param-vars", "p",
                     "--as", "value", "--at", "6")
    assert rc == 0 and out.strip() == "4"  # x in {0, 2, 4, 6}


def test_count_value_finite_here_infinite_elsewhere(capsys):
    f = "x <= p | p >= 3"
    argv = ("count", f, "--count-vars", "x", "--param-vars", "p")
    rc, out, _ = run(capsys, *argv, "--as", "qp")
    assert rc == 3 and out.strip() == "infinite"
    for p in range(3):
        rc, out, _ = run(capsys, *argv, "--as", "value", "--at", str(p))
        assert rc == 0 and out.strip() == str(p + 1), p
    rc, out, err = run(capsys, *argv, "--as", "value", "--at", "3")
    assert rc == 3 and out.strip() == "infinite"
    assert "infinite" in err


def test_count_at_with_two_points_is_rejected(capsys):
    rc, out, err = run(capsys, "count", "x <= p", "--count-vars", "x",
                       "--param-vars", "p", "--as", "value", "--at", "1;2")
    assert rc == 3 and out == "" and err.count("\n") == 1
    assert "one point" in err


def test_count_at_without_parameters_is_rejected(capsys):
    rc, out, err = run(capsys, "count", "x <= 3", "--count-vars", "x",
                       "--as", "value", "--at", "1")
    assert rc == 3 and out == "" and err.count("\n") == 1
    assert "--param-vars" in err


def test_count_at_outside_value_is_rejected(capsys):
    for as_ in ("gf", "qp", "step"):
        rc, out, err = run(capsys, "count", "x <= p", "--count-vars", "x",
                           "--param-vars", "p", "--as", as_, "--at", "1")
        assert rc == 3 and out == "" and err.count("\n") == 1, as_
        assert "--as value" in err


def test_count_total_value_without_params(capsys):
    rc, out, _ = run(capsys, "count", "3*c1 + 5*c2 = 20",
                     "--count-vars", "c1,c2", "--as", "value")
    assert rc == 0 and out.strip() == "2"


def test_count_step_representation(capsys):
    obj = run_json(capsys, "count", "2*c1 + 2*c2 <= p",
                   "--count-vars", "c1,c2", "--param-vars", "p",
                   "--as", "step")
    s = step_from_obj(obj["step"])
    initial = [F(v) for v in obj["initial"]]
    for p in range(41):
        want = (p // 2 + 1) * (p // 2 + 2) // 2
        got = initial[p] if p < len(initial) else step_eval(s, (p,))
        assert got == want, p


def test_count_infinite(capsys):
    rc, out, _ = run(capsys, "count", "c = c", "--count-vars", "c")
    assert rc == 3
    assert out.strip() == "infinite"


def test_count_variable_checks(capsys):
    rc, _, err = run(capsys, "count", "c + d <= 5", "--count-vars", "c")
    assert rc == 3 and "neither counted nor parameter" in err
    rc, _, err = run(capsys, "count", "c <= 5", "--count-vars", "c",
                     "--param-vars", "c")
    assert rc == 3 and "both counted and parameter" in err


def test_vpf_gf_text(capsys):
    rc, out, _ = run(capsys, "vpf", "1;2;2")
    assert rc == 0
    assert out.strip() == "1/((1 - x)(1 - x^2)^2)"


def test_vpf_qp_dimensions(capsys):
    obj = run_json(capsys, "vpf", "1,0;0,1;1,1", "--as", "qp")
    g = pqp_from_obj(obj)
    for a in range(8):
        for b in range(8):
            assert g.eval((a, b)) == min(a, b) + 1
    obj = run_json(capsys, "vpf", "1,0,0;0,1,0;0,0,1;1,1,1", "--as", "qp")
    g = pqp_from_obj(obj)
    for p in product(range(6), repeat=3):
        assert g.eval(p) == min(p) + 1, p


@pytest.mark.parametrize("argv, pqp, names", [
    (("count", "2*x + 3*y <= q", "--count-vars", "x,y", "--param-vars", "q"),
     lambda: rgf_to_pqp(counting_gf(parse("2*x + 3*y <= q"), ("x", "y"),
                                    ("q",))), ("q",)),
    (("vpf", "2;3"), lambda: vpf_pqp([(2,), (3,)]), ("p",)),
    (("vpf", "1,0;0,1;1,1"), lambda: vpf_pqp([(1, 0), (0, 1), (1, 1)]),
     ("p1", "p2")),
])
def test_pqp_documents_carry_their_names(capsys, argv, pqp, names):
    """A printed pqp document reads back as the library's pqp, names
    included, is written again byte for byte, and goes back to a GF in
    the variables it names."""
    rc, out, err = run(capsys, *argv, "--as", "qp", "--format", "json")
    assert rc == 0, err
    doc = json.loads(out)
    g = pqp_from_obj(doc)
    assert g == pqp() and g.names == names == tuple(doc["names"])
    assert dumps(g) + "\n" == out
    assert pqp_to_rgf(g).names == names


def test_vpf_rejects_zero_generator(capsys):
    rc, _, err = run(capsys, "vpf", "1;0")
    assert rc == 3 and "zero generator" in err


def test_series_univariate_line(capsys):
    obj = run_json(capsys, "vpf", "1;2;2")
    import tempfile, os
    fd, path = tempfile.mkstemp(suffix=".json")
    with os.fdopen(fd, "w") as fh:
        json.dump(obj, fh)
    try:
        rc, out, _ = run(capsys, "series", path, "--bound", "4")
        assert rc == 0 and out.strip() == "1 1 3 3 6"
        vals = run_json(capsys, "series", path)["values"]
        assert len(vals) == 21            # default bound 20
        assert vals[:5] == ["1", "1", "3", "3", "6"]
        rc, out, err = run(capsys, "series", path, "--bound", "-3")
        assert rc == 3 and out == ""
        assert err == "error: --bound must be nonnegative\n"
    finally:
        os.unlink(path)


def test_series_of_a_gf_in_no_variables(capsys, monkeypatch):
    """A GF in no variables is one number, printed without a point label;
    its json document keeps the empty point."""
    doc = json.dumps(run_json(capsys, "count", "x <= 3", "--count-vars", "x"))
    monkeypatch.setattr(sys, "stdin", io.StringIO(doc))
    assert run(capsys, "series", "-") == (0, "4\n", "")
    monkeypatch.setattr(sys, "stdin", io.StringIO(doc))
    assert run_json(capsys, "series", "-") == {
        "bound": 20, "coeffs": [{"point": [], "value": "4"}]}


def test_hadamard_and_zero(capsys, tmp_path):
    fa = tmp_path / "a.json"
    fb = tmp_path / "b.json"
    fa.write_text(json.dumps(run_json(capsys, "genfun", "u % 2 = 1")))
    fb.write_text(json.dumps(run_json(capsys, "genfun", "u % 2 = 0")))
    obj = run_json(capsys, "hadamard", str(fa), str(fb))
    assert obj["terms"] == []
    rc, out, _ = run(capsys, "zero", str(fa))
    assert rc == 0 and out.strip() == "false"
    # odd + even - everything vanishes
    rc, out, _ = run(capsys, "genfun", "u >= 0", "--format", "json")
    total = json.loads(out)
    fc = tmp_path / "c.json"
    diff = {"names": ["u"], "terms":
            json.loads(fa.read_text())["terms"]
            + json.loads(fb.read_text())["terms"]
            + [dict(t, coef="-" + t["coef"]) for t in total["terms"]]}
    fc.write_text(json.dumps(diff))
    rc, out, _ = run(capsys, "zero", str(fc))
    assert rc == 0 and out.strip() == "true"


def test_zero_is_exact_at_negative_exponents_and_in_2d(capsys, tmp_path):
    inv = tmp_path / "inv.json"
    inv.write_text(json.dumps({"names": ["x"], "terms": [
        {"coef": "1", "numer_exp": [-1], "denom": []}]}))
    rc, out, _ = run(capsys, "zero", str(inv))
    assert rc == 0 and out.strip() == "false"
    # 1/((1 - x)(1 - y)) - x/((1 - x)(1 - y)) - 1/(1 - y) = 0
    flat = tmp_path / "flat.json"
    flat.write_text(json.dumps({"names": ["x", "y"], "terms": [
        {"coef": "1", "numer_exp": [0, 0], "denom": [[1, 0], [0, 1]]},
        {"coef": "-1", "numer_exp": [1, 0], "denom": [[1, 0], [0, 1]]},
        {"coef": "-1", "numer_exp": [0, 0], "denom": [[0, 1]]}]}))
    rc, out, _ = run(capsys, "zero", str(flat))
    assert rc == 0 and out.strip() == "true"
    flat.write_text(json.dumps({"names": ["x", "y"], "terms": [
        {"coef": "1", "numer_exp": [0, 1], "denom": [[1, 0]]}]}))
    rc, out, _ = run(capsys, "zero", str(flat))
    assert rc == 0 and out.strip() == "false"


def test_hadamard_at_negative_exponents(capsys, tmp_path):
    inv = tmp_path / "inv.json"
    inv.write_text(json.dumps({"names": ["x"], "terms": [
        {"coef": "1", "numer_exp": [-1], "denom": []}]}))
    rc, out, err = run(capsys, "hadamard", str(inv), str(inv))
    assert (rc, out, err) == (0, "x^-1\n", "")  # 1 * 1 at exponent -1


def test_hadamard_in_two_variables(capsys, tmp_path):
    """GF(A) times GF(A) coefficientwise lists A again; GFs in different
    numbers of variables are refused with one line and exit 3."""
    g2, g1 = tmp_path / "g2.json", tmp_path / "g1.json"
    g2.write_text(json.dumps(run_json(capsys, "genfun", "x + y <= 3")))
    g1.write_text(json.dumps(run_json(capsys, "genfun", "x <= 3")))
    h = gf_from_obj(run_json(capsys, "hadamard", str(g2), str(g2)))
    assert h.names == ("x", "y")
    assert series_coeffs(h, 6) == {(x, y): 1 for x in range(4)
                                   for y in range(4 - x)}
    rc, out, err = run(capsys, "hadamard", str(g2), str(g1))
    assert (rc, out) == (3, "")
    assert err == "error: hadamard product of GFs in 2 and 1 variables\n"


def test_synth_pipeline_roundtrip(capsys, tmp_path):
    obj = run_json(capsys, "vpf", "2;3", "--as", "qp")
    path = tmp_path / "pqp.json"
    path.write_text(json.dumps(obj))
    res = run_json(capsys, "synth", str(path))
    formula = parse(res["formula"])
    for p in range(31):
        got = count_solutions(formula, res["param"], p, res["counted"])
        assert got == partition_count([(2,), (3,)], (p,)), p


def test_indicator_pipeline_matches_genfun(capsys):
    for text, names in [("u > 1 & u % 2 = 1", ("u",)),
                        ("x + 2*y <= 6", ("x", "y")),
                        ("x % 3 = 1 & x <= 10", ("x",))]:
        base = gf_from_obj(run_json(capsys, "genfun", text))
        dummy = gf_from_obj(run_json(
            capsys, "count", f"({text}) & dummy = 0",
            "--count-vars", "dummy", "--param-vars", ",".join(names)))
        assert series_equal(base, dummy, 20), text


def test_byte_identical_reruns(capsys):
    first = run(capsys, "count", "2*c1 + 2*c2 <= p", "--count-vars",
                "c1,c2", "--param-vars", "p", "--as", "qp",
                "--format", "json")
    second = run(capsys, "count", "2*c1 + 2*c2 <= p", "--count-vars",
                 "c1,c2", "--param-vars", "p", "--as", "qp",
                 "--format", "json")
    assert first == second
    a = run(capsys, "dnf", "x + y <= 4 | x % 2 = 1", "--format", "json")
    b = run(capsys, "dnf", "x + y <= 4 | x % 2 = 1", "--format", "json")
    assert a == b


def test_cached_parser_keeps_no_state_between_calls(capsys):
    assert _build_parser() is _build_parser()
    qp = ("count", "2*c1 + 2*c2 <= p", "--count-vars", "c1,c2",
          "--param-vars", "p", "--as", "qp")
    first = run(capsys, *qp)
    assert first[0] == 0 and "p" in first[1]
    # no --param-vars: the earlier "p" and "qp" must not carry over
    assert run(capsys, "count", "3*c1 + 5*c2 = 20", "--count-vars", "c1,c2",
               "--as", "value") == (0, "2\n", "")
    with pytest.raises(SystemExit) as exc:
        main(["count", "x <= 3", "--as", "value"])  # --count-vars missing
    assert exc.value.code == 2
    assert "--count-vars" in capsys.readouterr().err
    assert run(capsys, *qp) == first


KNAPSACK = ("count", "5*x + 6*y + 7*z <= p", "--count-vars", "x,y,z",
            "--param-vars", "p")
GOLDEN = [  # stdout pinned byte for byte by its sha256
    (KNAPSACK + ("--as", "qp"),
     "71e7cee2a2c1069daba8933ea6a7f065213da0a84e70ba201a138ce2feda2cc7"),
    (KNAPSACK + ("--as", "step"),
     "7099abfc3b6deae4da9f5a349803f427610fb208c2ee972acf97bc1826180250"),
    # period 168: the step document shares its floors and coefficients
    (("count", "8*x + 7*y + 3*z <= p", "--count-vars", "x,y,z",
      "--param-vars", "p", "--as", "step"),
     "21844f67d061dbdbb547f132d9546936c0c5c40701cffa48f0e36848fe32d577"),
    # the series row trims 10 of its 15 initial values, as q agrees there
    (("count", "x + 3*y <= p & x % 3 = 2 & x + y >= 4", "--count-vars",
      "x,y", "--param-vars", "p", "--as", "qp"),
     "c6512fa1317de2ed22520cffefafa5d5c4810683303d1cbeae5b9bf1e9bfa978"),
    (("vpf", "1,0;0,1;1,1;1,2", "--as", "qp"),
     "bceab6646ee0e9ea04ffb26475b557aa1f04b9cc828e0285da663d79d15c3718"),
    (("vpf", "2;3;5;7", "--as", "qp"),
     "cc477c3bdd009947f409fef6f1e2655821e0e8e0ec5127ba7c5256319f3e1f26"),
    # cones of index above genfun.LIMIT, decomposed (see
    # test_decomposed_golden_gfs_list_their_points)
    (("genfun", "13*x + 17*y + 19*z <= 104"),
     "b7e79dc275d7cbfd5b1aa2e61d86c180b8f9e62a8836c4b570e1364b84a31e74"),
    (("dnf", "!(x % 200 = 15)"),
     "ec7f754a331b0e1e057617b0e51264fc01c03eedc8f8bcd0e4004858b1fa33be"),
    (("dnf", "!(x + 2*y % 98 = 79)"),
     "e3561183662fd1882f5a3192541a9813b3d1e95c822085f39c5ae9f94148d698"),
    (("dnf", "A u. (u >= x | E g. 5*g + u = 3*x + w)"),
     "df744cad5285a8bcb6e8f8f70c577fd83aaa61a37d0a4f542ec6a43ace7ebb2e"),
    (("dnf", "E y. E z. x = 3*y + 5*z"),
     "5a27eb3ba06694aa3616bad04a19cfa4da6380b16548408786b7980dbbc0805e"),
    (("genfun", "4*x + 5*y + 6*z + 7*w <= 26"),
     "dd30133b4111f5d4337121f3cfca611f3aac122f41b4ffc3594c8a0dc6bc807f"),
    (("count", "5*x + 7*y + 9*z + 11*w <= 100", "--count-vars", "w,x,y,z",
      "--as", "value"),
     "f288679182eff3fb20e4d41b6e7f3acda1769d6033e6627539ab76a7f048cd2b"),
    # mixed poles in every cone: Laurent depth 2, lex-negative remaining parts
    (("count", "p <= x + y + z + 3 & x + p <= 3 & x + y + z <= p",
      "--count-vars", "x,y,z", "--param-vars", "p"),
     "5072d6d726a17c66a5fc1fd1ecd539ecf8e0b5c18b29189c7096b8d22efa6daf"),
    # two parameters, two mixed factors per cone
    (("count", "x + y + z <= p & x <= q & y + z <= q + 1",
      "--count-vars", "x,y,z", "--param-vars", "p,q"),
     "fc86bd720f4ac8cd7c77409bc10bebf08e08da81bf82c37abd96e5337b888600"),
]


def test_golden_outputs(capsys):
    for argv, digest in GOLDEN:
        rc, out, err = run(capsys, *argv, "--format", "json")
        assert rc == 0, err
        assert hashlib.sha256(out.encode()).hexdigest() == digest, argv


def test_golden_hadamard_and_synth(capsys, tmp_path):
    """hadamard of a periodic GF with terms that have no denominator, and
    synth of the count of 2*x + 3*y <= p, pinned byte for byte."""
    fa, fb, fq = (tmp_path / name for name in ("a.json", "b.json", "q.json"))
    fa.write_text(json.dumps({"names": ["x"], "terms": [
        {"coef": "1", "numer_exp": [1], "denom": [[2], [3]]},
        {"coef": "1/2", "numer_exp": [0], "denom": [[1]]},
        {"coef": "2", "numer_exp": [4], "denom": []}]}))
    fb.write_text(json.dumps({"names": ["x"], "terms": [
        {"coef": "3", "numer_exp": [2], "denom": [[1], [1]]},
        {"coef": "-1", "numer_exp": [0], "denom": [[2]]},
        {"coef": "5", "numer_exp": [0], "denom": []}]}))
    fq.write_text(json.dumps(run_json(
        capsys, "count", "2*x + 3*y <= p", "--count-vars", "x,y",
        "--param-vars", "p", "--as", "qp")))
    digests = {
        "hadamard":
        "38ca2fa3f4083f46064e103d7526dacce695b11e29d80e26a23fda5ab8c43269",
        "synth":
        "c42660fbb64c659511e46a8368cc6a755b9c8be286c437756f0c1869f9e0782d"}
    for argv in (("hadamard", str(fa), str(fb)), ("synth", str(fq))):
        rc, out, err = run(capsys, *argv, "--format", "json")
        assert rc == 0, err
        assert hashlib.sha256(out.encode()).hexdigest() == digests[argv[0]]


def test_split_trees_carry_one_double_description(capsys, monkeypatch):
    """dnf and vpf cut one double description down each split tree: no
    branch calls is_feasible or builds its cone from scratch, and stdout
    stays pinned byte for byte by its sha256."""
    import presburger.polyhedra as polyhedra

    def from_scratch(*args):
        raise AssertionError("a branch rebuilt its cone from scratch")

    monkeypatch.setattr(polyhedra, "_dd", from_scratch)
    monkeypatch.setattr(polyhedra, "is_feasible", from_scratch)
    cases = [
        (("dnf", "A h. (h >= x | E y. 5*y + h = 2*x + w)"),
         "3d3a668bcf9eebf94d17201f643b996dda50a8e1fc24a892530f96d3c39a4832"),
        (("vpf", "1,2;2,3;3,1;1,1;1,0", "--as", "qp"),
         "20fe247ee8c59fa1c7b54538683f3b2cccb4ec753351f8394464480c067dfd7c")]
    for argv, digest in cases:
        rc, out, err = run(capsys, *argv)
        assert rc == 0, err
        assert hashlib.sha256(out.encode()).hexdigest() == digest, argv


def test_count_builds_no_full_generating_function(capsys, monkeypatch):
    """count --as value, qp and gf walk each leaf cone of Brion straight
    to the exponents left after the counted variables are set to 1: no
    module builds the GF in the counted and parameter variables or sets
    its variables to 1, and stdout stays pinned by its GOLDEN digest."""
    def full_gf(*args):
        raise AssertionError("the count built the full generating function")

    for module in [m for name, m in sys.modules.items()
                   if name.startswith("presburger")]:
        for name in ("gf_of_cell", "specialize_ones", "cardinality"):
            if hasattr(module, name):
                monkeypatch.setattr(module, name, full_gf)
    golden = dict(GOLDEN)
    for argv in [("count", "5*x + 7*y + 9*z + 11*w <= 100", "--count-vars",
                  "w,x,y,z", "--as", "value"),
                 KNAPSACK + ("--as", "qp"),
                 ("count", "x + y + z <= p & x <= q & y + z <= q + 1",
                  "--count-vars", "x,y,z", "--param-vars", "p,q")]:  # gf
        rc, out, err = run(capsys, *argv, "--format", "json")
        assert rc == 0, err
        assert hashlib.sha256(out.encode()).hexdigest() == golden[argv], argv


def knapsack_text(coeffs, names, bound):
    return " + ".join(f"{a}*{v}" for a, v in zip(coeffs, names)) + \
        f" <= {bound}"


def test_decomposed_golden_gfs_list_their_points(capsys):
    """The two GOLDEN generating functions built from decomposed cones are
    the GFs of their point sets, as the parallelepiped sums were: equal
    mod a prime at random points, and in their point counts."""
    rng = random.Random(104)
    for coeffs, names, bound in [((13, 17, 19), "xyz", 104),
                                 ((4, 5, 6, 7), "xyzw", 26)]:
        g = gf_from_obj(run_json(capsys, "genfun",
                                 knapsack_text(coeffs, names, bound)))
        order = [names.index(v) for v in g.names]
        points = [tuple(p[i] for i in order)
                  for p in knapsack_points(coeffs, bound)]
        for _ in range(4):
            x = tuple(rng.randrange(2, PRIME) for _ in g.names)
            assert gf_value_mod(g, x) == points_value_mod(points, x)
        assert cardinality(g) == knapsack_count(coeffs, bound)


def test_large_knapsack_probes(capsys):
    """The 4-d knapsacks whose vertex cones have index up to 331^3: each
    count matches a DP count, and the GF of the first stays short."""
    for coeffs, bound in [((31, 37, 41, 43), 5000),
                          ((101, 103, 107, 109), 20000),
                          ((311, 313, 317, 331), 60000)]:
        rc, out, err = run(capsys, "count",
                           knapsack_text(coeffs, "xyzw", bound),
                           "--count-vars", "w,x,y,z", "--as", "value")
        assert rc == 0, err
        assert int(out) == knapsack_count(coeffs, bound)
    g = run_json(capsys, "genfun",
                 knapsack_text((31, 37, 41, 43), "xyzw", 5000))
    assert len(g["terms"]) <= 2000


def test_json_documents_match_the_json_module(capsys, tmp_path):
    """Every kind of document the command line prints is one line, what
    json.dumps(sort_keys=True, separators=(",", ":")) makes of it."""
    files = {}
    for name, argv in [("pqp", ("vpf", "2;3", "--as", "qp")),
                       ("gf1", ("vpf", "1;2;2")),
                       ("gf2", ("genfun", "x + 2*y <= 3"))]:
        files[name] = str(tmp_path / f"{name}.json")
        Path(files[name]).write_text(json.dumps(run_json(capsys, *argv)))
    for argv in [("decide", "E u. u > 1"), ("qelim", "E b. u = 2*b"),
                 ("genfun", "u > 1 & u % 2 = 1"), ("dnf", "x + y <= 4"),
                 KNAPSACK + ("--as", "qp"), KNAPSACK + ("--as", "step"),
                 KNAPSACK + ("--as", "value", "--at", "9"),
                 ("count", "x >= p", "--count-vars", "x",
                  "--param-vars", "p"),
                 ("vpf", "1,0;1,1", "--as", "qp"), ("synth", files["pqp"]),
                 ("series", files["gf1"], "--bound", "4"),
                 ("series", files["gf2"], "--bound", "2"),
                 ("zero", files["gf1"]),
                 ("hadamard", files["gf1"], files["gf1"])]:
        rc, out, err = run(capsys, *argv, "--format", "json")
        assert rc == (3 if "x >= p" in argv else 0), (argv, err)  # infinite
        want = json.dumps(json.loads(out), sort_keys=True,
                          separators=(",", ":"))
        assert out == want + "\n", argv


def test_console_script_installed():
    proc = subprocess.run(
        ["presburger", "decide", "E u. u > 1 & u % 2 = 1"],
        capture_output=True, text=True)
    assert proc.returncode == 0
    assert proc.stdout.strip() == "true"


def run_module(*args, **kwargs):
    """Run `python <args>` with the package under test importable; kwargs
    go to subprocess.run."""
    src = str(Path(presburger.__file__).resolve().parents[1])
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    return subprocess.run([sys.executable, *args], capture_output=True,
                          text=True, env=dict(os.environ, PYTHONPATH=path),
                          **kwargs)


def test_python_m_presburger():
    proc = run_module("-m", "presburger", "decide", "E u. u > 1 & u % 2 = 1")
    assert proc.returncode == 0
    assert proc.stdout.strip() == "true"


def test_malformed_input_rejected_under_optimize(tmp_path):
    # python -O strips asserts, so input checks must raise on their own
    def gf(names, numer, denom):
        return {"names": names, "terms": [
            {"coef": "1", "numer_exp": numer, "denom": denom}]}

    def pqp(lattice, ineqs, key="0", exps=(0,), dim=1):
        return {"n": 1, "names": ["p"], "pieces": [{
            "constituents": {key: [{"coef": "1", "exps": list(exps)}]},
            "lattice": lattice,
            "polyhedron": {"dim": dim, "eqs": [], "ineqs": ineqs}}]}

    dup = pqp([[2]], [[[1], 0]])
    dup["pieces"][0]["constituents"] = {
        k: [{"coef": c, "exps": [0]}] for k, c in [("0", "1"), ("1", "1"),
                                                   ("2", "5")]}
    cases = [("series", gf(["x"], [0], [[0]])),
             ("series", gf(["x", "y"], [0], [[1, 0]])),
             ("series", gf(["x"], [0, 1], [[1]])),
             ("synth", pqp([[0]], [[[1], 0]])),
             ("synth", pqp([[1]], [[[1, 1], 0]])),
             ("synth", pqp([[1]], [[[1], 0]], exps=(1, 1))),
             ("synth", pqp([[1]], [[[1], 0]], key="0,5")),
             ("synth", pqp([[1]], [[[1, 0], 0]], dim=2)),
             ("synth", pqp([[2]], [[[1], 0]])),
             ("synth", dup)]
    for i, (cmd, obj) in enumerate(cases):
        path = tmp_path / f"bad{i}.json"
        path.write_text(json.dumps(obj))
        proc = run_module("-O", "-m", "presburger.cli", cmd, str(path))
        assert proc.returncode == 2, (cmd, proc.stdout, proc.stderr)
        assert "error: not a" in proc.stderr


def gf_doc(**term):
    return {"names": ["x"], "terms": [
        dict({"coef": "1", "numer_exp": [0], "denom": [[1]]}, **term)]}


def pqp_doc(names=("p",), coef="1", lattice=((1,),), ineqs=(((1,), 0),),
            n=1):
    return {"n": n, "names": names, "pieces": [{
        "constituents": {"0": [{"coef": coef, "exps": [0]}]},
        "lattice": lattice,
        "polyhedron": {"dim": 1, "eqs": [], "ineqs": ineqs}}]}


@pytest.mark.parametrize("cmd, doc", [
    ("series", gf_doc(coef="1/0")),
    ("zero", gf_doc(coef="1/0")),
    ("hadamard", gf_doc(coef="1/0")),
    ("series", gf_doc(coef=1)),
    ("series", gf_doc(numer_exp=[True])),
    ("series", gf_doc(denom=[[2.9]])),
    ("series", gf_doc(numer_exp=["0"])),
    ("series", dict(gf_doc(), names="x")),
    ("synth", pqp_doc(coef="1/0")),
    ("synth", pqp_doc(names="q1")),
    ("synth", pqp_doc(names=["p", "q"])),
    ("synth", pqp_doc(lattice=[[True]])),
    ("synth", pqp_doc(ineqs=[[[1], 0.5]])),
    ("synth", pqp_doc(ineqs=[[[1.0], 0]])),
    ("synth", pqp_doc(n=1.0)),
])
def test_malformed_numbers_exit_2(capsys, tmp_path, cmd, doc):
    """Only JSON integers stand where integers belong and only "num/den"
    strings with a nonzero denominator where rationals do: anything else
    is a parse error, exit 2, and never a traceback or a rounded value."""
    assert_unreadable(capsys, tmp_path, cmd, doc)


def pqp2_doc(names):
    return {"n": 2, "names": names, "pieces": [{
        "constituents": {"0,0": [{"coef": "1", "exps": [0, 0]}]},
        "lattice": [[1, 0], [0, 1]],
        "polyhedron": {"dim": 2, "eqs": [], "ineqs": [[[1, 0], 0]]}}]}


def gf2_doc(names):
    return {"names": names, "terms": [
        {"coef": "1", "numer_exp": [0, 0], "denom": [[1, 0]]}]}


@pytest.mark.parametrize("cmd, doc", [
    ("synth", pqp_doc(names=["x + 1"])),
    ("synth", pqp_doc(names=["E"])),
    ("synth", pqp_doc(names=["A"])),
    ("synth", pqp_doc(names=[""])),
    ("synth", pqp_doc(names=[" p"])),
    ("synth", pqp2_doc(["p", "p"])),
    ("series", gf2_doc(["x", "x"])),
    ("zero", gf2_doc(["x", "x"])),
    ("hadamard", gf2_doc(["x", "x"])),
])
def test_bad_names_exit_2(capsys, tmp_path, cmd, doc):
    """A document's names are distinct variable names the formula parser
    reads as one NAME each, E and A not among them: synth writes the
    parameter's name into its formula.  Anything else exits 2."""
    assert_unreadable(capsys, tmp_path, cmd, doc)


def assert_unreadable(capsys, tmp_path, cmd, doc):
    """cmd on the JSON document doc exits 2 with its "not a" message."""
    path = str(tmp_path / "doc.json")
    Path(path).write_text(json.dumps(doc))
    rc, out, err = run(capsys, cmd, *[path] * (2 if cmd == "hadamard" else 1))
    what = ("piecewise quasi-polynomial" if cmd == "synth"
            else "generating function")
    assert (rc, out, err) == (2, "", f"error: not a {what}: {path}\n")


def test_variable_names_on_the_command_line_exit_2(capsys):
    """--count-vars and --param-vars take the names the formula parser
    reads as one NAME each: a count never prints a document with a name
    that synth then refuses."""
    for params in ("E", "q r"):
        assert run(capsys, "count", "x <= 3", "--count-vars", "x",
                   "--param-vars", params, "--as", "qp", "--format",
                   "json") == (2, "", f"error: not a variable name: "
                                      f"{params!r}\n")
    assert run(capsys, "count", "x <= 3", "--count-vars", "x,A",
               "--as", "value")[0] == 2


def test_synth_rejects_overlapping_pieces(capsys, tmp_path):
    """p in [0, 5] maps to 1 and p in [3, 8] to 2: the document's own eval
    gives 1 at p = 3..5, so no formula is right for both pieces and synth
    exits 3, as for two unbounded pieces."""
    doc = pqp_doc(ineqs=[[[1], 0], [[-1], -5]])
    doc["pieces"] += pqp_doc(coef="2", ineqs=[[[1], 3], [[-1], -8]])[
        "pieces"]
    path = tmp_path / "overlap.json"
    path.write_text(json.dumps(doc))
    assert pqp_from_obj(json.loads(path.read_text())).eval((3,)) == 1
    assert run(capsys, "synth", str(path)) == (
        3, "", "error: two pieces hold p = 3\n")


def test_synth_of_a_long_bounded_piece(capsys, tmp_path):
    """A pqp that is 1 on [0, 10000], as one interval piece, gives the
    formula of the 10001 one-point pieces that count prints for it; a
    piece of MODULUS_LIMIT + 1 points exits 4 before it is enumerated."""
    def interval(hi):
        path = tmp_path / f"interval{hi}.json"
        path.write_text(json.dumps(pqp_doc(ineqs=[[[1], 0], [[-1], -hi]])))
        return str(path)

    points = tmp_path / "points.json"
    points.write_text(json.dumps(run_json(
        capsys, "count", "x <= 0 & p <= 10000", "--count-vars", "x",
        "--param-vars", "p", "--as", "qp")))
    assert len(json.loads(points.read_text())["pieces"]) == 10001
    rc, out, err = run(capsys, "synth", interval(10000))
    assert rc == 0, err
    assert run(capsys, "synth", str(points)) == (rc, out, err)
    t0 = time.process_time()
    rc, out, err = run(capsys, "synth", interval(MODULUS_LIMIT))
    assert time.process_time() - t0 < 1
    assert rc == 4 and out == ""
    assert err == (f"error: enumerating a bounded piece needs "
                   f"{MODULUS_LIMIT + 1} residues, above the modulus limit "
                   f"{MODULUS_LIMIT}\n")
