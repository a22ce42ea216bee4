"""End-to-end command line tests driven through main(argv)."""

import json
import os
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import presburger
from oracles import count_solutions, partition_count
from presburger.cli import main
from presburger.formulas import eval_ground, parse
from presburger.genfun import series_coeffs, series_equal
from presburger.quasipoly import step_eval
from presburger.serialize import (
    gf_from_obj,
    pqp_from_obj,
    step_from_obj,
)

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


def test_count_value_two_parameters(capsys):
    rc, out, _ = run(capsys, "count", "c <= p1 & c <= p2",
                     "--count-vars", "c", "--param-vars", "p1,p2",
                     "--as", "value", "--at", "3,5")
    assert rc == 0 and out.strip() == "4"


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
    rc, _, err = run(capsys, "vpf", "1,0,0;0,1,1", "--as", "qp")
    assert rc == 4


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
    finally:
        os.unlink(path)


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


def test_console_script_installed():
    proc = subprocess.run(
        ["presburger", "decide", "E u. u > 1 & u % 2 = 1"],
        capture_output=True, text=True)
    assert proc.returncode == 0
    assert proc.stdout.strip() == "true"


def run_module(*args):
    """Run `python <args>` with the package under test importable."""
    src = str(Path(presburger.__file__).resolve().parents[1])
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    return subprocess.run([sys.executable, *args], capture_output=True,
                          text=True, env=dict(os.environ, PYTHONPATH=path))


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
