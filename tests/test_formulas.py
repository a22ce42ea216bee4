"""Formula layer: parsing, printing, evaluation, nnf, simplify."""

import itertools
import random

import pytest

from oracles import eval_partial
from presburger.formulas import (
    FALSE,
    TRUE,
    And,
    Cmp,
    Congruence,
    Exists,
    ForAll,
    FormulaSyntaxError,
    LinearTerm,
    Not,
    Or,
    atoms_of,
    cmp_eq,
    cmp_ge,
    congruence,
    conj,
    disj,
    eval_ground,
    format_formula,
    free_vars,
    is_quantifier_free,
    neg,
    nnf,
    parse,
    simplify,
    substitute,
)
from presburger.lattices import Lattice, LatticeCoset
from presburger.quasipoly import qp_zero


def box_envs(names, hi):
    for point in itertools.product(range(hi + 1), repeat=len(names)):
        yield dict(zip(names, point))


def t(coeffs, const=0):
    return LinearTerm(tuple(sorted(coeffs.items())), const)


# ---------------------------------------------------------------------------
# parsing


def test_parse_atoms():
    assert parse("x + 2*y >= 5") == Cmp(t({"x": 1, "y": 2}, -5), ">=")
    assert parse("x = y") == Cmp(t({"x": 1, "y": -1}), "=")
    assert parse("p = 2*b + 1") == Cmp(t({"b": 2, "p": -1}, 1), "=")
    assert parse("x % 3 = 1") == Congruence(t({"x": 1}), 3, (1,))
    assert parse("0 = 0") == TRUE
    assert parse("0 = 1") == FALSE


def test_parse_strict_ops_tightened():
    assert parse("x < 5") == parse("x <= 4")
    assert parse("x > 3") == parse("x >= 4")
    assert parse("2*x < y") == parse("2*x + 1 <= y")


def test_parse_gcd_tightening():
    # 2x + 4y >= 3 has no even value below 4
    assert parse("2*x + 4*y >= 3") == Cmp(t({"x": 1, "y": 2}, -2), ">=")
    assert parse("2*x = 3") == FALSE
    assert parse("3*x = 6") == Cmp(t({"x": 1}, -2), "=")


def test_parse_congruence_whole_term():
    # % applies to the full additive term on its left
    assert parse("x + y % 2 = 1") == Congruence(t({"x": 1, "y": 1}), 2, (1,))
    assert parse("x - y % 2 = 0") == Congruence(t({"x": 1, "y": 1}), 2, (0,))
    assert parse("3*x % 6 = 3") == Congruence(t({"x": 1}), 2, (1,))
    assert parse("2*x % 4 = 1") == FALSE
    assert parse("x + 5 % 3 = 0") == Congruence(t({"x": 1}), 3, (1,))


def test_congruence_with_a_residue_out_of_range_is_rejected():
    # eval_ground read x + y = 5 (mod 3) as never true, qelim as always
    with pytest.raises(ValueError, match=r"residues=\(5,\)"):
        Congruence(t({"x": 1, "y": 1}), 3, (5,))
    assert congruence(t({"x": 1, "y": 1}), 3, 5) == Congruence(
        t({"x": 1, "y": 1}), 3, (2,))


def test_congruence_with_a_negative_coefficient_is_rejected():
    # decide of E x. -x = 1 (mod 3) raised "modulus must be positive"
    with pytest.raises(ValueError, match="'x', -1"):
        Congruence(t({"x": -1}), 3, (1,))
    with pytest.raises(ValueError, match="'x', 3"):
        Congruence(t({"x": 3}), 3, (0,))
    with pytest.raises(ValueError, match="modulus=0"):
        Congruence(t({"x": 1}), 0, (0,))
    assert congruence(t({"x": -1}), 3, 1) == Congruence(t({"x": 2}), 3, (1,))


@pytest.mark.parametrize("residues", [(), (0, 1, 2), (2, 1), (1, 1), (3,),
                                      (-1,), 1])
def test_congruence_with_a_malformed_residue_set_is_rejected(residues):
    # empty, full, unsorted, repeated, out of range, and a bare int
    with pytest.raises(ValueError, match="not reduced"):
        Congruence(t({"x": 1}), 3, residues)


def test_congruence_of_a_residue_set():
    # 2x = 1 (mod 4) is never true, 2x = 2 (mod 4) is x odd
    assert congruence(t({"x": 2}), 4, {1, 2}) == Congruence(
        t({"x": 1}), 2, (1,))
    assert congruence(t({"x": 1}), 3, [5, 0, 3]) == Congruence(
        t({"x": 1}), 3, (0, 2))
    assert congruence(t({"x": 1}), 3, range(3)) == TRUE
    assert congruence(t({"x": 1}), 3, ()) == FALSE
    assert congruence(t({"x": 2}), 4, [1, 3]) == FALSE


def test_parse_precedence():
    a, b, c = parse("x >= 1"), parse("y >= 1"), parse("z >= 1")
    assert parse("x >= 1 | y >= 1 & z >= 1") == Or((a, And((b, c))))
    assert parse("(x >= 1 | y >= 1) & z >= 1") == And((Or((a, b)), c))
    assert parse("!x >= 1 & y >= 1") == And((Not(a), b))
    assert parse("!(x >= 1 & y >= 1)") == Not(And((a, b)))


def test_parse_quantifier_body_extends_right():
    f = parse("E x. x >= 1 | y >= 2")
    assert isinstance(f, Exists) and isinstance(f.body, Or)
    g = parse("A u. E v. v >= u & u >= 0")
    assert isinstance(g, ForAll) and isinstance(g.body, Exists)
    assert isinstance(g.body.body, And)


def test_parse_unary_minus():
    assert parse("-x + 3 >= 0") == Cmp(t({"x": -1}, 3), ">=")
    assert parse("x >= -2") == Cmp(t({"x": 1}, 2), ">=")


def test_parse_errors_report_position():
    for text in ["x >=", "x + ", "(x >= 1", "x >= 1)", "x ? 1",
                 "E x x >= 0", "E 3. x >= 0", "x % 0 = 1",
                 "E E. x >= 0", "E x. E x. x >= 0", "x >= 1 &", "% 2 = 1"]:
        with pytest.raises(FormulaSyntaxError) as err:
            parse(text)
        assert isinstance(err.value.pos, int)


def test_roundtrip_fixed():
    for text in [
        "x + 2*y >= 5",
        "2*b + 1 = p",
        "x % 3 = 1",
        "x + 3 >= 2*y & x % 2 = 0",
        "E b. 2*b + 1 = p",
        "A x. E y. 2*y >= x",
        "x >= 1 | y >= 1 & z % 4 = 2",
        "!(x >= 1 | y >= 2)",
        "!(x % 3 = 1)",
        "0 = 0",
        "0 = 1",
    ]:
        f = parse(text)
        assert format_formula(f) == text
        assert parse(format_formula(f)) == f


def test_format_residue_set():
    # a set prints as the Or of its residues, in parentheses under & and !
    a = nnf(parse("!(x % 4 = 1)"))
    text = "x % 4 = 0 | x % 4 = 2 | x % 4 = 3"
    assert format_formula(a) == text
    assert format_formula(conj([a, parse("y >= 1")])) == f"({text}) & y >= 1"
    assert format_formula(disj([a, parse("y >= 1")])) == f"{text} | y >= 1"
    assert format_formula(neg(a)) == f"!({text})"
    assert nnf(parse(format_formula(neg(a)))) == parse("x % 4 = 1")


def _random_term(rng, names):
    coeffs = {n: rng.randint(-3, 3) for n in rng.sample(names, rng.randint(1, len(names)))}
    return LinearTerm.of(coeffs, rng.randint(-6, 6))


def _random_atom(rng, names):
    kind = rng.randrange(3)
    term = _random_term(rng, names)
    if kind == 0:
        return cmp_ge(term)
    if kind == 1:
        return cmp_eq(term)
    m = rng.randint(2, 4)
    return congruence(term, m, rng.randrange(m))


def _random_qf(rng, names, depth):
    if depth == 0 or rng.random() < 0.4:
        return _random_atom(rng, names)
    kind = rng.randrange(3)
    if kind == 0:
        return conj([_random_qf(rng, names, depth - 1) for _ in range(rng.randint(2, 3))])
    if kind == 1:
        return disj([_random_qf(rng, names, depth - 1) for _ in range(rng.randint(2, 3))])
    return neg(_random_qf(rng, names, depth - 1))


def _rebuild(g):
    """g with every connective rebuilt by conj, disj and neg."""
    if isinstance(g, And):
        return conj([_rebuild(p) for p in g.parts])
    if isinstance(g, Or):
        return disj([_rebuild(p) for p in g.parts])
    if isinstance(g, Not):
        return neg(_rebuild(g.inner))
    return g


def test_roundtrip_random():
    """A congruence whose residue set disj merged prints as an Or of
    one-residue atoms and parses back as that Or, so the parsed tree is
    compared after conj/disj merge it again; random.Random(1) draws such
    a formula (its 53rd)."""
    names = ["x", "y", "z"]
    for seed in (20240811, 1):
        rng = random.Random(seed)
        for _ in range(200):
            f = _random_qf(rng, names, 3)
            text = format_formula(f)
            assert _rebuild(parse(text)) == f, text


def test_roundtrip_random_quantified():
    rng = random.Random(7)
    for _ in range(60):
        body = _random_qf(rng, ["x", "y", "q"], 2)
        f = Exists("q", body) if rng.random() < 0.5 else ForAll("q", body)
        if rng.random() < 0.5:
            f = conj([f, _random_atom(rng, ["x", "y"])])
        assert parse(format_formula(f)) == f


# ---------------------------------------------------------------------------
# structure


def test_free_and_bound():
    f = parse("E b. 2*b + 1 = p")
    assert free_vars(f) == {"p"}
    assert not is_quantifier_free(f)
    assert is_quantifier_free(parse("x >= 1 & y % 2 = 0"))
    assert free_vars(parse("x >= 1 & y % 2 = 0")) == {"x", "y"}


def test_atoms_of():
    f = parse("x >= 1 & (x >= 1 | y % 2 = 1)")
    assert atoms_of(f) == [parse("x >= 1"), parse("y % 2 = 1")]


def test_substitute():
    f = parse("x + y >= 4")
    g = substitute(f, "x", t({"z": 2}, 1))
    assert g == parse("2*z + 1 + y >= 4")
    h = substitute(parse("x % 3 = 1"), "x", t({}, 7))
    assert h == TRUE
    with pytest.raises(ValueError):
        substitute(parse("E x. x >= y"), "x", t({}, 1))
    with pytest.raises(ValueError):
        substitute(parse("E x. x >= y"), "y", t({"x": 1}))
    # substitution folds: an And stops at a FALSE part, an Or at a TRUE one
    assert substitute(parse("x % 30 = 0 & x + y >= 3"), "x",
                      LinearTerm.const(7)) == FALSE
    assert substitute(parse("x >= 2 | y % 3 = 1"), "x",
                      LinearTerm.const(5)) == TRUE
    assert substitute(parse("!(x + y >= 1)"), "x", LinearTerm.const(2)) == FALSE
    assert substitute(parse("!(x = y + 3)"), "y", t({"x": 1})) == TRUE


# ---------------------------------------------------------------------------
# evaluation


def test_eval_ground_atoms():
    f = parse("x + 2*y >= 5")
    assert eval_ground(f, {"x": 1, "y": 2})
    assert not eval_ground(f, {"x": 1, "y": 1})
    g = parse("x % 3 = 1")
    assert eval_ground(g, {"x": 7})
    assert not eval_ground(g, {"x": 6})


def test_eval_ground_quantifiers():
    odd = parse("E b. p = 2*b + 1")
    # witness b = (p-1)/2 <= p, so bound p is enough
    for p in range(12):
        assert eval_ground(odd, {"p": p}, bound=p) == (p % 2 == 1)
    # every x in [0,B] has a floor-half witness y = x//2 <= B
    halves = parse("A x. E y. 2*y <= x & x <= 2*y + 1")
    assert eval_ground(halves, {}, bound=6)
    assert not eval_ground(parse("A x. x >= 1"), {}, bound=3)


def test_eval_ground_keeps_the_callers_binding():
    """A quantifier over x gives the caller's x back to its siblings, and
    leaves an unassigned x unassigned."""
    f = parse("(E x. x = 1) & x = 5")
    assert eval_ground(f, {"x": 5}, bound=3)
    assert not eval_ground(f, {"x": 4}, bound=3)
    assert eval_partial(f, {"x": 5}, bound=3) is True
    assert eval_partial(f, {}, bound=3) is None
    assert eval_partial(parse("(A x. x = 1) | x = 5"), {"x": 5}) is True


def test_eval_partial_kleene():
    f = parse("x >= 1 & y >= 1")
    assert eval_partial(f, {"x": 0}) is False
    assert eval_partial(f, {"x": 2}) is None
    assert eval_partial(f, {"x": 2, "y": 3}) is True
    g = parse("x >= 0 | y >= 5")
    assert eval_partial(g, {"x": 1}) is True
    assert eval_partial(neg(f), {"x": 0}) is True
    assert eval_partial(neg(f), {"x": 2}) is None


# ---------------------------------------------------------------------------
# nnf / simplify


def test_nnf_atoms():
    assert nnf(neg(parse("x >= 3"))) == parse("x <= 2")
    assert nnf(neg(parse("x = y"))) == parse("x >= y + 1 | y >= x + 1")
    assert nnf(neg(parse("x % 3 = 1"))) == disj(
        [Congruence(t({"x": 1}), 3, (0,)), Congruence(t({"x": 1}), 3, (2,))])
    assert nnf(neg(parse("x % 3 = 1"))) == Congruence(t({"x": 1}), 3, (0, 2))
    f = nnf(parse("!(x >= 1 & E u. u = x)"))
    assert isinstance(f, Or)
    assert "!" not in format_formula(f)


def _no_not(f):
    return "!" not in format_formula(f)


def test_nnf_random_equivalence():
    rng = random.Random(99)
    names = ["x", "y"]
    for _ in range(120):
        f = _random_qf(rng, names, 3)
        g = nnf(f)
        assert _no_not(g)
        for env in box_envs(names, 4):
            assert eval_ground(f, env) == eval_ground(g, env), format_formula(f)


def test_simplify_concrete():
    assert simplify(parse("x + 1 >= 0")) == TRUE
    assert simplify(parse("0 >= x + 1")) == FALSE
    assert simplify(conj([parse("x >= 3"), parse("x >= 5")])) == parse("x >= 5")
    assert simplify(conj([parse("x = 2"), parse("x >= 5")])) == FALSE
    assert simplify(conj([parse("x = 7"), parse("x >= 5")])) == parse("x = 7")
    assert simplify(disj([parse("x >= 3"), parse("x >= 5")])) == parse("x >= 3")
    # a disjunct with the same other atoms and weaker bounds subsumes
    assert simplify(parse("x >= 5 & y >= 1 & x % 9 = 0 | x >= 3 & x % 9 = 0")
                    ) == parse("x >= 3 & x % 9 = 0")
    assert simplify(parse("x % 9 = 0 | x >= 3 & x % 9 = 0")) == parse(
        "x % 9 = 0")
    kept = parse("x >= 5 & x % 9 = 0 | x >= 3 & y >= 1 & x % 9 = 0")
    assert len(simplify(kept).parts) == 2
    assert simplify(parse("E u. x >= 1")) == parse("x >= 1")
    assert simplify(parse("x = x")) == TRUE


def test_simplify_random_equivalence():
    rng = random.Random(5150)
    names = ["x", "y"]
    for _ in range(150):
        f = _random_qf(rng, names, 3)
        g = simplify(f)
        for env in box_envs(names, 4):
            assert eval_ground(f, env) == eval_ground(g, env), format_formula(f)


def test_subsumed_disjuncts_pruned_equivalently():
    # disjuncts share a few congruences and bound forms, so many subsume
    # one another; the pruned Or must keep the unpruned one's points
    rng = random.Random(4079)
    names = ["x", "y"]
    forms = [(t({"x": 1}), -6), (t({"y": 1}), -6), (t({"x": 1, "y": -1}), -6),
             (t({"x": -1}), 2)]
    congs = [congruence(t({"x": 1}), 3, 1), congruence(t({"x": 1, "y": 1}), 2),
             parse("x = 2*y")]
    dropped = 0
    for _ in range(60):
        parts = []
        for _ in range(rng.randint(2, 7)):
            lits = [cmp_ge(f + t({}, rng.randint(lo, lo + 5)))
                    for f, lo in rng.sample(forms, rng.randint(0, 3))]
            lits += rng.sample(congs, rng.randint(0, 1))
            parts.append(conj(lits) if lits else parse("x >= 1"))
        f = Or(tuple(parts))
        g = simplify(f)
        # count only what subsumption drops, not duplicates or merged bounds
        distinct = {p for p in map(simplify, parts)
                    if isinstance(p, And) or isinstance(p, Cmp) and p.op == "="}
        dropped += len(distinct) - sum(
            1 for p in (g.parts if isinstance(g, Or) else [g]) if p in distinct)
        for env in box_envs(names, 9):
            assert eval_ground(f, env) == eval_ground(g, env), format_formula(f)
    assert dropped >= 40, dropped


def test_smart_constructor_folding():
    assert conj([TRUE, parse("x >= 1"), TRUE]) == parse("x >= 1")
    assert conj([parse("x >= 1"), FALSE]) == FALSE
    assert disj([FALSE, FALSE]) == FALSE
    assert disj([parse("x >= 1"), TRUE]) == TRUE
    assert conj([]) == TRUE
    assert disj([]) == FALSE
    assert neg(neg(parse("x >= 1"))) == parse("x >= 1")
    assert congruence(t({"x": 4}, 0), 2, 1) == FALSE
    assert congruence(t({"x": 2}, 1), 2, 1) == TRUE


def test_constant_atoms_are_the_true_and_false_objects():
    # code compares with TRUE and FALSE by identity, so every path that
    # folds an atom to a constant must return the objects themselves
    x5 = LinearTerm.const(5)
    for got, want in [
            (parse("0 = 0"), TRUE), (parse("3 >= 7"), FALSE),
            (parse("2*x = 3"), FALSE), (parse("2*x % 4 = 1"), FALSE),
            (parse("2 % 1 = 0"), TRUE), (parse("!(1 >= 0)"), FALSE),
            (substitute(parse("x >= 3"), "x", x5), TRUE),
            (substitute(parse("x = 2*y + 1"), "x", t({"y": 2})), FALSE),
            (substitute(parse("x % 3 = 2"), "x", x5), TRUE),
            (substitute(parse("!(x = 5)"), "x", x5), FALSE),
            (substitute(parse("x >= 9 & y >= 0"), "x", x5), FALSE),
            (simplify(parse("x + 1 >= 0")), TRUE),
            (simplify(parse("x = x + 1")), FALSE),
            (simplify(parse("E y. x + 1 >= 0")), TRUE),
            (simplify(parse("x = 2 & x >= 5")), FALSE),
            (neg(TRUE), FALSE), (neg(FALSE), TRUE)]:
        assert got is want, (got, want)


def test_records_are_equal_only_within_one_class():
    p = (parse("x >= 1"), parse("y = 2"))
    pairs = [(And(p), Or(p)), (Exists("x", p[0]), ForAll("x", p[0]))]
    # a record is a tuple, but never equal to the tuple of its fields
    pairs += [(r, tuple(r)) for r in (And(p), Not(p[0]), p[0], p[0].term)]
    for a, b in pairs:
        assert a != b and b != a
        assert not a == b and not b == a
    assert conj(p) == And(p) and not conj(p) != And(p)
    assert hash(conj(p)) == hash(And(p))
    assert hash(parse("x >= 1")) == hash(cmp_ge(t({"x": 1}, -1)))
    assert {And(p): 1}[conj(p)] == 1


def test_record_fields_cannot_be_assigned():
    for r, field in ((parse("x >= 1"), "op"), (LinearTerm(()), "constant"),
                     (Lattice.standard(1), "basis"), (qp_zero(1), "n")):
        with pytest.raises(AttributeError):
            setattr(r, field, None)
    with pytest.raises(TypeError):
        hash(qp_zero(1))  # it holds a dict of constituents


def test_records_keep_their_construction_and_checks():
    assert LinearTerm(coeffs=()) == LinearTerm((), 0)
    assert Cmp(term=t({"x": 1}), op="=") == Cmp(t({"x": 1}), "=")
    with pytest.raises(ValueError, match="not reduced"):
        Congruence(term=t({"x": 1}, 1), modulus=3, residues=(0,))
    for basis in [((2, 1), (0, 0)), ((1, 0),), ((1,), (0, 1))]:
        with pytest.raises(ValueError, match="full-rank HNF"):
            Lattice(2, basis)
    lat = Lattice(dim=2, basis=((2, 1), (0, 3)))
    assert LatticeCoset(lat, (5, -1)).rep == (1, 0)
    assert LatticeCoset(lattice=lat, rep=(1, 1)) == LatticeCoset(lat, (3, 5))


def test_record_reprs_are_the_dataclass_reprs():
    # _prune_conj and _prune_disj sort by repr, so printed output rests on it
    assert repr(LinearTerm((("x", 2), ("y", -1)), 3)) == (
        "LinearTerm(coeffs=(('x', 2), ('y', -1)), constant=3)")
    assert repr(parse("x >= 2")) == (
        "Cmp(term=LinearTerm(coeffs=(('x', 1),), constant=-2), op='>=')")
    assert repr(congruence(t({"x": 4}), 6, [0, 4])) == (
        "Congruence(term=LinearTerm(coeffs=(('x', 2),), constant=0), "
        "modulus=3, residues=(0, 2))")
