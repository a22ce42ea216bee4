"""Quantifier elimination against brute-force search with certified bounds."""

import itertools
import random

import pytest

from presburger.formulas import (
    FALSE,
    TRUE,
    And,
    Cmp,
    Exists,
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
    parse,
    substitute,
    substitution_plan,
)
from presburger.lattices import solve_congruences
from presburger.qelim import _offsets, decide, eliminate_exists, qelim
from presburger.semilinear import to_dnf
from oracles import brute_exists, brute_forall, witness_bound


def _random_term(rng, names, cmax, const):
    coeffs = {n: rng.randint(-cmax, cmax)
              for n in rng.sample(names, rng.randint(1, len(names)))}
    return LinearTerm.of(coeffs, rng.randint(-const, const))


def _random_atom(rng, names, cmax=3, const=6, mmax=4):
    kind = rng.randrange(4)
    term = _random_term(rng, names, cmax, const)
    if kind <= 1:
        return cmp_ge(term)
    if kind == 2:
        return cmp_eq(term)
    m = rng.randint(2, mmax)
    return congruence(term, m, rng.randrange(m))


def _random_qf(rng, names, depth, cmax=3, const=6, mmax=4):
    if depth == 0 or rng.random() < 0.45:
        return _random_atom(rng, names, cmax, const, mmax)
    kind = rng.randrange(3)
    if kind == 0:
        return conj([_random_qf(rng, names, depth - 1, cmax, const, mmax)
                     for _ in range(2)])
    if kind == 1:
        return disj([_random_qf(rng, names, depth - 1, cmax, const, mmax)
                     for _ in range(2)])
    return neg(_random_qf(rng, names, depth - 1, cmax, const, mmax))


def test_decide_known():
    cases = [
        ("E x. x >= 5", True),
        ("E a. E b. 2*a + 3*b = 1", False),
        ("E a. E b. 3*a + 5*b = 7", False),
        ("E a. E b. 3*a + 5*b = 8", True),
        ("E x. 2*x = 7", False),
        ("E x. 2*x = 8", True),
        ("E x. x % 3 = 2 & x % 4 = 1", True),
        ("E x. x % 2 = 1 & x % 4 = 0", False),
        ("E x. 5 >= x & x >= 3 & x % 3 = 0", True),
        ("E x. x >= 5 & x <= 3", False),
        ("E x. !(x >= 1)", True),
        ("A x. x >= 1", False),
        ("A x. x >= 0", True),
        ("A x. E y. y >= x", True),
        ("A x. E y. y = x + 7", True),
        ("A x. E y. x = y + 1", False),
        ("A x. x % 2 = 0 | x % 2 = 1", True),
        ("A x. A y. x + y >= x", True),
        ("A x. E y. 2*y <= x & x <= 2*y + 1", True),
        ("A p. E b. p = 2*b | p = 2*b + 1", True),
    ]
    for text, expected in cases:
        assert decide(parse(text)) is expected, text


def test_decide_rejects_free_variables():
    with pytest.raises(ValueError):
        decide(parse("x >= 1"))


def test_qelim_quantifier_free_passthrough():
    f = parse("x + 2 >= y & x % 2 = 1")
    assert qelim(f) == f


def test_qelim_unused_variable():
    g = qelim(parse("E u. x >= 3"))
    assert g == parse("x >= 3")


def test_qelim_odd_predicate():
    g = qelim(parse("E b. p = 2*b + 1"))
    assert is_quantifier_free(g)
    for p in range(60):
        assert eval_ground(g, {"p": p}) == (p % 2 == 1)


def test_qelim_divisibility_with_offset():
    # x + p = 1 mod 3 is solvable in x for every p
    g = qelim(parse("E x. x + p % 3 = 1"))
    for p in range(20):
        assert eval_ground(g, {"p": p})
    # 2x = p picks out the evens
    h = qelim(parse("E x. 2*x = p"))
    for p in range(40):
        assert eval_ground(h, {"p": p}) == (p % 2 == 0)


def test_qelim_inside_connective():
    g = qelim(parse("p >= 1 & E b. p = 2*b"))
    assert is_quantifier_free(g)
    for p in range(30):
        assert eval_ground(g, {"p": p}) == (p >= 1 and p % 2 == 0)


def test_eliminate_exists_targeted():
    # coefficient scaling, both-sided bounds and congruences interacting
    bodies = [
        "2*x <= p & 3*x >= p & x % 3 = 1",
        "p = 3*x + 2",
        "2*x + 3 >= p & 5*x <= p + 1",
        "x % 2 = 1 & x % 3 = 2 & x <= p",
        "3*x = p | 3*x + 1 = p",
        "2*x = p & x % 2 = 1",
        "x + x + 3*x = p",
        # fresh := p leaves 2*p % 4, not ground: no offset may be skipped
        "x >= p & x + p % 4 = 1",
        "x + 1 >= p & x + 3*p % 6 = 2",
    ]
    for text in bodies:
        body = parse(text)
        g = eliminate_exists("x", body)
        assert is_quantifier_free(g) and "x" not in free_vars(g)
        for p in range(45):
            env = {"p": p}
            assert eval_ground(g, env) == brute_exists(body, "x", env), \
                (text, p)


def test_eliminate_exists_random():
    rng = random.Random(424242)
    for _ in range(50):
        body = _random_qf(rng, ["x", "p"], 2)
        g = eliminate_exists("x", body)
        assert is_quantifier_free(g)
        assert "x" not in free_vars(g)
        for p in range(11):
            env = {"p": p}
            assert eval_ground(g, env) == brute_exists(body, "x", env), \
                format_formula(body)


def test_eliminate_exists_two_params():
    rng = random.Random(1717)
    for _ in range(25):
        body = _random_qf(rng, ["x", "p", "q"], 2, cmax=2, const=4, mmax=3)
        g = eliminate_exists("x", body)
        for p in range(7):
            for q in range(7):
                env = {"p": p, "q": q}
                assert eval_ground(g, env) == brute_exists(body, "x", env), \
                    format_formula(body)


def test_qelim_forall_random():
    rng = random.Random(90210)
    for _ in range(40):
        body = _random_qf(rng, ["x", "p"], 2, cmax=2, const=4, mmax=3)
        from presburger.formulas import ForAll

        g = qelim(ForAll("x", body))
        assert is_quantifier_free(g)
        for p in range(9):
            env = {"p": p}
            assert eval_ground(g, env) == brute_forall(body, "x", env), \
                format_formula(body)


def test_stacked_eliminations():
    # eliminate y, then x, checking each stage against search; the second
    # stage exercises Cooper on the messy atoms its own first stage emits
    rng = random.Random(606)
    for _ in range(6):
        body = _random_qf(rng, ["x", "y", "p"], 2, cmax=2, const=4, mmax=3)
        g1 = eliminate_exists("y", body)
        g2 = eliminate_exists("x", g1)
        for p in range(6):
            env = {"p": p}
            for x in range(13):
                assert eval_ground(g1, {**env, "x": x}) == \
                    brute_exists(body, "y", {**env, "x": x})
            assert eval_ground(g2, env) == brute_exists(g1, "x", env)


def _split_equalities(f):
    """f with each top-level equality t = 0 written as t >= 0 & -t >= 0,
    which hides it from the equality shortcut but keeps the meaning."""
    parts = f.parts if isinstance(f, And) else (f,)
    return conj([conj([cmp_ge(p.term), cmp_ge(-p.term)])
                 if isinstance(p, Cmp) and p.op == "=" else p
                 for p in parts])


def _leaves(f):
    """Number of atom occurrences in a quantifier-free formula."""
    if isinstance(f, (And, Or)):
        return sum(_leaves(p) for p in f.parts)
    if isinstance(f, Not):
        return _leaves(f.inner)
    return 1


def _pinning_eq(rng, var, names):
    """|c|*var = t for |c| in 1..4 and t with coefficients in 0..3 on names,
    written with either sign of c, so var has a solution for some values."""
    c = rng.choice([-4, -3, -2, -1, 1, 2, 3, 4])
    t = LinearTerm.of({n: rng.randint(0, 3) for n in names},
                      rng.randint(-6, 6))
    return cmp_eq(LinearTerm.var(var).scale(c) - t.scale(1 if c > 0 else -1))


def test_eliminate_exists_equality_random():
    # E x. (c*x = t & phi); a third of the trials add an equality free of
    # x, a third nest a second E y. (d*y = s & psi) inside the body
    rng = random.Random(31337)
    shortcut = 0
    for trial in range(150):
        body = conj([_pinning_eq(rng, "x", ["p", "q"]),
                     _random_qf(rng, ["x", "p", "q"], 2, cmax=2, const=4,
                                mmax=3)])
        if trial % 3 == 1:
            body = conj([body, cmp_eq(LinearTerm.of(
                {"p": rng.randint(1, 2), "q": -rng.randint(1, 2)},
                rng.randint(-3, 3)))])
        inner = None
        if trial % 3 == 2:
            inner = conj([_pinning_eq(rng, "y", ["x", "p"]),
                          _random_qf(rng, ["y", "x", "q"], 1, cmax=2,
                                     const=4, mmax=3)])
        if inner is None:
            g = eliminate_exists("x", body)
            plain = eliminate_exists("x", _split_equalities(body))
        else:
            g = qelim(Exists("x", conj([body, Exists("y", inner)])))
            plain = qelim(Exists("x", conj([
                _split_equalities(body),
                Exists("y", _split_equalities(inner))])))
        assert is_quantifier_free(g) and free_vars(g) <= {"p", "q"}
        shortcut += _leaves(g) < _leaves(plain)
        for p in range(7):
            for q in range(7):
                env = {"p": p, "q": q}
                if inner is None:
                    want = brute_exists(body, "x", env)
                else:
                    # body pins x, so its witness bound also bounds x here
                    want = any(
                        eval_ground(body, {**env, "x": x})
                        and brute_exists(inner, "y", {**env, "x": x})
                        for x in range(witness_bound(body, "x", env) + 1))
                assert eval_ground(g, env) == want, \
                    (format_formula(body), inner and format_formula(inner),
                     env)
                assert eval_ground(plain, env) == want
    assert shortcut >= 50, shortcut


def test_qelim_semigroup_size():
    # the numerical semigroup <4, 7, 9>; each equality pins its variable,
    # so the result is one substituted body per quantifier, not a Cooper
    # disjunction over every candidate and offset
    g = qelim(parse("E y. E z. E u. x = 4*y + 7*z + 9*u"))
    assert len(atoms_of(g)) <= 100
    # x >= 20 & x % 9 = 2 is dropped beside x >= 11 & x % 9 = 2
    assert len(g.parts) <= 12
    member = [True] + [False] * 60
    for n in range(1, 61):
        member[n] = any(n >= a and member[n - a] for a in (4, 7, 9))
    for x in range(61):
        assert eval_ground(g, {"x": x}) == member[x], x


def test_qelim_alternation_merges_negated_congruences():
    # the universal is eliminated as !E z. !body, which negates the
    # congruences of the inner elimination; each conjunct's complement
    # sets merge back into one single-residue atom
    f = parse("A z. (z >= x | E j. 5*j + z = 4*x + w)")
    g = qelim(f)
    # E z. z < x & !E j. ... has one upper candidate and two lower ones,
    # so it is split on the upper side
    assert format_formula(g) == (
        "(0 >= x | w + 3*x % 5 = 4) & (1 >= x | w + 3*x % 5 = 3) & "
        "(2 >= x | w + 3*x % 5 = 2) & (3 >= x | w + 3*x % 5 = 1) & "
        "(4 >= x | w + 3*x % 5 = 0)")
    body = qelim(f.body)
    for x in range(8):
        for w in range(8):
            env = {"x": x, "w": w}
            assert eval_ground(g, env) == brute_forall(body, "z", env), env


def test_congruences_on_one_term_fold():
    assert disj([parse("x % 2 = 0"), parse("x % 2 = 1")]) == TRUE
    assert conj([parse("x % 6 = 1"), parse("x % 6 = 2")]) == FALSE
    assert qelim(parse("E y. y = x & (x % 2 = 0 | x % 2 = 1)")) == TRUE


def _bound_atom(rng, var, names, sign, unit=False):
    """sign*c*var + t >= 0 with c in 1..3 (1 if unit) and t on names: a
    lower bound on var for sign +1, an upper bound for sign -1."""
    c = 1 if unit else rng.randint(1, 3)
    t = LinearTerm.of({n: rng.randint(-2, 2) for n in names},
                      rng.randint(-4, 4))
    return cmp_ge(LinearTerm.var(var).scale(sign * c) + t)


def _check_exists_on_box(body, names, size):
    g = eliminate_exists("x", body)
    assert is_quantifier_free(g) and "x" not in free_vars(g)
    for values in itertools.product(range(size), repeat=len(names)):
        env = dict(zip(names, values))
        assert eval_ground(g, env) == brute_exists(body, "x", env), \
            (format_formula(body), env)
    return g


def test_eliminate_exists_without_upper_bounds():
    # every comparison on x is a lower bound, so the split is phi_+inf
    # alone: the congruences on x decide it, offset by offset
    rng = random.Random(7001)
    for _ in range(40):
        parts = [_bound_atom(rng, "x", ["p", "q"], 1)
                 for _ in range(rng.randint(1, 3))]
        for _ in range(rng.randint(0, 2)):
            m = rng.randint(2, 6)
            parts.append(congruence(
                LinearTerm.of({"x": rng.randint(1, 3),
                               "p": rng.randint(0, 2)}), m, rng.randrange(m)))
        if rng.random() < 0.5:
            parts.append(disj([_bound_atom(rng, "x", ["p"], 1),
                               _random_atom(rng, ["p", "q"])]))
        _check_exists_on_box(conj(parts), ["p", "q"], 7)


def test_eliminate_exists_with_fewer_upper_bounds():
    # a top-level upper bound makes phi_+inf FALSE, and there are more
    # lower candidates than upper ones: the upper side is taken; a
    # constant upper bound makes the congruences ground at its candidate,
    # and its offsets count down from it
    for text in ["x <= 8 & x >= p & x >= q & x % 3 = 1",
                 "2*x <= 17 & x >= p & x + q >= 3 & x % 5 = 3",
                 "x <= 9 & 2*x >= p & x % 4 = 1 & x % 3 = 2"]:
        _check_exists_on_box(parse(text), ["p", "q"], 12)
    rng = random.Random(7002)
    for _ in range(60):
        k = rng.randint(1, 2)
        parts = [_bound_atom(rng, "x", rng.choice([["p", "q"], []]), -1)
                 for _ in range(k)]
        parts += [_bound_atom(rng, "x", ["p", "q"], 1)
                  for _ in range(k + rng.randint(0, 1))]
        m = rng.randint(2, 5)
        parts.append(congruence(LinearTerm.of(
            {"x": rng.randint(1, 3), "q": rng.randint(0, 2)}), m,
            rng.randrange(m)))
        if rng.random() < 0.5:
            parts.append(_random_qf(rng, ["x", "p", "q"], 1, cmax=2,
                                    const=4, mmax=3))
        _check_exists_on_box(conj(parts), ["p", "q"], 7)


def test_eliminate_exists_exact_shadow():
    # unit coefficients on x and no congruence on x: the result is one
    # conjunction of atoms (Fourier-Motzkin), with no case split
    rng = random.Random(7003)
    for _ in range(60):
        parts = [_bound_atom(rng, "x", ["p", "q", "r"], rng.choice([1, -1]),
                             unit=True) for _ in range(rng.randint(1, 4))]
        if rng.random() < 0.5:
            m = rng.randint(2, 4)
            parts.append(congruence(LinearTerm.of(
                {"p": 1, "r": rng.randint(0, 2)}), m, rng.randrange(m)))
        g = _check_exists_on_box(conj(parts), ["p", "q", "r"], 5)
        assert not any(isinstance(p, (And, Or))
                       for p in (g.parts if isinstance(g, And) else (g,)))
    g = qelim(parse("E y. x <= y & y <= z & w <= y"))
    assert format_formula(g) == "z >= w & z >= x"


def test_substitution_plan_is_substitute_at_each_offset():
    # Cooper's branches are byte-identical to one substitution per offset
    rng = random.Random(7004)
    for _ in range(200):
        f = _random_qf(rng, ["x", "p", "q"], 3)
        b = _random_term(rng, ["p", "q"], 3, 5)
        plan = substitution_plan(f, "x", b)
        for j in range(-4, 9):
            assert plan(j) == substitute(f, "x", b + LinearTerm.const(j)), \
                (format_formula(f), b, j)
    f = parse("x >= p & E y. y = x + q")
    assert substitution_plan(f, "x", LinearTerm.var("p"))(2) == \
        substitute(f, "x", LinearTerm.of({"p": 1}, 2))


def test_ground_congruences_fold_at_each_offset():
    """A congruence that the substitution makes ground, its coefficients
    all 0 mod m, folds to TRUE or FALSE at each offset by its residue test
    alone, and the plan stays substitute at each offset around it."""
    rng = random.Random(3737)
    seen = dict.fromkeys(["one", "several", "negative"], 0)
    for _ in range(150):
        m = rng.randint(2, 50)
        c, s, k = rng.randint(1, m - 1), rng.randint(-3, 3), rng.randint(
            -3 * m, 3 * m)
        rs = rng.sample(range(m), rng.choice([1, rng.randint(1, m - 1)]))
        # x = s p + b0 + j makes c x + a p + k ground mod m, a = -c s
        atom = congruence(LinearTerm.of({"x": c, "p": -c * s}, k), m, rs)
        b0 = rng.randint(-2 * m, 2 * m)
        b = LinearTerm.of({"p": s}, b0)
        f = rng.choice([conj, disj])([atom, _random_qf(rng, ["x", "p"], 2)])
        atom_plan, plan = (substitution_plan(g, "x", b) for g in (atom, f))
        for j in range(3 * m):
            want = TRUE if (c * (b0 + j) + k) % m in rs else FALSE
            assert atom_plan(j) is want, (format_formula(atom), b, j)
            assert plan(j) == substitute(f, "x", b + LinearTerm.const(j)), \
                (format_formula(f), b, j)
        seen["one" if len(rs) == 1 else "several"] += 1
        seen["negative"] += k < 0 or b0 < 0
    assert min(seen.values()) >= 20, seen


def test_ground_comparisons_fold_at_each_offset():
    """A comparison that the substitution makes ground folds to TRUE or
    FALSE at each offset by the sign of its constant alone, and the plan
    stays substitute at each offset around it."""
    rng = random.Random(3939)
    seen = dict.fromkeys([">=", "=", "both"], 0)
    for _ in range(150):
        m = rng.randint(2, 50)
        c, s = rng.choice([-1, 1]) * rng.randint(1, 5), rng.randint(-3, 3)
        b0 = rng.randint(-2 * m, 2 * m)
        # c x + a p + k crosses 0 near x = s p + b0 + t, a = -c s
        k = -c * (b0 + rng.randint(0, 3 * m)) + rng.choice([0, 0, 1, -1])
        op, make = rng.choice([(">=", cmp_ge), ("=", cmp_eq)])
        atom = make(LinearTerm.of({"x": c, "p": -c * s}, k))
        b = LinearTerm.of({"p": s}, b0)
        f = rng.choice([conj, disj])([atom, _random_qf(rng, ["x", "p"], 2)])
        atom_plan, plan = (substitution_plan(g, "x", b) for g in (atom, f))
        got = set()
        for j in range(3 * m + 1):
            v = c * (b0 + j) + k
            want = TRUE if (v >= 0 if op == ">=" else v == 0) else FALSE
            assert atom_plan(j) is want, (format_formula(atom), b, j)
            assert plan(j) == substitute(f, "x", b + LinearTerm.const(j)), \
                (format_formula(f), b, j)
            got.add(want)
        seen[op] += 1
        seen["both"] += len(got) == 2
    assert min(seen.values()) >= 40, seen


def test_frobenius_offsets_test_ground_congruences_alone(monkeypatch):
    """Deciding the 211/223 Frobenius sentence at its Frobenius number F
    and at F - 1 builds no residue set per offset: Cooper walks tens of
    thousands of offsets, and formulas.congruence runs fewer times than
    the two generators sum to."""
    import presburger.formulas as formulas

    calls, congruence_of = [], formulas.congruence

    def counted(*args):
        calls.append(args)
        return congruence_of(*args)

    monkeypatch.setattr(formulas, "congruence", counted)
    a, b = 211, 223
    frobenius = a * b - a - b
    for g, want in [(frobenius, True), (frobenius - 1, False)]:
        calls.clear()
        f = parse(f"A x. (x <= {g} | E y. E z. x = {a}*y + {b}*z)")
        assert decide(f) is want
        assert len(calls) < a + b, len(calls)


CRT = "E x. x % 7 = 1 & x % 9 = 2 & x % 11 = 3 & x % 8 = 5 & x >= y"


def test_offsets_against_solve_congruences():
    """Cooper's one-dimensional CRT step gives the same (J, M), or None,
    as the general solve_congruences on seeded random systems, zero and
    negative steps and moduli of 1 included."""
    rng = random.Random(3535)
    solved = 0
    for _ in range(600):
        system = [(rng.randint(-12, 12), rng.randint(-30, 30),
                   rng.randint(1, 12)) for _ in range(rng.randint(0, 3))]
        coset = solve_congruences([((s,), r, m) for s, r, m in system], 1)
        want = coset and (coset.rep[0], coset.lattice.basis[0][0])
        assert _offsets(system) == want, system
        solved += want is not None
    assert 150 <= solved <= 450


def test_crt_probe_is_true():
    # x has no upper bound, so only phi_+inf is split, and the one offset
    # the four congruences allow folds it to TRUE; the lower side gave a
    # disjunct per residue of y mod 5544
    assert format_formula(qelim(parse(CRT))) == "0 = 0"
    assert format_formula(qelim(parse(CRT + " & x % 13 = 4"))) == "0 = 0"


def test_chain_probe_cells():
    # E u is the exact shadow; E y then splits with l = 2
    f = parse("E y. E u. x <= y & y <= u & u <= z & w <= y & v <= u & "
              "y + u <= t")
    s = to_dnf(f)
    assert len(s.cells) <= 4
    for values in itertools.product(range(4), repeat=len(s.names)):
        env = dict(zip(s.names, values))
        assert s.contains(values) == eval_ground(f, env, bound=3), env
