"""Generating functions: fixtures with known closed forms, series checks,
Brion decomposition on small polyhedra, specialization at 1."""

import itertools
import math
import random
from fractions import Fraction

import pytest

from oracles import (
    PRIME,
    fraction_inverse,
    gf_value_mod,
    halfopen_simplicial_oracle,
    knapsack_count,
    knapsack_points,
    mixed_pole_oracle,
    monomial_substitute,
    points_value_mod,
    product_on_box,
    reference_cell_leaves,
    scalar_inverse,
    series_coeffs_oracle,
    series_oracle,
)
from presburger.formulas import (
    LinearTerm,
    cmp_eq,
    cmp_ge,
    congruence,
    conj,
    disj,
    eval_ground,
    format_formula,
    neg,
    parse,
)
from presburger.genfun import (
    LIMIT,
    DivergentSpecialization,
    GFTerm,
    RationalGF,
    _barvinok,
    _box,
    _cell_leaves,
    _gf_of_cone,
    _int_series_inverse,
    _mixed_series,
    _walk,
    cardinality,
    counting_gf,
    gf_euler,
    gf_of_cell,
    gf_of_formula,
    gf_of_semilinear,
    hadamard,
    make_term,
    rgf,
    series_coeffs,
    series_equal,
    specialize_ones,
    specialized_gf,
)
from presburger.lattices import (Lattice, LatticeCoset, full_coset, hnf,
                                 int_inverse, lex_positive, lll)
from presburger.polyhedra import (Cone, Polyhedron, implicit_equalities,
                                  tangent_cone, triangulate, vertices)
from presburger import is_zero_univariate
from presburger.quasipoly import vpf_gf
from presburger.semilinear import (SemilinearCell, SemilinearSet, _dnf_cells,
                                   to_dnf)


def box(d, hi):
    return itertools.product(range(hi + 1), repeat=d)


def dot(u, v):
    return sum(a * b for a, b in zip(u, v))


def indicator(f, names, hi):
    out = {}
    for pt in box(len(names), hi):
        if eval_ground(f, dict(zip(names, pt))):
            out[pt] = 1
    return out


def test_make_term_flips_lex_negative():
    t = make_term(1, (0,), [(-2,)])
    # 1/(1 - x^-2) = -x^2/(1 - x^2)
    assert t == GFTerm(Fraction(-1), (2,), ((2,),))
    t2 = make_term(3, (1, 0), [(0, -1), (1, -5)])
    assert t2.denom == ((0, 1), (1, -5))
    assert t2.coef == Fraction(-3)
    assert t2.numer == (1, 1)


def test_series_partition_two_parts():
    g = rgf(("x",), [make_term(1, (0,), [(1,), (2,)])])
    got = series_coeffs(g, 20)
    for n in range(21):
        assert got[(n,)] == n // 2 + 1


def test_series_repeated_factor():
    g = rgf(("x",), [make_term(1, (0,), [(1,), (1,)])])
    got = series_coeffs(g, 15)
    assert got == {(n,): n + 1 for n in range(16)}


def test_series_cancellation():
    # (1 - x) * 1/(1 - x), multiplied out term by term
    product = rgf(("x",), [make_term(1, (0,), [(1,)]),
                           make_term(-1, (1,), [(1,)])])
    assert series_equal(product, rgf(("x",), [make_term(1, (0,), [])]), 12)


def test_series_dim_zero():
    assert series_coeffs(rgf((), [make_term(5, (), [])]), 3) == {(): 5}
    assert series_coeffs(rgf((), []), 3) == {}


def test_series_coeffs_random_against_enumeration():
    rng = random.Random(2468)
    for trial in range(150):
        d = 1 + trial % 3
        E = (3, 2, 1)[d - 1]  # largest |entry| of a denominator vector
        terms = []
        for _ in range(rng.randint(1, 2)):
            denoms = []
            for _ in range(rng.randint(0, 3 if d < 3 else 2)):
                b = (0,) * d
                while not any(b):
                    b = tuple(rng.randint(-E, E) for _ in range(d))
                denoms.append(b)
            numer = tuple(rng.randint(-2, 2) for _ in range(d))
            coef = Fraction(rng.choice([-3, -1, 1, 2]), rng.randint(1, 2))
            terms.append(make_term(coef, numer, denoms))
        g = rgf(tuple(f"x{i}" for i in range(d)), terms)
        bound = rng.randint(0, 6)
        # tau = ((E+1)^(d-1), ..., 1) has tau.b >= 1 on every lex-positive
        # b with entries in [-E, E], so every k reaching the box has
        # k_j <= (cap - tau.numer) / tau.b_j
        tau = tuple((E + 1) ** (d - 1 - i) for i in range(d))
        cap = bound * sum(tau)
        K = max([0] + [(cap - dot(tau, t.numer)) // dot(tau, b)
                       for t in g.terms for b in t.denom])
        assert series_coeffs(g, bound) == series_oracle(g, bound, K)


def test_series_coeffs_random_mixed_signs_against_dict_kernel():
    """The row kernel against the unpruned dictionary kernel on random GFs
    whose denominators mix signs, in 2 to 4 variables, with numerators of
    either sign and several terms on one denominator."""
    rng = random.Random(2323)
    mixed = points = 0
    for trial in range(60):
        d = 2 + trial % 3
        terms = []
        for _ in range(rng.randint(1, 3)):
            denoms = []
            for _ in range(rng.randint(d - 1, d + 1)):
                b, low = (0,) * d, rng.choice((-1, -1, 0))
                while not any(b):
                    b = tuple(rng.randint(low, 1 - low) for _ in range(d))
                denoms.append(b)
            for _ in range(rng.randint(1, 3)):
                numer = tuple(rng.randint(-2, 3) for _ in range(d))
                coef = Fraction(rng.choice([-3, -1, 1, 2]), rng.randint(1, 3))
                terms.append(make_term(coef, numer, denoms))
        g = rgf(tuple(f"x{i}" for i in range(d)), terms)
        mixed += any(min(b) < 0 < max(b) for t in g.terms for b in t.denom)
        bound = rng.randint(2, 8 - d)
        got = series_coeffs(g, bound)
        assert got == series_coeffs_oracle(g, bound), g
        points += len(got)
    assert mixed >= 40 and points >= 1000


def test_gf_euler_random_against_series():
    # x_i d/dx_i multiplies the coefficient at p by p_i
    rng = random.Random(97531)
    for trial in range(60):
        d = 1 + trial % 3
        terms = []
        for _ in range(rng.randint(1, 3)):
            denoms = []
            for _ in range(rng.randint(0, 3)):
                b = (0,) * d
                while not any(b):
                    b = tuple(rng.randint(-1, 2) for _ in range(d))
                denoms.append(b)
            numer = tuple(rng.randint(-1, 3) for _ in range(d))
            terms.append(make_term(rng.choice([-2, -1, 1, 3]), numer, denoms))
        g = rgf(tuple(f"x{i}" for i in range(d)), terms)
        i = rng.randrange(d)
        table = series_coeffs(g, 5)
        want = {p: c * p[i] for p, c in table.items() if p[i]}
        assert series_coeffs(gf_euler(g, i), 5) == want, (g, i)


def test_cell_odd_at_least_three():
    # {u >= 2} intersected with 1 + 2Z is {3, 5, 7, ...} = x^3/(1 - x^2)
    cell = SemilinearCell(
        Polyhedron.of(1, [((1,), 2)]),
        LatticeCoset(Lattice(1, ((2,),)), (1,)))
    g = gf_of_cell(("u",), cell)
    assert g == RationalGF(("u",), (GFTerm(Fraction(1), (3,), ((2,),)),))
    got = series_coeffs(g, 19)
    assert got == {(n,): 1 for n in range(3, 20, 2)}


def as_ray(apex):
    """The integer ray (x, t) of a rational apex x / t, t > 0 minimal."""
    t = math.lcm(*(c.denominator for c in apex))
    return (*(int(c * t) for c in apex), t)


def cone_leaves(cone, limit=LIMIT):
    """The leaves of genfun._gf_of_cone for a Cone with a rational apex."""
    return _gf_of_cone(as_ray(cone.apex), cone.generators, limit)


def leaf_terms(leaves):
    """The GF terms of leaf cones (see genfun._barvinok), each walked in
    its own coordinates."""
    terms = []
    for leaf in leaves:
        gens, sign = leaf[1], leaf[5]
        d = len(gens)
        unit = make_term(sign, (0,) * d, gens)
        identity = [tuple(int(i == j) for j in range(d)) for i in range(d)]
        terms += [GFTerm(unit.coef, pt, unit.denom)
                  for pt in _walk(leaf, identity, gens, unit.numer)]
    return terms


def halfopen_terms(apex, gens, adj, det, excluded):
    """The GF terms of apex + cone(gens), facets in excluded removed."""
    return leaf_terms([(as_ray(apex), gens, adj, det, excluded, 1)])


def test_cone_fixture():
    # cone over (1,0) and (1,2): parallelepiped holds (0,0) and (1,1)
    cone = Cone((Fraction(0), Fraction(0)), ((1, 0), (1, 2)))
    g = rgf(("a", "b"), leaf_terms(cone_leaves(cone)))
    assert set(g.terms) == {
        GFTerm(Fraction(1), (0, 0), ((1, 0), (1, 2))),
        GFTerm(Fraction(1), (1, 1), ((1, 0), (1, 2))),
    }
    got = series_coeffs(g, 8)
    # every integer point of the cone, not just combinations of the rays
    want = {(a, b): 1 for a in range(9) for b in range(9) if b <= 2 * a}
    assert got == want


def test_halfopen_simplicial_random_against_oracle():
    rng = random.Random(1357)
    trials = on_facets = 0
    while trials < 150:
        d = 1 + trials % 4
        gens = [tuple(rng.randint(-6, 6) for _ in range(d)) for _ in range(d)]
        try:
            if Lattice.from_generators(d, gens).index() > 300:
                continue
        except ValueError:  # singular
            continue
        q = rng.randint(1, 7)
        apex = tuple(Fraction(rng.randint(-20, 20), q) for _ in range(d))
        excluded = {i for i in range(d) if rng.random() < 0.5}
        G = tuple(tuple(g[i] for g in gens) for i in range(d))
        adj, det = int_inverse(G)
        names = tuple(f"x{i}" for i in range(d))
        want = halfopen_simplicial_oracle(names, apex, gens,
                                          fraction_inverse(G), excluded)
        got = rgf(names, halfopen_terms(apex, gens, adj, det, excluded))
        assert got.terms == want.terms, (gens, apex, excluded)
        closed = rgf(names, halfopen_terms(apex, gens, adj, det, set()))
        on_facets += closed.terms != want.terms
        trials += 1
    assert on_facets >= 30  # excluded facets that really hold points


def test_halfopen_simplicial_carry_walk_cases():
    """Cones that reach each branch of the carry walk, under every set of
    excluded facets."""
    F = Fraction
    cases = [
        # adjugate entry -7 beyond D = 5: the inner step carries a whole D
        ((F(0), F(0)), ((1, 0), (7, 5))),
        ((F(1, 3), F(-1, 2)), ((7, 5), (1, 0))),  # det -5
        ((F(1, 2), F(-2, 3), F(5, 7)), ((2, 1, 0), (0, 3, 1), (1, 0, 2))),
        ((F(-3, 4), F(1, 6)), ((5, 2), (0, 1))),  # HNF diagonal (5, 1)
        ((F(1, 3), F(-1, 2)), ((3, 1), (0, 2))),  # HNF diagonal (3, 2)
        ((F(2, 5), F(0), F(-1, 3)), ((7, 3, 1), (0, 1, 0), (0, 0, 1))),
        ((F(1, 2), F(1, 3), F(1, 5)), ((1, 0, 0), (1, 1, 0), (1, 1, 1))),
        ((F(-7, 2),), ((3,),)),
        ((F(5, 3),), ((-4,),)),  # d = 1, det < 0
    ]
    reached = set()
    for apex, gens in cases:
        d = len(gens)
        G = tuple(tuple(g[i] for g in gens) for i in range(d))
        adj, det = int_inverse(G)
        sizes = [b[j] for j, b in
                 enumerate(Lattice.from_generators(d, gens).basis)]
        reached |= {kind for kind, hit in [
            ("negative det", det < 0),
            ("two walked axes", sum(s > 1 for s in sizes) > 1),
            ("adjugate beyond det", any(
                abs(row[j]) > abs(det) for row in adj
                for j, s in enumerate(sizes) if s > 1)),
            ("unimodular", abs(det) == 1)] if hit}
        names = tuple(f"x{i}" for i in range(d))
        for r in range(d + 1):
            for excluded in itertools.combinations(range(d), r):
                want = halfopen_simplicial_oracle(
                    names, apex, gens, fraction_inverse(G), set(excluded))
                got = rgf(names, halfopen_terms(
                    apex, gens, adj, det, set(excluded)))
                assert got.terms == want.terms, (gens, apex, excluded)
    assert reached == {"negative det", "two walked axes",
                       "adjugate beyond det", "unimodular"}


def knapsack_cones(coeffs, bound):
    d = len(coeffs)
    p = Polyhedron.of(d, [(tuple(-a for a in coeffs), -bound)] + [
        (tuple(int(i == j) for j in range(d)), 0) for i in range(d)])
    return [tangent_cone(p, v) for v in vertices(p)]


def max_index(cones):
    return max(abs(int_inverse(tuple(zip(*piece)))[1])
               for cone in cones for piece in triangulate(cone.generators))


def test_barvinok_knapsacks_three_ways():
    """Knapsack polytopes with vertex cones of index above LIMIT, split at
    LIMIT and down to unimodular leaves: the GF against the points by
    evaluation mod a prime, cardinality against a DP count and, in 3-d,
    the series on a box."""
    rng = random.Random(22)
    cases = [((13, 17, 19), 104), ((4, 5, 6, 7), 26)]
    for d, low, top in [(2, 65, 200), (2, 65, 200), (3, 9, 30), (3, 9, 30),
                        (4, 5, 12)]:
        coeffs = tuple(rng.sample(range(low, top), d))
        cases.append((coeffs, rng.randint(2, 3) * max(coeffs)))
    for coeffs, bound in cases:
        d = len(coeffs)
        names = tuple("xyzw"[:d])
        cones = knapsack_cones(coeffs, bound)
        assert max_index(cones) > LIMIT, coeffs
        points = knapsack_points(coeffs, bound)
        assert len(points) == knapsack_count(coeffs, bound)
        text = " + ".join(f"{a}*{v}" for a, v in zip(coeffs, names))
        for limit in (LIMIT, 1):
            g = rgf(names, leaf_terms(
                [leaf for c in cones for leaf in cone_leaves(c, limit)]))
            if limit == LIMIT:
                assert g == gf_of_formula(parse(f"{text} <= {bound}"), names)
            for _ in range(2):
                x = tuple(rng.randrange(2, PRIME) for _ in range(d))
                assert gf_value_mod(g, x) == points_value_mod(points, x)
            assert cardinality(g) == len(points), (coeffs, limit)
            if d >= 3:
                got = series_coeffs(g, bound // min(coeffs))
                assert got == dict.fromkeys(points, 1), (coeffs, limit)


def test_series_of_a_4d_knapsack_gf():
    """The Brion GF of 2*w + 5*x + 5*y + 2*z <= 8 has mixed-sign
    denominators in 4 variables; its series on [0, 8]^4 is the indicator
    of its 21 points."""
    g = gf_of_formula(parse("2*w + 5*x + 5*y + 2*z <= 8"), ("w", "x", "y", "z"))
    assert any(min(b) < 0 for t in g.terms for b in t.denom)
    points = knapsack_points((2, 5, 5, 2), 8)
    assert len(points) == 21
    assert series_coeffs(g, 8) == dict.fromkeys(points, 1)


def test_barvinok_breaks_ties_by_the_first_nonzero_entry():
    """With the reference vector at w itself, every facet of a sub-cone
    through w has n.ref = 0, so only the tie rule makes the sub-cones
    half-open: the signed sum must still be the half-open cone, whose
    own facets are decided by the same rule."""
    rng = random.Random(909)
    trials = 0
    while trials < 24:
        d = 2 + trials % 3
        gens = tuple(tuple(rng.randint(-6, 6) for _ in range(d))
                     for _ in range(d))
        G = tuple(zip(*gens))
        adj, det = int_inverse(G)
        if not 1 < abs(det) <= 100:
            continue
        a = min(lll(tuple(zip(*adj))), key=lambda v: max(map(abs, v)))
        w = tuple(dot(row, a) // det for row in G)
        s = 1 if det > 0 else -1
        excluded = {i for i, row in enumerate(adj) if not lex_positive(
            (s * dot(row, w),) + tuple(s * c for c in row))}
        apex = tuple(Fraction(rng.randint(-9, 9), rng.randint(1, 4))
                     for _ in range(d))
        names = tuple(f"x{i}" for i in range(d))
        want = halfopen_simplicial_oracle(names, apex, gens,
                                          fraction_inverse(G), excluded)
        leaves = []
        _barvinok(as_ray(apex), gens, adj, det, 1, w, 1, leaves)
        got = rgf(names, leaf_terms(leaves))
        assert got != want  # decomposed, with other denominators
        for _ in range(3):
            x = tuple(rng.randrange(2, PRIME) for _ in range(d))
            assert gf_value_mod(got, x) == gf_value_mod(want, x), gens
        trials += 1


def test_box_sizes_are_the_hnf_diagonal():
    """_box reads the walk's box sizes off the determinantal divisors of
    the generator matrix: they equal the diagonal of its column HNF on
    seeded random nonsingular matrices in d = 1..5, of either sign of
    determinant, and on every leaf of their Barvinok decompositions
    down to index 1, whose adjugates come from the split."""
    rng = random.Random(4711)
    signs, leaves_seen = set(), 0
    for trial in range(400):
        d = 1 + trial % 5
        gens = tuple(tuple(rng.randint(-9, 9) for _ in range(d))
                     for _ in range(d))
        G = tuple(zip(*gens))
        adj, det = int_inverse(G)
        if not det:
            continue
        signs.add(det > 0)
        cones = [(gens, adj, det)]
        if abs(det) <= 200:
            leaves = []
            _barvinok((0,) * d + (1,), gens, adj, det, 1,
                      [2 ** i for i in range(d)], 1, leaves)
            cones += [leaf[1:4] for leaf in leaves]
            leaves_seen += len(leaves)
        for g, a, t in cones:
            H = hnf(tuple(zip(*g)))[0]
            assert _box(g, a, t) == [H[j][j] for j in range(d)], g
    assert signs == {True, False} and leaves_seen >= 600


def test_leaf_setup_runs_no_elimination(monkeypatch):
    """A knapsack cell's leaves run one int_inverse per simplicial piece
    (here one per vertex) and no HNF, in gf_of_cell and specialized_gf
    alike, and every leaf reaches _walk with an integer apex."""
    import presburger.genfun as genfun
    import presburger.lattices as lattices

    calls = {"int_inverse": 0, "_hnf_core": 0, "walk": 0}

    def counted(module, name):
        f = getattr(module, name)

        def wrapper(*args, **kwargs):
            calls[name] += 1
            return f(*args, **kwargs)
        monkeypatch.setattr(module, name, wrapper)

    genfun_walk = genfun._walk

    def walk(leaf, *args):
        assert all(isinstance(c, int) for c in leaf[0]) and leaf[0][-1] > 0
        calls["walk"] += 1
        return genfun_walk(leaf, *args)

    counted(genfun, "int_inverse")
    counted(lattices, "_hnf_core")
    monkeypatch.setattr(genfun, "_walk", walk)
    for coeffs, bound in [((13, 17, 19), 104), ((4, 5, 6, 7), 26)]:
        d = len(coeffs)
        p = Polyhedron.of(d, [(tuple(-a for a in coeffs), -bound)] + [
            (tuple(int(i == j) for j in range(d)), 0) for i in range(d)])
        cell = SemilinearCell(p, full_coset(d))
        names = tuple("xyzw"[:d])
        for run in (lambda: gf_of_cell(names, cell),
                    lambda: specialized_gf(SemilinearSet(names, (cell,)),
                                           range(d))):
            calls.update(dict.fromkeys(calls, 0))
            run()
            assert calls["int_inverse"] == d + 1 and not calls["_hnf_core"]
            assert calls["walk"] > d + 1  # Barvinok split some cones


def test_halfopen_simplicial_rejects_a_wrong_adjugate():
    apex, gens = (Fraction(0), Fraction(0)), ((1, 0), (1, 2))
    adj, det = int_inverse(((1, 1), (0, 2)))
    assert det == 2 and halfopen_terms(apex, gens, adj, det, set())
    with pytest.raises(ValueError):
        halfopen_terms(apex, gens, adj, -det, set())
    with pytest.raises(ValueError):  # singular: zero adjugate, det 0
        halfopen_terms(apex, ((1, 1), (2, 2)),
                       *int_inverse(((1, 2), (1, 2))), set())


def test_gf_of_cell_empty_cells_have_no_terms():
    names = ("x", "y")
    empty = [
        Polyhedron.of(2, [((1, 0), 2), ((-1, 0), -1), ((0, 1), 0)]),
        Polyhedron.of(2, eqs=[((1, 1), 1), ((1, 1), 2)]),
        Polyhedron.of(2, [((0, 0), 1), ((1, 0), 0)]),
        # 3 <= 2x <= 3 holds at x = 3/2, at no integer
        Polyhedron.of(2, [((2, 0), 3), ((-2, 0), -3), ((0, 1), 0)]),
    ]
    for p in empty:
        for coset in (full_coset(2), LatticeCoset(
                Lattice.from_generators(2, [(2, 1), (0, 3)]), (1, 0))):
            assert gf_of_cell(names, SemilinearCell(p, coset)).terms == ()


def test_unit_square_brion():
    rows = [((1, 0), 0), ((-1, 0), -1), ((0, 1), 0), ((0, -1), -1)]
    cell = SemilinearCell(Polyhedron.of(2, rows), full_coset(2))
    g = gf_of_cell(("x", "y"), cell)
    assert series_coeffs(g, 4) == {
        (0, 0): 1, (0, 1): 1, (1, 0): 1, (1, 1): 1}


def test_triangle_brion():
    # x >= 0, y >= 0, x + y <= 5: all tangent cone arithmetic is exercised
    rows = [((1, 0), 0), ((0, 1), 0), ((-1, -1), -5)]
    cell = SemilinearCell(Polyhedron.of(2, rows), full_coset(2))
    g = gf_of_cell(("x", "y"), cell)
    got = series_coeffs(g, 6)
    assert got == {(x, y): 1 for x in range(6) for y in range(6 - x)}


def random_hnf_coset(rng, d):
    """A coset of a random full-rank HNF lattice other than Z^d."""
    diag = [rng.randint(1, 3) for _ in range(d)]
    diag[rng.randrange(d)] = rng.randint(2, 3)
    basis = tuple(tuple(0 if i < j else diag[j] if i == j
                        else rng.randrange(diag[i]) for i in range(d))
                  for j in range(d))
    rep = tuple(rng.randint(-5, 5) for _ in range(d))
    return LatticeCoset(Lattice(d, basis), rep)


def test_gf_of_cell_random_against_enumeration():
    rng = random.Random(4321)
    with_equality = nonempty_with_equality = 0
    for trial in range(150):
        d = 1 + trial % 3
        B = rng.randint(2, 6 - d)
        rows = [(tuple(int(i == j) for j in range(d)), 0) for i in range(d)]
        rows += [(tuple(-int(i == j) for j in range(d)), -B)
                 for i in range(d)]
        for _ in range(rng.randint(0, 2)):
            rows.append((tuple(rng.randint(-2, 2) for _ in range(d)),
                         rng.randint(-B, B)))
        eqs = []
        a = tuple(rng.randint(-2, 2) for _ in range(d))
        b = dot(a, [rng.randint(0, B) for _ in range(d)])
        if trial % 6 in (0, 1) and any(a):
            eqs.append((a, b))  # explicit equality
        elif trial % 6 in (2, 3) and any(a):
            rows += [(a, b), (tuple(-c for c in a), -b)]  # implicit
        cell = SemilinearCell(Polyhedron.of(d, rows, eqs),
                              random_hnf_coset(rng, d))
        names = tuple(f"x{i}" for i in range(d))
        want = {p: 1 for p in box(d, B) if cell.contains(p)}
        got = series_coeffs(gf_of_cell(names, cell), B)
        assert got == want, (cell, trial)
        if trial % 6 < 4 and any(a):
            with_equality += 1
            nonempty_with_equality += bool(want)
    assert with_equality >= 50  # a third of the trials
    assert nonempty_with_equality >= 20


def test_cell_leaves_match_the_hull_reference():
    # the leaf records read off p's own double description and mapped into
    # its affine hull equal those of a second one run on p in the hull
    rng = random.Random(36)
    tally = dict.fromkeys(["explicit", "implicit", "empty", "coset"], 0)
    for trial in range(240):
        d = 1 + trial % 5
        B = rng.randint(1, 4)
        rows = [(tuple(int(i == j) for j in range(d)), 0) for i in range(d)]
        rows += [(tuple(-int(i == j) for j in range(d)), -B)
                 for i in range(d)]
        for _ in range(rng.randint(0, 2)):
            rows.append((tuple(rng.randint(-2, 2) for _ in range(d)),
                         rng.randint(-B, B)))
        eqs = []
        a = tuple(rng.randint(-2, 2) for _ in range(d))
        b = dot(a, [rng.randint(0, B) for _ in range(d)])
        kind = trial // 5 % 4
        if kind == 0 and any(a):
            eqs.append((a, b))
            if trial % 3 == 0:  # a second one, not always integer-solvable
                eqs.append((tuple(rng.randint(-3, 3) for _ in range(d)),
                            rng.randint(-3, 3)))
        elif kind == 1 and any(a):
            rows += [(a, b), (tuple(-c for c in a), -b)]
        elif kind == 2 and any(a):
            rows += [(a, b + 1), (tuple(-c for c in a), -b)]  # empty over Q
        coset = random_hnf_coset(rng, d) if trial % 2 else full_coset(d)
        cell = SemilinearCell(Polyhedron.of(d, rows, eqs), coset)
        got = _cell_leaves(cell)
        assert got == reference_cell_leaves(cell), (cell, trial)
        tally["explicit"] += bool(eqs and got)
        tally["implicit"] += bool(kind == 1 and any(a) and got)
        tally["empty"] += not got
        tally["coset"] += bool(trial % 2 and got)
    assert min(tally.values()) >= 20, tally
    # the same records from the double description of each cell's branch
    # in to_dnf, cut by the rows still pending there
    tally = dict.fromkeys(tally, 0)
    for trial in range(240):
        names = ("x", "y", "z")[:1 + trial % 3]
        bound = rng.randint(1, 4)
        parts = [cmp_ge(LinearTerm.of({n: -1}, bound)) for n in names]
        term = LinearTerm.of({n: rng.randint(-2, 2) for n in names},
                             rng.randint(-3, 3))
        kind = trial // 3 % 4
        if kind == 0:
            parts.append(cmp_eq(term))
        elif kind == 1:  # two inequalities that pin term, implicitly
            parts.append(conj([cmp_ge(term), cmp_ge(-term)]))
        elif kind == 2:
            parts.append(disj([cmp_ge(term), cmp_ge(-term)]))
        if trial % 2:  # on term itself, a pin of term may miss the coset
            m = rng.randint(2, 4)
            coeffs = dict(term.coeffs) if kind == 1 else {
                n: rng.randint(0, 3) for n in names}
            parts.append(congruence(LinearTerm.of(coeffs), m, rng.sample(
                range(m), rng.randint(1, m - 1))))
        _, cells, cones = _dnf_cells(conj(parts), names)
        for cell, cone in zip(cells, cones):
            got = _cell_leaves(cell, cone)
            assert got == reference_cell_leaves(cell), (parts, cell)
            tally["explicit"] += bool(cell.polyhedron.eqs and got)
            tally["implicit"] += bool(
                implicit_equalities(cell.polyhedron) and got)
            tally["empty"] += not got
            tally["coset"] += bool(cell.coset.lattice.index() > 1 and got)
    assert min(tally.values()) >= 20, tally


def test_cell_leaves_run_one_double_description(monkeypatch):
    """A cell's Brion input comes from one double description of its
    polyhedron, equalities or not, and its affine hull from at most one
    HNF, none without equalities: no vertex runs a description of its own,
    and a simplex's vertex cones skip triangulation.  A hand-built cell
    runs its own description; a cell of to_dnf, from gf_of_formula or
    counting_gf, runs none, as it brings the one of its branch."""
    import presburger.genfun as genfun
    import presburger.lattices as lattices
    import presburger.polyhedra as polyhedra

    sizes, cells, hnf_calls, hnfs, runs = [], [], [], [], []
    dd, hnf_core, cell_leaves = (polyhedra._dd, lattices._hnf_core,
                                 genfun._cell_leaves)

    def counted_dd(rows, n):
        sizes.append(n)
        return dd(rows, n)

    def counted_hnf(*args):
        hnf_calls.append(args)
        return hnf_core(*args)

    def counted_cell(cell, cone=None):
        # hnfs and runs: the _hnf_core and _dd calls inside each cell
        cells.append(cell)
        before, before_dd = len(hnf_calls), len(sizes)
        out = cell_leaves(cell, cone)
        hnfs.append(len(hnf_calls) - before)
        runs.append(len(sizes) - before_dd)
        return out

    def per_vertex(*args):
        raise AssertionError("a vertex took a path of its own")

    monkeypatch.setattr(polyhedra, "_dd", counted_dd)
    monkeypatch.setattr(lattices, "_hnf_core", counted_hnf)
    monkeypatch.setattr(polyhedra, "tangent_cone", per_vertex)
    monkeypatch.setattr(polyhedra, "vertices", per_vertex)
    monkeypatch.setattr(genfun, "_cell_leaves", counted_cell)
    monkeypatch.setattr(genfun, "triangulate", per_vertex)
    unit = [(tuple(int(i == j) for j in range(3)), 0) for i in range(3)]
    knapsack = Polyhedron.of(3, unit + [((-5, -7, -9), -60)])
    segment = Polyhedron.of(2, [((1, 1), 3), ((-1, -1), -3)] + [
        (a[1:], 0) for a, _ in unit[1:]])  # x + y <= 3 & x + y >= 3
    names = ("x", "y", "z")
    for p, want, want_hnfs in [(knapsack, [4], [0]), (segment, [3], [1])]:
        sizes.clear()
        hnfs.clear()
        runs.clear()
        g = gf_of_cell(names[:p.dim], SemilinearCell(p, full_coset(p.dim)))
        assert sizes == want and hnfs == want_hnfs and runs == [1]
        assert series_coeffs(g, 12) == {
            x: 1 for x in box(p.dim, 12) if p.contains(x)}
    monkeypatch.setattr(genfun, "triangulate", triangulate)
    # cells of to_dnf: a split knapsack, equalities, congruence cosets
    for text in ["5*x + 7*y + 9*z <= 60 & (x >= 2 | y + z <= 3)",
                 "x + y + z = 6 & x % 3 = 1 | 2*x + y <= 5 & y % 2 = 0"]:
        f = parse(text)
        cells.clear()
        runs.clear()
        g = gf_of_formula(f, names)
        assert len(cells) >= 2 and runs == [0] * len(cells)
        assert series_coeffs(g, 8) == indicator(f, names, 8)
        runs.clear()
        h = counting_gf(f, names[:2], names[2:])
        assert runs and runs == [0] * len(runs)
        assert series_coeffs(h, 8) == {
            (z,): n for z in range(9) if (n := sum(
                eval_ground(f, {"x": x, "y": y, "z": z})
                for x, y in box(2, 12)))}
    sizes.clear()
    cells.clear()
    hnfs.clear()
    runs.clear()
    f = rgf(("x",), [make_term(1, (0,), ((1,), (2,)))])
    g = rgf(("x",), [make_term(1, (1,), ((2,), (3,)))])
    h = hadamard(f, g)  # every cell has the equalities e = a + B lam
    assert len(cells) == 1 and sizes == [6] and hnfs == [1] and runs == [1]
    tf, tg = series_coeffs(f, 30), series_coeffs(g, 30)
    assert series_coeffs(h, 30) == {
        e: tf[e] * tg[e] for e in tf if e in tg}


def test_formula_gf_equality_line():
    g = gf_of_formula(parse("3*a + 5*b = 20"), ["a", "b"])
    assert series_coeffs(g, 20) == {(5, 1): 1, (0, 4): 1}
    assert cardinality(g) == 2


def test_formula_gf_congruence_strip():
    f = parse("x % 3 = 1 & x + y <= 7")
    g = gf_of_formula(f, ["x", "y"])
    assert series_coeffs(g, 8) == indicator(f, ["x", "y"], 8)
    assert cardinality(g) == sum(indicator(f, ["x", "y"], 7).values())


def test_monomial_substitute():
    g = rgf(("u",), [make_term(1, (0,), [(1,)])])
    h = monomial_substitute(g, ("x", "y"), [(1, 1)])
    assert series_coeffs(h, 6) == {(n, n): 1 for n in range(7)}
    with pytest.raises(ValueError):
        monomial_substitute(g, ("x", "y"), [(0, 0)])
    with pytest.raises(ValueError):
        monomial_substitute(g, ("x", "y"), [(-1, 2)])


def test_int_series_inverse_against_fraction_series():
    rng = random.Random(4242)
    for sign in (1, -1):
        for depth in range(7):
            for length in range(1, depth + 3):  # shorter and longer
                r0 = sign * rng.randint(1, 12)
                r = [r0] + [rng.randint(-30, 30) for _ in range(length - 1)]
                got = _int_series_inverse(r, depth)
                assert all(type(c) is int for c in got)
                assert [Fraction(c, r0 ** (depth + 1)) for c in got] == \
                    scalar_inverse(r, depth), (r, depth)


def test_mixed_series_against_double_series():
    """The closed form sum_n sum_j c s^n y^j / (1 - y)^(j + 1) of a mixed
    factor has the double series of 1/(1 - y (1+s)^m); y^j / (1 - y)^(j + 1)
    is sum_i C(i, j) y^i, so y^0..y^depth already fix every c.  m = 0 is
    the factor 1/(1 - y) of a denominator vector with no counted part."""
    for m in range(-4, 5):
        want = mixed_pole_oracle(m, 6, 3)
        for depth in range(4):
            got = _mixed_series(m, depth)
            assert all(type(c) is int and j <= n <= depth
                       for (n, j), c in got.items()), (m, depth)
            for (i, n), c in want.items():
                if n <= depth:
                    assert sum(cj * math.comb(i, j) for (nj, j), cj
                               in got.items() if nj == n) == c, (m, i, n)


def test_specialize_keeps_structure():
    g = rgf(("x", "y"), [make_term(1, (0, 0), [(1, 1), (1, 0)])])
    h = specialize_ones(g, [1])
    assert h == rgf(("x",), [make_term(1, (0,), [(1,), (1,)])])
    assert series_coeffs(h, 10) == {(n,): n + 1 for n in range(11)}


def test_specialize_divergent():
    g = rgf(("y",), [make_term(1, (0,), [(1,)])])
    with pytest.raises(DivergentSpecialization):
        specialize_ones(g, [0])


def test_specialize_telescope():
    # (1 - x^1000)/(1 - x) lists 1000 points even though the pole at 1
    # only cancels between the two terms
    g = rgf(("x",), [make_term(1, (0,), [(1,)]),
                     make_term(-1, (1000,), [(1,)])])
    assert cardinality(g) == 1000


def test_specialize_partial_box():
    # sum over the 3x4 box, then only over x: y keeps its exponent
    g = gf_of_formula(parse("x <= 2 & y <= 3"), ["x", "y"])
    h = specialize_ones(g, [0])
    assert series_coeffs(h, 5) == {(y,): 3 for y in range(4)}
    assert cardinality(g) == 12


def random_bounded_formula(rng, names):
    """A seeded knapsack or box with up to two congruences in the given
    variables: the formula, its integer points by enumeration, and a
    bound on every coordinate."""
    d = len(names)
    if rng.random() < 0.5:
        hi = rng.randint(0, 16 - 2 * d)
        rows = [([rng.randint(1, 6) for _ in names], hi)]
    else:
        rows = [([int(i == j) for j in range(d)], rng.randint(0, 4))
                for i in range(d)]
        hi = max(h for _, h in rows)
    congs = []
    for _ in range(rng.randint(0, 2)):
        c = [rng.randint(0, 3) for _ in names]
        c[rng.randrange(d)] = 1
        m = rng.randint(2, 4)
        congs.append((c, m, rng.randrange(m)))

    def lin(c):
        return " + ".join(f"{a}*{n}" for a, n in zip(c, names) if a)

    text = [f"{lin(a)} <= {h}" for a, h in rows]
    text += [f"{lin(c)} % {m} = {r}" for c, m, r in congs]
    points = [p for p in box(d, hi)
              if all(dot(a, p) <= h for a, h in rows)
              and all(dot(c, p) % m == r for c, m, r in congs)]
    return parse(" & ".join(text)), points, hi


def gf_value(g, x):
    """Exact value of g at a point x where no 1 - x^b vanishes."""
    def mono(e):
        return math.prod(c ** k for c, k in zip(x, e))
    return sum((t.coef * mono(t.numer)
                / math.prod(1 - mono(b) for b in t.denom) for t in g.terms),
               Fraction(0))


# bounded sets whose cells map onto Z^k other than by the identity: a
# plane, an equality inside a coset, and unions of several cosets
NON_IDENTITY_MAPS = [
    ("w + 2*x + y = 6 & x % 2 = 1", "wxy", 6),
    ("x + y + z <= 7 & 2*x + y = z + 1", "xyz", 7),
    ("x + y <= 6 & x % 3 = 2 | x + y <= 3 & y % 2 = 0", "xy", 6),
    ("w + x + y <= 5 & (w = x | x + y % 3 = 1)", "wxy", 5),
]


def test_specialize_random_bounded_against_enumeration():
    """specialize_ones on the GF, and specialized_gf on the cells, against
    the enumerated points: their number, and their count per value of
    the remaining variables."""
    rng = random.Random(8642)
    # x^b = 1 only for b = 0 at these points (unique factorization)
    at = [tuple(Fraction(1, p) for p in (2, 3, 5, 7)),
          tuple(Fraction(p, q)
                for p, q in ((2, 3), (5, 7), (11, 13), (17, 19)))]

    def cases():  # drawn one at a time, between the samples of counted
        for trial in range(30):
            names = ["w", "x", "y", "z"][:2 + trial % 3]
            yield *random_bounded_formula(rng, names), names
        for text, names, hi in NON_IDENTITY_MAPS:
            f = parse(text)
            yield f, sorted(indicator(f, names, hi)), hi, list(names)

    for f, points, hi, names in cases():
        d = len(names)
        g = gf_of_formula(f, names)
        assert cardinality(g) == len(points), format_formula(f)
        s = to_dnf(f, names)
        assert specialized_gf(s, range(d)) == rgf((), [make_term(
            len(points), (), [])]), format_formula(f)
        # the full GF lists the enumerated points; checked by exact values,
        # as its series on the box can cost far more than the box in 4-d
        for pt in at:
            listed = rgf(names, [make_term(1, p, []) for p in points])
            assert gf_value(g, pt[:d]) == gf_value(listed, pt[:d]), \
                format_formula(f)
        counted = sorted(rng.sample(range(d), rng.randint(1, d - 1)))
        want = {}
        for p in points:
            key = tuple(x for i, x in enumerate(p) if i not in counted)
            want[key] = want.get(key, 0) + 1
        h = specialize_ones(g, counted)
        assert series_coeffs(h, hi) == want, (format_formula(f), counted)
        assert specialized_gf(s, counted) == h, (format_formula(f), counted)


def test_specialize_random_unbounded_diverges():
    rng = random.Random(9753)
    for trial in range(9):
        d = 2 + trial % 3
        names = ["w", "x", "y", "z"][:d]
        points = []
        while not points:
            f, points, _ = random_bounded_formula(rng, names[:-1])
        g = gf_of_formula(f, names)  # the last variable is unconstrained
        with pytest.raises(DivergentSpecialization):
            cardinality(g)
        with pytest.raises(DivergentSpecialization):
            specialize_ones(g, [d - 1])
        for positions in (range(d), [d - 1]):
            with pytest.raises(DivergentSpecialization):
                specialized_gf(to_dnf(f, names), positions)


def test_cardinality_rejects_fractional_count():
    with pytest.raises(ValueError):
        cardinality(rgf(("x",), [make_term(Fraction(1, 2), (0,), [])]))


def test_counting_gf_interval():
    g = counting_gf(parse("x <= p"), ["x"], ["p"])
    assert g.names == ("p",)
    assert series_coeffs(g, 12) == {(p,): p + 1 for p in range(13)}


def test_counting_gf_divergent():
    f = parse("y >= 0 & p >= 0")
    with pytest.raises(DivergentSpecialization):
        counting_gf(f, ["y"], ["p"])


def test_random_formulas_series_match():
    rng = random.Random(97531)
    names2 = ["x", "y"]
    for trial in range(20):
        d = rng.randint(1, 2)
        names = names2[:d]
        atoms = []
        for _ in range(rng.randint(1, 4)):
            coeffs = {n: rng.randint(-3, 3)
                      for n in rng.sample(names, rng.randint(1, d))}
            term = LinearTerm.of(coeffs, rng.randint(-6, 6))
            kind = rng.randrange(4)
            if kind <= 1:
                atoms.append(cmp_ge(term))
            elif kind == 2:
                atoms.append(cmp_eq(term))
            else:
                m = rng.randint(2, 4)
                atoms.append(congruence(LinearTerm(term.coeffs), m,
                                        rng.randrange(m)))
        f = atoms[0]
        for a in atoms[1:]:
            op = rng.randrange(3)
            if op == 0:
                f = conj([f, a])
            elif op == 1:
                f = disj([f, a])
            else:
                f = conj([f, neg(a)])
        g = gf_of_semilinear(to_dnf(f, names))
        hi = 8 if d == 2 else 14
        assert series_coeffs(g, hi) == indicator(f, names, hi), \
            format_formula(f)


def test_hadamard_indicator_intersection():
    # 1/(1-x) * 1/(1-x^2) pointwise = indicator of even numbers
    f = rgf(("x",), [make_term(1, (0,), ((1,),))])
    g = rgf(("x",), [make_term(1, (0,), ((2,),))])
    h = hadamard(f, g)
    assert series_equal(h, g, 30)


def test_hadamard_squares_sequence():
    # (p+1) * (p+1) = (p+1)^2
    f = rgf(("x",), [make_term(1, (0,), ((1,), (1,)))])
    h = hadamard(f, f)
    table = series_coeffs(h, 25)
    for p in range(26):
        assert table.get((p,), Fraction(0)) == (p + 1) ** 2


def test_hadamard_with_zero():
    f = rgf(("x",), [make_term(1, (0,), ((1,), (2,)))])
    z = rgf(("x",), [])
    assert not hadamard(f, z).terms


def test_hadamard_periodic_pair():
    f = rgf(("x",), [make_term(1, (0,), ((2,), (3,)))])
    g = rgf(("x",), [make_term(1, (1,), ((2,),))])
    h = hadamard(f, g)
    tf = series_coeffs(f, 40)
    tg = series_coeffs(g, 40)
    th = series_coeffs(h, 40)
    for p in range(41):
        want = tf.get((p,), Fraction(0)) * tg.get((p,), Fraction(0))
        assert th.get((p,), Fraction(0)) == want, p


def test_hadamard_of_a_negative_exponent():
    # x^-1/(1 - x) lists -1, 0, 1, ...; the product keeps the even ones
    f = rgf(("x",), [make_term(1, (-1,), ((1,),))])
    g = rgf(("x",), [make_term(1, (0,), ((2,),))])
    assert hadamard(f, g) == g


def test_hadamard_101_103():
    # a period lcm(101, 103) = 10403 no longer shows in the answer
    f = rgf(("x",), [make_term(1, (0,), ((1,), (101,)))])
    g = rgf(("x",), [make_term(1, (0,), ((1,), (103,)))])
    h = hadamard(f, g)
    assert len(h.terms) <= 10
    got, want = product_on_box(f, g, h, 600)
    assert got == want


def random_lex_gf(rng, d, pool):
    """One or two terms c x^a / prod (1 - x^b) in d variables, a in
    [-2, 1]^d and d - 1 to d + 1 denominators b drawn from pool, a
    repeat allowed."""
    return rgf(("x", "y", "z", "w")[:d], [make_term(
        Fraction(rng.choice((-3, -1, 1, 2)), rng.randint(1, 2)),
        [rng.randint(-2, 1) for _ in range(d)],
        rng.choices(pool, k=rng.randint(d - 1, d + 1)))
        for _ in range(rng.randint(1, 2))])


def test_hadamard_multivariate_against_the_series():
    """Seeded pairs in 2-4 variables, with negative exponents, mixed-sign
    and repeated denominators: the series of the product is the product
    of the series on a box from the lowest exponent."""
    rng = random.Random(2468)
    for d, count, bound in ((2, 24, 8), (3, 16, 5), (4, 10, 3)):
        for _ in range(count):
            # unit vectors and two with entries in [-1, 2], made
            # lex-positive by make_term, so mixed signs such as (1, -1)
            pool = [tuple(int(i == j) for j in range(d)) for i in range(d)]
            while len(pool) < d + 2:
                b = tuple(rng.randint(-1, 2) for _ in range(d))
                if any(b):
                    pool.append(b)
            f, g = (random_lex_gf(rng, d, pool) for _ in "fg")
            got, want = product_on_box(f, g, hadamard(f, g), bound)
            assert got == want, (f, g)
    # dependent denominators: partitions into (1,0), (0,1), (1,1), squared
    vpf = vpf_gf([(1, 0), (0, 1), (1, 1)])
    square = rgf(vpf.names, [make_term(1, (0, 0), vpf.terms[0].denom * 2)])
    got, want = product_on_box(square, vpf, hadamard(square, vpf), 6)
    assert got == want
    with pytest.raises(ValueError, match="1 and 2 variables"):
        hadamard(rgf(("x",), []), vpf)


def test_is_zero_univariate():
    # 1/(1-x^2) + x/(1-x^2) - 1/(1-x) vanishes identically
    f = rgf(("x",), [make_term(1, (0,), ((2,),)),
                     make_term(1, (1,), ((2,),)),
                     make_term(-1, (0,), ((1,),))])
    assert is_zero_univariate(f)
    g = rgf(("x",), [make_term(1, (0,), ((1,),)),
                     make_term(-1, (1,), ((1,),))])
    assert not is_zero_univariate(g)
    assert is_zero_univariate(rgf(("x",), []))
    # x^-1 lives below the box that series_coeffs reads
    assert not is_zero_univariate(rgf(("x",), [make_term(1, (-1,), ())]))
