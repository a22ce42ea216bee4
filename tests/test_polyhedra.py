"""Polyhedron geometry: feasibility certificates, vertices, rays, pieces."""

import math
import random
from fractions import Fraction
from functools import reduce

import pytest

from oracles import rat_rank, rays_oracle, vertices_oracle
from presburger.formulas import (
    LinearTerm,
    cmp_eq,
    cmp_ge,
    congruence,
    conj,
    disj,
)
from presburger.lattices import vadd, vdot, vneg, vsub
from presburger.polyhedra import (
    Cone,
    NonPointedError,
    Polyhedron,
    dd_cut,
    dd_feasible,
    dd_space,
    has_interior,
    implicit_equalities,
    is_feasible,
    nonneg_orthant,
    tangent_cone,
    triangulate,
    vertex_cones,
    vertices,
)
from presburger.semilinear import _dnf_cells


def implicit_by_dot_products(p, dd):
    """implicit_equalities(p, dd) without the mask test: every inequality
    row against every ray of dd."""
    rays = [r for r, _ in dd[1]]
    if not any(r[-1] for r in rays):
        return list(p.ineqs)
    return [(a, b) for a, b in p.ineqs
            if all(vdot(a, r[:-1]) == b * r[-1] for r in rays)]


def square():
    return Polyhedron.of(2, [((1, 0), 0), ((0, 1), 0),
                             ((-1, 0), -1), ((0, -1), -1)])


def box(d, r):
    """The cube [-r, r]^d."""
    rows = []
    for i in range(d):
        e = tuple(1 if j == i else 0 for j in range(d))
        rows += [(e, -r), (tuple(-c for c in e), -r)]
    return Polyhedron.of(d, rows)


def recession(p):
    # the recession cone {a.y >= 0, e.y = 0} is its own tangent cone at 0
    cone = Polyhedron.of(p.dim, [(a, 0) for a, _ in p.ineqs],
                         [(a, 0) for a, _ in p.eqs])
    return list(tangent_cone(cone, (0,) * p.dim).generators)


def test_feasibility_known():
    assert is_feasible(square())
    empty = Polyhedron.of(1, [((1,), 2), ((-1,), -1)])  # x >= 2 and x <= 1
    assert not is_feasible(empty)
    thin = Polyhedron.of(1, [((5,), 2), ((-5,), -3)])   # 2/5 <= x <= 3/5
    assert is_feasible(thin)
    assert vertices(thin) == [(Fraction(2, 5),), (Fraction(3, 5),)]
    point = Polyhedron.of(2, eqs=[((1, 1), 3), ((1, -1), 1)])
    assert is_feasible(point)
    assert vertices(point) == [(2, 1)]


def test_interior():
    assert has_interior(square())
    assert not has_interior(Polyhedron.of(2, eqs=[((1, -1), 0)]))
    segment = Polyhedron.of(1, [((1,), 0), ((-1,), 0)])  # the point x = 0
    assert is_feasible(segment) and not has_interior(segment)


def test_feasibility_random_certified():
    # feasible verdicts must come with a vertex of p cut down to a box;
    # infeasible verdicts are cross-checked on a rational grid
    rng = random.Random(31337)
    grid = [Fraction(n, 2) for n in range(-8, 9)]
    for _ in range(120):
        d = rng.randint(1, 3)
        rows = []
        for _ in range(rng.randint(1, 5)):
            a = tuple(rng.randint(-3, 3) for _ in range(d))
            rows.append((a, rng.randint(-4, 4)))
        p = Polyhedron.of(d, rows)
        if is_feasible(p):
            vs = vertices(p.intersect(box(d, 1000)))
            assert vs and all(p.contains(v) for v in vs)
        elif d <= 2:
            import itertools

            for x in itertools.product(grid, repeat=d):
                assert not p.contains(x)


def test_implicit_equalities_random():
    # on a polytope a row is an implicit equality iff every vertex is on it
    rng = random.Random(4242)
    checked = 0
    for _ in range(150):
        d = rng.randint(1, 3)
        rows = []
        for _ in range(rng.randint(1, 4)):
            a = tuple(rng.randint(-3, 3) for _ in range(d))
            b = rng.randint(-4, 4)
            rows.append((a, b))
            if rng.random() < 0.3:
                rows.append((tuple(-c for c in a), -b))
        q = Polyhedron.of(d, rows).intersect(box(d, 5))
        if not is_feasible(q):
            continue
        vs = vertices(q)
        want = [(a, b) for a, b in q.ineqs
                if all(sum(c * x for c, x in zip(a, v)) == b for v in vs)]
        assert implicit_equalities(q) == want, q
        checked += bool(want)
    assert checked > 0


def test_vertices_square_and_triangle():
    assert vertices(square()) == [(0, 0), (0, 1), (1, 0), (1, 1)]
    tri = Polyhedron.of(2, [((1, 0), 0), ((0, 1), 0), ((-1, -1), -3)])
    assert vertices(tri) == [(0, 0), (0, 3), (3, 0)]


def test_vertices_with_equality():
    p = Polyhedron.of(2, [((1, 0), 0), ((-1, 0), -2)], eqs=[((1, 1), 2)])
    assert vertices(p) == [(0, 2), (2, 0)]


def test_vertices_unbounded_pointed():
    p = Polyhedron.of(2, [((1, 0), 1), ((0, 1), 0), ((1, -1), 0)])
    # x >= 1, 0 <= y <= x: the bounded edge x = 1 contributes both ends
    assert vertices(p) == [(1, 0), (1, 1)]
    assert recession(p) == [(1, 0), (1, 1)]


def test_vertices_nonpointed_raises():
    with pytest.raises(NonPointedError):
        vertices(Polyhedron.of(2, [((1, 0), 0)]))
    with pytest.raises(ValueError):
        vertices(Polyhedron.of(1, [((1,), 2), ((-1,), -1)]))


def test_recession_cone():
    tri = Polyhedron.of(2, [((1, 0), 0), ((0, 1), 0), ((-1, -1), -3)])
    assert recession(tri) == []
    wedge = Polyhedron.of(2, [((1, 0), 0), ((-1, 1), 0)])  # 0 <= x <= y
    assert recession(wedge) == [(0, 1), (1, 1)]
    assert tangent_cone(wedge, (0, 0)).generators == ((0, 1), (1, 1))
    assert recession(nonneg_orthant(3)) == [(0, 0, 1), (0, 1, 0), (1, 0, 0)]


def test_tangent_cone():
    sq = square()
    c0 = tangent_cone(sq, (0, 0))
    assert c0 == Cone((Fraction(0), Fraction(0)), ((0, 1), (1, 0)))
    c1 = tangent_cone(sq, (1, 1))
    assert set(c1.generators) == {(-1, 0), (0, -1)}
    # at a non-vertex boundary point the cone is not pointed
    with pytest.raises(NonPointedError):
        tangent_cone(sq, (Fraction(1, 2), 0))


def test_triangulate_collinear_fan():
    pieces = triangulate([(1, 0), (1, 1), (1, 2)])
    assert pieces == [((1, 0), (1, 1)), ((1, 1), (1, 2))]


def test_triangulate_simplicial_unchanged():
    assert triangulate([(1, 0), (0, 1)]) == [((0, 1), (1, 0))]
    assert triangulate([(2, 1), (1, 3)]) == [((1, 3), (2, 1))]
    assert triangulate([(1, 0, 0), (0, 1, 0), (0, 0, 1)]) == \
        [((0, 0, 1), (0, 1, 0), (1, 0, 0))]


def test_triangulate_square_cone():
    rays = [(0, 0, 1), (1, 0, 1), (0, 1, 1), (1, 1, 1)]
    pieces = triangulate(rays)
    assert len(pieces) == 2
    assert all(len(p) == 3 for p in pieces)
    covered = set()
    for p in pieces:
        covered |= set(p)
    assert covered == set(rays)


def test_triangulate_interior_generator_subdivides():
    # (1, 1) lies inside the cone of (1, 0) and (1, 2) yet splits the fan,
    # because it is placed before (1, 2)
    pieces = triangulate([(1, 2), (1, 0), (1, 1)])
    assert pieces == [((1, 0), (1, 1)), ((1, 1), (1, 2))]


def test_triangulate_below_full_rank():
    # the generators span a plane of Q^3; the initial simplex is read off
    # the pivot columns, which skip the zero third coordinate
    assert triangulate([(1, 2, 0), (1, 0, 0), (1, 1, 0)]) == \
        [((1, 0, 0), (1, 1, 0)), ((1, 1, 0), (1, 2, 0))]
    assert triangulate([(0, 1, 1), (0, 1, 0), (0, 2, 1)]) == \
        [((0, 1, 0), (0, 1, 1))]


def test_intersect_and_contains():
    p = square().intersect(Polyhedron.of(2, [((1, 1), 1)]))
    assert p.contains((1, 0)) and not p.contains((0, 0))
    assert vertices(p) == [(0, 1), (1, 0), (1, 1)]


def test_intersect_rejects_dimension_mismatch():
    with pytest.raises(ValueError):
        square().intersect(nonneg_orthant(3))


def test_tangent_cone_rejects_point_outside():
    with pytest.raises(ValueError):
        tangent_cone(square(), (2, 0))


def test_tangent_cone_integer_row_tests():
    F = Fraction
    # x + y + z = 1 with x >= 1/2 and y >= 1/3 (as 6y >= 2) tight at
    # (1/2, 1/3, 1/6); z >= 0 and x <= 5 are slack there
    p = Polyhedron.of(3, [((2, 0, 0), 1), ((0, 6, 0), 2), ((0, 0, 1), 0),
                          ((-1, 0, 0), -5)], [((1, 1, 1), 1)])
    v = (F(1, 2), F(1, 3), F(1, 6))
    assert v in vertices(p)
    cone = tangent_cone(p, v)
    assert cone.apex == v
    assert cone.generators == tuple(rays_oracle(
        [(2, 0, 0), (0, 6, 0)], [(1, 1, 1)], 3)) == ((0, 1, -1), (1, 0, -1))
    # an int tuple is its own common denominator
    q = Polyhedron.of(2, [((1, 0), 0), ((0, 1), 0), ((-1, -2), -4)])
    cone = tangent_cone(q, (4, 0))
    assert cone.apex == (4, 0) and all(type(c) is F for c in cone.apex)
    assert cone.generators == ((-2, 1), (-1, 0))
    eps = F(1, 6 * 10 ** 6)
    for w in [(F(1, 2) - eps, F(1, 3), F(1, 6) + eps),  # x below 1/2
              (F(1, 2), F(1, 3), F(1, 6) + eps)]:       # off the plane
        with pytest.raises(ValueError, match="not a point"):
            tangent_cone(p, w)


def check_against_oracles(p):
    """All five double-description answers on p against the subset
    enumerations.  Feasibility, implicit equalities and interior are read
    off the vertices and recession rays of p, or of p cut down to a box
    that meets its relative interior when p has no vertex."""
    d = p.dim
    eq_normals = [a for a, _ in p.eqs]
    try:
        points = vertices_oracle(p)
    except ValueError as e:  # NonPointedError is a ValueError too
        with pytest.raises(type(e)):
            vertices(p)
        kind = "non-pointed" if isinstance(e, NonPointedError) else "empty"
        try:
            points = vertices_oracle(p.intersect(box(d, 10 ** 4)))
        except ValueError:
            points = []
        directions = []
    else:
        kind = "pointed"
        assert vertices(p) == points, p
        for v in points:
            tight = [a for a, b in p.ineqs if vdot(a, v) == b]
            assert tangent_cone(p, v).generators == \
                tuple(rays_oracle(tight, eq_normals, d)), (p, v)
        directions = rays_oracle([a for a, _ in p.ineqs], eq_normals, d)
    if not points:
        kind = "empty"
    assert is_feasible(p) == bool(points), p
    implicit = [(a, b) for a, b in p.ineqs
                if all(vdot(a, v) == b for v in points)
                and all(vdot(a, y) == 0 for y in directions)]
    assert implicit_equalities(p) == implicit, p
    spread = [vsub(v, points[0]) for v in points] + directions
    full = bool(points) and not p.eqs and rat_rank(spread) == d
    assert has_interior(p) == full, p
    return kind


def test_implicit_equalities_of_a_handed_over_description():
    """With the double description to_dnf hands over for each cell, and
    with one of a hand-built polyhedron's homogenized rows cut in shuffled
    order, the mask test gives the rows each row-by-ray dot product gives,
    and those of the polyhedron's own description."""
    rng = random.Random(5151)
    tally = dict.fromkeys(["explicit", "implicit", "none", "empty"], 0)
    for trial in range(160):
        names = ("x", "y", "z")[:1 + trial % 3]
        parts = [cmp_ge(LinearTerm.of({n: -1}, rng.randint(1, 4)))
                 for n in names]
        term = LinearTerm.of({n: rng.randint(-2, 2) for n in names},
                             rng.randint(-3, 3))
        kind = trial // 3 % 4
        if kind == 0:
            parts.append(cmp_eq(term))
        elif kind == 1:  # two inequalities that pin term, implicitly
            parts.append(conj([cmp_ge(term), cmp_ge(-term)]))
        elif kind == 2:
            parts.append(disj([cmp_ge(term), cmp_ge(-term)]))
        if trial % 2:
            m = rng.randint(2, 4)
            parts.append(congruence(LinearTerm.of(
                {n: rng.randint(0, 3) for n in names}), m,
                rng.sample(range(m), rng.randint(1, m - 1))))
        _, cells, cones = _dnf_cells(conj(parts), names)
        for cell, cone in zip(cells, cones):
            p, dd = cell.polyhedron, reduce(dd_cut, *cone)
            got = implicit_equalities(p, dd)
            assert got == implicit_by_dot_products(p, dd), (parts, p)
            assert got == implicit_equalities(p), (parts, p)
            tally["explicit"] += bool(p.eqs)
            tally["implicit"] += bool(got)
            tally["none"] += not got
    for _ in range(160):
        d = rng.randint(1, 3)
        rows = [(tuple(rng.randint(-2, 2) for _ in range(d)),
                 rng.randint(-3, 3)) for _ in range(rng.randint(1, 4))]
        if rng.random() < 0.4:  # a pinned row, or one cut off: empty
            a, b = rows[0]
            rows.append((vneg(a), -b - rng.choice([0, 1])))
        eqs = rows[-1:] if rng.random() < 0.2 else []
        p = Polyhedron.of(d, rows, eqs)
        hom = [(*a, -b) for a, b in p.ineqs + p.eqs] + [
            (*vneg(a), b) for a, b in p.eqs] + [(0,) * d + (1,)]
        rng.shuffle(hom)
        dd = reduce(dd_cut, hom, dd_space(d + 1))
        got = implicit_equalities(p, dd)
        assert got == implicit_by_dot_products(p, dd), p
        assert got == implicit_equalities(p), p
        tally["empty"] += not is_feasible(p)
    assert min(tally.values()) >= 20, tally


def test_double_description_against_subset_enumeration():
    rng = random.Random(20240518)
    kinds = []
    for _ in range(150):
        d = rng.choice([1, 2, 2, 3, 3, 4])
        rows = [(tuple(rng.randint(-3, 3) for _ in range(d)),
                 rng.randint(-4, 4)) for _ in range(rng.randint(1, d + 1))]
        # a redundant row: a relaxed sum of two rows
        (a1, b1), (a2, b2) = rng.choice(rows), rng.choice(rows)
        rows.append((vadd(a1, a2), b1 + b2 - rng.randint(0, 2)))
        eqs = [(tuple(rng.randint(-2, 2) for _ in range(d)),
                rng.randint(-3, 3)) for _ in range(rng.choice([0, 0, 1, 2]))]
        kinds.append(check_against_oracles(Polyhedron.of(d, rows, eqs)))
    assert {"empty", "pointed", "non-pointed"} <= set(kinds)


def test_degenerate_vertices_against_subset_enumeration():
    # apex (1, 1, 1) of a square pyramid over [0, 2]^2 and a vertex of the
    # octahedron |x| + |y| + |z| <= 1: four facets meet at each, in 3-d
    pyramid = Polyhedron.of(3, [((0, 0, 1), 0), ((1, 0, -1), 0),
                                ((0, 1, -1), 0), ((-1, 0, -1), -2),
                                ((0, -1, -1), -2)])
    assert tangent_cone(pyramid, (1, 1, 1)).generators == (
        (-1, -1, -1), (-1, 1, -1), (1, -1, -1), (1, 1, -1))
    octahedron = Polyhedron.of(3, [((s, t, u), -1) for s in (-1, 1)
                                   for t in (-1, 1) for u in (-1, 1)])
    assert tangent_cone(octahedron, (1, 0, 0)).generators == (
        (-1, -1, 0), (-1, 0, -1), (-1, 0, 1), (-1, 1, 0))
    assert len(vertices(octahedron)) == 6
    for p in (pyramid, octahedron, box(3, 1)):
        assert check_against_oracles(p) == "pointed"
    # the pyramid's cone at its apex, a wedge with a line, an empty slab
    apex_cone = Polyhedron.of(3, [(a, 0) for a, b in pyramid.ineqs
                                  if vdot(a, (1, 1, 1)) == b])
    assert check_against_oracles(apex_cone) == "pointed"
    wedge = Polyhedron.of(3, [((1, 0, 0), 0), ((-1, 1, 0), 0)])
    assert check_against_oracles(wedge) == "non-pointed"
    slab = Polyhedron.of(2, [((1, 1), 3), ((-1, -1), -2)])
    assert check_against_oracles(slab) == "empty"


def test_cone_cut_row_by_row_against_subset_enumeration():
    """Every prefix of a random row sequence, equality pairs included, cut
    into all of Q^n one row at a time: the lines span the kernel of the
    prefix, the rays are the oracle's, each mask holds exactly the rows
    its ray is tight on, and the cut leaves its input intact."""
    rng = random.Random(1953)
    pointed = 0
    for _ in range(120):
        n = rng.randint(2, 4)
        rows = []
        for _ in range(rng.randint(1, n + 3)):
            a = tuple(rng.randint(-2, 2) for _ in range(n))
            rows.append(a)
            if rng.random() < 0.25:
                rows.append(vneg(a))
        dd = dd_space(n)
        for k, a in enumerate(rows):
            parent = (list(dd[0]), list(dd[1]), dd[2])
            cut = dd_cut(dd, a)
            assert (list(dd[0]), list(dd[1]), dd[2]) == parent
            dd = cut
            lines, rays, count = dd
            prefix = rows[:k + 1]
            assert count == k + 1
            assert len(lines) == n - rat_rank(prefix), prefix
            assert all(vdot(b, y) == 0 for b in prefix for y in lines)
            for y, mask in rays:
                assert mask == sum(1 << i for i, b in enumerate(prefix)
                                   if vdot(b, y) == 0), (prefix, y)
            if lines:
                with pytest.raises(NonPointedError):
                    rays_oracle(prefix, [], n)
            else:
                pointed += 1
                assert sorted(y for y, _ in rays) == \
                    rays_oracle(prefix, [], n), prefix
    assert pointed > 100


def homogenized_dd(p):
    """The double description of the homogenized cone of p, cut row by row
    in the order _homogenized uses."""
    rows = []
    for a, b in p.eqs:
        rows += [(*a, -b), (*vneg(a), b)]
    rows += [(*a, -b) for a, b in p.ineqs]
    return reduce(dd_cut, rows + [(0,) * p.dim + (1,)], dd_space(p.dim + 1))


def test_branch_test_against_is_feasible():
    """Cutting a nonempty polyhedron by one more inequality or equality
    row, tested against its parent's lines and rays, gives is_feasible of
    the polyhedron with that row added: on empty branches, on branches
    that keep only a face (row tight at a vertex), and on parents with
    equalities or no vertex."""
    rng = random.Random(1996)
    kinds = set()
    for _ in range(200):
        d = rng.randint(1, 3)
        rows = [(tuple(rng.randint(-3, 3) for _ in range(d)),
                 rng.randint(-4, 4)) for _ in range(rng.randint(0, 4))]
        eqs = [(tuple(rng.randint(-2, 2) for _ in range(d)),
                rng.randint(-2, 2)) for _ in range(rng.choice([0, 0, 1]))]
        p = Polyhedron.of(d, rows, eqs)
        if rng.random() < 0.6:
            p = p.intersect(box(d, 4))
        if not is_feasible(p):
            continue
        dd = homogenized_dd(p)
        for _ in range(6):
            a = tuple(rng.randint(-3, 3) for _ in range(d))
            if rng.random() < 0.5 and not dd[0]:
                # a row tight at a vertex: the branch keeps a face of p,
                # and one unit further it is empty
                b = max(vdot(a, v) for v in vertices(p))
                b = b.numerator // b.denominator + rng.randint(0, 1)
            else:
                b = rng.randint(-6, 6)
            ge = Polyhedron.of(d, p.ineqs + ((a, b),), p.eqs)
            eq = Polyhedron.of(d, p.ineqs, p.eqs + ((a, b),))
            assert dd_feasible(dd, (*a, -b)) == is_feasible(ge), (p, a, b)
            assert (dd_feasible(dd, (*a, -b))
                    and dd_feasible(dd, (*vneg(a), b))) == \
                is_feasible(eq), (p, a, b)
            for q in (ge, eq):
                kinds.add("empty" if not is_feasible(q) else
                          "full" if has_interior(q) else "lower")
        kinds.add("parent " + ("with line" if dd[0] else "pointed"))
    assert kinds == {"empty", "full", "lower", "parent with line",
                     "parent pointed"}


def test_vertex_cones_against_tangent_cones():
    """vertex_cones reads every tangent cone off one double description:
    each vertex comes as a primitive ray (x, t) with t > 0, and its edges
    equal the generators of tangent_cone at x / t on seeded random pointed
    polyhedra in d = 1..4, bounded or not, with redundant rows and
    explicit equalities, and at the non-simple apexes of the square
    pyramid, the octahedron and the chain cone with its orthant rows.  A
    line raises NonPointedError and an empty polyhedron ValueError, as
    in vertices."""
    pyramid = Polyhedron.of(3, [((0, 0, 1), 0), ((1, 0, -1), 0),
                                ((0, 1, -1), 0), ((-1, 0, -1), -2),
                                ((0, -1, -1), -2)])
    octahedron = Polyhedron.of(3, [((s, t, u), -1) for s in (-1, 1)
                                   for t in (-1, 1) for u in (-1, 1)])
    # 0 <= x0 <= x1 <= x2, x0 + x1 + x2 <= p, with x1, x2 >= 0 redundant
    chain = Polyhedron.of(4, [((-1, -1, -1, 1), 0), ((-1, 1, 0, 0), 0),
                              ((0, -1, 1, 0), 0), ((1, 0, 0, 0), 0),
                              ((0, 1, 0, 0), 0), ((0, 0, 1, 0), 0)])
    polys = [pyramid, octahedron, chain]
    rng = random.Random(2004)
    for _ in range(300):
        d = rng.randint(1, 4)
        rows = [(tuple(rng.randint(-3, 3) for _ in range(d)),
                 rng.randint(-4, 4)) for _ in range(rng.randint(1, d + 2))]
        # a redundant row: a relaxed sum of two rows
        (a1, b1), (a2, b2) = rng.choice(rows), rng.choice(rows)
        rows.append((vadd(a1, a2), b1 + b2 - rng.randint(0, 2)))
        eqs = [(tuple(rng.randint(-2, 2) for _ in range(d)),
                rng.randint(-3, 3)) for _ in range(rng.choice([0, 0, 0, 1]))]
        p = Polyhedron.of(d, rows, eqs)
        polys.append(p.intersect(box(d, 3)) if rng.random() < 0.5 else p)
    seen = {"pointed": 0, "unbounded": 0, "equalities": 0, "non-simple": 0,
            "line": 0, "empty": 0}
    for p in polys:
        try:
            vs = vertices(p)
        except ValueError as e:  # NonPointedError is a ValueError too
            seen["line" if isinstance(e, NonPointedError) else "empty"] += 1
            with pytest.raises(type(e)):
                vertex_cones(p)
            continue
        cones = vertex_cones(p)
        assert all(V[-1] > 0 and math.gcd(*V) == 1 for V, _ in cones), p
        assert sorted(Cone(tuple(Fraction(c, V[-1]) for c in V[:-1]), gens)
                      for V, gens in cones) == [
            tangent_cone(p, v) for v in vs], p
        seen["pointed"] += 1
        seen["unbounded"] += bool(recession(p))
        seen["equalities"] += bool(p.eqs)
        seen["non-simple"] += sum(len(gens) > rat_rank(gens)
                                  for _, gens in cones)
    assert seen["pointed"] >= 150 and seen["non-simple"] >= 15, seen
    assert min(seen.values()) >= 10, seen
