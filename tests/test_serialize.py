import json
import random
from fractions import Fraction

from oracles import semilinear_from_obj, step_from_obj
from presburger.formulas import parse
from presburger.genfun import make_term, rgf
from presburger.lattices import Lattice, LatticeCoset
from presburger.polyhedra import Polyhedron
from presburger.quasipoly import (
    PiecewiseQuasiPolynomial,
    QuasiPolynomial,
    StepPolynomial,
    default_names,
    eventual_pqp,
    qp_to_step,
    vpf_pqp,
)
from presburger.semilinear import SemilinearCell, SemilinearSet, to_dnf
from presburger.serialize import (
    dumps,
    gf_from_obj,
    gf_to_obj,
    pqp_from_obj,
    pqp_to_obj,
    semilinear_to_obj,
    step_to_obj,
)

F = Fraction


def canonical(obj):
    """The compact canonical JSON that dumps writes."""
    return json.dumps(obj, sort_keys=True, separators=(",", ":"))


def test_gf_round_trip_bit_exact():
    g = rgf(("x", "y"), [
        make_term(F(3, 2), (1, 0), ((1, 0), (1, 2))),
        make_term(-2, (0, 3), ((0, 1),)),
        make_term(1, (0, 0), ()),
    ])
    obj = gf_to_obj(g)
    assert gf_from_obj(obj) == g
    # serialized text is deterministic and valid json
    s = dumps(obj)
    assert s == dumps(gf_to_obj(gf_from_obj(json.loads(s))))


def test_gf_obj_shape():
    g = rgf(("x",), [make_term(F(1, 2), (3,), ((2,),))])
    obj = gf_to_obj(g)
    assert obj == {"names": ["x"],
                   "terms": [{"coef": "1/2", "numer_exp": [3],
                              "denom": [[2]]}]}


def random_gf(rng):
    names = tuple(random_text(rng) or "x" for _ in range(rng.randrange(4)))
    d = len(names)
    denoms = [tuple(tuple(rng.randint(-3, 3) or 1 for _ in range(d))
                    for _ in range(rng.randrange(3 if d else 1)))
              for _ in range(3)]
    coefs = [F(rng.randint(-9, 9), rng.randint(1, 4)) for _ in range(3)]
    return rgf(names, [make_term(rng.choice(coefs),
                                 [rng.randint(-5, 5) for _ in range(d)],
                                 rng.choice(denoms))
                       for _ in range(rng.randrange(8))])


def test_gf_dumps_matches_the_object_form():
    """dumps writes a GF term by term; the bytes are those of its object
    form.  Covers no terms, no names, empty denominators, Fraction
    coefficients and negative numerator exponents."""
    rng = random.Random(2718)
    gfs = [random_gf(rng) for _ in range(300)]
    gfs.append(rgf((), [make_term(F(-3, 2), (), ())]))
    gfs.append(rgf(("x", "y"), []))
    assert any(t.denom == () for g in gfs for t in g.terms)
    assert any(min(t.numer, default=0) < 0 for g in gfs for t in g.terms)
    for g in gfs:
        want = canonical(gf_to_obj(g))
        assert dumps(g) == want, g


def random_lattice(rng, d, top=4):
    while True:
        gens = [[rng.randint(-top, top) for _ in range(d)]
                for _ in range(d + rng.randrange(2))]
        try:
            return Lattice.from_generators(d, gens)
        except ValueError:  # not full rank
            pass


def random_polyhedron(rng, d):
    def rows(k):
        return [([rng.randint(-9, 9) for _ in range(d)], rng.randint(-20, 20))
                for _ in range(rng.randrange(k))]
    return Polyhedron.of(d, rows(4), rows(2))


def random_cells(rng):
    d = rng.randrange(4)
    names = tuple(random_text(rng) or "x" for _ in range(d))
    polys = [random_polyhedron(rng, d) for _ in range(2)]
    cells = [SemilinearCell(rng.choice(polys), LatticeCoset(
        random_lattice(rng, d), [rng.randint(-9, 9) for _ in range(d)]))
             for _ in range(rng.randrange(5))]
    return SemilinearSet(names, tuple(cells))


def test_cells_dumps_matches_the_object_form():
    """dumps writes a cell set cell by cell; the bytes are those of its
    object form.  Covers dimension 0 to 3, no cells, empty eqs and ineqs
    and cells that share a polyhedron."""
    rng = random.Random(1414)
    sets = [random_cells(rng) for _ in range(300)]
    sets.append(SemilinearSet(("x",), ()))
    assert {s.dim for s in sets} == {0, 1, 2, 3}
    assert any(c.polyhedron.eqs == () for s in sets for c in s.cells)
    assert any(c.polyhedron.ineqs == () for s in sets for c in s.cells)
    assert any(len({c.polyhedron for c in s.cells}) < len(s.cells)
               for s in sets)
    for s in sets:
        want = canonical(semilinear_to_obj(s))
        assert dumps(s) == want, s


def random_pqp(rng):
    n = rng.randint(1, 3)
    exps = [tuple(rng.randrange(3) for _ in range(n)) for _ in range(4)]
    pieces = []
    for _ in range(rng.randrange(4)):
        lat = random_lattice(rng, n, top=5 if n == 1 else 3)
        constituents = {rep: {e: F(rng.randint(-9, 9), rng.randint(1, 4))
                              for e in rng.sample(exps, rng.randrange(4))}
                        for rep in lat.coset_representatives()}
        pieces.append((random_polyhedron(rng, n),
                       QuasiPolynomial(n, lat, constituents)))
    return PiecewiseQuasiPolynomial(default_names("p", n), tuple(pieces))


def test_pqp_dumps_matches_the_object_form():
    """dumps writes a pqp piece by piece and monomial by monomial, with
    default and arbitrary names.  Covers 1 to 3 parameters, empty constituents,
    Fraction coefficients and more than 10 cosets, whose keys ("10",
    "2", "-1,3") sort as strings."""
    rng = random.Random(1732)
    pqps = [random_pqp(rng) for _ in range(200)]
    pqps.append(vpf_pqp([(1, 0), (0, 1), (1, 1), (1, 2)]))
    pqps.append(PiecewiseQuasiPolynomial(("p1", "p2"), ()))
    qs = [q for g in pqps for _cell, q in g.pieces]
    assert {g.n for g in pqps} == {1, 2, 3}
    assert any(q.lattice.index() > 10 for q in qs)
    assert any(not poly for q in qs for poly in q.constituents.values())
    assert any(F(c).denominator > 1 for q in qs
               for poly in q.constituents.values() for c in poly.values())
    for g in pqps:
        names = tuple(random_text(rng) for _ in range(g.n))
        for h in (g, g._replace(names=names)):
            assert dumps(h) == canonical(pqp_to_obj(h)), h


def test_step_dumps_matches_the_object_form():
    """dumps writes a step polynomial term by term, also as a value inside
    a document, as the count --as step document holds it."""
    rng = random.Random(1618)
    steps = [StepPolynomial(1, ())]
    for _ in range(100):
        n = rng.randrange(3)
        steps.append(StepPolynomial(n, tuple(
            (F(rng.randint(-9, 9), rng.randint(1, 6)), tuple(
                (tuple(F(rng.randint(-5, 5), rng.randint(1, 4))
                       for _ in range(n)), F(rng.randint(-5, 5), 3))
                for _ in range(rng.randrange(3))))
            for _ in range(rng.randrange(4)))))
    q = QuasiPolynomial(1, Lattice(1, ((3,),)), {
        (0,): {(2,): F(1, 3)}, (1,): {}, (2,): {(0,): F(-2)}})
    steps.append(qp_to_step(q))
    for s in steps:
        want = step_to_obj(s)
        assert dumps(s) == canonical(want), s
        doc = {"initial": ["1"], "names": ["p"], "step": s}
        assert dumps(doc) == canonical(dict(doc, step=want)), s


def test_semilinear_round_trip():
    s = to_dnf(parse("x + 2*y >= 3 & x % 3 = 1 | y = 4"), ("x", "y"))
    obj = semilinear_to_obj(s)
    s2 = semilinear_from_obj(obj)
    assert s2 == s
    assert dumps(semilinear_to_obj(s2)) == dumps(obj)


def test_pqp_round_trip():
    g = vpf_pqp([(1,), (2,), (2,)])
    obj = pqp_to_obj(g)
    assert obj["names"] == ["p"]
    g2 = pqp_from_obj(obj)
    assert g2 == g
    # with exceptional point pieces
    q = QuasiPolynomial(1, Lattice(1, ((2,),)),
                        {(0,): {(1,): F(1, 2)}, (1,): {(0,): F(3)}})
    g3 = eventual_pqp(("q",), [7, 0, 4], q)
    assert pqp_from_obj(pqp_to_obj(g3)) == g3


def test_pqp_round_trip_2d():
    g = vpf_pqp([(1, 0), (0, 1), (1, 1)])
    g2 = pqp_from_obj(pqp_to_obj(g))
    assert g2 == g
    for a in range(6):
        for b in range(6):
            assert g2.eval((a, b)) == min(a, b) + 1


def test_step_round_trip():
    q = QuasiPolynomial(1, Lattice(1, ((3,),)), {
        (0,): {(2,): F(1, 3)}, (1,): {}, (2,): {(0,): F(-2)}})
    s = qp_to_step(q)
    s2 = step_from_obj(step_to_obj(s))
    assert s2 == s
    assert dumps(step_to_obj(s2)) == dumps(step_to_obj(s))


def random_text(rng):
    return "".join(rng.choice('ab"\\/\n\t\x01\x7fé☃\U0001f600 ')
                   for _ in range(rng.randrange(6)))


def random_document(rng, depth=0):
    kind = rng.randrange(9 if depth < 4 else 5)
    if kind == 0:
        return rng.randint(-10 ** 20, 10 ** 20)
    if kind == 1:
        return random_text(rng)
    if kind == 2:
        return rng.choice([True, False, None])
    if kind == 3:
        return []
    if kind == 4:
        return {}
    if kind in (5, 6):
        return [rng.randint(-9, 9) for _ in range(rng.randrange(1, 5))]
    if kind == 7:
        return [random_document(rng, depth + 1)
                for _ in range(rng.randrange(1, 5))]
    return {random_text(rng): random_document(rng, depth + 1)
            for _ in range(rng.randrange(5))}


def test_dumps_matches_the_json_module():
    rng = random.Random(31337)
    docs = [random_document(rng) for _ in range(300)]
    docs.append({"b": [[1, 2], [], [[3]], [{"x": None}]], "a": {"": True},
                 "\u2603": [False, "\"q\""], "e": [{}, []], "n": (1, 2)})
    docs.append({10: "ten", 9: [True]})
    for doc in docs:
        assert dumps(doc) == canonical(doc), doc
