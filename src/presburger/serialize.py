"""JSON forms for the symbolic objects.

Rationals travel as exact "num/den" strings, vectors as integer arrays.
Serialization is canonical (sorted keys, sorted monomials), so
serialize/deserialize round trips are bit-exact and repeated runs are
byte-identical.

dumps writes what json.dumps(obj, indent=2, sort_keys=True) writes.  GF,
cell, pqp and step documents go to dumps as the objects themselves and
are written from per-item templates (a term, a cell, a piece, a monomial,
a step term); each distinct denominator, polyhedron and lattice basis is
rendered once per document.  gf_to_obj, semilinear_to_obj, pqp_to_obj and
step_to_obj are the reference object forms the writers are tested against.
"""

import json
from fractions import Fraction
from json.encoder import encode_basestring_ascii

from .genfun import RationalGF, make_term, rgf
from .lattices import Lattice
from .polyhedra import Polyhedron
from .quasipoly import PiecewiseQuasiPolynomial, QuasiPolynomial, StepPolynomial
from .semilinear import SemilinearSet


def frac_str(c):
    return str(c if isinstance(c, Fraction) else Fraction(c))


def parse_frac(s):
    return Fraction(s)


def dumps(obj, names=None):
    """json.dumps(obj, indent=2, sort_keys=True) without json's slow path.

    A RationalGF, SemilinearSet, PiecewiseQuasiPolynomial (with names, as
    in pqp_to_obj) or StepPolynomial, also inside obj, is written as
    dumps would write its object form.
    """
    if names is not None:
        return _pqp_text(obj, "\n", names)
    return _dump(obj, "\n")


def _dump(obj, nl):
    """obj written at indent nl: its items on lines that start nl + "  "."""
    if type(obj) is str:
        return encode_basestring_ascii(obj)
    if type(obj) is int:
        return str(obj)
    if type(obj) in _WRITERS:
        return _WRITERS[type(obj)](obj, nl)
    inner = nl + "  "
    if isinstance(obj, (list, tuple)):
        return (_ints(obj, nl) if all(type(x) is int for x in obj)
                else _join([_dump(x, inner) for x in obj], nl))
    if isinstance(obj, dict):
        return _join([_dump(k if type(k) is str else json.dumps(k), nl)
                      + ": " + _dump(v, inner)
                      for k, v in sorted(obj.items())], nl, "{}")
    return json.dumps(obj)  # bool, None, float


loads = json.loads


# The writers' helpers; like _dump, each writes its value at indent nl.
def _join(items, nl, brackets="[]"):
    """An array (or object) of items already written at indent nl + "  "."""
    if not items:
        return brackets
    inner = nl + "  "
    return brackets[0] + inner + ("," + inner).join(items) + nl + brackets[1]


def _ints(v, nl):
    return _join(list(map(str, v)), nl)


def _frac(c):
    return '"' + frac_str(c) + '"'


def _template(keys, nl):
    """An object with these keys, in sorted order, and a %s per value."""
    return _join(['"%s": %%s' % k for k in keys], nl, "{}")


def _once(cache, key, nl, write=_dump):
    """write(key, nl), rendered once per document through cache."""
    text = cache.get(key)
    if text is None:
        text = cache[key] = write(key, nl)
    return text


def _vec(obj, n):
    """Integer vector that must have exactly n entries."""
    v = tuple(int(c) for c in obj)
    if len(v) != n:
        raise ValueError(f"vector {list(v)} does not have {n} entries")
    return v


# ---------------------------------------------------------------------------
# rational generating functions


def gf_to_obj(g):
    return {
        "names": list(g.names),
        "terms": [{
            "coef": frac_str(t.coef),
            "numer_exp": list(t.numer),
            "denom": [list(b) for b in t.denom],
        } for t in g.terms],
    }


def _gf_text(g, nl):
    """dumps(gf_to_obj(g)): the terms of one simplicial cone share their
    denominator; numerators, the hot loop, are joined in place."""
    i1, i2, i3 = nl + "  ", nl + "    ", nl + "      "
    term = _template(("coef", "denom", "numer_exp"), i2)
    sep, start, end, denoms = "," + i3 + "  ", "[" + i3 + "  ", i3 + "]", {}
    terms = [term % (_frac(t.coef), _once(denoms, t.denom, i3),
                     start + sep.join(map(str, t.numer)) + end
                     if t.numer else "[]")
             for t in g.terms]
    return (_template(("names", "terms"), nl)
            % (_dump(g.names, i1), _join(terms, i1)))


def gf_from_obj(obj):
    names = tuple(obj["names"])
    d = len(names)
    terms = [make_term(parse_frac(t["coef"]), _vec(t["numer_exp"], d),
                       tuple(_vec(b, d) for b in t["denom"]))
             for t in obj["terms"]]
    return rgf(names, terms)


# ---------------------------------------------------------------------------
# polyhedra and semilinear sets


def _rows_to_obj(rows):
    return [[list(a), b] for a, b in rows]


def _rows_from_obj(rows):
    return [(tuple(int(c) for c in a), int(b)) for a, b in rows]


def polyhedron_to_obj(p):
    return {"dim": p.dim, "ineqs": _rows_to_obj(p.ineqs),
            "eqs": _rows_to_obj(p.eqs)}


def polyhedron_from_obj(obj):
    return Polyhedron.of(int(obj["dim"]), _rows_from_obj(obj["ineqs"]),
                         _rows_from_obj(obj["eqs"]))


def semilinear_to_obj(s):
    return {
        "names": list(s.names),
        "cells": [{
            "polyhedron": polyhedron_to_obj(c.polyhedron),
            "lattice": [list(b) for b in c.coset.lattice.basis],
            "rep": list(c.coset.rep),
        } for c in s.cells],
    }


def _cells_text(s, nl):
    """dumps(semilinear_to_obj(s)); cells often share their polyhedron."""
    i1, i2, i3 = nl + "  ", nl + "    ", nl + "      "
    cell = _template(("lattice", "polyhedron", "rep"), i2)
    polys, lattices = {}, {}
    cells = [cell % (_once(lattices, c.coset.lattice.basis, i3),
                     _once(polys, c.polyhedron, i3), _ints(c.coset.rep, i3))
             for c in s.cells]
    return (_template(("cells", "names"), nl)
            % (_join(cells, i1), _dump(s.names, i1)))


# ---------------------------------------------------------------------------
# quasi-polynomials


def _poly_to_obj(poly):
    return [{"exps": list(e), "coef": frac_str(c)}
            for e, c in sorted(poly.items())]


def _poly_from_obj(obj, n):
    return {_vec(m["exps"], n): parse_frac(m["coef"]) for m in obj}


def _rep_key(rep):
    return ",".join(str(int(c)) for c in rep)


def pqp_to_obj(g, names=None):
    obj = {
        "n": g.n,
        "pieces": [{
            "polyhedron": polyhedron_to_obj(cell),
            "lattice": [list(b) for b in q.lattice.basis],
            "constituents": {_rep_key(rep): _poly_to_obj(poly)
                             for rep, poly in q.constituents.items()},
        } for cell, q in g.pieces],
    }
    if names is not None:
        obj["names"] = list(names)
    return obj


def _pqp_text(g, nl, names=None):
    """dumps(pqp_to_obj(g, names)); constituent keys sort as strings."""
    i1, i2, i3, i4, i5, i6 = (nl + "  " * k for k in range(1, 7))
    piece = _template(("constituents", "lattice", "polyhedron"), i2)
    mono = _template(("coef", "exps"), i5)
    polys, lattices, exps = {}, {}, {}
    pieces = []
    for cell, q in g.pieces:
        cons = ['"%s": %s' % (key, _join(
            [mono % (_frac(c), _once(exps, e, i6, _ints))
             for e, c in sorted(poly.items())], i4))
            for key, poly in sorted((_rep_key(rep), poly)
                                    for rep, poly in q.constituents.items())]
        pieces.append(piece % (_join(cons, i3, "{}"),
                               _once(lattices, q.lattice.basis, i3),
                               _once(polys, cell, i3)))
    doc = {"n": str(g.n), "pieces": _join(pieces, i1)}
    if names is not None:
        doc["names"] = _dump(list(names), i1)
    return _join(['"%s": %s' % kv for kv in sorted(doc.items())], nl, "{}")


def pqp_from_obj(obj):
    n = int(obj["n"])
    pieces = []
    for pc in obj["pieces"]:
        cell = polyhedron_from_obj(pc["polyhedron"])
        if cell.dim != n:
            raise ValueError(f"polyhedron of dimension {cell.dim}, not {n}")
        lat = Lattice(n,
                      tuple(tuple(int(x) for x in b) for b in pc["lattice"]))
        constituents = {}
        for key, poly in pc["constituents"].items():
            rep = lat.reduce(_vec(key.split(",") if key else (), n))
            if rep in constituents:
                raise ValueError(f"two constituents for the coset of {key}")
            constituents[rep] = _poly_from_obj(poly, n)
        if len(constituents) != lat.index():
            raise ValueError("need one constituent per lattice coset")
        pieces.append((cell, QuasiPolynomial(n, lat, constituents)))
    return PiecewiseQuasiPolynomial(n, tuple(pieces))


def step_to_obj(s):
    return {
        "n": s.n,
        "terms": [{
            "coef": frac_str(c),
            "factors": [{"coeffs": [frac_str(a) for a in coeffs],
                         "const": frac_str(b)}
                        for coeffs, b in factors],
        } for c, factors in s.terms],
    }


def _step_text(s, nl):
    """dumps(step_to_obj(s))."""
    i1, i2, i3, i4, i5 = (nl + "  " * k for k in range(1, 6))
    term = _template(("coef", "factors"), i2)
    factor = _template(("coeffs", "const"), i4)
    terms = [term % (_frac(c), _join(
        [factor % (_join([_frac(a) for a in coeffs], i5), _frac(b))
         for coeffs, b in factors], i3))
        for c, factors in s.terms]
    return _template(("n", "terms"), nl) % (s.n, _join(terms, i1))


_WRITERS = {RationalGF: _gf_text, SemilinearSet: _cells_text,
            PiecewiseQuasiPolynomial: _pqp_text, StepPolynomial: _step_text,
            Polyhedron: lambda p, nl: _dump(polyhedron_to_obj(p), nl)}
