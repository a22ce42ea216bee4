"""JSON forms for the symbolic objects.

Rationals travel as exact "num/den" strings, vectors as integer arrays.
Serialization is canonical (sorted keys, sorted monomials), so
serialize/deserialize round trips are bit-exact and repeated runs are
byte-identical.
"""

import json
from fractions import Fraction
from json.encoder import encode_basestring_ascii

from .genfun import make_term, rgf
from .lattices import Lattice, LatticeCoset
from .polyhedra import Polyhedron
from .quasipoly import (
    PiecewiseQuasiPolynomial,
    QuasiPolynomial,
    StepPolynomial,
)
from .semilinear import SemilinearCell, SemilinearSet


def frac_str(c):
    return str(Fraction(c))


def parse_frac(s):
    return Fraction(s)


def dumps(obj):
    """json.dumps(obj, indent=2, sort_keys=True) without json's slow path."""
    return _dump(obj, "\n")


def _dump(obj, nl):
    if type(obj) is str:
        return encode_basestring_ascii(obj)
    if type(obj) is int:
        return str(obj)
    inner = nl + "  "
    if isinstance(obj, (list, tuple)) and obj:
        items = (map(str, obj) if all(type(x) is int for x in obj)
                 else [_dump(x, inner) for x in obj])
        return "[" + inner + ("," + inner).join(items) + nl + "]"
    if isinstance(obj, dict) and obj:
        items = [_dump(k if type(k) is str else json.dumps(k), nl) + ": "
                 + _dump(v, inner) for k, v in sorted(obj.items())]
        return "{" + inner + ("," + inner).join(items) + nl + "}"
    return json.dumps(obj)  # empty containers, bool, None, float


loads = json.loads


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


def semilinear_from_obj(obj):
    names = tuple(obj["names"])
    cells = []
    for c in obj["cells"]:
        poly = polyhedron_from_obj(c["polyhedron"])
        lat = Lattice(poly.dim,
                      tuple(tuple(int(x) for x in b) for b in c["lattice"]))
        coset = LatticeCoset(lat, tuple(int(x) for x in c["rep"]))
        cells.append(SemilinearCell(poly, coset))
    return SemilinearSet(names, tuple(cells))


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


def step_from_obj(obj):
    n = int(obj["n"])
    terms = []
    for t in obj["terms"]:
        factors = tuple((tuple(parse_frac(a) for a in f["coeffs"]),
                         parse_frac(f["const"])) for f in t["factors"])
        terms.append((parse_frac(t["coef"]), factors))
    return StepPolynomial(n, tuple(terms))
