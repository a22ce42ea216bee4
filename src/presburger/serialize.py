"""JSON forms for the symbolic objects.

Rationals travel as exact "num/den" strings, vectors as integer arrays.
Serialization is canonical (sorted keys, sorted monomials), so
serialize/deserialize round trips are bit-exact and repeated runs are
byte-identical.

dumps writes what json.dumps(obj, indent=2, sort_keys=True) writes.  A
RationalGF, the largest document, goes to dumps as it is: each term is
filled into one fixed template, and each distinct denominator and
coefficient is rendered once, so a GF is written without building its
object form.  gf_to_obj is that object form, the reference the writer's
bytes are tested against.
"""

import json
from fractions import Fraction
from json.encoder import encode_basestring_ascii

from .genfun import RationalGF, make_term, rgf
from .lattices import Lattice
from .polyhedra import Polyhedron
from .quasipoly import PiecewiseQuasiPolynomial, QuasiPolynomial


def frac_str(c):
    return str(c if isinstance(c, Fraction) else Fraction(c))


def parse_frac(s):
    return Fraction(s)


def dumps(obj):
    """json.dumps(obj, indent=2, sort_keys=True) without json's slow path.

    A RationalGF is written as dumps(gf_to_obj(obj)) would write it, term
    by term (see _gf_text).
    """
    if isinstance(obj, RationalGF):
        return _gf_text(obj)
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


# One term of gf_to_obj's document as dumps writes it: keys sorted, the
# term at depth 2 of the document and its vectors' entries at depth 4.
_TERM = '{\n      "coef": %s,\n      "denom": %s,\n      "numer_exp": %s\n    }'


def _gf_text(g):
    """dumps(gf_to_obj(g)) from one template per term.  Each distinct
    coefficient and denominator is rendered once: the terms of one
    simplicial cone share their denominator."""
    coefs, denoms = {}, {}
    terms = []
    for t in g.terms:
        coef = coefs.get(t.coef)
        if coef is None:
            coef = coefs[t.coef] = encode_basestring_ascii(frac_str(t.coef))
        denom = denoms.get(t.denom)
        if denom is None:
            denom = denoms[t.denom] = _dump([list(b) for b in t.denom],
                                            "\n      ")
        numer = ("[\n        " + ",\n        ".join(map(str, t.numer))
                 + "\n      ]") if t.numer else "[]"
        terms.append(_TERM % (coef, denom, numer))
    body = "[\n    " + ",\n    ".join(terms) + "\n  ]" if terms else "[]"
    return ('{\n  "names": %s,\n  "terms": %s\n}'
            % (_dump(list(g.names), "\n  "), body))


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

