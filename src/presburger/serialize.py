"""JSON forms for the symbolic objects.

Rationals travel as exact "num/den" strings, vectors as integer arrays.
Documents are compact canonical JSON, json.dumps(obj, sort_keys=True,
separators=(",", ":")) with sorted monomials, so round trips are bit-exact
and repeated runs byte-identical.  Plain values go whole through json's C
encoder.  GF, cell, pqp and step documents are written from one-line
per-item templates, each distinct denominator, polyhedron, lattice basis,
exponent vector and shared Fraction once per document, and are tested
against the reference forms gf_to_obj, semilinear_to_obj, pqp_to_obj and
step_to_obj.  The readers take JSON integers only where integers belong,
"num/den" strings with a nonzero denominator where rationals belong and
distinct formula NAMEs but E and A as names (a pqp without names gets p
or p1, ..., pn); anything else raises KeyError, TypeError or ValueError.
"""

import json
from fractions import Fraction

from .formulas import is_name
from .genfun import RationalGF, make_term, rgf
from .lattices import Lattice
from .polyhedra import Polyhedron
from .quasipoly import PiecewiseQuasiPolynomial, QuasiPolynomial
from .quasipoly import StepPolynomial, default_names
from .semilinear import SemilinearSet

_encode = json.JSONEncoder(sort_keys=True, separators=(",", ":")).encode


def frac_str(c):
    return str(c if isinstance(c, Fraction) else Fraction(c))


def parse_frac(s):
    if type(s) is not str:
        raise ValueError(f"{s!r} is not a rational string")
    try:
        return Fraction(s)
    except ZeroDivisionError:
        raise ValueError(f"zero denominator in {s!r}") from None


def dumps(obj):
    """json.dumps(obj, sort_keys=True, separators=(",", ":")).

    A RationalGF, SemilinearSet, PiecewiseQuasiPolynomial or
    StepPolynomial, also as a value of a dict obj, is written as dumps
    would write its object form.
    """
    if type(obj) in _WRITERS:
        return _WRITERS[type(obj)](obj)
    if isinstance(obj, dict) and any(type(v) in _WRITERS
                                     for v in obj.values()):
        return "{%s}" % ",".join(_encode(k) + ":" + dumps(v)
                                 for k, v in sorted(obj.items()))
    return _encode(obj)


def _once(cache, obj, write=_encode, key=None):
    """write(obj), once per document in cache under key, else obj; id(obj)
    hashes faster than a Fraction and names obj while the document holds it."""
    key = obj if key is None else key
    text = cache.get(key)
    if text is None:
        text = cache[key] = write(obj)
    return text


def _int(c):
    """A JSON integer: true, 2.9 and "3" are not one."""
    if type(c) is not int:
        raise ValueError(f"{c!r} is not an integer")
    return c


def _vec(obj, n):
    """Integer vector that must have exactly n entries."""
    v = tuple(map(_int, obj))
    if len(v) != n:
        raise ValueError(f"vector {list(v)} does not have {n} entries")
    return v


def _names(obj):
    if (type(obj) is not list or not all(map(is_name, obj))
            or len(set(obj)) != len(obj)):
        raise ValueError(f"names {obj!r} are not distinct variable names")
    return tuple(obj)


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


def _gf_text(g):
    """dumps(gf_to_obj(g)): the terms of one simplicial cone share their
    denominator; numerators, the hot loop, are joined in place."""
    denoms = {}
    terms = ",".join('{"coef":"%s","denom":%s,"numer_exp":[%s]}'
                     % (frac_str(t.coef), _once(denoms, t.denom),
                        ",".join(map(str, t.numer)))
                     for t in g.terms)
    return '{"names":%s,"terms":[%s]}' % (_encode(g.names), terms)


def gf_from_obj(obj):
    names = _names(obj["names"])
    d = len(names)
    terms = [make_term(parse_frac(t["coef"]), _vec(t["numer_exp"], d),
                       tuple(_vec(b, d) for b in t["denom"]))
             for t in obj["terms"]]
    return rgf(names, terms)


# ---------------------------------------------------------------------------
# polyhedra and semilinear sets


def polyhedron_to_obj(p):
    return {"dim": p.dim, "ineqs": [[list(a), b] for a, b in p.ineqs],
            "eqs": [[list(a), b] for a, b in p.eqs]}


def polyhedron_from_obj(obj):
    dim = _int(obj["dim"])
    ineqs, eqs = ([(_vec(a, dim), _int(b)) for a, b in obj[key]]
                  for key in ("ineqs", "eqs"))
    return Polyhedron.of(dim, ineqs, eqs)


def semilinear_to_obj(s):
    return {
        "names": list(s.names),
        "cells": [{
            "polyhedron": polyhedron_to_obj(c.polyhedron),
            "lattice": [list(b) for b in c.coset.lattice.basis],
            "rep": list(c.coset.rep),
        } for c in s.cells],
    }


def _cells_text(s):
    """dumps(semilinear_to_obj(s)); cells often share their polyhedron."""
    polys, lattices = {}, {}
    cells = ",".join('{"lattice":%s,"polyhedron":%s,"rep":[%s]}'
                     % (_once(lattices, c.coset.lattice.basis),
                        _once(polys, c.polyhedron, dumps),
                        ",".join(map(str, c.coset.rep)))
                     for c in s.cells)
    return '{"cells":[%s],"names":%s}' % (cells, _encode(s.names))


# ---------------------------------------------------------------------------
# quasi-polynomials


def _poly_to_obj(poly):
    return [{"exps": list(e), "coef": frac_str(c)}
            for e, c in sorted(poly.items())]


def _rep_key(rep):
    return ",".join(map(str, rep))


def pqp_to_obj(g):
    return {
        "n": g.n,
        "names": list(g.names),
        "pieces": [{
            "polyhedron": polyhedron_to_obj(cell),
            "lattice": [list(b) for b in q.lattice.basis],
            "constituents": {_rep_key(rep): _poly_to_obj(poly)
                             for rep, poly in q.constituents.items()},
        } for cell, q in g.pieces],
    }


def _pqp_text(g):
    """dumps(pqp_to_obj(g)); constituent keys sort as strings."""
    polys, lattices, exps, coefs = {}, {}, {}, {}
    pieces = []
    for cell, q in g.pieces:
        cons = ",".join('"%s":[%s]' % (key, ",".join(
            '{"coef":"%s","exps":%s}' % (_once(coefs, c, frac_str, id(c)),
                                         _once(exps, e))
            for e, c in sorted(poly.items())))
            for key, poly in sorted((_rep_key(rep), poly)
                                    for rep, poly in q.constituents.items()))
        pieces.append('{"constituents":{%s},"lattice":%s,"polyhedron":%s}'
                      % (cons, _once(lattices, q.lattice.basis),
                         _once(polys, cell, dumps)))
    return '{"n":%d,"names":%s,"pieces":[%s]}' % (g.n, _encode(g.names),
                                                   ",".join(pieces))


def pqp_from_obj(obj):
    n = _int(obj["n"])
    names = _names(obj["names"]) if "names" in obj else default_names("p", n)
    if len(names) != n:
        raise ValueError(f"names {list(names)} are not {n} names")
    pieces = []
    for pc in obj["pieces"]:
        cell = polyhedron_from_obj(pc["polyhedron"])
        if cell.dim != n:
            raise ValueError(f"polyhedron of dimension {cell.dim}, not {n}")
        lat = Lattice(n, tuple(_vec(b, n) for b in pc["lattice"]))
        constituents = {}
        for key, poly in pc["constituents"].items():
            rep = lat.reduce(_vec([int(c) for c in key.split(",")]
                                  if key else (), n))
            if rep in constituents:
                raise ValueError(f"two constituents for the coset of {key}")
            constituents[rep] = {_vec(m["exps"], n): parse_frac(m["coef"])
                                 for m in poly}
        if len(constituents) != lat.index():
            raise ValueError("need one constituent per lattice coset")
        pieces.append((cell, QuasiPolynomial(n, lat, constituents)))
    return PiecewiseQuasiPolynomial(names, tuple(pieces))


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


def _step_text(s):
    """dumps(step_to_obj(s)), each shared coefficient and factor once."""
    coefs, factors = {}, {}

    def factor(f):
        return '{"coeffs":[%s],"const":"%s"}' % (",".join(
            '"%s"' % frac_str(a) for a in f[0]), frac_str(f[1]))
    terms = ",".join('{"coef":"%s","factors":[%s]}' % (
        _once(coefs, c, frac_str, id(c)),
        ",".join(_once(factors, f, factor, id(f)) for f in fs))
        for c, fs in s.terms)
    return '{"n":%d,"terms":[%s]}' % (s.n, terms)


_WRITERS = {RationalGF: _gf_text, SemilinearSet: _cells_text,
            PiecewiseQuasiPolynomial: _pqp_text, StepPolynomial: _step_text,
            Polyhedron: lambda p: _encode(polyhedron_to_obj(p))}
