"""Command line front end.

Subcommands cover the whole pipeline: decide sentences, eliminate
quantifiers, decompose solution sets into polyhedron/lattice-coset cells,
compute rational generating functions and parametric counting functions,
convert counting functions between representations, synthesize formulas
from counting functions, and run series extraction, Hadamard product and
the zero test on serialized generating functions.

One structured document goes to stdout (text by default, --format json
for machine consumption); diagnostics go to stderr.  Exit codes: 0
success, 2 parse error or unreadable input, 3 semantic error, 4
unsupported feature.
"""

import argparse
import itertools
import json
import sys
from fractions import Fraction

from . import serialize
from .formulas import FormulaSyntaxError, format_formula, free_vars, parse
from .genfun import (
    DivergentSpecialization,
    counting_gf,
    gf_of_formula,
    series_coeffs,
)
from .lattices import congruences_of_coset
from .qelim import decide, qelim
from .quasipoly import eventual_form, qp_to_step, rgf_to_pqp, synth_formula
from .quasipoly import hadamard_univariate, is_zero_univariate, vpf_gf, vpf_pqp
from .semilinear import to_dnf

PARSE, SEMANTIC, UNSUPPORTED = 2, 3, 4


class CliError(Exception):
    def __init__(self, code, message):
        super().__init__(message)
        self.code = code
        self.message = message


# ---------------------------------------------------------------------------
# input helpers


def _read(path):
    if path == "-":
        return sys.stdin.read()
    try:
        with open(path) as fh:
            return fh.read()
    except OSError as e:
        raise CliError(PARSE, f"cannot read {path}: {e}")


def _load_json(path):
    try:
        return json.loads(_read(path))
    except json.JSONDecodeError as e:
        raise CliError(PARSE, f"invalid json in {path}: {e}")


def _load_gf(path):
    try:
        return serialize.gf_from_obj(_load_json(path))
    except (KeyError, TypeError, ValueError):
        raise CliError(PARSE, f"not a generating function: {path}")


def _split_vars(spec):
    names = [n.strip() for n in spec.split(",")] if spec else []
    names = [n for n in names if n]
    if len(set(names)) != len(names):
        raise CliError(SEMANTIC, f"duplicate variable in {spec!r}")
    return names


def _parse_vectors(spec):
    try:
        vecs = [tuple(int(c) for c in part.split(","))
                for part in spec.split(";") if part.strip()]
    except ValueError:
        raise CliError(PARSE, f"cannot parse vectors from {spec!r}")
    if not vecs:
        raise CliError(PARSE, "no vectors given")
    return vecs


def _emit(args, obj):
    if args.format == "json":
        print(serialize.dumps({k: v for k, v in obj.items()
                               if k != "_text"}))
    else:
        print(obj["_text"])


# ---------------------------------------------------------------------------
# text rendering


def _join_signed(parts):
    """parts: (negative, body) pairs -> 'a - b + c' with leading sign."""
    neg0, body0 = parts[0]
    out = ("-" if neg0 else "") + body0
    for negative, body in parts[1:]:
        out += f" - {body}" if negative else f" + {body}"
    return out


def _fmt_poly(poly, names):
    if not poly:
        return "0"
    items = sorted(poly.items(), key=lambda kv: (sum(kv[0]), kv[0]),
                   reverse=True)
    parts = []
    for e, c in items:
        mono = "*".join(n if k == 1 else f"{n}^{k}"
                        for n, k in zip(names, e) if k)
        num, den = abs(c.numerator), c.denominator
        if not mono:
            body = str(Fraction(num, den))
        else:
            body = mono if num == 1 else f"{num}*{mono}"
            if den != 1:
                body += f"/{den}"
        parts.append((c < 0, body))
    return _join_signed(parts)


def _fmt_monomial(names, e):
    parts = [n if k == 1 else f"{n}^{k}" for n, k in zip(names, e) if k]
    return "*".join(parts) if parts else "1"


def _fmt_gf(g):
    if not g.terms:
        return "0"
    parts = []
    for t in g.terms:
        mono = _fmt_monomial(g.names, t.numer)
        dens = []
        for b, grp in itertools.groupby(t.denom):
            k = len(list(grp))
            base = f"(1 - {_fmt_monomial(g.names, b)})"
            dens.append(base if k == 1 else f"{base}^{k}")
        c = abs(t.coef)
        cs = str(c) if c.denominator == 1 else f"({c})"
        num = mono if c == 1 else (cs if mono == "1" else f"{cs}*{mono}")
        if dens:
            den = dens[0] if len(dens) == 1 else f"({''.join(dens)})"
            parts.append((t.coef < 0, f"{num}/{den}"))
        else:
            parts.append((t.coef < 0, num))
    return _join_signed(parts)


def _fmt_row(names, a, b, op):
    parts = [(c < 0, n if abs(c) == 1 else f"{abs(c)}*{n}")
             for n, c in zip(names, a) if c]
    lhs = _join_signed(parts) if parts else "0"
    return f"{lhs} {op} {b}"


def _fmt_eventual(param, initial, q):
    lines = []
    if initial:
        vals = ", ".join(f"{param}={p}: {v}"
                         for p, v in enumerate(initial))
        lines.append(f"initial values [{vals}]")
    m = q.lattice.basis[0][0]
    T = len(initial)
    if q.is_zero():
        lines.append(f"for {param} >= {T}: 0")
    elif m == 1:
        body = _fmt_poly(q.constituents[(0,)], (param,))
        lines.append(f"for {param} >= {T}: {body}")
    else:
        lines.append(f"for {param} >= {T}, period {m}:")
        for (r,), poly in sorted(q.constituents.items()):
            lines.append(f"  {param} = {r} (mod {m}): "
                         + _fmt_poly(poly, (param,)))
    return "\n".join(lines)


def _fmt_pieces(names, g):
    lines = []
    for i, (cell, q) in enumerate(g.pieces):
        lines.append(f"piece {i + 1}:")
        for a, b in cell.eqs:
            lines.append("  " + _fmt_row(names, a, b, "="))
        for a, b in cell.ineqs:
            lines.append("  " + _fmt_row(names, a, b, ">="))
        diag = " ".join("[" + " ".join(str(x) for x in col) + "]"
                        for col in q.lattice.basis)
        lines.append(f"  lattice {diag}")
        for rep in sorted(q.constituents):
            body = _fmt_poly(q.constituents[rep], names)
            lines.append(f"  rep ({', '.join(str(r) for r in rep)}): {body}")
    return "\n".join(lines) if lines else "0"


def _fmt_step(names, s):
    if not s.terms:
        return "0"
    parts = []
    for c, factors in s.terms:
        floors = "*".join(
            "floor(" + _fmt_poly(
                {tuple(1 if j == i else 0 for j in range(s.n)): a
                 for i, a in enumerate(coeffs) if a} | (
                    {(0,) * s.n: const} if const else {}),
                names) + ")"
            for coeffs, const in factors)
        mag = abs(c)
        cs = str(mag) if mag.denominator == 1 else f"({mag})"
        body = floors if mag == 1 and floors else \
            (cs if not floors else f"{cs}*{floors}")
        parts.append((c < 0, body))
    return _join_signed(parts)


# ---------------------------------------------------------------------------
# commands


def cmd_decide(args):
    f = parse(args.formula)
    fv = free_vars(f)
    if fv:
        raise CliError(SEMANTIC,
                       f"formula has free variables: {sorted(fv)}")
    val = decide(f)
    _emit(args, {"result": val, "_text": "true" if val else "false"})
    return 0


def cmd_qelim(args):
    g = qelim(parse(args.formula))
    s = format_formula(g)
    _emit(args, {"formula": s, "_text": s})
    return 0


def cmd_dnf(args):
    s = to_dnf(parse(args.formula))
    lines = []
    for i, cell in enumerate(s.cells):
        lines.append(f"cell {i + 1}:")
        body = []
        for a, b in cell.polyhedron.eqs:
            body.append("  " + _fmt_row(s.names, a, b, "="))
        for a, b in cell.polyhedron.ineqs:
            body.append("  " + _fmt_row(s.names, a, b, ">="))
        for coeffs, r, mod in congruences_of_coset(cell.coset):
            t = _fmt_row(s.names, coeffs, r, f"% {mod} =")
            body.append("  " + t)
        lines.extend(body or ["  true"])
    obj = serialize.semilinear_to_obj(s)
    obj["_text"] = "\n".join(lines) if lines else "empty"
    _emit(args, obj)
    return 0


def cmd_genfun(args):
    f = parse(args.formula)
    names = tuple(sorted(free_vars(f)))
    g = gf_of_formula(f, names)
    obj = serialize.gf_to_obj(g)
    obj["_text"] = _fmt_gf(g)
    _emit(args, obj)
    return 0


def cmd_count(args):
    f = parse(args.formula)
    counted = _split_vars(args.count_vars)
    params = _split_vars(args.param_vars or "")
    if not counted:
        raise CliError(SEMANTIC, "--count-vars must name a variable")
    overlap = set(counted) & set(params)
    if overlap:
        raise CliError(SEMANTIC,
                       f"variables both counted and parameter: "
                       f"{sorted(overlap)}")
    missing = free_vars(f) - set(counted) - set(params)
    if missing:
        raise CliError(SEMANTIC,
                       f"free variables neither counted nor parameter: "
                       f"{sorted(missing)}")
    try:
        g = counting_gf(f, tuple(counted), tuple(params))
    except DivergentSpecialization:
        print("count is infinite for some parameter value",
              file=sys.stderr)
        _emit(args, {"result": "infinite", "_text": "infinite"})
        return SEMANTIC

    if args.as_ == "gf":
        obj = serialize.gf_to_obj(g)
        obj["_text"] = _fmt_gf(g)
        _emit(args, obj)
        return 0

    if args.as_ == "value":
        if not params:
            val = sum((t.coef for t in g.terms), Fraction(0))
        else:
            if args.at is None:
                raise CliError(SEMANTIC, "--as value needs --at")
            at = _parse_vectors(args.at)[0]
            if len(at) != len(params):
                raise CliError(SEMANTIC,
                               f"--at needs {len(params)} coordinates")
            if len(params) == 1:
                val = rgf_to_pqp(g).eval(at)
            else:
                val = series_coeffs(g, max(at)).get(at, Fraction(0))
        _emit(args, {"value": serialize.frac_str(val), "_text": str(val)})
        return 0

    if len(params) != 1:
        raise CliError(UNSUPPORTED,
                       f"--as {args.as_} needs exactly one parameter")
    pqp = rgf_to_pqp(g)
    if args.as_ == "qp":
        obj = serialize.pqp_to_obj(pqp, names=params)
        initial, q = eventual_form(pqp)
        obj["_text"] = _fmt_eventual(params[0], initial, q)
        _emit(args, obj)
        return 0

    # --as step
    initial, q = eventual_form(pqp)
    s = qp_to_step(q)
    obj = {"initial": [serialize.frac_str(v) for v in initial],
           "names": params, "step": serialize.step_to_obj(s)}
    lines = []
    if initial:
        vals = ", ".join(f"{params[0]}={p}: {v}"
                         for p, v in enumerate(initial))
        lines.append(f"initial values [{vals}]")
    lines.append(f"for {params[0]} >= {len(initial)}: "
                 + _fmt_step(tuple(params), s))
    obj["_text"] = "\n".join(lines)
    _emit(args, obj)
    return 0


def cmd_vpf(args):
    vecs = _parse_vectors(args.vectors)
    n = len(vecs[0])
    names = ("x",) if n == 1 else tuple(f"x{i + 1}" for i in range(n))
    pnames = ("p",) if n == 1 else tuple(f"p{i + 1}" for i in range(n))
    if args.as_ == "gf":
        try:
            g = vpf_gf(vecs, names=names)
        except ValueError as e:
            raise CliError(SEMANTIC, str(e))
        obj = serialize.gf_to_obj(g)
        obj["_text"] = _fmt_gf(g)
        _emit(args, obj)
        return 0
    if n > 2:
        raise CliError(UNSUPPORTED,
                       "piecewise form needs parameter dimension <= 2")
    try:
        g = vpf_pqp(vecs)
    except ValueError as e:
        raise CliError(SEMANTIC, str(e))
    obj = serialize.pqp_to_obj(g, names=pnames)
    if n == 1:
        initial, q = eventual_form(g)
        obj["_text"] = _fmt_eventual("p", initial, q)
    else:
        obj["_text"] = _fmt_pieces(pnames, g)
    _emit(args, obj)
    return 0


def cmd_synth(args):
    obj = _load_json(args.pqp)
    try:
        g = serialize.pqp_from_obj(obj)
    except (KeyError, TypeError, ValueError):
        raise CliError(PARSE, f"not a piecewise quasi-polynomial: "
                              f"{args.pqp}")
    if g.n != 1:
        raise CliError(UNSUPPORTED, "synthesis needs one parameter")
    param = (obj.get("names") or ["p"])[0]
    try:
        formula, counted = synth_formula(g, param=param)
    except ValueError as e:
        raise CliError(SEMANTIC, str(e))
    text = format_formula(formula)
    out = {"formula": text, "counted": list(counted), "param": param,
           "_text": f"formula: {text}\ncounted: {','.join(counted)}\n"
                    f"param: {param}"}
    _emit(args, out)
    return 0


def cmd_series(args):
    g = _load_gf(args.gf)
    bound = args.bound
    table = series_coeffs(g, bound)
    if g.dim == 1:
        vals = [table.get((p,), Fraction(0)) for p in range(bound + 1)]
        obj = {"bound": bound,
               "values": [serialize.frac_str(v) for v in vals],
               "_text": " ".join(str(v) for v in vals)}
    else:
        pts = sorted(table)
        obj = {"bound": bound,
               "coeffs": [{"point": list(pt),
                           "value": serialize.frac_str(table[pt])}
                          for pt in pts],
               "_text": "\n".join(
                   f"{' '.join(str(c) for c in pt)}: {table[pt]}"
                   for pt in pts) or "0"}
    _emit(args, obj)
    return 0


def cmd_hadamard(args):
    f = _load_gf(args.gf)
    g = _load_gf(args.gf2)
    if f.dim != 1 or g.dim != 1:
        raise CliError(UNSUPPORTED, "hadamard product is univariate only")
    h = hadamard_univariate(f, g)
    obj = serialize.gf_to_obj(h)
    obj["_text"] = _fmt_gf(h)
    _emit(args, obj)
    return 0


def cmd_zero(args):
    g = _load_gf(args.gf)
    if g.dim != 1:
        raise CliError(UNSUPPORTED, "zero test is univariate only")
    val = is_zero_univariate(g)
    _emit(args, {"result": val, "_text": "true" if val else "false"})
    return 0


# ---------------------------------------------------------------------------
# argument parsing


def _build_parser():
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--format", choices=("text", "json"),
                        default="text", help="output format")

    p = argparse.ArgumentParser(
        prog="presburger",
        description="Exact Presburger arithmetic: decision, decomposition, "
                    "generating functions, counting.")
    sub = p.add_subparsers(dest="command", required=True)

    d = sub.add_parser("decide", parents=[common],
                       help="truth value of a sentence")
    d.add_argument("formula")
    d.set_defaults(func=cmd_decide)

    q = sub.add_parser("qelim", parents=[common],
                       help="eliminate quantifiers")
    q.add_argument("formula")
    q.set_defaults(func=cmd_qelim)

    dn = sub.add_parser("dnf", parents=[common],
                        help="disjoint polyhedron/lattice-coset cells")
    dn.add_argument("formula")
    dn.set_defaults(func=cmd_dnf)

    g = sub.add_parser("genfun", parents=[common],
                       help="rational generating function of the "
                            "solution set (variables in sorted order)")
    g.add_argument("formula")
    g.set_defaults(func=cmd_genfun)

    c = sub.add_parser("count", parents=[common],
                       help="parametric solution count")
    c.add_argument("formula")
    c.add_argument("--count-vars", required=True,
                   help="comma-separated counted variables")
    c.add_argument("--param-vars", default="",
                   help="comma-separated parameter variables")
    c.add_argument("--as", dest="as_",
                   choices=("gf", "qp", "step", "value"), default="gf",
                   help="output representation")
    c.add_argument("--at", help="parameter point for --as value, "
                                "comma-separated")
    c.set_defaults(func=cmd_count)

    v = sub.add_parser("vpf", parents=[common],
                       help="vector partition function; vectors like "
                            "'1,0;0,1;1,1'")
    v.add_argument("vectors")
    v.add_argument("--as", dest="as_", choices=("gf", "qp"), default="gf")
    v.set_defaults(func=cmd_vpf)

    sy = sub.add_parser("synth", parents=[common],
                        help="synthesize a formula whose solution count "
                             "realizes a quasi-polynomial (json file, "
                             "'-' for stdin)")
    sy.add_argument("pqp")
    sy.set_defaults(func=cmd_synth)

    se = sub.add_parser("series", parents=[common],
                        help="series coefficients of a serialized GF")
    se.add_argument("gf")
    se.add_argument("--bound", type=int, default=20)
    se.set_defaults(func=cmd_series)

    h = sub.add_parser("hadamard", parents=[common],
                       help="coefficientwise product of two univariate GFs")
    h.add_argument("gf")
    h.add_argument("gf2")
    h.set_defaults(func=cmd_hadamard)

    z = sub.add_parser("zero", parents=[common],
                       help="does a univariate GF vanish identically?")
    z.add_argument("gf")
    z.set_defaults(func=cmd_zero)
    return p


def main(argv=None):
    args = _build_parser().parse_args(argv)
    try:
        return args.func(args)
    except CliError as e:
        print(f"error: {e.message}", file=sys.stderr)
        return e.code
    except FormulaSyntaxError as e:
        print(f"parse error: {e}", file=sys.stderr)
        return PARSE
    except BrokenPipeError:
        return 0


if __name__ == "__main__":
    sys.exit(main())
