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
import functools
import itertools
import json
import sys
from fractions import Fraction

from . import serialize
from .formulas import (
    FormulaSyntaxError,
    LinearTerm,
    ModulusTooLarge,
    format_formula,
    free_vars,
    is_name,
    parse,
    substitute,
)
from .genfun import (
    DivergentSpecialization,
    counting_gf,
    gf_is_zero,
    gf_of_formula,
    hadamard,
    series_coeffs,
)
from .lattices import congruences_of_coset
from .qelim import decide, qelim
from .quasipoly import eventual_form, qp_to_step, rgf_to_pqp, synth_formula
from .quasipoly import vpf_gf, vpf_pqp
from .semilinear import to_dnf

PARSE, SEMANTIC, UNSUPPORTED = 2, 3, 4


class CliError(Exception):
    def __init__(self, code, message):
        super().__init__(message)
        self.code = code
        self.message = message


# ---------------------------------------------------------------------------
# input helpers


def _load(path, from_obj, what):
    """from_obj of the JSON document at path, '-' for stdin."""
    try:
        if path == "-":
            obj = json.load(sys.stdin)
        else:
            with open(path) as fh:
                obj = json.load(fh)
    except OSError as e:
        raise CliError(PARSE, f"cannot read {path}: {e}")
    except json.JSONDecodeError as e:
        raise CliError(PARSE, f"invalid json in {path}: {e}")
    try:
        return from_obj(obj)
    except (KeyError, TypeError, ValueError):
        raise CliError(PARSE, f"not a {what}: {path}")


def _load_gf(path):
    return _load(path, serialize.gf_from_obj, "generating function")


def _load_pqp(path):
    return _load(path, serialize.pqp_from_obj, "piecewise quasi-polynomial")


def _split_vars(spec):
    names = [n.strip() for n in spec.split(",")] if spec else []
    names = [n for n in names if n]
    for n in names:
        if not is_name(n):
            raise CliError(PARSE, f"not a variable name: {n!r}")
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


def _emit(args, obj, text):
    """Print the document that --format asks for; obj and text build what
    serialize.dumps writes and the text, and only the printed one is built.
    dumps writes compact canonical JSON, one line with sorted keys, of a
    JSON value, and writes a RationalGF, SemilinearSet, StepPolynomial or
    PiecewiseQuasiPolynomial from one-line templates."""
    print(serialize.dumps(obj()) if args.format == "json" else text())


def _emit_gf(args, g):
    _emit(args, lambda: g, lambda: _fmt_gf(g))


def _emit_infinite(args, message):
    print(message, file=sys.stderr)
    _emit(args, lambda: {"result": "infinite"}, lambda: "infinite")
    return SEMANTIC


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
        mono = _fmt_monomial(names, e)
        num, den = abs(c.numerator), c.denominator
        if mono == "1":
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


def _fmt_cells(s):
    lines = []
    for i, cell in enumerate(s.cells):
        lines.append(f"cell {i + 1}:")
        body = _fmt_rows(s.names, cell.polyhedron) + [
            "  " + _fmt_row(s.names, coeffs, r, f"% {mod} =")
            for coeffs, r, mod in congruences_of_coset(cell.coset)]
        lines.extend(body or ["  true"])
    return "\n".join(lines) if lines else "empty"


def _fmt_row(names, a, b, op):
    parts = [(c < 0, n if abs(c) == 1 else f"{abs(c)}*{n}")
             for n, c in zip(names, a) if c]
    lhs = _join_signed(parts) if parts else "0"
    return f"{lhs} {op} {b}"


def _fmt_rows(names, cell):
    """The equations, then the inequalities of a polyhedron, indented."""
    return ["  " + _fmt_row(names, a, b, op)
            for op, rows in (("=", cell.eqs), (">=", cell.ineqs))
            for a, b in rows]


def _fmt_initial(param, initial):
    """The values before an eventual form as one line, if there are any."""
    vals = ", ".join(f"{param}={p}: {v}" for p, v in enumerate(initial))
    return [f"initial values [{vals}]"] if initial else []


def _fmt_eventual(param, initial, q):
    lines = _fmt_initial(param, initial)
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


def _fmt_pqp(g):
    """The eventual form of a univariate pqp, else its pieces."""
    if g.n == 1:
        return _fmt_eventual(g.names[0], *eventual_form(g))
    lines = []
    for i, (cell, q) in enumerate(g.pieces):
        lines += [f"piece {i + 1}:", *_fmt_rows(g.names, cell)]
        diag = " ".join("[" + " ".join(str(x) for x in col) + "]"
                        for col in q.lattice.basis)
        lines.append(f"  lattice {diag}")
        for rep in sorted(q.constituents):
            body = _fmt_poly(q.constituents[rep], g.names)
            lines.append(f"  rep ({', '.join(str(r) for r in rep)}): {body}")
    return "\n".join(lines) if lines else "0"


def _fmt_step_form(names, initial, s):
    return "\n".join(_fmt_initial(names[0], initial) + [
        f"for {names[0]} >= {len(initial)}: " + _fmt_step(names, s)])


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
    _emit(args, lambda: {"result": val}, lambda: "true" if val else "false")
    return 0


def cmd_qelim(args):
    g = qelim(parse(args.formula))
    s = format_formula(g)
    _emit(args, lambda: {"formula": s}, lambda: s)
    return 0


def cmd_dnf(args):
    s = to_dnf(parse(args.formula))
    _emit(args, lambda: s, lambda: _fmt_cells(s))
    return 0


def cmd_genfun(args):
    _emit_gf(args, gf_of_formula(parse(args.formula)))
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
    if args.as_ == "value":
        return _count_at(args, f, counted, params)
    if args.at is not None:
        raise CliError(SEMANTIC, "--at applies only to --as value")
    try:
        g = counting_gf(f, tuple(counted), tuple(params))
    except DivergentSpecialization:
        return _emit_infinite(args,
                              "count is infinite for some parameter value")

    if args.as_ == "gf":
        _emit_gf(args, g)
        return 0

    if len(params) != 1:
        raise CliError(UNSUPPORTED,
                       f"--as {args.as_} needs exactly one parameter")
    pqp = rgf_to_pqp(g)
    if args.as_ == "qp":
        _emit(args, lambda: pqp, lambda: _fmt_pqp(pqp))
        return 0

    # --as step
    initial, q = eventual_form(pqp)
    s = qp_to_step(q)
    _emit(args, lambda: {"initial": [serialize.frac_str(v) for v in initial],
                         "names": pqp.names, "step": s},
          lambda: _fmt_step_form(pqp.names, initial, s))
    return 0


def _count_at(args, f, counted, params):
    """--as value: substitute the point for the parameters in the
    quantifier-free form of f and count the counted variables."""
    if params and args.at is None:
        raise CliError(SEMANTIC, "--as value needs --at")
    if not params and args.at is not None:
        raise CliError(SEMANTIC, "--at needs --param-vars")
    points = _parse_vectors(args.at) if params else [()]
    if len(points) != 1:
        raise CliError(SEMANTIC, f"--at takes one point, got {len(points)}")
    at = points[0]
    if len(at) != len(params):
        raise CliError(SEMANTIC, f"--at needs {len(params)} coordinates")
    val = 0  # parameters range over N
    if all(v >= 0 for v in at):
        g = qelim(f)
        for name, v in zip(params, at):
            g = substitute(g, name, LinearTerm.const(v))
        try:
            # the GF over no parameters: a constant
            val = sum((t.coef for t in counting_gf(g, counted, ()).terms),
                      Fraction(0))
            if val.denominator != 1:
                raise ValueError(f"point count {val} is not an integer")
            val = int(val)
        except DivergentSpecialization:
            return _emit_infinite(args, "count is infinite" + (
                f" at {args.at}" if params else ""))
    _emit(args, lambda: {"value": serialize.frac_str(val)}, lambda: str(val))
    return 0


def cmd_vpf(args):
    vecs = _parse_vectors(args.vectors)
    try:
        g = vpf_gf(vecs) if args.as_ == "gf" else vpf_pqp(vecs)
    except ModulusTooLarge:
        raise
    except ValueError as e:
        raise CliError(SEMANTIC, str(e))
    _emit(args, lambda: g,
          lambda: _fmt_gf(g) if args.as_ == "gf" else _fmt_pqp(g))
    return 0


def cmd_synth(args):
    g = _load_pqp(args.pqp)
    if g.n != 1:
        raise CliError(UNSUPPORTED, "synthesis needs one parameter")
    try:
        formula, counted = synth_formula(g)
    except ModulusTooLarge:
        raise
    except ValueError as e:
        raise CliError(SEMANTIC, str(e))
    text = format_formula(formula)
    _emit(args, lambda: {"formula": text, "counted": list(counted),
                         "param": g.names[0]},
          lambda: f"formula: {text}\ncounted: {','.join(counted)}\n"
                  f"param: {g.names[0]}")
    return 0


def cmd_series(args):
    g = _load_gf(args.gf)
    bound = args.bound
    if bound < 0:
        raise CliError(SEMANTIC, "--bound must be nonnegative")
    table = series_coeffs(g, bound)
    if g.dim == 1:
        vals = [table.get((p,), Fraction(0)) for p in range(bound + 1)]
        _emit(args, lambda: {"bound": bound,
                             "values": [serialize.frac_str(v) for v in vals]},
              lambda: " ".join(str(v) for v in vals))
    else:
        pts = sorted(table)
        _emit(args, lambda: {"bound": bound, "coeffs": [
                  {"point": list(pt), "value": serialize.frac_str(table[pt])}
                  for pt in pts]},
              lambda: "\n".join((f"{' '.join(map(str, pt))}: " if pt else "")
                                + str(table[pt]) for pt in pts) or "0")
    return 0


def cmd_hadamard(args):
    try:
        h = hadamard(_load_gf(args.gf), _load_gf(args.gf2))
    except ValueError as e:
        raise CliError(SEMANTIC, str(e))
    _emit_gf(args, h)
    return 0


def cmd_zero(args):
    val = gf_is_zero(_load_gf(args.gf))
    _emit(args, lambda: {"result": val}, lambda: "true" if val else "false")
    return 0


# ---------------------------------------------------------------------------
# argument parsing


@functools.cache  # built once per process; parse_args keeps no state
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
                       help="coefficientwise product of two GFs")
    h.add_argument("gf")
    h.add_argument("gf2")
    h.set_defaults(func=cmd_hadamard)

    z = sub.add_parser("zero", parents=[common],
                       help="does a GF vanish identically?")
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
    except RecursionError:
        print("error: formula nested too deeply", file=sys.stderr)
        return UNSUPPORTED
    except ModulusTooLarge as e:
        print(f"error: {e}", file=sys.stderr)
        return UNSUPPORTED
    except BrokenPipeError:
        return 0


if __name__ == "__main__":
    sys.exit(main())
