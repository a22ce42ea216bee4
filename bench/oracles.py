"""Independent answers for every benchmark query family.

Nothing here imports presburger.  Each oracle recomputes the expected
answer by plain arithmetic, dynamic programming or enumeration on a box,
and each evaluator reads the program's JSON or text answer by its
documented format, so a wrong answer cannot be confirmed by the code that
produced it.  check() raises OracleError naming what disagreed.
"""

import json
import math
import re
from fractions import Fraction
from functools import lru_cache
from itertools import product

# Mersenne prime used to evaluate generating functions at a point.
PRIME = (1 << 61) - 1


class OracleError(AssertionError):
    """An answer disagrees with its oracle."""


# ---------------------------------------------------------------------------
# ground truth by arithmetic, dynamic programming and enumeration


def frobenius(a, b):
    """Largest integer not in the semigroup a*N + b*N (a, b coprime)."""
    return a * b - a - b


def semigroup_members(gens, bound):
    """reach[n] is True when n (0 <= n <= bound) is an N-combination."""
    reach = [False] * (bound + 1)
    reach[0] = True
    for n in range(1, bound + 1):
        reach[n] = any(g <= n and reach[n - g] for g in gens)
    return reach


def compositions(coeffs, bound):
    """ways[s] = #{x in N^k : coeffs . x = s} for 0 <= s <= bound."""
    ways = [0] * (bound + 1)
    ways[0] = 1
    for a in coeffs:
        for s in range(a, bound + 1):
            ways[s] += ways[s - a]
    return ways


def knapsack_count(coeffs, bound):
    """#{x in N^k : coeffs . x <= bound}."""
    return sum(compositions(coeffs, bound))


def knapsack_points(coeffs, bound):
    """Every x in N^k with coeffs . x <= bound."""
    out = []

    def walk(i, rest, prefix):
        if i == len(coeffs):
            out.append(tuple(prefix))
            return
        for v in range(rest // coeffs[i] + 1):
            prefix.append(v)
            walk(i + 1, rest - v * coeffs[i], prefix)
            prefix.pop()

    walk(0, bound, [])
    return out


def chain_count(k, p):
    """#{x in N^k : x_0 <= x_1 <= ... <= x_{k-1}, sum x <= p}."""

    @lru_cache(maxsize=None)
    def walk(left, low, budget):
        # sequences of `left` values, each >= low, nondecreasing, sum <= budget
        if left == 0:
            return 1
        total = 0
        v = low
        while v * left <= budget:
            total += walk(left - 1, v, budget - v)
            v += 1
        return total

    return walk(k, 0, p)


def box_count(pred, dim, bound):
    """#{x in [0, bound]^dim : pred(x)}."""
    return sum(1 for x in product(range(bound + 1), repeat=dim) if pred(x))


def partition_count(gens, target):
    """#{lam in N^k : sum lam_i gens_i = target}, by a DP over the box."""
    n = len(target)
    if any(c < 0 for c in target):
        return 0
    ranges = [range(c + 1) for c in target]
    ways = {pt: 0 for pt in product(*ranges)}
    ways[(0,) * n] = 1
    for g in gens:
        # unbounded use of g: visit points in increasing order
        for pt in product(*ranges):
            prev = tuple(a - b for a, b in zip(pt, g))
            if all(c >= 0 for c in prev) and prev != pt:
                ways[pt] += ways[prev]
    return ways[tuple(target)]


# ---------------------------------------------------------------------------
# readers for the program's answer formats


def _inverse(cols):
    """Inverse of the square matrix whose columns are `cols`, exactly."""
    n = len(cols)
    rows = [[Fraction(cols[j][i]) for j in range(n)]
            + [Fraction(int(i == j)) for j in range(n)] for i in range(n)]
    for c in range(n):
        piv = next(r for r in range(c, n) if rows[r][c] != 0)
        rows[c], rows[piv] = rows[piv], rows[c]
        inv = 1 / rows[c][c]
        rows[c] = [a * inv for a in rows[c]]
        for r in range(n):
            if r != c and rows[r][c] != 0:
                f = rows[r][c]
                rows[r] = [a - f * b for a, b in zip(rows[r], rows[c])]
    return [row[n:] for row in rows]


@lru_cache(maxsize=4096)
def _lattice_test(basis):
    """(D, A): v is in the lattice iff A v = 0 mod D, with A = D B^-1."""
    inv = _inverse(basis)
    den = 1
    for row in inv:
        for q in row:
            den = den * q.denominator // math.gcd(den, q.denominator)
    return den, tuple(tuple(int(q * den) for q in row) for row in inv)


def coset_test(basis, rep):
    """Membership test for rep + the lattice spanned by `basis`."""
    den, adj = _lattice_test(tuple(tuple(b) for b in basis))

    def contains(point):
        diff = [p - r for p, r in zip(point, rep)]
        return all(sum(a * d for a, d in zip(row, diff)) % den == 0
                   for row in adj)

    return contains


def _rows_hold(poly, point):
    def dot(a):
        return sum(x * y for x, y in zip(a, point))
    return (all(dot(a) >= b for a, b in poly["ineqs"])
            and all(dot(a) == b for a, b in poly["eqs"]))


def _cell_test(cell):
    poly = cell["polyhedron"]
    in_coset = coset_test(cell["lattice"], cell["rep"])
    return lambda point: _rows_hold(poly, point) and in_coset(point)


def cells_containing(obj, points):
    """For each point, how many cells of a `dnf --format json` document
    contain it."""
    tests = [_cell_test(c) for c in obj["cells"]]
    return [sum(1 for t in tests if t(x)) for x in points]


def _poly_value(terms, point):
    total = Fraction(0)
    for m in terms:
        v = Fraction(m["coef"])
        for x, e in zip(point, m["exps"]):
            v *= Fraction(x) ** e
        total += v
    return total


def pqp_value(obj, point):
    """Value of a piecewise quasi-polynomial JSON document at point."""
    point = tuple(point)
    hits = [pc for pc in obj["pieces"] if _rows_hold(pc["polyhedron"], point)]
    if len(hits) > 1:
        raise OracleError(f"pieces overlap at {point}")
    if not hits:
        return Fraction(0)
    pc = hits[0]
    for key, terms in pc["constituents"].items():
        rep = tuple(int(c) for c in key.split(",")) if key else ()
        if coset_test(pc["lattice"], rep)(point):
            return _poly_value(terms, point)
    return Fraction(0)


def _floor(x):
    return x.numerator // x.denominator


def step_value(obj, p):
    """Value of a `count --as step --format json` document at p."""
    initial = obj["initial"]
    if p < len(initial):
        return Fraction(initial[p])
    total = Fraction(0)
    for t in obj["step"]["terms"]:
        v = Fraction(t["coef"])
        for f in t["factors"]:
            arg = sum(Fraction(a) * p for a in f["coeffs"]) + Fraction(
                f["const"])
            v *= _floor(arg)
        total += v
    return total


def _mod_frac(text):
    q = Fraction(text)
    return q.numerator % PRIME * pow(q.denominator, -1, PRIME) % PRIME


def _mod_monomial(point, exps):
    v = 1
    for t, e in zip(point, exps):
        v = v * pow(t, e, PRIME) % PRIME  # negative e uses the inverse
    return v


def gf_value_mod(obj, point):
    """A generating function JSON document evaluated at point, mod PRIME.

    Returns None when some denominator vanishes at the point.
    """
    total = 0
    for t in obj["terms"]:
        den = 1
        for b in t["denom"]:
            den = den * (1 - _mod_monomial(point, b)) % PRIME
        if den == 0:
            return None
        num = _mod_frac(t["coef"]) * _mod_monomial(point, t["numer_exp"])
        total = (total + num * pow(den, -1, PRIME)) % PRIME
    return total


def points_value_mod(points, point):
    """sum over the listed points s of point^s, mod PRIME."""
    return sum(_mod_monomial(point, s) for s in points) % PRIME


# ---------------------------------------------------------------------------
# quantifier-free formula text, as printed by `qelim`

_TOKEN = re.compile(r"\s*(?:(\d+)|([A-Za-z_]\w*)|(<=|>=|[<>=%&|!()*+-]))")


def _tokens(text):
    out = []
    pos = 0
    text = text.rstrip()
    while pos < len(text):
        m = _TOKEN.match(text, pos)
        if not m:
            raise OracleError(f"cannot read formula at {text[pos:pos + 20]!r}")
        num, name, op = m.groups()
        out.append(("INT", int(num)) if num else
                   ("NAME", name) if name else ("OP", op))
        pos = m.end()
    out.append(("END", None))
    return out


def compile_formula(text):
    """Predicate env -> bool for a quantifier-free formula text."""
    toks = _tokens(text)
    pos = [0]

    def peek():
        return toks[pos[0]]

    def take(expected=None):
        t = toks[pos[0]]
        if expected is not None and t[1] != expected:
            raise OracleError(f"expected {expected!r}, found {t[1]!r}")
        pos[0] += 1
        return t

    def term():
        # list of (coefficient, name or None for the constant)
        parts, sign = [], 1
        if peek() == ("OP", "-"):
            take()
            sign = -1
        while True:
            t = take()
            if t[0] == "INT" and peek() == ("OP", "*"):
                take()
                parts.append((sign * t[1], take()[1]))
            elif t[0] == "INT":
                parts.append((sign * t[1], None))
            elif t[0] == "NAME":
                parts.append((sign, t[1]))
            else:
                raise OracleError(f"expected a term, found {t[1]!r}")
            if peek() in (("OP", "+"), ("OP", "-")):
                sign = 1 if take()[1] == "+" else -1
            else:
                return parts

    def atom():
        left = term()
        op = take()[1]
        modulus = None
        if op == "%":
            modulus = take()[1]
            take("=")
        diff = left + [(-c, n) for c, n in term()]

        def value(env):
            return sum(c * (env[n] if n else 1) for c, n in diff)

        if modulus is not None:
            return lambda env: value(env) % modulus == 0
        test = {"<": lambda v: v < 0, "<=": lambda v: v <= 0,
                "=": lambda v: v == 0, ">=": lambda v: v >= 0,
                ">": lambda v: v > 0}[op]
        return lambda env: test(value(env))

    def unary():
        if peek() == ("OP", "!"):
            take()
            inner = unary()
            return lambda env: not inner(env)
        if peek() == ("OP", "("):
            take()
            inner = disjunction()
            take(")")
            return inner
        return atom()

    def conjunction():
        parts = [unary()]
        while peek() == ("OP", "&"):
            take()
            parts.append(unary())
        return parts[0] if len(parts) == 1 else \
            (lambda env: all(p(env) for p in parts))

    def disjunction():
        parts = [conjunction()]
        while peek() == ("OP", "|"):
            take()
            parts.append(conjunction())
        return parts[0] if len(parts) == 1 else \
            (lambda env: any(p(env) for p in parts))

    pred = disjunction()
    if peek()[0] != "END":
        raise OracleError(f"trailing input in formula at {peek()[1]!r}")
    return pred


# ---------------------------------------------------------------------------
# per-family checks; `spec` is the query's check tuple


def _expect(cond, message):
    if not cond:
        raise OracleError(message)


def _check_frobenius(out, a, b, threshold):
    want = threshold >= frobenius(a, b)
    _expect(out.strip() == ("true" if want else "false"),
            f"decide answered {out.strip()!r}, Frobenius number of "
            f"({a}, {b}) is {frobenius(a, b)}")


def _check_cells(out, names, member, points):
    obj = json.loads(out)
    _expect(obj["names"] == list(names), f"names {obj['names']}")
    for x, hits in zip(points, cells_containing(obj, points)):
        want = 1 if member(x) else 0
        _expect(hits == want,
                f"point {x} lies in {hits} cells, expected {want}")


def _box(dim, bound):
    return list(product(range(bound + 1), repeat=dim))


def _check_qf_formula(out, names, member, bound):
    pred = compile_formula(out)
    for x in _box(len(names), bound):
        got = pred(dict(zip(names, x)))
        _expect(got == member(x), f"formula is {got} at {x}")


def _semigroup(gens, bound):
    reach = semigroup_members(gens, bound)
    return lambda x: reach[x[0]]


def _alternation(a, b):
    # A y. (y >= x | E z. a*z + y = b*x + w), y and z over N
    def member(pt):
        w, x = pt
        return all((b * x + w - y) >= 0 and (b * x + w - y) % a == 0
                   for y in range(x))
    return member


def _congruences(rows):
    # rows: (coeffs, modulus, residue, negated)
    def member(x):
        return all(((sum(c * v for c, v in zip(coeffs, x)) - r) % m == 0)
                   != neg for coeffs, m, r, neg in rows)
    return member


def _check_gf(out, coeffs, bound, points):
    obj = json.loads(out)
    pts = knapsack_points(coeffs, bound)
    for pt in points:
        got = gf_value_mod(obj, pt)
        _expect(got is not None, f"a denominator vanishes at {pt}")
        _expect(got == points_value_mod(pts, pt),
                f"generating function differs from the point set at {pt}")


def _check_value(out, want):
    _expect(out.strip() == str(want), f"answered {out.strip()!r}, "
                                      f"expected {want}")


def _param_counter(kind, args):
    if kind == "chain":
        (k,) = args
        return lambda p: chain_count(k, p)
    if kind == "knapsack":
        (coeffs,) = args
        return lambda p: knapsack_count(coeffs, p)
    if kind == "congruence":
        # x + y + z <= p & x % m1 = r1 & y + z % m2 = r2
        m1, r1, m2, r2 = args
        return lambda p: box_count(
            lambda v: sum(v) <= p and (v[0] - r1) % m1 == 0
            and (v[1] + v[2] - r2) % m2 == 0, 3, p)
    if kind == "linear":
        # a*x + c <= p
        a, c = args
        return lambda p: (p - c) // a + 1 if p >= c else 0
    raise ValueError(kind)


def check(spec, out, extra=None):
    """Raise OracleError unless `out` is the right answer for `spec`.

    extra: for a synth round trip, the `count --as qp --format json` answer
    for the synthesized formula.
    """
    kind = spec[0]
    if kind == "frobenius":
        _check_frobenius(out, *spec[1:])
    elif kind == "semigroup_cells":
        _, names, gens, bound = spec
        _check_cells(out, names, _semigroup(gens, bound), _box(1, bound))
    elif kind == "semigroup_formula":
        _, names, gens, bound = spec
        _check_qf_formula(out, names, _semigroup(gens, bound), bound)
    elif kind == "alternation_cells":
        _, names, a, b, bound = spec
        _check_cells(out, names, _alternation(a, b), _box(2, bound))
    elif kind == "alternation_formula":
        _, names, a, b, bound = spec
        _check_qf_formula(out, names, _alternation(a, b), bound)
    elif kind == "congruence_cells":
        _, names, rows, points = spec
        _check_cells(out, names, _congruences(rows), points)
    elif kind == "knapsack_gf":
        _, coeffs, bound, points = spec
        _check_gf(out, coeffs, bound, points)
    elif kind == "knapsack_value":
        _, coeffs, bound = spec
        _check_value(out, knapsack_count(coeffs, bound))
    elif kind == "param":
        _, form, counter, args, points = spec
        count = _param_counter(counter, args)
        obj = json.loads(out) if form != "value" else None
        for p in points:
            want = count(p)
            if form == "qp":
                got = pqp_value(obj, (p,))
            elif form == "step":
                got = step_value(obj, p)
            else:
                got = Fraction(out.strip())
            _expect(got == want, f"{form} gives {got} at p={p}, "
                                 f"expected {want}")
    elif kind == "vpf":
        _, gens, targets = spec
        obj = json.loads(out)
        for t in targets:
            want = partition_count(gens, t)
            got = pqp_value(obj, t)
            _expect(got == want, f"vpf gives {got} at {t}, expected {want}")
    elif kind == "synth":
        _, counter, args, points = spec
        count = _param_counter(counter, args)
        obj = json.loads(extra)
        for p in points:
            got, want = pqp_value(obj, (p,)), count(p)
            _expect(got == want, f"synthesized formula counts {got} at "
                                 f"p={p}, expected {want}")
    elif kind == "infinite":
        _expect(out.strip() == "infinite", f"answered {out.strip()!r}, "
                                           f"expected infinite")
    else:
        raise ValueError(f"unknown check {kind!r}")
