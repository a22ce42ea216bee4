"""Extended Presburger formulas over the naturals.

Terms are integral linear forms.  Atoms are comparisons (kept in the
normalized shapes ``term >= 0`` and ``term = 0``) and congruences
``term mod m in R`` for a set R of residues, which parse as
``term % m = r`` for one r.  A negated congruence is one atom with the
complementary residue set, and conj/disj merge the congruences on one
term and modulus into one atom, so a set never falls apart into
single-residue atoms.  Formulas add and/or/not, E (exists) and A
(forall); all variables range over N.

Concrete syntax, parsed by :func:`parse`:

    formula := 'E' NAME '.' formula | 'A' NAME '.' formula | or
    or      := and ('|' and)*
    and     := not ('&' not)*
    not     := '!' not | '(' formula ')' | atom
    atom    := term (CMP term | '%' INT '=' term)
    term    := ['-'] factor (('+' | '-') factor)*
    factor  := INT '*' NAME | INT | NAME

with CMP one of ``< <= = >= >``.  ``E`` and ``A`` are reserved words.  A
quantifier body extends as far right as possible.  Strict comparisons are
tightened to non-strict at parse time (t < s becomes t <= s - 1); a ``%``
applies to the whole additive term to its left.
"""

from __future__ import annotations

import re
from collections import namedtuple
from math import gcd


class FormulaSyntaxError(ValueError):
    """Raised on malformed formula text; carries the offending position."""

    def __init__(self, message, pos):
        super().__init__(f"{message} (at position {pos})")
        self.pos = pos


# The most residues one loop may run through: negating a congruence,
# splitting a cell by the residues of a congruence and Cooper's offsets
# each cost time and memory linear in the modulus they loop over.  It is
# above every modulus those loops meet in the tests and the benchmark
# (the largest, lcm(7, 8, 9, 11, 13) = 72072, is a Cooper period).
MODULUS_LIMIT = 100_000


class ModulusTooLarge(ValueError):
    """A loop would run through more than MODULUS_LIMIT residues."""


def check_modulus(modulus, what):
    if modulus > MODULUS_LIMIT:
        raise ModulusTooLarge(
            f"{what} needs {modulus} residues, above the modulus limit "
            f"{MODULUS_LIMIT}")


def record(name, fields, defaults=None):
    """Base of an immutable record class, ``class Cmp(record("Cmp", "term
    op")):`` with ``__slots__ = ()`` so that no instance has a __dict__: a
    named tuple equal only to a record of its own class with equal fields.
    A class that checks its fields does so in ``__new__``, which ``_make``
    and ``_replace`` skip."""
    base = namedtuple(name, fields, defaults=defaults)
    eq, ne = tuple.__eq__, tuple.__ne__
    base.__eq__ = lambda a, b: type(a) is type(b) and eq(a, b)
    base.__ne__ = lambda a, b: type(a) is not type(b) or ne(a, b)
    base.__hash__ = tuple.__hash__
    return base


# ---------------------------------------------------------------------------
# linear terms


class LinearTerm(record("LinearTerm", "coeffs constant", defaults=(0,))):
    """Integral linear form sum(coeff * var) + constant.

    coeffs is a tuple of (name, coeff) pairs sorted by name with no zero
    coefficients, which makes equal terms structurally equal.
    """

    __slots__ = ()

    @staticmethod
    def of(coeffs=None, constant=0):
        items = []
        for name, c in sorted((coeffs or {}).items()):
            if c != 0:
                items.append((name, c))
        return LinearTerm(tuple(items), constant)

    @staticmethod
    def var(name):
        return LinearTerm(((name, 1),), 0)

    @staticmethod
    def const(c):
        return LinearTerm((), c)

    def coeff(self, name):
        for n, c in self.coeffs:
            if n == name:
                return c
        return 0

    def variables(self):
        return {n for n, _ in self.coeffs}

    def is_constant(self):
        return not self.coeffs

    def eval(self, env):
        return self.constant + sum(c * env[n] for n, c in self.coeffs)

    def _combine(self, other, sign):
        d = dict(self.coeffs)
        for n, c in other.coeffs:
            d[n] = d.get(n, 0) + sign * c
        return LinearTerm.of(d, self.constant + sign * other.constant)

    def __add__(self, other):
        return self._combine(other, 1)

    def __sub__(self, other):
        return self._combine(other, -1)

    def __neg__(self):
        return self.scale(-1)

    def scale(self, k):
        if k == 0:
            return LinearTerm((), 0)
        return LinearTerm(tuple((n, k * c) for n, c in self.coeffs),
                          k * self.constant)

    def subst(self, name, replacement):
        """Replace a variable by another term."""
        c = self.coeff(name)
        if c == 0:
            return self
        rest = LinearTerm(tuple((n, a) for n, a in self.coeffs if n != name),
                          self.constant)
        return rest + replacement.scale(c)


# ---------------------------------------------------------------------------
# formula nodes


class Cmp(record("Cmp", "term op")):
    """Atom ``term >= 0`` (op ">=") or ``term = 0`` (op "=")."""

    __slots__ = ()


class Congruence(record("Congruence", "term modulus residues")):
    """Atom ``term mod modulus in residues`` in the form congruence()
    makes: no constant, coefficients in [1, modulus), and residues a
    sorted tuple of distinct ints in [0, modulus) that is neither empty
    nor all of them."""

    __slots__ = ()

    def __new__(cls, term, modulus, residues):
        self = super().__new__(cls, term, modulus, residues)
        m, rs = modulus, residues
        if not (m >= 1 and term.constant == 0
                and all(0 < c < m for _name, c in term.coeffs)
                and isinstance(rs, tuple) and 0 < len(rs) < m
                and 0 <= rs[0] and rs[-1] < m
                and all(a < b for a, b in zip(rs, rs[1:]))):
            raise ValueError(f"{self} is not reduced (modulus >= 1, no "
                             f"constant, coefficients in [1, m), residues "
                             f"sorted and distinct in [0, m), neither none "
                             f"nor all); build it with congruence()")
        return self


class And(record("And", "parts")):
    __slots__ = ()


class Or(record("Or", "parts")):
    __slots__ = ()


class Not(record("Not", "inner")):
    __slots__ = ()


class Exists(record("Exists", "var body")):
    __slots__ = ()


class ForAll(record("ForAll", "var body")):
    __slots__ = ()


# Every constructor below returns these two objects for a constant atom, so
# code tests for them by identity.
TRUE = Cmp(LinearTerm((), 0), "=")
FALSE = Cmp(LinearTerm((), -1), "=")


# ---------------------------------------------------------------------------
# smart constructors (normalize atoms, fold trivialities)


def cmp_ge(term):
    """Formula for term >= 0, gcd-tightened over the integers."""
    if term.is_constant():
        return TRUE if term.constant >= 0 else FALSE
    g = 0
    for _, c in term.coeffs:
        g = gcd(g, c)
    if g > 1:
        coeffs = tuple((n, c // g) for n, c in term.coeffs)
        # sum(a x) * g + c >= 0  <=>  sum(a x) >= ceil(-c/g)  <=>  + floor(c/g) >= 0
        term = LinearTerm(coeffs, term.constant // g)
    return Cmp(term, ">=")


def cmp_eq(term):
    """Formula for term = 0 with canonical sign and gcd reduction."""
    if term.is_constant():
        return TRUE if term.constant == 0 else FALSE
    g = 0
    for _, c in term.coeffs:
        g = gcd(g, c)
    if term.constant % g != 0:
        return FALSE
    term = LinearTerm(tuple((n, c // g) for n, c in term.coeffs),
                      term.constant // g)
    if term.coeffs[0][1] < 0:
        term = -term
    return Cmp(term, "=")


def congruence(term, modulus, residue=0):
    """Formula for term mod modulus in residue, fully reduced; residue is
    one int or a collection of them."""
    if modulus < 1:
        raise ValueError("modulus must be positive")
    wanted = (residue,) if isinstance(residue, int) else residue
    rs = {(r - term.constant) % modulus for r in wanted}
    coeffs = {n: c % modulus for n, c in term.coeffs}
    coeffs = {n: c for n, c in coeffs.items() if c != 0}
    if not coeffs:
        return TRUE if 0 in rs else FALSE
    g = modulus
    for c in coeffs.values():
        g = gcd(g, c)
    if g > 1:
        # g divides the modulus and every coefficient, so only residues
        # divisible by g are reached
        rs = {r // g for r in rs if r % g == 0}
        coeffs = {n: c // g for n, c in coeffs.items()}
        modulus //= g
    if not rs:
        return FALSE
    if len(rs) == modulus:
        return TRUE
    return Congruence(LinearTerm.of(coeffs, 0), modulus, tuple(sorted(rs)))


def _join_parts(parts, node, unit, zero, merge):
    """Flat node over parts: units dropped, repeats dropped, zero absorbing.

    Congruences on one (term, modulus) become one atom at the place of the
    first, with residue set merge(set, residues); a merge that leaves no
    residue or all of them is zero (conj intersects, disj unions).
    """
    out = []
    seen = set()
    at = {}  # (term, modulus) -> index in out of its congruence
    for p in parts:
        if p is zero:
            return zero
        if p is unit:
            continue
        for q in p.parts if isinstance(p, node) else (p,):
            if isinstance(q, Congruence):
                i = at.setdefault((q.term, q.modulus), len(out))
                if i == len(out):
                    out.append(q)
                elif out[i].residues != q.residues:
                    rs = merge(set(out[i].residues), q.residues)
                    if not rs or len(rs) == q.modulus:
                        return zero
                    out[i] = Congruence(q.term, q.modulus, tuple(sorted(rs)))
            elif q not in seen:
                seen.add(q)
                out.append(q)
    if not out:
        return unit
    if len(out) == 1:
        return out[0]
    return node(tuple(out))


def conj(parts):
    return _join_parts(parts, And, TRUE, FALSE, set.intersection)


def disj(parts):
    return _join_parts(parts, Or, FALSE, TRUE, set.union)


def neg(f):
    if f is TRUE:
        return FALSE
    if f is FALSE:
        return TRUE
    if isinstance(f, Not):
        return f.inner
    return Not(f)


# ---------------------------------------------------------------------------
# structural helpers


def free_vars(f):
    if isinstance(f, Cmp):
        return f.term.variables()
    if isinstance(f, Congruence):
        return f.term.variables()
    if isinstance(f, And) or isinstance(f, Or):
        out = set()
        for p in f.parts:
            out |= free_vars(p)
        return out
    if isinstance(f, Not):
        return free_vars(f.inner)
    if isinstance(f, (Exists, ForAll)):
        return free_vars(f.body) - {f.var}
    raise TypeError(f"not a formula: {f!r}")


def is_quantifier_free(f):
    if isinstance(f, (Cmp, Congruence)):
        return True
    if isinstance(f, (And, Or)):
        return all(is_quantifier_free(p) for p in f.parts)
    if isinstance(f, Not):
        return is_quantifier_free(f.inner)
    return False


def substitute(f, name, term):
    """Replace free occurrences of a variable by a term, folding as it goes.

    A substituted comparison is normalized by cmp_ge/cmp_eq, and every
    comparison is then folded by `_simplify_atom`; an And stops at its first
    part that folds to FALSE and an Or at its first TRUE, and connectives
    are rebuilt with conj/disj/neg.  The result is equivalent to the plain
    substitution over N, not over Z: the atom fold uses that the remaining
    variables are >= 0.  Below the quantifiers this is the substitution
    plan of :func:`substitution_plan` at offset 0.

    Rejects formulas that quantify over the substituted variable or over a
    variable of the replacement term (no capture at this scale).
    """
    if isinstance(f, (Exists, ForAll)):
        if f.var == name:
            raise ValueError(f"cannot substitute bound variable {name!r}")
        if f.var in term.variables():
            raise ValueError(f"substitution would capture {f.var!r}")
        return type(f)(f.var, substitute(f.body, name, term))
    p = _plan(f, name, term)
    return p(0) if callable(p) else p


def substitution_plan(f, name, term):
    """The function j -> substitute(f, name, term + j), from one walk of f.

    Each atom's term.subst(name, term) is done once.  An offset j then
    only adds c*j to the constant of an atom with coefficient c on name,
    and folds the atoms and connectives again as substitute does; a part
    that does not move with j is folded once.  Cooper's method calls the
    plan of one candidate at each of its offsets.
    """
    p = _plan(f, name, term)
    return p if callable(p) else lambda j: p


def _plan(f, name, term):
    """f's substitution as a formula if it does not move with the offset,
    else as a function of the offset."""
    if isinstance(f, Cmp):
        c = f.term.coeff(name)
        if c == 0:
            return _simplify_atom(f)
        t = f.term.subst(name, term)
        coeffs, k = t.coeffs, t.constant
        if not coeffs:  # ground at every offset
            if f.op == ">=":
                return lambda j: TRUE if k + c * j >= 0 else FALSE
            return lambda j: TRUE if k + c * j == 0 else FALSE
        make = cmp_ge if f.op == ">=" else cmp_eq
        return lambda j: _simplify_atom(make(LinearTerm(coeffs, k + c * j)))
    if isinstance(f, Congruence):
        c = f.term.coeff(name)
        if c == 0:
            return f
        t = f.term.subst(name, term)
        coeffs, k, m, rs = t.coeffs, t.constant, f.modulus, f.residues
        if all(a % m == 0 for _, a in coeffs):  # ground at every offset
            rs = frozenset(rs)  # already reduced to [0, m)
            return lambda j: TRUE if (k + c * j) % m in rs else FALSE
        return lambda j: congruence(LinearTerm(coeffs, k + c * j), m, rs)
    if isinstance(f, (And, Or)):
        stop, unit, join = ((FALSE, TRUE, conj) if isinstance(f, And)
                            else (TRUE, FALSE, disj))
        parts = []
        for p in f.parts:
            q = _plan(p, name, term)
            if q is stop:
                return stop
            if q is not unit:  # join would drop it
                parts.append(q)
        if not any(callable(q) for q in parts):
            return join(parts)

        def at(j):
            out = []
            for q in parts:
                if callable(q):
                    q = q(j)
                    if q is stop:
                        return stop
                out.append(q)
            return join(out)
        return at
    if isinstance(f, Not):
        q = _plan(f.inner, name, term)
        return (lambda j: neg(q(j))) if callable(q) else neg(q)
    if isinstance(f, (Exists, ForAll)):
        return lambda j: substitute(f, name, term + LinearTerm.const(j))
    raise TypeError(f"not a formula: {f!r}")


# ---------------------------------------------------------------------------
# evaluation


def eval_ground(f, env, bound=0):
    """Evaluate with every free variable assigned a natural number.

    Quantifiers range over [0, bound] rather than all of N, which is exact
    whenever `bound` dominates the relevant witnesses.  An unassigned
    variable raises ValueError.
    """
    return _eval(f, dict(env), bound)


def _eval(f, env, bound):
    if isinstance(f, (Cmp, Congruence)):
        try:
            val = f.term.eval(env)
        except KeyError:
            raise ValueError(f"unassigned free variable in {f!r}")
        if isinstance(f, Congruence):
            return val % f.modulus in f.residues
        return val >= 0 if f.op == ">=" else val == 0
    if isinstance(f, Not):
        return not _eval(f.inner, env, bound)
    if isinstance(f, And):
        return all(_eval(p, env, bound) for p in f.parts)
    if isinstance(f, Or):
        return any(_eval(p, env, bound) for p in f.parts)
    if isinstance(f, (Exists, ForAll)):
        stop, old = isinstance(f, Exists), env.get(f.var)
        try:
            for k in range(bound + 1):
                env[f.var] = k
                if _eval(f.body, env, bound) is stop:
                    return stop
            return not stop
        finally:  # the caller's value of f.var, never None, comes back
            if old is None:
                env.pop(f.var, None)
            else:
                env[f.var] = old
    raise TypeError(f"not a formula: {f!r}")


# ---------------------------------------------------------------------------
# negation normal form


def nnf(f):
    """Push negations to atoms; the result contains no Not node.

    Negated equalities split into two inequalities, negated congruences
    into the complementary residue set.
    """
    return _nnf(f, False)


def _nnf(f, negate):
    if isinstance(f, Cmp):
        if not negate:
            return f
        if f.op == ">=":
            return cmp_ge(-f.term - LinearTerm.const(1))
        return disj([cmp_ge(f.term - LinearTerm.const(1)),
                     cmp_ge(-f.term - LinearTerm.const(1))])
    if isinstance(f, Congruence):
        if not negate:
            return f
        check_modulus(f.modulus, "negating a congruence")
        rs = set(f.residues)
        return Congruence(f.term, f.modulus,
                          tuple(r for r in range(f.modulus) if r not in rs))
    if isinstance(f, And):
        parts = [_nnf(p, negate) for p in f.parts]
        return disj(parts) if negate else conj(parts)
    if isinstance(f, Or):
        parts = [_nnf(p, negate) for p in f.parts]
        return conj(parts) if negate else disj(parts)
    if isinstance(f, Not):
        return _nnf(f.inner, not negate)
    if isinstance(f, Exists):
        body = _nnf(f.body, negate)
        return ForAll(f.var, body) if negate else Exists(f.var, body)
    if isinstance(f, ForAll):
        body = _nnf(f.body, negate)
        return Exists(f.var, body) if negate else ForAll(f.var, body)
    raise TypeError(f"not a formula: {f!r}")


# ---------------------------------------------------------------------------
# simplification


def simplify(f):
    """Constant folding plus cheap pruning, sound over N."""
    if isinstance(f, Cmp):
        return _simplify_atom(f)
    if isinstance(f, Congruence):
        return f
    if isinstance(f, And):
        parts = [simplify(p) for p in f.parts]
        g = conj(parts)
        return _prune_conj(g) if isinstance(g, And) else g
    if isinstance(f, Or):
        parts = [simplify(p) for p in f.parts]
        g = disj(parts)
        return _prune_disj(g) if isinstance(g, Or) else g
    if isinstance(f, Not):
        inner = simplify(f.inner)
        return neg(inner)
    if isinstance(f, (Exists, ForAll)):
        body = simplify(f.body)
        if f.var not in free_vars(body):
            return body
        return Exists(f.var, body) if isinstance(f, Exists) else ForAll(f.var, body)
    raise TypeError(f"not a formula: {f!r}")


def _simplify_atom(a):
    t = a.term
    if t.is_constant():
        if a.op == ">=":
            return TRUE if t.constant >= 0 else FALSE
        return TRUE if t.constant == 0 else FALSE
    # variables range over N, so sign-definite terms fold
    if a.op == ">=":
        if all(c > 0 for _, c in t.coeffs) and t.constant >= 0:
            return TRUE
        if all(c < 0 for _, c in t.coeffs) and t.constant < 0:
            return FALSE
    else:
        if all(c > 0 for _, c in t.coeffs) and t.constant > 0:
            return FALSE
        if all(c < 0 for _, c in t.coeffs) and t.constant < 0:
            return FALSE
    return a


def _prune_conj(f):
    ges = {}     # variable part -> strongest constant
    eqs = {}
    others = []
    for p in f.parts:
        if isinstance(p, Cmp) and p.op == ">=":
            key = p.term.coeffs
            c = p.term.constant
            if key not in ges or c < ges[key]:
                ges[key] = c
        elif isinstance(p, Cmp) and p.op == "=":
            key = p.term.coeffs
            c = p.term.constant
            if key in eqs and eqs[key] != c:
                return FALSE
            eqs[key] = c
        else:
            others.append(p)
    parts = []
    for key, c in eqs.items():
        # a.x = -c checks and then subsumes one-sided bounds on the same form
        if key in ges:
            if ges[key] < c:
                return FALSE
            del ges[key]
        neg_key = tuple((n, -a) for n, a in key)
        if neg_key in ges:
            if ges[neg_key] < -c:
                return FALSE
            del ges[neg_key]
        parts.append(Cmp(LinearTerm(key, c), "="))
    for key, c in ges.items():
        parts.append(Cmp(LinearTerm(key, c), ">="))
    parts.extend(others)
    return conj(sorted(parts, key=repr))


def _prune_disj(f):
    """Drop each disjunct that another with the same other atoms implies.

    The disjuncts are simplified, so each holds one bound a.x + c >= 0 per
    form a; q implies p when p has each bound of q with a c at least as
    large.  Only disjuncts with equal other atoms are compared.
    """
    groups = {}
    for p in f.parts:
        bounds, rest = {}, []
        for q in p.parts if isinstance(p, And) else (p,):
            if isinstance(q, Cmp) and q.op == ">=":
                bounds[q.term.coeffs] = q.term.constant
            else:
                rest.append(q)
        groups.setdefault(tuple(rest), []).append((bounds, p))
    parts = []
    for group in groups.values():
        parts += [p for b, p in group if not any(
            w is not b and all(b.get(k, c + 1) <= c for k, c in w.items())
            for w, _ in group)]
    # f's parts are flat, distinct and not constant, so no disj() is needed
    parts.sort(key=repr)
    return Or(tuple(parts)) if len(parts) > 1 else parts[0]


# ---------------------------------------------------------------------------
# parsing


_TOKEN_RE = re.compile(r"\s*(?:(\d+)|([A-Za-z_][A-Za-z_0-9]*)|(<=|>=|[()<>=%&|!.*+-]))")

_RESERVED = {"E", "A"}


def is_name(s):
    """Is s a string the parser reads as one variable NAME?"""
    m = type(s) is str and _TOKEN_RE.fullmatch(s)
    return bool(m) and m.group(2) == s and s not in _RESERVED


def _tokenize(text):
    out = []
    pos = 0
    while pos < len(text):
        m = _TOKEN_RE.match(text, pos)
        if m is None or m.end() == pos:
            stripped = text[pos:].lstrip()
            if not stripped:
                break
            raise FormulaSyntaxError(f"unexpected character {stripped[0]!r}",
                                     len(text) - len(stripped))
        if m.group(1) is not None:
            out.append(("INT", int(m.group(1)), m.start(1)))
        elif m.group(2) is not None:
            out.append(("NAME", m.group(2), m.start(2)))
        else:
            out.append((m.group(3), m.group(3), m.start(3)))
        pos = m.end()
    out.append(("EOF", None, len(text)))
    return out


class _Parser:
    def __init__(self, text):
        self.toks = _tokenize(text)
        self.i = 0
        self.scope = []

    def peek(self):
        return self.toks[self.i]

    def next(self):
        t = self.toks[self.i]
        self.i += 1
        return t

    def expect(self, kind):
        t = self.next()
        if t[0] != kind:
            raise FormulaSyntaxError(f"expected {kind!r}, found {t[1]!r}", t[2])
        return t

    def parse(self):
        f = self.formula()
        t = self.peek()
        if t[0] != "EOF":
            raise FormulaSyntaxError(f"trailing input {t[1]!r}", t[2])
        return f

    def formula(self):
        t = self.peek()
        if t[0] == "NAME" and t[1] in _RESERVED:
            self.next()
            name_tok = self.expect("NAME")
            var = name_tok[1]
            if var in _RESERVED:
                raise FormulaSyntaxError("E and A are reserved words", name_tok[2])
            if var in self.scope:
                raise FormulaSyntaxError(
                    f"variable {var!r} quantified twice in nested scopes", name_tok[2])
            self.expect(".")
            self.scope.append(var)
            body = self.formula()
            self.scope.pop()
            return Exists(var, body) if t[1] == "E" else ForAll(var, body)
        return self.or_expr()

    def or_expr(self):
        parts = [self.and_expr()]
        while self.peek()[0] == "|":
            self.next()
            parts.append(self.and_expr())
        return parts[0] if len(parts) == 1 else Or(tuple(parts))

    def and_expr(self):
        parts = [self.not_expr()]
        while self.peek()[0] == "&":
            self.next()
            parts.append(self.not_expr())
        return parts[0] if len(parts) == 1 else And(tuple(parts))

    def not_expr(self):
        t = self.peek()
        if t[0] == "NAME" and t[1] in _RESERVED:
            # quantifier as an operand; its body still extends maximally right
            return self.formula()
        if t[0] == "!":
            self.next()
            return neg(self.not_expr())
        if t[0] == "(":
            self.next()
            f = self.formula()
            self.expect(")")
            return f
        return self.atom()

    def atom(self):
        lhs = self.term()
        t = self.next()
        if t[0] == "%":
            mod_tok = self.expect("INT")
            if mod_tok[1] < 1:
                raise FormulaSyntaxError("modulus must be >= 1", mod_tok[2])
            self.expect("=")
            rhs = self.term()
            return congruence(lhs - rhs, mod_tok[1], 0)
        if t[0] in ("<", "<=", "=", ">=", ">"):
            rhs = self.term()
            if t[0] == "<":
                return cmp_ge(rhs - lhs - LinearTerm.const(1))
            if t[0] == "<=":
                return cmp_ge(rhs - lhs)
            if t[0] == "=":
                return cmp_eq(lhs - rhs)
            if t[0] == ">=":
                return cmp_ge(lhs - rhs)
            return cmp_ge(lhs - rhs - LinearTerm.const(1))
        raise FormulaSyntaxError(f"expected a comparison, found {t[1]!r}", t[2])

    def term(self):
        t = self.peek()
        if t[0] == "-":
            self.next()
            acc = -self.factor()
        else:
            acc = self.factor()
        while self.peek()[0] in ("+", "-"):
            op = self.next()[0]
            nxt = self.factor()
            acc = acc + nxt if op == "+" else acc - nxt
        return acc

    def factor(self):
        t = self.next()
        if t[0] == "INT":
            if self.peek()[0] == "*":
                self.next()
                name_tok = self.expect("NAME")
                if name_tok[1] in _RESERVED:
                    raise FormulaSyntaxError("E and A are reserved words", name_tok[2])
                return LinearTerm(((name_tok[1], t[1]),), 0) if t[1] else LinearTerm.const(0)
            return LinearTerm.const(t[1])
        if t[0] == "NAME":
            if t[1] in _RESERVED:
                raise FormulaSyntaxError("E and A are reserved words", t[2])
            return LinearTerm.var(t[1])
        raise FormulaSyntaxError(f"expected a term, found {t[1]!r}", t[2])


def parse(text):
    """Parse formula text; raises FormulaSyntaxError on bad input."""
    return _Parser(text).parse()


# ---------------------------------------------------------------------------
# printing


def _format_term_side(items, const):
    """Render a list of (name, positive coeff) plus a nonnegative constant."""
    chunks = []
    for name, c in items:
        chunks.append(name if c == 1 else f"{c}*{name}")
    if const or not chunks:
        chunks.append(str(const))
    return " + ".join(chunks)


def _format_cmp(a):
    t = a.term
    left = [(n, c) for n, c in t.coeffs if c > 0]
    right = [(n, -c) for n, c in t.coeffs if c < 0]
    lc = t.constant if t.constant > 0 else 0
    rc = -t.constant if t.constant < 0 else 0
    op = ">=" if a.op == ">=" else "="
    return f"{_format_term_side(left, lc)} {op} {_format_term_side(right, rc)}"


def _format_congruence(a, prec):
    # one congruence per residue, joined as an Or would be
    side = _format_term_side(a.term.coeffs, 0)
    s = " | ".join(f"{side} % {a.modulus} = {r}" for r in a.residues)
    return f"({s})" if prec > 2 and len(a.residues) > 1 else s


def format_formula(f):
    """Render a formula in the concrete syntax accepted by parse()."""
    return _fmt(f, 0)


def _fmt(f, prec):
    # precedence levels: 0 quantifier, 1 or, 2 and, 3 not/atom
    if isinstance(f, Cmp):
        return _format_cmp(f)
    if isinstance(f, Congruence):
        return _format_congruence(f, prec)
    if isinstance(f, (Exists, ForAll)):
        q = "E" if isinstance(f, Exists) else "A"
        s = f"{q} {f.var}. {_fmt(f.body, 0)}"
        return f"({s})" if prec > 0 else s
    if isinstance(f, Or):
        s = " | ".join(_fmt(p, 2) for p in f.parts)
        return f"({s})" if prec > 1 else s
    if isinstance(f, And):
        s = " & ".join(_fmt(p, 3) for p in f.parts)
        return f"({s})" if prec > 2 else s
    if isinstance(f, Not):
        if isinstance(f.inner, Cmp):
            return f"!{_fmt(f.inner, 3)}"
        return f"!({_fmt(f.inner, 0)})"
    raise TypeError(f"not a formula: {f!r}")


def atoms_of(f):
    """All atoms of a formula, in first-occurrence order."""
    out = []
    seen = set()

    def collect(g):
        if isinstance(g, (Cmp, Congruence)):
            if g not in seen:
                seen.add(g)
                out.append(g)
        elif isinstance(g, (And, Or)):
            for p in g.parts:
                collect(p)
        elif isinstance(g, Not):
            collect(g.inner)
        elif isinstance(g, (Exists, ForAll)):
            collect(g.body)
        else:
            raise TypeError(f"not a formula: {g!r}")

    collect(f)
    return out
