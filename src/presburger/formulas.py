"""Extended Presburger formulas over the naturals.

Terms are integral linear forms.  Atoms are comparisons (kept in the
normalized shapes ``term >= 0`` and ``term = 0``) and congruences
``term = r (mod m)``.  Formulas add and/or/not, E (exists) and A (forall);
all variables range over N.

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
from dataclasses import dataclass
from math import gcd


class FormulaSyntaxError(ValueError):
    """Raised on malformed formula text; carries the offending position."""

    def __init__(self, message, pos):
        super().__init__(f"{message} (at position {pos})")
        self.pos = pos


# ---------------------------------------------------------------------------
# linear terms


@dataclass(frozen=True)
class LinearTerm:
    """Integral linear form sum(coeff * var) + constant.

    coeffs is a tuple of (name, coeff) pairs sorted by name with no zero
    coefficients, which makes equal terms structurally equal.
    """

    coeffs: tuple
    constant: int = 0

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

    def drop_constant(self):
        return LinearTerm(self.coeffs, 0)

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


@dataclass(frozen=True)
class Cmp:
    """Atom ``term >= 0`` (op ">=") or ``term = 0`` (op "=")."""

    term: LinearTerm
    op: str


@dataclass(frozen=True)
class Congruence:
    """Atom ``term = residue (mod modulus)``; term carries no constant."""

    term: LinearTerm
    modulus: int
    residue: int


@dataclass(frozen=True)
class And:
    parts: tuple


@dataclass(frozen=True)
class Or:
    parts: tuple


@dataclass(frozen=True)
class Not:
    inner: object


@dataclass(frozen=True)
class Exists:
    var: str
    body: object


@dataclass(frozen=True)
class ForAll:
    var: str
    body: object


TRUE = Cmp(LinearTerm((), 0), "=")
FALSE = Cmp(LinearTerm((), -1), "=")


def is_true(f):
    return f == TRUE


def is_false(f):
    return f == FALSE


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
    """Formula for term = residue (mod modulus), fully reduced."""
    if modulus < 1:
        raise ValueError("modulus must be positive")
    residue = (residue - term.constant) % modulus
    coeffs = {n: c % modulus for n, c in term.coeffs}
    coeffs = {n: c for n, c in coeffs.items() if c != 0}
    if not coeffs:
        return TRUE if residue == 0 else FALSE
    g = modulus
    for c in coeffs.values():
        g = gcd(g, c)
    if g > 1:
        if residue % g != 0:
            return FALSE
        coeffs = {n: c // g for n, c in coeffs.items()}
        modulus //= g
        residue //= g
    if modulus == 1:
        return TRUE
    coeffs = {n: c % modulus for n, c in coeffs.items() if c % modulus != 0}
    if not coeffs:
        return TRUE if residue % modulus == 0 else FALSE
    return Congruence(LinearTerm.of(coeffs, 0), modulus, residue % modulus)


def conj(parts):
    out = []
    seen = set()
    for p in parts:
        if is_false(p):
            return FALSE
        if is_true(p):
            continue
        for q in p.parts if isinstance(p, And) else (p,):
            if q not in seen:
                seen.add(q)
                out.append(q)
    if not out:
        return TRUE
    if len(out) == 1:
        return out[0]
    return And(tuple(out))


def disj(parts):
    out = []
    seen = set()
    for p in parts:
        if is_true(p):
            return TRUE
        if is_false(p):
            continue
        for q in p.parts if isinstance(p, Or) else (p,):
            if q not in seen:
                seen.add(q)
                out.append(q)
    if not out:
        return FALSE
    if len(out) == 1:
        return out[0]
    return Or(tuple(out))


def neg(f):
    if is_true(f):
        return FALSE
    if is_false(f):
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
    """Replace free occurrences of a variable by a term.

    Rejects formulas that quantify over the substituted variable or over a
    variable of the replacement term (no capture at this scale).
    """
    if isinstance(f, Cmp):
        if f.term.coeff(name) == 0:
            return f
        new = f.term.subst(name, term)
        return cmp_ge(new) if f.op == ">=" else cmp_eq(new)
    if isinstance(f, Congruence):
        if f.term.coeff(name) == 0:
            return f
        return congruence(f.term.subst(name, term), f.modulus, f.residue)
    if isinstance(f, And):
        return And(tuple(substitute(p, name, term) for p in f.parts))
    if isinstance(f, Or):
        return Or(tuple(substitute(p, name, term) for p in f.parts))
    if isinstance(f, Not):
        return Not(substitute(f.inner, name, term))
    if isinstance(f, (Exists, ForAll)):
        if f.var == name:
            raise ValueError(f"cannot substitute bound variable {name!r}")
        if f.var in term.variables():
            raise ValueError(f"substitution would capture {f.var!r}")
        body = substitute(f.body, name, term)
        return Exists(f.var, body) if isinstance(f, Exists) else ForAll(f.var, body)
    raise TypeError(f"not a formula: {f!r}")


# ---------------------------------------------------------------------------
# evaluation


def eval_ground(f, env, bound=0):
    """Evaluate with every free variable assigned a natural number.

    Quantifiers range over [0, bound] rather than all of N, which is exact
    whenever `bound` dominates the relevant witnesses.
    """
    v = _eval(f, dict(env), bound, partial=False)
    assert v is not None
    return v


def eval_partial(f, env, bound=0):
    """Three-valued evaluation: True / False / None (undetermined).

    Atoms mentioning unassigned variables evaluate to None; and/or/not use
    Kleene logic.  Used by enumeration oracles to prune search.
    """
    return _eval(f, dict(env), bound, partial=True)


def _eval(f, env, bound, partial):
    if isinstance(f, Cmp):
        try:
            val = f.term.eval(env)
        except KeyError:
            if partial:
                return None
            raise ValueError(f"unassigned free variable in {f!r}")
        return val >= 0 if f.op == ">=" else val == 0
    if isinstance(f, Congruence):
        try:
            val = f.term.eval(env)
        except KeyError:
            if partial:
                return None
            raise ValueError(f"unassigned free variable in {f!r}")
        return val % f.modulus == f.residue
    if isinstance(f, And):
        saw_none = False
        for p in f.parts:
            v = _eval(p, env, bound, partial)
            if v is False:
                return False
            if v is None:
                saw_none = True
        return None if saw_none else True
    if isinstance(f, Or):
        saw_none = False
        for p in f.parts:
            v = _eval(p, env, bound, partial)
            if v is True:
                return True
            if v is None:
                saw_none = True
        return None if saw_none else False
    if isinstance(f, Not):
        v = _eval(f.inner, env, bound, partial)
        return None if v is None else not v
    if isinstance(f, Exists):
        saw_none = False
        for k in range(bound + 1):
            env[f.var] = k
            v = _eval(f.body, env, bound, partial)
            if v is True:
                del env[f.var]
                return True
            if v is None:
                saw_none = True
        del env[f.var]
        return None if saw_none else False
    if isinstance(f, ForAll):
        saw_none = False
        for k in range(bound + 1):
            env[f.var] = k
            v = _eval(f.body, env, bound, partial)
            if v is False:
                del env[f.var]
                return False
            if v is None:
                saw_none = True
        del env[f.var]
        return None if saw_none else True
    raise TypeError(f"not a formula: {f!r}")


# ---------------------------------------------------------------------------
# negation normal form


def nnf(f):
    """Push negations to atoms; the result contains no Not node.

    Negated equalities split into two inequalities, negated congruences
    into the disjunction of the complementary residues.
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
        return disj([Congruence(f.term, f.modulus, r)
                     for r in range(f.modulus) if r != f.residue])
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
        if is_true(body) or is_false(body) or f.var not in free_vars(body):
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
    ges = {}
    others = []
    for p in f.parts:
        if isinstance(p, Cmp) and p.op == ">=":
            key = p.term.coeffs
            c = p.term.constant
            if key not in ges or c > ges[key]:
                ges[key] = c
        else:
            others.append(p)
    parts = [Cmp(LinearTerm(key, c), ">=") for key, c in ges.items()]
    parts.extend(others)
    return disj(sorted(parts, key=repr)) if parts else FALSE


# ---------------------------------------------------------------------------
# parsing


_TOKEN_RE = re.compile(r"\s*(?:(\d+)|([A-Za-z_][A-Za-z_0-9]*)|(<=|>=|[()<>=%&|!.*+-]))")

_RESERVED = {"E", "A"}


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
    if a == TRUE:
        return "0 = 0"
    if a == FALSE:
        return "0 = 1"
    t = a.term
    left = [(n, c) for n, c in t.coeffs if c > 0]
    right = [(n, -c) for n, c in t.coeffs if c < 0]
    lc = t.constant if t.constant > 0 else 0
    rc = -t.constant if t.constant < 0 else 0
    op = ">=" if a.op == ">=" else "="
    return f"{_format_term_side(left, lc)} {op} {_format_term_side(right, rc)}"


def _format_congruence(a):
    return f"{_format_term_side(a.term.coeffs, 0)} % {a.modulus} = {a.residue}"


def format_formula(f):
    """Render a formula in the concrete syntax accepted by parse()."""
    return _fmt(f, 0)


def _fmt(f, prec):
    # precedence levels: 0 quantifier, 1 or, 2 and, 3 not/atom
    if isinstance(f, Cmp):
        return _format_cmp(f)
    if isinstance(f, Congruence):
        return _format_congruence(f)
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
        inner = f.inner
        if isinstance(inner, (Cmp, Congruence)):
            body = _fmt(inner, 3)
            if isinstance(inner, Congruence):
                body = f"({body})"
            return f"!{body}"
        return f"!({_fmt(inner, 0)})"
    raise TypeError(f"not a formula: {f!r}")


def atoms_of(f):
    """All atoms of a formula, in first-occurrence order."""
    out = []

    def collect(g):
        if isinstance(g, (Cmp, Congruence)):
            if g not in out:
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
