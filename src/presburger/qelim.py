"""Quantifier elimination and the decision procedure.

Cooper's method, adapted to variables ranging over N: an existential is
eliminated by conjoining x >= 0, scaling every atom so x appears with
coefficient +-l (l the lcm of its coefficients), and changing variable to
x' = l*x (recorded as x' = 0 mod l).  Call the result phi; x' has
coefficient +-1 in each of its atoms.

Equalities go first, as in Pugh's Omega test: if a top-level conjunct of
phi is an equality x' = b, then E x'. phi is phi[x' := b].  This is exact
because phi itself carries x' >= 0 and x' = 0 (mod l), so the substituted
formula keeps b >= 0 and b = 0 (mod l).  One substitution replaces the
whole case split, which matters most for semigroup-style bodies such as
E u. x = ... + 9*u, where the split would multiply the formula's size.

Otherwise each atom on x' is a lower bound x' >= b (x' >= 0 among
them), an upper bound x' <= a, an equality (both) or a congruence; D is
the lcm of the congruence moduli on x'.

If no congruence mentions x' (so l = 1) and phi is a conjunction of
atoms, Fourier-Motzkin is exact over the integers (the exact shadow of
Pugh's Omega test, CACM 1992): the result is the atoms without x' and
a - b >= 0 for every lower bound b and upper bound a.

Else Cooper's split is taken on the side with fewer branches.  The lower
side is the disjunction over lower candidates b and offsets j in [0, D)
of phi[x' := b + j]; the classic "minus infinity" disjuncts are left
out, since x' >= 0 is a conjunct and each of them is false over N.  The
upper side (Cooper 1972) is phi_+inf[x' := j] and phi[x' := a - j] for
upper candidates a and j in [0, D), with phi_+inf the formula for large
x': each lower bound on x' TRUE, each upper bound and equality FALSE,
congruences kept.  It is exact over N because x' >= 0 is a conjunct of
phi, and it is taken when |upper| + [phi_+inf is not FALSE] < |lower|.
So for a variable with no upper bound, as in E x. x % 7 = 1 & x % 9 = 2
& x >= y, only the congruences of phi_+inf are left to decide.

Each candidate walks phi once (formulas.substitution_plan): its
substitution is done per atom once, and offset j only moves the atoms'
constants before they fold again as in formulas.substitute.  Only live
branches are built: an offset is skipped when a top-level congruence on
x', such as x' = 0 (mod l), that the candidate makes ground fails at
offset j, since that branch would fold to FALSE anyway (by CRT, those
with one residue leave one class J mod M of offsets, and the modulus
limit counts its D / M); and the first branch that folds to TRUE ends
the split, as the disjunction would absorb the rest.

Universals go through the negation dual.  Elimination is innermost-first,
so each step only ever sees a quantifier-free body.
"""

from __future__ import annotations

from math import gcd, lcm

from .formulas import (
    FALSE,
    TRUE,
    And,
    Cmp,
    Congruence,
    Exists,
    ForAll,
    LinearTerm,
    Not,
    Or,
    atoms_of,
    check_modulus,
    cmp_eq,
    cmp_ge,
    congruence,
    conj,
    disj,
    eval_ground,
    free_vars,
    is_quantifier_free,
    neg,
    nnf,
    simplify,
    substitute,
    substitution_plan,
)


def _fresh_name(base, taken):
    name = base + "_s"
    while name in taken:
        name += "_"
    return name


def _map_atoms(f, fn):
    """Rebuild a quantifier-free, negation-free formula atom by atom."""
    if isinstance(f, (Cmp, Congruence)):
        return fn(f)
    if isinstance(f, And):
        return conj([_map_atoms(p, fn) for p in f.parts])
    if isinstance(f, Or):
        return disj([_map_atoms(p, fn) for p in f.parts])
    raise TypeError(f"expected nnf quantifier-free formula, got {f!r}")


def _replace_scaled_var(term, var, fresh):
    """Swap the monomial (+-l)*var for (+-1)*fresh; term must contain var."""
    c = term.coeff(var)
    d = dict(term.coeffs)
    del d[var]
    d[fresh] = 1 if c > 0 else -1
    return LinearTerm.of(d, term.constant)


def _at_plus_infinity(a, fresh):
    """Atom a for fresh large enough: a lower bound holds, an upper bound
    or an equality fails, and a congruence stays."""
    c = a.term.coeff(fresh)
    if c == 0 or isinstance(a, Congruence):
        return a
    return TRUE if a.op == ">=" and c > 0 else FALSE


def _root(term, fresh):
    """b with term = 0 <=> fresh = b; term has coefficient +-1 on fresh."""
    rest = LinearTerm(tuple((n, v) for n, v in term.coeffs if n != fresh),
                      term.constant)
    return rest if term.coeff(fresh) < 0 else -rest


def _offsets(congruences):
    """(J, M) with 0 <= J < M such that step * j = r (mod m) for every
    (step, r, m) given exactly when j = J (mod M), or None if no j does:
    with j = J + M k so far, the next one is (step M) k = r - step J
    (mod m), solved by one gcd and one modular inverse."""
    J, M = 0, 1
    for step, r, m in congruences:
        a, b = step * M, r - step * J
        g = gcd(a, m)
        if b % g:
            return None
        m //= g
        J, M = J + M * (b // g * pow(a // g, -1, m) % m), M * m
    return J, M


def eliminate_exists(var, body):
    """Quantifier-free formula equivalent over N to E var. body (body QF)."""
    work = nnf(conj([body, cmp_ge(LinearTerm.var(var))]))
    var_atoms = [a for a in atoms_of(work) if a.term.coeff(var) != 0]
    if not var_atoms:
        # var is constrained only by var >= 0, which 0 satisfies
        return simplify(work)

    l = 1
    for a in var_atoms:
        l = lcm(l, abs(a.term.coeff(var)))
    fresh = _fresh_name(var, free_vars(body) | {var})

    def rescale(a):
        c = a.term.coeff(var)
        if c == 0:
            return a
        if isinstance(a, Congruence):
            k = l // c  # congruence coefficients are reduced mod m, so c > 0
            t = _replace_scaled_var(a.term.scale(k), var, fresh)
            return congruence(t, k * a.modulus, [k * r for r in a.residues])
        k = l // abs(c)
        t = _replace_scaled_var(a.term.scale(k), var, fresh)
        return cmp_ge(t) if a.op == ">=" else cmp_eq(t)

    shifted = conj([_map_atoms(work, rescale),
                    congruence(LinearTerm.var(fresh), l, 0)])
    if shifted is FALSE:
        return FALSE

    tops = shifted.parts if isinstance(shifted, And) else (shifted,)
    for a in tops:
        if isinstance(a, Cmp) and a.op == "=" and a.term.coeff(fresh) != 0:
            # the equality shortcut of the module docstring
            return simplify(substitute(shifted, fresh, _root(a.term, fresh)))

    modulus = 1
    lower, upper = [], []  # candidates b of fresh >= b and a of fresh <= a
    for a in atoms_of(shifted):
        c = a.term.coeff(fresh)
        if c == 0:
            continue
        if isinstance(a, Congruence):
            modulus = lcm(modulus, a.modulus)
            continue
        b = _root(a.term, fresh)  # fresh = b, fresh >= b or fresh <= b
        for side, on_side in ((lower, c > 0), (upper, c < 0)):
            if (on_side or a.op == "=") and b not in side:
                side.append(b)

    if modulus == 1 and not any(isinstance(a, (And, Or)) for a in tops):
        # the exact shadow; modulus 1 also means l = 1, or the congruence
        # fresh = 0 (mod l) would be there
        rest = [a for a in tops if a.term.coeff(fresh) == 0]
        return simplify(conj(rest + [cmp_ge(a - b) for b in lower
                                     for a in upper]))

    at_inf = FALSE
    if len(upper) < len(lower):
        at_inf = _map_atoms(shifted, lambda a: _at_plus_infinity(a, fresh))
    if len(upper) + (at_inf is not FALSE) < len(lower):
        # the upper side: phi_+inf[fresh := j] and phi[fresh := a - j]
        sides = [] if at_inf is FALSE else [(at_inf, LinearTerm.const(0), 1)]
        sides += [(shifted, a, -1) for a in upper]
    else:
        sides = [(shifted, b, 1) for b in lower]

    congs = [(a.term, a.term.coeff(fresh), a.modulus, set(a.residues))
             for a in tops if isinstance(a, Congruence)]
    branches = []
    for f, b, sign in sides:
        plan = substitution_plan(f, fresh, b)
        # a top-level congruence that fresh := b makes ground holds at
        # offset j iff (c + sign * step * j) % m is a residue, c its
        # constant at b; an offset that fails one would give a FALSE branch
        ground = [(t.constant, sign * step, m, rs)
                  for term, step, m, rs in congs
                  for t in [term.subst(fresh, b)]
                  if all(c % m == 0 for _, c in t.coeffs)]
        # the one-residue ones hold together exactly on j = J (mod M)
        crt = _offsets([(step, r - c, m) for c, step, m, rs in ground
                        if len(rs) == 1 for r in rs])
        if crt is None:
            continue
        J, M = crt
        check_modulus(modulus // M, "Cooper elimination")
        ground = [x for x in ground if len(x[3]) > 1]
        for j in range(J, modulus, M):
            if all((c + step * j) % m in rs for c, step, m, rs in ground):
                g = plan(sign * j)
                if g is TRUE:
                    return TRUE  # disj would absorb every other branch
                branches.append(g)
    return simplify(disj(branches))


def qelim(f):
    """Eliminate every quantifier; the result is an equivalent QF formula."""
    if is_quantifier_free(f):
        return f
    if isinstance(f, And):
        return conj([qelim(p) for p in f.parts])
    if isinstance(f, Or):
        return disj([qelim(p) for p in f.parts])
    if isinstance(f, Not):
        return neg(qelim(f.inner))
    if isinstance(f, Exists):
        return eliminate_exists(f.var, qelim(f.body))
    if isinstance(f, ForAll):
        body = qelim(f.body)
        return simplify(nnf(neg(eliminate_exists(f.var, nnf(neg(body))))))
    raise TypeError(f"not a formula: {f!r}")


def decide(f):
    """Truth value of a closed formula over N."""
    fv = free_vars(f)
    if fv:
        raise ValueError(f"formula has free variables: {sorted(fv)}")
    g = qelim(f)
    # not an input check: qelim raises TypeError on anything but a formula,
    # and every branch of it returns a quantifier-free one
    assert is_quantifier_free(g)
    return eval_ground(g, {})
