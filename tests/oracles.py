"""Shared brute-force oracles for the test suite."""

import itertools
from fractions import Fraction

from presburger.formulas import (
    Cmp,
    LinearTerm,
    atoms_of,
    eval_partial,
    simplify,
    substitute,
)


def count_solutions(formula, param, p0, counted):
    """Enumerate satisfying assignments of the counted variables directly.

    Bounds for each counted variable are read off the single-variable
    atoms after substituting the parameter, so the search space stays
    small; eval_partial prunes dead branches early.
    """
    g = simplify(substitute(formula, param, LinearTerm.const(p0)))
    caps = {v: 0 for v in counted}
    for a in atoms_of(g):
        if not isinstance(a, Cmp):
            continue
        t = a.term
        if len(t.coeffs) != 1:
            continue
        name, c = t.coeffs[0]
        if name not in caps:
            continue
        if a.op == ">=" and c < 0:
            caps[name] = max(caps[name], t.constant // -c)
        elif a.op != ">=" and -t.constant % c == 0 and -t.constant // c >= 0:
            caps[name] = max(caps[name], -t.constant // c)

    total = 0
    env = {param: p0}

    def rec(i):
        nonlocal total
        v = eval_partial(g, env)
        if v is False:
            return
        if i == len(counted):
            if v is True:
                total += 1
            return
        name = counted[i]
        for x in range(caps[name] + 1):
            env[name] = x
            rec(i + 1)
        del env[name]

    rec(0)
    return total


def partition_count(gens, p):
    """#{lam in NN^d : sum lam_i a_i = p} by direct bounded search over
    nonnegative generators."""
    gens = [tuple(g) for g in gens]
    n = len(p)

    def rec(i, rest):
        if i == len(gens):
            return 1 if all(c == 0 for c in rest) else 0
        a = gens[i]
        cap = min(rest[c] // a[c] for c in range(n) if a[c])
        total = 0
        for k in range(cap + 1):
            total += rec(i + 1, tuple(r - k * ac for r, ac in zip(rest, a)))
        return total

    if any(c < 0 for c in p):
        return 0
    return rec(0, tuple(p))


def series_oracle(g, bound, K):
    """Series coefficients of g on [0, bound]^dim by expanding every term
    coef * x^numer / prod_j (1 - x^b_j) over all k in [0, K]^J.

    Exact whenever no k_j above K reaches the box."""
    out = {}
    for t in g.terms:
        for ks in itertools.product(range(K + 1), repeat=len(t.denom)):
            e = list(t.numer)
            for k, b in zip(ks, t.denom):
                e = [x + k * y for x, y in zip(e, b)]
            if all(0 <= x <= bound for x in e):
                out[tuple(e)] = out.get(tuple(e), Fraction(0)) + t.coef
    return {k: v for k, v in out.items() if v != 0}
