"""Seeded query lists for the three benchmark workloads.

A query is a CLI argument vector for `presburger.cli.main`, the check
that bench/oracles.py applies to its answer, and optionally the index of
an earlier query whose stdout it reads on stdin.  The program sees only
the argument vectors.

Every workload is a fixed list of slots, each a query family over a fixed
pool of sizes (coefficients, generators, dimension) that reaches the slow
regime the family is there to measure.  The seed picks what does not
change the amount of work much: bounds, residues, moduli within a narrow
band, names of bound variables, the order of coefficients where it does
not matter, and the points the oracle checks.  So each seed gives
different inputs while a workload's cost and answer size stay nearly the
same from seed to seed.  Each workload has QUERIES queries, so the tail
percentile is the same for every seed.
"""

import random
from dataclasses import dataclass

QUERIES = 50


@dataclass(frozen=True)
class Query:
    argv: tuple
    check: tuple
    stdin_from: int = -1  # index of the query whose stdout is piped in
    expect_rc: int = 0


# ---------------------------------------------------------------------------
# decide_dnf: Cooper elimination, formula rewriting and the many small
# Fourier-Motzkin feasibility tests of to_dnf; no generating functions.

# Frobenius pairs (a, b), from quick ones to the slow regime.
FROBENIUS = [(3, 4), (3, 5), (4, 5), (3, 7), (4, 7), (5, 6), (4, 9), (5, 11)]
SEMIGROUP_CELLS = [(2, 5), (3, 5), (4, 5)]
SEMIGROUP_QELIM = [(3, 4, 5), (4, 5, 6), (4, 6, 9)]
ALTERNATION_A = (2, 3, 4, 5)
BOUND_NAMES = "abcdfghjkmnpqrstuvyz"


def _bound_names(rng, k):
    # renaming bound variables changes no work; the order of coefficients,
    # quantifiers and disjuncts can change it several-fold, so those stay
    return rng.sample(BOUND_NAMES, k)


def _decide_dnf(rng):
    out = []
    for a, b in FROBENIUS:
        x, y, z = _bound_names(rng, 3)
        g = a * b - a - b
        for threshold in (g, g - 1):
            out.append(Query(
                ("decide", f"A {x}. ({x} <= {threshold} | E {y}. E {z}. "
                           f"{x} = {a}*{y} + {b}*{z})"),
                ("frobenius", a, b, threshold)))
    for a, b in SEMIGROUP_CELLS:
        y, z = _bound_names(rng, 2)
        bound = a * b + 2 * max(a, b)
        out.append(Query(
            ("dnf", f"E {y}. E {z}. x = {a}*{y} + {b}*{z}", "--format",
             "json"),
            ("semigroup_cells", ("x",), (a, b), bound)))
    for gens in SEMIGROUP_QELIM:
        names = _bound_names(rng, 3)
        body = " + ".join(f"{g}*{v}" for g, v in zip(gens, names))
        prefix = " ".join(f"E {v}." for v in names)
        out.append(Query(
            ("qelim", f"{prefix} x = {body}"),
            ("semigroup_formula", ("x",), gens, 3 * max(gens) ** 2)))
    for a in ALTERNATION_A:
        for b in rng.sample(range(1, 6), 2):
            y, z = _bound_names(rng, 2)
            text = f"A {y}. ({y} >= x | E {z}. {a}*{z} + {y} = {b}*x + w)"
            bound = 2 * a + 4
            out.append(Query(("qelim", text),
                             ("alternation_formula", ("w", "x"), a, b,
                              bound)))
            out.append(Query(("dnf", text, "--format", "json"),
                             ("alternation_cells", ("w", "x"), a, b, bound)))
    for _ in range(6):
        m = rng.randint(190, 210)
        r = rng.randrange(m)
        # the excluded residue class, its neighbours, and a stretch of others
        points = sorted({(x,) for k in range(3) for x in
                         range(max(r + k * m - 2, 0), r + k * m + 3)}
                        | {(x,) for x in range(30)})
        out.append(Query(
            ("dnf", f"!(x % {m} = {r})", "--format", "json"),
            ("congruence_cells", ("x",), (((1,), m, r, True),),
             tuple(points))))
    for _ in range(6):
        m = rng.randint(95, 105)
        r = rng.randrange(m)
        points = sorted({(x, y) for x in range(8) for y in range(8)}
                        | {(r + k * m - 2 * y + dx, y) for k in range(2)
                           for y in range(4) for dx in (-1, 0, 1)
                           if r + k * m - 2 * y + dx >= 0})
        out.append(Query(
            ("dnf", f"!(x + 2*y % {m} = {r})", "--format", "json"),
            ("congruence_cells", ("x", "y"), (((1, 2), m, r, True),),
             tuple(points))))
    return out


# ---------------------------------------------------------------------------
# knapsack_gf: Brion cones with large parallelepipeds and full
# specialization at 1; polyhedra see only 3 or 4 rows.

KNAPSACK_GF_SMALL = [(5, 7, 9), (5, 7, 11), (6, 7, 11), (5, 9, 13),
                     (7, 9, 11)]
KNAPSACK_GF_LARGE = [(13, 17, 19), (11, 17, 19)]
KNAPSACK_GF_4D = [(2, 3, 5, 7), (3, 4, 5, 7), (4, 5, 6, 7)]
KNAPSACK_VALUE_TINY = [(2, 3, 7), (2, 5, 7), (3, 4, 7), (3, 5, 7), (4, 5, 7)]
KNAPSACK_VALUE_SMALL = [(5, 7, 9), (5, 7, 11), (5, 9, 13), (6, 7, 11)]
# the large-coefficient 4-d regime of the ROADMAP table
KNAPSACK_VALUE_4D = [(5, 7, 9, 11)]


def _knapsack_text(coeffs, bound):
    names = "xyzw"[:len(coeffs)]
    return " + ".join(f"{a}*{v}" for a, v in zip(coeffs, names)) + \
        f" <= {bound}"


def _gf_query(rng, coeffs, spread):
    coeffs = tuple(rng.sample(coeffs, len(coeffs)))
    bound = rng.randint(spread[0] * max(coeffs), spread[1] * max(coeffs))
    # evaluation points for the generating-function check, sorted-name order
    names = "xyzw"[:len(coeffs)]
    order = sorted(range(len(coeffs)), key=lambda i: names[i])
    points = [tuple(rng.randint(2, 10 ** 6) for _ in coeffs)
              for _ in range(2)]
    return Query(("genfun", _knapsack_text(coeffs, bound), "--format",
                  "json"),
                 ("knapsack_gf", tuple(coeffs[i] for i in order), bound,
                  tuple(points)))


def _value_query(rng, coeffs, spread):
    coeffs = tuple(rng.sample(coeffs, len(coeffs)))
    bound = rng.randint(spread[0] * max(coeffs), spread[1] * max(coeffs))
    names = ",".join(sorted("xyzw"[:len(coeffs)]))
    return Query(("count", _knapsack_text(coeffs, bound), "--count-vars",
                  names, "--as", "value"),
                 ("knapsack_value", coeffs, bound))


def _knapsack_gf(rng):
    out = []
    # The large and 4-d generating functions and the small and 4-d value
    # counts are the 15 slowest queries, so the p80 tail (rank 40 of 50)
    # falls inside a group of like queries, not at a group boundary.
    for coeffs in KNAPSACK_GF_SMALL * 3 + KNAPSACK_GF_LARGE * 2:
        out.append(_gf_query(rng, coeffs, (5, 7)))
    for coeffs in KNAPSACK_GF_4D * 2:
        out.append(_gf_query(rng, coeffs, (3, 5)))
    for coeffs in KNAPSACK_VALUE_TINY * 4 + KNAPSACK_VALUE_SMALL:
        out.append(_value_query(rng, coeffs, (5, 7)))
    for coeffs in KNAPSACK_VALUE_4D:
        out.append(_value_query(rng, coeffs, (8, 10)))
    return out


# ---------------------------------------------------------------------------
# param_count: vertex and extreme-ray enumeration on chain cones, partial
# specialization, and the quasi-polynomial conversions.

KNAPSACK_PARAM = [((4, 5, 7), "qp"), ((5, 6, 7), "qp"), ((3, 7, 8), "step"),
                  ((4, 5, 9), "value")]
KNAPSACK_2D = [((1, 2), "qp"), ((2, 3), "qp"), ((3, 4), "step"),
               ((2, 5), "step"), ((3, 5), "value"), ((4, 5), "value")]
VPF_2D_SMALL = [((1, 0), (0, 1), (1, 1)), ((2, 0), (0, 1), (1, 1)),
                ((1, 0), (0, 2), (1, 1)), ((1, 0), (0, 1), (1, 2))]
VPF_2D_LARGE = [((1, 0), (0, 1), (1, 1), (1, 2))]
VPF_1D = [(2, 3, 5, 7), (1, 2, 3), (2, 3, 5), (1, 3, 4), (2, 5, 7)]
CONGRUENCE_MODULI = [(2, 3), (3, 5), (4, 3), (2, 5), (3, 3)]


def _count_argv(formula, counted, form, at=None):
    argv = ["count", formula, "--count-vars", ",".join(counted),
            "--param-vars", "p", "--as", form]
    if form == "value":
        argv += ["--at", str(at)]
    else:
        argv += ["--format", "json"]
    return tuple(argv)


def _param_query(rng, formula, counted, form, counter, args, top):
    points = sorted(rng.sample(range(top + 1), 4))
    if form == "value":
        points = points[-1:]
    return Query(_count_argv(formula, counted, form, points[-1]),
                 ("param", form, counter, args, tuple(points)))


def _chain(k):
    xs = [f"x{i}" for i in range(k)]
    parts = [" + ".join(xs) + " <= p"]
    parts += [f"{xs[i]} <= {xs[i + 1]}" for i in range(k - 1)]
    parts += [f"{x} >= 0" for x in xs]  # redundant orthant rows
    return " & ".join(parts), xs


def _param_count(rng):
    out = []
    for k, forms in ((6, ("qp",)), (5, ("qp", "step")),
                     (4, ("qp", "step", "value"))):
        formula, xs = _chain(k)
        for form in forms:
            out.append(_param_query(rng, formula, xs, form, "chain", (k,),
                                    24))
    for coeffs, form in KNAPSACK_PARAM:
        coeffs = tuple(rng.sample(coeffs, 3))
        formula = " + ".join(f"{a}*{v}" for a, v in zip(coeffs, "xyz")) + \
            " <= p"
        out.append(_param_query(rng, formula, "xyz", form, "knapsack",
                                (coeffs,), 60))
    for (m1, m2), form in zip(CONGRUENCE_MODULI * 3, ("qp", "step") * 8):
        r1, r2 = rng.randrange(m1), rng.randrange(m2)
        formula = f"x + y + z <= p & x % {m1} = {r1} & y + z % {m2} = {r2}"
        out.append(_param_query(rng, formula, "xyz", form, "congruence",
                                (m1, r1, m2, r2), 16))
    for gens in VPF_2D_LARGE + VPF_2D_SMALL * 2:
        gens = rng.sample(gens, len(gens))
        if rng.random() < 0.5:
            gens = [(g[1], g[0]) for g in gens]
        spec = ";".join(",".join(str(c) for c in g) for g in gens)
        targets = tuple(tuple(rng.randint(0, 14) for _ in range(2))
                        for _ in range(4))
        out.append(Query(("vpf", spec, "--as", "qp", "--format", "json"),
                         ("vpf", tuple(gens), targets)))
    for gens in VPF_1D:
        gens = rng.sample(gens, len(gens))
        targets = tuple((t,) for t in rng.sample(range(40), 4))
        out.append(Query(("vpf", ";".join(map(str, gens)), "--as", "qp",
                          "--format", "json"),
                         ("vpf", tuple((g,) for g in gens), targets)))
    for coeffs, form in KNAPSACK_2D:
        coeffs = tuple(rng.sample(coeffs, 2))
        formula = f"{coeffs[0]}*x + {coeffs[1]}*y <= p"
        out.append(_param_query(rng, formula, "xy", form, "knapsack",
                                (coeffs,), 60))
    for c in rng.sample(range(4), 2):
        # counting the synthesized formula costs seconds, so the period
        # stays at 2
        formula = f"2*x + {c} <= p"
        out.append(_param_query(rng, formula, "x", "qp", "linear", (2, c),
                                30))
        points = tuple(sorted(rng.sample(range(14), 4)))
        out.append(Query(("synth", "-", "--format", "json"),
                         ("synth", "linear", (2, c), points),
                         stdin_from=len(out) - 1))
    out.append(Query(_count_argv("x >= p", "x", "value", 3),
                     ("infinite",), expect_rc=3))
    return out


WORKLOADS = {
    "decide_dnf": _decide_dnf,
    "knapsack_gf": _knapsack_gf,
    "param_count": _param_count,
}


def generate(workload, seed):
    """The query list of a workload for a seed; equal seeds, equal lists."""
    rng = random.Random(f"{workload}/{seed}")
    queries = WORKLOADS[workload](rng)
    if len(queries) != QUERIES:
        raise AssertionError(f"{workload} has {len(queries)} queries, "
                             f"expected {QUERIES}")
    return queries
