"""Disjoint cell decompositions of Presburger-definable subsets of N^d.

A cell is a rational polyhedron intersected with a full-rank lattice coset;
a SemilinearSet is a finite disjoint union of cells over a fixed variable
order.  to_dnf eliminates quantifiers first, then runs a Shannon expansion
on the residual formula: a branch splits on one atom its formula still
needs (residue classes for a congruence group, three ways for an equality
(= 0, >= 1, <= -1), two for an inequality), folds the decided atoms to
TRUE/FALSE, and stops when the formula is decided.  Distinct branches
disagree on some split, so the produced cells are disjoint by construction.
"""

from __future__ import annotations

from dataclasses import dataclass

from .formulas import (
    FALSE,
    TRUE,
    And,
    Cmp,
    Congruence,
    LinearTerm,
    Or,
    atoms_of,
    cmp_eq,
    cmp_ge,
    congruence,
    conj,
    disj,
    free_vars,
    nnf,
    simplify,
)
from .lattices import (
    congruence_coset,
    congruences_of_coset,
    coset_intersect,
    full_coset,
    mat_vec,
    solve_int,
    vneg,
    vsub,
)
from .polyhedra import Polyhedron, is_feasible, nonneg_orthant
from .qelim import qelim


@dataclass(frozen=True)
class SemilinearCell:
    polyhedron: Polyhedron
    coset: object  # LatticeCoset

    def contains(self, point):
        return self.polyhedron.contains(point) and self.coset.contains(point)


@dataclass(frozen=True)
class SemilinearSet:
    names: tuple
    cells: tuple

    @property
    def dim(self):
        return len(self.names)

    def contains(self, point):
        return any(cell.contains(point) for cell in self.cells)


def _term_row(term, index, d):
    a = [0] * d
    for n, c in term.coeffs:
        if n not in index:
            raise ValueError(f"variable {n!r} not among {tuple(index)}")
        a[index[n]] = c
    return tuple(a), term.constant


def _assign(h, value):
    """h with each atom in value replaced by TRUE/FALSE, folded."""
    if isinstance(h, (Cmp, Congruence)):
        v = value.get(h)
        return h if v is None else TRUE if v else FALSE
    if isinstance(h, And):
        stop, skip = FALSE, TRUE
    elif isinstance(h, Or):
        stop, skip = TRUE, FALSE
    else:
        raise TypeError(f"unexpected node {h!r}")
    parts = []
    for p in h.parts:
        q = _assign(p, value)
        if q is stop:
            return stop
        if q is not skip:
            parts.append(q)
    if not parts:
        return skip
    if len(parts) == 1:
        return parts[0]
    return type(h)(tuple(parts))


def to_dnf(f, names=None):
    """Decompose the solution set of f over N^names into disjoint cells."""
    if names is None:
        names = tuple(sorted(free_vars(f)))
    else:
        names = tuple(names)
        if not free_vars(f) <= set(names):
            raise ValueError(
                f"free variables {sorted(free_vars(f) - set(names))} missing "
                f"from {names}")
    g = simplify(nnf(qelim(f)))
    d = len(names)
    index = {n: i for i, n in enumerate(names)}
    orthant = list(nonneg_orthant(d).ineqs)

    groups = {}
    cmps = []
    for a in atoms_of(g):
        if isinstance(a, Congruence):
            coeffs, c = _term_row(a.term, index, d)
            assert c == 0
            groups.setdefault((coeffs, a.modulus), []).append(a)
        else:
            cmps.append(a)
    # split order: congruence groups by key, then equalities, then
    # inequalities; a branch splits on the first one its residual still needs
    cmps.sort(key=lambda a: a.op != "=")
    order = sorted(groups.items()) + [(None, [a]) for a in cmps]
    rank = {a: i for i, (_, atoms) in enumerate(order) for a in atoms}
    cells = []

    def feasible(ineqs, eqs):
        return is_feasible(Polyhedron.of(d, ineqs + orthant, eqs))

    def eqs_solvable_on_coset(poly, coset):
        # equality rows restricted to x = rep + B z must have an integer z
        if not poly.eqs:
            return True
        rows = [a for a, _ in poly.eqs]
        basis = coset.lattice.basis_matrix()
        M = tuple(tuple(sum(a[i] * basis[i][j] for i in range(d))
                        for j in range(d)) for a in rows)
        rhs = vsub(tuple(b for _, b in poly.eqs), mat_vec(rows, coset.rep))
        return solve_int(M, rhs) is not None

    def split(h, ineqs, eqs, coset):
        # h: g with the atoms decided on this branch folded away
        if h is FALSE:
            return
        if h is TRUE:
            poly = Polyhedron.of(d, ineqs + orthant, eqs)
            if eqs_solvable_on_coset(poly, coset):
                cells.append(SemilinearCell(poly, coset))
            return
        key, atoms = order[min(map(rank.__getitem__, atoms_of(h)))]
        if key is not None:
            coeffs, modulus = key
            value = dict.fromkeys(atoms, False)
            by_residue = {}
            for a in atoms:
                by_residue.setdefault(a.residue, []).append(a)
            for rho in range(modulus):
                refined = coset_intersect(
                    coset, congruence_coset(coeffs, rho, modulus, d))
                if refined is None:
                    continue
                hits = by_residue.get(rho, ())
                for a in hits:
                    value[a] = True
                split(_assign(h, value), ineqs, eqs, refined)
                for a in hits:
                    value[a] = False
            return
        atom = atoms[0]
        a, c = _term_row(atom.term, index, d)
        if atom.op == "=":
            choices = (
                (True, [], [(a, -c)]),
                (False, [(a, 1 - c)], []),
                (False, [(vneg(a), c + 1)], []),
            )
        else:
            choices = ((True, [(a, -c)], []), (False, [(vneg(a), c + 1)], []))
        for value, add_ineq, add_eq in choices:
            if feasible(ineqs + add_ineq, eqs + add_eq):
                split(_assign(h, {atom: value}), ineqs + add_ineq,
                      eqs + add_eq, coset)

    split(g, [], [], full_coset(d))
    return SemilinearSet(names, tuple(cells))


def formula_from_semilinear(s):
    """Quantifier-free formula whose N^d solution set is exactly s."""
    parts = []
    for cell in s.cells:
        lits = []
        for a, b in cell.polyhedron.eqs:
            term = LinearTerm.of(
                {n: a[i] for i, n in enumerate(s.names)}, -b)
            lits.append(cmp_eq(term))
        for a, b in cell.polyhedron.ineqs:
            term = LinearTerm.of(
                {n: a[i] for i, n in enumerate(s.names)}, -b)
            lits.append(cmp_ge(term))
        for coeffs, residue, modulus in congruences_of_coset(cell.coset):
            term = LinearTerm.of({n: coeffs[i] for i, n in enumerate(s.names)})
            lits.append(congruence(term, modulus, residue))
        parts.append(conj(lits))
    return disj(parts)
