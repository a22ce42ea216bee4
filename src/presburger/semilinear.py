"""Disjoint cell decompositions of Presburger-definable subsets of N^d.

A cell is a rational polyhedron intersected with a full-rank lattice coset;
a SemilinearSet is a finite disjoint union of cells over a fixed variable
order.  to_dnf eliminates quantifiers first, then case-splits every atom:
residue classes for each congruence group, three ways for an equality
(= 0, >= 1, <= -1) and two for an inequality.  Distinct branches disagree
on some split, so the produced cells are disjoint by construction.
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
    if g == FALSE:
        return SemilinearSet(names, ())
    orthant = list(nonneg_orthant(d).ineqs)

    eq_atoms = []
    ge_atoms = []
    groups = {}
    for a in atoms_of(g):
        if a == TRUE or a == FALSE:
            continue
        if isinstance(a, Congruence):
            coeffs, c = _term_row(a.term, index, d)
            assert c == 0
            groups.setdefault((coeffs, a.modulus), []).append(a)
        elif a.op == "=":
            eq_atoms.append(a)
        else:
            ge_atoms.append(a)
    group_items = sorted(groups.items())

    truth = {}
    cells = []

    def holds(h):
        if h == TRUE:
            return True
        if h == FALSE:
            return False
        if isinstance(h, (Cmp, Congruence)):
            return truth[h]
        if isinstance(h, And):
            return all(holds(p) for p in h.parts)
        if isinstance(h, Or):
            return any(holds(p) for p in h.parts)
        raise TypeError(f"unexpected node {h!r}")

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

    def split_ge(i, ineqs, eqs, coset):
        if i == len(ge_atoms):
            if holds(g):
                poly = Polyhedron.of(d, ineqs + orthant, eqs)
                if eqs_solvable_on_coset(poly, coset):
                    cells.append(SemilinearCell(poly, coset))
            return
        atom = ge_atoms[i]
        a, c = _term_row(atom.term, index, d)
        for value, row in ((True, (a, -c)), (False, (vneg(a), c + 1))):
            truth[atom] = value
            if feasible(ineqs + [row], eqs):
                split_ge(i + 1, ineqs + [row], eqs, coset)
        del truth[atom]

    def split_eq(i, ineqs, eqs, coset):
        if i == len(eq_atoms):
            split_ge(0, ineqs, eqs, coset)
            return
        atom = eq_atoms[i]
        a, c = _term_row(atom.term, index, d)
        choices = (
            (True, [], [(a, -c)]),
            (False, [(a, 1 - c)], []),
            (False, [(vneg(a), c + 1)], []),
        )
        for value, add_ineq, add_eq in choices:
            truth[atom] = value
            if feasible(ineqs + add_ineq, eqs + add_eq):
                split_eq(i + 1, ineqs + add_ineq, eqs + add_eq, coset)
        del truth[atom]

    def split_cong(i, coset):
        if i == len(group_items):
            split_eq(0, [], [], coset)
            return
        (coeffs, modulus), atoms = group_items[i]
        for rho in range(modulus):
            refined = coset_intersect(
                coset, congruence_coset(coeffs, rho, modulus, d))
            if refined is None:
                continue
            for a in atoms:
                truth[a] = (a.residue == rho)
            split_cong(i + 1, refined)
        for a in atoms:
            truth.pop(a, None)

    split_cong(0, full_coset(d))
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
