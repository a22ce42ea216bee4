"""Disjoint cell decompositions of Presburger-definable subsets of N^d.

A cell is a rational polyhedron intersected with a full-rank lattice coset;
a SemilinearSet is a finite disjoint union of cells over a fixed variable
order.  to_dnf eliminates quantifiers first, then runs a Shannon expansion
on the residual formula: a branch splits on one atom its formula still
needs (three ways for an equality (= 0, >= 1, <= -1), two for an
inequality), folds the decided atoms to TRUE/FALSE in one pass, and stops
when the formula is decided.  The congruences c.x mod m in R on one
(c, m), whatever their residue sets R, form a group that splits by
residue: the residues c.x takes on the branch's coset come from one
lattice split, the residuals of all of them from one fold (an atom is
true on each residue of its set), and each residue whose residual is not
FALSE becomes one branch, so x != r (mod m), one atom with the m - 1
other residues, gives m - 1 cells.  Distinct branches disagree on some
split, so the produced cells are disjoint by construction.  A branch is
tested against the double description of its parent's homogenized cone
(polyhedra.dd_feasible), an equality by both half-spaces as the parent is
convex, and only a branch that splits further is cut by its rows: a cell
keeps its parent's description and rows (_dnf_cells) for Brion to cut.
"""

from __future__ import annotations

from functools import reduce

from .formulas import (
    FALSE,
    TRUE,
    And,
    Cmp,
    Congruence,
    LinearTerm,
    atoms_of,
    check_modulus,
    cmp_eq,
    cmp_ge,
    congruence,
    conj,
    disj,
    free_vars,
    nnf,
    record,
    simplify,
)
from .lattices import (
    congruences_of_coset,
    full_coset,
    mat_vec,
    residue_cosets,
    solve_int,
    vneg,
    vsub,
)
from .polyhedra import (
    Polyhedron,
    dd_cut,
    dd_feasible,
    dd_space,
    nonneg_orthant,
)
from .qelim import qelim


class SemilinearCell(record("SemilinearCell", "polyhedron coset")):
    """The points of a Polyhedron in a LatticeCoset."""

    __slots__ = ()

    def contains(self, point):
        return self.polyhedron.contains(point) and self.coset.contains(point)


class SemilinearSet(record("SemilinearSet", "names cells")):
    __slots__ = ()

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


def _join(h, parts):
    """Fold an And/Or node h over its already-folded parts."""
    stop, skip = (FALSE, TRUE) if isinstance(h, And) else (TRUE, FALSE)
    out = []
    for q in parts:
        if q is stop:
            return stop
        if q is not skip:
            out.append(q)
    return type(h)(tuple(out)) if len(out) > 1 else out[0] if out else skip


def _fold(h, key):
    """Fold h for every branch of one split in one pass.

    key(atom) is the branches on which the atom is true, or None if the split
    leaves it open.  Returns h with every decided atom false, and a dict:
    per branch some atom names, h with just that branch's atoms true.  A
    branch costs only the parts it changes and the parts still open.
    """
    if isinstance(h, (Cmp, Congruence)):
        ks = key(h)
        return (h, {}) if ks is None else (FALSE, dict.fromkeys(ks, TRUE))
    kids = [_fold(p, key) for p in h.parts]
    touched = {}
    for i, (_, named) in enumerate(kids):
        for k in named:
            touched.setdefault(k, []).append(i)
    if not touched:
        return h, {}
    skip = TRUE if isinstance(h, And) else FALSE
    live = {i for i, (b, _) in enumerate(kids) if b is not skip}
    named = {k: _join(h, (kids[i][1].get(k, kids[i][0])
                          for i in sorted(live.union(idx))))
             for k, idx in touched.items()}
    return _join(h, (b for b, _ in kids)), named


def to_dnf(f, names=None):
    """Decompose the solution set of f over N^names into disjoint cells."""
    names, cells, _ = _dnf_cells(f, names)
    return SemilinearSet(names, tuple(cells))


def _dnf_cells(f, names):
    """to_dnf as (names, cells, cones): reduce(dd_cut, *cone) is the double
    description of the homogenized cone of each cell's polyhedron."""
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
            coeffs, _c = _term_row(a.term, index, d)
            groups.setdefault((coeffs, a.modulus), []).append(a)
        else:
            cmps.append(a)
    # split order: congruence groups by key, then equalities, then
    # inequalities; a branch splits on the first one its residual still needs
    cmps.sort(key=lambda a: a.op != "=")
    order = sorted(groups.items()) + [(None, [a]) for a in cmps]
    rank = {a: i for i, (_, atoms) in enumerate(order) for a in atoms}
    cells, cones = [], []
    polys = {}  # (ineqs, eqs) -> Polyhedron; residue branches share rows

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

    def split(h, ineqs, eqs, coset, cone):
        # h: g, its decided atoms folded away; its cone: reduce(dd_cut, *cone)
        if h is FALSE:
            return
        if h is TRUE:
            rows = (tuple(ineqs), tuple(eqs))
            poly = polys.get(rows)
            if poly is None:
                poly = polys[rows] = Polyhedron.of(d, ineqs + orthant, eqs)
            if eqs_solvable_on_coset(poly, coset):
                cells.append(SemilinearCell(poly, coset))
                cones.append(cone)
            return
        dd = reduce(dd_cut, *cone)
        key, atoms = order[min(map(rank.__getitem__, atoms_of(h)))]
        if key is None:
            atom = atoms[0]
            base, named = _fold(h, lambda b: (True,) if b == atom else None)
            a, c = _term_row(atom.term, index, d)
            below = (base, [(vneg(a), c + 1)], [])
            if atom.op == "=":
                choices = ((named[True], [], [(a, -c)]),
                           (base, [(a, 1 - c)], []), below)
            else:
                choices = ((named[True], [(a, -c)], []), below)
            for branch, add_ineq, add_eq in choices:
                rows = [(*e, -b) for e, b in add_ineq + add_eq] + [
                    (*vneg(e), b) for e, b in add_eq]
                if branch is not FALSE and all(
                        dd_feasible(dd, row) for row in rows):
                    split(branch, ineqs + add_ineq, eqs + add_eq, coset,
                          (rows, dd))
            return
        coeffs, modulus = key
        term = atoms[0].term
        base, named = _fold(h, lambda b: b.residues if (
            isinstance(b, Congruence) and b.modulus == modulus
            and b.term == term) else None)
        # c.x takes the residues r0 + k g on the coset; one no atom names
        # keeps the residual base, so a FALSE base lists only named ones
        r0, step, cell = residue_cosets(coset, coeffs, modulus)
        if base is FALSE:
            residues = sorted(named)
        else:
            check_modulus(modulus // step, "splitting a cell by a congruence")
            residues = range(r0 % step, modulus, step)
        cone = (), dd  # shared by the residue branches
        for r in residues:
            branch = named.get(r, base)
            refined = None if branch is FALSE else cell(r)
            if refined is not None:
                split(branch, ineqs, eqs, refined, cone)

    space = dd_space(d + 1)  # cut by the unit rows to {x >= 0, t >= 0}
    split(g, [], [], full_coset(d), (space[0], space))
    return names, cells, cones


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
