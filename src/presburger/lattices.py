"""Exact integer and rational linear algebra, Hermite normal form,
full-rank lattices and lattice cosets.

Vectors are tuples of ints (or Fractions where noted), matrices are tuples
of rows.  Nothing in this module ever touches floating point.  Adjugates,
determinants, inverses and rational kernels share one fraction-free
Gauss-Jordan kernel over the integers.  Lattice bases are kept in a
canonical column-style Hermite normal form, so lattice and coset equality
is plain structural equality.
"""

from __future__ import annotations

from fractions import Fraction
from itertools import product
from math import gcd
from operator import add, mul, sub

from .formulas import record


# ---------------------------------------------------------------------------
# tuple vectors


def vadd(u, v):
    return tuple(map(add, u, v))


def vsub(u, v):
    return tuple(map(sub, u, v))


def vneg(u):
    return tuple(-a for a in u)


def vscale(k, u):
    return tuple(k * a for a in u)


def vdot(u, v):
    if len(u) != len(v):
        raise ValueError(f"vdot of vectors of lengths {len(u)} and {len(v)}")
    return sum(map(mul, u, v))


def zero_vec(d):
    return (0,) * d


def primitive(v):
    """Divide a nonzero integer vector by the gcd of its entries."""
    g = gcd(*v)
    if not g:
        raise ValueError("zero vector has no primitive form")
    return tuple(a // g for a in v)


def lex_positive(v):
    """True if the first nonzero entry of v is positive."""
    for a in v:
        if a != 0:
            return a > 0
    return False


# ---------------------------------------------------------------------------
# tuple matrices (tuples of rows)


def mat_vec(M, v):
    return tuple(vdot(row, v) for row in M)


def columns(M):
    return [list(col) for col in zip(*M)] if M else []


def from_columns(cols, m):
    return tuple(tuple(col[i] for col in cols) for i in range(m))


# ---------------------------------------------------------------------------
# fraction-free Gauss-Jordan elimination


def int_rref(rows, n):
    """Fraction-free Gauss-Jordan elimination (Bareiss 1968) in place on
    lists of ints.

    Pivots only in the first n columns; any later columns (right-hand
    sides, an identity block) are carried along.  A row swap negates one
    of the rows, so no step changes a determinant.  Returns the pivot
    columns: afterwards row r holds the last pivot p in column pivots[r]
    and 0 in every other pivot column, so it is p times the row of the
    reduced echelon form, and the rows past len(pivots) are zero in the
    first n columns.  Every entry stays a minor of the input, which makes
    each division exact.
    """
    pivots = []
    prev = 1
    for c in range(n):
        rank = len(pivots)
        piv = next((r for r in range(rank, len(rows)) if rows[r][c]), None)
        if piv is None:
            continue
        if piv != rank:
            rows[rank], rows[piv] = rows[piv], [-a for a in rows[rank]]
        top = rows[rank]
        p = top[c]
        for r, row in enumerate(rows):
            if r != rank:
                f = row[c]
                rows[r] = [(p * a - f * b) // prev for a, b in zip(row, top)]
        prev = p
        pivots.append(c)
    return pivots


def int_inverse(M):
    """Adjugate and determinant (adj, det) of a square integer matrix, so
    that M adj = det I, from one elimination of [M | I].  A singular M
    gives det 0 and a zero adj."""
    n = len(M)
    rows = [list(row) + [int(i == j) for j in range(n)]
            for i, row in enumerate(M)]
    if len(int_rref(rows, n)) < n:
        return ((0,) * n,) * n, 0
    return tuple(tuple(row[n:]) for row in rows), rows[0][0] if n else 1


def rat_inv(M):
    """Inverse of a nonsingular integer matrix, as Fractions adj / det."""
    adj, det = int_inverse(M)
    if not det:
        raise ValueError("matrix is singular")
    return tuple(tuple(Fraction(a, det) for a in row) for row in adj)


def rat_nullspace(M, n=None):
    """Basis of the rational kernel of the integer matrix M (rows of
    length n), as Fraction vectors with a 1 in their own free column."""
    if n is None:
        n = len(M[0]) if M else 0
    rows = [list(row) for row in M]
    pivots = int_rref(rows, n)
    basis = []
    for fc in range(n):
        if fc in pivots:
            continue
        v = [Fraction(0)] * n
        v[fc] = Fraction(1)
        for r, pc in enumerate(pivots):
            v[pc] = Fraction(-rows[r][fc], rows[r][pc])
        basis.append(tuple(v))
    return basis


# ---------------------------------------------------------------------------
# lattice basis reduction


def lll(vectors):
    """LLL-reduced basis (delta = 3/4) of the lattice spanned by linearly
    independent integer vectors.

    Integral LLL (Cohen, A Course in Computational Algebraic Number
    Theory, Algorithm 2.6.7): D[i] is the Gram determinant of the first i
    vectors and lam[k][j] = D[j + 1] mu_kj, so every Gram-Schmidt
    quantity stays an integer and each division is exact.
    """
    b = [list(v) for v in vectors]
    n = len(b)
    D = [1] * (n + 1)
    lam = [[0] * n for _ in range(n)]

    def red(k, j):  # size-reduce b[k] against b[j]
        if 2 * abs(lam[k][j]) > D[j + 1]:
            q = (2 * lam[k][j] + D[j + 1]) // (2 * D[j + 1])
            b[k] = [x - q * y for x, y in zip(b[k], b[j])]
            lam[k][j] -= q * D[j + 1]
            for i in range(j):
                lam[k][i] -= q * lam[j][i]

    def swap(k):  # exchange b[k - 1] and b[k]
        b[k - 1], b[k] = b[k], b[k - 1]
        for j in range(k - 1):
            lam[k - 1][j], lam[k][j] = lam[k][j], lam[k - 1][j]
        m = lam[k][k - 1]
        B = (D[k - 1] * D[k + 1] + m * m) // D[k]
        for i in range(k + 1, kmax + 1):
            t = lam[i][k]
            lam[i][k] = (D[k + 1] * lam[i][k - 1] - m * t) // D[k]
            lam[i][k - 1] = (B * t + m * lam[i][k]) // D[k + 1]
        D[k] = B

    k, kmax = 1, 0
    if n:
        D[1] = vdot(b[0], b[0])
    while k < n:
        if k > kmax:  # one more Gram-Schmidt row
            kmax = k
            for j in range(k + 1):
                u = vdot(b[k], b[j])
                for i in range(j):
                    u = (D[i + 1] * u - lam[k][i] * lam[j][i]) // D[i]
                if j < k:
                    lam[k][j] = u
                elif not u:
                    raise ValueError("LLL input is linearly dependent")
                else:
                    D[k + 1] = u
        red(k, k - 1)
        # Lovasz: D[k+1] D[k-1] >= (3/4) D[k]^2 - lam[k][k-1]^2
        if 4 * D[k + 1] * D[k - 1] < 3 * D[k] ** 2 - 4 * lam[k][k - 1] ** 2:
            swap(k)
            k = max(1, k - 1)
            continue
        for j in range(k - 2, -1, -1):
            red(k, j)
        k += 1
    return [tuple(v) for v in b]


# ---------------------------------------------------------------------------
# Hermite normal form (column style)


def _hnf_core(M, transform=True):
    """(H, U, pivots) with H = M U the column HNF and pivots its (row,
    column) pairs; U is carried below H, or is None if not transform."""
    m = len(M)
    n = len(M[0]) if m else 0
    cols = [col + ([int(i == j) for i in range(n)] if transform else [])
            for j, col in enumerate(columns(M))]
    pivots = []
    pc = 0
    for r in range(m):
        if pc >= n:
            break
        while True:
            nz = [j for j in range(pc, n) if cols[j][r] != 0]
            if len(nz) <= 1:
                break
            j0 = min(nz, key=lambda j: abs(cols[j][r]))
            for j in nz:
                if j == j0:
                    continue
                q = cols[j][r] // cols[j0][r]
                if q:
                    cols[j] = [a - q * b for a, b in zip(cols[j], cols[j0])]
        if not nz:
            continue
        j = nz[0]
        if j != pc:
            cols[pc], cols[j] = cols[j], cols[pc]
        if cols[pc][r] < 0:
            cols[pc] = [-a for a in cols[pc]]
        p = cols[pc][r]
        for j in range(pc):
            q = cols[j][r] // p
            if q:
                cols[j] = [a - q * b for a, b in zip(cols[j], cols[pc])]
        pivots.append((r, pc))
        pc += 1
    H = from_columns(cols, m) if n else tuple(() for _ in range(m))
    U = from_columns([c[m:] for c in cols], n) if transform else None
    return H, U, pivots


def hnf(M):
    """Column-style Hermite normal form of an integer matrix.

    Returns (H, U) with H = M * U and U unimodular.  Pivots of H walk down
    and to the right, each pivot is positive, and in a pivot's row every
    entry to its left lies in [0, pivot).  Columns past the last pivot are
    zero.
    """
    H, U, _ = _hnf_core(M)
    return H, U


def affine_lattice(M, rhs, n):
    """The integer solutions x = x0 + W z (z in Z^k) of M x = rhs, M with
    n columns, as (x0, W, C), None if there are none: W is a basis of ker M
    in Z^n and C its left inverse with C x0 = 0, so z = C x.  One HNF M U =
    H gives x0 = U y, y zero past the rank, and W and C, the columns of U
    and rows of U^-1 = det adj(U) past it; no rows give (0, I, I)."""
    if not M:
        eye = tuple(tuple(int(i == j) for j in range(n)) for i in range(n))
        return (0,) * n, eye, eye
    H, U, pivots = _hnf_core(M)
    x0 = _back_substitute(H, U, pivots, rhs)
    if x0 is None:
        return None
    adj, det = int_inverse(U)
    r = len(pivots)
    return x0, tuple(zip(*U))[r:], tuple(vscale(det, c) for c in adj[r:])


def solve_int(M, rhs):
    """One integer solution x of M x = rhs, or None if none exists."""
    return _back_substitute(*_hnf_core(M), rhs)


def _back_substitute(H, U, pivots, rhs):
    # H = M U with U unimodular, so x = U z solves M x = rhs when H z = rhs
    n = len(U)
    z = [0] * n
    for r, c in pivots:
        s = rhs[r] - sum(H[r][j] * z[j] for j in range(n) if z[j])
        if s % H[r][c] != 0:
            return None
        z[c] = s // H[r][c]
    if mat_vec(H, tuple(z)) != tuple(rhs):
        return None
    return mat_vec(U, tuple(z))


# ---------------------------------------------------------------------------
# lattices and cosets


class Lattice(record("Lattice", "dim basis")):
    """Full-rank sublattice of Z^dim with a canonical HNF basis.

    basis[j] is the j-th basis vector; as the columns of a matrix they are
    in column-style Hermite normal form (so basis[j][i] == 0 for i < j and
    0 <= basis[j][i] < basis[i][i] for i > j).
    """

    __slots__ = ()

    def __new__(cls, dim, basis):
        if len(basis) != dim or any(
                len(b) != dim or b[j] <= 0 for j, b in enumerate(basis)):
            raise ValueError("lattice basis is not a full-rank HNF")
        return super().__new__(cls, dim, basis)

    @staticmethod
    def standard(dim):
        return Lattice(dim, tuple(tuple(1 if i == j else 0 for i in range(dim))
                                  for j in range(dim)))

    @staticmethod
    def from_generators(dim, gens):
        """Canonical lattice spanned by the given integer vectors.

        Raises ValueError unless the span has full rank dim.
        """
        gens = [tuple(g) for g in gens]
        if dim == 0:
            return Lattice(0, ())
        M = tuple(tuple(g[i] for g in gens) for i in range(dim))
        H, _U, pivots = _hnf_core(M, False)
        if len(pivots) != dim:
            raise ValueError("generators do not span a full-rank lattice")
        cols = columns(H)
        return Lattice(dim, tuple(tuple(cols[j]) for j in range(dim)))

    def basis_matrix(self):
        """Basis vectors as matrix columns (dim x dim, lower triangular)."""
        return tuple(tuple(self.basis[j][i] for j in range(self.dim))
                     for i in range(self.dim))

    def index(self):
        """Index [Z^dim : L], the determinant of the basis."""
        out = 1
        for j in range(self.dim):
            out *= self.basis[j][j]
        return out

    def contains(self, v):
        """v lies in the lattice iff its canonical representative is 0."""
        return not any(self.reduce(v))

    def reduce(self, v):
        """Canonical coset representative of v modulo the lattice.

        Successive division against the HNF diagonal, so every coordinate
        of the result lies in [0, basis[j][j]).
        """
        dim, basis = self
        v = list(v)
        for j in range(dim):
            b = basis[j]
            q = v[j] // b[j]
            if q:
                for i in range(j, dim):
                    v[i] -= q * b[i]
        return tuple(v)

    def coset_representatives(self):
        """All canonical representatives of Z^dim modulo the lattice."""
        ranges = [range(self.basis[j][j]) for j in range(self.dim)]
        return [tuple(t) for t in product(*ranges)]


class LatticeCoset(record("LatticeCoset", "lattice rep")):
    """Coset rep + L of a full-rank lattice; rep is stored reduced."""

    __slots__ = ()

    def __new__(cls, lattice, rep):
        return super().__new__(cls, lattice, lattice.reduce(rep))

    @property
    def dim(self):
        return self.lattice.dim

    def contains(self, v):
        return self.lattice.contains(vsub(tuple(v), self.rep))


def full_coset(dim):
    return LatticeCoset(Lattice.standard(dim), zero_vec(dim))


def coset_intersect(c1, c2):
    """Intersection of two cosets: a canonical coset, or None when disjoint."""
    d = c1.dim
    if c2.dim != d:
        raise ValueError(f"coset dimensions {d} and {c2.dim} differ")
    if d == 0:
        return c1
    b1 = c1.lattice.basis
    b2 = c2.lattice.basis
    M = tuple(tuple([b1[j][i] for j in range(d)] + [-b2[j][i] for j in range(d)])
              for i in range(d))
    # one HNF gives both the particular solution of [B1 | -B2] y = rep2 - rep1
    # and, from the columns of U past the rank, the kernel, whose B1 halves
    # generate the intersection lattice
    H, U, pivots = _hnf_core(M)
    y = _back_substitute(H, U, pivots, vsub(c2.rep, c1.rep))
    if y is None:
        return None
    point = c1.rep
    for j in range(d):
        point = vadd(point, vscale(y[j], b1[j]))
    gens = []
    for u in columns(U)[len(pivots):]:
        w = zero_vec(d)
        for j in range(d):
            w = vadd(w, vscale(u[j], b1[j]))
        gens.append(w)
    return LatticeCoset(Lattice.from_generators(d, gens), point)


def residue_cosets(coset, coeffs, modulus):
    """Split a coset a + L by the value of coeffs . x mod modulus.

    One HNF of the columns (coeffs . b, b), b in the basis of L, and
    (modulus, 0) gives (g, z), with z in L and coeffs . z = g (mod modulus),
    beside the basis of L' = {x in L : coeffs . x = 0 (mod modulus)}.  So
    coeffs . x = r0 + k g exactly on a + k z + L', r0 = coeffs . a.  Returns
    (r0, g, cell): cell(residue) is that coset, or None if no k gives it.
    """
    if modulus < 1:
        raise ValueError(f"modulus {modulus} is not positive")
    d = coset.dim
    basis = coset.lattice.basis
    M = ((*(vdot(coeffs, b) for b in basis), modulus),
         *((*(b[i] for b in basis), 0) for i in range(d)))
    H = _hnf_core(M, False)[0]
    g = H[0][0]
    z = tuple(row[0] for row in H[1:])
    sub = Lattice(d, tuple(tuple(row[j] for row in H[1:])
                           for j in range(1, d + 1)))
    r0 = vdot(coeffs, coset.rep) % modulus

    def cell(residue):
        k, off = divmod((residue - r0) % modulus, g)
        return None if off else LatticeCoset(sub, vadd(coset.rep, vscale(k, z)))

    return r0, g, cell


def solve_congruences(atoms, dim):
    """Common solution coset of congruences (coeffs, residue, modulus).

    Returns a LatticeCoset, or None when the system is unsatisfiable.
    """
    acc = full_coset(dim)
    for coeffs, residue, modulus in atoms:
        acc = residue_cosets(acc, coeffs, modulus)[2](residue)
        if acc is None:
            return None
    return acc


def congruences_of_coset(coset):
    """Congruence atoms (coeffs, residue, modulus) describing the coset.

    v lies in the coset iff it satisfies every returned atom.  Moduli of 1
    never occur (those conditions are trivially true and dropped).
    """
    d = coset.dim
    if d == 0:
        return []
    Binv = rat_inv(coset.lattice.basis_matrix())
    out = []
    for row in Binv:
        den = 1
        for a in row:
            den = den * a.denominator // gcd(den, a.denominator)
        if den == 1:
            continue
        coeffs = tuple(int(a * den) for a in row)
        # den is the lcm of the reduced denominators, so for each prime of
        # den some coefficient is prime to it: the atom is already reduced
        coeffs = tuple(a % den for a in coeffs)
        out.append((coeffs, vdot(coeffs, coset.rep) % den, den))
    return out
