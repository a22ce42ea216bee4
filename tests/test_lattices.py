import random
from fractions import Fraction
from itertools import product

import pytest

from oracles import (congruence_coset, fraction_inverse, lll_defects,
                     rat_rank, rat_solve)
from presburger.lattices import (Lattice, LatticeCoset, affine_lattice,
                                 congruences_of_coset, coset_intersect,
                                 full_coset, hnf, int_inverse, lll, mat_vec,
                                 primitive, rat_inv, residue_cosets,
                                 solve_congruences, solve_int, vdot)


def mat_mul(A, B):
    return tuple(tuple(vdot(row, col) for col in zip(*B)) for row in A)


def is_unimodular(U):
    # U and its inverse both integral means det U = +-1
    return all(a.denominator == 1 for row in rat_inv(U) for a in row)


def hnf_shape_ok(H, pivots_expected=None):
    # pivots walk down-right, positive, entries left of a pivot reduced
    m = len(H)
    n = len(H[0]) if m else 0
    pc = 0
    pivots = []
    for r in range(m):
        if pc < n and H[r][pc] != 0:
            assert H[r][pc] > 0
            for j in range(pc):
                assert 0 <= H[r][j] < H[r][pc]
            for j in range(pc + 1, n):
                assert H[r][j] == 0
            pivots.append((r, pc))
            pc += 1
        else:
            for j in range(pc, n):
                assert H[r][j] == 0
    return pivots


def test_hnf_identity_fixed():
    I3 = ((1, 0, 0), (0, 1, 0), (0, 0, 1))
    H, U = hnf(I3)
    assert H == I3 and U == I3


def test_hnf_cone_basis():
    # columns (1,0) and (1,2)
    M = ((1, 1), (0, 2))
    H, U = hnf(M)
    assert H == ((1, 0), (0, 2))
    assert mat_mul(M, U) == H
    assert is_unimodular(U)


def test_hnf_diag_2_3_index():
    M = ((2, 0), (0, 3))
    H, U = hnf(M)
    assert H == M
    lat = Lattice.from_generators(2, [(2, 0), (0, 3)])
    # oracle: count distinct cosets over a box, must equal the index 6
    reps = {lat.reduce(p) for p in product(range(6), repeat=2)}
    assert len(reps) == 6 == lat.index()


def test_hnf_random_properties():
    rng = random.Random(7)
    for _ in range(60):
        m = rng.randint(1, 4)
        n = rng.randint(1, 4)
        M = tuple(tuple(rng.randint(-6, 6) for _ in range(n)) for _ in range(m))
        H, U = hnf(M)
        assert mat_mul(M, U) == H
        assert is_unimodular(U)
        hnf_shape_ok(H)


def test_hnf_kernel_random():
    rng = random.Random(8)
    for _ in range(40):
        m = rng.randint(1, 3)
        n = rng.randint(1, 4)
        M = tuple(tuple(rng.randint(-5, 5) for _ in range(n)) for _ in range(m))
        for k in affine_lattice(M, (0,) * m, n)[1]:
            assert mat_vec(M, k) == (0,) * m


def test_affine_lattice_random():
    # x0 + W z over Z^k against solve_int, with C the left inverse of W;
    # rank-deficient, duplicated and empty M included
    rng = random.Random(36)
    solvable = unsolvable = 0
    for trial in range(300):
        m, n = rng.randint(0, 3), rng.randint(1, 4)
        M = [tuple(rng.randint(-4, 4) for _ in range(n)) for _ in range(m)]
        if m and trial % 3 == 0:
            M.append(M[0] if trial % 2 else tuple(2 * a for a in M[-1]))
        M = tuple(M)
        if trial % 2:
            rhs = mat_vec(M, [rng.randint(-5, 5) for _ in range(n)])
        else:
            rhs = tuple(rng.randint(-9, 9) for _ in M)
        got = affine_lattice(M, rhs, n)
        # no rows make every x a solution, where solve_int has no matrix
        assert (got is None) == (bool(M) and solve_int(M, rhs) is None)
        if got is None:
            unsolvable += 1
            continue
        solvable += 1
        x0, W, C = got
        k = len(W)
        assert k == n - rat_rank(M)
        assert len(C) == k and all(len(w) == len(c) == n for w, c in zip(W, C))
        assert mat_vec(M, x0) == rhs
        assert all(mat_vec(M, w) == (0,) * len(M) for w in W)
        assert tuple(mat_vec(C, w) for w in W) == tuple(
            tuple(int(i == j) for j in range(k)) for i in range(k))
        for _ in range(3):
            z = tuple(rng.randint(-6, 6) for _ in range(k))
            x = tuple(a + sum(zi * w[i] for zi, w in zip(z, W))
                      for i, a in enumerate(x0))
            assert mat_vec(M, x) == rhs
            assert mat_vec(C, [a - b for a, b in zip(x, x0)]) == z
            assert mat_vec(C, x) == z  # C x0 = 0
    assert solvable >= 100 and unsolvable >= 50
    eye = ((1, 0), (0, 1))
    assert affine_lattice((), (), 2) == ((0, 0), eye, eye)
    assert affine_lattice(((2, 4),), (3,), 2) is None
    assert affine_lattice(((1, 1), (1, 1)), (1, 2), 2) is None


def test_solve_int():
    M = ((2, 0), (0, 3))
    assert solve_int(M, (4, -9)) == (2, -3)
    assert solve_int(M, (1, 0)) is None
    M2 = ((2, 3),)
    x = solve_int(M2, (1,))
    assert x is not None and 2 * x[0] + 3 * x[1] == 1


def test_from_generators_rank_check():
    try:
        Lattice.from_generators(2, [(1, 1)])
    except ValueError:
        pass
    else:
        raise AssertionError("expected rank failure")


def test_coset_intersect_1d():
    c1 = LatticeCoset(Lattice.from_generators(1, [(2,)]), (1,))
    c2 = LatticeCoset(Lattice.from_generators(1, [(3,)]), (2,))
    got = coset_intersect(c1, c2)
    # oracle: brute force over [0, 36)
    want = {x for x in range(36) if x % 2 == 1 and x % 3 == 2}
    assert {x for x in range(36) if got.contains((x,))} == want
    assert got.rep == (5,) and got.lattice.basis == ((6,),)

    c3 = LatticeCoset(Lattice.from_generators(1, [(2,)]), (0,))
    c4 = LatticeCoset(Lattice.from_generators(1, [(2,)]), (1,))
    assert coset_intersect(c3, c4) is None


def test_coset_intersect_random_membership():
    rng = random.Random(9)
    for _ in range(30):
        d = rng.randint(1, 3)
        def rand_coset():
            while True:
                gens = [tuple(rng.randint(-3, 3) for _ in range(d))
                        for _ in range(d + 1)]
                try:
                    lat = Lattice.from_generators(d, gens)
                except ValueError:
                    continue
                return LatticeCoset(lat, tuple(rng.randint(0, 4) for _ in range(d)))
        c1, c2 = rand_coset(), rand_coset()
        got = coset_intersect(c1, c2)
        box = product(range(7), repeat=d)
        for p in box:
            inter = c1.contains(p) and c2.contains(p)
            assert inter == (got is not None and got.contains(p))


def test_residue_cosets_match_coset_intersect():
    # every residue of the split is the canonical coset that intersecting
    # with the congruence's own coset gives, or None on both sides
    rng = random.Random(31)
    moduli = list(range(1, 37)) + [8, 9, 16, 25, 27, 32]
    done = 0
    while done < 160:
        d = rng.randint(1, 3)
        gens = [tuple(rng.randint(-4, 4) for _ in range(d))
                for _ in range(d + 1)]
        try:
            lat = Lattice.from_generators(d, gens)
        except ValueError:
            continue
        coset = LatticeCoset(lat, tuple(rng.randint(-9, 9) for _ in range(d)))
        coeffs = tuple(rng.randint(-40, 40) for _ in range(d))
        m = moduli[done % len(moduli)]
        r0, g, cell = residue_cosets(coset, coeffs, m)
        reached = set()
        # the congruence's own coset, solved without the split
        row = (*coeffs, m)
        for r in range(m):
            sol = affine_lattice((row,), (r,), d + 1)
            want = None if sol is None else coset_intersect(coset, LatticeCoset(
                Lattice.from_generators(d, [u[:d] for u in sol[1]]),
                sol[0][:d]))
            assert cell(r) == want, (coset, coeffs, m, r)
            if want is not None:
                reached.add(r % m)
        assert reached == {(r0 + k * g) % m for k in range(m)}
        assert cell(-1) == cell(m - 1) and cell(r0 + 5 * m) == cell(r0)
        done += 1
    assert residue_cosets(full_coset(0), (), 6)[2](12) == full_coset(0)
    assert residue_cosets(full_coset(0), (), 6)[2](5) is None


def test_solve_congruences_examples():
    # x = 1 (mod 2) in dimension 1
    c = solve_congruences([((1,), 1, 2)], 1)
    assert c.rep == (1,) and c.lattice.basis == ((2,),)

    # x + y = 0 (mod 2) and x = 0 (mod 2): both coordinates even
    c = solve_congruences([((1, 1), 0, 2), ((1, 0), 0, 2)], 2)
    assert c.rep == (0, 0)
    assert c.lattice.basis == ((2, 0), (0, 2))
    # oracle: brute force over [0,8)^2
    for p in product(range(8), repeat=2):
        want = (p[0] + p[1]) % 2 == 0 and p[0] % 2 == 0
        assert c.contains(p) == want

    assert solve_congruences([((2,), 1, 2)], 1) is None


def test_solve_congruences_random():
    rng = random.Random(10)
    for _ in range(40):
        d = rng.randint(1, 3)
        atoms = []
        for _ in range(rng.randint(1, 3)):
            m = rng.randint(1, 4)
            coeffs = tuple(rng.randint(-3, 3) for _ in range(d))
            atoms.append((coeffs, rng.randint(0, m - 1), m))
        got = solve_congruences(atoms, d)
        for p in product(range(9), repeat=d):
            want = all(vdot(a, p) % m == r % m for a, r, m in atoms)
            assert want == (got is not None and got.contains(p)), (atoms, p)


def test_congruences_of_coset_roundtrip():
    rng = random.Random(11)
    for _ in range(25):
        d = rng.randint(1, 3)
        while True:
            gens = [tuple(rng.randint(-3, 3) for _ in range(d)) for _ in range(d + 1)]
            try:
                lat = Lattice.from_generators(d, gens)
            except ValueError:
                continue
            break
        coset = LatticeCoset(lat, tuple(rng.randint(0, 5) for _ in range(d)))
        atoms = congruences_of_coset(coset)
        for p in product(range(8), repeat=d):
            want = coset.contains(p)
            got = all(vdot(a, p) % m == r for a, r, m in atoms)
            assert want == got


def test_full_coset():
    c = full_coset(2)
    assert c.contains((5, 7)) and c.lattice.index() == 1


def test_rational_elimination_random():
    rng = random.Random(9)
    singular = 0
    for _ in range(300):
        m = rng.randint(1, 4)
        n = rng.randint(1, 5)
        M = [tuple(rng.randint(-4, 4) for _ in range(n)) for _ in range(m)]
        if m > 1 and rng.random() < 0.3:
            M[-1] = tuple(2 * a - b for a, b in zip(M[0], M[1]))
        M = tuple(M)
        rank = rat_rank(M)
        for rhs in (mat_vec(M, tuple(rng.randint(-3, 3) for _ in range(n))),
                    tuple(rng.randint(-4, 4) for _ in range(m))):
            x = rat_solve(M, rhs)
            if x is not None:
                assert mat_vec(M, x) == rhs
            else:
                aug = tuple(row + (b,) for row, b in zip(M, rhs))
                assert rank < n or rat_rank(aug) > rank
        if m == n:
            if rank < n:
                singular += 1
                with pytest.raises(ValueError):
                    rat_inv(M)
            else:
                eye = tuple(tuple(int(i == j) for j in range(n))
                            for i in range(n))
                assert mat_mul(rat_inv(M), M) == eye
    assert singular > 0


def test_int_inverse_against_fraction_gauss_jordan():
    rng = random.Random(2468)
    singular = swapped = 0
    for trial in range(600):
        n = 1 + trial % 5
        M = [[rng.randint(-6, 6) for _ in range(n)] for _ in range(n)]
        if trial % 7 == 0:
            M[0][0] = 0  # the first pivot needs a row swap
        if n > 1 and rng.random() < 0.25:
            M[-1] = [2 * a - b for a, b in zip(M[0], M[1])]
        M = tuple(tuple(row) for row in M)
        adj, det = int_inverse(M)
        eye = tuple(tuple(int(i == j) for j in range(n)) for i in range(n))
        assert mat_mul(M, adj) == tuple(tuple(det * a for a in row)
                                        for row in eye), M
        try:
            want = fraction_inverse(M)
        except ValueError:
            assert det == 0, M
            singular += 1
            continue
        assert det != 0, M
        swapped += M[0][0] == 0
        assert tuple(tuple(Fraction(a, det) for a in row)
                     for row in adj) == want, M
        assert rat_inv(M) == want
    assert int_inverse(()) == ((), 1)
    assert singular > 100 and swapped > 50


def test_lll_random_bases_against_fraction_gram_schmidt():
    rng = random.Random(2026)
    unreduced = 0
    for trial in range(200):
        d = 2 + trial % 4
        basis = [tuple(rng.randint(-40, 40) for _ in range(d))
                 for _ in range(d)]
        if trial % 3 == 0:  # skewed: long, nearly parallel vectors
            basis = [tuple(a + rng.randint(-3, 3) * 97 * basis[0][i]
                           for i, a in enumerate(v)) for v in basis]
        try:
            lattice = Lattice.from_generators(d, basis)
        except ValueError:  # singular
            continue
        reduced = lll(basis)
        assert len(reduced) == d
        assert Lattice.from_generators(d, reduced) == lattice, basis
        assert lll_defects(reduced) == ([], []), basis
        unreduced += lll_defects(basis) != ([], [])
    assert unreduced > 130
    assert lll([]) == [] and lll([(0, 5)]) == [(0, 5)]
    with pytest.raises(ValueError):
        lll([(1, 2, 3), (2, 4, 6), (0, 0, 1)])


def test_primitive_rejects_zero_vector():
    assert primitive((4, -6, 0)) == (2, -3, 0)
    with pytest.raises(ValueError):
        primitive((0, 0))
    with pytest.raises(ValueError):
        primitive(())


def test_vdot_rejects_length_mismatch():
    assert vdot((1, 2, 3), (4, 5, 6)) == 32
    assert vdot((), ()) == 0
    with pytest.raises(ValueError):
        vdot((1, 2), (1, 2, 3))


def test_coset_intersect_rejects_dimension_mismatch():
    with pytest.raises(ValueError):
        coset_intersect(full_coset(1), full_coset(2))


def test_congruence_coset_rejects_nonpositive_modulus():
    assert congruence_coset((1,), 0, 1, 1) == full_coset(1)
    with pytest.raises(ValueError):
        congruence_coset((1,), 0, 0, 1)
