"""Exact Presburger arithmetic over the naturals.

Modules cover integer/rational lattice algebra, an extended formula
language with congruences, quantifier elimination, semilinear set
decomposition, exact rational generating functions and quasi-polynomial
counting functions, plus a command line front end.
"""

from .formulas import (
    FormulaSyntaxError,
    LinearTerm,
    eval_ground,
    format_formula,
    free_vars,
    parse,
)
from .genfun import (
    DivergentSpecialization,
    RationalGF,
    cardinality,
    counting_gf,
    gf_of_cell,
    gf_of_formula,
    gf_of_semilinear,
    make_term,
    rgf,
    series_coeffs,
    series_equal,
    specialize_ones,
)
from .lattices import (
    Lattice,
    LatticeCoset,
    coset_intersect,
    full_coset,
    hnf,
    solve_congruences,
)
from .polyhedra import Cone, Polyhedron
from .qelim import decide, qelim
from .quasipoly import (
    PiecewiseQuasiPolynomial,
    QuasiPolynomial,
    StepPolynomial,
    eventual_form,
    hadamard_univariate,
    is_zero_univariate,
    pqp_to_rgf,
    qp_to_step,
    rgf_to_pqp,
    step_eval,
    synth_formula,
    vpf_gf,
    vpf_pqp,
)
from .semilinear import SemilinearCell, SemilinearSet, to_dnf

__all__ = [
    "Cone",
    "DivergentSpecialization",
    "FormulaSyntaxError",
    "Lattice",
    "LatticeCoset",
    "LinearTerm",
    "PiecewiseQuasiPolynomial",
    "Polyhedron",
    "QuasiPolynomial",
    "RationalGF",
    "SemilinearCell",
    "SemilinearSet",
    "StepPolynomial",
    "cardinality",
    "coset_intersect",
    "counting_gf",
    "decide",
    "eval_ground",
    "eventual_form",
    "format_formula",
    "free_vars",
    "full_coset",
    "gf_of_cell",
    "gf_of_formula",
    "gf_of_semilinear",
    "hadamard_univariate",
    "hnf",
    "is_zero_univariate",
    "make_term",
    "parse",
    "pqp_to_rgf",
    "qelim",
    "qp_to_step",
    "rgf",
    "rgf_to_pqp",
    "series_coeffs",
    "series_equal",
    "solve_congruences",
    "specialize_ones",
    "step_eval",
    "synth_formula",
    "to_dnf",
    "vpf_gf",
    "vpf_pqp",
]
