"""Named condition sets, parametric algebra families, and random samplers.

Everything the falsification suites and the demo CLI need: the classical
condition sets (complex, quaternionic, induced), the matrix-algebra test
cases, closed-form dimension-3 associative families for sampling, and the
dimension-2 feasibility construction.
"""
from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

import numpy as np

from .algebra import AlgebraTable, AlgElem, Singular, _as_seed, builtin, try_invert
from .admissibility import (
    CRConditionSet,
    a_differentiable_conditions,
    anticommuting_single_condition,
    induced_conditions,
)


def single_condition(table: AlgebraTable, coeffs, name: str = "") -> CRConditionSet:
    """One condition sum_j (df/dx_j) * coeffs[j] = 0 on n = len(coeffs) variables."""
    arr = np.asarray(coeffs, dtype=float)
    if arr.ndim != 2 or arr.shape[1] != table.dim:
        raise ValueError(f"coeffs must have shape (n, dim={table.dim})")
    return CRConditionSet(table, n=arr.shape[0], q=1, a=arr[None], name=name)


def dbar_conditions() -> CRConditionSet:
    """The complex conjugate-derivative condition: coefficients (e_0, i)."""
    C = builtin("complex")
    return single_condition(C, [[1.0, 0.0], [0.0, 1.0]], name="dbar")


def fueter_conditions() -> CRConditionSet:
    """The quaternionic condition with coefficients (e_0, i, j, k)."""
    return anticommuting_single_condition(builtin("quaternion"))


def m2r_first_hypothesis(seed: int = 0) -> CRConditionSet:
    """Single condition on 2x2 matrices with unit leading coefficient.

    The remaining three coefficients are free; no choice makes the kernel
    constraints solvable, so any draw is a valid infeasibility witness.
    """
    seed = _as_seed(seed)
    M = builtin("m2r")
    rng = np.random.default_rng(seed)
    a = np.zeros((1, 4, 4))
    a[0, 0, 0] = 1.0
    a[0, 1:] = rng.standard_normal((3, 4))
    return CRConditionSet(M, n=4, q=1, a=a, name=f"m2r_q1(seed={seed})")


def m2r_second_hypothesis() -> CRConditionSet:
    """Three conditions on 2x2 matrices with a diagonal principal block.

    Conditions m = 0,1,2 pair variable m with the unit coefficient; the
    fourth variable carries e_1+e_2, e_2, 0 respectively, a choice whose
    commutator determinant is nonzero, which makes the set feasible.
    """
    M = builtin("m2r")
    a = np.zeros((3, 4, 4))
    a[0, 0, 0] = 1.0
    a[1, 1, 0] = 1.0
    a[2, 2, 0] = 1.0
    a[0, 3, 1] = 1.0
    a[0, 3, 2] = 1.0
    a[1, 3, 2] = 1.0
    return CRConditionSet(M, n=4, q=3, a=a, name="m2r_q3")


# -- dimension-3 associative families -----------------------------------------


def commutative_dim3_table(g111: float, g112: float, g122: float,
                           g211: float, g212: float, g222: float) -> AlgebraTable:
    """Commutative associative dimension-3 table from six free parameters.

    Parameters are the e_1/e_2 components of the symmetric products; the
    e_0 components are forced by associativity.
    """
    g = np.zeros((3, 3, 3))
    g[0] = np.eye(3)
    g[:, 0] = np.eye(3)
    g[1, 1, 1], g[1, 1, 2] = g111, g211
    g[1, 2, 1] = g[2, 1, 1] = g112
    g[1, 2, 2] = g[2, 1, 2] = g212
    g[2, 2, 1], g[2, 2, 2] = g122, g222
    g[1, 2, 0] = g[2, 1, 0] = g122 * g211 - g212 * g112
    g[1, 1, 0] = -g212 * (g111 - g212) - g211 * (g222 - g112)
    g[2, 2, 0] = -g112 * (g222 - g112) - g122 * (g111 - g212)
    return AlgebraTable(g)


def noncommutative_dim3_table(g112: float, g121: float,
                              g212: float, g221: float) -> AlgebraTable:
    """Non-commutative associative dimension-3 table from four free parameters.

    The mixed products e_1 e_2 and e_2 e_1 carry the free components; both
    squares' non-unit components and every e_0 component are forced.
    """
    g = np.zeros((3, 3, 3))
    g[0] = np.eye(3)
    g[:, 0] = np.eye(3)
    g[1, 1, 1] = g212 + g221
    g[2, 2, 2] = g112 + g121
    g[1, 2, 1], g[2, 1, 1] = g112, g121
    g[1, 2, 2], g[2, 1, 2] = g212, g221
    g[1, 2, 0] = -g112 * g212
    g[2, 1, 0] = -g121 * g221
    g[1, 1, 0] = -g212 * g221
    g[2, 2, 0] = -g112 * g121
    return AlgebraTable(g)


DIM3_PARAM_SCALE = 2.0
INVERTIBLE_DRAW_TRIES = 200


def sample_dim3_table(rng: np.random.Generator, commutative: bool) -> AlgebraTable:
    """Draw one associative dim-3 table; parameters uniform in
    [-DIM3_PARAM_SCALE, DIM3_PARAM_SCALE]."""
    scale = DIM3_PARAM_SCALE
    if commutative:
        table = commutative_dim3_table(*rng.uniform(-scale, scale, 6))
    else:
        table = noncommutative_dim3_table(*rng.uniform(-scale, scale, 4))
    # the families are closed under association by construction; guard anyway
    if not table.associative:
        raise AssertionError("sampled dim-3 table failed the associativity check")
    return table


def random_invertible_elem(table: AlgebraTable,
                           rng: np.random.Generator) -> np.ndarray:
    for _ in range(INVERTIBLE_DRAW_TRIES):
        v = rng.standard_normal(table.dim)
        try:
            try_invert(AlgElem(table, v))
            return v
        except Singular:
            continue
    raise Singular("could not draw an invertible element; algebra may have "
                   "a dense non-invertible set")


def random_invertible_single_condition(table: AlgebraTable, n: int,
                                       rng: np.random.Generator,
                                       name: str = "") -> CRConditionSet:
    """q = 1 condition on n variables with all coefficients invertible."""
    coeffs = np.stack([random_invertible_elem(table, rng) for _ in range(n)])
    return single_condition(table, coeffs, name=name)


# -- dimension-2 sweep helpers -------------------------------------------------


def dim2_expected_feasible(a: float, b: float) -> bool:
    """A feasible invertible pair exists on dim2(a,b) iff b^2 + 4a < 0."""
    return b * b + 4.0 * a < 0.0


def dim2_root_of_minus_one(a: float, b: float) -> np.ndarray:
    """Coefficients of w with w*w = -e_0 on dim2(a,b); needs b^2 + 4a < 0."""
    disc = a + b * b / 4.0
    if disc >= 0.0:
        raise ValueError("no square root of -e_0 exists when b^2 + 4a >= 0")
    w1 = 1.0 / np.sqrt(-disc)
    return np.array([-(b / 2.0) * w1, w1])


def dim2_constructed_pair(a: float, b: float) -> CRConditionSet:
    """Feasible single condition on dim2(a,b): coefficients (e_0, w), w^2 = -e_0."""
    T = builtin("dim2", a, b)
    w = dim2_root_of_minus_one(a, b)
    return single_condition(T, [[1.0, 0.0], w], name=f"dim2({a},{b})")


# -- gallery -------------------------------------------------------------------


@dataclass(frozen=True)
class GalleryCase:
    name: str
    build: Callable[[], CRConditionSet]
    expected_feasible: bool


def gallery() -> list[GalleryCase]:
    """Named condition sets with known feasibility, used by suites and tests."""
    return [
        GalleryCase("dbar", dbar_conditions, True),
        GalleryCase("fueter", fueter_conditions, True),
        GalleryCase("adiff_complex",
                    lambda: a_differentiable_conditions(builtin("complex")), True),
        GalleryCase("adiff_tessarine",
                    lambda: a_differentiable_conditions(builtin("tessarine")), True),
        GalleryCase("adiff_split",
                    lambda: a_differentiable_conditions(builtin("dim2(1,0)")), False),
        GalleryCase("adiff_dual",
                    lambda: a_differentiable_conditions(builtin("dim2(0,0)")), False),
        GalleryCase("adiff_clifford23",
                    lambda: a_differentiable_conditions(builtin("clifford(2,3)")), True),
        GalleryCase("m2r_q1", m2r_first_hypothesis, False),
        GalleryCase("m2r_q3", m2r_second_hypothesis, True),
        GalleryCase("octonion_single",
                    lambda: anticommuting_single_condition(builtin("octonion")), True),
        GalleryCase("sedenion_single",
                    lambda: anticommuting_single_condition(builtin("sedenion")), True),
        GalleryCase("tessarine_q1_random",
                    lambda: random_invertible_single_condition(
                        builtin("tessarine"), 4, np.random.default_rng(42),
                        name="tessarine_q1_random"), False),
        GalleryCase("fueter_induced2",
                    lambda: induced_conditions(fueter_conditions(), 2), True),
        GalleryCase("dbar_induced2",
                    lambda: induced_conditions(dbar_conditions(), 2), True),
    ]

