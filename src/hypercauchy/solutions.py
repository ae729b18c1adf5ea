"""Polynomial solutions of the Cauchy-type conditions.

A condition set picks out the functions f with sum_j (df/dx_j) * a[m, j] = 0
for every m.  This module represents algebra-valued polynomials, applies the
condition operator (exactly on polynomials, by central differences on
callables), and computes an orthonormal basis of polynomial solutions up to a
requested degree as the nullspace of the exact coefficient map.
Polynomials of any width go through one evaluator, _evaluate, and one
derivative map on monomials, _lowering, which gradient_values (all partials as
one polynomial of width n * dim) and polynomial_solution_basis both read.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import cached_property
from itertools import combinations_with_replacement
from typing import Sequence

import numpy as np

from . import admissibility
from .admissibility import CRConditionSet, SystemTooLarge
from .algebra import AlgebraTable, AlgElem, _as_integer, _as_seed

NULLSPACE_REL_SV = 1e-10
DEFAULT_FD_STEP = 1e-5
EVAL_BLOCK = 1024


def monomial_exponents(n: int, degree: int) -> list[tuple[int, ...]]:
    """All exponent tuples with total degree <= degree, graded lex order.

    Each level of total degree is built from the multisets of its variables,
    C(n + total - 1, total) of them, not filtered from all tuples."""
    out: list[tuple[int, ...]] = []
    for total in range(degree + 1):
        out.extend(sorted(tuple(map(variables.count, range(n)))
                          for variables in combinations_with_replacement(range(n), total)))
    return out


@dataclass(frozen=True)
class AlgPolynomial:
    """Algebra-valued polynomial sum_k coeffs[k] * x^exponents[k].

    exponents: (M, n) non-negative integers, one row per monomial;
    coeffs: (M, dim) algebra coefficients.  Rows with duplicate exponents
    are merged on construction.
    """

    table: AlgebraTable
    exponents: np.ndarray = field(repr=False)
    coeffs: np.ndarray = field(repr=False)

    def __post_init__(self):
        exps = np.atleast_2d(np.asarray(self.exponents))
        if exps.dtype.kind not in "iu":  # floats, as read from JSON
            exps = exps.astype(float)
            bad = exps[~np.isfinite(exps) | (exps != np.round(exps))]
            if bad.size:
                raise ValueError(f"exponents must be finite integers; {bad[0]:g} is not")
        cfs = np.atleast_2d(np.asarray(self.coeffs, dtype=float))
        if exps.shape[0] != cfs.shape[0]:
            raise ValueError("one coefficient row per monomial required")
        if cfs.shape[1] != self.table.dim:
            raise ValueError("coefficient width must equal the algebra dimension")
        if exps.shape[1] == 0:
            raise ValueError("a polynomial needs at least one variable")
        if np.any(exps < 0):
            raise ValueError("exponents must be non-negative")
        # the power table of _evaluate holds (deg + 1) n numbers per point
        deg = int(exps.max(initial=0))
        if (deg + 1) * exps.shape[1] * EVAL_BLOCK > admissibility.MAX_SYSTEM_ENTRIES:
            raise ValueError(f"exponent {deg} is too large: its power table needs "
                             f"more than {admissibility.MAX_SYSTEM_ENTRIES} entries")
        if not np.all(np.isfinite(cfs)):
            raise ValueError("polynomial coeffs must be finite")
        # merge duplicate monomials so the representation is canonical
        exps, cfs = _merged(exps.astype(int, copy=False), cfs)
        exps.setflags(write=False)
        cfs.setflags(write=False)
        object.__setattr__(self, "exponents", exps)
        object.__setattr__(self, "coeffs", cfs)

    @classmethod
    def constant(cls, table: AlgebraTable, n: int, value) -> AlgPolynomial:
        value = value.coeffs if isinstance(value, AlgElem) else np.asarray(value, float)
        return cls(table, np.zeros((1, n), dtype=int), value.reshape(1, -1))

    @classmethod
    def coordinate(cls, table: AlgebraTable, n: int, j: int) -> AlgPolynomial:
        """The scalar coordinate function x_j * e_0."""
        exps = np.zeros((1, n), dtype=int)
        exps[0, j] = 1
        cf = np.zeros((1, table.dim))
        cf[0, 0] = 1.0
        return cls(table, exps, cf)

    @property
    def n(self) -> int:
        return self.exponents.shape[1]

    @cached_property
    def degree(self) -> int:
        mask = np.any(self.coeffs != 0.0, axis=1)
        if not mask.any():
            return 0
        return int(self.exponents[mask].sum(axis=1).max())

    def evaluate(self, x) -> AlgElem:
        return AlgElem(self.table, self.eval_batch(np.atleast_2d(x))[0])

    def eval_batch(self, X) -> np.ndarray:
        """Values at many points: X (N, n) -> (N, dim)."""
        return _evaluate(self._points(X), self.exponents, self.coeffs)

    def _points(self, X) -> np.ndarray:
        X = np.atleast_2d(np.asarray(X, dtype=float))
        if X.ndim != 2 or X.shape[1] != self.n:
            raise ValueError(f"points have shape {X.shape} but the polynomial "
                             f"has {self.n} variables")
        return X

    @cached_property
    def _gradient(self) -> tuple[np.ndarray, np.ndarray]:
        """Every partial derivative as one polynomial of width n * dim:
        (exponents, coeffs) with df/dx_j in column block j, built once."""
        k, j, lowered, alpha = _lowering(self.exponents)
        cfs = np.zeros((len(k), self.n, self.table.dim))
        cfs[np.arange(len(k)), j] = alpha[:, None] * self.coeffs[k]
        return _merged(lowered, cfs.reshape(len(k), self.n * self.table.dim))

    def __add__(self, other: AlgPolynomial) -> AlgPolynomial:
        self._check_compatible(other)
        return AlgPolynomial(
            self.table,
            np.vstack([self.exponents, other.exponents]),
            np.vstack([self.coeffs, other.coeffs]),
        )

    def __sub__(self, other: AlgPolynomial) -> AlgPolynomial:
        return self + (-1.0) * other

    def __rmul__(self, scalar: float) -> AlgPolynomial:
        return AlgPolynomial(self.table, self.exponents, float(scalar) * self.coeffs)

    def __mul__(self, other: AlgPolynomial) -> AlgPolynomial:
        """Pointwise algebra product; coefficient order self * other."""
        self._check_compatible(other)
        exps = (self.exponents[:, None, :] + other.exponents[None, :, :]).reshape(
            -1, self.n
        )
        cfs = np.einsum(
            "as,bd,sde->abe", self.coeffs, other.coeffs, self.table.gamma
        ).reshape(-1, self.table.dim)
        return AlgPolynomial(self.table, exps, cfs)

    def _check_compatible(self, other: AlgPolynomial) -> None:
        if other.table != self.table or other.n != self.n:
            raise ValueError("polynomials live over different algebras or variables")

    def coefficient_vector(self, layout: Sequence[tuple[int, ...]]) -> np.ndarray:
        """Flattened coefficients in the given monomial layout."""
        index = {e: k for k, e in enumerate(layout)}
        out = np.zeros((len(layout), self.table.dim))
        for row, cf in zip(map(tuple, self.exponents), self.coeffs):
            if np.any(cf != 0.0) and row not in index:
                raise ValueError(f"monomial {row} not representable in layout")
            if row in index:
                out[index[row]] = cf
        return out.ravel()


def _merged(exps: np.ndarray, cfs: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The rows of equal exponents summed, in order of first appearance; on
    a few rows a dict is several times quicker than np.unique and np.add.at."""
    order: dict[tuple[int, ...], int] = {}
    merged: list[np.ndarray] = []
    for row, cf in zip(map(tuple, exps), cfs):
        if row in order:
            merged[order[row]] = merged[order[row]] + cf
        else:
            order[row] = len(merged)
            merged.append(cf)
    return (np.array(list(order), dtype=int).reshape(len(order), exps.shape[1]),
            np.array(merged, dtype=float).reshape(len(merged), cfs.shape[1]))


def _lowering(exps: np.ndarray) -> tuple[np.ndarray, ...]:
    """The derivative on monomials, d/dx_j x^alpha = alpha_j x^(alpha - e_j):
    (k, j, exps[k] - e_j, exps[k, j]) for every nonzero exps[k, j], k-major."""
    k, j = np.nonzero(exps)
    lowered = exps[k]
    lowered[np.arange(len(k)), j] -= 1
    return k, j, lowered, exps[k, j]


def _evaluate(X: np.ndarray, exps: np.ndarray, coeffs: np.ndarray) -> np.ndarray:
    """sum_k coeffs[k] x^exps[k] at the rows of X: (N, n) -> (N, width).

    Per EVAL_BLOCK rows, the power table P[k] = P[k-1] * X.T, P[0] = 1,
    holds every x_j^k the exponents ask for (deg multiplications per
    variable, no float pow); the monomials (M, B) are the products over j of
    its rows P[exps[:, j], j], summed by one product with coeffs.  Blocks keep
    P and the monomials small; each row of the result reads its own point.
    """
    deg = int(exps.max(initial=0))
    out = np.empty((X.shape[0], coeffs.shape[1]))
    for lo in range(0, X.shape[0], EVAL_BLOCK):
        Xt = X[lo : lo + EVAL_BLOCK].T
        P = np.empty((deg + 1,) + Xt.shape)
        P[0] = 1.0
        for k in range(1, deg + 1):
            P[k] = P[k - 1] * Xt
        mono = P[:, 0][exps[:, 0]]
        for j in range(1, exps.shape[1]):
            mono *= P[:, j][exps[:, j]]
        out[lo : lo + EVAL_BLOCK] = mono.T @ coeffs
    return out


def _eval_function(f, Y: np.ndarray, dim: int) -> np.ndarray:
    """Values of f at the rows of Y: (N, dim).

    Objects with eval_batch (AlgPolynomial among them) are evaluated in one
    call; any other callable is called once per node and may return a
    coefficient vector or an AlgElem.
    """
    if hasattr(f, "eval_batch"):
        return np.asarray(f.eval_batch(Y), dtype=float)
    out = np.empty((Y.shape[0], dim))
    for t in range(Y.shape[0]):
        v = f(Y[t])
        out[t] = v.coeffs if isinstance(v, AlgElem) else np.asarray(v, dtype=float)
    return out


def gradient_values(f, Y, dim: int) -> np.ndarray:
    """The partial derivatives df/dy_j at each row of Y: (N, n, dim).

    Exact for AlgPolynomial: its cached _gradient, every df/dy_j as one
    polynomial of width n * dim, goes through the evaluator of eval_batch.
    Central differences of step DEFAULT_FD_STEP (order h^2) of _eval_function
    otherwise.  Every derivative is written into one (N, n, dim) array.
    """
    if isinstance(f, AlgPolynomial):
        if dim != f.table.dim:
            raise ValueError(f"dim {dim} does not match the polynomial's algebra "
                             f"dimension {f.table.dim}")
        Y = f._points(Y)
        return _evaluate(Y, *f._gradient).reshape(len(Y), f.n, dim)
    Y = np.atleast_2d(np.asarray(Y, dtype=float))
    n = Y.shape[1]
    out = np.empty((Y.shape[0], n, dim))
    step = DEFAULT_FD_STEP * np.eye(n)
    for j in range(n):
        out[:, j] = (_eval_function(f, Y + step[j], dim)
                     - _eval_function(f, Y - step[j], dim)) / (2.0 * DEFAULT_FD_STEP)
    return out


def condition_values(conditions: CRConditionSet, f, Y) -> np.ndarray:
    """The q condition values sum_j (df/dy_j) * a[m, j] at each row of Y.

    Returns (N, q, dim): the gradients times the (n dim, q dim) matrix
    sum_d a[m, j, d] gamma[s, d, k], row (j, s) and column (m, k).
    """
    Y = np.atleast_2d(np.asarray(Y, dtype=float))
    if Y.ndim != 2 or Y.shape[1] != conditions.n:
        raise ValueError(f"points have shape {Y.shape} but the conditions have "
                         f"{conditions.n} variables")
    n, q, dim = conditions.n, conditions.q, conditions.table.dim
    A = np.einsum("mjd,sdk->jsmk", conditions.a, conditions.table.gamma)
    G = gradient_values(f, Y, dim).reshape(len(Y), n * dim)
    return (G @ A.reshape(n * dim, q * dim)).reshape(len(Y), q, dim)


@dataclass(frozen=True)
class PolySolutionBasis:
    """Orthonormal basis of polynomial solutions up to the stated degree."""

    conditions: CRConditionSet
    degree: int
    basis: list[AlgPolynomial]

    def __len__(self) -> int:
        return len(self.basis)

    def __iter__(self):
        return iter(self.basis)

    def __getitem__(self, k: int) -> AlgPolynomial:
        return self.basis[k]

    def max_violation(self, samples: int = 50, seed: int = 0) -> float:
        """Largest |condition value| over basis elements at random points."""
        samples = _as_integer(samples, "samples")
        if samples < 1:
            raise ValueError("samples must be >= 1")
        rng = np.random.default_rng(_as_seed(seed))
        pts = rng.normal(size=(samples, self.conditions.n))
        values = [condition_values(self.conditions, f, pts) for f in self.basis]
        return float(np.max(np.linalg.norm(values, axis=-1), initial=0.0))

    def contains(self, f: AlgPolynomial, tol: float = 1e-10) -> bool:
        """Whether f lies in the span of the basis (coefficient projection)."""
        layout = monomial_exponents(self.conditions.n, self.degree)
        v = f.coefficient_vector(layout)
        scale = np.linalg.norm(v)
        if scale == 0.0:
            return True
        B = np.stack([g.coefficient_vector(layout) for g in self.basis])
        resid = v - B.T @ (B @ v)
        return float(np.linalg.norm(resid)) <= tol * scale


def _z_polynomial(table: AlgebraTable, power: int) -> AlgPolynomial:
    z = AlgPolynomial.coordinate(table, 2, 0)
    e1 = np.zeros(table.dim)
    e1[1] = 1.0
    z = z + AlgPolynomial.coordinate(table, 2, 1) * AlgPolynomial.constant(
        table, 2, e1
    )
    out = AlgPolynomial.constant(table, 2, np.eye(table.dim)[0])
    for _ in range(power):
        out = out * z
    return out


def _zeta_polynomial(table: AlgebraTable, n: int, l: int) -> AlgPolynomial:
    e = np.eye(table.dim)
    return AlgPolynomial.coordinate(table, n, l) * AlgPolynomial.constant(
        table, n, e[0]
    ) - AlgPolynomial.coordinate(table, n, 0) * AlgPolynomial.constant(table, n, e[l])


NAMED_SOLUTIONS = ("const", "z", "z2", "z3", "z3_plus_2z",
                   "zeta1", "zeta2", "zeta3", "y1sq")


def named_solution(name: str, table: AlgebraTable, n: int) -> AlgPolynomial:
    """Builtin test functions addressable by name from the CLI.

    z-powers need n = 2; zeta_l needs l < min(n, dim).  y1sq is the scalar
    square of the first coordinate (not a solution; representation tests).
    """
    if name == "const":
        return AlgPolynomial.constant(table, n, np.eye(table.dim)[0])
    if name in ("z", "z2", "z3", "z3_plus_2z"):
        if n != 2:
            raise ValueError(f"{name} requires two variables, got n={n}")
        if name == "z":
            return _z_polynomial(table, 1)
        if name == "z2":
            return _z_polynomial(table, 2)
        if name == "z3":
            return _z_polynomial(table, 3)
        return _z_polynomial(table, 3) + 2.0 * _z_polynomial(table, 1)
    if name in ("zeta1", "zeta2", "zeta3"):
        l = int(name[-1])
        if l >= min(n, table.dim):
            raise ValueError(f"{name} needs at least {l + 1} variables and "
                             f"basis elements")
        return _zeta_polynomial(table, n, l)
    if name == "y1sq":
        c = AlgPolynomial.coordinate(table, n, 0)
        return c * c
    raise ValueError(f"unknown solution name {name!r}; "
                     f"builtins: {', '.join(NAMED_SOLUTIONS)}")


def polynomial_solution_basis(
    conditions: CRConditionSet, degree: int
) -> PolySolutionBasis:
    """Nullspace of the exact map (polynomial coeffs) -> (condition coeffs).

    The unknown is the stacked coefficient tensor over all monomials of total
    degree <= degree (graded lex).  Differentiating x^alpha in x_j sends the
    coefficient c to alpha_j * c * a[m, j] on the monomial alpha - e_j, so the
    map is assembled from right-multiplication matrices.  Basis rows come from
    the trailing singular vectors (sigma <= 1e-10 * sigma_max), orthonormal.
    Any degree is accepted whose (M dim)^2 fits MAX_SYSTEM_ENTRIES.
    """
    degree = _as_integer(degree, "degree")
    if degree < 0:
        raise ValueError("degree must be non-negative")
    table, n, q = conditions.table, conditions.n, conditions.q
    dim = table.dim
    # the full V^T of the SVD is the largest array: (M dim)^2 for the
    # M = C(n + degree, degree) monomials, counted before they are listed
    M = math.comb(n + degree, degree)
    if (M * dim) ** 2 > admissibility.MAX_SYSTEM_ENTRIES:
        raise SystemTooLarge(f"the solution basis of degree {degree} needs "
                             f"{M * dim} x {M * dim} = {(M * dim) ** 2} entries; "
                             f"the limit is {admissibility.MAX_SYSTEM_ENTRIES}")
    layout = monomial_exponents(n, degree)
    row_of = {e: t for t, e in enumerate(monomial_exponents(n, degree - 1))}
    exps = np.array(layout, dtype=int)
    k, j, lowered, alpha = _lowering(exps)
    t = np.array([row_of[e] for e in map(tuple, lowered)], dtype=int)
    R = np.array([[table.right_mult_matrix(b) for b in a_j]
                  for a_j in conditions.a.swapaxes(0, 1)])  # (n, q, dim, dim)
    # rows (m, target, dim), columns (monomial, dim); the targets of one
    # monomial differ in j, so every (t, k) block is written once
    A = np.zeros((q, len(row_of), dim, M, dim))
    A[:, t, :, k, :] = alpha[:, None, None, None] * R[j]
    # no targets at degree 0: an empty A, whose V^T is the identity
    _, s, vh = np.linalg.svd(A.reshape(-1, M * dim), full_matrices=True)
    null = vh[int(np.sum(s > NULLSPACE_REL_SV * s[0])) if s.size else 0 :]
    basis = [AlgPolynomial(table, exps, vec.reshape(M, dim)) for vec in null]
    return PolySolutionBasis(conditions, degree, basis)
