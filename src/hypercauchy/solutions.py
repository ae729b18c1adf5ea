"""Polynomial solutions of the Cauchy-type conditions.

A condition set picks out the functions f with sum_j (df/dx_j) * a[m, j] = 0
for every m.  This module represents algebra-valued polynomials, applies the
condition operator (exactly on polynomials, by central differences on
callables), and computes an orthonormal basis of polynomial solutions up to a
requested degree as the nullspace of the exact coefficient map.
Polynomials of any width go through one evaluator, _evaluate, and one
derivative map on monomials, _lowering, which gradient_values (all partials as
one polynomial of width n * dim) and polynomial_solution_basis both read.
The evaluator builds each monomial from its prefix with one multiplication,
by a plan (_EvalPlan) made once per polynomial and once for its gradient.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import cached_property
from itertools import combinations_with_replacement, groupby
from typing import Sequence

import numpy as np

from . import admissibility
from .admissibility import CRConditionSet, SystemTooLarge
from .algebra import AlgebraTable, AlgElem, _as_integer, _as_seed

NULLSPACE_REL_SV = 1e-10
DEFAULT_FD_STEP = 1e-5
EVAL_BLOCK = 1024  # points per product with the coefficients
# points per sub-block of _evaluate: its buffers hold about EVAL_ENTRIES
# numbers (128 KiB: they stay in cache, and malloc keeps serving them from
# the heap; sub-blocks of 48K numbers and more cost a represent_derive
# request 150-200 fresh pages), and at least MIN_EVAL_ROWS points, below
# which numpy's cost per call dominates
EVAL_ENTRIES = 16384
MIN_EVAL_ROWS = 64


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
class _EvalPlan:
    """How _evaluate builds the monomials exps (M, n) with one multiplication
    each (Carnicer & Gasca, 1990).

    The work rows of a sub-block of points are the monomial 1 (row 0), the
    powers x_j^k, 1 <= k <= degree (row 1 + (k - 1) n + j), then every
    monomial of support size >= 2 that exps or a prefix needs, level by
    level of support size.  A monomial's prefix is the monomial with its
    last nonzero exponent set to 0, and the monomial is its prefix times one
    power.  levels: per support size >= 2 its work rows lo:hi and the rows
    of its powers, then of its prefixes; order: the work row of each
    monomial of exps; scratch: rows of the buffer the factors of a level,
    or the monomials of a sub-block, are gathered into; rows: points per
    sub-block, so that its work and scratch rows hold about EVAL_ENTRIES
    numbers, from MIN_EVAL_ROWS to EVAL_BLOCK."""

    degree: int
    size: int
    levels: tuple
    order: np.ndarray
    scratch: int
    rows: int


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
        # the power table of _evaluate holds at most (deg + 1) n numbers per
        # point, for at most EVAL_BLOCK points at a time
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
        return _evaluate(self._points(X), self._plan, self.coeffs)

    def _points(self, X) -> np.ndarray:
        X = np.atleast_2d(np.asarray(X, dtype=float))
        if X.ndim != 2 or X.shape[1] != self.n:
            raise ValueError(f"points have shape {X.shape} but the polynomial "
                             f"has {self.n} variables")
        return X

    @cached_property
    def _plan(self) -> _EvalPlan:
        return _eval_plan(self.exponents)

    @cached_property
    def _gradient(self) -> tuple[_EvalPlan, np.ndarray]:
        """Every partial derivative as one polynomial of width n * dim: the
        plan of its exponents and its coeffs, with df/dx_j in column block
        j, built once."""
        k, j, lowered, alpha = _lowering(self.exponents)
        with np.errstate(over="ignore"):
            scaled = alpha[:, None] * self.coeffs[k]
        if not np.isfinite(scaled).all():
            t = int(np.flatnonzero(~np.isfinite(scaled).all(axis=1))[0])
            raise ValueError(f"df/dx_{j[t]} of the monomial {self.exponents[k[t]].tolist()} "
                             f"overflows: its coefficient times {alpha[t]} is not finite")
        cfs = np.zeros((len(k), self.n, self.table.dim))
        cfs[np.arange(len(k)), j] = scaled
        exps, cfs = _merged(lowered, cfs.reshape(len(k), self.n * self.table.dim))
        return _eval_plan(exps), cfs

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


def _eval_plan(exps: np.ndarray) -> _EvalPlan:
    """The plan of _evaluate for the monomials exps (M, n); see _EvalPlan."""
    n, degree = exps.shape[1], int(exps.max(initial=0))
    support: dict[tuple[int, ...], list[int]] = {}  # of support size >= 2
    for e in map(tuple, exps.tolist()):
        while e not in support:
            s = [j for j, v in enumerate(e) if v]
            if len(s) < 2:
                break
            support[e] = s
            e = e[: s[-1]] + (0,) * (n - s[-1])
    members = sorted(support, key=lambda e: (len(support[e]), e))
    work = {e: 1 + degree * n + r for r, e in enumerate(members)}

    def row(e: tuple[int, ...]) -> int:
        if e in work:
            return work[e]
        s = [j for j, v in enumerate(e) if v]
        return 1 + (e[s[0]] - 1) * n + s[0] if s else 0

    levels, lo = [], 1 + degree * n
    for _, group in groupby(members, key=lambda e: len(support[e])):
        ends = [(e, support[e][-1]) for e in group]
        gather = ([1 + (e[j] - 1) * n + j for e, j in ends]
                  + [row(e[:j] + (0,) * (n - j)) for e, j in ends])
        levels.append((lo, lo + len(ends), np.array(gather, dtype=np.intp)))
        lo += len(ends)
    scratch = max([len(exps)] + [2 * (hi - lo) for lo, hi, _ in levels])
    rows = min(EVAL_BLOCK, max(MIN_EVAL_ROWS, EVAL_ENTRIES // (lo + scratch)))
    order = np.array([row(e) for e in map(tuple, exps.tolist())], dtype=np.intp)
    return _EvalPlan(degree, lo, tuple(levels), order, scratch, rows)


def _evaluate(X: np.ndarray, plan: _EvalPlan, coeffs: np.ndarray) -> np.ndarray:
    """sum_k coeffs[k] x^exps[k] at the rows of X: (N, n) -> (N, width).

    Per sub-block of plan.rows points the powers P[k] = P[k-1] * x, P[1] = x,
    hold every x_j^k the exponents ask for (no float pow), and each level of
    the plan is one gather of its powers and prefixes and one multiplication,
    in buffers made once per call.  The product runs left to right over the
    variables, as the product over j of x_j^exps[:, j] does.  The monomials
    of exps, in their order, are summed by one product with coeffs per
    EVAL_BLOCK rows: the sums BLAS returns for a row depend on the rows of
    the call.
    """
    n, M, deg = X.shape[1], len(plan.order), plan.degree
    out = np.empty((X.shape[0], coeffs.shape[1]))
    rows = min(plan.rows, X.shape[0])
    work = np.empty(plan.size * rows)
    scratch = np.empty(plan.scratch * rows)
    mono = np.empty(M * min(EVAL_BLOCK, X.shape[0]))
    for lo in range(0, X.shape[0], EVAL_BLOCK):
        hi = min(lo + EVAL_BLOCK, X.shape[0])
        block = mono[: M * (hi - lo)].reshape(M, hi - lo)
        for s in range(lo, hi, rows):
            r = min(rows, hi - s)
            W = work[: plan.size * r].reshape(plan.size, r)
            W[0] = 1.0
            if deg:
                P = W[1 : 1 + deg * n].reshape(deg, n, r)
                P[0] = X[s : s + r].T
                for k in range(1, deg):
                    np.multiply(P[k - 1], P[0], out=P[k])
            # mode="clip": the rows are in range, and "raise" buffers out
            for a, b, gather in plan.levels:
                F = scratch[: len(gather) * r].reshape(len(gather), r)
                W.take(gather, axis=0, out=F, mode="clip")
                np.multiply(F[: b - a], F[b - a :], out=W[a:b])
            if r == hi - lo:
                W.take(plan.order, axis=0, out=block, mode="clip")
            else:
                F = scratch[: M * r].reshape(M, r)
                W.take(plan.order, axis=0, out=F, mode="clip")
                block[:, s - lo : s - lo + r] = F
        np.matmul(block.T, coeffs, out=out[lo:hi])
    return out


def _eval_function(f, Y: np.ndarray, dim: int) -> np.ndarray:
    """Values of f at the rows of Y: (N, dim).

    Objects with eval_batch (AlgPolynomial among them) are evaluated in one
    call; any other callable is called once per node and may return a
    coefficient vector or an AlgElem.  Values of another shape raise a
    ValueError that names f.
    """
    if hasattr(f, "eval_batch"):
        out = np.asarray(f.eval_batch(Y), dtype=float)
        if out.shape != (Y.shape[0], dim):
            raise ValueError(f"f returned values of shape {out.shape} at {Y.shape[0]} "
                             f"points; expected ({Y.shape[0]}, {dim})")
        return out
    out = np.empty((Y.shape[0], dim))
    for t in range(Y.shape[0]):
        v = f(Y[t])
        v = np.asarray(v.coeffs if isinstance(v, AlgElem) else v, dtype=float)
        if v.shape != (dim,):
            raise ValueError(f"f returned a value of shape {v.shape} at y = "
                             f"{Y[t].tolist()}; the algebra has dimension {dim}")
        out[t] = v
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

    Returns (N, q, dim): the gradients times the (n dim, q dim) matrix of
    right multiplications by a[m, j], row (j, s) and column (m, k).
    """
    Y = np.atleast_2d(np.asarray(Y, dtype=float))
    if Y.ndim != 2 or Y.shape[1] != conditions.n:
        raise ValueError(f"points have shape {Y.shape} but the conditions have "
                         f"{conditions.n} variables")
    n, q, dim = conditions.n, conditions.q, conditions.table.dim
    R = conditions.table.right_mult_matrix(conditions.a.swapaxes(0, 1))  # R[j, m, k, s]
    G = gradient_values(f, Y, dim).reshape(len(Y), n * dim)
    return (G @ R.transpose(0, 3, 1, 2).reshape(n * dim, q * dim)).reshape(len(Y), q, dim)


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
        # the gradients at the points, and the condition values of the basis
        n, q, dim = self.conditions.n, self.conditions.q, self.conditions.table.dim
        admissibility._check_count("samples", samples,
                                   samples * dim * max(n, q * len(self.basis)))
        rng = np.random.default_rng(_as_seed(seed))
        pts = rng.normal(size=(samples, n))
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
    R = table.right_mult_matrix(conditions.a.swapaxes(0, 1))  # (n, q, dim, dim)
    # rows (m, target, dim), columns (monomial, dim); the targets of one
    # monomial differ in j, so every (t, k) block is written once
    A = np.zeros((q, len(row_of), dim, M, dim))
    A[:, t, :, k, :] = alpha[:, None, None, None] * R[j]
    # no targets at degree 0: an empty A, whose V^T is the identity
    _, s, vh = np.linalg.svd(A.reshape(-1, M * dim), full_matrices=True)
    null = vh[int(np.sum(s > NULLSPACE_REL_SV * s[0])) if s.size else 0 :]
    basis = [AlgPolynomial(table, exps, vec.reshape(M, dim)) for vec in null]
    return PolySolutionBasis(conditions, degree, basis)
