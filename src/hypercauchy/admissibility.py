"""Cauchy-type condition sets and the existence problem for reproducing kernels.

A condition set over an algebra imposes, on functions f of n real variables
with algebra values, the q first-order relations

    sum_j (df/dx_j) * a[m, j] = 0            (m = 0..q-1)

with the coefficient multiplying the derivative on the right.  A reproducing
kernel exists iff the bilinear constraints on kernel weights b[m, i],

    sum_m a[m, i] * b[m, i] = kappa e_0                     (each i)
    sum_m (a[m, j] * b[m, i] + a[m, i] * b[m, j]) = 0       (i != j)

with kappa = 1/(n * Vol(B_n)), admit a solution; they are linear in b, so
feasibility is decided by least squares, on the independent blocks of the
system, with the blocks of one shape in one stacked SVD.
"""
from __future__ import annotations

import itertools
import json
import math
from dataclasses import dataclass, field, replace
from functools import cached_property, lru_cache
from pathlib import Path

import numpy as np

from .algebra import (
    AlgebraTable,
    AlgElem,
    Singular,
    _as_integer,
    _as_seed,
    algebra_to_dict,
    ball_volume,
    load_algebra,
    try_invert,
)

DEFAULT_TOL = 1e-9
ILL_CONDITIONED_CEILING = 1e-6
RANK_REL_SV = 1e-10
MAX_SYSTEM_ENTRIES = 2**24  # 128 MB of float64; sedenion_single needs 557,056


class AdmissibilityError(Exception):
    """Base class for condition-set failures."""


class IllConditioned(AdmissibilityError):
    """Least-squares residual falls in the ambiguous band between tolerances."""

    def __init__(self, residual: float, tol: float, ceiling: float):
        self.residual = residual
        self.tol = tol
        self.ceiling = ceiling
        super().__init__(
            f"residual {residual:.3e} sits between the feasibility tolerance "
            f"{tol:.1e} and the rejection ceiling {ceiling:.1e} "
            f"(gap factors: {residual / tol:.2e} above tol, "
            f"{ceiling / residual:.2e} below ceiling); "
            "the rank decision is ambiguous at this precision"
        )


class SystemTooLarge(ValueError):
    """The system would have more than MAX_SYSTEM_ENTRIES entries."""


class NotCommutative(AdmissibilityError):
    """Determinant criterion requires a commutative associative algebra."""


class SingularPrincipalMinor(AdmissibilityError):
    """No invertible q-by-q minor of the coefficient matrix is available."""


class BasisNotAnticommuting(AdmissibilityError):
    """Basis fails e_i^2 = -e_0 or e_i e_j = -e_j e_i."""


@dataclass(frozen=True)
class CRConditionSet:
    """q first-order conditions on functions of n variables over one algebra.

    ``a[m, j]`` holds the coefficient (length-dim vector) multiplying
    df/dx_j in condition m.
    """

    table: AlgebraTable
    n: int
    q: int
    a: np.ndarray = field(repr=False)
    name: str = ""
    algebra_source: str = ""

    def __post_init__(self):
        arr = np.asarray(self.a, dtype=float)
        if arr.shape != (self.q, self.n, self.table.dim):
            raise ValueError(
                f"coefficients must have shape (q={self.q}, n={self.n}, "
                f"dim={self.table.dim}), got {arr.shape}"
            )
        if self.n < 1 or self.q < 1:
            raise ValueError("need n >= 1 and q >= 1")
        if not np.all(np.isfinite(arr)):
            raise ValueError("condition coefficients a must be finite")
        arr = arr.copy()
        arr.setflags(write=False)
        object.__setattr__(self, "a", arr)

    @property
    def normalization(self) -> float:
        """kappa = 1/(n * Vol(B_n))."""
        return 1.0 / (self.n * ball_volume(self.n))

    def unknown_count(self) -> int:
        return self.q * self.n * self.table.dim

    def equation_count(self) -> int:
        return self.n * (self.n + 1) // 2 * self.table.dim


KERNEL_RESIDUAL_CEILING = 1e-6


def _algebra_matmul(table: AlgebraTable, X: np.ndarray, Y: np.ndarray) -> np.ndarray:
    """Product of matrices with algebra entries: (X Y)[i, j] = sum_m X[i, m] * Y[m, j]."""
    return np.einsum("ims,mjd,sde->ije", X, Y, table.gamma)


@dataclass(frozen=True)
class CauchyKernel:
    """A condition set with kernel weights b[m, i] and the coupling they fix.

    c[j, i] = Vol(B_n) * sum_m a[m, j] * b[m, i] is computed on construction
    from a read-only copy of b, so it always agrees with b.  The bilinear constraints say exactly that
    the diagonal of c equals e_0/n and that c is antisymmetric off it.  The
    plain constructor does not check them (the solvers use it); from_b does.
    """

    conditions: CRConditionSet
    b: np.ndarray = field(repr=False)
    c: np.ndarray = field(init=False, repr=False)

    def __post_init__(self):
        C = self.conditions
        shape = (C.q, C.n, C.table.dim)
        b = np.array(self.b, dtype=float)
        if b.size != C.unknown_count():
            raise ValueError(f"kernel weights b have {b.size} entries but the "
                             f"conditions need shape {shape}")
        b = b.reshape(shape)
        c = ball_volume(C.n) * _algebra_matmul(C.table, C.a.swapaxes(0, 1), b)
        b.setflags(write=False)
        c.setflags(write=False)
        object.__setattr__(self, "b", b)
        object.__setattr__(self, "c", c)

    @property
    def n(self) -> int:
        return self.conditions.n

    @property
    def table(self) -> AlgebraTable:
        return self.conditions.table

    @cached_property
    def coupling_conditions(self) -> CRConditionSet:
        """The coupling conditions sum_j (df/dx_j) * c[j, i] = 0, one per i.

        The kernel reproduces exactly their solutions, in every algebra.  In
        an associative one they follow from the conditions a (c[j, i] sums
        a[m, j] * b[m, i]); in a non-associative one their solutions can be a
        strict subspace of the a-solutions.
        """
        return CRConditionSet(self.table, self.n, self.n, self.c.transpose(1, 0, 2))

    @classmethod
    def from_conditions(cls, conditions: CRConditionSet,
                        tol: float = DEFAULT_TOL) -> CauchyKernel:
        """Solve the admissibility system for the kernel; error if infeasible."""
        report = solve_admissibility(conditions, tol=tol)
        if not report.feasible:
            raise ValueError(
                f"conditions are not admissible (residual {report.residual:.3e}); "
                "no reproducing kernel exists"
            )
        return report.kernel

    @classmethod
    def from_b(cls, conditions: CRConditionSet, b: np.ndarray) -> CauchyKernel:
        """The kernel of weights from outside the solvers, checked against the
        bilinear constraints."""
        kernel = cls(conditions, b)
        viol = kernel.condition_violation()
        if not viol <= KERNEL_RESIDUAL_CEILING:  # NaN weights fail too
            raise ValueError(
                f"kernel weights violate the bilinear constraints by {viol:.3e}"
            )
        return kernel

    def condition_violation(self) -> float:
        """Max bilinear-constraint residual of these weights, read off c."""
        target = _diagonal_coupling(self.n, self.table.dim, 1.0 / self.n)
        defect = _constraint_rows(self.c - target)
        return float(np.max(np.abs(defect))) / ball_volume(self.n)


@dataclass(frozen=True)
class AdmissibilityReport:
    feasible: bool
    residual: float
    free_dim: int
    kernel: CauchyKernel | None

    def to_dict(self) -> dict:
        return {
            "feasible": self.feasible,
            "residual": self.residual,
            "free_dim": self.free_dim,
            "b": None if self.kernel is None else self.kernel.b.tolist(),
            "c": None if self.kernel is None else self.kernel.c.tolist(),
        }


@lru_cache(maxsize=64)
def _pairs(n: int) -> tuple[np.ndarray, np.ndarray]:
    """The variable pairs i <= j of np.triu_indices(n), as read-only arrays."""
    i, j = np.triu_indices(n)
    i.setflags(write=False)
    j.setflags(write=False)
    return i, j


def _constraint_rows(coupling: np.ndarray) -> np.ndarray:
    """The bilinear constraints' left-hand sides, read off a coupling.

    coupling has shape (n, n, ...); the result has one row per variable pair
    i <= j in lexicographic order: coupling[i, i] on the diagonal and
    coupling[j, i] + coupling[i, j] off it.  With c[j, i] = Vol(B_n) *
    sum_m a[m, j] * b[m, i], the constraints say these rows of c equal those
    of _diagonal_coupling(n, dim, 1/n).
    """
    var = np.arange(coupling.shape[0])
    i, j = _pairs(len(var))
    rows = coupling[j, i] + coupling[i, j]
    rows[i == j] = coupling[var, var]
    return rows


def _diagonal_coupling(n: int, dim: int, value: float) -> np.ndarray:
    """The (n, n, dim) coupling with value * e_0 on the diagonal, 0 off it."""
    coupling = np.zeros((n, n, dim))
    coupling[np.arange(n), np.arange(n), 0] = value
    return coupling


def assemble_system(conditions: CRConditionSet) -> tuple[np.ndarray, np.ndarray]:
    """Real linear system A x = r for the flattened kernel weights.

    Unknown layout: x[(m*n + i)*dim + s] is component s of b[m, i].
    Rows are the _constraint_rows of c / Vol(B_n), dim per variable pair
    (i, j), i <= j: c[j, i] / Vol = sum_m a[m, j] * b[m, i] reads b[:, i],
    and off the diagonal c[i, j] / Vol reads b[:, j].  r is the rows of the
    target coupling kappa e_0 on the diagonal.  Raises SystemTooLarge before
    anything is allocated.
    """
    rows, cols = conditions.equation_count(), conditions.unknown_count()
    if rows * cols > MAX_SYSTEM_ENTRIES:
        raise SystemTooLarge(f"the admissibility system needs {rows} x {cols} = "
                             f"{rows * cols} entries; the limit is {MAX_SYSTEM_ENTRIES}")
    n, q, dim = conditions.n, conditions.q, conditions.table.dim
    # left[j, :, m, :] is the matrix of b[m, i] -> a[m, j] * b[m, i]
    left = conditions.table.left_mult_matrix(conditions.a.swapaxes(0, 1)).swapaxes(1, 2)
    i, j = _pairs(n)
    pair, off = np.arange(len(i)), i < j
    A = np.zeros((len(i), dim, q, n, dim))
    A[pair, :, :, i] += left[j]
    A[pair[off], :, :, j[off]] += left[i[off]]
    r = np.zeros((len(i), dim))
    r[i == j, 0] = conditions.normalization
    return A.reshape(r.size, -1), r.ravel()


def _normalized_system(conditions: CRConditionSet
                       ) -> tuple[float, np.ndarray, np.ndarray, float]:
    """sigma, the row-normalized system An x = rn of the conditions a / sigma,
    and |rn|.

    The constraints are bilinear in a and b, so a / sigma has the weights
    sigma b; sigma is the power of two with max |a| / sigma in [1, 2), which
    keeps the row norms in range and, short of over- or underflow, every bit.
    Rows of norm at most 1e-12 are divided by the largest row norm, so that
    scaling a scales rn alike in every row.  Row norms that overflow (sigma
    does not scale the table) are refused by name.
    """
    sigma = np.ldexp(1.0, np.frexp(np.abs(conditions.a).max())[1] - 1)
    A, r = assemble_system(replace(conditions, a=conditions.a / sigma))
    row_norms = np.sqrt(np.einsum("ij,ij->i", A, A))
    if not np.isfinite(row_norms).all():
        raise AdmissibilityError("the admissibility system's row norms overflow; "
                                 "the structure constants are too large")
    largest = row_norms.max()
    scale = np.where(row_norms > 1e-12, row_norms, largest if largest > 1e-12 else 1.0)
    rn = r / scale
    rhs_norm = math.sqrt(rn @ rn)
    if rhs_norm == 0.0:
        raise AdmissibilityError("normalized right-hand side vanished; conditions degenerate")
    A /= scale[:, None]
    return sigma, A, rn, rhs_norm


def _independent_blocks(A: np.ndarray) -> list[tuple[np.ndarray, np.ndarray]]:
    """The independent blocks of A, by shape: for each shape (m, n), the
    (B, m) rows and (B, n) columns of its B blocks, each row sorted.

    Two columns share a block when a row has non-zero entries in both, so
    every non-zero entry lies in one block and A x = r splits into the
    blocks' systems.  Rows with no non-zero entry lie in no block, and
    neither do columns with none.  Each column takes the least label of the
    columns it meets through a row until the labels settle; a label is then
    the block's first column, and blocks come in the order of their labels.
    """
    rr, cc = (A != 0).nonzero()
    if not rr.size:
        return []
    head = np.empty(rr.size, dtype=bool)  # the first entry of each non-zero row
    head[0] = True
    np.not_equal(rr[1:], rr[:-1], out=head[1:])
    starts = head.nonzero()[0]
    rows = rr[starts]
    used = np.zeros(A.shape[1], dtype=bool)
    used[cc] = True
    cols = used.nonzero()[0]
    row_label = np.minimum.reduceat(cc, starts)
    owner, label = head.cumsum() - 1, np.arange(A.shape[1])
    while row_label.any():
        np.minimum.at(label, cc, row_label[owner])
        label = label[label]
        settled = np.minimum.reduceat(label[cc], starts)
        if (settled == row_label).all():
            break
        row_label = settled
    if not row_label.any():  # one block
        return [(rows[None], cols[None])]
    # sort the rows and the columns by block, then cut them block by block
    col_label = label[cols]
    rows = rows[row_label.argsort(kind="stable")]
    cols = cols[col_label.argsort(kind="stable")]
    row_count = np.unique(row_label, return_counts=True)[1]
    col_count = np.unique(col_label, return_counts=True)[1]
    row_start, col_start = row_count.cumsum() - row_count, col_count.cumsum() - col_count
    by_shape = {}
    for block, shape in enumerate(zip(row_count.tolist(), col_count.tolist())):
        by_shape.setdefault(shape, []).append(block)
    return [(rows[row_start[blocks, None] + np.arange(m)],
             cols[col_start[blocks, None] + np.arange(n)])
            for (m, n), blocks in by_shape.items()]


def _decide_stack(stack, tol: float = DEFAULT_TOL) -> list[AdmissibilityReport]:
    """Decide kernel existence for every condition set of a stack.

    Each system An x = rn (_normalized_system) splits into its independent
    blocks; the blocks of one shape, over the whole stack, take one stacked
    SVD.  A system's rank counts the singular values of all its blocks above
    RANK_REL_SV * sigma_max, and its min-norm solution x keeps those above
    eps * max(rows, cols) * sigma_max, the cut of min-norm least squares on
    the whole system.  The squared residuals of the blocks and of the rows
    in no block add up.  Raises, for the first system that fails, the error
    that deciding the systems one at a time raises first.
    """
    if not tol > 0:
        raise ValueError(f"tol must be positive, got {tol!r}")
    systems, groups, width, error = [], {}, 0, None  # width: columns of the systems so far
    for k, conditions in enumerate(stack):
        try:
            sigma, An, rn, rhs_norm = _normalized_system(conditions)
        except (SystemTooLarge, AdmissibilityError) as exc:
            if not systems:  # no system before it can raise first
                raise
            error = exc  # raised once the systems before it are decided
            break
        # per block shape, (owner, M, r, columns in the stack's x) of each block
        for rows, cols in _independent_blocks(An):
            groups.setdefault((rows.shape[1], cols.shape[1]), []).append((
                np.full(len(rows), k), An[rows[:, :, None], cols[:, None, :]],
                rn[rows], width + cols))
        idle = rn[~An.any(axis=1)]  # the rows in no block
        systems.append((conditions, sigma, rhs_norm, slice(width, width + An.shape[1]),
                        max(An.shape), idle @ idle))
        width += An.shape[1]

    size, res_sq = (np.array([system[i] for system in systems]) for i in (4, 5))
    sigma_max, rank, x = np.zeros(len(systems)), np.zeros(len(systems), int), np.zeros(width)
    solved = []
    for entries in groups.values():
        owner, M, r, cols = map(np.concatenate, zip(*entries))
        U, s, Vt = np.linalg.svd(M, full_matrices=False)
        np.maximum.at(sigma_max, owner, s[:, 0])
        solved.append((owner, M, r, cols, U, s, Vt))
    for owner, M, r, cols, U, s, Vt in solved:
        top = sigma_max[owner, None]
        kept = np.where(s > np.finfo(float).eps * size[owner, None] * top, s, np.inf)
        w = (r[:, None, :] @ U)[:, 0] / kept
        xb = (w[:, None, :] @ Vt)[:, 0]
        res = (M @ xb[:, :, None])[:, :, 0] - r
        x[cols] = xb
        np.add.at(res_sq, owner, np.einsum("km,km->k", res, res))
        np.add.at(rank, owner, (s > RANK_REL_SV * top).sum(axis=1))

    reports = []
    for k, (conditions, sigma, rhs_norm, columns, _, _) in enumerate(systems):
        residual = float(np.sqrt(res_sq[k]) / rhs_norm)
        if tol < residual < ILL_CONDITIONED_CEILING:
            raise IllConditioned(residual, tol, ILL_CONDITIONED_CEILING)
        feasible = residual <= tol
        kernel = CauchyKernel(conditions, x[columns] / sigma) if feasible else None
        reports.append(AdmissibilityReport(feasible=feasible, residual=residual,
                                           free_dim=conditions.unknown_count() - int(rank[k]),
                                           kernel=kernel))
    if error is not None:
        raise error
    return reports


def solve_admissibility(
    conditions: CRConditionSet,
    tol: float = DEFAULT_TOL,
) -> AdmissibilityReport:
    """Decide kernel existence by min-norm least squares on the assembled system.

    Feasible iff the relative residual of the row-normalized system is <= tol
    (which must be positive).  Residuals between tol and
    ILL_CONDITIONED_CEILING raise IllConditioned rather than returning a
    verdict.  The decision is _decide_stack's on a stack of one.
    """
    return _decide_stack([conditions], tol)[0]


# -- condition-set constructors ----------------------------------------------


def a_differentiable_conditions(table: AlgebraTable) -> CRConditionSet:
    """Conditions df/dx_m = (df/dx_0) * e_m for m = 1..dim-1 (n = dim, q = dim-1)."""
    dim = table.dim
    if dim < 2:
        raise ValueError("need dim >= 2 for differentiability conditions")
    a = np.zeros((dim - 1, dim, dim))
    m = np.arange(1, dim)
    a[m - 1, 0, m] = -1.0
    a[m - 1, m, 0] = 1.0
    return CRConditionSet(table, n=dim, q=dim - 1, a=a,
                          name="a_differentiable")


def anticommuting_single_condition(table: AlgebraTable) -> CRConditionSet:
    """The single condition sum_j (df/dx_j) * e_j = 0 (q = 1, n = dim).

    Demands e_i^2 = -e_0 and e_i e_j = -e_j e_i on non-unit basis vectors;
    associativity is not required.
    """
    dim = table.dim
    g = table.gamma
    e0 = np.eye(dim)[0]
    for i in range(1, dim):
        if np.max(np.abs(g[i, i] + e0)) > 1e-12:
            raise BasisNotAnticommuting(f"e_{i}^2 != -e_0 (got {g[i, i]})")
        for j in range(i + 1, dim):
            if np.max(np.abs(g[i, j] + g[j, i])) > 1e-12:
                raise BasisNotAnticommuting(f"e_{i} e_{j} != -e_{j} e_{i}")
    return CRConditionSet(table, n=dim, q=1, a=np.eye(dim)[None],
                          name="anticommuting_single")


def _check_count(name: str, count: int, entries: int) -> None:
    """Refuse a count argument whose arrays need more than MAX_SYSTEM_ENTRIES
    entries, by name, before anything is allocated."""
    if entries > MAX_SYSTEM_ENTRIES:
        raise SystemTooLarge(f"{name} = {count} needs {entries} entries; "
                             f"the limit is {MAX_SYSTEM_ENTRIES}")


def induced_conditions(conditions: CRConditionSet, copies: int) -> CRConditionSet:
    """Repeat the conditions on `copies` independent variable blocks.

    Block l applies the original coefficients to variables
    [l*n, l*n + n); the kernel normalization rescales to the total
    dimension n*copies automatically.
    """
    copies = _as_integer(copies, "copies")
    if copies < 1:
        raise ValueError("copies must be >= 1")
    n, q, dim = conditions.n, conditions.q, conditions.table.dim
    _check_count("copies", copies, q * n * dim * copies * copies)
    a = np.zeros((q * copies, n * copies, dim))
    for l in range(copies):
        a[l * q:(l + 1) * q, l * n:(l + 1) * n] = conditions.a
    label = conditions.name or "conditions"
    return CRConditionSet(conditions.table, n=n * copies, q=q * copies, a=a,
                          name=f"induced({label}, copies={copies})")


# -- ellipticity ---------------------------------------------------------------


@dataclass(frozen=True)
class EllipticityReport:
    elliptic: bool
    worst_coeff: float
    min_symbol_sq: float


def check_ellipticity(
    kernel: CauchyKernel,
    samples: int = 128,
    seed: int = 0,
) -> EllipticityReport:
    """Verify sum_m P_m(X) Q_m(X) = kappa ||X||^2 e_0 coefficientwise.

    P_m(X) = sum_j X_j a[m, j] and Q_m(X) = sum_i X_i b[m, i]; the identity
    is the quadratic-form restatement of the bilinear constraints, so its
    worst coefficient is the kernel's condition_violation, which must stay
    within DEFAULT_TOL.  Also reports the
    minimum of sum_m |P_m(X)|^2 over sampled unit vectors X, which must stay
    positive for elliptic conditions.
    """
    samples = _as_integer(samples, "samples")
    if samples < 1:
        raise ValueError("samples must be >= 1")
    conditions = kernel.conditions
    # the sample points X and their symbols P_m(X)
    _check_count("samples", samples,
                 samples * max(conditions.n, conditions.q * conditions.table.dim))
    worst = kernel.condition_violation()

    rng = np.random.default_rng(_as_seed(seed))
    X = rng.standard_normal((samples, conditions.n))
    X /= np.linalg.norm(X, axis=1, keepdims=True)
    # P_m(X) components: sum_j X_j a[m, j, s]
    symbols = np.einsum("kj,mjs->kms", X, conditions.a)
    sym_sq = np.sum(symbols**2, axis=(1, 2))
    min_symbol = float(np.min(sym_sq))
    return EllipticityReport(
        elliptic=(worst <= DEFAULT_TOL and min_symbol > 1e-10),
        worst_coeff=worst,
        min_symbol_sq=min_symbol,
    )


# -- commutative determinant criterion ----------------------------------------


def algebra_determinant(table: AlgebraTable, M: np.ndarray) -> np.ndarray:
    """Determinant of a square matrix with algebra entries, by Laplace expansion.

    Well-defined for commutative associative algebras.  M has shape
    (k, k, dim); the result is a coefficient vector, e_0 when k = 0.
    """
    if M.shape[0] == 0:
        return np.eye(table.dim)[0]
    total = np.zeros(table.dim)
    for j in np.flatnonzero(np.any(M[0], axis=1)):  # zero entries add nothing
        term = table.mul_coeffs(M[0, j], algebra_determinant(table, np.delete(M[1:], j, axis=1)))
        total += term if j % 2 == 0 else -term
    return total


@dataclass(frozen=True)
class CommutativeAReport:
    feasible: bool
    residual: float
    principal_rows: tuple[int, ...]
    kernel: CauchyKernel | None
    c_consistency: float | None


def _select_principal(table: AlgebraTable, R: np.ndarray, q: int, principal_rows
                      ) -> tuple[tuple[int, ...], np.ndarray, np.ndarray, np.ndarray]:
    """The first candidate rows whose block P = R[rows] has an invertible
    determinant D_0: the rows, adj(P), D_0 and P^-1 = adj(P) D_0^-1, where
    adj[m, p] = (-1)^(p + m) det(P without row p and column m)."""
    n = R.shape[0]
    if principal_rows is None:
        candidates = itertools.combinations(range(n), q)
    else:
        message = f"principal_rows must be {q} distinct indices in [0, {n})"
        try:
            rows = tuple(_as_integer(i, "principal_rows entry") for i in principal_rows)
        except TypeError:  # not iterable
            raise ValueError(message) from None
        if len(rows) != q or len(set(rows)) != q or not all(0 <= i < n for i in rows):
            raise ValueError(message)
        candidates = [rows]
    for rows in candidates:
        P = R[list(rows)]
        D0 = algebra_determinant(table, P)
        try:
            D0_inv = try_invert(AlgElem(table, D0)).coeffs
        except Singular as exc:
            if principal_rows is None:
                continue
            raise SingularPrincipalMinor(f"principal minor at rows {rows} is singular") from exc
        adj = np.array([[(-1) ** (p + m) * algebra_determinant(
            table, np.delete(np.delete(P, p, axis=0), m, axis=1))
            for p in range(q)] for m in range(q)])
        return rows, adj, D0, _algebra_matmul(table, adj, np.eye(q)[:, :, None] * D0_inv)
    raise SingularPrincipalMinor("no invertible principal minor exists")


def commutative_condition_A(
    conditions: CRConditionSet,
    principal_rows=None,
    tol: float = DEFAULT_TOL,
) -> CommutativeAReport:
    """Decide admissibility for commutative associative algebras by determinants.

    With principal variable rows r_0..r_{q-1} of the coefficient matrix
    R[i, m] = a[m, i], P their block and D_0 = det P, feasibility requires

        sum_p D[l][p] * D[k][p] + delta_{lk} D_0^2 = 0

    for every pair of non-principal rows, where D[k][p] is the determinant of P
    with row p dropped and non-principal row k appended.  Moving that row up
    to place p takes q - 1 - p swaps: D[k][p] = (-1)^(q-1-p) E[k, p], where
    E = R[non-principal] adj(P) holds the determinants of P with row p
    replaced by row k.  The signs cancel, so the sums are E E^T + D_0^2 I.
    On success Cramer's rule, P^-1 = adj(P) D_0^-1, rebuilds the coupling c
    and the weights b, cross-checked against the bilinear constraints.  tol
    bounds the normalised residual and must be positive.
    """
    if not tol > 0:
        raise ValueError(f"tol must be positive, got {tol!r}")
    table = conditions.table
    if not (table.commutative and table.associative):
        raise NotCommutative(
            "determinant criterion needs a commutative associative table "
            f"(commutative={table.commutative}, associative={table.associative})"
        )
    n, q, dim = conditions.n, conditions.q, table.dim
    if q >= n:
        raise ValueError("criterion applies when q < n (some rows non-principal)")
    R = conditions.a.swapaxes(0, 1)
    rows, adj, D0, P_inv = _select_principal(table, R, q, principal_rows)
    principal, nonprincipal = list(rows), [i for i in range(n) if i not in rows]

    E = _algebra_matmul(table, R[nonprincipal], adj)
    defect = _algebra_matmul(table, E, E.swapaxes(0, 1))
    defect[np.arange(n - q), np.arange(n - q)] += table.mul_coeffs(D0, D0)
    norm_scale = max(1.0, float(np.linalg.norm(D0)) ** 2, float(np.max(np.sum(E**2, axis=2))))
    residual = float(np.max(np.linalg.norm(defect, axis=2))) / norm_scale
    if not residual <= tol:
        return CommutativeAReport(False, residual, rows, None, None)

    # the principal block of c is (e_0/n) I; with K = R[non-principal] P^-1
    # the constraints fix the rest: K/n, its negated transpose, -K K^T/n
    K = _algebra_matmul(table, R[nonprincipal], P_inv)
    e0_over_n = _diagonal_coupling(n, dim, 1.0 / n)
    c = e0_over_n.copy()
    c[np.ix_(nonprincipal, principal)] = K / n
    c[np.ix_(principal, nonprincipal)] = -K.swapaxes(0, 1) / n
    c[np.ix_(nonprincipal, nonprincipal)] = -_algebra_matmul(table, K, K.swapaxes(0, 1)) / n
    consistency = float(np.max(np.linalg.norm(_constraint_rows(c - e0_over_n), axis=1)))

    # kernel weights: sum_m P[p, m] * b[m, i] = c[r_p, i] / Vol
    kernel = CauchyKernel(conditions, _algebra_matmul(table, P_inv, c[principal]) / ball_volume(n))
    consistency = max(consistency, float(np.max(np.abs(kernel.c - c))))
    return CommutativeAReport(True, residual, rows, kernel, consistency)


# -- JSON io -------------------------------------------------------------------


def conditions_to_dict(conditions: CRConditionSet) -> dict:
    algebra = conditions.algebra_source or algebra_to_dict(conditions.table)
    return {
        "algebra": algebra,
        "n": conditions.n,
        "q": conditions.q,
        "a": conditions.a.tolist(),
    }


def conditions_from_dict(data: dict, name: str = "") -> CRConditionSet:
    table = load_algebra(data["algebra"])
    source = data["algebra"] if isinstance(data["algebra"], str) else ""
    return CRConditionSet(
        table=table,
        n=int(data["n"]),
        q=int(data["q"]),
        a=np.asarray(data["a"], dtype=float),
        name=name,
        algebra_source=source,
    )


def save_conditions(conditions: CRConditionSet, path: str | Path) -> None:
    Path(path).write_text(json.dumps(conditions_to_dict(conditions), indent=2) + "\n")


def load_conditions(source: str | Path | dict) -> CRConditionSet:
    if isinstance(source, dict):
        return conditions_from_dict(source)
    path = Path(source)
    return conditions_from_dict(json.loads(path.read_text()), name=path.stem)
