"""Cauchy kernel evaluation and the off-diagonal closedness identity.

The kernel attached to a feasible condition set is the n-vector field

    Flux^j(y; x) = sum_m a[m, j] * phi_m(x, y) / ||y - x||^n
                 = sum_i (y_i - x_i) c[j, i] / (Vol(B_n) ||y - x||^n)

with phi_m(x, y) = sum_i b[m, i] (y_i - x_i).  The second form holds in
every algebra, associative or not, because the product is bilinear and
c[j, i] = Vol(B_n) sum_m a[m, j] * b[m, i]; so the coupling c is all the
kernel needs.  Contracting the field with the outward normal of a domain
boundary and integrating reproduces solutions.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .admissibility import CRConditionSet, KernelSolution, solve_admissibility
from .algebra import AlgElem, ball_volume


class OnDiagonal(Exception):
    """Kernel evaluated at y = x, where it is singular."""


KERNEL_RESIDUAL_CEILING = 1e-6


@dataclass(frozen=True)
class CauchyKernel:
    """A condition set together with kernel weights that solve it."""

    conditions: CRConditionSet
    solution: KernelSolution

    def __post_init__(self):
        if self.solution.n != self.conditions.n or self.solution.q != self.conditions.q:
            raise ValueError("solution shape does not match the condition set")

    @property
    def n(self) -> int:
        return self.conditions.n

    @property
    def table(self):
        return self.conditions.table

    @classmethod
    def from_conditions(cls, conditions: CRConditionSet, tol: float = 1e-9) -> CauchyKernel:
        """Solve the admissibility system and wrap the kernel; error if infeasible."""
        report = solve_admissibility(conditions, tol=tol)
        if not report.feasible:
            raise ValueError(
                f"conditions are not admissible (residual {report.residual:.3e}); "
                "no reproducing kernel exists"
            )
        return cls(conditions, report.kernel)

    @classmethod
    def from_solution(cls, solution: KernelSolution,
                      validate: bool = True) -> CauchyKernel:
        kernel = cls(solution.conditions(), solution)
        if validate:
            viol = solution.condition_violation()
            if viol > KERNEL_RESIDUAL_CEILING:
                raise ValueError(
                    f"kernel weights violate the bilinear constraints by {viol:.3e}"
                )
        return kernel


def _check_off_diagonal(x: np.ndarray, y: np.ndarray) -> np.ndarray:
    diff = y - x
    r = float(np.linalg.norm(diff))
    floor = 1e-15 * (1.0 + float(np.linalg.norm(x)) + float(np.linalg.norm(y)))
    if r <= floor:
        raise OnDiagonal(f"kernel is singular at y = x (separation {r:.3e})")
    return diff


def phi(kernel: CauchyKernel, m: int, x, y) -> AlgElem:
    """The linear form phi_m(x, y) = sum_i b[m, i] (y_i - x_i); zero at y = x."""
    x = np.asarray(x, dtype=float)
    y = np.asarray(y, dtype=float)
    coeffs = np.einsum("i,id->d", y - x, kernel.solution.b[m])
    return AlgElem(kernel.table, coeffs)


def kernel_field(kernel: CauchyKernel, x, y) -> list[AlgElem]:
    """The n flux components Flux^j(y; x); raises OnDiagonal at y = x."""
    x = np.asarray(x, dtype=float)
    y = np.asarray(y, dtype=float)
    diff = _check_off_diagonal(x, y)
    scale = ball_volume(kernel.n) * float(np.linalg.norm(diff)) ** kernel.n
    flux = np.einsum("i,jie->je", diff, kernel.solution.c) / scale
    return [AlgElem(kernel.table, row) for row in flux]


def kernel_field_batch(kernel: CauchyKernel, x, Y) -> np.ndarray:
    """Flux components at many points: returns (N, n, dim)."""
    x = np.asarray(x, dtype=float)
    Y = np.asarray(Y, dtype=float)
    diff = Y - x[None, :]
    r2 = np.sum(diff * diff, axis=1)
    if np.any(r2 == 0.0):
        raise OnDiagonal("a batch point coincides with the pole x")
    flux = np.einsum("ti,jie->tje", diff, kernel.solution.c)
    scale = ball_volume(kernel.n) * r2 ** (kernel.n / 2.0)
    return flux / scale[:, None, None]


def closedness_residual(kernel: CauchyKernel, x, y,
                        finite_difference: bool = False,
                        h: float = 1e-5) -> float:
    """Residual of the closedness identity at (x, y), normalized to O(1).

    The identity states

        ||y-x||^2 sum_{m,j} a[m,j] * b[m,j]
            = n sum_m P_m(y-x) * phi_m(x,y)

    with P_m(X) = sum_j X_j a[m,j]; it holds exactly iff the weights solve
    the bilinear constraints.  finite_difference=True replaces the stored
    b[m,j] by central differences of phi_m in x (debugging mode, step h).
    """
    x = np.asarray(x, dtype=float)
    y = np.asarray(y, dtype=float)
    diff = _check_off_diagonal(x, y)
    table = kernel.table
    n, q, dim = kernel.n, kernel.conditions.q, table.dim
    a = kernel.conditions.a
    r2 = float(diff @ diff)

    if finite_difference:
        b_eff = np.zeros((q, n, dim))
        for j in range(n):
            step = np.zeros(n)
            step[j] = h
            plus = np.einsum("i,mid->md", y - (x + step), kernel.solution.b)
            minus = np.einsum("i,mid->md", y - (x - step), kernel.solution.b)
            b_eff[:, j, :] = -(plus - minus) / (2.0 * h)
    else:
        b_eff = kernel.solution.b

    lhs = r2 * np.einsum("mjs,mjd,sde->e", a, b_eff, table.gamma)
    # sum_m P_m(X) * phi_m = sum_{j,i} X_j X_i c[j, i] / Vol, by bilinearity
    rhs = n * np.einsum("j,i,jie->e", diff, diff, kernel.solution.c) / ball_volume(n)

    scale = n * kernel.conditions.normalization * r2
    return float(np.max(np.abs(lhs - rhs))) / scale
