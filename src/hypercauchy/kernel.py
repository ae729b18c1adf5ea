"""Cauchy kernel evaluation and the off-diagonal closedness identity.

The kernel attached to a feasible condition set is the n-vector field

    Flux^j(y; x) = sum_m a[m, j] * phi_m(x, y) / ||y - x||^n
                 = sum_i (y_i - x_i) c[j, i] / (Vol(B_n) ||y - x||^n)

with phi_m(x, y) = sum_i b[m, i] (y_i - x_i).  The second form holds in
every algebra, associative or not, because the product is bilinear and
c[j, i] = Vol(B_n) sum_m a[m, j] * b[m, i]; so the coupling c is all the
kernel needs.  Contracting the field with the outward normal of a domain
boundary and integrating reproduces the solutions of the coupling conditions
sum_j (df/dx_j) * c[j, i] = 0; in an associative algebra these include every
solution of the conditions a.  The kernel itself,
CauchyKernel (conditions, b and c), lives in admissibility beside the
solvers that return it.
"""
from __future__ import annotations

import numpy as np

from .admissibility import CauchyKernel
from .algebra import AlgElem, _as_integer, ball_volume


class OnDiagonal(Exception):
    """Kernel evaluated at y = x, where it is singular."""


def _point(kernel: CauchyKernel, name: str, v) -> np.ndarray:
    v = np.asarray(v, dtype=float)
    if v.shape != (kernel.n,):
        raise ValueError(f"point {name} has shape {v.shape} but the kernel has "
                         f"{kernel.n} variables")
    return v


def _finite_point(kernel: CauchyKernel, name: str, v) -> np.ndarray:
    v = _point(kernel, name, v)
    if not np.all(np.isfinite(v)):
        raise ValueError(f"point {name} must be finite, got {v.tolist()}")
    return v


def _check_off_diagonal(x: np.ndarray, y: np.ndarray) -> np.ndarray:
    diff = y - x
    r = float(np.linalg.norm(diff))
    floor = 1e-15 * (1.0 + float(np.linalg.norm(x)) + float(np.linalg.norm(y)))
    if r <= floor:
        raise OnDiagonal(f"kernel is singular at y = x (separation {r:.3e})")
    return diff


def phi(kernel: CauchyKernel, m: int, x, y) -> AlgElem:
    """The linear form phi_m(x, y) = sum_i b[m, i] (y_i - x_i); zero at y = x."""
    q = kernel.conditions.q
    m = _as_integer(m, "form index m")
    if not 0 <= m < q:
        raise ValueError(f"form index m must be in 0..{q - 1}, got {m}")
    x, y = _finite_point(kernel, "x", x), _finite_point(kernel, "y", y)
    coeffs = np.einsum("i,id->d", y - x, kernel.b[m])
    return AlgElem(kernel.table, coeffs)


def kernel_field(kernel: CauchyKernel, x, y) -> list[AlgElem]:
    """The n flux components Flux^j(y; x); raises OnDiagonal at y = x."""
    x, y = _finite_point(kernel, "x", x), _finite_point(kernel, "y", y)
    diff = _check_off_diagonal(x, y)
    scale = ball_volume(kernel.n) * float(np.linalg.norm(diff)) ** kernel.n
    flux = np.einsum("i,jie->je", diff, kernel.c) / scale
    return [AlgElem(kernel.table, row) for row in flux]


def kernel_field_batch(kernel: CauchyKernel, x, Y) -> np.ndarray:
    """Flux components at many points: returns (N, n, dim)."""
    x = _finite_point(kernel, "x", x)
    Y = np.asarray(Y, dtype=float)
    if Y.ndim != 2 or Y.shape[1] != kernel.n:
        raise ValueError(f"points Y have shape {Y.shape} but the kernel has "
                         f"{kernel.n} variables")
    if not np.all(np.isfinite(Y)):
        raise ValueError("points Y must be finite")
    diff = Y - x[None, :]
    r2 = np.sum(diff * diff, axis=1)
    if np.any(r2 == 0.0):
        raise OnDiagonal("a batch point coincides with the pole x")
    flux = np.einsum("ti,jie->tje", diff, kernel.c)
    scale = ball_volume(kernel.n) * r2 ** (kernel.n / 2.0)
    return flux / scale[:, None, None]


def closedness_residual(kernel: CauchyKernel, x, y) -> float:
    """Residual of the closedness identity at (x, y), normalized to O(1).

    The identity states, with X = y - x,

        ||X||^2 sum_j c[j,j] = n sum_{j,i} X_j X_i c[j,i],

    the c form, by bilinearity, of ||X||^2 sum_{m,j} a[m,j] * b[m,j] =
    n sum_m P_m(X) * phi_m(x,y) with P_m(X) = sum_j X_j a[m,j]; it holds
    exactly iff the weights solve the bilinear constraints.
    """
    x, y = _finite_point(kernel, "x", x), _finite_point(kernel, "y", y)
    diff = _check_off_diagonal(x, y)
    n = kernel.n
    r2 = float(diff @ diff)

    lhs = r2 * np.trace(kernel.c) / ball_volume(n)
    rhs = n * np.einsum("j,i,jie->e", diff, diff, kernel.c) / ball_volume(n)

    scale = n * kernel.conditions.normalization * r2
    return float(np.max(np.abs(lhs - rhs))) / scale
