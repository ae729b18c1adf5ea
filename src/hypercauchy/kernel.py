"""Cauchy kernel evaluation and the off-diagonal closedness identity.

The kernel attached to a feasible condition set is the n-vector field

    Flux^j(y; x) = sum_m a[m, j] * phi_m(x, y) / ||y - x||^n
                 = sum_i (y_i - x_i) c[j, i] / (Vol(B_n) ||y - x||^n)

with phi_m(x, y) = sum_i b[m, i] (y_i - x_i).  The second form holds in
every algebra, associative or not, because the product is bilinear and
c[j, i] = Vol(B_n) sum_m a[m, j] * b[m, i]; so the coupling c is all the
kernel needs, and kernel_field_batch reads c alone.  Contracting the field
with the outward normal of a domain boundary and integrating reproduces the
solutions of the coupling conditions sum_j (df/dx_j) * c[j, i] = 0; in an
associative algebra these include every solution of the conditions a.  The
kernel itself, CauchyKernel (conditions, b and c), lives in admissibility
beside the solvers that return it.
"""
from __future__ import annotations

import math

import numpy as np

from .admissibility import CauchyKernel
from .algebra import ball_volume


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
    if not np.isfinite(v).all():
        raise ValueError(f"point {name} must be finite, got {v.tolist()}")
    return v


def _check_off_diagonal(x: np.ndarray, y: np.ndarray) -> np.ndarray:
    diff = y - x
    # neither the lengths nor the floor overflow where the squares would
    r = math.hypot(*diff.tolist())
    floor = 1e-15 * (1.0 + math.hypot(*x.tolist())) + 1e-15 * math.hypot(*y.tolist())
    if r <= floor:
        raise OnDiagonal(f"kernel is singular at y = x (separation {r:.3e})")
    return diff


def kernel_field_batch(kernel: CauchyKernel, x, Y) -> np.ndarray:
    """Flux components Flux^j(y; x) at the rows y of Y: returns (N, n, dim).

    Raises OnDiagonal at the first row within 1e-15 (1 + |x| + |y|) of x.
    A row so far from x that r^n overflows is computed from u = (y - x) / r
    as sum_i u_i c[j, i] / (Vol(B_n) r^(n-1)), which is 0 only where the
    flux underflows; a row whose flux is still not a float is refused with a
    ValueError that names it.
    """
    x = _finite_point(kernel, "x", x)
    Y = np.asarray(Y, dtype=float)
    if Y.ndim != 2 or Y.shape[1] != kernel.n:
        raise ValueError(f"points Y have shape {Y.shape} but the kernel has "
                         f"{kernel.n} variables")
    if not np.all(np.isfinite(Y)):
        raise ValueError("points Y must be finite")
    n, volume = kernel.n, ball_volume(kernel.n)
    with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
        diff = Y - x[None, :]
        r = np.hypot.reduce(diff, axis=1)
        floor = 1e-15 * (1.0 + math.hypot(*x)) + 1e-15 * np.hypot.reduce(Y, axis=1)
        r2 = np.sum(diff * diff, axis=1)
        scale = volume * r2 ** (n / 2.0)
        flux = np.einsum("ti,jie->tje", diff, kernel.c) / scale[:, None, None]
        far = np.isinf(scale)
        flux[far] = (np.einsum("ti,jie->tje", diff[far] / r[far, None], kernel.c)
                     / (volume * r[far] ** (n - 1))[:, None, None])
    if (near := r <= floor).any():
        t = int(np.argmax(near))
        raise OnDiagonal(f"kernel is singular at batch point {t}, y = x "
                         f"(separation {r[t]:.3e})")
    if not (finite := np.isfinite(flux).all(axis=(1, 2))).all():
        t = int(np.argmin(finite))
        raise ValueError(f"the flux at batch point {t} overflows (separation {r[t]:.3e})")
    return flux


def closedness_residual(kernel: CauchyKernel, x, y) -> float:
    """Residual of the closedness identity at (x, y), normalized to O(1).

    The identity states, with X = y - x,

        ||X||^2 sum_j c[j,j] = n sum_{j,i} X_j X_i c[j,i],

    the c form, by bilinearity, of ||X||^2 sum_{m,j} a[m,j] * b[m,j] =
    n sum_m P_m(X) * phi_m(x,y) with P_m(X) = sum_j X_j a[m,j]; it holds
    exactly iff the weights solve the bilinear constraints.  A pair so far
    apart that the terms overflow is refused with a ValueError.
    """
    x, y = _finite_point(kernel, "x", x), _finite_point(kernel, "y", y)
    n = kernel.n
    with np.errstate(over="ignore", invalid="ignore"):
        diff = _check_off_diagonal(x, y)
        r2 = float(diff @ diff)

        lhs = r2 * np.trace(kernel.c) / ball_volume(n)
        rhs = n * np.einsum("j,i,jie->e", diff, diff, kernel.c) / ball_volume(n)

        scale = n * kernel.conditions.normalization * r2
        residual = float(np.abs(lhs - rhs).max()) / scale
    if not math.isfinite(residual):
        raise ValueError(f"x and y are too far apart for the closedness residual: "
                         f"its terms overflow (separation {math.hypot(*diff):.3e})")
    return residual
