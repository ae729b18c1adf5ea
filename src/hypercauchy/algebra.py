"""Finite-dimensional real algebras given by structure-constant tables.

An algebra of dimension ``dim`` is stored as a dense cube ``gamma`` with
``e_i * e_j = sum_k gamma[i, j, k] e_k``.  Basis vector ``e_0`` is always
the multiplicative unit; loaders and constructors enforce the unit rows
``gamma[0, j, k] == delta_jk`` and ``gamma[i, 0, k] == delta_ik``.
"""
from __future__ import annotations

import json
import math
import operator
from dataclasses import dataclass, field
from functools import cached_property
from pathlib import Path

import numpy as np

FLAG_TOL = 1e-12
SINGULAR_REL_SV = 1e-10
INVERT_ROUNDTRIP_TOL = 1e-10


class AlgebraError(Exception):
    """Base class for algebra-level failures."""


class Singular(AlgebraError):
    """Element has no (one-sided) inverse at working precision."""


def _as_integer(value, what: str) -> int:
    """value as an int by operator.index; floats and other non-integers
    raise a ValueError that names the argument."""
    try:
        return operator.index(value)
    except TypeError:
        raise ValueError(f"{what} must be an integer, got {value!r}") from None


def _as_seed(value) -> int:
    """A random seed as a non-negative int; anything else raises a ValueError
    that names the seed."""
    seed = _as_integer(value, "seed")
    if seed < 0:
        raise ValueError(f"seed must be a non-negative integer, got {seed}")
    return seed


def _as_gamma(gamma) -> np.ndarray:
    g = np.asarray(gamma, dtype=float)
    if g.ndim != 3 or len(set(g.shape)) != 1:
        raise ValueError(f"structure constants must be a (dim,dim,dim) cube, got {g.shape}")
    if not np.all(np.isfinite(g)):
        raise ValueError("structure constants gamma must be finite")
    return g


class AlgebraTable:
    """Structure constants plus cached structural flags.

    ``gamma[i, j, k]`` is the ``e_k`` coefficient of ``e_i * e_j``.
    """

    def __init__(self, gamma, basis_names: list[str] | None = None):
        g = _as_gamma(gamma)
        g.setflags(write=False)
        self.gamma = g
        self.dim = g.shape[0]
        if basis_names is None:
            basis_names = [f"e{i}" for i in range(self.dim)]
        if len(basis_names) != self.dim:
            raise ValueError("basis_names length must equal dim")
        self.basis_names = list(basis_names)

    # -- flags ---------------------------------------------------------

    @cached_property
    def unital_validated(self) -> bool:
        return validate_unit(self)

    @cached_property
    def associativity_violation(self) -> float:
        return check_associative(self)

    @cached_property
    def associative(self) -> bool:
        return self.associativity_violation <= FLAG_TOL

    @cached_property
    def commutative(self) -> bool:
        return check_commutative(self)

    @cached_property
    def norm_multiplicative(self) -> bool:
        """True iff |x * q| = |x| |q| for all x, q: the right multiplications
        R_k[:, i] = gamma[i, k, :] satisfy R_k^T R_l + R_l^T R_k = 2 delta_kl I
        at FLAG_TOL, so every R(q) = sum_k q_k R_k is |q| times an isometry
        (the composition algebras R, C, H and O among the builtins; Hurwitz)."""
        g = self.gamma
        # P[k, l, i, j] = (R_k^T R_l)[i, j] = sum_s gamma[i, k, s] gamma[j, l, s]
        P = np.einsum("iks,jls->klij", g, g)
        target = 2.0 * np.einsum("kl,ij->klij", np.eye(self.dim), np.eye(self.dim))
        return float(np.max(np.abs(P + P.transpose(1, 0, 2, 3) - target))) <= FLAG_TOL

    # -- element construction ------------------------------------------

    def elem(self, coeffs) -> AlgElem:
        c = np.asarray(coeffs, dtype=float)
        if c.shape != (self.dim,):
            raise ValueError(f"coefficient vector must have shape ({self.dim},), got {c.shape}")
        return AlgElem(self, c)

    def unit(self) -> AlgElem:
        c = np.zeros(self.dim)
        c[0] = 1.0
        return AlgElem(self, c)

    def basis_elem(self, i: int) -> AlgElem:
        c = np.zeros(self.dim)
        c[i] = 1.0
        return AlgElem(self, c)

    def basis(self) -> list[AlgElem]:
        return [self.basis_elem(i) for i in range(self.dim)]

    # -- products ------------------------------------------------------

    def mul_coeffs(self, u: np.ndarray, v: np.ndarray) -> np.ndarray:
        return np.einsum("i,j,ijk->k", u, v, self.gamma)

    def left_mult_matrix(self, coeffs) -> np.ndarray:
        """Matrix L with (a*x) = L @ x for a fixed a."""
        a = np.asarray(coeffs, dtype=float)
        # (a*x)_k = sum_{i,j} a_i x_j gamma[i,j,k]
        return np.tensordot(a, self.gamma, axes=(0, 0)).T

    def right_mult_matrix(self, coeffs) -> np.ndarray:
        """Matrix R with (x*a) = R @ x for a fixed a."""
        a = np.asarray(coeffs, dtype=float)
        # (x*a)_k = sum_{i,j} x_i a_j gamma[i,j,k]
        return np.tensordot(self.gamma, a, axes=(1, 0)).T

    def __eq__(self, other) -> bool:
        return isinstance(other, AlgebraTable) and np.array_equal(self.gamma, other.gamma)

    def __hash__(self):
        return hash((self.dim, self.gamma.tobytes()))

    def __repr__(self) -> str:
        return f"AlgebraTable(dim={self.dim}, basis={self.basis_names})"


@dataclass(frozen=True)
class AlgElem:
    """Algebra element: a coefficient vector bound to its table."""

    table: AlgebraTable
    coeffs: np.ndarray = field(repr=False)

    def __post_init__(self):
        c = np.asarray(self.coeffs, dtype=float)
        object.__setattr__(self, "coeffs", c)

    def _check_same(self, other: AlgElem):
        if self.table is not other.table and self.table != other.table:
            raise ValueError("elements belong to different algebras")

    def __add__(self, other: AlgElem) -> AlgElem:
        self._check_same(other)
        return AlgElem(self.table, self.coeffs + other.coeffs)

    def __sub__(self, other: AlgElem) -> AlgElem:
        self._check_same(other)
        return AlgElem(self.table, self.coeffs - other.coeffs)

    def __neg__(self) -> AlgElem:
        return AlgElem(self.table, -self.coeffs)

    def __mul__(self, other):
        if isinstance(other, AlgElem):
            self._check_same(other)
            return AlgElem(self.table, self.table.mul_coeffs(self.coeffs, other.coeffs))
        return AlgElem(self.table, self.coeffs * float(other))

    def __rmul__(self, scalar) -> AlgElem:
        return AlgElem(self.table, float(scalar) * self.coeffs)

    def __truediv__(self, scalar) -> AlgElem:
        return AlgElem(self.table, self.coeffs / float(scalar))

    def norm(self) -> float:
        return float(np.linalg.norm(self.coeffs))

    def is_zero(self, tol: float = FLAG_TOL) -> bool:
        return self.norm() <= tol

    def close_to(self, other: AlgElem, tol: float = FLAG_TOL) -> bool:
        self._check_same(other)
        return float(np.max(np.abs(self.coeffs - other.coeffs))) <= tol

    def __repr__(self) -> str:
        terms = [
            f"{c:+g}*{name}"
            for c, name in zip(self.coeffs, self.table.basis_names)
            if c != 0.0
        ]
        return " ".join(terms) if terms else "0"


def validate_unit(table: AlgebraTable) -> bool:
    """True iff e_0 is a two-sided unit at FLAG_TOL."""
    eye = np.eye(table.dim)
    left_ok = np.max(np.abs(table.gamma[0] - eye)) <= FLAG_TOL
    right_ok = np.max(np.abs(table.gamma[:, 0, :] - eye)) <= FLAG_TOL
    return bool(left_ok and right_ok)


def check_associative(table: AlgebraTable) -> float:
    """Max |(e_i e_j) e_k - e_i (e_j e_k)| coefficient over all basis triples."""
    g = table.gamma
    # ((e_i e_j) e_k)_t = sum_s gamma[i,j,s] gamma[s,k,t]
    lhs = np.einsum("ijs,skt->ijkt", g, g)
    # (e_i (e_j e_k))_t = sum_s gamma[j,k,s] gamma[i,s,t]
    rhs = np.einsum("jks,ist->ijkt", g, g)
    return float(np.max(np.abs(lhs - rhs)))


def check_commutative(table: AlgebraTable) -> bool:
    g = table.gamma
    return float(np.max(np.abs(g - g.transpose(1, 0, 2)))) <= FLAG_TOL


def try_invert(a: AlgElem, side: str = "left") -> AlgElem:
    """Solve x*a = e_0 (side="left": x is a left inverse) or a*x = e_0.

    Raises Singular when the multiplication matrix's smallest singular value
    is below SINGULAR_REL_SV times its largest, or the round-trip product
    misses the unit by more than INVERT_ROUNDTRIP_TOL.
    """
    table = a.table
    if side == "left":
        # x*a = unit: coefficients of x solve R(a) @ x = e_0
        M = table.right_mult_matrix(a.coeffs)
    elif side == "right":
        M = table.left_mult_matrix(a.coeffs)
    else:
        raise ValueError("side must be 'left' or 'right'")
    sv = np.linalg.svd(M, compute_uv=False)
    if sv[-1] < SINGULAR_REL_SV * sv[0] or sv[0] == 0.0:
        raise Singular(f"element {a!r} not invertible: singular values {sv[0]:.3e}..{sv[-1]:.3e}")
    e0 = np.zeros(table.dim)
    e0[0] = 1.0
    x = np.linalg.solve(M, e0)
    inv = AlgElem(table, x)
    prod = inv * a if side == "left" else a * inv
    if not prod.close_to(table.unit(), INVERT_ROUNDTRIP_TOL):
        raise Singular(f"inverse round-trip error too large for {a!r}")
    return inv


def sum_of_basis_squares(table: AlgebraTable) -> AlgElem:
    """Sum of e_m * e_m over every basis vector, the unit included."""
    total = np.zeros(table.dim)
    for m in range(table.dim):
        total += table.gamma[m, m]
    return AlgElem(table, total)


# -- Cayley-Dickson doubling ------------------------------------------------


def cayley_dickson(table: AlgebraTable) -> AlgebraTable:
    """Double the algebra: pairs (a, b) with (a,b)(c,d) = (ac - conj(d) b, da + b conj(c)).

    Four blocks on the basis pairs, with conj(e_j) = s_j e_j; adding 0.0
    clears the -0.0 the sign flips leave, as the formula's sums do.
    """
    d = table.dim
    g = table.gamma
    gt = g.transpose(1, 0, 2)  # gt[i, j] = e_j e_i
    s = np.full(d, -1.0)
    s[0] = 1.0
    out = np.zeros((2 * d, 2 * d, 2 * d))
    out[:d, :d, :d] = g                              # (e_i, 0)(e_j, 0) = (e_i e_j, 0)
    out[:d, d:, d:] = gt                             # (e_i, 0)(0, e_j) = (0, e_j e_i)
    out[d:, :d, d:] = g * s[None, :, None]           # (0, e_i)(e_j, 0) = (0, e_i conj(e_j))
    out[d:, d:, :d] = -gt * s[None, :, None]         # (0, e_i)(0, e_j) = (-conj(e_j) e_i, 0)
    return AlgebraTable(out + 0.0, [f"e{i}" for i in range(2 * d)])


# -- builtin tables ----------------------------------------------------------


def _table_from_products(dim: int, products: dict[tuple[int, int], dict[int, float]]) -> AlgebraTable:
    """Build gamma from non-unit products; unit rows are filled automatically."""
    g = np.zeros((dim, dim, dim))
    g[0] = np.eye(dim)
    g[:, 0, :] = np.eye(dim)
    for (i, j), combo in products.items():
        if i == 0 or j == 0:
            raise ValueError("unit products are implied, do not list them")
        for k, val in combo.items():
            g[i, j, k] = val
    return AlgebraTable(g)


def _dim2_table(a: float, b: float) -> AlgebraTable:
    # e_1 * e_1 = a e_0 + b e_1
    return _table_from_products(2, {(1, 1): {0: a, 1: b}})


def _quaternion_table() -> AlgebraTable:
    # basis (1, i, j, k): i^2 = j^2 = k^2 = -1, ij = k, jk = i, ki = j
    return _table_from_products(4, {
        (1, 1): {0: -1}, (1, 2): {3: 1}, (1, 3): {2: -1},
        (2, 1): {3: -1}, (2, 2): {0: -1}, (2, 3): {1: 1},
        (3, 1): {2: 1}, (3, 2): {1: -1}, (3, 3): {0: -1},
    })


def _tessarine_table() -> AlgebraTable:
    # commutative basis (1, i, j, k): i^2 = -1, j^2 = +1, k = ij, k^2 = -1
    return _table_from_products(4, {
        (1, 1): {0: -1}, (1, 2): {3: 1}, (1, 3): {2: -1},
        (2, 1): {3: 1}, (2, 2): {0: 1}, (2, 3): {1: 1},
        (3, 1): {2: -1}, (3, 2): {1: 1}, (3, 3): {0: -1},
    })


def _m2r_table() -> AlgebraTable:
    # 2x2 real matrices on the basis
    #   e_0 = I, e_1 = [[0,1],[0,0]], e_2 = [[0,0],[1,0]], e_3 = [[1,0],[0,0]]
    return _table_from_products(4, {
        (1, 1): {}, (1, 2): {3: 1}, (1, 3): {},
        (2, 1): {0: 1, 3: -1}, (2, 2): {}, (2, 3): {2: 1},
        (3, 1): {1: 1}, (3, 2): {}, (3, 3): {3: 1},
    })


def _clifford_table(a1: float, a2: float) -> AlgebraTable:
    # generators e_1, e_2 with e_1^2 = a1, e_2^2 = a2, e_1 e_2 = -e_2 e_1 = e_3
    return _table_from_products(4, {
        (1, 1): {0: a1}, (1, 2): {3: 1}, (1, 3): {2: a1},
        (2, 1): {3: -1}, (2, 2): {0: a2}, (2, 3): {1: -a2},
        (3, 1): {2: -a1}, (3, 2): {1: a2}, (3, 3): {0: -a1 * a2},
    })


_SIMPLE_BUILTINS = {
    "reals": lambda: AlgebraTable(np.ones((1, 1, 1))),
    "complex": lambda: _dim2_table(-1.0, 0.0),
    "quaternion": _quaternion_table,
    "tessarine": _tessarine_table,
    "m2r": _m2r_table,
    "octonion": lambda: cayley_dickson(_quaternion_table()),
    "sedenion": lambda: cayley_dickson(cayley_dickson(_quaternion_table())),
}

_PARAM_BUILTINS = {
    "dim2": (_dim2_table, 2),
    "clifford": (_clifford_table, 2),
}

BUILTIN_NAMES = sorted(_SIMPLE_BUILTINS) + [f"{k}(...)" for k in sorted(_PARAM_BUILTINS)]


def builtin(name: str, *params: float) -> AlgebraTable:
    """Construct a named builtin algebra.

    Accepts either builtin("dim2", a, b) or the packed form builtin("dim2(a,b)").
    """
    name = name.strip()
    if "(" in name:
        if params:
            raise ValueError("pass parameters either inline or as arguments, not both")
        head, _, rest = name.partition("(")
        body = rest.rstrip()
        if not body.endswith(")"):
            raise ValueError(f"malformed builtin name {name!r}")
        head = head.strip()
        args = body[:-1].strip()
        params = tuple(float(tok) for tok in args.split(",")) if args else ()
        name = head
    if name in _SIMPLE_BUILTINS:
        if params:
            raise ValueError(f"builtin {name!r} takes no parameters")
        return _SIMPLE_BUILTINS[name]()
    if name in _PARAM_BUILTINS:
        fn, nargs = _PARAM_BUILTINS[name]
        if len(params) != nargs:
            raise ValueError(f"builtin {name!r} takes {nargs} parameters, got {len(params)}")
        return fn(*params)
    raise KeyError(f"unknown builtin algebra {name!r}; known: {', '.join(BUILTIN_NAMES)}")


# -- JSON io -----------------------------------------------------------------


def algebra_to_dict(table: AlgebraTable) -> dict:
    return {
        "dim": table.dim,
        "basis": table.basis_names,
        "gamma": table.gamma.tolist(),
    }


def algebra_from_dict(data: dict) -> AlgebraTable:
    dim = int(data["dim"])
    gamma = _as_gamma(data["gamma"])
    if gamma.shape[0] != dim:
        raise ValueError(f"dim field {dim} does not match gamma shape {gamma.shape}")
    basis = data.get("basis") or None
    table = AlgebraTable(gamma, basis)
    if not table.unital_validated:
        raise ValueError("loaded table violates the unit rows for e_0")
    return table


def save_algebra(table: AlgebraTable, path: str | Path) -> None:
    Path(path).write_text(json.dumps(algebra_to_dict(table), indent=2) + "\n")


def load_algebra(source: str | Path | dict) -> AlgebraTable:
    """Load from a dict, a JSON file path, or a builtin name (names win over paths)."""
    if isinstance(source, dict):
        return algebra_from_dict(source)
    if is_builtin_name(source):
        return builtin(str(source))
    return algebra_from_dict(json.loads(Path(source).read_text()))


def is_builtin_name(text: str | Path) -> bool:
    """True when text names a builtin algebra, with or without parameters."""
    head = str(text).partition("(")[0].strip()
    return head in _SIMPLE_BUILTINS or head in _PARAM_BUILTINS


def ball_volume(n: int) -> float:
    """Volume of the unit ball in R^n."""
    if n < 1:
        raise ValueError("dimension must be positive")
    return math.pi ** (n / 2) / math.gamma(n / 2 + 1)
