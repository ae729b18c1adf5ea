"""Numerical verification of the reproduction and representation formulas.

boundary_reproduce integrates f(y) * sum_j Flux^j(y; x) nu_j over a sphere
and compares against f(x); verify_representation subtracts a volume term
that carries the condition defect of a C^1 function; and
derivative_via_kernel differentiates the kernel in the pole to recover
first derivatives together with an empirical Cauchy-type bound.

Every term reads the kernel through its coupling c alone, with
Flux^j(y; x) = sum_i X_i c[j, i] / (Vol(B_n) r^n) and X = y - x.  Stokes'
theorem gives

    int_dB f (Flux . nu) = f(x) + int_B sum_j (df/dy_j) * Flux^j

in every algebra, because it uses only bilinearity.  boundary_reproduce and
derivative_via_kernel check that f solves the coupling conditions
sum_j (df/dy_j) * c[j, i] = 0 near x; these are the functions the kernel
reproduces.  In an associative algebra they follow from the conditions a; in
a non-associative one they can be stronger.

Every node sum reads one parametrisation, rays from the pole: the sphere
rule seen from x in its factors (_polar_rule), which give the directions
omega, their weights, the distance reach to the sphere and
s = R (nu . omega).  The sphere element reach^(n-1) / (nu . omega) d omega
and the ball element r^(n-1) dr d omega cancel the kernel's r^-n exactly
(Duffy's device), so no node divides by r^n, and a pole near the sphere
only stretches the integrand along the polar angle.  The boundary and the
volume integrals are then one contraction (_flux_contraction) of the
moments M[j, i, s] = sum_t W_t omega_ti G_tjs with c and the structure
constants: G = nu_j f_s / (nu . omega) = (y - center)_j f_s / s on the
boundary, G = df_s/dy_j in the volume.

One sphere rule serves every n, aligned with the pole: omega =
cos(theta) a + sin(theta) H eta, where the Householder reflection H takes
e_0 to a = -+(x - center) / |x - center| (e_0 at the center).  theta takes
spec.nodes Gauss nodes t mapped by theta = pi/2 + delta sinh(U t),
U = asinh(pi / (2 delta)), which gathers them near the branch points
pi/2 +- i delta of reach and s, delta = asinh(sqrt(R^2 - |d|^2) / |d|) for
d = x - center, capped at MAX_POLAR_WIDTH (Johnston & Elliott, 2005).  eta
takes the product Gauss rule of S^(n-2) for n <= 4 and the degree-5
symmetric rule of 2 (n - 1)^2 points above (Stroud, 1971).  The error
estimate halves theta alone, so above n = 4 f must be a polynomial of
degree <= 3 (<= 2 for the derivative): its integrand, of degree p + 2
(p + 3) in eta, is then exact in eta.

Both moments are summed row by row (_row_sums).  The frame H[:, 1:] is
orthogonal to d = x - center, so p = omega . d = cos(theta) (a . d) is one
number per row of theta, and with it s = sqrt(p^2 + R^2 - |d|^2), the
reach = s - p to the sphere point y = x + reach omega and
y - center = alpha a + beta h, where alpha = a . d + reach cos(theta),
beta = reach sin(theta) and h = H[:, 1:] eta runs over the same directions
in every row, of weights w_e.  On the boundary, with the row weights
u = (w_theta / s) (cos(theta) alpha, cos(theta) beta, sin(theta) alpha,
sin(theta) beta) and A_q[e, s] = sum_r u_q[r] f_s(y_re), the moments split
into

    M[j, i, s] = a_i a_j sum_e w_e A_0[e, s] + a_i sum_e w_e h_ej A_1[e, s]
               + a_j sum_e w_e h_ei A_2[e, s] + sum_e w_e h_ei h_ej A_3[e, s].

In the volume a row is a pair (theta_r, t_q) of a polar angle and a radial
Gauss node on [0, 1], of weight t_w[q]: its points y = x + t_q reach_r omega
lie at x + t_q reach_r cos(theta_r) a plus t_q reach_r sin(theta_r) along
h.  omega_i = cos(theta) a_i + sin(theta) h_ei splits the integrand
reach omega_i df_s/dy_j: with the two row weights
u = w_theta reach t_w (cos(theta), sin(theta)) and
A_q[e, j, s] = sum_r u_q[r] df_s/dy_j(y_re),

    M[j, i, s] = a_i sum_e w_e A_0[e, j, s] + sum_e w_e h_ei A_1[e, j, s].

The radial rule has spec.nodes Gauss points.  For an AlgPolynomial of
degree p the volume term takes m = max(1, ceil(p / 2)) of them when that is
fewer: the radial integrand reach df(x + t reach omega) carries no power of
t and has degree p - 1 in t, which m Gauss points integrate exactly.  Any
other f takes all spec.nodes.  The node budget and the node count stay
those of the rule, rows * spec.nodes * |eta|.

So a node costs only y and f(y) (df(y) in the volume): each block of rows
adds one (rows of u, rows) @ (rows, |eta| m) product to A, and A meets w,
w h and w h h^T once, after the last block, one small product per i.

The derivative term needs each node's flux, since its bound constant is no
row sum: it integrates the spectral norm of right multiplication by the
flux.  The flux of d/dx_i is sum_jk nu_j Z_k c[j, k] / Vol(B_n) with
Z = n omega_i omega - e_i; as nu = (alpha a + beta h) / R and omega =
cos(theta) a + sin(theta) h, it is bilinear in the row factors
P = (alpha, beta) x (cos^2, cos sin, sin^2, 1) of theta (_flux_rows) and
the direction factors Q of h (_flux_directions), so a block's flux is one
(rows, 8) @ (8, |eta| dim) product.  Where the table is norm_multiplicative
(the composition algebras R, C, H and O: right multiplication by q is |q|
times an isometry) that norm is |flux|; elsewhere it is the square root of
the largest eigenvalue of the Gram matrix (eigvalsh), one per node.  f is
evaluated on every node, at the points y = x + reach omega formed node by
node, since sup_boundary is a maximum over the nodes.

The row sum of a polynomial.  Every boundary point is y = center +
alpha a + beta h with alpha^2 + beta^2 = R^2, so for a fixed h_e a
polynomial f of degree p is a trigonometric polynomial of degree p in
psi = atan2(beta, alpha).  Interpolated on the 2p + 1 equispaced angles
psi'_m = 2 pi m / (2p + 1), whose Lebesgue constant is small (5/3 at
p = 1), it gives

    A_q[e, s] = sum_m v_q[m] f_s(center + R cos(psi'_m) a + R sin(psi'_m) h_e),

v = u L, L[r, m] = (1 + 2 sum_{j=1..p} cos(j (psi_r - psi'_m))) / (2p + 1),
equal to the sum over the rule's rows up to rounding (_summed_rows).  An
AlgPolynomial with 2p + 1 below the rule's rows (spec.nodes; 2 at n = 1)
is evaluated on those 2p + 1 rows, any other f on the rule's own rows.
The rule, its weights, its node count and the error estimate stay those
of the rule.

Every sum streams in blocks of about CHUNK nodes that one walker,
_row_blocks, cuts for all three terms: whole rows, a row wider than CHUNK
cut around the axis.  Each block is turned into a partial sum by one GEMM
and added in block order, so no array spans the whole rule.  The 1-D
Gauss-Legendre factors and the rules around the axis (per n and k) are
cached, read-only.  MAX_QUADRATURE_NODES caps the nodes of any rule, and
MAX_AXIS_NODES the Gauss nodes per angle, before anything is built.
"""
from __future__ import annotations

import functools
import math
import numbers
import sys
from dataclasses import dataclass

import numpy as np

from .algebra import AlgElem, _as_integer, ball_volume
from .kernel import CauchyKernel, _point
from .solutions import AlgPolynomial, _eval_function, condition_values, gradient_values

MIN_NODES = 8
MAX_QUADRATURE_NODES = 2**22
MAX_AXIS_NODES = math.isqrt(MAX_QUADRATURE_NODES)
CHUNK = 4096
GAUSS_CACHE_SIZE = 16
MAX_POLAR_WIDTH = 50.0
SYMMETRIC_RULE_DEGREE = 5


class PointOutsideDomain(Exception):
    """Evaluation point is not strictly inside the ball."""


class QuadratureUnderResolved(Exception):
    """The half-resolution error estimate exceeds the requested bound."""


class QuadratureTooLarge(ValueError):
    """The rule would need more than MAX_QUADRATURE_NODES nodes."""


@dataclass(frozen=True)
class BallDomain:
    """Ball { y : ||y - center|| < radius }."""

    center: np.ndarray
    radius: float

    def __post_init__(self):
        center = np.array(self.center, dtype=float)
        if center.ndim != 1 or center.size == 0:
            raise ValueError(
                f"ball center must be a non-empty vector, got shape {center.shape}")
        if not np.all(np.isfinite(center)):
            raise ValueError("ball center must be finite")
        center.setflags(write=False)
        object.__setattr__(self, "center", center)
        radius = np.asarray(self.radius)
        if radius.ndim != 0 or radius.dtype.kind not in "iuf":
            raise ValueError(f"ball radius must be a real scalar, got {self.radius!r}")
        radius = float(radius)
        if not (radius > 0 and math.isfinite(radius)):
            raise ValueError("ball radius must be positive and finite")
        # the node sums square lengths of up to 2 R: keep them normal floats
        lo, hi = math.sqrt(sys.float_info.min), 0.5 * math.sqrt(sys.float_info.max)
        if not lo <= radius <= hi:
            raise ValueError(f"ball radius {radius:.6g} is outside [{lo:.3g}, {hi:.3g}]")
        object.__setattr__(self, "radius", radius)

    @property
    def n(self) -> int:
        return self.center.shape[0]


@dataclass(frozen=True)
class QuadratureSpec:
    """Resolution of the sphere rule: Gauss nodes per angle; only the polar
    angle above n = 4.  Volume terms add nodes radial points per direction
    to the rule; a polynomial of degree p is evaluated on max(1, ceil(p / 2))
    of them when that is fewer, which is exact for it."""

    nodes: int = 32

    def __post_init__(self):
        nodes = _as_integer(self.nodes, "nodes")
        if nodes < MIN_NODES:
            raise ValueError(f"nodes must be >= {MIN_NODES}")
        object.__setattr__(self, "nodes", nodes)


@dataclass(frozen=True)
class ReproductionReport:
    """The quadrature value computed next to f(x) as expected.

    rel_error is abs_error / |f(x)|, and abs_error itself where f(x) = 0.
    nodes is the size of the rule (boundary and volume nodes), not the
    number of points f was evaluated at: the boundary sum of a polynomial
    evaluates it on fewer rows than the rule has.
    """

    computed: AlgElem
    expected: AlgElem
    abs_error: float
    rel_error: float
    nodes: int

    def to_dict(self) -> dict:
        return {
            "computed": self.computed.coeffs.tolist(),
            "expected": self.expected.coeffs.tolist(),
            "abs_error": self.abs_error,
            "rel_error": self.rel_error,
            "nodes": self.nodes,
        }


@dataclass(frozen=True)
class DerivativeReport:
    value: AlgElem
    estimate_check: bool
    bound_constant: float
    sup_boundary: float
    nodes: int


def sphere_area(n: int, radius: float = 1.0) -> float:
    """Surface measure of the (n-1)-sphere of the given radius in R^n."""
    return 2.0 * math.pi ** (n / 2.0) / math.gamma(n / 2.0) * radius ** (n - 1)


def _read_only(*arrays: np.ndarray) -> tuple[np.ndarray, ...]:
    """The arrays, made read-only: the rules below are cached and shared."""
    for array in arrays:
        array.setflags(write=False)
    return arrays


@functools.lru_cache(maxsize=GAUSS_CACHE_SIZE)
def _gauss_legendre(k: int):
    """The k-node Gauss-Legendre rule on [-1, 1] as read-only (t, w), shared
    by the angles and the radius.  Callers check k against MAX_AXIS_NODES."""
    return _read_only(*np.polynomial.legendre.leggauss(k))


@functools.lru_cache(maxsize=GAUSS_CACHE_SIZE)
def _sphere_directions_gauss(m: int, k: int):
    """Directions and weights of the product Gauss rule on the unit sphere
    of R^m, m <= 3, sum(w) = its area, as an (N, m) view of coordinate-major
    directions: +-1 of weight 1 at m = 1, k Gauss azimuths on [0, 2 pi] at
    m = 2, and at m = 3 the k x k grid, in C order, of a polar angle on
    [0, pi] and the azimuth, of weight w_polar w_azimuth sin(polar)."""
    if m == 1:
        return _read_only(np.array([[1.0], [-1.0]]), np.array([1.0, 1.0]))
    t, wt = _gauss_legendre(k)
    azimuth, w = math.pi * t + math.pi, math.pi * wt
    if m == 2:
        return _read_only(np.stack([np.cos(azimuth), np.sin(azimuth)]).T, w)
    polar = 0.5 * math.pi * t + 0.5 * math.pi
    sin_polar = np.sin(polar)[:, None]
    omega = np.stack(np.broadcast_arrays(np.cos(polar)[:, None], sin_polar * np.cos(azimuth),
                                         sin_polar * np.sin(azimuth)))
    w = (0.5 * math.pi * wt)[:, None] * w * sin_polar
    return _read_only(omega.reshape(3, -1).T, w.ravel())


@functools.lru_cache(maxsize=GAUSS_CACHE_SIZE)
def _sphere_directions_degree5(m: int):
    """The fully symmetric degree-5 rule on the unit sphere of R^m (Stroud,
    1971): the 2m points +-e_i with weight A (4 - m) / (2m (m + 2)) and the
    2m (m - 1) points (+-e_i +-e_j) / sqrt(2), i < j, with weight
    A / (m (m + 2)), where A is the area; 2 m^2 directions in all."""
    eye, (i, j) = np.eye(m), np.triu_indices(m, 1)
    pairs = np.vstack([eye[i] + eye[j], eye[i] - eye[j]]) / math.sqrt(2.0)
    omega = np.vstack([eye, -eye, pairs, -pairs])
    w = np.full(len(omega), sphere_area(m) / (m * (m + 2)))
    w[: 2 * m] *= 0.5 * (4 - m)
    return _read_only(omega, w)


def _polar_rule(x: np.ndarray, domain: BallDomain, spec: QuadratureSpec,
                per_direction: int = 1):
    """The sphere rule aligned with the pole x (see the module docstring) in
    its factors: the axis a, the frame h = H[:, 1:] eta (n, |eta|) of the
    directions around it with their weights w_eta, and per row of theta
    cos(theta), sin(theta) and w_theta.  Direction (r, e) is
    cos(theta_r) a + sin(theta_r) h_e, of weight w_theta[r] w_eta[e].  At
    n = 1, a = -1 and the two directions +-1 are two rows, cos(theta) = -+1,
    around one point h = 0 of weight 1.  Checks spec.nodes against
    MAX_AXIS_NODES and directions * per_direction against
    MAX_QUADRATURE_NODES before anything is built."""
    n, k = domain.n, spec.nodes
    # leggauss(k) solves a k x k eigenproblem: bound k before the rule
    if k > MAX_AXIS_NODES:
        raise QuadratureTooLarge(
            f"rule needs {k} nodes per axis; the limit is {MAX_AXIS_NODES}")
    rows = 2 if n == 1 else k
    around = (1 if n == 1 else 2 if n == 2 else k ** (n - 2) if n <= 4
              else 2 * (n - 1) ** 2)
    if rows * around * per_direction > MAX_QUADRATURE_NODES:
        raise QuadratureTooLarge(
            f"rule needs {rows * around * per_direction} nodes; "
            f"the limit is {MAX_QUADRATURE_NODES}"
        )
    d = x - domain.center
    dist = float(np.linalg.norm(d))
    e0 = np.eye(n)[0]
    e = d / dist if dist > 0 else e0
    v = e + math.copysign(1.0, e[0]) * e0  # |v| >= sqrt(2): nothing cancels
    H = np.eye(n) - (2.0 / (v @ v)) * np.outer(v, v)  # takes e_0 to -+e
    if n == 1:
        return (H[:, 0], np.zeros((1, 1)), np.ones(1),
                np.array([-1.0, 1.0]), np.zeros(2), np.ones(2))
    eta, w_eta = (_sphere_directions_gauss(n - 1, k) if n <= 4
                  else _sphere_directions_degree5(n - 1))
    root = math.sqrt(domain.radius**2 - dist * dist)
    delta = math.asinh(root / max(dist, root / math.sinh(MAX_POLAR_WIDTH)))
    U = math.asinh(0.5 * math.pi / delta)
    t, w_t = _gauss_legendre(k)
    tilt = delta * np.sinh(U * t)  # theta - pi/2
    cos_theta, sin_theta = -np.sin(tilt), np.cos(tilt)
    w_theta = delta * U * np.cosh(U * t) * w_t * sin_theta ** (n - 2)
    return H[:, 0], H[:, 1:] @ eta.T, w_eta, cos_theta, sin_theta, w_theta


def _row_blocks(rows: int, around: int):
    """(rows, cols) slices of about CHUNK nodes each, the one blocking of
    every node sum: whole rows of a rule of rows x around nodes, a row wider
    than CHUNK cut around the axis."""
    step, width = max(1, CHUNK // around), min(around, CHUNK)
    for lo in range(0, rows, step):
        for e in range(0, around, width):
            yield slice(lo, lo + step), slice(e, e + width)


def _row_sums(F, base, beta, h, u) -> np.ndarray:
    """A[q, e] = sum_r u[q, r] F(base_r + beta_r h_e), for points base
    (n, rows), reach beta (rows,) along the directions h (n, around) and row
    weights u (Q, rows); F maps (N, n) points to (N, m) values.  Streamed
    over _row_blocks, one (Q, rows) @ (rows, around m) product a block."""
    (n, around), Q = h.shape, len(u)
    A = None
    for rows, cols in _row_blocks(len(beta), around):
        Y = base[:, rows, None] + beta[rows, None] * h[:, None, cols]
        fv = F(Y.reshape(n, -1).T)
        if A is None:
            A = np.zeros((Q, around, fv.shape[1]))
        A[:, cols] += (u[:, rows] @ fv.reshape(Y.shape[1], -1)).reshape(Q, -1, fv.shape[1])
    return A


def _node_values(f, Y: np.ndarray, dim: int, what: str) -> np.ndarray:
    """The values of f (what = "f") or of its derivatives (what = "df/dy",
    (N, n dim)) at the points Y (N, n) as they enter a node sum.  They are
    computed under np.errstate(over="ignore", invalid="ignore") and refused
    with a ValueError that names what and the first such point unless every
    entry is finite, so an overflow is refused by name, not warned about."""
    with np.errstate(over="ignore", invalid="ignore"):
        values = (_eval_function(f, Y, dim) if what == "f"
                  else gradient_values(f, Y, dim).reshape(len(Y), -1))
    if not np.isfinite(values).all():
        bad = ~np.isfinite(values).all(axis=1)
        raise ValueError(f"{what} is not finite at y = {Y[bad][0].tolist()}")
    return values


def _norm(values: np.ndarray, axis=None):
    """np.linalg.norm(values, axis=axis), and where that overflows while the
    entries are finite, the norm of the entries scaled by the largest of
    them, times it: bit-identical wherever the plain norm is finite, and
    infinite only where the norm is above the float range.  Callers run it
    under np.errstate(over="ignore")."""
    norm = np.linalg.norm(values, axis=axis)
    if np.isfinite(norm).all() or not np.isfinite(values).all():
        return norm
    big = np.max(np.abs(values), axis=axis, keepdims=True)
    big = np.where(big > 0, big, 1.0)
    scaled = np.linalg.norm(values / big, axis=axis) * big.squeeze(axis)
    return np.where(np.isfinite(norm), norm, scaled)


def _check_degree_around_axis(f, n: int, extra: int) -> None:
    """Above n = 4 refuse f unless the rule around the polar axis is exact
    for it (see the module docstring)."""
    limit = SYMMETRIC_RULE_DEGREE - extra
    if n > 4 and not (isinstance(f, AlgPolynomial) and f.degree <= limit):
        got = f"degree {f.degree}" if isinstance(f, AlgPolynomial) else "a callable"
        raise ValueError(f"above n = 4 the sphere rule is exact around the polar axis "
                         f"only for a polynomial f of degree <= {limit} here; got {got}")


def _inside_point(x, domain: BallDomain, kernel: CauchyKernel) -> np.ndarray:
    """x as a float vector, checked against the kernel and strictly inside."""
    if domain.n != kernel.n:
        raise ValueError("domain dimension does not match the kernel")
    x = _point(kernel, "x", x)
    dist = math.hypot(*(x - domain.center))  # |d|^2 may overflow where |d| does not
    if not dist < domain.radius:
        raise PointOutsideDomain(
            f"point at distance {dist:.6g} from center; radius {domain.radius:.6g}"
        )
    return x


def _check_is_solution(f, kernel: CauchyKernel, x: np.ndarray,
                       domain: BallDomain) -> None:
    """Refuse f unless it solves the coupling conditions near x.

    The defect is scaled by n, since n c has e_0 on its diagonal.  Values of
    f that are not finite, and defects that are not finite or whose norm
    overflows, are refused by name first, computed under
    np.errstate(over="ignore", invalid="ignore") so that no numpy warning
    comes before the refusal.
    """
    gap = domain.radius - float(np.linalg.norm(x - domain.center))
    steps = 0.25 * gap * np.eye(kernel.n)
    pts = np.vstack([x, x + steps, x - steps])
    with np.errstate(over="ignore", invalid="ignore"):
        peak = float(np.max(np.abs(_eval_function(f, pts, kernel.table.dim))))
        values = condition_values(kernel.coupling_conditions, f, pts)
        worst = kernel.n * float(np.max(_norm(values, axis=2)))
    # np.max keeps NaN, where max(1.0, nan) would not
    if not (math.isfinite(peak) and np.isfinite(values).all()):
        raise ValueError(f"f or df/dy is not finite near x = {x.tolist()}")
    if not math.isfinite(worst):
        raise ValueError(f"f is too large near x = {x.tolist()}: the norm of its "
                         "coupling-condition defect overflows")
    if worst > 1e-4 * max(1.0, peak):
        raise ValueError(
            f"f violates the Cauchy conditions near x in their coupling form "
            f"sum_j (df/dy_j) * c[j, i] = 0 (defect {worst:.3e}); "
            "use verify_representation for general C^1 functions"
        )


def _flux_rows(alpha, beta, cos_theta, sin_theta) -> np.ndarray:
    """The row factors P (rows, 8) of the derivative's flux, for y - center =
    alpha a + beta h and omega = cos(theta) a + sin(theta) h (see
    _flux_directions)."""
    cc, cs, ss = cos_theta * cos_theta, cos_theta * sin_theta, sin_theta * sin_theta
    return np.stack([alpha * cc, alpha * cs, alpha * ss, beta * cc, beta * cs,
                     beta * ss, alpha, beta], axis=1)


def _flux_directions(h: np.ndarray, a: np.ndarray, i: int, c: np.ndarray) -> np.ndarray:
    """The direction factors Q (8, |h| dim) of the derivative's flux around
    the axis a, for the directions h (n, |h|) and the coupling c scaled by
    1 / (Vol(B_n) R).

    The flux of d/dx_i at a node is sum_jk nu_j Z_k c[j, k] / Vol(B_n) with
    Z = n omega_i omega - e_i and nu = (alpha a + beta h) / R.  With
    C(u, v) = sum_jk u_j v_k c[j, k] it is P @ Q, P from _flux_rows and
    Q = (n a_i C(a, a), n a_i C(a, h) + n h_i C(a, a), n h_i C(a, h),
    n a_i C(h, a), n a_i C(h, h) + n h_i C(h, a), n h_i C(h, h),
    -C(a, e_i), -C(h, e_i))."""
    n, dim = c.shape[1], c.shape[2]
    Ca = (a @ c.reshape(n, -1)).reshape(n, dim)  # Ca[k] = C(a, e_k)
    Ch = (h.T @ c.reshape(n, -1)).reshape(-1, n, dim)  # Ch[e, k] = C(h_e, e_k)
    Caa, Cah, Cha = a @ Ca, h.T @ Ca, Ch.swapaxes(1, 2) @ a
    Chh = np.einsum("ke,ekd->ed", h, Ch)
    na, nh = n * a[i], n * h[i, :, None]
    Q = np.empty((8, h.shape[1], dim))
    Q[0] = na * Caa
    Q[1] = na * Cah + nh * Caa
    Q[2] = nh * Cah
    Q[3] = na * Cha
    Q[4] = na * Chh + nh * Cha
    Q[5] = nh * Chh
    Q[6] = -Ca[i]
    Q[7] = -Ch[:, i]
    return Q.reshape(8, -1)


def _flux_contraction(M: np.ndarray, kernel: CauchyKernel) -> np.ndarray:
    """sum_{j,i,s,d} M[j, i, s] c[j, i, d] gamma[s, d, k] / Vol(B_n): the
    integral of sum_j G_j * Flux^j whose moments M are."""
    n, dim = kernel.n, kernel.table.dim
    S = M.reshape(n * n, dim).T @ kernel.c.reshape(n * n, dim)
    return S.ravel() @ kernel.table.gamma.reshape(dim * dim, dim) / ball_volume(n)


def _summed_rows(f, domain, a, base, alpha, beta, u):
    """The rows the boundary sum evaluates f on: their points base (n, rows)
    on the axis, their reach beta along h and their weights u (4, rows).

    The rule's own rows of theta, as given, unless f is an AlgPolynomial of
    degree p with 2p + 1 < rows; then the 2p + 1 equispaced angles psi'_m of
    the row sum of a polynomial (see the module docstring), base = center +
    R cos(psi'_m) a, beta = R sin(psi'_m), with the weights u L.
    """
    if not isinstance(f, AlgPolynomial) or 2 * (p := f.degree) + 1 >= len(beta):
        return base, beta, u
    R = domain.radius
    psi_m = (2.0 * math.pi / (2 * p + 1)) * np.arange(2 * p + 1)
    gap = np.subtract.outer(np.arctan2(beta, alpha), psi_m)  # (rows, 2p + 1)
    # the trigonometric Lagrange basis as a cosine sum, which divides by
    # nothing; at p = 0 the sum is empty and L is all ones
    L = (1.0 + 2.0 * np.cos(gap[:, :, None] * np.arange(1, p + 1)).sum(axis=2)) / (2 * p + 1)
    return domain.center[:, None] + (R * np.cos(psi_m)) * a[:, None], R * np.sin(psi_m), u @ L


def _boundary_term(f, x, domain, kernel, spec) -> tuple[np.ndarray, int]:
    """Integral of f (Flux . nu) over the sphere along rays from x, summed
    row by row (see the module docstring): per node only y and f(y), the
    row weights u_q contracted with f over each block of rows into
    A[q, e, s], then A with w, w h and w h h^T into the moments.  The node
    count returned is the size of the rule, whatever rows _summed_rows
    evaluates f on."""
    a, h, w_eta, cos_theta, sin_theta, w_theta = _polar_rule(x, domain, spec)
    around, dim = h.shape[1], kernel.table.dim
    d = x - domain.center
    ad = float(a @ d)
    p = cos_theta * ad  # omega . d: h is orthogonal to d
    s = np.sqrt(p * p + (domain.radius**2 - float(d @ d)))
    reach = s - p
    alpha, beta = ad + reach * cos_theta, reach * sin_theta  # y - center = alpha a + beta h
    u = (w_theta / s) * np.stack([cos_theta * alpha, cos_theta * beta,
                                  sin_theta * alpha, sin_theta * beta])
    base = x[:, None] + (reach * cos_theta) * a[:, None]  # (n, rows)
    base, beta, u = _summed_rows(f, domain, a, base, alpha, beta, u)
    A = _row_sums(lambda Y: _node_values(f, Y, dim, "f"), base, beta, h, u)
    hw = h * w_eta
    T0, T1, T2 = w_eta @ A[0], hw @ A[1], hw @ A[2]
    # w h h^T: one small product per i, not one (n^2, |eta|) @ (|eta|, dim)
    # GEMM, which BLAS may split over threads and round differently
    T3 = np.stack([hw @ (h_i[:, None] * A[3]) for h_i in h], axis=1)
    M = (np.multiply.outer(np.outer(a, a), T0) + a[None, :, None] * T1[:, None, :]
         + a[:, None, None] * T2[None, :, :] + T3)
    return _flux_contraction(M, kernel), len(s) * around


def _reproduction_report(f, x, kernel, spec, term,
                         target_error) -> ReproductionReport:
    """Compare term(spec) with f(x).

    term(spec) returns the quadrature value and its node count; with
    target_error set (it must be positive), term is rerun on the partner
    rule, of half the nodes (double when half is below MIN_NODES), and
    QuadratureUnderResolved is raised when the two differ by more.  f(x) is
    read as the node values are, so a value that is not finite is refused
    by name.  The sums run under np.errstate(over="ignore",
    invalid="ignore"), and f is refused as too large where a reported norm
    or the error estimate is not finite.
    """
    if target_error is not None and not (isinstance(target_error, numbers.Real)
                                         and target_error > 0):
        raise ValueError(f"target_error must be positive, got {target_error!r}")
    estimate = 0.0
    with np.errstate(over="ignore", invalid="ignore"):
        acc, used = term(spec)
        if target_error is not None:
            half = spec.nodes // 2
            partner, _ = term(QuadratureSpec(half if half >= MIN_NODES else 2 * spec.nodes))
            estimate = float(_norm(acc - partner))
        expected = _node_values(f, x[None, :], kernel.table.dim, "f")[0]
        abs_err = float(_norm(acc - expected))
        size = float(_norm(expected))
    if not (math.isfinite(abs_err) and math.isfinite(size) and math.isfinite(estimate)):
        raise ValueError(f"f is too large near x = {x.tolist()}: a node sum or the "
                         f"norm of f(x) or of the error overflows")
    if target_error is not None and estimate > target_error:
        raise QuadratureUnderResolved(
            f"error estimate {estimate:.3e} exceeds target {target_error:.3e}"
        )
    rel_err = abs_err / size if size > 0 else abs_err
    return ReproductionReport(
        computed=AlgElem(kernel.table, acc),
        expected=AlgElem(kernel.table, expected),
        abs_error=abs_err,
        rel_error=rel_err,
        nodes=used,
    )


def boundary_reproduce(
    f,
    x,
    domain: BallDomain,
    kernel: CauchyKernel,
    spec: QuadratureSpec,
    target_error: float | None = None,
) -> ReproductionReport:
    """Reproduce f(x) from boundary values of a condition-set solution.

    Computes the flux integral of f against the kernel over the sphere and
    reports it next to the direct evaluation f(x).  target_error requests a
    half-resolution error estimate and raises QuadratureUnderResolved when
    the estimate exceeds it.
    """
    x = _inside_point(x, domain, kernel)
    _check_degree_around_axis(f, kernel.n, 2)
    _check_is_solution(f, kernel, x, domain)
    return _reproduction_report(
        f, x, kernel, spec,
        lambda s: _boundary_term(f, x, domain, kernel, s), target_error,
    )


def _volume_term(f, x, domain, kernel, spec) -> tuple[np.ndarray, int]:
    """Integral of sum_j (df/dy_j) * Flux^j(y; x) over the ball along rays
    from x, y = x + t reach omega with t on [0, 1], summed row by row of
    (theta, t) with two row weights (see the module docstring), on
    max(1, ceil(p / 2)) radial points for an AlgPolynomial of degree p and
    spec.nodes otherwise.  The node count returned is the size of the rule."""
    n, k, dim = domain.n, spec.nodes, kernel.table.dim
    a, h, w_eta, cos_theta, sin_theta, w_theta = _polar_rule(x, domain, spec, k)
    # df(x + t reach omega) reach has degree p - 1 in t for a polynomial f of
    # degree p, which m = ceil(p / 2) Gauss points integrate exactly
    m = min(k, max(1, -(-f.degree // 2))) if isinstance(f, AlgPolynomial) else k
    d = x - domain.center
    p = cos_theta * float(a @ d)  # omega . d: h is orthogonal to d
    reach = np.sqrt(p * p + (domain.radius**2 - float(d @ d))) - p
    t, t_w = _gauss_legendre(m)
    r = np.outer(reach, 0.5 * (t + 1.0)).ravel()  # t reach on the rows (theta_r, t_q)
    cos_r, sin_r = np.repeat(cos_theta, m), np.repeat(sin_theta, m)
    u = np.outer(w_theta * reach, 0.5 * t_w).ravel() * np.stack([cos_r, sin_r])
    A = _row_sums(lambda Y: _node_values(f, Y, dim, "df/dy"),
                  x[:, None] + (r * cos_r) * a[:, None], r * sin_r, h, u)
    T0 = w_eta @ A[0]
    # M[i, (j, s)], one small product per i, as w h h^T in the boundary term
    M = np.stack([a_i * T0 + (h_i * w_eta) @ A[1] for a_i, h_i in zip(a, h)])
    return (_flux_contraction(M.reshape(n, n, dim).swapaxes(0, 1), kernel),
            len(w_theta) * k * len(w_eta))


def verify_representation(
    f,
    x,
    domain: BallDomain,
    kernel: CauchyKernel,
    spec: QuadratureSpec,
    target_error: float | None = None,
) -> ReproductionReport:
    """Boundary term minus volume term for a C^1 function.

    By Stokes' theorem the difference is f(x) in every algebra, without f
    being a solution: the volume integrand sum_j (df/dy_j) * Flux^j carries
    the coupling-condition defect of f.  In a non-associative algebra the
    kernel reproduces, from the boundary alone, the solutions of its
    coupling conditions sum_j (df/dy_j) * c[j, i] = 0.
    """
    x = _inside_point(x, domain, kernel)
    _check_degree_around_axis(f, kernel.n, 2)

    def term(s: QuadratureSpec) -> tuple[np.ndarray, int]:
        bnd, used_b = _boundary_term(f, x, domain, kernel, s)
        vol, used_v = _volume_term(f, x, domain, kernel, s)
        return bnd - vol, used_b + used_v

    return _reproduction_report(f, x, kernel, spec, term, target_error)


@np.errstate(over="ignore", invalid="ignore")
def derivative_via_kernel(
    f,
    x,
    i: int,
    domain: BallDomain,
    kernel: CauchyKernel,
    spec: QuadratureSpec,
) -> DerivativeReport:
    """d f / d x_i from boundary values, via the pole derivative of the kernel.

    The pole derivative of the normal-contracted flux reads c alone, and
    the integral of f against it returns the i-th partial derivative of f
    at x.  Also reports the empirical constant
    M = R * integral of the spectral norm of right-multiplication by the
    contracted flux, which bounds |df| by M sup|f| / R.  That norm is |flux|
    when the table is norm_multiplicative and the largest singular value,
    from eigvalsh of the Gram matrix at each node, otherwise.  It runs under
    np.errstate(over="ignore", invalid="ignore"), and f is refused as too
    large where the value, the bound or sup |f| is not finite.
    """
    i = _as_integer(i, "derivative direction")
    if not 0 <= i < kernel.n:
        raise ValueError("derivative direction out of range")
    x = _inside_point(x, domain, kernel)
    _check_degree_around_axis(f, kernel.n, 3)
    _check_is_solution(f, kernel, x, domain)

    n, R, table = kernel.n, domain.radius, kernel.table
    a, h, w_eta, cos_theta, sin_theta, w_theta = _polar_rule(x, domain, spec)
    d = x - domain.center
    gap = R**2 - float(d @ d)
    # per row of theta, as in the boundary term: y - center = alpha a + beta h
    # and s; d/dx_i (X_k / r^n) = (n omega_i omega_k - delta_ik) / r^n, and
    # dS = reach^(n-1) R / s d omega leaves the weight w R / (s reach)
    ad = float(a @ d)
    s_row = np.sqrt((cos_theta * ad) ** 2 + gap)
    reach_row = s_row - cos_theta * ad
    rows_f = _flux_rows(ad + reach_row * cos_theta, reach_row * sin_theta,
                        cos_theta, sin_theta)
    w_row = w_theta * R / (s_row * reach_row)
    c = kernel.c / (ball_volume(n) * R)
    S, weighted_norms, sup_f, used, last = 0.0, 0.0, 0.0, 0, None
    for rows, cols in _row_blocks(len(w_theta), len(w_eta)):
        if cols != last:
            directions = _flux_directions(h[:, cols], a, i, c)
            last = cols
        # f is evaluated on every node: sup_boundary is a maximum over them.
        # Node-major (N, n) in memory too (broadcasting from h.T can leave it
        # coordinate-major), so p = omega . d and the points y are the same
        # products, to the last bit, as in a node-by-node sum over the rule
        omega = np.ascontiguousarray((cos_theta[rows, None, None] * a
                                      + sin_theta[rows, None, None] * h.T[cols]).reshape(-1, n))
        p = omega @ d
        Y = x[:, None] + (np.sqrt(p * p + gap) - p) * omega.T  # (n, N): coordinate-major
        flux = (rows_f[rows] @ directions).reshape(-1, table.dim)
        wd = (w_row[rows, None] * w_eta[cols]).ravel()
        fv = _node_values(f, Y.T, table.dim, "f")
        S = S + (wd[:, None] * fv).T @ flux
        # empirical Cauchy-estimate constant: spectral norms of the matrices
        # of right multiplication by each node's flux, |flux| itself where
        # every right multiplication is a scaled isometry
        if table.norm_multiplicative:
            norms = np.linalg.norm(flux, axis=1)
        else:
            right_mult = table.right_mult_matrix(flux)
            gram = np.swapaxes(right_mult, 1, 2) @ right_mult
            norms = np.sqrt(np.maximum(np.linalg.eigvalsh(gram)[:, -1], 0.0))
        weighted_norms += float(np.sum(wd * norms))
        sup_f = max(sup_f, float(np.max(_norm(fv, axis=1))))
        used += len(wd)
    value = np.ravel(S) @ table.gamma.reshape(table.dim**2, table.dim)
    M = R * weighted_norms
    bound = weighted_norms * sup_f
    size = float(_norm(value))
    if not all(map(math.isfinite, (size, M, bound))):
        raise ValueError(f"f is too large near x = {x.tolist()}: the derivative's "
                         "value, its bound or sup |f| overflows")
    holds = size <= bound * (1.0 + 1e-8) + 1e-12
    return DerivativeReport(
        value=AlgElem(table, value),
        estimate_check=holds,
        bound_constant=M,
        sup_boundary=sup_f,
        nodes=used,
    )
