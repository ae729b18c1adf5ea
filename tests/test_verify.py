import functools
import os
import re
import subprocess
import sys
import tracemalloc
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from hypercauchy import verify
from hypercauchy.admissibility import CRConditionSet, solve_admissibility
from hypercauchy.algebra import AlgebraTable, ball_volume, builtin
from hypercauchy.families import (
    dbar_conditions,
    fueter_conditions,
    gallery,
    single_condition,
)
from hypercauchy.kernel import CauchyKernel, kernel_field_batch
from hypercauchy.solutions import (
    AlgPolynomial,
    condition_values,
    gradient_values,
    monomial_exponents,
    polynomial_solution_basis,
)
from hypercauchy.verify import (
    CHUNK,
    MAX_AXIS_NODES,
    BallDomain,
    DerivativeReport,
    PointOutsideDomain,
    QuadratureSpec,
    QuadratureTooLarge,
    QuadratureUnderResolved,
    _boundary_term,
    _flux_contraction,
    _flux_directions,
    _flux_rows,
    _norm,
    _polar_rule,
    _sphere_directions_degree5,
    _sphere_directions_gauss,
    _volume_term,
    boundary_reproduce,
    derivative_via_kernel,
    sphere_area,
    verify_representation,
)

FEASIBLE = [case for case in gallery() if case.expected_feasible]
PARITY_NODES = 9000


def _complex_kernel():
    return CauchyKernel.from_conditions(dbar_conditions())


def _fueter_kernel():
    return CauchyKernel.from_conditions(fueter_conditions())


def _z():
    table = builtin("complex")
    i = AlgPolynomial.constant(table, 2, [0.0, 1.0])
    return AlgPolynomial.coordinate(table, 2, 0) + AlgPolynomial.coordinate(
        table, 2, 1
    ) * i


def _cubic():
    z = _z()
    return z * z * z + 2.0 * z


def _zeta1():
    table = builtin("quaternion")
    e = np.eye(4)
    return AlgPolynomial.coordinate(table, 4, 1) * AlgPolynomial.constant(
        table, 4, e[0]
    ) - AlgPolynomial.coordinate(table, 4, 0) * AlgPolynomial.constant(table, 4, e[1])


@functools.lru_cache(maxsize=None)
def _gallery_kernel(name):
    return CauchyKernel.from_conditions(next(c for c in gallery() if c.name == name).build())


def _coupling_solution(K, degree, rng):
    """A random combination of the kernel's coupling solutions of degree <= degree."""
    basis = polynomial_solution_basis(K.coupling_conditions, degree)
    coeffs = sum(c * b.coeffs for c, b in zip(rng.normal(size=len(basis)), basis))
    return AlgPolynomial(K.table, basis[0].exponents, coeffs)


def _whole_rule(x, D, spec):
    """The sphere rule aligned with the pole x, joined from _polar_rule's
    factors into whole arrays: the directions omega = cos(theta_r) a +
    sin(theta_r) h_e (N, n), row by row of theta, and their weights
    w_theta[r] w_eta[e]."""
    a, h, w_eta, cos_theta, sin_theta, w_theta = _polar_rule(x, D, spec)
    omega = a * cos_theta[:, None, None] + h.T * sin_theta[:, None, None]
    return omega.reshape(-1, len(a)), (w_theta[:, None] * w_eta).ravel()


def _moments(omega, W, G):
    """M[j, i, s] = sum_t W_t omega_ti G_tjs, the moments _flux_contraction
    reads, summed node by node."""
    return np.einsum("t,ti,tjs->jis", W, omega, G)


@pytest.mark.parametrize("n,k", [(1, 8), (2, 32), (3, 24), (4, 16)])
def test_sphere_quadrature_area_and_centroid(n, k):
    # the rule seen from a pole at the center: its sphere elements sum to
    # the area and its sphere points to the center
    D = BallDomain(np.linspace(-0.5, 0.5, n), 1.7)
    omega, w, reach, s, Y, _ = _whole_rays(D, QuadratureSpec(nodes=k), D.center)
    dS = w * reach ** (n - 1) * D.radius / s
    assert abs(dS.sum() - sphere_area(n, 1.7)) < 1e-12 * dS.sum()
    assert np.linalg.norm(dS @ (Y - D.center)) < 1e-12
    np.testing.assert_allclose(np.linalg.norm(Y - D.center, axis=1), 1.7, atol=1e-13)
    np.testing.assert_allclose(np.linalg.norm(omega, axis=1), 1.0, atol=1e-13)


@pytest.mark.parametrize("n", [5, 8])
def test_symmetric_rule_above_four_dims(n):
    # k polar nodes times the 2 (n - 1)^2 directions of the degree-5 rule
    k = 24
    x = np.linspace(0.1, -0.2, n)
    omega, w = _whole_rule(x, BallDomain(np.zeros(n), 1.0), QuadratureSpec(k))
    assert omega.shape == (k * 2 * (n - 1) ** 2, n) and w.shape == (len(omega),)
    assert abs(w.sum() - sphere_area(n)) < 1e-12 * sphere_area(n)
    np.testing.assert_allclose(np.linalg.norm(omega, axis=1), 1.0, atol=1e-13)


@pytest.mark.parametrize("bad", [10.5, np.nan, "12", None],
                         ids=["fraction", "nan", "str", "none"])
def test_quadrature_spec_nodes_must_be_an_integer(bad):
    with pytest.raises(ValueError, match="nodes must be an integer"):
        QuadratureSpec(nodes=bad)
    assert QuadratureSpec(nodes=np.int64(12)).nodes == 12


def test_quadrature_spec_validation():
    with pytest.raises(ValueError):
        QuadratureSpec(nodes=4)
    with pytest.raises(ValueError):
        BallDomain(np.zeros(2), 0.0)


def test_reproduce_cubic_on_unit_disk():
    # f(z) = z^3 + 2z at x = 0.3 + 0.1i, 256-node product Gauss
    rep = boundary_reproduce(
        _cubic(),
        np.array([0.3, 0.1]),
        BallDomain(np.zeros(2), 1.0),
        _complex_kernel(),
        QuadratureSpec(nodes=256),
    )
    assert rep.rel_error < 1e-10
    w = 0.3 + 0.1j
    expected = w**3 + 2 * w
    np.testing.assert_allclose(
        rep.computed.coeffs, [expected.real, expected.imag], atol=1e-12
    )


def test_reproduce_zeta1_on_unit_ball():
    rep = boundary_reproduce(
        _zeta1(),
        np.array([0.1, 0.2, 0.0, 0.0]),
        BallDomain(np.zeros(4), 1.0),
        _fueter_kernel(),
        QuadratureSpec(nodes=24),
    )
    assert rep.rel_error < 1e-6
    np.testing.assert_allclose(rep.computed.coeffs, [0.2, -0.1, 0, 0], atol=1e-8)


def test_reproduce_constant_every_feasible_gallery_kernel():
    for case in gallery():
        if not case.expected_feasible:
            continue
        C = case.build()
        if C.n > 4:
            continue
        K = CauchyKernel.from_conditions(C)
        value = np.linspace(1.0, 2.0, K.table.dim)
        const = AlgPolynomial.constant(K.table, C.n, value)
        x = np.full(C.n, 0.1)
        rep = boundary_reproduce(
            const, x, BallDomain(np.zeros(C.n), 1.0), K, QuadratureSpec(nodes=24)
        )
        assert rep.rel_error < 1e-10, case.name


@pytest.mark.parametrize("axis,distance", [(1, 0.3), (3, 0.5)])
def test_reproduce_constant_high_dimension(axis, distance):
    K = _gallery_kernel("fueter_induced2")
    const = AlgPolynomial.constant(K.table, 8, [1.0, 0.5, -0.25, 2.0])
    rep = boundary_reproduce(const, distance * np.eye(8)[axis], BallDomain(np.zeros(8), 1.0),
                             K, QuadratureSpec(nodes=24))
    assert rep.rel_error <= 1e-12


def test_reproduce_zeta1_near_the_sphere():
    # rays from the pole: the sphere element cancels the kernel's r^-n, so
    # no node sees a near-singular integrand
    u = np.array([0.3, -0.5, 0.2, 0.7])
    rep = boundary_reproduce(_zeta1(), 0.9 * u / np.linalg.norm(u),
                             BallDomain(np.zeros(4), 1.0), _fueter_kernel(),
                             QuadratureSpec(nodes=32))
    assert rep.rel_error <= 1e-6


def test_reproduce_cubic_near_the_circle():
    rep = boundary_reproduce(_cubic(), np.array([0.54, -0.72]), BallDomain(np.zeros(2), 1.0),
                             _complex_kernel(), QuadratureSpec(nodes=64))
    assert rep.rel_error <= 1e-8


def test_position_independence():
    K = _complex_kernel()
    f = _cubic()
    rng = np.random.default_rng(17)
    D = BallDomain(np.zeros(2), 1.0)
    for _ in range(20):
        d = rng.uniform(0.0, 0.9)  # distance >= 0.1 * radius from boundary
        th = rng.uniform(0.0, 2 * np.pi)
        x = d * np.array([np.cos(th), np.sin(th)])
        rep = boundary_reproduce(f, x, D, K, QuadratureSpec(nodes=128))
        assert rep.rel_error < 1e-7


def test_linearity_to_quadrature_precision():
    K = _complex_kernel()
    z = _z()
    f, g = _cubic(), z * z
    D = BallDomain(np.zeros(2), 1.0)
    Q = QuadratureSpec(nodes=32)
    x = np.array([0.3, 0.1])
    lhs = boundary_reproduce(2.5 * f + g, x, D, K, Q).computed.coeffs
    rhs = (
        2.5 * boundary_reproduce(f, x, D, K, Q).computed.coeffs
        + boundary_reproduce(g, x, D, K, Q).computed.coeffs
    )
    np.testing.assert_allclose(lhs, rhs, atol=1e-13)


def test_convergence_order_at_least_two():
    # pole close to the boundary so coarse rules show visible error
    K = _complex_kernel()
    f = _cubic()
    D = BallDomain(np.zeros(2), 1.0)
    x = np.array([0.55, 0.35])
    errs = {
        k: boundary_reproduce(f, x, D, K, QuadratureSpec(nodes=k)).abs_error
        for k in (8, 16, 32)
    }
    assert errs[16] < errs[8] / 4.0
    assert errs[32] < errs[16] / 4.0


def test_under_resolved_raises_and_adequate_passes():
    K = _complex_kernel()
    f = _cubic()
    D = BallDomain(np.zeros(2), 1.0)
    with pytest.raises(QuadratureUnderResolved):
        boundary_reproduce(
            f, np.array([0.93, 0.0]), D, K, QuadratureSpec(nodes=8),
            target_error=1e-12,
        )
    rep = boundary_reproduce(
        f, np.array([0.3, 0.1]), D, K, QuadratureSpec(nodes=64), target_error=1e-9
    )
    assert rep.rel_error < 1e-9


def test_point_outside_domain():
    K = _complex_kernel()
    f = _cubic()
    D = BallDomain(np.zeros(2), 1.0)
    # outside, exactly on the sphere, and not a number
    for bad in ([1.2, 0.0], [1.0, 0.0], [np.nan, 0.0]):
        with pytest.raises(PointOutsideDomain):
            boundary_reproduce(f, np.array(bad), D, K, QuadratureSpec(nodes=16))


def test_point_far_outside_reported_at_its_distance():
    # |x - center|^2 overflows here; the distance itself does not
    K, D = _complex_kernel(), BallDomain([1e300, 0.0], 1.0)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(PointOutsideDomain, match="at distance 1e\\+300 from center"):
            boundary_reproduce(_cubic(), np.array([0.5, 0.0]), D, K, QuadratureSpec(nodes=16))


def test_non_solution_rejected_unless_representation():
    K = _complex_kernel()
    table = K.table
    y1sq = AlgPolynomial.coordinate(table, 2, 0) * AlgPolynomial.coordinate(
        table, 2, 0
    )
    D = BallDomain(np.zeros(2), 1.0)
    x = np.array([0.2, 0.0])
    with pytest.raises(ValueError, match="Cauchy conditions"):
        boundary_reproduce(y1sq, x, D, K, QuadratureSpec(nodes=32))
    rep = verify_representation(y1sq, x, D, K, QuadratureSpec(nodes=128))
    assert rep.rel_error < 1e-3
    np.testing.assert_allclose(rep.computed.coeffs, [0.04, 0.0], atol=1e-10)


def test_coupling_defect_is_on_the_scale_of_the_conditions():
    # for dbar, sum_j (df/dy_j) * c[j, i] is t * b[0, i] * Vol with |b Vol| =
    # 1/2, so n times the coupling defect is the defect t of the condition
    K = _complex_kernel()
    y1sq = AlgPolynomial.coordinate(K.table, 2, 0) * AlgPolynomial.coordinate(K.table, 2, 0)
    x = np.array([0.3, 0.1])
    steps = 0.25 * (1.0 - np.linalg.norm(x)) * np.eye(2)
    pts = np.vstack([x, x + steps, x - steps])
    defect = np.linalg.norm(condition_values(K.conditions, y1sq, pts), axis=2).max()
    with pytest.raises(ValueError, match=rf"coupling form .*\(defect {defect:.3e}\)"):
        boundary_reproduce(y1sq, x, BallDomain(np.zeros(2), 1.0), K,
                           QuadratureSpec(nodes=16))


def test_representation_reduces_to_boundary_for_solutions():
    K = _complex_kernel()
    f = _cubic()
    D = BallDomain(np.zeros(2), 1.0)
    x = np.array([0.3, 0.1])
    rep = verify_representation(f, x, D, K, QuadratureSpec(nodes=64))
    bnd = boundary_reproduce(f, x, D, K, QuadratureSpec(nodes=64))
    np.testing.assert_allclose(
        rep.computed.coeffs, bnd.computed.coeffs, atol=1e-12
    )


def test_representation_of_zero_is_zero():
    K = _complex_kernel()
    zero = AlgPolynomial.constant(K.table, 2, [0.0, 0.0])
    rep = verify_representation(
        zero, np.array([0.1, 0.2]), BallDomain(np.zeros(2), 1.0), K,
        QuadratureSpec(nodes=32),
    )
    assert np.linalg.norm(rep.computed.coeffs) < 1e-14


def test_derivative_via_kernel_examples():
    # C: d/dx_0 of z^2 at (0.2, 0) is 2z = 0.4
    K = _complex_kernel()
    z = _z()
    rep = derivative_via_kernel(
        z * z, np.array([0.2, 0.0]), 0, BallDomain(np.zeros(2), 1.0), K,
        QuadratureSpec(nodes=128),
    )
    assert isinstance(rep, DerivativeReport)
    np.testing.assert_allclose(rep.value.coeffs, [0.4, 0.0], atol=1e-8)
    assert rep.estimate_check

    # Fueter: d/dx_1 of zeta_1 is e_0
    KF = _fueter_kernel()
    repF = derivative_via_kernel(
        _zeta1(), np.array([0.1, 0.2, 0.0, 0.0]), 1, BallDomain(np.zeros(4), 1.0),
        KF, QuadratureSpec(nodes=24),
    )
    np.testing.assert_allclose(repF.value.coeffs, [1.0, 0, 0, 0], atol=1e-5)
    assert repF.estimate_check

    const = AlgPolynomial.constant(KF.table, 4, [1.0, 2.0, 3.0, 4.0])
    repC = derivative_via_kernel(
        const, np.zeros(4), 2, BallDomain(np.zeros(4), 1.0), KF,
        QuadratureSpec(nodes=16),
    )
    assert np.linalg.norm(repC.value.coeffs) < 1e-12
    assert repC.estimate_check


def test_liouville_probe_bounded_on_nested_balls():
    # |df| * R / sup|f| stays bounded as R grows (here it is identically 1)
    KF = _fueter_kernel()
    f = _zeta1()
    ratios = []
    for R in (1.0, 2.0, 4.0, 8.0):
        rep = derivative_via_kernel(
            f, np.zeros(4), 1, BallDomain(np.zeros(4), R), KF,
            QuadratureSpec(nodes=16),
        )
        ratios.append(
            np.linalg.norm(rep.value.coeffs) * R / rep.sup_boundary
        )
    assert max(ratios) < 1.05


def test_derivative_direction_validation():
    K = _complex_kernel()
    with pytest.raises(ValueError, match="direction"):
        derivative_via_kernel(
            _cubic(), np.zeros(2), 5, BallDomain(np.zeros(2), 1.0), K,
            QuadratureSpec(nodes=16),
        )


def test_derivative_direction_must_be_an_integer():
    K = _complex_kernel()
    D = BallDomain(np.zeros(2), 1.0)
    spec = QuadratureSpec(nodes=16)
    for bad in (1.5, "1", None):
        with pytest.raises(ValueError, match="direction must be an integer"):
            derivative_via_kernel(_cubic(), np.zeros(2), bad, D, K, spec)
    # integer-like directions are coerced, not broadcast as masks or arrays
    ref = derivative_via_kernel(_cubic(), np.zeros(2), 1, D, K, spec).value.coeffs
    for i in (np.int64(1), True):
        got = derivative_via_kernel(_cubic(), np.zeros(2), i, D, K, spec)
        assert np.array_equal(got.value.coeffs, ref)


@pytest.mark.parametrize("center,radius,message", [
    (np.zeros((2, 2)), 1.0, "center must be a non-empty vector"),
    (0.0, 1.0, "center must be a non-empty vector"),
    (np.zeros(0), 1.0, "center must be a non-empty vector"),
    (np.zeros(2), np.ones(2), "radius must be a real scalar"),
    (np.zeros(2), 1.0 + 0.0j, "radius must be a real scalar"),
    (np.zeros(2), "1.0", "radius must be a real scalar"),
    (np.zeros(2), True, "radius must be a real scalar"),
], ids=["center-2d", "center-scalar", "center-empty", "radius-array",
        "radius-complex", "radius-str", "radius-bool"])
def test_ball_domain_shape_rejected_by_name(center, radius, message):
    with pytest.raises(ValueError, match=message):
        BallDomain(center, radius)


@pytest.mark.parametrize("radius", [1e-170, 1e-160, 1.3e154, 1e155])
def test_ball_radius_whose_squares_leave_the_floats_refused(radius):
    # at 1e-170 R^2 underflows to 0 and the rule divided by zero; at 1e-160
    # R^2 is subnormal and the derivative was off by 6e-5; at 1.3e154 the
    # derivative's s reach overflowed and it was off by 0.14; at 1e155 R^2
    # is inf
    with pytest.raises(ValueError, match=r"ball radius .* is outside \[1.49e-154, 6.7e\+153\]"):
        BallDomain(np.zeros(4), radius)


@pytest.mark.parametrize("radius", [1e-150, 1e150])
def test_ball_radius_near_the_limits_still_verified(radius):
    K, f = _fueter_kernel(), _zeta1()
    D, spec = BallDomain(np.zeros(4), radius), QuadratureSpec(nodes=16)
    x = radius * np.array([0.3, -0.2, 0.1, 0.25])
    assert boundary_reproduce(f, x, D, K, spec).rel_error <= 1e-14
    assert verify_representation(f, x, D, K, spec).rel_error <= 1e-14
    rep = derivative_via_kernel(f, x, 1, D, K, spec)
    np.testing.assert_allclose(rep.value.coeffs, [1.0, 0.0, 0.0, 0.0], atol=1e-14)
    assert rep.bound_constant == pytest.approx(2.06049529622611, rel=1e-12)


def test_ball_domain_keeps_its_own_center():
    center = np.zeros(2)
    D = BallDomain(center, 1)
    center[0] = 5.0
    assert D.center[0] == 0.0 and center.flags.writeable
    assert isinstance(D.radius, float) and D.radius == 1.0


@pytest.mark.parametrize("bad", [0.0, -1.0, np.nan], ids=["zero", "negative", "nan"])
def test_non_positive_tolerance_rejected_by_name(bad):
    C = fueter_conditions()
    for solve in (solve_admissibility, CauchyKernel.from_conditions):
        with pytest.raises(ValueError, match="tol must be positive"):
            solve(C, tol=bad)
    K = _fueter_kernel()
    D = BallDomain(np.zeros(4), 1.0)
    for reproduce in (boundary_reproduce, verify_representation):
        with pytest.raises(ValueError, match="target_error must be positive"):
            reproduce(_zeta1(), np.zeros(4), D, K, QuadratureSpec(nodes=8),
                      target_error=bad)


def test_callable_returning_alg_elem_is_evaluated():
    # the default check_solution path and the operator share one f protocol
    K = _fueter_kernel()
    p = _zeta1()
    f = lambda y: p.evaluate(y)  # noqa: E731
    x = np.array([0.1, 0.2, -0.1, 0.3])
    D = BallDomain(np.zeros(4), 1.0)
    spec = QuadratureSpec(nodes=12)
    got = boundary_reproduce(f, x, D, K, spec)
    ref = boundary_reproduce(p, x, D, K, spec)
    np.testing.assert_allclose(got.computed.coeffs, ref.computed.coeffs, atol=1e-14)
    assert got.rel_error == pytest.approx(ref.rel_error, rel=1e-9)
    got = derivative_via_kernel(f, x, 1, D, K, spec)
    ref = derivative_via_kernel(p, x, 1, D, K, spec)
    np.testing.assert_allclose(got.value.coeffs, ref.value.coeffs, atol=1e-14)
    np.testing.assert_allclose(condition_values(K.conditions, f, x[None, :]),
                               condition_values(K.conditions, p, x[None, :]), atol=1e-8)


def test_wrong_length_point_rejected_by_name():
    K = _fueter_kernel()
    D = BallDomain(np.zeros(4), 1.0)
    spec = QuadratureSpec(nodes=8)
    for x in (np.zeros(3), np.zeros(5)):
        for call in (
            lambda: boundary_reproduce(_zeta1(), x, D, K, spec),
            lambda: verify_representation(_zeta1(), x, D, K, spec),
            lambda: derivative_via_kernel(_zeta1(), x, 0, D, K, spec),
        ):
            with pytest.raises(ValueError, match="point x has shape .* 4 variables"):
                call()


@pytest.mark.parametrize("field,build", [
    ("gamma", lambda: AlgebraTable(np.full((2, 2, 2), np.nan))),
    ("coefficients a", lambda: CRConditionSet(
        builtin("complex"), 2, 1, np.array([[[1.0, 0.0], [0.0, np.inf]]]))),
    ("coeffs", lambda: AlgPolynomial(builtin("complex"), [[0, 0]], [[np.nan, 0.0]])),
    ("center", lambda: BallDomain(np.array([0.0, np.nan]), 1.0)),
    ("radius", lambda: BallDomain(np.zeros(2), np.inf)),
    ("radius", lambda: BallDomain(np.zeros(2), np.nan)),
], ids=["gamma", "a", "coeffs", "center", "radius-inf", "radius-nan"])
def test_non_finite_input_rejected_with_named_field(field, build):
    with pytest.raises(ValueError, match=f"{field} must be .*finite"):
        build()


def _nan_beyond(f, radius):
    """f as a plain callable, NaN at |y| >= radius."""
    def g(y):
        if np.linalg.norm(y) < radius:
            return f.evaluate(y)
        return np.full(f.table.dim, np.nan)
    return g


def _nan_at(f, point):
    """f as a plain callable, NaN at point alone."""
    def g(y):
        return np.full(f.table.dim, np.nan) if np.array_equal(y, point) else f.evaluate(y)
    return g


@pytest.mark.parametrize("entry", ["boundary", "representation", "derivative"])
@pytest.mark.parametrize("build,radius,message", [
    (lambda table: (lambda y: np.ones(3)), 1.0,
     r"f returned a value of shape \(3,\) at y = .*dimension 4"),
    (lambda table: (lambda y: np.full(4, np.nan)), 1.0, "f (or df/dy )?is not finite"),
    # NaN on the sphere only: the check near x passes and the node sums meet it
    (lambda table: _nan_beyond(_zeta1(), 0.9), 1.0, "f is not finite at y"),
    # NaN at x alone, which no node sum meets
    (lambda table: _nan_at(_zeta1(), np.full(4, 0.1)), 1.0, "f (or df/dy )?is not finite"),
    # a Fueter-regular cubic overflows on a ball of radius 1e150
    (lambda table: polynomial_solution_basis(fueter_conditions(), 3).basis[-1], 1e150,
     "f (or df/dy )?is not finite"),
], ids=["short", "nan", "nan-on-the-sphere", "nan-at-x", "overflow"])
@pytest.mark.filterwarnings("error")  # refused by name, with no numpy warning first
def test_bad_function_values_refused_by_name(entry, build, radius, message):
    K = _fueter_kernel()
    f, D, spec = build(K.table), BallDomain(np.zeros(4), radius), QuadratureSpec(nodes=8)
    x = np.full(4, 0.1 * radius)
    call = {
        "boundary": lambda: boundary_reproduce(f, x, D, K, spec),
        "representation": lambda: verify_representation(f, x, D, K, spec),
        "derivative": lambda: derivative_via_kernel(f, x, 0, D, K, spec),
    }[entry]
    with pytest.raises(ValueError, match=message):
        call()


@pytest.mark.filterwarnings("error")
def test_non_finite_derivative_values_refused_by_name():
    # f = 1e308 y0^2 is finite on the ball of radius 1.2; its derivative,
    # whose coefficient 2e308 overflows, is refused when it is built
    table = builtin("complex")
    f = AlgPolynomial(table, [[2, 0]], [[1e308, 0.0]])
    K, D = _complex_kernel(), BallDomain(np.zeros(2), 1.2)
    assert np.all(np.isfinite(f.eval_batch(np.array([[1.2, 0.0]]))))
    refusal = re.escape("df/dx_0 of the monomial [2, 0] overflows: its coefficient "
                        "times 2 is not finite")
    with pytest.raises(ValueError, match=refusal):
        _volume_term(f, np.zeros(2), D, K, QuadratureSpec(nodes=8))
    # a callable whose central differences overflow meets the node sums
    def g(y):
        return np.array([1.5e308 * np.cos(1e6 * y[0]), 0.0])

    with pytest.raises(ValueError, match="df/dy is not finite at y"):
        _volume_term(g, np.zeros(2), D, K, QuadratureSpec(nodes=8))


@pytest.mark.filterwarnings("error")  # refused by name, with no numpy warning first
@pytest.mark.parametrize("entry", ["boundary", "representation", "derivative"])
@pytest.mark.parametrize("scale", [1e150, 1e155, 1e170, 1e200, 1e300, 1.7e308])
def test_large_finite_function_verified_or_refused_as_too_large(entry, scale):
    # scale * zeta1 is finite on the ball.  Up to 1e300 every reported norm
    # is a float, though from 1e155 on its squares overflow: all three entry
    # points verify.  At 1.7e308 a node sum or a norm may overflow: a
    # reported number would be wrong, so the only other outcome is a refusal
    K, f = _fueter_kernel(), scale * _zeta1()
    D, spec = BallDomain(np.zeros(4), 1.0), QuadratureSpec(nodes=16)
    x = np.array([0.1, 0.2, 0.0, 0.0])

    def derivative_error():
        rep = derivative_via_kernel(f, x, 1, D, K, spec)
        assert rep.estimate_check and np.isfinite(rep.sup_boundary)
        return np.linalg.norm(rep.value.coeffs / scale - [1.0, 0.0, 0.0, 0.0])

    call = {
        "boundary": lambda: boundary_reproduce(f, x, D, K, spec).rel_error,
        "representation": lambda: verify_representation(f, x, D, K, spec).rel_error,
        "derivative": derivative_error,
    }[entry]
    if scale <= 1e300:
        assert call() <= 1e-13
        return
    try:
        rel = call()
    except ValueError as refusal:
        assert "too large" in str(refusal)
    else:
        assert rel <= 1e-13


def test_norm_rescaled_only_where_plain_norm_overflows():
    v = np.array([[3e200, 4e200], [3.0, 4.0], [0.0, 0.0], [1.7e308, 1.7e308]])
    with np.errstate(over="ignore"):
        rows, whole = _norm(v, axis=1), _norm(v[0])
        not_finite = _norm(np.array([np.inf, 1.0]))
    assert rows[0] == pytest.approx(5e200, rel=1e-15) and whole == rows[0]
    assert rows[1] == np.linalg.norm(v[1]) and rows[2] == 0.0
    assert rows[3] == np.inf  # sqrt(2) 1.7e308 is above the float range
    assert not_finite == np.inf


@pytest.mark.parametrize("bad", ["1e-3", [1e-3], 1e-3j], ids=["str", "list", "complex"])
def test_non_numeric_target_error_rejected_by_name(bad):
    K, D = _fueter_kernel(), BallDomain(np.zeros(4), 1.0)
    for reproduce in (boundary_reproduce, verify_representation):
        with pytest.raises(ValueError, match="target_error must be positive"):
            reproduce(_zeta1(), np.zeros(4), D, K, QuadratureSpec(nodes=8),
                      target_error=bad)


def test_node_budget_checked_before_allocation():
    D = BallDomain(np.zeros(4), 1.0)
    with pytest.raises(QuadratureTooLarge):
        _polar_rule(D.center, D, QuadratureSpec(nodes=10**4))
    # the boundary rule (46^3 nodes) fits; the volume rule (46^3 directions
    # x 46 radial points) does not
    spec = QuadratureSpec(nodes=46)
    assert _whole_rule(D.center, D, spec)[0].shape == (46**3, 4)
    with pytest.raises(QuadratureTooLarge):
        verify_representation(_zeta1(), np.zeros(4), D, _fueter_kernel(), spec)


def test_gauss_nodes_per_axis_bounded_before_leggauss(monkeypatch):
    # one axis of 10^5 nodes fits the node budget, but leggauss would build
    # a 10^5 x 10^5 companion matrix
    def refuse(k):
        raise AssertionError(f"leggauss({k}) called")

    assert MAX_AXIS_NODES == 2048
    monkeypatch.setattr(np.polynomial.legendre, "leggauss", refuse)
    for n in (1, 2):  # at n = 1 only the volume rule calls leggauss
        with pytest.raises(QuadratureTooLarge, match="limit is 2048"):
            _polar_rule(np.zeros(n), BallDomain(np.zeros(n), 1.0),
                        QuadratureSpec(nodes=MAX_AXIS_NODES + 1))
    D = BallDomain(np.zeros(2), 1.0)
    with pytest.raises(AssertionError, match="leggauss"):
        _polar_rule(D.center, D, QuadratureSpec(nodes=MAX_AXIS_NODES))
    with pytest.raises(QuadratureTooLarge):
        boundary_reproduce(_z(), [0.1, 0.0], D, _complex_kernel(),
                           QuadratureSpec(nodes=10**5))


# -- the product Gauss rule against its per-node construction -----------------


def _per_node_gauss(n, k):
    """The rule as built before: trig and weight products on every node."""
    def gauss_on(a, b):
        t, w = np.polynomial.legendre.leggauss(k)
        return 0.5 * (b - a) * t + 0.5 * (a + b), 0.5 * (b - a) * w

    if n == 1:
        return np.array([[1.0], [-1.0]]), np.array([1.0, 1.0])
    axes = [gauss_on(0.0, np.pi) for _ in range(n - 2)]
    axes.append(gauss_on(0.0, 2.0 * np.pi))
    grids = np.meshgrid(*[a[0] for a in axes], indexing="ij")
    wgrids = np.meshgrid(*[a[1] for a in axes], indexing="ij")
    angles = np.stack([g.ravel() for g in grids], axis=1)
    w = np.ones(angles.shape[0])
    for g in wgrids:
        w = w * g.ravel()
    omega = np.empty((angles.shape[0], n))
    sin_prod = np.ones(angles.shape[0])
    for axis in range(n - 1):
        omega[:, axis] = sin_prod * np.cos(angles[:, axis])
        sin_prod = sin_prod * np.sin(angles[:, axis])
        if axis < n - 2:
            w = w * np.sin(angles[:, axis]) ** (n - 2 - axis)
    omega[:, n - 1] = sin_prod
    return omega, w


@pytest.mark.parametrize("k", [8, 13, 32])
@pytest.mark.parametrize("n", [1, 2, 3])
def test_sphere_directions_match_per_node_construction(n, k):
    omega, w = _sphere_directions_gauss(n, k)
    ref_omega, ref_w = _per_node_gauss(n, k)
    assert np.array_equal(omega, ref_omega)
    np.testing.assert_allclose(w, ref_w, rtol=0, atol=1e-15)
    # built once per (n, k) and shared read-only, as the Gauss factors are
    again = _sphere_directions_gauss(n, k)
    assert again[0] is omega and again[1] is w
    assert not (omega.flags.writeable or w.flags.writeable)


@pytest.mark.parametrize("m", [2, 5, 7, 15])
def test_symmetric_directions_cached_read_only(m):
    omega, w = _sphere_directions_degree5(m)
    assert omega.shape == (2 * m * m, m) and w.sum() == pytest.approx(sphere_area(m))
    assert _sphere_directions_degree5(m)[0] is omega
    assert not (omega.flags.writeable or w.flags.writeable)


# -- the derivative bound constant against batched SVD norms -------------------


def _whole_rays(D, spec, x):
    """The whole direction rule aligned with x: omega, w, reach, s = R (nu .
    omega), the sphere points y and their normals nu, node by node."""
    omega, w = _whole_rule(x, D, spec)
    d = x - D.center
    proj = omega @ d
    s = np.sqrt(proj * proj + (D.radius**2 - d @ d))
    reach = s - proj
    Y = x + reach[:, None] * omega
    return omega, w, reach, s, Y, (Y - D.center) / D.radius


def _normal_flux(nu, X, kernel):
    """sum_{j,i} nu_j X_i c[j, i] / Vol(B_n) at each node (N, dim), one
    outer product per node: the oracle of the factored flux."""
    n = kernel.n
    coupling = kernel.c.reshape(n * n, -1) / ball_volume(n)
    return (nu[:, :, None] * X[:, None, :]).reshape(len(nu), n * n) @ coupling


@pytest.mark.parametrize("name,nodes", [
    # fueter and octonion_single take the fast path |flux|: their algebras
    # are norm-multiplicative; sedenion_single and m2r_q3 take eigvalsh
    # (sigma_max / sigma_min of right multiplication by the flux reaches 10
    # at the sedenion nodes here); both paths against the SVD
    ("fueter", 12), ("octonion_single", 16), ("sedenion_single", 16),
    ("m2r_q3", 12),
])
def test_bound_constant_matches_svd_norms(name, nodes):
    K = _gallery_kernel(name)
    n, dim = K.n, K.table.dim
    D = BallDomain(np.zeros(n), 1.5)
    spec = QuadratureSpec(nodes=nodes)
    x = np.linspace(-0.2, 0.3, n)
    f = AlgPolynomial.constant(K.table, n, np.linspace(1.0, 2.0, dim))
    rep = derivative_via_kernel(f, x, n - 1, D, K, spec)
    omega, w, reach, s, _, nu = _whole_rays(D, spec, x)
    Z = n * omega[:, n - 1, None] * omega - np.eye(n)[n - 1]
    flux = _normal_flux(nu, Z, K)
    right_mult = np.einsum("ijk,tj->tki", K.table.gamma, flux)
    wd = w * D.radius / (s * reach)
    ref = D.radius * np.sum(wd * np.linalg.norm(right_mult, 2, axis=(1, 2)))
    assert rep.bound_constant == pytest.approx(ref, rel=1e-13)


@pytest.mark.parametrize("name,fast", [
    ("fueter", True), ("octonion_single", True), ("dbar_induced2", True),
    ("m2r_q3", False), ("adiff_tessarine", False), ("sedenion_single", False),
])
def test_derivative_norms_skip_eigvalsh_on_norm_multiplicative_tables(name, fast,
                                                                      monkeypatch):
    # eigvalsh sees every node where right multiplication is no scaled
    # isometry, and none where the norm is |flux|
    K = _gallery_kernel(name)
    n, dim = K.n, K.table.dim
    seen = []
    eigvalsh = np.linalg.eigvalsh
    monkeypatch.setattr(np.linalg, "eigvalsh",
                        lambda a: seen.append(len(a)) or eigvalsh(a))
    f = AlgPolynomial.constant(K.table, n, np.linspace(1.0, 2.0, dim))
    rep = derivative_via_kernel(f, np.linspace(-0.2, 0.3, n), 0,
                                BallDomain(np.zeros(n), 1.5), K, QuadratureSpec(nodes=8))
    assert K.table.norm_multiplicative is fast
    assert sum(seen) == (0 if fast else rep.nodes)


# -- parity with the per-node sums ----------------------------------------------


def _parity_workload(case, seed):
    C = case.build()
    K = CauchyKernel.from_conditions(C)
    rng = np.random.default_rng(seed)
    nu = rng.normal(size=(PARITY_NODES, C.n))
    nu /= np.linalg.norm(nu, axis=1, keepdims=True)
    x = rng.normal(size=C.n)
    X = nu - 0.4 * x / np.linalg.norm(x)  # unit sphere seen from a pole at 0.4
    w = rng.uniform(0.5, 1.5, size=PARITY_NODES)
    return C, K, rng, X, nu, w


def _rays(X):
    """Distances r and directions omega of the offsets X from the pole."""
    r = np.linalg.norm(X, axis=1)
    return r, X / r[:, None]


def _close(got, ref):
    np.testing.assert_allclose(got, ref, rtol=1e-12, atol=1e-12 * np.abs(ref).max())


@pytest.mark.parametrize("case", FEASIBLE, ids=lambda c: c.name)
def test_boundary_sum_matches_direct_b_form_sum(case):
    # sum_m (nu . a_m)(X . b_m) / r^n is the normal flux by bilinearity alone,
    # so this per-node oracle is exact in every algebra; its nodes carry the
    # ray element w r^(n-1) / (nu . omega), which the moments cancel
    C, K, rng, X, nu, w = _parity_workload(case, seed=0)
    table, b = C.table, K.b
    r, omega = _rays(X)
    cos = np.sum(nu * omega, axis=1)
    fv = rng.normal(size=(PARITY_NODES, table.dim))
    ref = np.zeros(table.dim)
    for t in range(PARITY_NODES):
        flux = np.zeros(table.dim)
        for m in range(C.q):
            flux += table.mul_coeffs(nu[t] @ C.a[m], X[t] @ b[m])
        dS = w[t] * r[t] ** (C.n - 1) / cos[t]
        ref += dS / r[t] ** C.n * table.mul_coeffs(fv[t], flux)
    G = (nu / cos[:, None])[:, :, None] * fv[:, None, :]
    _close(_flux_contraction(_moments(omega, w, G), K), ref)


@pytest.mark.parametrize("case", FEASIBLE, ids=lambda c: c.name)
def test_volume_sum_matches_direct_b_form_sum(case):
    # oracle: the Stokes integrand sum_j G_j * Flux^j formed node by node,
    # with Flux^j = sum_i X_i c[j, i] / (Vol r^n) and the ray element
    # w r^(n-1), then summed over nodes; the b-form sum_m t_m * phi_m with
    # t_m = sum_j G_j * a[m, j] agrees with it only in associative algebras
    C, K, rng, X, _, w = _parity_workload(case, seed=1)
    table = C.table
    r, omega = _rays(X)
    G = rng.normal(size=(PARITY_NODES, C.n, table.dim))

    def mul_rows(left, right):  # the algebra product at every node
        return np.einsum("ts,td,sdk->tk", left, right, table.gamma, optimize=True)

    scale = (w * r ** (C.n - 1) / r**C.n)[:, None]
    flux = np.einsum("ti,jid->tjd", X, K.c) / ball_volume(C.n)
    ref = sum(scale * mul_rows(G[:, j], flux[:, j]) for j in range(C.n)).sum(axis=0)
    _close(_flux_contraction(_moments(omega, w, G), K), ref)
    if table.associative:
        t = np.einsum("tjs,mjd,sdk->tmk", G, C.a, table.gamma)
        phi = np.einsum("ti,mid->tmd", X, K.b)
        b_form = sum(scale * mul_rows(t[:, m], phi[:, m]) for m in range(C.q))
        _close(b_form.sum(axis=0), ref)


@pytest.mark.parametrize("case", FEASIBLE, ids=lambda c: c.name)
def test_derivative_flux_matches_b_form(case):
    # the pole derivative of sum_m (nu . a_m) phi_m / r^n against the normal
    # flux of Z = n omega_i omega - e_i, over r^n
    C, K, _, X, nu, _ = _parity_workload(case, seed=2)
    b, i, n = K.b, C.n - 1, C.n
    r2 = np.sum(X * X, axis=1)[:, None, None]
    phi = np.einsum("ti,mid->tmd", X, b)
    dphi = (-b[None, :, i, :] * r2 + n * X[:, i, None, None] * phi) / r2 ** ((n + 2) / 2.0)
    anu = np.einsum("tj,mjd->tmd", nu, C.a)
    ref = np.einsum("tms,tmd,sde->te", anu, dphi, C.table.gamma)
    r, omega = _rays(X)
    Z = n * omega[:, i, None] * omega - np.eye(n)[i]
    _close(_normal_flux(nu, Z, K) / r[:, None] ** n, ref)
    # the factored flux P @ Q: the nodes lie on the unit sphere around 0, seen
    # from the pole y - X, so each is omega = cos a + sin h along its own
    # h orthogonal to the axis a, with y = alpha a + beta h
    a = nu[0] - X[0]
    a /= np.linalg.norm(a)
    cos = omega @ a
    h = omega - cos[:, None] * a
    sin = np.linalg.norm(h, axis=1)
    h /= sin[:, None]
    P = _flux_rows(nu @ a, np.sum(nu * h, axis=1), cos, sin)
    Q = _flux_directions(h.T, a, i, K.c / ball_volume(n)).reshape(8, len(h), -1)
    _close(np.einsum("tq,qtd->td", P, Q) / r[:, None] ** n, ref)


# -- a non-associative kernel reproduces the solutions of its coupling ---------


OCTONION_CASES = [(3, 24), (4, 20)]  # (n, nodes per axis)
OCTONION_POINT = np.array([0.1, -0.05, 0.05, 0.02])


def _octonion_kernel(n):
    """sum_j (df/dy_j) * e_{k_j} = 0 over the octonions, k = (0, 1, 2, 4)[:n]."""
    C = single_condition(builtin("octonion"), np.eye(8)[[0, 1, 2, 4][:n]])
    return C, CauchyKernel.from_conditions(C)


@pytest.mark.parametrize("n,nodes", OCTONION_CASES)
def test_octonion_representation(n, nodes):
    # (df a) b differs from df (a b) here, so only the c-form volume term
    # gives f(x); the b-form missed by about 0.2
    C, K = _octonion_kernel(n)
    rng = np.random.default_rng(n)
    layout = monomial_exponents(n, 2)
    f = AlgPolynomial(C.table, layout, rng.normal(size=(len(layout), 8)))
    rep = verify_representation(f, OCTONION_POINT[:n], BallDomain(np.zeros(n), 1.0),
                                K, QuadratureSpec(nodes=nodes))
    assert rep.abs_error <= 1e-10


@pytest.mark.parametrize("n,nodes", OCTONION_CASES)
def test_octonion_coupling_solutions_reproduce(n, nodes):
    C, K = _octonion_kernel(n)
    basis = polynomial_solution_basis(K.coupling_conditions, 3)
    # a strict subspace of the 80 (n = 3) and 160 (n = 4) a-solutions
    assert (len(basis), len(polynomial_solution_basis(C, 3))) == {
        3: (44, 80), 4: (58, 160)}[n]
    D, spec = BallDomain(np.zeros(n), 1.0), QuadratureSpec(nodes=nodes)
    for g in basis:
        assert boundary_reproduce(g, OCTONION_POINT[:n], D, K, spec).abs_error <= 1e-10


@pytest.mark.parametrize("n,nodes", OCTONION_CASES)
def test_octonion_a_solution_outside_coupling_space_refused(n, nodes):
    C, K = _octonion_kernel(n)
    coupling = polynomial_solution_basis(K.coupling_conditions, 1)
    g = next(g for g in polynomial_solution_basis(C, 1) if not coupling.contains(g))
    assert g.degree == 1
    x, D, spec = OCTONION_POINT[:n], BallDomain(np.zeros(n), 1.0), QuadratureSpec(nodes=nodes)
    assert np.abs(condition_values(C, g, np.stack([x, -x]))).max() <= 1e-12
    for call in (lambda: boundary_reproduce(g, x, D, K, spec),
                 lambda: derivative_via_kernel(g, x, 0, D, K, spec)):
        with pytest.raises(ValueError, match="Cauchy conditions .* coupling form"):
            call()
    # the boundary term alone misses g(x); with the volume term it is exact
    assert verify_representation(g, x, D, K, spec).abs_error <= 1e-10


# -- the streamed node sums against whole-rule sums ---------------------------


@functools.lru_cache(maxsize=None)
def _stream_kernel(n):
    """A kernel on n variables, n = 1..5: sum_j (df/dy_j) * e_j = 0 in the
    complex numbers (n = 1), the quaternions (n = 2..4) or the octonions."""
    name = {1: "complex", 5: "octonion"}.get(n, "quaternion")
    table = builtin(name)
    return CauchyKernel.from_conditions(single_condition(table, np.eye(table.dim)[:n]))


def _assert_streamed(got, *parts):
    # got against the sum of the node contributions in parts, to 1e-13
    # relative to the sum of their sizes, which bounds the rounding of any
    # summation order and of cancelling parts
    ref = sum(part.sum(axis=0) for part in parts)
    err = np.linalg.norm(np.asarray(got) - ref)
    assert err <= 1e-13 * sum(np.linalg.norm(part, axis=1).sum() for part in parts)


def _shell_sum_parts(K, f, x, D, spec):
    """The textbook volume sum over the whole shell rule seen from x, node
    by node: dV sum_j (df/dy_j) * Flux^j as an (N, dim) array, with the flux
    from kernel_field_batch (r^-n included) and the ball element
    w reach r^(n-1) dt on spec.nodes Gauss points t of [0, 1]; formed 4096
    nodes at a time, which bounds the memory at n = 16."""
    n, table = K.n, K.table
    omega, w, reach, *_ = _whole_rays(D, spec, x)
    t, t_w = np.polynomial.legendre.leggauss(spec.nodes)
    r = reach[:, None] * (0.5 * (t + 1.0))
    Y = (x + r[:, :, None] * omega[:, None, :]).reshape(-1, n)
    dV = (w[:, None] * reach[:, None] * (0.5 * t_w) * r ** (n - 1)).ravel()
    parts = []
    for lo in range(0, len(Y), 4096):
        Ys = Y[lo : lo + 4096]
        G, flux = gradient_values(f, Ys, table.dim), kernel_field_batch(K, x, Ys)
        integrand = np.einsum("tjs,tjd,sdk->tk", G, flux, table.gamma, optimize=True)
        parts.append(dV[lo : lo + 4096, None] * integrand)
    return np.concatenate(parts)


def _check_streamed_terms(n, k, seed, degree=3):
    # oracle: the textbook per-node sums over the whole rule seen from x,
    # with the flux from kernel_field_batch (r^-n included) and the ray
    # elements reach^(n-1) / (nu . omega) of the sphere and r^(n-1) dr of
    # the ball on spec.nodes radial points; the volume term takes
    # ceil(degree / 2) of them, exact for the integrand of degree - 1 in t
    K = _stream_kernel(n)
    table, dim = K.table, K.table.dim
    rng = np.random.default_rng(seed)
    D = BallDomain(rng.uniform(-1.0, 1.0, n), rng.uniform(0.5, 2.0))
    u = rng.normal(size=n)
    x = D.center + D.radius * rng.uniform(0.0, 0.8) * u / np.linalg.norm(u)
    layout = monomial_exponents(n, degree)
    f = AlgPolynomial(table, layout, rng.normal(size=(len(layout), dim)))
    spec = QuadratureSpec(nodes=k)

    def product(left, right):  # the algebra product left * right at every node
        return np.einsum("ts,td,sdk->tk", left, right, table.gamma)

    omega, w, reach, s, Y, nu = _whole_rays(D, spec, x)
    dS = w * reach ** (n - 1) * D.radius / s
    normal_flux = np.einsum("tjd,tj->td", kernel_field_batch(K, x, Y), nu)
    got, used = _boundary_term(f, x, D, K, spec)
    assert used == len(w)
    _assert_streamed(got, dS[:, None] * product(f.eval_batch(Y), normal_flux))

    # volume: the shell rule built whole, on at most about 2^16 nodes
    spec_v = QuadratureSpec(nodes=min(k, round(2 ** (16 / n))))
    parts = _shell_sum_parts(K, f, x, D, spec_v)
    got, used = _volume_term(f, x, D, K, spec_v)
    assert used == len(parts)
    _assert_streamed(got, parts)

    # derivative: value, bound constant and sup|f| of a coupling solution;
    # d/dx_i Flux^j = -c[j, i] / (Vol r^n) + n X_i Flux^j / r^2, where
    # c[j, i] / Vol is the flux at x + e_i
    g = _coupling_solution(K, 2, rng)
    i = int(rng.integers(n))
    X = Y - x
    r2 = np.sum(X * X, axis=1)
    c_i = kernel_field_batch(K, x, (x + np.eye(n)[i])[None, :])[0]
    outer = n * X[:, i, None, None] * kernel_field_batch(K, x, Y) / r2[:, None, None]
    outer = np.einsum("tjd,tj->td", outer, nu)
    inner = np.einsum("tj,jd->td", nu / r2[:, None] ** (n / 2.0), c_i)
    fv = g.eval_batch(Y)
    right_mult = np.einsum("ijk,tj->tki", table.gamma, outer - inner)
    bound = D.radius * np.sum(dS * np.linalg.norm(right_mult, 2, axis=(1, 2)))
    rep = derivative_via_kernel(g, x, i, D, K, spec)
    _assert_streamed(rep.value.coeffs, dS[:, None] * product(fv, outer),
                     -dS[:, None] * product(fv, inner))
    assert rep.bound_constant == pytest.approx(bound, rel=1e-13)
    assert rep.sup_boundary == np.linalg.norm(fv, axis=1).max()
    assert rep.nodes == len(w)


@settings(max_examples=25, deadline=None)
@given(n=st.integers(1, 4), k=st.integers(8, 48), seed=st.integers(0, 2**32 - 1),
       degree=st.integers(0, 5))
# sup_boundary differed in the last bit here while the derivative term took
# omega . d on a transposed view and the oracle on a node-major array
@example(n=3, k=34, seed=168, degree=3)
@example(n=3, k=32, seed=464832488, degree=3)
@example(n=4, k=22, seed=3879967560, degree=3)
@example(n=4, k=45, seed=4291447014, degree=3)
@example(n=4, k=29, seed=3860900651, degree=3)
# and here while omega, built from h.T by broadcasting, came out coordinate-major
@example(n=4, k=46, seed=4, degree=2)
def test_streamed_terms_match_whole_rule_sums(n, k, seed, degree):
    # 8..48 nodes per axis: rows of k^(n-2) nodes that mostly do not divide
    # CHUNK, so the last block is short; degrees 0..5 take 1, 2 and 3
    # radial points in the volume term
    _check_streamed_terms(n, k, seed, degree)


def test_streamed_terms_match_whole_rule_sums_when_the_radial_rule_is_full():
    # degree 16 at k = 8: ceil(16 / 2) = 8 radial points, the rule's own
    _check_streamed_terms(2, 8, seed=11, degree=16)


def test_streamed_terms_match_whole_rule_sums_above_four_dims():
    # n = 5: 32 directions around the axis, so blocks of 128, 128 and 44
    # rows of the polar angle, the last one short
    _check_streamed_terms(5, 300, seed=7)


@pytest.mark.parametrize("name,k,chunk", [
    ("octonion_single", 24, CHUNK), ("sedenion_single", 12, CHUNK),
    # rows of 144 directions cut around the axis into 50, 50 and 44
    ("fueter", 12, 50),
])
def test_boundary_sum_matches_whole_rule_sum(name, k, chunk, monkeypatch):
    # the row-by-row boundary sum against the textbook per-node sum over the
    # whole rule seen from x, flux from kernel_field_batch (r^-n included)
    # and dS = w reach^(n-1) R / s, for a random polynomial of degree <= 3
    # and a constant, then the volume term of the polynomial against the
    # textbook shell sum; n = 8 and 16 lie beyond _check_streamed_terms
    monkeypatch.setattr(verify, "CHUNK", chunk)
    K = _gallery_kernel(name)
    n, table, dim = K.n, K.table, K.table.dim
    rng = np.random.default_rng(k)
    D = BallDomain(rng.uniform(-1.0, 1.0, n), rng.uniform(0.5, 2.0))
    u = rng.normal(size=n)
    x = D.center + D.radius * rng.uniform(0.0, 0.9) * u / np.linalg.norm(u)
    layout = monomial_exponents(n, 3)
    cubic = AlgPolynomial(table, layout, rng.normal(size=(len(layout), dim)))
    const = AlgPolynomial.constant(table, n, rng.normal(size=dim))
    assert cubic.degree == 3
    spec = QuadratureSpec(nodes=k)
    omega, w, reach, s, Y, nu = _whole_rays(D, spec, x)
    dS = w * reach ** (n - 1) * D.radius / s
    normal_flux = np.einsum("tjd,tj->td", kernel_field_batch(K, x, Y), nu)
    for f in (cubic, const):
        got, used = _boundary_term(f, x, D, K, spec)
        assert used == len(w)
        fv = f.eval_batch(Y)
        _assert_streamed(got, dS[:, None] * np.einsum("ts,td,sdk->tk", fv, normal_flux,
                                                      table.gamma))
    parts = _shell_sum_parts(K, cubic, x, D, spec)
    got, used = _volume_term(cubic, x, D, K, spec)
    assert used == len(parts)
    _assert_streamed(got, parts)


def test_boundary_reproduce_memory_stays_within_a_few_blocks():
    # 64^3 = 262,144 nodes; the whole rule alone would be 8 MB of nodes
    K = _fueter_kernel()
    f, D, spec = _zeta1(), BallDomain(np.zeros(4), 1.0), QuadratureSpec(nodes=64)
    x = np.array([0.1, 0.2, 0.0, 0.0])
    boundary_reproduce(f, x, D, K, spec)  # warm the 1-D factor cache
    tracemalloc.start()
    try:
        rep = boundary_reproduce(f, x, D, K, spec)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert rep.nodes == 64**3 and rep.rel_error < 1e-10
    assert peak < 4e6


# -- the row sum of a polynomial on 2p + 1 angles ---------------------------------


class _Opaque:
    """A polynomial behind an eval_batch that is not an AlgPolynomial's, so
    the boundary sum evaluates it on the rule's own rows, in the same blocks."""

    def __init__(self, f):
        self.eval_batch = f.eval_batch


@pytest.mark.parametrize("radius", [0.5, 0.99, 0.9999])
@pytest.mark.parametrize("name,k", [
    ("dbar", 32), ("fueter", 16), ("m2r_q3", 16), ("octonion_single", 16),
    ("fueter_induced2", 16), ("sedenion_single", 12),
])
def test_polynomial_row_sum_matches_the_rule_rows(name, k, radius):
    # a cubic and a constant (p = 0, one angle) summed on 2p + 1 angles
    # against the same functions as plain callables, called once per node of
    # the rule, in an off-center ball
    K = _gallery_kernel(name)
    n, table, dim = K.n, K.table, K.table.dim
    rng = np.random.default_rng(n)
    D = BallDomain(rng.uniform(-1.0, 1.0, n), 1.5)
    u = rng.normal(size=n)
    x = D.center + radius * D.radius * u / np.linalg.norm(u)
    layout = monomial_exponents(n, 3)
    cubic = AlgPolynomial(table, layout, rng.normal(size=(len(layout), dim)))
    const = AlgPolynomial.constant(table, n, rng.normal(size=dim))
    spec = QuadratureSpec(nodes=k)
    for f in (cubic, const):
        got, used = _boundary_term(f, x, D, K, spec)
        ref, used_ref = _boundary_term(lambda y: f.evaluate(y), x, D, K, spec)
        assert used == used_ref
        assert np.linalg.norm(got - ref) <= 1e-14 * np.linalg.norm(ref)


def _count_points(monkeypatch):
    """Record the number of points of every AlgPolynomial.eval_batch call."""
    counts = []
    eval_batch = AlgPolynomial.eval_batch

    def counting(self, X):
        counts.append(len(X))
        return eval_batch(self, X)

    monkeypatch.setattr(AlgPolynomial, "eval_batch", counting)
    return counts


def test_polynomial_row_sum_evaluates_2p_plus_1_rows(monkeypatch):
    # Fueter zeta1 (p = 1) at k = 32: 3 rows of k^2 directions, not k rows
    K, f, D = _fueter_kernel(), _zeta1(), BallDomain(np.zeros(4), 1.0)
    x = np.array([0.1, 0.2, 0.0, 0.0])
    counts = _count_points(monkeypatch)
    _, used = _boundary_term(f, x, D, K, QuadratureSpec(nodes=32))
    assert sum(counts) == 3 * 32**2 and used == 32**3


@pytest.mark.parametrize("k,rows", [(9, 9), (10, 9)], ids=["rule-rows", "angles"])
def test_polynomial_row_sum_falls_back_to_the_rule_rows(k, rows, monkeypatch):
    # a quartic needs 2p + 1 = 9 angles: at k = 9 the rule's own rows are
    # summed, bit-equal with the same polynomial seen as an opaque function
    K, D = _fueter_kernel(), BallDomain(np.full(4, 0.2), 1.3)
    y0 = AlgPolynomial.coordinate(K.table, 4, 0)
    quartic = y0 * y0 * y0 * y0 + 2.0 * _zeta1()
    x = np.array([0.5, -0.1, 0.3, 0.6])
    spec = QuadratureSpec(nodes=k)
    ref, _ = _boundary_term(_Opaque(quartic), x, D, K, spec)
    counts = _count_points(monkeypatch)
    got, used = _boundary_term(quartic, x, D, K, spec)
    assert sum(counts) == rows * k**2 and used == k**3
    if rows == k:
        assert np.array_equal(got, ref)
    else:
        assert np.linalg.norm(got - ref) <= 1e-14 * np.linalg.norm(ref)


@pytest.mark.parametrize("degree,k,radial", [
    (0, 12, 1), (2, 12, 1), (3, 12, 2), (5, 12, 3), (15, 8, 8), (16, 8, 8), (17, 8, 8),
])
def test_volume_term_takes_ceil_half_degree_radial_points(degree, k, radial, monkeypatch):
    # n = 2: rows of k polar angles times 2 directions around the axis; a
    # polynomial of degree p takes min(k, max(1, ceil(p / 2))) radial points,
    # the same polynomial behind an opaque eval_batch all k, and nodes is the
    # size of the rule either way
    K = _stream_kernel(2)
    rng = np.random.default_rng(degree)
    D = BallDomain(rng.uniform(-0.5, 0.5, 2), 1.3)
    x = D.center + np.array([0.4, -0.3])
    layout = monomial_exponents(2, degree)
    f = AlgPolynomial(K.table, layout, rng.normal(size=(len(layout), K.table.dim)))
    spec = QuadratureSpec(nodes=k)
    points = []
    gradient = verify.gradient_values
    monkeypatch.setattr(verify, "gradient_values",
                        lambda f, Y, dim: points.append(len(Y)) or gradient(f, Y, dim))
    got, used = _volume_term(f, x, D, K, spec)
    assert sum(points) == k * radial * 2 and used == k * k * 2
    _assert_streamed(got, _shell_sum_parts(K, f, x, D, spec))
    points.clear()
    _, used = _volume_term(_Opaque(f), x, D, K, spec)
    assert sum(points) == k * k * 2 and used == k * k * 2


# -- the sphere rule aligned with the pole ---------------------------------------


@settings(max_examples=60, deadline=None)
@given(n=st.integers(1, 8), seed=st.integers(0, 2**32 - 1),
       at_center=st.booleans(), k=st.integers(8, 40))
def test_pole_aligned_rule_moments(n, seed, at_center, k):
    # a reflection that is not orthogonal, a wrong sinh Jacobian or a wrong
    # weight around the axis breaks these (where the axis points is left to
    # the near-sphere accuracy tests); warnings are errors, so the center
    # (distance 0, the capped width) takes no 0 * inf path
    rng = np.random.default_rng(seed)
    D = BallDomain(rng.uniform(-1.0, 1.0, n), rng.uniform(0.5, 2.0))
    u = rng.normal(size=n)
    distance = 0.0 if at_center else rng.uniform(0.0, 0.999999) * D.radius
    x = D.center + distance * u / np.linalg.norm(u)
    area = sphere_area(n)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        omega, w = _whole_rule(x, D, QuadratureSpec(48))
        # the mapped rule is not moment-exact at small k: near the sphere
        # sum(w) is off by up to 3e-2 at k = 8, but the symmetry of theta
        # about pi/2 and of the rule around the axis keeps the first moment 0
        omega_k, w_k = _whole_rule(x, D, QuadratureSpec(k))
    assert abs(w.sum() - area) <= 1e-12 * area
    assert np.linalg.norm(w @ omega) <= 1e-12 * area
    assert np.abs((omega.T * w) @ omega - area / n * np.eye(n)).max() <= 1e-12 * area
    assert np.linalg.norm(w_k @ omega_k) <= 1e-9 * area


@settings(max_examples=60, deadline=None)
@given(n=st.integers(2, 8), seed=st.integers(0, 2**32 - 1),
       at_center=st.booleans(), k=st.integers(8, 40))
def test_polar_projection_is_constant_along_each_row(n, seed, at_center, k):
    # the boundary sum takes omega . (x - c) = cos(theta) (a . (x - c)) once
    # per row of theta, which holds only if the frame around the axis is
    # orthogonal to x - c
    rng = np.random.default_rng(seed)
    D = BallDomain(rng.uniform(-1.0, 1.0, n), rng.uniform(0.5, 2.0))
    u = rng.normal(size=n)
    distance = 0.0 if at_center else rng.uniform(0.0, 0.999999) * D.radius
    x = D.center + distance * u / np.linalg.norm(u)
    omega, _ = _whole_rule(x, D, QuadratureSpec(k))
    p = (omega @ (x - D.center)).reshape(k, -1)  # one row of theta per line
    assert np.abs(p - p[:, :1]).max() <= 1e-14 * np.linalg.norm(x - D.center)


def test_reproduce_zeta1_at_the_sphere_edge():
    # |x| = 0.9999: the sinh map gathers the polar nodes at the grazing rays
    u = np.array([0.3, -0.5, 0.2, 0.7])
    rep = boundary_reproduce(_zeta1(), 0.9999 * u / np.linalg.norm(u),
                             BallDomain(np.zeros(4), 1.0), _fueter_kernel(),
                             QuadratureSpec(nodes=64))
    assert rep.rel_error <= 1e-10


@pytest.mark.parametrize("radius", [0.9, 0.99, 0.9999])
def test_reproduce_zeta1_error_falls_with_nodes(radius):
    u = np.array([0.3, -0.5, 0.2, 0.7])
    x, D, K = radius * u / np.linalg.norm(u), BallDomain(np.zeros(4), 1.0), _fueter_kernel()
    errs = {k: boundary_reproduce(_zeta1(), x, D, K, QuadratureSpec(nodes=k)).rel_error
            for k in (16, 32, 64)}
    assert errs[32] <= max(errs[16] / 100.0, 1e-13)
    assert errs[64] <= max(errs[32], 1e-13)


def test_reproduce_coupling_solution_above_four_dims_near_the_sphere():
    K = _gallery_kernel("fueter_induced2")
    rng = np.random.default_rng(3)
    g = _coupling_solution(K, 2, rng)
    u = rng.normal(size=8)
    rep = boundary_reproduce(g, 0.99 * u / np.linalg.norm(u), BallDomain(np.zeros(8), 1.0),
                             K, QuadratureSpec(nodes=32))
    assert rep.nodes == 32 * 98 and rep.rel_error <= 1e-12


def test_derivative_of_coupling_solution_above_four_dims():
    K = _gallery_kernel("octonion_single")
    rng = np.random.default_rng(4)
    g = _coupling_solution(K, 2, rng)
    u = rng.normal(size=8)
    x = 0.3 * u / np.linalg.norm(u)
    exact = gradient_values(g, x[None, :], K.table.dim)[0]
    for i in (0, 5):
        rep = derivative_via_kernel(g, x, i, BallDomain(np.zeros(8), 1.0), K,
                                    QuadratureSpec(nodes=16))
        assert np.linalg.norm(rep.value.coeffs - exact[i]) <= 1e-10 * np.linalg.norm(exact)


def test_degree_beyond_the_symmetric_rule_refused_above_four_dims():
    # the degree-5 rule around the axis is exact for boundary integrands of
    # degree p + 2 and derivative integrands of degree p + 3
    K = _gallery_kernel("fueter_induced2")
    D, spec, x = BallDomain(np.zeros(8), 1.0), QuadratureSpec(nodes=16), np.full(8, 0.05)
    y0 = AlgPolynomial.coordinate(K.table, 8, 0)
    quartic, cubic = y0 * y0 * y0 * y0, y0 * y0 * y0
    for call in (lambda: boundary_reproduce(quartic, x, D, K, spec),
                 lambda: verify_representation(quartic, x, D, K, spec)):
        with pytest.raises(ValueError, match="degree <= 3 here; got degree 4"):
            call()
    with pytest.raises(ValueError, match="degree <= 2 here; got degree 3"):
        derivative_via_kernel(cubic, x, 0, D, K, spec)
    with pytest.raises(ValueError, match="degree <= 2 here; got a callable"):
        derivative_via_kernel(lambda y: np.zeros(4), x, 0, D, K, spec)
    # a cubic non-solution is still represented exactly
    assert verify_representation(cubic, x, D, K, spec).abs_error <= 1e-12


# -- the library sums across BLAS thread counts ----------------------------------


_LIBRARY_SUMS = """
import sys
import numpy as np
from hypercauchy.families import gallery
from hypercauchy.kernel import CauchyKernel
from hypercauchy.solutions import AlgPolynomial, monomial_exponents, polynomial_solution_basis
from hypercauchy.verify import (BallDomain, QuadratureSpec, derivative_via_kernel,
                                verify_representation)

name, nodes = sys.argv[1], int(sys.argv[2])
K = CauchyKernel.from_conditions(next(c for c in gallery() if c.name == name).build())
n, dim = K.n, K.table.dim
rng = np.random.default_rng(n)
layout = monomial_exponents(n, 2)
f = AlgPolynomial(K.table, layout, rng.normal(size=(len(layout), dim)))
basis = polynomial_solution_basis(K.coupling_conditions, 1)
g = AlgPolynomial(K.table, basis[0].exponents,
                  sum(c * b.coeffs for c, b in zip(rng.normal(size=len(basis)), basis)))
D, spec = BallDomain(rng.uniform(-1.0, 1.0, n), 1.5), QuadratureSpec(nodes)
x = D.center + 0.6 * rng.uniform(-1.0, 1.0, n) / np.sqrt(n)
rep = verify_representation(f, x, D, K, spec)
der = derivative_via_kernel(g, x, n - 1, D, K, spec)
for v in (rep.computed.coeffs, der.value.coeffs, [der.bound_constant, der.sup_boundary]):
    print(np.asarray(v, dtype=float).tobytes().hex())
"""


@pytest.mark.parametrize("name,nodes", [
    # rows of 98 and 450 directions around the axis
    ("octonion_single", 8), ("fueter_induced2", 8), ("sedenion_single", 16),
])
def test_library_sums_identical_across_blas_thread_counts(name, nodes):
    # the volume and derivative sums, which the CLI never reaches, give the
    # same bytes with one BLAS thread and with two
    src = str(Path(__file__).resolve().parents[1] / "src")
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    outputs = []
    for threads in ("1", "2"):
        env = {**os.environ, "PYTHONPATH": path, "OMP_NUM_THREADS": threads,
               "OPENBLAS_NUM_THREADS": threads}
        run = subprocess.run([sys.executable, "-c", _LIBRARY_SUMS, name, str(nodes)],
                             capture_output=True, env=env, timeout=120)
        assert run.returncode == 0, run.stderr.decode()
        outputs.append(run.stdout)
    assert outputs[0] == outputs[1] and len(outputs[0].split()) == 3
