import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hypercauchy.admissibility import solve_admissibility
from hypercauchy.algebra import builtin
from hypercauchy.families import (
    a_differentiable_conditions,
    dbar_conditions,
    fueter_conditions,
    gallery,
    m2r_second_hypothesis,
)
from hypercauchy.kernel import (
    CauchyKernel,
    OnDiagonal,
    closedness_residual,
    kernel_field_batch,
)

TWO_PI = 2.0 * np.pi
ALPHA = 1.0 / (2.0 * np.pi**2)


POINT_CALLS = pytest.mark.parametrize("call", [
    lambda K, p, q: kernel_field_batch(K, p, q[None, :]),
    closedness_residual,
], ids=["kernel_field_batch", "closedness_residual"])


def _kernel(build):
    return CauchyKernel.from_conditions(build())


def _sedenion_kernel():
    (case,) = [case for case in gallery() if case.name == "sedenion_single"]
    return _kernel(case.build)


def _field(K, x, y):
    """The flux components at one point y: (n, dim)."""
    return kernel_field_batch(K, x, np.asarray(y, dtype=float)[None, :])[0]


def test_phi_complex_is_scaled_conjugate():
    # phi(x, y) = sum_i b[0, i] (y_i - x_i) = conj(y - x) / (2 pi) as a
    # complex number: b[0] = (e_0, -e_1) / (2 pi)
    K = _kernel(dbar_conditions)
    np.testing.assert_allclose(K.b[0], np.diag([1.0, -1.0]) / TWO_PI, atol=1e-14)


def test_phi_fueter_form():
    # phi = alpha * ((y0-x0) - i(y1-x1) - j(y2-x2) - k(y3-x3)):
    # b[0] = alpha (e_0, -e_1, -e_2, -e_3)
    K = _kernel(fueter_conditions)
    np.testing.assert_allclose(K.b[0], ALPHA * np.diag([1.0, -1.0, -1.0, -1.0]),
                               atol=1e-14)


def test_kernel_field_complex_frozen_value():
    # x=0, y=(1,0): Flux = (1/(2pi)) * (e_0, i), from the defining formula
    # with coefficients (e_0, i) and phi = conj(y-x)/(2pi)
    K = _kernel(dbar_conditions)
    F = _field(K, np.zeros(2), [1.0, 0.0])
    np.testing.assert_allclose(F[0], [1.0 / TWO_PI, 0.0], atol=1e-15)
    np.testing.assert_allclose(F[1], [0.0, 1.0 / TWO_PI], atol=1e-15)


def test_kernel_field_reproduces_square_on_circle():
    # independent oracle: trapezoid contour integral of f(y) * Flux . nu
    # around the unit circle must return f at the pole, here f(z) = z^2
    K = _kernel(dbar_conditions)
    w = np.array([0.3, 0.1])
    ts = np.linspace(0.0, TWO_PI, 257)[:-1]
    dt = ts[1] - ts[0]
    table = K.table
    acc = np.zeros(2)
    for t in ts:
        y = np.array([np.cos(t), np.sin(t)])
        fv = np.array([y[0] ** 2 - y[1] ** 2, 2.0 * y[0] * y[1]])
        F = _field(K, w, y)
        contracted = F[0] * y[0] + F[1] * y[1]
        acc += table.mul_coeffs(fv, contracted) * dt
    expected = np.array([w[0] ** 2 - w[1] ** 2, 2.0 * w[0] * w[1]])
    np.testing.assert_allclose(acc, expected, atol=1e-12)


def test_kernel_field_fueter_axis_value_and_decay():
    K = _kernel(fueter_conditions)
    F1 = _field(K, np.zeros(4), [1.0, 0, 0, 0])
    np.testing.assert_allclose(F1[0], [ALPHA, 0, 0, 0], atol=1e-15)
    F2 = _field(K, np.zeros(4), [2.0, 0, 0, 0])
    np.testing.assert_allclose(F2[0], [ALPHA / 8.0, 0, 0, 0], atol=1e-15)


@pytest.mark.parametrize("build,n", [(dbar_conditions, 2), (fueter_conditions, 4)])
def test_homogeneity_loglog_slope(build, n):
    K = _kernel(build)
    rng = np.random.default_rng(11)
    x = rng.normal(size=n)
    u = rng.normal(size=n)
    u /= np.linalg.norm(u)
    ts = np.geomspace(0.25, 4.0, 9)
    norms = [np.linalg.norm(_field(K, x, x + t * u)) for t in ts]
    slope = np.polyfit(np.log(ts), np.log(norms), 1)[0]
    assert abs(slope - (1 - n)) < 1e-6


def test_translation_invariance():
    K = _kernel(fueter_conditions)
    rng = np.random.default_rng(5)
    x, y, s = rng.normal(size=4), rng.normal(size=4), rng.normal(size=4)
    np.testing.assert_allclose(_field(K, x + s, y + s), _field(K, x, y), atol=1e-12)


@pytest.mark.parametrize(
    "build", [dbar_conditions, fueter_conditions, m2r_second_hypothesis]
)
def test_swap_negates_field(build):
    K = _kernel(build)
    n = K.n
    rng = np.random.default_rng(7)
    x, y = rng.normal(size=n), rng.normal(size=n)
    np.testing.assert_allclose(_field(K, y, x), -_field(K, x, y), atol=1e-13)


def test_on_diagonal_raises():
    K = _kernel(dbar_conditions)
    x = np.array([0.4, 0.4])
    with pytest.raises(OnDiagonal):
        _field(K, x, x.copy())
    with pytest.raises(OnDiagonal):
        closedness_residual(K, x, x.copy())
    with pytest.raises(OnDiagonal, match="batch point 1"):
        kernel_field_batch(K, x, np.stack([x + 1.0, x]))


@pytest.mark.filterwarnings("error")  # refused by name, with no numpy warning first
@pytest.mark.parametrize("separation", [1e-20, 1e-25])
def test_batch_point_below_the_relative_floor_is_on_diagonal(separation):
    # 1e-15 (1 + |x| + |y|) floors the separation: below it the flux at
    # n = 16 nears the top of the floats or divides by zero
    K = _sedenion_kernel()
    x = np.zeros(16)
    Y = np.stack([x + np.eye(16)[1], x + separation * np.eye(16)[0]])
    with pytest.raises(OnDiagonal, match="batch point 1"):
        kernel_field_batch(K, x, Y)


@pytest.mark.filterwarnings("error")
def test_far_batch_points_give_the_float_value_of_the_flux():
    # r^16 overflows from r ~ 1e19 on; the flux, r^-15 times the flux at
    # r = 1, is a normal float at 1e20 and underflows to 0 at 1e150 and 1e200
    K = _sedenion_kernel()
    x, u = np.full(16, 0.1), np.eye(16)[0]
    unit = _field(K, x, x + u)
    np.testing.assert_allclose(_field(K, x, x + 1e20 * u), unit * 1e-300, rtol=1e-13)
    assert np.abs(unit).max() * 1e-300 > 0.0
    for t in (1e150, 1e200):
        assert not _field(K, x, x + t * u).any()
    # at n = 2 the flux decays as 1 / r: at 1e200 it is 1e-200 / (2 pi), not 0
    Kc = _kernel(dbar_conditions)
    F = _field(Kc, np.zeros(2), [1e200, 0.0])
    np.testing.assert_allclose(F, np.eye(2) / (TWO_PI * 1e200), rtol=1e-15, atol=0.0)


@pytest.mark.filterwarnings("error")
def test_batch_point_whose_flux_is_not_a_float_refused_by_name():
    # y - x overflows: its length 2e308 is not a float
    K = _kernel(dbar_conditions)
    with pytest.raises(ValueError, match=r"flux at batch point 1 .*separation inf"):
        kernel_field_batch(K, [-1e308, 0.0], [[0.0, 0.0], [1e308, 0.0]])


@pytest.mark.filterwarnings("error")
def test_closedness_residual_of_a_pair_too_far_apart_refused_by_name():
    K = _sedenion_kernel()
    x = np.zeros(16)
    assert closedness_residual(K, x, x + 1e150) <= 1e-12
    e0 = np.eye(16)[0]
    # neither pair is on the diagonal: the separation 4e200 is a float and
    # its square is not; 2e308 is not a float either
    for p, q in ((x, x + 1e200), (-1e308 * e0, 1e308 * e0)):
        with pytest.raises(ValueError, match="too far apart for the closedness residual"):
            closedness_residual(K, p, q)


def test_closedness_identity_across_gallery():
    rng = np.random.default_rng(2024)
    for case in gallery():
        if not case.expected_feasible:
            continue
        C = case.build()
        K = CauchyKernel.from_conditions(C)
        worst = 0.0
        for _ in range(100):
            x = rng.normal(size=C.n)
            y = rng.normal(size=C.n)
            while np.linalg.norm(y - x) < 1e-3:
                y = rng.normal(size=C.n)
            worst = max(worst, closedness_residual(K, x, y))
        assert worst <= 1e-12, f"{case.name}: closedness residual {worst:.3e}"


def test_closedness_detects_corrupted_weights():
    C = dbar_conditions()
    good = solve_admissibility(C).kernel
    b_bad = good.b.copy()
    b_bad[0, 1, 0] += 0.1
    with pytest.raises(ValueError, match="violate the bilinear constraints"):
        CauchyKernel.from_b(C, b_bad)
    K_bad = CauchyKernel(C, b_bad)
    rng = np.random.default_rng(6)
    res = [
        closedness_residual(K_bad, rng.normal(size=2), rng.normal(size=2) + 3.0)
        for _ in range(10)
    ]
    assert min(res) > 1e-3


@POINT_CALLS
def test_point_of_wrong_length_rejected_by_name(call):
    K = _kernel(fueter_conditions)
    good, short = np.array([0.1, 0.2, 0.3, 0.4]), np.array([0.5, 0.6, 0.7])
    with pytest.raises(ValueError, match="kernel has 4 variables"):
        call(K, short, good)
    with pytest.raises(ValueError, match="kernel has 4 variables"):
        call(K, good, short)


@POINT_CALLS
@pytest.mark.parametrize("bad", [np.nan, np.inf], ids=["nan", "inf"])
def test_non_finite_point_rejected_by_name(call, bad):
    K = _kernel(fueter_conditions)
    good, broken = np.array([0.1, 0.2, 0.3, 0.4]), np.array([0.5, bad, 0.7, 0.8])
    with pytest.raises(ValueError, match="x must be finite"):
        call(K, broken, good)
    with pytest.raises(ValueError, match="(y|Y) must be finite"):
        call(K, good, broken)


def test_kernel_weights_of_wrong_size_rejected():
    C = dbar_conditions()
    with pytest.raises(ValueError, match="kernel weights b have 3 entries"):
        CauchyKernel(C, np.zeros(3))


def test_from_b_rejects_non_finite_weights():
    C = dbar_conditions()
    b = solve_admissibility(C).kernel.b.copy()
    b[0, 0, 0] = np.nan
    with pytest.raises(ValueError, match="violate the bilinear constraints"):
        CauchyKernel.from_b(C, b)


def test_kernel_weights_and_coupling_stay_in_step():
    C = dbar_conditions()
    b = solve_admissibility(C).kernel.b.copy()
    K = CauchyKernel(C, b)
    b[0, 0, 0] += 1.0  # the caller's array is not the kernel's
    assert K.condition_violation() <= 1e-14
    for arr in (K.b, K.c):
        with pytest.raises(ValueError, match="read-only"):
            arr[0, 0, 0] = 1.0


def test_from_conditions_rejects_infeasible():
    C = a_differentiable_conditions(builtin("dim2", 1.0, 0.0))
    with pytest.raises(ValueError, match="not admissible"):
        CauchyKernel.from_conditions(C)


@settings(max_examples=25, deadline=None)
@given(
    t=st.floats(min_value=0.1, max_value=10.0),
    seed=st.integers(min_value=0, max_value=2**31 - 1),
)
def test_homogeneity_pointwise_property(t, seed):
    K = _kernel(dbar_conditions)
    rng = np.random.default_rng(seed)
    x = rng.normal(size=2)
    u = rng.normal(size=2)
    u /= np.linalg.norm(u)
    base, scaled = _field(K, x, x + u), _field(K, x, x + t * u)
    np.testing.assert_allclose(scaled, base * t ** (1 - 2), rtol=1e-10, atol=1e-12)
