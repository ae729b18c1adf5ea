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
    kernel_field,
    kernel_field_batch,
    phi,
)

TWO_PI = 2.0 * np.pi
ALPHA = 1.0 / (2.0 * np.pi**2)


POINT_CALLS = pytest.mark.parametrize("call", [
    lambda K, p, q: phi(K, 0, p, q),
    kernel_field,
    lambda K, p, q: kernel_field_batch(K, p, q[None, :]),
    closedness_residual,
], ids=["phi", "kernel_field", "kernel_field_batch", "closedness_residual"])


def _kernel(build):
    return CauchyKernel.from_conditions(build())


def test_phi_vanishes_on_diagonal():
    K = _kernel(dbar_conditions)
    x = np.array([0.7, -0.3])
    assert phi(K, 0, x, x).is_zero(tol=0.0)


def test_phi_complex_is_scaled_conjugate():
    # phi(x, y) = conj(y - x) / (2 pi) as a complex number
    K = _kernel(dbar_conditions)
    rng = np.random.default_rng(3)
    for _ in range(10):
        x, y = rng.normal(size=2), rng.normal(size=2)
        p = phi(K, 0, x, y)
        expected = np.array([y[0] - x[0], -(y[1] - x[1])]) / TWO_PI
        np.testing.assert_allclose(p.coeffs, expected, atol=1e-14)


def test_phi_fueter_form():
    # phi = alpha * ((y0-x0) - i(y1-x1) - j(y2-x2) - k(y3-x3))
    K = _kernel(fueter_conditions)
    x = np.array([0.1, 0.2, -0.5, 0.4])
    y = np.array([1.0, -1.0, 0.5, 2.0])
    d = y - x
    expected = ALPHA * np.array([d[0], -d[1], -d[2], -d[3]])
    np.testing.assert_allclose(phi(K, 0, x, y).coeffs, expected, atol=1e-14)


def test_kernel_field_complex_frozen_value():
    # x=0, y=(1,0): Flux = (1/(2pi)) * (e_0, i), from the defining formula
    # with coefficients (e_0, i) and phi = conj(y-x)/(2pi)
    K = _kernel(dbar_conditions)
    F = kernel_field(K, np.zeros(2), np.array([1.0, 0.0]))
    np.testing.assert_allclose(F[0].coeffs, [1.0 / TWO_PI, 0.0], atol=1e-15)
    np.testing.assert_allclose(F[1].coeffs, [0.0, 1.0 / TWO_PI], atol=1e-15)


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
        F = kernel_field(K, w, y)
        contracted = F[0].coeffs * y[0] + F[1].coeffs * y[1]
        acc += table.mul_coeffs(fv, contracted) * dt
    expected = np.array([w[0] ** 2 - w[1] ** 2, 2.0 * w[0] * w[1]])
    np.testing.assert_allclose(acc, expected, atol=1e-12)


def test_kernel_field_fueter_axis_value_and_decay():
    K = _kernel(fueter_conditions)
    F1 = kernel_field(K, np.zeros(4), np.array([1.0, 0, 0, 0]))
    np.testing.assert_allclose(F1[0].coeffs, [ALPHA, 0, 0, 0], atol=1e-15)
    F2 = kernel_field(K, np.zeros(4), np.array([2.0, 0, 0, 0]))
    np.testing.assert_allclose(F2[0].coeffs, [ALPHA / 8.0, 0, 0, 0], atol=1e-15)


@pytest.mark.parametrize("build,n", [(dbar_conditions, 2), (fueter_conditions, 4)])
def test_homogeneity_loglog_slope(build, n):
    K = _kernel(build)
    rng = np.random.default_rng(11)
    x = rng.normal(size=n)
    u = rng.normal(size=n)
    u /= np.linalg.norm(u)
    ts = np.geomspace(0.25, 4.0, 9)
    norms = []
    for t in ts:
        F = kernel_field(K, x, x + t * u)
        norms.append(np.linalg.norm(np.concatenate([f.coeffs for f in F])))
    slope = np.polyfit(np.log(ts), np.log(norms), 1)[0]
    assert abs(slope - (1 - n)) < 1e-6


def test_translation_invariance():
    K = _kernel(fueter_conditions)
    rng = np.random.default_rng(5)
    x, y, s = rng.normal(size=4), rng.normal(size=4), rng.normal(size=4)
    base = kernel_field(K, x, y)
    shifted = kernel_field(K, x + s, y + s)
    for fb, fs in zip(base, shifted):
        np.testing.assert_allclose(fs.coeffs, fb.coeffs, atol=1e-12)


@pytest.mark.parametrize(
    "build", [dbar_conditions, fueter_conditions, m2r_second_hypothesis]
)
def test_swap_negates_field(build):
    K = _kernel(build)
    n = K.n
    rng = np.random.default_rng(7)
    x, y = rng.normal(size=n), rng.normal(size=n)
    fwd = kernel_field(K, x, y)
    bwd = kernel_field(K, y, x)
    for ff, fb in zip(fwd, bwd):
        np.testing.assert_allclose(fb.coeffs, -ff.coeffs, atol=1e-13)


def test_on_diagonal_raises():
    K = _kernel(dbar_conditions)
    x = np.array([0.4, 0.4])
    with pytest.raises(OnDiagonal):
        kernel_field(K, x, x.copy())
    with pytest.raises(OnDiagonal):
        closedness_residual(K, x, x.copy())
    with pytest.raises(OnDiagonal):
        kernel_field_batch(K, x, np.stack([x + 1.0, x]))


def test_kernel_field_batch_matches_pointwise():
    K = _kernel(fueter_conditions)
    rng = np.random.default_rng(13)
    x = rng.normal(size=4)
    Y = rng.normal(size=(25, 4))
    batch = kernel_field_batch(K, x, Y)
    for t in range(25):
        single = kernel_field(K, x, Y[t])
        for j in range(4):
            np.testing.assert_allclose(batch[t, j], single[j].coeffs, atol=1e-14)


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


@pytest.mark.parametrize("m", [1, 5, -1, 0.5, "0"])
def test_phi_form_index_rejected_by_name(m):
    K = _kernel(fueter_conditions)  # q = 1: the only form is m = 0
    with pytest.raises(ValueError, match="form index m must be"):
        phi(K, m, np.zeros(4), np.ones(4))


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
    base = np.concatenate([f.coeffs for f in kernel_field(K, x, x + u)])
    scaled = np.concatenate([f.coeffs for f in kernel_field(K, x, x + t * u)])
    np.testing.assert_allclose(scaled, base * t ** (1 - 2), rtol=1e-10, atol=1e-12)
