from __future__ import annotations

import json

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hypercauchy.algebra import (
    AlgebraTable,
    Singular,
    algebra_to_dict,
    ball_volume,
    builtin,
    cayley_dickson,
    check_associative,
    check_commutative,
    load_algebra,
    save_algebra,
    sum_of_basis_squares,
    try_invert,
    validate_unit,
)


# independent oracle for the 2x2 matrix algebra: multiply actual matrices
M2R_BASIS = [
    np.array([[1.0, 0.0], [0.0, 1.0]]),
    np.array([[0.0, 1.0], [0.0, 0.0]]),
    np.array([[0.0, 0.0], [1.0, 0.0]]),
    np.array([[1.0, 0.0], [0.0, 0.0]]),
]


def matrix_to_coeffs(M: np.ndarray) -> np.ndarray:
    # basis decomposition: M = a*I + b*E12 + c*E21 + d*E11 with I = E11 + E22
    a = M[1, 1]
    d = M[0, 0] - M[1, 1]
    return np.array([a, M[0, 1], M[1, 0], d])


def test_m2r_table_matches_matrix_products():
    T = builtin("m2r")
    for i in range(4):
        for j in range(4):
            want = matrix_to_coeffs(M2R_BASIS[i] @ M2R_BASIS[j])
            got = T.mul_coeffs(np.eye(4)[i], np.eye(4)[j])
            assert np.allclose(got, want, atol=1e-15), (i, j, got, want)
    assert T.unital_validated
    assert T.associative
    assert not T.commutative


def test_quaternion_relations():
    T = builtin("quaternion")
    e = T.basis()
    i, j, k = e[1], e[2], e[3]
    assert (i * j).close_to(k)
    assert (j * k).close_to(i)
    assert (k * i).close_to(j)
    assert (j * i).close_to(-k)
    for u in (i, j, k):
        assert (u * u).close_to(-e[0])
    assert T.associative
    assert not T.commutative


def test_cayley_dickson_of_complex_is_quaternion():
    got = cayley_dickson(builtin("complex"))
    assert np.array_equal(got.gamma, builtin("quaternion").gamma)


def _cayley_dickson_by_pairs(table):
    """The doubled table from (a,b)(c,d) = (ac - conj(d) b, da + b conj(c)),
    one basis pair at a time."""
    d = table.dim
    n = 2 * d

    def conj(c):
        out = -c.copy()
        out[0] = c[0]
        return out

    g = np.zeros((n, n, n))
    eye, zero = np.eye(d), np.zeros(d)
    for i in range(n):
        a, b = (eye[i], zero) if i < d else (zero, eye[i - d])
        for j in range(n):
            c, dd = (eye[j], zero) if j < d else (zero, eye[j - d])
            g[i, j, :d] = table.mul_coeffs(a, c) - table.mul_coeffs(conj(dd), b)
            g[i, j, d:] = table.mul_coeffs(dd, a) + table.mul_coeffs(b, conj(c))
    return g


@pytest.mark.parametrize("name", ["reals", "complex", "quaternion", "octonion",
                                  "dim2(0.7,-0.3)", "clifford(2,3)"])
def test_cayley_dickson_matches_pair_products(name):
    table = builtin(name)
    got = cayley_dickson(table).gamma
    want = _cayley_dickson_by_pairs(table)
    assert np.array_equal(got, want)
    assert np.array_equal(np.signbit(got), np.signbit(want))  # signs of zeros too


def test_cayley_dickson_of_reals_is_complex():
    got = cayley_dickson(builtin("reals"))
    assert np.array_equal(got.gamma, builtin("complex").gamma)


def test_octonion_structure():
    T = builtin("octonion")
    assert T.dim == 8
    assert T.unital_validated
    e0 = T.unit()
    for m in range(1, 8):
        em = T.basis_elem(m)
        assert (em * em).close_to(-e0)
        for l in range(m + 1, 8):
            el = T.basis_elem(l)
            assert (em * el + el * em).is_zero()
    assert check_associative(T) > 0.5
    assert not T.commutative


def test_sedenion_structure():
    T = builtin("sedenion")
    assert T.dim == 16
    assert T.unital_validated
    e0 = T.unit()
    for m in range(1, 16):
        em = T.basis_elem(m)
        assert (em * em).close_to(-e0)
        for l in range(m + 1, 16):
            el = T.basis_elem(l)
            assert (em * el + el * em).is_zero()
    assert check_associative(T) > 0.5


def test_tessarine_structure():
    T = builtin("tessarine")
    e = T.basis()
    assert (e[1] * e[1]).close_to(-e[0])
    assert (e[2] * e[2]).close_to(e[0])
    assert (e[3] * e[3]).close_to(-e[0])
    assert (e[1] * e[2]).close_to(e[3])
    assert T.commutative
    assert T.associative


def test_clifford_table():
    T = builtin("clifford", 2.0, 3.0)
    e = T.basis()
    assert (e[1] * e[1]).close_to(2.0 * e[0])
    assert (e[2] * e[2]).close_to(3.0 * e[0])
    assert (e[1] * e[2]).close_to(e[3])
    assert (e[2] * e[1]).close_to(-e[3])
    assert (e[3] * e[3]).close_to(-6.0 * e[0])
    assert T.associative
    assert not T.commutative


def test_sum_of_basis_squares_values():
    # includes the unit's square e_0
    assert sum_of_basis_squares(builtin("complex")).is_zero()
    assert sum_of_basis_squares(builtin("tessarine")).is_zero()
    assert sum_of_basis_squares(builtin("clifford(2,3)")).is_zero()
    s = sum_of_basis_squares(builtin("dim2(1,0)"))
    assert np.allclose(s.coeffs, [2.0, 0.0])
    q = sum_of_basis_squares(builtin("quaternion"))
    assert np.allclose(q.coeffs, [-2.0, 0, 0, 0])


def test_builtin_packed_parsing():
    a = builtin("dim2(1,0)")
    b = builtin("dim2", 1.0, 0.0)
    assert np.array_equal(a.gamma, b.gamma)
    with pytest.raises(KeyError):
        builtin("nosuchalgebra")
    with pytest.raises(ValueError):
        builtin("dim2(1)")
    with pytest.raises(ValueError):
        builtin("complex(3)")


def test_validate_unit_rejects_broken_row():
    g = builtin("complex").gamma.copy()
    g[0, 1, 1] = 0.0
    assert not validate_unit(AlgebraTable(g))


def test_try_invert_complex():
    T = builtin("complex")
    z = T.elem([3.0, 4.0])
    w = try_invert(z)
    assert (w * z).close_to(T.unit(), 1e-12)
    assert np.allclose(w.coeffs, [3.0 / 25.0, -4.0 / 25.0])


def test_try_invert_singular_nilpotent():
    T = builtin("m2r")
    with pytest.raises(Singular):
        try_invert(T.basis_elem(1))  # strictly upper triangular matrix
    with pytest.raises(Singular):
        try_invert(T.basis_elem(3))  # rank-one projector


def test_try_invert_sides_in_m2r():
    T = builtin("m2r")
    # invertible matrix [[1,1],[1,0]] = e0*0 ... coeffs: a=M11=0, b=1, c=1, d=M00-M11=1
    x = T.elem([0.0, 1.0, 1.0, 1.0])
    left = try_invert(x, side="left")
    right = try_invert(x, side="right")
    assert (left * x).close_to(T.unit(), 1e-12)
    assert (x * right).close_to(T.unit(), 1e-12)


def test_json_round_trip(tmp_path):
    T = builtin("clifford", 2.0, 3.0)
    path = tmp_path / "cl23.json"
    save_algebra(T, path)
    back = load_algebra(path)
    assert back.dim == T.dim
    assert np.max(np.abs(back.gamma - T.gamma)) <= 1e-15


def test_load_algebra_builtin_name_wins():
    T = load_algebra("quaternion")
    assert T.dim == 4
    T2 = load_algebra("dim2(-1, 0)")
    assert np.array_equal(T2.gamma, builtin("complex").gamma)


def test_load_algebra_rejects_broken_unit(tmp_path):
    data = algebra_to_dict(builtin("complex"))
    data["gamma"][0][1][1] = 0.0
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(data))
    with pytest.raises(ValueError):
        load_algebra(path)


def test_ball_volume_values():
    assert ball_volume(1) == pytest.approx(2.0, abs=1e-15)
    assert ball_volume(2) == pytest.approx(np.pi, abs=1e-15)
    assert ball_volume(3) == pytest.approx(4.0 * np.pi / 3.0, abs=1e-14)
    assert ball_volume(4) == pytest.approx(np.pi**2 / 2.0, abs=1e-14)
    assert ball_volume(8) == pytest.approx(np.pi**4 / 24.0, abs=1e-14)


coeff_vec = st.lists(
    st.floats(min_value=-10, max_value=10, allow_nan=False, allow_infinity=False),
    min_size=4, max_size=4,
)


@settings(max_examples=50, deadline=None)
@given(u=coeff_vec, v=coeff_vec, w=coeff_vec, s=st.floats(min_value=-5, max_value=5))
def test_product_bilinearity(u, v, w, s):
    T = builtin("quaternion")
    a, b, c = T.elem(u), T.elem(v), T.elem(w)
    lhs = (a + s * b) * c
    rhs = a * c + s * (b * c)
    assert lhs.close_to(rhs, 1e-14 * max(1.0, lhs.norm()))
    lhs2 = c * (a + s * b)
    rhs2 = c * a + s * (c * b)
    assert lhs2.close_to(rhs2, 1e-14 * max(1.0, lhs2.norm()))


@settings(max_examples=30, deadline=None)
@given(u=coeff_vec)
def test_unit_laws(u):
    T = builtin("m2r")
    a = T.elem(u)
    assert (T.unit() * a).close_to(a)
    assert (a * T.unit()).close_to(a)
