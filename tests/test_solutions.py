import itertools
import re
import time

import numpy as np
import pytest

from hypercauchy import admissibility, solutions
from hypercauchy.admissibility import CRConditionSet, SystemTooLarge
from hypercauchy.algebra import AlgElem, builtin
from hypercauchy.families import dbar_conditions, fueter_conditions, gallery
from hypercauchy.solutions import (
    DEFAULT_FD_STEP,
    EVAL_BLOCK,
    AlgPolynomial,
    condition_values,
    gradient_values,
    monomial_exponents,
    named_solution,
    polynomial_solution_basis,
)


def _complex_z():
    table = builtin("complex")
    i = AlgPolynomial.constant(table, 2, [0.0, 1.0])
    return AlgPolynomial.coordinate(table, 2, 0) + AlgPolynomial.coordinate(
        table, 2, 1
    ) * i


def _fueter_zeta(l):
    table = builtin("quaternion")
    e = np.eye(4)
    return AlgPolynomial.coordinate(table, 4, l) * AlgPolynomial.constant(
        table, 4, e[0]
    ) - AlgPolynomial.coordinate(table, 4, 0) * AlgPolynomial.constant(table, 4, e[l])


def test_monomial_layout_graded():
    layout = monomial_exponents(2, 2)
    assert layout == [(0, 0), (0, 1), (1, 0), (0, 2), (1, 1), (2, 0)]
    totals = [sum(e) for e in layout]
    assert totals == sorted(totals)


def _monomial_exponents_by_filter(n, degree):
    # the reference: every tuple of (degree + 1)^n, kept by total degree
    out = []
    for total in range(degree + 1):
        out.extend(sorted(e for e in itertools.product(range(total + 1), repeat=n)
                          if sum(e) == total))
    return out


@pytest.mark.parametrize("degree", range(5))
@pytest.mark.parametrize("n", range(1, 5))
def test_monomial_layout_matches_filtered_tuples(n, degree):
    assert monomial_exponents(n, degree) == _monomial_exponents_by_filter(n, degree)


def test_monomial_layout_of_many_variables_is_quick():
    # 969 = C(19, 3) monomials, not a filter over 4^16 tuples
    start = time.perf_counter()
    layout = monomial_exponents(16, 3)
    assert time.perf_counter() - start < 1.0
    assert len(layout) == 969 == len(set(layout))
    assert [sum(e) for e in layout] == sorted(sum(e) for e in layout)


def test_polynomial_arithmetic_matches_complex_numbers():
    z = _complex_z()
    f = z * z * z + 2.0 * z
    x = np.array([0.3, 0.1])
    w = complex(*x)
    expected = w**3 + 2 * w
    np.testing.assert_allclose(
        f.evaluate(x).coeffs, [expected.real, expected.imag], atol=1e-14
    )
    assert f.degree == 3
    # d/dx0 (z^3) = 3 z^2
    df = gradient_values(z * z * z, x[None, :], 2)[0, 0]
    np.testing.assert_allclose(df, [(3 * w**2).real, (3 * w**2).imag], atol=1e-14)


def test_eval_batch_matches_pointwise():
    f = _fueter_zeta(2)
    rng = np.random.default_rng(4)
    X = rng.normal(size=(15, 4))
    batch = f.eval_batch(X)
    for t in range(15):
        np.testing.assert_allclose(batch[t], f.evaluate(X[t]).coeffs, atol=1e-14)


def test_duplicate_monomials_merge():
    table = builtin("complex")
    p = AlgPolynomial(table, [[1, 0], [1, 0]], [[1.0, 0.0], [2.0, 0.0]])
    assert p.exponents.shape == (1, 2)
    np.testing.assert_allclose(p.coeffs, [[3.0, 0.0]])


@pytest.mark.parametrize("degree", [0, 1, 2, 3, 4, 7, 10])
def test_dbar_nullspace_dimension(degree):
    # real dimension of holomorphic polynomials of degree <= d is 2(d+1)
    basis = polynomial_solution_basis(dbar_conditions(), degree)
    assert len(basis) == 2 * (degree + 1)


def test_dbar_degree2_contains_holomorphic_monomials():
    basis = polynomial_solution_basis(dbar_conditions(), 2)
    table = builtin("complex")
    z = _complex_z()
    i = AlgPolynomial.constant(table, 2, [0.0, 1.0])
    one = AlgPolynomial.constant(table, 2, [1.0, 0.0])
    for f in (one, i, z, i * z, z * z, i * (z * z)):
        assert basis.contains(f)
    # anti-holomorphic conj(z) is not a solution
    conj = AlgPolynomial.coordinate(table, 2, 0) - AlgPolynomial.coordinate(
        table, 2, 1
    ) * i
    assert not basis.contains(conj)


def test_fueter_degree1_contains_zeta():
    basis = polynomial_solution_basis(fueter_conditions(), 1)
    assert len(basis) == 16
    for l in (1, 2, 3):
        zeta = _fueter_zeta(l)
        assert basis.contains(zeta)
        values = condition_values(fueter_conditions(), zeta, np.ones((1, 4)) / 3)
        assert np.abs(values).max() <= 1e-14


def test_full_derivative_conditions_only_constants():
    # q = n independent real directions over the 1-dim algebra
    table = builtin("reals")
    a = np.zeros((3, 3, 1))
    for m in range(3):
        a[m, m, 0] = 1.0
    C = CRConditionSet(table, 3, 3, a)
    for degree in (1, 2):
        assert len(polynomial_solution_basis(C, degree)) == 1


def test_nullspace_dimension_monotone_in_degree():
    for build in (dbar_conditions, fueter_conditions):
        C = build()
        dims = [len(polynomial_solution_basis(C, d)) for d in range(4)]
        assert all(d2 >= d1 for d1, d2 in zip(dims, dims[1:]))


def test_condition_values_examples():
    C = dbar_conditions()
    table = C.table
    x = np.array([[0.3, 0.1]])
    const = AlgPolynomial.constant(table, 2, [2.0, -1.0])
    assert not condition_values(C, const, x).any()
    # f = (first coordinate)^2 * e_0: condition value is 2 x_first * e_0
    y1sq = AlgPolynomial.coordinate(table, 2, 0) * AlgPolynomial.coordinate(
        table, 2, 0
    )
    np.testing.assert_allclose(condition_values(C, y1sq, x), [[[0.6, 0.0]]], atol=1e-14)


def test_condition_values_finite_differences_on_callable():
    C = dbar_conditions()

    def f(y):
        return np.array([np.exp(y[0]) * np.cos(y[1]), np.exp(y[0]) * np.sin(y[1])])

    worst = np.linalg.norm(condition_values(C, f, np.array([[0.3, 0.1]])))
    assert worst < 1e-8  # h^2 accuracy of the central difference


def test_basis_elements_satisfy_conditions_at_random_points():
    for case in gallery():
        if not case.expected_feasible:
            continue
        C = case.build()
        if C.n > 4:
            continue  # keep the sweep at desk scale
        basis = polynomial_solution_basis(C, 2)
        assert basis.max_violation(samples=50, seed=1) <= 1e-10, case.name


def test_huge_degree_refused_before_listing_monomials(monkeypatch):
    # C(10^6 + 4, 4) monomials: the size check counts them without listing
    monkeypatch.setattr(solutions, "monomial_exponents", None)
    with pytest.raises(SystemTooLarge, match="the solution basis of degree 1000000 needs"):
        polynomial_solution_basis(fueter_conditions(), 10**6)


def test_basis_size_checked_before_assembly(monkeypatch):
    # Fueter at degree 3: 35 monomials of 4 coefficients, a 140 x 140 V^T;
    # the cap also bounds the cubics' power tables, 4 x 4 x EVAL_BLOCK
    monkeypatch.setattr(admissibility, "MAX_SYSTEM_ENTRIES", 140 * 140)
    assert len(polynomial_solution_basis(fueter_conditions(), 3)) > 0
    monkeypatch.setattr(admissibility, "MAX_SYSTEM_ENTRIES", 140 * 140 - 1)
    with pytest.raises(SystemTooLarge, match="140 x 140 = 19600 entries; the limit is 19599"):
        polynomial_solution_basis(fueter_conditions(), 3)


def test_eval_batch_names_width_mismatch():
    p = AlgPolynomial(builtin("quaternion"), [[1, 0, 0]], [[1.0, 0.0, 0.0, 0.0]])
    with pytest.raises(ValueError, match=r"shape \(2, 4\) but the polynomial has 3"):
        p.eval_batch(np.zeros((2, 4)))
    with pytest.raises(ValueError, match=r"shape \(1, 2, 3\)"):
        p.eval_batch(np.zeros((1, 2, 3)))
    with pytest.raises(ValueError, match="3 variables"):
        condition_values(fueter_conditions(), p, np.zeros((1, 4)))
    # a callable has no width of its own: the conditions name the mismatch
    with pytest.raises(ValueError, match=r"shape \(1, 3\) but the conditions have 4"):
        condition_values(fueter_conditions(), lambda y: np.zeros(4), np.zeros((1, 3)))


@pytest.mark.parametrize("exponent,message", [
    (0.5, "finite integers; 0.5 is not"),
    (np.nan, "finite integers; nan is not"),
    (np.inf, "finite integers; inf is not"),
    (-1, "non-negative"),
    (1e20, "exponent 100000000000000000000 is too large"),
    (2**40, "exponent 1099511627776 is too large"),
    # the power table holds (deg + 1) n EVAL_BLOCK numbers: at n = 4, 4095
    # is the largest exponent within 2^24
    (admissibility.MAX_SYSTEM_ENTRIES // (4 * EVAL_BLOCK), "4096 is too large"),
])
def test_bad_exponents_named(exponent, message):
    # refused on construction, before any power table is allocated
    with pytest.raises(ValueError, match=re.escape(message)):
        AlgPolynomial(builtin("quaternion"), [[exponent, 0, 0, 0]], [[1.0, 0, 0, 0]])
    largest = admissibility.MAX_SYSTEM_ENTRIES // (4 * EVAL_BLOCK) - 1
    assert AlgPolynomial(builtin("quaternion"), [[largest, 0, 0, 0]],
                         [[1.0, 0, 0, 0]]).degree == largest


def test_polynomial_needs_a_variable():
    with pytest.raises(ValueError, match="at least one variable"):
        AlgPolynomial(builtin("complex"), np.zeros((1, 0), dtype=int), [[1.0, 0.0]])


# -- parity with the per-point condition operator -------------------------------


def _partial_derivative(p, j):
    """dp/dx_j as a polynomial, monomial by monomial."""
    rows = p.exponents[:, j] > 0
    if not rows.any():
        return AlgPolynomial.constant(p.table, p.n, np.zeros(p.table.dim))
    return AlgPolynomial(p.table, p.exponents[rows] - np.eye(p.n, dtype=int)[j],
                         p.coeffs[rows] * p.exponents[rows, j : j + 1])


def _condition_values_per_point(conditions, f, x, h=DEFAULT_FD_STEP):
    """The condition values at the single point x, one product at a time:
    (q, dim)."""
    table, n, q = conditions.table, conditions.n, conditions.q
    derivs = np.zeros((n, table.dim))
    for j in range(n):
        if isinstance(f, AlgPolynomial):
            derivs[j] = _partial_derivative(f, j).evaluate(x).coeffs
        else:
            step = np.zeros(n)
            step[j] = h
            derivs[j] = (np.asarray(f(x + step)) - np.asarray(f(x - step))) / (2.0 * h)
    out = np.zeros((q, table.dim))
    for m in range(q):
        for j in range(n):
            out[m] += table.mul_coeffs(derivs[j], conditions.a[m, j])
    return out


def _random_polynomial(table, n, degree, rng):
    layout = monomial_exponents(n, degree)
    return AlgPolynomial(table, layout, rng.normal(size=(len(layout), table.dim)))


@pytest.mark.parametrize("n", [1, 2, 4, 8, 16])
def test_gradient_values_match_partial_derivative_loop(n):
    rng = np.random.default_rng(n)
    table = builtin("sedenion" if n == 16 else "quaternion")
    p = _random_polynomial(table, n, 3, rng)
    Y = rng.uniform(-1.5, 1.5, size=(EVAL_BLOCK + 37, n))
    got = gradient_values(p, Y, table.dim)
    ref = np.stack([_partial_derivative(p, j).eval_batch(Y) for j in range(n)], axis=1)
    assert got.shape == (len(Y), n, table.dim)
    np.testing.assert_array_equal(got, ref)
    # a variable that appears in no monomial has derivative exactly zero
    flat = AlgPolynomial(table, np.eye(n, dtype=int)[:1], [[1.0, 2.0] + [0.0] * (table.dim - 2)])
    assert not gradient_values(flat, Y, table.dim)[:, 1:].any()
    # callables take central differences of the same values
    fd = gradient_values(lambda y: p.evaluate(y).coeffs, Y[:5], table.dim)
    np.testing.assert_allclose(fd, ref[:5], rtol=1e-7, atol=1e-7)


def test_gradient_values_of_monomials_in_any_order():
    # the lowered monomials of all partials are merged in order of first
    # appearance, so their sums may run in another order than monomial by
    # monomial: equal up to rounding, relative to the sum of absolute terms
    n, rng = 8, np.random.default_rng(8)
    table = builtin("quaternion")
    layout = np.array(monomial_exponents(n, 4))
    layout = layout[rng.permutation(len(layout))]
    p = AlgPolynomial(table, layout, rng.normal(size=(len(layout), table.dim)))
    Y = rng.uniform(-1.5, 1.5, size=(EVAL_BLOCK + 37, n))
    got = gradient_values(p, Y, table.dim)
    for j in range(n):
        d = _partial_derivative(p, j)
        scale = np.prod(np.abs(Y)[:, None, :] ** d.exponents, axis=2) @ np.abs(d.coeffs)
        assert np.all(np.abs(got[:, j] - d.eval_batch(Y)) <= 1e-14 * scale)


def test_gradient_values_refuses_a_wrong_dim():
    zeta1 = named_solution("zeta1", builtin("quaternion"), 4)
    with pytest.raises(ValueError, match="dim 2 does not match the polynomial's "
                                         "algebra dimension 4"):
        gradient_values(zeta1, np.zeros((3, 4)), 2)


def test_max_violation_needs_a_sample():
    basis = polynomial_solution_basis(dbar_conditions(), 1)
    with pytest.raises(ValueError, match="samples must be >= 1"):
        basis.max_violation(samples=0)
    assert basis.max_violation(samples=1) <= 1e-12


@pytest.mark.parametrize("case", gallery(), ids=lambda c: c.name)
def test_condition_values_match_per_point_operator(case):
    C = case.build()
    rng = np.random.default_rng(6)
    degree = 2 if C.n <= 4 else 1
    basis = polynomial_solution_basis(C, degree).basis
    basis = basis[:: max(1, len(basis) // 12)]  # at most ~12, spread out
    generic = _random_polynomial(C.table, C.n, degree, rng)
    Y = rng.normal(size=(7, C.n))
    for f in [*basis, generic]:
        got = condition_values(C, f, Y)
        ref = np.stack([_condition_values_per_point(C, f, y) for y in Y])
        np.testing.assert_allclose(got, ref, rtol=1e-12, atol=1e-12)
    # callables take central differences, node by node
    smooth = lambda y: np.tanh(generic.evaluate(y).coeffs)  # noqa: E731
    got = condition_values(C, smooth, Y)
    ref = np.stack([_condition_values_per_point(C, smooth, y) for y in Y])
    np.testing.assert_allclose(got, ref, rtol=1e-12, atol=1e-12 * np.abs(ref).max())


# -- power-table evaluation against the float-pow oracle ----------------------


def _pow_oracle(p, X):
    """Per-node float pow: the evaluation eval_batch replaced."""
    return np.prod(X[:, None, :] ** p.exponents[None, :, :], axis=2) @ p.coeffs


def _assert_matches_oracle(p, X):
    got = p.eval_batch(X)
    want = _pow_oracle(p, X)
    # relative to the sum of absolute terms, so cancellation cannot hide
    # an error or fake one
    scale = np.abs(np.prod(X[:, None, :] ** p.exponents, axis=2)) @ np.abs(p.coeffs)
    assert got.shape == want.shape == (X.shape[0], p.table.dim)
    assert np.all(np.abs(got - want) <= 1e-14 * scale)


@pytest.mark.parametrize("n", range(1, 9))
def test_eval_batch_matches_pow_oracle(n):
    rng = np.random.default_rng(n)
    table = builtin("quaternion")
    totals = rng.integers(0, 7, size=20)
    exps = np.array([rng.multinomial(t, np.full(n, 1.0 / n)) for t in totals])
    p = AlgPolynomial(table, exps, rng.normal(size=(len(exps), 4)))
    assert p.exponents.sum(axis=1).max() <= 6
    _assert_matches_oracle(p, rng.uniform(-1.5, 1.5, size=(2 * EVAL_BLOCK + 57, n)))


@pytest.mark.parametrize("n", [1, 3, 8])
def test_eval_batch_constant_and_empty_inputs(n):
    table = builtin("complex")
    const = AlgPolynomial.constant(table, n, [2.0, -1.0])
    X = np.random.default_rng(0).normal(size=(5, n))
    np.testing.assert_array_equal(const.eval_batch(X), np.tile([2.0, -1.0], (5, 1)))
    _assert_matches_oracle(const, X)
    cubic = AlgPolynomial(table, np.full((1, n), 3) * (np.arange(n) == 0),
                          [[1.0, 0.5]])
    for p in (const, cubic):
        assert p.eval_batch(np.zeros((0, n))).shape == (0, 2)


# -- the prefix evaluator against the gather evaluator it replaced --------------


def _gather_oracle(X, exps, coeffs):
    """sum_k coeffs[k] x^exps[k] per EVAL_BLOCK rows: the power table
    P[k] = P[k-1] * X.T, the monomials as n fancy-index gathers of its rows,
    multiplied left to right over j, summed by one product with coeffs."""
    deg = int(exps.max(initial=0))
    out = np.empty((X.shape[0], coeffs.shape[1]))
    for lo in range(0, X.shape[0], EVAL_BLOCK):
        Xt = X[lo : lo + EVAL_BLOCK].T
        P = np.empty((deg + 1,) + Xt.shape)
        P[0] = 1.0
        for k in range(1, deg + 1):
            P[k] = P[k - 1] * Xt
        mono = P[:, 0][exps[:, 0]]
        for j in range(1, exps.shape[1]):
            mono *= P[:, j][exps[:, j]]
        out[lo : lo + EVAL_BLOCK] = mono.T @ coeffs
    return out


def _gradient_oracle(p):
    """Every df/dx_j as one polynomial of width n * dim, as the gather
    evaluator read it: (exponents, coeffs)."""
    k, j, lowered, alpha = solutions._lowering(p.exponents)
    cfs = np.zeros((len(k), p.n, p.table.dim))
    cfs[np.arange(len(k)), j] = alpha[:, None] * p.coeffs[k]
    return solutions._merged(lowered, cfs.reshape(len(k), p.n * p.table.dim))


@pytest.mark.parametrize("n,degree", [(n, d) for n in (1, 2, 4, 8) for d in range(8)]
                         + [(16, d) for d in range(4)])
def test_prefix_evaluator_bit_equal_to_gather_evaluator(n, degree):
    # each monomial is its prefix times one power, one multiplication, in
    # the order of the gather evaluator's product over j: every value and
    # every derivative is the same float; the layouts are graded, shuffled
    # and top degree only (whose prefixes the plan adds), and the point
    # counts straddle the sub-blocks and EVAL_BLOCK
    rng = np.random.default_rng([n, degree])
    table = builtin(("reals", "complex", "quaternion")[degree % 3])
    graded = np.array(monomial_exponents(n, degree))
    layouts = [graded, graded[rng.permutation(len(graded))],
               graded[graded.sum(axis=1) == degree]]
    for exps in layouts:
        p = AlgPolynomial(table, exps, rng.normal(size=(len(exps), table.dim)))
        grad_exps, grad_coeffs = _gradient_oracle(p)
        block = p._plan.rows
        for N in sorted({0, 1, block - 1, block, block + 1, 3 * block + 5,
                         EVAL_BLOCK + 1}):
            X = rng.uniform(-1.5, 1.5, size=(N, n))
            assert np.array_equal(p.eval_batch(X), _gather_oracle(X, p.exponents, p.coeffs))
            assert np.array_equal(gradient_values(p, X, table.dim).reshape(N, n * table.dim),
                                  _gather_oracle(X, grad_exps, grad_coeffs))


def test_evaluation_plan_sizes_its_sub_blocks():
    # the plan is built once per polynomial and once for its gradient; a
    # sub-block's buffers hold about EVAL_ENTRIES numbers, with at least
    # MIN_EVAL_ROWS and at most EVAL_BLOCK points
    cubic = _random_polynomial(builtin("quaternion"), 4, 3, np.random.default_rng(0))
    plan = cubic._plan
    assert cubic._plan is plan and cubic._gradient[0] is cubic._gradient[0]
    assert (plan.size + plan.scratch) * plan.rows <= solutions.EVAL_ENTRIES
    assert (plan.size + plan.scratch) * (plan.rows + 1) > solutions.EVAL_ENTRIES
    assert _fueter_zeta(1)._plan.rows == EVAL_BLOCK
    # a degree of 4095 leaves no room for MIN_EVAL_ROWS points in EVAL_ENTRIES
    high = AlgPolynomial(builtin("quaternion"), [[4095, 0, 0, 0], [1, 1, 1, 1]],
                         [[1.0, 0, 0, 0], [0, 1.0, 0, 0]])
    assert high._plan.rows == solutions.MIN_EVAL_ROWS
    X = np.random.default_rng(1).uniform(-1.0, 1.0, size=(3, 4))
    np.testing.assert_array_equal(high.eval_batch(X),
                                  _gather_oracle(X, high.exponents, high.coeffs))


@pytest.mark.filterwarnings("error")
def test_gradient_coefficient_overflow_refused_by_name():
    # 1e308 y0^2 is a finite polynomial whose derivative 2e308 y0 is not:
    # refused when the gradient is built, with no numpy warning first, and
    # refused again on the next call rather than cached
    p = AlgPolynomial(builtin("complex"), [[0, 1], [2, 0]], [[1.0, 0.0], [1e308, 0.0]])
    for _ in range(2):
        with pytest.raises(ValueError, match=re.escape(
                "df/dx_0 of the monomial [2, 0] overflows: its coefficient times 2 "
                "is not finite")):
            gradient_values(p, np.zeros((1, 2)), 2)
    assert np.isfinite(p.eval_batch(np.ones((1, 2)))).all()
