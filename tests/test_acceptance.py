"""End-to-end acceptance checks.

One test per criterion; each prints a single PASS/FAIL line with the measured
quantity (run with -s to see them all) and asserts the same bound, including
the stated runtime budget where one applies.
"""
import time

import numpy as np

from hypercauchy.admissibility import (
    a_differentiable_conditions,
    commutative_condition_A,
    induced_conditions,
    solve_admissibility,
)
from hypercauchy.algebra import AlgElem, ball_volume, builtin
from hypercauchy.families import (
    dbar_conditions,
    dim2_constructed_pair,
    dim2_expected_feasible,
    fueter_conditions,
    gallery,
    m2r_first_hypothesis,
    m2r_second_hypothesis,
    random_invertible_single_condition,
    sample_dim3_table,
)
from hypercauchy.kernel import CauchyKernel, closedness_residual
from hypercauchy.solutions import (
    AlgPolynomial,
    named_solution,
    polynomial_solution_basis,
)
from hypercauchy.verify import (
    BallDomain,
    QuadratureSpec,
    boundary_reproduce,
    derivative_via_kernel,
    verify_representation,
)

TWO_PI = 2.0 * np.pi
FUETER_ALPHA = 1.0 / (2.0 * np.pi**2)


def _line(label, ok, detail):
    print(f"{'PASS' if ok else 'FAIL'}  {label}: {detail}")
    return ok


def _diag_pattern(scale, dim, n):
    # rows scale*(e_0, -e_1, ..., -e_{n-1}) stacked as one condition's weights
    out = np.zeros((n, dim))
    out[0, 0] = scale
    for l in range(1, n):
        out[l, l] = -scale
    return out


def test_accept_01_complex_kernel_weights():
    t0 = time.perf_counter()
    report = solve_admissibility(dbar_conditions())
    elapsed = time.perf_counter() - t0
    expected = _diag_pattern(1.0 / TWO_PI, 2, 2)[None]
    err = float(np.max(np.abs(report.kernel.b - expected)))
    ok = report.feasible and err <= 1e-12 and elapsed < 1.0
    assert _line("01 complex kernel weights", ok,
                 f"max dev {err:.2e} from (e0,-e1)/(2*pi), {elapsed:.3f}s")


def test_accept_02_quaternion_kernel_weights():
    t0 = time.perf_counter()
    report = solve_admissibility(fueter_conditions())
    elapsed = time.perf_counter() - t0
    expected = _diag_pattern(FUETER_ALPHA, 4, 4)[None]
    err = float(np.max(np.abs(report.kernel.b - expected)))
    ok = report.feasible and err <= 1e-12 and elapsed < 1.0
    assert _line("02 quaternion kernel weights", ok,
                 f"max dev {err:.2e} from alpha*(e0,-e1,-e2,-e3), {elapsed:.3f}s")


def test_accept_03_complex_cubic_reproduction():
    t0 = time.perf_counter()
    C = dbar_conditions()
    K = CauchyKernel.from_conditions(C)
    f = named_solution("z3_plus_2z", C.table, C.n)
    rep = boundary_reproduce(
        f, np.array([0.3, 0.1]), BallDomain(np.zeros(2), 1.0), K,
        QuadratureSpec(nodes=256),
    )
    elapsed = time.perf_counter() - t0
    ok = rep.rel_error < 1e-10 and elapsed < 1.0
    assert _line("03 cubic reproduction on the disk", ok,
                 f"rel {rep.rel_error:.2e} at {rep.nodes} nodes, {elapsed:.3f}s")


def test_accept_04_quaternion_linear_reproduction():
    t0 = time.perf_counter()
    C = fueter_conditions()
    K = CauchyKernel.from_conditions(C)
    f = named_solution("zeta1", C.table, C.n)
    rep = boundary_reproduce(
        f, np.array([0.1, 0.2, 0.0, 0.0]), BallDomain(np.zeros(4), 1.0), K,
        QuadratureSpec(nodes=64),
    )
    elapsed = time.perf_counter() - t0
    ok = rep.nodes >= 64**3 and rep.rel_error < 1e-6 and elapsed < 60.0
    assert _line("04 degree-1 reproduction on the 4-ball", ok,
                 f"rel {rep.rel_error:.2e} at {rep.nodes} nodes, {elapsed:.1f}s")


def test_accept_05_dim3_falsification():
    t0 = time.perf_counter()
    rng = np.random.default_rng(0)
    infeasible = 0
    min_residual = np.inf
    for k in range(100):
        table = sample_dim3_table(rng, commutative=(k % 2 == 0))
        rep = solve_admissibility(
            random_invertible_single_condition(table, 3, rng))
        if not rep.feasible and rep.residual > 1e-2:
            infeasible += 1
        min_residual = min(min_residual, rep.residual)
    elapsed = time.perf_counter() - t0
    ok = infeasible == 100 and elapsed < 30.0
    assert _line("05 dimension-3 falsification", ok,
                 f"{infeasible}/100 infeasible, min residual "
                 f"{min_residual:.3e}, {elapsed:.2f}s")


def test_accept_06_dim2_sweep():
    rng = np.random.default_rng(0)
    grid = np.arange(-3.0, 3.0 + 0.25, 0.5)
    checked = mismatches = 0
    for a in grid:
        for b in grid:
            if abs(b * b + 4 * a) < 0.05:
                continue
            checked += 1
            expected = dim2_expected_feasible(a, b)
            if expected:
                got = solve_admissibility(dim2_constructed_pair(a, b)).feasible
            else:
                table = builtin("dim2", a, b)
                got = any(
                    solve_admissibility(
                        random_invertible_single_condition(table, 2, rng)
                    ).feasible
                    for _ in range(3)
                )
            mismatches += got != expected
    ok = mismatches == 0 and checked > 100
    assert _line("06 dimension-2 parameter sweep", ok,
                 f"{checked} grid points, {mismatches} disagree with "
                 "the sign of b^2+4a")


def test_accept_07_matrix_algebra_hypotheses():
    rep1 = solve_admissibility(m2r_first_hypothesis(seed=0))
    rep3 = solve_admissibility(m2r_second_hypothesis())
    ok = (not rep1.feasible and rep1.residual > 1e-2 and rep3.feasible)

    K = rep3.kernel
    rng = np.random.default_rng(7)
    worst = 0.0
    for _ in range(100):
        x, y = rng.normal(size=4), rng.normal(size=4)
        while np.linalg.norm(y - x) < 1e-3:
            y = rng.normal(size=4)
        worst = max(worst, closedness_residual(K, x, y))
    ok = ok and worst <= 1e-12

    basis = polynomial_solution_basis(K.conditions, 1)
    f = next(g for g in basis if g.degree == 1)
    rep = boundary_reproduce(
        f, np.array([0.15, -0.1, 0.2, 0.05]), BallDomain(np.zeros(4), 1.0),
        K, QuadratureSpec(nodes=24),
    )
    ok = ok and rep.rel_error < 1e-4
    assert _line("07 2x2 matrix algebra", ok,
                 f"q=1 residual {rep1.residual:.2e}, q=3 closedness "
                 f"{worst:.2e}, degree-1 rel {rep.rel_error:.2e}")


def test_accept_08_commutative_feasibility_matches_square_sum():
    mismatches = []
    clifford_ok = False
    for case in gallery():
        if not case.name.startswith("adiff_"):
            continue
        C = case.build()
        table = C.table
        total = np.zeros(table.dim)
        for m in range(table.dim):
            e_m = np.zeros(table.dim)
            e_m[m] = 1.0
            total += table.mul_coeffs(e_m, e_m)
        squares_vanish = bool(np.all(total == 0.0))
        feasible = solve_admissibility(C).feasible
        if feasible != squares_vanish:
            mismatches.append(case.name)
        if case.name == "adiff_clifford23":
            clifford_ok = feasible
    ok = not mismatches and clifford_ok
    assert _line("08 commutative feasibility vs basis square sum", ok,
                 f"mismatches {mismatches or 'none'}, "
                 f"clifford(2,3) feasible={clifford_ok}")


def test_accept_09_determinant_test_cross_validation():
    # the gallery cases whose algebra is commutative (and associative)
    cases = [(case.name, C) for case in gallery()
             if (C := case.build()).table.commutative and C.table.associative]
    disagreements = [name for name, C in cases
                     if commutative_condition_A(C).feasible != solve_admissibility(C).feasible]
    ok = not disagreements
    assert _line("09 determinant test cross-validation", ok,
                 f"{len(cases)} commutative cases, "
                 f"disagreements {disagreements or 'none'}")


def test_accept_10_closedness_every_feasible_kernel():
    rng = np.random.default_rng(11)
    worst_overall = 0.0
    worst_name = ""
    for case in gallery():
        if not case.expected_feasible:
            continue
        C = case.build()
        K = CauchyKernel.from_conditions(C)
        worst = 0.0
        for _ in range(100):
            x, y = rng.normal(size=C.n), rng.normal(size=C.n)
            while np.linalg.norm(y - x) < 1e-3:
                y = rng.normal(size=C.n)
            worst = max(worst, closedness_residual(K, x, y))
        if worst > worst_overall:
            worst_overall, worst_name = worst, case.name
    ok = worst_overall <= 1e-12
    assert _line("10 closedness on all feasible kernels", ok,
                 f"worst {worst_overall:.2e} ({worst_name}, "
                 "100 pairs each)")


def test_accept_11_volume_term_representation():
    t0 = time.perf_counter()
    C = dbar_conditions()
    K = CauchyKernel.from_conditions(C)
    f = named_solution("y1sq", C.table, C.n)
    x = np.array([0.2, 0.0])
    rep = verify_representation(
        f, x, BallDomain(np.zeros(2), 1.0), K, QuadratureSpec(nodes=64))
    elapsed = time.perf_counter() - t0
    value_err = float(np.max(np.abs(rep.computed.coeffs -
                                    np.array([0.04, 0.0]))))
    ok = rep.rel_error < 1e-3 and elapsed < 30.0
    assert _line("11 boundary-minus-volume representation", ok,
                 f"rel {rep.rel_error:.2e}, |computed - 0.04*e0| "
                 f"{value_err:.2e}, {elapsed:.2f}s")


def test_accept_12_two_variable_quaternion_block():
    C = induced_conditions(fueter_conditions(), 2)
    report = solve_admissibility(C)
    ok = report.feasible

    alpha2 = 1.0 / (8.0 * ball_volume(8))
    expected = np.zeros((2, 8, 4))
    for m in range(2):
        expected[m, 4 * m:4 * m + 4] = _diag_pattern(alpha2, 4, 4)
    err = float(np.max(np.abs(report.kernel.b - expected)))
    ok = ok and err <= 1e-12

    K = report.kernel
    rng = np.random.default_rng(5)
    worst = 0.0
    for _ in range(100):
        x, y = rng.normal(size=8), rng.normal(size=8)
        while np.linalg.norm(y - x) < 1e-3:
            y = rng.normal(size=8)
        worst = max(worst, closedness_residual(K, x, y))
    ok = ok and worst <= 1e-12
    assert _line("12 two-variable quaternion conditions", ok,
                 f"block dev {err:.2e} from alpha2={alpha2:.6e}, "
                 f"closedness {worst:.2e}")


def test_accept_13_exotic_algebras():
    octo = solve_admissibility(
        next(c for c in gallery() if c.name == "octonion_single").build())
    sede = solve_admissibility(
        next(c for c in gallery() if c.name == "sedenion_single").build())
    tess = solve_admissibility(
        next(c for c in gallery()
             if c.name == "tessarine_q1_random").build())
    ok = octo.feasible and sede.feasible and not tess.feasible
    assert _line("13 octonion, sedenion, tessarine", ok,
                 f"octonion feasible={octo.feasible}, sedenion "
                 f"feasible={sede.feasible}, tessarine q=1 "
                 f"residual {tess.residual:.2e}")


def test_accept_14_derivative_probe_stand_in():
    # quaternion: d(zeta_1)/dx_1 = e_0 exactly
    Cq = fueter_conditions()
    Kq = CauchyKernel.from_conditions(Cq)
    zeta1 = named_solution("zeta1", Cq.table, Cq.n)
    dq = derivative_via_kernel(
        zeta1, np.array([0.1, 0.2, 0.0, 0.0]), 1, BallDomain(np.zeros(4), 1.0),
        Kq, QuadratureSpec(nodes=24))
    err_q = float(np.max(np.abs(dq.value.coeffs -
                                np.array([1.0, 0.0, 0.0, 0.0]))))
    rel_q = err_q  # exact value has unit norm

    # complex: d(z^2)/dx_0 = 2z = (0.4, 0) at x = (0.2, 0)
    Cc = dbar_conditions()
    Kc = CauchyKernel.from_conditions(Cc)
    z2 = named_solution("z2", Cc.table, Cc.n)
    dc = derivative_via_kernel(
        z2, np.array([0.2, 0.0]), 0, BallDomain(np.zeros(2), 1.0), Kc,
        QuadratureSpec(nodes=128))
    err_c = float(np.max(np.abs(dc.value.coeffs - np.array([0.4, 0.0]))))
    rel_c = err_c / 0.4

    const = named_solution("const", Cc.table, Cc.n)
    d0 = derivative_via_kernel(
        const, np.array([0.2, 0.0]), 0, BallDomain(np.zeros(2), 1.0), Kc,
        QuadratureSpec(nodes=128))
    err_0 = float(np.max(np.abs(d0.value.coeffs)))

    ok = (rel_q < 1e-5 and err_c <= 1e-8 and rel_c < 1e-5 and err_0 < 1e-12
          and dq.estimate_check and dc.estimate_check and d0.estimate_check)
    assert _line("14 derivative-through-kernel probe", ok,
                 f"zeta1 dev {err_q:.2e}, z^2 dev {err_c:.2e}, "
                 f"constant {err_0:.2e}, estimate bound holds on all three")
