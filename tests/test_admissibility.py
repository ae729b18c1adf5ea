from __future__ import annotations

import os
import subprocess
import sys

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hypercauchy import admissibility
from hypercauchy.algebra import AlgebraTable, AlgElem, ball_volume, builtin, try_invert
from hypercauchy.admissibility import (
    AdmissibilityError,
    BasisNotAnticommuting,
    CauchyKernel,
    CRConditionSet,
    IllConditioned,
    NotCommutative,
    SingularPrincipalMinor,
    SystemTooLarge,
    a_differentiable_conditions,
    anticommuting_single_condition,
    assemble_system,
    check_ellipticity,
    commutative_condition_A,
    conditions_to_dict,
    induced_conditions,
    load_conditions,
    save_conditions,
    solve_admissibility,
)
from hypercauchy.families import (
    commutative_dim3_table,
    dbar_conditions,
    dim2_constructed_pair,
    dim2_expected_feasible,
    dim2_root_of_minus_one,
    fueter_conditions,
    gallery,
    m2r_first_hypothesis,
    m2r_second_hypothesis,
    noncommutative_dim3_table,
    random_invertible_single_condition,
    sample_dim3_table,
    single_condition,
)
from hypercauchy.solutions import polynomial_solution_basis
from hypercauchy.suites import run_suite

TWO_PI = 2.0 * np.pi


def test_assemble_system_counts():
    A, r = assemble_system(dbar_conditions())
    assert A.shape == (6, 4)
    assert r.shape == (6,)
    Af, rf = assemble_system(fueter_conditions())
    assert Af.shape == (40, 16)


def test_system_over_entry_budget_refused_before_assembly(monkeypatch):
    # every gallery system fits the default budget; sedenion_single is largest
    sizes = {c.name: (C := c.build()).equation_count() * C.unknown_count() for c in gallery()}
    assert max(sizes.values()) == sizes["sedenion_single"] == 557_056
    assert sizes["sedenion_single"] <= admissibility.MAX_SYSTEM_ENTRIES
    C = fueter_conditions()  # 40 x 16 entries
    monkeypatch.setattr(admissibility, "MAX_SYSTEM_ENTRIES", 640)
    assert assemble_system(C)[0].shape == (40, 16)
    monkeypatch.setattr(admissibility, "MAX_SYSTEM_ENTRIES", 639)
    monkeypatch.setattr(np, "zeros", None)  # nothing is allocated first
    for call in (assemble_system, solve_admissibility, CauchyKernel.from_conditions):
        with pytest.raises(SystemTooLarge, match="40 x 16 = 640 entries; the limit is 639"):
            call(C)


def test_single_variable_trivial_case():
    T = builtin("reals")
    cond = single_condition(T, [[1.0]])
    rep = solve_admissibility(cond)
    assert rep.feasible
    # kappa = 1/(1 * Vol(B_1)) = 1/2
    assert abs(rep.kernel.b[0, 0, 0] - 0.5) < 1e-14


def test_dbar_kernel_weights():
    rep = solve_admissibility(dbar_conditions())
    assert rep.feasible
    assert rep.residual <= 1e-12
    assert rep.free_dim == 0
    expect = np.zeros((1, 2, 2))
    expect[0, 0, 0] = 1.0 / TWO_PI
    expect[0, 1, 1] = -1.0 / TWO_PI
    assert np.max(np.abs(rep.kernel.b - expect)) <= 1e-12
    # coupling matrix: diagonal e_0/2, antisymmetric off-diagonal i/2
    assert np.allclose(rep.kernel.c[0, 0], [0.5, 0.0], atol=1e-12)
    assert np.allclose(rep.kernel.c[1, 0], [0.0, 0.5], atol=1e-12)
    assert np.allclose(rep.kernel.c[0, 1], [0.0, -0.5], atol=1e-12)


def test_fueter_kernel_weights():
    rep = solve_admissibility(fueter_conditions())
    assert rep.feasible
    assert rep.free_dim == 0
    alpha = 1.0 / (2.0 * np.pi**2)
    expect = np.zeros((1, 4, 4))
    expect[0, 0, 0] = alpha
    for i in range(1, 4):
        expect[0, i, i] = -alpha
    assert np.max(np.abs(rep.kernel.b - expect)) <= 1e-12
    assert abs(alpha - 1.0 / (4.0 * ball_volume(4))) <= 1e-15


def test_kernel_coupling_invariants():
    for cond in (dbar_conditions(), fueter_conditions(), m2r_second_hypothesis()):
        rep = solve_admissibility(cond)
        assert rep.feasible
        c = rep.kernel.c
        n = cond.n
        for i in range(n):
            diag = np.zeros(cond.table.dim)
            diag[0] = 1.0 / n
            assert np.max(np.abs(c[i, i] - diag)) <= 1e-12
            for j in range(i + 1, n):
                assert np.max(np.abs(c[i, j] + c[j, i])) <= 1e-12


def test_adiff_complex_kernel():
    cond = a_differentiable_conditions(builtin("complex"))
    rep = solve_admissibility(cond)
    assert rep.feasible
    assert rep.free_dim == 0
    kappa = 1.0 / TWO_PI
    # condition coefficients (-i, e_0) force b = (kappa*i, kappa*e_0)
    assert np.allclose(rep.kernel.b[0, 0], [0.0, kappa], atol=1e-12)
    assert np.allclose(rep.kernel.b[0, 1], [kappa, 0.0], atol=1e-12)


def test_adiff_tessarine_feasible_and_hand_solution():
    cond = a_differentiable_conditions(builtin("tessarine"))
    rep = solve_admissibility(cond)
    assert rep.feasible
    assert rep.kernel.condition_violation() <= 1e-12
    assert rep.free_dim == 12
    # hand-built weights: b[m, 0] = e_{m+1}/(4 Vol), b[m, i>0] = delta e_0/(4 Vol)
    vol = ball_volume(4)
    b = np.zeros((3, 4, 4))
    for m in range(3):
        b[m, 0, m + 1] = 1.0 / (4.0 * vol)
        b[m, m + 1, 0] = 1.0 / (4.0 * vol)
    hand = CauchyKernel(cond, b)
    assert hand.condition_violation() <= 1e-14


def test_adiff_split_complex_infeasible():
    rep = solve_admissibility(a_differentiable_conditions(builtin("dim2(1,0)")))
    assert not rep.feasible
    assert rep.residual > 0.5


def test_adiff_clifford23_feasible():
    rep = solve_admissibility(a_differentiable_conditions(builtin("clifford(2,3)")))
    assert rep.feasible
    assert rep.kernel.condition_violation() <= 1e-12


def test_induced_fueter_two_copies():
    cond = induced_conditions(fueter_conditions(), 2)
    assert cond.n == 8 and cond.q == 2
    rep = solve_admissibility(cond)
    assert rep.feasible
    alpha2 = 1.0 / (8.0 * ball_volume(8))
    b = rep.kernel.b
    # own-block weights replicate the one-variable pattern at the new scale
    for l in range(2):
        blk = b[l, 4 * l:4 * l + 4]
        expect = np.diag([alpha2, -alpha2, -alpha2, -alpha2])
        assert np.max(np.abs(blk - expect)) <= 1e-12
    # cross-block weights vanish
    assert np.max(np.abs(b[0, 4:])) <= 1e-14
    assert np.max(np.abs(b[1, :4])) <= 1e-14


def test_induced_single_copy_matches_original():
    cond = induced_conditions(dbar_conditions(), 1)
    rep = solve_admissibility(cond)
    base = solve_admissibility(dbar_conditions())
    assert np.max(np.abs(rep.kernel.b - base.kernel.b)) <= 1e-14


def test_induced_dbar_two_copies():
    cond = induced_conditions(dbar_conditions(), 2)
    rep = solve_admissibility(cond)
    assert rep.feasible
    kappa4 = 1.0 / (4.0 * ball_volume(4))
    assert abs(rep.kernel.b[0, 0, 0] - kappa4) <= 1e-14
    assert abs(rep.kernel.b[1, 2, 0] - kappa4) <= 1e-14
    assert np.max(np.abs(rep.kernel.b[0, 2:])) <= 1e-14


def test_ill_conditioned_band_raises():
    C = builtin("complex")
    a = np.zeros((1, 2, 2))
    a[0, 0, 0] = 1.0
    a[0, 1, 1] = 1.0
    a[0, 1, 0] = 1e-7
    with pytest.raises(IllConditioned) as exc:
        solve_admissibility(CRConditionSet(C, 2, 1, a))
    assert 1e-9 < exc.value.residual < 1e-6


def test_clearly_infeasible_does_not_raise():
    C = builtin("complex")
    a = np.zeros((1, 2, 2))
    a[0, 0, 0] = 1.0
    a[0, 1, 1] = 1.0
    a[0, 1, 0] = 1e-2
    rep = solve_admissibility(CRConditionSet(C, 2, 1, a))
    assert not rep.feasible
    assert rep.residual > 1e-6


def test_ellipticity_dbar_and_fueter():
    for cond in (dbar_conditions(), fueter_conditions()):
        rep = solve_admissibility(cond)
        ell = check_ellipticity(rep.kernel, samples=64, seed=1)
        assert ell.elliptic
        assert ell.worst_coeff <= 1e-12
        assert ell.min_symbol_sq > 0.5


def test_ellipticity_rejects_corrupted_weights():
    cond = dbar_conditions()
    rep = solve_admissibility(cond)
    bad = rep.kernel.b.copy()
    bad[0, 0, 0] += 0.05
    corrupted = CauchyKernel(cond, bad)
    ell = check_ellipticity(corrupted)
    assert not ell.elliptic
    assert ell.worst_coeff > 1e-3


def test_ellipticity_needs_a_sample():
    kernel = solve_admissibility(dbar_conditions()).kernel
    with pytest.raises(ValueError, match="samples must be >= 1"):
        check_ellipticity(kernel, samples=0)


def test_condition_a_dbar_exact():
    rep = commutative_condition_A(dbar_conditions())
    assert rep.feasible
    assert rep.residual <= 1e-14
    assert rep.principal_rows == (0,)
    assert rep.c_consistency <= 1e-14
    expect = np.zeros((1, 2, 2))
    expect[0, 0, 0] = 1.0 / TWO_PI
    expect[0, 1, 1] = -1.0 / TWO_PI
    assert np.max(np.abs(rep.kernel.b - expect)) <= 1e-12
    assert np.allclose(rep.kernel.c[1, 0], [0.0, 0.5], atol=1e-14)


def test_condition_a_tessarine_both_principal_choices():
    cond = a_differentiable_conditions(builtin("tessarine"))
    for rows in (None, (1, 2, 3)):
        rep = commutative_condition_A(cond, principal_rows=rows)
        assert rep.feasible
        assert rep.c_consistency <= 1e-12
        assert rep.kernel.condition_violation() <= 1e-12


def test_condition_a_split_complex_fails():
    rep = commutative_condition_A(a_differentiable_conditions(builtin("dim2(1,0)")))
    assert not rep.feasible
    assert rep.residual >= 1.0


@pytest.mark.parametrize("algebra,consistency", [("dim2(1,0)", 1.0), ("dim2(0,0)", 0.5)],
                         ids=["split", "dual"])
def test_condition_a_consistency_measures_inconsistent_data(algebra, consistency):
    # a tolerance that passes these infeasible sets makes Cramer's rule
    # rebuild c from inconsistent data; the cross-check must report it
    cond = a_differentiable_conditions(builtin(algebra))
    rep = commutative_condition_A(cond, tol=1e6)
    assert rep.feasible
    assert rep.c_consistency == pytest.approx(consistency, abs=1e-12)


@pytest.mark.parametrize("bad", [0.0, -1.0, np.nan], ids=["zero", "negative", "nan"])
def test_condition_a_tolerance_rejected_by_name(bad):
    cond = a_differentiable_conditions(builtin("tessarine"))
    with pytest.raises(ValueError, match="tol must be positive"):
        commutative_condition_A(cond, tol=bad)


def test_condition_a_errors():
    with pytest.raises(NotCommutative):
        commutative_condition_A(fueter_conditions())
    C = builtin("complex")
    degenerate = single_condition(C, [[1.0, 0.0], [0.0, 0.0]])
    with pytest.raises(SingularPrincipalMinor):
        commutative_condition_A(degenerate, principal_rows=(1,))
    rep = commutative_condition_A(degenerate)  # default search picks row 0
    assert not rep.feasible


def test_condition_a_matches_solver_on_induced_dbar():
    cond = induced_conditions(dbar_conditions(), 2)
    rep_a = commutative_condition_A(cond)
    rep_s = solve_admissibility(cond)
    assert rep_a.feasible == rep_s.feasible is True
    assert rep_a.kernel.condition_violation() <= 1e-12


def _det(table, M):
    """Laplace expansion along the first row, independent of the package."""
    if len(M) == 1:
        return M[0, 0]
    return sum((-1) ** j * table.mul_coeffs(M[0, j], _det(table, np.delete(M[1:], j, axis=1)))
               for j in range(len(M)))


def _literal_condition_a(C, rows):
    """The criterion as its docstring states it: D[k][p] with principal row p
    dropped and row k appended, the double sum, and b by Cramer's rule column
    by column.  Returns (residual, b, c_consistency)."""
    T, n, q = C.table, C.n, C.q
    R = C.a.swapaxes(0, 1)
    P = R[list(rows)]
    D0 = _det(T, P)
    D0_inv = try_invert(AlgElem(T, D0)).coeffs
    free = [i for i in range(n) if i not in rows]
    D = np.array([[_det(T, np.concatenate([np.delete(P, p, axis=0), R[v][None]]))
                   for p in range(q)] for v in free])
    worst = max(np.linalg.norm(sum(T.mul_coeffs(D[l, p], D[k, p]) for p in range(q))
                               + (k == l) * T.mul_coeffs(D0, D0))
                for k in range(len(free)) for l in range(len(free)))
    residual = worst / max(1.0, np.linalg.norm(D0) ** 2, np.max(np.sum(D**2, axis=2)))
    # row v of R is sum_p K[v, p] R[r_p] with K[v, p] = (-1)^(q-1-p) D[v][p] / D_0,
    # and so is row v of c; the principal block is (e_0/n) I
    K = [[(-1) ** (q - 1 - p) * T.mul_coeffs(D0_inv, D[k, p]) for p in range(q)]
         for k in range(len(free))]
    e0_over_n = np.eye(T.dim)[0] / n
    c = np.zeros((n, n, T.dim))
    c[np.arange(n), np.arange(n)] = e0_over_n
    for k, v in enumerate(free):
        for p, r in enumerate(rows):
            c[v, r] = K[k][p] / n
            c[r, v] = -c[v, r]
    for k, v in enumerate(free):
        for w in free:
            c[v, w] = sum(T.mul_coeffs(K[k][p], c[r, w]) for p, r in enumerate(rows))
    consistency = max([np.linalg.norm(c[i, i] - e0_over_n) for i in range(n)]
                      + [np.linalg.norm(c[i, j] + c[j, i]) for i in range(n) for j in range(i)])
    b = np.zeros((q, n, T.dim))
    for i in range(n):
        for m in range(q):
            M = P.copy()
            M[:, m] = c[list(rows), i]
            b[m, i] = T.mul_coeffs(D0_inv, _det(T, M)) / ball_volume(n)
    rebuilt = ball_volume(n) * np.einsum("mjs,mid,sde->jie", C.a, b, T.gamma)
    return residual, b, max(consistency, np.max(np.abs(rebuilt - c)))


@pytest.mark.parametrize("q", [1, 2, 3])
@pytest.mark.parametrize("algebra", ["dim3", "tessarine"])
def test_condition_a_matches_literal_determinant_form(algebra, q):
    # tol=1e6 takes every draw down the Cramer path, infeasible ones included
    rng = np.random.default_rng(17 + q)
    for _ in range(4):
        table = sample_dim3_table(rng, True) if algebra == "dim3" else builtin("tessarine")
        C = CRConditionSet(table, q + 2, q, rng.standard_normal((q, q + 2, table.dim)))
        rep = commutative_condition_A(C, tol=1e6)
        residual, b, consistency = _literal_condition_a(C, rep.principal_rows)
        assert rep.feasible
        assert rep.residual == pytest.approx(residual, rel=1e-13)
        assert np.max(np.abs(rep.kernel.b - b)) <= 1e-13 * np.max(np.abs(b))
        assert rep.c_consistency == pytest.approx(consistency, rel=1e-13, abs=1e-15)


def test_condition_a_matches_solver_on_dim2_sweep():
    # a constructed pair where b^2 + 4a < 0, random invertible pairs elsewhere;
    # both verdicts on each single condition and on its two induced copies
    rng = np.random.default_rng(0)
    grid = np.arange(-3.0, 3.0 + 0.25, 0.5)
    verdicts = []
    for a in grid:
        for b in grid:
            if abs(b * b + 4 * a) < 0.05:
                continue
            expected = dim2_expected_feasible(a, b)
            C = (dim2_constructed_pair(a, b) if expected else
                 random_invertible_single_condition(builtin("dim2", a, b), 2, rng))
            for cond in (C, induced_conditions(C, 2)):
                by_det = commutative_condition_A(cond).feasible
                assert by_det == solve_admissibility(cond).feasible == expected, (a, b, cond.q)
                verdicts.append(by_det)
    assert 0 < sum(verdicts) < len(verdicts)


@pytest.mark.parametrize("name,call", [
    ("principal_rows entry", lambda: commutative_condition_A(
        a_differentiable_conditions(builtin("tessarine")), principal_rows=(1.7, 2.2, 3.9))),
    ("samples", lambda: check_ellipticity(solve_admissibility(dbar_conditions()).kernel,
                                          samples=2.5)),
    ("copies", lambda: induced_conditions(dbar_conditions(), copies=2.5)),
    ("degree", lambda: polynomial_solution_basis(dbar_conditions(), 2.5)),
    ("samples", lambda: polynomial_solution_basis(dbar_conditions(), 1).max_violation(
        samples=2.5)),
], ids=["principal_rows", "ellipticity_samples", "copies", "degree", "basis_samples"])
def test_count_arguments_must_be_integers(name, call):
    with pytest.raises(ValueError, match=rf"^{name} must be an integer, got (1\.7|2\.5)$"):
        call()


@pytest.mark.parametrize("name,call", [
    ("samples", lambda: check_ellipticity(solve_admissibility(dbar_conditions()).kernel,
                                          samples=10**12)),
    ("copies", lambda: induced_conditions(fueter_conditions(), copies=10**6)),
    ("copies", lambda: induced_conditions(fueter_conditions(), copies=3000)),
    ("samples", lambda: polynomial_solution_basis(dbar_conditions(), 1).max_violation(
        samples=10**12)),
], ids=["ellipticity_samples", "copies", "copies_3000", "basis_samples"])
def test_counts_too_large_to_allocate_refused_by_name(name, call):
    # numpy raised a raw MemoryError (TiB), or allocated 1.15 GB for 3000 copies
    with pytest.raises(SystemTooLarge, match=rf"^{name} = \d+ needs \d+ entries; "
                                             rf"the limit is {admissibility.MAX_SYSTEM_ENTRIES}$"):
        call()


def test_induced_copies_bounded_by_coefficient_array(monkeypatch):
    # Fueter has q = 1, n = 4, dim = 4: two copies hold a 2 x 8 x 4 array
    C = fueter_conditions()
    monkeypatch.setattr(admissibility, "MAX_SYSTEM_ENTRIES", 64)
    assert induced_conditions(C, 2).a.size == 64
    monkeypatch.setattr(admissibility, "MAX_SYSTEM_ENTRIES", 63)
    monkeypatch.setattr(np, "zeros", None)  # nothing is allocated first
    with pytest.raises(SystemTooLarge, match="^copies = 2 needs 64 entries; the limit is 63$"):
        induced_conditions(C, 2)


def test_principal_rows_not_iterable_named():
    cond = a_differentiable_conditions(builtin("tessarine"))
    with pytest.raises(ValueError, match=r"^principal_rows must be 3 distinct indices"):
        commutative_condition_A(cond, principal_rows=1)


@pytest.mark.parametrize("seed,message", [
    (2.5, "seed must be an integer, got 2.5"),
    (-1, "seed must be a non-negative integer, got -1"),
    ("a", "seed must be an integer, got 'a'"),
], ids=["float", "negative", "string"])
@pytest.mark.parametrize("call", [
    lambda seed: check_ellipticity(solve_admissibility(dbar_conditions()).kernel,
                                   seed=seed),
    lambda seed: polynomial_solution_basis(dbar_conditions(), 1).max_violation(seed=seed),
    lambda seed: run_suite("m2r", seed=seed),
    m2r_first_hypothesis,
], ids=["ellipticity", "basis", "suite", "m2r_q1"])
def test_seed_arguments_named(call, seed, message):
    # numpy raised a raw TypeError for 2.5 and "a", and its own ValueError for -1
    with pytest.raises(ValueError, match=f"^{message}$"):
        call(seed)


def test_m2r_first_hypothesis_infeasible():
    for seed in range(5):
        rep = solve_admissibility(m2r_first_hypothesis(seed))
        assert not rep.feasible
        assert rep.residual > 0.5


def test_m2r_second_hypothesis_feasible():
    rep = solve_admissibility(m2r_second_hypothesis())
    assert rep.feasible
    assert rep.kernel.condition_violation() <= 1e-12
    assert rep.free_dim == 8


def test_anticommuting_condition_sets():
    for name in ("octonion", "sedenion"):
        cond = anticommuting_single_condition(builtin(name))
        rep = solve_admissibility(cond)
        assert rep.feasible
        assert rep.free_dim == 0
        assert rep.kernel.condition_violation() <= 1e-12
    with pytest.raises(BasisNotAnticommuting):
        anticommuting_single_condition(builtin("tessarine"))
    with pytest.raises(BasisNotAnticommuting):
        anticommuting_single_condition(builtin("m2r"))


def test_tessarine_random_single_condition_infeasible():
    rng = np.random.default_rng(42)
    cond = random_invertible_single_condition(builtin("tessarine"), 4, rng)
    rep = solve_admissibility(cond)
    assert not rep.feasible
    assert rep.residual > 1e-2


def test_dim3_samples_always_infeasible():
    rng = np.random.default_rng(11)
    for trial in range(20):
        table = sample_dim3_table(rng, commutative=(trial % 2 == 0))
        assert table.associative
        cond = random_invertible_single_condition(table, 3, rng)
        rep = solve_admissibility(cond)
        assert not rep.feasible
        assert rep.residual > 1e-2


def test_dim3_family_tables_are_associative():
    rng = np.random.default_rng(3)
    for _ in range(25):
        assert commutative_dim3_table(*rng.uniform(-2, 2, 6)).associative
        t = noncommutative_dim3_table(*rng.uniform(-2, 2, 4))
        assert t.associative
        assert not t.commutative


def test_dim2_feasibility_construction():
    # inside the feasible region the constructed pair works
    for (a, b) in [(-1.0, 0.0), (-2.0, 1.0), (-3.0, 2.0)]:
        assert dim2_expected_feasible(a, b)
        w = dim2_root_of_minus_one(a, b)
        T = builtin("dim2", a, b)
        assert (T.elem(w) * T.elem(w)).close_to(-T.unit(), 1e-12)
        rep = solve_admissibility(dim2_constructed_pair(a, b))
        assert rep.feasible
    # outside it no invertible pair works
    rng = np.random.default_rng(5)
    for (a, b) in [(1.0, 0.0), (0.5, 2.0), (2.0, -1.0)]:
        assert not dim2_expected_feasible(a, b)
        T = builtin("dim2", a, b)
        cond = random_invertible_single_condition(T, 2, rng)
        rep = solve_admissibility(cond)
        assert not rep.feasible


def test_gallery_expectations():
    for case in gallery():
        cond = case.build()
        rep = solve_admissibility(cond)
        assert rep.feasible == case.expected_feasible, case.name
        if rep.feasible:
            assert rep.kernel.condition_violation() <= 1e-10, case.name
            ell = check_ellipticity(rep.kernel, samples=32, seed=0)
            assert ell.elliptic, case.name


def test_conditions_json_round_trip(tmp_path):
    cond = fueter_conditions()
    path = tmp_path / "fueter.json"
    save_conditions(cond, path)
    back = load_conditions(path)
    assert back.n == cond.n and back.q == cond.q
    assert np.max(np.abs(back.a - cond.a)) <= 1e-15
    rep = solve_admissibility(back)
    assert rep.feasible


def test_conditions_dict_with_builtin_name():
    data = {"algebra": "complex", "n": 2, "q": 1,
            "a": [[[1.0, 0.0], [0.0, 1.0]]]}
    cond = load_conditions(data)
    assert cond.algebra_source == "complex"
    assert solve_admissibility(cond).feasible
    assert conditions_to_dict(cond)["algebra"] == "complex"


@settings(max_examples=20, deadline=None)
@given(perm=st.permutations(range(4)), cperm=st.permutations(range(3)))
def test_feasibility_invariant_under_relabeling(perm, cperm):
    base = m2r_second_hypothesis()
    a = base.a[list(cperm)][:, list(perm)]
    shuffled = CRConditionSet(base.table, base.n, base.q, a)
    rep = solve_admissibility(shuffled)
    assert rep.feasible
    assert rep.kernel.condition_violation() <= 1e-10


@settings(max_examples=20, deadline=None)
@given(perm=st.permutations(range(4)))
def test_infeasibility_invariant_under_relabeling(perm):
    base = m2r_first_hypothesis(0)
    a = base.a[:, list(perm)]
    rep = solve_admissibility(CRConditionSet(base.table, 4, 1, a))
    assert not rep.feasible


# -- invariances of the verdict -------------------------------------------------


@pytest.mark.parametrize("case", gallery(), ids=lambda case: case.name)
@pytest.mark.parametrize("seed", [0, 1])
def test_verdict_invariant_under_orthogonal_change_of_variables(case, seed):
    # x = O x' turns df/dx'_j into sum_k O[k, j] df/dx_k
    C = case.build()
    O = np.linalg.qr(np.random.default_rng(seed).standard_normal((C.n, C.n)))[0]
    moved = CRConditionSet(C.table, C.n, C.q, np.einsum("kj,mks->mjs", O, C.a))
    assert solve_admissibility(moved).feasible == case.expected_feasible


@pytest.mark.parametrize("case", gallery(), ids=lambda case: case.name)
@pytest.mark.parametrize("seed", [0, 1])
def test_verdict_invariant_under_change_of_algebra_basis(case, seed):
    # the basis e'_i = sum_k T[k, i] e_k keeps e'_0 = e_0, so kappa e_0 is kept
    C = case.build()
    dim = C.table.dim
    T = np.eye(dim) + 0.5 * np.random.default_rng(seed).standard_normal((dim, dim))
    T[:, 0] = np.eye(dim)[0]
    T_inv = np.linalg.inv(T)
    gamma = np.einsum("ki,lj,klm,pm->ijp", T, T, C.table.gamma, T_inv)
    moved = CRConditionSet(AlgebraTable(gamma), C.n, C.q, C.a @ T_inv.T)
    assert solve_admissibility(moved).feasible == case.expected_feasible


@pytest.mark.parametrize("case", gallery(), ids=lambda case: case.name)
@pytest.mark.parametrize("scale", [1e-300, 1e150, 1e160, 1e200, 1e300, 1e307])
def test_verdict_invariant_under_scaling_of_coefficients(case, scale):
    # the constraints are bilinear in a and b: s a has the weights b / s and
    # the same c; above 1e154 the unscaled row norms overflowed
    C = case.build()
    ref = solve_admissibility(C)
    rep = solve_admissibility(CRConditionSet(C.table, C.n, C.q, scale * C.a))
    assert (rep.feasible, rep.free_dim) == (ref.feasible, ref.free_dim)
    if ref.feasible:
        np.testing.assert_allclose(rep.kernel.c, ref.kernel.c, rtol=0, atol=1e-13)


@pytest.mark.parametrize("case", gallery(), ids=lambda case: case.name)
@pytest.mark.parametrize("power", [-1000, 1000])
def test_power_of_two_scaling_of_coefficients_changes_no_bit(case, power):
    C = case.build()
    ref = solve_admissibility(C)
    rep = solve_admissibility(CRConditionSet(C.table, C.n, C.q, 2.0**power * C.a))
    assert (rep.feasible, rep.residual, rep.free_dim) == (ref.feasible, ref.residual, ref.free_dim)


@pytest.mark.parametrize("case", [c for c in gallery() if c.expected_feasible],
                         ids=lambda case: case.name)
def test_from_b_accepts_the_solver_weights(case):
    K = solve_admissibility(case.build()).kernel
    assert np.array_equal(CauchyKernel.from_b(K.conditions, K.b).c, K.c)


@pytest.mark.parametrize("eps,verdict", [(1e-12, True), (1e-9, IllConditioned),
                                         (1e-7, IllConditioned), (1e-5, False)])
def test_ill_conditioned_band_of_perturbed_fueter(eps, verdict):
    # the residual is about 1.7 eps: feasible below tol = 1e-9, infeasible
    # above the ceiling 1e-6, and refused as ill-conditioned in between
    C = fueter_conditions()
    a = C.a + eps * np.random.default_rng(0).standard_normal(C.a.shape)
    perturbed = CRConditionSet(C.table, C.n, C.q, a)
    if verdict is IllConditioned:
        with pytest.raises(IllConditioned) as exc:
            solve_admissibility(perturbed)
        residual = exc.value.residual
    else:
        rep = solve_admissibility(perturbed)
        assert rep.feasible == verdict
        residual = rep.residual
    assert eps < residual < 2 * eps


# -- parity with the per-pair assembly loop -------------------------------------


def _assemble_system_per_pair(conditions):
    """The per-pair, per-condition assembly loop the row map replaced."""
    table = conditions.table
    n, q, dim = conditions.n, conditions.q, table.dim
    A = np.zeros((conditions.equation_count(), conditions.unknown_count()))
    r = np.zeros(conditions.equation_count())

    def col_slice(m, i):
        start = (m * n + i) * dim
        return slice(start, start + dim)

    block = 0
    for i in range(n):
        for j in range(i, n):
            rs = slice(block * dim, (block + 1) * dim)
            for m in range(q):
                A[rs, col_slice(m, i)] += table.left_mult_matrix(conditions.a[m, j])
                if i != j:
                    A[rs, col_slice(m, j)] += table.left_mult_matrix(conditions.a[m, i])
            if i == j:
                r[block * dim] = conditions.normalization
            block += 1
    return A, r


def _dim3_draws(count=40, seed=5):
    rng = np.random.default_rng(seed)
    return [random_invertible_single_condition(
                sample_dim3_table(rng, commutative=(k % 2 == 0)), 3, rng)
            for k in range(count)]


@pytest.mark.parametrize("case", gallery(), ids=lambda c: c.name)
def test_assemble_system_matches_per_pair_loop_on_gallery(case):
    C = case.build()
    A, r = assemble_system(C)
    A_ref, r_ref = _assemble_system_per_pair(C)
    assert np.array_equal(A, A_ref)
    assert np.array_equal(r, r_ref)


def test_assemble_system_matches_per_pair_loop_on_dim3_draws():
    for C in _dim3_draws():
        A, r = assemble_system(C)
        A_ref, r_ref = _assemble_system_per_pair(C)
        assert np.array_equal(A, A_ref)
        assert np.array_equal(r, r_ref)


@pytest.mark.parametrize("case", gallery(), ids=lambda c: c.name)
def test_system_residual_is_the_constraint_rows_of_c(case):
    # A x - r, pair block (i, j), is c[i, i] / Vol - kappa e_0 on the diagonal
    # and (c[j, i] + c[i, j]) / Vol off it, for the coupling c that x defines
    C = case.build()
    A, r = assemble_system(C)
    x = np.random.default_rng(9).normal(size=C.unknown_count())
    K = CauchyKernel(C, x)
    vol, e0_over_n = ball_volume(C.n), np.eye(C.table.dim)[0] / C.n
    expected = []
    for i in range(C.n):
        for j in range(i, C.n):
            if i == j:
                expected.append(K.c[i, i] - e0_over_n)
            else:
                expected.append(K.c[j, i] + K.c[i, j])
    expected = np.concatenate(expected) / vol
    got = A @ x - r
    np.testing.assert_allclose(got, expected, rtol=1e-12,
                               atol=1e-12 * np.abs(expected).max())
    assert K.condition_violation() == pytest.approx(np.abs(got).max(), rel=1e-12)


# -- the block decision against one least-squares solve of the whole system ------


def _lstsq_decision(conditions):
    """The decision the block decision replaced: one min-norm np.linalg.lstsq
    on the whole row-normalized system, a zero row divided by the largest
    row norm.  Returns (feasible, residual, free_dim, b), b None when
    infeasible."""
    a = conditions.a
    sigma = np.ldexp(1.0, np.frexp(np.max(np.abs(a)))[1] - 1)
    A, r = assemble_system(CRConditionSet(conditions.table, conditions.n, conditions.q, a / sigma))
    row_norms = np.linalg.norm(A, axis=1)
    largest = row_norms.max()
    scale = np.where(row_norms > 1e-12, row_norms, largest if largest > 1e-12 else 1.0)
    An, rn = A / scale[:, None], r / scale
    x, _, _, sv = np.linalg.lstsq(An, rn, rcond=None)
    rank = int(np.sum(sv > admissibility.RANK_REL_SV * sv[0])) if sv.size else 0
    residual = float(np.linalg.norm(An @ x - rn) / np.linalg.norm(rn))
    feasible = residual <= admissibility.DEFAULT_TOL
    return feasible, residual, conditions.unknown_count() - rank, x / sigma if feasible else None


def _assert_matches_lstsq(conditions, report):
    feasible, residual, free_dim, b = _lstsq_decision(conditions)
    assert (report.feasible, report.free_dim) == (feasible, free_dim)
    # both residuals are relative to |rn|, so this is 1e-14 of |rn|
    assert abs(report.residual - residual) <= 1e-14
    if feasible:
        ref = CauchyKernel(conditions, b)
        for got, want in ((report.kernel.b, ref.b), (report.kernel.c, ref.c)):
            assert np.max(np.abs(got - want)) <= 1e-14 * np.max(np.abs(want))


def _dim2_draws(count, seed):
    rng = np.random.default_rng(seed)
    return [random_invertible_single_condition(builtin("dim2", *rng.uniform(-3, 3, 2)), 2, rng)
            for _ in range(count)]


@pytest.mark.parametrize("case", gallery(), ids=lambda c: c.name)
def test_block_decision_matches_lstsq_on_gallery(case):
    C = case.build()
    _assert_matches_lstsq(C, solve_admissibility(C))


@pytest.mark.parametrize("delta", [1e-13, 1e-12, 1e-11])
@pytest.mark.parametrize("base", [dbar_conditions, fueter_conditions], ids=["dbar", "fueter"])
def test_rank_cut_between_the_cuts(base, delta):
    # a second condition within delta of the first gives singular values of
    # about delta sigma_max: below the rank cut, 1e-10 sigma_max, and above
    # the cut of x, about 1e-14 sigma_max.  x along them is fixed only to
    # eps / delta, so b is checked against the constraints, not the oracle.
    C = base()
    a1 = C.a[0] + delta * np.random.default_rng(1).standard_normal(C.a[0].shape)
    doubled = CRConditionSet(C.table, C.n, 2, np.stack([C.a[0], a1]))
    feasible, residual, free_dim, _ = _lstsq_decision(doubled)
    rep = solve_admissibility(doubled)
    # the rank is that of the first condition alone
    expected_free = C.unknown_count() + solve_admissibility(C).free_dim
    assert (rep.feasible, rep.free_dim) == (feasible, free_dim) == (True, expected_free)
    assert abs(rep.residual - residual) <= 1e-14
    assert rep.kernel.condition_violation() <= 1e-12


@pytest.mark.parametrize("seed", [0, 1, 2])
def test_block_decision_matches_lstsq_on_every_suite_system(monkeypatch, seed):
    from hypercauchy import suites

    decided = []

    def recording(stack, tol=admissibility.DEFAULT_TOL):
        reports = decide(stack, tol)
        decided.extend(zip(stack, reports))
        return reports

    decide = admissibility._decide_stack
    monkeypatch.setattr(admissibility, "_decide_stack", recording)
    monkeypatch.setattr(suites, "_decide_stack", recording)
    for name in suites.SUITE_NAMES:
        assert run_suite(name, seed=seed).passed
    assert len(decided) == 500  # 14 gallery, 100 dim3, 382 dim2sweep and 4 m2r systems
    for C, report in decided:
        _assert_matches_lstsq(C, report)


def test_block_decision_matches_lstsq_on_random_draws():
    draws = _dim3_draws(count=600, seed=11) + _dim2_draws(count=600, seed=12)
    for C, report in zip(draws, admissibility._decide_stack(draws)):
        _assert_matches_lstsq(C, report)


@pytest.mark.parametrize("name,count", [
    ("sedenion_single", 16), ("octonion_single", 8), ("fueter", 4), ("fueter_induced2", 12),
    ("m2r_q3", 10), ("m2r_q1", 1), ("tessarine_q1_random", 1),
])
def test_independent_block_counts(name, count):
    C = next(case for case in gallery() if case.name == name).build()
    A = assemble_system(C)[0]
    blocks = admissibility._independent_blocks(A)
    assert sum(len(rows) for rows, _ in blocks) == count
    # the blocks split the rows with a non-zero entry and the columns with one,
    # and every non-zero entry lies in its block
    rows = np.concatenate([r.ravel() for r, _ in blocks])
    cols = np.concatenate([c.ravel() for _, c in blocks])
    assert np.array_equal(np.sort(rows), np.flatnonzero(A.any(axis=1)))
    assert np.array_equal(np.sort(cols), np.flatnonzero(A.any(axis=0)))
    inside = sum(np.count_nonzero(A[r[:, :, None], c[:, None, :]]) for r, c in blocks)
    assert inside == np.count_nonzero(A)


def test_random_dim3_systems_are_one_block():
    for C in _dim3_draws(count=20, seed=13):
        (rows, cols), = admissibility._independent_blocks(assemble_system(C)[0])
        assert rows.shape == (1, 18) and cols.shape == (1, 9)


def test_stack_gives_the_bits_of_each_system_alone():
    stack = [case.build() for case in gallery()] + _dim3_draws(count=30, seed=14) \
        + _dim2_draws(count=30, seed=15)
    order = np.random.default_rng(16).permutation(len(stack))
    stack = [stack[k] for k in order]
    for C, report in zip(stack, admissibility._decide_stack(stack)):
        alone = solve_admissibility(C)
        assert (report.feasible, report.residual, report.free_dim) == \
            (alone.feasible, alone.residual, alone.free_dim)
        if alone.feasible:
            assert np.array_equal(report.kernel.b, alone.kernel.b)


def test_empty_stack_decides_nothing():
    assert admissibility._decide_stack([]) == []


def _degenerate_conditions():
    # structure constants near 1e300: every row norm overflows
    table = AlgebraTable(builtin("complex").gamma * 1e300)
    return CRConditionSet(table, 2, 1, np.array([[[1.0, 0.0], [0.0, 1.0]]]))


def _ill_conditioned_fueter():
    C = fueter_conditions()
    a = C.a + 1e-7 * np.random.default_rng(0).standard_normal(C.a.shape)
    return CRConditionSet(C.table, C.n, C.q, a)


@pytest.mark.parametrize("order,error", [
    (("ill", "degenerate"), IllConditioned),
    (("degenerate", "ill"), AdmissibilityError),
    (("too_large", "ill", "degenerate"), SystemTooLarge),
    (("ill", "too_large"), IllConditioned),
])
def test_stack_raises_what_the_loop_raises_first(monkeypatch, order, error):
    monkeypatch.setattr(admissibility, "MAX_SYSTEM_ENTRIES", 40 * 16)
    systems = {"ill": _ill_conditioned_fueter(), "degenerate": _degenerate_conditions(),
               "too_large": induced_conditions(fueter_conditions(), 2)}
    stack = [dbar_conditions()] + [systems[name] for name in order] + [fueter_conditions()]
    for name, expected in (("ill", IllConditioned), ("degenerate", AdmissibilityError),
                           ("too_large", SystemTooLarge)):
        with pytest.raises(expected) as alone:
            solve_admissibility(systems[name])
        assert type(alone.value) is expected
    with pytest.raises(error) as raised:
        admissibility._decide_stack(stack)
    assert type(raised.value) is error


def test_overflowing_row_norms_refused_by_name():
    # sigma scales a, not the table, so these row norms overflow
    C = _degenerate_conditions()
    for decide in (solve_admissibility,
                   lambda C: admissibility._decide_stack([dbar_conditions(), C])):
        with pytest.raises(AdmissibilityError, match="row norms overflow; the structure "
                                                     "constants are too large") as raised:
            decide(C)
        assert type(raised.value) is AdmissibilityError


def _zero_conditions(base):
    C = base()
    return CRConditionSet(C.table, C.n, C.q, np.zeros_like(C.a))


def test_system_with_no_block_is_infeasible():
    # a = 0: A has no non-zero entry, so the system has no block and takes no
    # SVD; every row is idle and the residual is |rn| / |rn|
    zero_dbar, zero_fueter = _zero_conditions(dbar_conditions), _zero_conditions(fueter_conditions)
    assert admissibility._independent_blocks(assemble_system(zero_fueter)[0]) == []
    for Z in (zero_dbar, zero_fueter):
        rep = solve_admissibility(Z)
        assert (rep.feasible, rep.residual, rep.free_dim, rep.kernel) == \
            (False, 1.0, Z.unknown_count(), None)
    stack = [dbar_conditions(), zero_fueter, zero_dbar, fueter_conditions()]
    reports = admissibility._decide_stack(stack)
    for C, report in zip(stack, reports):
        alone = solve_admissibility(C)
        assert (report.feasible, report.residual, report.free_dim) == \
            (alone.feasible, alone.residual, alone.free_dim)
        if alone.feasible:
            assert np.array_equal(report.kernel.b, alone.kernel.b)
    assert [r.feasible for r in reports] == [True, False, False, True]


def _count_svd_calls(monkeypatch, stack):
    calls, svd = [], np.linalg.svd
    with monkeypatch.context() as patch:
        patch.setattr(admissibility.np.linalg, "svd",
                      lambda *args, **kwargs: calls.append(1) or svd(*args, **kwargs))
        admissibility._decide_stack(stack)
    return len(calls)


def _block_shapes(C):
    return {(rows.shape[1], cols.shape[1])
            for rows, cols in admissibility._independent_blocks(assemble_system(C)[0])}


def test_blocks_of_one_shape_take_one_svd(monkeypatch):
    # one np.linalg.svd per block shape over the whole stack, however many
    # blocks and systems share it
    m2r_q3 = next(case for case in gallery() if case.name == "m2r_q3").build()
    assert len(_block_shapes(m2r_q3)) == 6
    assert _count_svd_calls(monkeypatch, [m2r_q3]) == 6
    assert _count_svd_calls(monkeypatch, _dim3_draws(count=100, seed=17)) == 1
    cases = [case.build() for case in gallery()]
    shapes = set().union(*map(_block_shapes, cases))
    assert len(shapes) < sum(len(_block_shapes(C)) for C in cases)
    assert _count_svd_calls(monkeypatch, cases) == len(shapes)


# -- the residual of an infeasible system does not depend on the scale of a ------


@pytest.mark.parametrize("scale", [1e-300, 1e-10, 0.7, 1.3, 3.0, 1e10, 1e300])
@pytest.mark.parametrize("case", [c for c in gallery() if not c.expected_feasible],
                         ids=lambda case: case.name)
def test_infeasible_residual_invariant_under_scaling_of_coefficients(case, scale):
    # a zero row of A is divided by the largest row norm, so s a scales rn by
    # 1 / s in every row; adiff_dual has one zero row in six
    C = case.build()
    ref = solve_admissibility(C)
    rep = solve_admissibility(CRConditionSet(C.table, C.n, C.q, scale * C.a))
    assert not rep.feasible
    assert rep.residual == pytest.approx(ref.residual, rel=1e-14)


def test_adiff_dual_residual():
    rep = solve_admissibility(next(c for c in gallery() if c.name == "adiff_dual").build())
    assert rep.residual == pytest.approx(3**-0.5, rel=1e-14)


def test_constraint_pairs_built_once_per_n_and_read_only():
    # importing the package builds none
    probe = "import hypercauchy.admissibility as a; print(a._pairs.cache_info().currsize)"
    out = subprocess.run([sys.executable, "-c", probe], capture_output=True, text=True,
                         env={**os.environ, "PYTHONPATH": os.pathsep.join(sys.path)}, check=True)
    assert out.stdout.strip() == "0"
    i, j = admissibility._pairs(5)
    assert admissibility._pairs(5)[0] is i
    assert np.array_equal(i, np.triu_indices(5)[0]) and np.array_equal(j, np.triu_indices(5)[1])
    assert not i.flags.writeable and not j.flags.writeable
