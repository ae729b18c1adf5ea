import json
import os
import re
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from click.testing import CliRunner

from hypercauchy import admissibility, cli
from hypercauchy.admissibility import CRConditionSet, save_conditions
from hypercauchy.algebra import builtin
from hypercauchy.cli import main
from hypercauchy.families import (
    random_invertible_single_condition,
    sample_dim3_table,
    single_condition,
)
from hypercauchy.kernel import CauchyKernel
from hypercauchy.solutions import polynomial_solution_basis
from hypercauchy.suites import SUITE_NAMES

ALPHA = 1.0 / (2.0 * np.pi**2)
SRC = str(Path(__file__).resolve().parents[1] / "src")


def _run_cli(args, **env):
    """Run the CLI in a child process with extra environment variables; a
    RuntimeWarning is an error there, as in the test process."""
    path = os.pathsep.join(filter(None, [SRC, os.environ.get("PYTHONPATH")]))
    child_env = {**os.environ, "PYTHONPATH": path,
                 "PYTHONWARNINGS": "error::RuntimeWarning", **env}
    return subprocess.run([sys.executable, "-m", "hypercauchy.cli", *args],
                          capture_output=True, env=child_env, timeout=120)


@pytest.fixture(autouse=True)
def _fresh_memo():
    """Each test starts with no memoised gallery object, as a fresh process."""
    cli._clear_memo()


@pytest.fixture()
def runner():
    return CliRunner()


def _json_payload(result):
    return json.loads(result.output)


def test_inspect_tessarine(runner):
    result = runner.invoke(main, ["inspect", "tessarine"])
    assert result.exit_code == 0
    payload = _json_payload(result)
    assert payload["schema_version"] == "1"
    report = payload["report"]
    assert report["dim"] == 4
    assert report["unit_ok"] and report["associative"] and report["commutative"]
    assert report["sum_basis_squares_zero"]


def test_inspect_octonion_not_associative(runner):
    result = runner.invoke(main, ["inspect", "octonion"])
    assert result.exit_code == 0
    report = _json_payload(result)["report"]
    assert not report["associative"]
    assert report["associativity_violation"] > 0.5
    assert not report["commutative"]


def test_inspect_complex_squares_vanish(runner):
    result = runner.invoke(main, ["inspect", "complex", "--format", "text"])
    assert result.exit_code == 0
    assert "zero: True" in result.output


def test_inspect_unknown_algebra_fails(runner):
    result = runner.invoke(main, ["inspect", "no_such_algebra"])
    assert result.exit_code == 1


def test_cr_solve_fueter_feasible(runner):
    result = runner.invoke(main, ["cr-solve", "fueter"])
    assert result.exit_code == 0
    report = _json_payload(result)["report"]
    assert set(report) == {"feasible", "residual", "free_dim", "b", "c"}
    assert report["feasible"] is True
    b = np.array(report["b"])
    expected = np.zeros((1, 4, 4))
    expected[0, 0, 0] = ALPHA
    for l in (1, 2, 3):
        expected[0, l, l] = -ALPHA
    np.testing.assert_allclose(b, expected, atol=1e-12)


def test_cr_solve_conditions_file_and_infeasible_exit(runner, tmp_path):
    rng = np.random.default_rng(5)
    table = sample_dim3_table(rng, commutative=True)
    C = random_invertible_single_condition(table, 3, rng)
    path = tmp_path / "dim3.json"
    save_conditions(C, path)
    result = runner.invoke(main, ["cr-solve", str(path)])
    assert result.exit_code == 2
    report = _json_payload(result)["report"]
    assert report["feasible"] is False
    assert report["residual"] > 1e-2


def test_cr_solve_large_finite_coefficients_feasible(tmp_path):
    # the row norms of the unscaled system overflowed, and the solve failed
    C = cli._gallery_conditions("fueter")
    path = tmp_path / "fueter_1e200.json"
    save_conditions(CRConditionSet(C.table, C.n, C.q, 1e200 * C.a), path)
    result = _run_cli(["cr-solve", str(path)])
    assert result.returncode == 0, result.stderr.decode()
    assert json.loads(result.stdout)["report"]["feasible"] is True


def test_cr_solve_malformed_json_is_operational_error(runner, tmp_path):
    bad = tmp_path / "bad.json"
    bad.write_text("{not json")
    result = runner.invoke(main, ["cr-solve", str(bad)])
    assert result.exit_code == 1


def test_cr_solve_unknown_spec_fails(runner):
    result = runner.invoke(main, ["cr-solve", "no_such_case.json"])
    assert result.exit_code == 1


@pytest.mark.parametrize("args,name", [
    (["inspect", "complex"], "complex"),
    (["cr-solve", "fueter"], "fueter"),
    (["reproduce", "dbar", "-f", "z", "--point", "0.3,0.1"], "z"),
], ids=["inspect", "cr-solve", "reproduce"])
def test_builtin_name_wins_over_file_with_warning(runner, args, name):
    with runner.isolated_filesystem():
        Path(name).write_text("{}")
        for _ in range(2):  # the second request meets the memoised builtin
            result = runner.invoke(main, args)
            assert result.exit_code == 0
            assert f"warning: {name!r} is both a" in result.stderr


def test_reproduce_cubic(runner):
    result = runner.invoke(
        main,
        ["reproduce", "dbar", "-f", "z3_plus_2z", "--point", "0.3,0.1",
         "--nodes", "256"],
    )
    assert result.exit_code == 0
    report = _json_payload(result)["report"]
    assert report["rel_error"] < 1e-10
    w = 0.3 + 0.1j
    np.testing.assert_allclose(
        report["computed"], [(w**3 + 2 * w).real, (w**3 + 2 * w).imag],
        atol=1e-12,
    )


def test_reproduce_zeta1(runner):
    result = runner.invoke(
        main,
        ["reproduce", "fueter", "-f", "zeta1", "--point", "0.1,0.2,0,0",
         "--nodes", "24"],
    )
    assert result.exit_code == 0
    assert _json_payload(result)["report"]["rel_error"] < 1e-6


def test_reproduce_named_function_through_a_conditions_file(runner, tmp_path):
    path = tmp_path / "fueter.json"
    save_conditions(cli._gallery_conditions("fueter"), path)
    args = ["-f", "zeta1", "--point", "0.1,0.2,0,0", "--nodes", "16"]
    from_file = runner.invoke(main, ["reproduce", str(path), *args])
    from_gallery = runner.invoke(main, ["reproduce", "fueter", *args])
    assert from_file.exit_code == 0 and from_gallery.exit_code == 0
    assert _json_payload(from_file)["report"] == _json_payload(from_gallery)["report"]


def test_reproduce_at_a_zero_of_f_reports_the_absolute_error(runner):
    # zeta1 vanishes at the origin: rel_error falls back to abs_error there
    result = runner.invoke(
        main,
        ["reproduce", "fueter", "-f", "zeta1", "--point", "0,0,0,0", "--nodes", "16"],
    )
    assert result.exit_code == 0
    report = _json_payload(result)["report"]
    assert report["expected"] == [0.0, 0.0, 0.0, 0.0]
    assert report["rel_error"] == report["abs_error"] <= 1e-12


def test_reproduce_polynomial_file(runner, tmp_path):
    poly = tmp_path / "poly.json"
    # first coordinate times e_0 plus second times e_1: this is z, holomorphic
    poly.write_text(json.dumps({
        "exponents": [[1, 0], [0, 1]],
        "coeffs": [[1.0, 0.0], [0.0, 1.0]],
    }))
    result = runner.invoke(
        main,
        ["reproduce", "dbar", "-f", str(poly), "--point", "0.2,-0.3",
         "--nodes", "64"],
    )
    assert result.exit_code == 0
    report = _json_payload(result)["report"]
    np.testing.assert_allclose(report["computed"], [0.2, -0.3], atol=1e-12)


@pytest.mark.parametrize("width", [3, 5])
def test_reproduce_polynomial_file_of_wrong_width_named(runner, tmp_path, width):
    poly = tmp_path / "poly.json"
    poly.write_text(json.dumps({
        "exponents": [[1] + [0] * (width - 1)],
        "coeffs": [[1.0, 0.0, 0.0, 0.0]],
    }))
    result = runner.invoke(
        main, ["reproduce", "fueter", "-f", str(poly), "--point", "0.1,0,0,0"]
    )
    assert result.exit_code == 1
    assert re.search(rf"shape \(\d+, 4\) but the polynomial has {width} variables",
                     result.output)
    assert "broadcast" not in result.output


@pytest.mark.parametrize("exponent,message", [
    (0.5, "exponents must be finite integers; 0.5 is not"),
    (1e20, "exponent 100000000000000000000 is too large"),
    (2**40, "exponent 1099511627776 is too large"),
])
def test_reproduce_polynomial_file_of_bad_exponent_named(runner, tmp_path, exponent,
                                                         message):
    # 0.5 was read as x^0; 1e20 raised OverflowError and 2^40 a MemoryError
    poly = tmp_path / "poly.json"
    poly.write_text(json.dumps({"exponents": [[exponent, 0, 0, 0]],
                                "coeffs": [[1.0, 0.0, 0.0, 0.0]]}))
    result = runner.invoke(
        main, ["reproduce", "fueter", "-f", str(poly), "--point", "0.25,0,0,0"]
    )
    assert result.exit_code == 1
    assert message in result.output


def test_reproduce_point_outside_fails(runner):
    result = runner.invoke(
        main, ["reproduce", "dbar", "-f", "z2", "--point", "1.5,0.0"]
    )
    assert result.exit_code == 1


def test_reproduce_under_resolved_fails(runner):
    result = runner.invoke(
        main,
        ["reproduce", "dbar", "-f", "z3_plus_2z", "--point", "0.93,0.0",
         "--nodes", "8", "--tol", "1e-12"],
    )
    assert result.exit_code == 1


def test_reproduce_non_solution_rejected(runner):
    result = runner.invoke(
        main, ["reproduce", "dbar", "-f", "y1sq", "--point", "0.2,0.0"]
    )
    assert result.exit_code == 1


def test_reproduce_octonion_a_solution_outside_coupling_space_fails(runner, tmp_path):
    # a degree-1 solution of sum_j (df/dy_j) * e_{k_j} = 0, k = (0, 1, 2), that
    # the kernel does not reproduce: it violates the coupling conditions
    C = single_condition(builtin("octonion"), np.eye(8)[[0, 1, 2]])
    coupling = polynomial_solution_basis(CauchyKernel.from_conditions(C).coupling_conditions, 1)
    g = next(g for g in polynomial_solution_basis(C, 1) if not coupling.contains(g))
    conditions, poly = tmp_path / "octonion3.json", tmp_path / "g.json"
    save_conditions(C, conditions)
    poly.write_text(json.dumps({"exponents": g.exponents.tolist(),
                                "coeffs": g.coeffs.tolist()}))
    result = runner.invoke(main, ["reproduce", str(conditions), "-f", str(poly),
                                  "--point", "0.1,-0.05,0.05"])
    assert result.exit_code == 1
    assert "Cauchy conditions" in result.output and "coupling form" in result.output


def test_repeated_reproduce_solves_the_gallery_kernel_once(runner, monkeypatch):
    calls = []
    solve = admissibility.solve_admissibility

    def counted(*args, **kwargs):
        calls.append(args)
        return solve(*args, **kwargs)

    monkeypatch.setattr(admissibility, "solve_admissibility", counted)
    args = ["reproduce", "fueter", "-f", "zeta1", "--point", "0.1,0.2,0,0.05"]
    first, second = runner.invoke(main, args), runner.invoke(main, args)
    assert first.exit_code == second.exit_code == 0
    assert first.stdout_bytes == second.stdout_bytes
    assert len(calls) == 1


def test_infeasible_gallery_kernel_fails_on_every_request(runner):
    args = ["reproduce", "adiff_split", "-f", "const", "--point", "0.1,0.2"]
    first, second = runner.invoke(main, args), runner.invoke(main, args)
    assert first.exit_code == second.exit_code == 1
    assert first.output == second.output
    assert first.output.startswith("error: conditions are not admissible")


def test_polynomial_file_is_read_on_every_request(runner, tmp_path):
    poly = tmp_path / "poly.json"
    args = ["reproduce", "dbar", "-f", str(poly), "--point", "0.2,-0.3"]
    computed = []
    for coeffs in ([[1.0, 0.0], [0.0, 1.0]], [[2.0, 0.0], [0.0, 2.0]]):  # z, then 2z
        poly.write_text(json.dumps({"exponents": [[1, 0], [0, 1]], "coeffs": coeffs}))
        result = runner.invoke(main, args)
        assert result.exit_code == 0
        computed.append(_json_payload(result)["report"]["computed"])
    np.testing.assert_allclose(computed, [[0.2, -0.3], [0.4, -0.6]], atol=1e-12)


def test_memoised_gallery_objects_are_read_only(runner):
    result = runner.invoke(main, ["reproduce", "fueter", "-f", "zeta1",
                                  "--point", "0.1,0,0,0"])
    assert result.exit_code == 0
    kernel = cli._gallery_kernel("fueter")
    f = cli._gallery_solution("zeta1", "fueter")
    assert kernel.conditions is cli._gallery_conditions("fueter")
    for array in (kernel.b, kernel.c, kernel.conditions.a, f.coeffs):
        assert not array.flags.writeable


def test_suite_negative_seed_fails(runner):
    result = runner.invoke(main, ["suite", "m2r", "--seed", "-1"])
    assert result.exit_code == 1
    assert result.output == "error: seed must be a non-negative integer, got -1\n"


def test_suite_m2r_passes(runner):
    result = runner.invoke(main, ["suite", "m2r"])
    assert result.exit_code == 0
    payload = _json_payload(result)["report"]
    assert payload["passed"] is True
    assert all(line.startswith("PASS") for line in payload["lines"])


@pytest.mark.parametrize("name", SUITE_NAMES)
def test_suite_passes_and_repeats_byte_identical(runner, name):
    first = runner.invoke(main, ["suite", name, "--seed", "0"])
    cli._clear_memo()
    second = runner.invoke(main, ["suite", name, "--seed", "0"])
    assert first.exit_code == 0 and second.exit_code == 0
    assert _json_payload(first)["report"]["passed"] is True
    assert first.stdout_bytes == second.stdout_bytes


def test_suite_unknown_name_rejected(runner):
    result = runner.invoke(main, ["suite", "everything"])
    assert result.exit_code != 0


def test_json_output_deterministic(runner, tmp_path):
    # n = 8: the symmetric rule around the polar axis
    out1, out2 = tmp_path / "a.json", tmp_path / "b.json"
    args = ["reproduce", "fueter_induced2", "-f", "const",
            "--point", "0.1,0,0,0,0,0,0,0", "--nodes", "500"]
    r1 = runner.invoke(main, args + ["--out", str(out1)])
    r2 = runner.invoke(main, args + ["--out", str(out2)])
    assert r1.exit_code == 0 and r2.exit_code == 0
    assert out1.read_bytes() == out2.read_bytes()


@pytest.mark.parametrize("conditions,point", [
    ("fueter", "0.1,0,0,0"),
    ("fueter_induced2", "0.1,0,0,0,0,0,0,0"),
])
def test_reproduce_rule_follows_from_dimension(runner, conditions, point):
    result = runner.invoke(main, ["reproduce", conditions, "-f", "const",
                                  "--point", point, "--nodes", "64"])
    assert result.exit_code == 0, result.output
    payload = _json_payload(result)
    assert "scheme" not in payload["config"] and "seed" not in payload["config"]
    assert payload["report"]["rel_error"] <= 1e-12


def test_reproduce_above_four_dims_meets_a_tight_tol(runner):
    result = runner.invoke(main, ["reproduce", "fueter_induced2", "-f", "zeta1",
                                  "--point", "0.3,0.1,0,0,0.2,0,0,0", "--tol", "1e-10"])
    assert result.exit_code == 0, result.output
    assert _json_payload(result)["report"]["rel_error"] <= 1e-12


def test_reproduce_degree_beyond_symmetric_rule_fails(runner, tmp_path):
    # a quartic in one variable: above n = 4 the rule is exact to degree 3
    poly = tmp_path / "quartic.json"
    exponents = np.zeros((1, 8), dtype=int)
    exponents[0, 0] = 4
    poly.write_text(json.dumps({"exponents": exponents.tolist(),
                                "coeffs": [[1.0, 0.0, 0.0, 0.0]]}))
    result = runner.invoke(main, ["reproduce", "fueter_induced2", "-f", str(poly),
                                  "--point", "0.1,0,0,0,0,0,0,0"])
    assert result.exit_code == 1
    assert "degree <= 3" in result.output


def test_system_over_entry_budget_fails(runner, monkeypatch):
    monkeypatch.setattr(admissibility, "MAX_SYSTEM_ENTRIES", 100)
    for args in (["cr-solve", "fueter"],
                 ["reproduce", "fueter", "-f", "zeta1", "--point", "0.1,0,0,0"]):
        result = runner.invoke(main, args)
        assert result.exit_code == 1
        assert "the limit is 100" in result.output


def test_cr_solve_tol_validation(runner):
    for tol in ("-1", "nan"):
        result = runner.invoke(main, ["cr-solve", "fueter", "--tol", tol])
        assert result.exit_code == 1
    result = runner.invoke(main, ["reproduce", "fueter", "-f", "zeta1",
                                  "--point", "0.1,0,0,0", "--tol", "nan"])
    assert result.exit_code == 1


def test_cr_solve_nan_conditions_named_error(tmp_path):
    path = tmp_path / "nan.json"
    path.write_text(json.dumps({"algebra": "complex", "n": 2, "q": 1,
                                "a": [[[1.0, 0.0], [0.0, float("nan")]]]}))
    result = _run_cli(["cr-solve", str(path)])
    assert result.returncode == 1
    stderr = result.stderr.decode()
    assert "error:" in stderr and "finite" in stderr
    assert "DLASCL" not in stderr and "SVD" not in stderr


def test_reproduce_nan_point_fails(runner):
    result = runner.invoke(
        main, ["reproduce", "fueter", "-f", "zeta1", "--point", "nan,0,0,0"]
    )
    assert result.exit_code == 1
    assert "non-finite" in result.output


def test_reproduce_rule_over_node_budget_fails(runner):
    result = runner.invoke(
        main, ["reproduce", "fueter", "-f", "zeta1", "--point", "0.1,0,0,0",
               "--nodes", "10000"]
    )
    assert result.exit_code == 1
    assert "limit" in result.output


@pytest.mark.parametrize("radius", ["1e-170", "1e-160", "1.3e154", "1e155"])
def test_reproduce_radius_out_of_float_range_fails(runner, radius):
    # 1e-170 raised a raw ZeroDivisionError; 1e155 reported a point at
    # 0.3 R "at distance inf"
    point = f"{0.3 * float(radius)!r},0,0,0"
    result = runner.invoke(main, ["reproduce", "fueter", "-f", "zeta1", "--point", point,
                                  "--radius", radius, "--nodes", "16"])
    assert result.exit_code == 1
    assert "is outside [1.49e-154, 6.7e+153]" in result.output and "Traceback" not in result.output


def test_reproduce_gauss_axis_over_limit_fails(runner, monkeypatch):
    # 10^5 nodes on one axis fit the node budget at n = 2; leggauss must not
    # be reached, since it would build a 10^5 x 10^5 matrix
    def refuse(k):
        raise AssertionError(f"leggauss({k}) called")

    monkeypatch.setattr(np.polynomial.legendre, "leggauss", refuse)
    result = runner.invoke(
        main, ["reproduce", "dbar", "-f", "z", "--point", "0.1,0", "--nodes", "100000"]
    )
    assert result.exit_code == 1
    assert "limit" in result.output


@pytest.mark.parametrize("args", [
    ["reproduce", "fueter", "-f", "zeta1", "--point", "0.1,0.2,0,0", "--nodes", "32"],
    ["cr-solve", "m2r_q3"],
    ["suite", "dim3"],
    # n = 8 and 16: rows of 98 and 450 directions around the axis
    ["reproduce", "octonion_single", "-f", "const", "--point", "0.1,0,0,0,0,0,0,0",
     "--nodes", "2000"],
    ["reproduce", "fueter_induced2", "-f", "zeta1", "--point", "0.3,0.1,0,0,0.2,0,0,0",
     "--nodes", "200"],
    ["reproduce", "sedenion_single", "-f", "zeta1",
     "--point", "0.1,0,0,0,0,0,0,0,0,0,0,0,0,0,0.05,0", "--nodes", "32"],
    # the largest admissibility system, and the largest stack of systems
    ["cr-solve", "sedenion_single"],
    ["suite", "dim2sweep"],
], ids=["reproduce", "cr-solve", "suite-dim3", "reproduce-octonion", "reproduce-induced2",
        "reproduce-sedenion", "cr-solve-sedenion", "suite-dim2sweep"])
def test_output_identical_across_blas_thread_counts(args):
    default = _run_cli(args)
    single = _run_cli(args, OMP_NUM_THREADS="1", OPENBLAS_NUM_THREADS="1")
    assert default.returncode == 0 and single.returncode == 0
    assert default.stdout == single.stdout
