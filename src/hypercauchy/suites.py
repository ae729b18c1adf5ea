"""Batch experiment suites behind the CLI: gallery, dim3, dim2sweep, m2r.

Each runner returns a SuiteResult with one line per check so the CLI can
print a pass/fail summary and exit nonzero when anything failed.
"""
from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .admissibility import _decide_stack, check_ellipticity, solve_admissibility
from .algebra import _as_seed, builtin
from .families import (
    dim2_constructed_pair,
    dim2_expected_feasible,
    gallery,
    m2r_first_hypothesis,
    m2r_second_hypothesis,
    random_invertible_single_condition,
    sample_dim3_table,
)
from .kernel import CauchyKernel, closedness_residual
from .solutions import polynomial_solution_basis
from .verify import BallDomain, QuadratureSpec, boundary_reproduce

SUITE_NAMES = ("gallery", "dim3", "dim2sweep", "m2r")
DIM3_SAMPLES = 100
DIM2_GRID_STEP = 0.5
DIM2_PARABOLA_MARGIN = 0.05  # grid points with |b^2 + 4a| below this are skipped


@dataclass
class SuiteResult:
    suite: str
    passed: bool
    lines: list[str] = field(default_factory=list)

    def record(self, ok: bool, message: str) -> None:
        self.lines.append(f"{'PASS' if ok else 'FAIL'}  {message}")
        if not ok:
            self.passed = False

    def to_dict(self) -> dict:
        return {"suite": self.suite, "passed": self.passed, "lines": self.lines}


def _worst_closedness(kernel: CauchyKernel, rng: np.random.Generator,
                      draws: int) -> float:
    """Largest closedness_residual over draws random pairs x, y at least
    1e-3 apart."""
    worst = 0.0
    for _ in range(draws):
        x = rng.normal(size=kernel.n)
        y = rng.normal(size=kernel.n)
        while np.linalg.norm(y - x) < 1e-3:
            y = rng.normal(size=kernel.n)
        worst = max(worst, closedness_residual(kernel, x, y))
    return worst


def run_gallery(seed: int = 0) -> SuiteResult:
    """Feasibility, constraint residual, ellipticity, and closedness for
    every named gallery case."""
    result = SuiteResult("gallery", True)
    rng = np.random.default_rng(seed)
    for case in gallery():
        C = case.build()
        report = solve_admissibility(C)
        result.record(
            report.feasible == case.expected_feasible,
            f"{case.name}: feasible={report.feasible} "
            f"expected={case.expected_feasible} residual={report.residual:.3e}",
        )
        if not (report.feasible and case.expected_feasible):
            continue
        viol = report.kernel.condition_violation()
        result.record(viol <= 1e-10, f"{case.name}: constraint violation {viol:.3e}")
        ell = check_ellipticity(report.kernel)
        result.record(ell.elliptic, f"{case.name}: elliptic "
                      f"(worst coeff {ell.worst_coeff:.3e})")
        worst = _worst_closedness(report.kernel, rng, 20)
        result.record(worst <= 1e-12, f"{case.name}: closedness {worst:.3e}")
    return result


def run_dim3(seed: int = 0) -> SuiteResult:
    """DIM3_SAMPLES associative dimension-3 tables with invertible q=1
    coefficients must all be infeasible with a clear residual margin."""
    result = SuiteResult("dim3", True)
    rng = np.random.default_rng(seed)
    stack = []
    for k in range(DIM3_SAMPLES):
        table = sample_dim3_table(rng, commutative=(k % 2 == 0))
        stack.append(random_invertible_single_condition(table, 3, rng))
    worst = np.inf
    infeasible = 0
    for report in _decide_stack(stack):
        if not report.feasible and report.residual > 1e-2:
            infeasible += 1
        worst = min(worst, report.residual)
    result.record(
        infeasible == DIM3_SAMPLES,
        f"{infeasible}/{DIM3_SAMPLES} infeasible with residual > 1e-2 "
        f"(min residual {worst:.3e})",
    )
    return result


def run_dim2sweep(seed: int = 0) -> SuiteResult:
    """Grid over dim-2 algebra parameters: a feasible invertible q=1 pair
    exists iff b^2 + 4a < 0 (grid points near the parabola excluded).  Each
    infeasible point tries three random draws, all decided in one stack with
    the rest."""
    result = SuiteResult("dim2sweep", True)
    rng = np.random.default_rng(seed)
    grid = np.arange(-3.0, 3.0 + DIM2_GRID_STEP / 2, DIM2_GRID_STEP)
    points, stack = [], []  # points: (a, b, disc, expected, draws in the stack)
    skipped = 0
    for a in grid:
        for b in grid:
            disc = b * b + 4 * a
            if abs(disc) < DIM2_PARABOLA_MARGIN:
                skipped += 1
                continue
            expected = dim2_expected_feasible(a, b)
            if expected:
                draws = [dim2_constructed_pair(a, b)]
            else:
                table = builtin("dim2", a, b)
                draws = [random_invertible_single_condition(table, 2, rng) for _ in range(3)]
            points.append((a, b, disc, expected, len(draws)))
            stack += draws
    reports = _decide_stack(stack)
    mismatches = start = 0
    for a, b, disc, expected, count in points:
        ok = any(report.feasible for report in reports[start:start + count])
        start += count
        if ok != expected:
            mismatches += 1
            result.record(
                False,
                f"(a={a:+.2f}, b={b:+.2f}): feasible={ok} "
                f"expected={expected} (disc {disc:+.3f})",
            )
    result.record(
        mismatches == 0,
        f"{len(points)} grid points agree with the sign of b^2+4a "
        f"({skipped} margin points excluded)",
    )
    return result


def run_m2r(seed: int = 0) -> SuiteResult:
    """2x2 real matrix algebra: one condition cannot be admissible, three
    can; the q=3 kernel passes closedness and reproduces a linear solution."""
    result = SuiteResult("m2r", True)
    rng = np.random.default_rng(seed)
    for s in range(3):
        rep = solve_admissibility(m2r_first_hypothesis(seed=seed + s))
        result.record(
            not rep.feasible and rep.residual > 1e-2,
            f"q=1 draw {s}: infeasible (residual {rep.residual:.3e})",
        )
    rep3 = solve_admissibility(m2r_second_hypothesis())
    result.record(rep3.feasible, f"q=3: feasible (residual {rep3.residual:.3e})")
    if not rep3.feasible:
        return result
    K = rep3.kernel
    worst = _worst_closedness(K, rng, 100)
    result.record(worst <= 1e-12, f"q=3 closedness {worst:.3e}")

    basis = polynomial_solution_basis(K.conditions, 1)
    f = next(g for g in basis if g.degree == 1)
    x = np.array([0.15, -0.1, 0.2, 0.05])
    rep = boundary_reproduce(
        f, x, BallDomain(np.zeros(4), 1.0), K, QuadratureSpec(nodes=24)
    )
    result.record(
        rep.rel_error < 1e-4,
        f"q=3 degree-1 reproduction rel_error {rep.rel_error:.3e} "
        f"({rep.nodes} nodes)",
    )
    return result


def run_suite(name: str, seed: int = 0) -> SuiteResult:
    seed = _as_seed(seed)
    if name == "gallery":
        return run_gallery(seed=seed)
    if name == "dim3":
        return run_dim3(seed=seed)
    if name == "dim2sweep":
        return run_dim2sweep(seed=seed)
    if name == "m2r":
        return run_m2r(seed=seed)
    raise ValueError(f"unknown suite {name!r}; choose from {SUITE_NAMES}")
