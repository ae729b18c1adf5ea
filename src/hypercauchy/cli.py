"""Command-line front end: inspect algebras, solve admissibility, run
reproduction experiments, and execute the batch suites.

Exit codes: 0 success (and feasible for cr-solve), 2 infeasible conditions
or failed suite checks, 1 operational errors (bad input, point outside the
ball, parse failures).  Reports are JSON by default (--format text for a
summary); every JSON payload carries a schema_version field.
"""
from __future__ import annotations

import json
import os
import sys
from functools import cache, partial
from pathlib import Path

import click
import numpy as np

from .admissibility import CRConditionSet, load_conditions, solve_admissibility
from .algebra import is_builtin_name, load_algebra, sum_of_basis_squares
from .families import gallery
from .kernel import CauchyKernel
from .solutions import NAMED_SOLUTIONS, AlgPolynomial, named_solution
from .suites import SUITE_NAMES, run_suite
from .verify import (
    BallDomain,
    PointOutsideDomain,
    QuadratureSpec,
    QuadratureUnderResolved,
    boundary_reproduce,
)

SCHEMA_VERSION = "1"


def _emit(command: str, report: dict, config: dict, out: str | None,
          fmt: str, text_lines: list[str]) -> None:
    if fmt == "json":
        payload = {
            "schema_version": SCHEMA_VERSION,
            "command": command,
            "config": config,
            "report": report,
        }
        rendered = json.dumps(payload, indent=2, sort_keys=True) + "\n"
    else:
        rendered = "\n".join(text_lines) + "\n"
    if out:
        Path(out).write_text(rendered)
    else:
        click.echo(rendered, nl=False)


def _fail(message: str) -> None:
    click.echo(f"error: {message}", err=True)
    sys.exit(1)


def _parse_vector(option: str, text: str, n: int) -> np.ndarray:
    try:
        vec = np.array([float(p) for p in text.split(",")], dtype=float)
    except ValueError:
        _fail(f"could not parse {option} {text!r} as comma-separated reals")
    if vec.shape[0] != n:
        _fail(f"expected {n} components, got {vec.shape[0]} in {option} {text!r}")
    if not np.all(np.isfinite(vec)):
        _fail(f"{option} {text!r} has a non-finite component")
    return vec


def _name_or_file(spec: str, build, load, kind: str, noun: str,
                  missing: str | None = None, chosen: str = "builtin"):
    """Resolve an argument that is a builtin name or a file path.

    build is the builtin's constructor, or None when spec names no builtin.
    A builtin wins over a file of the same name, and the collision warns on
    stderr.  Otherwise load(spec) reads the file; a missing file exits 1
    with `missing` (when given), any other unreadable one with "could not
    load <noun>: <reason>".
    """
    if build is not None:
        if os.path.exists(spec):
            click.echo(f"warning: {spec!r} is both a {kind} and a file; "
                       f"using the {chosen}", err=True)
        return build()
    try:
        return load(spec)
    except FileNotFoundError as exc:
        _fail(missing or f"could not load {noun}: {exc}")
    except (OSError, json.JSONDecodeError, KeyError, ValueError, TypeError) as exc:
        _fail(f"could not load {noun}: {exc}")


# Gallery conditions, their kernels and the named solutions over them never
# change, so each is built once per process; files are read on every request.
# functools.cache keeps no exception, so an infeasible case fails every time.
_GALLERY = {case.name: case for case in gallery()}


@cache
def _gallery_conditions(name: str) -> CRConditionSet:
    return _GALLERY[name].build()


@cache
def _gallery_kernel(name: str) -> CauchyKernel:
    return CauchyKernel.from_conditions(_gallery_conditions(name))


@cache
def _gallery_solution(function: str, conditions: str) -> AlgPolynomial:
    C = _gallery_conditions(conditions)
    return named_solution(function, C.table, C.n)


def _clear_memo() -> None:
    """Forget every memoised gallery object, as in a fresh process."""
    for memo in (_gallery_conditions, _gallery_kernel, _gallery_solution):
        memo.cache_clear()


def _resolve_conditions(spec: str) -> CRConditionSet:
    return _name_or_file(
        spec, partial(_gallery_conditions, spec) if spec in _GALLERY else None,
        load_conditions, "gallery name", f"conditions from {spec!r}",
        missing=f"{spec!r} is neither a gallery case ({', '.join(_GALLERY)}) "
                "nor a readable file",
        chosen="gallery case",
    )


def _resolve_function(spec: str, conditions: str, C: CRConditionSet) -> AlgPolynomial:
    def load(path: str) -> AlgPolynomial:
        data = json.loads(Path(path).read_text())
        return AlgPolynomial(C.table, data["exponents"], data["coeffs"])

    if spec not in NAMED_SOLUTIONS:
        build = None
    elif conditions in _GALLERY:
        build = partial(_gallery_solution, spec, conditions)
    else:
        build = partial(named_solution, spec, C.table, C.n)
    return _name_or_file(
        spec, build, load, "builtin function", f"polynomial from {spec!r}",
        missing=f"{spec!r} is neither a builtin function "
                f"({', '.join(NAMED_SOLUTIONS)}) nor a readable file",
    )


@click.group()
@click.version_option(package_name="hypercauchy", prog_name="hypercauchy")
def main() -> None:
    """Decide admissibility of Cauchy-type conditions on finite-dimensional
    real algebras, build the associated kernels, and verify reproduction."""


@main.command()
@click.argument("algebra")
@click.option("--out", type=click.Path(dir_okay=False), default=None,
              help="Write the report to a file instead of stdout.")
@click.option("--format", "fmt", type=click.Choice(["json", "text"]),
              default="json", show_default=True)
def inspect(algebra: str, out: str | None, fmt: str) -> None:
    """Structural report for a builtin algebra name or a JSON table file."""
    noun = f"algebra {algebra!r}"
    build = (lambda: load_algebra(algebra)) if is_builtin_name(algebra) else None
    try:
        table = _name_or_file(algebra, build, load_algebra, "builtin algebra", noun)
    except (KeyError, ValueError) as exc:  # builtin parameters, e.g. dim2(1)
        _fail(f"could not load {noun}: {exc}")
    squares = sum_of_basis_squares(table)
    assoc_viol = table.associativity_violation
    report = {
        "algebra": algebra,
        "dim": table.dim,
        "unit_ok": bool(table.unital_validated),
        "associativity_violation": assoc_viol,
        "associative": bool(table.associative),
        "commutative": bool(table.commutative),
        "sum_basis_squares": squares.coeffs.tolist(),
        "sum_basis_squares_zero": bool(squares.is_zero()),
    }
    text = [
        f"algebra: {algebra}",
        f"dim: {table.dim}",
        f"unit_ok: {report['unit_ok']}",
        f"associativity_violation: {assoc_viol:.3e}",
        f"associative: {report['associative']}",
        f"commutative: {report['commutative']}",
        f"sum of squared basis elements: {squares.coeffs.tolist()}"
        f" (zero: {report['sum_basis_squares_zero']})",
    ]
    _emit("inspect", report, {"algebra": algebra}, out, fmt, text)


@main.command(name="cr-solve")
@click.argument("conditions")
@click.option("--tol", type=float, default=1e-9, show_default=True,
              help="Feasibility threshold on the normalized residual.")
@click.option("--out", type=click.Path(dir_okay=False), default=None)
@click.option("--format", "fmt", type=click.Choice(["json", "text"]),
              default="json", show_default=True)
def cr_solve(conditions: str, tol: float, out: str | None, fmt: str) -> None:
    """Solve the admissibility system for a gallery case or conditions file.

    Exit code 0 when feasible, 2 when infeasible, 1 on errors.
    """
    if not tol > 0:
        _fail("--tol must be positive")
    C = _resolve_conditions(conditions)
    try:
        report = solve_admissibility(C, tol=tol)
    except Exception as exc:
        _fail(f"admissibility solve failed: {exc}")
    payload = report.to_dict()
    text = [
        f"conditions: {conditions} (n={C.n}, q={C.q}, dim={C.table.dim})",
        f"feasible: {report.feasible}",
        f"residual: {report.residual:.6e}",
        f"free_dim: {report.free_dim}",
    ]
    if report.feasible:
        text.append(f"b: {payload['b']}")
        text.append(f"c: {payload['c']}")
    _emit("cr-solve", payload, {"conditions": conditions, "tol": tol},
          out, fmt, text)
    sys.exit(0 if report.feasible else 2)


@main.command()
@click.argument("conditions")
@click.option("--function", "-f", "function_spec", required=True,
              help="Builtin function name or polynomial JSON file.")
@click.option("--point", required=True,
              help="Comma-separated evaluation point inside the ball.")
@click.option("--center", default=None,
              help="Ball center (comma-separated); default origin.")
@click.option("--radius", type=float, default=1.0, show_default=True)
@click.option("--nodes", type=int, default=32, show_default=True,
              help="Gauss nodes per angle; only the polar angle above n = 4.")
@click.option("--tol", type=float, default=None,
              help="Target error; raises an error when the half-resolution "
                   "estimate exceeds it.")
@click.option("--out", type=click.Path(dir_okay=False), default=None)
@click.option("--format", "fmt", type=click.Choice(["json", "text"]),
              default="json", show_default=True)
def reproduce(conditions: str, function_spec: str, point: str,
              center: str | None, radius: float, nodes: int,
              tol: float | None, out: str | None, fmt: str) -> None:
    """Reproduce a solution from its boundary values through the kernel."""
    if tol is not None and not tol > 0:
        _fail("--tol must be positive")
    C = _resolve_conditions(conditions)
    try:
        kernel = (_gallery_kernel(conditions) if conditions in _GALLERY
                  else CauchyKernel.from_conditions(C))
    except ValueError as exc:
        _fail(str(exc))
    x = _parse_vector("--point", point, C.n)
    c = np.zeros(C.n) if center is None else _parse_vector("--center", center, C.n)
    try:
        f = _resolve_function(function_spec, conditions, C)
        domain = BallDomain(c, radius)
        spec = QuadratureSpec(nodes=nodes)
        report = boundary_reproduce(f, x, domain, kernel, spec,
                                    target_error=tol)
    except (PointOutsideDomain, QuadratureUnderResolved, ValueError) as exc:
        _fail(str(exc))
    payload = report.to_dict()
    config = {
        "conditions": conditions,
        "function": function_spec,
        "point": x.tolist(),
        "center": c.tolist(),
        "radius": radius,
        "nodes": nodes,
    }
    text = [
        f"reproduce {function_spec} through {conditions} kernel",
        f"computed: {payload['computed']}",
        f"expected: {payload['expected']}",
        f"abs_error: {report.abs_error:.6e}",
        f"rel_error: {report.rel_error:.6e}",
        f"nodes: {report.nodes}",
    ]
    _emit("reproduce", payload, config, out, fmt, text)


@main.command()
@click.argument("name", type=click.Choice(SUITE_NAMES))
@click.option("--seed", type=int, default=0, show_default=True)
@click.option("--out", type=click.Path(dir_okay=False), default=None)
@click.option("--format", "fmt", type=click.Choice(["json", "text"]),
              default="json", show_default=True)
def suite(name: str, seed: int, out: str | None, fmt: str) -> None:
    """Run a batch suite; exit code 2 when any check fails."""
    try:
        result = run_suite(name, seed=seed)
    except ValueError as exc:
        _fail(str(exc))
    text = list(result.lines)
    text.append(f"suite {name}: {'PASS' if result.passed else 'FAIL'}")
    _emit("suite", result.to_dict(), {"suite": name, "seed": seed},
          out, fmt, text)
    sys.exit(0 if result.passed else 2)


if __name__ == "__main__":
    main()
