"""The three request streams of the benchmark.

Inputs come from the seed alone and are made here with numpy before any
timing; the program only ever sees them as CLI arguments, condition files or
arrays.  Each stream is a pool of requests that the worker repeats in order,
pass after pass, so every run of one seed sends the same requests.

Every request ends in one of four classes:

- ok: the program answered and the answer is within its bound;
- refused: the program declined honestly (``QuadratureUnderResolved``,
  exit code 1 from ``reproduce --tol``);
- wrong: the program answered with success but outside the bound, or gave
  another verdict or exit code than the one known in advance;
- errored: the program raised or exited 1 for any other reason.
"""
from __future__ import annotations

import itertools
import json
import math
from pathlib import Path

import numpy as np

OK, REFUSED, WRONG, ERRORED = "ok", "refused", "wrong", "errored"
CLASSES = (OK, REFUSED, WRONG, ERRORED)

# Accuracy bounds, one per request kind; README.md lists the worst error
# measured under each.  REPRESENT_BOUND and DERIVATIVE_BOUND apply to the
# error against the exact polynomial value divided by the Euclidean norm of
# the polynomial's coefficients: the quadrature error is linear in f, so this
# ratio depends on the point and the rule, not on the size of f.
REPRODUCE_TOL = 1e-4
REPRESENT_BOUND = 1e-2
DERIVATIVE_BOUND = 1e-1
COUPLING_BOUND = 1e-8  # c[i,i] = e_0/n and c[j,i] = -c[i,j] for a feasible kernel

# Requests with identical cost make the median latency a step function of the
# share of a run the machine spends in its slow state; spreading the cost
# over these node counts (mean cost about that of 32) keeps the median as
# steady as the mean.  The counts cycle, so every seed has the same mix.
# Ten rules in all, partners included.
REPRODUCE_NODES = (28, 30, 32, 34, 36)
QUAD_NODES = (11, 12, 13)  # per request, for the same reason as REPRODUCE_NODES
FUETER_BASIS_DIM = 80  # H-valued Fueter-regular polynomials of degree <= 3

GALLERY_VERDICTS = {
    "dbar": True, "fueter": True, "adiff_complex": True,
    "adiff_tessarine": True, "adiff_split": False, "adiff_dual": False,
    "adiff_clifford23": True, "m2r_q1": False, "m2r_q3": True,
    "octonion_single": True, "sedenion_single": True,
    "tessarine_q1_random": False, "fueter_induced2": True,
    "dbar_induced2": True,
}
# builtin algebra -> (dim, associative, commutative)
BUILTIN_FACTS = {
    "reals": (1, True, True), "complex": (2, True, True),
    "quaternion": (4, True, False), "tessarine": (4, True, True),
    "m2r": (4, True, False), "octonion": (8, False, False),
    "sedenion": (16, False, False), "clifford(2,3)": (4, True, False),
}
SUITES = ("gallery", "dim3", "dim2sweep", "m2r")


# -- input generation (numpy only) ---------------------------------------------


def _in_ball(rng, n: int, lo: float, hi: float) -> np.ndarray:
    """Uniform in volume over the shell lo <= |x| < hi of R^n."""
    d = rng.standard_normal(n)
    d /= np.linalg.norm(d)
    return d * rng.uniform(lo ** n, hi ** n) ** (1.0 / n)


def _vector_arg(x) -> str:
    return ",".join(repr(float(v)) for v in x)


def monomials(n: int, degree: int) -> list[tuple[int, ...]]:
    return [e for e in itertools.product(range(degree + 1), repeat=n)
            if sum(e) <= degree]


def _left_mult(gamma: np.ndarray, v: np.ndarray) -> np.ndarray:
    return np.tensordot(v, gamma, axes=(0, 0)).T


def _invertible(rng, gamma: np.ndarray) -> np.ndarray:
    while True:
        v = rng.standard_normal(gamma.shape[0])
        if abs(np.linalg.det(_left_mult(gamma, v))) > 0.1:
            return v


def _dim3_associative(rng, commutative: bool) -> np.ndarray:
    """Structure constants of a unital associative dimension-3 algebra.

    Commutative: R[T] for a random companion matrix T.  Non-commutative: the
    upper-triangular 2x2 matrices.  Both are taken in a random basis that
    keeps e_0 the unit.
    """
    if commutative:
        c = rng.uniform(-2.0, 2.0, 3)
        T = np.array([[0.0, 0.0, c[0]], [1.0, 0.0, c[1]], [0.0, 1.0, c[2]]])
        base = [np.eye(3), T, T @ T]
    else:
        E11 = np.array([[1.0, 0.0], [0.0, 0.0]])
        E12 = np.array([[0.0, 1.0], [0.0, 0.0]])
        E22 = np.array([[0.0, 0.0], [0.0, 1.0]])
        base = [E11 + E22, E12, E22]
    while True:
        R = rng.uniform(-1.5, 1.5, (2, 3))
        if abs(np.linalg.det(R[:, 1:])) > 0.3:
            break
    B = [base[0]] + [sum(R[r, k] * base[k] for k in range(3)) for r in range(2)]
    M = np.stack([b.ravel() for b in B], axis=1)
    gamma = np.zeros((3, 3, 3))
    for i in range(3):
        for j in range(3):
            gamma[i, j] = np.linalg.lstsq(M, (B[i] @ B[j]).ravel(), rcond=None)[0]
    return gamma


def _dim2_request(rng) -> tuple[dict, bool]:
    """A condition on dim2(a, b), feasible exactly when b^2 + 4a < 0."""
    while True:
        a, b = (float(v) for v in rng.uniform(-3.0, 3.0, 2))
        disc = b * b + 4.0 * a
        if abs(disc) >= 0.05:
            break
    if disc < 0:
        # (e_0, w) with w^2 = -e_0, where e_1^2 = a e_0 + b e_1
        w1 = 1.0 / math.sqrt(-(a + b * b / 4.0))
        coeffs = [[1.0, 0.0], [-(b / 2.0) * w1, w1]]
    else:
        gamma = np.zeros((2, 2, 2))
        gamma[0] = np.eye(2)
        gamma[:, 0] = np.eye(2)
        gamma[1, 1] = [a, b]
        coeffs = [_invertible(rng, gamma).tolist() for _ in range(2)]
    return {"algebra": f"dim2({a!r},{b!r})", "n": 2, "q": 1, "a": [coeffs]}, disc < 0


def gen_reproduce_fueter(rng, workdir: Path, seed: int) -> list[dict]:
    """128 points: 7 of 8 in the radius-0.5 ball, every 8th in 0.9 <= |x| < 0.99."""
    reqs = []
    for k in range(128):
        x = _in_ball(rng, 4, 0.9, 0.99) if k % 8 == 7 else _in_ball(rng, 4, 0.0, 0.5)
        nodes = REPRODUCE_NODES[k % len(REPRODUCE_NODES)]
        args = ["reproduce", "fueter", "-f", "zeta1",
                "--nodes", str(nodes), "--tol", repr(REPRODUCE_TOL),
                "--point", _vector_arg(x)]
        reqs.append({"kind": "reproduce", "args": args, "point": x.tolist()})
    return reqs


def gen_represent_derive(rng, workdir: Path, seed: int) -> list[dict]:
    """8 groups of three derivative requests and one representation request."""
    layout = monomials(4, 3)
    reqs = []
    for g in range(8):
        for k in range(3):
            reqs.append({
                "kind": "derivative",
                "weights": rng.standard_normal(FUETER_BASIS_DIM).tolist(),
                "point": _in_ball(rng, 4, 0.0, 0.5).tolist(),
                "direction": (3 * g + k) % 4,
                "nodes": QUAD_NODES[k],
            })
        reqs.append({
            "kind": "representation",
            "exponents": [list(e) for e in layout],
            "coeffs": rng.standard_normal((len(layout), 4)).tolist(),
            "point": _in_ball(rng, 4, 0.0, 0.5).tolist(),
            "nodes": QUAD_NODES[g % len(QUAD_NODES)],
        })
    return reqs


def gen_decide_cli(rng, workdir: Path, seed: int) -> list[dict]:
    """Gallery solves, 100 dim-3 and 60 dim-2 condition files, inspect on the
    builtins and one run of each suite, shuffled once."""
    reqs = [{"kind": "cr-solve", "args": ["cr-solve", name],
             "expect_exit": 0 if feasible else 2}
            for name, feasible in GALLERY_VERDICTS.items()]
    files = []
    for k in range(100):
        gamma = _dim3_associative(rng, commutative=(k % 2 == 0))
        a = [_invertible(rng, gamma).tolist() for _ in range(3)]
        files.append(({"algebra": {"dim": 3, "gamma": gamma.tolist()},
                       "n": 3, "q": 1, "a": [a]}, False))
    files.extend(_dim2_request(rng) for _ in range(60))
    for k, (data, feasible) in enumerate(files):
        path = workdir / f"cond_{k:03d}.json"
        path.write_text(json.dumps(data))
        reqs.append({"kind": "cr-solve", "args": ["cr-solve", str(path)],
                     "expect_exit": 0 if feasible else 2})
    for name, facts in BUILTIN_FACTS.items():
        reqs.append({"kind": "inspect", "args": ["inspect", name],
                     "expect_exit": 0, "facts": list(facts)})
    for name in SUITES:
        reqs.append({"kind": "suite", "args": ["suite", name, "--seed", str(seed)],
                     "expect_exit": 0})
    order = rng.permutation(len(reqs))
    return [reqs[i] for i in order]


# A run may stop after any whole group of this many requests, which keeps the
# mix exact (one shell point in 8; three derivatives to one representation).
# decide_cli stops only after whole passes, since its heavy requests are rare.
MIX_UNIT = {"reproduce_fueter": 8, "represent_derive": 4, "decide_cli": None}

GENERATORS = {
    "reproduce_fueter": gen_reproduce_fueter,
    "represent_derive": gen_represent_derive,
    "decide_cli": gen_decide_cli,
}


def generate(workload: str, seed: int, workdir: Path) -> list[dict]:
    rng = np.random.default_rng([seed, list(GENERATORS).index(workload)])
    return GENERATORS[workload](rng, workdir, seed)


# -- exact values and checks (numpy only) --------------------------------------


def poly_value(exponents, coeffs, x) -> np.ndarray:
    exps = np.asarray(exponents, dtype=int)
    mono = np.prod(np.asarray(x, dtype=float)[None, :] ** exps, axis=1)
    return mono @ np.asarray(coeffs, dtype=float)


def poly_partial(exponents, coeffs, x, i: int) -> np.ndarray:
    exps = np.array(exponents, dtype=int)
    scale = exps[:, i].astype(float)
    exps[:, i] = np.maximum(exps[:, i] - 1, 0)
    return poly_value(exps, np.asarray(coeffs, dtype=float) * scale[:, None], x)


def classify_value(error: float, bound: float) -> str:
    """ok within the bound; wrong outside it or when the error is not finite."""
    return OK if math.isfinite(error) and error <= bound else WRONG


def classify_exception(exc: BaseException) -> str:
    """An honest under-resolution is a refusal; anything else is an error."""
    return REFUSED if type(exc).__name__ == "QuadratureUnderResolved" else ERRORED


def check_reproduce(req: dict, exit_code: int, stdout: str, stderr: str):
    """Exit 0 with rel_error <= --tol against zeta1(x) = x_1 e_0 - x_0 e_1."""
    if exit_code == 1 and "exceeds target" in stderr:
        return REFUSED, None
    if exit_code != 0:
        return ERRORED, None
    x = req["point"]
    exact = np.array([x[1], -x[0], 0.0, 0.0])
    computed = np.array(json.loads(stdout)["report"]["computed"], dtype=float)
    err = float(np.linalg.norm(computed - exact) / np.linalg.norm(exact))
    return classify_value(err, REPRODUCE_TOL), err


def coupling_defect(c) -> float:
    """Largest deviation of c from diag e_0/n and off-diagonal antisymmetry."""
    c = np.asarray(c, dtype=float)
    n, dim = c.shape[0], c.shape[2]
    idx = np.arange(n)
    e0 = np.zeros(dim)
    e0[0] = 1.0 / n
    sym = c + c.transpose(1, 0, 2)
    sym[idx, idx] = 0.0
    return float(max(np.max(np.abs(c[idx, idx] - e0)), np.max(np.abs(sym))))


def check_verdict(req: dict, exit_code: int, stdout: str, stderr: str):
    """The exit code and the verdict in the report must be the ones expected."""
    expect = req["expect_exit"]
    if exit_code == 1:
        return ERRORED, None
    if exit_code != expect:
        return WRONG, None
    report = json.loads(stdout)["report"]
    kind = req["kind"]
    if kind == "cr-solve":
        if report["feasible"] != (expect == 0):
            return WRONG, None
        if expect == 0:
            defect = coupling_defect(report["c"])
            return classify_value(defect, COUPLING_BOUND), defect
        return OK, None
    if kind == "inspect":
        dim, assoc, comm = req["facts"]
        facts_ok = (report["dim"] == dim and report["associative"] == assoc
                    and report["commutative"] == comm and report["unit_ok"])
        return (OK if facts_ok else WRONG), None
    return (OK if report["passed"] else WRONG), None
