"""Tests of the benchmark's own rules: the percentile rule, the failure
classifier, seeded input generation and the tracer, including targets that
the program no longer has.

    python3 -m pytest perfbench -q
"""
from __future__ import annotations

import json
import sys
import time
import types

import numpy as np
import pytest

import workloads as W
from run import percentile, samples_beyond
from tracer import Target, Tracer, lookup


# -- percentile rule -----------------------------------------------------------


def test_nearest_rank_percentile():
    values = list(range(100, 0, -1))  # 1..100, unsorted
    assert percentile(values, 50) == 50
    assert percentile(values, 90) == 90
    assert percentile([7.0], 90) == 7.0
    assert percentile([1, 2, 3], 50) == 2
    with pytest.raises(ValueError):
        percentile([], 50)


def test_p90_needs_one_hundred_samples_for_ten_beyond():
    assert samples_beyond(100, 90) == 10
    assert samples_beyond(99, 90) == 9
    assert samples_beyond(250, 90) == 25
    values = list(range(1, 101))
    p90 = percentile(values, 90)
    assert sum(v > p90 for v in values) == samples_beyond(100, 90)


# -- failure classifier --------------------------------------------------------


class QuadratureUnderResolved(Exception):
    pass


def _reproduce_stdout(computed) -> str:
    return json.dumps({"report": {"computed": list(computed)}})


def test_classify_value_and_exception():
    assert W.classify_value(1e-5, 1e-4) == W.OK
    assert W.classify_value(1e-3, 1e-4) == W.WRONG
    assert W.classify_value(float("nan"), 1e-4) == W.WRONG
    assert W.classify_exception(QuadratureUnderResolved("estimate")) == W.REFUSED
    assert W.classify_exception(ValueError("bad")) == W.ERRORED


def test_check_reproduce_classes():
    req = {"point": [0.1, 0.2, 0.0, 0.0]}
    exact = [0.2, -0.1, 0.0, 0.0]
    assert W.check_reproduce(req, 0, _reproduce_stdout(exact), "")[0] == W.OK
    off = [0.2, -0.1, 1e-3, 0.0]
    cls, err = W.check_reproduce(req, 0, _reproduce_stdout(off), "")
    assert cls == W.WRONG and err > W.REPRODUCE_TOL
    refused = "error: error estimate 1.1e-01 exceeds target 1.0e-04\n"
    assert W.check_reproduce(req, 1, "", refused)[0] == W.REFUSED
    assert W.check_reproduce(req, 1, "", "error: point outside\n")[0] == W.ERRORED


def _solve_stdout(feasible: bool, c=None) -> str:
    return json.dumps({"report": {"feasible": feasible, "c": c}})


def test_check_verdict_classes():
    good_c = np.zeros((2, 2, 2))
    good_c[0, 0, 0] = good_c[1, 1, 0] = 0.5
    good_c[0, 1, 1], good_c[1, 0, 1] = 0.3, -0.3
    feasible = {"kind": "cr-solve", "expect_exit": 0}
    infeasible = {"kind": "cr-solve", "expect_exit": 2}
    assert W.check_verdict(feasible, 0, _solve_stdout(True, good_c.tolist()), "")[0] == W.OK
    bad_c = good_c.copy()
    bad_c[1, 0, 1] = 0.3  # symmetric off the diagonal
    assert W.check_verdict(feasible, 0, _solve_stdout(True, bad_c.tolist()), "")[0] == W.WRONG
    assert W.check_verdict(infeasible, 0, _solve_stdout(True, good_c.tolist()), "")[0] == W.WRONG
    assert W.check_verdict(infeasible, 2, _solve_stdout(False), "")[0] == W.OK
    assert W.check_verdict(infeasible, 1, "", "error: failed")[0] == W.ERRORED
    suite = {"kind": "suite", "expect_exit": 0}
    assert W.check_verdict(suite, 0, json.dumps({"report": {"passed": True}}), "")[0] == W.OK
    inspect = {"kind": "inspect", "expect_exit": 0, "facts": [8, False, False]}
    facts = {"dim": 8, "associative": True, "commutative": False, "unit_ok": True}
    assert W.check_verdict(inspect, 0, json.dumps({"report": facts}), "")[0] == W.WRONG


# -- seeded inputs -------------------------------------------------------------


@pytest.mark.parametrize("workload", ["reproduce_fueter", "represent_derive", "decide_cli"])
def test_same_seed_same_inputs(workload, tmp_path):
    for name in "abc":
        (tmp_path / name).mkdir()
    first = W.generate(workload, 3, tmp_path / "a")
    second = W.generate(workload, 3, tmp_path / "b")
    strip = lambda reqs: json.dumps(reqs).replace(str(tmp_path / "a"), "").replace(
        str(tmp_path / "b"), "")
    assert strip(first) == strip(second)
    assert strip(first) != strip(W.generate(workload, 4, tmp_path / "c"))


def test_reproduce_points_follow_the_mix(tmp_path):
    radii = [np.linalg.norm(r["point"]) for r in W.generate("reproduce_fueter", 5, tmp_path)]
    for k, r in enumerate(radii):
        assert (0.9 <= r < 0.99) if k % 8 == 7 else (r < 0.5)


def test_generated_dim3_tables_are_unital_and_associative():
    rng = np.random.default_rng(0)
    for k in range(20):
        g = W._dim3_associative(rng, commutative=(k % 2 == 0))
        assert np.allclose(g[0], np.eye(3)) and np.allclose(g[:, 0], np.eye(3))
        lhs = np.einsum("ijs,skt->ijkt", g, g)
        rhs = np.einsum("jks,ist->ijkt", g, g)
        assert np.max(np.abs(lhs - rhs)) < 1e-9
        assert np.allclose(g, g.transpose(1, 0, 2)) == (k % 2 == 0)


def test_generated_dim2_feasible_conditions_use_a_root_of_minus_one():
    rng = np.random.default_rng(1)
    for _ in range(50):
        data, feasible = W._dim2_request(rng)
        a, b = (float(t) for t in data["algebra"][5:-1].split(","))
        assert feasible == (b * b + 4 * a < 0)
        if feasible:
            w = np.array(data["a"][0][1])
            # (w0 + w1 e1)^2 with e1^2 = a + b e1
            square = np.array([w[0] ** 2 + a * w[1] ** 2, 2 * w[0] * w[1] + b * w[1] ** 2])
            assert np.allclose(square, [-1.0, 0.0])


def test_polynomial_helpers():
    exps = [(0, 0), (1, 0), (2, 1)]
    coeffs = [[1.0, 0.0], [0.0, 2.0], [3.0, 0.0]]
    x = [0.5, 2.0]
    assert np.allclose(W.poly_value(exps, coeffs, x), [1.0 + 3.0 * 0.25 * 2.0, 1.0])
    assert np.allclose(W.poly_partial(exps, coeffs, x, 0), [3.0 * 2 * 0.5 * 2.0, 2.0])
    assert np.allclose(W.poly_partial(exps, coeffs, x, 1), [3.0 * 0.25, 0.0])


# -- tracer ----------------------------------------------------------------------


@pytest.fixture
def fake_package(monkeypatch):
    """fakepkg.alpha defines work() and Box; fakepkg.beta imports work by name."""
    pkg = types.ModuleType("fakepkg")
    alpha = types.ModuleType("fakepkg.alpha")
    beta = types.ModuleType("fakepkg.beta")

    def work(n):
        time.sleep(0.002)
        return list(range(n))

    class Box:
        @classmethod
        def build(cls, n):
            return beta.work(n)

        def tiny(self):
            return 1

    alpha.work, alpha.Box = work, Box
    beta.work = work
    for mod in (pkg, alpha, beta):
        monkeypatch.setitem(sys.modules, mod.__name__, mod)
    return alpha, beta


def test_tracer_patches_every_namespace_and_reports_missing_targets(fake_package):
    alpha, beta = fake_package
    tracer = Tracer(package="fakepkg")
    tracer.install([
        Target("alpha", "work"),
        Target("alpha", "Box.build"),
        Target("alpha", "Box.tiny", span=False),
        Target("alpha", "gone"),  # deleted function
        Target("alpha", "Box.renamed"),  # renamed method
        Target("_removed", "anything"),  # deleted module
    ])
    assert tracer.absent == ["alpha.gone", "alpha.Box.renamed", "removed.anything"]
    assert beta.work is alpha.work

    alpha.work(1)  # set-up call, not counted per request
    for rid in range(2):
        with tracer.request(rid):
            alpha.Box.build(3)
            alpha.Box().tiny()
            alpha.Box().tiny()
    summary = tracer.summary(requests=2)
    assert lookup(summary, "alpha.work.calls_per_req") == 1.0
    assert lookup(summary, "alpha.Box.tiny.calls_per_req") == 2.0
    assert lookup(summary, "alpha.work.ms") >= 2.0
    build = summary["alpha.Box.build"]
    work = summary["alpha.work"]
    assert build["ms_per_req"] >= work["ms_per_req"] >= 2.0
    assert build["self_ms_per_req"] == pytest.approx(
        build["ms_per_req"] - work["ms_per_req"], abs=1e-9)
    assert summary["request"]["pct"] == pytest.approx(100.0)
    assert 0.0 < work["pct"] < build["pct"] <= 100.0
    for missing in ("alpha.gone.pct", "alpha.Box.renamed.calls_per_req",
                    "removed.anything.self_pct"):
        assert lookup(summary, missing) == 0.0


def test_tracer_counts_work_units(fake_package, tmp_path):
    alpha, _ = fake_package
    tracer = Tracer(package="fakepkg")
    tracer.install([Target("alpha", "work", work=lambda args, out: len(out),
                           work_unit="items")])
    with tracer.request(0):
        alpha.work(4)
        alpha.work(6)
    assert lookup(tracer.summary(1), "alpha.work.items_per_req") == 10.0
    path = tmp_path / "spans.jsonl"
    tracer.write(path)
    names = [json.loads(line)[3] for line in path.read_text().splitlines()]
    assert names == ["request", "alpha.work", "alpha.work"]
