"""Tests of the benchmark itself; not part of the repository's test suite.

    python3 -m pytest -q perfbench/test_perfbench.py

A short run of every workload must pass all its checks, and the checks
must reject a bundle whose data is off by one part in a million.
"""

import dataclasses
import json
import os
import subprocess
import sys

os.environ.setdefault("OPENBLAS_NUM_THREADS", "1")

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path[:0] = [HERE, os.path.join(ROOT, "src")]

import numpy as np  # noqa: E402
import pytest  # noqa: E402

import workloads  # noqa: E402
from checks import Checker, Instance  # noqa: E402
from zpreal import realization as zr  # noqa: E402
from zpreal.synthesis import random_instance  # noqa: E402
from zpreal.zero_pole import ZeroPoleData  # noqa: E402


def _run(workload, seed, trace):
    proc = subprocess.run(
        [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", "0.1", "--trace", str(trace)],
        capture_output=True, text=True, cwd=ROOT, timeout=170)
    assert proc.returncode == 0, proc.stderr[-3000:]
    return json.loads(proc.stdout.strip().splitlines()[-1])


def _spec():
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        return json.load(fh)


@pytest.mark.parametrize("workload", sorted(workloads.WORKLOADS))
def test_short_run_passes_every_check(workload):
    result = _run(workload, 7, 0)
    assert result["correct"] is True
    assert result["attempted"] >= 100
    names = {m["name"] for m in _spec()["end_to_end"]}
    assert set(result["metrics"]) == names
    assert all(m["value"] > 0 for m in result["metrics"].values())


def test_failed_share_does_not_depend_on_the_seed():
    a, b = _run("split", 3, 0), _run("split", 4, 0)
    assert a["failed"] * b["attempted"] == b["failed"] * a["attempted"]
    assert a["failed"] > 0


def test_traced_run_reports_every_layer_metric():
    result = _run("split", 7, 1)
    assert result["correct"] is True
    names = {m["name"] for m in _spec()["per_layer"]}
    assert set(result["metrics"]) == names
    m = {k: v["value"] for k, v in result["metrics"].items()}
    # 40 sample points, four evaluator calls each
    assert m["factorization.factorize.eval_calls"] == 160
    assert m["realization.eval.calls"] > 0


def _perturbed(bundle):
    """The same bundle with one entry of G_N scaled by 1 + 1e-6."""
    d = bundle.data
    g_n = d.G_N.copy()
    g_n[0, 0] *= 1 + 1e-6
    data = ZeroPoleData(poles=d.poles, zeros=d.zeros, F_P=d.F_P, G_P=d.G_P,
                        F_N=d.F_N, G_N=g_n)
    return dataclasses.replace(bundle, data=data)


@pytest.fixture
def bundle():
    return random_instance(4, 8, 11)


def test_construct_checks_reject_perturbed_bundle(bundle):
    pts = [3.0 + 0.5j, -2.5 + 1j, 0.1 - 3j]
    good, bad = Checker(), Checker()
    workloads._check_bundle("ok", pts, bundle, good)
    workloads._check_bundle("perturbed", pts, _perturbed(bundle), bad)
    assert good.ok, good.failures
    assert not bad.ok
    assert good.digits() > bad.digits()


def test_evaluator_checks_reject_perturbed_bundle(bundle):
    inst = Instance.of(bundle.data)
    pts = workloads.clear_points(np.random.default_rng(5), 6,
                                 np.concatenate([inst.poles, inst.zeros]))
    for b, expect_ok in ((bundle, True), (_perturbed(bundle), False)):
        checker = Checker()
        got = np.array([zr.eval_R(b, z) for z in pts])
        # judge against the bundle's own (possibly perturbed) data
        checker.one_point("eval_R", Instance.of(b.data), "R", pts, got,
                          inst.cond_Sr())
        assert checker.ok is expect_ok, checker.failures
