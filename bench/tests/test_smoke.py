"""Smoke tests of the benchmark: each workload sets up, one operation of
every type passes its check (or misses as its named fault), and every check
rejects a perturbed output.

    python3 -m pytest -q bench/tests
"""

import copy
import dataclasses
import itertools
import json
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest

ROOT = Path(__file__).resolve().parents[2]
sys.path[:0] = [str(ROOT / "src"), str(ROOT / "bench")]

from tfbench import certify, core, errfn, theta  # noqa: E402


def one_of_each(workload, round_index=0):
    seen = {}
    for op in workload.round_ops(round_index):
        seen.setdefault(op.kind, op)
    return [core.run_op(op) for op in seen.values()]


def perturbed(rec, result):
    return core.Record(rec.op, rec.seconds, result=result)


@pytest.fixture(scope="module")
def errfn_records():
    w = errfn.Workload()
    w.setup(3)
    return w, one_of_each(w)


@pytest.fixture(scope="module")
def theta_records():
    w = theta.Workload()
    w.setup(3)
    return w, one_of_each(w)


@pytest.fixture(scope="module")
def certify_records():
    w = certify.Workload()
    w.setup(3)
    return w, one_of_each(w) + one_of_each(w, 1)


def test_errfn_passes_except_named_fault(errfn_records):
    w, recs = errfn_records
    for rec in recs:
        v = w.check(rec)
        if rec.op.kind == "kernel_phi_hat.r2.small":
            assert not v.ok and v.fault == "phi_hat_cancellation"
        else:
            assert v.ok, (rec.op.kind, v.reason)


def test_errfn_checks_reject_perturbed(errfn_records):
    w, recs = errfn_records
    for rec in recs:
        if rec.op.kind.startswith("eval_"):
            kind, r, idx = rec.op.data
            E, tol_E, M, tol_M = w._errfn_ref(r, idx)
            tol = (tol_E if kind == "E" else tol_M) + rec.result.est_error
            bad = dataclasses.replace(rec.result, value=rec.result.value + 2 * tol)
        elif rec.op.kind == "kernel_phi_hat.r2":
            bad = rec.result * (1 + 1e-8)
        else:
            continue
        v = w.check(perturbed(rec, bad))
        assert not v.ok and v.fault is None, rec.op.kind


def test_errfn_rejects_monte_carlo_route(errfn_records):
    w, recs = errfn_records
    rec = next(r for r in recs if r.op.kind == "eval_E.r3")
    bad = dataclasses.replace(rec.result, est_error=1e-4)
    assert not w.check(perturbed(rec, bad)).ok


THETA_FAULTS = {"eval_theta.a4": "a4_budget",
                "eval_theta.r1.completed": "completed_r1_cancellation"}


def test_theta_passes_except_named_faults(theta_records):
    w, recs = theta_records
    for rec in recs:
        v = w.check(rec)
        if rec.op.kind in THETA_FAULTS:
            assert not v.ok and v.fault == THETA_FAULTS[rec.op.kind]
        else:
            assert v.ok, (rec.op.kind, v.reason)


def test_theta_completed_faults_all_miss(theta_records):
    """Every fixed completed input misses, so the fault's share is fixed."""
    w, _ = theta_records
    recs = [core.run_op(op) for op in w.round_ops(1) if op.kind == "eval_theta.r1.completed"]
    assert len(recs) == len(theta.COMPLETED_FAULTS)
    for rec in recs:
        v = w.check(rec)
        assert not v.ok and v.fault == "completed_r1_cancellation"


def test_theta_a2_box_sum_rejects_wrong_kernel(theta_records):
    """The A2 check sums the series itself: a value with one support point
    left out, a change the elliptic law cannot see, is rejected."""
    w, recs = theta_records
    rec = next(r for r in recs if r.op.kind == "eval_theta.r2.a2")
    _, tau, b, c, _ = rec.op.data
    A = np.array(theta.A2_FORM, dtype=float)
    C, Cp = np.array(theta.A2_C).T.tolist(), np.array(theta.A2_CP).T.tolist()
    box = itertools.product(range(-2, 3), repeat=4)
    support = [np.array(k) + b for k in box if theta.ref.support_sign(theta.A2_FORM, C, Cp, k)]
    y = max(support, key=lambda y: y @ A @ y)  # the largest term
    term = np.exp(-1j * np.pi * tau * (y @ A @ y) + 2j * np.pi * ((y - b / 2.0) @ (A @ c)))
    assert abs(term) > 1e-6
    bad = dataclasses.replace(rec.result, value=rec.result.value - term)
    v = w.check(perturbed(rec, bad))
    assert not v.ok and "numpy sum" in v.reason


def test_theta_checks_reject_perturbed(theta_records):
    w, recs = theta_records
    for rec in recs:
        out = rec.result
        if rec.op.kind in THETA_FAULTS:
            continue
        if rec.op.kind.startswith("eval_theta.r"):
            bad = dataclasses.replace(out, value=out.value + 1e-7)  # above any claimed tail
        elif rec.op.kind.startswith("q_expansion"):
            terms = list(out.terms)
            terms[3] = dataclasses.replace(terms[3], coefficient=terms[3].coefficient + 1)
            bad = dataclasses.replace(out, terms=tuple(terms))
        else:
            continue
        v = w.check(perturbed(rec, bad))
        assert not v.ok and v.fault is None, rec.op.kind


def test_certify_passes(certify_records):
    w, recs = certify_records
    kinds = set()
    for rec in recs:
        v = w.check(rec)
        assert v.ok, (rec.op.kind, v.reason)
        kinds.add(rec.op.kind)
    assert kinds == {"check_cone_pair.r1", "check_cone_pair.r2", "check_cone_pair.a4",
                     "det_identity_residual.a4", "eval_theta.fresh_r1"}


def test_certify_checks_reject_perturbed(certify_records):
    w, recs = certify_records
    for rec in recs:
        out = rec.result
        if rec.op.kind.startswith("check_cone_pair"):
            bad = copy.copy(out)
            bad.verdict = "fail" if out.passed else "pass"
            cases = [bad]
            if out.passed:
                qm = [list(row) for row in out.q_minus]
                qm[0][0] = -qm[0][0] + 1  # Q_- no longer negative definite
                worse = copy.copy(out)
                worse.q_minus = tuple(tuple(row) for row in qm)
                cases.append(worse)
        elif rec.op.kind == "det_identity_residual.a4":
            cases = [Fraction(1, 10 ** 30)]
        else:
            cases = [dataclasses.replace(out, value=out.value + 1e-7)]
        for bad in cases:
            v = w.check(perturbed(rec, bad))
            assert not v.ok and v.fault is None, rec.op.kind


def test_rank1_verdicts_match_zwegers():
    """On 200 seeded rank-1 pairs in a twisted basis the certificate agrees
    with Zwegers' conditions, which the certify workload takes as expected."""
    import thetaforge as tf

    rng = np.random.default_rng([0, 505])
    for _ in range(200):
        A, c, cp = certify._rank1_candidate(rng)
        A2, C, Cp = certify._twist(A, [c], [cp], certify._unimodular(rng, 2, 2))
        pair = tf.ConePair.from_matrices(certify._columns(C), certify._columns(Cp),
                                         tf.BilinearForm.from_rows(A2))
        assert tf.check_cone_pair(pair).passed == certify.ref.zwegers_pass(A, c, cp)


def test_exception_is_a_failed_operation(errfn_records):
    w, recs = errfn_records
    rec = core.Record(recs[0].op, 0.0, error=RuntimeError("boom"))
    assert not w.check(rec).ok


def test_check_that_raises_is_a_failed_operation(errfn_records):
    import run

    w, recs = errfn_records

    class Raising:
        def check(self, rec):
            if rec is recs[0]:
                raise RuntimeError("reference failed")
            return w.check(rec)

    failed, correct, unexpected, faults = run.judge(Raising(), recs)
    assert not correct and failed == 1 + faults.get("phi_hat_cancellation", 0)
    assert "check raised RuntimeError" in unexpected[0]


def test_throughput_takes_upper_quartile_per_type():
    # two rounds of four "a" and one "b"; one slow "a" does not move it
    recs = ([core.Record(core.Op("a", None), s) for s in (1, 1, 1, 1, 1, 1, 1, 9)]
            + [core.Record(core.Op("b", None), 2.0)] * 2)
    assert core.throughput(recs, 2) == pytest.approx(5 / (4 * 1.0 + 2.0))


def test_tail_percentile_ladder():
    assert core.tail_percentile(39) == 500
    assert core.tail_percentile(100) == 900
    assert core.tail_percentile(1017) == 990
    vals = list(range(1, 1018))
    value, beyond = core.nearest_rank(vals, 990)
    assert beyond == 10 and value == 1007


def test_reference_orthants_match_orthogonal_products():
    rng = np.random.default_rng(1)
    q, _ = np.linalg.qr(rng.normal(size=(3, 3)))
    m = q * np.array([0.7, 1.3, 1.9])
    u = np.array([0.3, -0.2, 0.45])
    E, tol_E, M, tol_M = errfn.ref.errfn_by_orthants(m, u)
    E0, M0 = errfn.ref.errfn_orthogonal(m, u)
    assert abs(E - E0) <= tol_E and abs(M - M0) <= tol_M


def test_run_refuses_without_library(tmp_path):
    bench = tmp_path / "bench"
    subprocess.run(["cp", "-r", str(ROOT / "bench"), str(bench)], check=True)
    proc = subprocess.run([sys.executable, str(bench / "run.py"), "--workload", "errfn",
                           "--seed", "1", "--seconds", "1", "--trace", "0"],
                          cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert proc.returncode != 0
    for line in proc.stdout.splitlines():
        with pytest.raises((json.JSONDecodeError, KeyError)):
            json.loads(line)["metrics"]
