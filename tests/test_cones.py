"""Exact cone-pair certificates and the determinant identity."""

import hashlib
import random
import time
from fractions import Fraction

import pytest

from conftest import product_pair
from thetaforge import rational as ra
from thetaforge import serialize
from thetaforge.cli import _cone_report_doc
from thetaforge.cones import (CONDITION_ORDER, ConePair, build_a4_example,
                              build_ar_example, build_r1_example, check_cone_pair,
                              det_identity_residual, q_minus_form)
from thetaforge.exceptions import DegenerateForm, NonExactInput, ZeroDelta
from thetaforge.quadform import BilinearForm, signature


def rational_vec(rng, n):
    return [Fraction(rng.randint(-9, 9), rng.randint(1, 7)) for _ in range(n)]


def test_r1_example_passes():
    rep = check_cone_pair(build_r1_example())
    assert rep.passed
    assert rep.first_failed is None
    assert rep.n_pairs == 1
    # Gram of ((1,0),(2,1)) under diag(1,-1): [[1,2],[2,3]], det -1... delta = -1?
    # delta sign condition is sign-normalized by rank; value frozen from the build
    assert rep.delta == ra.det(ra.gram(ra.fmatrix([[1, 0], [0, -1]]),
                                       [[Fraction(1), Fraction(0)],
                                        [Fraction(2), Fraction(1)]]))
    assert rep.q_minus_inertia == (0, 2, 0)


def test_r1_recursion_reports_cover_all_vertex_choices():
    rep = check_cone_pair(build_r1_example())
    # r=1: S={0} with P in {(), (0,)} -> two child certificates
    assert sorted(rep.recursion_reports.keys()) == [((0,), ()), ((0,), (0,))]
    assert all(child.passed for child in rep.recursion_reports.values())


def test_degenerate_pair_fails_at_delta_sign():
    form = BilinearForm.from_rows([[1, 0], [0, -1]])
    deg = ConePair.from_matrices([[1], [0]], [[1], [0]], form)
    rep = check_cone_pair(deg)
    assert not rep.passed
    assert rep.first_failed == "delta_sign"


def test_float_input_rejected():
    form = BilinearForm.from_rows([[1, 0], [0, -1]])
    with pytest.raises(NonExactInput):
        ConePair.from_matrices([[1.5], [0]], [[2], [1]], form)


def test_zero_delta_raises_on_q_minus():
    form = BilinearForm.from_rows([[1, 0], [0, -1]])
    deg = ConePair.from_matrices([[1], [0]], [[1], [0]], form)
    with pytest.raises(ZeroDelta):
        q_minus_form(deg)


def test_q_minus_form_negative_definite_r1():
    qm = q_minus_form(build_r1_example())
    assert ra.inertia([list(row) for row in qm]) == (0, 2, 0)


def test_a4_example_full_certificate():
    t0 = time.time()
    pair = build_a4_example()
    assert signature(pair.form) == (4, 4)
    rep = check_cone_pair(pair)
    elapsed = time.time() - t0
    assert rep.passed
    assert rep.first_failed is None
    assert rep.q_minus_inertia == (0, 8, 0)
    assert all(rep.conditions.values())
    # (S, P) recursion: sum over nonempty S of 2^|S| choices = 3^4 - 1
    assert len(rep.recursion_reports) == 80
    assert all(child.passed for child in rep.recursion_reports.values())
    assert elapsed < 10.0


def test_ar_example_is_the_typed_out_a2_and_a4():
    # the rank-4 member is the A4 example as first typed out, and the rank-2
    # member the A2 pair of the kernel checks
    a4_form = [[2, -1, 0, 0, -1, 0, 0, 0], [-1, 2, -1, 0, 0, -1, 0, 0],
               [0, -1, 2, -1, 0, 0, -1, 0], [0, 0, -1, 2, 0, 0, 0, -1],
               [-1, 0, 0, 0, 0, 0, 0, 0], [0, -1, 0, 0, 0, 0, 0, 0],
               [0, 0, -1, 0, 0, 0, 0, 0], [0, 0, 0, -1, 0, 0, 0, 0]]
    a4_c = [[int(i == j) for j in range(4)] for i in range(8)]
    a4_cp = a4_c[:4] + [[0, 0, 0, -1], [-1, 0, 0, 0], [0, -1, 0, 0], [0, 0, -1, 0]]
    a2_form = [[2, -1, -1, 0], [-1, 2, 0, -1], [-1, 0, 0, 0], [0, -1, 0, 0]]
    a2_c, a2_cp = [[1, 0], [0, 1], [0, 0], [0, 0]], [[1, 0], [0, 1], [0, -1], [-1, 0]]
    for got, C, Cp, form in ((build_ar_example(4), a4_c, a4_cp, a4_form),
                             (build_a4_example(), a4_c, a4_cp, a4_form),
                             (build_ar_example(2), a2_c, a2_cp, a2_form)):
        want = ConePair.from_matrices(C, Cp, BilinearForm.from_rows(form))
        assert (got.form, got.C, got.C_prime) == (want.form, want.C, want.C_prime)


def test_det_identity_exact_on_rational_points():
    rng = random.Random(3)
    r1 = build_r1_example()
    for _ in range(25):
        assert det_identity_residual(r1, rational_vec(rng, 2)) == 0
    a4 = build_a4_example()
    for _ in range(10):
        assert det_identity_residual(a4, rational_vec(rng, 8)) == 0


def test_certificate_invariant_under_column_scaling():
    a4 = build_a4_example()
    cols = [list(c) for c in a4.C]
    cols[1] = [3 * x for x in cols[1]]
    rows = [[cols[j][i] for j in range(4)] for i in range(8)]
    rows_p = [[a4.C_prime[j][i] for j in range(4)] for i in range(8)]
    scaled = ConePair.from_matrices(rows, rows_p, a4.form)
    assert check_cone_pair(scaled).passed


def _seeded_pair(seed, r, n):
    """A random rank-r pair on a random nondegenerate n x n form, entries
    in [-2, 2]; most fail somewhere, and their nested systems vary."""
    rng = random.Random(seed)
    while True:
        rows = [[0] * n for _ in range(n)]
        for i in range(n):
            for j in range(i, n):
                rows[i][j] = rows[j][i] = rng.randint(-2, 2)
        try:
            form = BilinearForm.from_rows(rows)
        except DegenerateForm:
            continue
        C = [[rng.randint(-2, 2) for _ in range(r)] for _ in range(n)]
        Cp = [[rng.randint(-2, 2) for _ in range(r)] for _ in range(n)]
        return ConePair.from_matrices(C, Cp, form)


def _golden_pairs():
    # on diag(1, 1, -1, -1), the rank-2 pair c = ((2,0,-1,0), (-2,-3,1,-1)),
    # c' = ((2,-2,-1,-2), (-2,-3,0,1)) passes every condition up to the
    # reduced cofactor matrix, which has inertia (1, 3, 0)
    rc_form = [[1, 0, 0, 0], [0, 1, 0, 0], [0, 0, -1, 0], [0, 0, 0, -1]]
    rc_c = [[2, -2], [0, -3], [-1, 1], [0, -1]]
    rc_cp = [[2, -2], [-2, -3], [-1, 0], [-2, 1]]
    # its direct sum with the rank-1 example diag(1, -1), c = (1,0), c' = (2,1)
    sum_form = [[1, 0] + [0] * 4, [0, -1] + [0] * 4] + [[0, 0] + row for row in rc_form]
    sum_c = [[1, 0, 0], [0, 0, 0]] + [[0] + row for row in rc_c]
    sum_cp = [[2, 0, 0], [1, 0, 0]] + [[0] + row for row in rc_cp]
    return {
        "a4": build_a4_example(),
        "r1": build_r1_example(),
        "product": product_pair(),
        "a2": build_ar_example(2),
        "a3": build_ar_example(3),
        "seeded_r2_n4_21": _seeded_pair(21, 2, 4),
        "seeded_r2_n3_4": _seeded_pair(4, 2, 3),
        "seeded_r3_n5_39": _seeded_pair(39, 3, 5),
        "seeded_r3_n4_11": _seeded_pair(11, 3, 4),
        "reduced_cofactor_r2": ConePair.from_matrices(rc_c, rc_cp, BilinearForm.from_rows(rc_form)),
        "reduced_cofactor_r3": ConePair.from_matrices(sum_c, sum_cp,
                                                      BilinearForm.from_rows(sum_form)),
    }


GOLDEN_DIGESTS = {
    "a4": "aae1857f3bf357119840180e6c27a0ded6c1e12ea46bd2ee185fff7d501528b0",
    "r1": "b73e88cb7abe46aaafaabdae9e78813f7637307c0bc661486b866d38ac426ed5",
    "product": "a372124b436dde2e393526486b048854b8bf9877d62b6350811ed4dafbc77031",
    "a2": "af53f88a13173234800de42a1fa5e525e5934bd5a52d528fff9f617e1161173a",
    "a3": "81fd85a23e48c73c93356959ce6c56d9be6732f5e43880097f10f21078dd86bc",
    "seeded_r2_n4_21": "af2a69cc378073cf3def3bb221f2c8fcfa4923015ef94a9fa0595e8d561e9bcb",
    "seeded_r2_n3_4": "42ab180138408d95e05440225d05220dca63034bf4a0677e4e80083a8dd772ca",
    "seeded_r3_n5_39": "f09cdc3f50eae78ed11cd9a9e36923ae49570f6f429e968ee8977decdf597f1f",
    "seeded_r3_n4_11": "ee45cf5b838a640de2498102f1b6043f25f7bab90f58f03842ca35a4f367c13f",
    "reduced_cofactor_r2": "bab45d7e3d377882909c575238c7103fe155eec8dcd67504ba5e7a48b9284704",
    "reduced_cofactor_r3": "2bc1468699a4561f2c61feaba86ee4e1752a5162f295deeb8b1f22fe112ecf7f",
}


def test_certificate_reports_match_golden_digests():
    """The sha256 of the serialized report of each pair, followed by the
    report of every nested (S, P) system, is pinned. Between them the
    nested systems fail at every condition, degenerate projections
    included, and some pass."""
    seen = set()
    for name, pair in _golden_pairs().items():
        rep = check_cone_pair(pair)
        nested = [child for _, child in sorted(rep.recursion_reports.items())]
        docs = [_cone_report_doc(r) for r in [rep] + nested]
        digest = hashlib.sha256(serialize.dumps(docs).encode()).hexdigest()
        assert digest == GOLDEN_DIGESTS[name], name
        for r in [rep] + nested:
            seen.add(r.first_failed)
            assert r.q_minus_inertia is None or all(
                type(k) is int for k in r.q_minus_inertia)
    assert seen == {None, "degenerate_projection", *CONDITION_ORDER}
