"""Command-line interface: exit codes, document shapes, determinism."""

import json
import math

import pytest
from scipy.special import erfc

from thetaforge.cli import main


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    doc = json.loads(captured.out)
    return code, doc, captured.err


def write_config(tmp_path, name, doc):
    path = tmp_path / name
    path.write_text(json.dumps(doc))
    return str(path)


HYP_THETA = {
    "bilinear_form": [[0, 1], [1, 0]],
    "cone_pair": {"c": [[1, 1]], "cprime": [[2, 1]]},
    "theta": {"mu": [0, 0], "p": [0, 0], "tau": [0.0, 1.0],
              "kernel": "holomorphic"},
    "policy": {"tol": 1e-9},
}

D12_THETA = {
    "bilinear_form": [[1, 0], [0, -2]],
    "cone_pair": {"c": [[1, 0]], "cprime": [[2, 1]]},
    "theta": {"mu": [0, 0], "p": [1, 0], "tau": [0.0, 1.0],
              "kernel": "holomorphic"},
}


def test_errfn_m_identity_frame(capsys):
    code, doc, err = run_cli(capsys, "errfn", "--kind", "M", "--frame", "I1",
                             "--u", "1")
    assert code == 0
    assert doc["value"] == pytest.approx(-erfc(math.sqrt(math.pi)), abs=1e-12)
    assert "M_1" in err


def test_errfn_e_at_origin_is_zero_within_error(capsys):
    code, doc, _ = run_cli(capsys, "errfn", "--kind", "E", "--frame", "I1",
                           "--u", "0")
    assert code == 0
    assert abs(doc["value"]) <= 4 * doc["est_error"] + 1e-12


def test_errfn_inline_frame(capsys):
    code, doc, _ = run_cli(capsys, "errfn", "--kind", "E", "--frame",
                           '{"m": [[1.0, 0.0], [0.3, 1.0]]}',
                           "--u", "0.4,-0.7")
    assert code == 0
    assert doc["r"] == 2


def test_errfn_frame_file(capsys, tmp_path):
    path = tmp_path / "frame.json"
    path.write_text('[[1.0, 0.0], [0.0, 1.0]]')
    code, doc, _ = run_cli(capsys, "errfn", "--kind", "M", "--frame", str(path),
                           "--u", "0.5,0.5")
    assert code == 0


def test_errfn_mc_oracle_route(capsys):
    code, doc, _ = run_cli(capsys, "errfn", "--kind", "E", "--frame", "I2",
                           "--u", "0.3,0.5", "--mc-samples", "100000",
                           "--seed", "5")
    assert code == 0
    assert doc["mc_samples"] == 100000
    assert doc["est_error"] > 0


@pytest.mark.parametrize("argv", [("--kind", "M", "--frame", "I2", "--u", "0.3,0.5"),
                                  ("--kind", "E", "--frame", "I3", "--u", "0.3,0.5,0.1"),
                                  ("--kind", "E", "--frame", "I2", "--u", "0.3,0.5",
                                   "--mc-samples", "10000")])
def test_errfn_document_has_no_route(capsys, argv):
    code, doc, _ = run_cli(capsys, "errfn", *argv)
    assert code == 0
    keys = {"command", "kind", "r", "u", "value", "est_error", "imag_residual"}
    assert set(doc) == keys | ({"mc_samples", "seed"} if "--mc-samples" in argv else {"nodes"})


def test_errfn_mc_with_m_rejected(capsys):
    code, doc, _ = run_cli(capsys, "errfn", "--kind", "M", "--frame", "I1",
                           "--u", "1", "--mc-samples", "100000")
    assert code == 3
    assert doc["error"]["type"] == "ValidationError"


def test_errfn_wall_refusal(capsys):
    code, doc, _ = run_cli(capsys, "errfn", "--kind", "M", "--frame", "I1",
                           "--u", "1e-13")
    assert code == 2
    assert doc["error"]["type"] == "WallTooClose"
    assert doc["error"]["wall_index"] == 0


def test_errfn_malformed_frame_file(capsys, tmp_path):
    path = tmp_path / "bad.json"
    path.write_text('{"m": [[1.0, 0.0], "nope"]}')
    code, doc, err = run_cli(capsys, "errfn", "--kind", "M", "--frame",
                             str(path), "--u", "1,0")
    assert code == 3
    assert "frame" in doc["error"]["message"]


def test_errfn_wrong_u_length(capsys):
    code, doc, _ = run_cli(capsys, "errfn", "--kind", "E", "--frame", "I2",
                           "--u", "1")
    assert code == 3


def test_cones_builtin_a4(capsys):
    code, doc, err = run_cli(capsys, "cones", "--builtin", "a4")
    assert code == 0
    assert doc["passed"] is True
    assert doc["q_minus_inertia"] == [0, 8, 0]
    assert len(doc["recursion"]) == 80
    assert "pass" in err


def test_cones_builtin_r1(capsys):
    code, doc, _ = run_cli(capsys, "cones", "--builtin", "r1")
    assert code == 0
    assert doc["first_failed"] is None


def test_cones_degenerate_config_fails(capsys, tmp_path):
    cfg = write_config(tmp_path, "degen.json", {
        "bilinear_form": [[1, 0], [0, -1]],
        "cone_pair": {"c": [[1, 0]], "cprime": [[1, 0]]}})
    code, doc, err = run_cli(capsys, "cones", "--config", cfg)
    assert code == 1
    assert doc["first_failed"] == "delta_sign"


def test_cones_float_entry_rejected(capsys, tmp_path):
    cfg = write_config(tmp_path, "inexact.json", {
        "bilinear_form": [[1, 0], [0, -1]],
        "cone_pair": {"c": [[1.5, 0]], "cprime": [[2, 1]]}})
    code, doc, _ = run_cli(capsys, "cones", "--config", cfg)
    assert code == 3


def test_cones_rational_string_entries(capsys, tmp_path):
    cfg = write_config(tmp_path, "rat.json", {
        "bilinear_form": [[1, 0], [0, -1]],
        "cone_pair": {"c": [["1/2", 0]], "cprime": [[2, 1]]}})
    code, doc, _ = run_cli(capsys, "cones", "--config", cfg)
    # scaling c by 1/2 keeps the certificate (conditions are projective)
    assert code == 0


def test_config_unknown_key_rejected(capsys, tmp_path):
    cfg = write_config(tmp_path, "unk.json", {
        "bilinear_form": [[1]], "cone_pair": {"c": [[1]], "cprime": [[2]]},
        "bogus": 1})
    code, doc, _ = run_cli(capsys, "cones", "--config", cfg)
    assert code == 3
    assert "bogus" in doc["error"]["message"]


def test_theta_value_odd_symmetry(capsys, tmp_path):
    cfg = write_config(tmp_path, "hyp.json", HYP_THETA)
    code, doc, _ = run_cli(capsys, "theta", "--config", cfg, "--mode", "value")
    assert code == 0
    assert doc["partial"] is False
    assert doc["value"] == {"re": 0, "im": 0}
    assert doc["tail_estimate"] < 1e-9
    assert len(doc["wall_hits"]) > 0


def test_theta_qexp_document(capsys, tmp_path):
    cfg = write_config(tmp_path, "d12.json", D12_THETA)
    code, doc, _ = run_cli(capsys, "theta", "--config", cfg, "--mode", "qexp",
                           "--terms", "3")
    assert code == 0
    assert doc["phase_exponent"] == {"num": "1", "den": "2"}
    assert doc["terms"][0] == {"exponent": {"num": "7", "den": "8"},
                               "coefficient": {"num": "2", "den": "1"},
                               "wall_affected": False}


# the document of the exact Fraction loop, byte for byte; the 60 points of
# -Q_-(k) <= 2 * 103/8, radius sqrt(25.75)
D12_QEXP_8 = (
    '{"command": "theta", "mode": "qexp", "partial": false, "phase_exponent": '
    '{"num": "1", "den": "2"}, "n_points": 60, "radius": 5.0744457825461096, "terms": ['
    '{"exponent": {"num": "7", "den": "8"}, "coefficient": {"num": "2", "den": "1"}, '
    '"wall_affected": false}, '
    '{"exponent": {"num": "23", "den": "8"}, "coefficient": {"num": "-2", "den": "1"}, '
    '"wall_affected": false}, '
    '{"exponent": {"num": "31", "den": "8"}, "coefficient": {"num": "2", "den": "1"}, '
    '"wall_affected": false}, '
    '{"exponent": {"num": "47", "den": "8"}, "coefficient": {"num": "2", "den": "1"}, '
    '"wall_affected": false}, '
    '{"exponent": {"num": "63", "den": "8"}, "coefficient": {"num": "-2", "den": "1"}, '
    '"wall_affected": false}, '
    '{"exponent": {"num": "71", "den": "8"}, "coefficient": {"num": "2", "den": "1"}, '
    '"wall_affected": false}, '
    '{"exponent": {"num": "79", "den": "8"}, "coefficient": {"num": "-2", "den": "1"}, '
    '"wall_affected": false}, '
    '{"exponent": {"num": "103", "den": "8"}, "coefficient": {"num": "2", "den": "1"}, '
    '"wall_affected": false}]}\n')


def test_theta_qexp_document_golden(capsys, tmp_path):
    cfg = write_config(tmp_path, "d12.json", D12_THETA)
    assert main(["theta", "--config", cfg, "--mode", "qexp", "--terms", "8"]) == 0
    assert capsys.readouterr().out == D12_QEXP_8


def test_theta_qexp_stable_under_tighter_tol(capsys, tmp_path):
    cfg = write_config(tmp_path, "d12.json", D12_THETA)
    _, doc1, _ = run_cli(capsys, "theta", "--config", cfg, "--mode", "qexp",
                         "--terms", "5", "--tol", "1e-8")
    _, doc2, _ = run_cli(capsys, "theta", "--config", cfg, "--mode", "qexp",
                         "--terms", "5", "--tol", "1e-9")
    assert doc1["terms"] == doc2["terms"]


def test_theta_qexp_requires_terms(capsys, tmp_path):
    cfg = write_config(tmp_path, "d12.json", D12_THETA)
    code, doc, _ = run_cli(capsys, "theta", "--config", cfg, "--mode", "qexp")
    assert code == 3


def test_quadrature_grid_over_cap_exits_3(capsys, tmp_path):
    # 5000^2 nodes at rank 2 is over the 64^4 cap; refused before any node
    code, doc, _ = run_cli(capsys, "errfn", "--kind", "M", "--frame", "I2",
                           "--u", "0.3,0.4", "--nodes", "5000")
    assert code == 3
    assert doc["error"]["type"] == "ValidationError"
    # the config has no quadrature section: the key is refused, not ignored
    doc_in = dict(HYP_THETA, quadrature={"nodes_per_axis": 10 ** 9})
    code, doc, _ = run_cli(capsys, "theta", "--config",
                           write_config(tmp_path, "big_quad.json", doc_in))
    assert code == 3
    assert doc["error"] == {"type": "ValidationError",
                            "message": "unknown keys in config: ['quadrature']"}


@pytest.mark.parametrize("kind,u", [("M", "nan,0.5"), ("E", "nan,0.5"),
                                    ("M", "inf,0.5"), ("E", "0.5,-inf")])
def test_errfn_non_finite_u_exits_3(capsys, kind, u):
    code, doc, _ = run_cli(capsys, "errfn", "--kind", kind, "--frame", "I2", "--u", u)
    assert code == 3
    assert "finite" in doc["error"]["message"]


@pytest.mark.parametrize("section,key,value", [
    ("policy", "tol", [1]), ("policy", "initial_radius", {}),
    ("policy", "max_points", "1e400"), ("theta", "tau", [[0], 1.0]), ("theta", "mu", 5)])
def test_config_value_of_wrong_type_exits_3(capsys, tmp_path, section, key, value):
    doc_in = dict(HYP_THETA, **{section: dict(HYP_THETA[section], **{key: value})})
    path = tmp_path / "wrong_type.json"
    path.write_text(json.dumps(doc_in).replace('"1e400"', "1e400"))
    code, doc, _ = run_cli(capsys, "theta", "--config", str(path))
    assert code == 3
    assert doc["error"]["type"] == "ValidationError"
    assert f"{section}.{key}" in doc["error"]["message"]


def test_theta_lambda_must_be_zero(capsys, tmp_path):
    for lam, expected in ((0, 0), (2, 3)):
        doc_in = dict(HYP_THETA, theta=dict(HYP_THETA["theta"], **{"lambda": lam}))
        code, doc, _ = run_cli(capsys, "theta", "--config",
                               write_config(tmp_path, "lam.json", doc_in))
        assert code == expected
    assert doc["error"] == {"type": "ValidationError",
                            "message": "built-in kernels have lambda = 0"}


def test_theta_budget_exit(capsys, tmp_path):
    doc_in = dict(HYP_THETA)
    # tol 1e-9 asks for 9 points at tau = i
    doc_in["policy"] = {"tol": 1e-9, "max_points": 5}
    cfg = write_config(tmp_path, "budget.json", doc_in)
    code, doc, err = run_cli(capsys, "theta", "--config", cfg)
    assert code == 4
    assert doc["partial"] is True
    assert "budget" in err or "partial" in err


@pytest.mark.parametrize("policy", [{"tol": math.nan}, {"tol": math.inf},
                                    {"initial_radius": math.nan},
                                    {"initial_radius": -math.inf}])
def test_theta_non_finite_policy_exits_3(capsys, tmp_path, policy):
    doc_in = dict(HYP_THETA, policy=policy)
    cfg = write_config(tmp_path, "bad_policy.json", doc_in)
    code, doc, _ = run_cli(capsys, "theta", "--config", cfg)
    assert code == 3
    assert doc["error"]["type"] == "ValidationError"
    code, doc, _ = run_cli(capsys, "theta", "--config", write_config(
        tmp_path, "hyp.json", HYP_THETA), "--tol", "nan")
    assert code == 3


def test_theta_tiny_imaginary_tau_exits_4(capsys, tmp_path):
    doc_in = dict(D12_THETA, policy={"tol": 1e-8, "max_points": 1000})
    doc_in["theta"] = dict(D12_THETA["theta"], tau=[0.0, 1e-300])
    cfg = write_config(tmp_path, "tiny_tau.json", doc_in)
    code, doc, _ = run_cli(capsys, "theta", "--config", cfg)
    assert code == 4
    assert doc["partial"] is True
    assert 0 < doc["n_points"] <= 1000


def test_theta_output_byte_identical(capsys, tmp_path):
    cfg = write_config(tmp_path, "hyp.json", HYP_THETA)
    main(["theta", "--config", cfg])
    out1 = capsys.readouterr().out
    main(["theta", "--config", cfg])
    out2 = capsys.readouterr().out
    assert out1 == out2


def test_verify_fast_seed1(capsys):
    code, doc, err = run_cli(capsys, "verify", "--level", "fast", "--seed", "1")
    assert code == 0
    assert doc["all_passed"] is True
    assert [r["name"] for r in doc["reports"]] == \
           sorted(r["name"] for r in doc["reports"])
    assert "checks passed" in err


def test_unknown_flag_exits_3(capsys):
    code, doc, _ = run_cli(capsys, "verify", "--bogus")
    assert code == 3


def test_unknown_command_exits_3(capsys):
    code, doc, _ = run_cli(capsys, "frobnicate")
    assert code == 3


@pytest.mark.parametrize("key,value", [("max_points", 30.9), ("initial_radius", "2")])
def test_config_policy_value_not_cast_exits_3(capsys, tmp_path, key, value):
    # a fractional count is not truncated and a numeric string is not parsed
    doc_in = dict(HYP_THETA, policy=dict(HYP_THETA["policy"], **{key: value}))
    code, doc, _ = run_cli(capsys, "theta", "--config",
                           write_config(tmp_path, "cast.json", doc_in))
    assert code == 3
    assert doc["error"]["type"] == "ValidationError"
    assert f"policy.{key}" in doc["error"]["message"]


def test_config_policy_whole_float_count_accepted(capsys, tmp_path):
    doc_in = dict(HYP_THETA, policy=dict(HYP_THETA["policy"], max_points=1e6))
    code, doc, _ = run_cli(capsys, "theta", "--config",
                           write_config(tmp_path, "whole.json", doc_in))
    assert code == 0
    assert doc["value"] == {"re": 0, "im": 0}
