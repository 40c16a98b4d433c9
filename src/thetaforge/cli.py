"""Command-line front end.

One JSON document on stdout, a human-readable summary on stderr. Exit codes:
0 success, 1 failed certificate or suite, 2 wall refusal, 3 invalid input,
4 enumeration budget exhausted (the document then carries partial=true).
"""

from __future__ import annotations

import argparse
import json
import re
import sys
from dataclasses import dataclass

import numpy as np

from . import serialize
from .cones import ConePair, build_a4_example, build_r1_example, check_cone_pair
from .errfn import (DEFAULT_QUAD, ErrFnArgument, QuadratureSpec, eval_E,
                    eval_E_oracle_mc, eval_M)
from .exceptions import BudgetExceeded, ThetaForgeError, ValidationError, WallTooClose
from .quadform import BilinearForm, ErrorFunctionFrame
from .theta import ThetaSpec, TruncationPolicy, eval_theta, q_expansion
from .verify import run_suite

EXIT_OK = 0
EXIT_CHECK_FAILED = 1
EXIT_WALL = 2
EXIT_INVALID = 3
EXIT_BUDGET = 4


class _ArgumentError(Exception):
    """Flag-level misuse; mapped to the validation exit code."""


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        raise _ArgumentError(message)


def _emit(doc, summary: str | None = None) -> None:
    sys.stdout.write(serialize.dumps(doc) + "\n")
    if summary:
        sys.stderr.write(summary + "\n")


def _require_keys(section: dict, allowed: set, where: str) -> None:
    extra = set(section) - allowed
    if extra:
        raise ValidationError(f"unknown keys in {where}: {sorted(extra)}")


def _load_document(path: str) -> dict:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            doc = json.load(fh)
    except OSError as exc:
        raise ValidationError(f"cannot read config {path!r}: {exc}") from None
    except json.JSONDecodeError as exc:
        raise ValidationError(f"config {path!r} is not valid JSON: {exc}") from None
    if not isinstance(doc, dict):
        raise ValidationError("config document must be a JSON object")
    return doc


def _int_matrix(node, where: str) -> list:
    if (not isinstance(node, list) or not node
            or any(not isinstance(row, list) for row in node)):
        raise ValidationError(f"{where} must be a non-empty list of rows")
    for row in node:
        for x in row:
            if isinstance(x, bool) or not isinstance(x, int):
                raise ValidationError(f"{where} entries must be integers, got {x!r}")
    return node


def _number(cast, node, where: str):
    """cast(node) for cast float or int; a value that is not a JSON number (a
    string, a boolean), not whole for int, or past float range is refused."""
    kind = "an integer" if cast is int else "a number"
    whole = isinstance(node, int) or isinstance(node, float) and node.is_integer()
    if isinstance(node, bool) or not isinstance(node, (int, float)) or (cast is int and not whole):
        raise ValidationError(f"{where} must be {kind}, got {node!r}")
    try:
        return cast(node)
    except OverflowError:
        raise ValidationError(f"{where} must be {kind}, got {node!r}") from None


def _float_vector(node, n: int, where: str) -> np.ndarray:
    if not isinstance(node, list) or len(node) != n:
        raise ValidationError(f"{where} must be a list of {n} numbers")
    return np.array([_number(float, x, f"{where} entry") for x in node])


def _vectors_to_rows(vectors, n: int, where: str) -> list:
    """Config stores cone generators as vectors; the pair wants an n x r matrix."""
    if not isinstance(vectors, list) or not vectors:
        raise ValidationError(f"{where} must be a non-empty list of vectors")
    cols = []
    for vec in vectors:
        if not isinstance(vec, list) or len(vec) != n:
            raise ValidationError(f"every vector in {where} must have length {n}")
        cols.append([serialize.parse_exact(x) for x in vec])
    return [[cols[j][i] for j in range(len(cols))] for i in range(n)]


@dataclass(frozen=True)
class JobConfig:
    """Validated config file: form, cone pair, theta request, policy."""

    form: BilinearForm | None
    pair: ConePair | None
    theta: ThetaSpec | None
    policy: TruncationPolicy

    @classmethod
    def from_document(cls, doc: dict) -> "JobConfig":
        _require_keys(doc, {"bilinear_form", "cone_pair", "theta", "policy"}, "config")
        form = None
        if "bilinear_form" in doc:
            form = BilinearForm.from_rows(_int_matrix(doc["bilinear_form"],
                                                      "bilinear_form"))
        pair = None
        if "cone_pair" in doc:
            if form is None:
                raise ValidationError("cone_pair requires bilinear_form")
            sec = doc["cone_pair"]
            if not isinstance(sec, dict):
                raise ValidationError("cone_pair must be an object")
            _require_keys(sec, {"c", "cprime"}, "cone_pair")
            if "c" not in sec or "cprime" not in sec:
                raise ValidationError('cone_pair needs both "c" and "cprime"')
            pair = ConePair.from_matrices(
                _vectors_to_rows(sec["c"], form.n, "cone_pair.c"),
                _vectors_to_rows(sec["cprime"], form.n, "cone_pair.cprime"),
                form)

        policy_kwargs = {}
        if "policy" in doc:
            sec = doc["policy"]
            if not isinstance(sec, dict):
                raise ValidationError("policy must be an object")
            _require_keys(sec, {"tol", "max_points", "initial_radius"}, "policy")
            for key, cast in (("tol", float), ("max_points", int), ("initial_radius", float)):
                if key in sec:
                    policy_kwargs[key] = _number(cast, sec[key], f"policy.{key}")
        policy = TruncationPolicy(**policy_kwargs)

        theta = None
        if "theta" in doc:
            if form is None or pair is None:
                raise ValidationError("theta requires bilinear_form and cone_pair")
            sec = doc["theta"]
            if not isinstance(sec, dict):
                raise ValidationError("theta must be an object")
            _require_keys(sec, {"mu", "p", "b", "c_ell", "tau", "kernel",
                                "lambda"}, "theta")
            for key in ("mu", "p", "tau"):
                if key not in sec:
                    raise ValidationError(f"theta.{key} is required")
            n = form.n
            if not isinstance(sec["mu"], list) or len(sec["mu"]) != n:
                raise ValidationError(f"theta.mu must be a list of {n} exact rationals")
            mu = tuple(serialize.parse_exact(x) for x in sec["mu"])
            p_raw = sec["p"]
            if (not isinstance(p_raw, list) or len(p_raw) != n
                    or any(isinstance(x, bool) or not isinstance(x, int)
                           for x in p_raw)):
                raise ValidationError(f"theta.p must be a list of {n} integers")
            tau = complex(*_float_vector(sec["tau"], 2, "theta.tau"))
            b = _float_vector(sec["b"], n, "theta.b") if "b" in sec else np.zeros(n)
            c_ell = (_float_vector(sec["c_ell"], n, "theta.c_ell")
                     if "c_ell" in sec else np.zeros(n))
            kernel = sec.get("kernel", "holomorphic")
            if kernel not in ("holomorphic", "completed"):
                raise ValidationError(
                    f'theta.kernel must be "holomorphic" or "completed", got {kernel!r}')
            # the series' weight offset; both kernels are those of lambda = 0
            lam = sec.get("lambda", 0)
            if isinstance(lam, bool) or not isinstance(lam, int):
                raise ValidationError("theta.lambda must be an integer")
            if lam != 0:
                raise ValidationError("built-in kernels have lambda = 0")
            theta = ThetaSpec(form=form, mu=mu, p=tuple(p_raw), b=b, c_ell=c_ell,
                              tau=tau, kernel=kernel, pair=pair)
        return cls(form=form, pair=pair, theta=theta, policy=policy)


def _parse_frame(text: str) -> ErrorFunctionFrame:
    ident = re.fullmatch(r"I(\d+)", text)
    if ident:
        r = int(ident.group(1))
        if r < 1:
            raise ValidationError("identity frame rank must be at least 1")
        return ErrorFunctionFrame.from_m(np.eye(r))
    if text.lstrip().startswith(("{", "[")):
        try:
            node = json.loads(text)
        except json.JSONDecodeError as exc:
            raise ValidationError(f"inline frame is not valid JSON: {exc}") from None
    else:
        try:
            with open(text, "r", encoding="utf-8") as fh:
                node = json.load(fh)
        except OSError as exc:
            raise ValidationError(f"cannot read frame file {text!r}: {exc}") from None
        except json.JSONDecodeError as exc:
            raise ValidationError(f"frame file {text!r} is not valid JSON: {exc}") from None
    if isinstance(node, dict):
        _require_keys(node, {"m"}, "frame")
        if "m" not in node:
            raise ValidationError('frame object needs key "m"')
        node = node["m"]
    if not isinstance(node, list) or not node:
        raise ValidationError("frame must be a non-empty list of column vectors")
    r = len(node)
    cols = [_float_vector(col, r, "frame column") for col in node]
    return ErrorFunctionFrame.from_m(np.stack(cols, axis=1))


def _parse_u(text: str, r: int) -> np.ndarray:
    try:
        u = np.array([float(x) for x in text.split(",")])
    except ValueError:
        raise ValidationError(f"--u must be comma-separated numbers, got {text!r}") from None
    if u.shape != (r,):
        raise ValidationError(f"--u has {u.size} entries, frame rank is {r}")
    return u


def cmd_errfn(args) -> int:
    frame = _parse_frame(args.frame)
    u = _parse_u(args.u, frame.r)
    arg = ErrFnArgument(frame=frame, u=u)
    quad = DEFAULT_QUAD if args.nodes is None else QuadratureSpec(nodes_per_axis=args.nodes)
    doc = {"command": "errfn", "kind": args.kind, "r": frame.r, "u": list(u)}
    if args.mc_samples is not None:
        if args.kind != "E":
            raise ValidationError("--mc-samples applies only to --kind E")
        res = eval_E_oracle_mc(arg, n_samples=args.mc_samples, seed=args.seed)
        doc["mc_samples"] = args.mc_samples
        doc["seed"] = args.seed
    elif args.kind == "M":
        res = eval_M(arg, quad)
        doc["nodes"] = quad.nodes_per_axis
    else:
        res = eval_E(arg, quad)
        doc["nodes"] = quad.nodes_per_axis
    doc["value"] = res.value
    doc["est_error"] = res.est_error
    doc["imag_residual"] = res.imag_residual
    _emit(doc, f"{args.kind}_{frame.r}(u) = {res.value:.12g} (est_error {res.est_error:.3g})")
    return EXIT_OK


def _cone_report_doc(report) -> dict:
    doc = {
        "verdict": report.verdict,
        "passed": report.passed,
        "first_failed": report.first_failed,
        "n_pairs": report.n_pairs,
        "conditions": dict(sorted(report.conditions.items())),
        "delta": report.delta,
        "cofactors_jjprime": list(report.cofactors_jjprime),
        "reduced_cofactor_matrix": [list(row) for row in report.reduced_cofactor_matrix],
        "per_P_positive_definite": [
            {"P": list(P), "positive_definite": ok}
            for P, ok in sorted(report.per_P_positive_definite.items())],
        "q_minus": ([list(row) for row in report.q_minus]
                    if report.q_minus is not None else None),
        "q_minus_inertia": (list(report.q_minus_inertia)
                            if report.q_minus_inertia is not None else None),
        "recursion": [
            {"S": list(S), "P": list(P), "verdict": rep.verdict,
             "first_failed": rep.first_failed, "delta": rep.delta,
             "q_minus_inertia": (list(rep.q_minus_inertia)
                                 if rep.q_minus_inertia is not None else None)}
            for (S, P), rep in sorted(report.recursion_reports.items())],
    }
    return doc


def cmd_cones(args) -> int:
    if args.builtin is not None:
        pair = build_a4_example() if args.builtin == "a4" else build_r1_example()
    else:
        cfg = JobConfig.from_document(_load_document(args.config))
        if cfg.pair is None:
            raise ValidationError("config must provide bilinear_form and cone_pair")
        pair = cfg.pair
    report = check_cone_pair(pair)
    doc = {"command": "cones", "r": pair.r, "n": pair.form.n}
    doc.update(_cone_report_doc(report))
    if report.passed:
        _emit(doc, f"cone certificate: pass ({report.n_pairs} pairs, "
                   f"Q_- inertia {report.q_minus_inertia})")
        return EXIT_OK
    _emit(doc, f"cone certificate: FAIL at condition {report.first_failed!r}")
    return EXIT_CHECK_FAILED


def cmd_theta(args) -> int:
    cfg = JobConfig.from_document(_load_document(args.config))
    if cfg.theta is None:
        raise ValidationError("config must provide a theta section")
    policy = cfg.policy
    if args.tol is not None:
        policy = TruncationPolicy(tol=args.tol, initial_radius=policy.initial_radius,
                                  max_points=policy.max_points)
    spec = cfg.theta
    if args.mode == "qexp":
        if args.terms is None:
            raise ValidationError("--mode qexp requires --terms")
        qe = q_expansion(spec, n_terms=args.terms, policy=policy)
        doc = {
            "command": "theta", "mode": "qexp", "partial": False,
            "phase_exponent": qe.phase_exponent,
            "n_points": qe.n_points, "radius": qe.radius,
            "terms": [{"exponent": t.exponent, "coefficient": t.coefficient,
                       "wall_affected": t.wall_affected} for t in qe.terms],
        }
        _emit(doc, f"q-expansion: {len(qe.terms)} terms, radius {qe.radius:g}, "
                   f"{qe.n_points} lattice points")
        return EXIT_OK
    partial = False
    try:
        val = eval_theta(spec, policy)
        code = EXIT_OK
    except BudgetExceeded as exc:
        val = exc.partial
        partial = True
        code = EXIT_BUDGET
        if val is None:
            doc = {"command": "theta", "mode": "value", "partial": True,
                   "error": str(exc)}
            _emit(doc, f"theta: budget exhausted before any evaluation ({exc})")
            return code
    doc = {
        "command": "theta", "mode": "value", "partial": partial,
        "value": val.value, "tail_estimate": val.tail_estimate,
        "n_points": val.n_points,
        "wall_hits": [[x for x in hit] for hit in val.wall_hits],
        "tol": policy.tol,
    }
    note = " (partial: budget exhausted)" if partial else ""
    _emit(doc, f"theta = {val.value:.12g} tail <= {val.tail_estimate:.3g} "
               f"[{val.n_points} points]{note}")
    return code


def cmd_verify(args) -> int:
    reports = run_suite(args.level, seed=args.seed)
    all_passed = all(r.passed for r in reports)
    doc = {
        "command": "verify", "level": args.level, "seed": args.seed,
        "all_passed": all_passed,
        "reports": [{"name": r.name, "inputs_digest": r.inputs_digest,
                     "residual": r.residual, "tolerance": r.tolerance,
                     "passed": r.passed, "detail": r.detail} for r in reports],
    }
    lines = [f"{'PASS' if r.passed else 'FAIL'} {r.name} "
             f"(residual {r.residual:.3e}, tol {r.tolerance:.3e})" for r in reports]
    n_ok = sum(r.passed for r in reports)
    lines.append(f"{n_ok}/{len(reports)} checks passed")
    _emit(doc, "\n".join(lines))
    return EXIT_OK if all_passed else EXIT_CHECK_FAILED


def build_parser() -> _Parser:
    parser = _Parser(prog="thetaforge",
                     description="Generalized error functions, cone certificates, "
                                 "indefinite theta series, verification suite.")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("errfn", help="evaluate E_r or M_r")
    p.add_argument("--kind", choices=("M", "E"), required=True)
    p.add_argument("--frame", required=True,
                   help="I<r> for the identity frame, inline JSON, or a file path")
    p.add_argument("--u", required=True, help="comma-separated evaluation point")
    p.add_argument("--nodes", type=int, default=None)
    p.add_argument("--mc-samples", type=int, default=None, dest="mc_samples")
    p.add_argument("--seed", type=int, default=0)
    p.set_defaults(func=cmd_errfn)

    p = sub.add_parser("cones", help="certify a cone pair")
    g = p.add_mutually_exclusive_group(required=True)
    g.add_argument("--config", default=None)
    g.add_argument("--builtin", choices=("a4", "r1"), default=None)
    p.set_defaults(func=cmd_cones)

    p = sub.add_parser("theta", help="theta value or q-expansion")
    p.add_argument("--config", required=True)
    p.add_argument("--mode", choices=("value", "qexp"), default="value")
    p.add_argument("--terms", type=int, default=None)
    p.add_argument("--tol", type=float, default=None)
    p.set_defaults(func=cmd_theta)

    p = sub.add_parser("verify", help="run the verification suite")
    p.add_argument("--level", choices=("fast", "full"), default="fast")
    p.add_argument("--seed", type=int, default=0)
    p.set_defaults(func=cmd_verify)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except _ArgumentError as exc:
        sys.stderr.write(f"argument error: {exc}\n")
        _emit({"error": {"type": "ArgumentError", "message": str(exc)}})
        return EXIT_INVALID
    try:
        return args.func(args)
    except WallTooClose as exc:
        _emit({"error": {"type": "WallTooClose", "message": str(exc),
                         "wall_index": exc.j, "distance": exc.distance}},
              f"wall refusal: {exc}")
        return EXIT_WALL
    except BudgetExceeded as exc:
        _emit({"error": {"type": "BudgetExceeded", "message": str(exc)},
               "partial": True}, f"budget exhausted: {exc}")
        return EXIT_BUDGET
    except (ValueError, ThetaForgeError) as exc:
        _emit({"error": {"type": type(exc).__name__, "message": str(exc)}},
              f"invalid input: {exc}")
        return EXIT_INVALID


if __name__ == "__main__":
    sys.exit(main())
