"""Per-layer probes for the traced run.

Each probe times calls into one module's public functions from here, on
fixed inputs, inside a span named after the metric. Times are medians over
a few calls; point counts are exact and repeat from run to run. The CLI
probes time the whole command as a subprocess, interpreter start-up
included.
"""

from __future__ import annotations

import subprocess
import sys
import time
from fractions import Fraction
from pathlib import Path

import numpy as np

from .core import median
from .theta import PRODUCT_C, PRODUCT_CP, PRODUCT_FORM, PRODUCT_P

DATA = Path(__file__).resolve().parent.parent / "data"

# (metric, unit) in the order the traced run reports them
METRICS = (
    ("rational.det_8x8_us", "us"), ("rational.inertia_8x8_us", "us"),
    ("rational.cofactor_matrix_8x8_ms", "ms"), ("quadform.subset_projectors_us", "us"),
    ("errfn.eval_M_r1_us", "us"), ("errfn.eval_M_r2_ms", "ms"), ("errfn.eval_M_r3_ms", "ms"),
    ("errfn.eval_M_r4_ms", "ms"), ("errfn.eval_E_r2_ms", "ms"), ("errfn.eval_E_r3_ms", "ms"),
    ("errfn.eval_E_r4_ms", "ms"), ("boosted.eval_E_boosted_r2_ms", "ms"),
    ("theta.kernel_phi_hat_r2_ms", "ms"), ("cones.check_cone_pair_a4_s", "s"),
    ("cones.check_cone_pair_r2_ms", "ms"), ("cones.det_identity_residual_a4_ms", "ms"),
    ("theta.enumerate_lattice_points_per_s", "1/s"), ("theta.points_per_value_r1", "count"),
    ("theta.points_per_value_r2", "count"), ("theta.points_per_qexp_r2", "count"),
    ("theta.points_a4", "count"), ("theta.eval_theta_r1_ms", "ms"),
    ("theta.eval_theta_r2_ms", "ms"), ("theta.q_expansion_r1_ms", "ms"),
    ("theta.q_expansion_r2_s", "s"), ("theta.cold_pair_eval_ms", "ms"),
    ("verify.run_suite_fast_s", "s"), ("cli.startup_ms", "ms"), ("cli.cones_a4_ms", "ms"),
    ("cli.theta_value_ms", "ms"), ("cli.theta_qexp_ms", "ms"),
)
SCALE = {"us": 1e6, "ms": 1e3, "s": 1.0}


class Probes:
    def __init__(self, tracer, root: Path, env: dict):
        import thetaforge as tf

        self.tf = tf
        self.tracer = tracer
        self.root = root
        self.env = env
        self.values: dict = {}

    def timed(self, metric: str, fn, reps: int):
        """Median seconds of `reps` calls, each in its own span; returns the
        last result."""
        times = []
        result = None
        for _ in range(reps):
            sp = self.tracer.open(metric)
            t0 = time.perf_counter()
            result = fn()
            times.append(time.perf_counter() - t0)
            self.tracer.close(sp)
        unit = dict(METRICS)[metric]
        if unit in SCALE:
            self.values[metric] = median(times) * SCALE[unit]
        return result, median(times)

    def count(self, metric: str, n: int) -> None:
        self.values[metric] = int(n)

    def cli(self, metric: str, args: list, reps: int, ok_codes=(0,)) -> None:
        def run():
            proc = subprocess.run([sys.executable, "-m", "thetaforge.cli"] + args,
                                  cwd=self.root, env=self.env, capture_output=True, text=True,
                                  timeout=120)
            if proc.returncode not in ok_codes:
                raise RuntimeError(f"thetaforge {' '.join(args)} exited {proc.returncode}: "
                                   f"{proc.stderr.strip()}")
        self.timed(metric, run, reps)

    def run_all(self) -> dict:
        from thetaforge import rational as ra

        tf = self.tf
        a4 = tf.build_a4_example()
        A4 = [list(r) for r in a4.form.exact()]
        inter = [v for pair in zip(a4.C, a4.C_prime) for v in pair]
        gram8 = ra.gram(A4, [list(v) for v in inter])
        self.timed("rational.det_8x8_us", lambda: ra.det(gram8), 20)
        self.timed("rational.inertia_8x8_us", lambda: ra.inertia(A4), 20)
        self.timed("rational.cofactor_matrix_8x8_ms", lambda: ra.cofactor_matrix(gram8), 3)

        rng = np.random.default_rng(0)
        frames = {}
        for r in (1, 2, 3, 4):
            m = np.eye(r) + 0.3 * rng.uniform(-1, 1, size=(r, r))
            u = np.linspace(0.45, -0.35, r) + 0.1
            frames[r] = tf.ErrFnArgument(frame=tf.ErrorFunctionFrame.from_m(m), u=u)
        self.timed("quadform.subset_projectors_us",
                   lambda: tf.subset_projectors(frames[4].frame, (0, 2)), 200)
        self.timed("errfn.eval_M_r1_us", lambda: tf.eval_M(frames[1]), 200)
        for r, reps in ((2, 20), (3, 5), (4, 3)):
            self.timed(f"errfn.eval_M_r{r}_ms", lambda a=frames[r]: tf.eval_M(a), reps)
            self.timed(f"errfn.eval_E_r{r}_ms", lambda a=frames[r]: tf.eval_E(a), reps)

        pform = tf.BilinearForm.from_rows(PRODUCT_FORM)
        product = tf.ConePair.from_matrices(PRODUCT_C, PRODUCT_CP, pform)
        x = np.array([0.9, -0.4, 1.3, 0.35])
        cone = tf.build_cone(np.array(PRODUCT_C, dtype=float), pform)
        self.timed("boosted.eval_E_boosted_r2_ms",
                   lambda: tf.eval_E_boosted(tf.BoostedArgument(cone=cone, x=x)), 20)
        self.timed("theta.kernel_phi_hat_r2_ms", lambda: tf.kernel_phi_hat(product, x), 20)

        self.timed("cones.check_cone_pair_a4_s", lambda: tf.check_cone_pair(
            tf.build_a4_example()), 1)
        self.timed("cones.check_cone_pair_r2_ms", lambda: tf.check_cone_pair(
            tf.ConePair.from_matrices(PRODUCT_C, PRODUCT_CP, pform)), 5)
        xq = [Fraction(k - 3, 3) for k in range(8)]
        self.timed("cones.det_identity_residual_a4_ms",
                   lambda: tf.det_identity_residual(a4, xq), 3)

        d12 = tf.BilinearForm.from_rows([[1, 0], [0, -2]])
        d12_pair = tf.ConePair.from_matrices([[1], [0]], [[2], [1]], d12)
        tau = 0.3 + 1.0j
        policy = tf.TruncationPolicy(tol=1e-8)

        def r1_spec(pair):
            return tf.ThetaSpec(form=d12, mu=(0, 0), p=(1, 0), b=np.array([0.1, 0.2]),
                                c_ell=np.array([0.05, -0.1]), tau=tau, kernel="holomorphic",
                                pair=pair)
        r2_spec = tf.ThetaSpec(form=pform, mu=(0,) * 4, p=PRODUCT_P,
                               b=np.array([0.1, 0.2, -0.15, 0.05]),
                               c_ell=np.array([0.05, -0.1, 0.2, 0.1]), tau=tau,
                               kernel="holomorphic", pair=product)
        tf.enumerate_lattice(r2_spec, 1.0)  # certify outside the timed calls
        pts, secs = self.timed("theta.enumerate_lattice_points_per_s",
                               lambda: tf.enumerate_lattice(r2_spec, 12.0), 3)
        self.values["theta.enumerate_lattice_points_per_s"] = pts.shape[0] / secs
        v, _ = self.timed("theta.eval_theta_r1_ms", lambda: tf.eval_theta(r1_spec(d12_pair), policy), 20)
        self.count("theta.points_per_value_r1", v.n_points)
        v, _ = self.timed("theta.eval_theta_r2_ms", lambda: tf.eval_theta(r2_spec, policy), 3)
        self.count("theta.points_per_value_r2", v.n_points)
        q1 = tf.ThetaSpec(form=d12, mu=(0, 0), p=(1, 0), b=np.zeros(2), c_ell=np.zeros(2),
                          tau=1j, kernel="holomorphic", pair=d12_pair)
        self.timed("theta.q_expansion_r1_ms", lambda: tf.q_expansion(q1, 20), 3)
        q2 = tf.ThetaSpec(form=pform, mu=(0,) * 4, p=PRODUCT_P, b=np.zeros(4), c_ell=np.zeros(4),
                          tau=1j, kernel="holomorphic", pair=product)
        qe, _ = self.timed("theta.q_expansion_r2_s", lambda: tf.q_expansion(q2, 10), 1)
        self.count("theta.points_per_qexp_r2", qe.n_points)
        a4_spec = tf.ThetaSpec(form=a4.form, mu=(0,) * 8, p=(0,) * 8, b=np.zeros(8),
                               c_ell=np.zeros(8), tau=2j, kernel="holomorphic", pair=a4)
        tf.enumerate_lattice(a4_spec, 1.0)
        try:
            out = tf.eval_theta(a4_spec, tf.TruncationPolicy(tol=1e-2, max_points=100_000))
            self.count("theta.points_a4", out.n_points)
        except tf.BudgetExceeded as exc:
            self.count("theta.points_a4", exc.partial.n_points)
        self.timed("theta.cold_pair_eval_ms", lambda: tf.eval_theta(r1_spec(
            tf.ConePair.from_matrices([[1], [0]], [[2], [1]], d12)), policy), 10)

        self.timed("verify.run_suite_fast_s", lambda: tf.run_suite("fast", seed=0), 1)

        self.cli("cli.startup_ms", ["errfn", "--kind", "M", "--frame", "I1", "--u", "1"], 3)
        self.cli("cli.cones_a4_ms", ["cones", "--builtin", "a4"], 1)
        cfg = str(DATA / "theta_d12.json")
        self.cli("cli.theta_value_ms", ["theta", "--config", cfg, "--mode", "value"], 3)
        self.cli("cli.theta_qexp_ms", ["theta", "--config", cfg, "--mode", "qexp",
                                       "--terms", "20"], 2)
        return self.values

