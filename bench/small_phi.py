#!/usr/bin/env python3
"""Find points where the rank-2 completed kernel misses its reference.

    python3 bench/small_phi.py

Draws COUNT points x ~ N(0, 2.5^2 I_4) from numpy's generator seeded with
SEED, rounded to three decimals, evaluates kernel_phi_hat on the product
pair c = (1,0), c' = (2,1) on diag(1,-2) + diag(1,-2), and compares it with
the product of the two rank-1 kernels computed without cancellation.
Points that miss by 1e-5 relative or more (10^5 times the check's
tolerance), or come back exactly 0, are marked. The fixed inputs of the
known-fault operation of the errfn workload (SMALL_PHI_POINTS in
tfbench/errfn.py) are four of the marked points of this table; they are
marked `stored`, and the script exits 1 if one of them is not drawn or no
longer misses.
"""

import sys
from pathlib import Path

import numpy as np

ROOT = Path(__file__).resolve().parent.parent
sys.path[:0] = [str(ROOT / "src"), str(ROOT / "bench")]

import thetaforge as tf  # noqa: E402
from tfbench import errfn  # noqa: E402


SEED = 0
COUNT = 40
MISS = 1e-5


def main() -> int:
    form = tf.BilinearForm.from_rows(errfn.PRODUCT_FORM)
    pair = tf.ConePair.from_matrices(errfn.PRODUCT_C, errfn.PRODUCT_CP, form)
    drawn = np.round(np.random.default_rng(SEED).normal(size=(COUNT, 4)) * 2.5, 3)
    stored = {tuple(x) for x in errfn.SMALL_PHI_POINTS}
    found = set()
    print(f"{'x':>34}  {'reference':>11}  {'library':>11}  {'rel. error':>10}")
    for x in drawn:
        want = float(errfn.product_kernel_reference(x)[0][0])
        got = tf.kernel_phi_hat(pair, x)
        rel = abs(got - want) / abs(want) if want else float("inf")
        misses = rel >= MISS or got == 0.0
        mark = ("  <- misses" if misses else "") + (", stored" if tuple(x) in stored else "")
        if misses and tuple(x) in stored:
            found.add(tuple(x))
        print(f"{np.array2string(x, precision=3):>34}  {want:11.3e}  {got:11.3e}  "
              f"{rel:10.1e}{mark}")
    lost = stored - found
    for x in sorted(lost):
        print(f"stored point {x} is not a marked point of this table")
    return 1 if lost else 0


if __name__ == "__main__":
    sys.exit(main())
