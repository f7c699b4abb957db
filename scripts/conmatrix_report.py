#!/usr/bin/env python3
"""Tabulate connectivity-matrix invariants across boundary sizes.

For each n this prints the state count, the time to build the connectivity
bundle (A with its exact inverse), the determinant from fraction-free
elimination next to the orbit-product prediction, and the torsion of the
integer lattice quotient from the Smith normal form.  The row ends with its
total time.  A quick way to see the combinatorial structure grow before
committing to a cut size.

Usage:
  python3 scripts/conmatrix_report.py --max-n 5
"""

import argparse
import math
import sys
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from relfact.conmatrix import MAX_BUNDLE_GROUND_SET, invert_connectivity_matrix
from relfact.linalg import fraction_free_determinant, rational_inverse_oracle, smith_normal_form
from relfact.partitions import bell_number, coherent_order, orbits


def torsion_text(factors) -> str:
    if not factors.torsion_prime_powers:
        return "trivial"
    return " + ".join(
        f"Z_{p ** k}^{mult}" if mult > 1 else f"Z_{p ** k}"
        for p, k, mult in factors.torsion_prime_powers
    )


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--max-n", type=int, default=5,
                        help=f"largest boundary size, at most {MAX_BUNDLE_GROUND_SET}")
    parser.add_argument("--check-inverse", action="store_true",
                        help="also verify the inverse against elimination")
    args = parser.parse_args()
    if args.max_n > MAX_BUNDLE_GROUND_SET:
        parser.error(f"--max-n must be at most {MAX_BUNDLE_GROUND_SET}, got {args.max_n}")

    print(f"{'n':>2} {'states':>6} {'bundle_s':>8} {'det':>22} {'orbit product':>16} {'torsion'}")
    for n in range(1, args.max_n + 1):
        t0 = time.perf_counter()
        bundle = invert_connectivity_matrix(coherent_order(n))
        bundle_s = time.perf_counter() - t0
        A = bundle.A
        det = fraction_free_determinant(A)
        predicted = 1
        for o in orbits(n):
            predicted *= math.factorial(o.block_count - 1) ** o.size
        factors = smith_normal_form(A)
        line = (
            f"{n:>2} {bell_number(n):>6} {bundle_s:>8.3f} {det:>22} {predicted:>16} "
            f"{torsion_text(factors)}"
        )
        if abs(det) != predicted:
            line += "  MISMATCH"
        if args.check_inverse:
            ok = bundle.A_inv == rational_inverse_oracle(A)
            line += "  inverse=ok" if ok else "  inverse=MISMATCH"
        line += f"  ({time.perf_counter() - t0:.2f}s)"
        print(line)
    return 0


if __name__ == "__main__":
    sys.exit(main())
