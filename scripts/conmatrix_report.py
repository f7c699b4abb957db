#!/usr/bin/env python3
"""Tabulate connectivity-matrix invariants across boundary sizes.

For each n this prints the state count, the time to build the connectivity
bundle (A with its exact inverse), and the invariants the package reads off
B^T * A * B = diag(alpha), each next to an independent route: the
determinant prod(alpha) next to fraction-free elimination and the
orbit-product prediction, and the torsion of the integer lattice quotient
from the Smith form of diag(|alpha|) next to the Smith normal form of A by
elimination.  A row whose routes differ is marked MISMATCH.  The row ends
with its total time.  A quick way to see the combinatorial structure grow
before committing to a cut size.

Usage:
  python3 scripts/conmatrix_report.py --max-n 5 [--check-inverse]
"""

import argparse
import math
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))
sys.path.insert(0, str(ROOT / "tests"))  # the elimination and lattice references

from elimination import fraction_free_determinant, rational_inverse_oracle, smith_normal_form
from lattice import bell_number, orbits
from relfact.conmatrix import MAX_BUNDLE_GROUND_SET, invert_connectivity_matrix
from relfact.linalg import diagonal_smith_form
from relfact.partitions import coherent_order


def torsion_text(factors) -> str:
    if not factors.torsion_prime_powers:
        return "trivial"
    return "+".join(
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

    print(
        f"{'n':>2} {'states':>6} {'bundle_s':>8} {'det':>22} {'det(Bareiss)':>22} "
        f"{'orbit product':>16} {'torsion'} {'torsion(SNF)'}"
    )
    for n in range(1, args.max_n + 1):
        t0 = time.perf_counter()
        bundle = invert_connectivity_matrix(coherent_order(n))
        bundle_s = time.perf_counter() - t0
        A = bundle.A
        det = math.prod(bundle.alpha)
        reference_det = fraction_free_determinant(A)
        predicted = math.prod(math.factorial(o.block_count - 1) ** o.size for o in orbits(n))
        torsion = torsion_text(diagonal_smith_form([abs(a) for a in bundle.alpha]))
        reference_torsion = torsion_text(smith_normal_form(A))
        line = (
            f"{n:>2} {bell_number(n):>6} {bundle_s:>8.3f} {det:>22} {reference_det:>22} "
            f"{predicted:>16} {torsion} {reference_torsion}"
        )
        if det != reference_det or abs(det) != predicted or torsion != reference_torsion:
            line += "  MISMATCH"
        if args.check_inverse:
            ok = bundle.A_inv == rational_inverse_oracle(A)
            line += "  inverse=ok" if ok else "  inverse=MISMATCH"
        line += f"  ({time.perf_counter() - t0:.2f}s)"
        print(line)
    return 0


if __name__ == "__main__":
    sys.exit(main())
