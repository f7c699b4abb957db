#!/usr/bin/env python3
"""Tabulate connectivity-matrix invariants across boundary sizes.

For each n this prints the state count, the determinant from fraction-free
elimination next to the orbit-product prediction, and the torsion of the
integer lattice quotient from the Smith normal form.  A quick way to see
the combinatorial structure grow before committing to a cut size.

Usage:
  python3 scripts/conmatrix_report.py --max-n 5
"""

import argparse
import math
import sys
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from relfact.conmatrix import connectivity_matrix, invert_connectivity_matrix
from relfact.linalg import fraction_free_determinant, smith_normal_form
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
    parser.add_argument("--max-n", type=int, default=5)
    parser.add_argument("--check-inverse", action="store_true",
                        help="also build the inverse and verify it against elimination")
    args = parser.parse_args()

    print(f"{'n':>2} {'states':>6} {'det':>22} {'orbit product':>16} {'torsion'}")
    for n in range(1, args.max_n + 1):
        t0 = time.perf_counter()
        A = connectivity_matrix(coherent_order(n))
        det = fraction_free_determinant(A)
        predicted = 1
        for o in orbits(n):
            predicted *= math.factorial(o.block_count - 1) ** o.size
        factors = smith_normal_form(A)
        line = (
            f"{n:>2} {bell_number(n):>6} {det:>22} {predicted:>16} {torsion_text(factors)}"
        )
        if abs(det) != predicted:
            line += "  MISMATCH"
        if args.check_inverse:
            from relfact.linalg import rational_inverse_oracle

            bundle = invert_connectivity_matrix(coherent_order(n))
            ok = bundle.A_inv == rational_inverse_oracle(A)
            line += "  inverse=ok" if ok else "  inverse=MISMATCH"
        line += f"  ({time.perf_counter() - t0:.2f}s)"
        print(line)
    return 0


if __name__ == "__main__":
    sys.exit(main())
