#!/usr/bin/env python3
"""Generate a directory of decomposition fixtures for `relfact verify`.

Writes the bridge decomposition plus seeded random decompositions for each
boundary size, including an all-terminal batch so the verify harness also
exercises the random-cluster identities.

The defaults (seed 2027, two fixtures per boundary size, sizes 1..3)
reproduce the committed fixtures/ directory byte for byte.

Usage:
  python3 scripts/make_fixtures.py --out fixtures
"""

import argparse
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))
sys.path.insert(0, str(ROOT / "tests"))  # the corpus generator

from corpus import bridge_decomposition, corpus, decomposition_to_obj
from relfact import jsonio


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--out", default="fixtures", help="output directory")
    parser.add_argument("--seed", type=int, default=2027)
    parser.add_argument("--per-n", type=int, default=2, help="fixtures per boundary size")
    parser.add_argument("--max-n", type=int, default=3)
    args = parser.parse_args()

    # every draw is made before anything is written, so a boundary size
    # that no draw fits leaves the output directory as it was
    docs = {"bridge": bridge_decomposition()}
    try:
        for n in range(1, args.max_n + 1):
            docs.update((f"cut{n}_{i}", d) for i, d in enumerate(corpus(args.seed, n, args.per_n)))
            allterms = corpus(args.seed + 1, n, max(1, args.per_n // 2), terminal_mode="all")
            docs.update((f"allterm{n}_{i}", d) for i, d in enumerate(allterms))
    except ValueError as exc:
        parser.error(str(exc))

    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    for name, d in docs.items():
        path = out / f"{name}.json"
        path.write_text(jsonio.dumps_canonical(decomposition_to_obj(d)))
        print(f"wrote {path}")
    print(f"done; run: relfact verify --input {out}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
