"""Decode-time scaling scan over a geometric ladder of code sizes.

Prints the timing CSV from the harness: Z-decode seconds per pass at each
size, plus the ratio for each exact doubling.  Exits 1 when a ratio
exceeds the threshold.
"""
import argparse
import sys

from pccss.css import fast_family
from pccss.harness import timing_scaling


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--min-exp", type=int, default=10, help="smallest N = 2^e")
    ap.add_argument("--max-exp", type=int, default=16, help="largest N = 2^e")
    ap.add_argument("--n0", type=int, default=16)
    ap.add_argument("--trials", type=int, default=32)
    ap.add_argument("--p", type=float, default=0.05)
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--repeats", type=int, default=3)
    ap.add_argument("--threshold", type=float, default=2.5)
    args = ap.parse_args()

    codes = [
        fast_family(2**e, args.n0, 3, 6, 0, validate=False)
        for e in range(args.min_exp, args.max_exp + 1)
    ]
    scan = timing_scaling(
        codes,
        trials=args.trials,
        p=args.p,
        seed=args.seed,
        repeats=args.repeats,
        threshold=args.threshold,
    )
    sys.stdout.write(scan.csv_text())
    return 0 if scan.ok else 1


if __name__ == "__main__":
    sys.exit(main())
