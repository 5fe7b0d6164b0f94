"""Tabulate the hashing bound against the family's achievable rate.

Writes one CSV (p, hashing, one achievable column per asymmetry, one gap
column per asymmetry) and prints the largest gap and the zero-rate
crossover for each asymmetry value.
"""
import argparse
import sys

from pccss.bounds import (
    curves_to_csv,
    gap_curves,
    max_gap,
    pccss_channel_rate,
    rate_curves,
    solve_threshold,
)


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--zeta", type=float, action="append",
                    help="channel asymmetry, repeatable (default 10, 100, 1000)")
    ap.add_argument("--pmax", type=float, default=0.15)
    ap.add_argument("--step", type=float, default=1e-4)
    ap.add_argument("--out", help="CSV path (default stdout)")
    args = ap.parse_args()
    zetas = args.zeta or [10.0, 100.0, 1000.0]

    curves = rate_curves(zetas, pmax=args.pmax, step=args.step)
    gaps = gap_curves(curves, zetas)
    csv = curves_to_csv(curves + gaps)

    if args.out:
        with open(args.out, "w", encoding="utf-8") as fh:
            fh.write(csv)
    else:
        sys.stdout.write(csv)

    for zeta, gap_curve in zip(zetas, gaps):
        gap = max_gap(gap_curve)
        crossover = solve_threshold(
            lambda p: pccss_channel_rate(p, zeta), 1e-6, 0.5, tol=1e-8
        )
        print(f"zeta={zeta:g}  max_gap={gap:.6f}  zero-rate crossover p={crossover:.6f}",
              file=sys.stderr)
    return 0


if __name__ == "__main__":
    sys.exit(main())
