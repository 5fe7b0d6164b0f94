"""Monte Carlo uncorrectable-error rates for one fast-family instance
across a grid of dephasing probabilities, next to the analytic block
failure bound.

Each grid point runs the same seeded trial schedule, so rows are
reproducible bit for bit.
"""
import argparse
import sys

from pccss.bounds import pz_upper_bound
from pccss.css import fast_family
from pccss.harness import ExperimentConfig, run_trials


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--N", type=int, default=1024)
    ap.add_argument("--n0", type=int, default=16)
    ap.add_argument("--c", type=int, default=3)
    ap.add_argument("--d", type=int, default=6)
    ap.add_argument("--code-seed", type=int, default=0)
    ap.add_argument("--zeta", type=float, default=float("inf"))
    ap.add_argument("--trials", type=int, default=20000)
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--pz", type=float, nargs="+",
                    default=[0.02, 0.05, 0.08, 0.11, 0.14])
    args = ap.parse_args()

    code = fast_family(args.N, args.n0, args.c, args.d, args.code_seed,
                       validate=False)
    print("pz,x_rate,z_rate,z_upper95,pz_bound,pz_bound_tight")
    for pz in args.pz:
        cfg = ExperimentConfig(
            p=pz,
            zeta=args.zeta,
            trials=args.trials,
            n=args.N,
            n0=args.n0,
            seed=args.seed,
        )
        _, summary = run_trials(cfg, code=code)
        bound = pz_upper_bound(args.N, args.n0, pz)
        tight = pz_upper_bound(args.N, args.n0, pz, tight=True)
        print(f"{pz:g},{summary['x_rate']:.6g},{summary['z_rate']:.6g},"
              f"{summary['z_wilson_upper95']:.6g},{bound:.6g},{tight:.6g}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
