"""Command-line front end over the plain-text bundle formats.

Every subcommand is a thin shell around one library call; file formats
live behind the module contracts. Exit codes are stable for scripting:
0 success, 1 validation failure, 2 usage or input error.
"""
from __future__ import annotations

import argparse
import functools
import sys

import numpy as np

from .bounds import curves_to_csv, gap_curves, max_gap, rate_curves
from .codes import LinearCode, _from_checks, code_from_text, lift_block, make_repetition
from .css import (
    check_valid,
    check_valid_stabilizer,
    css_from_text,
    css_to_text,
    distance_css,
    distance_stabilizer,
    fast_family,
    make_css,
    make_enlarged,
    make_pccss,
    stab_from_text,
    stab_to_text,
)
from .decode import (
    _OUTER_DECODERS,
    _check_flip_syndrome,
    exhaustive_decode,
    pccss_decode_x_rows,
    pccss_decode_z,
)
from .harness import ExperimentConfig, adversarial_sweep, run_trials
from .matgf import rows_to_text
from .stabcirc import build_encoder, circuit_to_text

__all__ = ["build_parser", "main"]


def _at_least_one(name: str, value: int) -> int:
    if value < 1:
        raise ValueError(f"{name} must be >= 1, got {value}")
    return value


def _read_text(path: str) -> str:
    with open(path, "r", encoding="utf-8") as fh:
        return fh.read()


def _write_text(path: str, text: str) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(text)


def _bundle_kind(path: str, text: str) -> str:
    head = text.split(None, 1)
    kind = head[0] if head else ""
    if kind not in ("csscode", "stabcode"):
        raise ValueError(f"{path}: unrecognized bundle header {kind!r}")
    return kind


def _load_component(path: str) -> LinearCode:
    code, _ = code_from_text(_read_text(path))
    return code


# ------------------------------------------------------------- subcommands

def _cmd_construct(args) -> int:
    if args.kind == "fast":
        if args.N is None or args.n0 is None:
            raise ValueError("construct fast needs --N and --n0")
        if args.outer == "rep":
            block = make_repetition(args.n0)  # refuses n0 < 2 before n0 = 0 can divide
            copies, rem = divmod(args.N, args.n0)
            if rem:
                raise ValueError(f"block length {args.n0} must divide N = {args.N}")
            inner = lift_block(block, copies)
            q = make_pccss(inner, make_repetition(copies))
        else:
            q = fast_family(args.N, args.n0, args.c, args.d, args.seed)
        _write_text(args.out, css_to_text(q))
        print(f"wrote [[{q.n}, {q.k}]] csscode bundle to {args.out}")
        return 0

    if args.code1 is None or args.code2 is None:
        raise ValueError(f"construct {args.kind} needs --code1 and --code2")
    c1 = _load_component(args.code1)
    c2 = _load_component(args.code2)
    if args.kind == "enlarged":
        s = make_enlarged(c1, c2, seed=args.seed, attempts=args.attempts)
        _write_text(args.out, stab_to_text(s))
        print(f"wrote [[{s.n}, {s.k}]] stabcode bundle to {args.out}")
        return 0
    q = make_css(c1, c2) if args.kind == "css" else make_pccss(c1, c2)
    _write_text(args.out, css_to_text(q))
    print(f"wrote [[{q.n}, {q.k}]] csscode bundle to {args.out}")
    return 0


def _cmd_check(args) -> int:
    text = _read_text(args.bundle)
    if _bundle_kind(args.bundle, text) == "csscode":
        report = check_valid(css_from_text(text, validate=False))
    else:
        report = check_valid_stabilizer(stab_from_text(text, validate=False))
    if report.ok:
        print("ok")
        return 0
    for message in report.messages:
        print(f"violation: {message}")
    return 1


def _cmd_distance(args) -> int:
    text = _read_text(args.bundle)
    if _bundle_kind(args.bundle, text) == "csscode":
        q = css_from_text(text, validate=False)
        cap = args.cap if args.cap is not None else 26
        sides = ("x", "z") if args.side == "both" else (args.side,)
        for side in sides:
            dist = distance_css(q, side, cap=cap)
            if side == "x":
                q.d_x = dist
            else:
                q.d_z = dist
            print(f"d_{side} {dist}")
        q.d_method = "exhaustive"
        _write_text(args.bundle, css_to_text(q))
    else:
        if args.side != "both":
            raise ValueError("stabcode bundles have a single symplectic distance")
        s = stab_from_text(text, validate=False)
        cap = args.cap if args.cap is not None else 12
        s.d = distance_stabilizer(s, cap=cap)
        s.d_method = "exhaustive"
        print(f"d {s.d}")
        _write_text(args.bundle, stab_to_text(s))
    return 0


def _side_decoder(q, side: str):
    """The decoder, one syndrome per call, of a side that is not decoded as
    a stack: the Z side of a code with blocks, or either side of one
    without."""
    if q.n0 is not None:
        return lambda s: pccss_decode_z(q, s)
    side_code = _from_checks(q.hx if side == "x" else q.hz)
    return lambda s: exhaustive_decode(side_code, s)


def _syndrome_entries(tokens: list[str], q: int, where: str) -> np.ndarray:
    """The entries of one syndrome line: element indices of GF(q) written
    in plain decimal, as the bundle writer writes them."""
    values = [int(t) if t.isascii() and t.isdigit() else q for t in tokens]
    if any(v >= q or str(v) != t for v, t in zip(values, tokens)):
        allowed = "0/1" if q == 2 else f"0..{q - 1}"
        raise ValueError(f"{where}: syndromes must be {allowed} entries")
    return np.array(values, dtype=np.int64)


def _cmd_decode(args) -> int:
    text = _read_text(args.bundle)
    if _bundle_kind(args.bundle, text) != "csscode":
        raise ValueError("decode needs a csscode bundle")
    q = css_from_text(text)
    max_rounds = _at_least_one("round cap", args.max_rounds)
    # the X side of a code with blocks decodes all syndromes as one stack
    # after the last line, but checks each line as it is read, so errors
    # come in line order; every other side decodes each line as it is read
    stacked = q.n0 is not None and args.side == "x"
    decoder = None if stacked else _side_decoder(q, args.side)
    check_rows = (q.hx if args.side == "x" else q.hz).rows if q.n0 is None else None

    outcomes, stack = [], []
    for lineno, line in enumerate(_read_text(args.syndrome).splitlines(), 1):
        stripped = line.strip()
        if not stripped or stripped.startswith("#"):
            continue
        s = _syndrome_entries(stripped.split(), q.field.size, f"{args.syndrome}:{lineno}")
        if check_rows is not None and len(s) != check_rows:
            raise ValueError(
                f"{args.syndrome}:{lineno}: expected {check_rows} bits, got {len(s)}"
            )
        if stacked:
            _check_flip_syndrome(q.outer.H, len(s))
            stack.append(s)
        else:
            outcomes.append(decoder(s))
    if stack:
        outcomes = pccss_decode_x_rows(q, np.array(stack), max_rounds=max_rounds)
    estimates = np.array([out.estimate for out in outcomes]).reshape(len(outcomes), q.n)
    payload = "".join(
        f"{out.status} {est}\n"
        for out, est in zip(outcomes, rows_to_text(estimates, q.field.size).splitlines())
    )
    if args.out:
        _write_text(args.out, payload)
        print(f"decoded {len(outcomes)} syndromes to {args.out}")
    else:
        sys.stdout.write(payload)
    return 0


def _cmd_encode_circuit(args) -> int:
    text = _read_text(args.bundle)
    if _bundle_kind(args.bundle, text) != "csscode":
        raise ValueError("encode-circuit needs a csscode bundle")
    q = css_from_text(text)
    circuit = build_encoder(q)
    _write_text(args.out, circuit_to_text(circuit))
    meta = circuit.meta
    print(f"qubits {circuit.n}")
    print(f"gates {meta['gate_count']} depth {meta['depth']}")
    print(
        f"stage-one cnots {meta['stage_one_cnots']} "
        f"stage-two cnots {meta['stage_two_cnots']} hadamards {meta['hadamards']}"
    )
    return 0


def _cmd_bounds(args) -> int:
    pmax = args.pmax if args.pmax is not None else (0.15 if args.fig1 else 0.5)
    step = args.step if args.step is not None else (1e-4 if args.fig1 else 1e-3)
    zetas = args.zeta
    curves = rate_curves(zetas, pmax=pmax, step=step)
    gaps = gap_curves(curves, zetas)
    csv = curves_to_csv(curves + gaps)
    if args.out:
        _write_text(args.out, csv)
        for zeta, gap in zip(zetas, gaps):
            print(f"zeta={zeta:g} max_gap {max_gap(gap):.6g}")
    else:
        sys.stdout.write(csv)
    return 0


def _experiment_code(args):
    if args.bundle:
        text = _read_text(args.bundle)
        if _bundle_kind(args.bundle, text) != "csscode":
            raise ValueError("experiments need a csscode bundle")
        return css_from_text(text)
    if args.N is None or args.n0 is None:
        raise ValueError("need either --bundle or both --N and --n0")
    return fast_family(args.N, args.n0, args.c, args.d, args.code_seed, validate=False)


def _cmd_simulate(args) -> int:
    cfg = ExperimentConfig(
        p=args.p,
        zeta=args.zeta,
        trials=args.trials,
        n=args.N,
        n0=args.n0,
        c=args.c,
        d=args.d,
        code_seed=args.code_seed,
        bundle=args.bundle,
        seed=args.seed,
        decoder=args.decoder,
        max_rounds=_at_least_one("round cap", args.max_rounds),
        out=args.out,
    )
    _, summary = run_trials(cfg)
    for key, value in summary.items():
        print(f"{key} {value}")
    return 0


def _cmd_sweep(args) -> int:
    q = _experiment_code(args)
    weights = [int(w) for w in args.weights.split(",") if w.strip()]
    if not weights:
        raise ValueError("no weights given")
    rows = adversarial_sweep(
        q,
        args.side,
        weights,
        samples=args.samples,
        seed=args.seed,
        decoder=args.decoder,
        max_rounds=_at_least_one("round cap", args.max_rounds),
    )
    header = "weight trials successes rate exhaustive"
    lines = [header] + [
        f"{r.weight} {r.trials} {r.successes} {r.rate:.6g} {int(r.exhaustive)}"
        for r in rows
    ]
    print("\n".join(lines))
    if args.out:
        _write_text(args.out, "\n".join(ln.replace(" ", ",") for ln in lines) + "\n")
    return 0


# ------------------------------------------------------------------ parser

def _add_experiment_flags(p: argparse.ArgumentParser) -> None:
    p.add_argument("--N", type=int, help="total bit count of a fast-family code")
    p.add_argument("--n0", type=int, help="inner block length")
    p.add_argument("--c", type=int, default=3, help="outer graph bit degree")
    p.add_argument("--d", type=int, default=6, help="outer graph check degree")
    p.add_argument("--code-seed", type=int, default=0, help="code construction seed")
    p.add_argument("--bundle", help="csscode bundle path (instead of --N/--n0)")
    p.add_argument("--seed", type=int, default=0, help="sampling seed")
    p.add_argument("--max-rounds", type=int, default=100, help="flip-decoder round cap")
    p.add_argument("--out", help="write per-trial records (CSV) here")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="pccss",
        description="Asymmetric CSS codes from classical code products: "
        "construction, validation, distance certification, decoding, "
        "encoding circuits, rate bounds, and simulation.",
    )
    sub = parser.add_subparsers(dest="subcommand", required=True, metavar="subcommand")

    p = sub.add_parser("construct", help="build a code and write its bundle")
    p.add_argument("kind", choices=("fast", "css", "pccss", "enlarged"),
                   help="construction to run")
    p.add_argument("--N", type=int, help="total bit count (fast)")
    p.add_argument("--n0", type=int, help="inner block length (fast)")
    p.add_argument("--outer", choices=("expander", "rep"), default="expander",
                   help="outer code family for the fast construction")
    p.add_argument("--c", type=int, default=3, help="outer graph bit degree")
    p.add_argument("--d", type=int, default=6, help="outer graph check degree")
    p.add_argument("--seed", type=int, default=0, help="construction seed")
    p.add_argument("--code1", help="first component code bundle")
    p.add_argument("--code2", help="second component code bundle")
    p.add_argument("--attempts", type=int, default=2000,
                   help="representative-shift attempts (enlarged)")
    p.add_argument("--out", required=True, help="output bundle path")
    p.set_defaults(func=_cmd_construct)

    p = sub.add_parser("check", help="print a bundle's validity report")
    p.add_argument("bundle", help="csscode or stabcode bundle path")
    p.set_defaults(func=_cmd_check)

    p = sub.add_parser("distance", help="certify distances and update the bundle")
    p.add_argument("bundle", help="csscode or stabcode bundle path")
    p.add_argument("--side", choices=("x", "z", "both"), default="both",
                   help="which distance to certify (csscode only)")
    p.add_argument("--cap", type=int, help="refuse dimensions beyond this size")
    p.add_argument("--workers", type=int, help="accepted; changes nothing")
    p.set_defaults(func=_cmd_distance)

    p = sub.add_parser("decode", help="decode syndromes from a file")
    p.add_argument("bundle", help="csscode bundle path")
    p.add_argument("--side", choices=("x", "z"), required=True,
                   help="which check matrix produced the syndromes")
    p.add_argument("--syndrome", required=True,
                   help="file with one whitespace-separated syndrome per line")
    p.add_argument("--max-rounds", type=int, default=100,
                   help="flip-decoder round cap")
    p.add_argument("--workers", type=int, help="accepted; changes nothing")
    p.add_argument("--out", help="write outcomes here instead of stdout")
    p.set_defaults(func=_cmd_decode)

    p = sub.add_parser("encode-circuit", help="emit the encoding circuit")
    p.add_argument("bundle", help="csscode bundle with block structure")
    p.add_argument("--out", required=True, help="output circuit path")
    p.set_defaults(func=_cmd_encode_circuit)

    p = sub.add_parser("bounds", help="tabulate hashing and achievable rates")
    p.add_argument("--zeta", type=float, action="append", required=True,
                   help="channel asymmetry (repeatable)")
    p.add_argument("--fig1", action="store_true",
                   help="use the gap-comparison grid (pmax 0.15, step 1e-4)")
    p.add_argument("--pmax", type=float, help="largest total error probability")
    p.add_argument("--step", type=float, help="grid step")
    p.add_argument("--out", help="write the CSV here instead of stdout")
    p.set_defaults(func=_cmd_bounds)

    p = sub.add_parser("simulate", help="run Monte Carlo decoding trials")
    _add_experiment_flags(p)
    p.add_argument("--p", type=float, required=True, help="total error probability")
    p.add_argument("--zeta", type=float, required=True,
                   help="channel asymmetry (inf for pure dephasing)")
    p.add_argument("--trials", type=int, required=True, help="trial count")
    p.add_argument("--decoder", choices=tuple(_OUTER_DECODERS), default="flip",
                   help="X-side decoding strategy")
    p.add_argument("--workers", type=int, help="accepted; changes nothing")
    p.set_defaults(func=_cmd_simulate)

    p = sub.add_parser("sweep", help="decode every error pattern of fixed weights")
    _add_experiment_flags(p)
    p.add_argument("--side", choices=("x", "z"), required=True,
                   help="error type to sweep")
    p.add_argument("--weights", required=True,
                   help="comma-separated error weights, e.g. 1,2,3")
    p.add_argument("--samples", type=int, default=500,
                   help="patterns per weight when enumeration is too large")
    p.add_argument("--decoder", choices=("auto", *_OUTER_DECODERS),
                   default="auto", help="X-side decoding strategy")
    p.set_defaults(func=_cmd_sweep)

    return parser


@functools.cache
def _parser() -> argparse.ArgumentParser:
    """build_parser(), once per process: building it costs more than most
    commands on a small code, and parse_args keeps no state between calls."""
    return build_parser()


def main(argv=None) -> int:
    args = _parser().parse_args(argv)
    try:
        # --workers changes nothing; kept and range-checked so command lines keep exit codes
        if getattr(args, "workers", None) is not None:
            _at_least_one("worker count", args.workers)
        return args.func(args)
    except (ValueError, RuntimeError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
