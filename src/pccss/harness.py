"""Seeded Monte Carlo experiments on block-concatenated CSS codes: logical
failure rates under asymmetric Pauli noise, adversarial fixed-weight sweeps,
and the Z decoder's time-scaling scan.

Every trial is keyed by (seed, trial index), so record streams are identical
however the trials are grouped.  run_trials and adversarial_sweep sample
in blocks of trials and decode in groups of whole blocks; run_trials draws
every block through one sampler, made once per run, whose Philox generator
and buffers the blocks reuse.  Each block is reduced at once to its block
parities, error weights and Z outcome; each group then forms its X
syndromes from the outer code's check-to-bit edge array, runs the outer
decoder once over its nonzero X syndromes and checks the X residuals.  The
Z side is solved in closed form: the majority estimate of a repetition
block has the block's syndrome, so its residual is all zeros or all ones,
decided by one compare of the block weight, and only the outer word of
those flags is checked against the outer row space.  The per-trial path
(sample_error, pccss_decode_x/_z, logical_check) stays public and is the
reference the grouped results are tested against.  A group's outcome stays
a set of numpy columns (X and Z error weights, summed from the block
weights both decoders form; X decode ok; flips; logical failures) through
the summary counts and the sweep; run_trials turns them into TrialRecords
and status strings only once, at the end.  A record's decode_seconds is its
share of its decode group's decoding time, not a per-trial measurement.
"""
from __future__ import annotations

import math
import os
import time
from dataclasses import dataclass, fields
from itertools import combinations

import numpy as np

from .bounds import pz_upper_bound
from .channel import PauliError, _Sampler, check_key, make_channel, sample_errors
from .css import _hz_products, css_from_text, fast_family
from .decode import (
    _OUTER_DECODERS,
    CORRECTED,
    DETECTED,
    _check_round_cap,
    _flip_kernel,
    _known_decoder,
    _outer_decoder,
    _per_code,
    _require_gf2,
    pccss_decode_z,
    syndrome_of,
)
from .matgf import in_rowspace, reduce_vector, rref

__all__ = [
    "ExperimentConfig",
    "TrialRecord",
    "SweepRow",
    "TimingRow",
    "TimingReport",
    "logical_check",
    "run_trials",
    "adversarial_sweep",
    "timing_scaling",
    "wilson_interval",
    "wilson_upper",
    "records_to_csv",
]


def wilson_interval(failures: int, trials: int, z: float = 1.959963984540054):
    """Two-sided Wilson score interval for a binomial rate."""
    if trials < 1:
        raise ValueError("need at least one trial")
    phat = failures / trials
    denom = 1 + z * z / trials
    center = (phat + z * z / (2 * trials)) / denom
    half = z * math.sqrt(phat * (1 - phat) / trials + z * z / (4 * trials * trials)) / denom
    return max(0.0, center - half), min(1.0, center + half)


def wilson_upper(failures: int, trials: int, z: float = 1.6448536269514722) -> float:
    """One-sided 95% Wilson upper confidence limit (default z)."""
    return wilson_interval(failures, trials, z=z)[1]


# ----------------------------------------------------------- logical check

def _check_rref(code):  # a classical code's, kept by decode._per_code
    return rref(code.H)


def _css_rrefs(q):  # (hx's, hz's) of a CSS code, kept by decode._per_code
    return rref(q.hx), rref(q.hz)


def logical_check(q, residual: PauliError) -> tuple[bool, bool]:
    """(x_failed, z_failed): a side fails when its residual commutes with
    every check yet is not itself a product of the other side's checks."""
    n0 = getattr(q, "n0", None)
    outer = getattr(q, "outer", None)
    if n0 and outer is not None:
        n2 = q.n // n0
        pi = residual.x.reshape(n2, n0).sum(axis=1).astype(np.uint8) % 2
        x_failed = bool(pi.any()) and not syndrome_of(outer.H, pi).any()
        blocks = residual.z.reshape(n2, n0)
        if (blocks ^ blocks[:, :1]).any():
            z_failed = False
        else:
            w = blocks[:, 0]
            if not w.any():
                z_failed = False
            else:
                z_failed = not in_rowspace(_per_code(outer, _check_rref), w)
        return x_failed, z_failed

    sx = syndrome_of(q.hx, residual.x)
    x_failed = not sx.any() and residual.x.any() and not in_rowspace(
        _per_code(q, _css_rrefs)[1], residual.x
    )
    sz = syndrome_of(q.hz, residual.z)
    z_failed = not sz.any() and residual.z.any() and not in_rowspace(
        _per_code(q, _css_rrefs)[0], residual.z
    )
    return bool(x_failed), bool(z_failed)


# ------------------------------------------------------------- experiments

@dataclass
class ExperimentConfig:
    """One Monte Carlo run.  seed and every trial index must lie in
    [0, 2^64)."""

    p: float
    zeta: float
    trials: int
    n: int | None = None
    n0: int | None = None
    c: int = 3
    d: int = 6
    code_seed: int = 0
    bundle: str | None = None
    seed: int = 0
    decoder: str = "flip"
    max_rounds: int = 100
    out: str | None = None

    def __post_init__(self):
        if self.trials < 1:
            raise ValueError("trial count must be >= 1")
        check_key("seed", self.seed)
        check_key("trial index", self.trials - 1)
        if self.decoder not in _OUTER_DECODERS:
            raise ValueError(f"unknown decoder {self.decoder!r}")
        _check_round_cap(self.max_rounds)
        if self.bundle is None and (self.n is None or self.n0 is None):
            raise ValueError("config needs either a bundle path or (n, n0)")
        if self.bundle is not None and not os.path.exists(self.bundle):
            raise ValueError(f"bundle {self.bundle!r} does not exist")

    # the benchmark runner records this; every run is one serial pass
    def resolved_partitions(self) -> int:
        return 1


@dataclass(frozen=True)
class TrialRecord:
    trial: int
    wt_x: int
    wt_z: int
    status_x: str
    status_z: str
    x_failed: bool
    z_failed: bool
    flips: int
    block_decodes: int
    decode_seconds: float


# the record fields in order, which are also the CSV columns
_FIELDS = tuple(f.name for f in fields(TrialRecord))


def _records(*columns) -> list[TrialRecord]:
    """TrialRecords from one column per field, in field order.  Each record
    gets its fields by one update of its __dict__, not by the frozen
    __init__'s object.__setattr__ per field; it equals, hashes and prints
    as the record TrialRecord(*values) builds."""
    records = []
    for values in zip(*columns):
        r = object.__new__(TrialRecord)
        r.__dict__.update(zip(_FIELDS, values))
        records.append(r)
    return records


def _build_code(bundle, n, n0, c, d, code_seed):
    """An experiment's code, for run_trials and the CLI's sweep: the csscode
    bundle at path bundle, read as UTF-8, else an unvalidated fast_family."""
    if bundle:
        with open(bundle, encoding="utf-8") as fh:
            return css_from_text(fh.read())
    return fast_family(n, n0, c=c, d=d, seed=code_seed, validate=False)


# Trials per sampling block.  The block's arrays grow with block size
# times code length, so longer codes take fewer trials per block to keep
# memory flat.
_BLOCK_TRIALS = 128
_BLOCK_BITS = _BLOCK_TRIALS * 1024


def _block_size(n: int) -> int:
    return max(1, min(_BLOCK_TRIALS, _BLOCK_BITS // n))


def _groups(q, total: int):
    """The sampling blocks of trials 0 .. total - 1, as (lo, hi) ranges, one
    list per decode group.  A group holds whole blocks: at least 64 trials,
    one word of the flip kernel's lanes, and enough for _BLOCK_BITS outer
    bits, so what it keeps of each trial (block parities, X syndromes)
    stays flat in N."""
    block = _block_size(q.n)
    group = block * -(-max(64, _BLOCK_BITS * q.n0 // q.n) // block)
    for lo in range(0, total, group):
        hi = min(lo + group, total)
        yield [(b, min(b + block, hi)) for b in range(lo, hi, block)]


def _require_blocks(q, what: str) -> None:
    """Refuse a code the block decoders cannot run: one without repetition
    blocks (n0) and an outer code, or one over a field other than GF(2)."""
    if getattr(q, "n0", None) is None or getattr(q, "outer", None) is None:
        raise ValueError(f"{what} needs a block-structured code with n0 and outer")
    _require_gf2(q, what)


def _syndromes(parity: np.ndarray, checks: np.ndarray) -> np.ndarray:
    """Outer syndromes of a stack of 0/1 block parities whose last column
    is the zero column the padding of the check-to-bit edge array (the
    outer _FlipKernel's checks) points at.  The unsigned sums wrap at a
    power of two, which keeps their parity."""
    return np.einsum("ijk->ik", parity[:, checks]) & 1


def _reduce_block(q, x: np.ndarray | None, z: np.ndarray):
    """Reduce a sampling block of errors (one trial per row) to what its
    decode group needs: (parity, wt_x, wt_z, z_logical, seconds).  parity
    holds the X block parities with the zero column n2 that _syndromes
    needs, or is None when x is None, which stands for an all-zero X side.
    Then, per row, the weights of the X and Z errors (uint64, summed from
    the block weights), the Z logical failure (bool), and the Z decoding
    time in seconds.  Block weights are of type np.min_scalar_type(n0), so
    no block wraps.

    The Z side needs no decoding pass.  A block's syndrome is its first
    n0 - 1 bits XORed with its last bit, and the majority decoder's
    estimate has that syndrome, so the block's residual is all zeros or all
    ones: its last bit XORed with the majority flag, which _z_residual
    reads off the block weight in one compare.  Like pccss_decode_z, the Z
    side always reports "corrected".

    Every array returned is new, so x and z may be views of buffers that
    the next block's draw overwrites.
    """
    t = len(z)
    n0 = q.n0
    n2 = q.n // n0
    block_weight = np.min_scalar_type(n0)
    parity = None
    wt_x = np.zeros(t, dtype=np.uint64)
    if x is not None:
        parity = np.zeros((t, n2 + 1), dtype=block_weight)
        # with no dtype given, einsum sums in the common type of its
        # operands and out, here block_weight
        np.einsum("ijk->ij", x.reshape(t, n2, n0), out=parity[:, :n2])
        wt_x = parity.sum(axis=1)
        parity &= 1

    t0 = time.perf_counter()
    blocks = z.reshape(t, n2, n0)
    weight = np.einsum("ijk->ij", blocks, dtype=block_weight)
    wt_z = weight.sum(axis=1)
    w = _z_residual(weight, blocks[:, :, -1], n0)
    seconds = time.perf_counter() - t0

    z_logical = np.zeros(t, dtype=bool)
    if (hit := np.flatnonzero(w.any(axis=1))).size:
        z_logical[hit] = reduce_vector(_per_code(q.outer, _check_rref), w[hit]).any(axis=1)
    return parity, wt_x, wt_z, z_logical, seconds


def _z_residual(weight: np.ndarray, last: np.ndarray, n0: int) -> np.ndarray:
    """Whether the majority decoder leaves a repetition block of length n0
    all ones, from the block's weight and its last bit; weight may be
    overwritten.

    The residual is the last bit XORed with the flag "more than h =
    (n0 - 1) // 2 bits differ from the last one".  With the last bit clear
    that is weight > h.  With it set, n0 - weight bits differ from it, and
    the residual is set when n0 - weight <= h, that is when weight exceeds
    n0 - 1 - h, which is h for odd n0 and h + 1 for even n0.  So one
    compare decides it: weight > h for odd n0 and weight - last > h for
    even n0 (weight >= last, so the unsigned difference does not wrap).
    """
    if n0 % 2 == 0:
        weight = np.subtract(weight, last, out=weight)
    return weight > (n0 - 1) // 2


def _decode_group(decode_outer, checks, blocks):
    """Decode the X side of a decode group, the list of its reduced
    sampling blocks (_reduce_block), and check the residuals: per row, the
    same outcome as pccss_decode_x (or the exhaustive outer decoder) and
    pccss_decode_z followed by logical_check.  checks is the outer code's
    check-to-bit edge array.

    Returns (wt_x, wt_z, ok_x, flips, x_logical, z_logical, seconds): per
    row, the error weights, whether the X decoder reports "corrected"
    (bool), its flip count (int64) and the logical_check flags of the
    residual (bool), then the group's decoding time in seconds (the outer
    decoder and the Z majority flags).

    The outer decoder runs once, on the group's nonzero X syndromes: rows
    with a zero syndrome, and every row of an all-zero X side, are
    "corrected" with a zero estimate and no flips.
    """
    parities, wt_x, wt_z, z_logical, seconds = zip(*blocks)
    wt_x, wt_z, z_logical = map(np.concatenate, (wt_x, wt_z, z_logical))
    seconds = sum(seconds)
    t = len(wt_z)
    ok_x = np.ones(t, dtype=bool)
    flips = np.zeros(t, dtype=np.int64)
    x_logical = np.zeros(t, dtype=bool)
    if parities[0] is not None:
        parity = np.concatenate(parities)
        s_x = _syndromes(parity, checks)
        t0 = time.perf_counter()
        rows = np.flatnonzero(s_x.any(axis=1))
        if rows.size:
            est_x, flips[rows], unsat = decode_outer(s_x[rows])
            ok_x[rows] = ~unsat.any(axis=1)
            parity[rows, :-1] ^= est_x
        seconds += time.perf_counter() - t0
        # only decoded rows can have a nonzero residual syndrome, and a
        # decoded row's is zero exactly when it is corrected
        x_logical = parity.any(axis=1)
        x_logical[rows] &= ok_x[rows]
    return wt_x, wt_z, ok_x, flips, x_logical, z_logical, seconds


def run_trials(cfg: ExperimentConfig, code=None):
    """Run cfg.trials seeded trials; returns (records, summary) and writes a
    CSV when cfg.out is set.

    Trials are sampled in blocks of consecutive indices and decoded in
    groups of whole blocks (_groups); every record depends only on
    (cfg.seed, trial), so the output is the same for any grouping.  Each
    sampling block is reduced at once to its block parities, weights and Z
    outcome, and the X side of a group is decoded in one outer decoder
    call.  One sampler draws every block of the run into the same buffers.
    When the channel has no X or Y errors (zeta = inf), it draws no X side
    and the X side is skipped.  Each group yields one numpy column per
    record field; the columns of all groups are joined once, the summary
    counts come from them, and the records are built in one pass at the
    end, the only place statuses become strings.  A
    record's decode_seconds is its share of its decode group's decoding
    time (the X and Z decoders, not sampling, syndromes or the logical
    check): the group's time divided by its trial count.
    """
    q = code if code is not None else _build_code(
        cfg.bundle, cfg.n, cfg.n0, cfg.c, cfg.d, cfg.code_seed)
    _require_blocks(q, "run_trials")
    ch = make_channel(cfg.p, cfg.zeta)
    decode_outer = _outer_decoder(q, cfg.decoder, cfg.max_rounds)
    checks = _per_code(q.outer, _flip_kernel).checks
    sampler = _Sampler(ch, q.n, cfg.seed, _block_size(q.n))
    columns = []
    for group in _groups(q, cfg.trials):
        blocks = []
        for lo, hi in group:
            blocks.append(_reduce_block(q, *sampler.draw(range(lo, hi))))
        *outcome, seconds = _decode_group(decode_outer, checks, blocks)
        size = group[-1][1] - group[0][0]
        columns.append((*outcome, np.full(size, seconds / size)))
    wt_x, wt_z, ok_x, flips, x_logical, z_failed, share = map(np.concatenate, zip(*columns))
    # the X decoder giving up counts as a failure; the Z decoder never does
    x_failed = x_logical | ~ok_x
    total = cfg.trials
    records = _records(
        range(total),
        wt_x.tolist(),
        wt_z.tolist(),
        [CORRECTED if ok else DETECTED for ok in ok_x.tolist()],
        [CORRECTED] * total,
        x_failed.tolist(),
        z_failed.tolist(),
        flips.tolist(),
        [q.n // q.n0] * total,
        share.tolist(),
    )

    # a failed trial is either detected-uncorrectable or, reported
    # corrected, a silent miscorrection
    x_fail = int(np.count_nonzero(x_failed))
    z_fail = int(np.count_nonzero(z_failed))
    x_detected = int(np.count_nonzero(~ok_x))
    summary = {
        "n": q.n,
        "n0": q.n0,
        "p": cfg.p,
        "zeta": cfg.zeta,
        "trials": total,
        "x_failures": x_fail,
        "z_failures": z_fail,
        "x_corrected": total - x_fail,
        "x_detected_uncorrectable": x_detected,
        "x_silent_miscorrections": x_fail - x_detected,
        "z_corrected": total - z_fail,
        "z_detected_uncorrectable": 0,
        "z_silent_miscorrections": z_fail,
        "x_rate": x_fail / total,
        "z_rate": z_fail / total,
        "x_wilson_upper95": wilson_upper(x_fail, total),
        "z_wilson_upper95": wilson_upper(z_fail, total),
        "pz_bound": pz_upper_bound(q.n, q.n0, ch.p_z + ch.p_y),
        "pz_bound_tight": pz_upper_bound(q.n, q.n0, ch.p_z + ch.p_y, tight=True),
    }
    if cfg.out:
        with open(cfg.out, "w") as fh:
            fh.write(records_to_csv(records, summary))
    return records, summary


def records_to_csv(records, summary=None) -> str:
    lines = [",".join(_FIELDS)]
    for r in records:
        vals = [getattr(r, f) for f in _FIELDS]
        lines.append(",".join(f"{v:.6g}" if isinstance(v, float) else str(v) for v in vals))
    if summary:
        for k, v in summary.items():
            lines.append(f"# {k} {v}")
    return "\n".join(lines) + "\n"


# -------------------------------------------------------- adversarial sweep

@dataclass(frozen=True)
class SweepRow:
    weight: int
    trials: int
    successes: int
    exhaustive: bool

    @property
    def rate(self) -> float:
        return self.successes / self.trials


# a sweep weight with at most this many patterns is enumerated, not sampled
_ENUMERATED = 10_000


def _weight_patterns(n: int, w: int, samples: int, rng):
    """The supports of one sweep weight as an index array of shape
    (patterns, w), and whether it holds every pattern of that weight."""
    if math.comb(n, w) <= _ENUMERATED:
        return np.array(list(combinations(range(n), w)), dtype=np.int64), True
    picks = [np.sort(rng.choice(n, size=w, replace=False)) for _ in range(samples)]
    return np.array(picks, dtype=np.int64).reshape(samples, w), False


def adversarial_sweep(q, side: str, weights, samples: int = 500, seed: int = 0,
                      decoder: str = "auto", max_rounds: int = 100):
    """Correction rate per exact error weight on one side.  Exhaustive when
    the pattern count is at most 10^4, sampled otherwise; a sampled weight
    needs samples >= 1."""
    side = side.lower()
    if side not in ("x", "z"):
        raise ValueError(f"side must be x or z, got {side!r}")
    _require_blocks(q, "adversarial_sweep")
    if any(w > q.n or w < 0 for w in weights):
        raise ValueError("weights must lie in [0, n]")
    if samples < 1 and any(math.comb(q.n, int(w)) > _ENUMERATED for w in weights):
        raise ValueError(f"sampled weights need a sample count >= 1, got {samples}")
    # a Z sweep has no X errors, so it never runs the outer decoder, but it
    # refuses an unknown decoder name as an X sweep does
    _known_decoder(decoder)
    decode_outer = _outer_decoder(q, decoder, max_rounds) if side == "x" else None
    checks = _per_code(q.outer, _flip_kernel).checks
    rng = np.random.default_rng(seed)
    rows = []
    for w in weights:
        patterns, exhaustive = _weight_patterns(q.n, int(w), samples, rng)
        good = 0
        for group in _groups(q, len(patterns)):
            blocks = []
            for lo, hi in group:
                errors = np.zeros((hi - lo, q.n), dtype=np.uint8)
                errors[np.arange(hi - lo)[:, None], patterns[lo:hi]] = 1
                blocks.append(_reduce_block(q, errors, np.zeros_like(errors)) if side == "x"
                              else _reduce_block(q, None, errors))
            _, _, ok_x, _, x_logical, z_logical, _ = _decode_group(decode_outer, checks, blocks)
            good += int(np.count_nonzero(ok_x & ~x_logical & ~z_logical))
        rows.append(SweepRow(weight=int(w), trials=len(patterns), successes=good,
                             exhaustive=exhaustive))
    return tuple(rows)


# ------------------------------------------------------------------ timing

@dataclass(frozen=True)
class TimingRow:
    n: int
    serial_seconds: float


@dataclass(frozen=True)
class TimingReport:
    rows: tuple[TimingRow, ...]
    ratios: tuple[float, ...]
    ok: bool
    threshold: float

    def csv_text(self) -> str:
        lines = ["n,serial_seconds"]
        for r in self.rows:
            lines.append(f"{r.n},{r.serial_seconds:.6g}")
        for i, ratio in enumerate(self.ratios):
            lines.append(f"# doubling_ratio_{i} {ratio:.4g}")
        lines.append(f"# ok {self.ok}")
        return "\n".join(lines) + "\n"


def timing_scaling(codes, trials: int = 32, p: float = 0.05, seed: int = 0,
                   repeats: int = 3, threshold: float = 2.5) -> TimingReport:
    """Z-decode time per pass over `trials` syndromes, on a code grid sorted
    by size; checks that it at most `threshold`-folds per size doubling.
    Time is this process's CPU time.  Each of `repeats` rounds times every
    size once, over a section that repeats the pass until it lasts
    _MIN_SECTION_SECONDS; a size reports the seconds per pass of its
    fastest round."""
    sizes = [q.n for q in codes]
    if sizes != sorted(sizes):
        raise ValueError("code grid must be sorted by n")
    ch = make_channel(p, math.inf)
    batches = [list(_hz_products(sample_errors(ch, q.n, seed, range(trials)).z, q.n0))
               for q in codes]
    serial = [math.inf] * len(codes)
    # rounds over the whole grid: a slow spell of the machine then lands on
    # one round of several sizes, not on every round of one size
    for _ in range(repeats):
        for i, q in enumerate(codes):
            serial[i] = min(serial[i], _timed_decode(q, batches[i]))
    rows = [TimingRow(n=q.n, serial_seconds=s) for q, s in zip(codes, serial)]
    ratios = []
    for prev, cur in zip(rows, rows[1:]):
        if cur.n == 2 * prev.n:
            ratios.append(cur.serial_seconds / prev.serial_seconds)
    ok = all(r <= threshold for r in ratios)
    return TimingReport(rows=tuple(rows), ratios=tuple(ratios), ok=ok, threshold=threshold)


# Each timed section lasts at least this much CPU time: one pass over 32
# syndromes takes about 1 ms at N = 2^10, too short to time alone.  CPU
# time leaves out the time other processes hold the CPU, which made
# wall-clock ratios swing past the gate under load.
_MIN_SECTION_SECONDS = 0.05


def _timed_decode(q, batches) -> float:
    """CPU seconds per pass over batches, over a section of whole passes
    lasting at least _MIN_SECTION_SECONDS."""
    passes = 0
    t0 = time.process_time()
    while True:
        for s_z in batches:
            pccss_decode_z(q, s_z)
        passes += 1
        elapsed = time.process_time() - t0
        if elapsed >= _MIN_SECTION_SECONDS:
            return elapsed / passes
