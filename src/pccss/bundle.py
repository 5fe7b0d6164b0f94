"""The bundle text format: the one reader and the one writer of every code
bundle, and the matrix text block they share.

A bundle is a header line, "tag q n k", then the tag's key lines, "key v1
... vm", in any order and each at most once, then its sections, then
nothing; _KEYS and _SECTIONS state them for each tag.  A section is an
optional line reading its name, then a matrix block: a "q rows cols" line
and one line of entries per row, with the header's q and a width the
header's n gives.  A linearcode may end with its expander block, which must
agree with its H.  The writer emits one canonical row layout
(rows_to_text), which the reader converts a chunk of rows at a time; any
other spacing is read row by row.  Blank lines are ignored, and line
numbers in messages count the lines kept.
"""
from __future__ import annotations

import itertools

import numpy as np

from .galois import FieldSpec, field_of_size
from .matgf import MatrixGF, _dtype_for

__all__ = [
    "bundle_key",
    "bundle_line",
    "bundle_tag",
    "mat_from_text",
    "mat_to_text",
    "read_bundle",
    "rows_to_text",
    "take_matrix",
    "write_bundle",
]


# -------------------------------------------------------- matrix block

def rows_to_text(data: np.ndarray, q: int) -> str:
    """The canonical text of a stack of rows of GF(q) element indices: each
    row on its own line, entries in decimal one space apart, every line
    ending in a newline.

    With single-digit entries (q <= 10) the text is built as one byte array,
    entry + '0' in the even positions and a space or newline in the odd
    ones, and decoded once; wider entries are joined row by row.
    """
    rows, cols = data.shape
    if q > 10 or cols == 0:
        digits = [str(v) for v in range(q)]
        return "".join(" ".join(map(digits.__getitem__, row)) + "\n" for row in data.tolist())
    buf = np.empty((rows, 2 * cols), dtype=np.uint8)
    np.add(data, ord("0"), out=buf[:, ::2], casting="unsafe")
    buf[:, 1::2] = ord(" ")
    buf[:, -1] = ord("\n")
    return str(buf.data, "ascii")


def mat_to_text(M: MatrixGF) -> str:
    return f"{M.q} {M.rows} {M.cols}\n" + rows_to_text(M.data, M.q)


def bundle_line(lines: list[str], at: int, section: str) -> str:
    """lines[at], or a ValueError naming the section the text ends before.

    Line numbers in messages count the non-blank lines the readers keep.
    """
    if at >= len(lines):
        raise ValueError(f"text ends before {section} (line {at + 1})")
    return lines[at]


def bundle_key(lines: list[str], at: int, keys: dict, n: int = 0) -> tuple[str, list]:
    """The key line lines[at], "key v1 ... vm", as (key, [v1, ..., vm]).

    keys maps each key the line may carry to the types of its values, or to
    one type for n values of that type; any other key, value count or
    value is a ValueError naming the line.  Values are counted before any
    is converted.
    """
    key, *values = bundle_line(lines, at, f"the {' or '.join(keys)} line").split()
    types = keys.get(key)
    if types is None:
        raise ValueError(f"line {at + 1}: unknown bundle key {key!r}")
    count = len(types) if isinstance(types, tuple) else n
    if len(values) != count:
        raise ValueError(f"line {at + 1}: expected {count} value(s) after {key}, "
                         f"got {len(values)}")
    kinds = types if isinstance(types, tuple) else itertools.repeat(types)
    try:
        return key, [kind(v) for kind, v in zip(kinds, values)]
    except ValueError:
        raise ValueError(f"line {at + 1}: bad {key} line {lines[at]!r}") from None


# bytes of row text converted at once by take_matrix's canonical path, which
# bounds its transient memory
_TEXT_CHUNK_BYTES = 1 << 17


def take_matrix(lines: list[str], at: int, section: str) -> tuple[MatrixGF, int]:
    """Read the matrix block starting at lines[at]: a "q rows cols" header,
    then one line of entries per row. Returns the matrix and the index of
    the line after the block."""
    head = bundle_line(lines, at, f"the {section} header").split()
    try:
        q, rows, cols = map(int, head)
    except ValueError:
        raise ValueError(f"line {at + 1}: {section} header must read 'q rows cols', "
                         f"got {lines[at]!r}") from None
    if rows < 0 or cols < 0:
        raise ValueError(f"line {at + 1}: {section} has negative shape {rows} x {cols}")
    try:
        field = field_of_size(q)
    except ValueError as exc:
        raise ValueError(f"line {at + 1}: {section}: {exc}") from None
    try:
        data = np.empty((rows, cols), dtype=_dtype_for(q))
    except (MemoryError, ValueError):
        raise ValueError(f"line {at + 1}: {section} shape {rows} x {cols} is too large") from None
    # canonical rows (see rows_to_text) convert a chunk at a time; any other
    # chunk goes through the row-by-row reader, which also words every error
    canonical = q <= 10 and cols > 0
    step = max(1, _TEXT_CHUNK_BYTES // (2 * cols)) if canonical else max(1, rows)
    for lo in range(0, rows, step):
        hi = min(rows, lo + step)
        block = lines[at + 1 + lo : at + 1 + hi]
        if not (canonical and _take_canonical(block, data[lo:hi], q)):
            _take_rows(lines, at, section, field, data, lo, hi)
    return MatrixGF(field, data), at + 1 + rows


def _take_canonical(block: list[str], out: np.ndarray, q: int) -> bool:
    """Convert block, one line per row of out, into out when every line is
    canonical: exactly 2 * cols - 1 characters, a space at each odd
    position and a digit below q at each even one.  Returns False, leaving
    out in an unspecified state, when any line is not."""
    rows, cols = out.shape
    width = 2 * cols - 1
    if len(block) != rows or any(len(line) != width for line in block):
        return False
    try:
        raw = "".join(block).encode("ascii")
    except UnicodeEncodeError:
        return False
    chars = np.frombuffer(raw, dtype=np.uint8).reshape(rows, width)
    if (chars[:, 1::2] != ord(" ")).any():
        return False
    # uint8 wraps below '0', so one bound test rejects every non-digit
    np.subtract(chars[:, ::2], ord("0"), out=out)
    return not (out >= q).any()


def _take_rows(lines: list[str], at: int, section: str, field: FieldSpec,
               data: np.ndarray, lo: int, hi: int) -> None:
    """Parse rows lo..hi of the block whose header is lines[at] into data,
    one line at a time, accepting any whitespace between entries."""
    q = field.size
    cols = data.shape[1]
    for i in range(lo, hi):
        text = bundle_line(lines, at + 1 + i, f"{section} row {i}")
        where = f"line {at + 2 + i}: {section} row {i}"
        # parse as int64 and range-check before narrowing to the storage dtype
        try:
            row = np.fromstring(text, dtype=np.int64, sep=" ")
        except ValueError as exc:
            raise ValueError(f"{where}: {exc}") from None
        if row.size != cols:
            raise ValueError(f"{where} has {row.size} entries, expected {cols}")
        bad = row[(row < 0) | (row >= q)]
        if bad.size:
            raise ValueError(f"{where}: entry {bad[0]} out of range for {field}")
        data[i] = row


def mat_from_text(text: str) -> MatrixGF:
    lines = [ln for ln in text.splitlines() if ln.strip()]
    M, end = take_matrix(lines, 0, "matrix")
    if end != len(lines):
        raise ValueError(f"expected {M.rows} rows, found {len(lines) - 1}")
    return M


# ------------------------------------------------------------- bundles

# Each tag's key lines, in the order the writer writes them, with the types
# of their values (one type alone stands for n values of it)
_KEYS = {
    "linearcode": {"d": (int, str), "alternant": (int,) * 4},
    "csscode": {"n0": (int,), "construction": (str,), "dx": (int, str), "dz": (int, str)},
    "stabcode": {"d": (int, str)},
}
# the lines that must follow a key's line, in order
_FOLLOWERS = {"alternant": {"points": int, "mults": int}}
# keys whose last value, a distance method, must agree
_SHARED = ("dx", "dz")
# Each tag's sections: (name, whether a line reading the name opens it,
# width in units of the header's n)
_SECTIONS = {
    "linearcode": (("G", False, 1), ("H", False, 1)),
    "csscode": (("hx", True, 1), ("hz", True, 1)),
    "stabcode": (("gens", True, 2),),
}


def bundle_tag(text: str, source: str) -> str:
    """The tag on the first line of a quantum-code bundle: csscode or
    stabcode.  Any other first word is a ValueError naming source."""
    head = text.split(None, 1)
    tag = head[0] if head else ""
    if tag not in ("csscode", "stabcode"):
        raise ValueError(f"{source}: unrecognized bundle header {tag!r}")
    return tag


def read_bundle(text: str, tag: str) -> tuple[tuple[int, int, int], dict, dict, tuple | None]:
    """The parts of the tag bundle text: the header's (q, n, k), the values
    of each key line, each section's matrix, and a linearcode's expander
    block as ((n, r, c, d, seed), bit rows, check rows), or None.

    An unmarked first section opens at the first line that is not a key."""
    lines = [ln for ln in text.splitlines() if ln.strip()]
    if bundle_line(lines, 0, f"the {tag} header").split()[0] != tag:
        raise ValueError(f"not a {tag} bundle: {lines[0]!r}")
    _, (q, n, k) = bundle_key(lines, 0, {tag: (int,) * 3})
    types, sections = _KEYS[tag], _SECTIONS[tag]
    first, marked, _ = sections[0]
    keys: dict = {}
    at = 1
    while (bundle_line(lines, at, f"the {first} section") != first if marked
           else at < len(lines) and lines[at].split()[0] in types):
        key, values = bundle_key(lines, at, types)
        if key in keys:
            raise ValueError(f"line {at + 1}: repeated bundle key {key!r}")
        if key in _SHARED:
            for other in _SHARED:
                if other in keys and keys[other][-1] != values[-1]:
                    raise ValueError(f"line {at + 1}: {key} method {values[-1]!r} differs "
                                     f"from {other}'s {keys[other][-1]!r}")
        keys[key] = values
        at += 1
        for follower, kind in _FOLLOWERS.get(key, {}).items():
            keys[follower] = bundle_key(lines, at, {follower: kind}, n)[1]
            at += 1
    matrices = {}
    for name, marked, width in sections:
        if marked:
            if bundle_line(lines, at, f"the {name} section") != name:
                raise ValueError(f"line {at + 1}: expected the {name} section, got {lines[at]!r}")
            at += 1
        M, end = take_matrix(lines, at, name)
        if M.q != q:
            raise ValueError(f"line {at + 1}: {name} is over GF({M.q}), "
                             f"expected GF({q}) from the header")
        if M.cols != width * n:
            raise ValueError(f"{name} has {M.cols} columns, expected {width * n} from the header")
        matrices[name], at = M, end
    expander = None
    if tag == "linearcode" and at < len(lines) and lines[at].split()[0] == "expander":
        expander, at = _take_expander(lines, at, n, matrices["H"])
    if at < len(lines):
        raise ValueError(f"line {at + 1}: expected the end of the bundle, got {lines[at]!r}")
    return (q, n, k), keys, matrices, expander


def _take_expander(lines: list[str], at: int, n: int, H: MatrixGF) -> tuple[tuple, int]:
    """Read the expander block starting at lines[at]: its key line, then
    the n rows of c checks of each bit and the r rows of d bits of each
    check, which must list exactly the nonzero entries of H's columns and
    rows.  Returns ((n, r, c, d, seed), bit rows, check rows) and the index
    of the line after the block."""
    _, head = bundle_key(lines, at, {"expander": (int,) * 5})
    bits, checks, c, d, _ = head
    if bits != n:
        raise ValueError(f"line {at + 1}: expander has {bits} bits, expected {n} from the header")
    if checks != H.rows:
        raise ValueError(f"line {at + 1}: expander has {checks} checks, expected {H.rows} from H")
    ones = H.data != 0
    rows = []
    for i in range(bits + checks):
        where = at + 1 + i
        if i < bits:
            width, bound, listed, what = c, checks, ones[:, i], f"column {i}"
        else:
            width, bound, listed, what = d, bits, ones[i - bits], f"row {i - bits}"
        text = bundle_line(lines, where, f"adjacency row {i}")
        try:
            row = tuple(map(int, text.split()))
        except ValueError:
            raise ValueError(f"line {where + 1}: adjacency row {i} must list integers, "
                             f"got {text!r}") from None
        if len(row) != width:
            raise ValueError(f"line {where + 1}: adjacency row {i} has {len(row)} entries, "
                             f"expected {width}")
        if not all(0 <= v < bound for v in row):
            raise ValueError(f"line {where + 1}: adjacency row {i} has an index outside "
                             f"0..{bound - 1}")
        if sorted(row) != np.flatnonzero(listed).tolist():
            raise ValueError(f"line {where + 1}: adjacency row {i} disagrees with H's {what}")
        rows.append(row)
    return (tuple(head), tuple(rows[:bits]), tuple(rows[bits:])), at + 1 + bits + checks


def write_bundle(tag: str, header: tuple, keys: dict, matrices: dict,
                 expander: tuple | None = None) -> str:
    """The text of the tag bundle with the parts read_bundle returns."""
    lines = [(tag, *header)]
    for key in _KEYS[tag]:
        if key in keys:
            lines += [(k, *keys[k]) for k in (key, *_FOLLOWERS.get(key, ()))]
    rows = () if expander is None else (("expander", *expander[0]), *expander[1], *expander[2])
    parts = [" ".join(map(str, line)) + "\n" for line in lines]
    for name, marked, _ in _SECTIONS[tag]:
        if marked:
            parts.append(name + "\n")
        parts.append(mat_to_text(matrices[name]))
    parts += [" ".join(map(str, row)) + "\n" for row in rows]
    return "".join(parts)
