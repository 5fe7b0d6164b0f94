"""Encoding circuits for block-concatenated CSS codes, plus a small
stabilizer-tableau simulator to verify them: a circuit encodes the code
when every check row commutes with every stabilizer row the circuit makes
from |0...0>.

The encoder works in two stages.  Stage I writes the outer codeword onto one
representative qubit per block with CNOTs taken from the outer generator's
standard form.  Stage II puts each representative in superposition and fans
it out across its block, which realizes the block-repetition checks.  Stage
II uses exactly one CNOT per non-representative qubit.
"""
from __future__ import annotations

from dataclasses import dataclass, field as dc_field

import numpy as np

from .css import ValidityReport
from .decode import _require_gf2
from .galois import GF2
from .matgf import MatrixGF, _unpack_rows, mul, standard_form

__all__ = [
    "Gate",
    "Circuit",
    "Tableau",
    "VerifyReport",
    "build_encoder",
    "circuit_depth",
    "tableau_new",
    "tableau_run",
    "verify_encoder",
    "circuit_to_text",
    "circuit_from_text",
]


@dataclass(frozen=True)
class Gate:
    name: str  # "H" or "CX"
    qubits: tuple[int, ...]
    stage: str = "I"


@dataclass(frozen=True)
class Circuit:
    n: int
    gates: tuple[Gate, ...] = ()
    meta: dict = dc_field(default_factory=dict)

    def __post_init__(self):
        n = self.n
        for g in self.gates:
            arity = _ARITY.get(g.name)
            if arity is None:
                raise ValueError(f"unsupported gate {g.name!r}")
            qubits = g.qubits
            if len(qubits) != arity:
                raise ValueError(f"{g.name} takes {arity} qubits")
            if arity == 2 and qubits[0] == qubits[1]:
                raise ValueError("gate qubits must be distinct")
            if not (0 <= qubits[0] < n and 0 <= qubits[-1] < n):
                raise ValueError(f"qubit index out of range in {g}")


_ARITY = {"H": 1, "CX": 2}


def circuit_depth(c: Circuit) -> tuple[int, int]:
    """Greedy layering: each gate lands on the first layer where all its
    qubits are free.  Returns (depth, gate count)."""
    free = [0] * c.n
    depth = 0
    for g in c.gates:
        a, b = g.qubits[0], g.qubits[-1]  # the same qubit for H
        layer = max(free[a], free[b]) + 1
        free[a] = free[b] = layer
        depth = max(depth, layer)
    return depth, len(c.gates)


# ------------------------------------------------- stage I gate scheduling

def _color_edges(edges: list[tuple[int, int]]) -> list[int]:
    """Proper edge coloring of a bipartite multigraph with max-degree many
    colors, by alternating-path exchange.  edges are (control, target);
    control u is node 2u and target v node 2v + 1, so the two sides never
    share a node."""
    used: dict[int, dict[int, int]] = {}  # node -> {color: edge}
    ends: list[int] = []  # per edge, the sum of its two nodes
    color_of = [0] * len(edges)

    for idx, (u, v) in enumerate(edges):
        cnode, tnode = 2 * u, 2 * v + 1
        cu = used.setdefault(cnode, {})
        cv = used.setdefault(tnode, {})
        a = 0
        while a in cu:
            a += 1
        b = 0
        while b in cv:
            b += 1
        if a != b:
            # walk the a/b alternating path from the target side and swap;
            # bipartiteness keeps the path away from the control endpoint
            x, want = tnode, a
            path = []
            while want in used[x]:
                eidx = used[x][want]
                y = ends[eidx] - x
                path.append((x, y, eidx, want))
                x = y
                want = b if want == a else a
            for x, y, eidx, col in path:
                del used[x][col]
                del used[y][col]
            for x, y, eidx, col in path:
                newc = b if col == a else a
                used[x][newc] = eidx
                used[y][newc] = eidx
                color_of[eidx] = newc
        cu[a] = idx
        cv[a] = idx
        color_of[idx] = a
        ends.append(cnode + tnode)
    return color_of


def build_encoder(q) -> Circuit:
    """Two-stage encoder for a code with block structure: q must carry n0
    (block length) and outer (the code across block representatives).

    Stage I CNOTs are emitted in edge-colored layers so the greedy depth of
    that stage never exceeds the larger of the parity-part row and column
    weights.  Stage II is one Hadamard per block plus a star fan-out from
    each representative, exactly n - n/n0 CNOTs.
    """
    n0 = getattr(q, "n0", None)
    outer = getattr(q, "outer", None)
    if n0 is None or outer is None:
        raise ValueError("encoder needs a block-structured code with n0 and outer set")
    _require_gf2(q, "the CNOT encoder")
    copies = q.n // n0
    gstd, perm = standard_form(outer.G)
    k2 = gstd.rows
    p2 = gstd.data[:, k2:]

    # the parity part's ones, column by column: (row j, column i)
    cols, rows = np.nonzero(p2.T)
    edges = list(zip(rows.tolist(), cols.tolist()))
    colors = _color_edges(edges)
    perm = perm.tolist()
    # layer by layer, edges in order within a layer (the sort is stable)
    gates = [Gate("CX", (perm[edges[e][0]] * n0, perm[k2 + edges[e][1]] * n0), "I")
             for e in sorted(range(len(edges)), key=colors.__getitem__)]
    stage_one = len(gates)

    for b in range(copies):
        gates.append(Gate("H", (b * n0,), "II"))
    for b in range(copies):
        rep = b * n0
        for j in range(1, n0):
            gates.append(Gate("CX", (rep, rep + j), "II"))

    circ = Circuit(q.n, tuple(gates))
    depth, count = circuit_depth(circ)
    circ.meta.update(
        stage_one_cnots=stage_one,
        stage_two_cnots=q.n - copies,
        hadamards=copies,
        depth=depth,
        gate_count=count,
    )
    return circ


# ----------------------------------------------------------------- tableau

@dataclass
class Tableau:
    """2n rows in (x|z) form with sign bits: rows [0, n) are destabilizers,
    rows [n, 2n) the stabilizer generators."""

    n: int
    x: np.ndarray
    z: np.ndarray
    r: np.ndarray

    def stabilizer_rows(self) -> np.ndarray:
        return np.hstack([self.x[self.n :], self.z[self.n :]])


def tableau_new(n: int) -> Tableau:
    x = np.zeros((2 * n, n), dtype=np.uint8)
    z = np.zeros((2 * n, n), dtype=np.uint8)
    x[:n] = np.eye(n, dtype=np.uint8)
    z[n:] = np.eye(n, dtype=np.uint8)
    return Tableau(n=n, x=x, z=z, r=np.zeros(2 * n, dtype=np.uint8))


def _unpack_columns(cols: list[int], rows: int) -> np.ndarray:
    """The (rows, len(cols)) 0/1 array whose column a holds the bits of cols[a]."""
    width = (rows + 7) // 8
    by = np.frombuffer(b"".join(c.to_bytes(width, "little") for c in cols), dtype=np.uint8)
    return _unpack_rows(by.reshape(len(cols), width), rows).T.copy()


def tableau_run(c: Circuit) -> Tableau:
    """CHP simulation of c from |0...0> on packed columns: each qubit's x
    and z columns over the 2n rows are Python ints (bit i is row i), and so
    are the signs, so a gate is a few integer operations on all rows at
    once.  The result is unpacked once into Tableau arrays."""
    n = c.n
    xs = [1 << a for a in range(n)]  # destabilizer a is X_a
    zs = [1 << (n + a) for a in range(n)]  # stabilizer a is Z_a
    r = 0
    for g in c.gates:
        if g.name == "H":
            (a,) = g.qubits
            r ^= xs[a] & zs[a]
            xs[a], zs[a] = zs[a], xs[a]
        else:
            ctl, a = g.qubits
            r ^= xs[ctl] & zs[a] & ~(xs[a] ^ zs[ctl])
            xs[a] ^= xs[ctl]
            zs[ctl] ^= zs[a]
    return Tableau(n=n, x=_unpack_columns(xs, 2 * n), z=_unpack_columns(zs, 2 * n),
                   r=_unpack_columns([r], 2 * n)[:, 0])


VerifyReport = ValidityReport


def verify_encoder(q, c: Circuit) -> VerifyReport:
    """Run the circuit on the all-zero state and check that every X check
    row (as an X operator) and Z check row (as a Z operator) lies in the
    group of the resulting stabilizer generators, signs aside.

    The stabilizer half S of the tableau is Lagrangian: n independent,
    pairwise commuting rows.  So a Pauli row lies in the GF(2) row space of
    S exactly when it commutes with every row of S.  One product gives the
    symplectic products with S of every tableau row and every check row;
    the tableau's part certifies that S is Lagrangian (S·Λ·Sᵀ = 0, and
    D·Λ·Sᵀ = I for the destabilizer half D), and failing that is a
    simulator fault, not a wrong circuit.
    """
    if c.n > 64:
        raise ValueError(f"tableau verification capped at 64 qubits, got {c.n}")
    n = c.n
    t = tableau_run(c)
    hx, hz = q.hx.data, q.hz.data
    # rows: the tableau (x | z), then (hx | 0) and (0 | hz)
    paulis = np.zeros((2 * n + len(hx) + len(hz), 2 * n), dtype=np.uint8)
    paulis[: 2 * n, :n] = t.x
    paulis[: 2 * n, n:] = t.z
    paulis[2 * n : 2 * n + len(hx), :n] = hx
    paulis[2 * n + len(hx) :, n:] = hz
    # (a | b) · Λ · (s_x | s_z)ᵀ = a · s_zᵀ + b · s_xᵀ
    lam_s = np.hstack([t.z[n:], t.x[n:]]).T
    prod = mul(MatrixGF(GF2, paulis), MatrixGF(GF2, lam_s)).data
    assert not prod[n : 2 * n].any() and np.array_equal(prod[:n], np.eye(n)), \
        "tableau stabilizers are not Lagrangian"
    missing = prod[2 * n :].any(axis=1)
    msgs = [f"{label}-check row {i} missing from encoded group"
            for label, rows in (("x", missing[: len(hx)]), ("z", missing[len(hx) :]))
            for i in np.flatnonzero(rows)]
    return VerifyReport(ok=not msgs, messages=tuple(msgs))


# ---------------------------------------------------------------- file IO

def circuit_to_text(c: Circuit) -> str:
    lines = [f"# qubits {c.n}"]
    stage = None
    for g in c.gates:
        if g.stage != stage:
            stage = g.stage
            lines.append(f"# stage {stage}")
        lines.append(f"H {g.qubits[0]}" if g.name == "H" else f"CX {g.qubits[0]} {g.qubits[1]}")
    return "\n".join(lines) + "\n"


# operands per line: the gates', then the keyed comments'
_OPERANDS = {"H": 1, "CX": 2, "qubits": 1, "stage": 1}


def circuit_from_text(text: str) -> Circuit:
    """The circuit circuit_to_text writes.  A gate line, and a "# qubits" or
    "# stage" comment, must carry exactly its operands, integers but for
    the stage name; a line that does not is refused with its line number.
    Other comments are ignored."""
    n = None
    stage = "I"
    gates = []
    for lineno, raw in enumerate(text.splitlines(), 1):
        line = raw.strip()
        if not line:
            continue
        comment = line.startswith("#")
        head, *args = (line[1:] if comment else line).split() or [""]
        if comment and head not in ("qubits", "stage"):
            continue
        if not comment and head not in ("H", "CX"):
            raise ValueError(f"line {lineno}: unrecognized gate line {line!r}")
        if len(args) != _OPERANDS[head]:
            wrong = "is missing an operand" if len(args) < _OPERANDS[head] else "has extra operands"
            raise ValueError(f"line {lineno}: {line!r} {wrong}")
        if head == "stage":
            stage = args[0]
            continue
        try:
            values = tuple(map(int, args))
        except ValueError:
            raise ValueError(f"line {lineno}: {line!r} has a non-integer operand") from None
        if head == "qubits":
            (n,) = values
        else:
            gates.append(Gate(head, values, stage))
    if n is None:
        n = 1 + max((max(g.qubits) for g in gates), default=-1)
    return Circuit(n, tuple(gates))
