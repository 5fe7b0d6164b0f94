import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from pccss.codes import lift_block, make_repetition, LinearCode
from pccss.css import CssCode, fast_family, make_pccss
from pccss.galois import GF2
from pccss.matgf import MatrixGF, identity, in_rowspace, rref, zeros
from pccss.stabcirc import (
    Circuit,
    Gate,
    build_encoder,
    circuit_depth,
    circuit_from_text,
    circuit_to_text,
    VerifyReport,
    tableau_new,
    tableau_run,
    verify_encoder,
)


def shor_like_code():
    return make_pccss(lift_block(make_repetition(3), 3), make_repetition(3))


def test_depth_empty_circuit():
    assert circuit_depth(Circuit(4, ())) == (0, 0)


def test_depth_disjoint_cnots_share_one_layer():
    c = Circuit(4, (Gate("CX", (0, 1)), Gate("CX", (2, 3))))
    assert circuit_depth(c) == (1, 2)


def test_depth_chained_cnots_serialize():
    c = Circuit(3, (Gate("CX", (0, 1)), Gate("CX", (1, 2))))
    assert circuit_depth(c) == (2, 2)


def test_circuit_rejects_bad_gates():
    with pytest.raises(ValueError):
        Circuit(2, (Gate("CX", (0, 2)),))
    with pytest.raises(ValueError):
        Circuit(2, (Gate("CX", (1, 1)),))
    with pytest.raises(ValueError):
        Circuit(2, (Gate("SWAP", (0, 1)),))
    with pytest.raises(ValueError):
        Circuit(2, (Gate("H", (0, 1)),))


def test_tableau_initial_state_is_all_z():
    t = tableau_new(3)
    assert not t.x[3:].any()
    assert (t.z[3:] == np.eye(3, dtype=np.uint8)).all()
    assert not t.r.any()


def test_tableau_hadamard_swaps_z_to_x():
    t = tableau_run(Circuit(1, (Gate("H", (0,)),)))
    assert t.x[1, 0] == 1 and t.z[1, 0] == 0
    assert t.r[1] == 0


def test_tableau_bell_pair():
    t = tableau_run(Circuit(2, (Gate("H", (0,)), Gate("CX", (0, 1)))))
    stab = t.stabilizer_rows()
    rows = {tuple(int(v) for v in r) for r in stab}
    # X0X1 and Z0Z1
    assert rows == {(1, 1, 0, 0), (0, 0, 1, 1)}
    assert not t.r[2:].any()


def test_tableau_rows_stay_symplectically_independent():
    q = shor_like_code()
    t = tableau_run(build_encoder(q))
    full = np.hstack([t.x, t.z])
    from pccss.matgf import rank

    assert rank(MatrixGF(GF2, full)) == 2 * q.n


def test_encoder_gate_counts_on_nine_qubit_instance():
    q = shor_like_code()
    c = build_encoder(q)
    assert c.meta["stage_two_cnots"] == q.n - q.n // q.n0 == 6
    stage2 = [g for g in c.gates if g.stage == "II" and g.name == "CX"]
    assert len(stage2) == 6
    assert c.meta["hadamards"] == 3
    # outer generator [1 1 1] in standard form has a weight-2 parity part
    assert c.meta["stage_one_cnots"] == 2


def test_encoder_depth_on_nine_qubit_instance():
    q = shor_like_code()
    c = build_encoder(q)
    depth, count = circuit_depth(c)
    assert count == len(c.gates) == 11
    # two serial stage I fan-outs, one hadamard layer overlapping, then the
    # block fan-out; the idealized two-stage accounting gives k2 + n0 = 4
    assert depth == 5
    assert c.meta["depth"] == depth


def test_encoder_verifies_on_nine_qubit_instance():
    q = shor_like_code()
    rep = verify_encoder(q, build_encoder(q))
    assert rep.ok
    assert rep.messages == ()


def test_encoder_mutation_is_caught():
    q = shor_like_code()
    c = build_encoder(q)
    dropped = tuple(g for g in c.gates if g != Gate("CX", (3, 4), "II"))
    assert len(dropped) == len(c.gates) - 1
    rep = verify_encoder(q, Circuit(c.n, dropped))
    assert not rep.ok
    assert any("missing" in m for m in rep.messages)


def test_encoder_fast_family_sweep():
    for N, n0 in ((24, 4), (48, 8), (32, 2), (64, 4)):
        for seed in range(20):
            q = fast_family(N, n0, c=3, d=6, seed=seed)
            c = build_encoder(q)
            k2 = q.outer.k
            stage2 = [g for g in c.gates if g.stage == "II" and g.name == "CX"]
            assert len(stage2) == N - N // n0
            depth, _ = circuit_depth(c)
            assert depth <= k2 + n0, (N, n0, seed, depth, k2 + n0)
            rep = verify_encoder(q, c)
            assert rep.ok, (N, n0, seed, rep.messages)


def test_encoder_zero_dimension_outer_skips_stage_one():
    copies = 4
    c2 = LinearCode(
        field=GF2,
        n=copies,
        k=0,
        G=zeros(GF2, 0, copies),
        H=identity(GF2, copies),
    )
    q = make_pccss(lift_block(make_repetition(3), copies), c2)
    circ = build_encoder(q)
    assert not [g for g in circ.gates if g.stage == "I"]
    assert verify_encoder(q, circ).ok


def test_verify_vacuous_on_full_space_code():
    q = CssCode(n=3, hx=zeros(GF2, 0, 3), hz=zeros(GF2, 0, 3), k=3)
    assert verify_encoder(q, Circuit(3, ())).ok


def test_verify_rejects_oversized_tableau():
    q = CssCode(n=70, hx=zeros(GF2, 0, 70), hz=zeros(GF2, 0, 70), k=70)
    with pytest.raises(ValueError):
        verify_encoder(q, Circuit(70, ()))


def test_build_encoder_needs_block_structure():
    q = CssCode(n=3, hx=zeros(GF2, 0, 3), hz=zeros(GF2, 0, 3), k=3)
    with pytest.raises(ValueError):
        build_encoder(q)


def test_circuit_text_round_trip():
    c = build_encoder(shor_like_code())
    text = circuit_to_text(c)
    back = circuit_from_text(text)
    assert back.n == c.n
    assert back.gates == c.gates
    assert circuit_to_text(back) == text


def test_circuit_text_without_header_infers_width():
    c = circuit_from_text("CX 0 2\nH 1\n")
    assert c.n == 3
    assert c.gates[0] == Gate("CX", (0, 2), "I")


# --------------------------------------------- references for the simulator

def reference_tableau_run(c):
    """Gate by gate on the Tableau arrays (Aaronson and Gottesman's rules)."""
    t = tableau_new(c.n)
    for g in c.gates:
        if g.name == "H":
            (a,) = g.qubits
            t.r ^= t.x[:, a] & t.z[:, a]
            t.x[:, a], t.z[:, a] = t.z[:, a].copy(), t.x[:, a].copy()
        else:
            ctl, a = g.qubits
            t.r ^= t.x[:, ctl] & t.z[:, a] & (t.x[:, a] ^ t.z[:, ctl] ^ 1)
            t.x[:, a] ^= t.x[:, ctl]
            t.z[:, ctl] ^= t.z[:, a]
    return t


def reference_verify(q, c):
    """Every check row tested for membership in the row space of the
    stabilizer generators."""
    t = reference_tableau_run(c)
    rr = rref(MatrixGF(GF2, t.stabilizer_rows()))
    pad = np.zeros(c.n, dtype=np.uint8)
    msgs = []
    for label, rows, x_side in (("x", q.hx, True), ("z", q.hz, False)):
        for i, h in enumerate(rows.data):
            vec = np.concatenate([h, pad] if x_side else [pad, h])
            if not in_rowspace(rr, vec):
                msgs.append(f"{label}-check row {i} missing from encoded group")
    return VerifyReport(ok=not msgs, messages=tuple(msgs))


@st.composite
def random_circuits(draw):
    n = draw(st.integers(1, 12))
    gate = st.one_of(
        st.builds(lambda a: Gate("H", (a,)), st.integers(0, n - 1)),
        st.lists(st.integers(0, n - 1), min_size=2, max_size=2, unique=True).map(
            lambda qs: Gate("CX", tuple(qs))) if n > 1 else st.nothing(),
    )
    return Circuit(n, tuple(draw(st.lists(gate, max_size=60))))


@given(random_circuits())
@example(Circuit(1, ()))
@example(Circuit(12, ()))
@settings(max_examples=300, deadline=None)
def test_tableau_run_matches_per_gate_reference(c):
    got, want = tableau_run(c), reference_tableau_run(c)
    for name in ("x", "z", "r"):
        a, b = getattr(got, name), getattr(want, name)
        assert a.dtype == b.dtype and a.shape == b.shape
        assert np.array_equal(a, b), name


def criterion_8_codes():
    for big_n, n0 in ((24, 4), (48, 8), (32, 2), (64, 4)):
        for seed in range(20):
            yield fast_family(big_n, n0, 3, 6, seed)


def test_verify_matches_rowspace_reference_on_encoders_and_mutants():
    """Encoders of the criterion-8 set verify as the row-space test says,
    and so do copies with a gate dropped, duplicated or moved."""
    rng = np.random.default_rng(8)
    rejected = 0
    for q in criterion_8_codes():
        c = build_encoder(q)
        gates = list(c.gates)
        variants = [c]
        for _ in range(2):
            i, j = map(int, rng.integers(len(gates), size=2))
            moved = gates[:i] + gates[i + 1 :]
            moved.insert(j, gates[i])
            variants += [Circuit(c.n, tuple(gates[:i] + gates[i + 1 :])),
                         Circuit(c.n, tuple(gates[:i] + [gates[i]] + gates[i:])),
                         Circuit(c.n, tuple(moved))]
        for v in variants:
            got = verify_encoder(q, v)
            assert got == reference_verify(q, v)
            rejected += not got.ok
    assert rejected > 100  # the mutants exercise the failing branch


def test_circuit_text_unknown_gate_names_the_line():
    with pytest.raises(ValueError, match="line 2: unrecognized gate line 'CZ 0 1'"):
        circuit_from_text("H 0\nCZ 0 1\n")


@pytest.mark.parametrize("text, lineno", [("CX 1\n", 1), ("H 0\n# qubits\n", 2)])
def test_circuit_text_short_line_names_the_line(text, lineno):
    with pytest.raises(ValueError, match=f"line {lineno}: .* is missing an operand"):
        circuit_from_text(text)


@pytest.mark.parametrize("text, lineno, problem", [
    ("CX 1 2 3\n", 1, "has extra operands"),
    ("H 2\nH 0 1\n", 2, "has extra operands"),
    ("# qubits 3\nCX a b\n", 2, "has a non-integer operand"),
    ("# qubits x\nH 0\n", 1, "has a non-integer operand"),
])
def test_circuit_text_wrong_operands_name_the_line(text, lineno, problem):
    with pytest.raises(ValueError, match=f"line {lineno}: .* {problem}"):
        circuit_from_text(text)
