"""Command line surface: bundle round trips, exit codes, frozen help text."""

import argparse
import contextlib
import functools
import io
import os
import subprocess
import sys
import tempfile
import time
from pathlib import Path

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from pccss import cli
from pccss.cli import build_parser, main
from pccss.codes import code_to_text, dual, make_alternant, make_expander, make_repetition
from pccss.css import (css_from_text, css_to_text, fast_family, make_enlarged, stab_from_text,
                       stab_to_text)
from pccss.decode import flip_decode, syndrome_of
from pccss.galois import FieldSpec
from pccss.stabcirc import circuit_from_text

DATA = Path(__file__).parent / "data"


def run(capsys, *argv):
    rc = main(list(argv))
    captured = capsys.readouterr()
    return rc, captured.out, captured.err


@pytest.fixture
def shor_bundle(tmp_path, capsys):
    path = tmp_path / "shor.txt"
    rc, out, _ = run(capsys, "construct", "fast", "--N", "9", "--n0", "3",
                     "--outer", "rep", "--out", str(path))
    assert rc == 0
    assert "[[9, 1]]" in out
    return path


def test_construct_then_distance_records_certified_values(shor_bundle, capsys):
    rc, out, _ = run(capsys, "distance", str(shor_bundle))
    assert rc == 0
    assert "d_x 3" in out
    assert "d_z 3" in out
    q = css_from_text(shor_bundle.read_text())
    assert (q.d_x, q.d_z) == (3, 3)
    assert q.d_method == "exhaustive"


def test_bundle_reserialization_is_byte_identical(shor_bundle, capsys):
    from pccss.css import css_to_text

    before = shor_bundle.read_text()
    assert css_to_text(css_from_text(before)) == before
    run(capsys, "distance", str(shor_bundle))
    after = shor_bundle.read_text()
    assert after != before
    assert css_to_text(css_from_text(after)) == after


def test_check_reports_ok(shor_bundle, capsys):
    rc, out, _ = run(capsys, "check", str(shor_bundle))
    assert rc == 0
    assert out.strip() == "ok"


def corrupted_copy(bundle: Path, tmp_path) -> Path:
    """A copy of bundle with hx entry (0, 0) flipped."""
    lines = bundle.read_text().splitlines()
    at = lines.index("hx") + 2
    row = lines[at].split()
    row[0] = "1" if row[0] == "0" else "0"
    lines[at] = " ".join(row)
    bad = tmp_path / "bad.txt"
    bad.write_text("\n".join(lines) + "\n")
    return bad


def test_check_corrupted_bundle_exits_one_with_witness(shor_bundle, tmp_path, capsys):
    rc, out, _ = run(capsys, "check", str(corrupted_copy(shor_bundle, tmp_path)))
    assert rc == 1
    assert "violation:" in out
    assert "commut" in out


def test_distance_refuses_an_invalid_code_as_check_does(shor_bundle, tmp_path, capsys):
    # the distances of a code whose checks do not commute mean nothing
    bad = corrupted_copy(shor_bundle, tmp_path)
    before = bad.read_text()
    checked = run(capsys, "check", str(bad))
    assert checked == (1, "violation: commutator has 1 nonzero entries, first at (0,0)\n", "")
    assert run(capsys, "distance", str(bad)) == checked
    assert bad.read_text() == before


def test_distance_refuses_an_invalid_stabcode_as_check_does(tmp_path, capsys):
    f = FieldSpec(2, 1, 3)
    alpha = [f.pow(2, i) for i in range(7)]
    s = make_enlarged(make_alternant(f, a=alpha, y=alpha, r=1), dual(make_repetition(3)))
    head, rest = stab_to_text(s).split("\n", 1)
    assert head == f"stabcode 2 7 {s.k}"
    bad = tmp_path / "bad.txt"
    bad.write_text(f"stabcode 2 7 {s.k + 1}\n{rest}")
    before = bad.read_text()
    checked = run(capsys, "check", str(bad))
    assert checked == (1, f"violation: k = {s.k + 1} but rank bookkeeping gives {s.k}\n", "")
    assert run(capsys, "distance", str(bad)) == checked
    assert bad.read_text() == before


def test_check_refuses_a_wrong_distance_claim_that_distance_rewrites(shor_bundle, tmp_path,
                                                                    capsys):
    # check refuses what decode and encode-circuit refuse; distance
    # recomputes the claims, so it ignores them and rewrites them
    assert run(capsys, "distance", str(shor_bundle))[0] == 0
    certified = shor_bundle.read_text()
    assert "dx 3 exhaustive" in certified
    claim = tmp_path / "claim.txt"
    claim.write_text(certified.replace("dx 3 exhaustive", "dx 2 exhaustive"))
    message = "claimed d_x = 2 fails re-verification"
    assert run(capsys, "check", str(claim)) == (1, f"violation: {message}\n", "")
    rc, _, err = run(capsys, "encode-circuit", str(claim), "--out", str(tmp_path / "c.txt"))
    assert (rc, err) == (2, f"error: {message}\n")
    # a claim on the side not recomputed is checked
    assert run(capsys, "distance", str(claim), "--side", "z") == (1, f"violation: {message}\n", "")
    assert run(capsys, "distance", str(claim)) == (0, "d_x 3\nd_z 3\n", "")
    assert claim.read_text() == certified


def test_usage_errors_exit_two(tmp_path, capsys):
    with pytest.raises(SystemExit) as exc:
        main(["not-a-subcommand"])
    assert exc.value.code == 2

    rc, _, err = run(capsys, "check", str(tmp_path / "missing.txt"))
    assert rc == 2
    assert "error:" in err

    rc, _, err = run(capsys, "construct", "fast", "--out", str(tmp_path / "x.txt"))
    assert rc == 2
    assert "--N" in err


def test_check_rejects_unknown_header(tmp_path, capsys):
    path = tmp_path / "junk.txt"
    path.write_text("linearcode 2 3 1\n")
    rc, _, err = run(capsys, "check", str(path))
    assert rc == 2
    assert "unrecognized bundle header" in err


def test_help_matches_golden_file(monkeypatch):
    monkeypatch.setenv("COLUMNS", "80")
    assert build_parser().format_help() == (DATA / "cli_help.txt").read_text()


def test_main_builds_its_parser_once_and_keeps_no_parse_state(tmp_path, monkeypatch):
    """Calls of main in one process, each after others have parsed, print
    and return exactly what the same command line does in a fresh one."""
    monkeypatch.setenv("COLUMNS", "80")
    builds = []
    monkeypatch.setattr(cli, "build_parser", lambda: builds.append(1) or build_parser())
    cli._parser.cache_clear()
    src = str(Path(cli.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]))
    here, fresh = tmp_path / "here", tmp_path / "fresh"
    for d in (here, fresh):
        d.mkdir()
    with contextlib.redirect_stdout(io.StringIO()):
        assert main(["construct", "fast", "--N", "9", "--n0", "3", "--outer", "rep",
                     "--out", str(here / "rep9.txt")]) == 0
    (fresh / "rep9.txt").write_text((here / "rep9.txt").read_text())
    commands = [
        ["check", "{d}/rep9.txt"],
        ["distance", "{d}/rep9.txt", "--side", "sideways"],  # argparse exits 2
        ["distance", "{d}/rep9.txt"],
        ["bounds", "--zeta", "10", "--pmax", "0.03", "--step", "0.01"],
    ]
    for argv in commands:
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            try:
                rc = main([a.format(d=here) for a in argv])
            except SystemExit as exc:
                rc = exc.code
        proc = subprocess.run([sys.executable, "-m", "pccss.cli"]
                              + [a.format(d=fresh) for a in argv],
                              capture_output=True, text=True, env=env, check=False)
        got = (rc, out.getvalue(), err.getvalue())
        assert got == (proc.returncode, proc.stdout.replace(str(fresh), str(here)),
                       proc.stderr.replace(str(fresh), str(here))), argv
    assert (here / "rep9.txt").read_text() == (fresh / "rep9.txt").read_text()
    assert len(builds) == 1


def test_decode_both_sides(shor_bundle, tmp_path, capsys):
    syn = tmp_path / "syn.txt"
    syn.write_text("# recorded syndromes\n1 0\n0 0\n")
    rc, out, _ = run(capsys, "decode", str(shor_bundle), "--side", "x",
                     "--syndrome", str(syn))
    assert rc == 0
    lines = out.strip().splitlines()
    assert len(lines) == 2
    assert lines[0] == "corrected 1 0 0 0 0 0 0 0 0"
    assert lines[1] == "corrected 0 0 0 0 0 0 0 0 0"

    zsyn = tmp_path / "zsyn.txt"
    zsyn.write_text("1 1 0 0 0 0\n")
    dest = tmp_path / "decoded.txt"
    rc, out, _ = run(capsys, "decode", str(shor_bundle), "--side", "z",
                     "--syndrome", str(zsyn), "--out", str(dest))
    assert rc == 0
    assert "decoded 1 syndromes" in out
    status, *bits = dest.read_text().split()
    assert status == "corrected"
    assert len(bits) == 9


def test_decode_rejects_wrong_arity_syndrome(shor_bundle, tmp_path, capsys):
    syn = tmp_path / "syn.txt"
    syn.write_text("1 0 2\n")
    rc, _, err = run(capsys, "decode", str(shor_bundle), "--side", "x",
                     "--syndrome", str(syn))
    assert rc == 2
    assert "0/1" in err


def test_encode_circuit_emits_parseable_file(shor_bundle, tmp_path, capsys):
    dest = tmp_path / "circuit.txt"
    rc, out, _ = run(capsys, "encode-circuit", str(shor_bundle), "--out", str(dest))
    assert rc == 0
    assert "gates 11 depth 5" in out
    assert "hadamards 3" in out
    circuit = circuit_from_text(dest.read_text())
    assert circuit.n == 9
    assert len(circuit.gates) == 11


def test_bounds_gap_column_stays_small(tmp_path, capsys):
    dest = tmp_path / "rates.csv"
    rc, out, _ = run(capsys, "bounds", "--fig1", "--zeta", "100",
                     "--step", "1e-3", "--out", str(dest))
    assert rc == 0
    assert "max_gap" in out

    header, *rows = dest.read_text().strip().splitlines()
    cols = header.split(",")
    gap_at = cols.index("gap zeta=100")
    gaps = [float(r.split(",")[gap_at]) for r in rows]
    finite = [g for g in gaps if g == g]
    assert finite
    assert max(finite) < 3e-2


def test_bounds_without_out_prints_csv(capsys):
    rc, out, _ = run(capsys, "bounds", "--zeta", "10", "--pmax", "0.05",
                     "--step", "0.01")
    assert rc == 0
    lines = out.strip().splitlines()
    assert lines[0] == "p,hashing,pccss zeta=10,gap zeta=10"
    assert len(lines) == 6


def test_bounds_out_and_stdout_agree_where_a_rate_is_undefined(tmp_path, capsys):
    # at zeta = 1, 4 p_X exceeds 1 for p > 0.75: NaN columns, not an error
    argv = ("bounds", "--zeta", "1", "--pmax", "0.9")
    rc, csv, _ = run(capsys, *argv)
    assert rc == 0 and ",nan," in csv
    dest = tmp_path / "rates.csv"
    rc, out, _ = run(capsys, *argv, "--out", str(dest))
    assert rc == 0
    assert out.startswith("zeta=1 max_gap ")
    assert dest.read_text() == csv


# block structure n0 = 2 over GF(3): hx·hzᵀ = 0, so `check` accepts it
GF3_BUNDLE = """csscode 3 8 2
n0 2
hx
3 2 8
2 1 1 2 2 1 0 0
0 0 2 1 2 1 2 1
hz
3 4 8
1 1 0 0 0 0 0 0
0 0 1 1 0 0 0 0
0 0 0 0 1 1 0 0
0 0 0 0 0 0 1 1
"""


@pytest.mark.parametrize("argv", [
    ("simulate", "--bundle", "{d}/gf3.txt", "--p", "0.1", "--zeta", "2", "--trials", "50"),
    ("sweep", "--bundle", "{d}/gf3.txt", "--side", "x", "--weights", "1,2"),
    ("sweep", "--bundle", "{d}/gf3.txt", "--side", "z", "--weights", "1,2"),
    ("encode-circuit", "{d}/gf3.txt", "--out", "{d}/circuit.txt"),
    ("decode", "{d}/gf3.txt", "--side", "z", "--syndrome", "{d}/syn.txt"),
], ids=["simulate", "sweep-x", "sweep-z", "encode-circuit", "decode-z"])
def test_qubit_only_commands_refuse_a_gf3_bundle(tmp_path, capsys, argv):
    (tmp_path / "gf3.txt").write_text(GF3_BUNDLE)
    (tmp_path / "syn.txt").write_text("1 0 0 0\n")
    assert run(capsys, "check", str(tmp_path / "gf3.txt"))[:2] == (0, "ok\n")
    rc, out, err = run(capsys, *(a.format(d=tmp_path) for a in argv))
    assert rc == 2 and out == ""
    assert err.startswith("error: ") and "handles GF(2) codes only, not GF(3)" in err


@pytest.mark.parametrize("decoder", ["auto", "flip"])
@pytest.mark.parametrize("side", ["x", "z"])
def test_sweep_refuses_a_bundle_without_blocks(tmp_path, capsys, side, decoder):
    f = FieldSpec(2, 1, 3)
    alpha = [f.pow(2, i) for i in range(7)]
    ham = tmp_path / "ham.txt"
    ham.write_text(code_to_text(make_alternant(f, a=alpha, y=alpha, r=1)))
    steane = tmp_path / "steane.txt"
    rc, out, _ = run(capsys, "construct", "css", "--code1", str(ham), "--code2", str(ham),
                     "--out", str(steane))
    assert rc == 0 and "[[7, 1]]" in out
    rc, out, err = run(capsys, "sweep", "--bundle", str(steane), "--side", side,
                       "--weights", "1", "--decoder", decoder)
    assert (rc, out) == (2, "")
    assert err == "error: adversarial_sweep needs a block-structured code with n0 and outer\n"


def test_check_accepts_a_gf7_bundle(tmp_path, capsys):
    # hx . hz = 1*1 + 1*6 + 1*0 = 7 = 0 over GF(7)
    bundle = tmp_path / "gf7.txt"
    bundle.write_text("csscode 7 3 1\nhx\n7 1 3\n1 1 1\nhz\n7 1 3\n1 6 0\n")
    assert run(capsys, "check", str(bundle)) == (0, "ok\n", "")


def test_check_accepts_a_gf49_bundle(tmp_path, capsys):
    # GF(49) has no table modulus; the first irreducible x^2 + c is x^2 + 1,
    # so with x the element 7, hx . hz = 1*1 + x*x + 1*0 = 1 + x^2 = 0
    bundle = tmp_path / "gf49.txt"
    bundle.write_text("csscode 49 3 1\nhx\n49 1 3\n1 7 1\nhz\n49 1 3\n1 7 0\n")
    assert run(capsys, "check", str(bundle)) == (0, "ok\n", "")
    bundle.write_text("csscode 49 3 1\nhx\n49 1 3\n1 7 1\nhz\n49 1 3\n1 8 0\n")
    rc, out, _ = run(capsys, "check", str(bundle))
    assert rc == 1 and "violation:" in out


def test_simulate_prints_summary(shor_bundle, capsys):
    rc, out, _ = run(capsys, "simulate", "--bundle", str(shor_bundle),
                     "--p", "0.01", "--zeta", "inf", "--trials", "20",
                     "--workers", "1")
    assert rc == 0
    summary = dict(line.split(maxsplit=1) for line in out.strip().splitlines())
    assert summary["trials"] == "20"
    assert summary["n"] == "9"
    assert "pz_bound" in summary


def test_simulate_prints_status_split(shor_bundle, capsys):
    rc, out, _ = run(capsys, "simulate", "--bundle", str(shor_bundle),
                     "--p", "0.2", "--zeta", "2", "--trials", "40", "--seed", "3")
    assert rc == 0
    summary = dict(line.split(maxsplit=1) for line in out.strip().splitlines())
    for side in "xz":
        split = [int(summary[f"{side}_{kind}"]) for kind in
                 ("corrected", "detected_uncorrectable", "silent_miscorrections")]
        assert sum(split) == 40
        assert split[1] + split[2] == int(summary[f"{side}_failures"])


@pytest.mark.parametrize("seed", ["-1", str(2**64)])
def test_simulate_rejects_seed_outside_64_bits(shor_bundle, capsys, seed):
    rc, out, err = run(capsys, "simulate", "--bundle", str(shor_bundle),
                       "--p", "0.01", "--zeta", "inf", "--trials", "5",
                       "--seed", seed)
    assert rc == 2
    assert out == ""
    assert err.startswith("error: seed") and "2^64" in err
    assert "Traceback" not in err


def test_sweep_reports_exhaustive_weight_one_success(shor_bundle, capsys):
    rc, out, _ = run(capsys, "sweep", "--bundle", str(shor_bundle),
                     "--side", "x", "--weights", "1")
    assert rc == 0
    lines = out.strip().splitlines()
    assert lines[0].split() == ["weight", "trials", "successes", "rate", "exhaustive"]
    assert lines[1].split() == ["1", "9", "9", "1", "1"]


def test_sweep_out_writes_the_printed_table_as_csv(shor_bundle, tmp_path, capsys):
    path = tmp_path / "sweep.csv"
    rc, out, _ = run(capsys, "sweep", "--bundle", str(shor_bundle),
                     "--side", "x", "--weights", "1,2", "--out", str(path))
    assert rc == 0
    assert path.read_text() == out.replace(" ", ",")
    assert path.read_text().splitlines()[0] == "weight,trials,successes,rate,exhaustive"


def test_construct_fast_rep_refuses_a_block_length_not_dividing_n(tmp_path, capsys):
    path = tmp_path / "rep.txt"
    rc, out, err = run(capsys, "construct", "fast", "--N", "10", "--n0", "3",
                       "--outer", "rep", "--out", str(path))
    assert (rc, out) == (2, "")
    assert "block length 3 must divide N = 10" in err
    assert not path.exists()


def test_enlarged_bundle_lifecycle(tmp_path, capsys):
    f = FieldSpec(2, 1, 3)
    alpha = [f.pow(2, i) for i in range(7)]
    ham = make_alternant(f, a=alpha, y=alpha, r=1)
    spc = dual(make_repetition(3))
    c1 = tmp_path / "hamming.txt"
    c2 = tmp_path / "spc.txt"
    c1.write_text(code_to_text(ham))
    c2.write_text(code_to_text(spc))

    bundle = tmp_path / "enlarged.txt"
    rc, out, _ = run(capsys, "construct", "enlarged", "--code1", str(c1),
                     "--code2", str(c2), "--out", str(bundle))
    assert rc == 0
    assert "[[7, 3]]" in out

    rc, out, _ = run(capsys, "check", str(bundle))
    assert rc == 0

    rc, out, _ = run(capsys, "distance", str(bundle))
    assert rc == 0
    d = int(out.split()[1])
    assert d >= 2
    s = stab_from_text(bundle.read_text())
    assert s.d == d
    assert s.d_method == "exhaustive"


def test_workers_env_changes_nothing(shor_bundle, tmp_path, capsys, monkeypatch):
    syn = tmp_path / "syn.txt"
    syn.write_text("1 0\n0 1\n")
    zsyn = tmp_path / "zsyn.txt"
    zsyn.write_text("1 0 0 1 1 1\n")
    commands = [
        ["distance", str(shor_bundle)],
        ["distance", str(shor_bundle), "--workers", "3"],
        ["decode", str(shor_bundle), "--side", "x", "--syndrome", str(syn)],
        ["decode", str(shor_bundle), "--side", "z", "--syndrome", str(zsyn)],
        ["simulate", "--bundle", str(shor_bundle), "--p", "0.1", "--zeta", "2",
         "--trials", "16"],
        ["sweep", "--bundle", str(shor_bundle), "--side", "z", "--weights", "1,2"],
        ["decode", str(shor_bundle), "--side", "z", "--syndrome", str(syn)],
    ]
    expected = [run(capsys, *argv) for argv in commands]
    assert [rc for rc, _, _ in expected] == [0, 0, 0, 0, 0, 0, 2]
    for value in ("0", "-2", "4"):
        monkeypatch.setenv("PCCSS_WORKERS", value)
        assert [run(capsys, *argv) for argv in commands] == expected


# ------------------------------------------------------- malformed bundles

def prefix_exit_codes(capsys, tmp_path, text, argv_for):
    """Exit codes of the command argv_for(path) on every proper line-prefix
    of a bundle; main must return, never raise."""
    lines = text.splitlines(keepends=True)
    codes = []
    for cut in range(len(lines)):
        path = tmp_path / f"prefix{cut}.txt"
        path.write_text("".join(lines[:cut]))
        rc, _, err = run(capsys, *argv_for(path))
        assert rc in (0, 1, 2), (cut, rc)
        if rc == 2:
            assert err.startswith("error:") and "Traceback" not in err, (cut, err)
        codes.append(rc)
    return codes


def test_truncated_csscode_bundles_exit_two(shor_bundle, tmp_path, capsys):
    codes = prefix_exit_codes(capsys, tmp_path, shor_bundle.read_text(),
                              lambda path: ("check", str(path)))
    assert set(codes) == {2}


def test_truncated_stabcode_bundles_exit_two(tmp_path, capsys):
    f = FieldSpec(2, 1, 3)
    alpha = [f.pow(2, i) for i in range(7)]
    c1 = tmp_path / "hamming.txt"
    c2 = tmp_path / "spc.txt"
    c1.write_text(code_to_text(make_alternant(f, a=alpha, y=alpha, r=1)))
    c2.write_text(code_to_text(dual(make_repetition(3))))
    bundle = tmp_path / "enlarged.txt"
    rc, _, _ = run(capsys, "construct", "enlarged", "--code1", str(c1),
                   "--code2", str(c2), "--out", str(bundle))
    assert rc == 0
    codes = prefix_exit_codes(capsys, tmp_path, bundle.read_text(),
                              lambda path: ("check", str(path)))
    assert set(codes) == {2}


def test_truncated_expander_code_bundles_exit_cleanly(tmp_path, capsys):
    code, graph = make_expander(12, 3, 6, 0)
    text = code_to_text(code, graph)
    outer = tmp_path / "outer.txt"
    outer.write_text(code_to_text(make_repetition(code.k)))
    out = tmp_path / "out.txt"
    codes = prefix_exit_codes(
        capsys, tmp_path, text,
        lambda path: ("construct", "pccss", "--code1", str(path),
                      "--code2", str(outer), "--out", str(out)),
    )
    # the only valid prefix stops right after H, before the adjacency block
    h_end = text.splitlines().index("expander 12 6 3 6 0")
    assert codes == [2] * h_end + [0] + [2] * (len(codes) - h_end - 1)


def edit_matrix_row(bundle: Path, dest: Path, section: str, row: int, edit) -> Path:
    """Copy bundle to dest with row `row` of one matrix section replaced by
    edit(rows), where rows are that section's rows as lists of ints."""
    lines = bundle.read_text().splitlines()
    at = lines.index(section) + 2
    count = int(lines[at - 1].split()[1])
    rows = [[int(v) for v in line.split()] for line in lines[at : at + count]]
    lines[at + row] = " ".join(map(str, edit(rows)))
    dest.write_text("\n".join(lines) + "\n")
    return dest


def test_reordered_block_hz_exits_two_naming_the_row(shor_bundle, tmp_path, capsys):
    """hz row 1 replaced by rows 0 + 1: the row space is unchanged, but the
    block decoders need hz to be exactly I (x) [I | 1]."""
    bad = edit_matrix_row(shor_bundle, tmp_path / "bad.txt", "hz", 1,
                          lambda rows: [a ^ b for a, b in zip(rows[0], rows[1])])
    syn = tmp_path / "zsyn.txt"
    syn.write_text("1 0 0 0 0 0\n")
    for argv in (["check", str(bad)],
                 ["decode", str(bad), "--side", "z", "--syndrome", str(syn)],
                 ["simulate", "--bundle", str(bad), "--p", "0.1", "--zeta", "2",
                  "--trials", "4"]):
        rc, out, err = run(capsys, *argv)
        assert (rc, out) == (2, ""), argv[0]
        assert err == "error: hz row 1 is not row 1 of I (x) [I | 1] for n0 = 3\n", argv[0]


def test_commands_relying_on_blocks_refuse_a_non_block_hx(shor_bundle, tmp_path, capsys):
    bad = edit_matrix_row(shor_bundle, tmp_path / "bad.txt", "hx", 0,
                          lambda rows: [1 - rows[0][0]] + rows[0][1:])
    syn = tmp_path / "syn.txt"
    syn.write_text("1 0\n")
    for argv in (["decode", str(bad), "--side", "x", "--syndrome", str(syn)],
                 ["encode-circuit", str(bad), "--out", str(tmp_path / "circuit.txt")],
                 ["sweep", "--bundle", str(bad), "--side", "x", "--weights", "1"]):
        rc, out, err = run(capsys, *argv)
        assert (rc, out) == (2, ""), argv[0]
        assert err.startswith("error: commutator has"), argv[0]
    assert not (tmp_path / "circuit.txt").exists()


def test_constructed_bundles_reload_validated_byte_identically(tmp_path, capsys):
    f = FieldSpec(2, 1, 3)
    alpha = [f.pow(2, i) for i in range(7)]
    code, graph = make_expander(12, 3, 6, 0)
    components = {
        "hamming": code_to_text(make_alternant(f, a=alpha, y=alpha, r=1)),
        "spc": code_to_text(dual(make_repetition(3))),
        "expander": code_to_text(code, graph),
        "outer": code_to_text(make_repetition(code.k)),
    }
    for name, text in components.items():
        (tmp_path / f"{name}.txt").write_text(text)
    builds = {
        "fast-rep": ["fast", "--N", "9", "--n0", "3", "--outer", "rep"],
        "fast-expander": ["fast", "--N", "64", "--n0", "4"],
        "css": ["css", "--code1", "hamming", "--code2", "hamming"],
        "pccss": ["pccss", "--code1", "expander", "--code2", "outer"],
        "enlarged": ["enlarged", "--code1", "hamming", "--code2", "spc"],
    }
    for name, args in builds.items():
        args = [str(tmp_path / f"{a}.txt") if a in components else a for a in args]
        path = tmp_path / f"{name}-bundle.txt"
        rc, _, err = run(capsys, "construct", *args, "--out", str(path))
        assert rc == 0, (name, err)
        text = path.read_text()
        if name == "enlarged":
            assert stab_to_text(stab_from_text(text)) == text
        else:
            assert css_to_text(css_from_text(text)) == text, name


def test_negative_entry_exits_two(shor_bundle, tmp_path, capsys):
    lines = shor_bundle.read_text().splitlines()
    at = lines.index("hx") + 2
    row = lines[at].split()
    row[0] = "-1"
    lines[at] = " ".join(row)
    bad = tmp_path / "bad.txt"
    bad.write_text("\n".join(lines) + "\n")
    rc, out, err = run(capsys, "check", str(bad))
    assert rc == 2
    assert out == ""
    assert "out of range" in err


def test_block_length_must_divide_n(shor_bundle, tmp_path, capsys):
    bad = tmp_path / "bad.txt"
    bad.write_text(shor_bundle.read_text().replace("n0 3", "n0 4"))
    syn = tmp_path / "zsyn.txt"
    syn.write_text("1 1 0 0 0 0\n")
    rc, out, err = run(capsys, "decode", str(bad), "--side", "z", "--syndrome", str(syn))
    assert rc == 2
    assert out == ""
    assert "n0 4" in err


@pytest.fixture
def wide_header_bundle(shor_bundle, tmp_path):
    """The [[9,1]] bundle with its header claiming n = 12."""
    text = shor_bundle.read_text()
    assert text.startswith("csscode 2 9 1\n")
    bad = tmp_path / "wide.txt"
    bad.write_text(text.replace("csscode 2 9 1", "csscode 2 12 1", 1))
    return bad


def test_decode_rejects_header_length_mismatch(wide_header_bundle, tmp_path, capsys):
    syn = tmp_path / "zsyn.txt"
    syn.write_text("1 1 0 0 0 0 0 0\n")
    rc, out, err = run(capsys, "decode", str(wide_header_bundle), "--side", "z",
                       "--syndrome", str(syn))
    assert rc == 2
    assert out == ""
    assert "hx has 9 columns, expected 12" in err


def test_encode_circuit_rejects_header_length_mismatch(wide_header_bundle, tmp_path, capsys):
    dest = tmp_path / "enc.txt"
    rc, out, err = run(capsys, "encode-circuit", str(wide_header_bundle), "--out", str(dest))
    assert rc == 2
    assert out == ""
    assert err.startswith("error:") and "hx has 9 columns" in err
    assert not dest.exists()


def test_stabcode_rejects_header_length_mismatch(tmp_path, capsys):
    lines = sample_bundles()["stabcode"].splitlines()
    head = lines[0].split()
    n = int(head[2])
    head[2] = str(n + 1)
    bundle = tmp_path / "enlarged.txt"
    bundle.write_text("\n".join([" ".join(head)] + lines[1:]) + "\n")
    rc, out, err = run(capsys, "check", str(bundle))
    assert rc == 2
    assert out == ""
    assert f"gens has {2 * n} columns, expected {2 * n + 2}" in err


def test_huge_matrix_shape_exits_two(shor_bundle, tmp_path, capsys):
    lines = shor_bundle.read_text().splitlines()
    at = lines.index("hx") + 1
    lines[at] = "2 1000000000000 9"
    bad = tmp_path / "bad.txt"
    bad.write_text("\n".join(lines) + "\n")
    rc, out, err = run(capsys, "check", str(bad))
    assert rc == 2
    assert out == ""
    assert err.startswith("error:")



def test_huge_field_size_exits_two_quickly(shor_bundle, tmp_path, capsys):
    lines = shor_bundle.read_text().splitlines()
    at = lines.index("hx") + 1
    lines[at] = "1000000000000000003 " + " ".join(lines[at].split()[1:])
    bad = tmp_path / "bad.txt"
    bad.write_text("\n".join(lines) + "\n")
    start = time.perf_counter()
    rc, out, err = run(capsys, "check", str(bad))
    assert time.perf_counter() - start < 1.0
    assert rc == 2
    assert out == ""
    assert err.startswith(f"error: line {at + 1}: hx:") and "1000000000000000003" in err


@pytest.mark.parametrize("kind, line, message", [
    ("csscode", "bogus 7", "unknown bundle key 'bogus'"),
    ("stabcode", "bogus 7", "unknown bundle key 'bogus'"),
    ("csscode", "n0", "expected 1 value(s) after n0, got 0"),
    ("csscode", "dx 3", "expected 2 value(s) after dx, got 1"),
    ("linearcode", "d 3", "expected 2 value(s) after d, got 1"),
])
def test_bad_bundle_key_line_exits_two_naming_it(tmp_path, capsys, kind, line, message):
    lines = sample_bundles()[kind].splitlines()
    lines.insert(1, line)
    bundle = tmp_path / "bad.txt"
    bundle.write_text("\n".join(lines) + "\n")
    rc, out, err = run(capsys, *fuzz_commands(kind, bundle, tmp_path)[0])
    assert (rc, out) == (2, "")
    assert err == f"error: line 2: {message}\n"


@pytest.mark.parametrize("kind, old, new, message", [
    ("linearcode", "linearcode 2 12 6\n", "linearcode 2 12 6\nbogus 7 8\n",
     "line 2: G header must read 'q rows cols', got 'bogus 7 8'"),
    ("linearcode", "linearcode 2 12 6", "linearcode 2 x 6",
     "line 1: bad linearcode line 'linearcode 2 x 6'"),
    ("csscode", "csscode 2 9 1", "csscode 2 9 x", "line 1: bad csscode line 'csscode 2 9 x'"),
    ("stabcode", "stabcode 2 7 3", "stabcode 2 x 3", "line 1: bad stabcode line 'stabcode 2 x 3'"),
    ("csscode", "hx\n2 2 9", "hx\n2 x 9", "line 5: hx header must read 'q rows cols', got '2 x 9'"),
])
def test_bad_bundle_header_field_exits_two_naming_it(tmp_path, capsys, kind, old, new, message):
    """A non-integer field in a bundle or matrix header names its line."""
    text = sample_bundles()[kind]
    assert old in text
    bundle = tmp_path / "bad.txt"
    bundle.write_text(text.replace(old, new, 1))
    for argv in fuzz_commands(kind, bundle, tmp_path):
        rc, out, err = run(capsys, *argv)
        assert (rc, out, err) == (2, "", f"error: {message}\n"), argv[0]


@pytest.mark.parametrize("old, new, message", [
    ("points", "bogus", "line 3: unknown bundle key 'bogus'"),
    ("mults", "points", "line 4: unknown bundle key 'points'"),
    ("points 1 2 4 3 6 7 5", "points 1 2 4", "line 3: expected 7 value(s) after points, got 3"),
    ("mults 1 2 4 3 6 7 5", "mults 1 2 4 3 6 7 5 1",
     "line 4: expected 7 value(s) after mults, got 8"),
    ("mults 1 2 4 3 6 7 5", "mults 1 2 4 3 6 7 x", "line 4: bad mults line 'mults 1 2 4 3 6 7 x'"),
])
def test_bad_alternant_key_line_exits_two_naming_it(tmp_path, capsys, old, new, message):
    f = FieldSpec(2, 1, 3)
    alpha = [f.pow(2, i) for i in range(7)]
    text = code_to_text(make_alternant(f, a=alpha, y=alpha, r=1))
    assert old in text
    bad = tmp_path / "hamming.txt"
    bad.write_text(text.replace(old, new, 1))
    spc = tmp_path / "spc.txt"
    spc.write_text(code_to_text(dual(make_repetition(3))))
    rc, out, err = run(capsys, "construct", "enlarged", "--code1", str(bad), "--code2", str(spc),
                       "--out", str(tmp_path / "out.txt"))
    assert (rc, out, err) == (2, "", f"error: {message}\n")


# ------------------------------------------------------- out-of-range flags

@pytest.mark.parametrize("zeta", ["0", "-5"])
def test_bounds_rejects_asymmetry_below_one(capsys, zeta):
    rc, out, err = run(capsys, "bounds", "--zeta", zeta, "--pmax", "0.01", "--step", "0.005")
    assert rc == 2
    assert out == ""
    assert "asymmetry" in err and "must be >= 1" in err


@pytest.mark.parametrize("outer", ["rep", "expander"])
def test_zero_block_length_exits_two(tmp_path, capsys, outer):
    rc, out, err = run(capsys, "construct", "fast", "--N", "9", "--n0", "0", "--outer", outer,
                       "--out", str(tmp_path / "x.txt"))
    assert (rc, out) == (2, "")
    assert err.startswith("error:") and "0" in err


@pytest.mark.parametrize("command", ["simulate", "sweep", "decode"])
@pytest.mark.parametrize("rounds", ["0", "-1"])
def test_max_rounds_below_one_exits_two(shor_bundle, tmp_path, capsys, command, rounds):
    syn = tmp_path / "syn.txt"
    syn.write_text("1 0\n")
    argv = {
        "simulate": ["simulate", "--bundle", str(shor_bundle), "--p", "0.1",
                     "--zeta", "2", "--trials", "4"],
        "sweep": ["sweep", "--bundle", str(shor_bundle), "--side", "x", "--weights", "1"],
        "decode": ["decode", str(shor_bundle), "--side", "x", "--syndrome", str(syn)],
    }[command]
    rc, out, err = run(capsys, *argv, "--max-rounds", rounds)
    assert rc == 2
    assert out == ""
    assert err == f"error: round cap must be >= 1, got {rounds}\n"


@pytest.mark.parametrize("text, message", [
    ("stabcode 2 3 1\n", "not a csscode bundle: 'stabcode 2 3 1'"),
    ("", "text ends before the csscode header (line 1)"),
])
def test_simulate_and_sweep_refuse_a_bundle_with_one_message(tmp_path, capsys, text, message):
    # both build their code through one reader; sweep once worded it its own way
    bundle = tmp_path / "bundle.txt"
    bundle.write_text(text)
    for argv in (["simulate", "--p", "0.1", "--zeta", "2", "--trials", "4"],
                 ["sweep", "--side", "x", "--weights", "1"]):
        rc, out, err = run(capsys, *argv, "--bundle", str(bundle))
        assert (rc, out, err) == (2, "", f"error: {message}\n"), argv[0]


@pytest.mark.parametrize("workers", ["0", "-2"])
@pytest.mark.parametrize("command", ["distance", "decode", "simulate"])
def test_workers_below_one_exits_two(shor_bundle, tmp_path, capsys, command, workers):
    syn = tmp_path / "syn.txt"
    syn.write_text("1 0\n")
    argv = {
        "distance": ["distance", str(shor_bundle)],
        "decode": ["decode", str(shor_bundle), "--side", "x", "--syndrome", str(syn)],
        "simulate": ["simulate", "--bundle", str(shor_bundle), "--p", "0.1",
                     "--zeta", "2", "--trials", "4"],
    }[command]
    before = shor_bundle.read_text()
    rc, out, err = run(capsys, *argv, "--workers", workers)
    assert rc == 2
    assert out == ""
    assert err == f"error: worker count must be >= 1, got {workers}\n"
    assert shor_bundle.read_text() == before


def expander_argv(command: str, tmp_path: Path, n: str = "128", n0: str = "16") -> list[str]:
    """A command that builds its code, outer expander included, from --N and
    --n0 (with --c 3, --d 6 unless flags say otherwise)."""
    return {
        "construct": ["construct", "fast", "--N", n, "--n0", n0,
                      "--out", str(tmp_path / "new.txt")],
        "simulate": ["simulate", "--N", n, "--n0", n0, "--p", "0.1", "--zeta", "2",
                     "--trials", "4"],
        "sweep": ["sweep", "--N", n, "--n0", n0, "--side", "x", "--weights", "1"],
    }[command]


@pytest.mark.parametrize("command", ["construct", "simulate", "sweep"])
@pytest.mark.parametrize("flags, message", [
    (("--c", "0"), "degrees (0,6) must both be >= 1"),
    (("--d", "0"), "degrees (3,0) must both be >= 1"),
    (("--c", "-1"), "degrees (-1,6) must both be >= 1"),
    (("--c", "0", "--d", "0"), "degrees (0,0) must both be >= 1"),
])
def test_expander_degree_below_one_exits_two(tmp_path, capsys, command, flags, message):
    rc, out, err = run(capsys, *expander_argv(command, tmp_path), *flags)
    assert (rc, out, err) == (2, "", f"error: {message}\n")
    assert not (tmp_path / "new.txt").exists()


@pytest.mark.parametrize("command", ["construct", "simulate", "sweep"])
def test_outer_graph_with_fewer_checks_than_bit_degree_exits_two(tmp_path, capsys, command):
    # N = 64, n0 = 16: 4 outer bits, so a (3,6) graph has 2 checks for 3 per bit
    rc, out, err = run(capsys, *expander_argv(command, tmp_path, n="64"))
    assert (rc, out) == (2, "")
    assert err == ("error: no simple (3,6) graph on 4 bits: 2 checks, "
                   "fewer than the 3 each bit needs\n")


@pytest.mark.parametrize("samples", ["0", "-1"])
def test_sweep_sampled_weight_without_samples_exits_two(capsys, samples):
    rc, out, err = run(capsys, "sweep", "--N", "128", "--n0", "16", "--side", "x",
                       "--weights", "1,5", "--samples", samples)
    assert (rc, out) == (2, "")
    assert err == f"error: sampled weights need a sample count >= 1, got {samples}\n"


def test_sweep_of_enumerated_weights_ignores_sample_count(capsys):
    argv = ("sweep", "--N", "128", "--n0", "16", "--side", "x", "--weights", "1")
    rc, out, err = run(capsys, *argv, "--samples", "0")
    assert (rc, err) == (0, "")
    assert run(capsys, *argv) == (0, out, "")


# --------------------------------------------------------- fuzzed bundles

@functools.cache
def sample_bundles() -> dict[str, str]:
    """The [[9,1]] csscode, an enlarged stabcode and an expander linearcode."""
    with tempfile.TemporaryDirectory() as tmp:
        d = Path(tmp)
        f = FieldSpec(2, 1, 3)
        alpha = [f.pow(2, i) for i in range(7)]
        (d / "hamming.txt").write_text(code_to_text(make_alternant(f, a=alpha, y=alpha, r=1)))
        (d / "spc.txt").write_text(code_to_text(dual(make_repetition(3))))
        quiet_main("construct", "fast", "--N", "9", "--n0", "3", "--outer", "rep",
                   "--out", str(d / "css.txt"))
        quiet_main("construct", "enlarged", "--code1", str(d / "hamming.txt"),
                   "--code2", str(d / "spc.txt"), "--out", str(d / "stab.txt"))
        code, graph = make_expander(12, 3, 6, 0)
        return {
            "csscode": (d / "css.txt").read_text(),
            "stabcode": (d / "stab.txt").read_text(),
            "linearcode": code_to_text(code, graph),
        }


def quiet_main(*argv) -> tuple[int, str]:
    """main's exit code and stderr; main must return, never raise."""
    err = io.StringIO()
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
        rc = main(list(argv))
    return rc, err.getvalue()


FUZZ_TOKENS = ["0", "1", "2", "3", "4", "9", "12", "-1", "100000", "4294967296",
               "x", "1.5", "hx", "hz", "gens", "n0", "d", "dx", "expander"]


@st.composite
def mutated_lines(draw, kind: str) -> str:
    """The bundle of this kind with one to three line or token edits."""
    lines = sample_bundles()[kind].splitlines()
    for _ in range(draw(st.integers(1, 3))):
        at = draw(st.integers(0, len(lines) - 1))
        edit = draw(st.sampled_from(["drop", "repeat", "swap", "set", "delete", "insert"]))
        tokens = lines[at].split()
        if edit == "drop":
            del lines[at]
        elif edit == "repeat":
            lines.insert(at, lines[at])
        elif edit == "swap":
            other = draw(st.integers(0, len(lines) - 1))
            lines[at], lines[other] = lines[other], lines[at]
        else:
            pos = draw(st.integers(0, len(tokens)))
            if edit == "insert" or not tokens:
                tokens.insert(pos, draw(st.sampled_from(FUZZ_TOKENS)))
            elif edit == "set":
                tokens[min(pos, len(tokens) - 1)] = draw(st.sampled_from(FUZZ_TOKENS))
            else:
                del tokens[min(pos, len(tokens) - 1)]
            lines[at] = " ".join(tokens)
        if not lines:
            break
    return "\n".join(lines) + "\n"


def fuzz_commands(kind: str, bundle: Path, d: Path) -> list[tuple[str, ...]]:
    if kind == "linearcode":
        (d / "outer.txt").write_text(code_to_text(make_repetition(6)))
        return [("construct", "pccss", "--code1", str(bundle), "--code2", str(d / "outer.txt"),
                 "--out", str(d / "out.txt"))]
    commands = [("check", str(bundle)), ("distance", str(bundle))]
    if kind == "csscode":
        (d / "xsyn.txt").write_text("1 0\n")
        (d / "zsyn.txt").write_text("1 1 0 0 0 0\n")
        commands += [("decode", str(bundle), "--side", side,
                      "--syndrome", str(d / f"{side}syn.txt")) for side in ("x", "z")]
    return commands


@pytest.mark.parametrize("kind", ["csscode", "stabcode", "linearcode"])
@given(data=st.data())
@settings(max_examples=40, deadline=None, suppress_health_check=[HealthCheck.too_slow])
def test_mutated_bundles_only_exit_with_documented_codes(kind, data):
    text = data.draw(mutated_lines(kind))
    with tempfile.TemporaryDirectory() as tmp:
        d = Path(tmp)
        bundle = d / "bundle.txt"
        for argv in fuzz_commands(kind, bundle, d):
            bundle.write_text(text)
            rc, err = quiet_main(*argv)
            assert rc in (0, 1, 2), (argv[0], rc, text)
            if rc == 2:
                assert err.startswith("error:") and "Traceback" not in err, (argv[0], err)


# ------------------------------------------------------------ fuzzed argv

# one command per subcommand, plus the three that build an outer expander
# from --N and --n0, so that edits reach --c, --d and --samples; each exits
# 0 as written ({d} is a scratch directory holding the files argv_files
# writes)
ARGV_BASES = {
    "construct": ("construct", "fast", "--N", "9", "--n0", "3", "--outer", "rep",
                  "--code1", "{d}/hamming.txt", "--code2", "{d}/spc.txt", "--out", "{d}/new.txt"),
    "construct-expander": ("construct", "fast", "--N", "64", "--n0", "4", "--c", "3", "--d", "6",
                           "--out", "{d}/new.txt"),
    "simulate-expander": ("simulate", "--N", "64", "--n0", "4", "--c", "3", "--d", "6",
                          "--p", "0.1", "--zeta", "2", "--trials", "4"),
    "sweep-expander": ("sweep", "--N", "64", "--n0", "4", "--c", "3", "--d", "6", "--side", "x",
                       "--weights", "1,3", "--samples", "4"),
    "check": ("check", "{d}/css.txt"),
    "distance": ("distance", "{d}/css.txt", "--side", "both"),
    "decode": ("decode", "{d}/css.txt", "--side", "x", "--syndrome", "{d}/syn.txt"),
    "encode-circuit": ("encode-circuit", "{d}/css.txt", "--out", "{d}/circuit.txt"),
    "bounds": ("bounds", "--zeta", "2", "--pmax", "0.1", "--step", "0.05"),
    "simulate": ("simulate", "--bundle", "{d}/css.txt", "--p", "0.1", "--zeta", "2",
                 "--trials", "4"),
    "sweep": ("sweep", "--bundle", "{d}/css.txt", "--side", "x", "--weights", "1,2"),
}
ARGV_FLAGS = ["--N", "--n0", "--c", "--d", "--seed", "--code-seed", "--outer", "--code1",
              "--code2", "--attempts", "--out", "--side", "--cap", "--workers", "--syndrome",
              "--max-rounds", "--zeta", "--fig1", "--pmax", "--step", "--p", "--trials",
              "--decoder", "--bundle", "--weights", "--samples", "--help"]
# small numbers only: a valid but large size would make a slow run, not a
# wrong exit code
ARGV_VALUES = ["0", "1", "2", "3", "4", "9", "16", "64", "-1", "0.5", "1.5", "inf", "nan",
               "x", "", "1,2", "both", "z", "rep", "expander", "flip", "exhaustive", "auto",
               "fast", "css", "pccss", "enlarged", "{d}/css.txt", "{d}/stab.txt",
               "{d}/hamming.txt", "{d}/spc.txt", "{d}/lin.txt", "{d}/syn.txt", "{d}/new.txt",
               "{d}/missing.txt", "{d}"]


def argv_files(d: Path) -> None:
    bundles = sample_bundles()
    (d / "css.txt").write_text(bundles["csscode"])
    (d / "stab.txt").write_text(bundles["stabcode"])
    (d / "lin.txt").write_text(bundles["linearcode"])
    f = FieldSpec(2, 1, 3)
    alpha = [f.pow(2, i) for i in range(7)]
    (d / "hamming.txt").write_text(code_to_text(make_alternant(f, a=alpha, y=alpha, r=1)))
    (d / "spc.txt").write_text(code_to_text(dual(make_repetition(3))))
    (d / "syn.txt").write_text("1 0\n")


@st.composite
def mutated_argv(draw) -> list[str]:
    """A subcommand's base argv with zero to three token edits after the
    subcommand name."""
    argv = list(ARGV_BASES[draw(st.sampled_from(sorted(ARGV_BASES)))])
    for _ in range(draw(st.integers(0, 3))):
        edit = draw(st.sampled_from(("flag", "set", "delete") if len(argv) > 1 else ("flag",)))
        if edit == "flag":
            pos = draw(st.integers(1, len(argv)))
            argv[pos:pos] = [draw(st.sampled_from(ARGV_FLAGS)), draw(st.sampled_from(ARGV_VALUES))]
        elif edit == "set":
            argv[draw(st.integers(1, len(argv) - 1))] = draw(st.sampled_from(ARGV_VALUES))
        else:
            del argv[draw(st.integers(1, len(argv) - 1))]
    return argv


@given(argv=mutated_argv())
@settings(max_examples=300, deadline=None, suppress_health_check=[HealthCheck.too_slow])
def test_mutated_argv_only_exits_with_documented_codes(argv):
    with tempfile.TemporaryDirectory() as tmp:
        d = Path(tmp)
        argv_files(d)
        argv = [a.replace("{d}", tmp) for a in argv]
        # a value edit can turn an output path into a bare name such as "rep"
        cwd = os.getcwd()
        os.chdir(tmp)
        try:
            rc, err = quiet_main(*argv)
        except SystemExit as exc:  # argparse: --help exits 0, a usage error 2
            assert exc.code in (0, 2), argv
            return
        finally:
            os.chdir(cwd)
        assert rc in (0, 1, 2), argv
        if rc == 2:
            assert err.startswith("error:") and "Traceback" not in err, (argv, err)


@pytest.mark.parametrize("flags, message", [
    (("--step", "0"), "grid step 0.0 must be > 0"),
    (("--step", "-1"), "grid step -1.0 must be > 0"),
    (("--step", "nan"), "grid step nan must be > 0"),
    (("--pmax", "inf"), "largest error probability inf must be <= 1"),
    (("--pmax", "nan"), "largest error probability nan must be <= 1"),
])
def test_bounds_grid_that_never_ends_exits_two(capsys, flags, message):
    rc, out, err = run(capsys, "bounds", "--zeta", "2", *flags)
    assert rc == 2
    assert out == ""
    assert err == f"error: {message}\n"


STEANE_REDUNDANT_HX = """csscode 2 7 1
hx
2 4 7
1 0 1 0 1 0 1
0 1 1 0 0 1 1
0 0 0 1 1 1 1
1 1 0 0 1 1 0
hz
2 3 7
1 0 1 0 1 0 1
0 1 1 0 0 1 1
0 0 0 1 1 1 1
"""


@pytest.mark.parametrize("side, syndromes, expected", [
    ("x", "0 0 0 0\n1 0 0 1\n# a comment\n1 1 0 0\n0 1 1 1\n1 0 1 0\n1 1 1 0\n",
     "corrected 0 0 0 0 0 0 0\n"
     "corrected 1 0 0 0 0 0 0\n"
     "corrected 0 0 1 0 0 0 0\n"
     "corrected 0 0 0 0 0 1 0\n"
     "detected-uncorrectable 0 0 0 0 0 0 0\n"
     "corrected 0 0 0 0 0 0 1\n"),
    ("z", "0 0 0\n1 0 0\n1 1 0\n1 1 1\n",
     "corrected 0 0 0 0 0 0 0\n"
     "corrected 1 0 0 0 0 0 0\n"
     "corrected 0 0 1 0 0 0 0\n"
     "corrected 0 0 0 0 0 0 1\n"),
])
def test_decode_without_blocks_prints_coset_leaders(tmp_path, capsys, side, syndromes, expected):
    """A bundle without n0 is decoded by exhaustive coset-leader search, one
    line per syndrome; hx's fourth row is the sum of the first two, so the
    x syndrome 1 0 1 0 has no solution."""
    bundle = tmp_path / "steane.txt"
    bundle.write_text(STEANE_REDUNDANT_HX)
    path = tmp_path / "syndromes.txt"
    path.write_text(syndromes)
    rc, out, err = run(capsys, "decode", str(bundle), "--side", side, "--syndrome", str(path))
    assert (rc, out, err) == (0, expected, "")


GF3_NO_BLOCKS = "csscode 3 4 2\nhx\n3 1 4\n1 1 1 0\nhz\n3 1 4\n1 2 0 0\n"


@pytest.mark.parametrize("syndromes, rc, expected", [
    ("2\n0\n1\n", 0, "corrected 0 0 2 0\ncorrected 0 0 0 0\ncorrected 0 0 1 0\n"),
    ("3\n", 2, "syndromes must be 0..2 entries"),
    ("-1\n", 2, "syndromes must be 0..2 entries"),
    ("02\n", 2, "syndromes must be 0..2 entries"),
])
def test_decode_reads_syndromes_over_the_bundle_field(tmp_path, capsys, syndromes, rc, expected):
    """A GF(3) bundle without blocks takes syndrome entries 0, 1 and 2 and
    prints the coset leader; any other entry exits 2."""
    bundle = tmp_path / "gf3.txt"
    bundle.write_text(GF3_NO_BLOCKS)
    path = tmp_path / "syndromes.txt"
    path.write_text(syndromes)
    got_rc, out, err = run(capsys, "decode", str(bundle), "--side", "x", "--syndrome", str(path))
    if rc == 0:
        assert (got_rc, out, err) == (0, expected, "")
    else:
        assert (got_rc, out) == (2, "") and expected in err


def test_decode_x_stack_matches_one_syndrome_at_a_time(tmp_path, capsys):
    """The X side of a block code decodes all syndromes as one stack; its
    output is the flip decoder's, one syndrome at a time, lifted to the
    blocks' first coordinates."""
    q = fast_family(128, 4, 3, 6, 2)
    bundle = tmp_path / "fast.txt"
    bundle.write_text(css_to_text(q))
    rng = np.random.default_rng(8)
    parities = (rng.random((30, q.outer.n)) < 0.08).astype(np.uint8)
    syndromes = [syndrome_of(q.outer.H, b) for b in parities]
    syndromes[3] = rng.integers(0, 2, size=q.outer.H.rows)
    path = tmp_path / "syndromes.txt"
    path.write_text("".join(" ".join(map(str, s)) + "\n" for s in syndromes))
    expected = ""
    for s in syndromes:
        ref = flip_decode(q.outer, s, max_rounds=7)
        est = np.zeros(q.n, dtype=np.uint8)
        est[np.flatnonzero(ref.estimate) * q.n0] = 1
        expected += f"{ref.status} {' '.join(map(str, est))}\n"
    rc, out, err = run(capsys, "decode", str(bundle), "--side", "x", "--max-rounds", "7",
                       "--syndrome", str(path))
    assert (rc, out, err) == (0, expected, "")

    # a refused syndrome is reported at its own line, before a later bad entry
    path.write_text("0 1\n2\n")
    rc, out, err = run(capsys, "decode", str(bundle), "--side", "x", "--syndrome", str(path))
    assert (rc, out) == (2, "")
    assert err == f"error: syndrome length 2 does not match {q.outer.H.rows} checks\n"


def test_decoder_choices_are_read_from_the_decoder_table(monkeypatch):
    monkeypatch.setattr(cli, "_OUTER_DECODERS", {**cli._OUTER_DECODERS, "bposd": None})
    sub = next(a for a in build_parser()._actions if isinstance(a, argparse._SubParsersAction))

    def choices(command):
        return next(tuple(a.choices) for a in sub.choices[command]._actions if a.dest == "decoder")

    assert choices("simulate") == ("flip", "exhaustive", "bposd")
    assert choices("sweep") == ("auto", "flip", "exhaustive", "bposd")


def test_commands_refuse_missing_or_wrong_inputs(tmp_path, capsys):
    f = FieldSpec(2, 1, 3)
    alpha = [f.pow(2, i) for i in range(7)]
    stab = tmp_path / "stab.txt"
    stab.write_text(stab_to_text(make_enlarged(make_alternant(f, a=alpha, y=alpha, r=1),
                                               dual(make_repetition(3)))))
    out = str(tmp_path / "out.txt")
    cases = [
        (("construct", "css", "--code1", str(stab), "--out", out),
         "construct css needs --code1 and --code2"),
        (("distance", str(stab), "--side", "x"),
         "stabcode bundles have a single symplectic distance"),
        (("decode", str(stab), "--side", "x", "--syndrome", str(stab)),
         "decode needs a csscode bundle"),
        (("encode-circuit", str(stab), "--out", out), "encode-circuit needs a csscode bundle"),
        (("sweep", "--N", "32", "--n0", "4", "--side", "x", "--weights", ","), "no weights given"),
    ]
    for argv, message in cases:
        assert run(capsys, *argv) == (2, "", f"error: {message}\n")
