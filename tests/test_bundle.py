"""The bundle text format: golden bytes of one bundle per tag, and the
reader's checks on the text it is given."""
from __future__ import annotations

import hashlib

import pytest

from pccss.bundle import mat_from_text
from pccss.cli import main
from pccss.codes import (
    certify_distance,
    code_from_text,
    code_to_text,
    dual,
    lift_block,
    make_alternant,
    make_expander,
    make_repetition,
)
from pccss.css import (
    css_from_text,
    css_to_text,
    distance_css,
    distance_stabilizer,
    make_enlarged,
    make_pccss,
    stab_from_text,
    stab_to_text,
)
from pccss.galois import FieldSpec


def linearcode_bundle() -> str:
    """A 12-bit expander code with every optional line: a certified
    distance, an alternant recipe (provenance only, so any recipe of
    length 12 will do) and the expander adjacency block."""
    code, graph = make_expander(12, 3, 6, 0)
    f = FieldSpec(2, 1, 4)
    recipe = make_alternant(f, a=[f.pow(2, i) for i in range(12)], y=[1] * 12, r=2)
    code = certify_distance(code)
    code.provenance = recipe.provenance
    return code_to_text(code, graph)


def csscode_bundle() -> str:
    """The [[9,1]] partially concatenated code with n0, construction, dx, dz."""
    q = make_pccss(lift_block(make_repetition(3), 3), make_repetition(3))
    q.d_x, q.d_z, q.d_method = distance_css(q, "x"), distance_css(q, "z"), "exhaustive"
    return css_to_text(q)


def stabcode_bundle() -> str:
    """The enlarged code of the [7,4] Hamming and [3,2] parity codes, with d."""
    f = FieldSpec(2, 1, 3)
    alpha = [f.pow(2, i) for i in range(7)]
    s = make_enlarged(make_alternant(f, a=alpha, y=alpha, r=1), dual(make_repetition(3)))
    s.d, s.d_method = distance_stabilizer(s), "exhaustive"
    return stab_to_text(s)


GOLDEN = {
    "linearcode": (linearcode_bundle, lambda t: code_to_text(*code_from_text(t)),
                   "a7acec5360db61ed717c98b6ea18086fb5448aec427a4e7d8eba232b9aa639f4"),
    "csscode": (csscode_bundle, lambda t: css_to_text(css_from_text(t)),
                "494bd0fedaf0c62b3af07b5f682947941cd639cf7dc446172ace21f583692c8d"),
    "stabcode": (stabcode_bundle, lambda t: stab_to_text(stab_from_text(t)),
                 "8e11ca168ab9a1f22512500e6203eea055088fc504e24ff66769ce00bf4f760e"),
}


@pytest.mark.parametrize("tag", sorted(GOLDEN))
def test_golden_bundle_bytes_and_round_trip(tag):
    build, round_trip, digest = GOLDEN[tag]
    text = build()
    assert text.startswith(f"{tag} ")
    assert hashlib.sha256(text.encode()).hexdigest() == digest
    assert round_trip(text) == text


READERS = {"linearcode": code_from_text, "csscode": css_from_text, "stabcode": stab_from_text}


def edited(tag: str, edit) -> str:
    """The golden bundle of tag with edit applied to its list of lines."""
    lines = GOLDEN[tag][0]().splitlines()
    edit(lines)
    return "\n".join(lines) + "\n"


def set_line(number: int, text: str):
    def edit(lines):
        lines[number - 1] = text
    return edit


def insert_line(number: int, text: str):
    return lambda lines: lines.insert(number - 1, text)


# (tag, edit, message): each bundle is refused with a message naming its
# line; the per-tag readers once accepted these, crashed on them or named
# no line
REFUSED = [
    # the header and the body disagree
    ("linearcode", set_line(1, "linearcode 3 12 6"),
     "line 6: G is over GF(2), expected GF(3) from the header"),
    ("csscode", set_line(1, "csscode 3 9 1"),
     "line 7: hx is over GF(2), expected GF(3) from the header"),
    ("stabcode", set_line(1, "stabcode 5 7 3"),
     "line 4: gens is over GF(2), expected GF(5) from the header"),
    # lines after the last section
    ("csscode", lambda lines: lines.append("junk"),
     "line 18: expected the end of the bundle, got 'junk'"),
    ("csscode", lambda lines: lines.extend(lines[9:]),
     "line 18: expected the end of the bundle, got 'hz'"),
    ("stabcode", lambda lines: lines.append("0 1"),
     "line 9: expected the end of the bundle, got '0 1'"),
    ("linearcode", lambda lines: lines.append("junk"),
     "line 39: expected the end of the bundle, got 'junk'"),
    ("linearcode", lambda lines: lines.__setitem__(slice(19, None), ["junk"]),
     "line 20: expected the end of the bundle, got 'junk'"),
    # expander rows: typed, sized, in range and in agreement with H
    ("linearcode", set_line(21, "a b c"),
     "line 21: adjacency row 0 must list integers, got 'a b c'"),
    ("linearcode", set_line(21, "0 3"), "line 21: adjacency row 0 has 2 entries, expected 3"),
    ("linearcode", set_line(33, "0 2 4 5 8"), "line 33: adjacency row 12 has 5 entries, expected 6"),
    ("linearcode", set_line(21, "0 3 6"), "line 21: adjacency row 0 has an index outside 0..5"),
    ("linearcode", set_line(33, "0 2 4 5 8 12"),
     "line 33: adjacency row 12 has an index outside 0..11"),
    ("linearcode", set_line(20, "expander 11 6 3 6 0"),
     "line 20: expander has 11 bits, expected 12 from the header"),
    ("linearcode", set_line(20, "expander 12 5 3 6 0"),
     "line 20: expander has 5 checks, expected 6 from H"),
    ("linearcode", set_line(21, "0 3 4"), "line 21: adjacency row 0 disagrees with H's column 0"),
    ("linearcode", set_line(21, "0 3 3"), "line 21: adjacency row 0 disagrees with H's column 0"),
    ("linearcode", set_line(33, "0 2 4 5 8 10"),
     "line 33: adjacency row 12 disagrees with H's row 0"),
    # a matrix of negative shape
    ("csscode", set_line(7, "2 -1 9"), "line 7: hx has negative shape -1 x 9"),
    # a key at most once, and one method for dx and dz
    ("csscode", insert_line(5, "dx 3 exhaustive"), "line 5: repeated bundle key 'dx'"),
    ("stabcode", insert_line(3, "d 2 exhaustive"), "line 3: repeated bundle key 'd'"),
    ("linearcode", insert_line(3, "d 2 exhaustive"), "line 3: repeated bundle key 'd'"),
    ("csscode", set_line(5, "dz 3 uncertified"),
     "line 5: dz method 'uncertified' differs from dx's 'exhaustive'"),
    ("csscode", lambda lines: lines.__setitem__(slice(3, 5), ["dz 3 exhaustive", "dx 3 uncertified"]),
     "line 5: dx method 'uncertified' differs from dz's 'exhaustive'"),
]


@pytest.mark.parametrize("tag, edit, message", REFUSED)
def test_reader_refuses_naming_the_line(tag, edit, message):
    with pytest.raises(ValueError) as info:
        READERS[tag](edited(tag, edit))
    assert str(info.value) == message


def test_huge_header_length_is_refused_before_values_are_typed(tmp_path, capsys):
    huge = tmp_path / "huge.txt"
    huge.write_text("linearcode 2 1000000000000 1\nalternant 2 1 4 4\npoints 1\nmults 1\n")
    rc = main(["construct", "css", "--code1", str(huge), "--code2", str(huge),
               "--out", str(tmp_path / "out.txt")])
    out, err = capsys.readouterr()
    assert (rc, out) == (2, "")
    assert err == "error: line 3: expected 1000000000000 value(s) after points, got 1\n"


def test_a_row_of_canonical_width_that_is_not_ascii_goes_to_the_row_reader():
    # the chunk reader declines it, and the row reader names its line
    text = edited("csscode", set_line(8, "1 1 1 0 0 0 1 1 \u00e9"))
    with pytest.raises(ValueError, match="^line 8: hx row 0"):
        css_from_text(text)


def test_a_matrix_text_with_more_rows_than_its_header_is_refused():
    assert mat_from_text("2 1 2\n1 0\n").data.tolist() == [[1, 0]]
    with pytest.raises(ValueError, match="expected 1 rows, found 2"):
        mat_from_text("2 1 2\n1 0\n0 1\n")
