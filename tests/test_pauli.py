"""Parsing, formatting, and the bit-level commutation layer."""

import itertools

import numpy as np
import pytest

from paulicrit import (
    CapExceeded,
    OperatorSet,
    ParseError,
    anticommutes,
    parse_pauli,
    restrict,
    to_matrix,
    weight,
)
from paulicrit.pauli import PauliString, cp_expand, format_pauli, permute

SINGLE = {
    "1": np.eye(2, dtype=complex),
    "x": np.array([[0, 1], [1, 0]], dtype=complex),
    "y": np.array([[0, -1j], [1j, 0]], dtype=complex),
    "z": np.array([[1, 0], [0, -1]], dtype=complex),
}


def kron_of(text):
    out = np.eye(1, dtype=complex)
    for ch in text:
        out = np.kron(out, SINGLE[ch])
    return out


def all_strings(width):
    for letters in itertools.product("1xyz", repeat=width):
        yield "".join(letters)


def test_parse_bits():
    p = parse_pauli("1xxxz")
    assert p.width == 5
    # x at qubits 1,2,3 and z at qubit 4
    assert p.x_bits == 0b01110
    assert p.z_bits == 0b10000
    assert [p.letter(i) for i in range(5)] == ["1", "x", "x", "x", "z"]


def test_parse_y_sets_both_planes():
    p = parse_pauli("y1")
    assert p.x_bits == 1 and p.z_bits == 1
    assert p.letter(0) == "y"


def test_parse_accepts_case_and_i():
    assert format_pauli(parse_pauli("XyZi1")) == "xyz11"


def test_parse_rejects_bad_input():
    with pytest.raises(ParseError):
        parse_pauli("")
    with pytest.raises(ParseError, match="position 1"):
        parse_pauli("xq")
    with pytest.raises(ParseError):
        parse_pauli("x x")


def _parse_letter_by_letter(text):
    """Reference parser: one site at a time, the first illegal character
    reported with its position."""
    x_bits = z_bits = 0
    for pos, ch in enumerate(text):
        low = ch.lower()
        if low in ("x", "y"):
            x_bits |= 1 << pos
        if low in ("y", "z"):
            z_bits |= 1 << pos
        if low not in ("1", "i", "x", "y", "z"):
            raise ParseError(f"illegal character {ch!r} at position {pos} in {text!r}")
    return PauliString(len(text), x_bits, z_bits)


def test_parse_matches_letter_by_letter_reference():
    # legal letters of both cases mixed with characters that are not, some
    # of which lower- or upper-case to a legal letter's neighbours
    rng = np.random.default_rng(41)
    legal = list("1iIxXyYzZ")
    illegal = list("aAq0 \t-éİKＸ")
    for width in list(range(1, 40)) + [500]:
        for _ in range(10):
            pool = legal + illegal if rng.random() < 0.4 else legal
            text = "".join(rng.choice(pool, size=width))
            try:
                want = _parse_letter_by_letter(text)
            except ParseError as exc:
                with pytest.raises(ParseError) as info:
                    parse_pauli(text)
                assert str(info.value) == str(exc)
            else:
                assert parse_pauli(text) == want


def test_format_round_trip_exhaustive():
    for text in all_strings(3):
        assert format_pauli(parse_pauli(text)) == text
        assert str(parse_pauli(text)) == text


def test_format_round_trip_long_and_seeded():
    """Texts of widths 1-200 and one of 5000 letters, in mixed case; the
    text form is read back from the full-width masks."""
    rng = np.random.default_rng(67)
    texts = [
        "".join(rng.choice(list("1xyzXYZ"), size=width)) for width in range(1, 201)
    ]
    texts.append("".join(rng.choice(list("1xyz"), size=5000)))
    for text in texts:
        assert format_pauli(parse_pauli(text)) == text.lower()


def test_weight_and_identity():
    assert weight(parse_pauli("11")) == 0
    assert parse_pauli("11").is_identity
    assert weight(parse_pauli("1xy1z")) == 3
    assert not parse_pauli("1xy1z").is_identity


def test_pauli_string_refuses_a_bad_width_or_stray_bits():
    with pytest.raises(ValueError, match="width must be at least 1, got 0"):
        PauliString(0, 0, 0)
    with pytest.raises(ValueError, match="support bits fall outside the declared width"):
        PauliString(2, 4, 0)


def test_letter_range_checked():
    p = parse_pauli("xy")
    with pytest.raises(ValueError):
        p.letter(2)
    with pytest.raises(ValueError):
        p.letter(-1)


def test_restrict():
    p = parse_pauli("1xxxz")
    assert format_pauli(restrict(p, (0, 4))) == "1z"
    assert format_pauli(restrict(p, (1, 2, 3))) == "xxx"
    # sites are sorted, so order of the block does not matter
    assert format_pauli(restrict(p, (3, 1))) == "xx"
    with pytest.raises(ValueError):
        restrict(p, ())
    with pytest.raises(ValueError):
        restrict(p, (0, 5))


def test_anticommutes_examples():
    assert not anticommutes(parse_pauli("xxx"), parse_pauli("yz1"))
    assert anticommutes(parse_pauli("xxx"), parse_pauli("x1y"))
    assert not anticommutes(parse_pauli("zz"), parse_pauli("xx"))
    assert anticommutes(parse_pauli("x"), parse_pauli("z"))


def test_anticommutes_matches_matrices():
    # exhaustive over width 2: symplectic parity vs explicit matrices
    for ta in all_strings(2):
        for tb in all_strings(2):
            a, b = parse_pauli(ta), parse_pauli(tb)
            ma, mb = kron_of(ta), kron_of(tb)
            anti = np.allclose(ma @ mb + mb @ ma, 0)
            comm = np.allclose(ma @ mb - mb @ ma, 0)
            assert anti != comm
            assert anticommutes(a, b) == anti


def test_anticommutes_width_mismatch():
    with pytest.raises(ValueError):
        anticommutes(parse_pauli("x"), parse_pauli("xx"))


def test_permute():
    p = parse_pauli("xyz")
    assert format_pauli(permute(p, (1, 2, 0))) == "zxy"
    assert permute(p, (0, 1, 2)) == p
    with pytest.raises(ValueError, match=r"\(0, 1\) is not a permutation of 0..2"):
        permute(p, (0, 1))
    with pytest.raises(ValueError, match=r"\(0, 0, 1\) is not a permutation of 0..2"):
        permute(p, [0, 0, 1])


def test_permute_inverse_round_trip():
    rng = np.random.default_rng(7)
    for _ in range(50):
        width = int(rng.integers(1, 7))
        text = "".join(rng.choice(list("1xyz"), size=width))
        p = parse_pauli(text)
        g = tuple(int(v) for v in rng.permutation(width))
        ginv = tuple(np.argsort(g))
        assert permute(permute(p, g), ginv) == p


@pytest.mark.parametrize("width", [7, 8, 9, 16, 17, 30])
def test_permute_moves_every_letter_past_byte_boundaries(width):
    # pauli.site_map moves a mask one byte at a time; each letter must land on
    # perm[i] whichever byte it starts or ends in
    rng = np.random.default_rng(width)
    for _ in range(20):
        p = parse_pauli("".join(rng.choice(list("1xyz"), size=width)))
        g = tuple(int(v) for v in rng.permutation(width))
        moved = permute(p, g)
        assert all(moved.letter(g[i]) == p.letter(i) for i in range(width))


def test_to_matrix_singles():
    for ch, mat in SINGLE.items():
        assert np.allclose(to_matrix(parse_pauli(ch)), mat)


def test_to_matrix_products():
    for text in ("xx", "zy", "1z", "xyz"):
        assert np.allclose(to_matrix(parse_pauli(text)), kron_of(text))


def test_to_matrix_algebra():
    for text in all_strings(2):
        m = to_matrix(parse_pauli(text))
        assert np.allclose(m, m.conj().T)
        assert np.allclose(m @ m, np.eye(4))
        if text != "11":
            assert abs(np.trace(m)) < 1e-12


def test_to_matrix_cap():
    with pytest.raises(CapExceeded):
        to_matrix(parse_pauli("x" * 7))


def test_operator_set_basics():
    s = OperatorSet.from_strings(["xx", "yy", "xx", "zz"])
    assert len(s) == 3
    assert s.texts() == ("xx", "yy", "zz")
    assert s.width == 2
    assert parse_pauli("yy") in s
    assert parse_pauli("xz") not in s


def test_operator_set_rejects_identity_and_mixed_width():
    with pytest.raises(ValueError):
        OperatorSet.from_strings(["xx", "11"])
    with pytest.raises(ValueError):
        OperatorSet.from_strings(["x", "xx"])
    with pytest.raises(ValueError):
        OperatorSet([])


def test_operator_set_from_lines():
    lines = [
        "# header comment",
        "",
        "xx   # inline note",
        "  yy",
        "xx",
    ]
    s = OperatorSet.from_lines(lines)
    assert s.texts() == ("xx", "yy")


def test_operator_set_from_lines_reports_line_number():
    with pytest.raises(ParseError, match="line 3"):
        OperatorSet.from_lines(["xx", "yy", "q"])
    with pytest.raises(ParseError, match="identity"):
        OperatorSet.from_lines(["xx", "11"])
    with pytest.raises(ParseError, match="no operators"):
        OperatorSet.from_lines(["# only a comment", ""])


def test_operator_set_from_file(tmp_path):
    path = tmp_path / "sigma.txt"
    path.write_text("# three qubits\nxxx\nyyx\n")
    s = OperatorSet.from_file(path)
    assert s.texts() == ("xxx", "yyx")
    empty = tmp_path / "empty.txt"
    empty.write_text("# nothing here\n")
    with pytest.raises(ParseError):
        OperatorSet.from_file(empty)


def _rotations(text):
    return {text[-k:] + text[:-k] for k in range(len(text))}


def test_cp_expand_example():
    s = cp_expand(parse_pauli("1xxxz"))
    assert set(s.texts()) == {"1xxxz", "z1xxx", "xz1xx", "xxz1x", "xxxz1"}
    assert len(s) == 5


def test_cp_expand_matches_string_rotations():
    for text in ("xy", "xx", "1zx", "y1z1", "1zxzz"):
        got = set(cp_expand(parse_pauli(text)).texts())
        assert got == _rotations(text)


def test_cp_expand_dedups_short_period():
    assert cp_expand(parse_pauli("xx")).texts() == ("xx",)
    assert len(cp_expand(parse_pauli("xyxy"))) == 2


def test_cp_expand_rejects_identity():
    with pytest.raises(ValueError):
        cp_expand(parse_pauli("11"))


def test_pauli_string_is_hashable_value_type():
    a = parse_pauli("xz")
    b = PauliString(width=2, x_bits=1, z_bits=2)
    assert a == b
    assert len({a, b}) == 1
