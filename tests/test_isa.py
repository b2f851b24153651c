import dataclasses
import hashlib

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dimcsim import isa
from dimcsim.isa import (AsmError, DcF, DcP, DlI, DlM, EncodingError,
                         NotCustom0Error, ReservedBitsError,
                         UnknownFunct3Error, assemble, decode, disassemble,
                         encode, format_instruction, pack_words, unpack_words)


def test_encode_dli_reference_word():
    # opcode 0x0B + vs1(2)<<15 + (nvec-1)<<20 + sec<<22 + mask<<25
    assert encode(DlI(vs1=2, nvec=4, sec=1, mask=0b1111)) == 0x1E71000B


def test_encode_minimal_dli_is_opcode_only():
    assert encode(DlI(vs1=0, nvec=1, sec=0, mask=0)) == 0x0000000B


def test_decode_reference_word():
    assert decode(0x1E71000B) == DlI(vs1=2, nvec=4, sec=1, mask=0b1111)


def test_decode_rejects_standard_opcode():
    with pytest.raises(NotCustom0Error):
        decode(0b0110011)


def test_decode_rejects_unknown_funct3():
    with pytest.raises(UnknownFunct3Error):
        decode(0x0B | (0b111 << 12))


def test_decode_rejects_reserved_bits():
    good = encode(DcP(vs1=1, vd=2, sh=0, dh=1, m_row=3))
    with pytest.raises(ReservedBitsError):
        decode(good | (1 << 31))
    with pytest.raises(ReservedBitsError):
        decode(encode(DlI(vs1=0, nvec=1, sec=0, mask=0)) | (1 << 24))


def test_decode_rejects_out_of_width():
    with pytest.raises(isa.DecodeError):
        decode(1 << 32)


@pytest.mark.parametrize("bad", [
    lambda: DlI(vs1=32, nvec=1, sec=0, mask=0),
    lambda: DlI(vs1=0, nvec=0, sec=0, mask=0),
    lambda: DlI(vs1=0, nvec=5, sec=0, mask=0),
    lambda: DlM(vs1=0, nvec=1, sec=4, mask=0, m_row=0),
    lambda: DcP(vs1=0, vd=0, sh=2, dh=0, m_row=0),
    lambda: DcF(vs1=0, vd=0, sh=0, dh=0, m_row=32, bidx=0),
    lambda: DcF(vs1=0, vd=0, sh=0, dh=0, m_row=0, bidx=4),
    lambda: DlI(vs1=1.5, nvec=1, sec=0, mask=0),
    lambda: DlI(vs1=True, nvec=1, sec=0, mask=0),
    lambda: DlM(vs1=0, nvec=1, sec=0, mask=0, m_row=2.0),
    lambda: DcP(vs1=0, vd=0, sh=False, dh=0, m_row=0),
    lambda: DcF(vs1=0, vd=0, sh=0, dh=0, m_row=0, bidx=True),
])
def test_field_validation(bad):
    with pytest.raises(EncodingError, match=r"field \w+="):
        bad()


def test_roundtrip_sampled():
    rng = np.random.default_rng(0)
    for _ in range(2000):
        i = DcF(vs1=int(rng.integers(32)), vd=int(rng.integers(32)),
                sh=int(rng.integers(2)), dh=int(rng.integers(2)),
                m_row=int(rng.integers(32)), bidx=int(rng.integers(4)))
        assert decode(encode(i)) == i



@pytest.mark.parametrize("instr", [
    DlI(vs1=31, nvec=4, sec=3, mask=0b1010),
    DlM(vs1=7, nvec=1, sec=2, mask=0b0101, m_row=31),
    DcP(vs1=3, vd=30, sh=1, dh=0, m_row=17),
    DcF(vs1=0, vd=9, sh=0, dh=1, m_row=5, bidx=3),
], ids=lambda i: i.mnemonic)
def test_decoded_record_is_a_full_record(instr):
    # decode fills the record's slots without running its constructor.
    got = decode(encode(instr))
    assert type(got) is type(instr)
    assert got == instr and hash(got) == hash(instr) and repr(got) == repr(instr)
    assert dataclasses.fields(got) == dataclasses.fields(instr)
    with pytest.raises(dataclasses.FrozenInstanceError):
        got.vs1 = 1

def test_injectivity_across_variants():
    rng = np.random.default_rng(1)
    seen = {}
    for _ in range(5000):
        kind = rng.integers(4)
        if kind == 0:
            i = DlI(vs1=int(rng.integers(32)), nvec=int(rng.integers(1, 5)),
                    sec=int(rng.integers(4)), mask=int(rng.integers(16)))
        elif kind == 1:
            i = DlM(vs1=int(rng.integers(32)), nvec=int(rng.integers(1, 5)),
                    sec=int(rng.integers(4)), mask=int(rng.integers(16)),
                    m_row=int(rng.integers(32)))
        elif kind == 2:
            i = DcP(vs1=int(rng.integers(32)), vd=int(rng.integers(32)),
                    sh=int(rng.integers(2)), dh=int(rng.integers(2)),
                    m_row=int(rng.integers(32)))
        else:
            i = DcF(vs1=int(rng.integers(32)), vd=int(rng.integers(32)),
                    sh=int(rng.integers(2)), dh=int(rng.integers(2)),
                    m_row=int(rng.integers(32)), bidx=int(rng.integers(4)))
        w = encode(i)
        assert seen.setdefault(w, i) == i
        assert w & 0x7F == 0b0001011


def test_assemble_roundtrip_line():
    text = "dc.p vs1=1 vd=2 sh=0 dh=1 m_row=3"
    words = assemble(text)
    assert len(words) == 1
    assert disassemble(words).strip() == text


def test_assemble_named_fields_any_order_and_bases():
    a = assemble("dl.m vs1=4 nvec=2 sec=0 mask=0b0011 m_row=7")
    b = assemble("dl.m m_row=0x7 mask=3 sec=0 nvec=2 vs1=4")
    assert a == b


def test_assemble_comments_and_blanks():
    words = assemble("# header\n\n  dl.i vs1=0 nvec=1 sec=0 mask=0b0001  # trailing\n")
    assert len(words) == 1


def test_assemble_range_error_names_field_and_line():
    with pytest.raises(AsmError) as err:
        assemble("dl.i vs1=0 nvec=1 sec=0 mask=1\ndl.i vs1=40 nvec=1 sec=0 mask=1")
    assert err.value.line == 2
    assert "vs1" in str(err.value)


# A token's fault is reported at that token's column; a missing field and a
# value out of range at column 1.
_PARSE_ERRORS = [
    ("dl.q vs1=0", "unknown mnemonic", 1),
    ("  dl.q vs1=0", "unknown mnemonic", 3),
    ("dl.i vs1=0 nvec=1 sec=0", "missing field", 1),
    ("dl.i vs1=0 nvec=1 sec=0 mask=16", "out of range", 1),
    ("dl.i vs1=0 nvec=1 sec=0 mask=1 mask=1", "duplicate", 32),
    ("dl.i vs1=0 nvec=1 sec=0 mask=zz", "bad integer", 25),
    ("dl.i vs1=0 nvec=1 sec=0 mask=1 m_row=0", "no field", 32),
    ("dl.i vs1=0 nvec=1 sec=0 mask=1 c=0", "no field", 32),
    ("dc.p vs1 vd=2 sh=0 dh=1 m_row=3", "name=value", 6),
    ("dl.i nvec=1 vs1=1 sec=1 mask=1 1", "name=value", 32),
]


@pytest.mark.parametrize("line, fragment, col", _PARSE_ERRORS,
                         ids=[f"{line}-{fragment}" for line, fragment, _ in _PARSE_ERRORS])
def test_assemble_parse_errors(line, fragment, col):
    with pytest.raises(AsmError) as err:
        assemble(line)
    assert fragment in str(err.value)
    assert (err.value.line, err.value.col) == (1, col)


def test_disassemble_assemble_corpus():
    rng = np.random.default_rng(42)
    words = []
    for _ in range(1000):
        kind = rng.integers(4)
        if kind == 0:
            i = DlI(vs1=int(rng.integers(32)), nvec=int(rng.integers(1, 5)),
                    sec=int(rng.integers(4)), mask=int(rng.integers(16)))
        elif kind == 1:
            i = DlM(vs1=int(rng.integers(32)), nvec=int(rng.integers(1, 5)),
                    sec=int(rng.integers(4)), mask=int(rng.integers(16)),
                    m_row=int(rng.integers(32)))
        elif kind == 2:
            i = DcP(vs1=int(rng.integers(32)), vd=int(rng.integers(32)),
                    sh=int(rng.integers(2)), dh=int(rng.integers(2)),
                    m_row=int(rng.integers(32)))
        else:
            i = DcF(vs1=int(rng.integers(32)), vd=int(rng.integers(32)),
                    sh=int(rng.integers(2)), dh=int(rng.integers(2)),
                    m_row=int(rng.integers(32)), bidx=int(rng.integers(4)))
        words.append(encode(i))
    text = disassemble(words)
    assert assemble(text) == words
    assert assemble(disassemble(assemble(text))) == words


def test_binary_stream_roundtrip():
    words = assemble("dl.i vs1=1 nvec=4 sec=2 mask=0b1111\ndc.f vs1=1 vd=2 sh=1 dh=0 m_row=9 bidx=3")
    blob = pack_words(words)
    assert len(blob) == 8
    assert blob[:4] == words[0].to_bytes(4, "little")
    assert unpack_words(blob) == words
    with pytest.raises(isa.DecodeError):
        unpack_words(blob[:-1])


# The module docstring's word layout, written out here rather than read from
# isa's declarations, so that an encoder and decoder generated from one wrong
# declaration still fail: record -> (funct3, ((field, low bit, lo, hi), ...)).
_DOC_LAYOUT = {
    DlI: (0b000, (("mask", 25, 0, 15), ("sec", 22, 0, 3), ("nvec", 20, 1, 4),
                  ("vs1", 15, 0, 31))),
    DlM: (0b001, (("mask", 25, 0, 15), ("sec", 22, 0, 3), ("nvec", 20, 1, 4),
                  ("vs1", 15, 0, 31), ("m_row", 7, 0, 31))),
    DcP: (0b010, (("m_row", 22, 0, 31), ("dh", 21, 0, 1), ("sh", 20, 0, 1),
                  ("vs1", 15, 0, 31), ("vd", 7, 0, 31))),
    DcF: (0b011, (("bidx", 27, 0, 3), ("m_row", 22, 0, 31), ("dh", 21, 0, 1),
                  ("sh", 20, 0, 1), ("vs1", 15, 0, 31), ("vd", 7, 0, 31))),
}


@pytest.mark.parametrize("cls", list(_DOC_LAYOUT), ids=lambda cls: cls.mnemonic)
def test_word_layout_matches_the_documented_one(cls):
    funct3, layout = _DOC_LAYOUT[cls]
    base = 0b0001011 | funct3 << 12
    used = 0x7F | 0x7 << 12
    for _, shift, lo, hi in layout:
        used |= hi - lo << shift
    for name, shift, lo, hi in layout:
        width = (hi - lo).bit_length()
        # each stored bit alone, then the field's maximum, with every other
        # field at its minimum
        for stored in [1 << b for b in range(width)] + [hi - lo]:
            values = {n: low for n, _, low, _ in layout}
            values[name] = lo + stored
            record = cls(**values)
            word = base | stored << shift
            assert encode(record) == word, (name, stored)
            assert decode(word) == record
            for bit in range(32):
                if not used >> bit & 1:
                    with pytest.raises(ReservedBitsError):
                        decode(word | 1 << bit)


def _doc_word(cls, values: dict) -> int:
    funct3, layout = _DOC_LAYOUT[cls]
    word = 0b0001011 | funct3 << 12
    for name, shift, lo, _ in layout:
        word |= values[name] - lo << shift
    return word


_LITERALS = st.sampled_from(["{}", "{:#x}", "{:#b}"])


@st.composite
def _instructions(draw):
    """One valid instruction: its record class, field values and tokens,
    the mnemonic in any case and the fields in any order and base."""
    cls = draw(st.sampled_from(list(_DOC_LAYOUT)))
    layout = draw(st.permutations(_DOC_LAYOUT[cls][1]))
    values = {name: draw(st.integers(lo, hi)) for name, _, lo, hi in layout}
    mnemonic = draw(st.sampled_from([cls.mnemonic, cls.mnemonic.upper(),
                                     cls.mnemonic.capitalize()]))
    tokens = [mnemonic] + [f"{name}={draw(_LITERALS).format(values[name])}"
                           for name, *_ in layout]
    return cls, values, tokens


@st.composite
def _lines(draw):
    """A program: blank and comment-only lines (strings) between
    instructions, each with its whitespace, gaps and trailing text."""
    lines = []
    for _ in range(draw(st.integers(1, 5))):
        lines += draw(st.lists(st.sampled_from(["", "   ", "\t", "# note", "  # dl.q vs1=99"]),
                               max_size=2))
        lines.append((*draw(_instructions()),
                      draw(st.sampled_from(["", " ", "\t "])),
                      draw(st.lists(st.sampled_from([" ", "  ", "\t", " \t "]),
                                    min_size=8, max_size=8)),
                      draw(st.sampled_from(["", "  ", "# c", " # nvec=9 x"]))))
    return lines


def _render(tokens, lead, gaps, tail):
    """An instruction's line and the 1-based column of each token."""
    line, cols = lead, []
    for gap, tok in zip(["", *gaps], tokens):
        line += gap
        cols.append(len(line) + 1)
        line += tok
    return line + tail, cols


def _text(lines):
    """The program's text, one line per entry."""
    return "\n".join(line if isinstance(line, str) else _render(*line[2:])[0] for line in lines)


@settings(max_examples=300, deadline=None, derandomize=True)
@given(lines=_lines())
def test_assemble_accepts_any_order_base_case_and_comments(lines):
    expected = [_doc_word(cls, values) for cls, values, *_ in
                (line for line in lines if not isinstance(line, str))]
    assert assemble(_text(lines)) == expected


_FAULTS = ("no =", "unknown field", "duplicate field", "bad integer", "missing field",
           "out of range", "unknown mnemonic")


@settings(max_examples=400, deadline=None, derandomize=True)
@given(lines=_lines(), fault=st.sampled_from(_FAULTS), data=st.data())
def test_assemble_names_the_line_and_token_of_a_single_fault(lines, fault, data):
    at = data.draw(st.sampled_from([i for i, line in enumerate(lines)
                                    if not isinstance(line, str)]))
    cls, values, tokens = lines[at][:3]
    tokens = list(tokens)
    field = data.draw(st.integers(1, len(tokens) - 1))
    name = tokens[field].split("=")[0]
    later = data.draw(st.integers(field + 1, len(tokens)))
    mutated = field  # index of the token the error names; None for column 1
    if fault == "no =":
        tokens[field] = tokens[field].replace("=", data.draw(st.sampled_from(["", ":"])))
        fragment = "expected name=value"
    elif fault == "unknown field":
        other = data.draw(st.sampled_from(["foo", "VS1", "rd", "m_row", "bidx", "vd", "nvec", ""]))
        if other in cls.__match_args__:
            other += "_"
        tokens.insert(later, f"{other}=1")
        mutated, fragment = later, "has no field"
    elif fault == "duplicate field":
        tokens.insert(later, f"{name}={data.draw(_LITERALS).format(values[name])}")
        mutated, fragment = later, f"duplicate field {name!r}"
    elif fault == "bad integer":
        bad = data.draw(st.sampled_from(["", "zz", "0x", "0b", "0b2", "1.5", "08", "1e3",
                                         "--1", "0xg", "1__0", "=1"]))
        tokens[field] = f"{name}={bad}"
        fragment = f"bad integer {bad!r}"
    elif fault == "missing field":
        del tokens[field]
        mutated, fragment = None, f"missing field(s): {name}"
    elif fault == "out of range":
        lo, hi = next((lo, hi) for n, _, lo, hi in _DOC_LAYOUT[cls][1] if n == name)
        value = data.draw(st.one_of(st.integers(lo - 1000, lo - 1), st.integers(hi + 1, hi + 1000)))
        tokens[field] = f"{name}={data.draw(_LITERALS).format(value)}"
        mutated, fragment = None, f"field {name}={value} out of range [{lo}, {hi}]"
    else:
        tokens[0] = data.draw(st.sampled_from(["dl.x", "dc", "dlm", "dl.i.", "nop", "dc_p"]))
        mutated, fragment = 0, f"unknown mnemonic {tokens[0]!r}"
    rendered = _text(lines).split("\n")
    rendered[at], cols = _render(tokens, *lines[at][3:])
    col = 1 if mutated is None else cols[mutated]
    with pytest.raises(AsmError) as err:
        assemble("\n".join(rendered))
    assert fragment in str(err.value)
    assert (err.value.line, err.value.col) == (at + 1, col)


def test_disassembly_of_every_valid_word_is_pinned():
    # every valid word in ascending order, built from the documented layout;
    # the hash pins the canonical text of each, byte for byte
    words = []
    for cls, (funct3, layout) in _DOC_LAYOUT.items():
        kind = [0b0001011 | funct3 << 12]
        for _, shift, lo, hi in layout:
            kind = [word | stored << shift for word in kind for stored in range(hi - lo + 1)]
        words += kind
    words.sort()
    assert len(words) == 925_696
    digest = hashlib.sha256(disassemble(words).encode()).hexdigest()
    assert digest == "fcfc46f127a923deb9d202a3d0c90abad8408d3a5744c7ab1d94561cb8d6523e"


@pytest.mark.parametrize("bad", [
    0x0B | 1 << 31, 0x0B | 1 << 24, 0x300B | 1 << 29, 0x0B | 0b111 << 12, 0b0110011,
    1 << 32, 0x0B | 1 << 32, -1,
])
def test_disassemble_rejects_what_decode_rejects(bad):
    # the same error class and message, prefixed with the word's place
    with pytest.raises(isa.DecodeError) as want:
        decode(bad)
    with pytest.raises(type(want.value)) as got:
        disassemble([0x0B, bad, 0x0B])
    assert str(got.value) == f"word 1 (byte offset 4): {want.value}"


@pytest.mark.parametrize("not_a_record", [5, "dl.i", None, object()])
def test_format_instruction_rejects_a_non_record(not_a_record):
    with pytest.raises(EncodingError, match="not a custom instruction"):
        format_instruction(not_a_record)
