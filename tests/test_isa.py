import dataclasses

import numpy as np
import pytest

from dimcsim import isa
from dimcsim.isa import (AsmError, DcF, DcP, DlI, DlM, EncodingError,
                         NotCustom0Error, ReservedBitsError,
                         UnknownFunct3Error, assemble, decode, disassemble,
                         encode, pack_words, unpack_words)


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


@pytest.mark.parametrize("line, fragment", [
    ("dl.q vs1=0", "unknown mnemonic"),
    ("dl.i vs1=0 nvec=1 sec=0", "missing field"),
    ("dl.i vs1=0 nvec=1 sec=0 mask=1 mask=1", "duplicate"),
    ("dl.i vs1=0 nvec=1 sec=0 mask=zz", "bad integer"),
    ("dl.i vs1=0 nvec=1 sec=0 mask=1 m_row=0", "no field"),
    ("dc.p vs1 vd=2 sh=0 dh=1 m_row=3", "name=value"),
])
def test_assemble_parse_errors(line, fragment):
    with pytest.raises(AsmError) as err:
        assemble(line)
    assert fragment in str(err.value)
    assert err.value.line == 1 and err.value.col >= 1


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
