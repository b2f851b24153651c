"""Encoder, decoder, assembler and disassembler for the four DIMC custom
instructions, which live in the RISC-V custom-0 opcode space (0001011).

Word layout, one line per variant (bit ranges inclusive, high:low):

    dl.i : mask[28:25] sec[23:22] nvec-1[21:20] vs1[19:15] 000[14:12] opcode[6:0]
    dl.m : mask[28:25] sec[23:22] nvec-1[21:20] vs1[19:15] 001[14:12] m_row[11:7] opcode[6:0]
    dc.p : m_row[26:22] dh[21] sh[20] vs1[19:15] 010[14:12] vd[11:7] opcode[6:0]
    dc.f : bidx[28:27] m_row[26:22] dh[21] sh[20] vs1[19:15] 011[14:12] vd[11:7] opcode[6:0]

vs1 sits in the standard rs1 slot and vd in the rd slot; dl.m reuses the rd
slot for m_row since loads write no register. nvec is stored biased by one
(range 1..4 in two bits). Every bit not listed is reserved and must be zero,
and the decoder rejects words that violate that.

Field types (plain ``int``, not bool) and ranges are checked by the record
constructors, and so by the assembler. ``decode`` builds its records
without that check, because its bit masks already bound every field.

Assembly text is one instruction per line, mnemonic followed by name=value
fields in any order (``dl.m vs1=4 nvec=2 sec=0 mask=0b0011 m_row=7``).
Values accept decimal, 0x and 0b forms. ``#`` starts a comment. Binary
streams are little-endian sequences of 32-bit words.
"""

from __future__ import annotations

import struct
from dataclasses import dataclass, fields

OPCODE_CUSTOM0 = 0b0001011

FUNCT3_DLI = 0b000
FUNCT3_DLM = 0b001
FUNCT3_DCP = 0b010
FUNCT3_DCF = 0b011


class EncodingError(ValueError):
    """A field value outside its encodable range."""


class DecodeError(ValueError):
    """Base for word-level decode rejections."""


class NotCustom0Error(DecodeError):
    """Opcode bits are not the custom-0 pattern."""


class UnknownFunct3Error(DecodeError):
    """funct3 does not select any of the four instructions."""


class ReservedBitsError(DecodeError):
    """A reserved bit is set."""


class AsmError(ValueError):
    """Assembly text problem, carrying line (1-based) and column."""

    def __init__(self, line: int, col: int, message: str):
        super().__init__(f"line {line}, col {col}: {message}")
        self.line = line
        self.col = col


def _check_field(name: str, value: int, lo: int, hi: int) -> None:
    if type(value) is not int or not lo <= value <= hi:
        raise EncodingError(f"field {name}={value!r} out of range [{lo}, {hi}]")


def _report_bad_field(cls, values) -> None:
    for (name, lo, hi), value in zip(cls._FIELD_RANGES, values):
        _check_field(name, value, lo, hi)
    raise EncodingError(f"invalid fields in {cls.__name__}{values!r}")


@dataclass(frozen=True, slots=True)
class DlI:
    """Load 64..256 bits from nvec registers into one input-buffer sector."""

    vs1: int
    nvec: int
    sec: int
    mask: int

    mnemonic = "dl.i"
    kind = "dl.i"

    _FIELD_RANGES = (("vs1", 0, 31), ("nvec", 1, 4), ("sec", 0, 3), ("mask", 0, 15))

    def __init__(self, vs1: int, nvec: int, sec: int, mask: int):
        if not (type(vs1) is type(nvec) is type(sec) is type(mask) is int
                and 0 <= vs1 <= 31 and 1 <= nvec <= 4 and 0 <= sec <= 3 and 0 <= mask <= 15):
            _report_bad_field(DlI, (vs1, nvec, sec, mask))
        _store_dli(self, vs1, nvec, sec, mask)


@dataclass(frozen=True, slots=True)
class DlM:
    """Like dl.i, but targets sector ``sec`` of weight memory row m_row."""

    vs1: int
    nvec: int
    sec: int
    mask: int
    m_row: int

    mnemonic = "dl.m"
    kind = "dl.m"

    _FIELD_RANGES = (("vs1", 0, 31), ("nvec", 1, 4), ("sec", 0, 3),
                     ("mask", 0, 15), ("m_row", 0, 31))

    def __init__(self, vs1: int, nvec: int, sec: int, mask: int, m_row: int):
        if not (type(vs1) is type(nvec) is type(sec) is type(mask) is type(m_row) is int
                and 0 <= vs1 <= 31 and 1 <= nvec <= 4 and 0 <= sec <= 3
                and 0 <= mask <= 15 and 0 <= m_row <= 31):
            _report_bad_field(DlM, (vs1, nvec, sec, mask, m_row))
        _store_dlm(self, vs1, nvec, sec, mask, m_row)


@dataclass(frozen=True, slots=True)
class DcP:
    """In-memory MAC against row m_row; the 24-bit partial comes from the
    sh-selected half of vs1 and the result lands in the dh half of vd."""

    vs1: int
    vd: int
    sh: int
    dh: int
    m_row: int

    mnemonic = "dc.p"
    kind = "dc.p"

    _FIELD_RANGES = (("vs1", 0, 31), ("vd", 0, 31), ("sh", 0, 1),
                     ("dh", 0, 1), ("m_row", 0, 31))

    def __init__(self, vs1: int, vd: int, sh: int, dh: int, m_row: int):
        if not (type(vs1) is type(vd) is type(sh) is type(dh) is type(m_row) is int
                and 0 <= vs1 <= 31 and 0 <= vd <= 31 and 0 <= sh <= 1
                and 0 <= dh <= 1 and 0 <= m_row <= 31):
            _report_bad_field(DcP, (vs1, vd, sh, dh, m_row))
        _store_dcp(self, vs1, vd, sh, dh, m_row)


@dataclass(frozen=True, slots=True)
class DcF:
    """Same MAC as dc.p plus ReLU and quantization; the packed nibble goes
    into byte bidx of the dh-selected half of vd."""

    vs1: int
    vd: int
    sh: int
    dh: int
    m_row: int
    bidx: int

    mnemonic = "dc.f"
    kind = "dc.f"

    _FIELD_RANGES = (("vs1", 0, 31), ("vd", 0, 31), ("sh", 0, 1),
                     ("dh", 0, 1), ("m_row", 0, 31), ("bidx", 0, 3))

    def __init__(self, vs1: int, vd: int, sh: int, dh: int, m_row: int, bidx: int):
        if not (type(vs1) is type(vd) is type(sh) is type(dh) is type(m_row) is type(bidx) is int
                and 0 <= vs1 <= 31 and 0 <= vd <= 31 and 0 <= sh <= 1
                and 0 <= dh <= 1 and 0 <= m_row <= 31 and 0 <= bidx <= 3):
            _report_bad_field(DcF, (vs1, vd, sh, dh, m_row, bidx))
        _store_dcf(self, vs1, vd, sh, dh, m_row, bidx)


def _slot_store(cls):
    """Build ``store(obj, *field_values) -> obj`` for a frozen slotted record.

    It writes each field through its slot descriptor, which the frozen
    ``__setattr__`` does not guard and which costs less than the
    ``object.__setattr__`` a generated frozen ``__init__`` uses. Like that
    ``__init__``, the store is generated as straight-line code.
    """
    names = [f.name for f in fields(cls)]
    namespace = {f"_set_{name}": cls.__dict__[name].__set__ for name in names}
    source = "\n".join([f"def store(obj, {', '.join(names)}):",
                        *(f"    _set_{name}(obj, {name})" for name in names),
                        "    return obj"])
    exec(source, namespace)
    return namespace["store"]


_store_dli = _slot_store(DlI)
_store_dlm = _slot_store(DlM)
_store_dcp = _slot_store(DcP)
_store_dcf = _slot_store(DcF)
_new = object.__new__

CustomInstruction = DlI | DlM | DcP | DcF

# Bits each variant may populate; everything else is reserved-as-zero.
_USED_BITS = {
    FUNCT3_DLI: 0x7F | (0x7 << 12) | (0x1F << 15) | (0x3 << 20) | (0x3 << 22) | (0xF << 25),
    FUNCT3_DLM: 0x7F | (0x1F << 7) | (0x7 << 12) | (0x1F << 15) | (0x3 << 20) | (0x3 << 22) | (0xF << 25),
    FUNCT3_DCP: 0x7F | (0x1F << 7) | (0x7 << 12) | (0x1F << 15) | (0x1 << 20) | (0x1 << 21) | (0x1F << 22),
    FUNCT3_DCF: 0x7F | (0x1F << 7) | (0x7 << 12) | (0x1F << 15) | (0x1 << 20) | (0x1 << 21) | (0x1F << 22) | (0x3 << 27),
}

_BASE_DLI = OPCODE_CUSTOM0 | (FUNCT3_DLI << 12)
_BASE_DLM = OPCODE_CUSTOM0 | (FUNCT3_DLM << 12)
_BASE_DCP = OPCODE_CUSTOM0 | (FUNCT3_DCP << 12)
_BASE_DCF = OPCODE_CUSTOM0 | (FUNCT3_DCF << 12)


def encode(instr: CustomInstruction) -> int:
    """Encode one instruction into its 32-bit word."""
    cls = type(instr)
    if cls is DlI:
        return (_BASE_DLI | (instr.vs1 << 15) | ((instr.nvec - 1) << 20)
                | (instr.sec << 22) | (instr.mask << 25))
    if cls is DlM:
        return (_BASE_DLM | (instr.m_row << 7) | (instr.vs1 << 15)
                | ((instr.nvec - 1) << 20) | (instr.sec << 22) | (instr.mask << 25))
    if cls is DcP:
        return (_BASE_DCP | (instr.vd << 7) | (instr.vs1 << 15) | (instr.sh << 20)
                | (instr.dh << 21) | (instr.m_row << 22))
    if cls is DcF:
        return (_BASE_DCF | (instr.vd << 7) | (instr.vs1 << 15) | (instr.sh << 20)
                | (instr.dh << 21) | (instr.m_row << 22) | (instr.bidx << 27))
    raise EncodingError(f"not a custom instruction: {instr!r}")


def decode(word: int) -> CustomInstruction:
    """Decode a 32-bit word, rejecting anything encode cannot produce."""
    if not 0 <= word <= 0xFFFFFFFF:
        raise DecodeError(f"not a 32-bit word: {word:#x}")
    if word & 0x7F != OPCODE_CUSTOM0:
        raise NotCustom0Error(f"opcode {word & 0x7F:#09b} is not custom-0")
    funct3 = (word >> 12) & 0x7
    used = _USED_BITS.get(funct3)
    if used is None:
        raise UnknownFunct3Error(f"funct3 {funct3:#05b} does not name an instruction")
    if word & ~used & 0xFFFFFFFF:
        raise ReservedBitsError(f"reserved bits set in {word:#010x}")
    # The masks bound every field, so the records skip the constructor's check.
    vs1 = (word >> 15) & 0x1F
    if funct3 == FUNCT3_DLI:
        return _store_dli(_new(DlI), vs1, ((word >> 20) & 0x3) + 1,
                          (word >> 22) & 0x3, (word >> 25) & 0xF)
    if funct3 == FUNCT3_DLM:
        return _store_dlm(_new(DlM), vs1, ((word >> 20) & 0x3) + 1,
                          (word >> 22) & 0x3, (word >> 25) & 0xF, (word >> 7) & 0x1F)
    vd = (word >> 7) & 0x1F
    sh = (word >> 20) & 0x1
    dh = (word >> 21) & 0x1
    m_row = (word >> 22) & 0x1F
    if funct3 == FUNCT3_DCP:
        return _store_dcp(_new(DcP), vs1, vd, sh, dh, m_row)
    return _store_dcf(_new(DcF), vs1, vd, sh, dh, m_row, (word >> 27) & 0x3)


_BY_MNEMONIC = {cls.mnemonic: cls for cls in (DlI, DlM, DcP, DcF)}


def assemble(text: str) -> list[int]:
    """Assemble instruction text into a list of 32-bit words."""
    words = []
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0]
        tokens = line.split()
        if not tokens:
            continue
        mnemonic = tokens[0]
        cls = _BY_MNEMONIC.get(mnemonic.lower())
        if cls is None:
            raise AsmError(lineno, raw.index(mnemonic) + 1, f"unknown mnemonic {mnemonic!r}")
        wanted = [f.name for f in fields(cls)]
        values = {}
        for tok in tokens[1:]:
            col = raw.index(tok) + 1
            name, eq, val = tok.partition("=")
            if not eq:
                raise AsmError(lineno, col, f"expected name=value, got {tok!r}")
            if name not in wanted:
                raise AsmError(lineno, col, f"{mnemonic} has no field {name!r}")
            if name in values:
                raise AsmError(lineno, col, f"duplicate field {name!r}")
            try:
                values[name] = int(val, 0)
            except ValueError:
                raise AsmError(lineno, col, f"bad integer {val!r}") from None
        missing = [n for n in wanted if n not in values]
        if missing:
            raise AsmError(lineno, 1, f"{mnemonic} missing field(s): {', '.join(missing)}")
        try:
            words.append(encode(cls(**values)))
        except EncodingError as exc:
            raise AsmError(lineno, 1, str(exc)) from None
    return words


def format_instruction(instr: CustomInstruction) -> str:
    """Canonical one-line assembly form of an instruction."""
    cls = instr.__class__
    if cls is DlI:
        return f"dl.i vs1={instr.vs1} nvec={instr.nvec} sec={instr.sec} mask=0b{instr.mask:04b}"
    if cls is DlM:
        return (f"dl.m vs1={instr.vs1} nvec={instr.nvec} sec={instr.sec} "
                f"mask=0b{instr.mask:04b} m_row={instr.m_row}")
    if cls is DcP:
        return f"dc.p vs1={instr.vs1} vd={instr.vd} sh={instr.sh} dh={instr.dh} m_row={instr.m_row}"
    if cls is DcF:
        return (f"dc.f vs1={instr.vs1} vd={instr.vd} sh={instr.sh} dh={instr.dh} "
                f"m_row={instr.m_row} bidx={instr.bidx}")
    raise EncodingError(f"not a custom instruction: {instr!r}")


def disassemble(words) -> str:
    """Disassemble a word sequence into canonical text, one per line; a
    DecodeError names the bad word's index and byte offset."""
    lines = []
    for i, word in enumerate(words):
        try:
            lines.append(format_instruction(decode(word)))
        except DecodeError as exc:
            raise type(exc)(f"word {i} (byte offset {4 * i}): {exc}") from None
    return "\n".join(lines) + "\n"


def pack_words(words) -> bytes:
    """Serialize words as a little-endian binary stream."""
    return struct.pack(f"<{len(words)}I", *words)


def unpack_words(data: bytes) -> list[int]:
    """Parse a little-endian binary stream back into words."""
    if len(data) % 4:
        raise DecodeError(f"stream length {len(data)} is not a multiple of 4")
    return list(struct.unpack(f"<{len(data) // 4}I", data))
