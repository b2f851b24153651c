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

Each record declares this layout once, as ``_bits(shift, lo, hi)`` next to
each dataclass field; a field is stored as ``value - lo``. From those
declarations ``_custom`` generates the record's constructor, its encoder
and decoder, the assembler's parser (``{name: text}`` to word) and the word
formatter (word to canonical text), and the bits its funct3 may set. They
are generated as straight-line code, not loops over the layout, because the
mapper constructs every record it lowers: a constructor that writes the
slots directly costs less than the ``object.__setattr__`` calls of a frozen
dataclass ``__init__``. Neither text path builds a record.

Field types (plain ``int``, not bool) and ranges are checked by the record
constructors and the parser. ``decode`` builds its records without that
check, because its bit masks already bound every field.

Assembly text is one instruction per line, mnemonic followed by name=value
fields in any order (``dl.m vs1=4 nvec=2 sec=0 mask=0b0011 m_row=7``).
Values accept decimal, 0x and 0b forms. ``#`` starts a comment. A line the
parser refuses is walked again token by token, only to raise an
``AsmError`` naming the first offending token and its column. Binary
streams are little-endian sequences of 32-bit words.
"""

from __future__ import annotations

import struct
from dataclasses import dataclass, field, fields
from typing import NoReturn

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


def _report_bad_field(cls, values) -> NoReturn:
    for f, value in zip(fields(cls), values):
        _, lo, hi = f.metadata["bits"]
        if type(value) is not int or not lo <= value <= hi:
            raise EncodingError(f"field {f.name}={value!r} out of range [{lo}, {hi}]")
    raise EncodingError(f"invalid fields in {cls.__name__}{values!r}")


def _bits(shift: int, lo: int, hi: int):
    """Declare a record field stored as ``value - lo`` in the word bits from
    ``shift`` up. Each range fills its bits (``hi - lo + 1`` is a power of
    two), so the bit mask alone bounds a decoded field."""
    return field(metadata={"bits": (shift, lo, hi)})


_ENCODERS = {}
_PARSERS = {}  # mnemonic -> parser
# a word's opcode and funct3 bits (word & 0x707F) -> (its reserved bits,
# decoder, formatter)
_WORDS = {}


def _custom(mnemonic: str, funct3: int):
    """Make a class the frozen, slotted record of instruction ``mnemonic``
    and generate its constructor, encoder, decoder, parser and word
    formatter from its ``_bits`` declarations. The constructor and decoder
    write each field through its slot descriptor, which the frozen
    ``__setattr__`` does not guard; the decoder skips the constructor's
    check. The parser takes ``{name: text}`` and returns the word, raising
    on a wrong field count, a missing name, a bad integer or a value out of
    range; the formatter reads each field straight from the word bits."""
    def build(cls):
        cls = dataclass(frozen=True, slots=True, init=False)(cls)
        cls.mnemonic = cls.kind = mnemonic
        names = [f.name for f in fields(cls)]
        args = ", ".join(names)
        base, used = OPCODE_CUSTOM0 | funct3 << 12, 0x7F | 0x7 << 12
        # ``packed`` ORs the stored fields onto the base; {0} prefixes each
        # field name ("instr." in the encoder, nothing in the parser)
        ranges, packed, decoded, parsed, text = [], [str(base)], [], [], [mnemonic]
        for f in fields(cls):
            name, (shift, lo, hi) = f.name, f.metadata["bits"]
            used |= hi - lo << shift
            ranges.append(f"{lo} <= {name} <= {hi}")
            stored, bits = f"{{0}}{name}", f"word >> {shift} & {hi - lo}"
            if lo:
                stored, bits = f"({stored} - {lo})", f"({bits}) + {lo}"
            packed.append(f"{stored} << {shift}")
            decoded.append(f"    _set_{name}(obj, {bits})")
            parsed.append(f"    {name} = int(texts[{name!r}], 0)")
            width = (hi - lo).bit_length()
            text.append(f"{name}=0b{{{bits}:0{width}b}}" if name == "mask"
                        else f"{name}={{{bits}}}")
        source = "\n".join([
            f"def __init__(self, {args}):",
            f"    if not ({' is '.join(f'type({n})' for n in names)} is int",
            f"            and {' and '.join(ranges)}):",
            f"        _report_bad_field(cls, ({args}))",
            *(f"    _set_{name}(self, {name})" for name in names),
            "def decode(word):",
            "    obj = _new(cls)",
            *decoded,
            "    return obj",
            "def encode(instr):",
            f"    return {' | '.join(packed).format('instr.')}",
            "def parse(texts):",
            f"    if len(texts) != {len(names)}:",
            "        raise ValueError(texts)",
            *parsed,
            f"    if not ({' and '.join(ranges)}):",
            "        raise ValueError(texts)",
            f"    return {' | '.join(packed).format('')}",
            "def text(word):",
            f"    return f{' '.join(text)!r}"])
        namespace = {"cls": cls, "_new": object.__new__, "_report_bad_field": _report_bad_field,
                     **{f"_set_{name}": cls.__dict__[name].__set__ for name in names}}
        exec(source, namespace)
        cls.__init__ = namespace["__init__"]
        cls.__init__.__qualname__ = f"{cls.__qualname__}.__init__"
        _ENCODERS[cls] = namespace["encode"]
        _PARSERS[mnemonic] = namespace["parse"]
        _WORDS[base] = (~used, namespace["decode"], namespace["text"])
        return cls
    return build


@_custom("dl.i", FUNCT3_DLI)
class DlI:
    """Load 64..256 bits from nvec registers into one input-buffer sector."""

    vs1: int = _bits(15, 0, 31)
    nvec: int = _bits(20, 1, 4)
    sec: int = _bits(22, 0, 3)
    mask: int = _bits(25, 0, 15)


@_custom("dl.m", FUNCT3_DLM)
class DlM:
    """Like dl.i, but targets sector ``sec`` of weight memory row m_row."""

    vs1: int = _bits(15, 0, 31)
    nvec: int = _bits(20, 1, 4)
    sec: int = _bits(22, 0, 3)
    mask: int = _bits(25, 0, 15)
    m_row: int = _bits(7, 0, 31)


@_custom("dc.p", FUNCT3_DCP)
class DcP:
    """In-memory MAC against row m_row; the 24-bit partial comes from the
    sh-selected half of vs1 and the result lands in the dh half of vd."""

    vs1: int = _bits(15, 0, 31)
    vd: int = _bits(7, 0, 31)
    sh: int = _bits(20, 0, 1)
    dh: int = _bits(21, 0, 1)
    m_row: int = _bits(22, 0, 31)


@_custom("dc.f", FUNCT3_DCF)
class DcF:
    """Same MAC as dc.p plus ReLU and quantization; the packed nibble goes
    into byte bidx of the dh-selected half of vd."""

    vs1: int = _bits(15, 0, 31)
    vd: int = _bits(7, 0, 31)
    sh: int = _bits(20, 0, 1)
    dh: int = _bits(21, 0, 1)
    m_row: int = _bits(22, 0, 31)
    bidx: int = _bits(27, 0, 3)


CustomInstruction = DlI | DlM | DcP | DcF


def encode(instr: CustomInstruction) -> int:
    """Encode one instruction into its 32-bit word."""
    try:
        encoder = _ENCODERS[instr.__class__]
    except KeyError:
        raise EncodingError(f"not a custom instruction: {instr!r}") from None
    return encoder(instr)


def decode(word: int) -> CustomInstruction:
    """Decode a 32-bit word, rejecting anything encode cannot produce."""
    entry = _WORDS.get(word & 0x707F)
    if entry is not None and not word & entry[0]:
        return entry[1](word)
    if not 0 <= word <= 0xFFFFFFFF:
        raise DecodeError(f"not a 32-bit word: {word:#x}")
    if word & 0x7F != OPCODE_CUSTOM0:
        raise NotCustom0Error(f"opcode {word & 0x7F:#09b} is not custom-0")
    if entry is None:
        raise UnknownFunct3Error(f"funct3 {word >> 12 & 0x7:#05b} does not name an instruction")
    raise ReservedBitsError(f"reserved bits set in {word:#010x}")


_BY_MNEMONIC = {cls.mnemonic: cls for cls in (DlI, DlM, DcP, DcF)}


def assemble(text: str) -> list[int]:
    """Assemble instruction text into a list of 32-bit words."""
    words = []
    for lineno, raw in enumerate(text.splitlines(), start=1):
        tokens = raw.split("#", 1)[0].split()
        if not tokens:
            continue
        try:
            texts = dict(tok.split("=") for tok in tokens[1:])
            if len(texts) == len(tokens) - 1:  # else a name repeats
                words.append(_PARSERS[tokens[0].lower()](texts))
                continue
        except (KeyError, ValueError):
            pass
        _reject(lineno, raw, tokens)
    return words


def _reject(lineno: int, raw: str, tokens: list[str]) -> NoReturn:
    """Raise the AsmError of a line the parser refused, naming its first
    offending token at that token's own column."""
    mnemonic = tokens[0]
    end = raw.index(mnemonic)
    cls = _BY_MNEMONIC.get(mnemonic.lower())
    if cls is None:
        raise AsmError(lineno, end + 1, f"unknown mnemonic {mnemonic!r}")
    wanted = cls.__match_args__  # the field names, in order
    values = {}
    for tok in tokens[1:]:
        # the first occurrence past the previous token is this token: only
        # whitespace lies between them
        start = raw.index(tok, end)
        end = start + len(tok)
        name, eq, val = tok.partition("=")
        if not eq:
            raise AsmError(lineno, start + 1, f"expected name=value, got {tok!r}")
        if name not in wanted:
            raise AsmError(lineno, start + 1, f"{mnemonic} has no field {name!r}")
        if name in values:
            raise AsmError(lineno, start + 1, f"duplicate field {name!r}")
        try:
            values[name] = int(val, 0)
        except ValueError:
            raise AsmError(lineno, start + 1, f"bad integer {val!r}") from None
    missing = [n for n in wanted if n not in values]
    if missing:
        raise AsmError(lineno, 1, f"{mnemonic} missing field(s): {', '.join(missing)}")
    try:
        _report_bad_field(cls, tuple(values[n] for n in wanted))
    except EncodingError as exc:
        raise AsmError(lineno, 1, str(exc)) from None


def format_instruction(instr: CustomInstruction) -> str:
    """Canonical one-line assembly form of an instruction."""
    word = encode(instr)
    return _WORDS[word & 0x707F][2](word)


def disassemble(words) -> str:
    """Disassemble a word sequence into canonical text, one per line,
    formatted straight from the word bits. A word ``decode`` rejects raises
    decode's error, prefixed with the word's index and byte offset."""
    lines = []
    for i, word in enumerate(words):
        entry = _WORDS.get(word & 0x707F)
        if entry is None or word & entry[0]:
            try:
                decode(word)  # raises the word's DecodeError
            except DecodeError as exc:
                raise type(exc)(f"word {i} (byte offset {4 * i}): {exc}") from None
        lines.append(entry[2](word))
    return "\n".join(lines) + "\n"


def pack_words(words) -> bytes:
    """Serialize words as a little-endian binary stream."""
    return struct.pack(f"<{len(words)}I", *words)


def unpack_words(data: bytes) -> list[int]:
    """Parse a little-endian binary stream back into words."""
    if len(data) % 4:
        raise DecodeError(f"stream length {len(data)} is not a multiple of 4")
    return list(struct.unpack(f"<{len(data) // 4}I", data))
