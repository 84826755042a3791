"""Oracle tests: word-level bitstream reads and writes against bit-serial references.

The references below are the reader, writer and code walks the library
had before its reads and writes became word-level: one ``read_bit`` or
``write_bit`` call per bit.  Each property runs the library and its
reference on the same input and requires the same value, or the same
exception class, and the same ``bit_position`` afterwards, which is the
position a decode error reports.

``max_examples`` is left unset so a hypothesis profile sets the budget:
``pytest tests/test_bitstream_oracle.py --hypothesis-profile=oracle``
runs the larger one registered in ``conftest.py``.
"""

import importlib

import numpy as np
import pytest
from hypothesis import given, strategies as st

from repro.codecs.h264.cavlc import _ESCAPE_BITS, _ESCAPE_PREFIX, _read_rice, _write_rice
from repro.codecs.huffman import LOOKUP_BITS, VlcTable, canonical_codes, encode_run_level
from repro.codecs.mpeg2 import Mpeg2Config, Mpeg2Decoder, Mpeg2Encoder
from repro.codecs.mpeg2 import tables as mpeg2_tables
from repro.codecs.mpeg4 import Mpeg4Config, Mpeg4Decoder, Mpeg4Encoder
from repro.codecs.mpeg4 import tables as mpeg4_tables
from repro.codecs.mpeg4.coefficients import encode_3d
from repro.codecs.vc1 import Vc1Config, Vc1Decoder, Vc1Encoder
from repro.codecs.vc1 import tables as vc1_tables
from repro.codecs.vc1.transform import TransformedBlock
from repro.common.bitstream import UNARY_WINDOW, BitReader, BitWriter
from repro.common.expgolomb import read_se, read_ue, write_se, write_ue
from repro.errors import BitstreamError, TruncationError
from repro.transform.zigzag import ZIGZAG_8X8, scan8, unscan4, unscan8


# -- bit-serial references -----------------------------------------------------


class SerialReader:
    """The bit-serial reader: ``BitReader`` before word-level reads."""

    def __init__(self, data):
        self._data = data
        self._pos = 0

    @property
    def bit_position(self):
        return self._pos

    @property
    def bits_remaining(self):
        return 8 * len(self._data) - self._pos

    def read_bit(self):
        if self._pos >= 8 * len(self._data):
            raise TruncationError("read past end of bitstream")
        byte = self._data[self._pos >> 3]
        bit = (byte >> (7 - (self._pos & 7))) & 1
        self._pos += 1
        return bit

    def read_bits(self, count):
        if count < 0:
            raise BitstreamError(f"count must be non-negative, got {count}")
        if count == 0:
            return 0
        if count > self.bits_remaining:
            raise TruncationError(
                f"requested {count} bits but only {self.bits_remaining} remain"
            )
        position = self._pos
        end = position + count
        start_byte = position >> 3
        end_byte = (end + 7) >> 3
        chunk = int.from_bytes(self._data[start_byte:end_byte], "big")
        shift = 8 * (end_byte - start_byte) - (end - 8 * start_byte)
        self._pos = end
        return (chunk >> shift) & ((1 << count) - 1)

    def read_signed(self, count):
        raw = self.read_bits(count)
        if raw >= 1 << (count - 1):
            raw -= 1 << count
        return raw

    def peek_bits(self, count):
        saved = self._pos
        avail = min(count, self.bits_remaining)
        value = self.read_bits(avail) << (count - avail)
        self._pos = saved
        return value

    def skip_bits(self, count):
        if count > self.bits_remaining:
            raise TruncationError("skip past end of bitstream")
        self._pos += count


class SerialWriter:
    """The bit-serial writer: ``BitWriter`` before word-level writes."""

    def __init__(self):
        self._buffer = bytearray()
        self._accum = 0
        self._nbits = 0

    def __len__(self):
        return 8 * len(self._buffer) + self._nbits

    def write_bit(self, bit):
        if bit not in (0, 1):
            raise BitstreamError(f"bit must be 0 or 1, got {bit!r}")
        self._accum = (self._accum << 1) | bit
        self._nbits += 1
        if self._nbits == 8:
            self._buffer.append(self._accum)
            self._accum = 0
            self._nbits = 0

    def write_bits(self, value, count):
        if count < 0:
            raise BitstreamError(f"count must be non-negative, got {count}")
        value = int(value)
        if value < 0 or value >> count:
            raise BitstreamError(f"value {value} does not fit in {count} bits")
        for shift in range(count - 1, -1, -1):
            self.write_bit((value >> shift) & 1)

    def write_signed(self, value, count):
        if count < 1:
            raise BitstreamError("count must be >= 1 for signed values")
        lo = -(1 << (count - 1))
        hi = (1 << (count - 1)) - 1
        if not lo <= value <= hi:
            raise BitstreamError(f"value {value} does not fit in {count} signed bits")
        self.write_bits(value & ((1 << count) - 1), count)

    def write_bytes(self, data):
        if self._nbits:
            raise BitstreamError("write_bytes requires byte alignment")
        self._buffer.extend(data)

    def align(self, fill=0):
        padded = 0
        while self._nbits:
            self.write_bit(fill)
            padded += 1
        return padded

    def to_bytes(self):
        if not self._nbits:
            return bytes(self._buffer)
        tail = self._accum << (8 - self._nbits)
        return bytes(self._buffer) + bytes([tail])


def serial_vlc_read(table, reader):
    """``VlcTable.read`` walking the code one bit at a time."""
    decode = {code: symbol for symbol, code in table._encode.items()}
    value = 0
    for length in range(1, table.max_length + 1):
        value = (value << 1) | reader.read_bit()
        symbol = decode.get((value, length))
        if symbol is not None:
            return symbol
    raise BitstreamError(f"{table.name}: invalid code in bitstream")


def serial_run_level(tables, reader, size, start=0):
    """A block of (run, level) events ended by EOB (MPEG-2, VC-1), in scan order."""
    scanned = [0] * size
    position = start
    while True:
        symbol = serial_vlc_read(tables.COEFF_TABLE, reader)
        if symbol == tables.EOB:
            return scanned
        if symbol == tables.ESCAPE:
            run = reader.read_bits(tables.ESCAPE_RUN_BITS)
            level = reader.read_signed(tables.ESCAPE_LEVEL_BITS)
        else:
            run, level = symbol
            if reader.read_bit():
                level = -level
        position += run
        if position >= size:
            raise BitstreamError("run/level event past end of block")
        scanned[position] = level
        position += 1


def serial_3d(reader, size, start=0):
    """A block of (last, run, level) events (MPEG-4), in scan order."""
    tables = mpeg4_tables
    scanned = [0] * size
    position = start
    while True:
        symbol = serial_vlc_read(tables.COEFF3D_TABLE, reader)
        if symbol == tables.ESCAPE:
            last = reader.read_bit()
            run = reader.read_bits(tables.ESCAPE_RUN_BITS)
            level = reader.read_signed(tables.ESCAPE_LEVEL_BITS)
        else:
            last, run, level = symbol
            if reader.read_bit():
                level = -level
        position += run
        if position >= size:
            raise BitstreamError("(last, run, level) event past end of block")
        scanned[position] = level
        position += 1
        if last:
            return scanned


def serial_read_ue(reader):
    zeros = 0
    while reader.read_bit() == 0:
        zeros += 1
    value = 1 << zeros
    if zeros:
        value |= reader.read_bits(zeros)
    return value - 1


def serial_read_se(reader):
    k = serial_read_ue(reader)
    magnitude = (k + 1) >> 1
    return magnitude if k & 1 else -magnitude


def serial_read_rice(reader, k):
    quotient = 0
    while reader.read_bit() == 0:
        quotient += 1
        if quotient > _ESCAPE_PREFIX:
            raise BitstreamError("runaway Rice prefix")
    if quotient == _ESCAPE_PREFIX:
        return (_ESCAPE_PREFIX << k) + reader.read_bits(_ESCAPE_BITS)
    remainder = reader.read_bits(k) if k else 0
    return (quotient << k) | remainder


# -- harness -------------------------------------------------------------------


def outcome(read, reader):
    """(value or exception class, bit position afterwards)."""
    try:
        result = read(reader)
    except BitstreamError as error:
        result = type(error)
    return result, reader.bit_position


def assert_same_reads(data, offset, read, reference, reads=6):
    """Read up to ``reads`` codes from bit ``offset`` with both; stop at the first error."""
    fast, serial = BitReader(data), SerialReader(data)
    fast.skip_bits(offset)
    serial.skip_bits(offset)
    for _ in range(reads):
        expected = outcome(reference, serial)
        assert outcome(read, fast) == expected
        if isinstance(expected[0], type):
            return


@st.composite
def coded_data(draw, encode):
    """Random bytes, or ``encode``'s output with random bytes appended; cut at a
    random length and read from a random bit offset."""
    if draw(st.booleans()):
        data = draw(st.binary(max_size=12))
    else:
        data = encode(draw) + draw(st.binary(max_size=3))
        data = data[: draw(st.integers(0, len(data)))]
    offset = draw(st.one_of(st.just(0), st.integers(0, 8 * len(data))))
    return data, offset


def written(write, items):
    """The bit-serial writer's bytes after ``write(writer, item)`` for each item."""
    writer = SerialWriter()
    for item in items:
        write(writer, item)
    return writer.to_bytes()


# -- reader primitives ---------------------------------------------------------


@given(st.binary(max_size=10), st.data())
def test_peek_bits_matches_serial(data, draw):
    offset = draw.draw(st.integers(0, 8 * len(data)))
    count = draw.draw(st.integers(-3, 90))
    assert_same_reads(data, offset, lambda r: r.peek_bits(count),
                      lambda r: r.peek_bits(count), reads=1)


def test_peek_bits_pads_every_width_past_the_end():
    for data in (b"", b"\xff", b"\xa5\x3c"):
        for offset in range(8 * len(data) + 1):
            for count in range(0, 80):
                assert_same_reads(data, offset, lambda r: r.peek_bits(count),
                                  lambda r: r.peek_bits(count), reads=1)


# -- VLC tables ----------------------------------------------------------------


def codec_tables():
    tables = []
    for codec in ("mpeg2", "mpeg4", "vc1", "mjpeg"):
        module = importlib.import_module(f"repro.codecs.{codec}.tables")
        tables += [value for _, value in sorted(vars(module).items())
                   if isinstance(value, VlcTable)]
    return tables


#: "11" is no code: reading it must reach the invalid-code error.
INCOMPLETE = VlcTable({"a": (0, 1), "b": (2, 2)}, name="incomplete")
TABLES = codec_tables() + [INCOMPLETE]


def symbols_written(table):
    codes = table._encode
    symbols = st.lists(st.sampled_from(sorted(codes, key=repr)), max_size=6)
    return lambda draw: written(lambda w, s: w.write_bits(*codes[s]), draw(symbols))


def test_tables_include_codes_longer_than_the_window():
    assert max(table.max_length for table in TABLES) > LOOKUP_BITS
    assert len(TABLES) >= 15


@pytest.mark.parametrize("table", TABLES, ids=lambda table: table.name)
@given(st.data())
def test_codec_table_reads_match_serial(table, draw):
    data, offset = draw.draw(coded_data(symbols_written(table)))
    assert_same_reads(data, offset, table.read, lambda r: serial_vlc_read(table, r))


def test_incomplete_code_fails_where_serial_does():
    for data in (b"\xc0", b"\xff\xff", b"\x7f", b"\x80"):
        for offset in range(8 * len(data) + 1):
            assert_same_reads(data, offset, INCOMPLETE.read,
                              lambda r: serial_vlc_read(INCOMPLETE, r))


@st.composite
def random_tables(draw):
    """Prefix-free codes from random lengths, complete or not, up to 24 bits."""
    lengths = sorted(draw(st.lists(st.integers(1, 24), min_size=1, max_size=40)))
    kept, kraft = [], 0.0
    for length in lengths:
        if kraft + 2.0 ** -length <= 1.0:
            kept.append(length)
            kraft += 2.0 ** -length
    return VlcTable(canonical_codes({f"s{i}": length for i, length in enumerate(kept)}),
                    name="random")


@given(random_tables(), st.data())
def test_random_table_reads_match_serial(table, draw):
    data, offset = draw.draw(coded_data(symbols_written(table)))
    assert_same_reads(data, offset, table.read, lambda r: serial_vlc_read(table, r))


# -- Exp-Golomb ----------------------------------------------------------------

#: ue values up to 2**40: prefixes beyond the reader's unary window.
UE_VALUES = st.one_of(st.integers(0, 300), st.integers(255, 1 << 40))


def test_ue_values_reach_past_the_unary_window():
    assert (1 << 40).bit_length() > UNARY_WINDOW


@given(coded_data(lambda draw: written(write_ue, draw(st.lists(UE_VALUES, max_size=4)))))
def test_read_ue_matches_serial(case):
    data, offset = case
    assert_same_reads(data, offset, read_ue, serial_read_ue)


SE_VALUES = st.one_of(UE_VALUES, UE_VALUES.map(lambda value: -value))


@given(coded_data(lambda draw: written(write_se, draw(st.lists(SE_VALUES, max_size=4)))))
def test_read_se_matches_serial(case):
    data, offset = case
    assert_same_reads(data, offset, read_se, serial_read_se)


def test_long_zero_runs_fail_where_serial_does():
    for data in (bytes(5), bytes(5) + b"\x01", bytes(9) + b"\x80\xff"):
        for offset in range(8 * len(data) + 1):
            assert_same_reads(data, offset, read_ue, serial_read_ue)


# -- CAVLC Golomb-Rice ---------------------------------------------------------


@st.composite
def rice_case(draw):
    """Rice codes, escapes included, after an optional run of zero bytes."""
    k = draw(st.integers(0, 6))
    values = draw(st.lists(st.one_of(st.integers(0, 40 << k),
                                     st.integers(_ESCAPE_PREFIX << k,
                                                 (_ESCAPE_PREFIX << k) + 0xFFFF)),
                           max_size=4))
    zeros = bytes(draw(st.integers(0, 3)))
    data, offset = draw(coded_data(
        lambda _: zeros + written(lambda w, v: _write_rice(w, v, k), values)))
    return k, data, offset


@given(rice_case())
def test_read_rice_matches_serial(case):
    k, data, offset = case
    assert_same_reads(data, offset, lambda r: _read_rice(r, k),
                      lambda r: serial_read_rice(r, k))


def test_runaway_rice_prefix_fails_where_serial_does():
    for data in (bytes(2), bytes(2) + b"\x01", bytes(3), b"\x00\x01\xff\xff\xff"):
        for offset in range(8 * len(data) + 1):
            for k in (0, 3):
                assert_same_reads(data, offset, lambda r: _read_rice(r, k),
                                  lambda r: serial_read_rice(r, k))


# -- writer --------------------------------------------------------------------


@st.composite
def write_bits_op(draw):
    count = draw(st.integers(0, 70))
    value = draw(st.one_of(st.integers(0, (1 << count) - 1),
                           st.integers(-3, 1 << 72)))
    if value.bit_length() < 63 and draw(st.booleans()):
        value = np.int64(value)
    return ("write_bits", value, count)


WRITER_OPS = st.one_of(
    st.tuples(st.just("write_bit"), st.integers(0, 2)),
    write_bits_op(),
    st.integers(0, 40).flatmap(lambda count: st.tuples(
        st.just("write_signed"), st.integers(-(1 << count), 1 << count), st.just(count))),
    st.tuples(st.just("write_bytes"), st.binary(max_size=4)),
    st.tuples(st.just("align"), st.integers(0, 1)),
)


@given(st.lists(WRITER_OPS, max_size=30))
def test_writer_matches_serial(ops):
    writer, serial = BitWriter(), SerialWriter()
    for name, *args in ops:
        outcomes = []
        for target in (writer, serial):
            try:
                outcomes.append(getattr(target, name)(*args))
            except BitstreamError as error:
                outcomes.append(type(error))
        assert outcomes[0] == outcomes[1], (name, args)
        assert len(writer) == len(serial)
    assert writer.to_bytes() == serial.to_bytes()


# -- coefficient blocks ----------------------------------------------------------
#
# Each hybrid decoder's ``_read_block`` against a bit-serial walk of the same
# block, unscanned to raster order.  The blocks are written by the codec's
# own encoder with random levels: sparse blocks give runs past ``MAX_RUN``,
# and levels up to the escape field's range pass ``MAX_LEVEL``, so escapes
# occur.


def read_mpeg2_block(reader):
    return unscan8(serial_run_level(mpeg2_tables, reader, 64)).tolist()


def read_mpeg4_block(reader):
    return unscan8(serial_3d(reader, 64)).tolist()


def read_vc1_block(adaptive):
    def read(reader):
        size = reader.read_bit() if adaptive else vc1_tables.TRANSFORM_8X8
        if size == vc1_tables.TRANSFORM_8X8:
            return size, unscan8(serial_run_level(vc1_tables, reader, 64)).tolist(), None
        return size, None, [unscan4(serial_run_level(vc1_tables, reader, 16)).tolist()
                            for _ in vc1_tables.SUBBLOCK_OFFSETS]
    return read


def as_lists(block):
    """A decoded block as nested lists (``TransformedBlock`` fields for VC-1)."""
    if isinstance(block, TransformedBlock):
        return (block.size,
                None if block.levels8 is None else block.levels8.tolist(),
                None if block.levels4 is None else [levels.tolist() for levels in block.levels4])
    return block.tolist()


#: Levels of one coefficient: mostly small, some past ``MAX_LEVEL`` up to the
#: 12-bit escape field's range.
LEVELS = st.one_of(st.integers(-4, 4), st.integers(-2048, 2047))


def random_levels(draw, size):
    """A raster-order ``size`` x ``size`` block with a random few non-zero levels."""
    block = np.zeros(size * size, dtype=np.int64)
    placed = draw(st.dictionaries(st.integers(0, size * size - 1), LEVELS,
                                  max_size=size * size // 2))
    for index, value in placed.items():
        block[index] = value
    return block.reshape(size, size)


def random_transformed(draw, adaptive):
    if adaptive and draw(st.booleans()):
        return TransformedBlock(vc1_tables.TRANSFORM_4X4,
                                levels4=[random_levels(draw, 4) for _ in range(4)])
    return TransformedBlock(vc1_tables.TRANSFORM_8X8, levels8=random_levels(draw, 8))


def blocks_written(encoder, draw_block):
    """``encoder._write_block``'s bytes for up to four random blocks."""
    def encode(draw):
        writer = SerialWriter()
        for _ in range(draw(st.integers(1, 4))):
            encoder._write_block(writer, draw_block(draw))
        return writer.to_bytes()
    return encode


def vc1_codec(adaptive):
    decoder = Vc1Decoder()
    decoder._adaptive = adaptive
    encoder = Vc1Encoder(Vc1Config(width=16, height=16, adaptive_transform=adaptive))
    return (decoder, encoder, lambda draw: random_transformed(draw, adaptive),
            read_vc1_block(adaptive))


#: name -> (decoder, encoder, random block, bit-serial block read).
BLOCK_CODECS = {
    "mpeg2": (Mpeg2Decoder(), Mpeg2Encoder(Mpeg2Config(width=16, height=16)),
              lambda draw: random_levels(draw, 8), read_mpeg2_block),
    "mpeg4": (Mpeg4Decoder(), Mpeg4Encoder(Mpeg4Config(width=16, height=16)),
              lambda draw: random_levels(draw, 8), read_mpeg4_block),
    "vc1-8x8": vc1_codec(False),
    "vc1-adaptive": vc1_codec(True),
}


@pytest.mark.parametrize("name", sorted(BLOCK_CODECS))
@given(st.data())
def test_block_reads_match_serial(name, draw):
    decoder, encoder, draw_block, reference = BLOCK_CODECS[name]
    data, offset = draw.draw(coded_data(blocks_written(encoder, draw_block)))
    assert_same_reads(data, offset, lambda r: as_lists(decoder._read_block(r)), reference)


def test_block_levels_reach_the_escapes():
    for tables in (mpeg2_tables, mpeg4_tables, vc1_tables):
        assert tables.MAX_RUN < 63 and tables.MAX_LEVEL < 2047


#: name -> (block code, encoder-side intra AC coder, bit-serial intra AC read).
INTRA_CODES = {
    "mpeg2": (mpeg2_tables.COEFF_CODE,
              lambda w, scanned: encode_run_level(w, mpeg2_tables.COEFF_CODE, scanned, start=1),
              lambda r: serial_run_level(mpeg2_tables, r, 64, start=1)),
    "mpeg4": (mpeg4_tables.COEFF3D_CODE,
              lambda w, scanned: encode_3d(w, scanned, start=1),
              lambda r: serial_3d(r, 64, start=1)),
    "vc1": (vc1_tables.COEFF_CODE,
            lambda w, scanned: encode_run_level(w, vc1_tables.COEFF_CODE, scanned, start=1),
            lambda r: serial_run_level(vc1_tables, r, 64, start=1)),
}


@pytest.mark.parametrize("name", sorted(INTRA_CODES))
@given(st.data())
def test_intra_block_reads_match_serial(name, draw):
    code, write, serial = INTRA_CODES[name]

    def encode(draw):
        count = draw(st.integers(1, 4))
        return written(write, [scan8(random_levels(draw, 8)) for _ in range(count)])

    data, offset = draw.draw(coded_data(encode))
    assert_same_reads(data, offset,
                      lambda r: code.read_block(r, ZIGZAG_8X8.raster, start=1),
                      lambda r: unscan8(serial(r)).ravel().tolist())
