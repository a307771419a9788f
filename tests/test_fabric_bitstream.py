"""Unit tests for the MVRAM and the 128-bit configuration frames."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.fabric.array import CellArray
from repro.fabric.bitstream import (
    BitstreamError,
    _cell_fields,
    cell_digits,
    cell_to_frame,
    crc16,
    decode_array,
    decode_cell,
    encode_array,
    encode_cell,
    frame_to_cell,
)
from repro.fabric.driver import DriverMode
from repro.fabric.mvram import FRAME_BITS, MVRAM, N_CELLS
from repro.fabric.nandcell import (
    CellConfig,
    Direction,
    InputSource,
    LfbPartner,
)


def random_config(rng: np.random.Generator) -> CellConfig:
    """A structurally valid random CellConfig."""
    from repro.fabric.leafcell import LeafState

    cfg = CellConfig()
    for r in range(6):
        cfg.crosspoints[r] = [LeafState(int(rng.integers(0, 3))) for _ in range(6)]
        cfg.drivers[r] = DriverMode(int(rng.integers(0, 4)))
        cfg.directions[r] = Direction(int(rng.integers(0, 2)))
    for c in range(6):
        cfg.input_select[c] = InputSource(int(rng.integers(0, 3)))
    cfg.lfb_partner = LfbPartner(int(rng.integers(0, 3)))
    for k in range(2):
        tap = int(rng.integers(-1, 6))
        cfg.lfb_taps[k] = None if tap < 0 else tap
    return cfg


class TestMVRAM:
    def test_frame_is_128_bits(self):
        # The paper's headline number: an 8x8 multi-valued RAM = 128 bits.
        assert FRAME_BITS == 128
        assert MVRAM().to_bits().shape == (128,)

    def test_word_round_trip(self):
        ram = MVRAM()
        ram.write_word(3, [0, 1, 2, 3, 0, 1, 2, 3])
        np.testing.assert_array_equal(ram.read_word(3), [0, 1, 2, 3, 0, 1, 2, 3])

    def test_word_bounds(self):
        ram = MVRAM()
        with pytest.raises(ValueError):
            ram.write_word(8, [0] * 8)
        with pytest.raises(ValueError):
            ram.read_word(-1)

    def test_digit_range_enforced(self):
        ram = MVRAM()
        with pytest.raises(ValueError):
            ram.write_word(0, [0, 1, 2, 4, 0, 0, 0, 0])
        with pytest.raises(ValueError):
            ram.write_digit(0, 9)

    def test_bits_round_trip(self):
        rng = np.random.default_rng(3)
        ram = MVRAM()
        ram.load_digits(rng.integers(0, 4, size=N_CELLS))
        back = MVRAM.from_bits(ram.to_bits())
        np.testing.assert_array_equal(back.digits(), ram.digits())

    def test_flat_digit_access(self):
        ram = MVRAM()
        ram.write_digit(17, 3)
        assert ram.read_digit(17) == 3
        assert ram.read_word(2)[1] == 3  # 17 = 2*8 + 1

    def test_hold_power_is_tiny(self):
        # One frame's 64 storage nodes draw nanowatts — the basis of the
        # paper's <=100 mW-per-1e9-cells claim.
        assert 0.0 < MVRAM().hold_power_w() < 1e-6


class TestCellFrame:
    def test_default_config_round_trip(self):
        cfg = CellConfig()
        assert frame_to_cell(cell_to_frame(cfg)) == cfg

    @given(seed=st.integers(0, 10_000))
    @settings(max_examples=60, deadline=None)
    def test_random_config_round_trip(self, seed):
        cfg = random_config(np.random.default_rng(seed))
        back = frame_to_cell(cell_to_frame(cfg))
        assert back == cfg

    def test_frame_length(self):
        assert len(cell_to_frame(CellConfig())) == FRAME_BITS

    def test_decode_rejects_bad_crosspoint_digit(self):
        digits = encode_cell(CellConfig())
        digits[0] = 3  # crosspoint trits are 0..2
        with pytest.raises(ValueError, match="crosspoint"):
            decode_cell(digits)

    def test_decode_rejects_bad_direction(self):
        digits = encode_cell(CellConfig())
        digits[42] = 2
        with pytest.raises(ValueError, match="direction"):
            decode_cell(digits)

    def test_decode_rejects_reserved_use(self):
        digits = encode_cell(CellConfig())
        digits[60] = 1
        with pytest.raises(ValueError, match="reserved"):
            decode_cell(digits)

    def test_decode_rejects_bad_tap(self):
        digits = encode_cell(CellConfig())
        digits[55], digits[56] = 1, 2  # encodes 6: not a row, not None
        with pytest.raises(ValueError, match="lfb tap"):
            decode_cell(digits)


def digit_grid(configs) -> np.ndarray:
    """The ``(rows, cols, 64)`` digit grid of rows of CellConfigs."""
    return np.array([[encode_cell(cfg) for cfg in row] for row in configs])


def crc16_bitwise(bits) -> int:
    """The per-bit CRC-16/CCITT-FALSE loop: the oracle for :func:`crc16`."""
    reg = 0xFFFF
    arr = np.asarray(bits, dtype=np.uint8)
    for byte in np.packbits(arr):  # zero-pads a partial last byte
        reg ^= int(byte) << 8
        for _ in range(8):
            if reg & 0x8000:
                reg = ((reg << 1) ^ 0x1021) & 0xFFFF
            else:
                reg = (reg << 1) & 0xFFFF
    return reg


class TestArrayBitstream:
    def test_round_trip(self):
        rng = np.random.default_rng(11)
        configs = [[random_config(rng) for _ in range(3)] for _ in range(2)]
        back = decode_array(encode_array(digit_grid(configs)))
        assert [[decode_cell(d) for d in row] for row in back] == configs

    def test_stream_length(self):
        configs = [[CellConfig() for _ in range(4)] for _ in range(2)]
        bits = encode_array(digit_grid(configs))
        assert len(bits) == 16 + 2 * 4 * FRAME_BITS + 16

    def test_corruption_detected(self):
        bits = encode_array(digit_grid([[CellConfig()]]))
        bits[40] ^= 1  # flip a payload bit
        with pytest.raises(BitstreamError, match="CRC"):
            decode_array(bits)

    def test_truncation_detected(self):
        bits = encode_array(digit_grid([[CellConfig()]]))
        with pytest.raises(BitstreamError, match="length"):
            decode_array(bits[:-8])

    def test_ragged_rows_rejected(self):
        blank = encode_cell(CellConfig())
        with pytest.raises(BitstreamError, match="cells"):
            encode_array([[blank, blank], [blank]])
        with pytest.raises(BitstreamError, match="cells"):
            encode_array(np.zeros((2, 2, N_CELLS - 1), dtype=np.uint8))

    def test_non_binary_bits_and_empty_shapes_rejected(self):
        bits = encode_array(digit_grid([[CellConfig()]]))
        bits[40] = 2
        with pytest.raises(BitstreamError, match="0/1"):
            decode_array(bits)
        empty = np.zeros(32, dtype=np.uint8)  # a 0x0 header, no frames
        with pytest.raises(BitstreamError, match="0x0"):
            decode_array(empty)

    def test_encode_refuses_out_of_range_digits(self):
        grid = digit_grid([[CellConfig()]])
        grid[0, 0, 42] = 2  # direction digits are 0..1
        with pytest.raises(ValueError, match="direction"):
            encode_array(grid)

    def test_crc16_known_properties(self):
        bits = np.zeros(64, dtype=np.uint8)
        a = crc16(bits)
        bits[5] = 1
        b = crc16(bits)
        assert a != b
        assert 0 <= a <= 0xFFFF

    @given(n=st.integers(0, 2_000), seed=st.integers(0, 2**32 - 1))
    @settings(max_examples=60, deadline=None)
    def test_crc16_matches_the_bitwise_oracle(self, n, seed):
        # Includes lengths that are not a multiple of 8 (zero-padded).
        bits = np.random.default_rng(seed).integers(0, 2, n, dtype=np.uint8)
        assert crc16(bits) == crc16_bitwise(bits)

    def test_crc16_matches_the_oracle_on_an_rca8_sized_payload(self):
        bits = np.random.default_rng(8).integers(0, 2, 31 * 31 * FRAME_BITS,
                                                 dtype=np.uint8)
        assert crc16(bits) == crc16_bitwise(bits)


class TestDigitGrid:
    @given(seed=st.integers(0, 2**32 - 1), big=st.integers(9, 255))
    @settings(max_examples=25, deadline=None)
    def test_from_digits_rejects_exactly_what_the_cell_decoder_rejects(
        self, seed, big
    ):
        # A 2x3 grid of random valid cells; every digit position in turn
        # is overwritten with 0..8 and one large value.  The oracle is
        # the frame layout in the module docstring: each field's largest
        # digit, and a tap pair encoding a row 0..5 or 7.
        rng = np.random.default_rng(seed)
        base = [cell_digits(random_config(rng)) for _ in range(6)]
        field_max = [(36, 2), (42, 3), (48, 1), (54, 2), (55, 2), (59, 3), (64, 0)]
        for pos in range(N_CELLS):
            top = next(top for end, top in field_max if pos < end)
            cell = pos % 6
            for value in [*range(9), big]:
                d = bytearray(base[cell])
                d[pos] = value
                valid = value <= top
                if 55 <= pos < 59:
                    hi = pos - (pos - 55) % 2
                    valid = valid and d[hi] * 4 + d[hi + 1] in (0, 1, 2, 3, 4, 5, 7)
                digits = b"".join([*base[:cell], d, *base[cell + 1 :]])
                if valid:
                    _cell_fields(bytes(d))
                    assert CellArray.from_digits(2, 3, digits).to_digits() == digits
                else:
                    with pytest.raises(ValueError):
                        _cell_fields(bytes(d))
                    with pytest.raises(ValueError, match=f"cell {cell} "):
                        CellArray.from_digits(2, 3, digits)

    def test_tap_digits_are_quaternary(self):
        # (0, 7) would read as "no tap" but is not a digit pair the
        # encoder writes, and its low digit does not fit in two bits.
        digits = bytearray(cell_digits(CellConfig()))
        digits[55], digits[56] = 0, 7
        with pytest.raises(ValueError, match="lfb tap"):
            CellArray.from_digits(1, 1, bytes(digits))
