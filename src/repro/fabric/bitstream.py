"""Configuration frame encoding: CellConfig <-> 128-bit frames.

Frame layout (64 quaternary digits = 128 bits, matching the paper's
"8x8 RAM block ... 128 bits reconfiguration data"):

====== ===========================================================
digits  contents
====== ===========================================================
0-35    crosspoint trits, row-major (LeafState 0..2)
36-41   driver modes (DriverMode 0..3)
42-47   per-row output direction (Direction 0..1)
48-53   input column sources (InputSource 0..2)
54      lfb partner (LfbPartner 0..2)
55-56   lfb tap 0: (hi, lo) quaternary digits encoding 0..7 (7 = unused)
57-58   lfb tap 1: same encoding
59-63   reserved (must read back 0)
====== ===========================================================

An array's configuration is a ``(rows, cols, 64)`` uint8 matrix of these
digits (what :class:`repro.fabric.array.CellArray` stores).  Its bitstream
is simply the concatenation of per-cell frames in row-major cell order,
prefixed by a small header with the array shape and a CRC-16 over the
payload — enough structure to catch truncated or corrupted streams in
tests without inventing a full configuration protocol the paper does not
describe.
"""

from __future__ import annotations

import binascii
from functools import lru_cache
from itertools import chain

import numpy as np

from repro.fabric.driver import DriverMode
from repro.fabric.leafcell import LeafState
from repro.fabric.mvram import FRAME_BITS, MVRAM, N_CELLS
from repro.fabric.nandcell import (
    CellConfig,
    Direction,
    InputSource,
    LfbPartner,
    N_INPUTS,
    N_LFB,
    N_ROWS,
)

_TAP_NONE = 7

# Digit-field offsets.
_OFF_XPOINT = 0
_OFF_DRIVER = 36
_OFF_DIRECTION = 42
_OFF_INSEL = 48
_OFF_PARTNER = 54
_OFF_TAPS = 55
_OFF_RESERVED = 59
_RESERVED = (0,) * (N_CELLS - _OFF_RESERVED)
#: Largest legal value of each digit, and the field it belongs to.  A
#: tap's high digit is 0 or 1: the pair encodes a row 0..5, or 7 (unused).
_DIGIT_MAX = np.array(
    [2] * _OFF_DRIVER + [3] * N_ROWS + [1] * N_ROWS + [2] * N_INPUTS + [2]
    + [1, 3] * N_LFB + list(_RESERVED),
    dtype=np.uint8,
)
_FIELD = (
    ["crosspoint"] * _OFF_DRIVER + ["driver"] * N_ROWS + ["direction"] * N_ROWS
    + ["input-select"] * N_INPUTS + ["lfb-partner"] + ["lfb tap"] * 2 * N_LFB
    + ["reserved"] * len(_RESERVED)
)

_LEAF = tuple(LeafState(v) for v in range(3))
_DRIVER = tuple(DriverMode(v) for v in range(4))
_DIRECTION = tuple(Direction(v) for v in range(2))
_INSEL = tuple(InputSource(v) for v in range(3))
_PARTNER = tuple(LfbPartner(v) for v in range(3))


def cell_digits(config: CellConfig) -> bytes:
    """One CellConfig's 64 quaternary digits as raw bytes, unvalidated.

    The byte-level core of :func:`encode_cell` and of
    :meth:`CellArray.set_cell` (which validates first).
    """
    t0, t1 = config.lfb_taps
    if t0 is None:
        t0 = _TAP_NONE
    if t1 is None:
        t1 = _TAP_NONE
    return bytes([
        *chain.from_iterable(config.crosspoints),
        *config.drivers,
        *config.directions,
        *config.input_select,
        config.lfb_partner,
        t0 >> 2 & 0b11, t0 & 0b11, t1 >> 2 & 0b11, t1 & 0b11,
        *_RESERVED,
    ])


#: The blank cell's digits: every field 0 except the two unused lfb taps.
BLANK_DIGITS = cell_digits(CellConfig())


def cell_from_digits(digits: bytes) -> CellConfig:
    """Inverse of :func:`cell_digits`; validates every field strictly."""
    xpoints, drivers, directions, insel, partner, taps = _cell_fields(
        bytes(digits)
    )
    return CellConfig(
        crosspoints=[list(row) for row in xpoints],
        drivers=list(drivers),
        directions=list(directions),
        input_select=list(insel),
        lfb_partner=partner,
        lfb_taps=list(taps),
    )


@lru_cache(maxsize=4096)
def _cell_fields(d: bytes) -> tuple:
    """The validated fields of one cell's digits, as immutable tuples.

    Memoised: a compiled array repeats a handful of cell patterns, so
    decoding a whole array mostly copies cached fields.
    """
    if len(d) != N_CELLS:
        raise ValueError(f"need {N_CELLS} digits, got {len(d)}")
    check_digits(np.frombuffer(d, dtype=np.uint8))
    taps = [d[k] << 2 | d[k + 1] for k in range(_OFF_TAPS, _OFF_RESERVED, 2)]
    return (
        tuple(
            tuple(_LEAF[v] for v in d[k : k + N_INPUTS])
            for k in range(_OFF_XPOINT, _OFF_DRIVER, N_INPUTS)
        ),
        tuple(_DRIVER[v] for v in d[_OFF_DRIVER:_OFF_DIRECTION]),
        tuple(_DIRECTION[v] for v in d[_OFF_DIRECTION:_OFF_INSEL]),
        tuple(_INSEL[v] for v in d[_OFF_INSEL:_OFF_PARTNER]),
        _PARTNER[d[_OFF_PARTNER]],
        tuple(None if t == _TAP_NONE else t for t in taps),
    )


def encode_cell(config: CellConfig) -> np.ndarray:
    """Encode one CellConfig into its 64 quaternary digits."""
    config.validate()
    return np.frombuffer(cell_digits(config), dtype=np.uint8).copy()


def decode_cell(digits) -> CellConfig:
    """Inverse of :func:`encode_cell`; validates every field strictly."""
    arr = np.asarray(digits, dtype=np.int64)
    if arr.shape != (N_CELLS,):
        raise ValueError(f"need {N_CELLS} digits, got shape {arr.shape}")
    if arr.min() < 0 or arr.max() > 3:
        raise ValueError(f"digits must be quaternary (0..3), got {arr.tolist()}")
    return cell_from_digits(arr.astype(np.uint8).tobytes())


def _tap_values(digits: np.ndarray) -> np.ndarray:
    """The two lfb tap values (row, or 7 for unused) of every cell."""
    hi = digits[..., _OFF_TAPS:_OFF_RESERVED:2]
    return hi << 2 | digits[..., _OFF_TAPS + 1:_OFF_RESERVED:2]


def check_digits(digits: np.ndarray) -> None:
    """Raise ``ValueError`` unless every cell of a ``(..., 64)`` grid decodes.

    The one validity rule for configuration digits, applied to all cells
    in one vectorised pass: every digit within its field's range, and no
    lfb tap pair encoding ``N_ROWS`` (neither a row nor unused).  The
    error names the first offending digit.
    """
    cells = digits.reshape(-1, N_CELLS)
    bad = cells > _DIGIT_MAX
    bad[:, _OFF_TAPS:_OFF_RESERVED:2] |= _tap_values(cells) == N_ROWS
    if bad.any():
        i, k = divmod(int(bad.argmax()), N_CELLS)
        v = int(cells[i, k])
        where = f"cell {i} " if len(cells) > 1 else ""
        if v > _DIGIT_MAX[k]:
            what = f"{_FIELD[k]} digit {v}"
        else:
            what = f"lfb tap digit pair encoding {N_ROWS}"
        raise ValueError(f"{where}{what} at frame digit {k} out of range")


def leaf_counts(digits: np.ndarray) -> np.ndarray:
    """:meth:`CellConfig.leaf_count` of every cell of a ``(..., 64)`` grid.

    Crosspoints off their FORCE_OFF default, drivers not OFF and used lfb
    taps; zero marks a blank cell (:meth:`CellConfig.is_blank`).
    """
    return np.count_nonzero(digits[..., :_OFF_DIRECTION], axis=-1) + np.count_nonzero(
        _tap_values(digits) != _TAP_NONE, axis=-1
    )


def cell_to_frame(config: CellConfig) -> np.ndarray:
    """CellConfig -> 128-bit frame via the MVRAM digit layout."""
    ram = MVRAM()
    ram.load_digits(encode_cell(config))
    return ram.to_bits()


def frame_to_cell(bits) -> CellConfig:
    """Inverse of :func:`cell_to_frame`."""
    return decode_cell(MVRAM.from_bits(bits).digits())


def crc16(bits: np.ndarray) -> int:
    """CRC-16/CCITT-FALSE over a bit array (MSB-first, zero-padded to bytes)."""
    packed = np.packbits(np.asarray(bits, dtype=np.uint8))
    return binascii.crc_hqx(packed.tobytes(), 0xFFFF)


class BitstreamError(ValueError):
    """Malformed or corrupted array bitstream."""


def encode_array(digits) -> np.ndarray:
    """Serialise a ``(rows, cols, 64)`` digit grid with a shape header and CRC.

    Layout: 8 bits rows | 8 bits cols | frames... | 16 bits CRC (over the
    frame payload only).  A frame is its cell's digits at two bits each,
    MSB first — the :meth:`repro.fabric.mvram.MVRAM.to_bits` order.
    """
    try:
        grid = np.asarray(digits, dtype=np.uint8)
    except ValueError as exc:  # ragged rows do not form a grid
        raise BitstreamError(f"rows of cells do not form a grid: {exc}") from exc
    if grid.ndim != 3 or grid.shape[2] != N_CELLS:
        raise BitstreamError(
            f"need rows of cells of {N_CELLS} digits each, got shape {grid.shape}"
        )
    for name, n in zip(("rows", "cols"), grid.shape):
        if not 1 <= n <= 255:
            raise BitstreamError(f"array {name} must be 1..255, got {n}")
    check_digits(grid)
    payload = np.unpackbits(grid.reshape(-1, 1), axis=1)[:, 6:].reshape(-1)
    crc = crc16(payload)
    return np.concatenate([
        np.unpackbits(np.array(grid.shape[:2], dtype=np.uint8)),
        payload,
        np.unpackbits(np.array([crc >> 8, crc & 0xFF], dtype=np.uint8)),
    ])


def decode_array(bits) -> np.ndarray:
    """Inverse of :func:`encode_array`, verifying shape, CRC and digits."""
    arr = np.asarray(bits, dtype=np.uint8)
    if arr.ndim != 1 or len(arr) < 32:
        raise BitstreamError("bitstream too short for header and CRC")
    if arr.max() > 1:
        raise BitstreamError("bitstream bits must be 0/1")
    n_rows, n_cols = (int(v) for v in np.packbits(arr[:16]))
    if not n_rows or not n_cols:
        raise BitstreamError(f"bitstream header declares a {n_rows}x{n_cols} array")
    expected = 16 + n_rows * n_cols * FRAME_BITS + 16
    if len(arr) != expected:
        raise BitstreamError(
            f"bitstream length {len(arr)} != expected {expected} for "
            f"{n_rows}x{n_cols} array"
        )
    payload = arr[16:-16]
    hi, lo = (int(v) for v in np.packbits(arr[-16:]))
    if crc16(payload) != hi << 8 | lo:
        raise BitstreamError("CRC mismatch: corrupted bitstream")
    grid = (payload[0::2] << 1 | payload[1::2]).reshape(n_rows, n_cols, N_CELLS)
    check_digits(grid)
    return grid
