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

An array-level bitstream is simply the concatenation of per-cell frames in
row-major cell order, prefixed by a small header with the array shape and a
CRC-16 over the payload — enough structure to catch truncated or corrupted
streams in tests without inventing a full configuration protocol the paper
does not describe.
"""

from __future__ import annotations

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


_LEAF = tuple(LeafState(v) for v in range(3))
_DRIVER = tuple(DriverMode(v) for v in range(4))
_DIRECTION = tuple(Direction(v) for v in range(2))
_INSEL = tuple(InputSource(v) for v in range(3))
_PARTNER = tuple(LfbPartner(v) for v in range(3))
_BLANK_CELL = CellConfig()
#: The blank cell's digits: every field 0 except the two unused lfb taps.
_BLANK_DIGITS = (
    bytes(_OFF_TAPS)
    + bytes([_TAP_NONE >> 2, _TAP_NONE & 0b11] * N_LFB)
    + bytes(_RESERVED)
)


def cell_digits(config: CellConfig) -> bytes:
    """One CellConfig's 64 quaternary digits as raw bytes, unvalidated.

    The byte-level core of :func:`encode_cell`: :class:`CellArray`
    packs whole arrays through it (installed configs were validated by
    :meth:`CellArray.set_cell`), and the artifact codec stores the
    result as an array's ``array`` section.
    """
    if config == _BLANK_CELL:  # most of a compiled array
        return _BLANK_DIGITS
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
    if max(d[_OFF_XPOINT:_OFF_DRIVER]) > 2:
        k = next(k for k in range(_OFF_DRIVER) if d[k] > 2)
        raise ValueError(
            f"crosspoint digit {d[k]} at row {k // N_INPUTS} col "
            f"{k % N_INPUTS} out of range"
        )
    if max(d[_OFF_DRIVER:_OFF_DIRECTION]) > 3:
        raise ValueError(
            f"driver digits {list(d[_OFF_DRIVER:_OFF_DIRECTION])} out of range"
        )
    if max(d[_OFF_DIRECTION:_OFF_INSEL]) > 1:
        raise ValueError(
            f"direction digits {list(d[_OFF_DIRECTION:_OFF_INSEL])} out of range"
        )
    if max(d[_OFF_INSEL:_OFF_PARTNER]) > 2:
        raise ValueError(
            f"input-select digits {list(d[_OFF_INSEL:_OFF_PARTNER])} out of range"
        )
    if d[_OFF_PARTNER] > 2:
        raise ValueError(f"lfb-partner digit {d[_OFF_PARTNER]} out of range")
    taps = []
    for t in range(N_LFB):
        value = d[_OFF_TAPS + 2 * t] << 2 | d[_OFF_TAPS + 2 * t + 1]
        if value == _TAP_NONE:
            taps.append(None)
        elif value < N_ROWS:
            taps.append(value)
        else:
            raise ValueError(f"lfb tap {t} digit pair encodes {value}, out of range")
    if any(d[_OFF_RESERVED:]):
        raise ValueError("reserved digits must be zero")
    return (
        tuple(
            tuple(_LEAF[v] for v in d[k : k + N_INPUTS])
            for k in range(_OFF_XPOINT, _OFF_DRIVER, N_INPUTS)
        ),
        tuple(_DRIVER[v] for v in d[_OFF_DRIVER:_OFF_DIRECTION]),
        tuple(_DIRECTION[v] for v in d[_OFF_DIRECTION:_OFF_INSEL]),
        tuple(_INSEL[v] for v in d[_OFF_INSEL:_OFF_PARTNER]),
        _PARTNER[d[_OFF_PARTNER]],
        tuple(taps),
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


def cell_to_frame(config: CellConfig) -> np.ndarray:
    """CellConfig -> 128-bit frame via the MVRAM digit layout."""
    ram = MVRAM()
    ram.load_digits(encode_cell(config))
    return ram.to_bits()


def frame_to_cell(bits) -> CellConfig:
    """Inverse of :func:`cell_to_frame`."""
    return decode_cell(MVRAM.from_bits(bits).digits())


def crc16(bits: np.ndarray) -> int:
    """CRC-16/CCITT over a bit array (MSB-first)."""
    reg = 0xFFFF
    # Pack to bytes for a byte-wise CRC loop.
    arr = np.asarray(bits, dtype=np.uint8)
    pad = (-len(arr)) % 8
    if pad:
        arr = np.concatenate([arr, np.zeros(pad, dtype=np.uint8)])
    for byte in np.packbits(arr):
        reg ^= int(byte) << 8
        for _ in range(8):
            if reg & 0x8000:
                reg = ((reg << 1) ^ 0x1021) & 0xFFFF
            else:
                reg = (reg << 1) & 0xFFFF
    return reg


class BitstreamError(ValueError):
    """Malformed or corrupted array bitstream."""


def encode_array(configs: list[list[CellConfig]]) -> np.ndarray:
    """Concatenate per-cell frames with a shape header and CRC.

    Layout: 8 bits rows | 8 bits cols | frames... | 16 bits CRC (over the
    frame payload only).
    """
    n_rows = len(configs)
    if n_rows == 0 or n_rows > 255:
        raise BitstreamError(f"array rows must be 1..255, got {n_rows}")
    n_cols = len(configs[0])
    if n_cols == 0 or n_cols > 255:
        raise BitstreamError(f"array cols must be 1..255, got {n_cols}")
    frames = []
    for r, row in enumerate(configs):
        if len(row) != n_cols:
            raise BitstreamError(f"row {r} has {len(row)} cells, expected {n_cols}")
        for cfg in row:
            frames.append(cell_to_frame(cfg))
    payload = np.concatenate(frames) if frames else np.zeros(0, dtype=np.uint8)
    header = np.array(
        [(n_rows >> k) & 1 for k in range(7, -1, -1)]
        + [(n_cols >> k) & 1 for k in range(7, -1, -1)],
        dtype=np.uint8,
    )
    crc = crc16(payload)
    trailer = np.array([(crc >> k) & 1 for k in range(15, -1, -1)], dtype=np.uint8)
    return np.concatenate([header, payload, trailer])


def decode_array(bits) -> list[list[CellConfig]]:
    """Inverse of :func:`encode_array`, verifying shape and CRC."""
    arr = np.asarray(bits, dtype=np.uint8)
    if arr.ndim != 1 or len(arr) < 32:
        raise BitstreamError("bitstream too short for header and CRC")
    n_rows = int(arr[:8] @ (1 << np.arange(7, -1, -1)))
    n_cols = int(arr[8:16] @ (1 << np.arange(7, -1, -1)))
    expected = 16 + n_rows * n_cols * FRAME_BITS + 16
    if len(arr) != expected:
        raise BitstreamError(
            f"bitstream length {len(arr)} != expected {expected} for "
            f"{n_rows}x{n_cols} array"
        )
    payload = arr[16:-16]
    crc_stored = int(arr[-16:] @ (1 << np.arange(15, -1, -1)))
    if crc16(payload) != crc_stored:
        raise BitstreamError("CRC mismatch: corrupted bitstream")
    out: list[list[CellConfig]] = []
    k = 0
    for _ in range(n_rows):
        row = []
        for _ in range(n_cols):
            row.append(frame_to_cell(payload[k : k + FRAME_BITS]))
            k += FRAME_BITS
        out.append(row)
    return out
