"""Quickstart: configure one polymorphic cell, simulate it, serialise it.

Demonstrates the three faces of the leaf cell the paper's title promises —
logic, interconnect, and (via the SR-latch feedback) state — in under a
hundred lines, then round-trips the whole configuration through the
128-bit-per-cell bitstream.

Run:  python examples/quickstart.py
"""

from repro.core.platform import PolymorphicPlatform
from repro.fabric.array import wire_name
from repro.fabric.driver import DriverMode
from repro.fabric.nandcell import CellConfig, InputSource
from repro.sim.values import format_value


def main() -> None:
    # ------------------------------------------------------------------
    # A cell as LOGIC: row 0 computes NAND(i0, i1); the INVERT driver
    # turns a second copy into AND.  A cell as INTERCONNECT: row 2 passes
    # input line 2 straight through.  A cell as STATE: rows 3/4 form an
    # SR latch through the two local-feedback lines.
    # ------------------------------------------------------------------
    cfg = CellConfig()
    cfg.set_product(0, [0, 1])               # NAND(i0, i1)
    cfg.drivers[0] = DriverMode.BUFFER
    cfg.set_product(1, [0, 1])               # AND(i0, i1) via INVERT
    cfg.drivers[1] = DriverMode.INVERT
    cfg.set_product(2, [2])                  # feed-through of i2
    cfg.drivers[2] = DriverMode.INVERT
    cfg.set_product(3, [0, 5])               # q  = NAND(s_n, qb)
    cfg.set_product(4, [1, 4])               # qb = NAND(r_n, q)
    cfg.lfb_taps[0] = 3                      # lfb0 = q
    cfg.lfb_taps[1] = 4                      # lfb1 = qb
    cfg.input_select[4] = InputSource.LFB0   # column 4 reads q
    cfg.input_select[5] = InputSource.LFB1   # column 5 reads qb
    cfg.drivers[3] = DriverMode.BUFFER

    platform = PolymorphicPlatform(1, 1)
    platform.array.set_cell(0, 0, cfg)

    i0, i1, i2 = (wire_name(0, 0, k) for k in range(3))
    nand_out, and_out, feed_out, q_out = (wire_name(0, 1, k) for k in range(4))

    print("== logic and interconnect ==")
    for a, b, c in [(0, 0, 1), (1, 1, 0)]:
        platform.drive_bit(i0, a)
        platform.drive_bit(i1, b)
        platform.drive_bit(i2, c)
        platform.settle()
        print(
            f"  i0={a} i1={b} i2={c} ->"
            f" NAND={format_value(platform.value(nand_out))}"
            f" AND={format_value(platform.value(and_out))}"
            f" feedthrough={format_value(platform.value(feed_out))}"
        )

    print("== state (SR latch on the same cell's lfb lines) ==")
    # Note: i0 doubles as s_n and i1 as r_n for rows 3/4.
    platform.drive_bit(i0, 0)   # set
    platform.drive_bit(i1, 1)
    platform.settle()
    print(f"  set:   q={format_value(platform.value(q_out))}")
    platform.drive_bit(i0, 1)   # hold
    platform.settle()
    print(f"  hold:  q={format_value(platform.value(q_out))}")
    platform.drive_bit(i1, 0)   # reset
    platform.settle()
    print(f"  reset: q={format_value(platform.value(q_out))}")

    print("== configuration accounting ==")
    stats = platform.stats()
    print(f"  cells used:        {stats.n_cells_used}")
    print(f"  leaf devices:      {stats.n_leaf_devices}")
    print(f"  config bits:       {stats.config_bits} (128 per cell, paper Section 4)")

    bits = platform.array.to_bitstream()
    print(f"  bitstream length:  {len(bits)} bits (header + frame + CRC)")
    from repro.fabric.array import CellArray

    clone = CellArray.from_bitstream(bits)
    print(f"  round trip intact: {clone.cell(0, 0) == cfg}")


if __name__ == "__main__":
    main()
