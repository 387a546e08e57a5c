"""Units and physical constants used throughout the library.

Conventions (kept consistent across all modules):

* bandwidth     — MB/s (as in the paper's communication specifications)
* frequency    — MHz
* length       — millimetres (floorplan coordinates, wire lengths)
* area         — mm^2
* energy       — picojoules (pJ)
* power        — milliwatts (mW)
* latency      — NoC clock cycles
* data width   — bits

Helper conversions live here so that model code never hand-rolls unit
arithmetic.
"""

from __future__ import annotations

# Bits per byte, spelled out so bandwidth/width conversions read clearly.
BITS_PER_BYTE = 8

# Default NoC link data width used in every experiment in the paper (Sec.
# VIII-A: "we set the data width of the NoC links to 32 bits").
DEFAULT_LINK_WIDTH_BITS = 32

# Default operating frequency found best for D_26_media (Sec. VIII-A).
DEFAULT_FREQUENCY_MHZ = 400.0

# Maximum unrepeated planar link length at 65 nm (Sec. VIII, from [34]).
MAX_UNREPEATED_LINK_MM = 1.5


def link_capacity_mbps(width_bits: int, frequency_mhz: float) -> float:
    """Peak bandwidth of a link of ``width_bits`` clocked at ``frequency_mhz``.

    One word of ``width_bits`` moves per cycle, so capacity in MB/s is
    ``width_bits / 8 * f_MHz`` (MHz == Mcycles/s, bytes/cycle * Mcycles/s ==
    MB/s).
    """
    if width_bits <= 0:
        raise ValueError(f"link width must be positive, got {width_bits}")
    return (width_bits / BITS_PER_BYTE) * frequency_mhz


def flits_per_second(bandwidth_mbps: float, width_bits: int) -> float:
    """Number of flits per second needed to carry ``bandwidth_mbps``.

    A flit is one link word (``width_bits`` wide). Returned in units of
    mega-flits/s to stay in the MB/s-MHz regime.
    """
    if width_bits <= 0:
        raise ValueError(f"link width must be positive, got {width_bits}")
    bytes_per_flit = width_bits / BITS_PER_BYTE
    return bandwidth_mbps / bytes_per_flit


def mega_ops_energy_to_mw(mega_ops_per_s: float, energy_pj: float) -> float:
    """Power in mW of an event occurring ``mega_ops_per_s`` million times per
    second, each consuming ``energy_pj`` picojoules.

    1e6 events/s * 1 pJ = 1e6 pJ/s = 1e-6 W = 1e-3 mW.
    """
    return mega_ops_per_s * energy_pj * 1e-3
