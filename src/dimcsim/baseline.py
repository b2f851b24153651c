"""Analytic cycle cost of running a layer on the plain vector core at INT8.

The reference core has no in-memory lane and a minimum element width of
8 bits, so one vector operation covers VLEN/8 = 8 elements. The model is a
closed formula rather than an instruction-by-instruction simulation, with
every constant named here so reported speedups stay auditable:

    cycles = och * oh * ow *
             ( ceil(ich*kh*kw / lanes) * (load + mac) + reduce + store )
"""

from __future__ import annotations

LANES_INT8 = 8
LOAD_CYCLES = 8
MAC_CYCLES = 1
REDUCE_CYCLES = 4
STORE_CYCLES = 8


def baseline_cycles(layer) -> int:
    """Cycles for the whole layer on the baseline core."""
    chunks = -(-layer.kernel_elements // LANES_INT8)
    per_output = chunks * (LOAD_CYCLES + MAC_CYCLES) + REDUCE_CYCLES + STORE_CYCLES
    return layer.och * layer.oh * layer.ow * per_output
