"""dimcsim: simulator for a RISC-V vector core with an in-pipeline digital
in-memory-compute lane, plus the layer-lowering toolchain and evaluation
metrics around it.

Importing the package loads no numpy: only the tile and the data half use
it, and they are imported when a functional run or ``DimcTile`` first
needs them."""

from .baseline import baseline_cycles
from .geometry import PrecisionMode, QuantConfig, wrap_partial
from .isa import DcF, DcP, DlI, DlM, assemble, decode, disassemble, encode
from .mapper import (LayerDescriptor, MappingPlan, NotDimcEligibleError,
                     lower, ops_count, plan_mapping)
from .metrics import PerfReport, ans, gops, peak_gops, speedup
from .sim import (Program, Repeat, SimOutcome, TimingModel, VClear, VLoad,
                  VStore, execute, run_layer)

__version__ = "0.1.0"

__all__ = [
    "baseline_cycles",
    "DcF", "DcP", "DlI", "DlM", "assemble", "decode", "disassemble", "encode",
    "LayerDescriptor", "MappingPlan", "NotDimcEligibleError",
    "lower", "ops_count", "plan_mapping",
    "PerfReport", "ans", "gops", "peak_gops", "speedup",
    "Program", "Repeat", "SimOutcome", "TimingModel",
    "VClear", "VLoad", "VStore", "execute", "run_layer",
    "DimcTile", "PrecisionMode", "QuantConfig", "wrap_partial",
]


def __getattr__(name):
    if name == "DimcTile":
        from .tile import DimcTile
        return DimcTile
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
