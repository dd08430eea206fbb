"""FINN-like dataflow compiler and accelerator models.

Maps streamlined IR graphs onto HLS module models (MVTU, SWU, pooling,
the paper's branch module), with analytic resource, performance, and
power models plus the ZCU104 device envelope and bitstream
reconfiguration costs.
"""

from .bitstream import RECONFIG_MS_ZCU104, Bitstream, reconfiguration_time_s
from .compile import CompileError, DataflowAccelerator, compile_accelerator
from .device import PYNQ_Z1, ZCU104, FPGADevice, UtilizationError
from .folding import (
    FoldingConfig,
    LayerFolding,
    auto_fold,
    cnv_reference_fold,
    fold_constraints,
    largest_divisor_leq,
)
from .hls import (
    DuplicateStreamsUnit,
    HLSModule,
    MVTU,
    PoolUnit,
    SlidingWindowUnit,
    ThresholdUnit,
    ZERO_SKIP_OVERHEAD,
    zero_skip_factor,
)
from .performance import PerformanceModel, StageLoad
from .power import OperatingPoints, PowerModel, PowerReport
from .resources import (
    BRAM18_BITS,
    DSP_OPERAND_BITS,
    DSP_PACK_FACTOR,
    ResourceEstimate,
    bram18_for_bits,
    dsp_for_macs,
    memory_resources,
)

__all__ = [
    "RECONFIG_MS_ZCU104", "Bitstream", "reconfiguration_time_s",
    "CompileError", "DataflowAccelerator", "compile_accelerator",
    "PYNQ_Z1", "ZCU104", "FPGADevice", "UtilizationError",
    "FoldingConfig", "LayerFolding", "auto_fold", "cnv_reference_fold",
    "fold_constraints", "largest_divisor_leq",
    "DuplicateStreamsUnit", "HLSModule", "MVTU", "PoolUnit",
    "SlidingWindowUnit", "ThresholdUnit",
    "ZERO_SKIP_OVERHEAD", "zero_skip_factor",
    "PerformanceModel", "StageLoad",
    "OperatingPoints", "PowerModel", "PowerReport",
    "BRAM18_BITS", "DSP_OPERAND_BITS", "DSP_PACK_FACTOR",
    "ResourceEstimate", "bram18_for_bits", "dsp_for_macs",
    "memory_resources",
]
