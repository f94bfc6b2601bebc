"""Detailed execution-driven control-independence superscalar core."""

from ..errors import CosimulationError, MachineSnapshot, SimulationHang
from .config import (
    CompletionModel,
    CoreConfig,
    Preemption,
    ReconvPolicy,
    RepredictMode,
)
from .golden import GoldenTrace
from .lsq import LoadStoreQueue
from .processor import Processor, simulate_core
from .regfile import PhysReg
from .rob import ReorderBuffer, Segment
from .soa import InstrPool
from .stats import CoreStats

__all__ = [
    "CompletionModel",
    "CoreConfig",
    "CoreStats",
    "CosimulationError",
    "GoldenTrace",
    "InstrPool",
    "LoadStoreQueue",
    "MachineSnapshot",
    "PhysReg",
    "Preemption",
    "Processor",
    "ReconvPolicy",
    "ReorderBuffer",
    "RepredictMode",
    "Segment",
    "SimulationHang",
    "simulate_core",
]
