"""Branch prediction: gshare, target buffers, RAS, TFR."""

from .frontend import FrontEnd, Prediction
from .gshare import GshareGlobalHistory, GsharePredictor
from .targets import CorrelatedTargetBuffer, ReturnAddressStack
from .tfr import (
    MispredictionStats,
    TFRCollector,
    TFRTable,
    coverage_at_true_fraction,
    coverage_curve,
)

__all__ = [
    "CorrelatedTargetBuffer",
    "FrontEnd",
    "GshareGlobalHistory",
    "GsharePredictor",
    "MispredictionStats",
    "Prediction",
    "ReturnAddressStack",
    "TFRCollector",
    "TFRTable",
    "coverage_at_true_fraction",
    "coverage_curve",
]
