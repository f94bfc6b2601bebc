"""Idealized machine models of paper Section 2."""

from .models import DEFAULT_LATENCIES, IdealConfig, IdealModel
from .scheduler import IdealResult, IdealScheduler, simulate
from .tracegen import AnnotatedTrace, Misprediction, WrongPathInstr, annotate

__all__ = [
    "DEFAULT_LATENCIES",
    "AnnotatedTrace",
    "IdealConfig",
    "IdealModel",
    "IdealResult",
    "IdealScheduler",
    "Misprediction",
    "WrongPathInstr",
    "annotate",
    "simulate",
]
