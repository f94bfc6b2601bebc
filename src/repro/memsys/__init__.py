"""Memory system timing models."""

from .cache import CacheStats, SetAssociativeCache

__all__ = ["CacheStats", "SetAssociativeCache"]
