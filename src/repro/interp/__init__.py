"""Interpreter, trace oracles and cache model (systems S12/S13)."""

from repro.interp.cache import CacheConfig, CacheStats, simulate_cache, trace_addresses
from repro.interp.equivalence import (
    check_equivalence, dependences_preserved, ground_truth_dependences,
    outputs_close, same_instances,
)
from repro.interp.executor import ArrayStore, ExecRecord, Trace, default_init, execute

__all__ = [
    "execute", "ArrayStore", "Trace", "ExecRecord", "default_init",
    "check_equivalence", "same_instances", "dependences_preserved",
    "outputs_close", "ground_truth_dependences",
    "CacheConfig", "CacheStats", "simulate_cache", "trace_addresses",
]
