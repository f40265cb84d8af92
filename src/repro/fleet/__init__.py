"""Struct-of-arrays fleet-state mirrors (the scheduling fast path).

See :mod:`repro.fleet.soa` for the design; ARCHITECTURE.md §12 for the
layout, mutation seams, and the tie-break/bit-identity rules every
consumer must follow.  This is the only fleet-state path: every
runtime builds a :class:`FleetState` and shares it with its master,
worker nodes and policies.
"""

from repro.fleet.soa import (
    BitMatrix,
    FleetState,
    HolderMatrix,
    HoldingsIndex,
    JobAgeTable,
    LoadTable,
    LocalityQueue,
    argmax_value_rank,
    argmin_value_rank,
    name_ranks,
)

__all__ = [
    "name_ranks",
    "argmin_value_rank",
    "argmax_value_rank",
    "BitMatrix",
    "FleetState",
    "LoadTable",
    "HolderMatrix",
    "JobAgeTable",
    "HoldingsIndex",
    "LocalityQueue",
]
