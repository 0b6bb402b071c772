"""Batched controller policies — re-exported from :mod:`repro.kernel.policies`.

The implementations moved next to the epoch kernel they drive; this
module keeps the historical ``repro.batch.policies`` import surface.
"""

from repro.kernel.policies import (
    BatchCompatError,
    BatchMaxBIPS,
    BatchModelBased,
    BatchODRL,
    BatchPolicy,
    PerRunPolicy,
    build_batch_policy,
)

__all__ = [
    "BatchCompatError",
    "BatchPolicy",
    "PerRunPolicy",
    "BatchODRL",
    "BatchMaxBIPS",
    "BatchModelBased",
    "build_batch_policy",
]
