"""Boolean Tucker decomposition (extension beyond the conference paper)."""

from .decompose import (
    BooleanTuckerConfig,
    BooleanTuckerResult,
    boolean_tucker,
    boolean_tucker_steps,
    tucker_reconstruct,
)
from .distributed import dbtf_tucker

__all__ = [
    "boolean_tucker",
    "boolean_tucker_steps",
    "dbtf_tucker",
    "tucker_reconstruct",
    "BooleanTuckerConfig",
    "BooleanTuckerResult",
]
