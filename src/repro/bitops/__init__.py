"""Bit-packed Boolean linear algebra (the reproduction's low-level kernel).

Public kernels (:func:`boolean_matmul`, :func:`khatri_rao`,
:func:`pointwise_vector_matrix`, :func:`xor_popcount`) each run one
implementation (see :mod:`repro.bitops.ops`).
"""

from .bitmatrix import BitMatrix
from .ops import (
    boolean_matmul,
    khatri_rao,
    or_accumulate_table,
    pointwise_vector_matrix,
    xor_popcount,
)
from .packing import (
    WORD_BITS,
    indices_from_mask,
    mask_from_indices,
    pack_bits,
    packed_zeros,
    popcount,
    popcount_rows,
    slice_bits,
    unpack_bits,
    words_for_bits,
)

__all__ = [
    "BitMatrix",
    "WORD_BITS",
    "boolean_matmul",
    "khatri_rao",
    "or_accumulate_table",
    "pointwise_vector_matrix",
    "xor_popcount",
    "pack_bits",
    "unpack_bits",
    "packed_zeros",
    "popcount",
    "popcount_rows",
    "slice_bits",
    "words_for_bits",
    "mask_from_indices",
    "indices_from_mask",
]
