"""Code performance as a function of block size (the Dolinar effect [8]).

The paper's Section 4 points out that MRM's large block interface lets
ECC operate on larger code words with less overhead.  The information-
theoretic reason (Dolinar, Divsalar & Pollara): at fixed channel quality
and fixed target failure rate, longer codes get closer to capacity —
redundancy per data bit falls as the block grows.

:func:`overhead_vs_block_size` produces that curve concretely for the
BCH family: for each code-word size, the minimum check-bit overhead that
meets the target uncorrectable rate at a given raw bit-error rate.
Experiment E9 prints it next to the (72, 64) SEC-DED baseline.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Sequence

from repro.ecc.bch import BCHCode, design_bch


@dataclass(frozen=True)
class CodePoint:
    """One point on the overhead-vs-block-size curve."""

    data_bits: int
    code: BCHCode
    rber: float
    target_block_failure: float

    @property
    def overhead(self) -> float:
        return self.code.overhead


DEFAULT_BLOCK_SIZES = (64, 128, 256, 512, 1024, 4096, 16384, 65536)


def overhead_vs_block_size(
    rber: float,
    target_block_failure: float = 1e-15,
    block_sizes_bits: Sequence[int] = DEFAULT_BLOCK_SIZES,
    per_bit_normalized: bool = True,
) -> List[CodePoint]:
    """The Dolinar curve: minimum ECC overhead per block size.

    When ``per_bit_normalized`` the failure target is scaled with block
    size so all points protect *data* equally (same uncorrectable
    probability per data bit): bigger blocks must clear a proportionally
    larger block-failure budget, making the comparison fair.
    """
    points: List[CodePoint] = []
    base = min(block_sizes_bits)
    for bits in block_sizes_bits:
        target = target_block_failure
        if per_bit_normalized:
            target = min(0.99, target_block_failure * (bits / base))
        code = design_bch(bits, rber, target)
        points.append(
            CodePoint(
                data_bits=bits,
                code=code,
                rber=rber,
                target_block_failure=target,
            )
        )
    return points


def required_correction_capability(
    block_bits: int, rber: float, target_block_failure: float = 1e-15
) -> int:
    """Just the ``t`` needed for one block size (convenience)."""
    return design_bch(block_bits, rber, target_block_failure).t
