"""Array storage math shared by the value and statement layers.

An n-dimensional array with dimension sizes s1..sn is stored in one
contiguous run of blocks. Every non-final dimension prefix owns a group
of blocks led by a header block; final-dimension elements are leaves.

    array_size = sum over i of (s1 * ... * si)
    group_size(i) = (sum over k >= i of (si * ... * sk)) / si

A fully indexed element lives at

    base + sum(index_i * group_size_i) + (n - 1)

where the n - 1 term skips the header blocks along the path.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from operator import mul


@dataclass(frozen=True)
class LayoutInfo:
    array_size: int
    group_sizes: tuple[int, ...]  # one entry per dimension, last is always 1


def array_layout(dims) -> LayoutInfo:
    return _layout(tuple(dims))


@lru_cache(maxsize=4096)
def _layout(dims: tuple) -> LayoutInfo:
    if not dims or min(dims) <= 0:
        raise ValueError("array dimensions must be a nonempty positive vector")
    n = len(dims)
    groups = [0] * n
    groups[n - 1] = 1
    for i in range(n - 2, -1, -1):
        # One header plus the blocks of all s_{i+1} subgroups.
        groups[i] = 1 + dims[i + 1] * groups[i + 1]
    total = dims[0] * groups[0]
    return LayoutInfo(total, tuple(groups))


def elem_offset(indices, groups) -> int:
    n = len(indices)
    if n == 0 or n != len(groups):
        raise ValueError("index path and group sizes must have equal nonzero length")
    return sum(map(mul, indices, groups), n - 1)
