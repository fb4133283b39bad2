"""Delta / frame-of-reference encoding over smart arrays.

The third "alternative compression technique" the paper's section 7
points at, next to dictionary and run-length encoding: split the column
into fixed frames, store each frame's minimum once as the *reference*,
and bit-pack only the per-element deltas against it.  Clustered or
slowly-growing columns (timestamps, auto-increment keys, sorted join
columns) need a handful of delta bits regardless of the absolute
magnitudes.

Each frame also records its maximum, so range predicates prune whole
frames from min/max alone — the frame-granular analogue of the chunk
zone maps in :mod:`repro.core.zonemap`.

The generation-level codec in :mod:`repro.core.codecs` stores the
frames :func:`delta_frames` computes in its single-buffer layout.
"""

from __future__ import annotations

from typing import Tuple

import numpy as np

from . import bitpack

#: Elements per frame: 64 chunks, so frame boundaries always align with
#: the engine's 64-element chunk grid and a frame decode is a plain
#: ``unpack_chunk_range`` over the delta section.
FRAME_ELEMENTS = 4096


def frames_for(length: int, frame_elements: int = FRAME_ELEMENTS) -> int:
    """Number of frames covering ``length`` elements."""
    return -(-int(length) // int(frame_elements)) if length else 0


def delta_frames(
    values: np.ndarray, frame_elements: int = FRAME_ELEMENTS,
) -> Tuple[np.ndarray, np.ndarray, np.ndarray, int]:
    """Split ``values`` into frames: (refs, frame_maxs, deltas, delta_bits).

    ``refs[f]`` is frame ``f``'s minimum, ``frame_maxs[f]`` its maximum,
    and ``deltas[i] = values[i] - refs[i // frame_elements]`` (uint64
    subtraction of the frame minimum can never underflow).
    """
    values = np.ascontiguousarray(values, dtype=np.uint64)
    n_frames = frames_for(values.size, frame_elements)
    refs = np.empty(n_frames, dtype=np.uint64)
    maxs = np.empty(n_frames, dtype=np.uint64)
    deltas = np.empty(values.size, dtype=np.uint64)
    for f in range(n_frames):
        frame = values[f * frame_elements:(f + 1) * frame_elements]
        refs[f] = frame.min()
        maxs[f] = frame.max()
        deltas[f * frame_elements:f * frame_elements + frame.size] = \
            frame - refs[f]
    delta_bits = bitpack.max_bits_needed(deltas) if deltas.size else 1
    return refs, maxs, deltas, delta_bits
