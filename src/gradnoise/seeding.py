"""Deterministic derivation of named random streams from a single seed.

Splitting rule
--------------
Every consumer of randomness asks for a stream identified by
``(seed, label_0, label_1, ...)`` where labels are short strings or integers.
The labels are mapped to a ``spawn_key`` tuple for ``numpy.random.SeedSequence``:
integers are used directly (masked to 32 bits), strings are hashed with
blake2s to a 32-bit word. Two streams collide only if their full label tuples
match, so e.g. dataset sampling ``(seed, "train-data", k)`` and SDE noise
``(seed, "noise", k)`` are independent even for equal ``k``.

The rule is part of the reproducibility contract: any single run can be
reconstructed in isolation from its (seed, labels) coordinates.
"""

import hashlib

import numpy as np
# numpy loads numpy.random lazily; importing it here keeps that cost in
# start-up rather than in the first stream an invocation asks for.
from numpy.random import SeedSequence, default_rng

_MASK32 = 0xFFFFFFFF


def _label_word(label):
    if isinstance(label, (int, np.integer)):
        return int(label) & _MASK32
    if isinstance(label, str):
        digest = hashlib.blake2s(label.encode("utf-8"), digest_size=4).digest()
        return int.from_bytes(digest, "little")
    raise TypeError(f"stream labels must be int or str, got {type(label).__name__}")


def stream_key(*labels):
    """Spawn-key tuple for a label path (exposed for documentation/testing)."""
    return tuple(_label_word(x) for x in labels)


def substream(seed, *labels):
    """Return a ``numpy.random.Generator`` for the stream (seed, *labels)."""
    seq = SeedSequence(int(seed), spawn_key=stream_key(*labels))
    return default_rng(seq)
