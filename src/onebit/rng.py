"""Deterministic stream derivation.

Every random quantity in the package is drawn from a generator derived from
a master seed plus a tuple of labels (experiment name, trial index, purpose
tag).  Each stream is a function of its labels alone: two label tuples that
differ in length or in any position give different SeedSequence entropy, and
the derivation is stable across processes and thread counts, which is what
makes report files byte-identical regardless of how work is scheduled.

The entropy is the uint32 words of [len(labels), seed, w_1, ..., w_L], each
value written as exactly two little-endian 32-bit words, low word first.  An
int label is its own word and must lie in [0, 2**64), like the seed; a str
label's word is the first 8 bytes of its sha256.  The fixed width keeps
(3, 2) apart from 2**33 + 3, the length prefix keeps ("tag",) apart from
("tag", 0), and the array is never shorter than SeedSequence's 4-word pool,
so its zero-padding merges nothing.
"""

from __future__ import annotations

import hashlib

import numpy as np

_MASK32 = (1 << 32) - 1
_MASK64 = (1 << 64) - 1


def _label_word(label) -> int:
    if isinstance(label, (int, np.integer)):
        word = int(label)
        if not 0 <= word <= _MASK64:
            raise ValueError(f"int stream labels must lie in [0, 2**64), got {label}")
        return word
    if isinstance(label, str):
        digest = hashlib.sha256(label.encode("utf-8")).digest()
        return int.from_bytes(digest[:8], "little")
    raise TypeError(f"stream labels must be int or str, got {type(label)!r}")


def substream(seed: int, *labels) -> np.random.Generator:
    """Generator for the stream identified by (seed, *labels).

    The seed must lie in [0, 2**64): a wider value would alias the stream of
    its 64-bit wrap.
    """
    if not 0 <= int(seed) <= _MASK64:
        raise ValueError(f"seed must lie in [0, 2**64), got {seed}")
    values = [len(labels), int(seed)] + [_label_word(lab) for lab in labels]
    words = np.array([w for v in values for w in (v & _MASK32, v >> 32)], dtype=np.uint32)
    return np.random.default_rng(words)
