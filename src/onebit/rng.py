"""Deterministic stream derivation.

Every random quantity in the package is drawn from a generator derived from
a master seed plus a tuple of labels (experiment name, trial index, purpose
tag).  Label tuples of the same length that differ in any position give
independent streams, and the derivation is stable across processes and
thread counts, which is what makes report files byte-identical regardless of
how work is scheduled.

One caveat inherited from numpy's SeedSequence: entropy is zero-padded up to
its internal pool, so a trailing integer label 0 is absorbed and
(seed, "tag") equals (seed, "tag", 0).  Never distinguish two streams solely
by a trailing zero; vary a string tag or keep sibling tuples the same length,
as every caller in this package does.
"""

from __future__ import annotations

import hashlib

import numpy as np

_MASK64 = (1 << 64) - 1


def _label_word(label) -> int:
    if isinstance(label, (int, np.integer)):
        return int(label) & _MASK64
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
    entropy = [int(seed)] + [_label_word(lab) for lab in labels]
    return np.random.default_rng(entropy)
