"""Deterministic random-stream derivation.

Every draw in a run descends from one master seed.  Streams are keyed by
arbitrary tuples such as ``(master, trial, node, "protocol")`` so that a
topology edit which does not touch a node leaves that node's protocol
draws unchanged, and independent trials never share randomness.  Two
exceptions: the ``random`` wakeup draws all nodes' wake slots from one
stream in id order (see ``topology.build_wakeup``), and a node re-added
under a removed node's id gets that node's key, so it replays its draws.
"""

from __future__ import annotations

import zlib

import numpy as np

_MASK = (1 << 63) - 1


def _encode(part) -> int:
    if isinstance(part, (int, np.integer)):
        return int(part) & _MASK
    if isinstance(part, str):
        return zlib.crc32(part.encode("utf-8"))
    raise TypeError(f"stream key parts must be int or str, got {type(part)!r}")


def stream(*key) -> np.random.Generator:
    """Independent generator for the given key tuple."""
    if not key:
        raise ValueError("stream key must not be empty")
    entropy = tuple(_encode(part) for part in key)
    return np.random.Generator(np.random.PCG64(np.random.SeedSequence(entropy)))
