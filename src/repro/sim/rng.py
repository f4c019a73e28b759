"""Deterministic random-number streams for simulation components.

A single master seed drives the whole simulation, but handing the *same*
``random.Random`` to every component makes results fragile: adding one
extra random draw in an unrelated module perturbs every subsequent draw
everywhere. Instead, each named component gets its own stream derived
from ``(master_seed, component_name)`` so streams are independent and
stable under code evolution.
"""

from __future__ import annotations

import hashlib
import random


class RandomStreams:
    """Factory of per-component deterministic ``random.Random`` streams."""

    def __init__(self, master_seed: int = 0) -> None:
        self.master_seed = int(master_seed)
        self._streams: dict[str, random.Random] = {}

    def stream(self, name: str) -> random.Random:
        """Return the stream for ``name``, creating it on first use.

        The same ``(master_seed, name)`` pair always yields an identical
        sequence, regardless of creation order.
        """
        if name not in self._streams:
            digest = hashlib.sha256(f"{self.master_seed}/{name}".encode()).digest()
            self._streams[name] = random.Random(int.from_bytes(digest[:8], "big"))
        return self._streams[name]

    def spawn(self, name: str) -> "RandomStreams":
        """Derive a child factory, e.g. one per experiment repetition."""
        digest = hashlib.sha256(f"{self.master_seed}/spawn/{name}".encode()).digest()
        return RandomStreams(int.from_bytes(digest[:8], "big"))
