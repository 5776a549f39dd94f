"""The RE packet store: a circular cache of recently observed content.

Spring & Wetherall's redundancy elimination keeps "a cache of recently
observed content" sized to about one second of traffic. The store is a
circular byte buffer addressed by *absolute* (monotonic) offsets, so a
reference to content that has since been overwritten is detectable and
simply fails — exactly how stale fingerprint-table entries are rejected.
"""

from __future__ import annotations

from typing import Optional


class PacketStore:
    """Circular content store addressed by absolute byte offsets."""

    def __init__(self, capacity: int):
        if capacity <= 0:
            raise ValueError("capacity must be positive")
        self.capacity = capacity
        self._buf = bytearray(capacity)
        # A read copies once, out of a view (the buffer never resizes).
        self._view = memoryview(self._buf)
        self.total_written = 0

    @property
    def oldest_valid(self) -> int:
        """Smallest absolute offset still resident."""
        return max(0, self.total_written - self.capacity)

    def append(self, data: bytes) -> int:
        """Store ``data``; returns its absolute start offset."""
        if len(data) > self.capacity:
            raise ValueError("data larger than the whole store")
        start = self.total_written
        pos = start % self.capacity
        first = min(len(data), self.capacity - pos)
        self._buf[pos:pos + first] = data[:first]
        if first < len(data):
            self._buf[:len(data) - first] = data[first:]
        self.total_written += len(data)
        return start

    def get(self, abs_offset: int, length: int) -> Optional[bytes]:
        """Content at ``[abs_offset, abs_offset+length)``; None if evicted."""
        if length < 0 or abs_offset < 0:
            raise ValueError("negative offset/length")
        if length == 0:
            return b""
        total = self.total_written
        if abs_offset + length > total:
            return None  # never written
        capacity = self.capacity
        if abs_offset < total - capacity:
            return None  # overwritten (before oldest_valid)
        pos = abs_offset % capacity
        end = pos + length
        if end <= capacity:
            return self._view[pos:end].tobytes()
        return b"".join((self._view[pos:], self._view[:end - capacity]))

    def contains(self, abs_offset: int, length: int) -> bool:
        """True if the whole range is still resident."""
        return (abs_offset >= self.oldest_valid
                and abs_offset + length <= self.total_written)
