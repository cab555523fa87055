"""Streaming reverse-skyline maintenance.

Public surface: :class:`StreamingReverseSkyline` (one query, sliding
window).
"""

from repro.streaming.window import StreamingReverseSkyline

__all__ = ["StreamingReverseSkyline"]
