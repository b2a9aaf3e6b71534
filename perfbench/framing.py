"""Client side of the pcss_serve wire framing.

Responses are one JSON object per '\\n'-terminated line; an event whose
header carries "bytes": N is followed by exactly N raw payload bytes
(result documents and stats snapshots), which may themselves hold
newlines and must be taken by length, never by line.
"""
import json


class FramingError(ValueError):
    """The byte stream does not follow the line + length-prefix framing."""


class Framer:
    def __init__(self):
        self._buffer = b""

    def feed(self, data):
        self._buffer += data

    def next_event(self):
        """The next complete (header, payload) pair, or None if more bytes
        are needed. payload is None for events without a "bytes" field."""
        newline = self._buffer.find(b"\n")
        if newline < 0:
            return None
        try:
            header = json.loads(self._buffer[:newline])
        except ValueError as e:
            raise FramingError(f"bad event line: {e}") from None
        if not isinstance(header, dict) or "event" not in header:
            raise FramingError("event line is not an object with an 'event' field")
        size = header.get("bytes")
        if size is None:
            self._buffer = self._buffer[newline + 1:]
            return header, None
        if not isinstance(size, int) or isinstance(size, bool) or size < 0:
            raise FramingError(f"bad payload size {size!r}")
        end = newline + 1 + size
        if len(self._buffer) < end:
            return None
        payload = self._buffer[newline + 1:end]
        self._buffer = self._buffer[end:]
        return header, payload


def read_event(sock, framer):
    """Blocks until one whole event arrived on `sock`."""
    while True:
        event = framer.next_event()
        if event is not None:
            return event
        chunk = sock.recv(65536)
        if not chunk:
            raise FramingError("connection closed mid-event")
        framer.feed(chunk)
