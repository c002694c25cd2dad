"""Prism-MW style events.

"Components in an architecture communicate by exchanging Events, which are
routed by Connectors" (Section 4.2).  An :class:`Event` is a named bag of
parameters plus routing metadata.  Events must survive crossing address
spaces, so payloads are restricted to JSON-serializable values and the
(de)serialization round-trip is part of the public contract — the same
machinery migrates application components between hosts (the paper's
``Serializable`` interface).
"""

from __future__ import annotations

import json
from math import isfinite
from typing import Any, Dict, Optional

from repro.core.errors import SerializationError

#: Event types, after Prism-MW's request/reply taxonomy.
REQUEST = "request"
REPLY = "reply"

#: Reserved name prefix for middleware control traffic (monitoring,
#: redeployment coordination).  Application events must not use it.
ADMIN_PREFIX = "admin."

#: Approximate fixed framing overhead of an event on the wire, in KB.
EVENT_OVERHEAD_KB = 0.05

#: Depth bound for the recursive fast checks: deeper (or circular)
#: payloads fall back to ``json.dumps``, which raises ``ValueError`` on
#: true cycles exactly as before.
_MAX_FAST_DEPTH = 16

#: Next event id.  A module-level int rather than ``itertools.count``
#: (one builtin call saved per event) — and deliberately NOT a class
#: attribute: rebinding a class attribute bumps the type's version tag
#: on every event, invalidating CPython's method caches for the hottest
#: class in the system.
_next_event_id = 1


def _plain_str_len(text: str) -> int:
    """``len(json.dumps(text))`` for strings needing no escaping, else -1.

    The encoder quotes the string and escapes ``"``, ``\\``, control
    characters, and (with the default ``ensure_ascii``) anything
    non-ASCII; strings of printable ASCII without quote/backslash encode
    to ``len + 2`` exactly.
    """
    if text.isascii() and text.isprintable() \
            and '"' not in text and "\\" not in text:
        return len(text) + 2
    return -1


def _json_size_fast(value: Any, depth: int = 0) -> int:
    """``len(json.dumps(value))`` computed arithmetically, or -1.

    Exactness matters: this length feeds transmission times and thus the
    deterministic reports, so any case that is not provably identical to
    the encoder's output (escaped strings, exotic numerics, deep nesting)
    returns -1 and the caller runs the real encoder.
    """
    kind = type(value)
    if kind is dict:
        if depth >= _MAX_FAST_DEPTH:
            return -1
        # '{"k": v, ...}': per entry the quoted key, ': ', the value and
        # a ', ' separator, whose last one the two braces replace.
        total = 0
        for key, val in value.items():
            # Keys must be plain strings (see _plain_str_len), tested
            # inline: this loop runs for every event put on the wire.
            if type(key) is not str or not key.isascii() \
                    or not key.isprintable() or '"' in key or "\\" in key:
                return -1
            val_len = _json_size_fast(val, depth + 1)
            if val_len < 0:
                return -1
            total += len(key) + val_len + 6
        return total or 2
    if kind is int:
        return len(str(value))
    if kind is str:
        return _plain_str_len(value)
    if kind is float:
        # json uses float.__repr__; NaN/Infinity spellings: let the
        # encoder decide.
        return len(repr(value)) if isfinite(value) else -1
    if kind is list:
        if depth >= _MAX_FAST_DEPTH:
            return -1
        total = 0
        for item in value:
            item_len = _json_size_fast(item, depth + 1)
            if item_len < 0:
                return -1
            total += item_len + 2
        return total or 2
    if kind is bool:
        return 4 if value else 5
    if value is None:
        return 4
    return -1


class Event:
    """One message exchanged between components.

    Attributes:
        name: Event name; ``admin.*`` names are middleware control traffic.
        payload: JSON-serializable parameter dict.
        event_type: :data:`REQUEST` or :data:`REPLY`.
        source: Component id of the sender (set by the sending component).
        target: Component id of the addressee; ``None`` broadcasts to every
            component attached to the routing connector.
        size_kb: Declared wire size.  Defaults to payload-derived estimate;
            application workloads override it to model event volume.
        headers: Middleware routing metadata (current host, hop trail,
            relay flags).  Not part of the application contract.
    """

    __slots__ = ("name", "payload", "event_type", "source", "target",
                 "_size_kb", "_size_cache", "headers", "event_id",
                 "_admin")

    def __init__(self, name: str, payload: Optional[Dict[str, Any]] = None,
                 event_type: str = REQUEST, source: Optional[str] = None,
                 target: Optional[str] = None,
                 size_kb: Optional[float] = None):
        global _next_event_id
        if event_type not in (REQUEST, REPLY):
            raise ValueError(f"event_type must be request/reply, got {event_type!r}")
        self.name = name
        self.payload: Dict[str, Any] = dict(payload) if payload else {}
        self.event_type = event_type
        self.source = source
        self.target = target
        self._size_kb = size_kb
        self._size_cache: Optional[float] = None
        self.headers: Dict[str, Any] = {}
        self.event_id = _next_event_id
        _next_event_id += 1
        # Precomputed: checked per monitor notification and per
        # transmission, i.e. several times per event on the hot path.
        self._admin = name.startswith(ADMIN_PREFIX)

    # ------------------------------------------------------------------
    @property
    def is_admin(self) -> bool:
        return self._admin

    @property
    def size_kb(self) -> float:
        if self._size_kb is not None:
            return self._size_kb
        if self._size_cache is not None:
            return self._size_cache
        body = _json_size_fast(self.payload)
        if body < 0:
            try:
                body = len(json.dumps(self.payload))
            except (TypeError, ValueError):
                body = 256  # conservative estimate for exotic payloads
        size = EVENT_OVERHEAD_KB + body / 1024.0
        self._size_cache = size
        return size

    @size_kb.setter
    def size_kb(self, value: float) -> None:
        self._size_kb = value

    def reply(self, name: Optional[str] = None,
              payload: Optional[Dict[str, Any]] = None) -> "Event":
        """A reply event addressed back at this event's source."""
        return Event(name or self.name, payload, event_type=REPLY,
                     target=self.source)

    def copy(self) -> "Event":
        clone = Event(self.name, dict(self.payload), self.event_type,
                      self.source, self.target, self._size_kb)
        clone.headers = dict(self.headers)
        return clone

    # ------------------------------------------------------------------
    # Wire format
    # ------------------------------------------------------------------
    def to_wire(self) -> Dict[str, Any]:
        """Serialize for transmission between address spaces."""
        # One walk both validates and prices the payload: a length from
        # the size walk means the encoder would accept it; anything the
        # walk cannot price (escapes, tuples, custom types, deep or
        # cyclic nesting) takes the encoder and keeps its exact
        # accept/reject behavior.  Without a declared size the length is
        # kept for ``size_kb``, which the transmitting connector reads
        # next.
        body = _json_size_fast(self.payload)
        if body < 0:
            try:
                body = len(json.dumps(self.payload))
            except (TypeError, ValueError) as exc:
                raise SerializationError(
                    f"event {self.name!r} payload is not "
                    f"JSON-serializable: {exc}") from exc
        if self._size_kb is None and self._size_cache is None:
            self._size_cache = EVENT_OVERHEAD_KB + body / 1024.0
        return {
            "name": self.name,
            "payload": self.payload,
            "event_type": self.event_type,
            "source": self.source,
            "target": self.target,
            "size_kb": self._size_kb,
            "headers": self.headers,
        }

    @classmethod
    def from_wire(cls, wire: Dict[str, Any]) -> "Event":
        try:
            event = cls(
                name=wire["name"],
                payload=wire.get("payload") or {},
                event_type=wire.get("event_type", REQUEST),
                source=wire.get("source"),
                target=wire.get("target"),
                size_kb=wire.get("size_kb"),
            )
        except (KeyError, TypeError, ValueError) as exc:
            raise SerializationError(f"malformed wire event: {exc}") from exc
        event.headers = dict(wire.get("headers") or {})
        return event

    def __repr__(self) -> str:
        route = f"{self.source or '?'}->{self.target or '*'}"
        return f"Event({self.name!r}, {route}, {self.event_type})"
