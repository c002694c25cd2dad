"""The common Report API.

Every artifact the framework produces about its own behaviour — a
monitoring cycle, a redeployment, an algorithm run, a sweep, a lint
pass, a resilience campaign, a decentralized round — implements one
:class:`Report` protocol:

* ``to_dict(**opts)``  — JSON-safe structured payload;
* ``to_json(**opts)``  — canonical JSON (sorted keys, stable floats);
* ``render(**opts)``   — human-readable text, possibly multi-line;
* ``summary_line()``   — a single line for logs and ``--quiet`` output.

The CLI's shared ``--json``/``--quiet`` flags route every verb through
these four methods, so output formatting lives with each report class
instead of being re-invented per verb.

:class:`ReportBase` is the mixin concrete reports inherit: subclasses
supply ``to_dict`` and ``summary_line`` and get canonical ``to_json``
(and a JSON-backed default ``render``) for free.
"""

from __future__ import annotations

import json
from dataclasses import fields, is_dataclass
from typing import Any, Dict, Mapping, Protocol, runtime_checkable

__all__ = ["Report", "ReportBase", "json_safe"]


@runtime_checkable
class Report(Protocol):
    """Structural interface every framework report implements."""

    def to_dict(self, **opts: Any) -> Dict[str, Any]:
        """JSON-safe structured payload."""
        ...

    def to_json(self, **opts: Any) -> str:
        """Canonical JSON rendering of :meth:`to_dict`."""
        ...

    def render(self, **opts: Any) -> str:
        """Human-readable (possibly multi-line) text."""
        ...

    def summary_line(self) -> str:
        """One line suitable for logs and ``--quiet`` output."""
        ...


def json_safe(value: Any) -> Any:
    """Recursively coerce *value* into JSON-serializable primitives.

    Mappings (including :class:`~repro.core.model.Deployment`) become
    plain dicts, sequences become lists, dataclasses become field
    dicts, and anything else non-primitive becomes ``str``.
    """
    if value is None or isinstance(value, (bool, int, float, str)):
        return value
    if isinstance(value, Mapping):
        return {str(k): json_safe(v) for k, v in value.items()}
    if isinstance(value, (list, tuple, set, frozenset)):
        items = sorted(value) if isinstance(value, (set, frozenset)) \
            else value
        return [json_safe(v) for v in items]
    if is_dataclass(value) and not isinstance(value, type):
        return {f.name: json_safe(getattr(value, f.name))
                for f in fields(value)}
    to_dict = getattr(value, "to_dict", None)
    if callable(to_dict):
        return json_safe(to_dict())
    return str(value)


class ReportBase:
    """Mixin implementing :class:`Report` on top of two primitives.

    Subclasses implement :meth:`to_dict` and :meth:`summary_line`;
    ``to_json`` is derived canonically and ``render`` defaults to the
    JSON form (text-table reports override it).
    """

    def to_dict(self, **opts: Any) -> Dict[str, Any]:
        raise NotImplementedError

    def summary_line(self) -> str:
        raise NotImplementedError

    def to_json(self, indent: int = 2, **opts: Any) -> str:
        return json.dumps(json_safe(self.to_dict(**opts)),
                          indent=indent, sort_keys=True)

    def render(self, **opts: Any) -> str:
        return self.to_json(**opts)

