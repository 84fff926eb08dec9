"""Serialization: one strict codec between dataclasses and plain documents.

Experiment manifests, model-checker reports and the CSVs in
``expected_results/`` are only reproducible if the exact records travel
with them.  Every serializable record is a dataclass, and this module is
the one place that knows how such a record becomes a JSON-compatible
document and back:

* :func:`to_document` writes the fields in declaration order, led by the
  class's ``kind`` tag when it has one (a class attribute, not a field);
  tuples become lists.
* :func:`from_document` is its strict inverse: unknown keys, missing
  required fields and wrongly typed values raise a :class:`ConfigError`
  naming the document path (``campaign.jobs[4].workload.window must be
  int, got '64'``).  It validates but never converts numbers, so an int
  in a float field stays an int and content keys cannot move.  A
  ``Union`` of tagged dataclasses is resolved by ``kind``.
* :func:`digest` is the canonical-JSON SHA-256 every content key uses.
* :class:`Codec` gives a record the public ``to_dict``/``from_dict``.

:func:`config_to_dict` / :func:`config_from_dict` apply the codec to
:class:`SystemConfig`; :func:`apply_overrides` merges a partial document
over a config first.
"""

from __future__ import annotations

import dataclasses
import functools
import hashlib
import json
import reprlib
import typing
from typing import Any, Dict, Optional, Tuple

from repro.common.config import SystemConfig
from repro.common.errors import ConfigError

_NONE = type(None)


def digest(document: Any) -> str:
    """SHA-256 of the canonical JSON (sorted keys, no whitespace)."""
    blob = json.dumps(document, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(blob.encode("utf-8")).hexdigest()


def _tag(cls) -> Optional[str]:
    """The class-level ``kind`` tag, or None (a ``kind`` *field* is data)."""
    if "kind" in cls.__dataclass_fields__:
        return None
    return getattr(cls, "kind", None)


def to_document(record) -> Dict[str, Any]:
    """A dataclass as a plain document (see the module docstring)."""
    document: Dict[str, Any] = {}
    tag = _tag(type(record))
    if tag is not None:
        document["kind"] = tag
    for field in dataclasses.fields(record):
        document[field.name] = _encode(getattr(record, field.name))
    return document


def _encode(value: Any) -> Any:
    if dataclasses.is_dataclass(value):
        return to_document(value)
    if isinstance(value, (tuple, list)):
        return [_encode(item) for item in value]
    if isinstance(value, dict):
        return {key: _encode(item) for key, item in value.items()}
    return value


@functools.lru_cache(maxsize=None)
def _fields(cls) -> Tuple[Tuple[str, Any, bool], ...]:
    """(name, type, required) per init field, resolved on first use."""
    hints = typing.get_type_hints(cls)
    return tuple(
        (
            field.name,
            hints[field.name],
            field.default is dataclasses.MISSING
            and field.default_factory is dataclasses.MISSING,
        )
        for field in dataclasses.fields(cls)
        if field.init
    )


def _mapping(document: Any, where: str) -> Dict[str, Any]:
    if not isinstance(document, dict):
        raise ConfigError(
            f"{where} must be a mapping, got {reprlib.repr(document)}"
        )
    return document


def _build(cls, document: Any, where: str):
    document = _mapping(document, where)
    fields = _fields(cls)
    tag = _tag(cls)
    known = {name for name, _, _ in fields}
    if tag is not None:
        known.add("kind")
        if document.get("kind", tag) != tag:
            raise ConfigError(
                f"{where}.kind must be {tag!r}, "
                f"got {reprlib.repr(document['kind'])}"
            )
    unknown = set(document) - known
    if unknown:
        raise ConfigError(
            f"{where}: unknown fields {sorted(unknown, key=str)}"
        )
    values = {}
    for name, hint, required in fields:
        if name in document:
            values[name] = from_document(
                hint, document[name], f"{where}.{name}"
            )
        elif required:
            raise ConfigError(f"{where}.{name} is required")
    return cls(**values)


def from_document(hint: Any, value: Any, where: str) -> Any:
    """Check ``value`` against the type ``hint`` and build it: a dataclass,
    a Union of ``kind``-tagged dataclasses, a tuple, list, dict, Optional
    or scalar.  Errors name the document path, starting at ``where``."""
    if dataclasses.is_dataclass(hint):
        return _build(hint, value, where)
    origin = typing.get_origin(hint)
    args = typing.get_args(hint)
    if origin is typing.Union:
        if value is None and _NONE in args:
            return None
        choices = [arg for arg in args if arg is not _NONE]
        if len(choices) == 1:
            return from_document(choices[0], value, where)
        tags = {_tag(choice): choice for choice in choices}
        kind = _mapping(value, where).get("kind")
        if not isinstance(kind, str) or kind not in tags:
            raise ConfigError(
                f"{where}.kind must be one of {sorted(tags)}, "
                f"got {reprlib.repr(kind)}"
            )
        return _build(tags[kind], value, where)
    if origin in (tuple, list):
        if not isinstance(value, (list, tuple)):
            raise ConfigError(
                f"{where} must be a list, got {reprlib.repr(value)}"
            )
        if origin is tuple and args[-1:] != (Ellipsis,):
            if len(value) != len(args):
                raise ConfigError(
                    f"{where} must have {len(args)} items, got {len(value)}"
                )
            hints = args
        else:
            hints = (args[0],) * len(value)
        items = [
            from_document(item_hint, item, f"{where}[{index}]")
            for index, (item_hint, item) in enumerate(zip(hints, value))
        ]
        return tuple(items) if origin is tuple else items
    if origin is dict:
        return {
            from_document(args[0], key, where): from_document(
                args[1], item, f"{where}.{key}"
            )
            for key, item in _mapping(value, where).items()
        }
    if hint is object:
        return value
    if hint is float:
        ok = isinstance(value, (int, float)) and not isinstance(value, bool)
    elif hint is int:
        ok = isinstance(value, int) and not isinstance(value, bool)
    else:
        ok = isinstance(value, hint)
    if not ok:
        raise ConfigError(
            f"{where} must be {hint.__name__}, got {reprlib.repr(value)}"
        )
    return value


class Codec:
    """``to_dict``/``from_dict`` for a dataclass, through the codec."""

    def to_dict(self) -> Dict[str, Any]:
        return to_document(self)

    @classmethod
    def from_dict(cls, document: Dict[str, Any]):
        return from_document(cls, document, cls.__name__)


def config_to_dict(config: SystemConfig) -> Dict[str, Any]:
    """Flatten a SystemConfig into nested plain dictionaries."""
    return to_document(config)


def config_from_dict(data: Dict[str, Any]) -> SystemConfig:
    """Rebuild a SystemConfig; unknown sections or fields are errors."""
    return from_document(SystemConfig, data, "config")


def apply_overrides(
    config: SystemConfig, overrides: Dict[str, Any]
) -> SystemConfig:
    """Apply a (possibly nested, possibly partial) overrides mapping.

    ``overrides`` uses the same shape as :func:`config_to_dict`, but every
    section and field is optional: ``{"mem": {"enabled": True}}`` changes
    one knob and keeps everything else from ``config``.  Unknown sections
    or fields are errors, exactly as in :func:`config_from_dict`.
    """
    return config_from_dict(
        _merge(config_to_dict(config), overrides, "config overrides")
    )


def _merge(base: Dict[str, Any], overrides: Any, where: str) -> Dict[str, Any]:
    merged = dict(base)
    for key, value in _mapping(overrides, where).items():
        if isinstance(value, dict) and isinstance(merged.get(key), dict):
            value = _merge(merged[key], value, f"{where}.{key}")
        merged[key] = value
    return merged


def parse_field_assignment(cls, item: str, where: str):
    """Parse one ``KEY=VALUE`` CLI token against a config dataclass.

    The shared helper behind ``--sample``, ``--mem``, and friends: ``KEY``
    must name a field of ``cls``; ``VALUE`` is coerced to that field's
    default-value type (bool accepts true/false/1/0/yes/no/on/off).
    Returns ``(field_name, coerced_value)``.
    """
    key, sep, raw = item.partition("=")
    if not sep or not key:
        raise ConfigError(f"{where} expects KEY=VALUE, got {item!r}")
    defaults = {f.name: f.default for f in dataclasses.fields(cls)}
    if key not in defaults:
        raise ConfigError(
            f"{where}: unknown field {key!r} (one of {sorted(defaults)})"
        )
    default = defaults[key]
    try:
        if isinstance(default, bool):
            lowered = raw.strip().lower()
            if lowered in ("1", "true", "yes", "on"):
                value: Any = True
            elif lowered in ("0", "false", "no", "off"):
                value = False
            else:
                raise ValueError(f"not a boolean: {raw!r}")
        elif isinstance(default, int):
            value = int(raw)
        elif isinstance(default, float):
            value = float(raw)
        else:
            value = raw
    except ValueError as exc:
        raise ConfigError(f"{where} {key}: {exc}") from exc
    return key, value


def parse_field_assignments(cls, items, where: str) -> Dict[str, Any]:
    """Fold many ``KEY=VALUE`` tokens into one field dict (later wins)."""
    fields: Dict[str, Any] = {}
    for item in items:
        key, value = parse_field_assignment(cls, item, where)
        fields[key] = value
    return fields


def config_to_json(config: SystemConfig, indent: int = 2) -> str:
    return json.dumps(config_to_dict(config), indent=indent, sort_keys=True)


def config_from_json(text: str) -> SystemConfig:
    try:
        data = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ConfigError(f"invalid config JSON: {exc}") from exc
    return config_from_dict(data)
