"""Flat key=value pipeline configuration files.

Lines look like ``section.key=value`` (``proposal.post_nms_top=50``); blank
lines and ``#`` comments are ignored.  Every key, its order, its type and its
default come from :class:`PipelineConfig`: each nested dataclass field is a
section named after the field, and PipelineConfig's own scalar fields form
the ``pipeline`` section.  Unknown and repeated keys are configuration
errors so typos fail loudly.
"""
from __future__ import annotations

import dataclasses
import enum
import math
import typing
from pathlib import Path

from .pipeline import PipelineConfig

_BOOLS = {"true": True, "1": True, "yes": True, "false": False, "0": False, "no": False}


class ConfigError(Exception):
    pass


def _parse_float(text: str) -> float:
    x = float(text)
    if not math.isfinite(x):
        raise ValueError(f"not a finite number: {text!r}")
    return x


def _parse(tp, text: str):
    """Convert ``text`` to a field's declared type ``tp``."""
    if isinstance(tp, type) and issubclass(tp, enum.Enum):
        return tp(text.lower())
    if tp is bool:
        if text.lower() not in _BOOLS:
            raise ValueError(f"not a boolean: {text!r}")
        return _BOOLS[text.lower()]
    if typing.get_origin(tp) is tuple:
        return tuple(_parse_float(s) for s in text.split(","))
    return _parse_float(text) if tp is float else tp(text)


def _format(value) -> str:
    if isinstance(value, enum.Enum):
        return value.value
    if isinstance(value, tuple):
        return ",".join(repr(v) for v in value)
    return str(value).lower() if isinstance(value, bool) else repr(value)


def _fields(cls) -> list[tuple[dataclasses.Field, object]]:
    hints = typing.get_type_hints(cls)
    return [(f, hints[f.name]) for f in dataclasses.fields(cls)]


def _keys():
    """Yield ``(key, section, name, type)`` for every key in file order.

    ``section`` is the PipelineConfig field that holds the key, or None for
    PipelineConfig's own scalars.
    """
    for f, tp in _fields(PipelineConfig):
        if dataclasses.is_dataclass(tp):
            for g, gtp in _fields(tp):
                yield f"{f.name}.{g.name}", f.name, g.name, gtp
        else:
            yield f"pipeline.{f.name}", None, f.name, tp


def parse_config(text: str) -> PipelineConfig:
    """Build a PipelineConfig from flat key=value text."""
    values: dict[str, str] = {}
    line_of: dict[str, int] = {}
    for ln, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ConfigError(f"line {ln}: expected key=value, got {raw!r}")
        key, value = (s.strip() for s in line.split("=", 1))
        if key in line_of:
            raise ConfigError(f"{key} is set twice, on lines {line_of[key]} and {ln}")
        line_of[key] = ln
        values[key] = value

    given: dict[str | None, dict[str, object]] = {}
    for key, section, name, tp in _keys():
        if key in values:
            try:
                given.setdefault(section, {})[name] = _parse(tp, values.pop(key))
            except ValueError as e:
                raise ConfigError(f"bad value for {key}: {e}") from None
    if values:
        raise ConfigError(f"unknown config keys: {', '.join(sorted(values))}")

    # Sections are built in field order; a section field may carry
    # ``metadata["defaults_from"]``, which derives some of its defaults from
    # the sections built before it.
    kwargs = given.get(None, {})
    try:
        for f, tp in _fields(PipelineConfig):
            if dataclasses.is_dataclass(tp):
                derive = f.metadata.get("defaults_from")
                defaults = derive(kwargs) if derive else {}
                kwargs[f.name] = tp(**{**defaults, **given.get(f.name, {})})
        return PipelineConfig(**kwargs)
    except (ValueError, TypeError) as e:
        raise ConfigError(str(e)) from None


def load_config(path) -> PipelineConfig:
    try:
        text = Path(path).read_text(encoding="utf-8")
    except (OSError, UnicodeDecodeError) as e:
        raise ConfigError(f"cannot read config {path}: {e}") from None
    return parse_config(text)


def dump_config(config: PipelineConfig) -> str:
    """Serialize back to the flat key=value form."""
    lines = []
    for key, section, name, _ in _keys():
        owner = getattr(config, section) if section else config
        lines.append(f"{key}={_format(getattr(owner, name))}")
    return "\n".join(lines) + "\n"


def with_post_nms_top(config: PipelineConfig, budget: int) -> PipelineConfig:
    return dataclasses.replace(
        config, proposal=dataclasses.replace(config.proposal, post_nms_top=budget)
    )
