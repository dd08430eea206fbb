"""One grammar for every value the command line takes.

A value is read by its *kind*, the annotation of the config field it
sets: ``int`` (``2.5`` is refused); ``float``, finite; ``float | None``,
where ``none`` means ``None``; ``bool``, one of ``1/0``, ``true/false``,
``yes/no``, ``on/off`` in any case; ``str``, the text as written.

A *spec* (``--faults``, ``--partial-reconfig``, ``--fleet-faults``,
``--elastic``, ``--halving``) is a comma-separated list: at most one
preset name, which must come first, then ``key=value`` overrides of the
config's fields. Keys ignore case and read ``-`` as ``_``, a repeated
key keeps its last value, and blank tokens and surrounding whitespace
are ignored. The config is built once from the preset (or the
defaults) and all overrides, so their order does not matter. A *list*
flag holds at least one comma-separated value of one kind; a blank item
is refused.

Every error is a ``ValueError`` naming the key (or list) and the value.
Like :mod:`.errors`, this module imports nothing from ``repro``.
"""

from __future__ import annotations

import math
from dataclasses import fields, replace

__all__ = ["parse_value", "parse_spec", "spec_values", "check_finite",
           "number", "choice", "items"]

_BOOLS = {"1": True, "true": True, "yes": True, "on": True,
          "0": False, "false": False, "no": False, "off": False}

#: What each kind expects, for error messages; also the set of kinds.
_EXPECTED = {"int": "an integer", "float": "a number",
             "float | None": "a number or none",
             "bool": "a boolean (1/0, true/false, yes/no, on/off)",
             "str": "text"}


def _kind(annotation) -> str:
    """A kind from a field annotation: the annotation's own text under
    ``from __future__ import annotations``, else the type's name."""
    return annotation if isinstance(annotation, str) \
        else getattr(annotation, "__name__", str(annotation))


def _convert(text: str, kind: str):
    value = text.strip()
    if kind == "str":
        return value
    try:
        if kind == "bool":
            return _BOOLS[value.lower()]
        if kind == "float | None" and value.lower() == "none":
            return None
        return int(value) if kind == "int" else float(value)
    except (KeyError, ValueError):
        raise ValueError(f"{text!r} is not {_EXPECTED[kind]}") from None


def parse_value(text: str, kind, key: str):
    """One ``kind`` value (a type or an annotation string) read from
    ``text`` for ``key``; non-finite floats are refused."""
    kind = _kind(kind)
    try:
        value = _convert(text, kind)
        if isinstance(value, float) and not math.isfinite(value):
            raise ValueError(f"{text!r} is not finite")
    except ValueError as exc:
        raise ValueError(f"{key}: {exc}") from None
    return value


def spec_values(text: str, kinds: dict, presets=(), what: str = "spec"):
    """Read a spec: ``(preset name or None, {key: value})``.

    ``kinds`` maps each key to its kind and ``presets`` holds the preset
    names; without presets a bare token is a key missing its value.
    ``what`` names the spec in errors ("unknown fault parameter ...").
    """
    preset, values = None, {}
    for i, token in enumerate(t.strip() for t in text.split(",")):
        if not token:
            continue
        key, eq, raw = token.partition("=")
        if not eq and presets:
            if i:
                raise ValueError(f"preset name {token!r} must come first")
            if token not in presets:
                raise ValueError(f"unknown {what} preset {token!r}; "
                                 f"options: {sorted(presets)}")
            preset = token
            continue
        key = key.strip().lower().replace("-", "_")
        if key not in kinds:
            raise ValueError(f"unknown {what} parameter {key!r} in "
                             f"{token!r}; options: {sorted(kinds)}")
        if not eq:
            raise ValueError(f"{key}: no value (expected {key}=<value>)")
        values[key] = parse_value(raw, kinds[key], key)
    return preset, values


def parse_spec(cls, text: str, presets=None, what: str = "spec"):
    """Build the dataclass ``cls`` from a spec: its fields of a known
    kind are the keys, ``presets`` maps names to instances."""
    kinds = {f.name: _kind(f.type) for f in fields(cls)
             if _kind(f.type) in _EXPECTED}
    preset, values = spec_values(text, kinds, presets or {}, what)
    return replace(presets[preset], **values) if preset else cls(**values)


def check_finite(config) -> None:
    """Refuse a dataclass whose float fields hold nan or an infinity,
    naming the first such field."""
    for f in fields(config):
        value = getattr(config, f.name)
        if isinstance(value, float) and not math.isfinite(value):
            raise ValueError(f"{f.name} must be finite, got {value!r}")


def number(kind, low, high=None, *, open_low=False, open_high=False):
    """Parser of one ``int`` or finite ``float`` in a range: ``[low,
    high]``, with ``open_low``/``open_high`` excluding an end and
    ``high=None`` leaving it unbounded."""
    kind = _kind(kind)
    if high is None:
        bound = f"must be {'>' if open_low else '>='} {low}" \
            + (" and finite" if kind == "float" else "")
    else:
        bound = (f"must be in {'(' if open_low else '['}{low}, "
                 f"{high}{')' if open_high else ']'}")

    def parse(text: str):
        value = _convert(text, kind)
        above = value > low if open_low else value >= low
        below = high is None or (value < high if open_high
                                 else value <= high)
        if not (above and below
                and (kind == "int" or math.isfinite(value))):
            raise ValueError(f"{bound} (got {value})")
        return value
    return parse


def choice(what: str, known):
    """Parser of one name from ``known``."""
    def parse(text: str) -> str:
        if text not in known:
            raise ValueError(f"unknown {what} {text!r}: expected one of "
                             f"{', '.join(known)}")
        return text
    return parse


def items(parse_item, what: str, *, unique: bool = False):
    """Parser of a comma-separated list read item by item with
    ``parse_item``; ``unique`` refuses repeated items."""
    def parse(text: str) -> list:
        tokens = [t.strip() for t in text.split(",")]
        if not any(tokens):
            raise ValueError(f"expected at least one {what}")
        values = [parse_item(t) for t in tokens]
        if unique and len(set(values)) != len(values):
            raise ValueError(f"duplicate {what} in {text!r}")
        return values
    return parse
