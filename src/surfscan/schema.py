"""Strict structured-text (YAML) schemas: declared key rows and one reader.

Every file format in this package rejects unknown keys so typos fail loudly
instead of silently falling back to defaults. The scenario config, the arm
model and the marker file declare their keys as ConfigKey rows; read_node
reads a mapping through its rows into the value they build.
"""
from __future__ import annotations

import math
from typing import Any, Callable, Iterable, Mapping, NamedTuple

import numpy as np
import yaml


# libyaml's parser where PyYAML was built with it, the pure-Python one
# otherwise. Both feed the same SafeConstructor and resolver, so they build
# the same documents; libyaml parses the bundled arm model 5x faster.
_LOADER = getattr(yaml, "CSafeLoader", yaml.SafeLoader)


class SchemaError(ValueError):
    """A structured-text document does not match its documented schema."""


REQUIRED = object()  # the default of a key that must be given


def load_yaml(path) -> Any:
    """The document in the YAML file at path; malformed YAML is a
    SchemaError that names the file. Configs, arm models and marker files
    are all read here."""
    with open(path, "r", encoding="utf-8") as fh:
        try:
            return yaml.load(fh, Loader=_LOADER)
        except (yaml.YAMLError, UnicodeDecodeError) as exc:
            raise SchemaError(f"{path}: malformed YAML: {exc}") from None


def require_mapping(node: Any, where: str) -> Mapping:
    if not isinstance(node, Mapping):
        raise SchemaError(f"{where}: expected a mapping, got {type(node).__name__}")
    return node


def check_keys(node: Mapping, allowed: Iterable[str], where: str) -> None:
    unknown = sorted(set(node.keys()) - set(allowed), key=str)  # YAML keys need not be strings
    if unknown:
        raise SchemaError(f"{where}: unknown keys {unknown}; allowed keys are {sorted(allowed)}")


def as_float(value: Any, where: str) -> float:
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise SchemaError(f"{where}: expected a number, got {value!r}")
    try:
        return float(value)
    except OverflowError:  # an integer beyond the float range
        raise SchemaError(f"{where}: integer too large for a float") from None


def as_int(value: Any, where: str) -> int:
    if isinstance(value, bool) or not isinstance(value, int):
        raise SchemaError(f"{where}: expected an integer, got {value!r}")
    return int(value)


def as_str(value: Any, where: str) -> str:
    if not isinstance(value, str):
        raise SchemaError(f"{where}: expected a string, got {value!r}")
    return value


def as_vector(value: Any, n: int, where: str) -> np.ndarray:
    if not isinstance(value, (list, tuple)) or len(value) != n:
        raise SchemaError(f"{where}: expected a list of {n} numbers, got {value!r}")
    return np.array([as_float(x, where) for x in value])


def as_matrix(value: Any, rows: int, cols: int, where: str) -> np.ndarray:
    if not isinstance(value, (list, tuple)) or len(value) != rows:
        raise SchemaError(f"{where}: expected {rows} rows, got {value!r}")
    return np.vstack([as_vector(row, cols, where) for row in value])


def vector(n: int) -> Callable:
    """The conversion of a list of n numbers."""
    return lambda value, where: as_vector(value, n, where)


class Bound(NamedTuple):
    """The range a value must lie in, and its wording in errors.

    The value, or each entry of a vector, must lie between lo and hi, open
    at each end unless closed there. An infinite end is left open, so
    infinities fail, and each comparison is written so that NaN fails it."""

    need: str
    lo: float = -math.inf
    hi: float = math.inf
    lo_closed: bool = False
    hi_closed: bool = False

    def __call__(self, value, name: str) -> None:
        shown = value.tolist() if isinstance(value, np.ndarray) else value
        for x in shown if isinstance(shown, list) else (shown,):
            if not ((self.lo <= x if self.lo_closed else self.lo < x)
                    and (x <= self.hi if self.hi_closed else x < self.hi)):
                raise SchemaError(f"{name} must be {self.need}, got {shown}")


class ConfigKey(NamedTuple):
    """One key of a YAML mapping: of the config, the arm model or the marker file.

    `name` is the YAML key; config keys are dotted ("section.key", or "key"
    at the top level). `default` is written as in YAML and goes through
    `conv` like a given value; None leaves the value None unless the key is
    given, and REQUIRED makes a missing key an error. `bound` checks the
    converted value when it is not None."""

    name: str
    default: Any
    conv: Callable
    bound: Callable | None = None

    def read(self, node: Mapping, where: str):
        """This key's value in `node`, the mapping that holds it; errors name
        it `where.name`."""
        key = self.name.rpartition(".")[2]
        if key not in node and self.default is REQUIRED:
            raise SchemaError(f"{where}: missing required key '{key}'")
        if key not in node and self.default is None:
            return None
        name = f"{where}.{self.name}"
        value = self.conv(node.get(key, self.default), name)
        if value is not None and self.bound is not None:
            self.bound(value, name)
        return value


def read_node(node: Any, keys: tuple, where: str, build: Callable):
    """build(**values) of the mapping `node`, whose keys are the rows `keys`,
    each read by ConfigKey.read; a ValueError from build is a SchemaError
    naming the node."""
    node = require_mapping(node, where)
    check_keys(node, [k.name for k in keys], where)
    values = {k.name: k.read(node, where) for k in keys}
    try:
        return build(**values)
    except ValueError as exc:
        raise SchemaError(f"{where}: {exc}") from None


def list_of(keys: tuple, build: Callable) -> Callable:
    """The conversion of a non-empty list of mappings, each read by read_node; a tuple."""
    def conv(value, where: str) -> tuple:
        if not isinstance(value, list) or not value:
            raise SchemaError(f"{where}: expected a non-empty list of mappings, got {value!r:.40}")
        return tuple(read_node(item, keys, f"{where}[{k}]", build) for k, item in enumerate(value))
    return conv
