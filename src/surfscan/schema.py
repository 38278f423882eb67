"""Small helpers for strict structured-text (YAML) schemas.

Every file format in this package rejects unknown keys so typos fail loudly
instead of silently falling back to defaults.
"""
from __future__ import annotations

from typing import Any, Iterable, Mapping

import numpy as np
import yaml


# libyaml's parser where PyYAML was built with it, the pure-Python one
# otherwise. Both feed the same SafeConstructor and resolver, so they build
# the same documents; libyaml parses the bundled arm model 5x faster.
_LOADER = getattr(yaml, "CSafeLoader", yaml.SafeLoader)


class SchemaError(ValueError):
    """A structured-text document does not match its documented schema."""


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
    unknown = sorted(set(node.keys()) - set(allowed))
    if unknown:
        raise SchemaError(f"{where}: unknown keys {unknown}; allowed keys are {sorted(allowed)}")


def get_required(node: Mapping, key: str, where: str) -> Any:
    if key not in node:
        raise SchemaError(f"{where}: missing required key '{key}'")
    return node[key]


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


def as_vector(value: Any, n: int, where: str) -> np.ndarray:
    if not isinstance(value, (list, tuple)) or len(value) != n:
        raise SchemaError(f"{where}: expected a list of {n} numbers, got {value!r}")
    return np.array([as_float(x, where) for x in value])


def as_matrix(value: Any, rows: int, cols: int, where: str) -> np.ndarray:
    if not isinstance(value, (list, tuple)) or len(value) != rows:
        raise SchemaError(f"{where}: expected {rows} rows, got {value!r}")
    return np.vstack([as_vector(row, cols, where) for row in value])
