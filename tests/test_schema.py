"""Strict document-parsing helpers and the YAML read path."""
from pathlib import Path

import numpy as np
import pytest
import yaml

from surfscan import schema
from surfscan.arm import load_arm_model
from surfscan.localization import load_markers
from surfscan.scenario import load_config, run_scenario
from surfscan.schema import (
    REQUIRED,
    ConfigKey,
    SchemaError,
    as_float,
    as_int,
    as_matrix,
    as_vector,
    check_keys,
    list_of,
    load_yaml,
    read_node,
    require_mapping,
)


def test_require_mapping():
    assert require_mapping({"a": 1}, "doc") == {"a": 1}
    with pytest.raises(SchemaError, match="doc"):
        require_mapping([1, 2], "doc")
    with pytest.raises(SchemaError):
        require_mapping(None, "doc")


def test_check_keys_rejects_unknown():
    with pytest.raises(SchemaError, match="bogus"):
        check_keys({"a": 1, "bogus": 2}, ("a", "b"), "doc")
    check_keys({"a": 1}, ("a", "b"), "doc")


def test_check_keys_names_keys_that_are_not_strings():
    with pytest.raises(SchemaError, match=r"unknown keys \[1, None, 'x'\]"):
        check_keys({1: 0, None: 0, "x": 0, "a": 0}, ("a",), "doc")


def test_required_row():
    row = ConfigKey("b", REQUIRED, as_int)
    assert row.read({"b": 1}, "doc") == 1
    with pytest.raises(SchemaError, match=r"^doc: missing required key 'b'$"):
        row.read({"a": 1}, "doc")


def test_rows_with_defaults():
    assert ConfigKey("b", 2, as_int).read({}, "doc") == 2
    assert ConfigKey("b", None, as_int).read({}, "doc") is None
    with pytest.raises(SchemaError, match=r"^doc\.b: expected an integer"):
        ConfigKey("b", None, as_int).read({"b": None}, "doc")


def _pair(a, b):
    if a >= b:
        raise ValueError(f"a must be less than b, got {a} >= {b}")
    return (a, b)


PAIR = (ConfigKey("a", REQUIRED, as_int), ConfigKey("b", 10, as_int))


def test_read_node_builds_from_its_rows():
    assert read_node({"a": 1}, PAIR, "doc", _pair) == (1, 10)
    assert read_node({"a": 1, "b": 2}, PAIR, "doc", _pair) == (1, 2)
    with pytest.raises(SchemaError, match=r"^doc: unknown keys \['c'\]"):
        read_node({"a": 1, "c": 2}, PAIR, "doc", _pair)
    with pytest.raises(SchemaError, match=r"^doc: expected a mapping"):
        read_node([1], PAIR, "doc", _pair)
    with pytest.raises(SchemaError, match=r"^doc\.a: expected an integer"):
        read_node({"a": 1.5}, PAIR, "doc", _pair)


def test_read_node_names_the_node_in_errors_of_build():
    with pytest.raises(SchemaError, match=r"^doc: a must be less than b, got 3 >= 2$"):
        read_node({"a": 3, "b": 2}, PAIR, "doc", _pair)


def test_list_of_names_each_item():
    read = list_of(PAIR, _pair)
    assert read([{"a": 1}, {"a": 2, "b": 3}], "doc.pairs") == ((1, 10), (2, 3))
    with pytest.raises(SchemaError, match=r"^doc\.pairs\[1\]: a must be less than b"):
        read([{"a": 1}, {"a": 5, "b": 3}], "doc.pairs")
    with pytest.raises(SchemaError, match=r"^doc\.pairs\[0\]: missing required key 'a'"):
        read([{}], "doc.pairs")
    for bad in ([], {"a": 1}, "pairs"):
        with pytest.raises(SchemaError, match=r"^doc\.pairs: expected a non-empty list"):
            read(bad, "doc.pairs")


def test_as_float_rejects_bool_and_text():
    assert as_float(2, "x") == 2.0
    assert as_float(2.5, "x") == 2.5
    with pytest.raises(SchemaError):
        as_float(True, "x")
    with pytest.raises(SchemaError):
        as_float("2.5", "x")


def test_as_int():
    assert as_int(3, "x") == 3
    with pytest.raises(SchemaError):
        as_int(3.5, "x")
    with pytest.raises(SchemaError):
        as_int(True, "x")


def test_as_vector():
    v = as_vector([1, 2.0, 3], 3, "x")
    assert v.dtype == np.float64 and np.array_equal(v, [1.0, 2.0, 3.0])
    with pytest.raises(SchemaError, match="3"):
        as_vector([1, 2], 3, "x")
    with pytest.raises(SchemaError):
        as_vector("abc", 3, "x")


def test_as_matrix():
    m = as_matrix([[1, 0], [0, 1]], 2, 2, "x")
    assert np.array_equal(m, np.eye(2))
    with pytest.raises(SchemaError):
        as_matrix([[1, 0], [0]], 2, 2, "x")
    with pytest.raises(SchemaError):
        as_matrix([[1, 0]], 2, 2, "x")


# ---------------------------------------------------------------------------
# the YAML read path
# ---------------------------------------------------------------------------

LOADERS = [yaml.SafeLoader] + ([yaml.CSafeLoader] if yaml.__with_libyaml__ else [])
ROOT = Path(__file__).resolve().parent.parent


def test_load_yaml_uses_libyaml_where_pyyaml_has_it():
    assert schema._LOADER is (yaml.CSafeLoader if yaml.__with_libyaml__ else yaml.SafeLoader)


def test_every_loader_reads_the_same_documents(tmp_path):
    paths = sorted((ROOT / "configs").glob("*.yaml"))
    assert paths
    paths.append(ROOT / "src" / "surfscan" / "models" / "reference_arm.yaml")
    run_scenario({}, tmp_path / "run", stages=("localize",))
    paths.append(tmp_path / "run" / "markers.yaml")
    for path in paths:
        docs = []
        for loader in LOADERS:
            with open(path, encoding="utf-8") as fh:
                docs.append(yaml.load(fh, Loader=loader))
        assert docs[0] is not None, path
        assert all(doc == docs[0] for doc in docs), path
        assert load_yaml(path) == docs[0], path


@pytest.mark.parametrize("loader", LOADERS, ids=lambda loader: loader.__name__)
def test_malformed_yaml_names_the_file_under_every_loader(tmp_path, monkeypatch, loader):
    monkeypatch.setattr(schema, "_LOADER", loader)
    cases = [
        ("bad.yaml", "a: [1, 2\n", load_config),
        ("arm.yaml", "a: [1, 2\n", load_arm_model),
        ("markers.yaml", "markers: [{id: 1\n", load_markers),
    ]
    for name, text, read in cases:
        path = tmp_path / name
        path.write_text(text)
        with pytest.raises(SchemaError, match=f"{name}: malformed YAML"):
            read(path)
