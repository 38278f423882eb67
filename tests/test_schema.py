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
    SchemaError,
    as_float,
    as_int,
    as_matrix,
    as_vector,
    check_keys,
    get_required,
    load_yaml,
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


def test_get_required():
    assert get_required({"a": 1}, "a", "doc") == 1
    with pytest.raises(SchemaError, match="'b'"):
        get_required({"a": 1}, "b", "doc")


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
