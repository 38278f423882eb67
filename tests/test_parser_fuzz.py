"""Malformed-input fuzzing of the file readers.

Hypothesis truncates, splices and byte-flips a valid OFF mesh, PFM depth
map, CSV log, markers.yaml and the bundled arm model. Each reader must either return or raise a
ValueError (SchemaError is one) that names the file, never another
exception type.
"""
import math
import re
from importlib import resources

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from surfscan.arm import load_arm_model
from surfscan.localization import ScenePlane, alignment_pose, load_markers, save_markers
from surfscan.mesh import load_off, save_off
from surfscan.reconstruction import load_pfm, save_pfm
from surfscan.scenario import synthetic_markers
from surfscan.sim import CSV_HEADER, flat_phantom_mesh, parse_log

SETTINGS = settings(max_examples=150, deadline=None,
                    suppress_health_check=[HealthCheck.too_slow, HealthCheck.function_scoped_fixture])


def _valid_files(root) -> dict:
    """name -> (reader, bytes of a valid file) for each reader."""
    save_off(flat_phantom_mesh(np.zeros(3), 0.05, 3), root / "mesh.off")
    save_pfm(np.arange(12, dtype=np.float32).reshape(3, 4) / 7.0, root / "depth.pfm")
    rows = [",".join(repr(0.1 * (i + j)) for j in range(16)) for i in range(3)]
    (root / "log.csv").write_text("\n".join([CSV_HEADER, *rows]) + "\n")
    plane = ScenePlane(np.zeros(3), np.array([0.0, 0.0, 1.0]))
    markers = synthetic_markers(plane, alignment_pose(plane, math.pi / 4, 0.3), (0.1, 0.09), 0.02)
    save_markers(markers, root / "markers.yaml")
    (root / "arm.yaml").write_bytes((resources.files("surfscan.models") / "reference_arm.yaml").read_bytes())
    readers = {"mesh.off": load_off, "depth.pfm": load_pfm, "log.csv": parse_log,
               "markers.yaml": load_markers, "arm.yaml": load_arm_model}
    return {name: (reader, (root / name).read_bytes()) for name, reader in readers.items()}


@st.composite
def mutated(draw, data: bytes) -> bytes:
    """One to three truncations, splices and byte flips of `data`."""
    for _ in range(draw(st.integers(1, 3))):
        i = draw(st.integers(0, len(data)))
        kind = draw(st.sampled_from(["truncate", "splice", "flip"]))
        if kind == "truncate":
            data = data[:i]
        elif kind == "splice":
            j = draw(st.integers(0, len(data)))
            data = data[:i] + data[j:]
        elif data:
            i = min(i, len(data) - 1)
            data = data[:i] + bytes([data[i] ^ draw(st.integers(1, 255))]) + data[i + 1:]
    return data


@pytest.mark.parametrize("name", ["mesh.off", "depth.pfm", "log.csv", "markers.yaml", "arm.yaml"])
def test_readers_return_or_raise_a_named_value_error(tmp_path, name):
    reader, valid = _valid_files(tmp_path)[name]
    reader(tmp_path / name)  # the unmutated file reads
    path = tmp_path / f"fuzzed_{name}"

    @SETTINGS
    @given(data=mutated(valid))
    def check(data):
        path.write_bytes(data)
        try:
            reader(path)
        except ValueError as exc:
            assert str(path) in str(exc), exc

    check()


@pytest.mark.parametrize("name, edit", [
    ("log.csv", lambda b: b.replace(b"\n0.1,", b"\n9.1,", 1)),  # time column out of order
    ("log.csv", lambda b: b"\xf4" + b[1:]),  # not UTF-8
    ("markers.yaml", lambda b: b.replace(b"confidence: 1.0", b"confidence: 1.5", 1)),
    ("markers.yaml", lambda b: b"\xed" + b[1:]),
    ("mesh.off", lambda b: b.replace(b"\n3 ", b"\n3 x", 1)),
    ("mesh.off", lambda b: b.replace(b" 8 0\n", b" 4 0\n", 1)),  # header understates the faces
], ids=["log-time-order", "log-not-utf8", "markers-confidence", "markers-not-utf8", "off-face-index",
        "off-face-count"])
def test_errors_found_by_fuzzing_name_the_file(tmp_path, name, edit):
    reader, valid = _valid_files(tmp_path)[name]
    path = tmp_path / f"edited_{name}"
    path.write_bytes(edit(valid))
    with pytest.raises(ValueError, match=re.escape(str(path))):
        reader(path)
