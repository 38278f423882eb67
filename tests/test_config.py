"""Config parsing checked from the config's own declarations.

The Hypothesis strategies here are built from `surfscan.scenario.CONFIG_KEYS`:
in-bound documents must parse to the values drawn, and for every bounded
key a value just past each finite end of its bound, NaN, both infinities
and values of the wrong type must each be a SchemaError naming the key,
and exit 2 through the CLI with no `--out` left behind.
"""
import copy
import math
import re
from dataclasses import fields
from pathlib import Path

import numpy as np
import pytest
import yaml
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from surfscan.cli import main
from surfscan.scenario import CONFIG_KEYS, MAX_PIXELS, Bound, ScenarioConfig, parse_config
from surfscan.schema import SchemaError, as_float, as_int

README = Path(__file__).resolve().parent.parent / "README.md"
SETTINGS = settings(max_examples=15, deadline=None,
                    suppress_health_check=[HealthCheck.too_slow, HealthCheck.function_scoped_fixture])

BOUNDED = [k for k in CONFIG_KEYS if k.bound is not None]
ATTRIBUTE = {f.metadata["key"].name: f.name for f in fields(ScenarioConfig) if f.metadata}


def _is_gains(key) -> bool:
    """Stiffness and damping: bounded by the SPD rule, not by a range."""
    return key.bound is not None and not isinstance(key.bound, Bound)


def _put(doc: dict, name: str, value) -> dict:
    section, _, key = name.rpartition(".")
    (doc.setdefault(section, {}) if section else doc)[key] = value
    return doc


def _in_range(key):
    b = key.bound
    if key.conv is as_int:
        hi = int(b.hi) - (0 if b.hi_closed else 1) if math.isfinite(b.hi) else int(b.lo) + 1000
        return st.integers(min_value=int(b.lo) + (0 if b.lo_closed else 1), max_value=hi)
    lo, hi = max(b.lo, -1e6), min(b.hi, 1e6)
    return st.floats(min_value=lo, max_value=hi,
                     exclude_min=lo == b.lo and not b.lo_closed,
                     exclude_max=hi == b.hi and not b.hi_closed)


def _in_bound(key):
    """Values the key must accept."""
    if _is_gains(key):
        diag = st.lists(st.floats(min_value=1e-3, max_value=1e6), min_size=6, max_size=6)
        return st.one_of(diag, diag.map(lambda d: np.diag(d).tolist()))  # both written forms
    if isinstance(key.default, list):
        return st.lists(_in_range(key), min_size=len(key.default), max_size=len(key.default))
    return _in_range(key)


@st.composite
def in_bound_docs(draw):
    """A document setting a random subset of the bounded keys in bound."""
    doc = {}
    for key in BOUNDED:
        if draw(st.booleans()):
            _put(doc, key.name, draw(_in_bound(key)))
    # the rules across bounded keys: cap_height <= sphere_radius, and
    # width x height <= MAX_PIXELS with the principal point inside the image
    phantom = doc.get("phantom", {})
    h, r = phantom.get("cap_height", 0.04), phantom.get("sphere_radius", 0.10)
    if h > r:
        phantom["cap_height"], phantom["sphere_radius"] = r, h
    camera = doc.get("camera", {})
    if camera.keys() & {"width", "height"}:
        w, h = camera.get("width", 240), camera.get("height", 180)
        if w * h > MAX_PIXELS:
            camera["height"] = h = MAX_PIXELS // w
        camera["cx"], camera["cy"] = w / 2, h / 2
    return doc


def _past(key) -> list:
    """Numbers just outside each finite end of the key's range."""
    b, out = key.bound, []
    if math.isfinite(b.lo):
        out.append(b.lo - 1 if key.conv is as_int else b.lo if not b.lo_closed
                   else math.nextafter(b.lo, -math.inf))
    if math.isfinite(b.hi):
        out.append(b.hi if not b.hi_closed else b.hi + 1 if key.conv is as_int
                   else math.nextafter(b.hi, math.inf))
    return out


def bad_values(key) -> list:
    """Values the key must reject: past its bound, NaN, infinities, wrong types."""
    nan, inf = math.nan, math.inf
    if _is_gains(key):
        lopsided = np.diag([300.0] * 6)
        lopsided[0, 1] = 1.0
        return [[1, 2, 3, 4, 5, -6], [1, 2, 3, 4, 5, 0], [1, 2, 3, 4, 5, nan], [1, 2, 3, 4, 5, inf],
                lopsided.tolist(), "stiff", [1, 2, 3]]
    numbers = _past(key) + [nan, inf, -inf]
    if isinstance(key.default, list):
        return [[x] + key.default[1:] for x in numbers] + ["wide", key.default[:-1]]
    return numbers + ["x", True] + ([2.5] if key.conv is as_int else [])


def _names_key(key) -> str:
    return re.escape(f"config.{key.name}") + r"[ :\[]"


def test_every_bounded_key_is_a_range_or_the_gain_rule():
    kinds = {k.name: (isinstance(k.bound, Bound), _is_gains(k)) for k in BOUNDED}
    assert all(any(kind) for kind in kinds.values())
    assert {name for name, (_, gains) in kinds.items() if gains} == {
        "controller.stiffness", "controller.damping"}
    for key in BOUNDED:  # the strategies know each converter
        assert _is_gains(key) or key.conv in (as_int, as_float) or isinstance(key.default, list)


@SETTINGS
@given(doc=in_bound_docs())
def test_in_bound_documents_parse_to_their_values(doc):
    cfg = parse_config(copy.deepcopy(doc))
    for key in BOUNDED:
        section, _, name = key.name.rpartition(".")
        node = doc.get(section, {}) if section else doc
        if name not in node:
            continue
        # the camera's keys are read into cfg.camera under their own names
        got = getattr(cfg, ATTRIBUTE[key.name]) if key.name in ATTRIBUTE else getattr(cfg.camera, name)
        want = node[name]
        if key.name == "camera.view_angle_deg":
            want = math.radians(want)
        elif _is_gains(key):
            want = np.diag(want) if np.ndim(want) == 1 else np.array(want)
        assert np.array_equal(got, want), key.name


@pytest.mark.parametrize("key", BOUNDED, ids=[k.name for k in BOUNDED])
@SETTINGS
@given(doc=in_bound_docs())
def test_values_past_the_bound_are_schema_errors_naming_the_key(key, doc):
    for bad in bad_values(key):
        with pytest.raises(SchemaError, match=_names_key(key)):
            parse_config(_put(copy.deepcopy(doc), key.name, bad))


@pytest.mark.parametrize("key", BOUNDED, ids=[k.name for k in BOUNDED])
def test_cli_exits_2_on_bad_values_and_leaves_no_out(key, tmp_path, capsys):
    cfg, out = tmp_path / "bad.yaml", tmp_path / "run"
    for bad in bad_values(key):
        cfg.write_text(yaml.safe_dump(_put({}, key.name, bad)))
        assert main(["scan", "--config", str(cfg), "--out", str(out)]) == 2, bad
        err = capsys.readouterr().err
        assert err.startswith(f"error: {cfg}.{key.name}") and err.count("\n") == 1, err
        assert not out.exists()


def test_messages_of_the_new_bounds():
    # the rules the declared bounds added, and the texts they changed
    for doc, text in (
        ({"raster": {"half_extents": [0.03, -0.02]}},
         "config.raster.half_extents must be positive, got [0.03, -0.02]"),
        ({"markers": {"half_extents": [-0.1, 0.09]}},
         "config.markers.half_extents must be positive, got [-0.1, 0.09]"),
        ({"phantom": {"cap_height": 0.0}}, "config.phantom.cap_height must be positive, got 0.0"),
        ({"phantom": {"cap_height": 0.2}},
         "config.phantom.cap_height must be in (0, sphere_radius = 0.1], got 0.2"),
        ({"phantom": {"extent": math.inf}}, "config.phantom.extent must be positive, got inf"),
        ({"contact": {"hold_duration": math.inf}},
         "config.contact.hold_duration must be non-negative, got inf"),
        ({"controller": {"zeta": 0.0}}, "config.controller.zeta must be positive, got 0.0"),
        ({"controller": {"stiffness": [1, 2, 3, 4, 5, -6]}},
         "config.controller.stiffness: stiffness must be positive-definite"),
        ({"controller": {"damping": [[1, 1, 0, 0, 0, 0]] + [[0, 1, 0, 0, 0, 0]] * 5}},
         "config.controller.damping: damping must be symmetric"),
        ({"controller": {"stiffness": [1, 2, 3]}},
         "config.controller.stiffness: expected 6 numbers or 6 rows of 6, got a list of 3"),
        ({"controller": {"stiffness": [[1, 0, 0, 0, 0, 0]] * 5}},
         "config.controller.stiffness: expected 6 rows of 6, got 5 rows"),
        ({"seed": -3}, "config.seed must be non-negative, got -3"),
        ({"phantom": {"grid_n": 502}},
         "config.phantom.grid_n must be at least 2 and at most 501, got 502"),
        ({"camera": {"width": 8193}}, "config.camera.width must be at least 1 and at most 8192, got 8193"),
        ({"camera": {"width": 4096, "height": 1024}},
         "config.camera.width x camera.height must be at most 2097152 pixels, got 4096 x 1024"),
        ({"camera": {"fx": math.inf}},
         "config.camera: focal lengths fx, fy must be positive and finite, got inf, 180.0"),
        ({"camera": {"depth_noise_sigma": math.inf}},
         "config.camera: depth_noise_sigma must be non-negative and finite, got inf"),
        ({"phantom": {"extent": 10**400}}, "config.phantom.extent: integer too large for a float"),
    ):
        with pytest.raises(SchemaError) as err:
            parse_config(doc)
        assert str(err.value) == text


def test_image_past_the_pixel_bound_exits_2_naming_the_keys(tmp_path, capsys):
    # each side in bound, the product not: refused while parsing, so no
    # image of that size is ever allocated
    cfg, out = tmp_path / "big.yaml", tmp_path / "run"
    for w, h in ((4096, 1024), (8192, 257), (2049, 1024)):
        cfg.write_text(yaml.safe_dump({"camera": {"width": w, "height": h}}))
        assert main(["reconstruct", "--config", str(cfg), "--out", str(out)]) == 2
        err = capsys.readouterr().err
        assert err == (f"error: {cfg}.camera.width x camera.height must be at most {MAX_PIXELS} "
                       f"pixels, got {w} x {h}\n")
        assert not out.exists()
    cam = parse_config({"camera": {"width": 2048, "height": 1024}}).camera  # exactly 2^21
    assert cam.width * cam.height == MAX_PIXELS == 2**21


def test_camera_intrinsics_reject_infinities():
    for key, value in (("fx", math.inf), ("fy", -math.inf), ("cx", math.inf), ("cy", -math.inf),
                       ("depth_noise_sigma", math.inf)):
        with pytest.raises(SchemaError, match=f"config.camera: .*{key}"):
            parse_config({"camera": {key: value}})


def test_readme_table_lists_every_key_with_its_bound():
    text = README.read_text()
    table = text[text.index("## Configuration"):text.index("## Library layout")]
    rows = [line for line in table.splitlines() if line.startswith("| `")]
    for key in CONFIG_KEYS:
        row = [r for r in rows if f"`{key.name}`" in r.split("|")[1]]
        assert len(row) == 1, key.name
        if isinstance(key.bound, Bound):
            assert f"| {key.bound.need}" in row[0], key.name
        elif key.bound is not None:
            assert "| symmetric positive-definite" in row[0], key.name
