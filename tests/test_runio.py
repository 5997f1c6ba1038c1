"""File output plumbing: formatting, file writes, digests."""

import hashlib
import json
import os

import numpy as np
import pytest

from mcni.runio import (fmt_cell, fmt_float, jsonable, manifest_digest,
                        sha256_file, write_csv, write_json)


def test_fmt_float_round_trips():
    for x in (0.1, 1e-300, -3.5, 1 / 3, 2.0 ** 53):
        assert float(fmt_float(x)) == x


def test_fmt_cell_types():
    assert fmt_cell(True) == "true"
    assert fmt_cell(np.bool_(False)) == "false"
    assert fmt_cell(7) == "7"
    assert fmt_cell(np.int64(-2)) == "-2"
    assert fmt_cell(0.5) == "0.5"
    assert fmt_cell("label") == "label"


def test_jsonable_strips_numpy_types():
    obj = {"a": np.float64(1.5), "b": np.arange(3), "c": (np.int32(2), True),
           "d": {"nested": np.bool_(True)}}
    out = jsonable(obj)
    assert out == {"a": 1.5, "b": [0, 1, 2], "c": [2, True],
                   "d": {"nested": True}}
    json.dumps(out)  # must be serializable as-is


def test_writers_write_only_their_path(tmp_path):
    write_csv(tmp_path / "t.csv", ["x"], [[1.0]])
    write_json(tmp_path / "m.json", {"x": 1.0})
    assert sorted(p.name for p in tmp_path.iterdir()) == ["m.json", "t.csv"]


def test_writers_replace_an_existing_file(tmp_path):
    # a shorter second write leaves nothing of the first
    csv, js = tmp_path / "t.csv", tmp_path / "m.json"
    write_csv(csv, ["x"], [[1.0], [2.0]])
    write_csv(csv, ["y"], [])
    write_json(js, {"x": list(range(50))})
    write_json(js, {})
    assert csv.read_text() == "y\n"
    assert js.read_text() == '{\n  "schema_version": 1\n}\n'


@pytest.mark.parametrize("umask, mode", [(0o022, 0o644), (0o077, 0o600)])
def test_outputs_are_created_like_open_under_the_umask(tmp_path, umask, mode):
    old = os.umask(umask)
    try:
        write_csv(tmp_path / "t.csv", ["x"], [[1.0]])
        write_json(tmp_path / "m.json", {"x": 1.0})
    finally:
        os.umask(old)
    for name in ("t.csv", "m.json"):
        assert (tmp_path / name).stat().st_mode & 0o777 == mode, name


def test_write_csv_layout(tmp_path):
    path = tmp_path / "t.csv"
    write_csv(path, ["name", "n", "ok", "x"], [["a", 1, True, 0.25],
                                               ["b", 2, False, 1e-9]])
    assert path.read_text() == ("name,n,ok,x\n"
                                "a,1,true,0.25\n"
                                "b,2,false,1e-09\n")


def test_write_json_stamps_schema_version(tmp_path):
    path = tmp_path / "m.json"
    write_json(path, {"value": np.float64(2.5)})
    data = json.loads(path.read_text())
    assert data == {"schema_version": 1, "value": 2.5}


def test_write_json_sorted_keys_stable(tmp_path):
    a, b = tmp_path / "a.json", tmp_path / "b.json"
    write_json(a, {"z": 1, "a": 2})
    write_json(b, {"a": 2, "z": 1})
    assert a.read_bytes() == b.read_bytes()


def test_sha256_file_matches_hashlib(tmp_path):
    path = tmp_path / "blob.bin"
    payload = bytes(range(256)) * 300
    path.write_bytes(payload)
    assert sha256_file(path) == hashlib.sha256(payload).hexdigest()


def test_sha256_missing_file_raises(tmp_path):
    with pytest.raises(OSError):
        sha256_file(tmp_path / "absent")


def test_manifest_digest_ignores_timings():
    base = {"command": "toy", "config": {"seed": 3}, "results": {"rmse": 0.1}}
    d1 = manifest_digest({**base, "timings": {"fit_seconds": 1.0}})
    d2 = manifest_digest({**base, "timings": {"fit_seconds": 99.0}})
    d3 = manifest_digest(base)
    assert d1 == d2 == d3


def test_manifest_digest_sensitive_to_content():
    base = {"command": "toy", "config": {"seed": 3}}
    assert manifest_digest(base) != manifest_digest({**base, "config": {"seed": 4}})


def test_manifest_digest_key_order_invariant():
    assert (manifest_digest({"a": 1, "b": {"x": 2, "y": 3}})
            == manifest_digest({"b": {"y": 3, "x": 2}, "a": 1}))
