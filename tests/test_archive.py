import json
import zipfile

import numpy as np
import pytest

from tokengate.archive import (
    export_stream,
    import_stream,
    load_tensors,
    save_tensors,
)
from tokengate.rng import SplitRng
from tokengate.streams import StreamConfig, gen_stream


def test_round_trip_at_float32_precision(tmp_path):
    path = tmp_path / "tensors.zip"
    tensors = {"a": SplitRng(0).normal((3, 4)), "b": np.arange(6.0).reshape(2, 3)}
    save_tensors(path, tensors)
    loaded = load_tensors(path)
    assert set(loaded) == {"a", "b"}
    for name in tensors:
        np.testing.assert_allclose(loaded[name], tensors[name], atol=1e-6)
        assert loaded[name].dtype == np.float64


def test_manifest_is_plain_json_with_raw_floats(tmp_path):
    path = tmp_path / "tensors.zip"
    arr = np.array([[1.0, 2.0], [3.0, 4.0]])
    save_tensors(path, {"values": arr})
    with zipfile.ZipFile(path) as zf:
        manifest = json.loads(zf.read("manifest.json"))
        entry = manifest["tensors"][0]
        assert entry["name"] == "values"
        assert entry["shape"] == [2, 2]
        assert entry["dtype"] == "float32_le"
        raw = zf.read(entry["member"])
    # payload is little-endian float32, row-major
    decoded = np.frombuffer(raw, dtype="<f4").reshape(2, 2)
    np.testing.assert_array_equal(decoded, arr.astype(np.float32))
    assert raw[:4] == bytes.fromhex("0000803f")  # 1.0f little-endian


def test_stream_export_import(tmp_path):
    path = tmp_path / "stream.zip"
    frames = gen_stream(StreamConfig(n=8, d=4, frames=3, seed=1))
    export_stream(path, frames)
    loaded = import_stream(path)
    assert loaded.shape == frames.shape
    np.testing.assert_allclose(loaded, frames, atol=1e-6)


def test_import_rejects_non_stream_archives(tmp_path):
    path = tmp_path / "other.zip"
    save_tensors(path, {"weights": np.zeros((2, 2))})
    with pytest.raises(ValueError):
        import_stream(path)



def _write_archive(path, entries, members):
    with zipfile.ZipFile(path, "w") as zf:
        for member, raw in members.items():
            zf.writestr(member, raw)
        zf.writestr("manifest.json", json.dumps(
            {"format_version": 1, "tensors": entries}))


FLOAT32_ENTRY = {"name": "frame_00000", "shape": [2, 2],
                 "dtype": "float32_le", "member": "t.bin"}
FLOAT32_MEMBERS = {"t.bin": np.arange(4, dtype="<f4").tobytes()}


def test_rejects_a_dtype_other_than_float32(tmp_path):
    # four float64 values read as float32 would fill a 2 x 4 frame
    path = tmp_path / "float64.zip"
    _write_archive(path, [{**FLOAT32_ENTRY, "shape": [2, 4], "dtype": "float64_le"}],
                   {"t.bin": np.arange(4, dtype="<f8").tobytes()})
    for load in (load_tensors, import_stream):
        with pytest.raises(ValueError, match="dtype 'float64_le'"):
            load(path)


@pytest.mark.parametrize("key", ["name", "shape", "dtype", "member"])
def test_rejects_an_entry_that_lacks_a_key(tmp_path, key):
    path = tmp_path / "lacking.zip"
    entry = {k: v for k, v in FLOAT32_ENTRY.items() if k != key}
    _write_archive(path, [entry], FLOAT32_MEMBERS)
    with pytest.raises(ValueError, match=f"lacks {key}"):
        load_tensors(path)


def test_rejects_a_missing_member(tmp_path):
    path = tmp_path / "missing.zip"
    _write_archive(path, [{**FLOAT32_ENTRY, "member": "gone.bin"}], FLOAT32_MEMBERS)
    with pytest.raises(ValueError, match="no member 'gone.bin'"):
        load_tensors(path)


@pytest.mark.parametrize("shape, match", [
    ([-1, 2], "shape entry must be at least 0"),
    ([2.0, 4], "shape entry must be an integer"),
    (8, "shape must be a list"),
], ids=["inferred", "float", "not-a-list"])
def test_rejects_a_shape_that_is_not_nonnegative_integers(tmp_path, shape, match):
    # reshape would take each of these: [-1, 2] over eight values as 4 x 2
    path = tmp_path / "shape.zip"
    _write_archive(path, [{**FLOAT32_ENTRY, "shape": shape}],
                   {"t.bin": np.arange(8, dtype="<f4").tobytes()})
    for load in (load_tensors, import_stream):
        with pytest.raises(ValueError, match=match):
            load(path)


def test_rejects_a_repeated_name(tmp_path):
    # the second frame_00000 would replace the first
    path = tmp_path / "repeated.zip"
    members = {"a.bin": np.arange(8, dtype="<f4").tobytes(),
               "b.bin": np.arange(8, dtype="<f4").tobytes()}
    _write_archive(path, [{**FLOAT32_ENTRY, "shape": [2, 4], "member": "a.bin"},
                          {**FLOAT32_ENTRY, "shape": [4, 2], "member": "b.bin"}],
                   members)
    for load in (load_tensors, import_stream):
        with pytest.raises(ValueError, match="repeats tensor name 'frame_00000'"):
            load(path)
