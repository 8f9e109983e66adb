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

