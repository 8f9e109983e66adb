"""Named-tensor archive: a zip with a JSON manifest and raw float payloads.

Layout: ``manifest.json`` lists one entry per tensor with its name, shape,
dtype (``float32_le``) and payload member; each payload is the tensor's
values as row-major little-endian 32-bit floats.  ``load_tensors`` raises
ValueError on an entry that lacks a key, repeats an earlier entry's name,
has a shape that is not a list of nonnegative integers, declares another
dtype or names a missing member.  Any language with a zip reader and a
JSON parser can read and write them, so stream fixtures are shared across
implementations.
"""

from __future__ import annotations

import json
import zipfile

import numpy as np

from .kernels import check_integer

FORMAT_VERSION = 1
ENTRY_KEYS = ("name", "shape", "dtype", "member")


def save_tensors(path, tensors: dict[str, np.ndarray]) -> None:
    entries = []
    with zipfile.ZipFile(path, "w", compression=zipfile.ZIP_DEFLATED) as zf:
        for i, (name, arr) in enumerate(tensors.items()):
            member = f"tensor_{i:05d}.bin"
            arr = np.ascontiguousarray(arr, dtype="<f4")
            zf.writestr(member, arr.tobytes())
            entries.append({
                "name": name,
                "shape": list(arr.shape),
                "dtype": "float32_le",
                "member": member,
            })
        manifest = {"format_version": FORMAT_VERSION, "tensors": entries}
        zf.writestr("manifest.json", json.dumps(manifest, indent=2))


def load_tensors(path) -> dict[str, np.ndarray]:
    out: dict[str, np.ndarray] = {}
    with zipfile.ZipFile(path, "r") as zf:
        manifest = json.loads(zf.read("manifest.json"))
        if manifest.get("format_version") != FORMAT_VERSION:
            raise ValueError("unsupported archive format version")
        for entry in manifest["tensors"]:
            missing = [key for key in ENTRY_KEYS if key not in entry]
            if missing:
                raise ValueError(f"manifest entry lacks {', '.join(missing)}")
            if entry["name"] in out:
                raise ValueError(f"archive repeats tensor name {entry['name']!r}")
            if not isinstance(entry["shape"], list):
                raise ValueError(f"tensor shape must be a list, got {entry['shape']!r}")
            for size in entry["shape"]:
                check_integer("shape entry", size, 0)
            if entry["dtype"] != "float32_le":
                raise ValueError(f"unsupported tensor dtype {entry['dtype']!r}")
            try:
                raw = zf.read(entry["member"])
            except KeyError:
                raise ValueError(f"archive has no member {entry['member']!r}") from None
            arr = np.frombuffer(raw, dtype="<f4").reshape(entry["shape"])
            out[entry["name"]] = arr.astype(np.float64)
    return out


def export_stream(path, frames: np.ndarray) -> None:
    """Write a (frames, n, d) stream as one named tensor per frame."""
    save_tensors(path, {f"frame_{t:05d}": frames[t] for t in range(len(frames))})


def import_stream(path) -> np.ndarray:
    tensors = load_tensors(path)
    names = sorted(tensors)
    if not names or names != [f"frame_{t:05d}" for t in range(len(names))]:
        raise ValueError("archive does not hold a contiguous frame sequence")
    return np.stack([tensors[name] for name in names])
