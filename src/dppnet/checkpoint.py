"""Manifest + raw-blob parameter serialization.

A checkpoint directory holds a JSON manifest listing name, shape, dtype, byte
offset and trainable tag per tensor, and one binary blob of little-endian
scalars in manifest order.  Round trips are bit-exact.  replacing swaps a whole
output directory (a checkpoint, a generated dataset) for a freshly written one.
"""

from __future__ import annotations

import errno
import json
import math
import os
import shutil
import uuid
from contextlib import contextmanager
from pathlib import Path

import numpy as np

from .errors import CheckpointError
from .jsonio import read_json
from .tensor import ParamStore

MANIFEST_NAME = "manifest.json"
BLOB_NAME = "params.bin"
_FORMAT = "dppnet-params-v1"
_WIRE_DTYPES = {"f32": "<f4", "f64": "<f8"}


def save_params(store: ParamStore, directory) -> None:
    """Write the manifest and the store's buffer, as the blob, in one pass."""
    directory = Path(directory)
    directory.mkdir(parents=True, exist_ok=True)
    wire = np.dtype(_WIRE_DTYPES[store.precision])
    entries = [
        {
            "name": name,
            "shape": list(value.shape),
            "dtype": store.precision,
            "offset": store.span(name)[0] * wire.itemsize,
            "nbytes": value.size * wire.itemsize,
            "trainable": store.is_trainable(name),
        }
        for name, value in store.items()
    ]
    manifest = {"format": _FORMAT, "byte_order": "little", "entries": entries}
    (directory / MANIFEST_NAME).write_text(json.dumps(manifest, indent=1))
    (directory / BLOB_NAME).write_bytes(store.buffer.astype(wire, copy=False))


@contextmanager
def replacing(directory, names):
    """Yield a new sibling directory that takes directory's place when the block succeeds.

    os.replace cannot replace a non-empty directory, so an existing one is
    renamed aside first and removed once the new one is in place.  It may
    hold only files named in names: anything else raises FileExistsError
    before a byte is written.  If the block raises, the new directory is
    removed and directory is left as it was.
    """
    directory = Path(os.path.realpath(directory))  # a symlink keeps pointing at the checkpoint
    if directory.is_dir():
        others = sorted(set(os.listdir(directory)) - set(names))
        if others:
            raise FileExistsError(errno.EEXIST, "not an output file",
                                  str(directory / others[0]))
    elif directory.exists():
        raise FileExistsError(errno.EEXIST, os.strerror(errno.EEXIST), str(directory))
    try:
        directory.parent.mkdir(parents=True, exist_ok=True)
    except (FileExistsError, NotADirectoryError) as e:  # a file where a parent would go
        raise NotADirectoryError(errno.ENOTDIR, os.strerror(errno.ENOTDIR), str(directory)) from e
    new = directory.with_name(f".{directory.name}.{uuid.uuid4().hex}")
    new.mkdir()
    old = None
    try:
        yield new
        if directory.exists():
            old = new.with_name(new.name + ".old")
            os.rename(directory, old)
            try:
                os.rename(new, directory)
            except BaseException:
                os.rename(old, directory)
                raise
        else:
            os.rename(new, directory)
    except BaseException:
        shutil.rmtree(new, ignore_errors=True)
        raise
    if old is not None:
        shutil.rmtree(old)


def _is_count(value) -> bool:
    return isinstance(value, int) and not isinstance(value, bool) and value >= 0


_ENTRY_SCHEMA = {  # key -> (check, what the value must be)
    "name": (lambda v: isinstance(v, str), "a string"),
    "shape": (lambda v: isinstance(v, list) and all(map(_is_count, v)), "a list of ints >= 0"),
    "dtype": (lambda v: isinstance(v, str), "a string"),
    "offset": (_is_count, "an int >= 0"),
    "nbytes": (_is_count, "an int >= 0"),
    "trainable": (lambda v: isinstance(v, bool), "a boolean"),
}
_TAG_DEFAULTS = {"trainable": True}  # optional; other keys (old "role", "frozen") are ignored


def _check_entries(manifest, manifest_path) -> list[dict]:
    """The manifest's entries, schema-checked, with absent tags filled in."""
    if not isinstance(manifest, dict):
        raise CheckpointError(f"manifest {manifest_path} is not a JSON object")
    entries = manifest.get("entries")
    if not isinstance(entries, list):
        raise CheckpointError(f"manifest {manifest_path}: 'entries' must be a list")
    for i, e in enumerate(entries):
        if not isinstance(e, dict):
            raise CheckpointError(f"manifest {manifest_path}: entry {i} is not a JSON object")
        for key, (ok, what) in _ENTRY_SCHEMA.items():
            if not ok(e.get(key, _TAG_DEFAULTS.get(key))):
                got = f"got {e[key]!r}" if key in e else "it is missing"
                raise CheckpointError(
                    f"manifest {manifest_path}: entry {i} ({e.get('name')!r}) "
                    f"key {key!r} must be {what}, {got}"
                )
    return [{**_TAG_DEFAULTS, **e} for e in entries]


def load_params(directory) -> ParamStore:
    directory = Path(directory)
    manifest_path = directory / MANIFEST_NAME
    blob_path = directory / BLOB_NAME
    if not manifest_path.exists():
        raise CheckpointError(f"missing manifest {manifest_path}")
    if not blob_path.exists():
        raise CheckpointError(f"missing parameter blob {blob_path}")
    manifest = read_json(manifest_path, CheckpointError)
    entries = _check_entries(manifest, manifest_path)
    if manifest.get("format") != _FORMAT:
        raise CheckpointError(f"unsupported checkpoint format {manifest.get('format')!r}")
    blob = blob_path.read_bytes()
    expected = sum(e["nbytes"] for e in entries)
    if len(blob) != expected:
        raise CheckpointError(
            f"blob {blob_path} holds {len(blob)} bytes, manifest expects {expected}"
        )
    precisions = {e["dtype"] for e in entries} or {"f64"}
    if len(precisions) > 1:
        raise CheckpointError(f"mixed dtypes in one checkpoint: {sorted(precisions)}")
    precision = precisions.pop()
    if precision not in _WIRE_DTYPES:
        raise CheckpointError(f"unknown dtype {precision!r} in manifest")
    wire = np.dtype(_WIRE_DTYPES[precision])
    offset = 0
    for e in entries:
        if e["nbytes"] != math.prod(e["shape"]) * wire.itemsize:
            raise CheckpointError(
                f"entry {e['name']!r}: nbytes {e['nbytes']} does not hold shape {e['shape']}"
            )
        if e["offset"] != offset:
            raise CheckpointError(
                f"entry {e['name']!r} starts at byte {e['offset']} of {blob_path}; "
                f"the entries tile the blob in manifest order, so it must start at {offset}"
            )
        offset += e["nbytes"]
    store = ParamStore(precision, [(e["name"], e["shape"], e["trainable"]) for e in entries])
    store.buffer[...] = np.frombuffer(blob, dtype=wire)
    if not np.isfinite(store.buffer).all():
        bad = next(n for n, value in store.items() if not np.isfinite(value).all())
        raise CheckpointError(f"entry {bad!r} in {blob_path} holds non-finite values")
    return store
