import json

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dppnet import checkpoint
from dppnet.errors import CheckpointError, DppnetError
from dppnet.tensor import ParamStore


def build_store(precision="f64"):
    rng = np.random.default_rng(9)
    store = ParamStore(precision)
    store.add("a.w", rng.normal(size=(3, 4)))
    store.add("a.b", rng.normal(size=3))
    store.add("stats", rng.normal(size=(2,)), trainable=False)
    store.add("proj.w", rng.normal(size=(2, 2)))
    return store


@pytest.mark.parametrize("precision", ["f64", "f32"])
def test_round_trip_bit_exact(tmp_path, precision):
    store = build_store(precision)
    checkpoint.save_params(store, tmp_path)
    loaded = checkpoint.load_params(tmp_path)
    assert loaded.names() == store.names()
    for name in store.names():
        assert loaded[name].dtype == store[name].dtype
        assert np.array_equal(loaded[name], store[name])
    assert not loaded.is_trainable("stats")


@pytest.mark.parametrize("precision", ["f64", "f32"])
def test_round_trip_keeps_the_buffer_and_its_tags(tmp_path, precision):
    store = build_store(precision)
    checkpoint.save_params(store, tmp_path)
    assert (tmp_path / "params.bin").read_bytes() == store.buffer.astype(
        "<f8" if precision == "f64" else "<f4").tobytes()
    loaded = checkpoint.load_params(tmp_path)
    assert loaded.buffer.tobytes() == store.buffer.tobytes()
    assert all(np.shares_memory(loaded[n], loaded.buffer) for n in loaded)
    assert [loaded.span(n) for n in loaded] == [store.span(n) for n in store]
    # the one tag saved is trainable
    assert [n for n in loaded if loaded.is_trainable(n)] == ["a.w", "a.b", "proj.w"]


def test_entries_hold_exactly_the_six_keys(tmp_path):
    manifest = _manifest(tmp_path)
    assert [sorted(e) for e in manifest["entries"]] == [sorted(_ENTRY_KEYS)] * 4
    assert [e["trainable"] for e in manifest["entries"]] == [True, True, False, True]


@pytest.mark.parametrize("precision", ["f64", "f32"])
def test_manifest_with_legacy_role_and_frozen_tags_loads(tmp_path, precision):
    # every manifest written before the one tag holds both keys on every entry
    store = build_store(precision)
    checkpoint.save_params(store, tmp_path)
    manifest = json.loads((tmp_path / "manifest.json").read_text())
    for entry, frozen in zip(manifest["entries"], [False, True, False, True]):
        entry["role"] = "dynamic-producing" if entry["name"] == "proj.w" else "static"
        entry["frozen"] = frozen
    _write_manifest(tmp_path, manifest)
    loaded = checkpoint.load_params(tmp_path)
    assert loaded.buffer.tobytes() == store.buffer.tobytes()
    assert loaded.names() == store.names()
    assert [loaded.is_trainable(n) for n in loaded] == [store.is_trainable(n) for n in store]


@pytest.mark.parametrize("precision", ["f64", "f32"])
def test_non_finite_entry_is_named(tmp_path, precision):
    store = build_store(precision)
    store["stats"] = [1.0, np.nan]
    store["proj.w"] = [[np.inf, 0.0], [0.0, 0.0]]  # a later bad tensor is not the one named
    checkpoint.save_params(store, tmp_path)
    with pytest.raises(CheckpointError, match="entry 'stats' .* non-finite"):
        checkpoint.load_params(tmp_path)


def test_entries_must_tile_the_blob_in_order(tmp_path):
    manifest = _manifest(tmp_path)
    first, second = manifest["entries"][:2]
    first["offset"], second["offset"] = second["nbytes"], 0  # the same bytes, swapped
    _write_manifest(tmp_path, manifest)
    with pytest.raises(CheckpointError, match="'a.w' starts at byte 24"):
        checkpoint.load_params(tmp_path)


def test_save_load_save_is_stable(tmp_path):
    store = build_store()
    checkpoint.save_params(store, tmp_path / "one")
    loaded = checkpoint.load_params(tmp_path / "one")
    checkpoint.save_params(loaded, tmp_path / "two")
    assert (tmp_path / "one" / "params.bin").read_bytes() == (
        tmp_path / "two" / "params.bin"
    ).read_bytes()


def test_missing_manifest(tmp_path):
    with pytest.raises(CheckpointError, match="manifest"):
        checkpoint.load_params(tmp_path)


def test_truncated_blob_rejected(tmp_path):
    store = build_store()
    checkpoint.save_params(store, tmp_path)
    blob = (tmp_path / "params.bin").read_bytes()
    (tmp_path / "params.bin").write_bytes(blob[:-8])
    with pytest.raises(CheckpointError, match="bytes"):
        checkpoint.load_params(tmp_path)


def test_garbled_manifest_rejected(tmp_path):
    store = build_store()
    checkpoint.save_params(store, tmp_path)
    (tmp_path / "manifest.json").write_text("{not json")
    with pytest.raises(CheckpointError):
        checkpoint.load_params(tmp_path)


def test_manifest_offsets_are_contiguous(tmp_path):
    store = build_store()
    checkpoint.save_params(store, tmp_path)
    manifest = json.loads((tmp_path / "manifest.json").read_text())
    offset = 0
    for entry in manifest["entries"]:
        assert entry["offset"] == offset
        offset += entry["nbytes"]


def _manifest(tmp_path):
    checkpoint.save_params(build_store(), tmp_path)
    return json.loads((tmp_path / "manifest.json").read_text())


def _write_manifest(tmp_path, manifest):
    (tmp_path / "manifest.json").write_text(json.dumps(manifest))


@pytest.mark.parametrize("key", ["name", "offset", "nbytes", "shape", "dtype"])
def test_entry_missing_key_named(tmp_path, key):
    manifest = _manifest(tmp_path)
    del manifest["entries"][1][key]
    _write_manifest(tmp_path, manifest)
    with pytest.raises(CheckpointError, match=f"entry 1 .*{key!r}"):
        checkpoint.load_params(tmp_path)


@pytest.mark.parametrize(
    "key, value",
    [
        ("name", 7),
        ("offset", "24"),
        ("offset", 24.0),
        ("offset", True),
        ("offset", -1),
        ("nbytes", -8),
        ("nbytes", 2.5),
        ("shape", 3),
        ("shape", [3, "1"]),
        ("shape", [3, -1]),
        ("dtype", ["f64"]),
        ("trainable", "yes"),
    ],
)
def test_entry_bad_value_named(tmp_path, key, value):
    manifest = _manifest(tmp_path)
    manifest["entries"][1][key] = value
    _write_manifest(tmp_path, manifest)
    with pytest.raises(CheckpointError, match=f"entry 1 .*{key!r}"):
        checkpoint.load_params(tmp_path)


@pytest.mark.parametrize("entries", [None, {}, "a.w", [3]])
def test_entries_must_be_a_list_of_objects(tmp_path, entries):
    manifest = _manifest(tmp_path)
    manifest["entries"] = entries
    _write_manifest(tmp_path, manifest)
    with pytest.raises(CheckpointError, match="entr"):
        checkpoint.load_params(tmp_path)


def test_missing_entries_key(tmp_path):
    manifest = _manifest(tmp_path)
    del manifest["entries"]
    _write_manifest(tmp_path, manifest)
    with pytest.raises(CheckpointError, match="'entries'"):
        checkpoint.load_params(tmp_path)


@pytest.mark.parametrize("manifest", [[], 5, "dppnet-params-v1"])
def test_manifest_must_be_an_object(tmp_path, manifest):
    _manifest(tmp_path)
    _write_manifest(tmp_path, manifest)
    with pytest.raises(CheckpointError, match="object"):
        checkpoint.load_params(tmp_path)


def test_entry_shape_must_match_nbytes(tmp_path):
    manifest = _manifest(tmp_path)
    manifest["entries"][0]["shape"] = [3, 5]  # 15 scalars in a 12-scalar slot
    _write_manifest(tmp_path, manifest)
    with pytest.raises(CheckpointError, match="'a.w'"):
        checkpoint.load_params(tmp_path)


def test_entry_past_the_blob_end(tmp_path):
    manifest = _manifest(tmp_path)
    manifest["entries"][2]["offset"] = 10_000
    _write_manifest(tmp_path, manifest)
    with pytest.raises(CheckpointError, match="'stats'"):
        checkpoint.load_params(tmp_path)


_JSON = st.recursive(
    st.none() | st.booleans() | st.integers(-2**70, 2**70) | st.floats(allow_nan=False)
    | st.text(max_size=4),
    lambda inner: st.lists(inner, max_size=3) | st.dictionaries(st.text(max_size=4), inner,
                                                               max_size=3),
    max_leaves=6,
)
_ENTRY_KEYS = ("name", "shape", "dtype", "offset", "nbytes", "trainable")
_LEGACY_KEYS = ("role", "frozen")  # in manifests written before the one tag; ignored


@st.composite
def _fuzzed_manifests(draw, valid):
    """A valid manifest with entry keys and top-level keys deleted or replaced
    by any JSON value, or the whole document replaced."""
    if draw(st.integers(0, 9)) == 0:
        return draw(_JSON)
    manifest = json.loads(json.dumps(valid))
    for _ in range(draw(st.integers(0, 3))):
        entry = manifest["entries"][draw(st.integers(0, len(manifest["entries"]) - 1))]
        key = draw(st.sampled_from(_ENTRY_KEYS + _LEGACY_KEYS))
        if draw(st.booleans()):
            entry.pop(key, None)
        else:
            entry[key] = draw(_JSON)
    if draw(st.booleans()):
        key = draw(st.sampled_from(("format", "byte_order", "entries")))
        if draw(st.booleans()):
            manifest.pop(key)
        else:
            manifest[key] = draw(_JSON)
    return manifest


@pytest.fixture(scope="module")
def fuzz_checkpoint(tmp_path_factory):
    root = tmp_path_factory.mktemp("fuzz")
    return root, _manifest(root)


@settings(max_examples=300, deadline=None)
@given(data=st.data())
def test_fuzzed_manifest_loads_or_raises_dppnet_error(fuzz_checkpoint, data):
    root, valid = fuzz_checkpoint
    _write_manifest(root, data.draw(_fuzzed_manifests(valid)))
    try:
        store = checkpoint.load_params(root)
    except DppnetError:
        return
    assert isinstance(store, ParamStore)
