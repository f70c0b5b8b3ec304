import numpy as np
import pytest

from depthformer.checkpoint import FORMAT_VERSION, load_checkpoint, meta_path, save_checkpoint


def test_roundtrip_preserves_arrays_and_meta(tmp_path):
    path = tmp_path / "m.ckpt"
    arrays = {
        "w.first": np.random.default_rng(0).normal(size=(3, 4)).astype(np.float32),
        "b": np.arange(5, dtype=np.float64),
        "ids": np.array([1, 2, 3], dtype=np.int64),
    }
    save_checkpoint(path, arrays, {"n_layers": "2", "labels": "neg,pos"})
    loaded, meta = load_checkpoint(path)
    assert set(loaded) == set(arrays)
    for name in arrays:
        assert loaded[name].dtype == arrays[name].dtype
        np.testing.assert_array_equal(loaded[name], arrays[name])
    assert meta == {"n_layers": "2", "labels": "neg,pos"}


def test_version_byte_comes_first(tmp_path):
    path = tmp_path / "m.ckpt"
    save_checkpoint(path, {"x": np.zeros(1, dtype=np.float32)}, {})
    assert path.read_bytes()[0] == FORMAT_VERSION


def test_unknown_version_rejected(tmp_path):
    path = tmp_path / "m.ckpt"
    save_checkpoint(path, {"x": np.zeros(1, dtype=np.float32)}, {})
    blob = bytearray(path.read_bytes())
    blob[0] = 99
    path.write_bytes(bytes(blob))
    with pytest.raises(ValueError) as err:
        load_checkpoint(path)
    assert str(err.value) == f"{path}: unsupported checkpoint version 99"


def test_meta_sidecar_is_plain_key_value_text(tmp_path):
    path = tmp_path / "m.ckpt"
    save_checkpoint(path, {}, {"d_model": "16"})
    assert meta_path(path).read_text() == "d_model = 16\n"


def test_undecodable_name_names_the_checkpoint_and_offset(tmp_path):
    # version (1 byte), tensor count (4) and name length (2): the name starts at byte 7
    path = tmp_path / "m.ckpt"
    save_checkpoint(path, {"x": np.zeros(1, dtype=np.float32)}, {})
    blob = bytearray(path.read_bytes())
    assert blob[7:8] == b"x"
    blob[7] = 0xFF
    path.write_bytes(bytes(blob))
    with pytest.raises(ValueError) as err:
        load_checkpoint(path)
    assert str(err.value) == f"{path}: tensor name at offset 7 is not UTF-8 (byte 0xff)"
