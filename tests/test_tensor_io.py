"""Binary tensor format: byte-level layout oracle, round trips, and
malformed-input rejection."""

import os
import struct

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from drca.numerics import F32
from drca.tensor_io import (
    TensorFileError,
    load_tensor_dir,
    read_tnsr,
    save_tensor_dir,
    write_tnsr,
)


def test_file_bytes_match_layout_oracle(tmp_path):
    t = np.array([[1.0, -2.5], [0.0, 3.25], [7.0, -0.125]], F32)
    path = tmp_path / "t.tnsr"
    write_tnsr(path, t)
    raw = path.read_bytes()
    want = b"TNSR" + struct.pack("<I", 2) + struct.pack("<2I", 3, 2)
    want += struct.pack("<6f", 1.0, -2.5, 0.0, 3.25, 7.0, -0.125)  # row-major
    assert raw == want


def test_round_trip_preserves_values_shape_dtype(tmp_path):
    for shape in [(4,), (2, 3), (2, 3, 4, 2)]:
        t = np.arange(np.prod(shape), dtype=F32).reshape(shape) - F32(5.5)
        path = tmp_path / "x.tnsr"
        write_tnsr(path, t)
        back = read_tnsr(path)
        assert back.dtype == F32
        assert back.shape == t.shape
        assert np.array_equal(back, t)


def test_write_accepts_any_dtype_but_stores_float32(tmp_path):
    path = tmp_path / "i.tnsr"
    write_tnsr(path, np.array([1, 2, 3], dtype=np.int64))
    back = read_tnsr(path)
    assert back.dtype == F32
    assert np.array_equal(back, [1.0, 2.0, 3.0])


def test_non_finite_values_are_refused(tmp_path):
    path = tmp_path / "bad.tnsr"
    with pytest.raises(TensorFileError):
        write_tnsr(path, np.array([1.0, np.nan], F32))
    with pytest.raises(TensorFileError):
        write_tnsr(path, np.array([np.inf], F32))
    assert not path.exists() or path.read_bytes() == b""
    # nor read: a file written by other means names itself
    for value in (np.nan, np.inf, -np.inf):
        header = b"TNSR" + struct.pack("<2I", 1, 2)  # rank 1, extent 2
        path.write_bytes(header + np.array([1.0, value], "<f4").tobytes())
        with pytest.raises(TensorFileError, match="non-finite") as err:
            read_tnsr(path)
        assert str(path) in str(err.value)


def test_failed_write_leaves_the_old_file_and_no_stray_file(tmp_path, monkeypatch):
    path = tmp_path / "t.tnsr"
    write_tnsr(path, np.arange(6, dtype=F32))
    before = path.read_bytes()
    pack, packs = struct.pack, []

    def failing_pack(fmt, *values):
        # the second pack is the extent list: magic and rank are written
        packs.append(fmt)
        if len(packs) == 2:
            raise OSError("injected write failure")
        return pack(fmt, *values)

    monkeypatch.setattr(struct, "pack", failing_pack)
    with pytest.raises(OSError, match="injected"):
        write_tnsr(path, np.ones((2, 3), F32))
    monkeypatch.undo()
    assert len(packs) == 2
    assert path.read_bytes() == before
    assert os.listdir(tmp_path) == ["t.tnsr"]


def test_write_replaces_an_existing_file(tmp_path):
    path = tmp_path / "t.tnsr"
    write_tnsr(path, np.arange(6, dtype=F32))
    write_tnsr(path, np.ones((2, 3), F32))
    np.testing.assert_array_equal(read_tnsr(path), np.ones((2, 3), F32))
    assert os.listdir(tmp_path) == ["t.tnsr"]


def test_bad_magic_rejected(tmp_path):
    path = tmp_path / "x.tnsr"
    write_tnsr(path, np.ones(3, F32))
    raw = bytearray(path.read_bytes())
    raw[:4] = b"JUNK"
    path.write_bytes(bytes(raw))
    with pytest.raises(TensorFileError, match="magic"):
        read_tnsr(path)


def test_truncated_payload_rejected(tmp_path):
    path = tmp_path / "x.tnsr"
    write_tnsr(path, np.ones((2, 3), F32))
    raw = path.read_bytes()
    path.write_bytes(raw[:-4])
    with pytest.raises(TensorFileError, match="payload"):
        read_tnsr(path)
    path.write_bytes(raw[:6])
    with pytest.raises(TensorFileError):
        read_tnsr(path)


def test_oversized_payload_rejected(tmp_path):
    path = tmp_path / "x.tnsr"
    write_tnsr(path, np.ones(3, F32))
    path.write_bytes(path.read_bytes() + b"\x00\x00\x00\x00")
    with pytest.raises(TensorFileError, match="payload"):
        read_tnsr(path)


@settings(max_examples=50, deadline=None)
@given(arrays(F32, st.tuples(st.integers(1, 4), st.integers(1, 4)),
              elements=st.floats(-1e6, 1e6, width=32)))
def test_round_trip_property(tmp_path_factory, t):
    path = tmp_path_factory.mktemp("rt") / "p.tnsr"
    write_tnsr(path, t)
    assert np.array_equal(read_tnsr(path), t)


def test_tensor_dir_round_trip_and_manifest(tmp_path):
    tensors = {
        "alpha": np.arange(6, dtype=F32).reshape(2, 3),
        "beta.gamma": np.ones(4, F32),
    }
    d = tmp_path / "store"
    save_tensor_dir(d, tensors)
    manifest = (d / "manifest.tsv").read_text().splitlines()
    assert manifest == ["alpha\t2x3", "beta.gamma\t4"]
    back = load_tensor_dir(d)
    assert set(back) == set(tensors)
    for name in tensors:
        assert np.array_equal(back[name], tensors[name])


def test_tensor_dir_detects_extent_tampering(tmp_path):
    d = tmp_path / "store"
    save_tensor_dir(d, {"w": np.ones((2, 3), F32)})
    manifest = d / "manifest.tsv"
    manifest.write_text("w\t3x2\n")
    with pytest.raises(TensorFileError, match="extents"):
        load_tensor_dir(d)


def test_tensor_dir_missing_manifest(tmp_path):
    os.makedirs(tmp_path / "empty", exist_ok=True)
    with pytest.raises(TensorFileError, match="manifest"):
        load_tensor_dir(tmp_path / "empty")


@pytest.mark.parametrize("name", ["../secret", "/abs/secret", "sub/w", "a..b", "..", "", "sub\\w"])
def test_tensor_dir_manifest_names_stay_inside(tmp_path, name):
    d = tmp_path / "store"
    save_tensor_dir(d, {"w": np.ones(3, F32)})
    write_tnsr(tmp_path / "secret.tnsr", np.ones(3, F32))  # the escape target
    (d / "manifest.tsv").write_text(f"{name}\t3\n")
    with pytest.raises(TensorFileError, match="bad tensor name"):
        load_tensor_dir(d)


@pytest.mark.parametrize("name", ["../secret", "/abs/secret", "sub/w", "..", "", "a\tb", "a\nb"])
def test_tensor_dir_save_refuses_bad_names(tmp_path, name):
    with pytest.raises(TensorFileError, match="bad tensor name"):
        save_tensor_dir(tmp_path / "store", {"ok": np.ones(2, F32), name: np.ones(3, F32)})
    assert not (tmp_path / "store").exists()
    assert not (tmp_path / "secret.tnsr").exists()
