"""Binary container format, manifests, and fixture generation."""

import json
import struct

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from synret.errors import DataError, NumericalError
from synret.rng import SplitMix64
from synret.tensor_store import (
    gen_fixture,
    read_manifest,
    read_tensor,
    write_tensor,
)


def roundtrip(arr, tmp_path):
    p = tmp_path / "t.shet"
    write_tensor(arr, p)
    return p, read_tensor(p)


def test_roundtrip_identity_2x2(tmp_path):
    arr = np.array([[1.0, 0.0], [0.0, 1.0]], dtype=np.float32)
    _, back = roundtrip(arr, tmp_path)
    assert back.dtype == np.float32
    assert np.array_equal(back, arr)


def test_header_layout(tmp_path):
    arr = np.array([[1.0, 0.0], [0.0, 1.0]], dtype=np.float32)
    p, _ = roundtrip(arr, tmp_path)
    raw = p.read_bytes()
    assert raw[:4] == b"SHET"
    assert raw[4] == 1  # version
    assert raw[5] == 0  # f32 dtype tag
    assert struct.unpack_from("<I", raw, 6)[0] == 2  # ndim
    assert struct.unpack_from("<QQ", raw, 10) == (2, 2)
    assert len(raw) == 10 + 16 + 16  # header, dims, payload


def test_write_replaces_whole_file_or_leaves_it_untouched(tmp_path, monkeypatch, fail_writes):
    p = tmp_path / "t.shet"
    old = SplitMix64(8).uniform_sym((3, 4)).astype(np.float32)
    new = SplitMix64(9).uniform_sym((5, 6)).astype(np.float32)
    write_tensor(old, p)
    fail_writes()
    with pytest.raises(OSError) as info:
        write_tensor(new, p)
    assert info.value.filename == str(p)
    assert np.array_equal(read_tensor(p), old)
    assert [f.name for f in tmp_path.iterdir()] == ["t.shet"]
    monkeypatch.undo()
    write_tensor(new, p)
    assert np.array_equal(read_tensor(p), new)
    assert [f.name for f in tmp_path.iterdir()] == ["t.shet"]


def test_empty_tensor_roundtrip(tmp_path):
    _, back = roundtrip(np.zeros((0,), dtype=np.float32), tmp_path)
    assert back.shape == (0,)


def test_random_roundtrip_bitwise(tmp_path):
    rng = SplitMix64(7)
    arr = rng.uniform_sym((3, 4, 5)).astype(np.float32)
    _, back = roundtrip(arr, tmp_path)
    assert back.tobytes() == arr.tobytes()


@settings(max_examples=60, deadline=None)
@given(shape=st.lists(st.integers(min_value=0, max_value=5), min_size=0, max_size=4),
       seed=st.integers(min_value=0, max_value=2**32))
def test_roundtrip_property(tmp_path_factory, shape, seed):
    rng = SplitMix64(seed)
    arr = rng.uniform_sym(tuple(shape)).astype(np.float32)
    p = tmp_path_factory.mktemp("rt") / "t.shet"
    write_tensor(arr, p)
    back = read_tensor(p)
    assert back.shape == arr.shape
    assert np.array_equal(back, arr)


class TestRejection:
    def test_bad_magic(self, tmp_path):
        p = tmp_path / "x.shet"
        p.write_bytes(b"NOPE" + bytes(20))
        with pytest.raises(DataError, match="magic"):
            read_tensor(p)

    def test_bad_version(self, tmp_path):
        p = tmp_path / "x.shet"
        p.write_bytes(b"SHET" + bytes([9, 0]) + struct.pack("<I", 0))
        with pytest.raises(DataError, match="version"):
            read_tensor(p)

    def test_bad_dtype(self, tmp_path):
        p = tmp_path / "x.shet"
        p.write_bytes(b"SHET" + bytes([1, 7]) + struct.pack("<I", 0))
        with pytest.raises(DataError, match="dtype"):
            read_tensor(p)

    def test_truncated_payload(self, tmp_path):
        p = tmp_path / "x.shet"
        write_tensor(np.ones((2, 2), dtype=np.float32), p)
        p.write_bytes(p.read_bytes()[:-4])
        with pytest.raises(DataError, match="payload size"):
            read_tensor(p)

    def test_trailing_garbage(self, tmp_path):
        p = tmp_path / "x.shet"
        write_tensor(np.ones(3, dtype=np.float32), p)
        p.write_bytes(p.read_bytes() + b"\x00\x00")
        with pytest.raises(DataError, match="payload size"):
            read_tensor(p)

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_nonfinite_payload(self, tmp_path, bad):
        p = tmp_path / "x.shet"
        write_tensor(np.ones(4, dtype=np.float32), p)
        raw = bytearray(p.read_bytes())
        raw[-4:] = struct.pack("<f", bad)
        p.write_bytes(bytes(raw))
        with pytest.raises(NumericalError, match="non-finite"):
            read_tensor(p)

    def test_write_rejects_nonfinite(self, tmp_path):
        with pytest.raises(NumericalError):
            write_tensor(np.array([1.0, np.nan]), tmp_path / "x.shet")


class TestFixtures:
    def test_deterministic(self, tmp_path):
        a, b = tmp_path / "a", tmp_path / "b"
        gen_fixture(1, 2, 4, 3, 4, 8, a)
        gen_fixture(1, 2, 4, 3, 4, 8, b)
        for fa in sorted(a.iterdir()):
            assert fa.read_bytes() == (b / fa.name).read_bytes()

    def test_seeds_differ(self, tmp_path):
        a, b = tmp_path / "a", tmp_path / "b"
        gen_fixture(1, 2, 4, 3, 4, 8, a)
        gen_fixture(2, 2, 4, 3, 4, 8, b)
        assert any(
            fa.read_bytes() != (b / fa.name).read_bytes() for fa in sorted(a.iterdir())
        )

    def test_rows_unit_norm(self, tmp_path):
        manifest = gen_fixture(3, 2, 5, 3, 4, 8, tmp_path)
        for rec in read_manifest(manifest):
            for attr in ("text_features_path", "frame_cls_path", "patch_features_path"):
                arr = read_tensor(tmp_path / getattr(rec, attr)).astype(np.float64)
                norms = np.linalg.norm(arr, axis=-1)
                assert np.abs(norms - 1.0).max() < 1e-6

    def test_manifest_schema(self, tmp_path):
        manifest = gen_fixture(1, 3, 4, 3, 4, 8, tmp_path)
        records = read_manifest(manifest)
        assert [r.pair_id for r in records] == ["pair0000", "pair0001", "pair0002"]
        assert all((tmp_path / r.text_conllu_path).exists() for r in records)

    def test_rejects_bad_dims(self, tmp_path):
        with pytest.raises(DataError):
            gen_fixture(1, 0, 4, 3, 4, 8, tmp_path)


class TestManifestIds:
    def _manifest_with_ids(self, tmp_path, ids):
        manifest = gen_fixture(1, len(ids), 4, 3, 4, 8, tmp_path)
        records = json.loads(manifest.read_text())
        for rec, pair_id in zip(records, ids):
            rec["pair_id"] = pair_id
        manifest.write_text(json.dumps(records))
        return manifest

    @pytest.mark.parametrize("pair_id", ["../x", "a/b", "a\\b", "", ".", "..", "/abs"])
    def test_rejects_unsafe_pair_id(self, tmp_path, pair_id):
        manifest = self._manifest_with_ids(tmp_path, ["ok", pair_id])
        with pytest.raises(DataError, match="not a safe file name stem") as err:
            read_manifest(manifest)
        assert repr(pair_id) in str(err.value)

    def test_rejects_duplicate_pair_id(self, tmp_path):
        manifest = self._manifest_with_ids(tmp_path, ["a", "b", "a"])
        with pytest.raises(DataError, match="duplicate pair_id 'a'"):
            read_manifest(manifest)

    def test_accepts_plain_stems(self, tmp_path):
        manifest = self._manifest_with_ids(tmp_path, ["clip-1", "clip_2.v2"])
        assert [r.pair_id for r in read_manifest(manifest)] == ["clip-1", "clip_2.v2"]

    def test_rejects_non_object_record(self, tmp_path):
        manifest = tmp_path / "m.json"
        manifest.write_text('["pair0000"]')
        with pytest.raises(DataError, match="must be a JSON object"):
            read_manifest(manifest)
