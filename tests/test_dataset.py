"""Bundle loading and validation."""

import numpy as np
import pytest

from synret.dataset import check_fits, load_bundle, load_bundles
from synret.errors import DataError
from synret.tensor_store import PairRecord, gen_fixture, read_manifest, write_tensor


@pytest.fixture()
def fixture(tmp_path):
    manifest = gen_fixture(4, 2, 5, 3, 4, 8, tmp_path)
    return manifest, read_manifest(manifest)


def test_load_bundles_shapes(fixture):
    manifest, _ = fixture
    bundles = load_bundles(manifest)
    assert len(bundles) == 2
    b = bundles[0]
    assert b.text.shape == (6, 8)  # a CLS row and 5 token rows
    assert b.frames.shape == (3, 8)
    assert b.patches.shape == (3, 4, 8)
    assert b.text.dtype == np.float64


def test_mismatched_feature_width_rejected(fixture, tmp_path):
    manifest, records = fixture
    write_tensor(np.ones((3, 6), dtype=np.float32), tmp_path / records[0].frame_cls_path)
    with pytest.raises(DataError, match="dimension mismatch"):
        load_bundle(records[0], manifest)


def test_check_fits_names_the_first_pair_that_does_not_fit(fixture):
    """Pairs in manifest order, and for each pair its width before its frames."""
    manifest, _ = fixture
    bundles = load_bundles(manifest)
    bundles[1].frames = bundles[1].frames[:2]
    check_fits(bundles, 8, 3)
    with pytest.raises(DataError, match=r"^pair0000: 3 frames exceed max_frames=1$"):
        check_fits(bundles, 8, 1)
    with pytest.raises(DataError, match=r"^pair0001: 2 frames exceed max_frames=1$"):
        check_fits(bundles[::-1], 8, 1)
    with pytest.raises(DataError, match=r"^pair0000: dimension mismatch \(features d=8, model d=16\)$"):
        check_fits(bundles, 16, 1)


def test_patch_frame_count_mismatch_rejected(fixture, tmp_path):
    manifest, records = fixture
    write_tensor(np.ones((2, 4, 8), dtype=np.float32), tmp_path / records[0].patch_features_path)
    with pytest.raises(DataError, match="covers 2 frames"):
        load_bundle(records[0], manifest)


def test_token_count_must_match_feature_rows(fixture, tmp_path):
    manifest, records = fixture
    write_tensor(np.ones((4, 8), dtype=np.float32), tmp_path / records[0].text_features_path)
    with pytest.raises(DataError, match="token rows"):
        load_bundle(records[0], manifest)


def test_wrong_rank_rejected(fixture, tmp_path):
    manifest, records = fixture
    write_tensor(np.ones((3, 4), dtype=np.float32), tmp_path / records[0].patch_features_path)
    with pytest.raises(DataError, match="rank"):
        load_bundle(records[0], manifest)


def test_missing_conllu_rejected(fixture, tmp_path):
    manifest, records = fixture
    (tmp_path / records[1].text_conllu_path).unlink()
    with pytest.raises(DataError, match="cannot read"):
        load_bundle(records[1], manifest)


def test_empty_manifest_rejected(tmp_path):
    p = tmp_path / "manifest.json"
    p.write_text("[]")
    with pytest.raises(DataError, match="empty manifest"):
        load_bundles(p)
