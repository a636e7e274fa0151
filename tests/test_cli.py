"""CLI surface: exit codes, idempotence, and the fixture-to-report pipeline."""

import importlib
import json

import numpy as np
import pytest

from synret.cli import main
from synret.tensor_store import read_tensor


@pytest.fixture()
def fixture_dir(tmp_path):
    out = tmp_path / "fx"
    rc = main(["gen-fixtures", "--seed", "3", "--pairs", "4", "--tokens", "5",
               "--frames", "3", "--patches", "4", "--dim", "8", "--out", str(out)])
    assert rc == 0
    return out


@pytest.fixture()
def train_cfg_path(tmp_path):
    cfg = {"d": 8, "max_frames": 3, "seed": 3, "batch_size": 2, "steps": 5, "lr": 1e-3}
    p = tmp_path / "train.json"
    p.write_text(json.dumps(cfg))
    return p


@pytest.fixture()
def checkpoint(fixture_dir, train_cfg_path, tmp_path):
    ckpt = tmp_path / "ckpt"
    rc = main(["train", "--manifest", str(fixture_dir / "manifest.json"),
               "--config", str(train_cfg_path), "--out", str(ckpt)])
    assert rc == 0
    return ckpt


def test_dump_config_is_json():
    import io
    import sys
    # --dump-config writes the merged defaults and exits 0
    buf = io.StringIO()
    old = sys.stdout
    sys.stdout = buf
    try:
        assert main(["--dump-config"]) == 0
    finally:
        sys.stdout = old
    cfg = json.loads(buf.getvalue())
    assert cfg["lambda_frame"] == 2 and cfg["lambda_patch"] == 4
    assert cfg["tau"] == 4.0 and cfg["lr"] == 1e-4 and cfg["d"] == 512


def test_usage_error_exit_1(capsys):
    assert main(["not-a-command"]) == 1
    assert "usage error" in capsys.readouterr().err


def test_main_hands_freed_memory_back_after_every_command(capsys, monkeypatch):
    cli = importlib.import_module("synret.cli")
    trims = []
    monkeypatch.setattr(cli, "_malloc_trim", trims.append)
    assert main(["--dump-config"]) == 0
    assert main(["not-a-command"]) == 1
    assert trims == [0, 0]


def test_data_error_exit_2_dimension_mismatch(fixture_dir, tmp_path, capsys):
    cfg = tmp_path / "bad.json"
    cfg.write_text(json.dumps({"d": 16, "max_frames": 3, "batch_size": 2, "steps": 1}))
    rc = main(["train", "--manifest", str(fixture_dir / "manifest.json"),
               "--config", str(cfg), "--out", str(tmp_path / "c")])
    assert rc == 2
    assert "dimension mismatch" in capsys.readouterr().err


def test_score_with_mismatched_checkpoint_exit_2(fixture_dir, train_cfg_path, tmp_path, capsys):
    # checkpoint trained at d=16 against a d=8 manifest
    wide = tmp_path / "fx16"
    assert main(["gen-fixtures", "--seed", "1", "--pairs", "2", "--tokens", "4",
                 "--frames", "3", "--patches", "4", "--dim", "16", "--out", str(wide)]) == 0
    cfg16 = tmp_path / "t16.json"
    cfg16.write_text(json.dumps({"d": 16, "max_frames": 3, "batch_size": 2, "steps": 1}))
    ckpt16 = tmp_path / "ckpt16"
    assert main(["train", "--manifest", str(wide / "manifest.json"),
                 "--config", str(cfg16), "--out", str(ckpt16)]) == 0
    rc = main(["score", "--manifest", str(fixture_dir / "manifest.json"),
               "--params", str(ckpt16), "--out", str(tmp_path / "s.shet")])
    assert rc == 2
    assert "dimension mismatch" in capsys.readouterr().err


def test_numerical_error_exit_3(fixture_dir, checkpoint, train_cfg_path, tmp_path, capsys):
    # corrupt one feature payload with NaN: loading must fail with exit 3
    import struct

    victim = fixture_dir / "pair0001.frames.shet"
    raw = bytearray(victim.read_bytes())
    raw[-4:] = struct.pack("<f", float("nan"))
    victim.write_bytes(bytes(raw))
    rc = main(["score", "--manifest", str(fixture_dir / "manifest.json"),
               "--params", str(checkpoint), "--out", str(tmp_path / "s.shet"),
               "--config", str(train_cfg_path)])
    assert rc == 3
    assert "non-finite" in capsys.readouterr().err


@pytest.mark.filterwarnings("error")
def test_parameters_beyond_float32_are_one_line_exit_3(tmp_path, capsys):
    """One step at lr 1e39 leaves finite float64 parameters that overflow
    float32 in the checkpoint: no numpy warning, one line of error."""
    fx = tmp_path / "fx"
    assert main(["gen-fixtures", "--seed", "1", "--pairs", "8", "--out", str(fx)]) == 0
    cfg = tmp_path / "c.json"
    cfg.write_text(json.dumps({"d": 16, "max_frames": 4, "seed": 1, "batch_size": 8,
                               "steps": 1, "lr": 1e39}))
    capsys.readouterr()
    assert main(["train", "--manifest", str(fx / "manifest.json"), "--config", str(cfg),
                 "--out", str(tmp_path / "ckpt")]) == 3
    err = capsys.readouterr().err
    assert err.startswith("synret: numerical error: refusing to write non-finite tensor")
    assert len(err.splitlines()) == 1


def test_build_hierarchy_matches_golden(golden_dir, tmp_path):
    out = tmp_path / "h.json"
    rc = main(["build-hierarchy", str(golden_dir / "simple.conllu"), "-o", str(out)])
    assert rc == 0
    assert out.read_bytes() == (golden_dir / "simple.hierarchy.json").read_bytes()


def test_gen_fixtures_idempotent(tmp_path):
    args = ["gen-fixtures", "--seed", "9", "--pairs", "2", "--tokens", "4",
            "--frames", "3", "--patches", "4", "--dim", "8"]
    a, b = tmp_path / "a", tmp_path / "b"
    assert main(args + ["--out", str(a)]) == 0
    assert main(args + ["--out", str(b)]) == 0
    for f in sorted(a.iterdir()):
        assert f.read_bytes() == (b / f.name).read_bytes()


def test_train_score_eval_pipeline(fixture_dir, checkpoint, train_cfg_path, tmp_path):
    manifest = str(fixture_dir / "manifest.json")
    scores = tmp_path / "scores.shet"
    assert main(["score", "--manifest", manifest, "--params", str(checkpoint),
                 "--out", str(scores), "--config", str(train_cfg_path)]) == 0
    s = read_tensor(scores)
    assert s.shape == (4, 4)
    sidecar = json.loads((tmp_path / "scores.shet.json").read_text())
    assert sidecar["rows"] == [f"pair{i:04d}" for i in range(4)]
    assert sidecar["dsl"] is False

    report = tmp_path / "report.json"
    assert main(["eval", "--manifest", manifest, "--params", str(checkpoint),
                 "--report", str(report), "--config", str(train_cfg_path)]) == 0
    rep = json.loads(report.read_text())
    assert set(rep) >= {"t2v", "v2t", "rsum", "pairs"}
    assert rep["pairs"] == 4

    assert (checkpoint / "loss.csv").read_text().startswith("step,loss\n1,")


def test_score_threads_match(fixture_dir, checkpoint, train_cfg_path, tmp_path):
    manifest = str(fixture_dir / "manifest.json")
    s1, s4 = tmp_path / "s1.shet", tmp_path / "s4.shet"
    assert main(["score", "--manifest", manifest, "--params", str(checkpoint),
                 "--out", str(s1), "--config", str(train_cfg_path), "--threads", "1"]) == 0
    assert main(["score", "--manifest", manifest, "--params", str(checkpoint),
                 "--out", str(s4), "--config", str(train_cfg_path), "--threads", "4"]) == 0
    assert s1.read_bytes() == s4.read_bytes()


def test_score_dsl_flag(fixture_dir, checkpoint, train_cfg_path, tmp_path):
    manifest = str(fixture_dir / "manifest.json")
    plain, dsl = tmp_path / "p.shet", tmp_path / "d.shet"
    assert main(["score", "--manifest", manifest, "--params", str(checkpoint),
                 "--out", str(plain), "--config", str(train_cfg_path)]) == 0
    assert main(["score", "--manifest", manifest, "--params", str(checkpoint),
                 "--out", str(dsl), "--config", str(train_cfg_path), "--dsl"]) == 0
    sp = read_tensor(plain).astype(np.float64)
    sd = read_tensor(dsl).astype(np.float64)
    assert not np.allclose(sp, sd)
    sidecar = json.loads((tmp_path / "d.shet.json").read_text())
    assert sidecar["dsl"] is True and sidecar["dsl_direction"] == "t2v"


def test_fuse_writes_tensors_and_index(fixture_dir, checkpoint, train_cfg_path, tmp_path):
    out = tmp_path / "feats"
    assert main(["fuse", "--manifest", str(fixture_dir / "manifest.json"),
                 "--params", str(checkpoint), "--out", str(out),
                 "--config", str(train_cfg_path)]) == 0
    index = json.loads((out / "index.json").read_text())
    assert set(index) == {f"pair{i:04d}" for i in range(4)}
    entry = index["pair0000"]
    for name, fname in entry["tensors"].items():
        assert (out / fname).exists(), name
    g = read_tensor(out / entry["tensors"]["g"])
    assert g.shape == (3, 8)
    assert all(len(sel) == 2 for sel in entry["frame_selection"])  # lambda_frame=2, N_v=3


def test_eval_idempotent(fixture_dir, checkpoint, train_cfg_path, tmp_path):
    manifest = str(fixture_dir / "manifest.json")
    r1, r2 = tmp_path / "r1.json", tmp_path / "r2.json"
    for r in (r1, r2):
        assert main(["eval", "--manifest", manifest, "--params", str(checkpoint),
                     "--report", str(r), "--config", str(train_cfg_path)]) == 0
    assert r1.read_bytes() == r2.read_bytes()


def test_train_deterministic_checkpoints(fixture_dir, train_cfg_path, tmp_path):
    manifest = str(fixture_dir / "manifest.json")
    a, b = tmp_path / "ca", tmp_path / "cb"
    for out in (a, b):
        assert main(["train", "--manifest", manifest, "--config", str(train_cfg_path),
                     "--out", str(out)]) == 0
    for f in sorted(a.iterdir()):
        assert f.read_bytes() == (b / f.name).read_bytes(), f.name


def test_threads_zero_is_usage_error(tmp_path, capsys):
    rc = main(["score", "--manifest", str(tmp_path / "m.json"), "--params", str(tmp_path),
               "--out", str(tmp_path / "s.shet"), "--threads", "0"])
    assert rc == 1
    assert "threads must be >= 1" in capsys.readouterr().err


def test_train_zero_steps_writes_initial_checkpoint(fixture_dir, tmp_path, capsys):
    from synret.params import init_params, save_checkpoint

    cfg = tmp_path / "zero.json"
    cfg.write_text(json.dumps({"d": 8, "max_frames": 3, "seed": 3, "batch_size": 2, "steps": 0}))
    ckpt = tmp_path / "ckpt0"
    capsys.readouterr()
    assert main(["train", "--manifest", str(fixture_dir / "manifest.json"),
                 "--config", str(cfg), "--out", str(ckpt)]) == 0
    out = capsys.readouterr()
    assert out.err == "" and len(out.out.splitlines()) == 1
    assert (ckpt / "loss.csv").read_text() == "step,loss\n"
    ref = tmp_path / "ref"
    save_checkpoint(init_params(3, 8, max_frames=3), ref, seed=3)
    written = sorted(f.name for f in ckpt.iterdir() if f.name != "loss.csv")
    assert written == sorted(f.name for f in ref.iterdir())
    for name in written:
        assert (ckpt / name).read_bytes() == (ref / name).read_bytes(), name


def test_selfcheck_passes(capsys):
    assert main(["selfcheck"]) == 0
    lines = capsys.readouterr().out.splitlines()
    checks = lines[:-1]
    assert checks and all(line.startswith("ok ") for line in checks)
    assert any("score-kernel" in line for line in checks)
    assert lines[-1] == f"selfcheck: {len(checks)}/{len(checks)} checks passed"


@pytest.mark.parametrize("override", [
    '"d": "8"',                     # int is not str
    '"d": 8.0',                     # a float is not an int
    '"literal_patch_norm": 1',      # int is not bool
    '"steps": true',                # bool is not int
    '"lr": 1e309',                  # JSON overflow reads as inf
    '"stop_loss": "0.01"',          # str is not float
    pytest.param('"lr": 1' + "0" * 400, id="lr-int-beyond-float-range"),
])
def test_config_value_of_wrong_type_is_usage_error(fixture_dir, tmp_path, capsys, override):
    path = tmp_path / "bad.json"
    # the JSON reader keeps the last of duplicate keys
    path.write_text('{"d": 8, "max_frames": 3, "seed": 3, "batch_size": 2, "steps": 2, '
                    + override + "}")
    ckpt = tmp_path / "ckpt"
    capsys.readouterr()
    assert main(["train", "--manifest", str(fixture_dir / "manifest.json"),
                 "--config", str(path), "--out", str(ckpt)]) == 1
    err = capsys.readouterr().err
    assert err.startswith("synret: usage error: config key") and len(err.splitlines()) == 1
    assert not ckpt.exists()


def test_config_float_fields_take_ints_and_null():
    from synret.config import config_from_dict

    run, tr = config_from_dict({"tau": 4, "lr": 1, "stop_loss": None})
    assert run.tau == 4 and tr.lr == 1 and tr.stop_loss is None


def test_fuse_rejects_unsafe_and_duplicate_pair_ids(fixture_dir, checkpoint, tmp_path, capsys):
    manifest = fixture_dir / "manifest.json"
    records = json.loads(manifest.read_text())
    out = tmp_path / "nested" / "fused"
    for ids, message in ((["../escape"] + [r["pair_id"] for r in records[1:]], "not a safe"),
                         ([records[0]["pair_id"]] * len(records), "duplicate pair_id")):
        for rec, pair_id in zip(records, ids):
            rec["pair_id"] = pair_id
        manifest.write_text(json.dumps(records))
        capsys.readouterr()
        assert main(["fuse", "--manifest", str(manifest), "--params", str(checkpoint),
                     "--out", str(out)]) == 2
        assert message in capsys.readouterr().err
    assert not (tmp_path / "nested").exists()


def test_missing_tensor_file_is_data_error(fixture_dir, checkpoint, tmp_path, capsys):
    manifest = str(fixture_dir / "manifest.json")
    report = tmp_path / "r.json"
    (fixture_dir / "pair0000.frames.shet").unlink()
    capsys.readouterr()
    assert main(["eval", "--manifest", manifest, "--params", str(checkpoint),
                 "--report", str(report)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("synret: data error: cannot read ") and len(err.splitlines()) == 1
    assert "pair0000.frames.shet" in err
    assert not report.exists()


def test_checkpoint_missing_tensor_is_data_error(fixture_dir, checkpoint, tmp_path, capsys):
    (checkpoint / "mlp1.w1.shet").unlink()
    capsys.readouterr()
    assert main(["score", "--manifest", str(fixture_dir / "manifest.json"),
                 "--params", str(checkpoint), "--out", str(tmp_path / "s.shet")]) == 2
    err = capsys.readouterr().err
    assert err.startswith("synret: data error: cannot read ") and len(err.splitlines()) == 1
    assert "mlp1.w1.shet" in err


@pytest.mark.parametrize("command", ["eval", "score", "fuse"])
def test_unwritable_output_is_usage_error(fixture_dir, checkpoint, train_cfg_path, tmp_path,
                                          capsys, command):
    regular_file = tmp_path / "file"
    regular_file.write_text("keep\n")
    target = {"eval": ["--report", str(tmp_path / "nodir" / "x.json")],
              "score": ["--out", str(tmp_path / "nodir" / "x.shet")],
              "fuse": ["--out", str(regular_file)]}[command]
    capsys.readouterr()
    assert main([command, "--manifest", str(fixture_dir / "manifest.json"),
                 "--params", str(checkpoint), "--config", str(train_cfg_path)] + target) == 1
    err = capsys.readouterr().err
    assert err.startswith("synret: usage error: cannot write ") and len(err.splitlines()) == 1
    assert regular_file.read_text() == "keep\n"
    assert not (tmp_path / "nodir").exists()


@pytest.mark.parametrize("heads", [0, -8])
def test_heads_below_one_is_usage_error(fixture_dir, tmp_path, capsys, heads):
    path = tmp_path / "heads.json"
    path.write_text(json.dumps({"d": 8, "max_frames": 3, "batch_size": 2, "steps": 2,
                                "heads": heads}))
    ckpt = tmp_path / "ckpt"
    capsys.readouterr()
    assert main(["train", "--manifest", str(fixture_dir / "manifest.json"),
                 "--config", str(path), "--out", str(ckpt)]) == 1
    assert capsys.readouterr().err == "synret: usage error: heads must be >= 1\n"
    assert not ckpt.exists()


@pytest.mark.parametrize("command", ["eval", "score"])
def test_output_failing_part_way_leaves_old_file(fixture_dir, checkpoint, train_cfg_path, tmp_path,
                                                 capsys, fail_writes, command):
    out = tmp_path / "old"
    out.mkdir()
    target = out / ("report.json" if command == "eval" else "s.shet")
    flag = "--report" if command == "eval" else "--out"
    argv = [command, "--manifest", str(fixture_dir / "manifest.json"), "--params",
            str(checkpoint), "--config", str(train_cfg_path), flag, str(target)]
    assert main(argv) == 0
    before = {f.name: f.read_bytes() for f in out.iterdir()}
    fail_writes()
    capsys.readouterr()
    assert main(argv) == 1
    err = capsys.readouterr().err
    assert err.startswith(f"synret: usage error: cannot write {target}: ")
    assert len(err.splitlines()) == 1
    assert {f.name: f.read_bytes() for f in out.iterdir()} == before


def test_train_checks_out_before_the_first_step(fixture_dir, train_cfg_path, tmp_path, capsys,
                                                monkeypatch):
    train_module = importlib.import_module("synret.train")
    steps = []
    step = train_module.batch_loss_and_grads
    monkeypatch.setattr(train_module, "batch_loss_and_grads",
                        lambda *args: steps.append(1) or step(*args))
    afile = tmp_path / "afile"
    afile.write_text("keep\n")
    capsys.readouterr()
    assert main(["train", "--manifest", str(fixture_dir / "manifest.json"),
                 "--config", str(train_cfg_path), "--out", str(afile / "ckpt")]) == 1
    err = capsys.readouterr().err
    assert err.startswith("synret: usage error: cannot write ") and len(err.splitlines()) == 1
    assert steps == []
    assert afile.read_text() == "keep\n"


def test_fuse_across_encode_chunks_matches_per_pair_encoding(tmp_path):
    from synret.config import RunConfig
    from synret.dataset import load_bundles
    from synret.params import load_checkpoint
    from synret.pipeline import ENCODE_CHUNK, text_forward, video_forward
    from synret.reference import pair_forward

    fx, ckpt, out = tmp_path / "fx", tmp_path / "ckpt", tmp_path / "fused"
    assert main(["gen-fixtures", "--seed", "5", "--pairs", str(ENCODE_CHUNK + 5),
                 "--tokens", "7", "--frames", "5", "--patches", "6", "--dim", "8",
                 "--out", str(fx)]) == 0
    cfg = tmp_path / "c.json"
    cfg.write_text(json.dumps({"d": 8, "max_frames": 5, "seed": 4, "batch_size": 2,
                               "steps": 0}))
    manifest = str(fx / "manifest.json")
    assert main(["train", "--manifest", manifest, "--config", str(cfg), "--out", str(ckpt)]) == 0
    assert main(["fuse", "--manifest", manifest, "--params", str(ckpt), "--out", str(out)]) == 0
    index = json.loads((out / "index.json").read_text())
    params, run = load_checkpoint(ckpt), RunConfig(d=8, max_frames=5)
    bundles = load_bundles(manifest)
    assert sorted(index) == [b.pair_id for b in bundles]
    for b in bundles:
        tc, tape = text_forward([b], params)
        cap, vid = tc.caption(0), video_forward([b], params)[0][0]
        pf = pair_forward(cap, vid, run)
        want = {"e1": cap.e1, "e2": cap.e2, "e3": cap.e3, "e3p": tape.e3p, "f3p": tape.f3p,
                "ev1": pf.ev1, "g": vid.g, "ev2": pf.ev2, "ev3": pf.ev3}
        entry = index[b.pair_id]
        assert sorted(entry["tensors"]) == sorted(want)
        for name, value in want.items():
            got = read_tensor(out / entry["tensors"][name])
            ulp = np.spacing(np.abs(value).astype(np.float32))
            assert got.shape == value.shape and (np.abs(got - value) <= ulp).all(), name
        assert entry["frame_selection"] == [sel.tolist() for sel in pf.psi2]
        assert entry["patch_selection"] == [[sel.tolist() for sel in per_entity]
                                            for per_entity in pf.psi3]
