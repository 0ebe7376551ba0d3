import json

import numpy as np
import pytest
from conftest import assert_blocks_view_flat

from artrip.data import Trajectory
from artrip.guidance import build_confidence, build_guidance_matrix
from artrip.model import (
    ARCH_ONE_SHOT,
    ARCH_RECURRENT,
    ModelConfig,
    init_params,
    load_bundle,
    save_bundle,
)
from artrip.model.bundle import vocab_sha256

K = 6
VOCAB = [101, 102, 205, 310, 311, 400]
MECHS = {"guiding": True, "drifting": False, "adapting": True}


def build_artifacts(arch=ARCH_ONE_SHOT, seed=0):
    corpus = [
        Trajectory(pois=(0, 2, 3, 1), times=(0, 1, 2, 3)),
        Trajectory(pois=(0, 4, 1), times=(0, 1, 2)),
        Trajectory(pois=(5, 2, 1), times=(0, 1, 2)),
    ]
    pm = build_guidance_matrix(corpus, k=K)
    conf = build_confidence(pm, k=K)
    cfg = ModelConfig(arch=arch, embed_dim=8, num_layers=1, num_heads=2, hidden_dim=16, seed=seed)
    params = init_params(cfg, k=K, m_max=pm.m_max)
    return params, pm, conf


@pytest.mark.parametrize("arch", [ARCH_ONE_SHOT, ARCH_RECURRENT])
def test_round_trip_restores_everything(tmp_path, arch):
    params, pm, conf = build_artifacts(arch)
    save_bundle(tmp_path / "model", params, pm, conf, MECHS, VOCAB)
    bundle = load_bundle(tmp_path / "model")
    assert bundle.params.config == params.config
    assert bundle.params.k == K and bundle.params.m_max == pm.m_max
    assert list(bundle.params.blocks) == list(params.blocks)
    assert_blocks_view_flat(bundle.params)
    for name in params.blocks:
        np.testing.assert_array_equal(bundle.params.blocks[name], params.blocks[name])
    np.testing.assert_array_equal(bundle.pm.values, pm.values)
    np.testing.assert_array_equal(bundle.pm.poi_totals, pm.poi_totals)
    np.testing.assert_array_equal(bundle.confidence.values, conf.values)
    assert bundle.mechanisms == MECHS
    assert bundle.manifest["vocab_ids"] == VOCAB


def test_save_load_save_is_byte_identical(tmp_path):
    params, pm, conf = build_artifacts()
    first = tmp_path / "first"
    second = tmp_path / "second"
    save_bundle(first, params, pm, conf, MECHS, VOCAB)
    bundle = load_bundle(first)
    save_bundle(second, bundle.params, bundle.pm, bundle.confidence, bundle.mechanisms, bundle.manifest["vocab_ids"])
    for name in ("manifest.json", "params.bin", "guidance.bin"):
        assert (first / name).read_bytes() == (second / name).read_bytes(), name


def test_manifest_is_sorted_compact_single_line(tmp_path):
    params, pm, conf = build_artifacts()
    save_bundle(tmp_path / "model", params, pm, conf, MECHS, VOCAB)
    text = (tmp_path / "model" / "manifest.json").read_text()
    assert text.endswith("\n") and text.count("\n") == 1
    assert ": " not in text and ", " not in text
    manifest = json.loads(text)
    assert list(manifest) == sorted(manifest)
    assert manifest["format"] == "trip-bundle-v1"


def test_params_bin_is_declaration_ordered_float64(tmp_path):
    params, pm, conf = build_artifacts()
    save_bundle(tmp_path / "model", params, pm, conf, MECHS, VOCAB)
    raw = np.frombuffer((tmp_path / "model" / "params.bin").read_bytes(), dtype="<f8")
    assert raw.size == sum(b.size for b in params.blocks.values())
    first = next(iter(params.blocks.values()))
    np.testing.assert_array_equal(raw[: first.size], first.ravel())


def test_guidance_bin_has_confidence_as_last_row(tmp_path):
    params, pm, conf = build_artifacts()
    save_bundle(tmp_path / "model", params, pm, conf, MECHS, VOCAB)
    grid = np.frombuffer((tmp_path / "model" / "guidance.bin").read_bytes(), dtype="<f8")
    grid = grid.reshape(K + 1, pm.m_max)
    np.testing.assert_array_equal(grid[:K], pm.values)
    np.testing.assert_array_equal(grid[K], conf.values)


def test_vocab_hash_pins_id_order():
    assert vocab_sha256([1, 2]) != vocab_sha256([2, 1])
    assert vocab_sha256(VOCAB) == vocab_sha256(list(VOCAB))


class TestValidation:
    def test_mechanism_keys_must_match(self, tmp_path):
        params, pm, conf = build_artifacts()
        with pytest.raises(ValueError, match="mechanisms"):
            save_bundle(tmp_path / "m", params, pm, conf, {"guiding": True}, VOCAB)
        bad = dict(MECHS, extra=True)
        with pytest.raises(ValueError, match="mechanisms"):
            save_bundle(tmp_path / "m", params, pm, conf, bad, VOCAB)

    def test_vocab_size_must_match_k(self, tmp_path):
        params, pm, conf = build_artifacts()
        with pytest.raises(ValueError, match="k"):
            save_bundle(tmp_path / "m", params, pm, conf, MECHS, VOCAB[:-1])

    def test_wrong_format_rejected(self, tmp_path):
        params, pm, conf = build_artifacts()
        save_bundle(tmp_path / "model", params, pm, conf, MECHS, VOCAB)
        manifest = json.loads((tmp_path / "model" / "manifest.json").read_text())
        manifest["format"] = "trip-bundle-v0"
        (tmp_path / "model" / "manifest.json").write_text(json.dumps(manifest))
        with pytest.raises(ValueError, match="format"):
            load_bundle(tmp_path / "model")

    @pytest.mark.parametrize(
        "edit, block",
        [
            (lambda t: t[:-1], "head"),
            (lambda t: t + [dict(t[-1], name="extra", offset=t[-1]["offset"] + t[-1]["size"])], "extra"),
            (lambda t: [t[1], t[0], *t[2:]], "poi_embeddings"),
            (lambda t: t[:-1] + [dict(t[-1], shape=t[-1]["shape"][::-1])], "head"),
        ],
        ids=["missing", "extra", "reordered", "reshaped"],
    )
    def test_block_table_must_match_config(self, tmp_path, edit, block):
        params, pm, conf = build_artifacts()
        save_bundle(tmp_path / "model", params, pm, conf, MECHS, VOCAB)
        manifest = json.loads((tmp_path / "model" / "manifest.json").read_text())
        manifest["blocks"] = edit(manifest["blocks"])
        (tmp_path / "model" / "manifest.json").write_text(json.dumps(manifest))
        with pytest.raises(ValueError, match=rf"manifest\.json.*'{block}'"):
            load_bundle(tmp_path / "model")

    def test_truncated_params_detected(self, tmp_path):
        params, pm, conf = build_artifacts()
        save_bundle(tmp_path / "model", params, pm, conf, MECHS, VOCAB)
        payload = (tmp_path / "model" / "params.bin").read_bytes()
        (tmp_path / "model" / "params.bin").write_bytes(payload[:-16])
        with pytest.raises(ValueError, match="truncated|size"):
            load_bundle(tmp_path / "model")

    def test_trailing_garbage_detected(self, tmp_path):
        params, pm, conf = build_artifacts()
        save_bundle(tmp_path / "model", params, pm, conf, MECHS, VOCAB)
        with open(tmp_path / "model" / "params.bin", "ab") as fh:
            fh.write(b"\x00" * 8)
        with pytest.raises(ValueError, match="size"):
            load_bundle(tmp_path / "model")

    def test_wrong_guidance_size_detected(self, tmp_path):
        params, pm, conf = build_artifacts()
        save_bundle(tmp_path / "model", params, pm, conf, MECHS, VOCAB)
        payload = (tmp_path / "model" / "guidance.bin").read_bytes()
        (tmp_path / "model" / "guidance.bin").write_bytes(payload[:-8])
        with pytest.raises(ValueError, match="guidance"):
            load_bundle(tmp_path / "model")

    def test_missing_file_raises_oserror(self, tmp_path):
        with pytest.raises(OSError):
            load_bundle(tmp_path / "nope")
