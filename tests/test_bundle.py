import hashlib
import json
from unittest import mock

import numpy as np
import pytest
from conftest import assert_blocks_view_flat

from artrip.config import ARCH_ONE_SHOT, ARCH_RECURRENT, ModelConfig
from artrip.data import Trajectory
from artrip.guidance import GuidanceMatrix, build_confidence, build_guidance_matrix
from artrip.model import bundle as bundle_module
from artrip.model.bundle import load_bundle, save_bundle, vocab_sha256
from artrip.model.params import ModelParams, init_params

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
    np.testing.assert_array_equal(bundle.confidence, conf)
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
    np.testing.assert_array_equal(grid[K], conf)


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
        with pytest.raises(ValueError, match=r"^manifest\.json: format is 'trip-bundle-v0', expected 'trip-bundle-v1'$"):
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


def edit_manifest(path, **changes):
    manifest = json.loads((path / "manifest.json").read_text())
    manifest.update(changes)
    (path / "manifest.json").write_text(json.dumps(manifest))


class TestManifestFields:
    def saved(self, tmp_path):
        params, pm, conf = build_artifacts()
        save_bundle(tmp_path / "model", params, pm, conf, MECHS, VOCAB)
        return tmp_path / "model"

    @pytest.mark.parametrize(
        "mechanisms",
        [dict(MECHS, extra=True), {"guiding": True, "drifting": False}, ["guiding", "drifting", "adapting"]],
        ids=["extra", "missing", "not-a-mapping"],
    )
    def test_mechanism_keys_must_match(self, tmp_path, mechanisms):
        path = self.saved(tmp_path)
        edit_manifest(path, mechanisms=mechanisms)
        with pytest.raises(ValueError, match=r"manifest\.json: mechanisms"):
            load_bundle(path)

    def test_vocab_ids_must_have_length_k(self, tmp_path):
        path = self.saved(tmp_path)
        edit_manifest(path, vocab_ids=VOCAB[:-1])
        with pytest.raises(ValueError, match=r"manifest\.json: vocab_ids is of length 5, expected .*k=6"):
            load_bundle(path)

    def test_guidance_totals_must_have_length_k(self, tmp_path):
        path = self.saved(tmp_path)
        manifest = json.loads((path / "manifest.json").read_text())
        edit_manifest(path, guidance_totals=manifest["guidance_totals"] + [0])
        with pytest.raises(ValueError, match=r"manifest\.json: guidance_totals is of length 7, expected .*k=6"):
            load_bundle(path)

    @pytest.mark.parametrize("value", [1, "true", None], ids=["int", "string", "null"])
    def test_mechanism_values_must_be_booleans(self, tmp_path, value):
        path = self.saved(tmp_path)
        edit_manifest(path, mechanisms=dict(MECHS, drifting=value))
        with pytest.raises(ValueError, match=r"manifest\.json: mechanisms\.drifting is .*expected true or false"):
            load_bundle(path)

    def test_guidance_totals_must_be_non_negative(self, tmp_path):
        path = self.saved(tmp_path)
        manifest = json.loads((path / "manifest.json").read_text())
        edit_manifest(path, guidance_totals=[-1] + manifest["guidance_totals"][1:])
        with pytest.raises(ValueError, match=r"manifest\.json: guidance_totals is negative \(-1\)"):
            load_bundle(path)

    @pytest.mark.parametrize(
        "value, shown", [("3", "'3'"), (True, "True"), (2.5, "2.5")], ids=["string", "bool", "float"]
    )
    def test_guidance_totals_entries_must_be_integers(self, tmp_path, value, shown):
        path = self.saved(tmp_path)
        totals = json.loads((path / "manifest.json").read_text())["guidance_totals"]
        edit_manifest(path, guidance_totals=totals[:2] + [value] + totals[3:])
        want = f"manifest.json: guidance_totals entry 2 is {shown}, expected a non-negative integer"
        with pytest.raises(ValueError) as err:
            load_bundle(path)
        assert str(err.value) == want

    # "101" hashes as 101 does, so only the entry check can refuse it
    @pytest.mark.parametrize(
        "value, shown", [("101", "'101'"), (True, "True"), (101.0, "101.0")], ids=["string", "bool", "float"]
    )
    def test_vocab_ids_entries_must_be_integers(self, tmp_path, value, shown):
        path = self.saved(tmp_path)
        edit_manifest(path, vocab_ids=[value, *VOCAB[1:]])
        with pytest.raises(ValueError) as err:
            load_bundle(path)
        assert str(err.value) == f"manifest.json: vocab_ids entry 0 is {shown}, expected an integer"

    def test_vocab_ids_must_match_their_hash(self, tmp_path):
        path = self.saved(tmp_path)
        edit_manifest(path, vocab_ids=[VOCAB[1], VOCAB[0], *VOCAB[2:]])
        with pytest.raises(ValueError, match=r"manifest\.json: vocab_sha256 is .*the hash of vocab_ids"):
            load_bundle(path)


def parsed(change):
    """A manifest.json text edit that applies `change` to the parsed manifest."""
    return lambda text: json.dumps(change(json.loads(text)))


def without(key):
    return parsed(lambda manifest: {name: value for name, value in manifest.items() if name != key})


def with_config(**changes):
    return parsed(lambda manifest: dict(manifest, config=dict(manifest["config"], **changes)))


# (id, manifest.json text edit, message)
MALFORMED_MANIFESTS = [
    ("missing-k", without("k"), r"manifest\.json: k is missing, expected a positive integer"),
    ("string-k", parsed(lambda m: dict(m, k="60")), r"manifest\.json: k is '60', expected a positive integer"),
    ("missing-config", without("config"), r"manifest\.json: config is missing, expected an object"),
    ("extra-config-key", with_config(dropout=0.1), r"manifest\.json: config\.dropout is unknown, expected the keys \['arch'"),
    ("string-embed-dim", with_config(embed_dim="8"), r"manifest\.json: config\.embed_dim is '8', expected int"),
    ("unknown-arch", with_config(arch="x"), r"manifest\.json: config: unknown arch 'x'"),
    # sizes the model past its files: checked before the params are built, and never looped over
    ("huge-num-layers", with_config(num_layers=10**6), r"params\.bin size is \d+ bytes, expected \d+ from"),
    ("huge-hidden-dim", with_config(hidden_dim=10**12), r"params\.bin size is \d+ bytes, expected \d+ from"),
    ("huge-embed-dim", with_config(embed_dim=10**12), r"params\.bin size is \d+ bytes, expected \d+ from"),
    ("huge-m-max", parsed(lambda m: dict(m, m_max=10**30)), r"params\.bin size is \d+ bytes, expected \d+ from"),
    ("json-list", parsed(lambda m: [m]), r"manifest\.json: the top level is a list, expected an object"),
    ("invalid-json", lambda text: text[:-10], r"manifest\.json: not valid JSON"),
]


@pytest.mark.parametrize(
    "edit, message", [case[1:] for case in MALFORMED_MANIFESTS], ids=[case[0] for case in MALFORMED_MANIFESTS]
)
def test_a_malformed_manifest_is_refused_before_the_params_are_built(tmp_path, edit, message):
    params, pm, conf = build_artifacts()
    save_bundle(tmp_path / "model", params, pm, conf, MECHS, VOCAB)
    path = tmp_path / "model" / "manifest.json"
    path.write_text(edit(path.read_text()))
    with mock.patch.object(bundle_module, "ModelParams", side_effect=AssertionError("ModelParams was built")):
        with pytest.raises(ValueError, match=message):
            load_bundle(tmp_path / "model")


@pytest.mark.parametrize("arch", [ARCH_ONE_SHOT, ARCH_RECURRENT])
@pytest.mark.parametrize("num_layers", [0, 1, 3])
def test_the_closed_form_param_count_is_the_flat_vector_length(arch, num_layers):
    cfg = ModelConfig(arch=arch, embed_dim=8, num_layers=num_layers, num_heads=2, hidden_dim=16)
    assert bundle_module._param_floats(cfg, K, 5) == ModelParams(config=cfg, k=K, m_max=5).flat.size


class TestFileHashes:
    def test_manifest_holds_the_sha256_of_each_binary_file(self, tmp_path):
        params, pm, conf = build_artifacts()
        save_bundle(tmp_path / "model", params, pm, conf, MECHS, VOCAB)
        manifest = json.loads((tmp_path / "model" / "manifest.json").read_text())
        for name, field in (("params.bin", "params_sha256"), ("guidance.bin", "guidance_sha256")):
            assert manifest[field] == hashlib.sha256((tmp_path / "model" / name).read_bytes()).hexdigest()

    @pytest.mark.parametrize("name, field", [("params.bin", "params_sha256"), ("guidance.bin", "guidance_sha256")])
    def test_a_flipped_bit_is_rejected_before_parsing(self, tmp_path, name, field):
        params, pm, conf = build_artifacts()
        save_bundle(tmp_path / "model", params, pm, conf, MECHS, VOCAB)
        payload = bytearray((tmp_path / "model" / name).read_bytes())
        payload[3] ^= 1  # same size, different value
        (tmp_path / "model" / name).write_bytes(bytes(payload))
        with pytest.raises(ValueError, match=rf"{name}: sha256 is [0-9a-f]{{64}}, manifest\.json {field} is"):
            load_bundle(tmp_path / "model")

    @pytest.mark.parametrize("field", ["params_sha256", "guidance_sha256"])
    def test_a_missing_hash_is_rejected(self, tmp_path, field):
        params, pm, conf = build_artifacts()
        save_bundle(tmp_path / "model", params, pm, conf, MECHS, VOCAB)
        manifest = json.loads((tmp_path / "model" / "manifest.json").read_text())
        del manifest[field]
        (tmp_path / "model" / "manifest.json").write_text(json.dumps(manifest))
        with pytest.raises(ValueError, match=rf"manifest\.json {field} is None"):
            load_bundle(tmp_path / "model")

    def test_a_bundle_from_before_file_hashes_is_named_as_such(self, tmp_path):
        # such a bundle carries neither field; it is rejected before either
        # binary file is read, so a short params.bin does not hide the cause
        params, pm, conf = build_artifacts()
        save_bundle(tmp_path / "model", params, pm, conf, MECHS, VOCAB)
        manifest = json.loads((tmp_path / "model" / "manifest.json").read_text())
        del manifest["params_sha256"], manifest["guidance_sha256"]
        (tmp_path / "model" / "manifest.json").write_text(json.dumps(manifest))
        (tmp_path / "model" / "params.bin").write_bytes(b"")
        with pytest.raises(ValueError, match=r"manifest\.json params_sha256 is None: the bundle predates file hashes"):
            load_bundle(tmp_path / "model")


# (part, float index in its bundle file, what the message names); m_max is 4
NON_FINITE_SITES = [
    ("params", None, r"params\.bin: block head entry 8"),
    ("guidance", 3 * 4 + 1, r"guidance\.bin: guidance row 3 entry 1"),
    ("confidence", K * 4 + 2, r"guidance\.bin: confidence row entry 2"),
]


class TestNonFiniteNumbers:
    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    @pytest.mark.parametrize("part, index, named", NON_FINITE_SITES, ids=[site[0] for site in NON_FINITE_SITES])
    def test_save_refuses_them_naming_the_block_or_row(self, tmp_path, part, index, named, bad):
        params, pm, conf = build_artifacts()
        assert pm.m_max == 4
        if part == "params":
            params.blocks["head"][1, 2] = bad  # head is (8, K): flat entry K + 2
        elif part == "guidance":
            values = pm.values.copy()
            values[3, 1] = bad
            pm = GuidanceMatrix(values=values, poi_totals=pm.poi_totals)
        else:
            conf = conf.copy()
            conf[2] = bad
        with pytest.raises(ValueError, match=rf"^{named} is {bad}, expected a finite number$"):
            save_bundle(tmp_path / "model", params, pm, conf, MECHS, VOCAB)
        assert not (tmp_path / "model").exists()

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    @pytest.mark.parametrize("part, index, named", NON_FINITE_SITES, ids=[site[0] for site in NON_FINITE_SITES])
    def test_load_refuses_them_behind_a_matching_sha256(self, tmp_path, part, index, named, bad):
        params, pm, conf = build_artifacts()
        save_bundle(tmp_path / "model", params, pm, conf, MECHS, VOCAB)
        name = "params.bin" if part == "params" else "guidance.bin"
        if index is None:
            index = next(at for block, at, _, _ in params.layout if block == "head") + K + 2
        floats = np.frombuffer((tmp_path / "model" / name).read_bytes(), dtype="<f8").copy()
        floats[index] = bad
        payload = floats.tobytes()
        (tmp_path / "model" / name).write_bytes(payload)
        manifest = json.loads((tmp_path / "model" / "manifest.json").read_text())
        manifest[bundle_module._HASH_FIELDS[name]] = hashlib.sha256(payload).hexdigest()
        (tmp_path / "model" / "manifest.json").write_text(json.dumps(manifest))
        with pytest.raises(ValueError, match=rf"^{named} is {bad}, expected a finite number$"):
            load_bundle(tmp_path / "model")


class TestAtomicSave:
    def test_resave_replaces_the_bundle_and_leaves_no_siblings(self, tmp_path):
        params, pm, conf = build_artifacts(seed=0)
        other, _, _ = build_artifacts(seed=1)
        save_bundle(tmp_path / "model", params, pm, conf, MECHS, VOCAB)
        save_bundle(tmp_path / "model", other, pm, conf, MECHS, VOCAB)
        assert np.array_equal(load_bundle(tmp_path / "model").params.flat, other.flat)
        assert sorted(p.name for p in tmp_path.iterdir()) == ["model"]

    def test_crash_mid_write_keeps_the_old_bundle(self, tmp_path, monkeypatch):
        params, pm, conf = build_artifacts(seed=0)
        other, _, _ = build_artifacts(seed=1)
        save_bundle(tmp_path / "model", params, pm, conf, MECHS, VOCAB)
        before = {p.name: p.read_bytes() for p in (tmp_path / "model").iterdir()}

        def crash(self, data):
            raise OSError("disk full")

        monkeypatch.setattr(type(tmp_path), "write_bytes", crash)
        with pytest.raises(OSError, match="disk full"):
            save_bundle(tmp_path / "model", other, pm, conf, MECHS, VOCAB)
        monkeypatch.undo()
        assert {p.name: p.read_bytes() for p in (tmp_path / "model").iterdir()} == before
        # the next save clears the partial directory the crash left behind
        save_bundle(tmp_path / "model", other, pm, conf, MECHS, VOCAB)
        assert sorted(p.name for p in tmp_path.iterdir()) == ["model"]

    def test_refuses_a_directory_with_other_files(self, tmp_path):
        params, pm, conf = build_artifacts()
        (tmp_path / "model").mkdir()
        (tmp_path / "model" / "notes.txt").write_text("keep me\n")
        with pytest.raises(ValueError, match="not a bundle directory"):
            save_bundle(tmp_path / "model", params, pm, conf, MECHS, VOCAB)
        assert (tmp_path / "model" / "notes.txt").read_text() == "keep me\n"
