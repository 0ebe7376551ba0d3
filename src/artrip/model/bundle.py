"""Model bundle serialization.

A bundle is a directory of three files:

  manifest.json  config, vocabulary (original POI ids plus a sha256),
                 the parameter block table and the mechanism switches,
                 serialized with sorted keys and compact separators
  params.bin     the flat parameter vector, little-endian float64, with
                 its blocks in declaration order
  guidance.bin   (k+1) x m_max little-endian float64: the k guidance
                 rows followed by the per-position confidence row

Loading reverses saving exactly, so save -> load -> save reproduces
identical bytes.  A block table that disagrees with the config is
rejected at load time.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import asdict, dataclass
from itertools import zip_longest
from pathlib import Path

import numpy as np

from artrip.guidance import ConfidenceVector, GuidanceMatrix
from artrip.model.params import ModelConfig, ModelParams

BUNDLE_FORMAT = "trip-bundle-v1"
MECHANISM_KEYS = ("guiding", "drifting", "adapting")


@dataclass
class Bundle:
    params: ModelParams
    pm: GuidanceMatrix
    confidence: ConfidenceVector
    mechanisms: dict[str, bool]
    manifest: dict


def _block_table(params: ModelParams) -> list[dict]:
    return [
        {"name": name, "shape": list(shape), "offset": offset, "size": size}
        for name, offset, size, shape in params.layout
    ]


def vocab_sha256(vocab_ids: list[int]) -> str:
    return hashlib.sha256(",".join(str(v) for v in vocab_ids).encode("ascii")).hexdigest()


def save_bundle(
    path,
    params: ModelParams,
    pm: GuidanceMatrix,
    confidence: ConfidenceVector,
    mechanisms: dict[str, bool],
    vocab_ids: list[int],
) -> None:
    """Write manifest.json, params.bin and guidance.bin under `path`."""
    if sorted(mechanisms) != sorted(MECHANISM_KEYS):
        raise ValueError(f"mechanisms must have exactly the keys {MECHANISM_KEYS}")
    if len(vocab_ids) != params.k or pm.k != params.k:
        raise ValueError("vocabulary, params and guidance disagree on k")
    if pm.m_max != params.m_max or len(confidence.values) != pm.m_max:
        raise ValueError("params and guidance disagree on m_max")
    path = Path(path)
    path.mkdir(parents=True, exist_ok=True)
    manifest = {
        "format": BUNDLE_FORMAT,
        "config": asdict(params.config),
        "k": params.k,
        "m_max": params.m_max,
        "vocab_ids": [int(v) for v in vocab_ids],
        "vocab_sha256": vocab_sha256(vocab_ids),
        "blocks": _block_table(params),
        "mechanisms": {key: bool(mechanisms[key]) for key in MECHANISM_KEYS},
        "guidance_totals": [int(t) for t in pm.poi_totals],
    }
    text = json.dumps(manifest, sort_keys=True, separators=(",", ":")) + "\n"
    (path / "manifest.json").write_text(text, encoding="ascii")
    (path / "params.bin").write_bytes(params.flat.astype("<f8", copy=False).tobytes())
    guidance = np.vstack([pm.values, confidence.values[None, :]])
    (path / "guidance.bin").write_bytes(guidance.astype("<f8").tobytes(order="C"))


def load_bundle(path) -> Bundle:
    """Read a bundle directory back into live objects."""
    path = Path(path)
    manifest = json.loads((path / "manifest.json").read_text(encoding="ascii"))
    if manifest.get("format") != BUNDLE_FORMAT:
        raise ValueError(f"unsupported bundle format {manifest.get('format')!r}")
    config = ModelConfig(**manifest["config"])
    k = manifest["k"]
    m_max = manifest["m_max"]
    params = ModelParams(config=config, k=k, m_max=m_max)
    expected = _block_table(params)
    table = manifest.get("blocks")
    if table != expected:
        pairs = zip_longest(table if isinstance(table, list) else [], expected)
        i, (found, want) = next((i, pair) for i, pair in enumerate(pairs) if pair[0] != pair[1])
        raise ValueError(f"manifest.json: block table entry {i} is {found}, expected {want}")
    raw = np.frombuffer((path / "params.bin").read_bytes(), dtype="<f8")
    if raw.size != params.flat.size:
        raise ValueError("params.bin size does not match the manifest block table")
    params.flat[:] = raw
    grid = np.frombuffer((path / "guidance.bin").read_bytes(), dtype="<f8")
    if grid.size != (k + 1) * m_max:
        raise ValueError("guidance.bin size does not match k and m_max")
    grid = grid.reshape(k + 1, m_max)
    pm = GuidanceMatrix(
        values=grid[:k].astype(np.float64),
        m_max=m_max,
        poi_totals=np.array(manifest["guidance_totals"], dtype=np.float64),
    )
    confidence = ConfidenceVector(values=grid[k].astype(np.float64))
    return Bundle(
        params=params,
        pm=pm,
        confidence=confidence,
        mechanisms=dict(manifest["mechanisms"]),
        manifest=manifest,
    )
