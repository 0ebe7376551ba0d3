"""Model bundle serialization.

A bundle is a directory of three files:

  manifest.json  config, vocabulary (original POI ids plus a sha256),
                 the parameter block table, the mechanism switches and
                 the sha256 of the two binary files, serialized with
                 sorted keys and compact separators
  params.bin     the flat parameter vector, little-endian float64, with
                 its blocks in declaration order
  guidance.bin   (k+1) x m_max little-endian float64: the k guidance
                 rows followed by the per-position confidence row

Saving writes a sibling directory and swaps it into place.  Loading
reverses saving exactly, so save -> load -> save reproduces identical
bytes.  Loading rejects a binary file whose size or sha256 disagrees with
the manifest, and a manifest that is not a JSON object, whose config is
not exactly the ModelConfig fields with their types, whose k or m_max is
not a positive integer, whose block table disagrees with the config,
whose mechanisms are not booleans under exactly MECHANISM_KEYS, whose
vocabulary does not have length k, holds an entry that is not an integer
or does not match its hash, or whose guidance totals do not have length k
or hold an entry that is not a non-negative integer.  A JSON `true` is not
an integer here.  Both file sizes are checked against the manifest's
config, k and m_max before any parameter array is built or either binary
file is read, so no manifest value can make loading allocate or loop
beyond what the files hold.  Saving, and loading after the sha256 check,
refuse a NaN or infinity in the parameters, the guidance rows or the
confidence row.  `read_manifest` runs the manifest's checks alone and
reads neither binary file.  numpy, `ModelParams` and `GuidanceMatrix` are imported
by the functions that build or read arrays, so `artrip.cli` binds
`save_bundle` and `load_bundle` without loading numpy.
"""

from __future__ import annotations

import hashlib
import json
import math
import shutil
from dataclasses import asdict, dataclass, fields, replace
from itertools import zip_longest
from pathlib import Path
from typing import TYPE_CHECKING

from artrip.config import ModelConfig

if TYPE_CHECKING:
    import numpy as np

    from artrip.guidance import GuidanceMatrix
    from artrip.model.params import ModelParams

BUNDLE_FORMAT = "trip-bundle-v1"
MECHANISM_KEYS = ("guiding", "drifting", "adapting")
BUNDLE_FILES = ("manifest.json", "params.bin", "guidance.bin")
# manifest field holding each binary file's sha256
_HASH_FIELDS = {"params.bin": "params_sha256", "guidance.bin": "guidance_sha256"}
# the JSON type of each ModelConfig field, read off its default
_CONFIG_TYPES = {f.name: type(f.default) for f in fields(ModelConfig)}


@dataclass
class Bundle:
    params: ModelParams
    pm: GuidanceMatrix
    confidence: np.ndarray
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
    confidence: np.ndarray,
    mechanisms: dict[str, bool],
    vocab_ids: list[int],
) -> None:
    """Write manifest.json, params.bin and guidance.bin under `path`.

    An existing bundle at `path` is replaced whole; anything else there is
    refused.
    """
    import numpy as np
    if sorted(mechanisms) != sorted(MECHANISM_KEYS):
        raise ValueError(f"mechanisms must have exactly the keys {MECHANISM_KEYS}")
    if len(vocab_ids) != params.k or pm.k != params.k:
        raise ValueError("vocabulary, params and guidance disagree on k")
    if pm.m_max != params.m_max or len(confidence) != pm.m_max:
        raise ValueError("params and guidance disagree on m_max")
    grid = np.vstack([pm.values, confidence[None, :]])
    _check_finite(params, grid)
    path = Path(path)
    if path.exists() and not (path.is_dir() and {p.name for p in path.iterdir()} <= set(BUNDLE_FILES)):
        raise ValueError(f"{path} is not a bundle directory; not replacing it")
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
    payloads = {
        "params.bin": params.flat.astype("<f8", copy=False).tobytes(),
        "guidance.bin": grid.astype("<f8").tobytes(),
    }
    for name, payload in payloads.items():
        manifest[_HASH_FIELDS[name]] = hashlib.sha256(payload).hexdigest()
    text = json.dumps(manifest, sort_keys=True, separators=(",", ":")) + "\n"
    # write a sibling directory, then swap it in: a crash leaves the old
    # bundle, the new one or none at `path`, never a mix of the two
    path.parent.mkdir(parents=True, exist_ok=True)
    partial, old = path.with_name(f".{path.name}.partial"), path.with_name(f".{path.name}.old")
    for stale in (partial, old):
        shutil.rmtree(stale, ignore_errors=True)
    partial.mkdir()
    (partial / "manifest.json").write_text(text, encoding="ascii")
    for name, payload in payloads.items():
        (partial / name).write_bytes(payload)
    if path.exists():
        path.rename(old)
    partial.rename(path)
    shutil.rmtree(old, ignore_errors=True)


def _check_finite(params: ModelParams, grid: np.ndarray) -> None:
    """Refuse a NaN or infinity in `params` or the (k + 1, m_max) guidance grid, naming its file, block or row and entry."""
    import numpy as np
    if np.isfinite(params.flat).all() and np.isfinite(grid).all():
        return
    k = len(grid) - 1
    parts = [("params.bin", f"block {name}", block.ravel()) for name, block in params.blocks.items()]
    parts += [("guidance.bin", "confidence row" if row == k else f"guidance row {row}", grid[row]) for row in range(k + 1)]
    name, what, values = next(part for part in parts if not np.isfinite(part[2]).all())
    i = int(np.flatnonzero(~np.isfinite(values))[0])
    raise ValueError(f"{name}: {what} entry {i} is {values[i]}, expected a finite number")


def _manifest_error(field: str, found, want) -> ValueError:
    return ValueError(f"manifest.json: {field} is {found}, expected {want}")


def _model_config(manifest: dict) -> ModelConfig:
    """The manifest's config, once it holds exactly the ModelConfig fields with their types."""
    config = manifest.get("config")
    if not isinstance(config, dict):
        raise _manifest_error("config", repr(config) if "config" in manifest else "missing", "an object")
    stray = sorted(set(config) ^ set(_CONFIG_TYPES))
    if stray:
        found = "unknown" if stray[0] in config else "missing"
        raise _manifest_error(f"config.{stray[0]}", found, f"the keys {list(_CONFIG_TYPES)}")
    for key, kind in _CONFIG_TYPES.items():
        if isinstance(config[key], bool) or not isinstance(config[key], (int, float) if kind is float else kind):
            raise _manifest_error(f"config.{key}", repr(config[key]), kind.__name__)
    try:
        return ModelConfig(**config)
    except ValueError as err:
        raise ValueError(f"manifest.json: config: {err}") from err


def _param_floats(config: ModelConfig, k: int, m_max: int) -> int:
    """The length of the flat vector of `ModelParams(config, k, m_max)`, built nowhere.

    Closed form in `num_layers`: every encoder layer adds the same blocks,
    so no manifest value makes this loop.
    """
    from artrip.model.params import block_shapes

    def floats(layers: int) -> int:
        shapes = block_shapes(replace(config, num_layers=layers), k, m_max)
        return sum(math.prod(shape) for shape in shapes.values())

    base = floats(0)
    return base + config.num_layers * (floats(1) - base)


def _read_checked(path: Path, name: str, manifest: dict) -> np.ndarray:
    """The float64 contents of bundle file `name`, once its sha256 matches."""
    import numpy as np
    payload = (path / name).read_bytes()
    field = _HASH_FIELDS[name]
    digest = hashlib.sha256(payload).hexdigest()
    if digest != manifest.get(field):
        raise ValueError(f"{name}: sha256 is {digest}, manifest.json {field} is {manifest.get(field)!r}")
    return np.frombuffer(payload, dtype="<f8")


def read_manifest(path) -> tuple[dict, ModelConfig]:
    """The manifest.json of bundle directory `path` and its ModelConfig, once every field checks out.

    Reads neither binary file.
    """
    path = Path(path)
    try:
        manifest = json.loads((path / "manifest.json").read_text(encoding="ascii"))
    except ValueError as err:
        raise ValueError(f"manifest.json: not valid JSON ({err})") from err
    if not isinstance(manifest, dict):
        raise _manifest_error("the top level", f"a {type(manifest).__name__}", "an object")
    if manifest.get("format") != BUNDLE_FORMAT:
        raise _manifest_error("format", repr(manifest.get("format")), repr(BUNDLE_FORMAT))
    for field in _HASH_FIELDS.values():
        if manifest.get(field) is None:
            raise ValueError(f"manifest.json {field} is None: the bundle predates file hashes; save it again")
    config = _model_config(manifest)
    for field in ("k", "m_max"):
        value = manifest.get(field)
        if isinstance(value, bool) or not isinstance(value, int) or value < 1:
            raise _manifest_error(field, repr(value) if field in manifest else "missing", "a positive integer")
    k, m_max = manifest["k"], manifest["m_max"]
    mechanisms = manifest.get("mechanisms")
    if not isinstance(mechanisms, dict) or sorted(mechanisms) != sorted(MECHANISM_KEYS):
        keys = sorted(mechanisms) if isinstance(mechanisms, dict) else mechanisms
        raise _manifest_error("mechanisms", f"keyed {keys}", f"the keys {sorted(MECHANISM_KEYS)}")
    for key in MECHANISM_KEYS:
        if not isinstance(mechanisms[key], bool):
            raise _manifest_error(f"mechanisms.{key}", repr(mechanisms[key]), "true or false")
    for field, kind in (("vocab_ids", "an integer"), ("guidance_totals", "a non-negative integer")):
        values = manifest.get(field)
        if not isinstance(values, list) or len(values) != k:
            found = f"of length {len(values)}" if isinstance(values, list) else repr(values)
            raise _manifest_error(field, found, f"a list of length k={k}")
        for i, value in enumerate(values):
            if isinstance(value, bool) or not isinstance(value, int):
                raise _manifest_error(f"{field} entry {i}", repr(value), kind)
    want = vocab_sha256(manifest["vocab_ids"])
    if manifest.get("vocab_sha256") != want:
        raise _manifest_error("vocab_sha256", repr(manifest.get("vocab_sha256")), f"{want}, the hash of vocab_ids")
    negative = [t for t in manifest["guidance_totals"] if t < 0]
    if negative:
        raise _manifest_error("guidance_totals", f"negative ({negative[0]})", "non-negative counts")
    return manifest, config


def load_bundle(path) -> Bundle:
    """Read a bundle directory back into live objects."""
    import numpy as np
    from artrip.guidance import GuidanceMatrix
    from artrip.model.params import ModelParams
    path = Path(path)
    manifest, config = read_manifest(path)
    k, m_max, mechanisms = manifest["k"], manifest["m_max"], manifest["mechanisms"]
    for name, floats in (("params.bin", _param_floats(config, k, m_max)), ("guidance.bin", (k + 1) * m_max)):
        size = (path / name).stat().st_size
        if size != 8 * floats:
            raise ValueError(f"{name} size is {size} bytes, expected {8 * floats} from manifest.json")
    params = ModelParams(config=config, k=k, m_max=m_max)
    expected = _block_table(params)
    table = manifest.get("blocks")
    if table != expected:
        pairs = zip_longest(table if isinstance(table, list) else [], expected)
        i, (found, want) = next((i, pair) for i, pair in enumerate(pairs) if pair[0] != pair[1])
        raise _manifest_error(f"block table entry {i}", found, want)
    params.flat[:] = _read_checked(path, "params.bin", manifest)
    grid = _read_checked(path, "guidance.bin", manifest).reshape(k + 1, m_max)
    _check_finite(params, grid)
    pm = GuidanceMatrix(
        values=grid[:k].astype(np.float64),
        poi_totals=np.array(manifest["guidance_totals"], dtype=np.float64),
    )
    return Bundle(
        params=params,
        pm=pm,
        confidence=grid[k].astype(np.float64),
        mechanisms=dict(mechanisms),
        manifest=manifest,
    )
