"""Check-in ingestion, trajectory extraction, query derivation, corpus splits and CSV output.

Raw inputs are two CSV files per city:

* POI catalog, header ``poiID,poiName,lat,long,theme``
* visits, header ``userID,seqID,poiID,dateTaken`` (dateTaken in unix seconds)

The published Flickr dumps carry one row per photo with extra columns
(photoID, poiTheme, poiFreq); mapping them onto the canonical visits schema
is a column selection plus rename, see README.
"""

from __future__ import annotations

import csv
import io
from dataclasses import dataclass
from operator import itemgetter
from pathlib import Path
from typing import NamedTuple

from artrip import streams

POI_HEADER = ["poiID", "poiName", "lat", "long", "theme"]
VISIT_HEADER = ["userID", "seqID", "poiID", "dateTaken"]

SECONDS_PER_HOUR = 3600
NUM_TIME_BUCKETS = 24  # one-hour slots of the day, see hour_bucket
# the fewest trajectories a corpus may hold: split_corpus needs one per partition
MIN_TRAJECTORIES = 3


class IngestError(ValueError):
    """Raised for malformed or inconsistent input files."""


@dataclass(frozen=True)
class Poi:
    poi_id: int
    name: str
    lat: float
    lon: float
    category: str


class PoiCatalog:
    """POI set with a dense vocabulary: poi_id <-> index in [0, k)."""

    def __init__(self, pois: list[Poi]):
        self.pois = sorted(pois, key=lambda p: p.poi_id)
        self._index = {p.poi_id: i for i, p in enumerate(self.pois)}
        self._ids = [p.poi_id for p in self.pois]

    def __len__(self) -> int:
        return len(self.pois)

    def __contains__(self, poi_id: int) -> bool:
        return poi_id in self._index

    def index_of(self, poi_id: int) -> int:
        return self._index[poi_id]

    def id_of(self, index: int) -> int:
        return self._ids[index]

    @property
    def ids(self) -> list[int]:
        return list(self._ids)


class Visit(NamedTuple):
    user_id: str
    seq_id: int
    poi_id: int
    timestamp: int


@dataclass(frozen=True)
class Trajectory:
    """Ordered POI visits; ``pois`` holds vocabulary indices, not raw ids."""

    pois: tuple[int, ...]
    times: tuple[int, ...]

    def __post_init__(self):
        if len(self.pois) != len(self.times):
            raise ValueError(f"trajectory has {len(self.pois)} pois and {len(self.times)} times")

    def __len__(self) -> int:
        return len(self.pois)


@dataclass(frozen=True)
class Query:
    p_s: int
    t_s: int
    p_e: int
    t_e: int
    n: int


@dataclass
class CorpusSplit:
    train: list[Trajectory]
    val: list[Trajectory]
    test: list[Trajectory]


def hour_bucket(timestamp: int) -> int:
    """Hour-of-day bucket in [0, NUM_TIME_BUCKETS) for a unix timestamp."""
    return int(timestamp // SECONDS_PER_HOUR) % NUM_TIME_BUCKETS


def input_key(query: Query) -> tuple[int, int, int, int, int]:
    """All of a query that either model reads: n, both endpoints, both hours."""
    return query.n, query.p_s, query.p_e, hour_bucket(query.t_s), hour_bucket(query.t_e)


def open_text(path, error: type[ValueError] = IngestError) -> io.StringIO:
    """Like `open(path, newline="", encoding="utf-8")`, but non-UTF-8 bytes raise `error` naming the line."""
    raw = Path(path).read_bytes()
    try:
        text = raw.decode("utf-8")
    except UnicodeDecodeError as exc:
        line = raw.count(b"\n", 0, exc.start) + 1
        raise error(f"{path} line {line}: not valid UTF-8 ({exc.reason} 0x{raw[exc.start]:02x})") from None
    return io.StringIO(text, newline="")


def _csv_reader(path, header: list[str], empty: str):
    """A `csv.reader` over `path` past a first row matching `header`; an empty file is "<path>: <empty>".

    `open_text` has read and closed the file, so the reader holds only memory.
    """
    reader = csv.reader(open_text(path))
    try:
        row = next(reader)
    except StopIteration:
        raise IngestError(f"{path}: {empty}") from None
    if [c.strip() for c in row] != header:
        raise IngestError(f"{path}: header {row!r} does not match expected {header!r}")
    return reader


def _fits(row: list[str], width: int, path, reader) -> bool:
    """True for a row of `width` fields, False for a blank one; any other row is an error naming its line."""
    if not row:
        return False
    if len(row) != width:
        raise IngestError(f"{path} line {reader.line_num}: expected {width} fields, got {len(row)}") from None
    return True


def load_poi_catalog(path: str) -> PoiCatalog:
    """Read a POI catalog CSV; dense indices follow ascending poiID; errors name the physical line."""
    pois: list[Poi] = []
    seen: set[int] = set()
    reader = _csv_reader(path, POI_HEADER, "empty catalog")
    for row in reader:
        if not _fits(row, len(POI_HEADER), path, reader):
            continue
        lineno = reader.line_num
        try:
            poi = Poi(int(row[0]), row[1], float(row[2]), float(row[3]), row[4])
        except ValueError as exc:
            raise IngestError(f"{path} line {lineno}: {exc}") from None
        if poi.poi_id in seen:
            raise IngestError(f"{path} line {lineno}: duplicate poi_id {poi.poi_id}")
        if not -90.0 <= poi.lat <= 90.0:
            raise IngestError(f"{path} line {lineno}: latitude out of range ({poi.lat})")
        if not -180.0 <= poi.lon <= 180.0:
            raise IngestError(f"{path} line {lineno}: longitude out of range ({poi.lon})")
        seen.add(poi.poi_id)
        pois.append(poi)
    if not pois:
        raise IngestError(f"{path}: empty catalog")
    return PoiCatalog(pois)


def load_visits(path: str, catalog: PoiCatalog) -> tuple[list[Visit], int]:
    """Read visit rows, dropping (and counting) rows whose POI is not catalogued.

    Returns the visits sorted by (user_id, seq_id, timestamp), ties kept in
    file order, together with the number of dropped rows.  Blank lines are
    skipped; a row with the wrong field count or an unparseable integer
    raises `IngestError` naming the file and the physical line it ends on.
    """
    visits: list[Visit] = []
    dropped = 0
    index = catalog._index
    reader = _csv_reader(path, VISIT_HEADER, "empty visits file")
    for row in reader:
        # the rare cases (blank line, wrong field count, bad integer) are
        # told apart only after unpacking or converting has failed
        try:
            user_id, seq_id, poi_id, timestamp = row
            visit = Visit(user_id, int(seq_id), int(poi_id), int(timestamp))
        except ValueError:
            if not _fits(row, len(VISIT_HEADER), path, reader):
                continue
            raise IngestError(f"{path} line {reader.line_num}: unparseable field in {row!r}") from None
        if visit.poi_id in index:
            visits.append(visit)
        else:
            dropped += 1
    # list.sort is stable, so equal (user, seq, timestamp) keep file order
    visits.sort(key=itemgetter(0, 1, 3))
    return visits, dropped


def extract_trajectories(visits: list[Visit], catalog: PoiCatalog, min_len: int) -> list[Trajectory]:
    """Group visits by (user, seq), collapse consecutive duplicate POIs and
    discard groups shorter than ``min_len``.

    A burst of check-ins at one POI counts as a single visit keeping the
    first timestamp; non-consecutive revisits are kept since real loop trips
    exist in the data.
    """
    out: list[Trajectory] = []
    index = catalog._index
    group_pois: list[int] = []
    group_times: list[int] = []
    current_user: str | None = None
    current_seq: int | None = None
    for user_id, seq_id, poi_id, timestamp in visits:
        idx = index[poi_id]
        if seq_id != current_seq or user_id != current_user:
            if len(group_pois) >= min_len:
                out.append(Trajectory(tuple(group_pois), tuple(group_times)))
            group_pois, group_times = [idx], [timestamp]
            current_user, current_seq = user_id, seq_id
        elif group_pois[-1] != idx:
            group_pois.append(idx)
            group_times.append(timestamp)
    if len(group_pois) >= min_len:
        out.append(Trajectory(tuple(group_pois), tuple(group_times)))
    return out


def make_query(t: Trajectory) -> Query:
    """Derive the runtime input (endpoints, endpoint times, length) from a route."""
    return Query(t.pois[0], t.times[0], t.pois[-1], t.times[-1], len(t))


def split_corpus(
    ts: list[Trajectory],
    ratios: tuple[float, float, float] = (0.8, 0.1, 0.1),
    seed: int = 0,
) -> CorpusSplit:
    """Seeded shuffle-and-partition into train/val/test.

    Deterministic for a fixed input order and seed; partition sizes are
    within one trajectory of the requested ratios.
    """
    if abs(sum(ratios) - 1.0) > 1e-9:
        raise ValueError(f"ratios must sum to 1, got {ratios}")
    if len(ts) < MIN_TRAJECTORIES:
        raise ValueError(f"need at least {MIN_TRAJECTORIES} trajectories to split, got {len(ts)}")
    order = streams.rng("split", seed).permutation(len(ts))
    shuffled = [ts[i] for i in order]
    n = len(ts)
    n_train = int(round(ratios[0] * n))
    n_val = int(round(ratios[1] * n))
    n_train = min(n_train, n)
    n_val = min(n_val, n - n_train)
    return CorpusSplit(
        train=shuffled[:n_train],
        val=shuffled[n_train : n_train + n_val],
        test=shuffled[n_train + n_val :],
    )


def write_csv(path, header: list[str], rows) -> None:
    """Write `header` and then `rows` to `path`, every line ending in "\\n".

    Every CSV the package writes goes through here, so all share one dialect.
    """
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(header)
        writer.writerows(rows)
