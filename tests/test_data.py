import csv
import os
import subprocess
import sys
from dataclasses import dataclass
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from artrip.data import (
    IngestError,
    Poi,
    PoiCatalog,
    Trajectory,
    Visit,
    extract_trajectories,
    hour_bucket,
    load_poi_catalog,
    load_visits,
    make_query,
    split_corpus,
)
from artrip.analysis import empirical_transitions
from artrip.baselines import build_popularity
from artrip.guidance import build_guidance_matrix

POI_CSV = """poiID,poiName,lat,long,theme
3,Castle,55.9,-3.2,Castle
1,Park,55.8,-3.1,Park
2,Museum,55.85,-3.15,Museum
"""

VISITS_CSV = """userID,seqID,poiID,dateTaken
u1,1,1,1000
u1,1,1,1200
u1,1,2,5000
u1,1,3,9000
u2,7,3,2000
u2,7,2,6000
u2,7,1,10000
"""


@pytest.fixture
def catalog(tmp_path):
    path = tmp_path / "poi.csv"
    path.write_text(POI_CSV)
    return load_poi_catalog(path)


def test_catalog_sorted_by_id(catalog):
    assert [p.poi_id for p in catalog.pois] == [1, 2, 3]
    assert catalog.ids == [1, 2, 3]
    assert len(catalog) == 3


def test_catalog_index_lookup(catalog):
    assert catalog.index_of(2) == 1
    assert catalog.id_of(1) == 2
    assert 3 in catalog
    assert 99 not in catalog


def test_catalog_rejects_bad_header(tmp_path):
    path = tmp_path / "poi.csv"
    path.write_text("id,name\n1,x\n")
    with pytest.raises(IngestError, match="header"):
        load_poi_catalog(path)


def test_catalog_rejects_duplicate_id(tmp_path):
    path = tmp_path / "poi.csv"
    path.write_text("poiID,poiName,lat,long,theme\n1,A,0,0,T\n1,B,0,0,T\n")
    with pytest.raises(IngestError, match="duplicate"):
        load_poi_catalog(path)


def test_catalog_rejects_out_of_range_latitude(tmp_path):
    path = tmp_path / "poi.csv"
    path.write_text("poiID,poiName,lat,long,theme\n1,A,95.0,0,T\n")
    with pytest.raises(IngestError, match="latitude"):
        load_poi_catalog(path)


def test_load_visits_sorts_and_counts_unknown(tmp_path, catalog):
    path = tmp_path / "visits.csv"
    path.write_text(
        "userID,seqID,poiID,dateTaken\n"
        "u1,1,2,5000\n"
        "u1,1,1,1000\n"
        "u1,1,777,1500\n"
    )
    visits, dropped = load_visits(path, catalog)
    assert dropped == 1
    assert [(v.user_id, v.timestamp) for v in visits] == [("u1", 1000), ("u1", 5000)]


def test_load_visits_reports_line_number(tmp_path, catalog):
    path = tmp_path / "visits.csv"
    path.write_text("userID,seqID,poiID,dateTaken\nu1,1,1,notatime\n")
    with pytest.raises(IngestError, match="line 2"):
        load_visits(path, catalog)


def test_a_latin1_poi_name_is_an_error_naming_the_catalog_and_line(tmp_path):
    path = tmp_path / "poi.csv"
    path.write_bytes(POI_CSV.encode() + b"99,Caf\xe9,55.9,-3.2,Cafe\n")
    with pytest.raises(IngestError, match=r"poi\.csv line 5: not valid UTF-8 \(invalid continuation byte 0xe9\)$"):
        load_poi_catalog(path)


# Writes one row through `write_csv` and prints the locale's preferred encoding.
_WRITE_IN_C_LOCALE = """
import locale, sys
from artrip.data import write_csv
write_csv(sys.argv[1], ["poi_name"], [["Caf\\u00e9"]])
print(locale.getpreferredencoding(False))
"""


def test_write_csv_writes_utf8_whatever_the_locale(tmp_path):
    path = tmp_path / "trip.csv"
    src = str(Path(__file__).resolve().parents[1] / "src")
    # an ASCII locale, with neither UTF-8 mode nor locale coercion to override it
    env = dict(os.environ, PYTHONUTF8="0", PYTHONCOERCECLOCALE="0", LC_ALL="C", PYTHONPATH=src)
    done = subprocess.run(
        [sys.executable, "-c", _WRITE_IN_C_LOCALE, str(path)], env=env, capture_output=True, text=True, timeout=60
    )
    assert done.returncode == 0, done.stderr
    assert "utf" not in done.stdout.lower()
    assert path.read_bytes() == "poi_name\nCaf\u00e9\n".encode("utf-8")


def test_catalog_rows_are_numbered_by_physical_line_as_open_text_numbers_bytes(tmp_path):
    # row 1's quoted name spans lines 2 and 3, so row 2 starts on line 4
    path = tmp_path / "poi.csv"
    head = 'poiID,poiName,lat,long,theme\n1,"Two\nlines",55.9,-3.2,T\n'
    path.write_text(head + "2,B,95.0,0,T\n")
    with pytest.raises(IngestError, match=r"poi\.csv line 4: latitude out of range \(95\.0\)$"):
        load_poi_catalog(path)
    path.write_bytes(head.encode() + b"2,B\xe9,55.9,0,T\n")
    with pytest.raises(IngestError, match=r"poi\.csv line 4: not valid UTF-8"):
        load_poi_catalog(path)


def test_visit_rows_are_numbered_by_physical_line(tmp_path, catalog):
    path = tmp_path / "visits.csv"
    path.write_text('userID,seqID,poiID,dateTaken\n"u\n1",1,1,1000\nu1,1,1,notatime\n')
    with pytest.raises(IngestError, match=r"visits\.csv line 4: unparseable field"):
        load_visits(path, catalog)
    assert load_or_error(load_visits, path, catalog) == load_or_error(reference_load_visits, path, catalog)


def test_undecodable_visit_bytes_are_an_error_naming_the_file_and_line(tmp_path, catalog):
    path = tmp_path / "visits.csv"
    path.write_bytes(VISITS_CSV.encode() + b"\xff\xfe,1,2,3\n")
    with pytest.raises(IngestError, match=r"visits\.csv line 9: not valid UTF-8 \(invalid start byte 0xff\)$"):
        load_visits(path, catalog)


def test_extract_collapses_consecutive_duplicates(tmp_path, catalog):
    path = tmp_path / "visits.csv"
    path.write_text(VISITS_CSV)
    visits, _ = load_visits(path, catalog)
    trajectories = extract_trajectories(visits, catalog, min_len=3)
    assert len(trajectories) == 2
    # u1 visited POI 1 twice in a row; first timestamp wins
    assert trajectories[0].pois == (0, 1, 2)
    assert trajectories[0].times == (1000, 5000, 9000)
    assert trajectories[1].pois == (2, 1, 0)


def test_extract_drops_short_groups(tmp_path, catalog):
    path = tmp_path / "visits.csv"
    path.write_text("userID,seqID,poiID,dateTaken\nu1,1,1,1000\nu1,1,2,2000\n")
    visits, _ = load_visits(path, catalog)
    assert extract_trajectories(visits, catalog, min_len=3) == []
    assert len(extract_trajectories(visits, catalog, min_len=2)) == 1


def test_hour_bucket_wraps_by_day():
    assert hour_bucket(0) == 0
    assert hour_bucket(36000) == 10
    assert hour_bucket(86400 + 3600) == 1


def test_make_query_mirrors_trajectory():
    t = Trajectory(pois=(4, 2, 9), times=(100, 200, 300))
    q = make_query(t)
    assert (q.p_s, q.t_s, q.p_e, q.t_e, q.n) == (4, 100, 9, 300, 3)


def test_trajectory_refuses_pois_and_times_of_different_lengths():
    with pytest.raises(ValueError, match="4 pois and 3 times"):
        Trajectory(pois=(5, 2, 4, 1), times=(0, 3600, 7200))


def _toy_trajectories(count):
    return [Trajectory(pois=(0, 1, 2), times=(i, i + 1, i + 2)) for i in range(count)]


def test_split_sizes_and_disjointness():
    split = split_corpus(_toy_trajectories(20), seed=3)
    assert (len(split.train), len(split.val), len(split.test)) == (16, 2, 2)
    everything = split.train + split.val + split.test
    assert len(everything) == 20


def test_split_deterministic_per_seed():
    ts = _toy_trajectories(12)
    a = split_corpus(ts, seed=5)
    b = split_corpus(ts, seed=5)
    assert a.train == b.train and a.test == b.test
    c = split_corpus(ts, seed=6)
    assert a.train != c.train or a.test != c.test


def test_split_rejects_bad_ratios():
    with pytest.raises(ValueError, match="sum to 1"):
        split_corpus(_toy_trajectories(10), ratios=(0.5, 0.2, 0.2))


def test_split_needs_enough_trajectories():
    with pytest.raises(ValueError):
        split_corpus(_toy_trajectories(2))


def test_split_ratio_rounding_keeps_everything():
    for n in (7, 11, 19, 33):
        split = split_corpus(_toy_trajectories(n))
        assert len(split.train) + len(split.val) + len(split.test) == n
        assert len(split.train) == round(n * 0.8)


# --- row-by-row ingest references: the loaders must match them exactly ---

DATA = Path(__file__).resolve().parents[1] / "data"
CITIES = ("edinburgh", "glasgow", "osaka", "toronto")


@dataclass(frozen=True)
class ReferenceVisit:
    user_id: str
    seq_id: int
    poi_id: int
    timestamp: int


def reference_load_visits(path, catalog):
    """One dataclass per row, sorted through a per-row key."""
    visits = []
    dropped = 0
    with open(path, newline="", encoding="utf-8") as fh:
        reader = csv.reader(fh)
        try:
            header = next(reader)
        except StopIteration:
            raise IngestError(f"{path}: empty visits file") from None
        if [c.strip() for c in header] != ["userID", "seqID", "poiID", "dateTaken"]:
            raise IngestError(f"{path}: header")
        for row in reader:
            # the physical line the row ends on; a quoted field may span lines
            lineno = reader.line_num
            if not row:
                continue
            if len(row) != 4:
                raise IngestError(f"{path} line {lineno}: expected 4 fields, got {len(row)}")
            try:
                seq_id = int(row[1])
                poi_id = int(row[2])
                timestamp = int(row[3])
            except ValueError:
                raise IngestError(
                    f"{path} line {lineno}: unparseable field in {row!r}"
                ) from None
            if poi_id not in catalog:
                dropped += 1
                continue
            visits.append(ReferenceVisit(row[0], seq_id, poi_id, timestamp))
    visits.sort(key=lambda v: (v.user_id, v.seq_id, v.timestamp))
    return visits, dropped


def reference_extract_trajectories(visits, catalog, min_len=3):
    out = []
    group_pois, group_times = [], []
    current = None

    def flush():
        if len(group_pois) >= min_len:
            out.append(Trajectory(tuple(group_pois), tuple(group_times)))

    for v in visits:
        key = (v.user_id, v.seq_id)
        idx = catalog.index_of(v.poi_id)
        if key != current:
            flush()
            group_pois, group_times = [idx], [v.timestamp]
            current = key
        elif group_pois[-1] != idx:
            group_pois.append(idx)
            group_times.append(v.timestamp)
    flush()
    return out


def reference_guidance_counts(train, k):
    """Position counts one element at a time, as the guidance build did."""
    m_max = max(len(t) for t in train)
    counts = np.zeros((k, m_max), dtype=np.float64)
    for t in train:
        for pos, poi in enumerate(t.pois):
            if poi >= k:
                raise ValueError(f"POI index {poi} out of range for k={k}")
            counts[poi, pos] += 1.0
    return counts


def as_rows(visits):
    return [(v.user_id, v.seq_id, v.poi_id, v.timestamp) for v in visits]


def load_or_error(load, path, catalog):
    try:
        return load(path, catalog)
    except IngestError as exc:
        return str(exc)


def assert_guidance_matches_reference(train, k):
    pm = build_guidance_matrix(train, k)
    counts = reference_guidance_counts(train, k)
    assert pm.m_max == counts.shape[1]
    assert pm.poi_totals.tobytes() == counts.sum(axis=1).tobytes()
    expected = np.zeros_like(counts)
    visited = pm.poi_totals > 0
    expected[visited] = counts[visited] / pm.poi_totals[visited, None]
    assert pm.values.tobytes() == expected.tobytes()


def write_visits(path, rows):
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(["userID", "seqID", "poiID", "dateTaken"])
        writer.writerows(rows)


def test_visits_are_immutable_hashable_tuples(tmp_path, catalog):
    path = tmp_path / "visits.csv"
    path.write_text(VISITS_CSV)
    visits, _ = load_visits(path, catalog)
    v = visits[0]
    assert isinstance(v, Visit) and isinstance(v, tuple)
    assert Visit._fields == ("user_id", "seq_id", "poi_id", "timestamp")
    assert v == Visit("u1", 1, 1, 1000) and hash(v) == hash(Visit("u1", 1, 1, 1000))
    with pytest.raises(AttributeError):
        v.poi_id = 2


def test_load_visits_keeps_ties_in_file_order_and_sorts_by_code_point(tmp_path, catalog):
    path = tmp_path / "visits.csv"
    write_visits(path, [
        ["ü", 1, 3, 100],
        ["u1", 2, 2, 100],
        ["u1", 2, 1, 100],
        ["u1", 1, 3, 500],
        ["u1", 2, 3, 100],
    ])
    visits, dropped = load_visits(path, catalog)
    assert dropped == 0
    assert as_rows(visits) == [
        ("u1", 1, 3, 500),
        ("u1", 2, 2, 100),
        ("u1", 2, 1, 100),
        ("u1", 2, 3, 100),
        ("ü", 1, 3, 100),
    ]


@pytest.mark.parametrize(
    "row, message",
    [
        ("u1,1,2", "line 4: expected 4 fields, got 3"),
        ("u1,1,2,3,4", "line 4: expected 4 fields, got 5"),
        ("u1,1,x,3", "line 4: unparseable field in ['u1', '1', 'x', '3']"),
        ("u1,1,777,1.5", "line 4: unparseable field in ['u1', '1', '777', '1.5']"),
    ],
)
def test_load_visits_error_texts_count_blank_lines(tmp_path, catalog, row, message):
    path = tmp_path / "visits.csv"
    path.write_text(f"userID,seqID,poiID,dateTaken\nu1,1,1,1000\n\n{row}\n")
    with pytest.raises(IngestError) as caught:
        load_visits(path, catalog)
    assert str(caught.value) == f"{path} {message}"
    assert str(caught.value) == load_or_error(reference_load_visits, path, catalog)


# numbers as the files may spell them; int() accepts all of these
numbers = st.tuples(st.integers(-2, 6), st.sampled_from(["{}", " {}", "{} ", "+{}", "0{}"])).map(
    lambda pair: pair[1].format(pair[0])
)
users = st.sampled_from(["u1", "u2", "U1", "ü", "日本", "a,b", 'q"x', "", "12@N00"]) | st.text(
    st.characters(blacklist_categories=("Cs",), blacklist_characters="\x00\r\n"), max_size=4
)
good_rows = st.tuples(users, numbers, st.integers(0, 6).map(str), st.integers(0, 4).map(str)).map(list)
bad_rows = st.one_of(
    good_rows.map(lambda row: row[:3]),
    good_rows.map(lambda row: row + ["extra"]),
    st.tuples(good_rows, st.integers(1, 3), st.sampled_from(["", "x", "1.5", "1e3", "--1"])).map(
        lambda t: [*t[0][: t[1]], t[2], *t[0][t[1] + 1 :]]
    ),
)


SMALL_CATALOG = PoiCatalog([Poi(poi_id, f"P{poi_id}", 0.0, 0.0, "T") for poi_id in (1, 2, 3, 5)])


@settings(max_examples=300, deadline=None)
@given(
    rows=st.lists(good_rows | st.just([]), max_size=40),
    bad=st.none() | st.tuples(st.integers(0, 40), bad_rows),
    min_len=st.integers(1, 4),
)
def test_ingest_matches_the_row_by_row_reference(tmp_path_factory, rows, bad, min_len):
    # rows name POIs 0..6, so the ones outside the catalog are dropped as unknown
    catalog = SMALL_CATALOG
    if bad is not None:
        rows = [*rows[: bad[0]], bad[1], *rows[bad[0] :]]
    path = tmp_path_factory.mktemp("visits") / "visits.csv"
    write_visits(path, rows)
    got = load_or_error(load_visits, path, catalog)
    expected = load_or_error(reference_load_visits, path, catalog)
    if isinstance(expected, str):
        assert got == expected
        return
    (visits, dropped), (ref_visits, ref_dropped) = got, expected
    assert as_rows(visits) == as_rows(ref_visits) and dropped == ref_dropped
    trajectories = extract_trajectories(visits, catalog, min_len=min_len)
    assert trajectories == reference_extract_trajectories(ref_visits, catalog, min_len=min_len)
    if trajectories:
        assert_guidance_matches_reference(trajectories, len(catalog))


@settings(max_examples=200, deadline=None)
@given(
    routes=st.lists(st.lists(st.integers(0, 9), min_size=1, max_size=9), min_size=1, max_size=12),
    k=st.integers(1, 10),
)
def test_guidance_counts_match_the_element_loop(routes, k):
    train = [Trajectory(tuple(r), tuple(range(len(r)))) for r in routes]
    try:
        reference_guidance_counts(train, k)
    except ValueError as exc:
        with pytest.raises(ValueError) as caught:
            build_guidance_matrix(train, k)
        assert str(caught.value) == str(exc)
        return
    assert_guidance_matches_reference(train, k)


@pytest.mark.parametrize("city", CITIES)
def test_committed_cities_ingest_like_the_reference(city):
    catalog = load_poi_catalog(DATA / city / f"POI-{city}.csv")
    path = DATA / city / f"userVisits-{city}.csv"
    visits, dropped = load_visits(path, catalog)
    ref_visits, ref_dropped = reference_load_visits(path, catalog)
    assert as_rows(visits) == as_rows(ref_visits)
    assert dropped == ref_dropped
    trajectories = extract_trajectories(visits, catalog, min_len=3)
    assert trajectories == reference_extract_trajectories(ref_visits, catalog)
    assert_guidance_matches_reference(trajectories, len(catalog))
    assert_guidance_matches_reference(split_corpus(trajectories).train, len(catalog))


def reference_transitions(trajectories, k):
    """Per-position transition counts one element at a time, one corpus walk per position."""
    horizon = max(len(t) for t in trajectories) - 1
    out = []
    for pos in range(horizon):
        counts = np.zeros((k, k), dtype=np.float64)
        for t in trajectories:
            if len(t) > pos + 1:
                counts[t.pois[pos], t.pois[pos + 1]] += 1.0
        sums = counts.sum(axis=1)
        dead = np.flatnonzero(sums == 0.0)
        counts[dead] = 1.0 / k
        sums[dead] = 1.0
        out.append((counts / sums[:, None], pos + 1, tuple(int(r) for r in dead)))
    return out


def reference_popularity(train, k):
    """Visit counts one element at a time, as the popularity baseline did."""
    counts = np.zeros(k, dtype=np.int64)
    for t in train:
        for poi in t.pois:
            counts[poi] += 1
    return counts


def assert_counts_match_the_element_loops(train, k):
    got = empirical_transitions(train, k)
    want = reference_transitions(train, k)
    assert got.dtype == np.float64 and got.shape == (len(want), k, k)
    for i, (values, position, uniform_rows) in enumerate(want):
        assert position == i + 1  # matrix i holds the transitions out of position i + 1
        assert got[i].tobytes() == values.tobytes()
        assert (got[i][list(uniform_rows)] == 1.0 / k).all()
    popularity = build_popularity(train, k)
    assert popularity.dtype == np.int64
    assert popularity.tobytes() == reference_popularity(train, k).tobytes()
    assert_guidance_matches_reference(train, k)


def as_routes(routes):
    return [Trajectory(tuple(r), tuple(range(len(r)))) for r in routes]


@settings(max_examples=200, deadline=None)
@given(
    routes=st.lists(st.lists(st.integers(0, 3), min_size=1, max_size=8), min_size=1, max_size=10),
    k=st.integers(4, 6),
    copies=st.integers(1, 3),
)
def test_transition_and_popularity_counts_match_the_element_loops(routes, k, copies):
    # four POIs, self-loops allowed and whole routes copied: transitions repeat
    assert_counts_match_the_element_loops(as_routes(routes) * copies, k)


def test_repeated_transitions_count_once_each():
    train = as_routes([[0, 1, 0, 1], [0, 1, 1], [0, 1, 0, 1]])
    first = empirical_transitions(train, 3)[0]
    assert first[0].tolist() == [0.0, 1.0, 0.0]
    assert_counts_match_the_element_loops(train, 3)


@settings(max_examples=200, deadline=None)
@given(
    routes=st.lists(st.lists(st.integers(-3, 8), min_size=1, max_size=6), min_size=1, max_size=6),
    k=st.integers(1, 6),
)
def test_every_count_names_the_first_out_of_range_poi(routes, k):
    train = as_routes(routes)
    bad = [poi for r in routes for poi in r if not 0 <= poi < k]
    for build in (build_guidance_matrix, build_popularity, empirical_transitions):
        if not bad:
            build(train, k)
            continue
        with pytest.raises(ValueError) as caught:
            build(train, k)
        assert str(caught.value) == f"POI index {bad[0]} out of range for k={k}"


@pytest.mark.parametrize("city", CITIES)
def test_committed_cities_count_like_the_element_loops(city):
    catalog = load_poi_catalog(DATA / city / f"POI-{city}.csv")
    visits, _ = load_visits(DATA / city / f"userVisits-{city}.csv", catalog)
    trajectories = extract_trajectories(visits, catalog, min_len=3)
    assert_counts_match_the_element_loops(trajectories, len(catalog))
    assert_counts_match_the_element_loops(split_corpus(trajectories).train, len(catalog))
