"""The CSV contract both input loaders share.

The POI catalog and the visits file are read through one scaffold: an empty
file, a wrong header and a row of the wrong width are refused in the same
words, blank rows are skipped, and a row is named by the physical line it
ends on.  Only a header-only file differs: a catalog must list one POI at
least, a visits file may list none.
"""

import pytest

from artrip.data import IngestError, Poi, PoiCatalog, Visit, load_poi_catalog, load_visits


def read_catalog(path):
    return load_poi_catalog(path).pois


def read_visits(path):
    return load_visits(path, PoiCatalog([Poi(1, "P1", 0.0, 0.0, "T")]))


@pytest.mark.parametrize(
    "load, header, row, loaded, empty, header_only",
    [
        (
            read_catalog,
            "poiID,poiName,lat,long,theme",
            "1,P1,0.0,0.0,T",
            [Poi(1, "P1", 0.0, 0.0, "T")],
            "empty catalog",
            "{path}: empty catalog",
        ),
        (
            read_visits,
            "userID,seqID,poiID,dateTaken",
            "u1,1,1,1000",
            ([Visit("u1", 1, 1, 1000)], 0),
            "empty visits file",
            ([], 0),
        ),
    ],
    ids=["catalog", "visits"],
)
def test_both_loaders_share_one_csv_contract(tmp_path, load, header, row, loaded, empty, header_only):
    path = tmp_path / "input.csv"

    def outcome(text):
        path.write_text(text)
        try:
            return load(path)
        except IngestError as exc:
            return str(exc)

    fields = header.split(",")
    width = len(fields)
    assert outcome("") == f"{path}: {empty}"
    expected = header_only.format(path=path) if isinstance(header_only, str) else header_only
    assert outcome(f"{header}\n") == expected
    assert outcome(f"id,name\n{row}\n") == f"{path}: header ['id', 'name'] does not match expected {fields!r}"
    assert outcome(f"{header}\n\n{row}\n\n") == loaded
    # the blank line 3 counts, so the bad row on line 4 is named as such
    short = row.rsplit(",", 1)[0]
    assert outcome(f"{header}\n{row}\n\n{short}\n") == f"{path} line 4: expected {width} fields, got {width - 1}"
    assert outcome(f"{header}\n{row}\n\n{row},x\n") == f"{path} line 4: expected {width} fields, got {width + 1}"
