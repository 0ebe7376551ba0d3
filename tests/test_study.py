"""`study.run_study` scores every cell alike on any worker count."""

from pathlib import Path

from study import ARCHS, run_study

from artrip.data import extract_trajectories, load_poi_catalog, load_visits, split_corpus

GLASGOW = Path(__file__).resolve().parents[1] / "data" / "glasgow"


def test_a_short_study_gives_equal_per_cell_results_on_one_and_two_workers():
    catalog = load_poi_catalog(GLASGOW / "POI-glasgow.csv")
    visits, _ = load_visits(GLASGOW / "userVisits-glasgow.csv", catalog)
    split = split_corpus(extract_trajectories(visits, catalog, min_len=3), seed=0)
    one, two = (run_study(split.train, split.test, len(catalog), range(2), workers, epochs=2) for workers in (1, 2))
    assert list(one) == [(arch, on) for arch in ARCHS for on in (False, True)]
    assert all(len(cell["per_seed"]) == 2 for cell in one.values())
    assert one == two
