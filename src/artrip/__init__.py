"""Cycle-aware trip recommendation toolkit.

Generates fixed-length POI itineraries from start/end queries and provides
the analysis machinery (transition sparsity, repetition series, repeat
histograms) to quantify and mitigate repeated POIs in generated trips.
"""

from artrip.data import (
    CorpusSplit,
    IngestError,
    Poi,
    PoiCatalog,
    Query,
    Trajectory,
    Visit,
    extract_trajectories,
    load_poi_catalog,
    load_visits,
    make_query,
    split_corpus,
)
from artrip.guidance import (
    ConfidenceVector,
    GuidanceMatrix,
    apply_guidance,
    build_confidence,
    build_guidance_matrix,
    zero_guidance,
)
from artrip.model import ModelConfig, ModelParams, init_params, train
from artrip.decoding import DecodeConfig, Trip, decode_trip
from artrip.metrics import MetricReport, f1_score, pairs_f1, rep_score

__all__ = [
    "ConfidenceVector",
    "CorpusSplit",
    "DecodeConfig",
    "GuidanceMatrix",
    "IngestError",
    "MetricReport",
    "ModelConfig",
    "ModelParams",
    "Poi",
    "PoiCatalog",
    "Query",
    "Trajectory",
    "Trip",
    "Visit",
    "apply_guidance",
    "build_confidence",
    "build_guidance_matrix",
    "decode_trip",
    "extract_trajectories",
    "f1_score",
    "init_params",
    "load_poi_catalog",
    "load_visits",
    "make_query",
    "pairs_f1",
    "rep_score",
    "split_corpus",
    "train",
    "zero_guidance",
]

__version__ = "0.1.0"
