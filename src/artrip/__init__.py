"""Cycle-aware trip recommendation toolkit.

Generates fixed-length POI itineraries from start/end queries and provides
the analysis machinery (transition sparsity, repetition series, repeat
histograms) to quantify and mitigate repeated POIs in generated trips.
Names are imported from the module that defines them; the package itself
binds none.
"""
