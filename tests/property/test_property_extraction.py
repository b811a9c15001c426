"""Differential property test: ``CountExtractor`` against the per-record path.

The oracle is the straightforward featurisation: ``ApiLog.api_counts()``
(one lower-cased dict update per record), then one catalog lookup and one
``+=`` per API, in dict order.  The extractor must match it byte for byte
on batches that mix logs and mappings, whatever its name cache holds.
"""

import string

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.apilog.api_catalog import build_catalog, default_catalog
from repro.apilog.log_format import ApiLog, LogRecord
from repro.features.extraction import CountExtractor

CATALOGS = {"default": default_catalog(), "64": build_catalog(n_features=64)}


def oracle(catalog, sources):
    rows = np.zeros((len(sources), len(catalog)), dtype=np.float64)
    for row, source in zip(rows, sources):
        counts = source.api_counts() if isinstance(source, ApiLog) else source
        for api, count in counts.items():
            key = api.lower()
            if catalog.monitored(key):
                row[catalog.index_of(key)] += count
    return rows


def recase(name, mask):
    return "".join(char.upper() if mask >> (i % 16) & 1 else char
                   for i, char in enumerate(name))


def api_names(catalog):
    """Catalog names in random case, or names the catalog does not monitor."""
    monitored = st.builds(recase, st.sampled_from(catalog.names),
                          st.integers(0, 2 ** 16 - 1))
    unmonitored = st.text(string.ascii_letters, min_size=1, max_size=6).map(
        lambda name: name + "_Unhooked")
    return st.one_of(monitored, unmonitored)


def logs(catalog):
    return st.lists(api_names(catalog), max_size=40).map(
        lambda names: ApiLog(sample_id="s", os_version="win7",
                             records=[LogRecord(name, index) for index, name in
                                      enumerate(names)]))


counts = st.one_of(st.integers(0, 10 ** 6),
                   st.floats(0.0, 1e6, allow_nan=False, allow_infinity=False))


@st.composite
def mappings(draw, catalog):
    """Count mappings whose keys include case variants of the same API."""
    mapping = {}
    for name in draw(st.lists(api_names(catalog), max_size=6)):
        for mask in draw(st.lists(st.integers(0, 2 ** 16 - 1), min_size=1, max_size=3)):
            mapping[recase(name, mask)] = draw(counts)
    return mapping


def batches(catalog):
    return st.lists(st.one_of(logs(catalog), mappings(catalog)), max_size=6)


@pytest.mark.parametrize("name", sorted(CATALOGS))
@given(data=st.data())
@settings(max_examples=30, deadline=None)
def test_extract_batch_matches_per_record_oracle(name, data):
    catalog = CATALOGS[name]
    sources = data.draw(batches(catalog))
    expected = oracle(catalog, sources)
    extractor = CountExtractor(catalog)
    for _ in range(2):                     # a cold, then a warm name cache
        got = extractor.extract_batch(sources)
        assert got.shape == expected.shape
        assert got.tobytes() == expected.tobytes()
    for source, row in zip(sources, expected):
        assert extractor.extract(source).tobytes() == row.tobytes()
