"""Differential property test: ``CountExtractor`` against the per-record path.

The oracle is the straightforward featurisation: one lower-cased dict
update per record of ``ApiLog.records``, then one catalog lookup and one
``+=`` per API, in dict order.  The extractor, which counts a log's code
column, must match it byte for byte on batches that mix logs built from
records, logs built from columns and mappings, whatever its name cache
holds, and after the logs are appended to.  ``ApiLog.api_counts()`` must
equal the per-record counts, in the same order.
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


def per_record_counts(log):
    counts = {}
    for record in log.records:
        key = record.api.lower()
        counts[key] = counts.get(key, 0) + 1
    return counts


def oracle(catalog, sources):
    rows = np.zeros((len(sources), len(catalog)), dtype=np.float64)
    for row, source in zip(rows, sources):
        counts = per_record_counts(source) if isinstance(source, ApiLog) else source
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


@st.composite
def columnar_logs(draw, catalog):
    """Logs built from columns: spellings in any order, some of them unused."""
    spellings = draw(st.lists(api_names(catalog), max_size=12, unique=True))
    codes = draw(st.lists(st.integers(0, len(spellings) - 1), max_size=40)
                 if spellings else st.just([]))
    dtype = draw(st.sampled_from([np.int32, np.int64, np.uint16]))
    n = len(codes)
    return ApiLog.from_columns("s", "win7", None, spellings, np.array(codes, dtype=dtype),
                               np.arange(n), np.zeros(n, dtype=np.int64))


def any_logs(catalog):
    return st.one_of(logs(catalog), columnar_logs(catalog))


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
    return st.lists(st.one_of(any_logs(catalog), mappings(catalog)), max_size=6)


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
        if isinstance(source, ApiLog):
            assert (list(source.api_counts().items())
                    == list(per_record_counts(source).items()))


@pytest.mark.parametrize("name", sorted(CATALOGS))
@given(data=st.data())
@settings(max_examples=30, deadline=None)
def test_counts_follow_appends_after_a_first_extract(name, data):
    catalog = CATALOGS[name]
    sources = data.draw(st.lists(any_logs(catalog), min_size=1, max_size=4))
    extractor = CountExtractor(catalog)
    assert extractor.extract_batch(sources).tobytes() == oracle(catalog, sources).tobytes()
    for log in sources:
        for api in data.draw(st.lists(api_names(catalog), min_size=1, max_size=8)):
            log.append(LogRecord(api, 0x1))
    assert extractor.extract_batch(sources).tobytes() == oracle(catalog, sources).tobytes()
