"""Raw API-call-count extraction from logs."""

from __future__ import annotations

from typing import Dict, Iterable, List, Mapping, Union

import numpy as np

from repro.apilog.api_catalog import ApiCatalog, default_catalog
from repro.apilog.log_format import ApiLog
from repro.exceptions import ShapeError

CountSource = Union[ApiLog, Mapping[str, int]]

#: The name cache of an extractor holds at most this many names per catalog
#: column: room for a few spellings of every monitored API, plus unmonitored
#: names, without letting a stream of distinct junk names grow it forever.
NAME_CACHE_FACTOR = 4


class CountExtractor:
    """Turn an API log (or a pre-aggregated count mapping) into a count vector.

    Only APIs present in the monitored catalog contribute; every other call
    is ignored, exactly as an instrumentation-based monitor only records the
    hooked APIs.

    Every API name is resolved to its catalog column once per extractor, not
    once per record: a name cache maps each name as it appears in the log
    (``GetStartupInfoW`` and ``getstartupinfow`` are two entries) to its
    column, and every unmonitored name to a spill column one past the last
    catalog column.  One list comprehension then turns a log's records into
    column ids and one ``np.bincount`` counts them into the row; the spill
    column is dropped.  Mappings take the same path with their counts as
    ``bincount`` weights, which accumulates case-variant keys in dict order
    exactly as a per-key ``+=`` does.  The cache holds at most
    ``NAME_CACHE_FACTOR`` names per catalog column; names past that resolve
    without being stored.

    Counts are recomputed from the records on every call.  Nothing is
    memoised per log: a log may be appended to after it was scored, and a
    per-log memo would make a benchmark that replays the same log objects
    measure the memo instead of the featurisation.

    Parameters
    ----------
    catalog:
        The monitored-API catalog; defaults to the canonical 491-API catalog.
    """

    def __init__(self, catalog: ApiCatalog | None = None) -> None:
        self.catalog = catalog if catalog is not None else default_catalog()
        self._columns: Dict[str, int] = {}

    @property
    def n_features(self) -> int:
        """Dimensionality of the extracted vectors."""
        return len(self.catalog)

    def _resolve(self, names: Iterable[str]) -> List[int]:
        """The column of every name, caching new names while there is room."""
        columns, spill = self._columns, self.n_features
        capacity = NAME_CACHE_FACTOR * self.n_features
        ids = []
        for name in names:
            column = columns.get(name)
            if column is None:
                column = (self.catalog.index_of(name) if self.catalog.monitored(name)
                          else spill)
                if len(columns) < capacity:
                    columns[name] = column
            ids.append(column)
        return ids

    def _spill_counts(self, source: CountSource) -> np.ndarray:
        """Counts per catalog column of one source, then the spill column."""
        weights = None
        if isinstance(source, ApiLog):
            columns = self._columns
            try:
                ids = [columns[record.api] for record in source.records]
            except KeyError:
                ids = self._resolve([record.api for record in source.records])
        elif isinstance(source, Mapping):
            for api, count in source.items():
                if count < 0:
                    raise ShapeError(f"negative count for API {api!r}")
            ids = self._resolve(source)
            weights = np.fromiter(source.values(), np.float64, len(ids))
        else:
            raise ShapeError(
                f"expected an ApiLog or a mapping of api->count, got {type(source).__name__}"
            )
        return np.bincount(np.fromiter(ids, np.intp, len(ids)), weights,
                           minlength=self.n_features + 1)

    def extract(self, source: CountSource) -> np.ndarray:
        """Extract a single raw-count vector of shape ``(n_features,)``."""
        return self.extract_batch([source])[0]

    def extract_batch(self, sources: Iterable[CountSource]) -> np.ndarray:
        """Extract a matrix of raw counts, one row per source.

        An empty iterable yields a well-formed ``(0, n_features)`` matrix —
        the serving path sees empty micro-batches and must not raise.
        Likewise a log whose APIs are all unmonitored extracts to an all-zero
        row rather than an error (the detector simply observes nothing).
        """
        sources = list(sources)
        n_features = self.n_features
        rows = np.zeros((len(sources), n_features), dtype=np.float64)
        for index, source in enumerate(sources):
            rows[index] = self._spill_counts(source)[:n_features]
        return rows

    def monitored_fraction(self, source: CountSource) -> float:
        """Fraction of the source's calls that hit monitored APIs.

        Useful as a sanity diagnostic of the synthetic profiles: it should be
        close to 1.0 because profiles are built from the catalog.
        """
        counts = self._spill_counts(source)
        total = float(counts.sum())
        if total == 0:
            return 0.0
        return float(counts[:self.n_features].sum()) / total
