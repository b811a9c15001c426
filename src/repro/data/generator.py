"""Synthetic corpus generation reproducing the structure of Table I.

The generator draws samples from the behaviour-profile library, "executes"
them with the multi-OS sandbox (count-level fast path) and featurises them
with a :class:`~repro.features.pipeline.FeaturePipeline` fitted on the
training split only — mirroring how the real pipeline was fitted on the
McAfee Labs collection and then applied unchanged to the VirusTotal test
data.

Two source distributions are modelled:

* the **training source** ("McAfee Labs, Jan–Feb 2018"): known families
  only, an OS mixture dominated by Win7/Win10;
* the **test source** ("VirusTotal"): includes *novel* families absent from
  training and a different OS mixture, producing the distribution shift that
  keeps the detector's test TPR near the paper's 0.883 instead of the
  near-perfect validation accuracy.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.apilog.api_catalog import ApiCatalog, default_catalog
from repro.apilog.behavior_profiles import ProfileLibrary, default_profile_library
from repro.apilog.sandbox import Sandbox
from repro.apilog.source_sample import SourceSample
from repro.config import CLASS_CLEAN, CLASS_MALWARE, ScaleProfile, default_profile
from repro.data.dataset import Dataset
from repro.exceptions import DatasetError
from repro.features.pipeline import FeaturePipeline
from repro.utils.rng import SeedSequence

#: OS mixtures for the two source distributions ("mixed data", Section II-A).
_TRAIN_OS_WEIGHTS = {"win7": 0.45, "winxp": 0.10, "win8": 0.15, "win10": 0.30}
_TEST_OS_WEIGHTS = {"win7": 0.30, "winxp": 0.05, "win8": 0.15, "win10": 0.50}

#: Fraction of test-source samples drawn from families absent at training
#: time.  Tuned so the trained target model lands near the paper's operating
#: point (test TNR ~0.96, test TPR ~0.88).
_TEST_NOVEL_FRACTION_MALWARE = 0.17
_TEST_NOVEL_FRACTION_CLEAN = 0.30


@dataclass
class CorpusBundle:
    """Everything Table I describes, plus the fitted feature pipeline."""

    train: Dataset
    validation: Dataset
    test: Dataset
    pipeline: FeaturePipeline

    def table1_rows(self) -> List[Tuple[str, str]]:
        """Rows of Table I: (split name, "N (a clean and b malware)")."""
        rows = []
        for split, label in ((self.train, "Training Set"),
                             (self.validation, "Validation Set"),
                             (self.test, "Test Set")):
            counts = split.class_counts()
            rows.append((label, f"{split.n_samples} "
                                f"({counts['clean']} clean and {counts['malware']} malware)"))
        return rows


class CorpusGenerator:
    """Generate Table I-style corpora from the synthetic substrate.

    Parameters
    ----------
    scale:
        A :class:`~repro.config.ScaleProfile` fixing the split sizes; the
        ``paper`` profile reproduces Table I exactly.
    library:
        Behaviour-profile library (defaults to the built-in one).
    catalog:
        Monitored-API catalog (defaults to the canonical 491-API catalog).
    seed:
        Master seed; all randomness derives from it deterministically.
    """

    def __init__(self, scale: Optional[ScaleProfile] = None,
                 library: Optional[ProfileLibrary] = None,
                 catalog: Optional[ApiCatalog] = None,
                 seed: int = 0) -> None:
        self.scale = scale if scale is not None else default_profile()
        self.library = library if library is not None else default_profile_library()
        self.catalog = catalog if catalog is not None else default_catalog()
        self.seeds = SeedSequence(master_seed=seed)

    # ------------------------------------------------------------------ #
    # Source-sample generation
    # ------------------------------------------------------------------ #
    def _draw_os(self, rng: np.random.Generator, weights: Dict[str, float]) -> str:
        names = list(weights)
        probs = np.array([weights[n] for n in names], dtype=np.float64)
        probs = probs / probs.sum()
        return names[int(rng.choice(len(names), p=probs))]

    def generate_source_samples(self, n_samples: int, label: int,
                                source: str = "train",
                                rng_name: Optional[str] = None) -> List[SourceSample]:
        """Generate raw :class:`SourceSample` objects for one class.

        ``source`` selects the family mixture: ``train`` uses only known
        families, ``test`` mixes in novel families.
        """
        if n_samples < 1:
            raise DatasetError(f"n_samples must be >= 1, got {n_samples}")
        if label not in (CLASS_CLEAN, CLASS_MALWARE):
            raise DatasetError(f"label must be 0 or 1, got {label}")
        if source not in ("train", "test"):
            raise DatasetError(f"source must be 'train' or 'test', got {source!r}")
        rng = self.seeds.rng_for(rng_name or f"sources:{source}:{label}")
        include_novel = source == "test"
        novel_probability = (
            (_TEST_NOVEL_FRACTION_MALWARE if label == CLASS_MALWARE
             else _TEST_NOVEL_FRACTION_CLEAN) if include_novel else 0.0)
        samples = []
        for index in range(n_samples):
            profile = self.library.sample_profile(
                label, rng, include_novel=include_novel,
                novel_probability=novel_probability)
            sample_id = f"{source}-{profile.name}-{index:06d}"
            samples.append(SourceSample.from_profile(profile, sample_id, random_state=rng))
        return samples

    # ------------------------------------------------------------------ #
    # Raw-count generation (fast path)
    # ------------------------------------------------------------------ #
    def _raw_counts_for(self, samples: Sequence[SourceSample], source: str,
                        rng: np.random.Generator) -> Tuple[np.ndarray, List[str]]:
        weights = _TRAIN_OS_WEIGHTS if source == "train" else _TEST_OS_WEIGHTS
        from repro.features.extraction import CountExtractor

        extractor = CountExtractor(self.catalog)
        rows = np.zeros((len(samples), len(self.catalog)), dtype=np.float64)
        os_versions: List[str] = []
        for index, sample in enumerate(samples):
            os_version = self._draw_os(rng, weights)
            os_versions.append(os_version)
            sandbox = Sandbox(os_version=os_version, random_state=rng, record_args=False)
            counts = sandbox.execute_counts(sample, rng=rng)
            rows[index] = extractor.extract(counts)
        return rows, os_versions

    def _build_split(self, n_clean: int, n_malware: int, source: str, name: str,
                     pipeline: Optional[FeaturePipeline]) -> Tuple[Dataset, np.ndarray]:
        clean_samples = self.generate_source_samples(n_clean, CLASS_CLEAN, source=source,
                                                     rng_name=f"{name}:clean:sources")
        malware_samples = self.generate_source_samples(n_malware, CLASS_MALWARE, source=source,
                                                       rng_name=f"{name}:malware:sources")
        samples = clean_samples + malware_samples
        labels = np.array([CLASS_CLEAN] * n_clean + [CLASS_MALWARE] * n_malware,
                          dtype=np.int64)
        rng = self.seeds.rng_for(f"{name}:sandbox")
        raw_counts, os_versions = self._raw_counts_for(samples, source, rng)
        features = (pipeline.transform_counts(raw_counts)
                    if pipeline is not None and pipeline.is_fitted else raw_counts)
        dataset = Dataset(
            features=features,
            labels=labels,
            name=name,
            sample_ids=[s.sample_id for s in samples],
            families=[s.family for s in samples],
            os_versions=os_versions,
        )
        return dataset, raw_counts

    # ------------------------------------------------------------------ #
    # Public corpus API
    # ------------------------------------------------------------------ #
    def generate_corpus(self) -> CorpusBundle:
        """Generate the full Table I corpus and the fitted feature pipeline.

        The :class:`~repro.features.pipeline.FeaturePipeline` is fitted on
        the raw counts of the *training* split only, then applied to every
        split.
        """
        scale = self.scale
        pipeline = FeaturePipeline(catalog=self.catalog)

        train_raw_ds, train_raw_counts = self._build_split(
            scale.train_clean, scale.train_malware, "train", "train", pipeline=None)
        pipeline.fit_counts(train_raw_counts)

        train = train_raw_ds.with_features(
            pipeline.transform_counts(train_raw_counts), name="train")
        validation, _ = self._build_split(
            scale.val_clean, scale.val_malware, "train", "validation", pipeline)
        test, _ = self._build_split(
            scale.test_clean, scale.test_malware, "test", "test", pipeline)
        return CorpusBundle(train=train, validation=validation, test=test,
                            pipeline=pipeline)

    def generate_attacker_corpus(self, n_clean: int, n_malware: int,
                                 pipeline: Optional[FeaturePipeline] = None,
                                 name: str = "attacker") -> Dataset:
        """Generate the *attacker's own* training data for grey-box attacks.

        The attacker collects their own samples (different draw from the same
        underlying world) and — in the first grey-box experiment — featurises
        them with the same 491-feature pipeline they are assumed to know.
        When ``pipeline`` is ``None`` the raw counts are returned, which is
        what the binary-feature attacker starts from.
        """
        dataset, raw_counts = self._build_split(n_clean, n_malware, "train", name,
                                                pipeline=None)
        if pipeline is not None:
            if not pipeline.is_fitted:
                pipeline.fit_counts(raw_counts)
            return dataset.with_features(pipeline.transform_counts(raw_counts), name=name)
        return dataset
