"""The :class:`Dataset` container used throughout the library."""

from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path
from typing import Dict, List, Optional, Sequence

import numpy as np

from repro.config import CLASS_CLEAN, CLASS_MALWARE, CLASS_NAMES
from repro.exceptions import DatasetError
from repro.utils.serialization import load_bundle, save_bundle
from repro.utils.validation import check_labels, check_matrix


@dataclass
class Dataset:
    """Feature matrix + labels + per-sample metadata.

    Attributes
    ----------
    features:
        ``(n_samples, n_features)`` model-input features in ``[0, 1]``.
    labels:
        ``(n_samples,)`` integer class labels (0 clean, 1 malware).
    name:
        Split name (``train``, ``validation``, ``test``, ``adv_examples``...).
    sample_ids / families / os_versions:
        Optional per-sample provenance recorded by the generator.
    """

    features: np.ndarray
    labels: np.ndarray
    name: str = "dataset"
    sample_ids: Optional[List[str]] = None
    families: Optional[List[str]] = None
    os_versions: Optional[List[str]] = None

    def __post_init__(self) -> None:
        self.features = check_matrix(self.features, name=f"{self.name}.features")
        self.labels = check_labels(self.labels, n_samples=self.features.shape[0],
                                   name=f"{self.name}.labels")
        for attr in ("sample_ids", "families", "os_versions"):
            values = getattr(self, attr)
            if values is not None and len(values) != self.n_samples:
                raise DatasetError(
                    f"{self.name}.{attr} has {len(values)} entries for "
                    f"{self.n_samples} samples"
                )

    # ------------------------------------------------------------------ #
    # Basic properties
    # ------------------------------------------------------------------ #
    @property
    def n_samples(self) -> int:
        """Number of samples."""
        return self.features.shape[0]

    @property
    def n_features(self) -> int:
        """Feature dimensionality."""
        return self.features.shape[1]

    def __len__(self) -> int:
        return self.n_samples

    def class_counts(self) -> Dict[str, int]:
        """``{"clean": n_clean, "malware": n_malware}``."""
        return {CLASS_NAMES[label]: int(np.sum(self.labels == label))
                for label in (CLASS_CLEAN, CLASS_MALWARE)}

    def summary(self) -> str:
        """One-line description in the style of Table I rows."""
        counts = self.class_counts()
        return (f"{self.name}: {self.n_samples} samples "
                f"({counts['clean']} clean and {counts['malware']} malware)")

    # ------------------------------------------------------------------ #
    # Subsetting / combining
    # ------------------------------------------------------------------ #
    def _take_meta(self, attr: str, indices: np.ndarray) -> Optional[List[str]]:
        values = getattr(self, attr)
        if values is None:
            return None
        return [values[i] for i in indices]

    def subset(self, indices: Sequence[int] | np.ndarray, name: Optional[str] = None) -> "Dataset":
        """Return a new dataset containing only ``indices`` (in that order)."""
        indices = np.asarray(indices, dtype=np.int64)
        if indices.size == 0:
            raise DatasetError("cannot create an empty subset")
        if indices.min() < 0 or indices.max() >= self.n_samples:
            raise DatasetError(
                f"subset indices out of range [0, {self.n_samples}) for {self.name!r}"
            )
        return Dataset(
            features=self.features[indices],
            labels=self.labels[indices],
            name=name if name is not None else self.name,
            sample_ids=self._take_meta("sample_ids", indices),
            families=self._take_meta("families", indices),
            os_versions=self._take_meta("os_versions", indices),
        )

    def of_class(self, label: int, name: Optional[str] = None) -> "Dataset":
        """All samples of one class."""
        indices = np.flatnonzero(self.labels == label)
        if indices.size == 0:
            raise DatasetError(f"{self.name!r} contains no samples of class {label}")
        suffix = CLASS_NAMES.get(label, str(label))
        return self.subset(indices, name=name if name is not None else f"{self.name}_{suffix}")

    def malware_only(self) -> "Dataset":
        """All malware samples."""
        return self.of_class(CLASS_MALWARE)

    def clean_only(self) -> "Dataset":
        """All clean samples."""
        return self.of_class(CLASS_CLEAN)

    def sample(self, n: int, random_state=None, name: Optional[str] = None,
               stratify: bool = True) -> "Dataset":
        """Random subsample of ``n`` samples (stratified by default)."""
        from repro.utils.rng import as_rng

        if n < 1:
            raise DatasetError(f"sample size must be >= 1, got {n}")
        if n > self.n_samples:
            raise DatasetError(
                f"cannot sample {n} from {self.n_samples} samples in {self.name!r}"
            )
        rng = as_rng(random_state)
        if not stratify or len(np.unique(self.labels)) < 2:
            indices = rng.choice(self.n_samples, size=n, replace=False)
        else:
            indices_parts = []
            for label in np.unique(self.labels):
                label_idx = np.flatnonzero(self.labels == label)
                share = int(round(n * label_idx.size / self.n_samples))
                share = min(max(share, 1), label_idx.size)
                indices_parts.append(rng.choice(label_idx, size=share, replace=False))
            indices = np.concatenate(indices_parts)[:n]
        return self.subset(np.sort(indices), name=name)

    @staticmethod
    def concatenate(datasets: Sequence["Dataset"], name: str = "combined") -> "Dataset":
        """Stack several datasets (they must agree on feature dimension)."""
        if not datasets:
            raise DatasetError("concatenate requires at least one dataset")
        n_features = datasets[0].n_features
        for ds in datasets[1:]:
            if ds.n_features != n_features:
                raise DatasetError("datasets have inconsistent feature dimensions")

        def _merge_meta(attr: str) -> Optional[List[str]]:
            if any(getattr(ds, attr) is None for ds in datasets):
                return None
            merged: List[str] = []
            for ds in datasets:
                merged.extend(getattr(ds, attr))
            return merged

        return Dataset(
            features=np.vstack([ds.features for ds in datasets]),
            labels=np.concatenate([ds.labels for ds in datasets]),
            name=name,
            sample_ids=_merge_meta("sample_ids"),
            families=_merge_meta("families"),
            os_versions=_merge_meta("os_versions"),
        )

    def with_features(self, features: np.ndarray, name: Optional[str] = None) -> "Dataset":
        """Copy of this dataset with the feature matrix replaced.

        Used to wrap adversarial examples while keeping labels and metadata.
        """
        return Dataset(
            features=features,
            labels=self.labels.copy(),
            name=name if name is not None else self.name,
            sample_ids=list(self.sample_ids) if self.sample_ids is not None else None,
            families=list(self.families) if self.families is not None else None,
            os_versions=list(self.os_versions) if self.os_versions is not None else None,
        )

    def shuffled(self, random_state=None) -> "Dataset":
        """Copy with rows in random order."""
        from repro.utils.rng import as_rng

        rng = as_rng(random_state)
        indices = rng.permutation(self.n_samples)
        return self.subset(indices)

    # ------------------------------------------------------------------ #
    # Persistence
    # ------------------------------------------------------------------ #
    def save(self, path: str | Path) -> Path:
        """Persist the dataset to a bundle directory."""
        meta = {
            "name": self.name,
            "sample_ids": self.sample_ids,
            "families": self.families,
            "os_versions": self.os_versions,
        }
        return save_bundle(path, meta, {"features": self.features, "labels": self.labels})

    @classmethod
    def load(cls, path: str | Path) -> "Dataset":
        """Restore a dataset saved with :meth:`save`."""
        meta, arrays = load_bundle(path)
        return cls(
            features=arrays["features"],
            labels=arrays["labels"],
            name=meta.get("name", "dataset"),
            sample_ids=meta.get("sample_ids"),
            families=meta.get("families"),
            os_versions=meta.get("os_versions"),
        )
