"""Editable "source programs" — the object the live grey-box attack mutates.

In the paper's third grey-box experiment a security researcher takes the
*source code* of a malware sample, adds one API call (repeatedly), rebuilds
it, and re-submits it to the DNN engine, watching the malware confidence
drop from 98.43% to 0%.  :class:`SourceSample` is the synthetic stand-in for
that source file: an explicit multiset of API calls (plus the family profile
it was generated from) that the :class:`~repro.apilog.sandbox.Sandbox`
"executes" to produce a Table II-style log.  Adding an API call to the
source is therefore a semantic-preserving mutation, exactly like the paper's
manual source edit: existing behaviour is never removed.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Mapping

from repro.exceptions import ConfigurationError
from repro.utils.rng import RandomState, as_rng


@dataclass
class SourceSample:
    """A synthetic PE sample represented by its intended API calls.

    Attributes
    ----------
    sample_id:
        Unique identifier (e.g. ``malware_trojan_injector-000017``).
    label:
        Ground-truth class (0 clean, 1 malware).
    family:
        Name of the behaviour profile the sample was generated from.
    api_calls:
        Mapping ``api name -> number of call sites`` in the source.  This is
        the program's *intrinsic* behaviour; the sandbox adds OS-dependent
        runtime calls on top when executing it.
    injected_calls:
        API calls added *after* generation (by an attacker performing the
        source-modification attack).  Kept separate so experiments can report
        exactly what was injected and so functionality-preservation checks
        can verify nothing was removed.
    """

    sample_id: str
    label: int
    family: str
    api_calls: Dict[str, int] = field(default_factory=dict)
    injected_calls: Dict[str, int] = field(default_factory=dict)

    def __post_init__(self) -> None:
        if self.label not in (0, 1):
            raise ConfigurationError(f"label must be 0 or 1, got {self.label}")
        for api, count in list(self.api_calls.items()):
            if count < 0:
                raise ConfigurationError(f"negative call count for {api!r}")
            if count == 0:
                del self.api_calls[api]
        self.api_calls = {api.lower(): int(count) for api, count in self.api_calls.items()}
        self.injected_calls = {api.lower(): int(count)
                               for api, count in self.injected_calls.items()}

    # ------------------------------------------------------------------ #
    # Introspection
    # ------------------------------------------------------------------ #
    def total_calls(self) -> int:
        """Total number of API call sites (original + injected)."""
        return sum(self.api_calls.values()) + sum(self.injected_calls.values())

    def combined_calls(self) -> Dict[str, int]:
        """Original and injected call counts merged into one mapping."""
        combined = dict(self.api_calls)
        for api, count in self.injected_calls.items():
            combined[api] = combined.get(api, 0) + count
        return combined

    def uses_api(self, api: str) -> bool:
        """Whether the sample (including injections) calls ``api``."""
        key = api.lower()
        return key in self.api_calls or key in self.injected_calls

    # ------------------------------------------------------------------ #
    # Mutation (the attack surface)
    # ------------------------------------------------------------------ #
    def add_api_call(self, api: str, times: int = 1) -> "SourceSample":
        """Return a copy with ``times`` extra calls to ``api`` injected.

        This mirrors the paper's manual source edit: the added call does not
        interfere with existing behaviour, so the sample's functionality is
        preserved by construction.  The original object is not modified.
        """
        if times < 1:
            raise ConfigurationError(f"times must be >= 1, got {times}")
        injected = dict(self.injected_calls)
        injected[api.lower()] = injected.get(api.lower(), 0) + int(times)
        return SourceSample(
            sample_id=self.sample_id,
            label=self.label,
            family=self.family,
            api_calls=dict(self.api_calls),
            injected_calls=injected,
        )

    def add_api_calls(self, additions: Mapping[str, int]) -> "SourceSample":
        """Inject several APIs at once (mapping ``api -> times``)."""
        sample = self
        for api, times in additions.items():
            if times > 0:
                sample = sample.add_api_call(api, times)
        return sample

    def preserves_functionality_of(self, original: "SourceSample") -> bool:
        """Check the add-only invariant against ``original``.

        True iff every original call site is still present with at least its
        original multiplicity — i.e. the mutation only *added* behaviour.
        """
        combined = self.combined_calls()
        return all(combined.get(api, 0) >= count
                   for api, count in original.combined_calls().items())

    # ------------------------------------------------------------------ #
    # Construction
    # ------------------------------------------------------------------ #
    @classmethod
    def from_profile(cls, profile, sample_id: str,
                     random_state: RandomState = None) -> "SourceSample":
        """Generate a concrete source sample from a behaviour profile."""
        rng = as_rng(random_state)
        counts = profile.sample_counts(rng)
        if not counts:
            # Degenerate draw (every group inactive): fall back to the
            # profile's first group so the sample is never empty.
            first_group = profile.groups[0]
            counts = {usage.api: max(1, int(round(usage.mean_count)))
                      for usage in first_group.usages}
        return cls(sample_id=sample_id, label=profile.label, family=profile.name,
                   api_calls=counts)

    def describe(self) -> str:
        """Short human-readable description used by examples and logs."""
        injected = sum(self.injected_calls.values())
        return (f"SourceSample(id={self.sample_id}, family={self.family}, "
                f"label={self.label}, call_sites={self.total_calls()}, "
                f"injected={injected})")
