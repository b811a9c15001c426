"""The declarative scenario description: one attack vs one defense.

A :class:`ScenarioSpec` is a frozen value object naming everything one run
of the paper's grid needs — attack id + params, defense id + params, the
crafting surface, the scale/seed/dtype and the (θ, γ) constraint operating
point — and nothing else.  It round-trips through JSON (``from_dict`` /
``to_dict`` / ``from_json`` / ``to_json``) so specs travel over the CLI,
config files and the serving registry unchanged, and it expands grids
(:meth:`ScenarioSpec.grid`) so "every attack vs every defense" is one call.

The spec is *inert*: resolving ids against the registries and executing the
run is :func:`repro.scenarios.runner.run_scenario`'s job.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field, fields, replace
from typing import Dict, List, Mapping, Optional, Sequence, Tuple, Union

from repro.exceptions import ConfigurationError

__all__ = ["ScenarioSpec"]

#: Crafting surfaces a scenario can target.  ``target`` is the white-box
#: setting (the attacker crafts on the deployed detector), ``substitute``
#: the grey-box setting (craft on the attacker's Table IV model, replay on
#: the target) and ``binary_substitute`` the reduced-knowledge grey-box
#: variant where the attacker only knows the API names.
MODEL_KINDS = ("target", "substitute", "binary_substitute")

_SWEEPS = (None, "gamma", "theta")

_SWEEP_STRATEGIES = (None, "replay", "per_point")


@dataclass(frozen=True)
class ScenarioSpec:
    """One declarative cell of the attack x defense grid.

    Attributes
    ----------
    attack / attack_params:
        Registry id (see ``repro scenarios`` / ``repro list-attacks``) and
        parameter overrides validated against the entry's schema.
    defense / defense_params:
        Defense registry id and parameter overrides.
    model:
        Crafting surface, one of :data:`MODEL_KINDS`.
    scale:
        Scale-profile name (``None`` follows the ambient context/default).
    seed / dtype:
        Master seed and compute dtype for a context built from this spec
        (ignored when an existing context is supplied to ``run_scenario``).
    theta / gamma:
        The constraint operating point (per-feature perturbation magnitude
        and fraction of perturbable features).
    sweep / sweep_values:
        ``"gamma"`` or ``"theta"`` turns the run into a security-curve sweep
        over ``sweep_values`` (``None`` uses the paper grid at the scale
        profile's resolution); the other constraint parameter stays fixed at
        ``theta``/``gamma``.
    sweep_strategy:
        How γ-sweeps execute: ``"replay"`` (the default when ``None``)
        records one full-budget attack trajectory and slices it per
        operating point; ``"per_point"`` re-runs the attack at every point.
        Results are byte-identical under float64; θ-sweeps ignore this.
    robustness_budget:
        When set, additionally computes the per-sample minimal-evasion-budget
        distribution up to this many added features.
    label:
        Optional display name (grid expansion fills one in).
    """

    attack: str = "jsma"
    defense: str = "none"
    model: str = "target"
    scale: Optional[str] = None
    seed: int = 0
    dtype: Optional[str] = None
    theta: float = 0.1
    gamma: float = 0.02
    sweep: Optional[str] = None
    sweep_values: Optional[Tuple[float, ...]] = None
    sweep_strategy: Optional[str] = None
    robustness_budget: Optional[int] = None
    attack_params: Mapping[str, object] = field(default_factory=dict)
    defense_params: Mapping[str, object] = field(default_factory=dict)
    label: Optional[str] = None

    def __post_init__(self) -> None:
        if self.model not in MODEL_KINDS:
            raise ConfigurationError(
                f"model must be one of {MODEL_KINDS}, got {self.model!r}")
        if self.sweep not in _SWEEPS:
            raise ConfigurationError(
                f"sweep must be one of {_SWEEPS}, got {self.sweep!r}")
        if self.theta < 0 or self.gamma < 0:
            raise ConfigurationError(
                f"theta and gamma must be non-negative, got "
                f"theta={self.theta}, gamma={self.gamma}")
        if self.robustness_budget is not None and self.robustness_budget < 1:
            raise ConfigurationError(
                f"robustness_budget must be >= 1, got {self.robustness_budget}")
        if self.sweep_values is not None and self.sweep is None:
            raise ConfigurationError("sweep_values requires sweep to be set")
        if self.sweep_strategy not in _SWEEP_STRATEGIES:
            raise ConfigurationError(
                f"sweep_strategy must be one of {_SWEEP_STRATEGIES}, "
                f"got {self.sweep_strategy!r}")
        if self.sweep_strategy is not None and self.sweep is None:
            raise ConfigurationError("sweep_strategy requires sweep to be set")
        # Normalise mutable inputs so equality and serialisation are stable
        # (explicit nulls in hand-written spec files mean "no overrides").
        object.__setattr__(self, "theta", float(self.theta))
        object.__setattr__(self, "gamma", float(self.gamma))
        object.__setattr__(self, "seed", int(self.seed))
        object.__setattr__(self, "attack_params", dict(self.attack_params or {}))
        object.__setattr__(self, "defense_params", dict(self.defense_params or {}))
        if self.sweep_values is not None:
            object.__setattr__(self, "sweep_values",
                               tuple(float(v) for v in self.sweep_values))

    # -------------------------------------------------------------- #
    # Serialisation
    # -------------------------------------------------------------- #
    def to_dict(self) -> Dict[str, object]:
        """JSON-able mapping; defaults are included so specs are explicit."""
        return {
            "attack": self.attack,
            "attack_params": dict(self.attack_params),
            "defense": self.defense,
            "defense_params": dict(self.defense_params),
            "model": self.model,
            "scale": self.scale,
            "seed": self.seed,
            "dtype": self.dtype,
            "theta": self.theta,
            "gamma": self.gamma,
            "sweep": self.sweep,
            "sweep_values": (list(self.sweep_values)
                             if self.sweep_values is not None else None),
            "sweep_strategy": self.sweep_strategy,
            "robustness_budget": self.robustness_budget,
            "label": self.label,
        }

    @classmethod
    def from_dict(cls, data: Mapping[str, object]) -> "ScenarioSpec":
        """Inverse of :meth:`to_dict`; unknown keys raise ConfigurationError."""
        if not isinstance(data, Mapping):
            raise ConfigurationError(
                f"scenario spec must be a mapping, got {type(data).__name__}")
        known = {f.name for f in fields(cls)}
        unknown = sorted(set(data) - known)
        if unknown:
            raise ConfigurationError(
                f"unknown scenario spec keys {unknown}; valid keys: {sorted(known)}")
        payload = dict(data)
        if payload.get("sweep_values") is not None:
            payload["sweep_values"] = tuple(payload["sweep_values"])
        return cls(**payload)

    def to_json(self, indent: Optional[int] = 2) -> str:
        """The spec as a JSON document."""
        return json.dumps(self.to_dict(), indent=indent, sort_keys=True)

    @classmethod
    def from_json(cls, text: str) -> "ScenarioSpec":
        """Parse a spec from a JSON document."""
        try:
            data = json.loads(text)
        except ValueError as error:
            raise ConfigurationError(f"invalid scenario spec JSON: {error}") from error
        return cls.from_dict(data)

    def with_overrides(self, **changes) -> "ScenarioSpec":
        """A copy with ``changes`` applied (frozen-dataclass ``replace``)."""
        return replace(self, **changes)

    # -------------------------------------------------------------- #
    # Grid expansion
    # -------------------------------------------------------------- #
    @classmethod
    def grid(cls, attacks: Sequence[Union[str, Mapping]] = ("jsma",),
             defenses: Sequence[Union[str, Mapping]] = ("none",),
             **common) -> List["ScenarioSpec"]:
        """Expand an attack x defense grid into concrete specs.

        ``attacks`` / ``defenses`` entries are either plain registry ids or
        mappings ``{"id": ..., "params": {...}}``; every remaining keyword is
        forwarded to each spec (scale, seed, theta, ...).  The grid iterates
        defenses fastest, so all cells of one attack are adjacent::

            specs = ScenarioSpec.grid(
                attacks=["jsma", {"id": "fgsm", "params": {"epsilon": 0.2}}],
                defenses=["none", "feature_squeezing"],
                scale="tiny", theta=0.1, gamma=0.02)
        """
        def parse(item: Union[str, Mapping], what: str) -> Tuple[str, Dict]:
            if isinstance(item, str):
                return item, {}
            if isinstance(item, Mapping):
                unknown = sorted(set(item) - {"id", "params"})
                if unknown:
                    raise ConfigurationError(
                        f"{what} grid entry has unknown keys {unknown}; "
                        f"expected 'id' and optional 'params'")
                if "id" not in item:
                    raise ConfigurationError(f"{what} grid entry needs an 'id'")
                return str(item["id"]), dict(item.get("params") or {})
            raise ConfigurationError(
                f"{what} grid entries must be ids or mappings, got {item!r}")

        specs: List[ScenarioSpec] = []
        for attack_item in attacks:
            attack_id, attack_params = parse(attack_item, "attack")
            for defense_item in defenses:
                defense_id, defense_params = parse(defense_item, "defense")
                specs.append(cls(
                    attack=attack_id, attack_params=attack_params,
                    defense=defense_id, defense_params=defense_params,
                    label=f"{attack_id} vs {defense_id}", **common))
        return specs

    def describe(self) -> str:
        """One-line human rendering used by reports and logs."""
        parts = [f"attack={self.attack}"]
        if self.attack_params:
            parts.append(f"attack_params={self.attack_params}")
        parts.append(f"defense={self.defense}")
        if self.defense_params:
            parts.append(f"defense_params={self.defense_params}")
        parts.append(f"model={self.model}")
        if self.sweep:
            parts.append(f"sweep={self.sweep}")
        parts.append(f"theta={self.theta:g}")
        parts.append(f"gamma={self.gamma:g}")
        return " ".join(parts)
