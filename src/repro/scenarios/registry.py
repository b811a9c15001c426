"""Decorator-driven registries for attacks and defenses.

The paper's contribution is a grid — {white-box, grey-box, black-box}
attacks x {no defense, squeezing, distillation, ensemble, adversarial
training, dim-reduction} defenses — and this module makes that grid
*explicit*: every attack and defense class registers itself under a stable
id with a typed parameter schema, so any consumer (the scenario engine, the
CLI, the serving registry, sweep harnesses) can resolve "any attack vs any
defense" by name instead of hand-wiring constructors.

Registration happens where the class is defined::

    @register_attack("jsma", params=(Param("early_stop", "bool", True), ...))
    class JsmaAttack(Attack):
        ...

The decorator also *stamps* the registry id onto ``cls.name``, so every
:class:`~repro.attacks.base.AttackResult` carries the id it was produced
under (``attack_name`` can never be the generic ``"attack"`` placeholder for
a registered attack).

This module deliberately imports nothing heavy (only the exceptions module),
so attack/defense modules can import it without cycles; the scenario engine
lives in :mod:`repro.scenarios.runner`.
"""

from __future__ import annotations

import importlib
import json
import weakref
from dataclasses import dataclass, field
from typing import Callable, Dict, List, Mapping, Optional, Sequence, Tuple

from repro.exceptions import ConfigurationError

__all__ = [
    "Param",
    "RegistryEntry",
    "ComponentRegistry",
    "ATTACKS",
    "DEFENSES",
    "register_attack",
    "register_defense",
    "build_defense",
    "build_endpoint",
    "ensure_registries",
]


@dataclass(frozen=True)
class Param:
    """One typed, documented parameter of a registered component.

    ``kind`` is a small closed vocabulary (``"int"``, ``"float"``,
    ``"bool"``, ``"str"``, ``"list"``) used both for validation and for the
    CLI's ``list-attacks`` / ``list-defenses`` schema rendering.
    """

    name: str
    kind: str
    default: object
    help: str = ""
    choices: Optional[Tuple[object, ...]] = None
    optional: bool = False

    _KINDS = ("int", "float", "bool", "str", "list")

    def __post_init__(self) -> None:
        if self.kind not in self._KINDS:
            raise ConfigurationError(
                f"parameter {self.name!r}: unknown kind {self.kind!r}; "
                f"expected one of {self._KINDS}")

    def validate(self, value: object) -> object:
        """Coerce and validate ``value``; raise ConfigurationError on mismatch."""
        if value is None:
            if self.optional or self.default is None:
                return None
            raise ConfigurationError(f"parameter {self.name!r} may not be None")
        if self.kind == "bool":
            if not isinstance(value, bool):
                raise ConfigurationError(
                    f"parameter {self.name!r} must be a bool, got {value!r}")
            coerced: object = value
        elif self.kind == "int":
            if isinstance(value, bool) or not isinstance(value, int):
                raise ConfigurationError(
                    f"parameter {self.name!r} must be an int, got {value!r}")
            coerced = int(value)
        elif self.kind == "float":
            if isinstance(value, bool) or not isinstance(value, (int, float)):
                raise ConfigurationError(
                    f"parameter {self.name!r} must be a number, got {value!r}")
            coerced = float(value)
        elif self.kind == "str":
            if not isinstance(value, str):
                raise ConfigurationError(
                    f"parameter {self.name!r} must be a string, got {value!r}")
            coerced = value
        else:  # "list"
            if isinstance(value, (str, bytes)) or not isinstance(value, Sequence):
                raise ConfigurationError(
                    f"parameter {self.name!r} must be a list/tuple, got {value!r}")
            coerced = tuple(value)
        if self.choices is not None and coerced not in self.choices:
            raise ConfigurationError(
                f"parameter {self.name!r} must be one of {list(self.choices)}, "
                f"got {coerced!r}")
        return coerced

    def describe(self) -> str:
        """Compact ``name=default (kind)`` schema cell for CLI listings."""
        rendered = f"{self.name}={self.default!r}:{self.kind}"
        if self.choices is not None:
            rendered += f"{{{','.join(str(c) for c in self.choices)}}}"
        return rendered


@dataclass
class RegistryEntry:
    """One registered component: id, class, parameter schema and factory."""

    entry_id: str
    cls: type
    params: Tuple[Param, ...]
    factory: Callable
    kind: str
    summary: str
    aliases: Tuple[str, ...] = ()

    def resolve_params(self, overrides: Optional[Mapping[str, object]] = None
                       ) -> Dict[str, object]:
        """Defaults merged with validated ``overrides``.

        Unknown parameter names raise :class:`ConfigurationError` (listing
        the valid schema), so scenario specs fail loudly instead of silently
        ignoring a typo.
        """
        schema = {param.name: param for param in self.params}
        resolved = {param.name: param.default for param in self.params}
        for name, value in dict(overrides or {}).items():
            if name not in schema:
                raise ConfigurationError(
                    f"{self.kind} {self.entry_id!r} has no parameter {name!r}; "
                    f"valid parameters: {sorted(schema)}")
            resolved[name] = schema[name].validate(value)
        return resolved

    def schema(self) -> str:
        """Space-separated ``name=default:kind`` rendering of the params."""
        return " ".join(param.describe() for param in self.params) or "(no params)"


class ComponentRegistry:
    """Id -> :class:`RegistryEntry` mapping with aliases and class lookup."""

    def __init__(self, kind_label: str) -> None:
        self.kind_label = kind_label
        self._entries: Dict[str, RegistryEntry] = {}
        self._aliases: Dict[str, str] = {}

    # -------------------------------------------------------------- #
    # Registration
    # -------------------------------------------------------------- #
    def register(self, entry_id: str, cls: type, *, params: Sequence[Param] = (),
                 factory: Callable, kind: Optional[str] = None,
                 aliases: Sequence[str] = (), summary: Optional[str] = None
                 ) -> RegistryEntry:
        if not entry_id or not isinstance(entry_id, str):
            raise ConfigurationError(
                f"{self.kind_label} id must be a non-empty string, got {entry_id!r}")
        for name in (entry_id, *aliases):
            if name in self._entries or name in self._aliases:
                raise ConfigurationError(
                    f"duplicate {self.kind_label} id/alias {name!r}")
        if self.entry_for_class(cls) is not None:
            raise ConfigurationError(
                f"{cls.__name__} is already registered as "
                f"{self.entry_for_class(cls).entry_id!r}")
        names = {param.name for param in params}
        if len(names) != len(params):
            raise ConfigurationError(
                f"{self.kind_label} {entry_id!r} declares duplicate parameters")
        entry = RegistryEntry(
            entry_id=entry_id, cls=cls, params=tuple(params), factory=factory,
            kind=kind or self.kind_label,
            summary=summary or _first_doc_line(cls), aliases=tuple(aliases))
        self._entries[entry_id] = entry
        for alias in aliases:
            self._aliases[alias] = entry_id
        return entry

    # -------------------------------------------------------------- #
    # Lookup
    # -------------------------------------------------------------- #
    def get(self, entry_id: str) -> RegistryEntry:
        """Resolve an id or alias to its entry (raising on unknown names)."""
        canonical = self._aliases.get(entry_id, entry_id)
        if canonical not in self._entries:
            raise ConfigurationError(
                f"unknown {self.kind_label} {entry_id!r}; "
                f"registered: {self.available()}")
        return self._entries[canonical]

    def __contains__(self, entry_id: str) -> bool:
        return entry_id in self._entries or entry_id in self._aliases

    def available(self) -> List[str]:
        """Sorted canonical ids."""
        return sorted(self._entries)

    def entries(self) -> List[RegistryEntry]:
        """Entries sorted by id."""
        return [self._entries[entry_id] for entry_id in self.available()]

    def entry_for_class(self, cls: type) -> Optional[RegistryEntry]:
        """The entry registered for exactly ``cls`` (None when unregistered)."""
        for entry in self._entries.values():
            if entry.cls is cls:
                return entry
        return None


def _first_doc_line(cls: type) -> str:
    doc = (cls.__doc__ or "").strip()
    return doc.splitlines()[0] if doc else cls.__name__


#: The two registries every scenario resolves through.
ATTACKS = ComponentRegistry("attack")
DEFENSES = ComponentRegistry("defense")


def _default_attack_factory(cls: type, network, constraints, params: Mapping,
                            context) -> object:
    """Construct ``cls(network, constraints=..., **params)`` (the common shape)."""
    return cls(network, constraints=constraints, **dict(params))


def register_attack(attack_id: str, *, params: Sequence[Param] = (),
                    factory: Optional[Callable] = None, kind: str = "attack",
                    aliases: Sequence[str] = (), summary: Optional[str] = None):
    """Class decorator registering an attack under ``attack_id``.

    The decorator stamps ``cls.name = attack_id`` so every
    :class:`~repro.attacks.base.AttackResult` the attack packages carries its
    registry id (never the base-class ``"attack"`` placeholder).

    ``factory(cls, network, constraints, params, context)`` builds a ready
    attack; the default passes ``params`` straight to the constructor.
    ``kind="live"`` marks source-level attacks the scenario engine runs
    through the live-sandbox flow instead of the feature-matrix flow.
    """
    def decorator(cls: type) -> type:
        cls.name = attack_id
        ATTACKS.register(attack_id, cls, params=params,
                         factory=factory or _default_attack_factory,
                         kind=kind, aliases=aliases, summary=summary)
        return cls
    return decorator


def register_defense(defense_id: str, *, params: Sequence[Param] = (),
                     fitter: Callable, aliases: Sequence[str] = (),
                     summary: Optional[str] = None):
    """Class decorator registering a defense under ``defense_id``.

    ``fitter(cls, context, params, model=None)`` fits the defense from the
    defender's assets on an
    :class:`~repro.experiments.context.ExperimentContext` and returns a
    :class:`~repro.defenses.base.DefendedDetector`.  ``model`` optionally
    overrides the detector being defended (the serving CLI passes the served
    bundle's model so wrap-style defenses guard the endpoint actually being
    served); retraining defenses ignore it.
    """
    def decorator(cls: type) -> type:
        cls.name = defense_id
        DEFENSES.register(defense_id, cls, params=params, factory=fitter,
                          kind="defense", aliases=aliases, summary=summary)
        return cls
    return decorator


# ------------------------------------------------------------------ #
# Defense resolution (with per-context memoisation)
# ------------------------------------------------------------------ #
#: context -> {(defense id, canonical params): fitted detector}.  Weakly
#: keyed so contexts (and the models their detectors hold) are collectable.
_FITTED: "weakref.WeakKeyDictionary" = weakref.WeakKeyDictionary()


def _params_key(resolved: Mapping[str, object]) -> str:
    return json.dumps(resolved, sort_keys=True, default=str)


def build_defense(defense_id: str, context, params: Optional[Mapping] = None,
                  model=None):
    """Fit (or reuse) the defended detector ``defense_id`` on ``context``.

    Fits are memoised per context and resolved-parameter set, so a Table VI
    run and an ensemble referencing the same member share one expensive fit
    (exactly as the hand-wired drivers shared detector objects).  Passing a
    ``model`` override skips the memo — the fit is specific to that bundle.
    """
    entry = DEFENSES.get(defense_id)
    resolved = entry.resolve_params(params)
    if model is not None:
        return entry.factory(entry.cls, context, resolved, model)
    memo = _FITTED.setdefault(context, {})
    key = (entry.entry_id, _params_key(resolved))
    if key not in memo:
        memo[key] = entry.factory(entry.cls, context, resolved, None)
    return memo[key]


def build_endpoint(defense_id: str, context, params: Optional[Mapping] = None,
                   model=None):
    """The detector a scoring endpoint serves behind ``defense_id``.

    ``None`` for the ``none`` defense, so the service scores with the bare
    bundle; any other id is fitted through :func:`build_defense`.  The
    result goes straight to ``ScoringService(..., detector=...)``.
    """
    ensure_registries()
    if DEFENSES.get(defense_id).entry_id == "none":
        return None
    return build_defense(defense_id, context, params, model=model)


def ensure_registries() -> None:
    """Import the attack and defense packages so every decorator has run.

    Consumers that resolve by id before touching the classes (the CLI's
    ``--defense`` choices, ``list-attacks``) call this instead of importing
    the packages directly.
    """
    importlib.import_module("repro.attacks")
    importlib.import_module("repro.defenses")
