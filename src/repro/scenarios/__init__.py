"""One declarative run API over registry-driven attacks, defenses and models.

The paper's whole contribution is a grid — attacks x defenses evaluated on
one detector — and this package is that grid as an API:

* :mod:`repro.scenarios.registry` — ``AttackRegistry`` / ``DefenseRegistry``
  populated by ``@register_attack`` / ``@register_defense`` decorators on the
  classes themselves, each entry carrying a typed parameter schema;
* :mod:`repro.scenarios.spec` — the frozen :class:`ScenarioSpec` value
  object (attack id + params, defense id + params, crafting surface, scale,
  seed, dtype, constraint operating point) with JSON round-trips and grid
  expansion;
* :mod:`repro.scenarios.runner` — ``run_scenario(spec) -> ScenarioReport``,
  the engine the figure/table drivers, the CLI and the serving registry are
  thin clients of.

Quickstart::

    from repro.scenarios import ScenarioSpec, run_scenario

    report = run_scenario(ScenarioSpec(
        attack="jsma", defense="feature_squeezing",
        model="substitute", scale="tiny", theta=0.1, gamma=0.02))
    print(report.render())

``run_scenario`` / ``ScenarioReport`` are provided lazily (PEP 562): the
registry decorators live in attack/defense modules, so importing the engine
eagerly here would cycle back through them.
"""

from repro.scenarios.registry import (
    ATTACKS,
    DEFENSES,
    ComponentRegistry,
    Param,
    RegistryEntry,
    build_defense,
    build_endpoint,
    ensure_registries,
    register_attack,
    register_defense,
)
from repro.scenarios.spec import MODEL_KINDS, ScenarioSpec

__all__ = [
    "ATTACKS",
    "DEFENSES",
    "ComponentRegistry",
    "Param",
    "RegistryEntry",
    "MODEL_KINDS",
    "ScenarioSpec",
    "ScenarioReport",
    "register_attack",
    "register_defense",
    "build_defense",
    "build_endpoint",
    "ensure_registries",
    "run_scenario",
]

_LAZY = {"run_scenario", "ScenarioReport"}


def __getattr__(name: str):
    if name in _LAZY:
        from repro.scenarios import runner

        return getattr(runner, name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


def __dir__():
    return sorted(set(globals()) | _LAZY)
