"""Name-based registries for schemes, field layouts and placements.

The experiment layer refers to every pluggable piece — deployment scheme,
field layout, initial-placement strategy — by a registered name, so that
specs (:mod:`repro.api.scenario`, :mod:`repro.api.specs`) stay plain,
JSON-serializable data.  Registration is decorator-based::

    from repro.api import register_scheme, SchemeAdapter

    @register_scheme("MyScheme")
    class MySchemeAdapter(SchemeAdapter):
        name = "MyScheme"
        def execute(self, spec):
            ...

Lookups are case-insensitive and an unknown name raises a :class:`KeyError`
that lists the available names, so typos fail loudly and helpfully.
"""

from __future__ import annotations

from typing import Dict, Iterator, List, TypeVar

__all__ = [
    "Registry",
    "scheme_registry",
    "layout_registry",
    "placement_registry",
    "register_scheme",
    "register_layout",
    "register_placement",
]

T = TypeVar("T")


class Registry:
    """A case-insensitive name -> object registry with helpful errors."""

    def __init__(self, kind: str):
        self.kind = kind
        #: canonical name -> registered object.
        self._entries: Dict[str, object] = {}
        #: casefolded name -> canonical name.
        self._index: Dict[str, str] = {}

    # ------------------------------------------------------------------
    # Registration
    # ------------------------------------------------------------------
    def register(self, name: str, obj: object = None):
        """Register ``obj`` under ``name``; usable as a decorator.

        When used as a decorator (``obj`` omitted) the decorated object is
        registered and returned unchanged; classes are instantiated with no
        arguments first, so ``@register_scheme("X")`` on an adapter class
        registers a ready-to-use adapter instance.
        """
        if obj is None:

            def decorator(decorated):
                instance = decorated() if isinstance(decorated, type) else decorated
                self.register(name, instance)
                return decorated

            return decorator
        key = name.casefold()
        canonical = self._index.get(key)
        if canonical is not None:
            if canonical == name and self._entries[canonical] is obj:
                return obj  # idempotent re-registration
            raise ValueError(
                f"{self.kind} {name!r} is already registered (as "
                f"{canonical!r}); unregister it first to replace it"
            )
        self._entries[name] = obj
        self._index[key] = name
        return obj

    def unregister(self, name: str) -> None:
        """Remove a registered entry (primarily for tests)."""
        canonical = self._index.pop(name.casefold(), None)
        if canonical is None:
            raise KeyError(self._unknown_message(name))
        del self._entries[canonical]

    # ------------------------------------------------------------------
    # Lookup
    # ------------------------------------------------------------------
    def get(self, name: str):
        """The object registered under ``name`` (case-insensitive).

        Raises :class:`KeyError` naming the available entries otherwise.
        """
        canonical = self._index.get(str(name).casefold())
        if canonical is None:
            raise KeyError(self._unknown_message(name))
        return self._entries[canonical]

    def names(self) -> List[str]:
        """All registered canonical names, sorted."""
        return sorted(self._entries)

    def _unknown_message(self, name: str) -> str:
        return (
            f"unknown {self.kind} {name!r}; available: {self.names()}"
        )

    def __contains__(self, name: str) -> bool:
        return str(name).casefold() in self._index

    def __iter__(self) -> Iterator[str]:
        return iter(self.names())

    def __len__(self) -> int:
        return len(self._entries)

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"Registry({self.kind}: {self.names()})"


#: Deployment schemes (engine-driven and analytic alike),
#: keyed by the name used in :class:`repro.api.specs.RunSpec`.
scheme_registry = Registry("scheme")

#: Field layouts, keyed by the name used in
#: :class:`repro.api.scenario.ScenarioSpec`; entries are callables
#: ``(size, **params) -> Field``.
layout_registry = Registry("field layout")

#: Initial-placement strategies; entries are callables
#: ``(config, field, rng, **params) -> List[Vec2]``.
placement_registry = Registry("placement")


def register_scheme(name: str):
    """Decorator registering a :class:`SchemeAdapter` (class or instance)."""
    return scheme_registry.register(name)


def register_layout(name: str):
    """Decorator registering a field-layout builder ``(size, **params) -> Field``."""
    return layout_registry.register(name)


def register_placement(name: str):
    """Decorator registering a placement ``(config, field, rng, **params) -> positions``."""
    return placement_registry.register(name)


# ----------------------------------------------------------------------
# Built-in field layouts
# ----------------------------------------------------------------------
def _register_builtin_layouts() -> None:
    from ..field import corridor_field, obstacle_free_field, two_obstacle_field

    @register_layout("obstacle-free")
    def obstacle_free(size: float):
        """The obstacle-free field of Figures 3(a,b) / 8(a,b) and Figs 9-12."""
        return obstacle_free_field(size)

    @register_layout("two-obstacle")
    def two_obstacle(size: float):
        """The two-obstacle field of Figures 3(c) / 8(c) and Table 1."""
        return two_obstacle_field(size)

    @register_layout("corridor")
    def corridor(size: float):
        """The narrow-corridor field used by tests and examples."""
        return corridor_field(size)


# ----------------------------------------------------------------------
# Built-in placement strategies
# ----------------------------------------------------------------------
def _register_builtin_placements() -> None:
    from ..field import clustered_placement, uniform_placement

    placement_registry.register("clustered", clustered_placement)
    placement_registry.register("uniform", uniform_placement)


def _register_scenario_library() -> None:
    """Load the procedural scenario subsystem so its entries self-register.

    Importing :mod:`repro.scenarios` runs the ``@register_layout`` /
    ``@register_placement`` decorators of its generator and placement
    modules.  Doing it here — rather than relying on callers importing the
    package — guarantees the names resolve wherever this registry module
    is loaded, including sweep worker processes that only ever import
    :func:`repro.api.schemes.execute_run`.
    """
    from .. import scenarios  # noqa: F401


_register_builtin_layouts()
_register_builtin_placements()
_register_scenario_library()
