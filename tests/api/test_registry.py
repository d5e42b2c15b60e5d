"""Registry round-trips and error behaviour."""

import pytest

from repro.api import (
    Registry,
    SchemeAdapter,
    layout_registry,
    placement_registry,
    register_scheme,
    scheme_registry,
)


class TestRegistry:
    def test_register_and_get_round_trip(self):
        registry = Registry("thing")
        sentinel = object()
        registry.register("Alpha", sentinel)
        assert registry.get("Alpha") is sentinel
        assert registry.get("alpha") is sentinel  # case-insensitive
        assert registry.get("ALPHA") is sentinel
        assert "alpha" in registry
        assert registry.names() == ["Alpha"]

    def test_decorator_round_trip_instantiates_classes(self):
        registry = Registry("widget")

        @registry.register("MyWidget")
        class Widget:
            pass

        assert isinstance(registry.get("mywidget"), Widget)

    def test_unknown_name_raises_with_available_list(self):
        registry = Registry("gadget")
        registry.register("One", 1)
        registry.register("Two", 2)
        with pytest.raises(KeyError, match=r"unknown gadget 'Three'.*One.*Two"):
            registry.get("Three")

    def test_duplicate_registration_rejected(self):
        registry = Registry("thing")
        registry.register("X", 1)
        with pytest.raises(ValueError, match="already registered"):
            registry.register("x", 2)
        # Re-registering the identical object is harmless (idempotent)...
        registry.register("X", 1)
        # ...but a different casing of the name is rejected even for the
        # same object (it would corrupt the canonical-name table).
        with pytest.raises(ValueError, match="already registered"):
            registry.register("x", 1)
        assert registry.names() == ["X"]
        assert len(registry) == 1

    def test_unregister(self):
        registry = Registry("thing")
        registry.register("Gone", 1)
        registry.unregister("gone")
        assert "Gone" not in registry
        with pytest.raises(KeyError):
            registry.unregister("Gone")


class TestBuiltinRegistries:
    def test_builtin_schemes_registered(self):
        for name in ("CPVF", "FLOOR", "VOR", "Minimax", "OPT", "OPT-Hungarian"):
            assert name in scheme_registry
            assert isinstance(scheme_registry.get(name), SchemeAdapter)

    def test_builtin_layouts_and_placements(self):
        for name in ("obstacle-free", "two-obstacle", "corridor", "random-obstacles"):
            assert name in layout_registry
        for name in ("clustered", "uniform"):
            assert name in placement_registry

    def test_unknown_scheme_lists_available(self):
        with pytest.raises(KeyError, match=r"unknown scheme.*CPVF.*FLOOR"):
            scheme_registry.get("definitely-not-a-scheme")

    def test_layout_builders_build_fields(self):
        free = layout_registry.get("obstacle-free")(200.0)
        assert free.width == 200.0 and not free.obstacles
        walled = layout_registry.get("two-obstacle")(200.0)
        assert len(walled.obstacles) == 2
        random_field = layout_registry.get("random-obstacles")(200.0, seed=5)
        assert 1 <= len(random_field.obstacles) <= 4
        # Same seed -> same layout; the field is pure data from its params.
        again = layout_registry.get("random-obstacles")(200.0, seed=5)
        assert [o.bounding_box() for o in random_field.obstacles] == [
            o.bounding_box() for o in again.obstacles
        ]

    def test_register_scheme_decorator_round_trip(self):
        @register_scheme("TestOnlyScheme")
        class TestOnlyAdapter(SchemeAdapter):
            name = "TestOnlyScheme"

            def execute(self, spec):  # pragma: no cover - never run
                raise NotImplementedError

        try:
            assert scheme_registry.get("testonlyscheme").name == "TestOnlyScheme"
        finally:
            scheme_registry.unregister("TestOnlyScheme")
