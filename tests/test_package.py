"""The package namespace: each public name resolves on first use to the
object its home module defines."""

import importlib

import pytest

import skelforge


class TestNamespace:
    @pytest.mark.parametrize("name", skelforge.__all__)
    def test_public_name_is_its_home_modules_object(self, name):
        value = getattr(skelforge, name)
        home = importlib.import_module(value.__module__)
        assert home.__name__.startswith("skelforge.")
        assert getattr(home, name) is value

    def test_star_import_binds_exactly_all(self):
        scope = {}
        exec("from skelforge import *", scope)
        del scope["__builtins__"]
        assert sorted(scope) == sorted(skelforge.__all__)

    def test_unknown_attribute_raises(self):
        with pytest.raises(AttributeError, match="no_such_name"):
            skelforge.no_such_name
        assert not hasattr(skelforge, "no_such_name")

    def test_modules_import_by_name(self):
        from skelforge import classify, nets, ops, serialization

        assert [m.__name__ for m in (classify, nets, ops, serialization)] == [
            "skelforge.classify", "skelforge.nets", "skelforge.ops",
            "skelforge.serialization"]
        assert skelforge.__version__ == "0.1.0"
