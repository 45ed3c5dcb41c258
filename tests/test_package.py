"""The package's public names: the union of its modules' __all__ lists."""

import types

import proxitop
from proxitop import borsuk, geometry, io, proximity, surfaces

MODULES = (borsuk, geometry, io, proximity, surfaces)


def test_each_module_name_is_the_package_name():
    for module in MODULES:
        for name in module.__all__:
            assert getattr(proxitop, name) is getattr(module, name), (module.__name__, name)


def test_package_exports_exactly_the_union_of_module_lists():
    public = {
        name
        for name, value in vars(proxitop).items()
        if (name == "__version__" or not name.startswith("_")) and not isinstance(value, types.ModuleType)
    }
    union = set().union(*(module.__all__ for module in MODULES))
    # no name is listed by two modules
    assert sum(len(module.__all__) for module in MODULES) == len(union)
    assert public == union | {"__version__"}
