import importlib
import inspect
import pkgutil

import pytest

import kslab

MODULES = [importlib.import_module(f"kslab.{m.name}") for m in pkgutil.iter_modules(kslab.__path__)]


@pytest.mark.parametrize("mod", [m for m in MODULES if hasattr(m, "__all__")], ids=lambda m: m.__name__)
def test_all_names_exist_and_list_every_public_definition(mod):
    # every name in __all__ exists, and every public function or class
    # defined in the module is listed
    missing = [name for name in mod.__all__ if not hasattr(mod, name)]
    assert missing == []
    defined = [
        name
        for name, obj in vars(mod).items()
        if not name.startswith("_")
        and (inspect.isfunction(obj) or inspect.isclass(obj))
        and obj.__module__ == mod.__name__
    ]
    assert sorted(set(defined) - set(mod.__all__)) == []
