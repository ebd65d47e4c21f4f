"""The package's public surface has one declaration: each engine module's
__all__, which orbitsieve re-exports whole."""

import importlib
import pkgutil
import types

import orbitsieve


def test_the_package_exports_the_union_of_the_module_all_lists():
    # cli is the command-line entry point and exports nothing
    names = sorted(m.name for m in pkgutil.iter_modules(orbitsieve.__path__))
    assert names == [
        "cli", "localglobal", "numtheory", "orbit", "projective", "ratmap", "zsigmondy"
    ]
    declared = {}
    for name in names[1:]:
        module = importlib.import_module(f"orbitsieve.{name}")
        for public in module.__all__:
            assert public not in declared, f"{public} is declared twice"
            declared[public] = module
    exported = {
        name
        for name, value in vars(orbitsieve).items()
        if not name.startswith("_") and not isinstance(value, types.ModuleType)
    }
    assert exported == set(declared)
    for name, module in declared.items():
        assert getattr(orbitsieve, name) is getattr(module, name), name
