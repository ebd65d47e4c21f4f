"""Tests for the package's value classes: none is a dataclass, importing the
CLI loads no dataclass machinery, and each value survives pickling and
copying as an equal value of its class, rebuilt through its checks."""

import copy
import dataclasses
import importlib
import inspect
import os
import pickle
import pkgutil
import subprocess
import sys

import pytest

import orbitsieve
from orbitsieve import (
    Budgets,
    DecisionProblem,
    Factorization,
    PrimePowerModulus,
    RationalMap,
    decide,
    factorize,
    parse_map,
)


def _modules():
    names = [f"orbitsieve.{m.name}" for m in pkgutil.iter_modules(orbitsieve.__path__)]
    return [orbitsieve] + [importlib.import_module(name) for name in names]


def test_no_class_in_the_package_is_a_dataclass():
    classes = {
        obj
        for module in _modules()
        for obj in vars(module).values()
        if inspect.isclass(obj) and obj.__module__.startswith("orbitsieve")
    }
    assert {RationalMap, Budgets, PrimePowerModulus} <= classes
    assert [cls for cls in classes if dataclasses.is_dataclass(cls)] == []


def test_importing_the_cli_loads_no_dataclass_machinery():
    # a fresh interpreter, since this one has loaded dataclasses for pytest
    package_parent = os.path.dirname(orbitsieve.__path__[0])
    path = os.pathsep.join(filter(None, [package_parent, os.environ.get("PYTHONPATH")]))
    code = "import sys, orbitsieve.cli; print(sorted({'dataclasses', 'inspect'} & set(sys.modules)))"
    out = subprocess.run(
        [sys.executable, "-c", code],
        env={**os.environ, "PYTHONPATH": path},
        capture_output=True,
        text=True,
        check=True,
    ).stdout
    assert out.strip() == "[]"


def _values():
    phi = parse_map("z^2-1")
    problem = DecisionProblem.make(phi, 3, [0, 5], (7,), Budgets(day_steps=9))
    return [
        Budgets(),
        Budgets(3, 4, 5, 6),
        PrimePowerModulus(5, 2),
        factorize(360),
        problem,
        decide(problem),
        RationalMap.make([1, 0, 2], [3, 0, 0], ["a note"]),
        phi,
    ]


@pytest.mark.parametrize("protocol", range(2, pickle.HIGHEST_PROTOCOL + 1))
def test_values_pickle_to_an_equal_value_of_the_same_class(protocol):
    for value in _values():
        loaded = pickle.loads(pickle.dumps(value, protocol))
        assert type(loaded) is type(value) and loaded == value, value
        assert repr(loaded) == repr(value)


def test_values_hold_no_instance_dict():
    assert [v for v in _values() if hasattr(v, "__dict__")] == []


def test_values_deep_copy_to_an_equal_value_of_the_same_class():
    for value in _values():
        for copied in (copy.copy(value), copy.deepcopy(value)):
            assert type(copied) is type(value) and copied == value, value


def test_a_loaded_map_keeps_its_derived_fields():
    phi = RationalMap.make([-1, 0, 1], [1, 0, 0], ["a note"])
    loaded = pickle.loads(pickle.dumps(phi))
    for name in RationalMap.__slots__:
        assert getattr(loaded, name) == getattr(phi, name), name
    assert loaded.evaluate(3) == phi.evaluate(3)


def test_loading_goes_through_the_checking_constructor():
    data = pickle.dumps(Budgets(day_steps=7))
    assert data.count(b"K\x07") == 1  # the one small int 7
    assert pickle.loads(data) == Budgets(day_steps=7)
    with pytest.raises(ValueError, match="day_steps"):
        pickle.loads(data.replace(b"K\x07", b"K\x00"))
    data = pickle.dumps(PrimePowerModulus(5, 2))
    assert data.count(b"K\x05") == 1
    with pytest.raises(ValueError, match="not prime"):
        pickle.loads(data.replace(b"K\x05", b"K\x06"))
    data = pickle.dumps(Factorization(12, ((2, 2), (3, 1))))
    assert data.count(b"K\x0c") == 1
    with pytest.raises(ValueError, match="multiply back"):
        pickle.loads(data.replace(b"K\x0c", b"K\x0d"))


def test_a_map_with_notes_equals_and_hashes_like_the_map_without():
    plain = RationalMap.make([1, 0, 2], [3, 0, 0])
    noted = RationalMap.make([1, 0, 2], [3, 0, 0], ["cancelled a common factor"])
    assert noted.notes and not plain.notes
    assert noted == plain and hash(noted) == hash(plain)
    assert len({plain, noted}) == 1
    assert noted != RationalMap.make([1, 0, 3], [3, 0, 0])
    assert noted != (plain.F, plain.G)


def test_a_map_is_immutable():
    phi = parse_map("z^2-1")
    for name in ("F", "res", "notes", "height_loss_bits", "other"):
        with pytest.raises(AttributeError):
            setattr(phi, name, 0)
    assert phi == parse_map("z^2-1")
    assert not hasattr(phi, "__dict__")
