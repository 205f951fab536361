"""Value semantics of the record types: equality, hash, immutability, pickling, repr."""

import inspect
import json
import pickle
from types import SimpleNamespace

import pytest

from pardiff.cli import main
from pardiff.engine import PeriodReport
from pardiff.graphs import PathGraph, SimpleGraph
from pardiff.lemmas import AsymptoticModel
from pardiff.oracle import OracleResult
from pardiff.verify import CheckResult, VerifyConfig


# Each factory builds a fresh record, so two calls give equal, distinct objects.
FACTORIES = {
    "SimpleGraph": lambda: SimpleGraph(3, frozenset({(1, 2), (2, 3)})),
    "PathGraph": lambda: PathGraph(4),
    "PeriodReport": lambda: PeriodReport(1, 2, ((0, 1), (1, 0))),
    "OracleResult": lambda: OracleResult(2, 3, ((0, 1), (0, -1)), 2),
    "AsymptoticModel": lambda: AsymptoticModel((3.6 + 0j, -0.5 + 0.2j), 3.6, 0.25),
    "VerifyConfig": lambda: VerifyConfig(max_n_oracle=5),
    "CheckResult": lambda: CheckResult("graph", "round-trip", True, seconds=0.5),
}

records = pytest.mark.parametrize("name", sorted(FACTORIES))


def _fields(record):
    """Field values by name; the fields are the constructor's parameters, in order."""
    return {name: getattr(record, name) for name in inspect.signature(type(record)).parameters}


def test_every_record_type_is_covered():
    assert len(FACTORIES) == 7
    for name, make in FACTORIES.items():
        assert type(make()).__name__ == name


@records
def test_equal_values_compare_and_hash_equal(name):
    a, b = FACTORIES[name](), FACTORIES[name]()
    assert a is not b
    assert a == b and not a != b
    assert hash(a) == hash(b)
    assert len({a, b}) == 1


@records
def test_constructor_takes_every_field_by_keyword(name):
    a = FACTORIES[name]()
    assert type(a)(**_fields(a)) == a


@records
def test_other_type_with_same_values_is_not_equal(name):
    a = FACTORIES[name]()
    twin = SimpleNamespace(**_fields(a))
    assert a.__eq__(twin) is NotImplemented
    assert a != twin and twin != a
    assert a != tuple(_fields(a).values())


@records
def test_fields_cannot_be_assigned_or_deleted(name):
    a = FACTORIES[name]()
    for field, value in _fields(a).items():
        with pytest.raises(AttributeError):
            setattr(a, field, value)
        with pytest.raises(AttributeError):
            delattr(a, field)
        assert getattr(a, field) is value
    with pytest.raises(AttributeError):
        a.not_a_field = 1


@records
def test_pickle_round_trips(name):
    a = FACTORIES[name]()
    for protocol in range(pickle.HIGHEST_PROTOCOL + 1):
        b = pickle.loads(pickle.dumps(a, protocol=protocol))
        assert type(b) is type(a)
        assert b == a, protocol


@records
def test_repr_names_the_class_and_fields(name):
    a = FACTORIES[name]()
    text = repr(a)
    assert text.startswith(f"{name}(") and text.endswith(")")
    for field, value in _fields(a).items():
        assert f"{field}={value!r}" in text


def test_different_values_compare_unequal():
    assert PathGraph(4) != PathGraph(5)
    assert PeriodReport(1, 2, ((0, 1), (1, 0))) != PeriodReport(1, 2, ((1, 0), (0, 1)))
    path_as_edges = SimpleGraph(3, frozenset({(1, 2), (2, 3)}))
    assert PathGraph(3) != path_as_edges
    assert SimpleGraph(3, frozenset({(1, 2)})) != SimpleGraph(3, frozenset({(2, 3)}))
    assert VerifyConfig() != VerifyConfig(max_n_oracle=9)


def test_verify_defaults_read_from_the_class(tmp_path):
    defaults = {
        "max_n_oracle": 8,
        "max_n_witness": 14,
        "max_n_routes": 16,
        "max_n_structure": 12,
    }
    assert VerifyConfig._fields == tuple(defaults)
    for field, value in defaults.items():
        assert getattr(VerifyConfig(), field) == value
    # the CLI leaves an omitted depth to VerifyConfig, and its manifest records the depth run
    out = tmp_path / "v.json"
    assert main(["verify", "--suites", "graph", "--out", str(out)]) == 0
    parameters = json.loads((tmp_path / "v.json.manifest.json").read_text())["parameters"]
    assert parameters == {"suites": ["graph"], **defaults}
    assert main(["verify", "--suites", "graph", "--max-n-routes", "5", "--out", str(out)]) == 0
    parameters = json.loads((tmp_path / "v.json.manifest.json").read_text())["parameters"]
    assert parameters == {"suites": ["graph"], **defaults, "max_n_routes": 5}
