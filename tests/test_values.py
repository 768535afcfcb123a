"""The contract shared by every value class: equality within one class,
hashing, repr, immutability, keyword construction, pickling and copying."""

import copy
import gc
import importlib
import inspect
import os
import pickle
import re
import subprocess
import sys
import weakref
from pathlib import Path

import pytest

from aql.arthur import ChiPair, ParameterRestriction
from aql.convergence import AtlasRow, ChainStep, ConvergenceCertificate
from aql.halfint import CharMultiset, Frozen, Weight
from aql.parabolic import (
    LambdaCharacter, ThetaStableAlgebra, _cone, degree_twice, enumerate_standard, recentred,
)
from aql.partitions import FramedPair, Partition
from aql.thetalift import LiftDatum, LiftReport, build_source, full_report

Q = ThetaStableAlgebra(((1, 0), (1, 1)))
DATUM = build_source(Q, (1, 0), 2, (1, 1))
REPORT = full_report(Q, (1, 0), 2, (1, 1))
BASE_STEP = ChainStep(blocks=ThetaStableAlgebra(((2, 0),)), r0=None)

# class -> (keyword arguments under the field names, the fields they set)
CASES = {
    Weight: ({"x": (2, 0), "y": (-1,)}, ("x", "y")),
    CharMultiset: ({"entries": [1, "1/2", 2]}, ("entries",)),
    Partition: ({"rows": [3, 1, 0]}, ("rows",)),
    FramedPair: (
        {"a": 2, "b": 3, "alpha": Partition([1]), "beta": Partition([3, 1])},
        ("a", "b", "alpha", "beta"),
    ),
    ThetaStableAlgebra: ({"blocks": [(1, 0), (1, 1)]}, ("blocks",)),
    LambdaCharacter: ({"values": [1, 0]}, ("values",)),
    ParameterRestriction: ({"summands": [("1/2", 2), (0, 1)]}, ("summands",)),
    ChiPair: (
        {"alpha1": 1, "alpha2": 1, "n": 3, "n_prime": 1},
        ("alpha1", "alpha2", "n", "n_prime"),
    ),
    LiftDatum: (
        {
            "target_q": DATUM.target_q,
            "target_lambda": DATUM.target_lambda,
            "r0": DATUM.r0,
            "chi": DATUM.chi,
            "source_q": DATUM.source_q,
            "source_lambda": DATUM.source_lambda,
            "det_shift": DATUM.det_shift,
            "mslk": DATUM.mslk,
        },
        (
            "target_q", "target_lambda", "r0", "chi", "source_q", "source_lambda", "det_shift",
            "mslk",
        ),
    ),
    LiftReport: (
        {
            "datum": REPORT.datum,
            "parameter_ok": True,
            "infchar_ok": True,
            "ktype_ok": True,
            "mindegree_ok": True,
            "bound": 3,
            "details": {"note": ["a", 1]},
        },
        ("datum", "parameter_ok", "infchar_ok", "ktype_ok", "mindegree_ok", "bound", "details"),
    ),
    ChainStep: ({"blocks": Q, "r0": 2}, ("blocks", "r0")),
    ConvergenceCertificate: ({"steps": (BASE_STEP,), "lax": False}, ("steps", "lax")),
    AtlasRow: (
        {
            "pair_alpha": (1,),
            "pair_beta": (2, 1),
            "blocks": Q,
            "R": 2,
            "R_plus": 1,
            "R_minus": 1,
            "packet_size": 3,
            "convergent": True,
            "chain": ((1, 0), (2, 1)),
        },
        (
            "pair_alpha", "pair_beta", "blocks", "R", "R_plus", "R_minus", "packet_size",
            "convergent", "chain",
        ),
    ),
}

classes = pytest.mark.parametrize("cls", list(CASES), ids=lambda cls: cls.__name__)


def build(cls):
    kwargs, _ = CASES[cls]
    return cls(**kwargs)


def field_values(value):
    return tuple(getattr(value, name) for name in CASES[type(value)][1])


@classes
def test_equal_copies_are_equal_and_hash_alike(cls):
    one, two = build(cls), build(cls)
    assert one is not two
    assert one == two and not one != two
    assert hash(one) == hash(two)


@classes
def test_a_plain_tuple_of_the_fields_is_not_equal(cls):
    value = build(cls)
    fields = field_values(value)
    assert value != fields and fields != value
    assert value.__eq__(fields) is NotImplemented


@classes
def test_assignment_and_deletion_raise_and_change_nothing(cls):
    value = build(cls)
    before = field_values(value)
    for name in CASES[cls][1]:
        with pytest.raises(AttributeError):
            setattr(value, name, None)
        with pytest.raises(AttributeError):
            delattr(value, name)
    with pytest.raises(AttributeError):
        value.unknown_field = 1
    assert field_values(value) == before
    assert value == build(cls)


@classes
def test_keyword_and_positional_construction_agree(cls):
    kwargs, _ = CASES[cls]
    assert cls(**kwargs) == cls(*kwargs.values())


@classes
def test_pickle_and_deepcopy_round_trip(cls):
    value = build(cls)
    for clone in (pickle.loads(pickle.dumps(value)), copy.deepcopy(value), copy.copy(value)):
        assert type(clone) is cls
        assert clone == value and hash(clone) == hash(value)
        assert repr(clone) == repr(value)
        with pytest.raises(AttributeError):
            setattr(clone, CASES[cls][1][0], None)


@classes
def test_fields_are_the_positional_constructor_parameters(cls):
    params = [
        p.name for p in inspect.signature(cls.__init__).parameters.values()
        if p.kind in (p.POSITIONAL_ONLY, p.POSITIONAL_OR_KEYWORD)
    ][1:]
    assert cls._fields == CASES[cls][1]
    assert list(cls._fields) == params


def test_a_new_subclass_takes_its_fields_from_its_constructor():
    class Span(Frozen):
        def __init__(self, lo, hi=0, *, width=None):
            top = hi if width is None else lo + width
            object.__setattr__(self, "lo", lo)
            object.__setattr__(self, "hi", top)

    assert Span._fields == ("lo", "hi")
    assert repr(Span(1, 3)) == "Span(lo=1, hi=3)"
    assert Span(1, width=2) == Span(1, 3) and hash(Span(1, width=2)) == hash(Span(1, 3))
    assert Span(1, 3) != Span(1, 4) and Span(1, 3) != (1, 3)


def test_an_algebra_stores_its_blocks_and_signature_only():
    assert ThetaStableAlgebra.__slots__ == ("blocks", "signature", "__weakref__")
    for name in ("levi_sizes", "total"):
        assert isinstance(vars(ThetaStableAlgebra)[name], property)


def test_algebra_copies_keep_their_sizes():
    """Checked or generated unchecked, an algebra copies with its sizes."""
    q = ThetaStableAlgebra(((2, 1), (0, 3), (1, 1)))
    generated = next(g for g in enumerate_standard(3, 5) if g == q)
    for value in (q, generated):
        for clone in (pickle.loads(pickle.dumps(value)), copy.deepcopy(value)):
            assert (clone.signature, clone.levi_sizes, clone.total) == ((3, 5), (3, 3, 2), 8)


@pytest.mark.parametrize("cls", [ThetaStableAlgebra, AtlasRow], ids=lambda cls: cls.__name__)
def test_slotted_classes_hold_no_instance_dict(cls):
    """An atlas keeps one algebra and one row per module, so both classes
    are slotted, and they still pickle under every protocol."""
    value = build(cls)
    assert not hasattr(value, "__dict__")
    for protocol in range(pickle.HIGHEST_PROTOCOL + 1):
        clone = pickle.loads(pickle.dumps(value, protocol))
        assert type(clone) is cls and clone == value
        assert field_values(clone) == field_values(value)


def test_a_slotted_algebra_takes_weak_references():
    q = build(ThetaStableAlgebra)
    ref = weakref.ref(q)
    assert ref() is q
    del q
    gc.collect()
    assert ref() is None


def test_weights_are_not_ordered():
    """The library never sorts weights; a test that needs an order names its key."""
    lo, hi = Weight((0, 0), (1,)), Weight((0, 1), (0,))
    for compare in (lambda: lo < hi, lambda: lo <= lo, lambda: hi > lo, lambda: hi >= lo):
        with pytest.raises(TypeError):
            compare()


@pytest.mark.parametrize("func", [recentred, degree_twice, _cone], ids=lambda f: f.__name__)
def test_every_degree_names_its_partner_frame(func):
    """A degree is always taken against an explicit partner signature."""
    frame = inspect.signature(func).parameters["frame"]
    assert frame.default is inspect.Parameter.empty


def test_lift_report_equality_ignores_details():
    kwargs, _ = CASES[LiftReport]
    one = LiftReport(**kwargs)
    two = LiftReport(**{**kwargs, "details": {"other": True}})
    assert one == two and hash(one) == hash(two)
    assert one != LiftReport(**{**kwargs, "mindegree_ok": False})
    assert "details={'note': ['a', 1]}" in repr(one)


def test_reprs_are_pinned():
    q = ThetaStableAlgebra(((1, 0), (1, 1)))
    assert repr(q) == "ThetaStableAlgebra(blocks=((1, 0), (1, 1)))"
    assert repr(Weight((2, 0), (-1,))) == "Weight(x=(2, 0), y=(-1,))"
    assert repr(ChiPair(1, 1, 3, 1)) == "ChiPair(alpha1=1, alpha2=1, n=3, n_prime=1)"


def test_cli_import_leaves_out_dataclasses_and_inspect():
    """Start-up cost: importing the CLI pulls in none of the heavy
    introspection modules; -S keeps site packages out of the picture."""
    heavy = ("dataclasses", "inspect", "ast", "dis", "tokenize")
    src = Path(__file__).resolve().parents[1] / "src"
    env = {**os.environ, "PYTHONPATH": str(src)}
    code = f"import sys, aql.cli; print([m for m in {heavy!r} if m in sys.modules])"
    done = subprocess.run(
        [sys.executable, "-S", "-c", code], env=env, capture_output=True, text=True, timeout=60
    )
    assert done.returncode == 0, done.stderr
    assert done.stdout == "[]\n"


def test_the_readme_layout_table_lists_every_public_name():
    """Every public name of `import aql` is in the README "Library layout"
    table, as `name` or, for a submodule, as `aql.name`; and every `name`
    in a module's row, outside its parenthesised descriptions, exists in
    that module."""
    import aql

    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text(encoding="utf-8")
    rows = [line for line in readme.split("## Library layout", 1)[1].splitlines() if line.startswith("|")]
    table = "\n".join(rows)
    missing = [
        name for name in vars(aql)
        if not name.startswith("_") and f"`{name}`" not in table and f"`aql.{name}`" not in table
    ]
    assert missing == []
    listed, stale = 0, []
    for row in rows:
        _, module, contents, _ = row.split("|")
        module = re.fullmatch(r"\s*`(aql\.\w+)`\s*", module)
        if module:  # not the header or the rule under it
            names = re.findall(r"`(\w+)`", re.sub(r"\([^)]*\)", "", contents))
            found = vars(importlib.import_module(module[1]))
            listed += len(names)
            stale += [f"{module[1]}.{name}" for name in names if name not in found]
    assert listed and stale == []
