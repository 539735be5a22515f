"""The AST records: every term node, lambda pattern and type expression is
a slotted :class:`unfold.terms.Record`, and behaves as the frozen dataclass
it replaces: the same fields in the same order, the same ``repr``, equality
and hashing by class and fields, no assignment, positional matching, and
pickling and copying by its fields."""

import copy
import dataclasses
import pickle
import weakref

import pytest

from unfold import terms
from unfold.dsl import render_term
from unfold.dsl.parser import TApp, TName, TTuple, TVar
from unfold.graphs import GRAPH_PREDICATES, graph_of
from unfold.terms import Term, TuplePat, VarPat

#: the field order of each record, as the dataclass declared it
FIELDS = {
    "Var": ["name"], "IntLit": ["value"], "BoolLit": ["value"], "UnitLit": [],
    "Arith": ["op", "left", "right"], "Cmp": ["op", "left", "right"],
    "And": ["left", "right"], "Or": ["left", "right"], "Not": ["term"],
    "Implies": ["left", "right"], "Len": ["term"], "Index": ["seq", "index"],
    "Prefix": ["seq", "upto"], "Reverse": ["term"], "Distinct": ["term"],
    "TupleTerm": ["items"], "SeqLit": ["items"],
    "LetTuple": ["names", "rhs", "body"], "SetOf": ["term"],
    "Mem": ["elem", "coll"], "Subset": ["left", "right"],
    "UnionOp": ["left", "right"], "InterOp": ["left", "right"],
    "DiffOp": ["left", "right"], "AddElem": ["elem", "coll"],
    "EmptySetLit": [], "Field": ["term", "name"],
    "ForallRange": ["var", "lo", "hi", "body"],
    "ForallMem": ["var", "coll", "body"], "Lambda": ["params", "body"],
    "App": ["fn", "args"], "SumTerm": ["fn", "lo", "hi"],
    "Flatten": ["term"], "Levels": ["term"], "CopyTerm": ["term"],
    "ConstValue": ["value"],
    "VarPat": ["name"], "TuplePat": ["names"],
    "TVar": ["name"], "TName": ["name"], "TApp": ["base", "param"],
    "TTuple": ["parts"],
}
RECORDS = [*Term.__subclasses__(), VarPat, TuplePat, TVar, TName, TApp, TTuple]
SAMPLES = (terms.Var("x"), 3, ("a", terms.IntLit(1)), "s")


def sample(cls, shift=0):
    return tuple(SAMPLES[(k + shift) % len(SAMPLES)]
                 for k in range(len(cls.__match_args__)))


def test_every_record_is_pinned():
    assert sorted(cls.__name__ for cls in RECORDS) == sorted(FIELDS)


@pytest.mark.parametrize("cls", RECORDS, ids=lambda cls: cls.__name__)
class TestRecord:
    def test_fields_in_the_dataclass_order(self, cls):
        assert list(cls.__match_args__) == FIELDS[cls.__name__]

    def test_repr_is_the_dataclass_repr(self, cls):
        twin = dataclasses.make_dataclass(cls.__name__, FIELDS[cls.__name__],
                                          frozen=True)
        assert repr(cls(*sample(cls))) == repr(twin(*sample(cls)))

    def test_equality_and_hash_are_by_class_and_fields(self, cls):
        a, b = cls(*sample(cls)), cls(*sample(cls))
        assert a is not b and a == b and hash(a) == hash(b)
        if cls.__match_args__:
            assert a != cls(*sample(cls, shift=1))
        twin = type(cls.__name__, (terms.Record,), {"__slots__": cls.__match_args__})
        assert a != twin(*sample(cls)) and twin(*sample(cls)) != a

    def test_fields_cannot_be_assigned_or_deleted(self, cls):
        node = cls(*sample(cls))
        for name in (*cls.__match_args__, "other"):
            with pytest.raises(AttributeError):
                setattr(node, name, 0)
            with pytest.raises(AttributeError):
                delattr(node, name)
        assert node == cls(*sample(cls))

    def test_slotted_and_weakly_referable(self, cls):
        node = cls(*sample(cls))
        assert not hasattr(node, "__dict__")
        assert weakref.ref(node)() is node

    def test_the_wrong_number_of_fields_is_a_type_error(self, cls):
        values = sample(cls)
        with pytest.raises(TypeError):
            cls(*values, 0)
        if values:
            with pytest.raises(TypeError):
                cls(*values[:-1])

    def test_positional_match_binds_the_fields_in_order(self, cls):
        values = sample(cls)
        match len(values), cls(*values):
            case 0, cls():
                got = ()
            case 1, cls(a):
                got = (a,)
            case 2, cls(a, b):
                got = (a, b)
            case 3, cls(a, b, c):
                got = (a, b, c)
            case 4, cls(a, b, c, d):
                got = (a, b, c, d)
        assert got == values


def test_and_or_differ():
    a, b = terms.Var("a"), terms.Var("b")
    assert terms.And(a, b) != terms.Or(a, b)
    assert terms.And(a, b) == terms.And(terms.Var("a"), terms.Var("b"))


@pytest.mark.parametrize("name", list(GRAPH_PREDICATES))
@pytest.mark.parametrize("clone", [lambda t: pickle.loads(pickle.dumps(t)),
                                   copy.deepcopy], ids=["pickle", "deepcopy"])
def test_a_compiled_lambda_round_trips_to_an_equal_node(name, clone):
    lam = GRAPH_PREDICATES[name].lam
    terms.compile_term(lam.body)  # compiled as the graph operations run it
    got = clone(lam)
    assert got is not lam and got == lam and hash(got) == hash(lam)
    assert repr(got) == repr(lam) and render_term(got) == render_term(lam)
    assert getattr(got, "_run", None) is None


def test_a_copied_invariant_checks_as_the_original():
    g = graph_of([0, 1, 2], [(0, 1), (1, 2)])
    lam = GRAPH_PREDICATES["check_path_inv"].lam
    for t in (lam, pickle.loads(pickle.dumps(lam)), copy.deepcopy(lam)):
        f = terms.eval_term(t, {})
        assert terms.apply_lambda(f, [g, True, (0, 1, 2)]) is True
        assert terms.apply_lambda(f, [g, False, (0, 2)]) is True
        assert terms.apply_lambda(f, [g, True, (2, 0)]) is False
