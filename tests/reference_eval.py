"""Reference evaluator for the term language: a tree-walking interpreter
that dispatches on the node type at every visit.

It is the oracle of the differential tests in ``test_term_compiler.py``.
Its evaluation order and error messages define the behaviour the compiled
evaluator in :mod:`unfold.terms` must reproduce. It is the match-based
interpreter that ``unfold.terms`` used before closure compilation, with
three changes: an unknown comparison operator raises ``EvaluationError``
rather than ``KeyError``, a sequence is any value
:func:`unfold.values.is_seq` accepts, a tuple or a view of an append-only
log (a cursor's visited sequence), and a value in an error message is
printed through :func:`unfold.values.bounded_repr`. Closures it creates are ordinary
:class:`unfold.terms.Closure` values, applied here by :func:`apply_lambda`.
"""

from __future__ import annotations

from typing import Union

from unfold.errors import EvaluationError
from unfold.terms import (
    AddElem, And, App, Arith, BoolLit, Closure, Cmp, ConstValue, CopyTerm,
    DiffOp, Distinct, EmptySetLit, Env, Field, Flatten, ForallMem,
    ForallRange, Implies, Index, IntLit, InterOp, Lambda, Len, LetTuple,
    Levels, Mem, Not, Or, Pattern, Prefix, Reverse, SeqLit, SetOf, Subset,
    SumTerm, Term, TuplePat, TupleTerm, UnionOp, UnitLit, Var, VarPat,
    sum_range,
)
from unfold.values import (
    EMPTY_SET, FiniteSet, Value, bounded_repr, deref, is_seq, value_eq,
)


def _bind_pattern(env: dict, pat: Pattern, value: Value) -> None:
    if isinstance(pat, VarPat):
        env[pat.name] = value
        return
    if not is_seq(value) or len(value) != len(pat.names):
        raise EvaluationError(
            f"cannot destructure {bounded_repr(value)} into {len(pat.names)} names"
        )
    for name, item in zip(pat.names, value):
        env[name] = item


def apply_lambda(f: Union[Closure, Lambda], args: list) -> Value:
    """Apply a lambda to arguments; partial application returns a closure."""
    if isinstance(f, Lambda):
        f = Closure(f, {})
    if not isinstance(f, Closure):
        raise EvaluationError(f"cannot apply non-function value {bounded_repr(f)}")
    supplied = f.bound + tuple(args)
    if len(supplied) > f.arity:
        raise EvaluationError(
            f"arity exceeded: lambda of {f.arity} parameters applied to "
            f"{len(supplied)} arguments"
        )
    if len(supplied) < f.arity:
        return Closure(f.lam, f.env, supplied)
    env = dict(f.env)
    for pat, value in zip(f.lam.params, supplied):
        _bind_pattern(env, pat, value)
    return eval_term(f.lam.body, env)


def _as_int(v: Value, what: str) -> int:
    if isinstance(v, bool):
        return int(v)
    if isinstance(v, int):
        return v
    raise EvaluationError(f"{what} expected an integer, got {bounded_repr(v)}")


def _as_bool(v: Value, what: str) -> bool:
    if isinstance(v, bool):
        return v
    raise EvaluationError(f"{what} expected a boolean, got {bounded_repr(v)}")


def _as_seq(v: Value, what: str) -> tuple:
    if is_seq(v):
        return v
    raise EvaluationError(f"{what} expected a sequence, got {bounded_repr(v)}")


def _as_set(v: Value, what: str) -> FiniteSet:
    """Set operators accept sequences by taking their set of elements."""
    if isinstance(v, FiniteSet):
        return v
    if is_seq(v):
        return FiniteSet(v)
    raise EvaluationError(f"{what} expected a set or sequence, got {bounded_repr(v)}")


def eval_term(t: Term, env: Env) -> Value:
    """Evaluate ``t`` under ``env``. Deterministic and terminating."""
    match t:
        case Var(name):
            try:
                return deref(env[name])
            except KeyError:
                raise EvaluationError(f"unbound variable '{name}'") from None
        case IntLit(value):
            return value
        case BoolLit(value):
            return value
        case UnitLit():
            return None
        case Arith(op, left, right):
            a = _as_int(eval_term(left, env), f"'{op}'")
            b = _as_int(eval_term(right, env), f"'{op}'")
            if op == "+":
                return a + b
            if op == "-":
                return a - b
            if op == "*":
                return a * b
            raise EvaluationError(f"unknown arithmetic operator '{op}'")
        case Cmp(op, left, right):
            a = eval_term(left, env)
            b = eval_term(right, env)
            if op == "=":
                return value_eq(a, b)
            if op == "<>":
                return not value_eq(a, b)
            ia = _as_int(a, f"'{op}'")
            ib = _as_int(b, f"'{op}'")
            if op not in ("<", "<=", ">", ">="):
                raise EvaluationError(f"unknown comparison operator '{op}'")
            return {"<": ia < ib, "<=": ia <= ib,
                    ">": ia > ib, ">=": ia >= ib}[op]
        case And(left, right):
            return (_as_bool(eval_term(left, env), "'/\\'")
                    and _as_bool(eval_term(right, env), "'/\\'"))
        case Or(left, right):
            return (_as_bool(eval_term(left, env), "'\\/'")
                    or _as_bool(eval_term(right, env), "'\\/'"))
        case Not(inner):
            return not _as_bool(eval_term(inner, env), "'not'")
        case Implies(left, right):
            if not _as_bool(eval_term(left, env), "'->'"):
                return True
            return _as_bool(eval_term(right, env), "'->'")
        case Len(inner):
            v = eval_term(inner, env)
            if is_seq(v) or isinstance(v, FiniteSet):
                return len(v)
            raise EvaluationError(
                f"'len' expected a sequence or set, got {bounded_repr(v)}")
        case Index(seq, index):
            s = _as_seq(eval_term(seq, env), "indexing")
            i = _as_int(eval_term(index, env), "index")
            if not 0 <= i < len(s):
                raise EvaluationError(
                    f"index {i} out of range for sequence of length {len(s)}"
                )
            return s[i]
        case Prefix(seq, upto):
            s = _as_seq(eval_term(seq, env), "'prefix'")
            k = _as_int(eval_term(upto, env), "'prefix' bound")
            if k < 0:
                raise EvaluationError(f"negative slice bound {k}")
            if k > len(s):
                raise EvaluationError(
                    f"slice bound {k} out of range for sequence of length {len(s)}"
                )
            return s[:k]
        case Reverse(inner):
            return tuple(reversed(_as_seq(eval_term(inner, env), "'reverse'")))
        case Distinct(inner):
            s = _as_seq(eval_term(inner, env), "'distinct'")
            return len(FiniteSet(s)) == len(s)
        case TupleTerm(items):
            return tuple(eval_term(item, env) for item in items)
        case SeqLit(items):
            return tuple(eval_term(item, env) for item in items)
        case LetTuple(names, rhs, body):
            v = eval_term(rhs, env)
            inner_env = dict(env)
            _bind_pattern(inner_env, TuplePat(names), v)
            return eval_term(body, inner_env)
        case SetOf(inner):
            return FiniteSet(_as_seq(eval_term(inner, env), "'setof'"))
        case Mem(elem, coll):
            x = eval_term(elem, env)
            c = eval_term(coll, env)
            if is_seq(c):
                return any(value_eq(x, e) for e in c)
            if isinstance(c, FiniteSet):
                return x in c
            raise EvaluationError(
                f"'mem' expected a set or sequence, got {bounded_repr(c)}")
        case Subset(left, right):
            return _as_set(eval_term(left, env), "'subset'").subset(
                _as_set(eval_term(right, env), "'subset'"))
        case UnionOp(left, right):
            return _as_set(eval_term(left, env), "'union'").union(
                _as_set(eval_term(right, env), "'union'"))
        case InterOp(left, right):
            return _as_set(eval_term(left, env), "'inter'").inter(
                _as_set(eval_term(right, env), "'inter'"))
        case DiffOp(left, right):
            return _as_set(eval_term(left, env), "'diff'").diff(
                _as_set(eval_term(right, env), "'diff'"))
        case AddElem(elem, coll):
            return _as_set(eval_term(coll, env), "'add'").add(
                eval_term(elem, env))
        case EmptySetLit():
            return EMPTY_SET
        case Field(inner, name):
            v = eval_term(inner, env)
            getter = getattr(v, f"field_{name}", None)
            if getter is None:
                raise EvaluationError(f"value {bounded_repr(v)} has no field '.{name}'")
            return getter()
        case ForallRange(var, lo, hi, body):
            lo_v = _as_int(eval_term(lo, env), "quantifier bound")
            hi_v = _as_int(eval_term(hi, env), "quantifier bound")
            inner_env = dict(env)
            for i in range(lo_v, hi_v):
                inner_env[var] = i
                if not _as_bool(eval_term(body, inner_env), "quantifier body"):
                    return False
            return True
        case ForallMem(var, coll, body):
            c = eval_term(coll, env)
            if not (is_seq(c) or isinstance(c, FiniteSet)):
                raise EvaluationError(
                    f"quantifier domain must be a set or sequence, got {bounded_repr(c)}"
                )
            inner_env = dict(env)
            for e in c:
                inner_env[var] = e
                if not _as_bool(eval_term(body, inner_env), "quantifier body"):
                    return False
            return True
        case Lambda():
            return Closure(t, dict(env))
        case App(fn, args):
            f = eval_term(fn, env)
            vals = [eval_term(a, env) for a in args]
            if isinstance(f, Closure):
                return apply_lambda(f, vals)
            if callable(f):
                return f(*vals)
            raise EvaluationError(f"cannot apply non-function value {bounded_repr(f)}")
        case SumTerm(fn, lo, hi):
            f = eval_term(fn, env)
            lo_v = _as_int(eval_term(lo, env), "'sum' bound")
            hi_v = _as_int(eval_term(hi, env), "'sum' bound")
            if isinstance(f, Closure):
                body = lambda i: apply_lambda(f, [i])
            elif callable(f):
                body = f
            else:
                raise EvaluationError(f"'sum' expected a function, got {bounded_repr(f)}")
            return sum_range(lambda i: _as_int(body(i), "'sum' body"), lo_v, hi_v)
        case Flatten(inner):
            v = eval_term(inner, env)
            flat = getattr(v, "flatten", None)
            if flat is None:
                raise EvaluationError(f"'flatten' expected a tree, got {bounded_repr(v)}")
            return flat()
        case Levels(inner):
            v = eval_term(inner, env)
            levels = getattr(v, "levels", None)
            if levels is None:
                raise EvaluationError(f"'levels' expected a tree, got {bounded_repr(v)}")
            return levels()
        case CopyTerm(inner):
            v = eval_term(inner, env)
            copy = getattr(v, "copy", None)
            if copy is None:
                raise EvaluationError(f"'copy' expected a graph, got {bounded_repr(v)}")
            return copy()
        case ConstValue(value):
            return value
        case _:
            raise EvaluationError(f"unknown term node {t!r}")
