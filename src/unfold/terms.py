r"""First-order specification term language and its closure compiler.

Permitted/complete predicates, client invariants and convergence measures
are all written in this language (programmatically or through the surface
syntax in :mod:`unfold.dsl`). Evaluation is total on well-typed input:
quantifiers are bounded, integers are unbounded, and every error is an
:class:`~unfold.errors.EvaluationError` rather than a silent approximation.

Each node is compiled once, on first evaluation, into a nested Python closure
from environments to values, which the node keeps: closure compilation, after
Feeley and Lapalme, "Using closures for code generation" (1987).

Quantifier bodies are compiled with their loop-invariant subterms hoisted.
A subterm of a ``forall`` body that reads neither the quantified variable nor
any name bound between the quantifier and the subterm (an inner ``forall``
or ``let``) gets a slot in the quantifier's memo, which is fresh at every
entry into the quantifier; a subterm invariant in nested quantifiers gets
its slot in the outermost one it can. The slot is filled the first time the
body demands it. Hoisting is lazy because eager evaluation at entry would
change behaviour and waste work: a subterm behind a short-circuiting
``/\``, ``\/`` or ``->``, or in the body of an empty domain, must not run
(it may raise), and a body that fails at its first binding should not pay
for the others. So every subterm runs at most once per entry where it used
to run once per binding, and the first error is raised at the same point
with the same message. Cheap leaves and lambdas are never hoisted, nothing
is hoisted into or out of a lambda body, and equal subterms at different
places keep separate slots, so no value is shared that plain evaluation
would have built twice.

Quantifiers compiled outside any quantifier body remember what their last
evaluation found, after Ditto (Shankar and Bodik, "DITTO: automatic
incrementalization of data structure invariant checks", PLDI 2007). Every
``permitted`` over a visited prefix, most client invariants and the graph
step invariants restate their whole input at every step of an iteration,
while it grew by one element or one edge; checking them afresh costs
quadratic time. The range forms ``forall i. lo <= i < hi -> body`` and
``sum (fun i -> body) lo hi`` keep a count, and a set form ``forall x in
S. body`` indexes its bindings. A directly nested ``forall x in A. forall
y in B. body`` whose ``B`` does not read ``x`` is one set form over the
pairs ``(x, y)``, in ``x``-major order; ``B`` is read once ``A`` is known
non-empty, as the nested form reads it. The body must apply no function
but graph fields and bind nothing but inner quantifier variables, none
named as the form's own, so that a binding's outcome depends only on what
it reads; any other body (a ``let``, a lambda) is evaluated in full.

Both forms analyse their body in one way, at compile time. What a binding
reads is a set of *probes*, each a read of one input, its *source*, at one
key of the binding: ``mem b E`` reads ``E`` at the key of ``b``, ``N.f b``
reads the row of ``b`` in the graph ``N``, ``mem b (N.f b')`` the edge from
``b'`` to ``b`` in it, ``b = E`` whether ``E``'s key is ``b``'s, and ``E[e]``
one element of ``E``, where ``b`` and ``b'`` are bound by the form, ``e``
reads only its variables, ``N`` is a name and ``E`` reads no name bound in
the body; each of the form's own hoisted slots is a probe of its whole
value. The names the body reads directly (outside probes and slots) are
its *fixed* names, which must hold the identical objects. A source has
not changed when it holds the identical object or an equal integer, or,
read by index, a longer view of the same append-only log (a
:class:`~unfold.values.SeqView`, as a cursor's visited sequence is), a
test that costs O(1) however long the prefix. Every value kept must be
closed all the way down: integers, booleans, unit, strings, and tuples and
values with a structural key that hold no mutable reference or function
anywhere inside, since a binder in the body would keep such a reference and
read its current contents. A value is checked once, and a longer view only
past the part already checked. A false or raising binding is never kept,
so every result, error and message is what a fresh evaluation gives.

A range form keeps its fixed values, its source values, its lower bound,
how many leading bindings are known to hold and, for ``sum``, their total.
The next evaluation skips those bindings when its lower bound is the same,
its upper bound is not below them, and no fixed or source value changed;
else it runs in full from ``lo``. A set form reads each probed source again
and takes its change set from the value it read last: for ``b = E`` the old
and the new key of ``E``; for ``mem b E`` the keys in one set and not the
other (:meth:`~unfold.values.FiniteSet._delta_`); for a graph the rows, or
the edges, by which two members of one change log differ (``_delta_`` in
:mod:`unfold.graphs`), read off the log without reading a row; nothing for
a source that has not changed. Any other change is unknown, and every
binding that probed that input is dirty; so is every binding when a fixed
value changed. Each binding that held is indexed by the key of each probe
it made, so the dirty bindings are the index's entries at the changed keys.
The evaluation then runs, in domain order, only the dirty bindings and
those new in the domain; when the domains are the identical objects (or
hold the identical elements in the same order) and nothing is dirty, it
visits no binding at all. A binding is kept only when its values are closed
and, if it probed by key, have a structural key.

The state of a form is one per node and is not released when the loop
ends: a range form's is one tuple, replaced whole, which keeps the values
its last evaluation read (a visited view and with it the whole log, a
graph) alive; a set form's keeps the bindings that held, the last value of
each source (a graph keeps its whole change log, a list of key pairs that
grows with its lineage) and the index, a set of binding ids per probed key,
bounded by the last domains.

A derived value is reused across checks only where the immutable value it
comes from keeps it: ``setof`` per visited view, ``flatten`` and ``levels``
per tree, the fields per graph.
"""

from __future__ import annotations

import operator
import weakref
from functools import partial
from itertools import product
from typing import Callable, Mapping, Union

from .errors import EvaluationError
from .values import (
    EMPTY_SET, FiniteSet, SeqView, Value, _Ref, bounded_repr, deref, is_seq,
    set_of, value_eq, value_key,
)


class Record:
    """An immutable record. Its fields are the names its class and bases
    declare in ``__slots__``, less private ones (``_run``); it is built,
    matched, compared, hashed, printed (as a dataclass is) and pickled by
    them, in that order, and none can be assigned or deleted."""

    __slots__ = ("__weakref__",)
    __match_args__ = ()

    def __init_subclass__(cls):
        cls.__match_args__ = cls.__match_args__ + tuple(
            name for name in cls.__dict__.get("__slots__", ()) if name[0] != "_")

    def __init__(self, *values):
        names = self.__match_args__
        if len(values) != len(names):
            raise TypeError(f"{type(self).__name__} takes the fields {names}")
        for name, value in zip(names, values):
            object.__setattr__(self, name, value)

    def _fields(self) -> tuple:
        return tuple([getattr(self, name) for name in self.__match_args__])

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._fields() == other._fields()

    def __hash__(self) -> int:
        return hash((self.__class__, *self._fields()))

    def __repr__(self) -> str:
        fields = ", ".join(f"{name}={getattr(self, name)!r}"
                           for name in self.__match_args__)
        return f"{type(self).__qualname__}({fields})"

    def __reduce__(self):
        return self.__class__, self._fields()

    def __setattr__(self, name, value=None):
        raise AttributeError(f"cannot assign or delete field '{name}'")

    __delattr__ = __setattr__


class Term(Record):
    """Base class for AST nodes. ``_run`` holds the compiled form, ``_fv``
    the free variables (see :func:`free_vars`)."""

    __slots__ = ("_run", "_fv")


# -- parameter patterns for lambdas ------------------------------------------

class VarPat(Record):
    __slots__ = ("name",)


class TuplePat(Record):
    __slots__ = ("names",)


Pattern = Union[VarPat, TuplePat]


# -- nodes --------------------------------------------------------------------

class Var(Term):
    __slots__ = ("name",)


class IntLit(Term):
    __slots__ = ("value",)


class BoolLit(Term):
    __slots__ = ("value",)


class UnitLit(Term):
    __slots__ = ()


class Arith(Term):
    __slots__ = ("op", "left", "right")  # op: one of + - *


class Cmp(Term):
    __slots__ = ("op", "left", "right")  # op: one of = <> < <= > >=


class And(Term):
    __slots__ = ("left", "right")


class Or(Term):
    __slots__ = ("left", "right")


class Not(Term):
    __slots__ = ("term",)


class Implies(Term):
    __slots__ = ("left", "right")


class Len(Term):
    __slots__ = ("term",)


class Index(Term):
    __slots__ = ("seq", "index")


class Prefix(Term):
    __slots__ = ("seq", "upto")


class Reverse(Term):
    __slots__ = ("term",)


class Distinct(Term):
    __slots__ = ("term",)


class TupleTerm(Term):
    __slots__ = ("items",)


class SeqLit(Term):
    __slots__ = ("items",)


class LetTuple(Term):
    __slots__ = ("names", "rhs", "body")


class SetOf(Term):
    __slots__ = ("term",)


class Mem(Term):
    __slots__ = ("elem", "coll")


class Subset(Term):
    __slots__ = ("left", "right")


class UnionOp(Term):
    __slots__ = ("left", "right")


class InterOp(Term):
    __slots__ = ("left", "right")


class DiffOp(Term):
    __slots__ = ("left", "right")


class AddElem(Term):
    __slots__ = ("elem", "coll")


class EmptySetLit(Term):
    __slots__ = ()


class Field(Term):
    __slots__ = ("term", "name")  # name: "dom" or "suc"


class ForallRange(Term):
    """forall var. lo <= var < hi -> body"""

    __slots__ = ("var", "lo", "hi", "body")


class ForallMem(Term):
    """forall var. mem var coll -> body"""

    __slots__ = ("var", "coll", "body")


class Lambda(Term):
    __slots__ = ("params", "body")


class App(Term):
    __slots__ = ("fn", "args")


class SumTerm(Term):
    """sum f lo hi: the sum of f(i) for lo <= i < hi (0 on empty range)."""

    __slots__ = ("fn", "lo", "hi")


class Flatten(Term):
    __slots__ = ("term",)


class Levels(Term):
    __slots__ = ("term",)


class CopyTerm(Term):
    __slots__ = ("term",)


class ConstValue(Term):
    """Pre-evaluated literal (graph/tree literals in scenario files)."""

    __slots__ = ("value",)


Env = Mapping[str, Value]


class Closure:
    """A lambda paired with its captured environment.

    Applying fewer arguments than the arity yields a new closure with
    those arguments fixed (the partial-application half of the invariant
    plumbing); a full application evaluates the body.
    """

    __slots__ = ("lam", "env", "bound")

    def __init__(self, lam: Lambda, env: Env, bound: tuple = ()):
        self.lam = lam
        self.env = env
        self.bound = bound

    @property
    def arity(self) -> int:
        return len(self.lam.params)

    @property
    def remaining(self) -> int:
        return self.arity - len(self.bound)

    def __call__(self, *args: Value) -> Value:
        return apply_lambda(self, list(args))

    def __repr__(self) -> str:
        return f"<closure/{self.arity}, {len(self.bound)} bound>"


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
        raise EvaluationError(
            f"cannot apply non-function value {bounded_repr(f)}")
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
        if type(pat) is VarPat:
            env[pat.name] = value
        else:
            _bind_pattern(env, pat, value)
    return compile_term(f.lam.body)(env)


def sum_range(f: Callable[[int], int], lo: int, hi: int) -> int:
    """Sum of f(i) over the half-open range [lo, hi); 0 when empty."""
    total = 0
    for i in range(lo, hi):
        term = f(i)
        if not isinstance(term, int):
            raise EvaluationError(
                f"sum body returned non-integer {bounded_repr(term)}")
        total += term
    return total


# -- evaluation ---------------------------------------------------------------

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
        return set_of(v)
    raise EvaluationError(
        f"{what} expected a set or sequence, got {bounded_repr(v)}")


def eval_term(t: Term, env: Env) -> Value:
    """Evaluate ``t`` under ``env``. Deterministic and terminating."""
    return compile_term(t)(env)


def compile_term(t: Term) -> Callable[[Env], Value]:
    """The compiled form of ``t``, a function of the environment. It is built
    on first use and kept in the node's ``_run`` slot, so it lives as long as
    the node. Compiling never raises; errors are raised when the form runs."""
    run = getattr(t, "_run", None)
    if run is None:
        run = _compile(t, ())
        if isinstance(t, Term):
            object.__setattr__(t, "_run", run)
    return run


# -- free variables and hoisting ----------------------------------------------

_NO_NAMES: frozenset = frozenset()


def _pattern_names(params: tuple) -> set:
    return {name for pat in params
            for name in ((pat.name,) if isinstance(pat, VarPat) else pat.names)}


def _children(t: Term):
    for v in t._fields():
        if isinstance(v, Term):
            yield v
        elif isinstance(v, tuple):
            yield from (item for item in v if isinstance(item, Term))


def _own_free_vars(t: Term) -> frozenset:
    """``free_vars(t)`` from the free variables its children already keep."""
    fv = lambda child: child._fv
    match t:
        case Var(name):
            return frozenset((name,))
        case IntLit() | BoolLit() | UnitLit() | EmptySetLit() | ConstValue():
            return _NO_NAMES
        case LetTuple(names, rhs, body):
            return fv(rhs) | (fv(body) - set(names))
        case ForallRange(var, lo, hi, body):
            return fv(lo) | fv(hi) | (fv(body) - {var})
        case ForallMem(var, coll, body):
            return fv(coll) | (fv(body) - {var})
        case Lambda(params, body):
            return fv(body) - _pattern_names(params)
    return _NO_NAMES.union(*map(fv, _children(t)))


def free_vars(t: Term) -> frozenset:
    """Names that ``t`` reads from its environment. Computed once per node,
    from its children's, and kept in the node's ``_fv`` slot. The walk keeps
    its own stack, so a long operator chain does not exhaust Python's."""
    pending = [t]
    while pending:
        node = pending[-1]
        if getattr(node, "_fv", None) is not None:
            pending.pop()
            continue
        todo = [c for c in _children(node) if getattr(c, "_fv", None) is None]
        if todo:
            pending += todo
        else:
            pending.pop()
            object.__setattr__(node, "_fv", _own_free_vars(node))
    return t._fv


_UNSET = object()


class _Memo:
    """Compile-time record of one quantifier body's memo slots. At run time
    the memo is a list, fresh at every entry into the quantifier, kept in the
    body's environment under this object as key."""

    __slots__ = ("size",)

    def __init__(self):
        self.size = 0

    def slot(self, run: Callable[[Env], Value]) -> Callable[[Env], Value]:
        """``run``, evaluated at most once per memo: when first demanded."""
        i = self.size
        self.size += 1

        def memoised(env):
            memo = env[self]
            v = memo[i]
            if v is _UNSET:
                v = memo[i] = run(env)
            return v
        return memoised


# Compiling inside quantifier bodies: ``scopes`` lists, outermost first, each
# enclosing quantifier's memo with the names bound since its entry (its own
# variable and every inner forall or let variable on the way down).
Scopes = tuple[tuple[_Memo, frozenset], ...]

# cheaper to re-run than to look up; lambda bodies are compiled on their own
_NEVER_HOISTED = (Var, IntLit, BoolLit, UnitLit, ConstValue, EmptySetLit, Lambda)


def _bind(scopes: Scopes, names) -> Scopes:
    return tuple((memo, bound.union(names)) for memo, bound in scopes)


def _compile_in(t: Term, scopes: Scopes) -> Callable[[Env], Value]:
    """The compiled form of ``t`` at its place under ``scopes``. A subterm
    that reads no name bound in a scope is a slot of the outermost such
    scope's memo; its own subterms can only hoist further out. Under a
    binding memo (the outermost scope), this is also where the names the
    body reads directly and its probes are found."""
    if not scopes or not isinstance(t, Term):
        return compile_term(t)
    top, bound = scopes[0]
    if isinstance(top, _BindingMemo):
        run = top.probe(t, bound)
        if run is not None:
            if len(scopes) > 1:  # invariant in the inner quantifiers
                return scopes[1][0].slot(run)
            return run
        if isinstance(t, Var) and t.name not in bound:
            top.fixed.add(t.name)
    if isinstance(t, _NEVER_HOISTED):
        return compile_term(t)
    names = free_vars(t)
    for k, (memo, bound) in enumerate(scopes):
        if names.isdisjoint(bound):
            if k:
                return memo.slot(_compile(t, scopes[:k]))
            run = memo.slot(compile_term(t))
            if isinstance(memo, _BindingMemo) and len(scopes) > 1:
                # recorded once per binding, not once per inner binding
                return scopes[1][0].slot(run)
            return run
    return _compile(t, scopes)


def _quantifier_body(names: tuple, body: Term, scopes: Scopes, memo: _Memo = None):
    """``(enter, body_)`` for a quantifier binding ``names``: ``enter(env)``
    is a fresh environment for one entry, ``body_`` the body compiled for
    it, with ``memo`` (a fresh plain one by default) as its own."""
    memo = memo or _Memo()
    body_ = _compile_in(body, _bind(scopes, names) + ((memo, frozenset(names)),))
    size = memo.size
    if not size:
        return dict, body_

    def enter(env):
        inner_env = dict(env)
        inner_env[memo] = [_UNSET] * size
        return inner_env
    return enter, body_


def _quantifier(var: str, body: Term, scopes: Scopes):
    """``(env, domain) -> bool`` deciding ``forall var in domain. body``."""
    enter, body_ = _quantifier_body((var,), body, scopes)

    def forall(env, domain):
        inner_env = enter(env)
        for x in domain:
            inner_env[var] = x
            v = body_(inner_env)
            if v is not True and (v is False or not _as_bool(v, "quantifier body")):
                return False
        return True
    return forall


# -- quantifiers that remember what their bindings read (see the module docstring)

# How a probe reads its source, and so which of the source's changes it sees.
_WHOLE, _MEMBER, _VALUE, _ROW, _EDGE, _INDEX = (
    "whole", "member", "value", "row", "edge", "index")
_KEYLESS = object()  # the key of a value outside value_key's domain


def _key_of(v: Value):
    try:
        return value_key(v)
    except EvaluationError:
        return _KEYLESS


def _delta(kind: str, old: Value, new: Value, closed: bool):
    """The keys at which a probe of ``kind`` may read ``new`` differently
    from ``old``, or None when they are not known; ``closed`` tells that
    ``old`` is known to be closed. ``b = E`` can change only for the old
    and the new key of ``E``; ``mem b E`` only for the keys in one set and
    not the other; ``N.f b`` and ``mem b (N.f b')`` only for the rows (and
    the edges) by which two graphs of one change log differ. A closed
    source has changed nowhere when it is the identical object or an equal
    integer (a count such as ``len s`` is a new object at every evaluation
    once past CPython's small ints), nor, read by index, when the new value
    extends it (see :func:`_extends`); any other change of a source read
    whole is unknown."""
    if new is old or (type(new) is int and type(old) is int and new == old):
        return () if kind is _VALUE or closed or _closed(old) else None
    if kind is _VALUE:
        old, new = _key_of(old), _key_of(new)
        return () if old == new else [k for k in (old, new) if k is not _KEYLESS]
    if kind is _INDEX:
        return () if _extends(new, old) and (closed or _closed(old)) else None
    if kind is _WHOLE or type(new) is not type(old):
        return None
    delta = getattr(new, "_delta_", None)
    changes = delta(old) if delta is not None else None
    if changes is None or kind is not _ROW:
        return changes
    return {row for row, _ in changes}


def _mem(x: Value, c: Value) -> bool:
    if isinstance(c, FiniteSet):
        return x in c
    if is_seq(c):
        return any(value_eq(x, e) for e in c)
    raise EvaluationError(f"'mem' expected a set or sequence, got {bounded_repr(c)}")


def _domain(c: Value) -> Value:
    if is_seq(c) or isinstance(c, FiniteSet):
        return c
    raise EvaluationError(
        f"quantifier domain must be a set or sequence, got {bounded_repr(c)}")


class _BindingMemo(_Memo):
    """The memo of a quantifier over ``names`` (one name, or an outer and
    an inner one), with what its bindings read. At compile time it
    collects ``fixed``, the names the body reads directly (outside probes
    and its own slots), and ``sources``, one ``(kind, compiled form)`` per
    input that a probe reads: each of its own slots, read whole, and the
    name or slot each ``mem b E``, ``N.f b``, ``mem b (N.f b')``, ``b = E``
    and ``E[e]`` probes, ``b`` and ``b'`` being bound by the quantifier and
    ``e`` reading only its names. A set quantifier's memo is ``keyed``:
    while a binding is evaluated, each probe appends ``(source, key of the
    binding)`` to a list kept in the environment under ``record``; the key
    is a function of the binding's values' keys, or None for a read of the
    whole source. A range quantifier's memo records nothing. ``state`` is
    None or what the last evaluation left: a :class:`_Bindings`, or the
    tuple of :func:`_range_quantifier`."""

    __slots__ = ("names", "fixed", "sources", "_ids", "record", "state")

    def __init__(self, names: tuple, keyed: bool = True):
        super().__init__()
        self.names, self.fixed, self.sources = names, set(), []
        self._ids, self.state = {}, None
        self.record = object() if keyed else None

    def slot(self, run):
        get = super().slot(run)
        return self._recorded(get, self._source(_WHOLE, get, get), None)

    def _source(self, kind: str, get, ident) -> int:
        """The index of the source read by ``get``; ``ident`` names it."""
        src = self._ids.get((kind, ident))
        if src is None:
            src = self._ids[kind, ident] = len(self.sources)
            self.sources.append((kind, get))
        return src

    def _recorded(self, run, src: int, key: Callable | None):
        entry, record = (src, key), self.record
        if record is None:
            return run

        def recorded(env):
            v = run(env)
            env[record].append(entry)
            return v
        return recorded

    def _read_of(self, e: Term) -> tuple:
        """``(compiled form, identity)`` of a probed subterm that reads no
        bound name: a name is read as it is, anything else through a slot
        of this memo that is not itself recorded."""
        if isinstance(e, _NEVER_HOISTED):
            get = compile_term(e)
            return get, e.name if isinstance(e, Var) else get
        get = _Memo.slot(self, compile_term(e))
        return get, get

    def probe(self, t: Term, bound: frozenset):
        """The compiled form of ``t`` when it is a probe at a place where
        ``bound`` are bound, recording what it reads; else None."""
        at = {name: k for k, name in enumerate(self.names)}
        key = operator.itemgetter
        match t:
            case Mem(Var(b), App(Field(Var(n) as e, _), (Var(row),))) if (
                    b in at and row in at and n not in bound):
                kind, key, run = _EDGE, key(at[row], at[b]), None
            case App(Field(Var(n) as e, _), (Var(b),)) if b in at and n not in bound:
                kind, key, run = _ROW, key(at[b]), None
            case Index(e, i) if (free_vars(e).isdisjoint(bound)
                                 and _NO_NAMES < free_vars(i) <= set(at)):
                kind, key, run = _INDEX, None, None
            case Mem(Var(b), e) if b in at and free_vars(e).isdisjoint(bound):
                kind, key, run = _MEMBER, key(at[b]), _mem
            case Cmp("=", Var(b), e) if b in at and free_vars(e).isdisjoint(bound):
                kind, key, run = _VALUE, key(at[b]), value_eq
            case _:
                return None
        get, ident = self._read_of(e)
        src = self._source(kind, get, ident)
        if kind is _INDEX:
            return self._recorded(_indexing(get, compile_term(i)), src, key)
        if run is None:  # the source is a name, read again by the field
            return self._recorded(compile_term(t), src, key)
        entry, record, b_ = (src, key), self.record, compile_term(Var(b))
        if record is None:
            return lambda env: run(b_(env), get(env))

        def probed(env):
            v = run(b_(env), get(env))
            env[record].append(entry)
            return v
        return probed


class _Held:
    """A binding that held: its values, its place in the domain's order,
    its probes as recorded, and as ``(source, key)`` pairs (a probe that
    ran twice is there twice)."""

    __slots__ = ("binding", "pos", "record", "probes")

    def __init__(self, binding: tuple, pos: int, record: list, probes: list):
        self.binding, self.pos, self.record, self.probes = binding, pos, record, probes


class _Bindings:
    """What a set quantifier's memo knows after an evaluation: the values
    of its fixed names, the domains, the bindings that held (``held``, by
    the ``id`` of their values, which each keeps alive), whether they cover
    the domains (``complete``), and, per source, what its probes last read
    (``olds``), whether that is known to be closed (``closed``), how many
    held bindings probed it (``observers``) and which of them probed each
    key (``index``). A fresh start takes ``olds`` and ``closed`` over from
    the ``last`` state, so that a source is checked closed only once."""

    __slots__ = ("fixed", "domains", "complete", "held", "index", "observers",
                 "olds", "closed")

    def __init__(self, fixed: tuple, sources: int, last: _Bindings | None):
        self.fixed, self.domains, self.complete, self.held = fixed, None, False, {}
        self.index = [{} for _ in range(sources)]
        self.observers = [0] * sources
        self.olds, self.closed = ((last.olds, last.closed) if last is not None
                                  else ([None] * sources, [False] * sources))

    def dirty(self, env: Env, sources: list) -> set:
        """The held bindings that a change of a source since the last
        evaluation may have reached. Only the sources some binding probed
        are read again, and what they read now is remembered."""
        dirty, olds, closed, index = set(), self.olds, self.closed, self.index
        for src, count in enumerate(self.observers):
            if not count:
                continue
            kind, read = sources[src]
            old = olds[src]
            try:
                new = olds[src] = read(env)
            # a failing read only means its probes are evaluated again,
            # which raises whatever is real where it is real
            except Exception:
                changed = None
            else:
                if new is old and (kind is _VALUE or closed[src]
                                   or getattr(type(new), "_closed_", False)):
                    continue
                changed = _delta(kind, old, new, closed[src])
            closed[src] = kind is not _VALUE and changed == ()
            if changed is None:
                for bucket in index[src].values():
                    dirty |= bucket
            elif changed:
                buckets = index[src]
                for key in changed:
                    bucket = buckets.get(key)
                    if bucket:
                        dirty |= bucket
        return dirty

    def rescan(self, bindings, dirty: set) -> list:
        """``(id, values, place)`` of each binding of changed domains to be
        evaluated, in domain order, once each; the others held and are not
        dirty, and are kept at their new places."""
        old, held, todo = self.held, {}, {}
        for pos, (bid, binding) in enumerate(bindings):
            if bid in held or bid in todo:
                continue
            entry = old.get(bid)
            if entry is not None and bid not in dirty:
                entry.pos = pos
                held[bid] = entry
            else:
                todo[bid] = (bid, binding, pos)
        for bid, entry in old.items():
            if held.get(bid) is not entry:
                self._unindex(bid, entry)
        self.held = held
        return list(todo.values())

    def drop(self, bid) -> None:
        entry = self.held.pop(bid, None)
        if entry is not None:
            self._unindex(bid, entry)

    def _unindex(self, bid, entry: _Held) -> None:
        index, observers = self.index, self.observers
        for src, key in entry.probes:
            index[src][key].discard(bid)
            observers[src] -= 1

    def keep(self, bid, binding: tuple, pos: int, record: list, env: Env,
             sources: list) -> bool:
        """Index a binding that held by what it probed, in place of what it
        probed before; False when it cannot be kept: a value of it is not
        closed, or has no key to probe by. A source no other binding probes
        is read again, which only looks it up, since the binding read it."""
        self.drop(bid)
        for x in binding:
            if type(x) is not int and not _closed(x):
                return False
        try:
            keys = tuple(map(value_key, binding))
        except EvaluationError:
            if any(key is not None for _, key in record):
                return False
        probes = [(src, key and key(keys)) for src, key in record]
        index, observers, olds, closed = (self.index, self.observers, self.olds,
                                          self.closed)
        for src, key in probes:
            bucket = index[src].get(key)
            if bucket is None:
                index[src][key] = {bid}
            else:
                bucket.add(bid)
            if not observers[src]:
                new = sources[src][1](env)
                closed[src] = closed[src] and _extends(new, olds[src])
                olds[src] = new
            observers[src] += 1
        self.held[bid] = _Held(binding, pos, record, probes)
        return True


def _same_items(new: Value, old: Value) -> bool:
    """The identical elements in the same order."""
    return new is old or (len(new) == len(old) and all(map(operator.is_, new, old)))


def _memoisable(names: tuple, body: Term) -> bool:
    """The body applies no function but graph fields, binds nothing but
    quantifier variables, and never rebinds ``names``."""
    pending = [body]
    while pending:
        t = pending.pop()
        match t:
            case Lambda() | LetTuple() | SumTerm():
                return False
            case App(fn, _) if not isinstance(fn, Field):
                return False
            case ForallRange(name, _, _, _) | ForallMem(name, _, _) if name in names:
                return False
        pending += _children(t)
    return True


def _binding_quantifier(names: tuple, body: Term):
    """``(env, domains) -> bool`` deciding ``forall names in domains. body``,
    one domain per name, the first outermost. It evaluates, in domain
    order, only the bindings that are new or that a probe marks dirty."""
    memo = _BindingMemo(names)
    enter, body_ = _quantifier_body(names, body, (), memo)
    fixed, sources, record = tuple(sorted(memo.fixed)), memo.sources, memo.record

    def bindings(domains):
        for binding in product(*domains):
            yield tuple(map(id, binding)), binding

    def forall(env, domains):
        get = env.get
        values = tuple([get(name, _UNSET) for name in fixed])
        state, memo.state = memo.state, None
        inner_env = enter(env)
        if state is not None and all(map(operator.is_, values, state.fixed)):
            keep, dirty = True, state.dirty(inner_env, sources)
            if dirty and len(dirty) == len(state.held):  # start afresh
                state, dirty = _Bindings(values, len(sources), state), set()
        else:
            keep = _closed_since(values, state and state.fixed)
            state, dirty = _Bindings(values, len(sources), state), set()
        if state.complete and all(map(_same_items, domains, state.domains)):
            held = state.held
            todo = [(bid, held[bid].binding, held[bid].pos)
                    for bid in sorted(dirty, key=lambda bid: held[bid].pos)]
        else:
            todo = state.rescan(bindings(domains), dirty)
            held = state.held
        state.domains, state.complete = domains, False
        complete, i = keep, 0
        try:
            for bid, binding, pos in todo:
                for name, x in zip(names, binding):
                    inner_env[name] = x
                probes = inner_env[record] = []
                v = body_(inner_env)
                if v is not True and (v is False or not _as_bool(v, "quantifier body")):
                    return False
                i += 1
                if keep:
                    entry = held.get(bid)
                    if entry is None or probes != entry.record:
                        complete = state.keep(bid, binding, pos, probes,
                                              inner_env, sources) and complete
            state.complete = complete
            return True
        finally:
            for bid, _, _ in todo[i:]:  # not evaluated: not known to hold
                state.drop(bid)
            if keep:
                memo.state = state
    return forall


def _range_quantifier(var: str, lo: Term, hi: Term, body: Term, adds: bool):
    """The compiled ``forall var. lo <= var < hi -> body``, or with
    ``adds`` ``sum (fun var -> body) lo hi``. ``memo.state`` is None or the
    tuple ``(fixed values, source values, lo, held, total)``: with those
    values and that lower bound, the first ``held`` bindings hold (and sum
    to ``total``). It is replaced whole, never updated in place. A later
    evaluation resumes after them when its lower bound is the same, its
    upper bound is not below them, each fixed value is the identical object
    and no source has changed (see :func:`_delta`)."""
    memo = _BindingMemo((var,), keyed=False)
    enter, body_ = _quantifier_body((var,), body, (), memo)
    fixed, sources = tuple(sorted(memo.fixed)), memo.sources
    lo_, hi_ = compile_term(lo), compile_term(hi)
    what = "'sum' bound" if adds else "quantifier bound"

    def resume(env, inner_env, lo_v: int, hi_v: int):
        """``(seen, held, total)`` for an evaluation from ``lo_v`` to
        ``hi_v``; ``seen``, the fixed and the source values, is None when
        they cannot seed a memo."""
        get = env.get
        values = tuple([get(name, _UNSET) for name in fixed])
        try:
            read = tuple([source(inner_env) for _, source in sources])
        # evaluated in full, which raises whatever is real where it is real
        except Exception:
            return None, 0, 0
        state = memo.state
        if (state is not None and state[2] == lo_v and lo_v + state[3] <= hi_v
                and all(map(operator.is_, values, state[0]))):
            for (kind, _), old, new in zip(sources, state[1], read):
                if new is not old and _delta(kind, old, new, True) != ():
                    break
            else:
                return (values, read), state[3], state[4]
        if _closed_since(values + read, state and state[0] + state[1]):
            return (values, read), 0, 0
        return None, 0, 0

    def run(env):
        lo_v = _as_int(lo_(env), what)
        hi_v = _as_int(hi_(env), what)
        inner_env = enter(env)
        seen, held, total = resume(env, inner_env, lo_v, hi_v)
        i = start = lo_v + held
        try:
            for i in range(start, hi_v):
                inner_env[var] = i
                v = body_(inner_env)
                if adds:
                    total += _as_int(v, "'sum' body")
                elif v is not True and (v is False or not _as_bool(v, "quantifier body")):
                    return False
            i = max(start, hi_v)
            return total if adds else True
        finally:
            if seen is not None:
                memo.state = (*seen, lo_v, i - lo_v, total)
    return run


def _extends(new: Value, old: Value) -> bool:
    """``new`` is ``old``, or a view of the same append-only log no shorter
    than ``old`` whose added elements are closed (each is checked once,
    when added). O(1) in the length of ``old``."""
    return new is old or (isinstance(new, SeqView) and new.extends(old)
                          and _closed(new[len(old):]))


def _closed(v: Value) -> bool:
    """Immutable all the way down: no reference cell or function anywhere
    inside. Tuples are walked; a value whose class declares ``_closed_``
    (a set, a graph, a graph's successor function) is closed by
    construction; any other value with a structural key is closed when the
    key can be computed, which fails on a cell or a function inside."""
    pending = [v]
    while pending:
        v = pending.pop()
        t = type(v)
        if t in _ATOMS or getattr(t, "_closed_", False) or isinstance(v, (int, str)):
            continue
        if is_seq(v):
            pending += v
        elif hasattr(type(v), "_value_key_"):
            try:
                v._value_key_()
            except EvaluationError:
                return False
        else:
            return False
    return True


_ATOMS = frozenset((int, bool, str, type(None)))


def _closed_since(new: tuple, old: tuple | None) -> bool:
    """Every value of ``new`` is closed, where ``old`` is None or as many
    closed values: one that is, or extends, its counterpart there is checked
    only past it (see :func:`_extends`)."""
    if old is None:
        return _closed(new)
    return all(_extends(v, o) or _closed(v) for v, o in zip(new, old))


# -- the compiler ---------------------------------------------------------------

_ARITH = {"+": operator.add, "-": operator.sub, "*": operator.mul}
_ORDER = {"<": operator.lt, "<=": operator.le, ">": operator.gt, ">=": operator.ge}


def _operator(table: dict, kind: str, op: str) -> Callable[[int, int], Value]:
    """The operator named ``op``, or one that reports it as unknown."""
    def unknown(a: int, b: int) -> Value:
        raise EvaluationError(f"unknown {kind} operator '{op}'")
    return table.get(op, unknown)


def _left_chain(t: Term, kind: type) -> tuple:
    """``(first, nodes)`` for the left-nested chain of ``kind`` nodes rooted
    at ``t``: its leftmost operand, and its nodes innermost first, so that
    the operands are ``first`` and then each node's ``right``."""
    nodes = []
    while isinstance(t, kind):
        nodes.append(t)
        t = t.left
    nodes.reverse()
    return t, nodes


def _right_chain(t: Term, kind: type) -> tuple:
    """``(lefts, last)`` for the right-nested chain of ``kind`` nodes rooted
    at ``t``: each node's ``left``, outermost first, and the innermost
    node's ``right``."""
    lefts = []
    while isinstance(t, kind):
        lefts.append(t.left)
        t = t.right
    return lefts, t


def _set_op(method: Callable, what: str, a_, b_):
    return lambda env: method(_as_set(a_(env), what), _as_set(b_(env), what))


def _indexing(s_, i_):
    """The compiled ``S[I]``, from the compiled ``S`` and ``I``."""
    def run(env):
        s = _as_seq(s_(env), "indexing")
        i = _as_int(i_(env), "index")
        if not 0 <= i < len(s):
            raise EvaluationError(
                f"index {i} out of range for sequence of length {len(s)}")
        return s[i]
    return run


def _method(a_, attr: str, message: Callable[[Value], str]):
    """Call method ``attr`` of the value; ``message`` words its absence."""
    def run(env):
        v = a_(env)
        method = getattr(v, attr, None)
        if method is None:
            raise EvaluationError(message(v))
        return method()
    return run


def _compile(t: Term, scopes: Scopes) -> Callable[[Env], Value]:
    """Dispatch on the node type, once per node; children compile too, each
    at its place under ``scopes``."""
    sub = partial(_compile_in, scopes=scopes) if scopes else compile_term
    match t:
        case Var(name):
            def run(env):
                try:
                    v = env[name]
                except KeyError:
                    raise EvaluationError(f"unbound variable '{name}'") from None
                return deref(v) if isinstance(v, _Ref) else v
        case IntLit(value) | BoolLit(value) | ConstValue(value):
            run = lambda env: value
        case UnitLit():
            run = lambda env: None
        case EmptySetLit():
            run = lambda env: EMPTY_SET
        # A left-nested chain (a + b - c ..., a /\ b /\ ..., a \/ b \/ ...)
        # runs as one loop over its operands, so a long chain compiles
        # without deep recursion.
        case Arith():
            first, nodes = _left_chain(t, Arith)
            first_ = sub(first)
            steps = tuple((f"'{n.op}'", _operator(_ARITH, "arithmetic", n.op),
                           sub(n.right)) for n in nodes)

            def run(env):
                v = first_(env)
                for what, fn, b_ in steps:
                    v = fn(_as_int(v, what), _as_int(b_(env), what))
                return v
        case Cmp("=", left, right):
            a_, b_ = sub(left), sub(right)
            run = lambda env: value_eq(a_(env), b_(env))
        case Cmp("<>", left, right):
            a_, b_ = sub(left), sub(right)
            run = lambda env: not value_eq(a_(env), b_(env))
        case Cmp(op, left, right):
            what, a_, b_ = f"'{op}'", sub(left), sub(right)
            fn = _operator(_ORDER, "comparison", op)
            def run(env):
                a, b = a_(env), b_(env)
                return fn(_as_int(a, what), _as_int(b, what))
        case And():
            first, nodes = _left_chain(t, And)
            operands = (sub(first), *(sub(n.right) for n in nodes))

            def run(env):
                for a_ in operands:
                    v = a_(env)
                    if v is not True and (v is False or not _as_bool(v, "'/\\'")):
                        return False
                return True
        case Or():
            first, nodes = _left_chain(t, Or)
            operands = (sub(first), *(sub(n.right) for n in nodes))

            def run(env):
                for a_ in operands:
                    v = a_(env)
                    if v is True or (v is not False and _as_bool(v, "'\\/'")):
                        return True
                return False
        case Not(inner):
            a_ = sub(inner)
            def run(env):
                v = a_(env)
                if v is True or v is False:
                    return not v
                return not _as_bool(v, "'not'")
        # A right-nested chain (a -> b -> c ...) runs as one loop over its
        # premises, which stops at the first false one.
        case Implies():
            lefts, last = _right_chain(t, Implies)
            premises, last_ = tuple(map(sub, lefts)), sub(last)

            def run(env):
                for a_ in premises:
                    v = a_(env)
                    if v is False or (v is not True and not _as_bool(v, "'->'")):
                        return True
                v = last_(env)
                return v if v is True or v is False else _as_bool(v, "'->'")
        case Len(inner):
            a_ = sub(inner)
            def run(env):
                v = a_(env)
                if is_seq(v) or isinstance(v, FiniteSet):
                    return len(v)
                raise EvaluationError(
                    f"'len' expected a sequence or set, got {bounded_repr(v)}")
        case Index(seq, index):
            run = _indexing(sub(seq), sub(index))
        case Prefix(seq, upto):
            s_, k_ = sub(seq), sub(upto)
            def run(env):
                s = _as_seq(s_(env), "'prefix'")
                k = _as_int(k_(env), "'prefix' bound")
                if k < 0:
                    raise EvaluationError(f"negative slice bound {k}")
                if k > len(s):
                    raise EvaluationError(
                        f"slice bound {k} out of range for sequence of length {len(s)}"
                    )
                return s[:k]
        case Reverse(inner):
            a_ = sub(inner)
            run = lambda env: tuple(reversed(_as_seq(a_(env), "'reverse'")))
        case Distinct(inner):
            a_ = sub(inner)
            def run(env):
                s = _as_seq(a_(env), "'distinct'")
                return len(FiniteSet(s)) == len(s)
        case TupleTerm(items) | SeqLit(items):
            items_ = tuple(map(sub, items))
            run = lambda env: tuple(item(env) for item in items_)
        case LetTuple(names, rhs, body):
            pat, rhs_ = TuplePat(names), sub(rhs)
            body_ = _compile_in(body, _bind(scopes, names))
            def run(env):
                v = rhs_(env)
                inner_env = dict(env)
                _bind_pattern(inner_env, pat, v)
                return body_(inner_env)
        case SetOf(inner):
            a_ = sub(inner)
            run = lambda env: set_of(_as_seq(a_(env), "'setof'"))
        case Mem(elem, coll):
            x_, c_ = sub(elem), sub(coll)
            run = lambda env: _mem(x_(env), c_(env))
        case Subset(left, right):
            run = _set_op(FiniteSet.subset, "'subset'", sub(left), sub(right))
        case UnionOp(left, right):
            run = _set_op(FiniteSet.union, "'union'", sub(left), sub(right))
        case InterOp(left, right):
            run = _set_op(FiniteSet.inter, "'inter'", sub(left), sub(right))
        case DiffOp(left, right):
            run = _set_op(FiniteSet.diff, "'diff'", sub(left), sub(right))
        case AddElem(elem, coll):
            x_, c_ = sub(elem), sub(coll)
            run = lambda env: _as_set(c_(env), "'add'").add(x_(env))
        case Field(inner, name):
            run = _method(sub(inner), f"field_{name}",
                          lambda v: f"value {bounded_repr(v)} has no field '.{name}'")
        case ForallRange(var, lo, hi, body) if not scopes and _memoisable((var,), body):
            run = _range_quantifier(var, lo, hi, body, adds=False)
        case ForallRange(var, lo, hi, body):
            lo_, hi_, forall = sub(lo), sub(hi), _quantifier(var, body, scopes)
            def run(env):
                lo_v = _as_int(lo_(env), "quantifier bound")
                hi_v = _as_int(hi_(env), "quantifier bound")
                return forall(env, range(lo_v, hi_v))
        case ForallMem(var, outer, ForallMem(name, inner, body)) if (
                not scopes and name != var and var not in free_vars(inner)
                and _memoisable((var, name), body)):
            # one quantifier over the pairs, in the order of the nested ones;
            # the inner domain is read once the outer one is known non-empty
            a_, b_ = compile_term(outer), compile_term(inner)
            forall = _binding_quantifier((var, name), body)

            def run(env):
                a = _domain(a_(env))
                return not a or forall(env, (a, _domain(b_(env))))
        case ForallMem(var, coll, body) if not scopes and _memoisable((var,), body):
            c_, forall = compile_term(coll), _binding_quantifier((var,), body)
            run = lambda env: forall(env, (_domain(c_(env)),))
        case ForallMem(var, coll, body):
            c_, forall = sub(coll), _quantifier(var, body, scopes)
            run = lambda env: forall(env, _domain(c_(env)))
        case Lambda():
            # weakly, since the node holds this form: no reference cycle
            node = weakref.ref(t)
            run = lambda env: Closure(node(), dict(env))
        case App(fn, args):
            f_, args_ = sub(fn), tuple(map(sub, args))
            def run(env):
                f = f_(env)
                vals = [a(env) for a in args_]
                if isinstance(f, Closure):
                    return apply_lambda(f, vals)
                if callable(f):
                    return f(*vals)
                raise EvaluationError(
                    f"cannot apply non-function value {bounded_repr(f)}")
        case SumTerm(Lambda((VarPat(var),), body), lo, hi) if (
                not scopes and _memoisable((var,), body)):
            run = _range_quantifier(var, lo, hi, body, adds=True)
        case SumTerm(fn, lo, hi):
            f_, lo_, hi_ = sub(fn), sub(lo), sub(hi)
            def run(env):
                f = f_(env)
                lo_v = _as_int(lo_(env), "'sum' bound")
                hi_v = _as_int(hi_(env), "'sum' bound")
                if isinstance(f, Closure):
                    body = lambda i: apply_lambda(f, [i])
                elif callable(f):
                    body = f
                else:
                    raise EvaluationError(
                        f"'sum' expected a function, got {bounded_repr(f)}")
                return sum_range(lambda i: _as_int(body(i), "'sum' body"), lo_v, hi_v)
        case Flatten(inner):
            run = _method(sub(inner), "flatten",
                          lambda v: f"'flatten' expected a tree, got {bounded_repr(v)}")
        case Levels(inner):
            run = _method(sub(inner), "levels",
                          lambda v: f"'levels' expected a tree, got {bounded_repr(v)}")
        case CopyTerm(inner):
            run = _method(sub(inner), "copy",
                          lambda v: f"'copy' expected a graph, got {bounded_repr(v)}")
        case _:
            def run(env):
                raise EvaluationError(f"unknown term node {t!r}")
    return run


def lam(params: str, body: Term, env: Env | None = None) -> Closure:
    """Build a closure from space-separated parameter names and a body."""
    pats = tuple(VarPat(p) for p in params.split())
    return Closure(Lambda(pats, body), dict(env) if env else {})
