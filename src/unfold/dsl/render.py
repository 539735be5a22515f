"""Deterministic pretty-printer for terms, types and specification blocks.

``parse(render(x))`` returns ``x`` for every declaration and call spec the
parser accepts; the desugarer and reports build on the same term renderer.
"""

from __future__ import annotations

from .. import terms as T
from ..values import CellRef, FiniteSet, QueueRef, StackRef, is_seq
from .parser import CallSpec, DeclSpec, TApp, TName, TTuple, TVar, TypeExpr

# precedence levels: higher binds tighter
_QUANT, _IMPLIES, _OR, _AND, _NOT, _CMP, _ADD, _MULT, _APP, _POSTFIX, _ATOM = \
    range(11)

_UNARY_KW = {
    T.Len: "len", T.Reverse: "reverse", T.Distinct: "distinct",
    T.SetOf: "setof", T.Flatten: "flatten", T.Levels: "levels",
    T.CopyTerm: "copy",
}
_BINARY_KW = {
    T.Prefix: "prefix", T.UnionOp: "union", T.InterOp: "inter",
    T.DiffOp: "diff", T.Subset: "subset", T.Mem: "mem", T.AddElem: "add",
}


def _wrap(text: str, own: int, required: int) -> str:
    return f"({text})" if own < required else text


def _pat(p) -> str:
    if isinstance(p, T.VarPat):
        return p.name
    return "(" + ", ".join(p.names) + ")"


def render_term(t: T.Term, level: int = _QUANT) -> str:
    kind = type(t)
    if kind in _UNARY_KW:
        text = f"{_UNARY_KW[kind]} {render_term(t.term, _POSTFIX)}"
        return _wrap(text, _APP, level)
    if kind in _BINARY_KW:
        a, b = _binary_fields(t)
        text = f"{_BINARY_KW[kind]} {render_term(a, _POSTFIX)} {_operand(b)}"
        return _wrap(text, _APP, level)
    match t:
        case T.Var(name):
            return name
        case T.IntLit(value):
            if value < 0:
                return _wrap(str(value), _ADD, level)
            return str(value)
        case T.BoolLit(value):
            return "true" if value else "false"
        case T.UnitLit():
            return "()"
        case T.EmptySetLit():
            return "emptyset"
        case T.Arith(op, left, right):
            own = _MULT if op == "*" else _ADD
            text = (f"{render_term(left, own)} {op} "
                    f"{render_term(right, own + 1)}")
            return _wrap(text, own, level)
        case T.Cmp(op, left, right):
            text = (f"{render_term(left, _ADD)} {op} "
                    f"{render_term(right, _ADD)}")
            return _wrap(text, _CMP, level)
        case T.Not(inner):
            return _wrap(f"not {render_term(inner, _NOT)}", _NOT, level)
        case T.And(left, right):
            text = (f"{render_term(left, _AND)} /\\ "
                    f"{render_term(right, _AND + 1)}")
            return _wrap(text, _AND, level)
        case T.Or(left, right):
            text = (f"{render_term(left, _OR)} \\/ "
                    f"{render_term(right, _OR + 1)}")
            return _wrap(text, _OR, level)
        case T.Implies(left, right):
            text = (f"{render_term(left, _IMPLIES + 1)} -> "
                    f"{render_term(right, _IMPLIES)}")
            return _wrap(text, _IMPLIES, level)
        case T.Index(seq, index):
            return f"{render_term(seq, _POSTFIX)}[{render_term(index)}]"
        case T.Field(inner, name):
            return f"{render_term(inner, _POSTFIX)}.{name}"
        case T.TupleTerm(items):
            return "(" + ", ".join(render_term(i) for i in items) + ")"
        case T.SeqLit(items):
            return "[" + ", ".join(render_term(i) for i in items) + "]"
        case T.LetTuple(names, rhs, body):
            text = (f"let ({', '.join(names)}) = {render_term(rhs)} "
                    f"in {render_term(body)}")
            return _wrap(text, _QUANT, level)
        case T.ForallRange(var, lo, hi, body):
            # a bound starting with `mem` would read as the `mem var coll` form
            lo_level = _ATOM if isinstance(lo, T.Mem) else _ADD
            text = (f"forall {var}. {render_term(lo, lo_level)} <= {var} < "
                    f"{render_term(hi, _ADD)} -> {render_term(body)}")
            return _wrap(text, _QUANT, level)
        case T.ForallMem(var, coll, body):
            text = f"forall {var}. mem {var} {_operand(coll)} -> {render_term(body)}"
            return _wrap(text, _QUANT, level)
        case T.Lambda(params, body):
            return (f"(fun {' '.join(_pat(p) for p in params)} -> "
                    f"{render_term(body)})")
        case T.App(fn, args):
            text = " ".join([render_term(fn, _POSTFIX), *map(_operand, args)])
            return _wrap(text, _APP, level)
        case T.SumTerm(fn, lo, hi):
            text = f"sum {render_term(fn, _POSTFIX)} {_operand(lo)} {_operand(hi)}"
            return _wrap(text, _APP, level)
        case T.ConstValue(value):
            return render_value(value)
    raise ValueError(f"cannot render term {t!r}")


def _operand(t: T.Term) -> str:
    """``t`` as an operand that follows another one, in parentheses when it
    starts with ``[``, which would read as indexing the operand before."""
    text = render_term(t, _POSTFIX)
    return f"({text})" if text.startswith("[") else text


def _binary_fields(t):
    if isinstance(t, T.Prefix):
        return t.seq, t.upto
    if isinstance(t, (T.Mem, T.AddElem)):
        return (t.elem, t.coll)
    return t.left, t.right


def render_type(ty: TypeExpr) -> str:
    match ty:
        case TVar(name):
            return name
        case TName(name):
            return name
        case TApp(base, param):
            return f"({render_type(param)} {base})"
        case TTuple(parts):
            return "(" + " * ".join(render_type(p) for p in parts) + ")"
    raise ValueError(f"cannot render type {ty!r}")


def render_decl(d: DeclSpec) -> str:
    header = f"{d.result} = {d.name} {' '.join(d.args)}"
    pad = " " * (len(d.pattern) + 1)
    lines = [
        header,
        f"{d.pattern} ~permitted:{render_term(d.permitted, _POSTFIX)}",
        f"{pad}~complete:{render_term(d.complete, _POSTFIX)}",
    ]
    typing = f"with structure = {render_type(d.structure)}, elt = {render_type(d.elt)}"
    if d.accumulator is not None:
        typing += f", accumulator = {d.accumulator}"
    lines.append(typing)
    return "\n".join(lines)


def render_call(c: CallSpec) -> str:
    return (f"{c.pattern} ~inv:{render_term(c.inv, _POSTFIX)}"
            f" ~collection:{render_term(c.collection, _POSTFIX)}"
            f" ~convergence:{render_term(c.convergence, _POSTFIX)}")


def render_value(v) -> str:
    """Human-readable rendering of runtime values for reports and literals."""
    from ..containers import Leaf, Node
    from ..graphs import GraphModel

    if isinstance(v, bool):
        return "true" if v else "false"
    if isinstance(v, int):
        return str(v)
    if v is None:
        return "()"
    if is_seq(v):
        return "[" + ", ".join(render_value(x) for x in v) + "]"
    if isinstance(v, FiniteSet):
        return "{" + ", ".join(render_value(x) for x in v) + "}"
    if isinstance(v, GraphModel):
        parts = ["vertices: " + " ".join(render_value(x) for x in v.dom)]
        parts += [f"edge: {render_value(a)} {render_value(b)}"
                  for a, b in v.edges()]
        return "graph { " + "  ".join(parts) + " }"
    if isinstance(v, Leaf):
        return "leaf"
    if isinstance(v, Node):
        return (f"(node {render_value(v.left)} {render_value(v.value)} "
                f"{render_value(v.right)})")
    if isinstance(v, (StackRef, QueueRef)):
        return render_value(v.contents())
    if isinstance(v, CellRef):
        return render_value(v.value)
    return repr(v)
