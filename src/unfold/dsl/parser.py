"""Recursive-descent parser for specification blocks, spec files (declaration
plus call-site annotations, possibly nested) and scenario files."""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import partial
from typing import Callable, Optional, Union

from .. import terms as T
from ..containers import LEAF, Node
from ..errors import ParseError, SemanticError
from ..terms import Record, Term, eval_term
from ..values import Value
from .lexer import Token, strip_wrapper, tokenize

PATTERNS = ("folds", "iters", "maps", "filters")

#: deepest nesting of terms and types accepted. A deeper input is a
#: ParseError; at this depth the recursive descent stays well inside
#: Python's default stack (tree literals are parsed without recursion)
MAX_NESTING = 40

DECL_CLAUSES = ("permitted", "complete")
CALL_CLAUSES = ("inv", "collection", "convergence")

# arity registry for structure types appearing in specifications
KNOWN_TYPES = {"seq": 1, "tree": 1, "gt": 0, "vt": 0, "int": 0, "bool": 0,
               "unit": 0}

# keyword functions: constructor and number of operands
_KEYWORD_FN = {
    **{kw: (ctor, 1) for kw, ctor in (
        ("len", T.Len), ("reverse", T.Reverse), ("distinct", T.Distinct),
        ("setof", T.SetOf), ("flatten", T.Flatten), ("levels", T.Levels),
        ("copy", T.CopyTerm))},
    **{kw: (ctor, 2) for kw, ctor in (
        ("prefix", T.Prefix), ("union", T.UnionOp), ("inter", T.InterOp),
        ("diff", T.DiffOp), ("subset", T.Subset), ("mem", T.Mem),
        ("add", T.AddElem))},
    "sum": (T.SumTerm, 3),
}
_LITERALS = {"true": partial(T.BoolLit, True), "false": partial(T.BoolLit, False),
             "emptyset": T.EmptySetLit, "collection": partial(T.Var, "collection")}
# tokens, besides names and numbers, that start an argument of an application
_ARGUMENT_WORDS = ("true", "false", "emptyset", "collection", "(")

# binary operators: precedence (higher binds tighter) and constructor
_CMP, _TIGHTEST = 4, 6
_BINARY = {
    "\\/": (2, T.Or), "/\\": (3, T.And),
    **{op: (_CMP, partial(T.Cmp, op)) for op in ("=", "<>", "<=", "<", ">=", ">")},
    **{op: (prec, partial(T.Arith, op))
       for op, prec in (("+", 5), ("-", 5), ("*", _TIGHTEST))},
}


# -- type expressions ----------------------------------------------------------

class TVar(Record):
    __slots__ = ("name",)  # name: includes the leading quote


class TName(Record):
    __slots__ = ("name",)


class TApp(Record):
    __slots__ = ("base", "param")


class TTuple(Record):
    __slots__ = ("parts",)


TypeExpr = Union[TVar, TName, TApp, TTuple]


# -- specification structures --------------------------------------------------

@dataclass(frozen=True)
class DeclSpec:
    """Interface-side annotation of a higher-order iterator."""

    result: str
    name: str
    args: tuple[str, ...]
    pattern: str
    permitted: Term
    complete: Term
    structure: TypeExpr
    elt: TypeExpr
    accumulator: Optional[str]


@dataclass(frozen=True)
class CallSpec:
    """Call-site annotation: invariant, collection and convergence."""

    pattern: str
    inv: Term
    collection: Term
    convergence: Term


@dataclass(frozen=True)
class ConsumerSpec:
    """Either a named builtin (with argument terms) or a pure lambda."""

    kind: str  # "builtin" | "lambda"
    name: str = ""
    args: tuple[Term, ...] = ()
    term: Optional[Term] = None


@dataclass(frozen=True)
class Invocation:
    name: str
    decl_name: str
    call: CallSpec
    consumer: Optional[ConsumerSpec] = None
    init: Optional[Term] = None
    expect: Optional[Term] = None
    within: Optional[str] = None


@dataclass
class Scenario:
    collections: dict[str, Value] = field(default_factory=dict)
    decls: dict[str, DeclSpec] = field(default_factory=dict)
    invocations: list[Invocation] = field(default_factory=list)


@dataclass
class SpecFile:
    decls: list[tuple[str, DeclSpec]] = field(default_factory=list)
    calls: list[Invocation] = field(default_factory=list)


class _Parser:
    """Token tests go by text alone: a word is ``KW`` exactly when its text is
    in ``KEYWORDS``, and punctuation is never a word."""

    def __init__(self, tokens: list[Token]):
        self.tokens = tokens
        self.pos = 0
        self.depth = 0

    # -- stream helpers --------------------------------------------------------

    def error(self, message: str):
        tok = self.tokens[self.pos]
        raise ParseError(message, tok.line, tok.column)

    def unexpected(self, expected: str):
        self.error(f"expected {expected}, found {self.tokens[self.pos].text!r}")

    def advance(self) -> Token:
        self.pos += 1
        return self.tokens[self.pos - 1]

    def at(self, text: str) -> bool:
        return self.tokens[self.pos].text == text

    def at_kind(self, kind: str) -> bool:
        return self.tokens[self.pos].kind == kind

    def eat(self, text: str) -> None:
        if self.tokens[self.pos].text != text:
            self.unexpected(repr(text))
        self.pos += 1

    def eat_ident(self, what: str = "identifier") -> str:
        if self.tokens[self.pos].kind != "IDENT":
            self.unexpected(what)
        return self.advance().text

    def eat_int(self) -> int:
        if self.tokens[self.pos].kind != "INT":
            self.unexpected("'INT'")
        return int(self.advance().text)

    def comma_separated(self, parse: Callable[[], object]) -> list:
        items = [parse()]
        while self.at(","):
            self.pos += 1
            items.append(parse())
        return items

    def nested(self, parse: Callable[..., object], *args):
        """``parse(*args)``, one level of nesting deeper."""
        if self.depth == MAX_NESTING:
            self.error(f"nesting deeper than {MAX_NESTING} levels")
        self.depth += 1
        result = parse(*args)
        self.depth -= 1
        return result

    def expect_eof(self):
        if not self.at_kind("EOF"):
            self.error(f"unexpected trailing input {self.tokens[self.pos].text!r}")

    # -- terms ------------------------------------------------------------------

    def parse_term(self) -> Term:
        return self.nested(self._parse_expr, 1)

    def _parse_expr(self, level: int) -> Term:
        """Precedence climbing: the operators of ``_BINARY`` that bind at
        least as tight as ``level``, and '->' at level 1. Quantifiers, 'let'
        and 'not' may stand where an operand of a comparison or looser may;
        after one, as after a comparison, only looser operators follow."""
        tokens = self.tokens
        text = tokens[self.pos].text
        if level <= _CMP and text in ("forall", "let", "not"):
            if text == "not":
                self.pos += 1
                left = T.Not(self.nested(self._parse_expr, _CMP))
            else:
                left = self._parse_forall() if text == "forall" else self._parse_let()
            limit = _CMP - 1
        else:
            left, limit = self._parse_application(), _TIGHTEST
        while True:
            text = tokens[self.pos].text
            if text == "->" and level == 1:
                self.pos += 1
                return T.Implies(left, self.nested(self._parse_expr, 1))
            op = _BINARY.get(text)
            if op is None or not level <= op[0] <= limit:
                return left
            self.pos += 1
            prec, build = op
            left = build(left, self._parse_expr(prec + 1))
            limit = prec - 1 if prec == _CMP else prec

    def _parse_forall(self) -> Term:
        self.eat("forall")
        var = self.eat_ident("quantified variable")
        self.eat(".")
        if self.at("mem"):
            self.pos += 1
            bound_var = self.eat_ident("quantified variable")
            if bound_var != var:
                self.error(f"quantifier over {var!r} must bound {var!r}, "
                           f"found {bound_var!r}")
            coll = self._parse_postfix()
            self.eat("->")
            return T.ForallMem(var, coll, self.parse_term())
        lo = self._parse_expr(_CMP + 1)
        if not self.at("<="):
            self.error("quantifier must be bounded: expected "
                       "'lo <= var < hi' or 'mem var coll'")
        self.pos += 1
        mid = self.eat_ident("quantified variable")
        if mid != var:
            self.error(f"quantifier over {var!r} must bound {var!r}, "
                       f"found {mid!r}")
        self.eat("<")
        hi = self._parse_expr(_CMP + 1)
        self.eat("->")
        return T.ForallRange(var, lo, hi, self.parse_term())

    def _parse_let(self) -> Term:
        self.eat("let")
        self.eat("(")
        names = self.comma_separated(self.eat_ident)
        self.eat(")")
        self.eat("=")
        rhs = self.parse_term()
        self.eat("in")
        body = self.parse_term()
        return T.LetTuple(tuple(names), rhs, body)

    def _parse_application(self) -> Term:
        tokens = self.tokens
        keyword_fn = _KEYWORD_FN.get(tokens[self.pos].text)
        if keyword_fn is not None:
            self.pos += 1
            ctor, arity = keyword_fn
            return ctor(*[self._parse_postfix() for _ in range(arity)])
        head = self._parse_postfix()
        args = []
        while (tokens[self.pos].kind in ("IDENT", "INT")
               or tokens[self.pos].text in _ARGUMENT_WORDS):
            args.append(self._parse_postfix())
        return T.App(head, tuple(args)) if args else head

    def _parse_postfix(self) -> Term:
        tok = self.tokens[self.pos]
        if tok.kind == "IDENT":
            self.pos += 1
            term = T.Var(tok.text)
        elif tok.kind == "INT":
            self.pos += 1
            term = T.IntLit(int(tok.text))
        else:
            term = self._parse_atom()
        while True:
            if self.at("["):
                self.pos += 1
                index = self.parse_term()
                self.eat("]")
                term = T.Index(term, index)
            elif self.at("."):
                self.pos += 1
                name = self.eat_ident("field name ('dom' or 'suc')")
                if name not in ("dom", "suc"):
                    self.error(f"unknown field '.{name}', expected "
                               f"'.dom' or '.suc'")
                term = T.Field(term, name)
            else:
                return term

    def _parse_atom(self) -> Term:
        """Any atom but a name or a number, which ``_parse_postfix`` reads."""
        text = self.tokens[self.pos].text
        if text in _LITERALS:
            self.pos += 1
            return _LITERALS[text]()
        if text == "-":
            self.pos += 1
            return T.IntLit(-self.eat_int())
        if text == "[":
            self.pos += 1
            items = [] if self.at("]") else self.comma_separated(self.parse_term)
            self.eat("]")
            return T.SeqLit(tuple(items))
        if text == "(":
            self.pos += 1
            if self.at("fun"):
                return self._parse_lambda_tail()
            if self.at(")"):
                self.pos += 1
                return T.UnitLit()
            items = self.comma_separated(self.parse_term)
            self.eat(")")
            return T.TupleTerm(tuple(items)) if len(items) > 1 else items[0]
        self.unexpected("a term")

    def _parse_lambda_tail(self) -> Term:
        """Parses ``fun params -> body )`` (the opening paren was consumed)."""
        self.eat("fun")
        params = []
        while not self.at("->"):
            if self.at_kind("IDENT"):
                params.append(T.VarPat(self.advance().text))
            elif self.at("("):
                self.pos += 1
                names = self.comma_separated(self.eat_ident)
                self.eat(")")
                params.append(T.TuplePat(tuple(names)))
            else:
                self.unexpected("a parameter")
        if not params:
            self.error("lambda needs at least one parameter")
        self.eat("->")
        body = self.parse_term()
        self.eat(")")
        return T.Lambda(tuple(params), body)

    # -- type expressions -------------------------------------------------------

    def _at_type_name(self) -> bool:
        # 'tree' is also a literal keyword; accept it in type positions
        return self.at_kind("IDENT") or self.tokens[self.pos].text in KNOWN_TYPES

    def parse_type(self) -> TypeExpr:
        ty = self._parse_type_atom()
        while self._at_type_name():
            base = self.advance().text
            if KNOWN_TYPES.get(base) != 1:
                raise SemanticError(
                    f"unknown parameterized structure type {base!r}")
            ty = TApp(base, ty)
        return ty

    def _parse_type_atom(self) -> TypeExpr:
        if self.at_kind("TYVAR"):
            return TVar(self.advance().text)
        if self._at_type_name():
            name = self.advance().text
            if KNOWN_TYPES.get(name) != 0:
                raise SemanticError(f"unknown base type {name!r}")
            return TName(name)
        if self.at("("):
            self.pos += 1
            parts = [self.nested(self.parse_type)]
            while self.at("*"):
                self.pos += 1
                parts.append(self.nested(self.parse_type))
            self.eat(")")
            return parts[0] if len(parts) == 1 else TTuple(tuple(parts))
        self.unexpected("a type")

    # -- declaration blocks -----------------------------------------------------

    def parse_decl_block(self) -> DeclSpec:
        result = self.eat_ident("result name")
        self.eat("=")
        name = self.eat_ident("iterator name")
        args = []
        while self.at_kind("IDENT"):
            args.append(self.advance().text)
        if not args:
            self.error("declaration header needs at least one argument")
        pattern = self._parse_pattern()
        clauses: dict[str, Term] = {}
        typing: dict[str, object] = {}
        while self.at("~") or self.at("with"):
            if self.at("~"):
                key, value = self._parse_clause(DECL_CLAUSES, "a declaration")
                if key in clauses:
                    raise SemanticError(f"duplicate clause ~{key}")
                clauses[key] = value
            else:
                self._parse_with_clause(typing)
        for key in DECL_CLAUSES:
            if key not in clauses:
                raise SemanticError(f"declaration is missing ~{key}")
        if "structure" not in typing or "elt" not in typing:
            raise SemanticError(
                "declaration is missing its 'with structure = ..., elt = ...' "
                "typing clause")
        accumulator = typing.get("accumulator")
        if pattern == "folds" and accumulator is None:
            raise SemanticError("folds declarations require 'accumulator ='")
        if pattern != "folds" and accumulator is not None:
            raise SemanticError(
                f"{pattern} declarations take no accumulator (the output is "
                f"implicit)")
        if accumulator is not None and accumulator not in args:
            raise SemanticError(
                f"accumulator {accumulator!r} does not name a header argument")
        return DeclSpec(result=result, name=name, args=tuple(args),
                        pattern=pattern, permitted=clauses["permitted"],
                        complete=clauses["complete"],
                        structure=typing["structure"], elt=typing["elt"],
                        accumulator=accumulator)

    def _parse_pattern(self) -> str:
        if self.tokens[self.pos].text in PATTERNS:
            return self.advance().text
        self.unexpected(f"an iteration pattern keyword ({'|'.join(PATTERNS)})")

    def _parse_clause(self, valid: tuple, where: str) -> tuple[str, Term]:
        self.eat("~")
        key = self.tokens[self.pos].text
        if key not in valid:
            keys = " ".join(f"~{k}" for k in valid)
            self.error(f"unknown clause ~{key}:, valid clause keys for "
                       f"{where} are: {keys}")
        self.pos += 1
        self.eat(":")
        return key, self.parse_term()

    def _parse_with_clause(self, typing: dict) -> None:
        self.eat("with")
        while True:
            key = self.tokens[self.pos].text
            if key not in ("structure", "elt", "accumulator"):
                self.unexpected("structure/elt/accumulator binding")
            self.pos += 1
            self.eat("=")
            typing[key] = (self.eat_ident("accumulator name")
                           if key == "accumulator" else self.parse_type())
            if not self.at(","):
                return
            self.pos += 1

    # -- call blocks ------------------------------------------------------------

    def parse_call_block(self) -> CallSpec:
        pattern = self._parse_pattern()
        clauses: dict[str, Term] = {}
        while self.at("~"):
            key, value = self._parse_clause(CALL_CLAUSES, "a call site")
            if key in clauses:
                raise SemanticError(f"duplicate clause ~{key}")
            clauses[key] = value
        for key in CALL_CLAUSES:
            if key not in clauses:
                raise SemanticError(f"call specification is missing ~{key}")
        return CallSpec(pattern=pattern, inv=clauses["inv"],
                        collection=clauses["collection"],
                        convergence=clauses["convergence"])

    # -- literal collection values ----------------------------------------------

    def parse_graph_literal(self):
        self.eat("graph")
        self.eat("{")
        self.eat("vertices")
        self.eat(":")
        vertices = []
        while self.at_kind("INT") or self.at("-"):
            vertices.append(self._parse_int())
        edges = []
        while self.at("edge"):
            self.pos += 1
            self.eat(":")
            u = self._parse_int()
            w = self._parse_int()
            edges.append((u, w))
        self.eat("}")
        from ..graphs import graph_of  # graphs imports this module
        try:
            return graph_of(vertices, edges)
        except Exception as exc:
            self.error(f"invalid graph literal: {exc}")

    def _parse_int(self) -> int:
        if self.at("-"):
            self.pos += 1
            return -self.eat_int()
        return self.eat_int()

    def parse_tree_literal(self):
        self.eat("tree")
        return self._parse_tree_expr()

    def _parse_tree_expr(self):
        """``leaf`` or ``(node left value right)``. Iterative, so a deep
        literal does not exhaust the Python stack."""
        open_nodes: list = []  # per unclosed node: [] or [left, value]
        while True:
            if not self.at("leaf"):
                self.eat("(")
                self.eat("node")
                open_nodes.append([])
                continue
            self.pos += 1
            tree = LEAF
            while open_nodes and open_nodes[-1]:
                left, value = open_nodes.pop()
                self.eat(")")
                tree = Node(left, value, tree)
            if not open_nodes:
                return tree
            open_nodes[-1] += (tree, self._parse_int())

    # -- files -------------------------------------------------------------------

    def parse_spec_file(self) -> SpecFile:
        out = SpecFile()
        decl_names = set()
        call_names = set()
        while not self.at_kind("EOF"):
            if self.at("decl"):
                self.pos += 1
                name = self.eat_ident("declaration name")
                if name in decl_names:
                    raise SemanticError(f"duplicate declaration {name!r}")
                decl_names.add(name)
                self.eat("{")
                decl = self.parse_decl_block()
                self.eat("}")
                out.decls.append((name, decl))
            elif self.at("call"):
                self.pos += 1
                name = self.eat_ident("call name")
                if name in call_names:
                    raise SemanticError(f"duplicate call {name!r}")
                call_names.add(name)
                self.eat("uses")
                decl_name = self.eat_ident("declaration name")
                within = None
                if self.at("within"):
                    self.pos += 1
                    within = self.eat_ident("enclosing call name")
                self.eat("{")
                call = self.parse_call_block()
                self.eat("}")
                out.calls.append(Invocation(name=name, decl_name=decl_name,
                                            call=call, within=within))
            else:
                self.unexpected("'decl' or 'call'")
        decls = dict(out.decls)
        for inv in out.calls:
            if inv.decl_name not in decls:
                raise SemanticError(
                    f"call {inv.name!r} uses unknown declaration "
                    f"{inv.decl_name!r}")
            if inv.call.pattern != decls[inv.decl_name].pattern:
                raise SemanticError(
                    f"call {inv.name!r} is a {inv.call.pattern} block but "
                    f"declaration {inv.decl_name!r} is {decls[inv.decl_name].pattern}")
            if inv.within is not None and inv.within not in call_names:
                raise SemanticError(
                    f"call {inv.name!r} nests within unknown call "
                    f"{inv.within!r}")
        return out

    def parse_scenario(self) -> Scenario:
        scenario = Scenario()
        while not self.at_kind("EOF"):
            if self.at("collection"):
                self.pos += 1
                name = self.eat_ident("collection name")
                if name in scenario.collections:
                    raise SemanticError(f"duplicate collection {name!r}")
                self.eat("=")
                scenario.collections[name] = self._parse_collection_value(
                    scenario)
            elif self.at("decl"):
                self.pos += 1
                name = self.eat_ident("declaration name")
                if name in scenario.decls:
                    raise SemanticError(f"duplicate declaration {name!r}")
                self.eat("{")
                scenario.decls[name] = self.parse_decl_block()
                self.eat("}")
            elif self.at("call"):
                scenario.invocations.append(self._parse_invocation(scenario))
            else:
                self.unexpected("'collection', 'decl' or 'call'")
        return scenario

    def _parse_collection_value(self, scenario: Scenario) -> Value:
        if self.at("graph"):
            return self.parse_graph_literal()
        if self.at("tree"):
            return self.parse_tree_literal()
        if self.at("["):
            term = self._parse_atom()  # a SeqLit
            if all(type(item) is T.IntLit for item in term.items):
                return tuple(item.value for item in term.items)
            try:
                return eval_term(term, dict(scenario.collections))
            except Exception as exc:
                self.error(f"collection value failed to evaluate: {exc}")
        self.error("collection values are sequence literals [..], graph "
                   "blocks or tree expressions")

    def _parse_value_or_term(self) -> Term:
        if self.at("graph"):
            return T.ConstValue(self.parse_graph_literal())
        if self.at("tree"):
            return T.ConstValue(self.parse_tree_literal())
        return self.parse_term()

    def _parse_invocation(self, scenario: Scenario) -> Invocation:
        self.eat("call")
        name = self.eat_ident("call name")
        if any(inv.name == name for inv in scenario.invocations):
            raise SemanticError(f"duplicate call {name!r}")
        self.eat("uses")
        decl_name = self.eat_ident("declaration name")
        if decl_name not in scenario.decls:
            raise SemanticError(
                f"call {name!r} uses unknown declaration {decl_name!r} "
                f"(declarations must come first)")
        self.eat("{")
        call = self.parse_call_block()
        items: dict = {}
        while not self.at("}"):
            key = self.tokens[self.pos].text
            if key not in ("consumer", "init", "expect"):
                self.unexpected("consumer/init/expect or '}'")
            self.pos += 1
            self.eat("=")
            items[key] = (self._parse_consumer() if key == "consumer"
                          else self._parse_value_or_term())
            self.eat(";")
        self.eat("}")
        consumer, init, expect = map(items.get, ("consumer", "init", "expect"))
        decl = scenario.decls[decl_name]
        if call.pattern != decl.pattern:
            raise SemanticError(
                f"call {name!r} is a {call.pattern} block but declaration "
                f"{decl_name!r} is {decl.pattern}")
        if consumer is None:
            raise SemanticError(f"call {name!r} needs a consumer")
        if call.pattern == "folds" and init is None:
            raise SemanticError(f"folds call {name!r} needs an init value")
        if call.pattern != "folds" and init is not None:
            raise SemanticError(
                f"{call.pattern} call {name!r} takes no init value")
        return Invocation(name=name, decl_name=decl_name, call=call,
                          consumer=consumer, init=init, expect=expect)

    def _parse_consumer(self) -> ConsumerSpec:
        if self.at("("):
            term = self.parse_term()
            if not isinstance(term, T.Lambda):
                raise SemanticError("consumer must be a builtin name or a "
                                    "lambda")
            return ConsumerSpec(kind="lambda", term=term)
        if self.tokens[self.pos].kind not in ("IDENT", "KW"):
            self.unexpected("a consumer")
        pieces = [self.advance().text]
        while self.at("-"):
            self.pos += 1
            if self.tokens[self.pos].kind in ("IDENT", "KW"):
                pieces.append(self.advance().text)
            else:
                self.error("dangling '-' in consumer name")
        args = []
        while not self.at(";"):
            args.append(self._parse_postfix())
        return ConsumerSpec(kind="builtin", name="-".join(pieces),
                            args=tuple(args))


def _parser_for(text: str) -> _Parser:
    return _Parser(tokenize(text))


def parse_term_text(text: str) -> Term:
    p = _parser_for(text)
    term = p.parse_term()
    p.expect_eof()
    return term


def parse_decl(text: str) -> DeclSpec:
    """Parse one declaration block (bare or wrapped in ``(*@ ... *)``)."""
    p = _parser_for(strip_wrapper(text))
    decl = p.parse_decl_block()
    p.expect_eof()
    return decl


def parse_call(text: str) -> CallSpec:
    """Parse one call-site block (bare or wrapped in ``(*@ ... *)``)."""
    p = _parser_for(strip_wrapper(text))
    call = p.parse_call_block()
    p.expect_eof()
    return call


def parse_spec_file(text: str) -> SpecFile:
    return _parser_for(text).parse_spec_file()


def parse_scenario(text: str) -> Scenario:
    return _parser_for(text).parse_scenario()
