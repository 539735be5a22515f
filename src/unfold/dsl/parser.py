"""Recursive-descent parser for specification blocks, spec files (declaration
plus call-site annotations, possibly nested) and scenario files."""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Optional, Union

from .. import terms as T
from ..containers import LEAF, Node
from ..errors import ParseError, SemanticError
from ..terms import Term, eval_term
from ..values import Value
from .lexer import Token, strip_wrapper, tokenize

PATTERNS = ("folds", "iters", "maps", "filters")

#: deepest nesting of terms and types accepted. A deeper input is a
#: ParseError; at this depth the recursive descent takes about half of
#: Python's default stack (tree literals are parsed without recursion)
MAX_NESTING = 40

DECL_CLAUSES = ("permitted", "complete")
CALL_CLAUSES = ("inv", "collection", "convergence")

# arity registry for structure types appearing in specifications
KNOWN_TYPES = {"seq": 1, "tree": 1, "gt": 0, "vt": 0, "int": 0, "bool": 0,
               "unit": 0}

_UNARY_KWFN = {
    "len": T.Len, "reverse": T.Reverse, "distinct": T.Distinct,
    "setof": T.SetOf, "flatten": T.Flatten, "levels": T.Levels,
    "copy": T.CopyTerm,
}
_BINARY_KWFN = {
    "prefix": T.Prefix, "union": T.UnionOp, "inter": T.InterOp,
    "diff": T.DiffOp, "subset": T.Subset, "mem": T.Mem, "add": T.AddElem,
}


# -- type expressions ----------------------------------------------------------

@dataclass(frozen=True)
class TVar:
    name: str  # includes the leading quote


@dataclass(frozen=True)
class TName:
    name: str


@dataclass(frozen=True)
class TApp:
    base: str
    param: "TypeExpr"


@dataclass(frozen=True)
class TTuple:
    parts: tuple


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
    def __init__(self, tokens: list[Token]):
        self.tokens = tokens
        self.pos = 0
        self.depth = 0

    # -- stream helpers --------------------------------------------------------

    @property
    def tok(self) -> Token:
        return self.tokens[self.pos]

    def error(self, message: str):
        raise ParseError(message, self.tok.line, self.tok.column)

    def advance(self) -> Token:
        tok = self.tok
        self.pos += 1
        return tok

    def at(self, kind: str, text: Optional[str] = None) -> bool:
        return self.tok.kind == kind and (text is None or self.tok.text == text)

    def at_punct(self, text: str) -> bool:
        return self.at("PUNCT", text)

    def at_kw(self, text: str) -> bool:
        return self.at("KW", text)

    def eat(self, kind: str, text: Optional[str] = None) -> Token:
        if not self.at(kind, text):
            expected = text if text is not None else kind
            self.error(f"expected {expected!r}, found {self.tok.text!r}")
        return self.advance()

    def eat_ident(self, what: str = "identifier") -> str:
        if not self.at("IDENT"):
            self.error(f"expected {what}, found {self.tok.text!r}")
        return self.advance().text

    def nested(self, parse: Callable[[], object]):
        """``parse()``, one level of nesting deeper."""
        if self.depth == MAX_NESTING:
            self.error(f"nesting deeper than {MAX_NESTING} levels")
        self.depth += 1
        result = parse()
        self.depth -= 1
        return result

    def expect_eof(self):
        if not self.at("EOF"):
            self.error(f"unexpected trailing input {self.tok.text!r}")

    # -- terms ------------------------------------------------------------------

    def parse_term(self) -> Term:
        return self.nested(self._parse_implies)

    def _parse_forall(self) -> Term:
        self.eat("KW", "forall")
        var = self.eat_ident("quantified variable")
        self.eat("PUNCT", ".")
        if self.at_kw("mem"):
            self.advance()
            bound_var = self.eat_ident("quantified variable")
            if bound_var != var:
                self.error(f"quantifier over {var!r} must bound {var!r}, "
                           f"found {bound_var!r}")
            coll = self._parse_postfix()
            self.eat("PUNCT", "->")
            return T.ForallMem(var, coll, self.parse_term())
        lo = self._parse_additive()
        if not self.at_punct("<="):
            self.error("quantifier must be bounded: expected "
                       "'lo <= var < hi' or 'mem var coll'")
        self.advance()
        mid = self.eat_ident("quantified variable")
        if mid != var:
            self.error(f"quantifier over {var!r} must bound {var!r}, "
                       f"found {mid!r}")
        self.eat("PUNCT", "<")
        hi = self._parse_additive()
        self.eat("PUNCT", "->")
        return T.ForallRange(var, lo, hi, self.parse_term())

    def _parse_let(self) -> Term:
        self.eat("KW", "let")
        self.eat("PUNCT", "(")
        names = [self.eat_ident()]
        while self.at_punct(","):
            self.advance()
            names.append(self.eat_ident())
        self.eat("PUNCT", ")")
        self.eat("PUNCT", "=")
        rhs = self.parse_term()
        self.eat("KW", "in")
        body = self.parse_term()
        return T.LetTuple(tuple(names), rhs, body)

    def _parse_implies(self) -> Term:
        left = self._parse_or()
        if self.at_punct("->"):
            self.advance()
            return T.Implies(left, self.nested(self._parse_implies))
        return left

    def _parse_or(self) -> Term:
        left = self._parse_and()
        while self.at_punct("\\/"):
            self.advance()
            left = T.Or(left, self._parse_and())
        return left

    def _parse_and(self) -> Term:
        left = self._parse_not()
        while self.at_punct("/\\"):
            self.advance()
            left = T.And(left, self._parse_not())
        return left

    def _parse_not(self) -> Term:
        # quantifiers and let bind loosest but may appear as (final)
        # operands of the connectives, e.g. `len v <= len s /\ forall ...`
        if self.at_kw("forall"):
            return self._parse_forall()
        if self.at_kw("let"):
            return self._parse_let()
        if self.at_kw("not"):
            self.advance()
            return T.Not(self.nested(self._parse_not))
        return self._parse_cmp()

    def _parse_cmp(self) -> Term:
        left = self._parse_additive()
        for op in ("=", "<>", "<=", "<", ">=", ">"):
            if self.at_punct(op):
                self.advance()
                return T.Cmp(op, left, self._parse_additive())
        return left

    def _parse_additive(self) -> Term:
        left = self._parse_mult()
        while self.at_punct("+") or self.at_punct("-"):
            op = self.advance().text
            left = T.Arith(op, left, self._parse_mult())
        return left

    def _parse_mult(self) -> Term:
        left = self._parse_application()
        while self.at_punct("*"):
            self.advance()
            left = T.Arith("*", left, self._parse_application())
        return left

    def _parse_application(self) -> Term:
        if self.at("KW") and self.tok.text in _UNARY_KWFN:
            ctor = _UNARY_KWFN[self.advance().text]
            return ctor(self._parse_postfix())
        if self.at("KW") and self.tok.text in _BINARY_KWFN:
            ctor = _BINARY_KWFN[self.advance().text]
            first = self._parse_postfix()
            second = self._parse_postfix()
            return ctor(first, second)
        if self.at_kw("sum"):
            self.advance()
            fn = self._parse_postfix()
            lo = self._parse_postfix()
            hi = self._parse_postfix()
            return T.SumTerm(fn, lo, hi)
        head = self._parse_postfix()
        args = []
        while self._at_argument_start():
            args.append(self._parse_postfix())
        return T.App(head, tuple(args)) if args else head

    def _at_argument_start(self) -> bool:
        if self.tok.kind in ("IDENT", "INT"):
            return True
        if self.at("KW") and self.tok.text in ("true", "false", "emptyset",
                                               "collection"):
            return True
        return self.at_punct("(")

    def _parse_postfix(self) -> Term:
        term = self._parse_atom()
        while True:
            if self.at_punct("["):
                self.advance()
                index = self.parse_term()
                self.eat("PUNCT", "]")
                term = T.Index(term, index)
            elif self.at_punct("."):
                self.advance()
                name = self.eat_ident("field name ('dom' or 'suc')")
                if name not in ("dom", "suc"):
                    self.error(f"unknown field '.{name}', expected "
                               f"'.dom' or '.suc'")
                term = T.Field(term, name)
            else:
                return term

    def _parse_atom(self) -> Term:
        if self.at("INT"):
            return T.IntLit(int(self.advance().text))
        if self.at_punct("-"):
            self.advance()
            return T.IntLit(-int(self.eat("INT").text))
        if self.at_kw("true"):
            self.advance()
            return T.BoolLit(True)
        if self.at_kw("false"):
            self.advance()
            return T.BoolLit(False)
        if self.at_kw("emptyset"):
            self.advance()
            return T.EmptySetLit()
        if self.at_kw("collection"):
            self.advance()
            return T.Var("collection")
        if self.at("IDENT"):
            return T.Var(self.advance().text)
        if self.at_punct("["):
            self.advance()
            items = []
            if not self.at_punct("]"):
                items.append(self.parse_term())
                while self.at_punct(","):
                    self.advance()
                    items.append(self.parse_term())
            self.eat("PUNCT", "]")
            return T.SeqLit(tuple(items))
        if self.at_punct("("):
            self.advance()
            if self.at_kw("fun"):
                return self._parse_lambda_tail()
            if self.at_punct(")"):
                self.advance()
                return T.UnitLit()
            first = self.parse_term()
            if self.at_punct(","):
                items = [first]
                while self.at_punct(","):
                    self.advance()
                    items.append(self.parse_term())
                self.eat("PUNCT", ")")
                return T.TupleTerm(tuple(items))
            self.eat("PUNCT", ")")
            return first
        self.error(f"expected a term, found {self.tok.text!r}")

    def _parse_lambda_tail(self) -> Term:
        """Parses ``fun params -> body )`` (the opening paren was consumed)."""
        self.eat("KW", "fun")
        params = []
        while not self.at_punct("->"):
            if self.at("IDENT"):
                params.append(T.VarPat(self.advance().text))
            elif self.at_punct("("):
                self.advance()
                names = [self.eat_ident()]
                while self.at_punct(","):
                    self.advance()
                    names.append(self.eat_ident())
                self.eat("PUNCT", ")")
                params.append(T.TuplePat(tuple(names)))
            else:
                self.error(f"expected a parameter, found {self.tok.text!r}")
        if not params:
            self.error("lambda needs at least one parameter")
        self.eat("PUNCT", "->")
        body = self.parse_term()
        self.eat("PUNCT", ")")
        return T.Lambda(tuple(params), body)

    # -- type expressions -------------------------------------------------------

    def _at_type_name(self) -> bool:
        # 'tree' is also a literal keyword; accept it in type positions
        return (self.at("IDENT")
                or (self.at("KW") and self.tok.text in KNOWN_TYPES))

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
        if self.at("TYVAR"):
            return TVar(self.advance().text)
        if self._at_type_name():
            name = self.advance().text
            if KNOWN_TYPES.get(name) != 0:
                raise SemanticError(f"unknown base type {name!r}")
            return TName(name)
        if self.at_punct("("):
            self.advance()
            parts = [self.nested(self.parse_type)]
            while self.at_punct("*"):
                self.advance()
                parts.append(self.nested(self.parse_type))
            self.eat("PUNCT", ")")
            return parts[0] if len(parts) == 1 else TTuple(tuple(parts))
        self.error(f"expected a type, found {self.tok.text!r}")

    # -- declaration blocks -----------------------------------------------------

    def parse_decl_block(self) -> DeclSpec:
        result = self.eat_ident("result name")
        self.eat("PUNCT", "=")
        name = self.eat_ident("iterator name")
        args = []
        while self.at("IDENT"):
            args.append(self.advance().text)
        if not args:
            self.error("declaration header needs at least one argument")
        pattern = self._parse_pattern()
        clauses: dict[str, Term] = {}
        typing: dict[str, object] = {}
        while self.at_punct("~") or self.at_kw("with"):
            if self.at_punct("~"):
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
        if self.at("KW") and self.tok.text in PATTERNS:
            return self.advance().text
        self.error(f"expected an iteration pattern keyword "
                   f"({'|'.join(PATTERNS)}), found {self.tok.text!r}")

    def _parse_clause(self, valid: tuple, where: str) -> tuple[str, Term]:
        self.eat("PUNCT", "~")
        key = self.tok.text
        if self.tok.kind not in ("IDENT", "KW") or key not in valid:
            keys = " ".join(f"~{k}" for k in valid)
            self.error(f"unknown clause ~{key}:, valid clause keys for "
                       f"{where} are: {keys}")
        self.advance()
        self.eat("PUNCT", ":")
        return key, self.parse_term()

    def _parse_with_clause(self, typing: dict) -> None:
        self.eat("KW", "with")
        while True:
            if self.at_kw("structure"):
                self.advance()
                self.eat("PUNCT", "=")
                typing["structure"] = self.parse_type()
            elif self.at_kw("elt"):
                self.advance()
                self.eat("PUNCT", "=")
                typing["elt"] = self.parse_type()
            elif self.at_kw("accumulator"):
                self.advance()
                self.eat("PUNCT", "=")
                typing["accumulator"] = self.eat_ident("accumulator name")
            else:
                self.error(f"expected structure/elt/accumulator binding, "
                           f"found {self.tok.text!r}")
            if self.at_punct(","):
                self.advance()
                continue
            return

    # -- call blocks ------------------------------------------------------------

    def parse_call_block(self) -> CallSpec:
        pattern = self._parse_pattern()
        clauses: dict[str, Term] = {}
        while self.at_punct("~"):
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
        self.eat("KW", "graph")
        self.eat("PUNCT", "{")
        self.eat("KW", "vertices")
        self.eat("PUNCT", ":")
        vertices = []
        while self.at("INT") or self.at_punct("-"):
            vertices.append(self._parse_int())
        edges = []
        while self.at_kw("edge"):
            self.advance()
            self.eat("PUNCT", ":")
            u = self._parse_int()
            w = self._parse_int()
            edges.append((u, w))
        self.eat("PUNCT", "}")
        from ..graphs import graph_of  # graphs imports this module
        try:
            return graph_of(vertices, edges)
        except Exception as exc:
            self.error(f"invalid graph literal: {exc}")

    def _parse_int(self) -> int:
        if self.at_punct("-"):
            self.advance()
            return -int(self.eat("INT").text)
        return int(self.eat("INT").text)

    def parse_tree_literal(self):
        self.eat("KW", "tree")
        return self._parse_tree_expr()

    def _parse_tree_expr(self):
        """``leaf`` or ``(node left value right)``. Iterative, so a deep
        literal does not exhaust the Python stack."""
        open_nodes: list = []  # per unclosed node: [] or [left, value]
        while True:
            if not self.at_kw("leaf"):
                self.eat("PUNCT", "(")
                self.eat("KW", "node")
                open_nodes.append([])
                continue
            self.advance()
            tree = LEAF
            while open_nodes and open_nodes[-1]:
                left, value = open_nodes.pop()
                self.eat("PUNCT", ")")
                tree = Node(left, value, tree)
            if not open_nodes:
                return tree
            open_nodes[-1] += (tree, self._parse_int())

    # -- files -------------------------------------------------------------------

    def parse_spec_file(self) -> SpecFile:
        out = SpecFile()
        decl_names = set()
        call_names = set()
        while not self.at("EOF"):
            if self.at_kw("decl"):
                self.advance()
                name = self.eat_ident("declaration name")
                if name in decl_names:
                    raise SemanticError(f"duplicate declaration {name!r}")
                decl_names.add(name)
                self.eat("PUNCT", "{")
                decl = self.parse_decl_block()
                self.eat("PUNCT", "}")
                out.decls.append((name, decl))
            elif self.at_kw("call"):
                self.advance()
                name = self.eat_ident("call name")
                if name in call_names:
                    raise SemanticError(f"duplicate call {name!r}")
                call_names.add(name)
                self.eat("KW", "uses")
                decl_name = self.eat_ident("declaration name")
                within = None
                if self.at_kw("within"):
                    self.advance()
                    within = self.eat_ident("enclosing call name")
                self.eat("PUNCT", "{")
                call = self.parse_call_block()
                self.eat("PUNCT", "}")
                out.calls.append(Invocation(name=name, decl_name=decl_name,
                                            call=call, within=within))
            else:
                self.error(f"expected 'decl' or 'call', found {self.tok.text!r}")
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
        while not self.at("EOF"):
            if self.at_kw("collection"):
                self.advance()
                name = self.eat_ident("collection name")
                if name in scenario.collections:
                    raise SemanticError(f"duplicate collection {name!r}")
                self.eat("PUNCT", "=")
                scenario.collections[name] = self._parse_collection_value(
                    scenario)
            elif self.at_kw("decl"):
                self.advance()
                name = self.eat_ident("declaration name")
                if name in scenario.decls:
                    raise SemanticError(f"duplicate declaration {name!r}")
                self.eat("PUNCT", "{")
                scenario.decls[name] = self.parse_decl_block()
                self.eat("PUNCT", "}")
            elif self.at_kw("call"):
                scenario.invocations.append(self._parse_invocation(scenario))
            else:
                self.error(f"expected 'collection', 'decl' or 'call', "
                           f"found {self.tok.text!r}")
        return scenario

    def _parse_collection_value(self, scenario: Scenario) -> Value:
        if self.at_kw("graph"):
            return self.parse_graph_literal()
        if self.at_kw("tree"):
            return self.parse_tree_literal()
        if self.at_punct("["):
            term = self._parse_atom()
            try:
                return eval_term(term, dict(scenario.collections))
            except Exception as exc:
                self.error(f"collection value failed to evaluate: {exc}")
        self.error("collection values are sequence literals [..], graph "
                   "blocks or tree expressions")

    def _parse_value_or_term(self) -> Term:
        if self.at_kw("graph"):
            return T.ConstValue(self.parse_graph_literal())
        if self.at_kw("tree"):
            return T.ConstValue(self.parse_tree_literal())
        return self.parse_term()

    def _parse_invocation(self, scenario: Scenario) -> Invocation:
        self.eat("KW", "call")
        name = self.eat_ident("call name")
        if any(inv.name == name for inv in scenario.invocations):
            raise SemanticError(f"duplicate call {name!r}")
        self.eat("KW", "uses")
        decl_name = self.eat_ident("declaration name")
        if decl_name not in scenario.decls:
            raise SemanticError(
                f"call {name!r} uses unknown declaration {decl_name!r} "
                f"(declarations must come first)")
        self.eat("PUNCT", "{")
        call = self.parse_call_block()
        consumer = None
        init = None
        expect = None
        while not self.at_punct("}"):
            if self.at_kw("consumer"):
                self.advance()
                self.eat("PUNCT", "=")
                consumer = self._parse_consumer()
            elif self.at_kw("init"):
                self.advance()
                self.eat("PUNCT", "=")
                init = self._parse_value_or_term()
            elif self.at_kw("expect"):
                self.advance()
                self.eat("PUNCT", "=")
                expect = self._parse_value_or_term()
            else:
                self.error(f"expected consumer/init/expect or '}}', found "
                           f"{self.tok.text!r}")
            self.eat("PUNCT", ";")
        self.eat("PUNCT", "}")
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
        if self.at_punct("("):
            term = self.parse_term()
            if not isinstance(term, T.Lambda):
                raise SemanticError("consumer must be a builtin name or a "
                                    "lambda")
            return ConsumerSpec(kind="lambda", term=term)
        if self.tok.kind not in ("IDENT", "KW"):
            self.error(f"expected a consumer, found {self.tok.text!r}")
        pieces = [self.advance().text]
        while self.at_punct("-"):
            self.advance()
            if self.at("IDENT") or self.at("KW"):
                pieces.append(self.advance().text)
            else:
                self.error("dangling '-' in consumer name")
        args = []
        while not self.at_punct(";"):
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
