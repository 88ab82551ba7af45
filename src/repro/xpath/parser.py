"""Recursive-descent parser for Extended XPath.

The grammar is XPath 1.0 (including ``$variable`` references, minus
namespace nodes) extended with the concurrent-markup axes and
hierarchy-qualified name tests (``phys:line`` reads "elements *line*
of hierarchy *phys*").

Nesting is capped at :data:`MAX_DEPTH`: deeper parentheses, predicates
or function arguments, and ASTs deeper than that (long operator chains
and unary minus runs nest too), raise :class:`XPathSyntaxError`.  Every
later pass over a parsed AST — optimizer, classifier, planner, router,
evaluator — recurses along it, and the cap keeps all of them well
inside Python's recursion limit.
"""

from __future__ import annotations

from ..errors import XPathSyntaxError
from .ast import (
    Binary,
    Expr,
    FilterExpr,
    FunctionCall,
    Literal,
    LocationPath,
    NodeTest,
    Number,
    Step,
    Union,
    Unary,
    VariableRef,
    depth,
)
from .tokens import (
    AT,
    AXIS,
    COLON,
    COMMA,
    DDOT,
    DOLLAR,
    DOT,
    DSLASH,
    EOF,
    LBRACKET,
    LPAREN,
    NAME,
    NUMBER,
    OPERATOR,
    RBRACKET,
    RPAREN,
    SLASH,
    STRING,
    Token,
    tokenize,
)

#: Classical XPath axes, re-defined over the GODDAG.
CLASSICAL_AXES = frozenset({
    "child", "descendant", "descendant-or-self", "self",
    "parent", "ancestor", "ancestor-or-self",
    "following", "preceding", "following-sibling", "preceding-sibling",
    "attribute",
})

#: The concurrent-markup extension axes of the framework.
EXTENSION_AXES = frozenset({
    "overlapping", "overlapping-left", "overlapping-right",
    "containing", "contained", "coextensive",
})

ALL_AXES = CLASSICAL_AXES | EXTENSION_AXES

#: Deepest nesting a parsed expression may have (see the module docstring).
MAX_DEPTH = 64

#: Binary operator precedence, loosest first (``|`` binds tighter than
#: all of them and is parsed with the path operands).
_PRECEDENCE = {
    "or": 0, "and": 1, "=": 2, "!=": 2, "<": 3, "<=": 3, ">": 3, ">=": 3,
    "+": 4, "-": 4, "*": 5, "div": 5, "mod": 5,
}

#: The implicit //: descendant-or-self::node()
_DOS_STEP = Step("descendant-or-self", NodeTest("node"))


class _Parser:
    def __init__(self, expression: str) -> None:
        self.expression = expression
        self.tokens = tokenize(expression)
        self.index = 0
        self.nesting = 0

    # -- cursor helpers -----------------------------------------------------------

    @property
    def current(self) -> Token:
        return self.tokens[self.index]

    def error(self, message: str) -> XPathSyntaxError:
        token = self.current
        return XPathSyntaxError(
            f"{message} (at {token.value!r}, position {token.position})",
            position=token.position, expression=self.expression,
        )

    def advance(self) -> Token:
        token = self.current
        self.index += 1
        return token

    def accept(self, kind: str, value: str | None = None) -> Token | None:
        token = self.current
        if token.kind == kind and (value is None or token.value == value):
            return self.advance()
        return None

    def expect(self, kind: str, value: str | None = None) -> Token:
        token = self.accept(kind, value)
        if token is None:
            raise self.error(f"expected {value or kind}")
        return token

    # -- expression grammar -----------------------------------------------------------

    def parse(self) -> Expr:
        expr = self.parse_binary()
        if self.current.kind != EOF:
            raise self.error("unexpected trailing input")
        # Every AST node consumes a token of its own, so only an
        # expression of more than MAX_DEPTH tokens needs the walk.
        if len(self.tokens) > MAX_DEPTH and depth(expr) > MAX_DEPTH:
            raise XPathSyntaxError(
                f"expression nests deeper than {MAX_DEPTH} levels",
                position=0, expression=self.expression,
            )
        return expr

    def parse_nested(self) -> Expr:
        """An expression one level down: inside parentheses, a predicate
        or a function argument list."""
        self.nesting += 1
        if self.nesting > MAX_DEPTH:
            raise self.error(
                f"expression nests deeper than {MAX_DEPTH} levels"
            )
        expr = self.parse_binary()
        self.nesting -= 1
        return expr

    def parse_binary(self, loosest: int = 0) -> Expr:
        """A left-associative chain of binary operators binding at
        least as tightly as level ``loosest`` (precedence climbing: one
        frame per precedence level actually used, not one per level of
        the grammar)."""
        left = self.parse_unary()
        while True:
            token = self.current
            level = (
                _PRECEDENCE.get(token.value)
                if token.kind in (NAME, OPERATOR) else None
            )
            if level is None or level < loosest:
                return left
            self.advance()
            left = Binary(token.value, left, self.parse_binary(level + 1))

    def parse_unary(self) -> Expr:
        negations = 0
        while self.accept(OPERATOR, "-"):
            negations += 1
        expr = self.parse_union()
        for _ in range(negations):
            expr = Unary(expr)
        return expr

    def parse_union(self) -> Expr:
        left = self.parse_path()
        while self.accept(OPERATOR, "|"):
            left = Union(left, self.parse_path())
        return left

    # -- paths --------------------------------------------------------------------------

    def parse_path(self) -> Expr:
        token = self.current
        if token.kind in (SLASH, DSLASH):
            return self.parse_location_path()
        if token.kind in (DOT, DDOT, AT):
            return self.parse_location_path()
        if token.kind == NAME and not self._name_is_function_call():
            return self.parse_location_path()
        if token.kind == OPERATOR and token.value == "*":
            return self.parse_location_path()
        # Primary expression, possibly filtered and extended with a path.
        primary = self.parse_primary()
        predicates = []
        while self.current.kind == LBRACKET:
            predicates.append(self.parse_predicate())
        steps: list[Step] = []
        while True:
            if self.accept(DSLASH):
                steps.append(_DOS_STEP)
                steps.append(self.parse_step())
            elif self.accept(SLASH):
                steps.append(self.parse_step())
            else:
                break
        if not predicates and not steps:
            return primary
        return FilterExpr(primary, tuple(predicates), tuple(steps))

    def _name_is_function_call(self) -> bool:
        """A NAME followed by '(' is a function call — unless it is a
        node-type test (text()/node()) or an axis name before '::'."""
        token = self.current
        nxt = self.tokens[self.index + 1]
        if nxt.kind == AXIS:
            return False
        if nxt.kind != LPAREN:
            return False
        return token.value not in ("text", "node")

    def parse_location_path(self) -> LocationPath:
        steps: list[Step] = []
        absolute = False
        if self.accept(DSLASH):
            absolute = True
            steps.append(_DOS_STEP)
        elif self.accept(SLASH):
            absolute = True
            if self._at_step_start():
                steps.append(self.parse_step())
            return self._continue_path(absolute, steps)
        steps.append(self.parse_step())
        return self._continue_path(absolute, steps)

    def _continue_path(self, absolute: bool, steps: list[Step]) -> LocationPath:
        while True:
            if self.accept(DSLASH):
                steps.append(_DOS_STEP)
                steps.append(self.parse_step())
            elif self.accept(SLASH):
                steps.append(self.parse_step())
            else:
                return LocationPath(absolute, tuple(steps))

    def _at_step_start(self) -> bool:
        token = self.current
        return (
            token.kind in (NAME, AT, DOT, DDOT)
            or (token.kind == OPERATOR and token.value == "*")
        )

    def parse_step(self) -> Step:
        if self.accept(DOT):
            return Step("self", NodeTest("node"))
        if self.accept(DDOT):
            return Step("parent", NodeTest("node"))
        axis = "child"
        if self.accept(AT):
            axis = "attribute"
        elif self.current.kind == NAME and self.tokens[self.index + 1].kind == AXIS:
            axis = self.advance().value
            self.expect(AXIS)
            if axis not in ALL_AXES:
                raise self.error(f"unknown axis {axis!r}")
        test = self.parse_node_test()
        predicates = []
        while self.current.kind == LBRACKET:
            predicates.append(self.parse_predicate())
        return Step(axis, test, tuple(predicates))

    def parse_node_test(self) -> NodeTest:
        if self.accept(OPERATOR, "*"):
            return NodeTest("name", "*")
        name_token = self.expect(NAME)
        # text() / node() type tests
        if name_token.value in ("text", "node") and self.current.kind == LPAREN:
            self.advance()
            self.expect(RPAREN)
            return NodeTest(name_token.value)
        # hierarchy-qualified name: h:tag or h:*
        if self.current.kind == COLON:
            self.advance()
            if self.accept(OPERATOR, "*"):
                return NodeTest("name", "*", hierarchy=name_token.value)
            local = self.expect(NAME)
            return NodeTest("name", local.value, hierarchy=name_token.value)
        return NodeTest("name", name_token.value)

    def parse_predicate(self) -> Expr:
        self.expect(LBRACKET)
        expr = self.parse_nested()
        self.expect(RBRACKET)
        return expr

    # -- primaries -----------------------------------------------------------------------

    def parse_primary(self) -> Expr:
        token = self.current
        if token.kind == LPAREN:
            self.advance()
            expr = self.parse_nested()
            self.expect(RPAREN)
            return expr
        if token.kind == STRING:
            self.advance()
            return Literal(token.value)
        if token.kind == NUMBER:
            self.advance()
            return Number(float(token.value))
        if token.kind == DOLLAR:
            self.advance()
            return VariableRef(self.expect(NAME).value)
        if token.kind == NAME:
            name = self.advance().value
            self.expect(LPAREN)
            args: list[Expr] = []
            if self.current.kind != RPAREN:
                args.append(self.parse_nested())
                while self.accept(COMMA):
                    args.append(self.parse_nested())
            self.expect(RPAREN)
            return FunctionCall(name, tuple(args))
        raise self.error("expected an expression")


def parse_xpath(expression: str) -> Expr:
    """Parse an Extended XPath expression into an AST."""
    return _Parser(expression).parse()
