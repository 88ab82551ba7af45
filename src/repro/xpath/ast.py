"""AST nodes for Extended XPath expressions."""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional


class Expr:
    """Base class of expression nodes."""

    __slots__ = ()


@dataclass(frozen=True)
class Literal(Expr):
    value: str


@dataclass(frozen=True)
class Number(Expr):
    value: float


@dataclass(frozen=True)
class VariableRef(Expr):
    """An XPath 1.0 variable reference: ``$name``."""

    name: str


@dataclass(frozen=True)
class Binary(Expr):
    """Binary operator: or/and/=/!=/</<=/>/>=/+/-/*/div/mod/|."""

    op: str
    left: Expr
    right: Expr


@dataclass(frozen=True)
class Unary(Expr):
    """Unary minus."""

    operand: Expr


@dataclass(frozen=True)
class FunctionCall(Expr):
    name: str
    args: tuple[Expr, ...] = ()


@dataclass(frozen=True)
class NodeTest:
    """What a step matches.

    * ``kind="name"``: element (or attribute) name test, with optional
      hierarchy qualifier (``phys:line``) and wildcards (``*``,
      ``phys:*``);
    * ``kind="text"``: leaves (``text()``);
    * ``kind="node"``: any node (``node()``).
    """

    kind: str = "name"
    name: str = "*"
    hierarchy: Optional[str] = None

    def __str__(self) -> str:  # pragma: no cover - display helper
        if self.kind == "name":
            prefix = f"{self.hierarchy}:" if self.hierarchy else ""
            return prefix + self.name
        return f"{self.kind}()"


@dataclass(frozen=True)
class Step:
    """One location step: ``axis::test[predicate]*``."""

    axis: str
    test: NodeTest
    predicates: tuple[Expr, ...] = ()

    def __str__(self) -> str:  # pragma: no cover - display helper
        preds = "".join(f"[{p!r}]" for p in self.predicates)
        return f"{self.axis}::{self.test}{preds}"


@dataclass(frozen=True)
class LocationPath(Expr):
    """A (possibly absolute) sequence of steps."""

    absolute: bool
    steps: tuple[Step, ...]


@dataclass(frozen=True)
class FilterExpr(Expr):
    """A primary expression with predicates, optionally followed by a
    relative path: ``(...)[1]/child::w``."""

    primary: Expr
    predicates: tuple[Expr, ...] = ()
    steps: tuple[Step, ...] = ()


@dataclass(frozen=True)
class Union(Expr):
    """Node-set union: ``a | b``."""

    left: Expr
    right: Expr


def children(expr: Expr) -> tuple[Expr, ...]:
    """The direct subexpressions of ``expr``, step predicates included."""
    if isinstance(expr, (Binary, Union)):
        return (expr.left, expr.right)
    if isinstance(expr, Unary):
        return (expr.operand,)
    if isinstance(expr, FunctionCall):
        return expr.args
    if isinstance(expr, LocationPath):
        return tuple(p for step in expr.steps for p in step.predicates)
    if isinstance(expr, FilterExpr):
        return (expr.primary, *expr.predicates,
                *(p for step in expr.steps for p in step.predicates))
    return ()


def depth(expr: Expr) -> int:
    """Nodes on the longest root-to-leaf path of ``expr`` (no recursion,
    so any tree can be measured)."""
    deepest = 0
    stack = [(expr, 1)]
    while stack:
        node, level = stack.pop()
        deepest = max(deepest, level)
        stack.extend((child, level + 1) for child in children(node))
    return deepest
