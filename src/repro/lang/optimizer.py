"""AST-level optimizer for MiniC.

Section 6 of the paper asks whether an optimizing compiler could have
eliminated the observed repetition statically, and argues that much of it
survives optimization.  This pass lets the claim be tested: it performs
the classic machine-independent optimizations —

* constant folding (32-bit wrap-around semantics, matching the target),
* algebraic simplification (``x+0``, ``x*1``, ``x*0``, ``x<<0``, ...),
* strength reduction (``x * 2^k`` -> ``x << k``),
* dead-branch elimination (``if (0)``, ``while (0)``),
* trivial peephole cleanup of the emitted assembly (self-moves,
  branches to the next line)

— and the ablation bench (``benchmarks/test_ablation_optimizer.py``)
compares repetition with and without it.  The transformations only fire
when provably safe: operand expressions must be side-effect-free before
they can be dropped.

Run after semantic analysis (nodes carry types) and before codegen.
"""

from __future__ import annotations

from typing import List, Optional

from repro.isa.bits import to_s32, to_u32
from repro.lang import astnodes as ast
from repro.lang.types import INT


def _fold_binary(op: str, left: int, right: int) -> Optional[int]:
    """Evaluate a binary op over 32-bit ints; None when not foldable."""
    lu, ru = to_u32(left), to_u32(right)
    ls, rs = to_s32(lu), to_s32(ru)
    if op == "+":
        return to_s32(lu + ru)
    if op == "-":
        return to_s32(lu - ru)
    if op == "*":
        return to_s32(ls * rs)
    if op == "/":
        if rs == 0:
            return None  # preserve runtime behaviour
        quotient = abs(ls) // abs(rs)
        return -quotient if (ls < 0) != (rs < 0) else quotient
    if op == "%":
        if rs == 0:
            return None
        quotient = abs(ls) // abs(rs)
        if (ls < 0) != (rs < 0):
            quotient = -quotient
        return ls - quotient * rs
    if op == "&":
        return to_s32(lu & ru)
    if op == "|":
        return to_s32(lu | ru)
    if op == "^":
        return to_s32(lu ^ ru)
    if op == "<<":
        return to_s32(lu << (ru & 31))
    if op == ">>":
        return ls >> (ru & 31)
    if op == "==":
        return int(ls == rs)
    if op == "!=":
        return int(ls != rs)
    if op == "<":
        return int(ls < rs)
    if op == "<=":
        return int(ls <= rs)
    if op == ">":
        return int(ls > rs)
    if op == ">=":
        return int(ls >= rs)
    if op == "&&":
        return int(bool(ls) and bool(rs))
    assert op == "||", op  # the last of the parser's binary operators
    return int(bool(ls) or bool(rs))


def _literal(line: int, value: int) -> ast.IntLiteral:
    node = ast.IntLiteral(line, to_s32(value))
    node.ctype = INT
    return node


def _is_literal(expr: Optional[ast.Expr], value: Optional[int] = None) -> bool:
    if not isinstance(expr, ast.IntLiteral):
        return False
    return value is None or expr.value == value


def _power_of_two(value: int) -> Optional[int]:
    if value > 0 and (value & (value - 1)) == 0:
        return value.bit_length() - 1
    return None


def is_pure(expr: ast.Expr) -> bool:
    """True if evaluating ``expr`` has no side effects (no calls, no
    assignments, no loads that could fault differently — loads are pure
    here since MiniC has no volatile)."""
    if isinstance(expr, (ast.IntLiteral, ast.StringLiteral, ast.Ident)):
        return True
    if isinstance(expr, ast.Unary):
        return is_pure(expr.operand)
    if isinstance(expr, ast.Binary):
        return is_pure(expr.left) and is_pure(expr.right)
    if isinstance(expr, ast.Index):
        return is_pure(expr.base) and is_pure(expr.index)
    if isinstance(expr, (ast.Deref, ast.AddrOf)):
        return is_pure(expr.operand)
    if isinstance(expr, ast.Conditional):
        return (
            is_pure(expr.cond) and is_pure(expr.then_value) and is_pure(expr.else_value)
        )
    # Calls, assignments, and ++/-- have effects.
    return False


class Optimizer:
    """Rewrites a semantically-analyzed translation unit in place."""

    def __init__(self) -> None:
        self.folded = 0
        self.simplified = 0
        self.branches_eliminated = 0

    # -- expressions ----------------------------------------------------

    def optimize_expr(self, expr: Optional[ast.Expr]) -> Optional[ast.Expr]:
        if expr is None:
            return None
        if isinstance(expr, ast.Unary):
            expr.operand = self.optimize_expr(expr.operand)
            if _is_literal(expr.operand):
                value = expr.operand.value  # type: ignore[union-attr]
                folded = {"-": -value, "~": ~value, "!": int(not value)}[expr.op]
                self.folded += 1
                return _literal(expr.line, folded)
            return expr
        if isinstance(expr, ast.Binary):
            return self._optimize_binary(expr)
        if isinstance(expr, ast.Assign):
            expr.target = self.optimize_expr(expr.target)
            expr.value = self.optimize_expr(expr.value)
            return expr
        if isinstance(expr, ast.Call):
            expr.args = [self.optimize_expr(a) for a in expr.args]  # type: ignore[misc]
            return expr
        if isinstance(expr, ast.Index):
            expr.base = self.optimize_expr(expr.base)
            expr.index = self.optimize_expr(expr.index)
            return expr
        if isinstance(expr, ast.Deref):
            expr.operand = self.optimize_expr(expr.operand)
            return expr
        if isinstance(expr, ast.AddrOf):
            expr.operand = self.optimize_expr(expr.operand)
            return expr
        if isinstance(expr, ast.IncDec):
            expr.target = self.optimize_expr(expr.target)
            return expr
        if isinstance(expr, ast.Conditional):
            expr.cond = self.optimize_expr(expr.cond)
            expr.then_value = self.optimize_expr(expr.then_value)
            expr.else_value = self.optimize_expr(expr.else_value)
            if _is_literal(expr.cond):
                self.branches_eliminated += 1
                return expr.then_value if expr.cond.value else expr.else_value  # type: ignore[union-attr]
            return expr
        return expr

    def _optimize_binary(self, expr: ast.Binary) -> ast.Expr:
        expr.left = self.optimize_expr(expr.left)
        expr.right = self.optimize_expr(expr.right)
        left, right = expr.left, expr.right
        op = expr.op

        # Pure constant folding (only for arithmetic operands — pointer
        # arithmetic must keep its scaling semantics in codegen).
        left_arith = left.ctype is not None and left.ctype.decayed().is_arithmetic
        right_arith = right.ctype is not None and right.ctype.decayed().is_arithmetic
        if _is_literal(left) and _is_literal(right) and left_arith and right_arith:
            folded = _fold_binary(op, left.value, right.value)  # type: ignore[union-attr]
            if folded is not None:
                self.folded += 1
                return _literal(expr.line, folded)

        if left_arith and right_arith:
            # x + 0, x - 0, x | 0, x ^ 0, x << 0, x >> 0  ->  x
            if op in ("+", "-", "|", "^", "<<", ">>") and _is_literal(right, 0):
                self.simplified += 1
                return left
            # 0 + x  ->  x
            if op == "+" and _is_literal(left, 0):
                self.simplified += 1
                return right
            # x * 1, x / 1  ->  x
            if op in ("*", "/") and _is_literal(right, 1):
                self.simplified += 1
                return left
            # 1 * x  ->  x
            if op == "*" and _is_literal(left, 1):
                self.simplified += 1
                return right
            # x * 0 -> 0 and 0 * x -> 0, when x is pure.
            if op == "*" and (_is_literal(right, 0) and is_pure(left)):
                self.simplified += 1
                return _literal(expr.line, 0)
            if op == "*" and (_is_literal(left, 0) and is_pure(right)):
                self.simplified += 1
                return _literal(expr.line, 0)
            # x & 0 -> 0 (pure x); x & -1 -> x
            if op == "&" and _is_literal(right, 0) and is_pure(left):
                self.simplified += 1
                return _literal(expr.line, 0)
            # Strength reduction: x * 2^k -> x << k.
            if op == "*" and isinstance(right, ast.IntLiteral):
                shift = _power_of_two(right.value)
                if shift is not None and shift > 1:
                    self.simplified += 1
                    replacement = ast.Binary(expr.line, "<<", left, _literal(expr.line, shift))
                    replacement.ctype = expr.ctype
                    return replacement
            if op == "*" and isinstance(left, ast.IntLiteral):
                shift = _power_of_two(left.value)
                if shift is not None and shift > 1:
                    self.simplified += 1
                    replacement = ast.Binary(expr.line, "<<", right, _literal(expr.line, shift))
                    replacement.ctype = expr.ctype
                    return replacement
        # Short-circuit with constant left side.
        if op == "&&" and _is_literal(left, 0):
            self.simplified += 1
            return _literal(expr.line, 0)
        if op == "||" and isinstance(left, ast.IntLiteral) and left.value != 0:
            self.simplified += 1
            return _literal(expr.line, 1)
        return expr

    # -- statements -----------------------------------------------------

    def optimize_stmt(self, stmt: ast.Stmt) -> Optional[ast.Stmt]:
        """Returns the replacement statement, or None to delete it."""
        if isinstance(stmt, ast.Block):
            statements: List[ast.Stmt] = []
            for inner in stmt.statements:
                replacement = self.optimize_stmt(inner)
                if replacement is not None:
                    statements.append(replacement)
            stmt.statements = statements
            return stmt
        if isinstance(stmt, ast.ExprStmt):
            stmt.expr = self.optimize_expr(stmt.expr)  # type: ignore[assignment]
            if is_pure(stmt.expr):
                # A pure expression statement has no effect at all.
                self.simplified += 1
                return None
            return stmt
        if isinstance(stmt, ast.If):
            stmt.cond = self.optimize_expr(stmt.cond)  # type: ignore[assignment]
            stmt.then_body = self.optimize_stmt(stmt.then_body) or ast.Block(stmt.line, [])
            if stmt.else_body is not None:
                stmt.else_body = self.optimize_stmt(stmt.else_body)
            if _is_literal(stmt.cond):
                self.branches_eliminated += 1
                if stmt.cond.value:  # type: ignore[union-attr]
                    return stmt.then_body
                return stmt.else_body
            return stmt
        if isinstance(stmt, ast.While):
            stmt.cond = self.optimize_expr(stmt.cond)  # type: ignore[assignment]
            stmt.body = self.optimize_stmt(stmt.body) or ast.Block(stmt.line, [])
            if _is_literal(stmt.cond, 0):
                self.branches_eliminated += 1
                return None
            return stmt
        if isinstance(stmt, ast.DoWhile):
            stmt.body = self.optimize_stmt(stmt.body) or ast.Block(stmt.line, [])
            stmt.cond = self.optimize_expr(stmt.cond)  # type: ignore[assignment]
            # A do-while body always runs once; a false constant condition
            # reduces it to the body alone.
            if _is_literal(stmt.cond, 0):
                self.branches_eliminated += 1
                return stmt.body
            return stmt
        if isinstance(stmt, ast.For):
            stmt.init = self.optimize_expr(stmt.init)
            stmt.cond = self.optimize_expr(stmt.cond)
            stmt.step = self.optimize_expr(stmt.step)
            stmt.body = self.optimize_stmt(stmt.body) or ast.Block(stmt.line, [])
            if stmt.cond is not None and _is_literal(stmt.cond, 0):
                self.branches_eliminated += 1
                if stmt.init is not None and not is_pure(stmt.init):
                    return ast.ExprStmt(stmt.line, stmt.init)
                return None
            return stmt
        if isinstance(stmt, ast.Switch):
            stmt.selector = self.optimize_expr(stmt.selector)  # type: ignore[assignment]
            for case in stmt.cases:
                optimized = []
                for inner in case.body:
                    replacement = self.optimize_stmt(inner)
                    if replacement is not None:
                        optimized.append(replacement)
                case.body = optimized
            return stmt
        if isinstance(stmt, ast.Return):
            if stmt.value is not None:
                stmt.value = self.optimize_expr(stmt.value)
            return stmt
        if isinstance(stmt, ast.VarDecl):
            if stmt.init is not None:
                stmt.init = self.optimize_expr(stmt.init)
            return stmt
        return stmt

    # -- top level -------------------------------------------------------

    def optimize_unit(self, unit: ast.TranslationUnit) -> ast.TranslationUnit:
        for func in unit.functions:
            self.optimize_stmt(func.body)
        return unit


# ---------------------------------------------------------------------------
# Assembly peephole
# ---------------------------------------------------------------------------


def peephole_assembly(text: str) -> str:
    """Trivial safe cleanups of emitted assembly:

    * drop self-moves (``move $r, $r`` / ``addu $r, $r, $zero``);
    * drop unconditional branches to a label on the very next line.
    """
    lines = text.splitlines()
    out: List[str] = []
    for index, line in enumerate(lines):
        stripped = line.strip()
        if stripped.startswith("move "):
            operands = stripped[5:].replace(" ", "").split(",")
            if len(operands) == 2 and operands[0] == operands[1]:
                continue
        if stripped.startswith("b "):
            target = stripped[2:].strip()
            if index + 1 < len(lines) and lines[index + 1].strip() == f"{target}:":
                continue  # branch to the very next line: fall through
        out.append(line)
    return "\n".join(out) + ("\n" if text.endswith("\n") else "")


def optimize(unit: ast.TranslationUnit) -> Optimizer:
    """Optimize ``unit`` in place; returns the pass with its counters."""
    optimizer = Optimizer()
    optimizer.optimize_unit(unit)
    return optimizer
