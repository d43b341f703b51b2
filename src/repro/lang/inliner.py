"""Small-function inlining.

Section 6 of the paper discusses inlining as the compiler's answer to
prologue/epilogue overhead and repetition, and Table 9 asks whether the
top contributors are small enough to inline.  This pass makes the
question testable: it inlines calls to *expression functions* — functions
whose body is a single ``return <pure expression>;`` — substituting
argument expressions for parameters.

Safety conditions (all enforced):

* the callee body is one ``return`` of a side-effect-free expression
  (no calls, assignments, or ``++``/``--`` — so no recursion either);
* every argument at the call site is itself side-effect-free, because
  substitution may duplicate or drop an argument expression.

The pass is deliberately separate from the -O1 optimizer so the
inlining ablation (``benchmarks/test_ablation_inlining.py``) can vary it
independently.
"""

from __future__ import annotations

from typing import Dict, List, Optional

from repro.lang import astnodes as ast
from repro.lang.optimizer import is_pure
from repro.lang.sema import LocalSymbol
from repro.lang.types import CHAR, INT


def _copy_expr(expr: ast.Expr) -> ast.Expr:
    """Structural copy of an expression tree.

    Nodes are fresh; symbol bindings, callee references, and type
    annotations are shared (they are immutable for our purposes).
    """
    if isinstance(expr, ast.IntLiteral):
        clone: ast.Expr = ast.IntLiteral(expr.line, expr.value)
    elif isinstance(expr, ast.StringLiteral):
        clone = ast.StringLiteral(expr.line, expr.value)
    elif isinstance(expr, ast.Ident):
        ident = ast.Ident(expr.line, expr.name)
        ident.symbol = expr.symbol
        clone = ident
    elif isinstance(expr, ast.Unary):
        clone = ast.Unary(expr.line, expr.op, _copy_expr(expr.operand))
    elif isinstance(expr, ast.Binary):
        clone = ast.Binary(expr.line, expr.op, _copy_expr(expr.left), _copy_expr(expr.right))
    elif isinstance(expr, ast.Index):
        clone = ast.Index(expr.line, _copy_expr(expr.base), _copy_expr(expr.index))
    elif isinstance(expr, ast.Deref):
        clone = ast.Deref(expr.line, _copy_expr(expr.operand))
    elif isinstance(expr, ast.AddrOf):
        clone = ast.AddrOf(expr.line, _copy_expr(expr.operand))
    elif isinstance(expr, ast.Conditional):
        clone = ast.Conditional(
            expr.line,
            _copy_expr(expr.cond),
            _copy_expr(expr.then_value),
            _copy_expr(expr.else_value),
        )
    else:  # pragma: no cover - callers pre-filter to pure expressions
        raise TypeError(f"cannot copy {type(expr).__name__}")
    clone.ctype = expr.ctype
    return clone


def _substitute(expr: ast.Expr, mapping: Dict[int, ast.Expr]) -> ast.Expr:
    """Copy ``expr``, replacing parameter references via ``mapping``
    (keyed by ``id(symbol)``; each use gets a fresh copy of the
    argument)."""
    clone = _copy_expr(expr)

    def rewrite(node: ast.Expr) -> ast.Expr:
        if isinstance(node, ast.Ident) and id(node.symbol) in mapping:
            return _copy_expr(mapping[id(node.symbol)])
        if isinstance(node, ast.Unary):
            node.operand = rewrite(node.operand)  # type: ignore[arg-type]
        elif isinstance(node, ast.Binary):
            node.left = rewrite(node.left)  # type: ignore[arg-type]
            node.right = rewrite(node.right)  # type: ignore[arg-type]
        elif isinstance(node, ast.Index):
            node.base = rewrite(node.base)  # type: ignore[arg-type]
            node.index = rewrite(node.index)  # type: ignore[arg-type]
        elif isinstance(node, (ast.Deref, ast.AddrOf)):
            node.operand = rewrite(node.operand)  # type: ignore[arg-type]
        elif isinstance(node, ast.Conditional):
            node.cond = rewrite(node.cond)  # type: ignore[arg-type]
            node.then_value = rewrite(node.then_value)  # type: ignore[arg-type]
            node.else_value = rewrite(node.else_value)  # type: ignore[arg-type]
        return node

    return rewrite(clone)  # type: ignore[arg-type]


def _as_char(expr: ast.Expr) -> ast.Expr:
    """``expr`` converted to ``char``: ``(expr << 24) >> 24`` unless it
    already is one (the conversion a call makes for a char parameter or
    return value)."""
    if expr.ctype == CHAR:
        return expr
    for op in ("<<", ">>"):
        shift = ast.IntLiteral(expr.line, 24)
        shift.ctype = INT
        expr = ast.Binary(expr.line, op, expr, shift)
        expr.ctype = INT
    return expr


class Inliner:
    """Inlines calls to single-return-expression functions."""

    def __init__(self, sema) -> None:
        self.sema = sema
        self.unit = sema.unit
        self.inlined_calls = 0
        self._candidates = self._find_candidates()

    # -- candidate discovery -----------------------------------------------

    def _find_candidates(self) -> Dict[str, ast.FunctionDef]:
        candidates: Dict[str, ast.FunctionDef] = {}
        for func in self.unit.functions:
            if func.name == "main":
                continue
            statements = func.body.statements
            if len(statements) != 1 or not isinstance(statements[0], ast.Return):
                continue
            value = statements[0].value
            if value is None or not is_pure(value):
                continue
            candidates[func.name] = func
        return candidates

    @property
    def candidate_names(self) -> List[str]:
        return sorted(self._candidates)

    # -- transformation -------------------------------------------------------

    def _try_inline(self, call: ast.Call) -> Optional[ast.Expr]:
        func = self._candidates.get(call.name)
        if func is None:
            return None
        if any(not is_pure(arg) for arg in call.args):
            return None
        params = self.sema.function_info[func.name].params
        mapping = {
            id(param): _as_char(arg) if param.ctype == CHAR else arg
            for param, arg in zip(params, call.args)
        }
        body_expr = func.body.statements[0].value  # type: ignore[union-attr]
        inlined = _substitute(body_expr, mapping)  # type: ignore[arg-type]
        if func.return_type == CHAR:
            inlined = _as_char(inlined)
        # The call produced the callee's return type; keep it unless that
        # changes the width of a load ('s[1]' of a 'char *s', returned as
        # an int, stays a byte load).
        if not (
            isinstance(inlined, (ast.Index, ast.Deref))
            and inlined.ctype.size != call.ctype.size  # type: ignore[union-attr]
        ):
            inlined.ctype = call.ctype
        self.inlined_calls += 1
        return inlined

    def rewrite_expr(self, expr: Optional[ast.Expr]) -> Optional[ast.Expr]:
        if expr is None:
            return None
        if isinstance(expr, ast.Unary):
            expr.operand = self.rewrite_expr(expr.operand)
        elif isinstance(expr, ast.Binary):
            expr.left = self.rewrite_expr(expr.left)
            expr.right = self.rewrite_expr(expr.right)
        elif isinstance(expr, ast.Assign):
            expr.target = self.rewrite_expr(expr.target)
            expr.value = self.rewrite_expr(expr.value)
        elif isinstance(expr, ast.Call):
            expr.args = [self.rewrite_expr(a) for a in expr.args]  # type: ignore[misc]
            replacement = self._try_inline(expr)
            if replacement is not None:
                return replacement
        elif isinstance(expr, ast.Index):
            expr.base = self.rewrite_expr(expr.base)
            expr.index = self.rewrite_expr(expr.index)
        elif isinstance(expr, (ast.Deref, ast.AddrOf)):
            expr.operand = self.rewrite_expr(expr.operand)
        elif isinstance(expr, ast.IncDec):
            expr.target = self.rewrite_expr(expr.target)
        elif isinstance(expr, ast.Conditional):
            expr.cond = self.rewrite_expr(expr.cond)
            expr.then_value = self.rewrite_expr(expr.then_value)
            expr.else_value = self.rewrite_expr(expr.else_value)
        return expr

    def rewrite_stmt(self, stmt: ast.Stmt) -> None:
        if isinstance(stmt, ast.Block):
            for inner in stmt.statements:
                self.rewrite_stmt(inner)
        elif isinstance(stmt, ast.ExprStmt):
            stmt.expr = self.rewrite_expr(stmt.expr)  # type: ignore[assignment]
        elif isinstance(stmt, ast.If):
            stmt.cond = self.rewrite_expr(stmt.cond)  # type: ignore[assignment]
            self.rewrite_stmt(stmt.then_body)
            if stmt.else_body is not None:
                self.rewrite_stmt(stmt.else_body)
        elif isinstance(stmt, ast.While):
            stmt.cond = self.rewrite_expr(stmt.cond)  # type: ignore[assignment]
            self.rewrite_stmt(stmt.body)
        elif isinstance(stmt, ast.DoWhile):
            self.rewrite_stmt(stmt.body)
            stmt.cond = self.rewrite_expr(stmt.cond)  # type: ignore[assignment]
        elif isinstance(stmt, ast.For):
            stmt.init = self.rewrite_expr(stmt.init)
            stmt.cond = self.rewrite_expr(stmt.cond)
            stmt.step = self.rewrite_expr(stmt.step)
            self.rewrite_stmt(stmt.body)
        elif isinstance(stmt, ast.Switch):
            stmt.selector = self.rewrite_expr(stmt.selector)  # type: ignore[assignment]
            for case in stmt.cases:
                for inner in case.body:
                    self.rewrite_stmt(inner)
        elif isinstance(stmt, ast.Return):
            if stmt.value is not None:
                stmt.value = self.rewrite_expr(stmt.value)
        elif isinstance(stmt, ast.VarDecl):
            if stmt.init is not None:
                stmt.init = self.rewrite_expr(stmt.init)

    def run(self) -> int:
        """Inline across the whole unit; returns the call count inlined.

        Callee bodies are rewritten first so chains of expression
        functions collapse fully (f calls g calls h).
        """
        changed = True
        passes = 0
        while changed and passes < 4:
            before = self.inlined_calls
            for func in self.unit.functions:
                self.rewrite_stmt(func.body)
            # Refresh candidates: a callee may have become one after its
            # own calls were inlined away.
            self._candidates = self._find_candidates()
            changed = self.inlined_calls != before
            passes += 1
        return self.inlined_calls


def inline_small_functions(sema) -> Inliner:
    """Run the inliner over an analyzed unit (in place)."""
    inliner = Inliner(sema)
    inliner.run()
    return inliner
