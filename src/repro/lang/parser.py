"""Recursive-descent parser for MiniC.

Grammar summary (C subset):

* top level: global variable declarations (with constant initializers)
  and function definitions;
* types: ``int``, ``char``, pointers thereof, one-dimensional arrays;
* statements: blocks, ``if``/``else``, ``while``, ``do``/``while``,
  ``for``, ``return``, ``break``, ``continue``, declarations,
  expression statements;
* expressions: full C operator precedence (including ``?:`` and
  ``++``/``--``) minus the comma operator and ``sizeof``.
"""

from __future__ import annotations

from typing import List, Optional

from repro.lang import astnodes as ast
from repro.lang.errors import ParseError
from repro.lang.lexer import tokenize
from repro.lang.tokens import Token, TokenKind
from repro.lang.types import ArrayType, CHAR, INT, PointerType, Type, VOID

_ASSIGN_OPS = frozenset({"=", "+=", "-=", "*=", "/=", "%=", "&=", "|=", "^=", "<<=", ">>="})

#: Binary operator precedence tiers, loosest first.
_BINARY_TIERS = (
    ("||",),
    ("&&",),
    ("|",),
    ("^",),
    ("&",),
    ("==", "!="),
    ("<", "<=", ">", ">="),
    ("<<", ">>"),
    ("+", "-"),
    ("*", "/", "%"),
)


class Parser:
    """Parses one translation unit."""

    def __init__(self, source: str) -> None:
        self.tokens = tokenize(source)
        self.pos = 0

    # -- token plumbing --------------------------------------------------

    def peek(self, offset: int = 0) -> Token:
        index = min(self.pos + offset, len(self.tokens) - 1)
        return self.tokens[index]

    def next(self) -> Token:
        token = self.peek()
        if token.kind != TokenKind.EOF:
            self.pos += 1
        return token

    def error(self, message: str, token: Optional[Token] = None) -> ParseError:
        token = token if token is not None else self.peek()
        return ParseError(message, token.line, token.column)

    def accept_op(self, text: str) -> bool:
        if self.peek().is_op(text):
            self.pos += 1
            return True
        return False

    def expect_op(self, text: str) -> Token:
        token = self.peek()
        if not token.is_op(text):
            raise self.error(f"expected {text!r}, got {token.text!r}")
        return self.next()

    def accept_keyword(self, text: str) -> bool:
        if self.peek().is_keyword(text):
            self.pos += 1
            return True
        return False

    def expect_ident(self) -> Token:
        token = self.peek()
        if token.kind != TokenKind.IDENT:
            raise self.error(f"expected identifier, got {token.text!r}")
        return self.next()

    # -- types ------------------------------------------------------------

    def at_type(self) -> bool:
        return self.peek().kind == TokenKind.KEYWORD and self.peek().text in ("int", "char", "void")

    def parse_base_type(self) -> Type:
        token = self.next()
        if token.text == "int":
            base: Type = INT
        elif token.text == "char":
            base = CHAR
        elif token.text == "void":
            if self.peek().is_op("*"):
                raise self.error("void is a return type only, not a pointer target")
            base = VOID
        else:
            raise self.error("expected type", token)
        while self.accept_op("*"):
            base = PointerType(base)
        return base

    # -- constant expressions (global initializers, array lengths) --------

    def parse_const_expr(self) -> int:
        return self._const_additive()

    def _const_additive(self) -> int:
        value = self._const_term()
        while True:
            if self.accept_op("+"):
                value += self._const_term()
            elif self.accept_op("-"):
                value -= self._const_term()
            else:
                return value

    def _const_term(self) -> int:
        value = self._const_factor()
        while True:
            if self.accept_op("*"):
                value *= self._const_factor()
            elif self.accept_op("/"):
                value //= self._const_factor()
            else:
                return value

    def _const_factor(self) -> int:
        if self.accept_op("-"):
            return -self._const_factor()
        if self.accept_op("("):
            value = self._const_additive()
            self.expect_op(")")
            return value
        token = self.next()
        if token.kind in (TokenKind.NUMBER, TokenKind.CHAR):
            return int(token.value)  # type: ignore[arg-type]
        raise self.error("expected constant expression", token)

    # -- top level ----------------------------------------------------------

    def parse(self) -> ast.TranslationUnit:
        unit = ast.TranslationUnit()
        while self.peek().kind != TokenKind.EOF:
            if not self.at_type():
                raise self.error("expected declaration")
            line = self.peek().line
            base = self.parse_base_type()
            name = self.expect_ident().text
            if self.peek().is_op("("):
                unit.functions.append(self._parse_function(line, base, name))
            else:
                unit.globals.append(self._parse_global(line, base, name))
        return unit

    def _parse_global(self, line: int, base: Type, name: str) -> ast.GlobalDecl:
        declared: Type = base
        if self.accept_op("["):
            length = self.parse_const_expr()
            self.expect_op("]")
            declared = ArrayType(base, length)
        init: Optional[ast.Initializer] = None
        if self.accept_op("="):
            token = self.peek()
            if token.kind == TokenKind.STRING:
                self.next()
                init = str(token.value)
            elif token.is_op("{"):
                self.next()
                values: List[int] = []
                if not self.peek().is_op("}"):
                    values.append(self.parse_const_expr())
                    while self.accept_op(","):
                        values.append(self.parse_const_expr())
                self.expect_op("}")
                init = values
            else:
                init = self.parse_const_expr()
        self.expect_op(";")
        return ast.GlobalDecl(line, name, declared, init)

    def _parse_function(self, line: int, ret: Type, name: str) -> ast.FunctionDef:
        self.expect_op("(")
        params: List[ast.Param] = []
        if not self.peek().is_op(")"):
            if self.peek().is_keyword("void") and self.peek(1).is_op(")"):
                self.next()
            else:
                params.append(self._parse_param())
                while self.accept_op(","):
                    params.append(self._parse_param())
        self.expect_op(")")
        body = self.parse_block()
        return ast.FunctionDef(line, name, ret, params, body)

    def _parse_param(self) -> ast.Param:
        line = self.peek().line
        ptype = self.parse_base_type()
        name = self.expect_ident().text
        # Array parameters decay to pointers, as in C.
        if self.accept_op("["):
            self.expect_op("]")
            ptype = PointerType(ptype)
        return ast.Param(line, name, ptype)

    # -- statements ----------------------------------------------------------

    def parse_block(self) -> ast.Block:
        start = self.expect_op("{")
        statements: List[ast.Stmt] = []
        while not self.peek().is_op("}"):
            if self.peek().kind == TokenKind.EOF:
                raise self.error("unterminated block", start)
            statements.append(self.parse_statement())
        self.expect_op("}")
        return ast.Block(start.line, statements)

    def parse_statement(self) -> ast.Stmt:
        token = self.peek()
        if token.is_op("{"):
            return self.parse_block()
        if token.is_op(";"):
            self.next()
            return ast.Block(token.line, [])
        if token.is_keyword("if"):
            return self._parse_if()
        if token.is_keyword("while"):
            return self._parse_while()
        if token.is_keyword("do"):
            return self._parse_do_while()
        if token.is_keyword("switch"):
            return self._parse_switch()
        if token.is_keyword("for"):
            return self._parse_for()
        if token.is_keyword("return"):
            self.next()
            value = None if self.peek().is_op(";") else self.parse_expression()
            self.expect_op(";")
            return ast.Return(token.line, value)
        if token.is_keyword("break"):
            self.next()
            self.expect_op(";")
            return ast.Break(token.line)
        if token.is_keyword("continue"):
            self.next()
            self.expect_op(";")
            return ast.Continue(token.line)
        if self.at_type():
            return self._parse_var_decl()
        expr = self.parse_expression()
        self.expect_op(";")
        return ast.ExprStmt(token.line, expr)

    def _parse_if(self) -> ast.If:
        token = self.next()
        self.expect_op("(")
        cond = self.parse_expression()
        self.expect_op(")")
        then_body = self.parse_statement()
        else_body = self.parse_statement() if self.accept_keyword("else") else None
        return ast.If(token.line, cond, then_body, else_body)

    def _parse_while(self) -> ast.While:
        token = self.next()
        self.expect_op("(")
        cond = self.parse_expression()
        self.expect_op(")")
        return ast.While(token.line, cond, self.parse_statement())

    def _parse_do_while(self) -> ast.DoWhile:
        token = self.next()
        body = self.parse_statement()
        if not self.accept_keyword("while"):
            raise self.error("expected 'while' after do-body")
        self.expect_op("(")
        cond = self.parse_expression()
        self.expect_op(")")
        self.expect_op(";")
        return ast.DoWhile(token.line, body, cond)

    def _parse_switch(self) -> ast.Switch:
        token = self.next()
        self.expect_op("(")
        selector = self.parse_expression()
        self.expect_op(")")
        self.expect_op("{")
        cases: List[ast.SwitchCase] = []
        current: Optional[ast.SwitchCase] = None
        while not self.peek().is_op("}"):
            if self.peek().kind == TokenKind.EOF:
                raise self.error("unterminated switch", token)
            if self.peek().is_keyword("case"):
                line = self.next().line
                value = self.parse_const_expr()
                self.expect_op(":")
                if current is not None and not current.body:
                    # `case 1: case 2:` — stacked labels share one arm.
                    current.values.append(value)
                else:
                    current = ast.SwitchCase(line, [value])
                    cases.append(current)
            elif self.peek().is_keyword("default"):
                line = self.next().line
                self.expect_op(":")
                if current is not None and not current.body:
                    current.is_default = True
                else:
                    current = ast.SwitchCase(line, [], is_default=True)
                    cases.append(current)
            else:
                if current is None:
                    raise self.error("statement before first case label")
                current.body.append(self.parse_statement())
        self.expect_op("}")
        return ast.Switch(token.line, selector, cases)

    def _parse_for(self) -> ast.For:
        token = self.next()
        self.expect_op("(")
        init = None if self.peek().is_op(";") else self.parse_expression()
        self.expect_op(";")
        cond = None if self.peek().is_op(";") else self.parse_expression()
        self.expect_op(";")
        step = None if self.peek().is_op(")") else self.parse_expression()
        self.expect_op(")")
        return ast.For(token.line, init, cond, step, self.parse_statement())

    def _parse_var_decl(self) -> ast.VarDecl:
        line = self.peek().line
        base = self.parse_base_type()
        name = self.expect_ident().text
        declared: Type = base
        if self.accept_op("["):
            length = self.parse_const_expr()
            self.expect_op("]")
            declared = ArrayType(base, length)
        init = self.parse_expression() if self.accept_op("=") else None
        self.expect_op(";")
        return ast.VarDecl(line, name, declared, init)

    # -- expressions -----------------------------------------------------------

    def parse_expression(self) -> ast.Expr:
        return self._parse_assignment()

    def _parse_assignment(self) -> ast.Expr:
        left = self._parse_binary(0)
        token = self.peek()
        if token.is_op("?"):
            self.next()
            then_value = self.parse_expression()
            self.expect_op(":")
            else_value = self._parse_assignment()
            return ast.Conditional(token.line, left, then_value, else_value)
        if token.kind == TokenKind.OP and token.text in _ASSIGN_OPS:
            self.next()
            value = self._parse_assignment()
            return ast.Assign(token.line, token.text, left, value)
        return left

    def _parse_binary(self, tier: int) -> ast.Expr:
        if tier >= len(_BINARY_TIERS):
            return self._parse_unary()
        ops = _BINARY_TIERS[tier]
        left = self._parse_binary(tier + 1)
        while True:
            token = self.peek()
            if token.kind == TokenKind.OP and token.text in ops:
                self.next()
                right = self._parse_binary(tier + 1)
                left = ast.Binary(token.line, token.text, left, right)
            else:
                return left

    def _parse_unary(self) -> ast.Expr:
        token = self.peek()
        if token.is_op("++") or token.is_op("--"):
            self.next()
            return ast.IncDec(token.line, token.text, self._parse_unary(), True)
        if token.is_op("-"):
            self.next()
            return ast.Unary(token.line, "-", self._parse_unary())
        if token.is_op("!"):
            self.next()
            return ast.Unary(token.line, "!", self._parse_unary())
        if token.is_op("~"):
            self.next()
            return ast.Unary(token.line, "~", self._parse_unary())
        if token.is_op("*"):
            self.next()
            return ast.Deref(token.line, self._parse_unary())
        if token.is_op("&"):
            self.next()
            return ast.AddrOf(token.line, self._parse_unary())
        return self._parse_postfix()

    def _parse_postfix(self) -> ast.Expr:
        expr = self._parse_primary()
        while True:
            token = self.peek()
            if token.is_op("["):
                self.next()
                index = self.parse_expression()
                self.expect_op("]")
                expr = ast.Index(token.line, expr, index)
            elif token.is_op("++") or token.is_op("--"):
                self.next()
                expr = ast.IncDec(token.line, token.text, expr, False)
            elif token.is_op("(") and isinstance(expr, ast.Ident):
                self.next()
                args: List[ast.Expr] = []
                if not self.peek().is_op(")"):
                    args.append(self.parse_expression())
                    while self.accept_op(","):
                        args.append(self.parse_expression())
                self.expect_op(")")
                expr = ast.Call(token.line, expr.name, args)
            else:
                return expr

    def _parse_primary(self) -> ast.Expr:
        token = self.next()
        if token.kind in (TokenKind.NUMBER, TokenKind.CHAR):
            return ast.IntLiteral(token.line, int(token.value))  # type: ignore[arg-type]
        if token.kind == TokenKind.STRING:
            return ast.StringLiteral(token.line, str(token.value))
        if token.kind == TokenKind.IDENT:
            return ast.Ident(token.line, token.text)
        if token.is_op("("):
            expr = self.parse_expression()
            self.expect_op(")")
            return expr
        raise self.error(f"unexpected token {token.text!r}", token)


def parse(source: str) -> ast.TranslationUnit:
    """Parse MiniC source into an AST (convenience wrapper)."""
    return Parser(source).parse()
