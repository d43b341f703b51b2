"""Semantic analysis for MiniC.

Responsibilities:

* build symbol tables (globals, functions, builtins, block-scoped locals);
* resolve every identifier and annotate every expression with its type;
* enforce C-subset typing rules (lvalues, pointer arithmetic, call
  signatures, loop-scoped ``break``/``continue``);
* fold constant subexpressions so large constants reach the code
  generator as single literals (which then exercise the assembler's
  ``lui``/``ori`` synthesis, an ISA-induced repetition source);
* record per-function facts codegen needs: the flat list of locals,
  whether the function makes calls, which locals have their address
  taken.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

from repro.isa.convention import MAX_REGISTER_ARGS
from repro.lang import astnodes as ast
from repro.lang.errors import SemaError
from repro.lang.types import (
    ArrayType,
    CHAR,
    FunctionType,
    INT,
    PointerType,
    Type,
    VOID,
    compatible_assignment,
)


# ---------------------------------------------------------------------------
# Symbols
# ---------------------------------------------------------------------------


@dataclass
class GlobalSymbol:
    name: str
    ctype: Type
    init: Optional[ast.Initializer]
    #: Assembly label (same as name; globals live in .data).
    label: str = ""

    def __post_init__(self) -> None:
        self.label = self.name


@dataclass
class LocalSymbol:
    name: str
    ctype: Type
    #: Parameter index (0-based) or None for plain locals.
    param_index: Optional[int] = None
    #: True if & was applied or the local is an array (must live on stack).
    address_taken: bool = False
    #: Codegen fills these: "sreg" home index or stack frame offset.
    sreg: Optional[int] = None
    frame_offset: Optional[int] = None

    @property
    def is_param(self) -> bool:
        return self.param_index is not None


@dataclass
class FunctionSymbol:
    name: str
    ftype: FunctionType
    defined: bool = False


@dataclass(frozen=True)
class Builtin:
    """A builtin function compiled to an inline syscall sequence."""

    name: str
    ret: Type
    params: Tuple[Type, ...]
    service: int


@dataclass
class FunctionInfoSema:
    """Facts about one function collected during analysis."""

    symbol: FunctionSymbol
    params: List[LocalSymbol] = field(default_factory=list)
    #: All locals including params, in declaration order.
    locals: List[LocalSymbol] = field(default_factory=list)
    makes_calls: bool = False


def _make_builtins() -> Dict[str, Builtin]:
    from repro.isa.convention import Syscall

    char_ptr = PointerType(CHAR)
    return {
        b.name: b
        for b in (
            Builtin("getchar", INT, (), Syscall.READ_CHAR),
            Builtin("putchar", VOID, (INT,), Syscall.PRINT_CHAR),
            Builtin("print_int", VOID, (INT,), Syscall.PRINT_INT),
            Builtin("print_str", VOID, (char_ptr,), Syscall.PRINT_STRING),
            Builtin("read_int", INT, (), Syscall.READ_INT),
            Builtin("exit", VOID, (INT,), Syscall.EXIT),
            Builtin("sbrk", char_ptr, (INT,), Syscall.SBRK),
        )
    }


BUILTINS = _make_builtins()


# ---------------------------------------------------------------------------
# Analyzer
# ---------------------------------------------------------------------------


class SemanticAnalyzer:
    """Type-checks and annotates a parsed translation unit."""

    def __init__(self, unit: ast.TranslationUnit) -> None:
        self.unit = unit
        self.globals: Dict[str, GlobalSymbol] = {}
        self.functions: Dict[str, FunctionSymbol] = {}
        self.function_info: Dict[str, FunctionInfoSema] = {}
        self._scopes: List[Dict[str, LocalSymbol]] = []
        self._current: Optional[FunctionInfoSema] = None
        self._loop_depth = 0
        self._break_depth = 0  # loops + switches

    def error(self, message: str, node) -> SemaError:
        return SemaError(message, getattr(node, "line", 0))

    # -- entry point -----------------------------------------------------

    def analyze(self) -> ast.TranslationUnit:
        for decl in self.unit.globals:
            self._declare_global(decl)
        for func in self.unit.functions:
            self._declare_function(func)
        for func in self.unit.functions:
            self._check_function(func)
        if "main" not in self.functions:
            raise SemaError("program has no 'main' function")
        return self.unit

    # -- declarations ------------------------------------------------------

    def _declare_global(self, decl: ast.GlobalDecl) -> None:
        if decl.name in self.globals or decl.name in BUILTINS:
            raise self.error(f"redefinition of {decl.name!r}", decl)
        if decl.declared_type == VOID:
            raise self.error("global cannot have type void", decl)
        if isinstance(decl.init, list) and not isinstance(decl.declared_type, ArrayType):
            raise self.error("brace initializer on non-array", decl)
        if isinstance(decl.init, int) and isinstance(decl.declared_type, ArrayType):
            raise self.error("scalar initializer on array", decl)
        if isinstance(decl.init, str):
            if not (
                isinstance(decl.declared_type, ArrayType)
                and decl.declared_type.element == CHAR
            ) and decl.declared_type != PointerType(CHAR):
                raise self.error("string initializer needs char array or char*", decl)
        if (
            isinstance(decl.init, list)
            and isinstance(decl.declared_type, ArrayType)
            and len(decl.init) > decl.declared_type.length
        ):
            raise self.error("too many initializers", decl)
        self.globals[decl.name] = GlobalSymbol(decl.name, decl.declared_type, decl.init)

    def _declare_function(self, func: ast.FunctionDef) -> None:
        if func.name in self.functions or func.name in BUILTINS or func.name in self.globals:
            raise self.error(f"redefinition of {func.name!r}", func)
        if len(func.params) > MAX_REGISTER_ARGS:
            raise self.error(
                f"function {func.name!r} has more than {MAX_REGISTER_ARGS} parameters", func
            )
        ftype = FunctionType(func.return_type, tuple(p.declared_type for p in func.params))
        self.functions[func.name] = FunctionSymbol(func.name, ftype, defined=True)

    # -- scopes ----------------------------------------------------------

    def _push_scope(self) -> None:
        self._scopes.append({})

    def _pop_scope(self) -> None:
        self._scopes.pop()

    def _bind_local(self, symbol: LocalSymbol, node) -> None:
        scope = self._scopes[-1]
        if symbol.name in scope:
            raise self.error(f"redeclaration of {symbol.name!r}", node)
        scope[symbol.name] = symbol
        assert self._current is not None
        self._current.locals.append(symbol)

    def _lookup(self, name: str) -> Optional[object]:
        for scope in reversed(self._scopes):
            if name in scope:
                return scope[name]
        if name in self.globals:
            return self.globals[name]
        if name in self.functions:
            return self.functions[name]
        if name in BUILTINS:
            return BUILTINS[name]
        return None

    # -- functions ---------------------------------------------------------

    def _check_function(self, func: ast.FunctionDef) -> None:
        info = FunctionInfoSema(self.functions[func.name])
        self.function_info[func.name] = info
        self._current = info
        self._push_scope()
        for index, param in enumerate(func.params):
            if param.declared_type == VOID:
                raise self.error("parameter cannot be void", param)
            symbol = LocalSymbol(param.name, param.declared_type, param_index=index)
            self._bind_local(symbol, param)
            info.params.append(symbol)
        self._check_block(func.body, func.return_type, new_scope=False)
        self._pop_scope()
        self._current = None

    def _check_block(self, block: ast.Block, ret: Type, new_scope: bool = True) -> None:
        if new_scope:
            self._push_scope()
        for stmt in block.statements:
            self._check_statement(stmt, ret)
        if new_scope:
            self._pop_scope()

    def _check_statement(self, stmt: ast.Stmt, ret: Type) -> None:
        if isinstance(stmt, ast.Block):
            self._check_block(stmt, ret)
        elif isinstance(stmt, ast.ExprStmt):
            self._check_expr(stmt.expr)
        elif isinstance(stmt, ast.If):
            self._require_scalar(self._check_expr(stmt.cond), stmt.cond)
            self._check_statement(stmt.then_body, ret)
            if stmt.else_body is not None:
                self._check_statement(stmt.else_body, ret)
        elif isinstance(stmt, ast.While):
            self._require_scalar(self._check_expr(stmt.cond), stmt.cond)
            self._loop_depth += 1
            self._break_depth += 1
            self._check_statement(stmt.body, ret)
            self._loop_depth -= 1
            self._break_depth -= 1
        elif isinstance(stmt, ast.DoWhile):
            self._loop_depth += 1
            self._break_depth += 1
            self._check_statement(stmt.body, ret)
            self._loop_depth -= 1
            self._break_depth -= 1
            self._require_scalar(self._check_expr(stmt.cond), stmt.cond)
        elif isinstance(stmt, ast.Switch):
            self._check_switch(stmt, ret)
        elif isinstance(stmt, ast.For):
            if stmt.init is not None:
                self._check_expr(stmt.init)
            if stmt.cond is not None:
                self._require_scalar(self._check_expr(stmt.cond), stmt.cond)
            if stmt.step is not None:
                self._check_expr(stmt.step)
            self._loop_depth += 1
            self._break_depth += 1
            self._check_statement(stmt.body, ret)
            self._loop_depth -= 1
            self._break_depth -= 1
        elif isinstance(stmt, ast.Return):
            if stmt.value is None:
                if ret != VOID:
                    raise self.error("non-void function must return a value", stmt)
            else:
                if ret == VOID:
                    raise self.error("void function cannot return a value", stmt)
                value_type = self._check_expr(stmt.value)
                if not compatible_assignment(ret, value_type):
                    raise self.error(f"cannot return {value_type} as {ret}", stmt)
        elif isinstance(stmt, ast.Break):
            if self._break_depth == 0:
                raise self.error("break outside loop or switch", stmt)
        elif isinstance(stmt, ast.Continue):
            if self._loop_depth == 0:
                raise self.error("continue outside loop", stmt)
        elif isinstance(stmt, ast.VarDecl):
            self._check_var_decl(stmt)
        else:  # pragma: no cover - parser produces no other nodes
            raise self.error(f"unknown statement {type(stmt).__name__}", stmt)

    def _check_switch(self, stmt: ast.Switch, ret: Type) -> None:
        selector_type = self._check_expr(stmt.selector)
        if not selector_type.decayed().is_arithmetic:
            raise self.error("switch selector must be arithmetic", stmt)
        seen_values = set()
        defaults = 0
        self._break_depth += 1
        self._push_scope()
        for case in stmt.cases:
            for value in case.values:
                if value in seen_values:
                    raise self.error(f"duplicate case value {value}", case)
                seen_values.add(value)
            if case.is_default:
                defaults += 1
                if defaults > 1:
                    raise self.error("multiple default labels", case)
            for inner in case.body:
                self._check_statement(inner, ret)
        self._pop_scope()
        self._break_depth -= 1

    def _check_var_decl(self, stmt: ast.VarDecl) -> None:
        if stmt.declared_type == VOID:
            raise self.error("variable cannot be void", stmt)
        symbol = LocalSymbol(stmt.name, stmt.declared_type)
        if isinstance(stmt.declared_type, ArrayType):
            symbol.address_taken = True  # arrays must live in memory
            if stmt.init is not None:
                raise self.error("local arrays cannot have initializers", stmt)
        self._bind_local(symbol, stmt)
        stmt.symbol = symbol
        if stmt.init is not None:
            init_type = self._check_expr(stmt.init)
            if not compatible_assignment(stmt.declared_type, init_type):
                raise self.error(
                    f"cannot initialize {stmt.declared_type} with {init_type}", stmt
                )

    # -- expressions -----------------------------------------------------

    def _require_scalar(self, ctype: Type, node) -> None:
        if not ctype.decayed().is_scalar:
            raise self.error(f"expected scalar value, got {ctype}", node)

    def _check_expr(self, expr: ast.Expr) -> Type:
        ctype = self._compute_type(expr)
        expr.ctype = ctype
        return ctype

    def _compute_type(self, expr: ast.Expr) -> Type:
        if isinstance(expr, ast.IntLiteral):
            return INT
        if isinstance(expr, ast.StringLiteral):
            return PointerType(CHAR)
        if isinstance(expr, ast.Ident):
            symbol = self._lookup(expr.name)
            if symbol is None:
                raise self.error(f"undeclared identifier {expr.name!r}", expr)
            if isinstance(symbol, (FunctionSymbol, Builtin)):
                raise self.error(f"function {expr.name!r} used as a value", expr)
            expr.symbol = symbol
            return symbol.ctype
        if isinstance(expr, ast.Unary):
            return self._check_unary(expr)
        if isinstance(expr, ast.Binary):
            return self._check_binary(expr)
        if isinstance(expr, ast.Assign):
            return self._check_assign(expr)
        if isinstance(expr, ast.Call):
            return self._check_call(expr)
        if isinstance(expr, ast.Index):
            base_type = self._check_expr(expr.base).decayed()
            if not isinstance(base_type, PointerType):
                raise self.error("indexing a non-array", expr)
            index_type = self._check_expr(expr.index)
            if not index_type.decayed().is_arithmetic:
                raise self.error("array index must be arithmetic", expr)
            return base_type.pointee
        if isinstance(expr, ast.Deref):
            operand = self._check_expr(expr.operand).decayed()
            if not isinstance(operand, PointerType):
                raise self.error("dereferencing a non-pointer", expr)
            return operand.pointee
        if isinstance(expr, ast.IncDec):
            target_type = self._check_expr(expr.target)
            if not self._is_lvalue(expr.target):
                raise self.error(f"{expr.op} needs an lvalue", expr)
            decayed = target_type.decayed()
            if not (decayed.is_arithmetic or decayed.is_pointer) or target_type.is_array:
                raise self.error(f"{expr.op} needs arithmetic or pointer operand", expr)
            return target_type
        if isinstance(expr, ast.Conditional):
            self._require_scalar(self._check_expr(expr.cond), expr.cond)
            then_type = self._check_expr(expr.then_value).decayed()
            else_type = self._check_expr(expr.else_value).decayed()
            if then_type.is_arithmetic and else_type.is_arithmetic:
                return INT
            if then_type.is_pointer and else_type.is_pointer and then_type == else_type:
                return then_type
            # Pointer vs integer (null-style) mixes resolve to the pointer.
            if then_type.is_pointer and else_type.is_arithmetic:
                return then_type
            if else_type.is_pointer and then_type.is_arithmetic:
                return else_type
            raise self.error("incompatible ?: arms", expr)
        if isinstance(expr, ast.AddrOf):
            operand_type = self._check_expr(expr.operand)
            if not self._is_lvalue(expr.operand):
                raise self.error("& needs an lvalue", expr)
            self._mark_address_taken(expr.operand)
            return PointerType(operand_type.decayed() if operand_type.is_array else operand_type)
        raise self.error(f"unknown expression {type(expr).__name__}", expr)

    def _check_unary(self, expr: ast.Unary) -> Type:
        operand_type = self._check_expr(expr.operand)
        if expr.op in ("-", "~"):
            if not operand_type.is_arithmetic:
                raise self.error(f"unary {expr.op} needs arithmetic operand", expr)
            return INT
        if expr.op == "!":
            self._require_scalar(operand_type, expr)
            return INT
        raise self.error(f"unknown unary operator {expr.op!r}", expr)

    def _check_binary(self, expr: ast.Binary) -> Type:
        left = self._check_expr(expr.left).decayed()
        right = self._check_expr(expr.right).decayed()
        op = expr.op
        if op in ("&&", "||"):
            self._require_scalar(left, expr.left)
            self._require_scalar(right, expr.right)
            return INT
        if op in ("==", "!=", "<", "<=", ">", ">="):
            if left.is_pointer or right.is_pointer:
                ok = (left.is_pointer and right.is_pointer) or (
                    left.is_arithmetic or right.is_arithmetic
                )
                if not ok:
                    raise self.error("invalid pointer comparison", expr)
            return INT
        if op == "+":
            if left.is_pointer and right.is_arithmetic:
                return left
            if left.is_arithmetic and right.is_pointer:
                return right
            if left.is_arithmetic and right.is_arithmetic:
                return INT
            raise self.error("invalid operands to +", expr)
        if op == "-":
            if left.is_pointer and right.is_arithmetic:
                return left
            if left.is_pointer and right.is_pointer:
                if left != right:
                    raise self.error("pointer subtraction of different types", expr)
                return INT
            if left.is_arithmetic and right.is_arithmetic:
                return INT
            raise self.error("invalid operands to -", expr)
        if op in ("*", "/", "%", "&", "|", "^", "<<", ">>"):
            if not (left.is_arithmetic and right.is_arithmetic):
                raise self.error(f"operator {op!r} needs arithmetic operands", expr)
            return INT
        raise self.error(f"unknown binary operator {op!r}", expr)

    def _check_assign(self, expr: ast.Assign) -> Type:
        target_type = self._check_expr(expr.target)
        if not self._is_lvalue(expr.target):
            raise self.error("assignment target is not an lvalue", expr)
        if target_type.is_array:
            raise self.error("cannot assign to an array", expr)
        value_type = self._check_expr(expr.value)
        if expr.op == "=":
            if not compatible_assignment(target_type, value_type):
                raise self.error(f"cannot assign {value_type} to {target_type}", expr)
        else:
            base_op = expr.op[:-1]
            if base_op in ("+", "-") and target_type.is_pointer:
                if not value_type.decayed().is_arithmetic:
                    raise self.error("pointer compound assignment needs integer", expr)
            elif not (target_type.is_arithmetic and value_type.decayed().is_arithmetic):
                raise self.error(f"operator {expr.op!r} needs arithmetic operands", expr)
        return target_type

    def _check_call(self, expr: ast.Call) -> Type:
        callee = self._lookup(expr.name)
        if callee is None:
            raise self.error(f"call to undeclared function {expr.name!r}", expr)
        if isinstance(callee, Builtin):
            param_types: Tuple[Type, ...] = callee.params
            ret = callee.ret
        elif isinstance(callee, FunctionSymbol):
            param_types = callee.ftype.params
            ret = callee.ftype.ret
            if self._current is not None:
                self._current.makes_calls = True
        else:
            raise self.error(f"{expr.name!r} is not a function", expr)
        expr.callee = callee
        if len(expr.args) != len(param_types):
            raise self.error(
                f"{expr.name!r} expects {len(param_types)} arguments, got {len(expr.args)}",
                expr,
            )
        for arg, param_type in zip(expr.args, param_types):
            arg_type = self._check_expr(arg)
            if not compatible_assignment(param_type, arg_type):
                raise self.error(f"cannot pass {arg_type} as {param_type}", arg)
        return ret

    # -- lvalues ------------------------------------------------------------

    def _is_lvalue(self, expr: ast.Expr) -> bool:
        if isinstance(expr, ast.Ident):
            return isinstance(expr.symbol, (LocalSymbol, GlobalSymbol))
        return isinstance(expr, (ast.Index, ast.Deref))

    def _mark_address_taken(self, expr: ast.Expr) -> None:
        if isinstance(expr, ast.Ident) and isinstance(expr.symbol, LocalSymbol):
            expr.symbol.address_taken = True


def analyze(unit: ast.TranslationUnit) -> SemanticAnalyzer:
    """Run semantic analysis; returns the analyzer with its symbol tables."""
    analyzer = SemanticAnalyzer(unit)
    analyzer.analyze()
    return analyzer
