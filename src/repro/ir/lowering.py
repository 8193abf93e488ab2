"""Lowering from the mini-Fortran AST to the repro IR.

Lowering is where *naive range checking* happens: every array access
gets a lower-bound and an upper-bound :class:`Check` per dimension,
built in canonical form from the flattened (affine) subscript AST --
these are the paper's PRX-checks, "created from program expressions
using the abstract syntax tree" (section 2.3).  The optimizer then
removes as many of them as the chosen placement scheme allows.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Sequence, Tuple, Union

from ..checks.canonical import CanonicalCheck, make_check
from ..errors import SemanticError
from ..frontend import ast
from ..symbolic import LinearExpr
from .basicblock import BasicBlock
from .builder import IRBuilder
from .function import Function, Module
from .types import ArrayType, BOOL, Dimension, INT, REAL, ScalarType
from .values import Const, Value, Var
from .verify import verify_module

_TYPE_NAMES = {"integer": INT, "real": REAL}


class _Signature:
    """Parameter kinds of a unit, for call lowering."""

    def __init__(self, unit: ast.Unit) -> None:
        array_names = {d.name for d in unit.decls
                       if isinstance(d, ast.ArrayDecl)}
        self.param_kinds: List[str] = [
            "array" if p in array_names else "scalar" for p in unit.params]


def lower_source_file(source: ast.SourceFile) -> Module:
    """Lower a parsed source file to an IR module (and verify it)."""
    signatures = {unit.name: _Signature(unit) for unit in source.units}
    module = Module(source.main.name)
    for unit in source.units:
        module.add(_UnitLowering(unit, signatures).lower())
    verify_module(module)
    return module


def lower_program(source_text: str) -> Module:
    """Parse and lower mini-Fortran source text."""
    from ..frontend.parser import parse_source

    return lower_source_file(parse_source(source_text))


class _UnitLowering:
    """Lowers one program unit."""

    def __init__(self, unit: ast.Unit,
                 signatures: Dict[str, _Signature]) -> None:
        self.unit = unit
        self.signatures = signatures
        self.function = Function(unit.name, is_main=unit.is_main)
        self.builder = IRBuilder(self.function)
        self.types: Dict[str, ScalarType] = {}
        self.bound_symbols: set = set()
        # innermost-first stack of (latch block, exit block) for
        # 'cycle' and 'exit' statements
        self._loop_stack: List[Tuple[BasicBlock, BasicBlock]] = []

    # -- entry point -----------------------------------------------------

    def lower(self) -> Function:
        self._process_decls()
        self._check_bound_immutability()
        entry = self.function.new_block("entry")
        self.builder.set_block(entry)
        self._lower_body(self.unit.body)
        if not self.builder.is_terminated():
            self.builder.ret()
        self._terminate_stragglers()
        self.function.remove_unreachable_blocks()
        return self.function

    def _terminate_stragglers(self) -> None:
        for block in self.function.blocks:
            if block.terminator is None:
                self.builder.set_block(block)
                self.builder.ret()

    # -- declarations -------------------------------------------------------

    def _process_decls(self) -> None:
        unit = self.unit
        array_decls: Dict[str, ast.ArrayDecl] = {}
        for decl in unit.decls:
            if isinstance(decl, ast.ScalarDecl):
                stype = _TYPE_NAMES[decl.type_name]
                for name in decl.names:
                    self._declare(name, stype, decl.line)
            elif isinstance(decl, ast.InputDecl):
                if not unit.is_main:
                    raise SemanticError("'input' only allowed in a program",
                                        decl.line)
                stype = _TYPE_NAMES[decl.type_name]
                self._declare(decl.name, stype, decl.line)
                var = Var(decl.name, stype)
                self.function.add_param(var)
                self.function.input_defaults[decl.name] = \
                    _literal_value(decl.default, stype)
            elif isinstance(decl, ast.ArrayDecl):
                array_decls[decl.name] = decl
        # parameters, in header order (array parameters must bind
        # positionally at call sites)
        for pname in unit.params:
            if pname in array_decls:
                self._declare_array(array_decls[pname], is_param=True)
            elif pname in self.types:
                self.function.add_param(Var(pname, self.types[pname]))
            else:
                raise SemanticError("parameter %r has no declaration" % pname,
                                    unit.line)
        # local (non-parameter) arrays
        for decl in array_decls.values():
            if decl.name not in unit.params:
                self._declare_array(decl, is_param=False)

    def _declare(self, name: str, stype: ScalarType, line: int) -> None:
        if name in self.types:
            raise SemanticError("variable %r declared twice" % name, line)
        self.types[name] = stype
        self.function.declare_scalar(Var(name, stype))

    def _declare_array(self, decl: ast.ArrayDecl, is_param: bool) -> None:
        if decl.name in self.types:
            raise SemanticError("array %r shadows a scalar" % decl.name,
                                decl.line)
        dims: List[Dimension] = []
        for low_ast, high_ast in decl.dims:
            lower = (LinearExpr.constant(1) if low_ast is None
                     else self._bound_expr(low_ast, decl))
            upper = self._bound_expr(high_ast, decl)
            dims.append(Dimension(lower, upper))
        element = _TYPE_NAMES[decl.type_name]
        self.function.add_array(decl.name, ArrayType(element, dims), is_param)

    def _bound_expr(self, expr: ast.Expr, decl: ast.Decl) -> LinearExpr:
        affine = self._affine(expr)
        if affine is None:
            raise SemanticError(
                "array bound of %r must be affine in integer scalars"
                % decl.name, decl.line)
        self.bound_symbols.update(affine.symbols())
        return affine

    def _check_bound_immutability(self) -> None:
        """Symbols used in array bounds may not be assigned in the body.

        This keeps declared bounds valid at every program point, which
        the canonical check form relies on.
        """
        assigned = set()
        _collect_assigned(self.unit.body, assigned)
        clobbered = self.bound_symbols & assigned
        if clobbered:
            raise SemanticError(
                "array-bound variables may not be assigned: %s"
                % ", ".join(sorted(clobbered)), self.unit.line)

    # -- statements ---------------------------------------------------------

    def _lower_body(self, stmts: Sequence[ast.Stmt]) -> None:
        for stmt in stmts:
            if self.builder.is_terminated():
                # unreachable code after 'return'; park it in a dead block
                self.builder.set_block(self.function.new_block("dead"))
            self._lower_stmt(stmt)

    def _lower_stmt(self, stmt: ast.Stmt) -> None:
        if isinstance(stmt, ast.AssignStmt):
            self._lower_assign(stmt)
        elif isinstance(stmt, ast.DoStmt):
            self._lower_do(stmt)
        elif isinstance(stmt, ast.WhileStmt):
            self._lower_while(stmt)
        elif isinstance(stmt, ast.IfStmt):
            self._lower_if(stmt)
        elif isinstance(stmt, ast.CallStmt):
            self._lower_call(stmt)
        elif isinstance(stmt, ast.PrintStmt):
            self.builder.print_value(self._expr(stmt.expr))
        elif isinstance(stmt, ast.ReturnStmt):
            self.builder.ret()
        elif isinstance(stmt, ast.ExitStmt):
            if not self._loop_stack:
                raise SemanticError("'exit' outside of a loop", stmt.line)
            self.builder.jump(self._loop_stack[-1][1])
        elif isinstance(stmt, ast.CycleStmt):
            if not self._loop_stack:
                raise SemanticError("'cycle' outside of a loop", stmt.line)
            self.builder.jump(self._loop_stack[-1][0])
        else:  # pragma: no cover - parser produces no other nodes
            raise SemanticError("unsupported statement %r" % stmt, stmt.line)

    def _lower_assign(self, stmt: ast.AssignStmt) -> None:
        target = stmt.target
        if isinstance(target, ast.VarRef):
            stype = self._scalar_type(target.name, target.line)
            value = self._coerce(self._expr(stmt.expr), stype, stmt.line)
            self.builder.assign(Var(target.name, stype), value)
        elif isinstance(target, ast.ArrayRef):
            atype = self._array_type(target.name, target.line)
            indices = self._lower_subscripts(target)
            value = self._coerce(self._expr(stmt.expr), atype.element,
                                 stmt.line)
            self.builder.store(target.name, indices, value)
        else:
            raise SemanticError("invalid assignment target", stmt.line)

    def _lower_do(self, stmt: ast.DoStmt) -> None:
        stype = self._scalar_type(stmt.var, stmt.line)
        if stype is not INT:
            raise SemanticError("do-variable %r must be integer" % stmt.var,
                                stmt.line)
        loop_var = Var(stmt.var, INT)
        start = self._coerce(self._expr(stmt.start), INT, stmt.line)
        stop = self._coerce(self._expr(stmt.stop), INT, stmt.line)
        if stmt.step is None:
            step: Value = Const(1)
        else:
            step = self._coerce(self._expr(stmt.step), INT, stmt.line)
        # Fortran semantics: bounds are evaluated once, before the loop.
        stop = self._pin(stop)
        step = self._pin(step)
        self.builder.assign(loop_var, start)

        header = self.function.new_block("do_head")
        body = self.function.new_block("do_body")
        latch = self.function.new_block("do_latch")
        exit_block = self.function.new_block("do_exit")
        self.builder.jump(header)
        self.builder.set_block(header)
        cond = self._do_condition(loop_var, stop, step, stmt.line)
        self.builder.cond_jump(cond, body, exit_block)

        self.builder.set_block(body)
        self._loop_stack.append((latch, exit_block))
        self._lower_body(stmt.body)
        self._loop_stack.pop()
        if not self.builder.is_terminated():
            self.builder.jump(latch)
        self.builder.set_block(latch)
        bumped = self.builder.binop("add", loop_var, step)
        self.builder.assign(loop_var, bumped)
        self.builder.jump(header)
        self.builder.set_block(exit_block)

    def _pin(self, value: Value) -> Value:
        """Copy a non-constant loop bound into a dedicated temporary."""
        if isinstance(value, Const):
            return value
        pinned = self.builder.new_temp(value.type)
        self.builder.assign(pinned, value)
        return pinned

    def _do_condition(self, loop_var: Var, stop: Value, step: Value,
                      line: int) -> Value:
        if isinstance(step, Const):
            if step.value > 0:
                return self.builder.binop("le", loop_var, stop)
            if step.value < 0:
                return self.builder.binop("ge", loop_var, stop)
            raise SemanticError("do-loop step must be nonzero", line)
        up = self.builder.binop("and",
                                self.builder.binop("ge", step, Const(0)),
                                self.builder.binop("le", loop_var, stop))
        down = self.builder.binop("and",
                                  self.builder.binop("lt", step, Const(0)),
                                  self.builder.binop("ge", loop_var, stop))
        return self.builder.binop("or", up, down)

    def _lower_while(self, stmt: ast.WhileStmt) -> None:
        header = self.function.new_block("wh_head")
        body = self.function.new_block("wh_body")
        latch = self.function.new_block("wh_latch")
        exit_block = self.function.new_block("wh_exit")
        self.builder.jump(header)
        self.builder.set_block(header)
        cond = self._expr(stmt.cond)
        if cond.type is not BOOL:
            raise SemanticError("while condition must be logical", stmt.line)
        self.builder.cond_jump(cond, body, exit_block)
        self.builder.set_block(body)
        self._loop_stack.append((latch, exit_block))
        self._lower_body(stmt.body)
        self._loop_stack.pop()
        if not self.builder.is_terminated():
            self.builder.jump(latch)
        self.builder.set_block(latch)
        self.builder.jump(header)
        self.builder.set_block(exit_block)

    def _lower_if(self, stmt: ast.IfStmt) -> None:
        exit_block = self.function.new_block("if_exit")
        reachable_exit = False
        for cond_ast, body in stmt.arms:
            cond = self._expr(cond_ast)
            if cond.type is not BOOL:
                raise SemanticError("if condition must be logical", stmt.line)
            then_block = self.function.new_block("if_then")
            else_block = self.function.new_block("if_else")
            self.builder.cond_jump(cond, then_block, else_block)
            self.builder.set_block(then_block)
            self._lower_body(body)
            if not self.builder.is_terminated():
                self.builder.jump(exit_block)
                reachable_exit = True
            self.builder.set_block(else_block)
        if stmt.else_body is not None:
            self._lower_body(stmt.else_body)
        if not self.builder.is_terminated():
            self.builder.jump(exit_block)
            reachable_exit = True
        if reachable_exit:
            self.builder.set_block(exit_block)
        else:
            self.function.blocks.remove(exit_block)
            self.builder.set_block(self.function.new_block("dead"))

    def _lower_call(self, stmt: ast.CallStmt) -> None:
        signature = self.signatures.get(stmt.name)
        if signature is None:
            raise SemanticError("call to unknown subroutine %r" % stmt.name,
                                stmt.line)
        if len(stmt.args) != len(signature.param_kinds):
            raise SemanticError(
                "call to %r passes %d args, expected %d"
                % (stmt.name, len(stmt.args), len(signature.param_kinds)),
                stmt.line)
        scalars: List[Value] = []
        arrays: List[str] = []
        for arg, kind in zip(stmt.args, signature.param_kinds):
            if kind == "array":
                if not isinstance(arg, ast.VarRef) or \
                        arg.name not in self.function.arrays:
                    raise SemanticError(
                        "argument for array parameter must be an array name",
                        stmt.line)
                arrays.append(arg.name)
            else:
                scalars.append(self._expr(arg))
        self.builder.call(stmt.name, scalars, arrays, line=stmt.line)

    # -- expressions ---------------------------------------------------------

    def _expr(self, expr: ast.Expr) -> Value:
        if isinstance(expr, ast.Num):
            return Const(expr.value)
        if isinstance(expr, ast.BoolLit):
            return Const(expr.value)
        if isinstance(expr, ast.VarRef):
            stype = self._scalar_type(expr.name, expr.line)
            return Var(expr.name, stype)
        if isinstance(expr, ast.ArrayRef):
            indices = self._lower_subscripts(expr)
            return self.builder.load(expr.name, indices)
        if isinstance(expr, ast.BinExpr):
            return self._binexpr(expr)
        if isinstance(expr, ast.UnExpr):
            operand = self._expr(expr.operand)
            if expr.op == "not" and operand.type is not BOOL:
                raise SemanticError(".not. needs a logical operand", expr.line)
            return self.builder.unop(expr.op, operand)
        if isinstance(expr, ast.Intrinsic):
            return self._intrinsic(expr)
        raise SemanticError("unsupported expression %r" % expr, expr.line)

    def _binexpr(self, expr: ast.BinExpr) -> Value:
        lhs = self._expr(expr.lhs)
        rhs = self._expr(expr.rhs)
        if expr.op in ("and", "or"):
            if lhs.type is not BOOL or rhs.type is not BOOL:
                raise SemanticError("logical operator on non-logical operands",
                                    expr.line)
            return self.builder.binop(expr.op, lhs, rhs)
        lhs, rhs = self._balance(lhs, rhs, expr.line)
        return self.builder.binop(expr.op, lhs, rhs)

    def _intrinsic(self, expr: ast.Intrinsic) -> Value:
        name = expr.name
        args = [self._expr(a) for a in expr.args]
        if name in ("mod", "min", "max"):
            _require_arity(expr, 2)
            lhs, rhs = self._balance(args[0], args[1], expr.line)
            return self.builder.binop(name if name != "mod" else "mod",
                                      lhs, rhs)
        _require_arity(expr, 1)
        arg = args[0]
        if name == "abs":
            return self.builder.unop("abs", arg)
        if name == "int":
            return self.builder.unop("rtoi", arg) if arg.type is REAL else arg
        if name == "real":
            return self.builder.unop("itor", arg) if arg.type is INT else arg
        if name in ("sqrt", "exp", "log", "sin", "cos"):
            if arg.type is INT:
                arg = self.builder.unop("itor", arg)
            return self.builder.unop(name, arg)
        raise SemanticError("unknown intrinsic %r" % name, expr.line)

    def _balance(self, lhs: Value, rhs: Value, line: int) -> Tuple[Value, Value]:
        """Insert int-to-real conversions for mixed arithmetic."""
        if lhs.type is BOOL or rhs.type is BOOL:
            raise SemanticError("logical value in arithmetic context", line)
        if lhs.type is REAL and rhs.type is INT:
            rhs = self.builder.unop("itor", rhs)
        elif lhs.type is INT and rhs.type is REAL:
            lhs = self.builder.unop("itor", lhs)
        return lhs, rhs

    def _coerce(self, value: Value, target: ScalarType, line: int) -> Value:
        if value.type is target:
            return value
        if value.type is INT and target is REAL:
            return self.builder.unop("itor", value)
        if value.type is REAL and target is INT:
            return self.builder.unop("rtoi", value)
        raise SemanticError("cannot convert %s to %s" % (value.type, target),
                            line)

    # -- subscripts and checks ---------------------------------------------

    def _lower_subscripts(self, ref: ast.ArrayRef) -> List[Value]:
        atype = self._array_type(ref.name, ref.line)
        if len(ref.indices) != atype.rank:
            raise SemanticError(
                "array %r has rank %d, subscripted with %d indices"
                % (ref.name, atype.rank, len(ref.indices)), ref.line)
        values: List[Value] = []
        affine_forms: List[LinearExpr] = []
        for idx_ast in ref.indices:
            value = self._coerce(self._expr(idx_ast), INT, ref.line)
            affine = self._affine(idx_ast)
            if affine is None:
                affine = _affine_of_value(value)
            values.append(value)
            affine_forms.append(affine)
        for dim, subscript in zip(atype.dims, affine_forms):
            self._emit_check_pair(ref.name, subscript, dim)
        return values

    def _emit_check_pair(self, array: str, subscript: LinearExpr,
                         dim: Dimension) -> None:
        lower = CanonicalCheck.lower(subscript, dim.lower)
        upper = CanonicalCheck.upper(subscript, dim.upper)
        self.builder.emit(make_check(lower, self._var_map(lower.linexpr),
                                     "lower", array))
        self.builder.emit(make_check(upper, self._var_map(upper.linexpr),
                                     "upper", array))

    def _var_map(self, linexpr: LinearExpr) -> Dict[str, Var]:
        mapping: Dict[str, Var] = {}
        for sym in linexpr.symbols():
            stype = self.function.scalar_types.get(sym)
            if stype is None:
                raise SemanticError("unknown symbol %r in range check" % sym)
            mapping[sym] = Var(sym, stype)
        return mapping

    def _affine(self, expr: ast.Expr) -> Optional[LinearExpr]:
        """The affine form of an integer AST expression, if it has one."""
        if isinstance(expr, ast.Num):
            return LinearExpr.constant(expr.value) \
                if isinstance(expr.value, int) else None
        if isinstance(expr, ast.VarRef):
            if self.types.get(expr.name) is INT:
                return LinearExpr.symbol(expr.name)
            return None
        if isinstance(expr, ast.UnExpr) and expr.op == "neg":
            inner = self._affine(expr.operand)
            return -inner if inner is not None else None
        if isinstance(expr, ast.BinExpr):
            if expr.op in ("add", "sub"):
                lhs = self._affine(expr.lhs)
                rhs = self._affine(expr.rhs)
                if lhs is None or rhs is None:
                    return None
                return lhs + rhs if expr.op == "add" else lhs - rhs
            if expr.op == "mul":
                lhs = self._affine(expr.lhs)
                rhs = self._affine(expr.rhs)
                if lhs is None or rhs is None:
                    return None
                if lhs.is_constant():
                    return rhs * lhs.const
                if rhs.is_constant():
                    return lhs * rhs.const
        return None

    # -- lookup helpers -------------------------------------------------------

    def _scalar_type(self, name: str, line: int) -> ScalarType:
        stype = self.types.get(name)
        if stype is None:
            raise SemanticError("undeclared variable %r" % name, line)
        return stype

    def _array_type(self, name: str, line: int) -> ArrayType:
        atype = self.function.arrays.get(name)
        if atype is None:
            raise SemanticError("undeclared array %r" % name, line)
        return atype


def _affine_of_value(value: Value) -> LinearExpr:
    if isinstance(value, Const):
        return LinearExpr.constant(int(value.value))
    assert isinstance(value, Var)
    return LinearExpr.symbol(value.name)


def _literal_value(expr: ast.Expr, stype: ScalarType) -> Union[int, float]:
    if isinstance(expr, ast.Num):
        value = expr.value
    elif isinstance(expr, ast.UnExpr) and expr.op == "neg" and \
            isinstance(expr.operand, ast.Num):
        value = -expr.operand.value
    else:
        raise SemanticError("input default must be a literal", expr.line)
    return float(value) if stype is REAL else int(value)


def _require_arity(expr: ast.Intrinsic, count: int) -> None:
    if len(expr.args) != count:
        raise SemanticError("%s expects %d argument(s)" % (expr.name, count),
                            expr.line)


def _collect_assigned(stmts: Sequence[ast.Stmt], out: set) -> None:
    for stmt in stmts:
        if isinstance(stmt, ast.AssignStmt) and \
                isinstance(stmt.target, ast.VarRef):
            out.add(stmt.target.name)
        elif isinstance(stmt, ast.DoStmt):
            out.add(stmt.var)
            _collect_assigned(stmt.body, out)
        elif isinstance(stmt, ast.WhileStmt):
            _collect_assigned(stmt.body, out)
        elif isinstance(stmt, ast.IfStmt):
            for _, body in stmt.arms:
                _collect_assigned(body, out)
            if stmt.else_body is not None:
                _collect_assigned(stmt.else_body, out)
