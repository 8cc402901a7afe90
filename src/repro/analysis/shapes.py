"""Constant-shape verification (REPRO-SHAPE001).

Every value is tracked with a shape whose dims are either known
constants or unknown (``None``), propagated through numpy constructors,
reshapes, slicing and broadcasting by a forward evaluator with
per-call-site inlining of project helpers.  The rule reports a numpy
elementwise op whose operand dims are *constants that do not broadcast*,
and a reshape between two different constant totals: expressions that
can only raise at runtime.  Unknown dims never fire.

Instance attributes are learned in two phases: phase 1 evaluates every
top-level function to record ``self.x = ...`` facts, phase 2 evaluates
again with that table frozen and collects findings.
"""

from __future__ import annotations

import ast
from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Set, Tuple, Union

from repro.analysis.engine import Violation, register_project_check
from repro.analysis.project import (
    FunctionInfo,
    ModuleInfo,
    ProjectModel,
    Resolver,
    _dotted_name,
)

__all__ = [
    "SHAPE_RULE_ID",
    "ShapeChecker",
    "ShapeFact",
    "check_shapes",
]

SHAPE_RULE_ID = "REPRO-SHAPE001"

register_project_check(
    SHAPE_RULE_ID,
    "statically-provable broadcast/shape mismatch",
    """The operand shapes at this numpy op are compile-time constants
that do not broadcast; the expression can only raise (or, worse, be
dead code hiding a logic error).  Fix the shapes — the checker only
reports mismatches it can prove, never symbolic maybes.""",
    example="""a = np.zeros((3, 4))
b = np.ones((2, 4))
c = a + b                    # (3,4) vs (2,4): provably incompatible""",
)

#: A dim: a known constant, or ``None`` when it depends on the data.
Dim = Optional[int]


# ----------------------------------------------------------------------
# Fact domain.
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class ShapeFact:
    """An ndarray value with one :data:`Dim` per axis."""

    dims: Tuple[Dim, ...]


@dataclass(frozen=True)
class Const:
    """An integer scalar with a known value."""

    value: int


@dataclass(frozen=True)
class TupleFact:
    """A tuple literal with known items."""

    items: Tuple[object, ...]


@dataclass(frozen=True)
class ListFact:
    """A list value: its length (``None`` when unknown) and the joined
    element fact."""

    length: Dim
    element: object


@dataclass(frozen=True)
class FunctionValue:
    """First-class reference to a project function (incl. nested defs)."""

    qualname: str


@dataclass(frozen=True)
class _Singleton:
    label: str


UNKNOWN = _Singleton("unknown")
NONE = _Singleton("none")
SELF = _Singleton("self")

Fact = object


def join(a: Fact, b: Fact) -> Fact:
    """Least upper bound: what holds for either value."""
    if a == b:
        return a
    if a is NONE:
        return b
    if b is NONE:
        return a
    if (
        isinstance(a, ShapeFact)
        and isinstance(b, ShapeFact)
        and len(a.dims) == len(b.dims)
    ):
        return ShapeFact(
            tuple(da if da == db else None for da, db in zip(a.dims, b.dims))
        )
    if isinstance(a, ListFact) and isinstance(b, ListFact):
        return ListFact(
            a.length if a.length == b.length else None,
            join(a.element, b.element),
        )
    return UNKNOWN


def _const(fact: Fact) -> Dim:
    return fact.value if isinstance(fact, Const) else None


def _size(dims: Sequence[Dim]) -> Dim:
    total = 1
    for dim in dims:
        if dim is None:
            return None
        total *= dim
    return total


@dataclass(frozen=True)
class RawFinding:
    """One shape failure before being wrapped as a Violation."""

    path: str
    line: int
    col: int
    message: str


# ----------------------------------------------------------------------
# Whole-program driver.
# ----------------------------------------------------------------------
class ShapeChecker:
    """Two-phase shape analysis over a :class:`ProjectModel`."""

    #: Per-root budget of inline callee evaluations; beyond it calls
    #: degrade to unknown results (which never report).
    INLINE_BUDGET = 200
    #: Maximum inline nesting depth.
    INLINE_DEPTH = 5

    def __init__(self, model: ProjectModel):
        self.model = model
        self._attr_facts: Dict[Tuple[str, str], Fact] = {}
        self._module_eval_guard: Set[Tuple[str, str]] = set()
        self._closures: Dict[str, Dict[str, Fact]] = {}
        self._active: Set[str] = set()
        self.findings: List[RawFinding] = []
        self._collect = False
        self._budget = 0

    def record_attr(self, class_qualname: str, attr: str, fact: Fact) -> None:
        if self._collect:
            return  # frozen during the checking phase
        key = (class_qualname, attr)
        if key in self._attr_facts:
            fact = join(self._attr_facts[key], fact)
        self._attr_facts[key] = fact

    def attr_fact(self, class_qualname: str, attr: str) -> Fact:
        return self._attr_facts.get((class_qualname, attr), UNKNOWN)

    def report(self, finding: RawFinding) -> None:
        if self._collect:
            self.findings.append(finding)

    def run(self) -> List[RawFinding]:
        for collect in (False, True):
            self._collect = collect
            self._closures.clear()
            for info in self.model.iter_functions():
                if info.enclosing is None:
                    self._budget = self.INLINE_BUDGET
                    _ShapeEvaluator(self, info, {}, depth=0).run_function(None)
        self.findings = sorted(
            set(self.findings),
            key=lambda f: (f.path, f.line, f.col, f.message),
        )
        return self.findings

    def module_scope_fact(self, module: ModuleInfo, name: str) -> Fact:
        """Fact of a module-level name (constants, function refs)."""
        fqn = module.functions.get(name)
        if fqn is not None:
            return FunctionValue(fqn)
        expr = module.module_assigns.get(name)
        guard_key = (module.name, name)
        if expr is None or guard_key in self._module_eval_guard:
            return UNKNOWN
        self._module_eval_guard.add(guard_key)
        try:
            evaluator = _ShapeEvaluator(self, None, {}, depth=0, module=module)
            return evaluator.eval(expr)
        finally:
            self._module_eval_guard.discard(guard_key)


def _nonlocal_names(node: ast.AST) -> Set[str]:
    """Names any nested function rebinds via ``nonlocal``."""
    names: Set[str] = set()
    for child in ast.walk(node):
        if isinstance(child, ast.Nonlocal):
            names.update(child.names)
    return names


#: numpy constructors taking a shape as their first argument.
_SHAPE_CONSTRUCTORS = {"empty", "zeros", "ones", "full"}
#: numpy functions whose result keeps the first argument's dims.
_DIM_PRESERVING = {
    "ascontiguousarray",
    "asarray",
    "abs",
    "absolute",
    "exp",
    "log",
    "sqrt",
    "square",
    "copy",
}
#: numpy binary ufuncs (and friends) that broadcast their operands.
_BROADCASTING = {
    "multiply",
    "add",
    "subtract",
    "divide",
    "true_divide",
    "maximum",
    "minimum",
}


class _ShapeEvaluator:
    """Forward shape dataflow over one function body."""

    def __init__(
        self,
        checker: ShapeChecker,
        info: Optional[FunctionInfo],
        closure_env: Dict[str, Fact],
        *,
        depth: int,
        module: Optional[ModuleInfo] = None,
    ):
        self.checker = checker
        self.info = info
        self.module = (
            module
            if module is not None
            else checker.model.module_of(info)  # type: ignore[arg-type]
        )
        self.resolver = Resolver(checker.model, self.module)
        self.closure_env = closure_env
        self.depth = depth
        self.env: Dict[str, Fact] = {}
        self.return_facts: List[Fact] = []
        self._globals: Set[str] = set()

    # -- entry ----------------------------------------------------------
    def run_function(self, args: Optional[List[Fact]]) -> Fact:
        """Bind parameters (actual facts when inlined, unknown when
        analyzed standalone) and evaluate the body."""
        assert self.info is not None
        for index, name in enumerate(self.info.params):
            if index == 0 and self.info.is_method and name in ("self", "cls"):
                self.env[name] = SELF
                continue
            fact: Optional[Fact] = None
            if args is not None and index < len(args):
                fact = args[index]
            self.env[name] = UNKNOWN if fact is None else fact
        self.exec_body(self.info.node.body)
        if not self.return_facts:
            return NONE
        result = self.return_facts[0]
        for other in self.return_facts[1:]:
            result = join(result, other)
        return result

    # -- statements -----------------------------------------------------
    def exec_body(self, body: Sequence[ast.stmt]) -> None:
        for stmt in body:
            self.exec_stmt(stmt)

    def exec_stmt(self, stmt: ast.stmt) -> None:
        if isinstance(stmt, ast.Assign):
            fact = self.eval(stmt.value)
            for target in stmt.targets:
                self._bind(target, fact)
        elif isinstance(stmt, ast.AnnAssign):
            if stmt.value is not None:
                self._bind(stmt.target, self.eval(stmt.value))
        elif isinstance(stmt, ast.AugAssign):
            current = self._read_target(stmt.target)
            update = self.eval(stmt.value)
            self._bind(
                stmt.target, self._binop_fact(current, update, stmt, stmt.op)
            )
        elif isinstance(stmt, ast.Return):
            fact = self.eval(stmt.value) if stmt.value is not None else NONE
            self.return_facts.append(fact)
        elif isinstance(stmt, (ast.Expr, ast.Assert)):
            self.eval(stmt.value if isinstance(stmt, ast.Expr) else stmt.test)
        elif isinstance(stmt, ast.If):
            self.eval(stmt.test)
            before = dict(self.env)
            self.exec_body(stmt.body)
            after_body = self.env
            self.env = dict(before)
            self.exec_body(stmt.orelse)
            self.env = self._join_envs(after_body, self.env)
        elif isinstance(stmt, (ast.For, ast.AsyncFor, ast.While)):
            if isinstance(stmt, ast.While):
                self.eval(stmt.test)
            else:
                self._bind_loop_target(stmt)
            before = dict(self.env)
            self.exec_body(stmt.body)
            self.exec_body(stmt.orelse)
            self.env = self._join_envs(before, self.env)
        elif isinstance(stmt, (ast.With, ast.AsyncWith)):
            for item in stmt.items:
                self.eval(item.context_expr)
                if item.optional_vars is not None:
                    self._bind(item.optional_vars, UNKNOWN)
            self.exec_body(stmt.body)
        elif isinstance(stmt, ast.Try):
            before = dict(self.env)
            self.exec_body(stmt.body)
            merged = self.env
            for handler in stmt.handlers:
                self.env = dict(before)
                if handler.name:
                    self.env[handler.name] = UNKNOWN
                self.exec_body(handler.body)
                merged = self._join_envs(merged, self.env)
            self.env = merged
            self.exec_body(stmt.orelse)
            self.exec_body(stmt.finalbody)
        elif isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef)):
            if self.info is not None:
                qual = f"{self.info.qualname}.{stmt.name}"
                if self.checker.model.function(qual) is not None:
                    self.env[stmt.name] = FunctionValue(qual)
                    self.checker._closures[qual] = dict(self.env)
            # A nested function that rebinds outer names via nonlocal
            # invalidates our view of them.
            for name in _nonlocal_names(stmt):
                if name in self.env:
                    self.env[name] = UNKNOWN
        elif isinstance(stmt, ast.Global):
            self._globals.update(stmt.names)
        elif isinstance(stmt, ast.Delete):
            for target in stmt.targets:
                if isinstance(target, ast.Name):
                    self.env.pop(target.id, None)

    def _bind_loop_target(self, stmt: Union[ast.For, ast.AsyncFor]) -> None:
        iter_node, target = stmt.iter, stmt.target
        iter_fact = self.eval(iter_node)
        if (
            isinstance(iter_node, ast.Call)
            and isinstance(iter_node.func, ast.Name)
            and iter_node.func.id == "enumerate"
            and iter_node.args
            and isinstance(target, ast.Tuple)
            and len(target.elts) == 2
        ):
            self._bind(target.elts[0], UNKNOWN)
            self._bind(
                target.elts[1], self._element_of(self.eval(iter_node.args[0]))
            )
            return
        self._bind(target, self._element_of(iter_fact))

    def _element_of(self, fact: Fact) -> Fact:
        if isinstance(fact, ListFact):
            return fact.element
        if isinstance(fact, ShapeFact) and len(fact.dims) > 1:
            return ShapeFact(fact.dims[1:])
        if isinstance(fact, TupleFact) and fact.items:
            joined: Fact = NONE
            for item in fact.items:
                joined = join(joined, item)
            return joined
        return UNKNOWN

    def _bind(self, target: ast.expr, fact: Fact) -> None:
        if isinstance(target, ast.Name):
            self.env[target.id] = fact
        elif isinstance(target, ast.Attribute):
            base = target.value
            if isinstance(base, ast.Name) and self.env.get(base.id) is SELF:
                self.env[f"self.{target.attr}"] = fact
                if self.info is not None and self.info.class_qualname:
                    self.checker.record_attr(
                        self.info.class_qualname, target.attr, fact
                    )
        elif isinstance(target, ast.Starred):
            self._bind(target.value, UNKNOWN)
        elif isinstance(target, (ast.Tuple, ast.List)):
            items: Optional[Tuple[Fact, ...]] = None
            if isinstance(fact, TupleFact) and len(fact.items) == len(
                target.elts
            ):
                items = fact.items
            for index, element in enumerate(target.elts):
                self._bind(element, UNKNOWN if items is None else items[index])
        # subscript stores do not change the container's shape

    def _read_target(self, target: ast.expr) -> Fact:
        if isinstance(target, ast.Name):
            return self.env.get(target.id, UNKNOWN)
        return self.eval(target)

    @staticmethod
    def _join_envs(a: Dict[str, Fact], b: Dict[str, Fact]) -> Dict[str, Fact]:
        return {
            key: join(a[key], b[key])
            if key in a and key in b
            else a.get(key, b.get(key, UNKNOWN))
            for key in set(a) | set(b)
        }

    # -- expressions ----------------------------------------------------
    def eval(self, node: ast.expr) -> Fact:
        if isinstance(node, ast.Constant):
            value = node.value
            if value is None:
                return NONE
            if isinstance(value, int) and not isinstance(value, bool):
                return Const(value)
            return UNKNOWN
        if isinstance(node, ast.Name):
            return self._eval_name(node.id)
        if isinstance(node, ast.Attribute):
            return self._eval_attribute(node)
        if isinstance(node, ast.Call):
            return self._eval_call(node)
        if isinstance(node, ast.Subscript):
            return self._eval_subscript(node)
        if isinstance(node, ast.BinOp):
            left = self.eval(node.left)
            right = self.eval(node.right)
            return self._binop_fact(left, right, node, node.op)
        if isinstance(node, ast.UnaryOp):
            operand = self.eval(node.operand)
            if isinstance(node.op, ast.USub) and isinstance(operand, Const):
                return Const(-operand.value)
            if isinstance(node.op, ast.UAdd):
                return operand
            return UNKNOWN
        if isinstance(node, ast.IfExp):
            self.eval(node.test)
            return join(self.eval(node.body), self.eval(node.orelse))
        if isinstance(node, ast.Tuple):
            return TupleFact(tuple(self.eval(e) for e in node.elts))
        if isinstance(node, ast.List):
            element: Fact = NONE
            for item in node.elts:
                element = join(element, self.eval(item))
            return ListFact(len(node.elts), element if node.elts else UNKNOWN)
        if isinstance(node, (ast.ListComp, ast.GeneratorExp, ast.SetComp)):
            return self._eval_comprehension(node)
        if isinstance(node, ast.Starred):
            return self.eval(node.value)
        for child in ast.iter_child_nodes(node):
            if isinstance(child, ast.expr):
                self.eval(child)
        return UNKNOWN

    def _eval_comprehension(self, node: ast.expr) -> Fact:
        """``[f(x) for x in it]`` → a list of ``len(it)`` (exact only for
        one filter-free generator) of the element expression's fact."""
        generators = node.generators  # type: ignore[attr-defined]
        gen = generators[0]
        iter_fact = self.eval(gen.iter)
        length = self._length(iter_fact)
        if gen.ifs or len(generators) > 1:
            length = None
        before = dict(self.env)
        try:
            self._bind(gen.target, self._element_of(iter_fact))
            for extra in generators[1:]:
                self.eval(extra.iter)
                self._bind(extra.target, UNKNOWN)
            element = self.eval(node.elt)  # type: ignore[attr-defined]
        finally:
            self.env = before
        return ListFact(length, element)

    @staticmethod
    def _length(fact: Fact) -> Dim:
        if isinstance(fact, ShapeFact) and fact.dims:
            return fact.dims[0]
        if isinstance(fact, ListFact):
            return fact.length
        if isinstance(fact, TupleFact):
            return len(fact.items)
        return None

    def _eval_name(self, name: str) -> Fact:
        if name in self.env and name not in self._globals:
            return self.env[name]
        if name in self.closure_env:
            return self.closure_env[name]
        return self.checker.module_scope_fact(self.module, name)

    def _eval_attribute(self, node: ast.Attribute) -> Fact:
        base = self.eval(node.value)
        if base is SELF:
            key = f"self.{node.attr}"
            if key in self.env:
                return self.env[key]
            if self.info is not None and self.info.class_qualname:
                return self.checker.attr_fact(
                    self.info.class_qualname, node.attr
                )
            return UNKNOWN
        if isinstance(base, ShapeFact):
            if node.attr == "size":
                size = _size(base.dims)
                return UNKNOWN if size is None else Const(size)
            if node.attr == "shape":
                return TupleFact(
                    tuple(
                        UNKNOWN if dim is None else Const(dim)
                        for dim in base.dims
                    )
                )
            if node.attr == "ndim":
                return Const(len(base.dims))
            if node.attr == "T":
                return ShapeFact(tuple(reversed(base.dims)))
            return UNKNOWN
        dotted = _dotted_name(node)
        if dotted is not None and base is UNKNOWN:
            target = self.resolver.resolve_target(dotted)
            if target is not None:
                resolved = self.checker.model.lookup_callable(target)
                if resolved is not None:
                    return FunctionValue(resolved)
        return UNKNOWN

    # -- subscripts -----------------------------------------------------
    def _eval_subscript(self, node: ast.Subscript) -> Fact:
        base = self.eval(node.value)
        index = node.slice
        if isinstance(base, TupleFact):
            if isinstance(index, ast.Constant) and isinstance(
                index.value, int
            ):
                if -len(base.items) <= index.value < len(base.items):
                    return base.items[index.value]
            return UNKNOWN
        if isinstance(base, ListFact):
            if isinstance(index, ast.Slice):
                return ListFact(
                    self._sliced_length(base.length, index), base.element
                )
            self.eval(index)
            return base.element
        if not isinstance(base, ShapeFact) or not base.dims:
            self._eval_index(index)
            return UNKNOWN
        if isinstance(index, ast.Slice):
            return ShapeFact(
                (self._sliced_length(base.dims[0], index),) + base.dims[1:]
            )
        if isinstance(index, ast.Tuple):
            dims: List[Dim] = []
            remaining = list(base.dims)
            for element in index.elts:
                if not remaining:
                    return UNKNOWN
                axis = remaining.pop(0)
                if isinstance(element, ast.Slice):
                    dims.append(self._sliced_length(axis, element))
                elif isinstance(self.eval(element), ShapeFact):
                    return UNKNOWN  # mixed advanced indexing: give up
            return ShapeFact(tuple(dims + remaining))
        index_fact = self.eval(index)
        if isinstance(index_fact, ShapeFact):
            # Advanced indexing gathers along axis 0.
            return ShapeFact(index_fact.dims + base.dims[1:])
        # A scalar index drops the leading axis.
        return ShapeFact(base.dims[1:]) if len(base.dims) > 1 else UNKNOWN

    def _eval_index(self, index: ast.expr) -> None:
        if isinstance(index, ast.Slice):
            for part in (index.lower, index.upper, index.step):
                if part is not None:
                    self.eval(part)
        else:
            self.eval(index)

    def _sliced_length(self, length: Dim, index: ast.Slice) -> Dim:
        """``len(x[a:b:c])`` when ``len(x)`` and every given bound are
        known constants, else ``None``."""
        bounds: List[Optional[int]] = []
        known = True
        for part in (index.lower, index.upper, index.step):
            if part is None:
                bounds.append(None)
                continue
            value = _const(self.eval(part))
            known = known and value is not None
            bounds.append(value)
        if length is None or not known or bounds[2] == 0:
            return None
        return len(range(*slice(*bounds).indices(length)))

    # -- arithmetic / broadcasting --------------------------------------
    def _binop_fact(
        self, left: Fact, right: Fact, node: ast.AST, op: ast.operator
    ) -> Fact:
        if isinstance(left, ShapeFact) or isinstance(right, ShapeFact):
            return self._broadcast(left, right, node)
        if isinstance(left, Const) and isinstance(right, Const):
            a, b = left.value, right.value
            if isinstance(op, ast.Add):
                return Const(a + b)
            if isinstance(op, ast.Sub):
                return Const(a - b)
            if isinstance(op, ast.Mult):
                return Const(a * b)
            if isinstance(op, ast.FloorDiv) and b:
                return Const(a // b)
            return UNKNOWN
        if isinstance(left, ListFact) and isinstance(right, ListFact):
            if isinstance(op, ast.Add):
                length = (
                    None
                    if left.length is None or right.length is None
                    else left.length + right.length
                )
                return ListFact(length, join(left.element, right.element))
        return UNKNOWN

    def _broadcast(self, left: Fact, right: Fact, node: ast.AST) -> Fact:
        shapes = [f for f in (left, right) if isinstance(f, ShapeFact)]
        if len(shapes) == 1:
            return shapes[0]
        a, b = shapes
        rank = max(len(a.dims), len(b.dims))
        adims = (1,) * (rank - len(a.dims)) + a.dims
        bdims = (1,) * (rank - len(b.dims)) + b.dims
        dims: List[Dim] = []
        for da, db in zip(adims, bdims):
            if da == db or db == 1:
                dims.append(da)
            elif da == 1:
                dims.append(db)
            elif da is not None and db is not None:
                # Both constant, neither 1, unequal: numpy would raise.
                self._report(
                    node,
                    f"operands with constant shapes {_render(a)} and "
                    f"{_render(b)} are provably not broadcastable; this "
                    f"expression can only raise at runtime",
                )
                dims.append(da)
            else:
                dims.append(None)
        return ShapeFact(tuple(dims))

    def _report(self, node: ast.AST, message: str) -> None:
        if self.info is None:
            return
        self.checker.report(
            RawFinding(
                path=self.checker.model.module_of(self.info).path,
                line=getattr(node, "lineno", 1),
                col=getattr(node, "col_offset", 0),
                message=message,
            )
        )

    # -- calls ----------------------------------------------------------
    def _eval_call(self, node: ast.Call) -> Fact:
        func = node.func
        # List mutators invalidate a tracked literal length: ``xs = []``
        # followed by ``xs.append(...)`` in a loop must not keep length 0.
        if (
            isinstance(func, ast.Attribute)
            and func.attr in ("append", "extend", "insert")
            and isinstance(func.value, ast.Name)
        ):
            bound = self.env.get(func.value.id)
            if isinstance(bound, ListFact):
                item: Fact = UNKNOWN
                if node.args:
                    item = self.eval(node.args[-1])
                    if func.attr == "extend":
                        item = self._element_of(item)
                self.env[func.value.id] = ListFact(
                    None, join(bound.element, item)
                )
                return NONE

        if isinstance(func, ast.Attribute):
            method = self._eval_array_method(func, node)
            if method is not None:
                return method

        numpy_name = self._numpy_callee(func)
        if numpy_name is not None:
            return self._eval_numpy_call(numpy_name, node)

        if (
            isinstance(func, ast.Name)
            and func.id not in self.env
            and func.id not in self.closure_env
            and func.id not in self.module.imports
            and self.module.functions.get(func.id) is None
        ):
            builtin = self._eval_builtin(func.id, node)
            if builtin is not None:
                return builtin

        callee, offset = self._resolve_project_call(func)
        # Constructors are *not* inlined: __init__ is analyzed standalone
        # in phase 1 and records the instance's attribute facts there.
        if callee is not None and offset != 2:
            return self._inline_call(node, callee, offset)
        self._eval_operands(node)
        return UNKNOWN

    def _eval_operands(self, node: ast.Call) -> List[Fact]:
        facts = [
            self.eval(arg.value if isinstance(arg, ast.Starred) else arg)
            for arg in node.args
        ]
        for keyword in node.keywords:
            self.eval(keyword.value)
        return facts

    def _eval_array_method(
        self, func: ast.Attribute, node: ast.Call
    ) -> Optional[Fact]:
        attr = func.attr
        if attr not in ("astype", "copy", "reshape", "ravel", "flatten",
                        "view", "sum", "max", "min", "mean"):
            return None
        base = self.eval(func.value)
        if not isinstance(base, ShapeFact):
            return None
        if attr == "reshape":
            return self._reshaped(base, node)
        self._eval_operands(node)
        if attr in ("astype", "copy", "view"):
            return base
        if attr in ("ravel", "flatten"):
            return ShapeFact((_size(base.dims),))
        return UNKNOWN  # reductions

    def _reshaped(self, base: ShapeFact, node: ast.Call) -> Fact:
        args = node.args
        if len(args) == 1 and isinstance(args[0], ast.Tuple):
            args = args[0].elts
        dims: List[Dim] = []
        for arg in args:
            value = _const(self.eval(arg))
            # -1 infers a dim from the data.
            dims.append(value if value is not None and value >= 0 else None)
        if not dims:
            return base
        old, new = _size(base.dims), _size(dims)
        if old is not None and new is not None and old != new:
            self._report(
                node,
                f"reshape to a constant total of {new} elements from a "
                f"constant total of {old}; this can only raise at runtime",
            )
        return ShapeFact(tuple(dims))

    def _numpy_callee(self, func: ast.expr) -> Optional[str]:
        dotted = _dotted_name(func)
        if dotted is None:
            return None
        target = self.resolver.resolve_target(dotted)
        if target is not None and target.startswith("numpy."):
            rest = target[len("numpy."):]
            if "." not in rest:
                return rest
        return None

    def _shape_from_arg(self, node: ast.Call) -> Optional[Tuple[Dim, ...]]:
        expr: Optional[ast.expr] = node.args[0] if node.args else None
        for keyword in node.keywords:
            if keyword.arg == "shape":
                expr = keyword.value
        if expr is None:
            return None
        fact = self.eval(expr)
        if isinstance(fact, TupleFact):
            return tuple(_const(item) for item in fact.items)
        return (_const(fact),)

    def _eval_numpy_call(self, name: str, node: ast.Call) -> Fact:
        if name in _SHAPE_CONSTRUCTORS:
            dims = self._shape_from_arg(node)
            self._eval_operands(node)
            return UNKNOWN if dims is None else ShapeFact(dims)
        facts = self._eval_operands(node)
        first = facts[0] if facts else UNKNOWN
        if name in ("empty_like", "zeros_like", "ones_like", "full_like"):
            return first if isinstance(first, ShapeFact) else UNKNOWN
        if name in ("array", "asarray", "ascontiguousarray"):
            if isinstance(first, ShapeFact):
                return first
            if isinstance(first, ListFact):
                element = first.element
                inner = element.dims if isinstance(element, ShapeFact) else ()
                return ShapeFact((first.length,) + inner)
            if isinstance(first, TupleFact):
                return ShapeFact((len(first.items),))
            return UNKNOWN
        if name == "arange":
            return ShapeFact(
                (_const(first) if len(facts) == 1 else None,)
            )
        if name == "concatenate":
            if isinstance(first, TupleFact) and all(
                isinstance(item, ShapeFact) and len(item.dims) == 1
                for item in first.items
            ):
                dims = [
                    item.dims[0]
                    for item in first.items
                    if isinstance(item, ShapeFact)
                ]
                known = [dim for dim in dims if dim is not None]
                total = sum(known) if len(known) == len(first.items) else None
                return ShapeFact((total,))
            return ShapeFact((None,))
        if name in _BROADCASTING or name in ("take", "max", "min"):
            for keyword in node.keywords:
                if keyword.arg == "out":
                    return self.eval(keyword.value)
            if name in ("take", "max", "min"):
                return UNKNOWN
            arrays = [f for f in facts if isinstance(f, ShapeFact)]
            if len(arrays) == 2:
                return self._broadcast(arrays[0], arrays[1], node)
            return arrays[0] if arrays else UNKNOWN
        if name in _DIM_PRESERVING:
            return first if isinstance(first, ShapeFact) else UNKNOWN
        return UNKNOWN

    def _eval_builtin(self, name: str, node: ast.Call) -> Optional[Fact]:
        if name in ("len", "int", "round", "min", "max", "list", "tuple",
                    "sorted"):
            facts = self._eval_operands(node)
        else:
            return None
        if name == "len" and len(facts) == 1:
            length = self._length(facts[0])
            return UNKNOWN if length is None else Const(length)
        if name in ("int", "round") and facts:
            return facts[0] if isinstance(facts[0], Const) else UNKNOWN
        if name in ("min", "max") and len(facts) >= 2:
            values = [fact.value for fact in facts if isinstance(fact, Const)]
            if len(values) < len(facts):
                return UNKNOWN
            return Const(min(values) if name == "min" else max(values))
        if name in ("list", "tuple", "sorted") and len(facts) == 1:
            fact = facts[0]
            if isinstance(fact, (ListFact, TupleFact)):
                return fact
            return ListFact(self._length(fact), self._element_of(fact))
        return UNKNOWN

    # -- interprocedural glue -------------------------------------------
    def _resolve_project_call(
        self, func: ast.expr
    ) -> Tuple[Optional[str], int]:
        """(callee qualname, parameter offset): offset 1 for a method
        called on ``self``, 2 for a class constructor."""
        model = self.checker.model
        if isinstance(func, ast.Name):
            bound = self.env.get(func.id, self.closure_env.get(func.id))
            if isinstance(bound, FunctionValue):
                return bound.qualname, 0
            if func.id in self.env or func.id in self.closure_env:
                return None, 0
        elif isinstance(func, ast.Attribute):
            base = func.value
            if isinstance(base, ast.Name) and self.env.get(base.id) is SELF:
                if self.info is not None and self.info.class_qualname:
                    klass = model.classes.get(self.info.class_qualname)
                    if klass is not None and func.attr in klass.methods:
                        return klass.methods[func.attr], 1
                return None, 0
        dotted = _dotted_name(func)
        target = self.resolver.resolve_target(dotted) if dotted else None
        if target is not None:
            callee = model.lookup_callable(target)
            if callee is not None:
                return callee, 2 if model.class_of_callable(target) else 0
        return None, 0

    def _inline_call(self, node: ast.Call, callee: str, offset: int) -> Fact:
        checker = self.checker
        info = checker.model.function(callee)
        if (
            info is None
            or self.depth >= checker.INLINE_DEPTH
            or checker._budget <= 0
            or callee in checker._active
        ):
            self._eval_operands(node)
            return UNKNOWN
        checker._budget -= 1
        args: List[Fact] = [None] * len(info.params)
        for position, arg in enumerate(node.args):
            if isinstance(arg, ast.Starred):
                self.eval(arg.value)
                break  # arity past a star is uncertain; rest stay unknown
            fact = self.eval(arg)
            if position + offset < len(args):
                args[position + offset] = fact
        for keyword in node.keywords:
            fact = self.eval(keyword.value)
            if keyword.arg in info.params:
                args[info.params.index(keyword.arg)] = fact
        checker._active.add(callee)
        try:
            child = _ShapeEvaluator(
                checker,
                info,
                checker._closures.get(callee, {}),
                depth=self.depth + 1,
            )
            return child.run_function(args)
        finally:
            checker._active.discard(callee)


def _render(fact: ShapeFact) -> str:
    dims = ", ".join("?" if d is None else str(d) for d in fact.dims)
    return f"({dims}{',' if len(fact.dims) == 1 else ''})"


def check_shapes(model: ProjectModel) -> List[Violation]:
    """Run the REPRO-SHAPE001 analysis over a project model."""
    return [
        Violation(
            path=finding.path,
            line=finding.line,
            col=finding.col,
            rule_id=SHAPE_RULE_ID,
            message=finding.message,
        )
        for finding in ShapeChecker(model).run()
    ]
