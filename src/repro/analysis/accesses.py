"""Extraction and read/write classification of structure-field accesses.

"For every access to a structure field, we build a tuple
(typeof(struct), nameof(field))" (§3).  This module walks statement
expressions and produces :class:`MemoryAccess` records with:

* the :class:`ObjectKey` — the (struct tag, field name) identity used for
  pairing (aliasing-robust: variable names are ignored);
* read/write classification (assignment targets and compound assignments
  write; ``++``/``--`` read and write; atomic helpers follow the kernel
  semantics table);
* whether the access is wrapped in ``READ_ONCE``/``WRITE_ONCE`` (§7).
"""

from __future__ import annotations

import enum
from dataclasses import dataclass

from repro.cparse import astnodes as ast
from repro.cparse.typesys import UNKNOWN_STRUCT, Scope, TypeInferencer, TypeRegistry
from repro.kernel.barriers import BARRIER_PRIMITIVES, ImpliedAccess
from repro.kernel.semantics import semantics_of


class AccessKind(enum.Enum):
    READ = "read"
    WRITE = "write"
    READ_WRITE = "read-write"

    @property
    def reads(self) -> bool:
        return self in (AccessKind.READ, AccessKind.READ_WRITE)

    @property
    def writes(self) -> bool:
        return self in (AccessKind.WRITE, AccessKind.READ_WRITE)


@dataclass(frozen=True, slots=True)
class ObjectKey:
    """The aliasing-robust identity of a shared object."""

    struct: str
    field: str

    def __str__(self) -> str:
        return f"(struct {self.struct}, {self.field})"

    @property
    def is_resolved(self) -> bool:
        return self.struct != UNKNOWN_STRUCT


@dataclass(slots=True)
class MemoryAccess:
    """One classified structure-field access."""

    key: ObjectKey
    kind: AccessKind
    expr: ast.Member
    line: int
    #: How the access is performed: "plain", "READ_ONCE", "WRITE_ONCE",
    #: or the name of the atomic/bitop helper.
    via: str = "plain"

    @property
    def annotated(self) -> bool:
        return self.via in ("READ_ONCE", "WRITE_ONCE")


#: Annotation macros handled structurally (left in call form by the corpus).
_ONCE_READ = frozenset({"READ_ONCE", "rcu_dereference", "rcu_access_pointer"})
_ONCE_WRITE = frozenset({"WRITE_ONCE", "rcu_assign_pointer"})


class AccessExtractor:
    """Extracts :class:`MemoryAccess` records from expressions.

    One extractor is built per function walk; it owns the type-inference
    scope so local declarations refine member-access resolution.
    """

    def __init__(self, registry: TypeRegistry, scope: Scope | None = None):
        self._registry = registry
        self._scope = scope if scope is not None else Scope(registry)
        self._infer = TypeInferencer(registry, self._scope)

    @property
    def scope(self) -> Scope:
        return self._scope

    def declare_params(self, fn: ast.FunctionDef) -> None:
        for param in fn.params:
            self._scope.declare_param(param)

    def declare_locals(self, decl: ast.DeclStmt) -> None:
        self._scope.declare_decl(decl)

    # -- extraction -----------------------------------------------------------

    def extract(self, expr: ast.Expr | None) -> list[MemoryAccess]:
        """All member accesses in ``expr``, classified, in evaluation order."""
        out: list[MemoryAccess] = []
        self._walk(expr, out, writing=False)
        return out

    def key_of(self, member: ast.Member) -> ObjectKey:
        return ObjectKey(self._infer.struct_of_member(member), member.fieldname)

    # -- internals --------------------------------------------------------------

    def _emit(
        self,
        member: ast.Member,
        out: list[MemoryAccess],
        kind: AccessKind,
        via: str = "plain",
    ) -> None:
        out.append(
            MemoryAccess(
                key=self.key_of(member),
                kind=kind,
                expr=member,
                line=member.line,
                via=via,
            )
        )
        # The object expression itself is read (`a->b->c` reads a->b).
        self._walk(member.obj, out, writing=False)

    def _walk(
        self, expr: ast.Expr | None, out: list[MemoryAccess], writing: bool
    ) -> None:
        if expr is None:
            return
        if isinstance(expr, ast.Member):
            kind = AccessKind.WRITE if writing else AccessKind.READ
            self._emit(expr, out, kind)
            return
        if isinstance(expr, ast.Assign):
            if isinstance(expr.target, ast.Member):
                kind = (
                    AccessKind.WRITE if expr.op == "="
                    else AccessKind.READ_WRITE
                )
                self._emit(expr.target, out, kind)
            else:
                self._walk(expr.target, out, writing=(expr.op == "="))
            self._walk(expr.value, out, writing=False)
            return
        if isinstance(expr, ast.Unary):
            if expr.op in ("++", "--") and isinstance(expr.operand, ast.Member):
                self._emit(expr.operand, out, AccessKind.READ_WRITE)
                return
            if expr.op == "&" and expr.prefix:
                # Taking an address is not, by itself, an access; but the
                # path to the object is still evaluated.
                if isinstance(expr.operand, ast.Member):
                    self._walk(expr.operand.obj, out, writing=False)
                    return
            self._walk(expr.operand, out, writing)
            return
        if isinstance(expr, ast.Call):
            self._walk_call(expr, out)
            return
        if isinstance(expr, ast.Binary):
            self._walk(expr.lhs, out, writing=False)
            self._walk(expr.rhs, out, writing=False)
            return
        if isinstance(expr, ast.Ternary):
            self._walk(expr.cond, out, writing=False)
            self._walk(expr.then, out, writing)
            self._walk(expr.other, out, writing)
            return
        if isinstance(expr, ast.Index):
            self._walk(expr.obj, out, writing)
            self._walk(expr.index, out, writing=False)
            return
        if isinstance(expr, ast.Cast):
            self._walk(expr.operand, out, writing)
            return
        if isinstance(expr, ast.InitList):
            for item in expr.items:
                self._walk(item, out, writing=False)
            return
        if isinstance(expr, ast.CommaExpr):
            for part in expr.parts:
                self._walk(part, out, writing=False)
            return
        # Ident / literals: no member access.

    def _walk_call(self, call: ast.Call, out: list[MemoryAccess]) -> None:
        name = call.callee_name or ""

        if name in _ONCE_READ and call.args:
            target = call.args[0]
            if isinstance(target, ast.Member):
                self._emit(target, out, AccessKind.READ, via=name)
            else:
                self._walk(target, out, writing=False)
            for arg in call.args[1:]:
                self._walk(arg, out, writing=False)
            return

        if name in _ONCE_WRITE and call.args:
            target = call.args[0]
            if isinstance(target, ast.Member):
                self._emit(target, out, AccessKind.WRITE, via=name)
            else:
                self._walk(target, out, writing=False)
            for arg in call.args[1:]:
                self._walk(arg, out, writing=False)
            return

        spec = BARRIER_PRIMITIVES.get(name)
        if spec is not None and spec.implied_access is not ImpliedAccess.NONE:
            # smp_store_release(&a->f, v) writes a->f; smp_load_acquire
            # (&a->f) reads it.
            target = call.args[0] if call.args else None
            member = _strip_addressof(target)
            if member is not None:
                kind = (
                    AccessKind.READ
                    if spec.implied_access is ImpliedAccess.LOAD_BEFORE
                    else AccessKind.WRITE
                )
                self._emit(member, out, kind, via=name)
            for arg in call.args[1:]:
                self._walk(arg, out, writing=False)
            return

        semantics = semantics_of(name)
        if semantics is not None and (semantics.reads or semantics.writes):
            # atomic_inc(&a->cnt), set_bit(BIT, &a->flags), ...
            for arg in call.args:
                member = _strip_addressof(arg)
                if member is not None:
                    if semantics.reads and semantics.writes:
                        kind = AccessKind.READ_WRITE
                    elif semantics.writes:
                        kind = AccessKind.WRITE
                    else:
                        kind = AccessKind.READ
                    self._emit(member, out, kind, via=name)
                else:
                    self._walk(arg, out, writing=False)
            return

        self._walk(call.func, out, writing=False)
        for arg in call.args:
            self._walk(arg, out, writing=False)


def _strip_addressof(expr: ast.Expr | None) -> ast.Member | None:
    """`&a->f` or `a->f` -> the Member node, else None."""
    if isinstance(expr, ast.Unary) and expr.op == "&" and expr.prefix:
        expr = expr.operand
    if isinstance(expr, ast.Member):
        return expr
    return None
