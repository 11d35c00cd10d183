"""Recursive-descent parser for the kernel-C subset.

The parser consumes the (already preprocessed) token stream and produces a
:class:`~repro.cparse.astnodes.TranslationUnit`.  It supports the
constructs found in kernel concurrency code: struct/union/enum
definitions, typedefs, global declarations, function definitions, the
full statement set, and C expressions with standard precedence.

Kernel-isms handled explicitly:

* ``for_each_*`` iterator macros — a call followed by a brace block parses
  as :class:`~repro.cparse.astnodes.MacroLoop`;
* ``__attribute__((...))`` and other annotation keywords are skipped;
* unknown typedef names are accepted in declaration position when the
  token shape is unambiguous (``IDENT [*...] IDENT``).
"""

from __future__ import annotations

from repro.cparse import astnodes as ast
from repro.cparse.lexer import Token, TokenKind, tokenize

#: Built-in type keywords that may start a declaration.
_TYPE_KEYWORDS = frozenset(
    {
        "void", "char", "short", "int", "long", "float", "double",
        "signed", "unsigned", "_Bool",
    }
)

#: Type qualifiers / storage-class keywords skipped while reading a type.
_QUALIFIERS = frozenset(
    {
        "const", "volatile", "restrict", "__restrict", "register", "auto",
        "__volatile__",
    }
)

_STORAGE = frozenset({"static", "extern", "inline", "__inline",
                      "__inline__", "__always_inline", "typedef"})

_STORAGE_OR_QUALIFIER = _STORAGE | _QUALIFIERS

#: Keywords that start a local declaration.
_DECL_START = _STORAGE_OR_QUALIFIER | _TYPE_KEYWORDS | {"struct", "union",
                                                        "enum"}

#: Keywords that may follow the `(` of a cast.
_CAST_START = _TYPE_KEYWORDS | {"struct", "union", "const", "volatile"}

_UNARY_OPS = frozenset({"!", "~", "-", "+", "*", "&", "++", "--"})

_POSTFIX_OPS = frozenset({"(", "[", ".", "->", "++", "--"})

#: Punctuators that may follow a cast's `)`.
_CAST_FOLLOW = frozenset({"(", "*", "&", "!", "~", "-", "+", "++", "--"})

#: Common kernel typedef names, pre-seeded so bare corpus snippets parse.
KERNEL_TYPEDEFS = frozenset(
    {
        "u8", "u16", "u32", "u64", "s8", "s16", "s32", "s64",
        "__u8", "__u16", "__u32", "__u64", "__be16", "__be32", "__be64",
        "uint8_t", "uint16_t", "uint32_t", "uint64_t",
        "int8_t", "int16_t", "int32_t", "int64_t",
        "size_t", "ssize_t", "loff_t", "off_t", "pid_t", "gfp_t",
        "bool", "atomic_t", "atomic64_t", "atomic_long_t",
        "seqcount_t", "seqlock_t", "spinlock_t", "raw_spinlock_t",
        "rwlock_t", "wait_queue_head_t", "struct_group_t", "dma_addr_t",
        "cpumask_t", "nodemask_t", "irqreturn_t", "netdev_tx_t",
        "blk_status_t", "sector_t", "umode_t", "dev_t", "fmode_t",
        "ktime_t", "uintptr_t", "intptr_t", "ptrdiff_t",
    }
)

_ASSIGN_OPS = frozenset({"=", "+=", "-=", "*=", "/=", "%=", "&=", "^=",
                         "|=", "<<=", ">>="})

#: Binary operator precedence (higher binds tighter).
_BINARY_PRECEDENCE = {
    "||": 1,
    "&&": 2,
    "|": 3,
    "^": 4,
    "&": 5,
    "==": 6, "!=": 6,
    "<": 7, ">": 7, "<=": 7, ">=": 7,
    "<<": 8, ">>": 8,
    "+": 9, "-": 9,
    "*": 10, "/": 10, "%": 10,
}


class ParseError(Exception):
    """Raised when the token stream cannot be parsed."""

    def __init__(self, message: str, token: Token):
        super().__init__(f"{token.location}: {message} (at {token.value!r})")
        self.token = token


class Parser:
    """Parses a preprocessed token stream into a TranslationUnit."""

    def __init__(self, tokens: list[Token], typedefs: frozenset[str] | set[str] = KERNEL_TYPEDEFS):
        # A second EOF lets a one-token lookahead index directly at the
        # end; every longer lookahead scan stops at the first EOF.
        self._tokens = [*tokens, tokens[-1]]
        self._pos = 0
        self._typedefs: set[str] = set(typedefs)
        self._known_structs: set[str] = set()

    # -- token helpers -------------------------------------------------------
    #
    # A token's value names its kind: no identifier, literal or EOF is
    # spelled like a punctuator, and every keyword spelling is lexed
    # KEYWORD.  So ``tok.value == "{"`` is the whole test for a
    # punctuator or keyword, and a token that passes it is not the EOF.

    def _next(self) -> Token:
        tok = self._tokens[self._pos]
        if tok.kind is not TokenKind.EOF:
            self._pos += 1
        return tok

    def _at_eof(self) -> bool:
        return self._tokens[self._pos].kind is TokenKind.EOF

    def _accept(self, value: str) -> bool:
        if self._tokens[self._pos].value == value:
            self._pos += 1
            return True
        return False

    def _expect(self, value: str) -> Token:
        tok = self._tokens[self._pos]
        if tok.value != value:
            raise ParseError(f"expected {value!r}", tok)
        self._pos += 1
        return tok

    def _loc(self, tok: Token) -> dict:
        return {"filename": tok.filename, "line": tok.line}

    # -- entry point ---------------------------------------------------------

    def parse_translation_unit(self) -> ast.TranslationUnit:
        tok = self._tokens[self._pos]
        unit = ast.TranslationUnit(**self._loc(tok))
        while not self._at_eof():
            self._parse_external_declaration(unit)
        return unit

    # -- external declarations ------------------------------------------------

    def _parse_external_declaration(self, unit: ast.TranslationUnit) -> None:
        if self._accept(";"):
            return

        start = self._tokens[self._pos]
        storage = self._skip_storage_and_qualifiers()

        if "typedef" in storage:
            unit.typedefs.append(self._parse_typedef(start))
            return

        if self._tokens[self._pos].value == "enum":
            enum = self._parse_enum_def(start)
            if enum is not None:
                unit.enums.append(enum)
            self._skip_declarators_until_semicolon()
            return

        if self._tokens[self._pos].value in ("struct", "union"):
            # Could be a struct definition, a global of struct type, or a
            # function returning a struct (pointer).
            is_union = self._tokens[self._pos].value == "union"
            save = self._pos
            self._next()
            name_tok = self._tokens[self._pos]
            tag = ""
            if name_tok.kind is TokenKind.IDENT:
                tag = self._next().value
            if self._tokens[self._pos].value == "{":
                unit.structs.append(self._parse_struct_body(tag, is_union, start))
                self._known_structs.add(tag)
                if self._accept(";"):
                    return
                # `struct foo { ... } instance;` — fall through to declarator.
                decl = self._parse_global_tail(f"struct {tag}", True, start)
                unit.globals.append(decl)
                return
            # Not a definition: rewind and parse as typed declaration.
            self._pos = save

        self._parse_typed_external(unit, storage, start)

    def _skip_storage_and_qualifiers(self) -> set[str]:
        seen: set[str] = set()
        while True:
            value = self._tokens[self._pos].value
            if value in _STORAGE_OR_QUALIFIER:
                seen.add(value)
                self._pos += 1
            elif value == "__attribute__":
                self._pos += 1
                self._skip_parenthesized()
            else:
                return seen

    def _parse_typed_external(
        self, unit: ast.TranslationUnit, storage: set[str], start: Token
    ) -> None:
        type_name, is_struct = self._parse_type_name()
        after_type = self._pos
        pointers = self._count_pointers()
        self._skip_attributes()
        name_tok = self._tokens[self._pos]
        if name_tok.kind not in (TokenKind.IDENT, TokenKind.KEYWORD):
            raise ParseError("expected declarator name", name_tok)
        name = self._next().value
        self._skip_attributes()

        if self._tokens[self._pos].value == "(":
            fn = self._parse_function_rest(
                name, type_name, is_struct, pointers, storage, start
            )
            if fn is not None:
                unit.functions.append(fn)
            return

        # Global variable declaration: rewind to just after the type so
        # the declarator loop re-reads pointers and the name.
        self._pos = after_type
        decl = self._parse_global_tail(type_name, is_struct, start)
        unit.globals.append(decl)

    def _parse_global_tail(
        self, type_name: str, is_struct: bool, start: Token
    ) -> ast.GlobalDecl:
        decl = ast.DeclStmt(
            type_name=type_name, is_struct=is_struct, **self._loc(start)
        )
        while True:
            pointers = self._count_pointers()
            name = self._next().value
            array_dims = self._skip_array_suffixes()
            init = None
            if self._accept("="):
                init = self._parse_initializer()
            decl.declarators.append(
                ast.Declarator(
                    name=name, pointers=pointers, array_dims=array_dims,
                    init=init, **self._loc(start),
                )
            )
            if self._accept(","):
                continue
            self._expect(";")
            return ast.GlobalDecl(decl=decl, **self._loc(start))

    def _parse_typedef(self, start: Token) -> ast.TypedefDecl:
        self._skip_storage_and_qualifiers()
        if self._tokens[self._pos].value in ("struct", "union"):
            is_union = self._next().value == "union"
            tag = ""
            if self._tokens[self._pos].kind is TokenKind.IDENT:
                tag = self._next().value
            if self._tokens[self._pos].value == "{":
                self._parse_struct_body(tag, is_union, start)
            base, is_struct = f"struct {tag}" if tag else "struct <anon>", True
        else:
            base, is_struct = self._parse_type_name()
        pointers = self._count_pointers()
        name = self._next().value
        self._skip_array_suffixes()
        self._expect(";")
        self._typedefs.add(name)
        return ast.TypedefDecl(
            name=name, base_type=base, is_struct=is_struct,
            pointers=pointers, **self._loc(start),
        )

    def _parse_enum_def(self, start: Token) -> ast.EnumDef | None:
        self._next()  # 'enum'
        name = ""
        if self._tokens[self._pos].kind is TokenKind.IDENT:
            name = self._next().value
        if self._tokens[self._pos].value != "{":
            return None
        self._next()
        enum = ast.EnumDef(name=name, **self._loc(start))
        while self._tokens[self._pos].value != "}":
            member = self._next()
            if member.kind is TokenKind.IDENT:
                enum.members.append(member.value)
            if self._accept("="):
                # Skip the constant expression.
                depth = 0
                while not self._at_eof():
                    tok = self._tokens[self._pos]
                    if depth == 0 and (tok.value in (",", "}")):
                        break
                    if tok.value == "(":
                        depth += 1
                    elif tok.value == ")":
                        depth -= 1
                    self._next()
            self._accept(",")
        self._expect("}")
        return enum

    def _skip_declarators_until_semicolon(self) -> None:
        depth = 0
        while not self._at_eof():
            tok = self._tokens[self._pos]
            if depth == 0 and tok.value == ";":
                self._next()
                return
            if tok.value in ("(", "{", "["):
                depth += 1
            elif tok.value in (")", "}", "]"):
                depth -= 1
            self._next()

    def _parse_struct_body(
        self, tag: str, is_union: bool, start: Token
    ) -> ast.StructDef:
        self._expect("{")
        struct = ast.StructDef(name=tag, is_union=is_union, **self._loc(start))
        while self._tokens[self._pos].value != "}":
            self._parse_struct_field(struct)
        self._expect("}")
        self._skip_attributes()
        return struct

    def _parse_struct_field(self, struct: ast.StructDef) -> None:
        tokens = self._tokens
        start = tokens[self._pos]
        self._skip_storage_and_qualifiers()
        value = tokens[self._pos].value
        if value in ("struct", "union"):
            is_union = value == "union"
            self._pos += 1
            tag = ""
            if tokens[self._pos].kind is TokenKind.IDENT:
                tag = tokens[self._pos].value
                self._pos += 1
            if tokens[self._pos].value == "{":
                # Anonymous/nested definition: flatten anonymous members.
                inner = self._parse_struct_body(tag, is_union, start)
                if self._accept(";"):
                    struct.fields.extend(inner.fields)  # anonymous member
                    return
                type_name, is_struct = f"struct {tag}", True
            else:
                type_name, is_struct = f"struct {tag}", True
        elif value == "enum":
            self._parse_enum_def(start)
            type_name, is_struct = "int", False
        else:
            type_name, is_struct = self._parse_type_name()
        loc = self._loc(start)
        while True:
            pointers = self._count_pointers()
            if tokens[self._pos].value == "(":
                # Function-pointer member: skip to the closing of both parens.
                self._pos += 1
                self._skip_until_matching(")")
                if self._accept("("):
                    self._skip_until_matching(")")
                name = "<fnptr>"
                array_dims = 0
            else:
                name = self._next().value
                array_dims = self._skip_array_suffixes()
            if self._accept(":"):
                self._parse_conditional()  # bitfield width
            struct.fields.append(
                ast.StructField(
                    type_name=type_name, is_struct=is_struct,
                    pointers=pointers, name=name, array_dims=array_dims,
                    **loc,
                )
            )
            if self._accept(","):
                continue
            self._expect(";")
            return

    def _parse_function_rest(
        self,
        name: str,
        return_type: str,
        return_is_struct: bool,
        return_pointers: int,
        storage: set[str],
        start: Token,
    ) -> ast.FunctionDef | None:
        params = self._parse_param_list()
        self._skip_attributes()
        if self._accept(";"):
            return None  # prototype
        body = self._parse_block()
        return ast.FunctionDef(
            name=name,
            return_type=return_type,
            return_is_struct=return_is_struct,
            return_pointers=return_pointers,
            params=params,
            body=body,
            is_static="static" in storage,
            is_inline=bool(storage & {"inline", "__inline", "__inline__",
                                      "__always_inline"}),
            **self._loc(start),
        )

    def _parse_param_list(self) -> list[ast.Param]:
        self._expect("(")
        params: list[ast.Param] = []
        if self._accept(")"):
            return params
        while True:
            start = self._tokens[self._pos]
            if self._tokens[self._pos].value == "...":
                self._next()
            elif self._tokens[self._pos].value == "void" and self._tokens[self._pos + 1].value == ")":
                self._next()
            else:
                self._skip_storage_and_qualifiers()
                if self._tokens[self._pos].value in ("struct", "union"):
                    self._next()
                    tag = self._next().value
                    type_name, is_struct = f"struct {tag}", True
                else:
                    type_name, is_struct = self._parse_type_name()
                pointers = self._count_pointers()
                self._skip_attributes()
                pname = ""
                if self._tokens[self._pos].kind is TokenKind.IDENT:
                    pname = self._next().value
                self._skip_array_suffixes()
                params.append(
                    ast.Param(
                        type_name=type_name, is_struct=is_struct,
                        pointers=pointers, name=pname, **self._loc(start),
                    )
                )
            if self._accept(","):
                continue
            self._expect(")")
            return params

    # -- types ----------------------------------------------------------------

    def _parse_type_name(self) -> tuple[str, bool]:
        """Parse a type specifier; returns (name, is_struct)."""
        tok = self._tokens[self._pos]
        if tok.kind is TokenKind.IDENT:
            self._pos += 1
            self._skip_qualifiers()
            return tok.value, False
        if tok.value in ("struct", "union"):
            self._pos += 1
            tag = self._next().value
            self._skip_qualifiers()
            return f"struct {tag}", True
        if tok.value == "enum":
            self._pos += 1
            if self._tokens[self._pos].kind is TokenKind.IDENT:
                self._pos += 1
            self._skip_qualifiers()
            return "int", False
        if tok.value in _TYPE_KEYWORDS:
            parts = []
            while self._tokens[self._pos].value in _TYPE_KEYWORDS:
                parts.append(self._tokens[self._pos].value)
                self._pos += 1
                self._skip_qualifiers()
            return " ".join(parts), False
        raise ParseError("expected type name", tok)

    def _skip_qualifiers(self) -> None:
        while self._tokens[self._pos].value in _QUALIFIERS:
            self._pos += 1

    def _count_pointers(self) -> int:
        count = 0
        while self._accept("*"):
            count += 1
            self._skip_qualifiers()
        return count

    def _skip_attributes(self) -> None:
        while self._tokens[self._pos].value == "__attribute__":
            self._pos += 1
            self._skip_parenthesized()

    def _skip_parenthesized(self) -> None:
        self._expect("(")
        self._skip_until_matching(")")

    def _skip_until_matching(self, closer: str) -> None:
        opener = {")": "(", "}": "{", "]": "["}[closer]
        depth = 1
        while depth and not self._at_eof():
            tok = self._next()
            if tok.value == opener:
                depth += 1
            elif tok.value == closer:
                depth -= 1

    def _skip_array_suffixes(self) -> int:
        dims = 0
        while self._accept("["):
            dims += 1
            self._skip_until_matching("]")
        return dims

    # -- statements -------------------------------------------------------------

    def _parse_block(self) -> ast.Block:
        start = self._expect("{")
        block = ast.Block(**self._loc(start))
        while self._tokens[self._pos].value != "}":
            if self._at_eof():
                raise ParseError("unterminated block", self._tokens[self._pos])
            block.stmts.append(self._parse_statement())
        self._next()  # '}'
        return block

    def _parse_statement(self) -> ast.Stmt:
        tokens = self._tokens
        tok = tokens[self._pos]
        value = tok.value
        loc = self._loc(tok)

        if value == "{":
            return self._parse_block()
        if value == ";":
            self._pos += 1
            return ast.Empty(**loc)
        if tok.kind is TokenKind.KEYWORD:
            if value == "if":
                return self._parse_if()
            if value == "while":
                return self._parse_while()
            if value == "do":
                return self._parse_do_while()
            if value == "for":
                return self._parse_for()
            if value == "switch":
                return self._parse_switch()
            if value == "return":
                self._pos += 1
                expr = None
                if tokens[self._pos].value != ";":
                    expr = self._parse_expression()
                self._expect(";")
                return ast.Return(value=expr, **loc)
            if value == "break":
                self._pos += 1
                self._expect(";")
                return ast.Break(**loc)
            if value == "continue":
                self._pos += 1
                self._expect(";")
                return ast.Continue(**loc)
            if value == "goto":
                self._pos += 1
                label = self._next().value
                self._expect(";")
                return ast.Goto(label=label, **loc)
            if value == "case":
                self._pos += 1
                expr = self._parse_conditional()
                self._expect(":")
                return ast.CaseLabel(expr=expr, **loc)
            if value == "default":
                self._pos += 1
                self._expect(":")
                return ast.CaseLabel(expr=None, **loc)
            if value in _DECL_START:
                return self._parse_local_declaration()
        elif tok.kind is TokenKind.IDENT:
            # Label: IDENT ':' not followed by another ':' (we have no '::').
            if tokens[self._pos + 1].value == ":":
                self._pos += 2
                return ast.LabelStmt(name=value, **loc)
            if self._looks_like_declaration():
                return self._parse_local_declaration()

        expr = self._parse_expression()
        # Kernel iterator macros: call expression followed by a block.
        if tokens[self._pos].value == "{" and isinstance(expr, ast.Call):
            body = self._parse_block()
            return ast.MacroLoop(call=expr, body=body, **loc)
        self._expect(";")
        return ast.ExprStmt(expr=expr, **loc)

    def _looks_like_declaration(self) -> bool:
        tok = self._tokens[self._pos]
        if tok.value in _DECL_START:
            return True
        if tok.kind is TokenKind.IDENT and tok.value in self._typedefs:
            # `typedef_name [*...] ident` is a declaration.
            offset = self._pos + 1
            while self._tokens[offset].value == "*":
                offset += 1
            return self._tokens[offset].kind is TokenKind.IDENT
        return False

    def _parse_local_declaration(self) -> ast.Stmt:
        start = self._tokens[self._pos]
        self._skip_storage_and_qualifiers()
        if self._tokens[self._pos].value in ("struct", "union"):
            self._next()
            tag = self._next().value
            type_name, is_struct = f"struct {tag}", True
        else:
            type_name, is_struct = self._parse_type_name()
        decl = ast.DeclStmt(
            type_name=type_name, is_struct=is_struct, **self._loc(start)
        )
        while True:
            pointers = self._count_pointers()
            name = self._next().value
            array_dims = self._skip_array_suffixes()
            init = None
            if self._accept("="):
                init = self._parse_initializer()
            decl.declarators.append(
                ast.Declarator(
                    name=name, pointers=pointers, array_dims=array_dims,
                    init=init, **self._loc(start),
                )
            )
            if self._accept(","):
                continue
            self._expect(";")
            return decl

    def _parse_initializer(self) -> ast.Expr:
        tok = self._tokens[self._pos]
        if tok.value == "{":
            self._next()
            init = ast.InitList(**self._loc(tok))
            while self._tokens[self._pos].value != "}":
                # Skip designators: `.field =` or `[idx] =`.
                if self._tokens[self._pos].value == ".":
                    self._next()
                    self._next()
                    self._expect("=")
                elif self._tokens[self._pos].value == "[":
                    self._next()
                    self._skip_until_matching("]")
                    self._expect("=")
                init.items.append(self._parse_initializer())
                if not self._accept(","):
                    break
            self._expect("}")
            return init
        return self._parse_assignment()

    def _parse_if(self) -> ast.If:
        start = self._next()  # 'if'
        self._expect("(")
        cond = self._parse_expression()
        self._expect(")")
        then = self._parse_statement()
        orelse = None
        if self._accept("else"):
            orelse = self._parse_statement()
        return ast.If(cond=cond, then=then, orelse=orelse, **self._loc(start))

    def _parse_while(self) -> ast.While:
        start = self._next()
        self._expect("(")
        cond = self._parse_expression()
        self._expect(")")
        body = self._parse_statement()
        return ast.While(cond=cond, body=body, **self._loc(start))

    def _parse_do_while(self) -> ast.DoWhile:
        start = self._next()
        body = self._parse_statement()
        if not self._accept("while"):
            raise ParseError("expected 'while' after do-body", self._tokens[self._pos])
        self._expect("(")
        cond = self._parse_expression()
        self._expect(")")
        self._expect(";")
        return ast.DoWhile(body=body, cond=cond, **self._loc(start))

    def _parse_for(self) -> ast.For:
        start = self._next()
        self._expect("(")
        init: ast.Stmt | None = None
        if self._tokens[self._pos].value != ";":
            if self._looks_like_declaration():
                init = self._parse_local_declaration()
            else:
                expr = self._parse_expression()
                self._expect(";")
                init = ast.ExprStmt(expr=expr, **self._loc(start))
        else:
            self._next()
        cond = None
        if self._tokens[self._pos].value != ";":
            cond = self._parse_expression()
        self._expect(";")
        step = None
        if self._tokens[self._pos].value != ")":
            step = self._parse_expression()
        self._expect(")")
        body = self._parse_statement()
        return ast.For(init=init, cond=cond, step=step, body=body,
                       **self._loc(start))

    def _parse_switch(self) -> ast.Switch:
        start = self._next()
        self._expect("(")
        expr = self._parse_expression()
        self._expect(")")
        body = self._parse_statement()
        return ast.Switch(expr=expr, body=body, **self._loc(start))

    # -- expressions --------------------------------------------------------------

    def _parse_expression(self) -> ast.Expr:
        expr = self._parse_assignment()
        if self._tokens[self._pos].value == ",":
            parts = [expr]
            while self._accept(","):
                parts.append(self._parse_assignment())
            return ast.CommaExpr(parts=parts, filename=expr.filename,
                                 line=expr.line)
        return expr

    def _parse_assignment(self) -> ast.Expr:
        lhs = self._parse_conditional()
        tok = self._tokens[self._pos]
        if tok.value in _ASSIGN_OPS:
            self._pos += 1
            rhs = self._parse_assignment()
            return ast.Assign(op=tok.value, target=lhs, value=rhs,
                              **self._loc(tok))
        return lhs

    def _parse_conditional(self) -> ast.Expr:
        cond = self._parse_binary(1)
        tok = self._tokens[self._pos]
        if tok.value == "?":
            self._pos += 1
            then = self._parse_expression()
            self._expect(":")
            other = self._parse_conditional()
            return ast.Ternary(cond=cond, then=then, other=other,
                               **self._loc(tok))
        return cond

    def _parse_binary(self, min_prec: int) -> ast.Expr:
        lhs = self._parse_unary()
        tokens = self._tokens
        while True:
            tok = tokens[self._pos]
            prec = _BINARY_PRECEDENCE.get(tok.value, 0)
            if prec < min_prec:
                return lhs
            self._pos += 1
            rhs = self._parse_binary(prec + 1)
            lhs = ast.Binary(op=tok.value, lhs=lhs, rhs=rhs, **self._loc(tok))

    def _parse_unary(self) -> ast.Expr:
        tok = self._tokens[self._pos]
        value = tok.value
        if value in _UNARY_OPS:
            self._pos += 1
            operand = self._parse_unary()
            return ast.Unary(op=value, operand=operand, prefix=True,
                             **self._loc(tok))
        if value == "sizeof":
            self._pos += 1
            if self._accept("("):
                depth = 1
                chars: list[str] = []
                while depth and not self._at_eof():
                    t = self._next()
                    if t.value == "(":
                        depth += 1
                    elif t.value == ")":
                        depth -= 1
                    if depth:
                        chars.append(t.value)
                return ast.SizeOf(text=" ".join(chars), **self._loc(tok))
            self._parse_unary()
            return ast.SizeOf(text="<expr>", **self._loc(tok))
        if value == "(" and self._is_cast():
            self._pos += 1
            type_name, _ = self._parse_type_name()
            pointers = self._count_pointers()
            self._expect(")")
            operand = self._parse_unary()
            return ast.Cast(type_name=type_name, pointers=pointers,
                            operand=operand, **self._loc(tok))
        return self._parse_postfix()

    def _is_cast(self) -> bool:
        """Heuristic: `(` TYPE [`*`...] `)` followed by a unary-start token."""
        tokens = self._tokens
        offset = self._pos + 1
        tok = tokens[offset]
        if tok.value not in _CAST_START and not (
            tok.kind is TokenKind.IDENT and tok.value in self._typedefs
        ):
            return False
        # Scan forward to the matching ')'.
        depth = 1
        while True:
            tok = tokens[offset]
            if tok.kind is TokenKind.EOF:
                return False
            if tok.value == "(":
                depth += 1
            elif tok.value == ")":
                depth -= 1
                if depth == 0:
                    break
            offset += 1
        after = tokens[offset + 1]
        if after.kind in (TokenKind.IDENT, TokenKind.NUMBER, TokenKind.STRING,
                          TokenKind.CHAR):
            return True
        return after.value in _CAST_FOLLOW

    def _parse_postfix(self) -> ast.Expr:
        expr = self._parse_primary()
        tokens = self._tokens
        while True:
            tok = tokens[self._pos]
            value = tok.value
            if value not in _POSTFIX_OPS:
                return expr
            self._pos += 1
            if value == "(":
                args: list[ast.Expr] = []
                if tokens[self._pos].value != ")":
                    while True:
                        args.append(self._parse_assignment())
                        if tokens[self._pos].value != ",":
                            break
                        self._pos += 1
                self._expect(")")
                expr = ast.Call(func=expr, args=args, **self._loc(tok))
            elif value == "[":
                index = self._parse_expression()
                self._expect("]")
                expr = ast.Index(obj=expr, index=index, **self._loc(tok))
            elif value == "." or value == "->":
                name = self._next().value
                expr = ast.Member(obj=expr, fieldname=name,
                                  arrow=value == "->", **self._loc(tok))
            else:
                expr = ast.Unary(op=value, operand=expr, prefix=False,
                                 **self._loc(tok))

    def _parse_primary(self) -> ast.Expr:
        tok = self._tokens[self._pos]
        kind = tok.kind
        loc = self._loc(tok)
        if kind is TokenKind.IDENT:
            self._pos += 1
            return ast.Ident(name=tok.value, **loc)
        if kind is TokenKind.NUMBER:
            self._pos += 1
            return ast.Number(text=tok.value, **loc)
        if tok.value == "(":
            self._pos += 1
            expr = self._parse_expression()
            self._expect(")")
            return expr
        if tok.value in ("struct", "union"):
            # Type name used as an expression argument — the kernel's
            # `container_of(ptr, struct foo, member)` idiom.  Parsed as
            # an identifier carrying the spelled type.
            self._pos += 1
            tag = self._next().value
            return ast.Ident(name=f"struct {tag}", **loc)
        if kind is TokenKind.STRING:
            self._pos += 1
            # Adjacent string literal concatenation.
            text = tok.value
            while self._tokens[self._pos].kind is TokenKind.STRING:
                text += self._tokens[self._pos].value
                self._pos += 1
            return ast.String(text=text, **loc)
        if kind is TokenKind.CHAR:
            self._pos += 1
            return ast.CharLit(text=tok.value, **loc)
        if tok.value == "{":
            return self._parse_initializer()
        raise ParseError("expected expression", tok)


def parse_source(
    text: str,
    filename: str = "<source>",
    defines: dict[str, str] | None = None,
    include_resolver=None,
    typedefs: frozenset[str] | set[str] = KERNEL_TYPEDEFS,
) -> ast.TranslationUnit:
    """Preprocess + parse ``text`` into a TranslationUnit."""
    from repro.cparse.preprocessor import Preprocessor

    if defines is None and include_resolver is None:
        # A preprocessed stream holds no directive; a raw one drops them.
        tokens = [t for t in tokenize(text, filename)
                  if t.kind is not TokenKind.DIRECTIVE]
    else:
        pp = Preprocessor(defines or {}, include_resolver)
        tokens = pp.preprocess(text, filename)
    return Parser(tokens, typedefs).parse_translation_unit()
