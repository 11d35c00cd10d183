"""Unit tests for the C parser."""

import hashlib

import pytest

from repro.corpus import CorpusSpec, generate_corpus
from repro.cparse import astnodes as ast
from repro.cparse.lexer import KEYWORDS, LexError, TokenKind
from repro.cparse.parser import ParseError, parse_source
from repro.cparse.preprocessor import Preprocessor, PreprocessorError
from repro.fuzz.generate import generate_case
from repro.kernel.config import default_config


def parse(src):
    return parse_source(src, "test.c")


def body_stmts(src, fn=None):
    unit = parse(src)
    function = unit.functions[0] if fn is None else unit.function(fn)
    return function.body.stmts


def first_expr(src):
    (stmt,) = body_stmts(f"void f(void) {{ {src}; }}")
    assert isinstance(stmt, ast.ExprStmt)
    return stmt.expr


class TestTopLevel:
    def test_function_names(self):
        unit = parse("void a(void) {}\nint b(int x) { return x; }")
        assert [f.name for f in unit.functions] == ["a", "b"]

    def test_prototype_is_not_a_definition(self):
        unit = parse("int f(int x);")
        assert unit.functions == []

    def test_static_inline_flags(self):
        unit = parse("static inline int f(void) { return 0; }")
        fn = unit.functions[0]
        assert fn.is_static and fn.is_inline

    def test_return_type_with_pointers(self):
        unit = parse("struct foo *get(void) { return 0; }")
        fn = unit.functions[0]
        assert fn.return_type == "struct foo"
        assert fn.return_pointers == 1

    def test_params(self):
        unit = parse("void f(struct a *x, int y, unsigned long z) {}")
        params = unit.functions[0].params
        assert [(p.type_name, p.pointers, p.name) for p in params] == [
            ("struct a", 1, "x"), ("int", 0, "y"), ("unsigned long", 0, "z"),
        ]

    def test_void_param_list(self):
        unit = parse("void f(void) {}")
        assert unit.functions[0].params == []

    def test_variadic_params_tolerated(self):
        unit = parse("void f(int a, ...) {}")
        assert len(unit.functions[0].params) == 1

    def test_global_declaration(self):
        unit = parse("static int counter = 3;")
        decl = unit.globals[0].decl
        assert decl.type_name == "int"
        assert decl.declarators[0].name == "counter"

    def test_global_struct_pointer(self):
        unit = parse("struct dev *global_dev;")
        decl = unit.globals[0].decl
        assert decl.type_name == "struct dev"
        assert decl.declarators[0].pointers == 1

    def test_function_lookup_raises_keyerror(self):
        unit = parse("void a(void) {}")
        with pytest.raises(KeyError):
            unit.function("missing")


class TestStructs:
    def test_fields(self):
        unit = parse("struct s { int a; long b; };")
        fields = unit.structs[0].fields
        assert [f.name for f in fields] == ["a", "b"]

    def test_pointer_and_array_fields(self):
        unit = parse("struct s { struct s *next; int data[16]; };")
        fields = unit.structs[0].fields
        assert fields[0].pointers == 1
        assert fields[1].array_dims == 1

    def test_nested_anonymous_struct_flattened(self):
        unit = parse("struct s { struct { int x; int y; }; int z; };")
        names = [f.name for f in unit.structs[0].fields]
        assert names == ["x", "y", "z"]

    def test_union(self):
        unit = parse("union u { int i; float f; };")
        assert unit.structs[0].is_union

    def test_bitfields(self):
        unit = parse("struct s { unsigned a : 3; unsigned b : 5; };")
        assert [f.name for f in unit.structs[0].fields] == ["a", "b"]

    def test_struct_with_instance(self):
        unit = parse("struct s { int a; } instance;")
        assert unit.structs[0].name == "s"
        assert unit.globals[0].decl.declarators[0].name == "instance"

    def test_multiple_declarators_per_field_line(self):
        unit = parse("struct s { int a, b, *c; };")
        fields = unit.structs[0].fields
        assert [f.name for f in fields] == ["a", "b", "c"]
        assert fields[2].pointers == 1

    def test_function_pointer_member_tolerated(self):
        unit = parse("struct ops { int (*probe)(struct dev *d); int x; };")
        names = [f.name for f in unit.structs[0].fields]
        assert "x" in names


class TestEnumsAndTypedefs:
    def test_enum_members(self):
        unit = parse("enum e { A, B = 4, C };")
        assert unit.enums[0].members == ["A", "B", "C"]

    def test_typedef_registration_enables_declarations(self):
        unit = parse("typedef unsigned long mytype_t;\n"
                     "void f(void) { mytype_t x; consume(x); }")
        decl = unit.functions[0].body.stmts[0]
        assert isinstance(decl, ast.DeclStmt)
        assert decl.type_name == "mytype_t"

    def test_typedef_struct(self):
        unit = parse("typedef struct foo { int a; } foo_t;")
        assert unit.typedefs[0].name == "foo_t"
        assert unit.typedefs[0].base_type == "struct foo"

    def test_kernel_typedefs_preseeded(self):
        stmts = body_stmts("void f(void) { u64 x = 0; atomic_t v; }")
        assert all(isinstance(s, ast.DeclStmt) for s in stmts)


class TestStatements:
    def test_if_else(self):
        (stmt,) = body_stmts("void f(int a) { if (a) g(); else h(); }")
        assert isinstance(stmt, ast.If)
        assert stmt.orelse is not None

    def test_dangling_else_binds_inner(self):
        (stmt,) = body_stmts(
            "void f(int a, int b) { if (a) if (b) g(); else h(); }"
        )
        assert stmt.orelse is None
        assert isinstance(stmt.then, ast.If)
        assert stmt.then.orelse is not None

    def test_while(self):
        (stmt,) = body_stmts("void f(int a) { while (a) g(); }")
        assert isinstance(stmt, ast.While)

    def test_do_while(self):
        (stmt,) = body_stmts("void f(int a) { do g(); while (a); }")
        assert isinstance(stmt, ast.DoWhile)

    def test_for_full(self):
        (stmt,) = body_stmts(
            "void f(void) { for (int i = 0; i < 4; i++) g(i); }"
        )
        assert isinstance(stmt, ast.For)
        assert isinstance(stmt.init, ast.DeclStmt)

    def test_for_empty_clauses(self):
        (stmt,) = body_stmts("void f(void) { for (;;) g(); }")
        assert stmt.init is None and stmt.cond is None and stmt.step is None

    def test_switch_with_cases(self):
        stmts = body_stmts(
            "void f(int a) { switch (a) { case 1: g(); break; "
            "default: h(); } }"
        )
        assert isinstance(stmts[0], ast.Switch)

    def test_goto_and_label(self):
        stmts = body_stmts("void f(void) { goto out; out: g(); }")
        assert isinstance(stmts[0], ast.Goto)
        assert stmts[0].label == "out"
        assert isinstance(stmts[1], ast.LabelStmt)

    def test_return_value(self):
        (stmt,) = body_stmts("int f(void) { return 1 + 2; }")
        assert isinstance(stmt, ast.Return)
        assert isinstance(stmt.value, ast.Binary)

    def test_break_continue(self):
        (loop,) = body_stmts(
            "void f(void) { while (1) { if (x) break; continue; } }"
        )
        inner = loop.body.stmts
        assert isinstance(inner[1], ast.Continue)

    def test_empty_statement(self):
        (stmt,) = body_stmts("void f(void) { ; }")
        assert isinstance(stmt, ast.Empty)

    def test_local_declaration_multiple_declarators(self):
        (decl,) = body_stmts("void f(void) { int a = 1, *b, c[4]; }")
        assert [d.name for d in decl.declarators] == ["a", "b", "c"]
        assert decl.declarators[1].pointers == 1
        assert decl.declarators[2].array_dims == 1

    def test_macro_loop(self):
        (stmt,) = body_stmts(
            "void f(int cpu) { for_each_possible_cpu(cpu) { g(cpu); } }"
        )
        assert isinstance(stmt, ast.MacroLoop)
        assert stmt.call.callee_name == "for_each_possible_cpu"

    def test_initializer_list(self):
        (decl,) = body_stmts("void f(void) { int a[2] = { 1, 2 }; }")
        assert isinstance(decl.declarators[0].init, ast.InitList)

    def test_designated_initializer_tolerated(self):
        (decl,) = body_stmts(
            "void f(void) { struct s v = { .a = 1, .b = 2 }; }"
        )
        init = decl.declarators[0].init
        assert isinstance(init, ast.InitList)
        assert len(init.items) == 2


class TestExpressions:
    def test_precedence_mul_over_add(self):
        expr = first_expr("a = b + c * d")
        assert isinstance(expr.value, ast.Binary)
        assert expr.value.op == "+"
        assert expr.value.rhs.op == "*"

    def test_parentheses_override(self):
        expr = first_expr("a = (b + c) * d")
        assert expr.value.op == "*"

    def test_logical_precedence(self):
        expr = first_expr("x = a && b || c")
        assert expr.value.op == "||"

    def test_member_chain(self):
        expr = first_expr("a->b.c->d")
        assert isinstance(expr, ast.Member)
        assert expr.fieldname == "d"
        assert expr.obj.fieldname == "c"

    def test_array_index(self):
        expr = first_expr("a[i + 1]")
        assert isinstance(expr, ast.Index)

    def test_call_with_args(self):
        expr = first_expr("f(a, b + 1, c->d)")
        assert isinstance(expr, ast.Call)
        assert len(expr.args) == 3

    def test_ternary(self):
        expr = first_expr("a ? b : c")
        assert isinstance(expr, ast.Ternary)

    def test_compound_assignment(self):
        expr = first_expr("a += 2")
        assert isinstance(expr, ast.Assign)
        assert expr.op == "+="

    def test_assignment_right_associative(self):
        expr = first_expr("a = b = c")
        assert isinstance(expr.value, ast.Assign)

    def test_prefix_and_postfix_increment(self):
        pre = first_expr("++a")
        post = first_expr("a++")
        assert pre.prefix and not post.prefix

    def test_address_of_and_deref(self):
        expr = first_expr("*(&a)")
        assert isinstance(expr, ast.Unary) and expr.op == "*"
        assert expr.operand.op == "&"

    def test_cast(self):
        expr = first_expr("(unsigned long)p")
        assert isinstance(expr, ast.Cast)
        assert expr.type_name == "unsigned long"

    def test_cast_with_pointer(self):
        expr = first_expr("(struct page *)addr")
        assert isinstance(expr, ast.Cast)
        assert expr.pointers == 1

    def test_call_not_mistaken_for_cast(self):
        expr = first_expr("f(x)")
        assert isinstance(expr, ast.Call)

    def test_sizeof_type(self):
        expr = first_expr("sizeof(struct s)")
        assert isinstance(expr, ast.SizeOf)

    def test_sizeof_expression(self):
        expr = first_expr("sizeof x")
        assert isinstance(expr, ast.SizeOf)

    def test_comma_expression(self):
        (stmt,) = body_stmts("void f(void) { a = 1, b = 2; }")
        assert isinstance(stmt.expr, ast.CommaExpr)

    def test_string_concatenation(self):
        expr = first_expr('"ab" "cd"')
        assert isinstance(expr, ast.String)
        assert "cd" in expr.text

    def test_shift_and_bitops(self):
        expr = first_expr("x = (a << 2) | (b & 3) ^ c")
        assert expr.value.op == "|"


class TestErrors:
    def test_unterminated_block(self):
        with pytest.raises(ParseError):
            parse("void f(void) { g();")

    def test_missing_semicolon(self):
        with pytest.raises(ParseError):
            parse("void f(void) { a = 1 }")

    def test_missing_close_paren(self):
        with pytest.raises(ParseError):
            parse("void f(void) { if (a { g(); } }")

    def test_error_carries_location(self):
        with pytest.raises(ParseError) as exc:
            parse_source("void f(void) { a = ; }", "bad.c")
        assert "bad.c" in str(exc.value)


class TestKernelPatterns:
    def test_listing_1(self, listing1):
        unit = parse(listing1)
        assert {f.name for f in unit.functions} == {"reader", "writer"}

    def test_listing_3_seqcount_loop(self):
        src = """
        void get_counters(struct tbl *t, seqcount_t *s) {
            unsigned int v;
            do {
                v = read_seqcount_begin(s);
                bcnt = tmp->bcnt;
                pcnt = tmp->pcnt;
            } while (read_seqcount_retry(s, v));
        }
        """
        unit = parse(src)
        (loop,) = [
            s for s in unit.functions[0].body.stmts
            if isinstance(s, ast.DoWhile)
        ]
        assert isinstance(loop.cond, ast.Call)

    def test_barrier_statements(self):
        stmts = body_stmts(
            "void f(struct s *a) { a->x = 1; smp_wmb(); a->flag = 1; }"
        )
        assert isinstance(stmts[1].expr, ast.Call)
        assert stmts[1].expr.callee_name == "smp_wmb"

    def test_attribute_skipped(self):
        unit = parse(
            "static void __attribute__((unused)) f(void) { g(); }"
        )
        assert unit.functions[0].name == "f"

    def test_read_once_call(self):
        expr = first_expr("task = READ_ONCE(event->task)")
        assert expr.value.callee_name == "READ_ONCE"


#: sha256 of the reprs of the units below, as produced by the parser that
#: compared tokens through ``Token.is_punct``/``is_keyword`` and ``_peek``.
AST_DIGEST = (
    "47faabefbee0e43b046cdbb302473b630c204c1af50bc91dc0fa046f0be53dcf"
)


def ast_digest_inputs():
    """``(name, text, headers)`` for the small corpora, fuzz cases 0-99
    and the paper corpus's headers (seed 2023)."""
    for seed in (7, 31):
        source = generate_corpus(CorpusSpec.small(), seed=seed).source
        for name, text in sorted(source.files.items()):
            yield name, text, source.headers
        for name, text in sorted(source.headers.items()):
            yield name, text, source.headers
    for seed in range(100):
        case = generate_case(seed)
        for name, text in sorted({**case.files, **case.headers}.items()):
            yield name, text, case.headers
    headers = generate_corpus(CorpusSpec.paper(), seed=2023).source.headers
    for name, text in sorted(headers.items()):
        yield name, text, headers


def _frontend_kwargs(headers):
    return {
        "defines": default_config().defines(),
        "include_resolver": lambda name, system: headers.get(name),
    }


class TestAstDigest:
    def test_preprocessed_units_are_unchanged(self):
        digest = hashlib.sha256()
        for name, text, headers in ast_digest_inputs():
            try:
                unit = parse_source(text, name, **_frontend_kwargs(headers))
            except Exception as exc:
                digest.update(f"{type(exc).__name__}: {exc}".encode())
                continue
            digest.update(repr(unit).encode())
        assert digest.hexdigest() == AST_DIGEST


#: Every punctuator spelling of the lexical grammar.
PUNCTUATORS = frozenset(
    "<<= >>= ... -> ++ -- << >> && || += -= *= /= %= &= ^= |= <= >= == "
    "!= [ ] ( ) { } . & * + - ~ ! / % < > ^ | ? : ; = ,".split()
)


class TestValueIsTag:
    """The parser tests ``tok.value == "{"`` alone; that holds only while
    a value names its kind."""

    def test_value_names_kind_after_preprocessing(self):
        checked = 0
        for name, text, headers in ast_digest_inputs():
            kwargs = _frontend_kwargs(headers)
            pp = Preprocessor(kwargs["defines"], kwargs["include_resolver"])
            try:
                tokens = pp.preprocess(text, name)
            except (LexError, PreprocessorError):
                continue
            for tok in tokens:
                assert (tok.value in PUNCTUATORS) == (
                    tok.kind is TokenKind.PUNCT), tok
                assert (tok.value in KEYWORDS) == (
                    tok.kind is TokenKind.KEYWORD), tok
                assert tok.kind is not TokenKind.DIRECTIVE, tok
            checked += len(tokens)
        assert checked > 50_000
