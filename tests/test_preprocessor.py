"""Unit tests for the lightweight preprocessor."""

import pytest

from repro.cparse.lexer import TokenKind
from repro.cparse.preprocessor import Preprocessor, PreprocessorError


def expand(text, defines=None, resolver=None):
    pp = Preprocessor(defines or {}, resolver)
    return [t.value for t in pp.preprocess(text) if t.kind is not TokenKind.EOF]


class TestObjectMacros:
    def test_simple_define(self):
        assert expand("#define N 4\nint a = N;") == \
            ["int", "a", "=", "4", ";"]

    def test_predefines(self):
        assert expand("int a = CONFIG_X;", {"CONFIG_X": "7"}) == \
            ["int", "a", "=", "7", ";"]

    def test_undef(self):
        out = expand("#define N 4\n#undef N\nint a = N;")
        assert out == ["int", "a", "=", "N", ";"]

    def test_redefinition_takes_latest(self):
        out = expand("#define N 1\n#define N 2\nint a = N;")
        assert out[-2] == "2"

    def test_macro_expanding_to_nothing(self):
        assert expand("#define EMPTY\nint EMPTY a;") == ["int", "a", ";"]

    def test_nested_object_macros(self):
        out = expand("#define A B\n#define B 9\nint x = A;")
        assert out[-2] == "9"

    def test_self_referential_macro_does_not_loop(self):
        out = expand("#define X X\nint a = X;")
        assert out[-2] == "X"

    def test_mutually_recursive_macros_do_not_loop(self):
        out = expand("#define A B\n#define B A\nint x = A;")
        assert out[-2] in ("A", "B")


class TestFunctionMacros:
    def test_simple_function_macro(self):
        out = expand("#define ADD(x, y) ((x) + (y))\nint a = ADD(1, 2);")
        assert "".join(out) == "inta=((1)+(2));"

    def test_macro_args_with_commas_in_parens(self):
        out = expand("#define ID(x) x\nint a = ID(f(1, 2));")
        assert "".join(out) == "inta=f(1,2);"

    def test_function_macro_without_parens_not_expanded(self):
        out = expand("#define F(x) x\nint a = F;")
        assert out == ["int", "a", "=", "F", ";"]

    def test_zero_argument_macro(self):
        out = expand("#define NOP() do_nothing()\nNOP();")
        assert out[:4] == ["do_nothing", "(", ")", ";"]

    def test_wrong_arity_raises(self):
        with pytest.raises(PreprocessorError):
            expand("#define ADD(x, y) x + y\nint a = ADD(1);")

    def test_variadic_macro(self):
        out = expand(
            "#define LOG(fmt, ...) printk(fmt, __VA_ARGS__)\n"
            'LOG("x", 1, 2);'
        )
        assert "".join(out) == 'printk("x",1,2);'

    def test_unterminated_call_raises(self):
        with pytest.raises(PreprocessorError):
            expand("#define F(x) x\nint a = F(1")

    def test_nested_macro_calls(self):
        out = expand(
            "#define TWICE(x) ((x) * 2)\nint a = TWICE(TWICE(3));"
        )
        assert "".join(out) == "inta=((((3)*2))*2);"


class TestConditionals:
    def test_ifdef_taken(self):
        out = expand("#ifdef X\nint a;\n#endif", {"X": "1"})
        assert out == ["int", "a", ";"]

    def test_ifdef_not_taken(self):
        assert expand("#ifdef X\nint a;\n#endif") == []

    def test_ifndef(self):
        assert expand("#ifndef X\nint a;\n#endif") == ["int", "a", ";"]

    def test_else_branch(self):
        out = expand("#ifdef X\nint a;\n#else\nint b;\n#endif")
        assert out == ["int", "b", ";"]

    def test_elif_chain(self):
        src = (
            "#if defined(A)\nint a;\n#elif defined(B)\nint b;\n"
            "#else\nint c;\n#endif"
        )
        assert expand(src, {"B": "1"}) == ["int", "b", ";"]
        assert expand(src, {"A": "1"}) == ["int", "a", ";"]
        assert expand(src) == ["int", "c", ";"]

    def test_elif_not_reconsidered_after_taken(self):
        src = "#if 1\nint a;\n#elif 1\nint b;\n#endif"
        assert expand(src) == ["int", "a", ";"]

    def test_nested_conditionals(self):
        src = (
            "#ifdef A\n#ifdef B\nint ab;\n#endif\nint a;\n#endif"
        )
        assert expand(src, {"A": "1"}) == ["int", "a", ";"]
        assert expand(src, {"A": "1", "B": "1"}) == \
            ["int", "ab", ";", "int", "a", ";"]

    def test_defines_inside_untaken_branch_ignored(self):
        src = "#ifdef X\n#define N 1\n#endif\nint a = N;"
        assert expand(src)[-2] == "N"

    def test_unterminated_if_raises(self):
        with pytest.raises(PreprocessorError):
            expand("#ifdef X\nint a;")

    def test_endif_without_if_raises(self):
        with pytest.raises(PreprocessorError):
            expand("#endif")

    def test_else_without_if_raises(self):
        with pytest.raises(PreprocessorError):
            expand("#else")


class TestIfExpressions:
    def test_numeric_condition(self):
        assert expand("#if 1\nint a;\n#endif") == ["int", "a", ";"]
        assert expand("#if 0\nint a;\n#endif") == []

    def test_comparison(self):
        assert expand("#if 3 > 2\nint a;\n#endif") == ["int", "a", ";"]

    def test_logical_operators(self):
        src = "#if defined(A) && B > 1\nint a;\n#endif"
        assert expand(src, {"A": "1", "B": "2"}) == ["int", "a", ";"]
        assert expand(src, {"A": "1", "B": "1"}) == []

    def test_defined_without_parens(self):
        assert expand("#if defined A\nint a;\n#endif", {"A": "1"}) == \
            ["int", "a", ";"]

    def test_unknown_identifier_is_zero(self):
        assert expand("#if UNKNOWN\nint a;\n#endif") == []

    def test_macro_expansion_in_condition(self):
        src = "#define V 5\n#if V >= 5\nint a;\n#endif"
        assert expand(src) == ["int", "a", ";"]

    def test_arithmetic_and_ternary(self):
        assert expand("#if (1 + 2) * 2 == 6 ? 1 : 0\nint a;\n#endif") == \
            ["int", "a", ";"]

    def test_unary_not(self):
        assert expand("#if !0\nint a;\n#endif") == ["int", "a", ";"]

    def test_division_by_zero_raises(self):
        with pytest.raises(PreprocessorError):
            expand("#if 1 / 0\n#endif")

    def test_empty_condition_raises(self):
        with pytest.raises(PreprocessorError):
            expand("#if\nint a;\n#endif")


class TestIncludes:
    def test_include_resolved(self):
        headers = {"types.h": "struct foo { int x; };"}
        out = expand(
            '#include "types.h"\nint a;',
            resolver=lambda name, system: headers.get(name),
        )
        assert out[:2] == ["struct", "foo"]

    def test_unresolvable_include_skipped(self):
        out = expand('#include <missing.h>\nint a;',
                     resolver=lambda name, system: None)
        assert out == ["int", "a", ";"]

    def test_include_without_resolver_skipped(self):
        assert expand('#include "x.h"\nint a;') == ["int", "a", ";"]

    def test_double_inclusion_guarded(self):
        headers = {"h.h": "int from_header;"}
        out = expand(
            '#include "h.h"\n#include "h.h"\nint a;',
            resolver=lambda name, system: headers.get(name),
        )
        assert out.count("from_header") == 1

    def test_nested_includes(self):
        headers = {"a.h": '#include "b.h"\nint a_sym;', "b.h": "int b_sym;"}
        out = expand('#include "a.h"',
                     resolver=lambda name, system: headers.get(name))
        assert out == ["int", "b_sym", ";", "int", "a_sym", ";"]

    def test_macros_from_include_visible(self):
        headers = {"m.h": "#define WIDTH 32"}
        out = expand(
            '#include "m.h"\nint a = WIDTH;',
            resolver=lambda name, system: headers.get(name),
        )
        assert out[-2] == "32"

    def test_malformed_include_raises(self):
        with pytest.raises(PreprocessorError):
            expand("#include x.h", resolver=lambda n, s: None)


class TestMiscDirectives:
    def test_pragma_ignored(self):
        assert expand("#pragma once\nint a;") == ["int", "a", ";"]

    def test_unknown_directive_raises(self):
        with pytest.raises(PreprocessorError):
            expand("#frobnicate\nint a;")

    def test_unknown_directive_in_dead_branch_ignored(self):
        out = expand("#ifdef X\n#frobnicate\n#endif\nint a;")
        assert out == ["int", "a", ";"]


class TestNoDirectiveInOutput:
    """The parser relies on a preprocessed stream holding no directive."""

    def test_hash_body_expands_to_nothing(self):
        assert expand("#define S(x) #x\nint a S(b);") == ["int", "a", ";"]

    def test_directive_inside_macro_arguments_is_dropped(self):
        out = expand("#define F(x) x\nint a = F(1\n#pragma once\n);")
        assert out == ["int", "a", "=", "1", ";"]
