"""Unit tests for the C lexer."""

import hashlib

import pytest

from repro.corpus import CorpusSpec, generate_corpus
from repro.cparse.lexer import LexError, Token, TokenKind, tokenize
from repro.fuzz.generate import generate_case


def kinds(text):
    return [t.kind for t in tokenize(text)[:-1]]


def values(text):
    return [t.value for t in tokenize(text)[:-1]]


class TestBasicTokens:
    def test_empty_input_yields_only_eof(self):
        tokens = tokenize("")
        assert len(tokens) == 1
        assert tokens[0].kind is TokenKind.EOF

    def test_identifier(self):
        (tok,) = tokenize("hello")[:-1]
        assert tok.kind is TokenKind.IDENT
        assert tok.value == "hello"

    def test_identifier_with_underscore_and_digits(self):
        assert values("__foo_42 _x") == ["__foo_42", "_x"]

    def test_keyword_classification(self):
        toks = tokenize("struct int while")[:-1]
        assert all(t.kind is TokenKind.KEYWORD for t in toks)

    def test_non_keyword_identifier(self):
        (tok,) = tokenize("structure")[:-1]
        assert tok.kind is TokenKind.IDENT

    def test_kernel_extension_keywords(self):
        toks = tokenize("__attribute__ typeof __always_inline")[:-1]
        assert all(t.kind is TokenKind.KEYWORD for t in toks)


class TestNumbers:
    def test_decimal(self):
        assert values("42") == ["42"]

    def test_hex(self):
        assert values("0xdeadBEEF") == ["0xdeadBEEF"]

    def test_octal_zero(self):
        assert values("0755") == ["0755"]

    def test_suffixes(self):
        assert values("1UL 2ull 3u 4L") == ["1UL", "2ull", "3u", "4L"]

    def test_float(self):
        assert values("3.14 1e9 2.5e-3") == ["3.14", "1e9", "2.5e-3"]

    def test_number_at_end_of_input_terminates(self):
        # Regression: the suffix scan used to loop forever on EOF.
        assert values("1") == ["1"]

    def test_hex_at_end_of_input(self):
        assert values("0xff") == ["0xff"]

    def test_number_kind(self):
        assert kinds("123") == [TokenKind.NUMBER]


class TestStringsAndChars:
    def test_string(self):
        assert values('"hello world"') == ['"hello world"']

    def test_string_with_escapes(self):
        assert values(r'"a\"b\\c"') == [r'"a\"b\\c"']

    def test_char(self):
        assert values("'x'") == ["'x'"]

    def test_char_escape(self):
        assert values(r"'\n'") == [r"'\n'"]

    def test_unterminated_string_raises(self):
        with pytest.raises(LexError):
            tokenize('"abc')

    def test_unterminated_string_at_newline_raises(self):
        with pytest.raises(LexError):
            tokenize('"abc\ndef"')

    def test_unterminated_char_raises(self):
        with pytest.raises(LexError):
            tokenize("'x")


class TestPunctuators:
    def test_arrow_vs_minus(self):
        assert values("a->b - c") == ["a", "->", "b", "-", "c"]

    def test_shift_assign_maximal_munch(self):
        assert values("a <<= 2") == ["a", "<<=", "2"]

    def test_increment_vs_plus(self):
        assert values("a+++b") == ["a", "++", "+", "b"]

    def test_ellipsis(self):
        assert values("f(...)") == ["f", "(", "...", ")"]

    def test_all_compound_assignments(self):
        ops = ["+=", "-=", "*=", "/=", "%=", "&=", "^=", "|="]
        assert values(" ".join(ops)) == ops

    def test_logical_operators(self):
        assert values("a && b || !c") == ["a", "&&", "b", "||", "!", "c"]


class TestComments:
    def test_line_comment_skipped(self):
        assert values("a // comment\nb") == ["a", "b"]

    def test_block_comment_skipped(self):
        assert values("a /* x */ b") == ["a", "b"]

    def test_multiline_block_comment(self):
        assert values("a /* 1\n2\n3 */ b") == ["a", "b"]

    def test_unterminated_block_comment_raises(self):
        with pytest.raises(LexError):
            tokenize("a /* never closed")

    def test_comment_does_not_nest(self):
        assert values("/* a /* b */ c") == ["c"]


class TestDirectives:
    def test_directive_token(self):
        toks = tokenize("#define FOO 1\nint a;")
        assert toks[0].kind is TokenKind.DIRECTIVE
        assert toks[0].value == "#define FOO 1"

    def test_directive_only_at_line_start(self):
        # '#' mid-line is not valid C anyway; we only recognize directives
        # at line starts, so a leading int token keeps the line literal.
        toks = tokenize("#include <a.h>")
        assert toks[0].kind is TokenKind.DIRECTIVE

    def test_directive_with_continuation(self):
        toks = tokenize("#define F(x) \\\n  (x + 1)\nint a;")
        assert toks[0].kind is TokenKind.DIRECTIVE
        assert "(x + 1)" in toks[0].value

    def test_directive_strips_block_comment(self):
        toks = tokenize("#define A /* hidden */ 3\n")
        assert "hidden" not in toks[0].value
        assert toks[0].value.endswith("3")

    def test_directive_strips_line_comment(self):
        toks = tokenize("#define A 3 // tail\n")
        assert toks[0].value.endswith("3")


class TestLocations:
    def test_line_and_column_tracking(self):
        toks = tokenize("a\n  b")[:-1]
        assert (toks[0].line, toks[0].column) == (1, 1)
        assert (toks[1].line, toks[1].column) == (2, 3)

    def test_filename_recorded(self):
        (tok,) = tokenize("x", filename="foo.c")[:-1]
        assert tok.filename == "foo.c"
        assert tok.location == "foo.c:1:1"

    def test_line_continuation_in_code(self):
        toks = tokenize("a\\\nb")[:-1]
        # Backslash-newline acts as whitespace between tokens.
        assert [t.value for t in toks] == ["a", "b"]

    def test_unexpected_character_raises_with_location(self):
        with pytest.raises(LexError) as exc:
            tokenize("a @ b", filename="bad.c")
        assert "bad.c" in str(exc.value)


class TestTokenHelpers:
    def test_is_ident_with_and_without_value(self):
        tok = Token(TokenKind.IDENT, "foo", "f.c", 1, 1)
        assert tok.is_ident()
        assert tok.is_ident("foo")
        assert not tok.is_ident("bar")


class TestKernelSnippets:
    def test_listing1_reader(self):
        src = "if(!a->init) return; read_barrier(); f(a->y);"
        assert "->" in values(src)

    def test_barrier_call(self):
        assert values("smp_wmb();") == ["smp_wmb", "(", ")", ";"]

    def test_complex_kernel_line(self):
        src = "seqcount_t *s = &per_cpu(xt_recseq, cpu);"
        vals = values(src)
        assert vals[0] == "seqcount_t"
        assert "&" in vals


def located(text):
    return [(t.kind, t.value, t.line, t.column) for t in tokenize(text, "f.c")]


def lex_error(text):
    with pytest.raises(LexError) as exc:
        tokenize(text, "f.c")
    return str(exc.value)


class TestQuirks:
    """Behaviour the frontend relies on, pinned token for token."""

    def test_directive_after_block_comment_at_line_start(self):
        toks = located("/* c */ #define A 1\nint x;")
        assert toks[0] == (TokenKind.DIRECTIVE, "#define A 1", 1, 9)
        assert toks[1] == (TokenKind.KEYWORD, "int", 2, 1)

    def test_hash_after_code_line_continuation_raises(self):
        assert lex_error("int a; \\\n#define A") == (
            "f.c:2:1: unexpected character '#'"
        )

    def test_hash_after_multiline_comment_following_code_raises(self):
        # Only a bare newline starts a line; one inside a comment does not.
        assert lex_error("a /* x\n */ #b") == "f.c:2:5: unexpected character '#'"

    def test_directive_continuation_and_comments_become_spaces(self):
        toks = located("#define A(x) \\\n x /* c\n */+ 1 // t\nA")
        assert toks[0] == (TokenKind.DIRECTIVE, "#define A(x)   x  + 1", 1, 1)
        assert toks[1] == (TokenKind.IDENT, "A", 4, 1)

    def test_unterminated_comment_inside_directive_runs_to_end(self):
        assert located("#if 1 /* open\nx") == [
            (TokenKind.DIRECTIVE, "#if 1", 1, 1),
            (TokenKind.EOF, "", 2, 2),
        ]

    def test_escaped_newline_in_string_reports_newline_column(self):
        assert lex_error('x = "ab\\\ncd"') == (
            "f.c:1:9: unterminated string literal"
        )

    def test_unterminated_char_at_end_of_input(self):
        assert lex_error("'a\\") == "f.c:1:4: unterminated character literal"

    def test_unterminated_block_comment_reports_end_of_input(self):
        assert lex_error("a\n/* never\n closed") == (
            "f.c:3:8: unterminated block comment"
        )

    def test_form_feed_raises(self):
        assert lex_error("a\fb") == "f.c:1:2: unexpected character '\\x0c'"

    @pytest.mark.parametrize("text", ["1.2.3", ".5f", "0x", "0xFUL", "1e+5L"])
    def test_number_shapes_lex_as_one_token(self, text):
        assert located(text) == [(TokenKind.NUMBER, text, 1, 1),
                                 (TokenKind.EOF, "", 1, len(text) + 1)]

    def test_exponent_needs_a_digit(self):
        assert values("1e 2e+ 3e-x") == ["1", "e", "2", "e", "+", "3", "e",
                                         "-", "x"]

    def test_crlf_columns(self):
        assert located("a\r\n  b\r\n") == [
            (TokenKind.IDENT, "a", 1, 1),
            (TokenKind.IDENT, "b", 2, 3),
            (TokenKind.EOF, "", 3, 1),
        ]

    def test_eof_location_after_trailing_blanks(self):
        assert located("a  \n  ")[-1] == (TokenKind.EOF, "", 2, 3)

    def test_unicode_digits_follow_str_methods(self):
        # '²' is a digit to str.isdigit but not to re's \d; '½' is
        # alphanumeric but neither a letter nor a digit.
        assert located("²x a½ .² 1e²") == [
            (TokenKind.NUMBER, "²", 1, 1),
            (TokenKind.IDENT, "x", 1, 2),
            (TokenKind.IDENT, "a½", 1, 4),
            (TokenKind.NUMBER, ".²", 1, 7),
            (TokenKind.NUMBER, "1e²", 1, 10),
            (TokenKind.EOF, "", 1, 13),
        ]
        assert lex_error("é ½") == "f.c:1:3: unexpected character '½'"


#: sha256 of the token stream below, as produced by the character-at-a-time
#: lexer that the master-pattern tokenizer replaced.
TOKEN_STREAM_DIGEST = (
    "b42afd25e3be297aacd2eb28904cf9787691bce113ec214f5c2ad4ca8e09cff2"
)


def digest_inputs():
    for seed in (7, 31):
        source = generate_corpus(CorpusSpec.small(), seed=seed).source
        yield from sorted(source.files.items())
        yield from sorted(source.headers.items())
    for seed in range(100):
        case = generate_case(seed)
        yield from sorted(case.files.items())
        yield from sorted(case.headers.items())


class TestTokenStreamDigest:
    def test_corpus_and_fuzz_token_streams_are_unchanged(self):
        digest = hashlib.sha256()
        for name, text in digest_inputs():
            try:
                tokens = tokenize(text, name)
            except LexError as exc:
                digest.update(str(exc).encode())
                continue
            for t in tokens:
                digest.update(repr(
                    (t.kind.value, t.value, t.filename, t.line, t.column)
                ).encode())
        assert digest.hexdigest() == TOKEN_STREAM_DIGEST
