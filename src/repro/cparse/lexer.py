"""Tokenizer for kernel-style C source.

The lexer understands the lexical grammar of C plus a few kernel-isms
(``//`` comments, GNU attribute tokens are lexed as identifiers and
punctuation).  Preprocessor directives are emitted as dedicated
``DIRECTIVE`` tokens holding the raw directive line so that the
preprocessor can interpret them; everything else is ordinary C tokens.

The whole lexical grammar is one table of named regular expressions
(:func:`_master`), compiled into a single pattern that :func:`tokenize`
walks with ``finditer``.
"""

from __future__ import annotations

import enum
import functools
import re
from dataclasses import dataclass


class LexError(Exception):
    """Raised when the input cannot be tokenized."""

    def __init__(self, message: str, filename: str, line: int, column: int):
        super().__init__(f"{filename}:{line}:{column}: {message}")
        self.filename = filename
        self.line = line
        self.column = column


class TokenKind(enum.Enum):
    IDENT = "ident"
    KEYWORD = "keyword"
    NUMBER = "number"
    STRING = "string"
    CHAR = "char"
    PUNCT = "punct"
    DIRECTIVE = "directive"
    EOF = "eof"


#: C keywords recognised by the parser.  GNU/kernel extensions that behave
#: like keywords are included so declarations parse naturally.
KEYWORDS = frozenset(
    {
        "auto", "break", "case", "char", "const", "continue", "default",
        "do", "double", "else", "enum", "extern", "float", "for", "goto",
        "if", "inline", "int", "long", "register", "restrict", "return",
        "short", "signed", "sizeof", "static", "struct", "switch",
        "typedef", "union", "unsigned", "void", "volatile", "while",
        # GNU / kernel extensions treated as keywords:
        "__inline", "__inline__", "__always_inline", "__attribute__",
        "__volatile__", "__restrict", "_Bool", "__typeof__", "typeof",
    }
)

@dataclass(slots=True)
class Token:
    """A single lexical token with its source location."""

    kind: TokenKind
    value: str
    filename: str
    line: int
    column: int

    def is_ident(self, value: str | None = None) -> bool:
        if self.kind is not TokenKind.IDENT:
            return False
        return value is None or self.value == value

    @property
    def location(self) -> str:
        return f"{self.filename}:{self.line}:{self.column}"


#: A terminated block comment; comments do not nest.
_BLOCK_COMMENT = r"/\*[^*]*\*+(?:[^/*][^*]*\*+)*/"

#: What a directive keeps as one space: a line continuation, a block
#: comment (an unterminated one runs to the end of input), and the
#: trailing ``//`` comment, which ``str.strip`` then removes.
_DIRECTIVE_SPACE = rf"\\\n|{_BLOCK_COMMENT}|/\*[\s\S]*|//[^\n]*"
_DIRECTIVE_SPACES = re.compile(_DIRECTIVE_SPACE)


_TOKEN_KINDS = {
    "ident": TokenKind.IDENT,
    "number": TokenKind.NUMBER,
    "string": TokenKind.STRING,
    "char": TokenKind.CHAR,
    "punct": TokenKind.PUNCT,
}


@functools.lru_cache(maxsize=16)
def _master(odd: str) -> tuple[re.Pattern[str], tuple]:
    r"""The master pattern and its group table.

    The pattern is a run of blanks, which a match absorbs in front of
    its lexeme, then one named group per lexeme, tried in order.  The
    absorbed run holds no newline, so it moves no line; the ``blank``
    group still matches continuation runs and blanks at the end of
    input.  The table maps a group's index (``match.lastindex``) to its
    token kind, or to its name for a lexeme that makes no plain token.

    Identifiers start at ``str.isalpha`` or ``_`` and numbers at
    ``str.isdigit``.  ``re``'s ``\w``/``\d`` agree with those except on
    alphanumerics that are neither letters nor decimal digits, such as
    ``²`` (a digit to ``isdigit``) and ``½`` (neither).  ``odd`` lists
    the ones present in the input; they are kept out of the identifier
    start class, and the digits among them are added to the digit class.
    """
    digits = r"\d" + re.escape("".join(c for c in odd if c.isdigit()))
    grammar = {
        "nl": r"\n",
        "blank": r"(?:[ \t\r]|\\\n)+",
        "line_comment": r"//[^\n]*",
        "block_comment": _BLOCK_COMMENT,
        "open_comment": r"/\*",
        "ident": rf"[^\W\d{re.escape(odd)}]\w*",
        # An exponent counts only when a digit follows its sign.
        "number": r"0[xX][0-9a-fA-F]*[uUlLfF]*"
                  rf"|(?=\.?[{digits}])[.{digits}]+"
                  rf"(?:[eE][+-]?[{digits}]+)?[uUlLfF]*",
        "string": r'"[^"\\\n]*(?:\\.[^"\\\n]*)*"',
        "char": r"'[^'\\\n]*(?:\\.[^'\\\n]*)*'",
        "open_quote": r"[\"']",
        "directive": rf"#(?:{_DIRECTIVE_SPACE}|[^\n\\/]+|[\\/])*",
        # Longest first, so the first alternative that matches is the
        # maximal munch.
        "punct": r"<<=|>>=|\.\.\.|->|\+\+|--|<<|>>|&&|\|\|"
                 r"|[-+*/%&^|<>=!]="
                 r"|[\]\[(){}.&*+\-~!/%<>^|?:;=,]",
        "bad": r"[\s\S]",
    }
    pattern = re.compile(r"[ \t\r]*(?:" + "|".join(
        f"(?P<{name}>{rx})" for name, rx in grammar.items()) + ")")
    # No lexeme's own pattern captures, so group i is lexeme i.
    return pattern, (None, *(_TOKEN_KINDS.get(name, name)
                             for name in grammar))


def _error(message: str, text: str, filename: str, pos: int) -> LexError:
    return LexError(message, filename, text.count("\n", 0, pos) + 1,
                    pos - text.rfind("\n", 0, pos))


def tokenize(text: str, filename: str = "<source>") -> list[Token]:
    """Tokenize ``text``, returning its tokens plus a final EOF token.

    A ``#`` starts a directive only when its line so far holds nothing but
    blanks, continuations and comments; anywhere else it is an error.
    """
    odd = "" if text.isascii() else "".join(sorted(
        c for c in set(text)
        if c.isalnum() and not c.isalpha() and not c.isdecimal()
    ))
    tokens: list[Token] = []
    append = tokens.append
    line, line_start, at_line_start = 1, 0, True
    pattern, table = _master(odd)
    for match in pattern.finditer(text):
        index = match.lastindex
        kind = table[index]
        if kind.__class__ is TokenKind:
            value = match.group(index)
            start = match.start(index)
            if kind is TokenKind.IDENT and value in KEYWORDS:
                kind = TokenKind.KEYWORD
            append(Token(kind, value, filename, line, start - line_start + 1))
            at_line_start = False
            continue
        if kind == "nl":
            line += 1
            line_start = match.end()
            at_line_start = True
            continue
        value = match.group(index)
        start = match.start(index)
        if kind == "line_comment":
            continue
        if kind == "directive" and at_line_start:
            append(Token(TokenKind.DIRECTIVE,
                         _DIRECTIVE_SPACES.sub(" ", value).strip(),
                         filename, line, start - line_start + 1))
            at_line_start = False
        elif kind == "open_comment":
            raise _error("unterminated block comment", text, filename,
                         len(text))
        elif kind == "open_quote":
            end = text.find("\n", start)
            literal = "string" if value == '"' else "character"
            raise _error(f"unterminated {literal} literal", text, filename,
                         len(text) if end < 0 else end)
        elif kind != "blank" and kind != "block_comment":
            raise _error(f"unexpected character {value[0]!r}", text,
                         filename, start)
        # Blanks, block comments and directives may span lines.
        newlines = value.count("\n")
        if newlines:
            line += newlines
            line_start = start + value.rfind("\n") + 1
    append(Token(TokenKind.EOF, "", filename, line, len(text) - line_start + 1))
    return tokens
