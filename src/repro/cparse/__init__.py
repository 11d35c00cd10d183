"""A self-contained C frontend for kernel-style code.

This package replaces the Smatch/sparse frontend used by the original
OFence.  It provides a lexer (:mod:`repro.cparse.lexer`), a lightweight
preprocessor (:mod:`repro.cparse.preprocessor`), a recursive-descent parser
producing an AST (:mod:`repro.cparse.parser`,
:mod:`repro.cparse.astnodes`) and a struct/type-inference layer
(:mod:`repro.cparse.typesys`).

The frontend deliberately targets the subset of C that the OFence analysis
consumes: function definitions, struct definitions, declarations and the
expression/statement forms found in kernel concurrency code.  It is not a
conforming C parser; unknown constructs fail loudly with
:class:`~repro.cparse.parser.ParseError` carrying a source location.
"""

from repro.cparse.lexer import LexError, Token, TokenKind, tokenize
from repro.cparse.parser import ParseError, Parser, parse_source
from repro.cparse.preprocessor import Preprocessor, PreprocessorError

__all__ = [
    "LexError",
    "Token",
    "TokenKind",
    "tokenize",
    "Parser",
    "ParseError",
    "parse_source",
    "Preprocessor",
    "PreprocessorError",
]
