"""Tokenizer for the stSPARQL dialect."""

from __future__ import annotations

import re
from dataclasses import dataclass
from typing import List

from repro.stsparql.errors import SparqlParseError

KEYWORDS = {
    "select",
    "distinct",
    "reduced",
    "where",
    "filter",
    "optional",
    "union",
    "prefix",
    "base",
    "ask",
    "construct",
    "group",
    "by",
    "having",
    "order",
    "asc",
    "desc",
    "limit",
    "offset",
    "as",
    "bind",
    "values",
    "undef",
    "delete",
    "insert",
    "data",
    "minus",
    "exists",
    "not",
    "true",
    "false",
    "a",
    "count",
    "sum",
    "avg",
    "min",
    "max",
    "sample",
    "group_concat",
}

_TOKEN_RE = re.compile(
    r"""
    (?P<comment>\#[^\n]*)
  | (?P<iri><[^<>"{}|^`\\\s]*>)
  | (?P<var>[?$][A-Za-z_][\w]*)
  | (?P<string>"(?:[^"\\\n]|\\.)*"|'(?:[^'\\\n]|\\.)*')
  | (?P<lang>@[a-zA-Z]+(?:-[a-zA-Z0-9]+)*)
  | (?P<dtype>\^\^)
  | (?P<number>[-+]?(?:\d+\.\d+|\.\d+|\d+)(?:[eE][-+]?\d+)?)
  | (?P<pname>[A-Za-z_][\w.-]*:[\w][\w.-]*|[A-Za-z_][\w.-]*:|:[\w][\w.-]*)
  | (?P<word>[A-Za-z_][\w]*)
  | (?P<op>\|\||&&|!=|<=|>=|[{}()\[\].;,=<>!+\-*/])
  | (?P<ws>\s+)
    """,
    re.VERBOSE,
)


@dataclass(frozen=True)
class Token:
    kind: str  # iri, var, string, lang, dtype, number, pname, keyword, word, op, eof
    value: str
    pos: int


def tokenize(text: str) -> List[Token]:
    """Tokenise stSPARQL query text.

    Keywords are recognised case-insensitively and emitted with a
    lowercase ``value``; everything else keeps its original spelling.
    """
    tokens: List[Token] = []
    pos = 0
    n = len(text)
    while pos < n:
        m = _TOKEN_RE.match(text, pos)
        if m is None:
            raise SparqlParseError(
                f"unexpected character {text[pos]!r} at offset {pos}"
            )
        kind = m.lastgroup or ""
        value = m.group()
        if kind == "word":
            lowered = value.lower()
            if lowered in KEYWORDS:
                tokens.append(Token("keyword", lowered, pos))
            else:
                tokens.append(Token("word", value, pos))
        elif kind not in ("ws", "comment"):
            tokens.append(Token(kind, value, pos))
        pos = m.end()
    tokens.append(Token("eof", "", pos))
    return tokens
