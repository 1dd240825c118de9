"""SciQL front-end: lexer, parser and vectorised executor."""

from repro.arraydb.sql.parser import parse_statement

__all__ = ["parse_statement"]
