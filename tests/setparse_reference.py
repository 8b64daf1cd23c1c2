"""The token-stream front end of ``eulermeasure.setparse``, kept as a
reference for its tests.

Each token is a ``_Token`` of kind, text and position, built by one
``finditer`` with a named group per kind, and the parser reads kinds.
The library's parser reads plain token strings and finds a position
only when it raises; on every input the two must give an equal set or
the same ParseError.  The operator tables, the nesting limit and the
denominator pre-pass are the library's own.
"""

from __future__ import annotations

import re
from fractions import Fraction
from typing import NamedTuple

from eulermeasure.errors import InputError, ParseError
from eulermeasure.interval_sets import (
    NEG_INF, POS_INF, ExtendedRational, PolyhedralSet1D, _finite, _point, _stored, segment
)
from eulermeasure.setparse import _BINARY, _BINDING, MAX_NESTING_DEPTH, _scale_factors

# Every position matches one group, the catch-all `bad` last, so one
# finditer covers the text.  Digits are ASCII only, as the grammar says.
_TOKEN_RE = re.compile(
    r"""
    (?P<ws>\s+)
  | (?P<inf>[+-]?inf)
  | (?P<number>-?[0-9]+(?:/[0-9]+)?)
  | (?P<union>u)
  | (?P<punct>[()\[\]{},|&\\!])
  | (?P<bad>.)
    """,
    re.VERBOSE | re.DOTALL,
)


class _Token(NamedTuple):
    kind: str
    text: str
    position: int


def _tokenize(text: str) -> list[_Token]:
    """The tokens of text, then its end token twice, so that a lookahead
    of one past the last token still reads the end."""
    tokens: list[_Token] = []
    for m in _TOKEN_RE.finditer(text):
        kind = m.lastgroup
        if kind == "ws":
            continue
        pos = m.start()
        if kind == "bad":
            raise ParseError(
                f"syntax error at position {pos}: unexpected character {text[pos]!r}",
                pos,
            )
        tokens.append(_Token(kind, m.group(), pos))
    end = _Token("end", "", len(text))
    tokens += (end, end)
    return tokens


class _Parser:
    def __init__(self, text: str):
        self.text = text
        # what each numerator is multiplied by, or None to parse on Fractions;
        # read first, so that its strings are gone before the tokens exist
        self.factors = _scale_factors(text)
        self.scale = None if self.factors is None else self.factors[""]
        self.tokens = _tokenize(text)
        self.index = 0

    def _peek(self, ahead: int = 0) -> _Token:
        return self.tokens[self.index + ahead]

    def _advance(self) -> _Token:
        token = self.tokens[self.index]
        if token.kind != "end":
            self.index += 1
        return token

    def _fail(self, expected: str, token: _Token):
        found = repr(token.text) if token.kind != "end" else "end of input"
        raise ParseError(
            f"syntax error at position {token.position}: expected {expected}, found {found}",
            token.position,
        )

    def _expect_punct(self, char: str) -> _Token:
        token = self._peek()
        if token.kind == "punct" and token.text == char:
            return self._advance()
        self._fail(f"'{char}'", token)

    # -- grammar -------------------------------------------------------

    def parse(self) -> PolyhedralSet1D:
        """Operator precedence over explicit stacks, so nesting is bounded
        by MAX_NESTING_DEPTH rather than by the Python stack."""
        operands: list[PolyhedralSet1D] = []
        operators: list[str] = []  # pending '(', '!' and binary operators
        while True:
            # '!' and grouping '('; a '(' before a bound starts an interval
            while (token := self._peek()).text == "!" or (
                token.text == "(" and self._peek(1).kind not in ("number", "inf")
            ):
                self._push(operators)
            operands.append(self._atom())
            while (token := self._peek()).text not in _BINARY:
                self._reduce(operators, operands, 0)
                if not operators:
                    if token.kind != "end":
                        self._fail("'u', '|', '&', '\\' or end of input", token)
                    return self._unscaled(operands[0])
                self._expect_punct(")")
                operators.pop()
            self._reduce(operators, operands, _BINDING[token.text])
            self._push(operators)

    def _push(self, operators: list[str]):
        token = self._advance()
        if len(operators) == MAX_NESTING_DEPTH:
            raise ParseError(
                f"syntax error at position {token.position}: nesting depth "
                f"{MAX_NESTING_DEPTH + 1} exceeds the limit of {MAX_NESTING_DEPTH}",
                token.position,
            )
        operators.append(token.text)

    @staticmethod
    def _reduce(operators: list[str], operands: list[PolyhedralSet1D], loosest: int):
        """Apply the pending operators that bind at least as tightly as loosest."""
        while operators and _BINDING.get(operators[-1], -1) >= loosest:
            op = operators.pop()
            if op == "!":
                operands.append(operands.pop().complement())
            else:
                right = operands.pop()
                operands.append(getattr(operands.pop(), _BINARY[op])(right))

    def _atom(self) -> PolyhedralSet1D:
        token = self._peek()
        if token.text == "{":
            return self._pointset()
        if token.text in ("(", "["):
            return self._interval()
        self._fail("a set literal", token)

    def _unscaled(self, value: PolyhedralSet1D) -> PolyhedralSet1D:
        """A set parsed on scaled ints, over the scale's least divisor.  On
        Fractions every literal and every result is a canonical set already."""
        if self.scale is None:
            return value
        return _stored(value.nums, self.scale, value.flags)

    def _as_written(self, bound: ExtendedRational) -> ExtendedRational:
        """A parsed bound with its value as a Fraction."""
        if self.scale is None or not bound.is_finite:
            return bound
        return _finite(Fraction(bound.value, self.scale))

    def _rational(self) -> int | Fraction:
        token = self._peek()
        if token.kind != "number":
            self._fail("a rational number", token)
        self._advance()
        numerator, _, denominator = token.text.partition("/")
        try:
            p = int(numerator)
            if self.factors is None:
                return Fraction(p, int(denominator)) if denominator else Fraction(p)
            # a zero denominator has no factor: it raises its error here
            return p * (self.factors.get(denominator) or self.scale // int(denominator))
        except ZeroDivisionError:
            problem = "division by zero"
        except ValueError as exc:  # the interpreter's limit on digits per integer
            problem = f"too many digits ({exc})"
        raise ParseError(f"{problem} in rational literal at position {token.position}", token.position)

    def _bound(self) -> ExtendedRational:
        token = self._peek()
        if token.kind == "inf":
            self._advance()
            return NEG_INF if token.text.startswith("-") else POS_INF
        return _finite(self._rational())  # a scaled int or an exact Fraction

    def _interval(self) -> PolyhedralSet1D:
        opener = self._advance()
        include_lower = opener.text == "["
        lower = self._bound()
        self._expect_punct(",")
        upper = self._bound()
        closer = self._peek()
        if closer.kind == "punct" and closer.text in ")]":
            self._advance()
        else:
            self._fail("')' or ']'", closer)
        include_upper = closer.text == "]"
        try:
            return segment(lower, upper, include_lower, include_upper)
        except InputError:
            pass
        # refused again on the bounds as written, so that the message names them
        try:
            segment(self._as_written(lower), self._as_written(upper), include_lower, include_upper)
        except InputError as exc:
            raise ParseError(
                f"{exc} (interval starting at position {opener.position})",
                opener.position,
            ) from None

    def _pointset(self) -> PolyhedralSet1D:
        self._expect_punct("{")
        if self._peek().kind == "punct" and self._peek().text == "}":
            self._advance()
            return PolyhedralSet1D.empty()
        values = [self._rational()]
        while self._peek().kind == "punct" and self._peek().text == ",":
            self._advance()
            values.append(self._rational())
        self._expect_punct("}")
        return PolyhedralSet1D.from_pieces([_point(v) for v in values])


def parse_set_expression(text: str) -> PolyhedralSet1D:
    """Parse a set expression to its canonical polyhedral set."""
    return _Parser(text).parse()
