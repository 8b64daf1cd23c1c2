"""Parser for the set-literal grammar used by the CLI.

Grammar, loosest binding first::

    expr   := diff (('u' | '|') diff)*
    diff   := inter ('\\' inter)*
    inter  := unary ('&' unary)*
    unary  := '!' unary | atom
    atom   := interval | pointset | '(' expr ')'
    interval := ('(' | '[') bound ',' bound (')' | ']')
    pointset := '{' [rational (',' rational)*] '}'
    bound  := rational | 'inf' | '+inf' | '-inf'
    rational := ['-'] digits ['/' digits]

A '(' starts an interval when a number or infinity follows, otherwise a
parenthesized sub-expression.  Closed interval ends must be finite.
At most MAX_NESTING_DEPTH '(' groups and operators may be pending at
once.  Errors report the offending position.

Tokens.  Tokens are plain strings, from one ``findall``.  Each
well-formed interval literal or point set, whitespace inside it
included, is one literal token, and every other character but whitespace
is a token of its own, so a '(' token opens a group.  The parser reads a
literal token's numbers by splitting it on ',', checks its ends
(lower < upper, closed ends finite, no zero denominator, not too many
digits) and writes its cells with ``_segment_cells``, the cell writer of
``interval_sets.segment``; a point set goes through ``from_pieces``.  So
a literal that parses makes no ``ExtendedRational``.  A text this parse
refuses, by a syntax error or a literal's check, is parsed again on
character tokens, where a number, an infinity and each other character
are one token each.  That parse raises the error at its position; only
it scans the text again to find where a token starts.  A text that
parses is read once, and a refused one at most twice.  On the 480
expressions of 20 cycles of the ``sets`` benchmark (seed 1, 456
characters, 80 literal tokens and 226 character tokens each), the
literal ``findall`` and its check that each one-character token is a
symbol took 0.030 ms an expression against 0.052 ms for the character
``findall`` and its check, and the parse took 0.37 ms against 0.46 ms on
character tokens alone, with Python 3.11.7 on a 2-core x86-64 machine
(``BENCH_literal_tokens.json``, literal_tokens, the fastest of three
runs).  A malformed last literal in a chain of 50 to 800 costs 1.8 to
1.9 times the time of the character parse alone (sets_scaling).

Scaled integers.  The set algebra only compares coordinates, so scaling
every number of one expression by the same positive D keeps every order
exactly.  Before it parses, the parser reads the denominators of the
number tokens as written and takes D, their lcm, and D // q for each
distinct denominator q.  It then reads each rational p/q as the int
p*(D // q) and runs the kernel (the cell writer, the boolean operations,
``from_pieces``) on those ints as sets over den 1, where each comparison
is one C-level int compare and no operation rescales.  The result is
then stored with its D as its den: one C-level gcd of D and its
numerators lowers D to the result's least denominator, and no
``Fraction`` is built until its ``coords`` or ``pieces`` are read.  A
refused interval is refused again on its bounds as written, so its
message names them.

Each scaled int is about as long as D, so past a point the long ints
cost more than the comparisons save.  When D would have more than
``interval_sets.MAX_SCALE_BITS`` bits, the kernel's bound on a stored
denominator, the parser reads every number as a ``Fraction`` instead and
runs the kernel on Fractions over den 1, through the same code; a point
set or a literal refused by the literal tokens, built canonical, joins
them through its ``coords``.  The result is stored once at the end, as
integers if its own least denominator fits under the bound.  The
pre-pass converts no denominator longer than the bound allows, and
stops at the first lcm past it; it raises nothing, so the first error
reported is still the one at the earliest position.
"""

from __future__ import annotations

import re
from fractions import Fraction
from itertools import islice
from math import lcm

from . import interval_sets
from .errors import InputError, ParseError
from .interval_sets import (
    NEG_INF, POS_INF, ExtendedRational, PolyhedralSet1D, _finite, _fits, _from_cells, _point,
    _segment_cells, _stored, segment
)

# Infinities, numbers, then any other character but whitespace, so that
# findall skips whitespace and puts every other character in a token.
# Digits are ASCII only, as the grammar says.
_NUMBER = r"-?[0-9]+(?:/[0-9]+)?"
_BOUND = rf"[+-]?inf|{_NUMBER}"
_TOKEN_RE = re.compile(rf"{_BOUND}|\S")
# The literal tokens: a well-formed interval literal or point set,
# whitespace inside it included, is one token, and every other character
# but whitespace is one.  A number is followed only by whitespace, ',',
# ')', ']' or '}', so a shorter match of its digits fails at once and a
# literal that does not match is scanned once: the time stays linear.
_LITERAL_TOKEN_RE = re.compile(
    rf"[(\[]\s*(?:{_BOUND})\s*,\s*(?:{_BOUND})\s*[)\]]"
    rf"|\{{\s*(?:{_NUMBER}(?:\s*,\s*{_NUMBER})*\s*)?\}}"
    r"|\S")
# The one-character tokens of the grammar; a longer token is a number, an
# infinity or a literal, and "" is the end.
_SYMBOLS = frozenset("()[]{},|&\\!u")
_ONE_CHARACTER = _SYMBOLS | frozenset("0123456789")
# A grouping '(' is followed by a token that starts with one of these; an
# interval's, by a bound.
_NOT_A_BOUND = _SYMBOLS | {""}


# Operator binding, loosest first; a pending '(' stops every reduction.
_BINDING = {"u": 0, "|": 0, "\\": 1, "&": 2, "!": 3}
_BINARY = {"u": "union", "|": "union", "\\": "difference", "&": "intersect"}
# Pending '(' groups and operators.  A recursive-descent parser spends at
# least one Python frame on each, so under the default recursion limit of
# 1000 frames no expression it could accept is deeper than this.
MAX_NESTING_DEPTH = 1000


def _tokenize(text: str) -> list[str]:
    """The tokens of text, then the end token "" twice, so that a lookahead
    of one past the last token still reads the end.  The first character
    that starts no token is refused here, before any set is built."""
    tokens = _TOKEN_RE.findall(text)
    unknown = set(tokens).difference(_ONE_CHARACTER)
    if unknown and min(map(len, unknown)) == 1:
        for match in _TOKEN_RE.finditer(text):
            char = match.group()
            if len(char) == 1 and char not in _ONE_CHARACTER:
                pos = match.start()
                raise ParseError(
                    f"syntax error at position {pos}: unexpected character {char!r}", pos)
    tokens += ("", "")
    return tokens


# Every '/' of a text that tokenizes lies in a number token, before its
# denominator.
_DENOMINATOR_RE = re.compile(r"/([0-9]+)")


def _scale_factors(text: str) -> dict[str, int] | None:
    """By each denominator q written in a text that tokenizes, as its digits,
    D // q for D the lcm of them all, and D for "" (an integer); or None
    when D has more than ``interval_sets.MAX_SCALE_BITS`` bits.  A zero
    denominator is left out: the parse reports it at its own position."""
    written = set(_DENOMINATOR_RE.findall(text))
    # a number of d digits, the first not 0, is at least 10^(d - 1), above
    # 2^(3(d - 1)): a longer denominator is past the bound unconverted
    most = interval_sets.MAX_SCALE_BITS // 3 + 1
    if any(len(digits.lstrip("0")) > most for digits in written):
        return None
    denominators = {digits: q for digits in written if (q := int(digits))}
    scale = 1
    for q in set(denominators.values()):
        scale = lcm(scale, q)
        if not _fits(scale):
            return None
    factors = {digits: scale // q for digits, q in denominators.items()}
    factors[""] = scale
    return factors


class _Parser:
    """The parser on character tokens: the error path, which reports every
    error at its position."""

    _tokenize = staticmethod(_tokenize)

    def __init__(self, text: str):
        self.text = text
        # what each numerator is multiplied by, or None to parse on Fractions;
        # read first, so that its strings are gone before the tokens exist
        self.factors = _scale_factors(text)
        self.scale = None if self.factors is None else self.factors[""]
        self.tokens = self._tokenize(text)
        self.index = 0

    def _position(self, index: int) -> int:
        """Where token index starts in the text; the end is at its length.
        Only errors report a position, so the text is scanned again here."""
        match = next(islice(_TOKEN_RE.finditer(self.text), index, None), None)
        return len(self.text) if match is None else match.start()

    def _fail(self, expected: str):
        token = self.tokens[self.index]
        position = self._position(self.index)
        found = repr(token) if token else "end of input"
        raise ParseError(
            f"syntax error at position {position}: expected {expected}, found {found}", position)

    def _expect(self, char: str):
        if self.tokens[self.index] != char:
            self._fail(f"'{char}'")
        self.index += 1

    # -- grammar -------------------------------------------------------

    def parse(self) -> PolyhedralSet1D:
        """Operator precedence over explicit stacks, so nesting is bounded
        by MAX_NESTING_DEPTH rather than by the Python stack."""
        tokens = self.tokens
        operands: list[PolyhedralSet1D] = []
        operators: list[str] = []  # pending '(', '!' and binary operators
        while True:
            # '!' and grouping '('; a '(' before a bound starts an interval
            while (token := tokens[self.index]) == "!" or (
                token == "(" and tokens[self.index + 1][:1] in _NOT_A_BOUND
            ):
                self._push(operators)
            operands.append(self._atom())
            while (token := tokens[self.index]) not in _BINARY:
                self._reduce(operators, operands, 0)
                if not operators:
                    if token:
                        self._fail("'u', '|', '&', '\\' or end of input")
                    return self._unscaled(operands[0])
                self._expect(")")
                operators.pop()
            self._reduce(operators, operands, _BINDING[token])
            self._push(operators)

    def _push(self, operators: list[str]):
        if len(operators) == MAX_NESTING_DEPTH:
            position = self._position(self.index)
            raise ParseError(
                f"syntax error at position {position}: nesting depth "
                f"{MAX_NESTING_DEPTH + 1} exceeds the limit of {MAX_NESTING_DEPTH}",
                position,
            )
        operators.append(self.tokens[self.index])
        self.index += 1

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
        token = self.tokens[self.index]
        if token == "{":
            return self._pointset()
        if token == "(" or token == "[":
            return self._interval()
        self._fail("a set literal")

    def _unscaled(self, value: PolyhedralSet1D) -> PolyhedralSet1D:
        """The parsed set in its stored form: its numbers over D, the scale,
        or as Fractions, over their least common denominator."""
        return _stored(value.nums, 0 if self.scale is None else self.scale, value.flags)

    def _literal(self, value: PolyhedralSet1D) -> PolyhedralSet1D:
        """A literal's canonical set on the parser's numbers.  On scaled
        ints it is one already: its numbers are integers, over den 1."""
        if self.scale is None:
            return _from_cells(value.coords, 1, value.flags)
        return value

    def _as_written(self, bound: ExtendedRational) -> ExtendedRational:
        """A parsed bound with its value as a Fraction."""
        if self.scale is None or not bound.is_finite:
            return bound
        return _finite(Fraction(bound.value, self.scale))

    def _rational(self) -> int | Fraction:
        index = self.index
        token = self.tokens[index]
        if not "0" <= token[-1:] <= "9":  # a number ends in a digit
            self._fail("a rational number")
        self.index = index + 1
        numerator, _, denominator = token.partition("/")
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
        position = self._position(index)
        raise ParseError(f"{problem} in rational literal at position {position}", position)

    def _bound(self) -> ExtendedRational:
        token = self.tokens[self.index]
        if token.endswith("inf"):
            self.index += 1
            return NEG_INF if token[0] == "-" else POS_INF
        return _finite(self._rational())  # a scaled int or an exact Fraction

    def _interval(self) -> PolyhedralSet1D:
        opener = self.index
        include_lower = self.tokens[opener] == "["
        self.index += 1
        lower = self._bound()
        self._expect(",")
        upper = self._bound()
        closer = self.tokens[self.index]
        if closer != ")" and closer != "]":
            self._fail("')' or ']'")
        self.index += 1
        include_upper = closer == "]"
        try:
            return self._literal(segment(lower, upper, include_lower, include_upper))
        except InputError:
            pass
        # refused again on the bounds as written, so that the message names them
        try:
            segment(self._as_written(lower), self._as_written(upper), include_lower, include_upper)
        except InputError as exc:
            position = self._position(opener)
            raise ParseError(f"{exc} (interval starting at position {position})",
                             position) from None

    def _pointset(self) -> PolyhedralSet1D:
        self._expect("{")
        tokens = self.tokens
        if tokens[self.index] == "}":
            self.index += 1
            return PolyhedralSet1D.empty()
        values = [self._rational()]
        while tokens[self.index] == ",":
            self.index += 1
            values.append(self._rational())
        self._expect("}")
        return self._literal(PolyhedralSet1D.from_pieces([_point(v) for v in values]))


class _LiteralParser(_Parser):
    """The parser on literal tokens, the fast path.  It refuses, by a
    ParseError without a position, every text it cannot parse, and
    parse_set_expression then parses that text on character tokens."""

    @staticmethod
    def _tokenize(text: str) -> list[str]:
        """The tokens of text and the end token twice, or a refusal, before
        any set is built, when a character token is no symbol."""
        tokens = _LITERAL_TOKEN_RE.findall(text)
        if not _SYMBOLS.issuperset(token for token in set(tokens) if len(token) == 1):
            raise ParseError("expected a symbol or a literal")
        tokens += ("", "")
        return tokens

    def _fail(self, expected: str):
        raise ParseError(f"expected {expected}")

    def _number(self, text: str) -> int | Fraction:
        """A number as a scaled int or a Fraction.  An infinity, a zero
        denominator or too many digits raises KeyError, ValueError or
        ZeroDivisionError."""
        numerator, _, denominator = text.partition("/")
        if self.factors is not None:
            return int(numerator) * self.factors[denominator]
        if denominator:
            return Fraction(int(numerator), int(denominator))
        return Fraction(int(numerator))

    def _atom(self) -> PolyhedralSet1D:
        token = self.tokens[self.index]
        if len(token) < 2:  # a symbol or the end; every longer token is a literal
            self._fail("a set literal")
        self.index += 1
        # the literal's numbers hold no whitespace, so splitting on ',' and
        # stripping gives them as written, and "{}" or "{ }" gives [""]
        bounds = [bound.strip() for bound in token[1:-1].split(",")]
        try:
            if token[0] == "{":
                if bounds == [""]:
                    return PolyhedralSet1D.empty()
                return self._literal(
                    PolyhedralSet1D.from_pieces([_point(self._number(x)) for x in bounds]))
            lower, upper = bounds
            lower = None if lower == "-inf" else self._number(lower)
            upper = None if upper == "inf" or upper == "+inf" else self._number(upper)
        except (KeyError, ValueError, ZeroDivisionError):
            self._fail("a rational number")
        include_lower, include_upper = token[0] == "[", token[-1] == "]"
        if (lower is None and include_lower or upper is None and include_upper
                or lower is not None and upper is not None and lower >= upper):
            self._fail("lower < upper and finite closed ends")
        return _segment_cells(lower, upper, include_lower, include_upper)


def parse_set_expression(text: str) -> PolyhedralSet1D:
    """Parse a set expression to its canonical polyhedral set.  A text the
    literal tokens refuse is parsed again on character tokens, which raise
    its ParseError at its position."""
    try:
        return _LiteralParser(text).parse()
    except ParseError:
        pass
    return _Parser(text).parse()


def to_expression(value: PolyhedralSet1D) -> str:
    """Canonical printable form; parsing it back yields an equal set."""
    return str(value)
