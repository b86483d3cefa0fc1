"""Surface syntax for super-elements: parsing and canonical rendering.

Grammar (whitespace between tokens is ignored):

    expr     := ['-'] term (('+' | '-') term)*
    term     := factor ('*' factor)*
    factor   := ['-'] rational | var ('^' nat)? | '(' expr ')'
    rational := nat ('/' nat)?
    var      := ('x' | 'y' | 'e') nat
    nat      := digit+

A digit is a decimal digit ('²' is not one); a numeral past Python's
int-string limit (4300 digits) is a ParseError at its token, and so is a
'(' nested more than MAX_NESTING deep.
x0..xn and y1..yk are the even variables; e1..eN name the odd variables,
paired positionally with q_1..q_N (y's first, then x's).  Implicit
multiplication is rejected: "2x0" is a syntax error.  An eta power above 1
is rejected (the square of an odd variable is zero, so allowing it would
silently build 0).

parse(render(a)) == a holds bit-exactly for every element; rendering sorts
terms by the canonical monomial order, largest first.

`json_text` writes the JSON reports: the text of
json.dumps(value, indent=2, sort_keys=True), built without the pure-Python
encoder that json.dumps falls back to whenever it indents.
"""

from __future__ import annotations

import json
import re
from fractions import Fraction
from json.encoder import encode_basestring_ascii
from typing import NamedTuple

from .errors import InputError, ParseError
from .superalgebra import (
    _OVERFLOW,
    MAX_EXPONENT,
    SuperElement,
    SuperMonomial,
    VariableContext,
    monomial_sort_key,
)


class _Token(NamedTuple):
    kind: str
    value: object
    line: int
    column: int


# One alternative per lexeme: a newline, other blanks, an operator, a
# numeral, a variable letter with its index, and any other character.
_LEXEME = re.compile(r"(\n)|[^\S\n]+|([-+*/^()])|(\d+)|([xye])(\d*)|(.)")


def _tokenize(text: str):
    tokens = []
    line, line_start = 1, 0
    try:
        for match in _LEXEME.finditer(text):
            newline, op, digits, letter, index, other = match.groups()
            column = match.start() - line_start + 1
            if newline:
                line += 1
                line_start = match.end()
            elif op:
                tokens.append(_Token(op, op, line, column))
            elif digits:
                tokens.append(_Token("nat", int(digits), line, column))
            elif letter:
                if not index:
                    raise ParseError(f"variable '{letter}' needs a numeric index", line, column)
                tokens.append(_Token("var", (letter, int(index)), line, column))
            elif other:
                raise ParseError(f"unexpected character {other!r}", line, column)
    except ValueError:  # int() refuses a numeral past Python's int-string limit
        raise ParseError(f"numeral of {len(digits or index)} digits is too long",
                         line, column) from None
    tokens.append(_Token("end", None, line, len(text) - line_start + 1))
    return tokens


# each level of parentheses costs three stack frames (expr, term, factor)
MAX_NESTING = 100


class _Parser:
    def __init__(self, text: str, ctx: VariableContext):
        self.ctx = ctx
        self.tokens = _tokenize(text)
        self.pos = 0
        self.depth = 0

    def peek(self) -> _Token:
        return self.tokens[self.pos]

    def advance(self) -> _Token:
        tok = self.tokens[self.pos]
        self.pos += 1
        return tok

    def expect(self, kind: str) -> _Token:
        tok = self.peek()
        if tok.kind != kind:
            raise ParseError(f"expected {kind!r}, found {tok.value!r}", tok.line, tok.column)
        return self.advance()

    def fail(self, message: str):
        tok = self.peek()
        raise ParseError(message, tok.line, tok.column)

    def parse(self) -> SuperElement:
        value = self.expr()
        tok = self.peek()
        if tok.kind != "end":
            raise ParseError(f"unexpected trailing input {tok.value!r}", tok.line, tok.column)
        return value

    def expr(self) -> SuperElement:
        negate = False
        if self.peek().kind == "-":
            self.advance()
            negate = True
        value = self.term()
        if negate:
            value = -value
        while self.peek().kind in ("+", "-"):
            op = self.advance().kind
            rhs = self.term()
            value = value + rhs if op == "+" else value - rhs
        return value

    def term(self) -> SuperElement:
        value = self.factor()
        while self.peek().kind == "*":
            self.advance()
            value = value * self.factor()
        return value

    def factor(self) -> SuperElement:
        tok = self.peek()
        if tok.kind == "(":
            if self.depth == MAX_NESTING:
                self.fail(f"parentheses nested deeper than {MAX_NESTING}")
            self.advance()
            self.depth += 1
            value = self.expr()
            self.depth -= 1
            self.expect(")")
            return value
        if tok.kind == "nat":
            return SuperElement.scalar(self.ctx, self.rational())
        if tok.kind == "-":
            # A sign inside a factor position only makes sense before a number.
            nxt = self.tokens[self.pos + 1]
            if nxt.kind == "nat":
                self.advance()
                return SuperElement.scalar(self.ctx, -self.rational())
            self.fail("unexpected '-'")
        if tok.kind == "var":
            self.advance()
            key = self.variable(tok)
            exponent = 1
            if self.peek().kind == "^":
                self.advance()
                etok = self.expect("nat")
                exponent = etok.value
                if tok.value[0] == "e":
                    if exponent > 1:
                        raise ParseError("eta exponent must be 0 or 1", etok.line, etok.column)
                elif exponent > MAX_EXPONENT:
                    raise InputError(_OVERFLOW)
            # a power of one variable is one term, its key the exponent
            # times the variable's key (0, the key of 1, at exponent 0)
            return SuperElement._make(self.ctx, {exponent * key: 1}, 1)
        self.fail(f"expected a factor, found {tok.value!r}")

    def rational(self) -> Fraction:
        num = self.expect("nat").value
        if self.peek().kind == "/":
            self.advance()
            dtok = self.expect("nat")
            if dtok.value == 0:
                raise ParseError("zero denominator", dtok.line, dtok.column)
            return Fraction(num, dtok.value)
        return Fraction(num)

    def variable(self, tok: _Token) -> int:
        """The packed key of the variable `tok` names."""
        letter, index = tok.value
        ctx = self.ctx
        if letter == "x":
            if index > ctx.n:
                raise ParseError(f"x{index} out of range (max x{ctx.n})", tok.line, tok.column)
            return ctx.q_units[ctx.k + index]
        if letter == "y":
            if not 1 <= index <= ctx.k:
                raise ParseError(f"y{index} out of range (1..{ctx.k})", tok.line, tok.column)
            return ctx.q_units[index - 1]
        if not 1 <= index <= ctx.nvars:
            raise ParseError(f"e{index} out of range (1..{ctx.nvars})", tok.line, tok.column)
        return 1 << (index - 1)


def parse(text: str, ctx: VariableContext) -> SuperElement:
    """Parse the surface syntax into an exact SuperElement."""
    if not isinstance(text, str):
        raise InputError("expected a string to parse")
    return _Parser(text, ctx).parse()


def _render_monomial(ctx: VariableContext, mono: SuperMonomial) -> str:
    factors = []
    for mu, e in enumerate(mono.qexp, start=1):
        if e == 0:
            continue
        name = ctx.var_name(mu)
        factors.append(name if e == 1 else f"{name}^{e}")
    for mu in mono.eta:
        factors.append(ctx.eta_name(mu))
    return "*".join(factors)


def render(a: SuperElement) -> str:
    """Canonical text form: terms sorted largest-first, signs folded in.

    The output always re-parses to the same element.
    """
    if a.is_zero():
        return "0"
    ctx = a.ctx
    items = sorted(a._num.items(), key=lambda item: monomial_sort_key(ctx, item[0]),
                   reverse=True)
    pieces = []
    for position, (key, v) in enumerate(items):
        body = _render_monomial(ctx, ctx.unpack(key))
        coeff = Fraction(v, a._den)
        mag = abs(coeff)
        if body and mag == 1:
            text = body
        elif body:
            text = f"{mag}*{body}"
        else:
            text = str(mag)  # Fraction writes p or p/q with q > 0
        if position == 0:
            pieces.append(text if coeff > 0 else f"-{text}")
        else:
            pieces.append(f" + {text}" if coeff > 0 else f" - {text}")
    return "".join(pieces)


def json_text(value, pad: str = "") -> str:
    """json.dumps(value, indent=2, sort_keys=True), byte for byte, for a
    value whose dict keys are all str (TypeError otherwise); `pad` is the
    indentation of the line the value starts on.

    Strings go to the C string encoder and ints to int.__repr__, each by
    its exact type; lists, tuples and dicts recurse one indent deeper, and
    any other value (a bool, None, a float) is left to json.dumps."""
    kind = type(value)
    if kind is str:
        return encode_basestring_ascii(value)
    if kind is int:
        return int.__repr__(value)
    inner = pad + "  "
    if kind is list or kind is tuple:
        items = [int.__repr__(v) if type(v) is int else json_text(v, inner) for v in value]
        return f"[\n{inner}" + f",\n{inner}".join(items) + f"\n{pad}]" if items else "[]"
    if kind is dict:
        items = [encode_basestring_ascii(k) + ": " + json_text(value[k], inner) for k in sorted(value)]
        return "{\n" + inner + f",\n{inner}".join(items) + f"\n{pad}}}" if items else "{}"
    return json.dumps(value)
