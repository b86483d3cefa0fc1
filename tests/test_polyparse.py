"""Surface syntax: grammar coverage, diagnostics, round-trip stability."""

import json
import random
import string
from pathlib import Path

import pytest

from dworkbox import InputError, ParseError, SuperElement, VariableContext, parse, render
from dworkbox.polyparse import json_text
from dworkbox.superalgebra import MAX_EXPONENT
from dworkbox.verify import random_element


@pytest.fixture
def ctx():
    return VariableContext(2, 1, (3,))


def test_parse_dwork_potential(ctx):
    e = parse("y1*(x0^3 + x1^3 + x2^3)", ctx)
    assert e == parse("y1*x0^3 + y1*x1^3 + y1*x2^3", ctx)


def test_parse_two_term_rational(ctx):
    e = parse("3/2*x0^2*y1 - x1*x2*y1", ctx)
    assert len(e.terms) == 2
    assert render(e) == "3/2*y1*x0^2 - y1*x1*x2"


def test_parse_eta_variables(ctx):
    assert parse("e1*e2", ctx) == SuperElement.eta(ctx, 1) * SuperElement.eta(ctx, 2)
    assert parse("e2*e1", ctx) == -parse("e1*e2", ctx)


def test_parse_parentheses_and_powers(ctx):
    e = parse("(x0 + x1)*(x0 + x1)", ctx)
    assert e == parse("x0^2 + 2*x0*x1 + x1^2", ctx)
    assert parse("x0^0", ctx) == SuperElement.one(ctx)
    # powers attach to variables only; parenthesized powers are not grammar
    with pytest.raises(ParseError):
        parse("(x0 + x1)^2", ctx)


def test_parse_leading_minus(ctx):
    assert parse("-x0", ctx) == -parse("x0", ctx)
    assert parse("-3/4*x0 + x1", ctx) == parse("x1 - 3/4*x0", ctx)


def test_index_range_errors(ctx):
    with pytest.raises(ParseError):
        parse("x5", ctx)
    with pytest.raises(ParseError):
        parse("y2", ctx)
    with pytest.raises(ParseError):
        parse("y0", ctx)
    with pytest.raises(ParseError):
        parse("e0", ctx)
    with pytest.raises(ParseError):
        parse("e5", ctx)


def test_eta_power_rejected(ctx):
    with pytest.raises(ParseError):
        parse("e1^2", ctx)
    assert parse("e1^1", ctx) == SuperElement.eta(ctx, 1)


@pytest.mark.parametrize("name", ["y1", "x0", "x2", "e1"])
def test_variable_power_equals_its_product_form(ctx, name):
    """`var ^ nat` makes the one term of the power directly.  It equals the
    product written out up to 12 factors, and beyond that the power by
    repeated squaring, at every 2^b - 1 and 2^b up to the exponent limit;
    just past the limit it raises the error that power raises.  An eta
    power above 1 stays a ParseError."""
    var = parse(name, ctx)
    top = 1 if name[0] == "e" else 12
    for e in range(top + 1):
        assert parse(f"{name}^{e}", ctx) == parse("*".join([name] * e) or "1", ctx)
    if name[0] == "e":
        with pytest.raises(ParseError, match="eta exponent must be 0 or 1"):
            parse(f"{name}^2", ctx)
        return
    for b in range(4, 32):
        for e in (2**b - 1, 2**b):
            if e <= MAX_EXPONENT:
                assert parse(f"{name}^{e}", ctx) == var ** e
    with pytest.raises(InputError) as past:
        var ** (MAX_EXPONENT + 1)
    for text in (f"{name}^{MAX_EXPONENT + 1}", f"3*{name}^{MAX_EXPONENT}*{name}"):
        with pytest.raises(InputError) as parsed:
            parse(text, ctx)
        assert str(parsed.value) == str(past.value)


def test_implicit_multiplication_rejected(ctx):
    with pytest.raises(ParseError):
        parse("2x0", ctx)
    with pytest.raises(ParseError):
        parse("x0 x1", ctx)


def test_syntax_errors_carry_position(ctx):
    with pytest.raises(ParseError) as info:
        parse("x0 + ", ctx)
    assert info.value.column == 6
    with pytest.raises(ParseError) as info:
        parse("x0 +\n* x1", ctx)
    assert info.value.line == 2
    with pytest.raises(ParseError) as info:
        parse("x0 $ x1", ctx)
    assert "'$'" in str(info.value)


def test_digits_are_decimal_digits(ctx):
    """A superscript is not a digit and fails at its position; a decimal
    digit of another script (Arabic-Indic two and three) is one."""
    for text, column in [("x0^²", 4), ("x²", 1), ("3²*x0", 2)]:
        with pytest.raises(ParseError) as info:
            parse(text, ctx)
        assert (info.value.line, info.value.column) == (1, column), text
    assert parse("x٢ + ٣", ctx) == parse("x2 + 3", ctx)


@pytest.mark.parametrize("template, column", [
    ("{}", 1),
    ("y1*x0^{}", 7),
    ("x{}", 1),
    ("1/{}", 3),
], ids=["numeral", "exponent", "variable-index", "denominator"])
def test_numeral_past_the_int_string_limit_is_a_syntax_error(ctx, template, column):
    """Python refuses to read a decimal string over 4300 digits; the lexer
    reports it at its token instead of raising ValueError."""
    with pytest.raises(ParseError, match="5000 digits") as info:
        parse("x0 +\n" + template.format("7" * 5000), ctx)
    assert (info.value.line, info.value.column) == (2, column)


def test_malformed_rational(ctx):
    with pytest.raises(ParseError):
        parse("1/0", ctx)
    with pytest.raises(ParseError):
        parse("3/", ctx)


def test_render_zero(ctx):
    assert render(SuperElement.zero(ctx)) == "0"
    assert parse("0", ctx).is_zero()


def test_render_sign_folding(ctx):
    e = parse("e2*e1", ctx)  # = -e1*e2
    assert render(e) == "-e1*e2"
    assert parse(render(e), ctx) == e


def test_render_unit_coefficients(ctx):
    assert render(parse("1*x0", ctx)) == "x0"
    assert render(parse("-1*x0", ctx)) == "-x0"
    assert render(parse("5", ctx)) == "5"
    assert render(parse("-5/3", ctx)) == "-5/3"


def test_round_trip_random(ctx):
    rng = random.Random(90)
    for _ in range(500):
        e = random_element(ctx, rng, terms=rng.randint(1, 5))
        assert parse(render(e), ctx) == e


def test_round_trip_other_context():
    ctx = VariableContext(3, 2, (2, 4))
    rng = random.Random(91)
    for _ in range(200):
        e = random_element(ctx, rng, terms=3)
        assert parse(render(e), ctx) == e


def test_render_is_canonical_and_idempotent(ctx):
    rng = random.Random(92)
    for _ in range(200):
        e = random_element(ctx, rng, terms=4)
        text = render(e)
        assert render(parse(text, ctx)) == text


def test_parser_totality_fuzz(ctx):
    rng = random.Random(93)
    # '²' is a digit to str.isdigit but not a decimal digit; '٣' is one
    alphabet = "xye0123456789+-*/^() .\n\xa0²٣" + string.ascii_lowercase
    for _ in range(800):
        text = "".join(rng.choice(alphabet) for _ in range(rng.randint(0, 24)))
        try:
            parse(text, ctx)
        except ParseError as exc:
            assert exc.line >= 1 and exc.column >= 1
        # any other exception type is a bug and fails the test


def test_whitespace_insensitive(ctx):
    assert parse(" y1 * x0 ^ 3 ", ctx) == parse("y1*x0^3", ctx)
    assert parse("x0\n+\nx1", ctx) == parse("x0 + x1", ctx)


# -- the JSON report writer ---------------------------------------------------

GOLDEN = Path(__file__).resolve().parent / "golden"


@pytest.mark.parametrize("path", sorted(GOLDEN.glob("*.json")), ids=lambda p: p.name)
def test_json_text_is_the_indented_json_of_every_golden(path):
    payload = json.loads(path.read_text(encoding="utf-8"))
    assert json_text(payload) == json.dumps(payload, indent=2, sort_keys=True)


def test_json_text_matches_json_dumps_on_every_kind_of_value():
    payload = {
        "text": ["plain", "caf\u00e9 \u2202 \U0001d4ab", 'a "quoted" \\ path',
                 "tab\tnew\nline\x00\x1f\x7f", ""],
        "empty": [[], {}, [[]], {"inner": {}}, ()],
        "ints": [0, -1, -(2 ** 70), 2 ** 70, 3 ** 200],
        "others": [True, False, None, 0.1, -2.5e-300],
        "nested": {"b": [{"z": 1, "a": [2, (3, "4")]}], "a": {"\u00e9": "key"}},
        "": "empty key",
    }
    assert json_text(payload) == json.dumps(payload, indent=2, sort_keys=True)
    for value in payload.values():
        assert json_text(value) == json.dumps(value, indent=2, sort_keys=True)


@pytest.mark.parametrize("payload", [{1: "a"}, {"a": {2: "b"}}, [{None: 0}]])
def test_json_text_requires_str_keys(payload):
    with pytest.raises(TypeError):
        json_text(payload)
