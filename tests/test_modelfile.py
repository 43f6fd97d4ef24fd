"""Model text format: canonical printing, parsing, and error positions."""

import pytest

from fdlab import parse_model, print_model
from fdlab.modelfile import ParseError

KITCHEN_SINK = """\
var b in [0,1]
var x1 in [2,7]
var x2 in {0,3,4,5}
var x3 in {-1}
var y in [0,6]

constraint c1: lineq 1*x1 - 3*x2 - 5*x3 = 0 @ domain
constraint c2: linle 2*x1 + 1*y <= 9 @ bounds-z
constraint c3: linne 1*x1 - 1*y != 4 @ bounds-d
constraint c4: alldifferent x1 x2 y @ bounds-r
constraint c5: productle x1 x2 y @ bounds-r
constraint c6: monobij x1 = affine(2,-1) y @ bounds-z
constraint c7: monobij x2 = pow(3,2) b @ bounds-r
constraint c8: monobij x2 = powersum3 b @ domain
constraint c9: mod y = x1 mod x2 @ bounds-z
constraint c10: reifle b <-> 1*x1 + 1*y <= 8 @ domain
constraint c11: table x1 y : (2,0) (3,1) (7,6) @ bounds-d
"""


def test_kitchen_sink_round_trip():
    m = parse_model(KITCHEN_SINK)
    assert print_model(m) == KITCHEN_SINK
    again = parse_model(print_model(m))
    assert print_model(again) == KITCHEN_SINK


def test_variable_set_forms():
    m = parse_model("var a in [1,3]\nvar b in {2,5}\nvar c in {4}\n")
    a, b, c = m.vars
    assert m.initial.get(a).values == (1, 2, 3)
    assert m.initial.get(b).values == (2, 5)
    assert m.initial.get(c).values == (4,)
    # contiguous sets print as intervals, singletons as braces
    assert print_model(m) == "var a in [1,3]\nvar b in {2,5}\nvar c in {4}\n"


def test_contiguous_braces_normalize_to_interval():
    m = parse_model("var a in {1,2,3}\n")
    assert print_model(m) == "var a in [1,3]\n"


def test_missing_notion_defaults_to_domain():
    m = parse_model("var x in [0,1]\nconstraint c1: linle 1*x <= 0\n")
    _, notion = m.constraints[0]
    assert notion.value == "domain"
    assert "@ domain" in print_model(m)


def test_comments_and_blank_lines():
    text = "# heading\n\nvar x in [0,2]  # trailing note\n\n# done\n"
    m = parse_model(text)
    assert len(m.vars) == 1


def test_negative_coefficient_first_term():
    m = parse_model("var x in [0,2]\nvar y in [0,2]\nconstraint c1: lineq -2*x + 1*y = 0\n")
    c, _ = m.constraints[0]
    assert [t.coeff for t in c.terms] == [-2, 1]
    assert "lineq -2*x + 1*y = 0" in print_model(m)


@pytest.mark.parametrize(
    "text,line",
    [
        ("var x in [3,1]\n", 1),
        ("var x in 0..5\n", 1),
        ("var x in {1,1}\n", 1),
        ("var x in [0,1]\nvar x in [0,1]\n", 2),
        ("var x in [0,1]\nconstraint c1: linle 1*y <= 0\n", 2),
        ("var x in [0,1]\nconstraint c1: frobnicate x\n", 2),
        ("var x in [0,1]\nconstraint c1: linle 0*x <= 0\n", 2),
        ("var x in [0,1]\nconstraint c1: linle 1*x <= 0 @ bounds-q\n", 2),
        ("var x in [0,1]\nconstraint c1: linle 1*x <= 0\nconstraint c1: linle 1*x <= 1\n", 3),
        ("var x in [0,1]\nconstraint c1: table x : (1,2)\n", 2),
        ("wibble\n", 1),
        ("", 1),
        ("var x in [0,1]\nconstraint c1: alldifferent x x\n", 2),
        ("var x in [1,3]\nvar y in [0,1]\nconstraint c1: mod x = y mod x\n", 3),
        ("var x in [0,1]\nconstraint c1: table x x : (1,1)\n", 2),
        (f"var x in [0,1]\nconstraint c1: lineq {2**63}*x = 0\n", 2),
        (f"var x in [0,1]\nconstraint c1: linle 1*x <= {2**63}\n", 2),
        (f"var x in {{0,{2**63}}}\n", 1),
        (f"var x in [0,1]\nvar y in [0,1]\nconstraint c1: monobij x = affine({2**63},0) y\n", 3),
        (f"var x in [0,1]\nconstraint c1: table x : ({2**63})\n", 2),
        (f"var x in [0,{2**63}]\n", 1),
    ],
)
def test_parse_errors_carry_line_numbers(text, line):
    with pytest.raises(ParseError) as err:
        parse_model(text)
    assert err.value.line_no == line
    assert f"line {line}:" in str(err.value)


def test_linear_expression_errors():
    with pytest.raises(ParseError):
        parse_model("var x in [0,1]\nconstraint c1: lineq 1*x + = 0\n")
    with pytest.raises(ParseError):
        parse_model("var x in [0,1]\nconstraint c1: lineq = 0\n")
    with pytest.raises(ParseError):
        parse_model("var x in [0,1]\nconstraint c1: lineq 1*x 2*x = 0\n")


def test_print_with_replacement_domains():
    m = parse_model("var x in [0,5]\nconstraint c1: linle 1*x <= 2\n")
    from fdlab import Domain, IntSet

    tightened = Domain((IntSet.interval(0, 2),))
    out = print_model(m, tightened)
    assert out.startswith("var x in [0,2]\n")
