"""Model text format: canonical printing, parsing, and error positions."""

import random

import pytest

from fdlab import (
    Affine,
    AllDifferent,
    ConsistencyNotion,
    IntSet,
    LinEq,
    LinLe,
    LinNe,
    LinTerm,
    Mod,
    Model,
    MonoBij,
    PowerSum3,
    PowK,
    ProductLe,
    ReifLinLe,
    Table,
    parse_model,
    print_model,
)
from fdlab.domains import INT64_MAX, INT64_MIN
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


_XY = "var x in [0,1]\nvar y in [0,1]\nconstraint c1: "
# a constraint on line 3 that breaks one input rule, and the rule's message
_RULES = {
    _XY + "lineq 1*x * 2*y = 0\n": "expected + or -, got '*'",
    _XY + "linle 2y <= 0\n": "bad linear term '2y'",
    _XY + "monobij x = sqrt(1,2) y\n": "bad function 'sqrt(1,2)'",
    _XY + "table x (1)\n": "table needs ':' between variables and rows",
    _XY + "table : (1)\n": "table needs at least one variable",
    _XY + "monobij x = pow(0,2) y\n": "power scale must be non-zero",
    _XY + "monobij x = pow(1,0) y\n": "power exponent must be >= 1",
}


@pytest.mark.parametrize(
    "text,line",
    [
        *((text, 3) for text in _RULES),
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
        # a model error that belongs to one constraint names that constraint's line
        ("var x in [0,1]\nconstraint c1: table x : (1) @ bounds-r\n\n# end\n", 2),
        (
            "var x in [0,1]\nvar y in [0,1]\nconstraint c1: linle 1*x <= 1\n"
            "constraint c2: table x : (1) @ bounds-r\n# end\n",
            4,
        ),
        ("var b in [0,2]\nvar x in [0,1]\nconstraint c1: reifle b <-> 1*x <= 0\n# b\n", 3),
        ("var y in [0,8]\nvar x in [-1,2]\nconstraint c1: monobij y = pow(1,3) x\n# x\n", 3),
        ("var y in [0,9]\nvar x in [-1,2]\nconstraint c1: monobij y = powersum3 x\n# x\n", 3),
        # inputs whose path through the parser the grammar-only reader changes
        ("var x in [1,2,3]\n", 1),
        ("var x in {}\n", 1),
        ("var x in {1,,2}\n", 1),
        ("var x in [0,1]\nvar y in [0,1]\nconstraint c1: productle x y\n", 3),
        ("var x in [0,1]\nvar y in [0,1]\nconstraint c1: monobij x = affine(0,1) y\n", 3),
        ("var x in [0,1]\nvar y in [0,1]\nconstraint c1: mod x = y\n", 3),
        ("var b in [0,1]\nvar x in [0,1]\nconstraint c1: reifle b 1*x <= 2\n", 3),
        ("var x in [0,3]\nvar y in [0,3]\nconstraint c1: table x y : (1,2)(2,3)\n", 3),
        ("var x in [0,1]\nvar y in [0,1]\nconstraint c1: lineq 1*x 2*y = 0\n", 3),
        ("var x in [0,1]\nconstraint c1: alldifferent x\n", 2),
        ("var x in [0,1]\nconstraint c1 linle 1*x <= 0\n", 2),
        # a bad member is reported with the whole set
        ("var x in [a,3]\n", 1),
        ("var x in [0,1]\nvar y in {1, 2,x}\n", 2),
    ],
)
def test_parse_errors_carry_line_numbers(text, line):
    with pytest.raises(ParseError) as err:
        parse_model(text)
    assert err.value.line_no == line
    assert f"line {line}:" in str(err.value)
    assert _MESSAGES.get(text, "") in str(err.value)


_MESSAGES = {
    "var x in {}\n": "bad value set '{}'",
    "var x in {1,,2}\n": "bad value set '{1,,2}'",
    "var x in [a,3]\n": "bad value set '[a,3]'",
    "var x in [0,1]\nvar y in {1, 2,x}\n": "bad value set '{1, 2,x}'",
    **_RULES,
}


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


def test_empty_table_round_trips():
    x_in = [("x", IntSet.interval(0, 2))]
    x = Model.build(x_in, []).vars[0]
    m = Model.build(x_in, [(Table((x,), ()), ConsistencyNotion.DOMAIN)])
    text = print_model(m)
    assert text == "var x in [0,2]\n\nconstraint c1: table x : @ domain\n"
    assert parse_model(text) == m
    assert parse_model("var x in [0,2]\nconstraint c1: table x :\n") == m


def _random_set(rng: random.Random) -> IntSet:
    shape = rng.randrange(4)
    if shape == 0:  # a small interval, or a singleton
        lo = rng.randint(-6, 6)
        return IntSet.interval(lo, lo + rng.randint(0, 4))
    if shape == 1:
        return IntSet.of([rng.randint(-9, 9)])
    if shape == 2:  # negative and positive members with holes
        return IntSet.of(rng.sample(range(-9, 10), rng.randint(2, 5)))
    # members at both 64-bit ends, printed as {...}
    return IntSet.of([INT64_MIN, rng.randint(-3, 3), INT64_MAX][rng.randint(0, 1):])


def _random_constraint(rng: random.Random, vars_, sets):
    """A random constraint over `vars_`, or None where `sets` do not allow
    the kind drawn."""
    kind = rng.choice(
        ["lineq", "linle", "linne", "alldifferent", "productle", "monobij",
         "mod", "reifle", "table"]
    )
    picked = rng.sample(vars_, rng.randint(1, min(len(vars_), 4)))

    def terms(vs):
        return tuple(LinTerm(rng.choice([-1, 1]) * rng.randint(1, 12), v) for v in vs)

    if kind in ("lineq", "linle", "linne"):
        cls = {"lineq": LinEq, "linle": LinLe, "linne": LinNe}[kind]
        return cls(terms(picked), rng.randint(-20, 20))
    if kind == "alldifferent":
        return AllDifferent(tuple(picked)) if len(picked) >= 2 else None
    if kind in ("productle", "mod"):
        if len(vars_) < 3:
            return None
        return (ProductLe if kind == "productle" else Mod)(*rng.sample(vars_, 3))
    if kind == "monobij":
        if len(vars_) < 2:
            return None
        x1, x2 = rng.sample(vars_, 2)
        func = rng.choice(
            [Affine(rng.choice([-3, -1, 2]), rng.randint(-5, 5)),
             PowK(rng.choice([-2, 1, 3]), rng.randint(1, 3)),
             PowerSum3()]
        )
        if func.nonneg and sets[x2.index].inf < 0:
            return None
        return MonoBij(x1, func, x2)
    if kind == "reifle":
        bools = [v for v in vars_ if sets[v.index].inf >= 0 and sets[v.index].sup <= 1]
        others = [v for v in vars_ if v not in bools[:1]]
        if not bools or not others:
            return None
        picked = rng.sample(others, rng.randint(1, min(len(others), 3)))
        return ReifLinLe(bools[0], terms(picked), rng.randint(-5, 5))
    nrows = rng.choice([0, 0, 1, 3])
    rows = tuple(tuple(rng.randint(-4, 4) for _ in picked) for _ in range(nrows))
    return Table(tuple(picked), rows)


def test_random_models_round_trip():
    """Seeded models of every constraint kind and notion: the printed text is
    a fixed point of print(parse(.)), and parsing it gives the model back."""
    rng = random.Random(2504)
    names = ["x", "y_1", "_z", "w9", "B", "long_name_2"]
    labels = ["c1", "sum-2", "_lbl", "a_b-c", "k-", "c_"]
    seen = set()
    for _ in range(400):
        var_names = rng.sample(names, rng.randint(1, 5))
        sets = [_random_set(rng) for _ in var_names]
        if rng.random() < 0.5:  # a {0,1} variable, for reifle
            var_names.append("b")
            sets.append(IntSet.interval(rng.randint(0, 1), 1))
        var_domains = list(zip(var_names, sets))
        vars_ = list(Model.build(var_domains, []).vars)
        constraints, used = [], []
        for label in rng.sample(labels, rng.randint(0, len(labels))):
            c = _random_constraint(rng, vars_, sets)
            if c is None:
                continue
            notion = rng.choice(
                [n for n in ConsistencyNotion if c.real or n.value != "bounds-r"]
            )
            constraints.append((c, notion))
            used.append(label)
            seen |= {type(c).__name__, notion, type(getattr(c, "func", None)).__name__}
            seen.add(f"Table with {len(c.rows) if isinstance(c, Table) else 'no'} rows")
        m = Model.build(var_domains, constraints, used)
        text = print_model(m)
        assert print_model(parse_model(text)) == text
        assert parse_model(text) == m, text
    assert seen >= {
        "LinEq", "LinLe", "LinNe", "AllDifferent", "ProductLe", "MonoBij", "Mod",
        "ReifLinLe", "Table", "Affine", "PowK", "PowerSum3", "Table with 0 rows",
        "Table with 3 rows", *ConsistencyNotion,
    }
