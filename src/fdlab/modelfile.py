"""Textual model format: parser and canonical printer.

A model file declares variables and tagged constraints:

    # comment
    var x1 in [2,7]
    var x2 in {0,3,4,5}

    constraint c1: lineq 1*x1 - 3*x2 - 5*x3 = 0 @ domain
    constraint c2: alldifferent x1 x2 x3 @ bounds-z

Sets print as [lo,hi] when contiguous with more than one value, otherwise
as {v1,v2,...}.  The notion tag defaults to domain when omitted and is
always printed, so print(parse(print(m))) == print(m).
"""

from __future__ import annotations

import re

from .checkers import ConsistencyNotion
from .constraints import (
    Affine,
    AllDifferent,
    Constraint,
    LinEq,
    LinLe,
    LinNe,
    LinTerm,
    Mod,
    MonoBij,
    MonoFunc,
    PowK,
    PowerSum3,
    ProductLe,
    ReifLinLe,
    Table,
)
from .domains import IntSet, VarId
from .engine import Model


class ParseError(ValueError):
    def __init__(self, message: str, line_no: int):
        super().__init__(f"line {line_no}: {message}")
        self.line_no = line_no


_NAME = r"[A-Za-z_][A-Za-z0-9_]*"
_LABEL = r"[A-Za-z_][A-Za-z0-9_-]*"
_VAR_RE = re.compile(rf"^var\s+({_NAME})\s+in\s+(.+)$")
_CON_RE = re.compile(rf"^constraint\s+({_LABEL})\s*:\s*(.+)$")
_TERM_RE = re.compile(rf"^([+-]?\d+)\*({_NAME})$")
_ROW_RE = re.compile(r"^\((-?\d+(?:,-?\d+)*)\)$")
_FUNC_RE = re.compile(r"^(affine|pow)\((-?\d+),(-?\d+)\)$|^(powersum3)$")

_NOTIONS = {n.value: n for n in ConsistencyNotion}
_SYMBOLS = {"eq": "=", "le": "<=", "ne": "!="}  # linear relation -> model-file text


def _parse_set(text: str, line_no: int) -> IntSet:
    text = text.strip()
    if text.startswith("[") and text.endswith("]"):
        parts = text[1:-1].split(",")
        if len(parts) != 2:
            raise ParseError(f"bad interval {text!r}", line_no)
        try:
            lo, hi = int(parts[0]), int(parts[1])
        except ValueError:
            raise ParseError(f"bad interval {text!r}", line_no) from None
        if lo > hi:
            raise ParseError(f"empty interval {text!r}", line_no)
        return IntSet.interval(lo, hi)
    if text.startswith("{") and text.endswith("}"):
        try:
            values = [int(p) for p in text[1:-1].split(",")]
        except ValueError:
            raise ParseError(f"bad value set {text!r}", line_no) from None
        if len(set(values)) != len(values):
            raise ParseError(f"duplicate values in {text!r}", line_no)
        return IntSet.of(values)
    raise ParseError(f"expected [lo,hi] or {{v1,v2,...}}, got {text!r}", line_no)


def _parse_terms(
    tokens: list[str], vars_by_name: dict[str, VarId], line_no: int
) -> tuple[LinTerm, ...]:
    terms = []
    sign = 1
    expect_term = True
    for tok in tokens:
        if not expect_term:
            if tok == "+":
                sign = 1
            elif tok == "-":
                sign = -1
            else:
                raise ParseError(f"expected + or - before {tok!r}", line_no)
            expect_term = True
            continue
        m = _TERM_RE.match(tok)
        if not m:
            raise ParseError(f"bad linear term {tok!r}", line_no)
        coeff = sign * int(m.group(1))
        name = m.group(2)
        if name not in vars_by_name:
            raise ParseError(f"unknown variable {name!r}", line_no)
        if coeff == 0:
            raise ParseError(f"zero coefficient on {name!r}", line_no)
        terms.append(LinTerm(coeff, vars_by_name[name]))
        expect_term = False
    if expect_term or not terms:
        raise ParseError("dangling or empty linear expression", line_no)
    return tuple(terms)


def _parse_linear_body(
    body: str, op: str, vars_by_name: dict[str, VarId], line_no: int
) -> tuple[tuple[LinTerm, ...], int]:
    lhs, sep, rhs = body.rpartition(f" {op} ")
    if not sep:
        raise ParseError(f"expected {op!r} in {body!r}", line_no)
    try:
        rhs_val = int(rhs.strip())
    except ValueError:
        raise ParseError(f"bad right-hand side {rhs.strip()!r}", line_no) from None
    return _parse_terms(lhs.split(), vars_by_name, line_no), rhs_val


def _lookup(
    name: str, vars_by_name: dict[str, VarId], line_no: int
) -> VarId:
    if name not in vars_by_name:
        raise ParseError(f"unknown variable {name!r}", line_no)
    return vars_by_name[name]


def _parse_func(text: str, line_no: int) -> MonoFunc:
    m = _FUNC_RE.match(text)
    if not m:
        raise ParseError(f"bad function {text!r}", line_no)
    if m.group(4) == "powersum3":
        return PowerSum3()
    kind, p, q = m.group(1), int(m.group(2)), int(m.group(3))
    try:
        if kind == "affine":
            return Affine(p, q)
        return PowK(p, q)
    except ValueError as e:
        raise ParseError(str(e), line_no) from None


def _parse_constraint(
    body: str, vars_by_name: dict[str, VarId], line_no: int
) -> Constraint:
    kind, _, rest = body.partition(" ")
    rest = rest.strip()
    for cls in (LinEq, LinLe, LinNe):
        if kind == f"lin{cls.op}":
            symbol = _SYMBOLS[cls.op]
            terms, rhs = _parse_linear_body(rest, symbol, vars_by_name, line_no)
            return cls(terms, rhs)
    if kind == "alldifferent":
        names = rest.split()
        if len(names) < 2:
            raise ParseError("alldifferent needs at least two variables", line_no)
        return AllDifferent(tuple(_lookup(n, vars_by_name, line_no) for n in names))
    if kind == "productle":
        names = rest.split()
        if len(names) != 3:
            raise ParseError("productle needs exactly three variables", line_no)
        x1, x2, x3 = (_lookup(n, vars_by_name, line_no) for n in names)
        return ProductLe(x1, x2, x3)
    if kind == "monobij":
        m = re.match(rf"^({_NAME})\s*=\s*(\S+)\s+({_NAME})$", rest)
        if not m:
            raise ParseError(f"bad monobij body {rest!r}", line_no)
        x1 = _lookup(m.group(1), vars_by_name, line_no)
        func = _parse_func(m.group(2), line_no)
        x2 = _lookup(m.group(3), vars_by_name, line_no)
        return MonoBij(x1, func, x2)
    if kind == "mod":
        m = re.match(rf"^({_NAME})\s*=\s*({_NAME})\s+mod\s+({_NAME})$", rest)
        if not m:
            raise ParseError(f"bad mod body {rest!r}", line_no)
        x1, x2, x3 = (_lookup(m.group(i), vars_by_name, line_no) for i in (1, 2, 3))
        return Mod(x1, x2, x3)
    if kind == "reifle":
        head, sep, tail = rest.partition(" <-> ")
        if not sep:
            raise ParseError("reifle needs '<->'", line_no)
        b = _lookup(head.strip(), vars_by_name, line_no)
        terms, rhs = _parse_linear_body(tail.strip(), "<=", vars_by_name, line_no)
        return ReifLinLe(b, terms, rhs)
    if kind == "table":
        head, sep, tail = rest.partition(" : ")
        if not sep:
            raise ParseError("table needs ':' between variables and rows", line_no)
        names = head.split()
        if not names:
            raise ParseError("table needs variables", line_no)
        tvars = tuple(_lookup(n, vars_by_name, line_no) for n in names)
        rows = []
        for tok in tail.split():
            m = _ROW_RE.match(tok)
            if not m:
                raise ParseError(f"bad table row {tok!r}", line_no)
            row = tuple(int(p) for p in m.group(1).split(","))
            if len(row) != len(names):
                raise ParseError(f"row {tok!r} has wrong arity", line_no)
            rows.append(row)
        return Table(tvars, tuple(rows))
    raise ParseError(f"unknown constraint kind {kind!r}", line_no)


def parse_model(text: str) -> Model:
    var_domains: list[tuple[str, IntSet]] = []
    vars_by_name: dict[str, VarId] = {}
    constraints: list[tuple[Constraint, ConsistencyNotion]] = []
    labels: list[str] = []
    for line_no, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if line.startswith("var "):
            m = _VAR_RE.match(line)
            if not m:
                raise ParseError(f"bad variable declaration {line!r}", line_no)
            name = m.group(1)
            if name in vars_by_name:
                raise ParseError(f"duplicate variable {name!r}", line_no)
            s = _parse_set(m.group(2), line_no)
            vars_by_name[name] = VarId(len(var_domains), name)
            var_domains.append((name, s))
        elif line.startswith("constraint "):
            m = _CON_RE.match(line)
            if not m:
                raise ParseError(f"bad constraint declaration {line!r}", line_no)
            label = m.group(1)
            if label in labels:
                raise ParseError(f"duplicate constraint label {label!r}", line_no)
            body = m.group(2).strip()
            head, sep, tag = body.rpartition(" @ ")
            if sep:
                tag = tag.strip()
                if tag not in _NOTIONS:
                    raise ParseError(f"unknown notion {tag!r}", line_no)
                notion = _NOTIONS[tag]
                body = head.strip()
            else:
                notion = ConsistencyNotion.DOMAIN
            c = _parse_constraint(body, vars_by_name, line_no)
            constraints.append((c, notion))
            labels.append(label)
        else:
            raise ParseError(f"expected 'var' or 'constraint', got {line!r}", line_no)
    if not var_domains:
        raise ParseError("model declares no variables", len(text.splitlines()) or 1)
    try:
        return Model.build(var_domains, constraints, labels)
    except ValueError as e:
        raise ParseError(str(e), len(text.splitlines())) from None


def _print_set(s: IntSet) -> str:
    if s.is_range and s.size > 1:
        return f"[{s.inf},{s.sup}]"
    return "{" + ",".join(str(v) for v in s.values) + "}"


def _print_terms(terms: tuple[LinTerm, ...]) -> str:
    parts = []
    for i, t in enumerate(terms):
        if i == 0:
            parts.append(f"{t.coeff}*{t.var.name}")
        else:
            sign = "+" if t.coeff > 0 else "-"
            parts.append(f"{sign} {abs(t.coeff)}*{t.var.name}")
    return " ".join(parts)


def _print_func(f: MonoFunc) -> str:
    if isinstance(f, Affine):
        return f"affine({f.a},{f.b})"
    if isinstance(f, PowK):
        return f"pow({f.a},{f.k})"
    return "powersum3"


def _print_constraint(c: Constraint) -> str:
    if isinstance(c, (LinEq, LinLe, LinNe)):
        return f"lin{c.op} {_print_terms(c.terms)} {_SYMBOLS[c.op]} {c.rhs}"
    if isinstance(c, AllDifferent):
        return "alldifferent " + " ".join(v.name for v in c.vars)
    if isinstance(c, ProductLe):
        return f"productle {c.x1.name} {c.x2.name} {c.x3.name}"
    if isinstance(c, MonoBij):
        return f"monobij {c.x1.name} = {_print_func(c.func)} {c.x2.name}"
    if isinstance(c, Mod):
        return f"mod {c.x1.name} = {c.x2.name} mod {c.x3.name}"
    if isinstance(c, ReifLinLe):
        return f"reifle {c.b.name} <-> {_print_terms(c.terms)} <= {c.rhs}"
    if isinstance(c, Table):
        rows = " ".join("(" + ",".join(str(v) for v in row) + ")" for row in c.rows)
        return "table " + " ".join(v.name for v in c.vars) + " : " + rows
    raise TypeError(f"unprintable constraint {type(c).__name__}")


def print_model(m: Model, domain=None) -> str:
    """Canonical text for a model, optionally with replacement domains."""
    d = m.initial if domain is None else domain
    lines = [f"var {v.name} in {_print_set(d.get(v))}" for v in m.vars]
    if m.constraints:
        lines.append("")
        for label, (c, notion) in zip(m.labels, m.constraints):
            lines.append(f"constraint {label}: {_print_constraint(c)} @ {notion.value}")
    return "\n".join(lines) + "\n"
