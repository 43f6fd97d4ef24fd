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

The reader checks the grammar, repeated members of {...} and unknown or
repeated names and labels; every other rule is checked by the constructor
it belongs to, and `parse_model` reports it at its declaration's line.
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
from .engine import Model, ModelError


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
_SHAPED = {  # kind -> its class and the shape of its body
    "productle": (ProductLe, re.compile(rf"^({_NAME})\s+({_NAME})\s+({_NAME})$")),
    "monobij": (MonoBij, re.compile(rf"^({_NAME})\s*=\s*(\S+)\s+({_NAME})$")),
    "mod": (Mod, re.compile(rf"^({_NAME})\s*=\s*({_NAME})\s+mod\s+({_NAME})$")),
}

_NOTIONS = {n.value: n for n in ConsistencyNotion}
_SYMBOLS = {"eq": "=", "le": "<=", "ne": "!="}  # linear relation -> model-file text


def _parse_set(text: str) -> IntSet:
    shape = text[0] + text[-1]
    if shape not in ("[]", "{}") or shape == "[]" and text.count(",") != 1:
        raise ValueError(f"expected [lo,hi] or {{v1,v2,...}}, got {text!r}")
    try:
        values = list(map(int, text[1:-1].split(",")))
    except ValueError:
        raise ValueError(f"bad value set {text!r}") from None
    if shape == "[]":
        return IntSet.interval(*values)
    if len(set(values)) != len(values):  # IntSet.of would merge them
        raise ValueError(f"duplicate values in {text!r}")
    return IntSet.of(values)


class _Vars(dict):
    """The declared variables by name; an unknown name is a ValueError."""

    def __missing__(self, name: str) -> VarId:
        raise ValueError(f"unknown variable {name!r}")


def _parse_linear(text: str, op: str, vs: _Vars) -> tuple[tuple[LinTerm, ...], int]:
    """`c*x + c*y - ... OP rhs`: terms at even token positions, signs between."""
    lhs, sep, rhs = text.rpartition(f" {op} ")
    if not sep:
        raise ValueError(f"expected {op!r} in {text!r}")
    tokens = lhs.split()
    if len(tokens) % 2 == 0:
        raise ValueError("dangling or empty linear expression")
    terms = []
    for sign, tok in zip(["+"] + tokens[1::2], tokens[::2]):
        m = _TERM_RE.match(tok)
        if sign not in ("+", "-"):
            raise ValueError(f"expected + or -, got {sign!r}")
        if not m:
            raise ValueError(f"bad linear term {tok!r}")
        coeff = int(m.group(1))
        terms.append(LinTerm(-coeff if sign == "-" else coeff, vs[m.group(2)]))
    return tuple(terms), int(rhs)


def _parse_func(text: str) -> MonoFunc:
    m = _FUNC_RE.match(text)
    if not m:
        raise ValueError(f"bad function {text!r}")
    if m.group(4) == "powersum3":
        return PowerSum3()
    kind, p, q = m.group(1), int(m.group(2)), int(m.group(3))
    return Affine(p, q) if kind == "affine" else PowK(p, q)


def _parse_constraint(body: str, vs: _Vars) -> Constraint:
    kind, _, rest = body.partition(" ")
    rest = rest.strip()
    var = vs.__getitem__
    for cls in (LinEq, LinLe, LinNe):
        if kind == f"lin{cls.op}":
            return cls(*_parse_linear(rest, _SYMBOLS[cls.op], vs))
    if kind == "alldifferent":
        return AllDifferent(tuple(map(var, rest.split())))
    if kind in _SHAPED:
        cls, shape = _SHAPED[kind]
        m = shape.match(rest)
        if not m:
            raise ValueError(f"bad {kind} body {rest!r}")
        if cls is MonoBij:
            return MonoBij(var(m.group(1)), _parse_func(m.group(2)), var(m.group(3)))
        return cls(*map(var, m.groups()))
    if kind == "reifle":
        head, sep, tail = rest.partition(" <-> ")
        if not sep:
            raise ValueError("reifle needs '<->'")
        return ReifLinLe(var(head.strip()), *_parse_linear(tail.strip(), "<=", vs))
    if kind == "table":
        head, sep, tail = rest.partition(":")
        if not sep:
            raise ValueError("table needs ':' between variables and rows")
        tvars = tuple(map(var, head.split()))
        rows = []
        for tok in tail.split():
            m = _ROW_RE.match(tok)
            if not m:
                raise ValueError(f"bad table row {tok!r}")
            rows.append(tuple(map(int, m.group(1).split(","))))
        return Table(tvars, tuple(rows))
    raise ValueError(f"unknown constraint kind {kind!r}")


def parse_model(text: str) -> Model:
    """The model in `text`.  Every error, a 64-bit overflow or a repeated
    variable included, is a ParseError with the line of the declaration it
    rejects; an error of the whole model names the last line."""
    var_domains: list[tuple[str, IntSet]] = []
    vs = _Vars()
    constraints: list[tuple[Constraint, ConsistencyNotion]] = []
    lines: dict[str, int] = {}  # each constraint's label -> its line, in order
    line_no = 1
    try:
        for line_no, raw in enumerate(text.splitlines(), start=1):
            line = raw.split("#", 1)[0].strip()
            if not line:
                continue
            if m := _VAR_RE.match(line):
                name = m.group(1)
                if name in vs:
                    raise ValueError(f"duplicate variable {name!r}")
                vs[name] = VarId(len(var_domains), name)
                var_domains.append((name, _parse_set(m.group(2))))
            elif m := _CON_RE.match(line):
                label = m.group(1)
                if label in lines:
                    raise ValueError(f"duplicate constraint label {label!r}")
                body, _, tag = m.group(2).partition(" @ ")
                notion = _NOTIONS.get(tag.strip() or "domain")
                if notion is None:
                    raise ValueError(f"unknown notion {tag.strip()!r}")
                c = _parse_constraint(body.strip(), vs)
                constraints.append((c, notion))
                lines[label] = line_no
            else:
                raise ValueError(f"expected a var or constraint declaration: {line!r}")
        if not var_domains:
            raise ValueError("model declares no variables")
        return Model.build(var_domains, constraints, list(lines))
    except (ValueError, OverflowError) as e:
        if isinstance(e, ModelError) and e.index is not None:  # one constraint's error
            line_no = list(lines.values())[e.index]
        raise ParseError(str(e), line_no) from None


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
        rows = "".join(" (" + ",".join(map(str, row)) + ")" for row in c.rows)
        return "table " + " ".join(v.name for v in c.vars) + " :" + rows
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
