"""Expression parser and evaluator for the command surface.

Grammar:
    expr   := ['-'] term (('+' | '-') term)*
    term   := factor (['*'] factor)*
    factor := atom ['*'] ['^' ['-'] INT]

Postfix '*' directly after an atom is the adjoint and binds tighter than
the power, so a*^2 parses as (a*)^2.  Negative exponents on algebra atoms
mean adjoint powers.  Whitespace (or a '*' after an exponent) separates
juxtaposed factors.  Coefficient atoms are integer literals, p, q and w.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from typing import List, Tuple, Union

from .scalars import Coefficient, ONE, p_pow, q_pow, w_pow
from .qalgebras import DISC, SPHERE
from .lens import lens_gen, lens_one
from .principal import LaurentHopfElement, ProlongElement, SPHERE_ONE


class ParseError(ValueError):
    def __init__(self, message: str, pos: int):
        super().__init__(f"{message} (at position {pos})")
        self.pos = pos


@dataclass(frozen=True)
class Factor:
    atom: Union[str, int]
    star: bool
    power: int
    pos: int


@dataclass(frozen=True)
class Expr:
    terms: Tuple[Tuple[int, Tuple[Factor, ...]], ...]  # (sign, factors)


_TOKEN = re.compile(r"\s*(?:(?P<int>\d+)|(?P<name>[A-Za-z]+'?)|(?P<sym>[-+*^]))")

DIALECT_ATOMS = {
    "disc": ("x", "X"),
    "sphere": ("a", "b", "A", "B", "z"),
    "lens": ("A'", "B'", "z'", "at'", "bt'"),
    "prolong": ("a", "b", "A", "B", "z", "u"),
}

_COEFF_ATOMS = ("p", "q", "w")


def _tokenize(text: str):
    pos = 0
    out = []
    while pos < len(text):
        m = _TOKEN.match(text, pos)
        if m is None:
            stripped = text[pos:].lstrip()
            if not stripped:
                break
            raise ParseError(f"unexpected character {stripped[0]!r}", pos)
        if m.lastgroup == "int":
            out.append(("int", int(m.group("int")), m.start("int")))
        elif m.lastgroup == "name":
            out.append(("name", m.group("name"), m.start("name")))
        else:
            out.append(("sym", m.group("sym"), m.start("sym")))
        pos = m.end()
    out.append(("end", None, len(text)))
    return out


def parse(text: str, dialect: str) -> Expr:
    if dialect not in DIALECT_ATOMS:
        raise ValueError(f"unknown dialect {dialect!r}")
    atoms = DIALECT_ATOMS[dialect]
    toks = _tokenize(text)
    i = 0

    def peek():
        return toks[i]

    def advance():
        nonlocal i
        t = toks[i]
        i += 1
        return t

    def parse_factor() -> Factor:
        kind, value, pos = advance()
        if kind == "int":
            atom: Union[str, int] = value
        elif kind == "name":
            if value not in atoms and value not in _COEFF_ATOMS:
                raise ParseError(f"atom {value!r} is not available in the {dialect} dialect", pos)
            atom = value
        else:
            raise ParseError(f"expected an atom, found {value!r}", pos)
        star = False
        if peek()[:2] == ("sym", "*"):
            advance()
            star = True
        power = 1
        if peek()[:2] == ("sym", "^"):
            advance()
            sign = 1
            if peek()[:2] == ("sym", "-"):
                advance()
                sign = -1
            kind, value, p2 = advance()
            if kind != "int":
                raise ParseError("expected an integer exponent after '^'", p2)
            power = sign * value
        return Factor(atom=atom, star=star, power=power, pos=pos)

    def at_factor_start() -> bool:
        return peek()[0] in ("int", "name")

    def parse_term() -> Tuple[Factor, ...]:
        factors = [parse_factor()]
        while True:
            if peek()[:2] == ("sym", "*"):
                # separator form: only after an exponent was consumed
                advance()
                if not at_factor_start():
                    raise ParseError("expected a factor after '*'", peek()[2])
                factors.append(parse_factor())
            elif at_factor_start():
                factors.append(parse_factor())
            else:
                return tuple(factors)

    terms: List[Tuple[int, Tuple[Factor, ...]]] = []
    sign = 1
    if peek()[:2] == ("sym", "-"):
        advance()
        sign = -1
    elif peek()[:2] == ("sym", "+"):
        advance()
    terms.append((sign, parse_term()))
    while peek()[0] != "end":
        kind, value, pos = advance()
        if kind != "sym" or value not in "+-":
            raise ParseError(f"expected '+' or '-', found {value!r}", pos)
        terms.append((1 if value == "+" else -1, parse_term()))
    return Expr(terms=tuple(terms))


# ---------------------------------------------------------------------------
# Evaluation
# ---------------------------------------------------------------------------


class _Dialect:
    def __init__(self, name: str, one, atom_fn):
        self.name = name
        self.one = one
        self.atom_fn = atom_fn


def _scalar_atom(atom: Union[str, int], star: bool, power: int) -> Coefficient:
    if isinstance(atom, int):
        if power < 0:
            if atom in (1,):
                return ONE
            raise ValueError(f"integer literal {atom} has no inverse")
        return Coefficient.integer(atom**power)
    base = {"p": p_pow, "q": q_pow, "w": w_pow}[atom]
    c = base(power)
    return c.conjugate() if star else c


def _make_dialects():
    def disc_atom(name, e):
        return DISC.x(1).pow_signed(e) if name == "x" else DISC.X(1).pow_signed(e)

    def sphere_atom(name, e):
        gen = {
            "a": SPHERE.a(),
            "b": SPHERE.b(),
            "A": SPHERE.A(),
            "B": SPHERE.B(),
            "z": SPHERE.z(),
        }[name]
        return gen.pow_signed(e)

    def prolong_atom(name, e):
        if name == "u":
            return ProlongElement(SPHERE, {(SPHERE_ONE, 1): ONE}).pow_signed(e)
        x = sphere_atom(name, e)
        return ProlongElement.of(x, LaurentHopfElement.generator_power(0))

    return {
        "disc": _Dialect("disc", lambda N: DISC.one(), lambda name, e, N: disc_atom(name, e)),
        "sphere": _Dialect("sphere", lambda N: SPHERE.one(), lambda name, e, N: sphere_atom(name, e)),
        "lens": _Dialect(
            "lens",
            lambda N: lens_one(N),
            lambda name, e, N: lens_gen(N, name).pow_signed(e)
            if name in ("z'", "at'", "bt'")
            else lens_gen(N, name, 1).pow_signed(e),
        ),
        "prolong": _Dialect("prolong", lambda N: ProlongElement(SPHERE, {(SPHERE_ONE, 0): ONE}), lambda name, e, N: prolong_atom(name, e)),
    }


_DIALECTS = _make_dialects()


def eval_expr(ast: Expr, dialect: str, N: int | None = None):
    """Evaluate to the dialect's element type in normal form."""
    if dialect not in _DIALECTS:
        raise ValueError(f"unknown dialect {dialect!r}")
    if dialect == "lens" and N is None:
        raise ValueError("the lens dialect needs the type N")
    d = _DIALECTS[dialect]
    total = None
    for sign, factors in ast.terms:
        acc = d.one(N)
        scalar = ONE if sign > 0 else Coefficient.integer(-1)
        for f in factors:
            if isinstance(f.atom, int) or f.atom in _COEFF_ATOMS:
                scalar = scalar * _scalar_atom(f.atom, f.star, f.power)
            else:
                elem = d.atom_fn(f.atom, f.power, N)
                if f.star:
                    # star binds before the power: (g*)^e = g^(-e)
                    elem = d.atom_fn(f.atom, -f.power, N)
                acc = acc * elem
        acc = acc.scale(scalar)
        total = acc if total is None else total + acc
    return total


def eval_normal_form(text: str, dialect: str, N: int | None = None) -> str:
    """Parse, evaluate and print canonically; printing is idempotent."""
    return str(eval_expr(parse(text, dialect), dialect, N))
