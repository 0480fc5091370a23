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
from typing import Callable, Dict, List, NamedTuple, Tuple, Union

from .scalars import Coefficient, ONE, p_pow, q_pow, w_pow
from .qalgebras import DISC, SPHERE
from .lens import LENS_GENERATORS, lens_gen, lens_one
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

_COEFF_ATOMS = {"p": p_pow, "q": q_pow, "w": w_pow}


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
    atoms = _dialect(dialect).atoms
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
            found = "end of input" if kind == "end" else repr(value)
            raise ParseError(f"expected an atom, found {found}", pos)
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
        if isinstance(atom, int) and power < 0 and atom != 1:
            raise ParseError(f"integer literal {atom} has no inverse", pos)
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


class Dialect(NamedTuple):
    """An expression dialect: its unit, and each atom's power e, for the lens type N."""

    one: Callable[[int | None], object]
    atoms: Dict[str, Callable[[int, int | None], object]]


def _generator_powers(alg, names) -> Dict[str, Callable[[int, int | None], object]]:
    """Atoms that are generators of ``alg``: the atom g to the power e is g^e."""
    return {g: (lambda e, N, g=g: getattr(alg, g)().pow_signed(e)) for g in names}


_SPHERE_ATOMS = _generator_powers(SPHERE, ("a", "b", "A", "B", "z"))
_CIRCLE_ONE = LaurentHopfElement.generator_power(0)

DIALECTS: Dict[str, Dialect] = {
    "disc": Dialect(lambda N: DISC.one(), _generator_powers(DISC, ("x", "X"))),
    "sphere": Dialect(lambda N: SPHERE.one(), _SPHERE_ATOMS),
    "lens": Dialect(
        lens_one, {g: (lambda e, N, g=g: lens_gen(N, g, e)) for g in LENS_GENERATORS}
    ),
    "prolong": Dialect(
        lambda N: ProlongElement(SPHERE, {(SPHERE_ONE, 0): ONE}),
        {
            **{
                g: (lambda e, N, f=f: ProlongElement.of(f(e, N), _CIRCLE_ONE))
                for g, f in _SPHERE_ATOMS.items()
            },
            "u": lambda e, N: ProlongElement(SPHERE, {(SPHERE_ONE, 1): ONE}).pow_signed(e),
        },
    ),
}


def _dialect(name: str) -> Dialect:
    if name not in DIALECTS:
        raise ValueError(f"unknown dialect {name!r}")
    return DIALECTS[name]


def eval_expr(ast: Expr, dialect: str, N: int | None = None):
    """Evaluate to the dialect's element type in normal form."""
    d = _dialect(dialect)
    if dialect == "lens" and N is None:
        raise ValueError("the lens dialect needs the type N")
    total = None
    for sign, factors in ast.terms:
        acc = d.one(N)
        scalar = ONE if sign > 0 else Coefficient.integer(-1)
        for f in factors:
            if isinstance(f.atom, int):
                # the parser admits a negative power only on the literal 1
                scalar = scalar * (ONE if f.power < 0 else Coefficient.integer(f.atom**f.power))
            elif f.atom in _COEFF_ATOMS:
                c = _COEFF_ATOMS[f.atom](f.power)
                scalar = scalar * (c.conjugate() if f.star else c)
            else:
                # star binds before the power: (g*)^e = g^(-e)
                acc = acc * d.atoms[f.atom](-f.power if f.star else f.power, N)
        acc = acc.scale(scalar)
        total = acc if total is None else total + acc
    return total


def eval_normal_form(text: str, dialect: str, N: int | None = None) -> str:
    """Parse, evaluate and print canonically; printing is idempotent."""
    return str(eval_expr(parse(text, dialect), dialect, N))
