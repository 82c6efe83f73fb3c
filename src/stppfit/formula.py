"""Tiny expression grammar for log-linear intensities and term lists.

A log-intensity expression is a signed sum of products of numbers and the
coordinate variables x, y, t with optional integer exponents, e.g.
``4 + 1.2*x - 0.8*t`` or ``2 + 0.5*x^2*y``. Every expression writable
here is also expressible as a model term list, which closes the loop
between simulation truths and fitted models.

A term list is a comma-separated sequence like ``1,x,y,t,x*t,ndvi`` where
``1`` is the intercept, products of coordinates are monomials, and any
other identifier refers to a declared external covariate.
"""

from __future__ import annotations

import math
import re
from dataclasses import dataclass
from typing import Mapping

import numpy as np

from .covariates import CoordinateMonomial, CovariateFunction, ExternalCovariate, Intercept

__all__ = ["LogLinearExpression", "parse_log_linear", "parse_term_list"]

_TOKEN_RE = re.compile(
    r"\s*(?:(?P<number>\d+\.?\d*(?:[eE][+-]?\d+)?|\.\d+(?:[eE][+-]?\d+)?)"
    r"|(?P<name>[A-Za-z_][A-Za-z_0-9]*)"
    r"|(?P<op>[-+*^]))"
)

_VARS = {"x": 0, "y": 1, "t": 2}


def _tokenize(text: str) -> list[tuple[str, str]]:
    tokens = []
    pos = 0
    while pos < len(text):
        m = _TOKEN_RE.match(text, pos)
        if m is None:
            if text[pos:].strip() == "":
                break
            raise ValueError(f"cannot parse {text!r} at position {pos}: {text[pos:]!r}")
        kind = m.lastgroup
        tokens.append((kind, m.group(kind)))
        pos = m.end()
    return tokens


@dataclass(frozen=True)
class LogLinearExpression:
    """Sum of coefficient * x^i y^j t^k monomials, used inside exp()."""

    monomials: tuple[tuple[tuple[int, int, int], float], ...]

    def log_intensity(self, x, y, t) -> np.ndarray:
        x = np.asarray(x, dtype=float)
        y = np.asarray(y, dtype=float)
        t = np.asarray(t, dtype=float)
        out = np.zeros_like(x)
        for (i, j, k), coef in self.monomials:
            term = np.full_like(x, coef)
            for arr, e in zip((x, y, t), (i, j, k)):
                if e:
                    term = term * arr**e
            out = out + term
        return out

    def intensity(self, x, y, t) -> np.ndarray:
        return np.exp(self.log_intensity(x, y, t))

    def terms(self) -> tuple[CovariateFunction, ...]:
        """Matching model terms, one per monomial (the constant becomes an intercept)."""
        built = []
        for (i, j, k), _ in self.monomials:
            built.append(Intercept() if (i, j, k) == (0, 0, 0) else CoordinateMonomial(i, j, k))
        return tuple(built)

    def coefficients(self) -> np.ndarray:
        return np.array([coef for _, coef in self.monomials], dtype=float)

    def canonical(self) -> str:
        parts = []
        for (i, j, k), coef in self.monomials:
            mono = CoordinateMonomial(i, j, k).name
            if mono == "1":
                piece = repr(coef)
            elif coef == 1.0:
                piece = mono
            else:
                piece = f"{coef!r}*{mono}"
            parts.append(piece)
        return " + ".join(parts) if parts else "0"


def _parse_product(tokens, pos, sign, text):
    """Parse ``factor ('*' factor)*`` from tokens[pos].

    A number factor multiplies the coefficient, which starts at ``sign``;
    x, y or t with an optional ``^n`` adds n to that variable's exponent.
    Returns the coefficient, the exponents, the position after the product
    and the count of number factors.
    """
    coef, exps, numbers = sign, [0, 0, 0], 0
    while True:
        if pos >= len(tokens):
            raise ValueError(f"{text!r} ends with a dangling {tokens[pos - 1][1]!r}")
        kind, val = tokens[pos]
        pos += 1
        if kind == "number":
            coef *= float(val)
            numbers += 1
        elif kind == "name" and val in _VARS:
            power = 1.0
            if tokens[pos : pos + 1] == [("op", "^")]:
                if pos + 1 >= len(tokens) or tokens[pos + 1][0] != "number":
                    raise ValueError(f"expected an integer exponent after {val}^ in {text!r}")
                num = tokens[pos + 1][1]
                power = float(num)
                if not power.is_integer() or power < 0:
                    raise ValueError(f"exponents must be nonnegative integers, got {num}")
                pos += 2
            exps[_VARS[val]] += int(power)
        elif kind == "name":
            raise ValueError(f"unknown variable {val!r} in {text!r}: only x, y, t are allowed")
        else:
            raise ValueError(f"unexpected token {val!r} in {text!r}")
        if tokens[pos : pos + 1] != [("op", "*")]:
            return coef, tuple(exps), pos, numbers
        pos += 1


def parse_log_linear(text: str) -> LogLinearExpression:
    """Parse a signed sum of coefficient-times-monomial products.

    Terms are joined by ``+`` or ``-``; every coefficient must be finite.
    """
    tokens = _tokenize(text)
    if not tokens:
        raise ValueError("empty log-intensity expression")
    coefs: dict[tuple[int, int, int], float] = {}  # insertion order is term order
    pos = 0
    while pos < len(tokens):
        if pos and tokens[pos] not in (("op", "+"), ("op", "-")):
            raise ValueError(f"expected '+' or '-' before {tokens[pos][1]!r} in {text!r}")
        sign = 1.0
        while pos < len(tokens) and tokens[pos] in (("op", "+"), ("op", "-")):
            if tokens[pos][1] == "-":
                sign = -sign
            pos += 1
        coef, key, pos, _ = _parse_product(tokens, pos, sign, text)
        coefs[key] = coefs.get(key, 0.0) + coef
    for key, coef in coefs.items():
        if not math.isfinite(coef):
            name = CoordinateMonomial(*key).name
            raise ValueError(f"coefficient of {name} in {text!r} is not finite")
    return LogLinearExpression(tuple(coefs.items()))


def parse_term_list(
    text: str, externals: Mapping[str, ExternalCovariate] | None = None
) -> tuple[CovariateFunction, ...]:
    """Parse a comma-separated term list into covariate functions."""
    externals = externals or {}
    terms: list[CovariateFunction] = []
    for raw in text.split(","):
        tok = raw.strip()
        if not tok:
            raise ValueError(f"empty term in list {text!r}")
        if tok == "1":
            terms.append(Intercept())
            continue
        if re.fullmatch(r"[A-Za-z_][A-Za-z_0-9]*", tok) and tok not in _VARS:
            if tok not in externals:
                raise ValueError(
                    f"unknown term {tok!r}: not a coordinate monomial and no such "
                    "external covariate was declared"
                )
            terms.append(externals[tok])
            continue
        tokens = _tokenize(tok)
        _, exps, pos, numbers = _parse_product(tokens, 0, 1.0, tok)
        if numbers or pos != len(tokens):
            raise ValueError(f"malformed term {tok!r}")
        terms.append(CoordinateMonomial(*exps))
    if not terms:
        raise ValueError("term list is empty")
    return tuple(terms)
