"""Wire formats: graphs, decompositions, canonical JSON, and exact rationals.

Rationals travel as reduced "num/den" strings with the sign on the
numerator.  Probabilities are accepted as "num/den", as decimal strings
(converted exactly, so "0.9" becomes 9/10), or as the integers 0 and 1;
floats are rejected because they would smuggle binary rounding into an
exact pipeline.

FormatError lives in base, which the command line loads on its own; the
readers import graphs when they run, and decomposition_from_obj cut once
both graphs have been read, so a command that reads no graph (conmatrix)
compiles neither graphs nor the reliability kernels, one that reads only a
graph no cut code, and a malformed decomposition no cut code either.
"""

from __future__ import annotations

import json
import sys
from fractions import Fraction
from typing import TYPE_CHECKING, Any

from .base import FormatError

if TYPE_CHECKING:
    from .cut import CutDecomposition
    from .graphs import StochasticGraph

# CPython's default limit on the digits of an int converted to or from str
_DEFAULT_DIGIT_LIMIT = 4300
# a power of ten below the smallest limit CPython accepts (640 digits)
_PIECE_DIGITS = 600
_PIECE = 10**_PIECE_DIGITS


def _int_to_str(k: int) -> str:
    """str(k) for an int of any length: converted in pieces of 600 digits,
    each under the int/str digit limit, which stays as it is."""
    sign, k = ("-", -k) if k < 0 else ("", k)
    pieces = []
    while k >= _PIECE:
        k, low = divmod(k, _PIECE)
        pieces.append(f"{low:0{_PIECE_DIGITS}d}")
    return sign + str(k) + "".join(reversed(pieces))


def fraction_to_str(x: Fraction) -> str:
    x = Fraction(x)
    return f"{_int_to_str(x.numerator)}/{_int_to_str(x.denominator)}"


def _decimal_scale(s: str) -> int:
    """k such that a decimal string is its digits over 10**k ("2.5e-3" -> 4);
    0 for anything else."""
    if "/" in s:
        return 0
    mantissa, marker, exponent = s.strip().lower().partition("e")
    try:
        shift = int(exponent) if marker else 0
    except ValueError:  # malformed, or itself too long: Fraction() says so
        return 0
    return sum(ch.isdigit() for ch in mantissa.partition(".")[2]) - shift


def fraction_from_str(s: str) -> Fraction:
    # plain ASCII "digits/digits", the common spelling, is read by int(),
    # which raises what Fraction(s) would past the digit limit; a zero
    # denominator raises in Fraction() either way
    num, slash, den = s.partition("/")
    plain = slash and num.isascii() and num.isdigit() and den.isascii() and den.isdigit()
    if not plain:
        # Fraction() builds 10**k before anything else can object, and a
        # huge k would allocate without bound: reject a k past the int/str
        # digit limit while it is still only a string.
        limit = getattr(sys, "get_int_max_str_digits", lambda: 0)() or _DEFAULT_DIGIT_LIMIT
        scale = _decimal_scale(s)
        if abs(scale) >= limit:
            raise FormatError(
                f"bad rational {s!r}: 10**{abs(scale)} exceeds the {limit}-digit integer limit"
            )
    try:
        return Fraction(int(num), int(den)) if plain else Fraction(s)
    except (ValueError, ZeroDivisionError) as exc:
        raise FormatError(f"bad rational {s!r}: {exc}") from None


def prob_from_json(value: Any) -> Fraction:
    if isinstance(value, int) and not isinstance(value, bool):
        return Fraction(value)
    if isinstance(value, str):
        return fraction_from_str(value)
    if isinstance(value, float):
        raise FormatError(
            f"probability {value!r} is a float; pass it as a string for exactness"
        )
    raise FormatError(f"probability must be a string or 0/1, got {value!r}")


def _require(obj: dict, key: str, kind: type) -> Any:
    if key not in obj:
        raise FormatError(f"missing key {key!r}")
    val = obj[key]
    # bool is a subclass of int, but true/false is not a number on the wire
    if not isinstance(val, kind) or (kind is int and isinstance(val, bool)):
        raise FormatError(f"key {key!r} must be {kind.__name__}, got {type(val).__name__}")
    return val


def graph_from_obj(obj: Any) -> StochasticGraph:
    from .graphs import Edge, StochasticGraph

    if not isinstance(obj, dict):
        raise FormatError("graph document must be an object")
    nodes = _require(obj, "nodes", list)
    edges_raw = _require(obj, "edges", list)
    terminals = _require(obj, "terminals", list)
    if not all(isinstance(x, str) for x in nodes + terminals):
        raise FormatError("nodes and terminals must be strings")
    edges = []
    for item in edges_raw:
        if not isinstance(item, dict):
            raise FormatError("each edge must be an object")
        eid = _require(item, "id", int)
        u = _require(item, "u", str)
        v = _require(item, "v", str)
        p = prob_from_json(_require(item, "p", object))
        edges.append(Edge(eid, u, v, p))
    return StochasticGraph(nodes=frozenset(nodes), edges=tuple(edges), terminals=frozenset(terminals))


def decomposition_from_obj(obj: Any) -> CutDecomposition:
    if not isinstance(obj, dict):
        raise FormatError("decomposition document must be an object")
    boundary = _require(obj, "boundary", list)
    if not all(isinstance(x, str) for x in boundary):
        raise FormatError("boundary must be a list of node names")
    sides = [graph_from_obj(_require(obj, key, dict)) for key in ("g1", "g2")]
    from .cut import CutDecomposition

    return CutDecomposition(*sides, boundary=boundary)


def dumps_canonical(obj: Any) -> str:
    """Deterministic JSON: sorted keys, compact separators, one newline."""
    return json.dumps(obj, sort_keys=True, separators=(",", ":")) + "\n"
