"""One module per command of the command line, each with run(args) -> int.

relfact.cli parses argv and imports only the module of the command it runs,
so a process compiles no other command's handler, and a handler reads its
document before it imports the kernels of its route, so a malformed one
compiles no kernel.  The handlers reach the library through module
attributes (jsonio.graph_from_obj, reliability.reliability_factoring), so
a function swapped on its module is the one they call.  The JSON reading
and output every command shares, and the partition listings that factor
and distribution print and the inverse matrices that factor and conmatrix
print, are here.  A document is read with open(), and verify walks a
directory with os, so no command imports pathlib.
"""

from __future__ import annotations

import json
import sys
from fractions import Fraction
from types import SimpleNamespace

from .. import jsonio


def _load_json(path: str):
    try:
        with open(path) as f:
            text = f.read()
    except (OSError, UnicodeDecodeError) as exc:
        raise jsonio.FormatError(f"cannot read {path}: {exc}")
    try:
        return json.loads(text)
    except ValueError as exc:  # bad syntax, or a number past the int/str digit limit
        raise jsonio.FormatError(f"{path}: malformed JSON: {exc}")
    except RecursionError:
        raise jsonio.FormatError(f"{path}: JSON nested too deeply") from None


def _emit(args: SimpleNamespace, payload: dict, text_lines: list[str]) -> None:
    if args.output == "json":
        sys.stdout.write(jsonio.dumps_canonical(payload))
    else:
        for line in text_lines:
            print(line)


def _formatted(values: dict) -> dict[str, str]:
    """Partition -> Fraction pairs with both sides as strings."""
    return {str(p): jsonio.fraction_to_str(v) for p, v in values.items()}


def _matrix_text(matrix: list[list]) -> list[list[str]]:
    """A matrix of Fractions with each entry as a string, each distinct
    value formatted once: an inverse connectivity matrix has few.  Entries
    are keyed by numerator and denominator, which hash faster."""
    keys = [[(x.numerator, x.denominator) for x in row] for row in matrix]
    text = {k: jsonio.fraction_to_str(Fraction(*k)) for k in set().union(*keys)}
    return [[text[k] for k in row] for row in keys]


def _listing(formatted: dict[str, str]) -> str:
    """Formatted partition -> value pairs as one line, sorted by partition."""
    return ", ".join(f"{p} -> {v}" for p, v in sorted(formatted.items()))
