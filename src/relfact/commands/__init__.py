"""One module per command of the command line, each with run(args) -> int.

relfact.cli parses argv and imports only the module of the command it runs,
so a process compiles no other command's handler.  The handlers reach the
library through module attributes (jsonio.graph_from_obj,
reliability.reliability_factoring), so a function swapped on its module is
the one they call.  The partition listings that factor and distribution
print are formatted here.
"""

from __future__ import annotations

from .. import jsonio


def _formatted(values: dict) -> dict[str, str]:
    """Partition -> Fraction pairs with both sides as strings."""
    return {str(p): jsonio.fraction_to_str(v) for p, v in values.items()}


def _listing(formatted: dict[str, str]) -> str:
    """Formatted partition -> value pairs as one line, sorted by partition."""
    return ", ".join(f"{p} -> {v}" for p, v in sorted(formatted.items()))
