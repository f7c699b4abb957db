"""One module per command of the command line, each with run(args) -> int.

relfact.cli parses argv and imports only the module of the command it runs,
so a process compiles no other command's handler.  The handlers reach the
library through module attributes (jsonio.graph_from_obj,
reliability.reliability_factoring), so a function swapped on its module is
the one they call.  The JSON reading and output every command shares, and
the partition listings that factor and distribution print, are here.
"""

from __future__ import annotations

import json
import sys
from pathlib import Path
from types import SimpleNamespace

from .. import jsonio


def _load_json(path: str):
    try:
        text = Path(path).read_text()
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


def _listing(formatted: dict[str, str]) -> str:
    """Formatted partition -> value pairs as one line, sorted by partition."""
    return ", ".join(f"{p} -> {v}" for p, v in sorted(formatted.items()))
