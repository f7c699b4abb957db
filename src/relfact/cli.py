"""Command-line front end.

Exit codes: 0 success (and --help), 2 malformed input or usage (bad JSON,
bad document shape, an out-of-range n, an unknown, ambiguous, missing or
bad option, a bad --jobs, --bound or RELFACT_BOUND), 3 semantic validation
failure, 4 cross-route verification mismatch (which would indicate an
implementation bug).

stdout is byte-identical across runs and across --jobs settings for the
same input; timing goes to stderr so it cannot perturb that contract.

COMMANDS is the whole command line: each command's help and options, read
by one loop over argv.  This module is that table and the dispatcher: it
imports nothing from the package but base, so --help and a usage error
load no other module of it.  main imports only the invoked command's
module, relfact.commands.<command>; the relfact.commands package reads and
writes the documents, and run(args) imports the modules of its own route,
so a process compiles neither argparse nor another command's handler: the
factoring route needs no partition lattice, a command that reads a graph
no cut code (the cut routes are in relfact.cut, which only the commands
that read a decomposition load), a route that counts states no factoring
kernel (relfact.reliability) and no 2^m oracle (relfact.enumeration), and
the connectivity matrix needs no graph and no reliability kernel.
"""

from __future__ import annotations

import gc
import os
import re
import sys
import time
from types import SimpleNamespace

from .base import DEFAULT_ENUMERATION_BOUND, ORDER_VARIANTS, FormatError

EXIT_OK = 0
EXIT_FORMAT = 2
EXIT_SEMANTIC = 3
EXIT_VERIFY = 4

GRAPH_ROUTES = ("bruteforce", "factoring")
FACTOR_ROUTES = ("factorized", "joint", "n2")

REQUIRED = object()  # the default of an option that must be given


class UsageError(Exception):
    """A command line the table rejects: main prints it and returns 2."""

    def __init__(self, command: str | None, message: str):
        super().__init__(message)
        self.command = command


def _positive(spec: str, kind: str = "an integer") -> int:
    try:
        value = int(spec)
    except ValueError:
        raise ValueError(f"must be {kind}, got {spec!r}") from None
    if value < 1:
        raise ValueError(f"must be at least 1, got {value}")
    return value


def _jobs(spec: str) -> int:
    if spec == "auto":
        return os.cpu_count() or 1
    return _positive(spec, "an integer or 'auto'")


def _options(*, reads_documents: bool = True, **extra) -> dict:
    """The shared options, then a command's own.  conmatrix reads no
    document, so it takes neither --input nor an enumeration bound."""
    shared = {
        "input": (str, REQUIRED, "PATH", "input file (or directory for verify)"),
        "bound": (_positive, None, "E", "largest edge count the enumeration routes walk "
                  f"(default: RELFACT_BOUND, else {DEFAULT_ENUMERATION_BOUND})"),
    }
    return {
        **(shared if reads_documents else {}),
        "jobs": (_jobs, 1, "N|auto", "processes for the side solves"),
        "output": (("json", "text"), "text", None, "format of stdout"),
        **extra,
    }


ORDER = (ORDER_VARIANTS, "canonical", None, "coherent order of the printed matrices")

# command -> (one-line help, options); an option is (converter, default,
# metavar, help), where the converter is a function of the option's text, a
# tuple of the values it may take, or None for a flag
COMMANDS = {
    "reliability": ("exact reliability of a graph", _options(
        route=(GRAPH_ROUTES, "factoring", None, "the route that computes it"))),
    "factor": ("reliability of a decomposition via the cut theorem", _options(
        order=ORDER,
        route=(FACTOR_ROUTES, "factorized", None, "the route that computes it"),
        verify=(None, False, None, "cross-check against enumeration"))),
    "conmatrix": ("connectivity matrix, inverse, and invariants", _options(
        reads_documents=False, order=ORDER, n=(int, REQUIRED, "N", "boundary size"))),
    "polynomial": ("equal-probability reliability polynomial", _options()),
    "distribution": ("boundary state distributions of both sides", _options()),
    "rcm": ("random cluster model partition function", _options()),
    "verify": ("run every route on a directory of fixtures", _options()),
}

# a negative number is read as a value, never as an option
_NUMBER = re.compile(r"-\d+$|-\d*\.\d+$")


def _named(command: str | None, token: str, options: dict) -> tuple[str, str | None] | None:
    """The option a token names, "help" included, and the value it carries
    (None if it carries none), or None if it names no option.  A --name
    names the option of that exact name, else the one option it is a
    prefix of; as in argparse, -hx is -h given x."""
    if token.startswith("-h"):
        return "help", token[2:] or None
    if not token.startswith("--"):
        return None
    name, eq, value = token[2:].partition("=")
    found = [name] if name in options or name == "help" else [o for o in (*options, "help") if o.startswith(name)]
    if len(found) > 1:
        raise UsageError(command, f"ambiguous option: --{name} could match {', '.join('--' + o for o in found)}")
    return (found[0], value if eq else None) if found else None


def _is_value(token: str, command: str | None, options: dict) -> bool:
    """Whether a token is a value rather than an option: "-", a negative
    number and text with a space are values unless they name an option."""
    if not token.startswith("-") or token == "-":
        return True
    return _named(command, token, options) is None and bool(_NUMBER.match(token) or " " in token)


def _flag(command: str | None, name: str, value: str | None) -> None:
    if value is not None:
        raise UsageError(command, f"argument --{name}: ignored explicit argument {value!r}")


def parse_args(argv: list[str]) -> tuple[str | None, SimpleNamespace | None]:
    """The command and its option values.  Values of None ask for the help
    of the command, or of relfact when the command is None.  Raises
    UsageError.

    As argparse did: an ambiguous option is refused first; then values and
    --help act in argv order, the last of a repeated option winning; then a
    missing required option, then any stray token, is refused."""
    extras: list[str] = []
    for k, token in enumerate(argv):
        if token == "--" or _is_value(token, None, {}):
            command, argv = token, argv[k + 1 :]
            break
        named = _named(None, token, {})
        if named:  # help is the one option before the command
            _flag(None, *named)
            return None, None
        extras.append(token)
    else:
        raise UsageError(None, "the following arguments are required: COMMAND")
    if command not in COMMANDS:
        raise UsageError(None, f"invalid command: {command!r} (choose from {', '.join(COMMANDS)})")
    options = COMMANDS[command][1]
    for token in argv[: argv.index("--") if "--" in argv else None]:
        _named(command, token, options)
    values = {name: spec[1] for name, spec in options.items()}
    tokens = iter(argv)
    for token in tokens:
        if token == "--":
            raise UsageError(command, f"unrecognized arguments: {' '.join([token, *tokens])}")
        named = _named(command, token, options)
        if named is None:
            extras.append(token)
            continue
        name, value = named
        convert = None if name == "help" else options[name][0]
        if convert is None:
            _flag(command, name, value)
            if name == "help":
                return command, None
            values[name] = True
            continue
        if value is None:
            value = next(tokens, None)
            if value is None or not _is_value(value, command, options):
                raise UsageError(command, f"argument --{name}: expected one argument")
        try:
            if isinstance(convert, tuple) and value not in convert:
                raise ValueError(f"invalid choice: {value!r} (choose from {', '.join(convert)})")
            values[name] = value if isinstance(convert, tuple) else convert(value)
        except ValueError as exc:
            raise UsageError(command, f"argument --{name}: {exc}") from None
    missing = [f"--{name}" for name, value in values.items() if value is REQUIRED]
    if missing:
        raise UsageError(command, f"the following arguments are required: {', '.join(missing)}")
    if extras:
        raise UsageError(command, f"unrecognized arguments: {' '.join(extras)}")
    if "bound" in values and values["bound"] is None:
        env = os.environ.get("RELFACT_BOUND")
        try:
            values["bound"] = DEFAULT_ENUMERATION_BOUND if env is None else _positive(env)
        except ValueError as exc:
            raise UsageError(command, f"RELFACT_BOUND {exc}") from None
    return command, SimpleNamespace(**values)


def help_text(command: str | None) -> str:
    """The --help of a command, or of relfact, from the table."""
    if command is None:
        lines = [
            "usage: relfact COMMAND [options]",
            "",
            "Exact K-terminal network reliability with boundary-cut factorization",
            "",
            "commands:",
            *(f"  {name:<14}{about}" for name, (about, _) in COMMANDS.items()),
            "",
            "`relfact COMMAND --help` lists the options of one command.",
        ]
        return "\n".join(lines) + "\n"
    about, options = COMMANDS[command]
    rows = []
    for name, (convert, default, metavar, text) in options.items():
        shape = "{" + ",".join(convert) + "}" if isinstance(convert, tuple) else metavar
        if default is REQUIRED:
            text += " (required)"
        elif default is not None and convert is not None:
            text += f" (default: {default})"
        rows.append((f"--{name} {shape}" if shape else f"--{name}", text))
    rows.append(("-h, --help", "show this help"))
    width = max(len(flag) for flag, _ in rows) + 2
    lines = [f"usage: relfact {command} [options]", "", about, "", "options:"]
    lines += [f"  {flag:<{width}}{text}" for flag, text in rows]
    return "\n".join(lines) + "\n"


def main(argv: list[str] | None = None) -> int:
    try:
        command, args = parse_args(sys.argv[1:] if argv is None else list(argv))
    except UsageError as exc:
        prog = f"relfact {exc.command}" if exc.command else "relfact"
        print(f"usage: relfact {exc.command or 'COMMAND'} [options]\n{prog}: error: {exc}", file=sys.stderr)
        return EXIT_FORMAT
    if args is None:
        sys.stdout.write(help_text(command))
        return EXIT_OK
    # not importlib.import_module, whose imports -X importtime does not report
    run = __import__(f"{__package__}.commands.{command}", fromlist=["run"]).run
    started = time.perf_counter()
    try:
        code = run(args)
    except FormatError as exc:
        print(f"input error: {exc}", file=sys.stderr)
        code = EXIT_FORMAT
    except ValueError as exc:  # GraphError, EnumerationBoundError and the other semantic failures
        print(f"validation error: {exc}", file=sys.stderr)
        code = EXIT_SEMANTIC
    finally:
        elapsed_ms = (time.perf_counter() - started) * 1000.0
        print(f"timing_ms={elapsed_ms:.3f}", file=sys.stderr)
    return code


def entry() -> int:
    """The process entry of `python -m relfact` and the relfact script: main,
    then gc.freeze().  At exit the interpreter runs full collections over
    every object the garbage collector tracks; frozen objects are skipped,
    and a process about to exit has nothing left for them to free.  main
    itself leaves the collector alone, since tests and tools call it many
    times in one process."""
    code = main()
    gc.freeze()
    return code


def __getattr__(name: str):
    """relfact.cli.jsonio and relfact.cli.reliability, loaded on first
    access (PEP 562): this module imports neither, so --help loads
    neither."""
    if name not in ("jsonio", "reliability"):
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    # not importlib.import_module, whose imports -X importtime does not report
    __import__(f"{__package__}.{name}")
    return sys.modules[f"{__package__}.{name}"]
