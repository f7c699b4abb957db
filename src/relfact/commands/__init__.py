"""One module per command of the command line, each with run(args) -> int.

relfact.cli parses argv and imports only the module of the command it runs,
so a process compiles no other command's handler.  The handlers reach the
library through module attributes (jsonio.graph_from_obj,
reliability.reliability_factoring), so a function swapped on its module is
the one they call.
"""
