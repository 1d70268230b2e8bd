"""AutoIndex static-analysis framework.

A small, dependency-free lint engine for the project's structural rules:
things clang-tidy either cannot express or that must hold even on
machines without clang installed. `python3 scripts/analysis` is the
command-line entry point (__main__.py); rules live in
`scripts/analysis/rules/` and register themselves with the framework
registry on import.

Layout:
  framework.py   Finding / SourceFile / Rule / registry / runner
  cpp.py         C++ lexical helpers (comment+string stripping)
  cli.py         argument parsing, text and JSON output
  rules/         one module per rule
"""

from . import framework  # noqa: F401  (re-exported for convenience)
