"""Command-line front end for the analysis framework.

Usage: python3 scripts/analysis [--format=text|json] [--rules=a,b] [paths...]
       (default paths: src)

Text output is one `file:line: [rule] message` per finding, plus a
summary line. JSON output (--format=json) is a single object:

  {"findings": [{"file","line","rule","message"}, ...],
   "files_scanned": N,
   "rules": ["banned-random", ...],
   "ok": bool}

Exit code 0 when clean, 1 when any rule fires, 2 on usage errors.
"""

import json
import sys

from . import framework


def _usage(msg):
    sys.stderr.write("lint: %s\n" % msg)
    sys.stderr.write(
        "usage: python3 scripts/analysis [--format=text|json] [--rules=a,b] "
        "[--list-rules] [paths...]\n")
    return 2


def main(argv):
    fmt = "text"
    rule_names = None
    list_rules = False
    paths = []
    for arg in argv:
        if arg.startswith("--format="):
            fmt = arg.split("=", 1)[1]
            if fmt not in ("text", "json"):
                return _usage("unknown format %r" % fmt)
        elif arg.startswith("--rules="):
            rule_names = [r for r in arg.split("=", 1)[1].split(",") if r]
        elif arg == "--list-rules":
            list_rules = True
        elif arg.startswith("-"):
            return _usage("unknown flag %r" % arg)
        else:
            paths.append(arg)
    if not paths:
        paths = ["src"]

    if list_rules:
        for name, rule in sorted(framework.all_rules().items()):
            print("%-16s %s" % (name, rule.description))
        return 0

    try:
        findings, files, rules = framework.run(paths, rule_names)
    except KeyError as e:
        return _usage(str(e.args[0]))

    if not files:
        sys.stderr.write(
            "lint: no source files found under: %s\n" % ", ".join(paths))
        return 2

    if fmt == "json":
        print(json.dumps({
            "findings": [f.as_dict() for f in findings],
            "files_scanned": len(files),
            "rules": rules,
            "ok": not findings,
        }, indent=2, sort_keys=True))
        return 1 if findings else 0

    if findings:
        for f in findings:
            print("%s:%d: [%s] %s" % (f.file, f.line, f.rule, f.message))
        print("lint: %d problem(s) in %d file(s)" %
              (len(findings), len({f.file for f in findings})))
        return 1

    print("lint: OK (%d files, %d rules)" % (len(files), len(rules)))
    return 0
