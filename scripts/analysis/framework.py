"""Core of the AutoIndex static-analysis framework.

Concepts:
  Finding     one diagnostic: (file, line, rule, message).
  SourceFile  a parsed source file: raw lines, comment-stripped code
              lines, and per-line `// lint:allow(<rule>)` suppressions.
  Rule        file-scope rule: check(sf, ctx) yields Findings. Rules
              self-register via the @register decorator.
  ProjectRule project-scope rule: sees every scanned file at once
              (e.g. include-cycle detection).
  Context     shared state for one run (the repo root).

The runner applies every enabled rule to every file, then drops any
finding whose line carries a matching lint:allow marker. Suppressions
are parsed from the *raw* line (they live inside comments, which the
code view blanks out).
"""

import os
import re

from . import cpp

REPO_ROOT = os.path.dirname(
    os.path.dirname(os.path.dirname(os.path.abspath(__file__))))

# `// lint:allow(rule-a, rule-b)` suppresses those rules on its line.
_ALLOW_RE = re.compile(r"lint:allow\(([^)]*)\)")


class Finding(object):
    __slots__ = ("file", "line", "rule", "message")

    def __init__(self, file, line, rule, message):
        self.file = file
        self.line = line
        self.rule = rule
        self.message = message

    def sort_key(self):
        return (self.file, self.line, self.rule)

    def as_dict(self):
        return {"file": self.file, "line": self.line, "rule": self.rule,
                "message": self.message}

    def __repr__(self):
        return "%s:%d: [%s] %s" % (self.file, self.line, self.rule,
                                   self.message)


class SourceFile(object):
    """One scanned file, parsed once and shared by every rule."""

    def __init__(self, rel, root=REPO_ROOT):
        self.rel = rel.replace(os.sep, "/")
        self.path = os.path.join(root, rel)
        with open(self.path, encoding="utf-8") as f:
            self.text = f.read()
        self.raw_lines = self.text.splitlines()
        self.is_header = self.rel.endswith(cpp.HEADER_EXTS)
        # [(lineno, comment/string-stripped code)]
        self.code_lines = list(cpp.iter_code_lines(self.text))
        # lineno -> set of rule names allowed (suppressed) on that line.
        self.allowed = {}
        for lineno, raw in enumerate(self.raw_lines, start=1):
            m = _ALLOW_RE.search(raw)
            if m:
                names = {n.strip() for n in m.group(1).split(",") if n.strip()}
                if names:
                    self.allowed[lineno] = names

    def suppressed(self, finding):
        return finding.rule in self.allowed.get(finding.line, set())


class Rule(object):
    """File-scope rule. Subclasses set `name`/`description` and implement
    check(sf, ctx) yielding Findings for one file."""

    name = None
    description = None

    def check(self, sf, ctx):
        raise NotImplementedError

    def finding(self, sf, line, message):
        return Finding(sf.rel, line, self.name, message)


class ProjectRule(Rule):
    """Project-scope rule: check_project(files, ctx) sees every scanned
    file at once. check() is unused."""

    def check(self, sf, ctx):
        return ()

    def check_project(self, files, ctx):
        raise NotImplementedError


REGISTRY = {}


def register(rule_cls):
    """Class decorator: instantiate and register a rule by name."""
    rule = rule_cls()
    assert rule.name, "rule class %s has no name" % rule_cls.__name__
    assert rule.name not in REGISTRY, "duplicate rule %s" % rule.name
    REGISTRY[rule.name] = rule
    return rule_cls


def all_rules():
    # Import triggers registration of every bundled rule module.
    from . import rules  # noqa: F401
    return dict(REGISTRY)


class Context(object):
    """Shared per-run state handed to every rule."""

    def __init__(self, root=REPO_ROOT):
        self.root = root


def collect_files(paths, root=REPO_ROOT):
    files = []
    for path in paths:
        full = os.path.join(root, path)
        if os.path.isfile(full):
            files.append(os.path.relpath(full, root))
            continue
        for dirpath, _, names in os.walk(full):
            for name in sorted(names):
                if name.endswith(cpp.SOURCE_EXTS):
                    rel = os.path.relpath(os.path.join(dirpath, name), root)
                    files.append(rel)
    return sorted(set(files))


def run(paths, rule_names=None, root=REPO_ROOT):
    """Run the analysis.

    Returns (findings, files, rules): the surviving findings sorted by
    (file, line, rule), the scanned file list, and the applied rules.
    """
    rules = all_rules()
    if rule_names is not None:
        unknown = set(rule_names) - set(rules)
        if unknown:
            raise KeyError("unknown rule(s): %s" % ", ".join(sorted(unknown)))
        rules = {n: r for n, r in rules.items() if n in rule_names}

    rels = collect_files(paths, root)
    ctx = Context(root)
    sources = [SourceFile(rel, root) for rel in rels]
    by_rel = {sf.rel: sf for sf in sources}

    findings = []
    for rule in rules.values():
        if isinstance(rule, ProjectRule):
            findings.extend(rule.check_project(sources, ctx))
        else:
            for sf in sources:
                findings.extend(rule.check(sf, ctx))

    kept = [f for f in findings
            if f.file not in by_rel or not by_rel[f.file].suppressed(f)]
    kept.sort(key=Finding.sort_key)
    return kept, rels, sorted(rules)
