#!/usr/bin/env python3
"""Self-test for the scripts/analysis framework.

Every violation line in tests/analysis/corpus/ carries a
`// lint:expect(<rule>)` marker. This driver runs the analyzer over the
corpus and demands an exact match: each rule fires on precisely its
marked lines, and nothing else fires anywhere — which also proves the
clean fixtures stay silent and `lint:allow` suppressions hold.

It then re-runs through the real CLI (python3 scripts/analysis
--format=json) and checks the machine-readable output carries the same
findings, plus a --rules= filter pass.

Exit 0 on success, 1 with a readable diff on failure.
"""

import json
import os
import re
import subprocess
import sys

REPO_ROOT = os.path.dirname(os.path.dirname(os.path.dirname(
    os.path.abspath(__file__))))
CORPUS = os.path.join("tests", "analysis", "corpus")

sys.path.insert(0, os.path.join(REPO_ROOT, "scripts"))

from analysis import framework  # noqa: E402

_EXPECT_RE = re.compile(r"lint:expect\(([^)]*)\)")


def expected_findings():
    expected = set()
    for rel in framework.collect_files([CORPUS], REPO_ROOT):
        path = os.path.join(REPO_ROOT, rel)
        with open(path, encoding="utf-8") as f:
            for lineno, raw in enumerate(f, start=1):
                m = _EXPECT_RE.search(raw)
                if not m:
                    continue
                for rule in m.group(1).split(","):
                    rule = rule.strip()
                    if rule:
                        expected.add(
                            (rel.replace(os.sep, "/"), lineno, rule))
    return expected


def report_diff(name, expected, actual):
    ok = True
    for miss in sorted(expected - actual):
        print("%s: MISSING  %s:%d [%s] (marked, did not fire)" %
              ((name,) + miss))
        ok = False
    for extra in sorted(actual - expected):
        print("%s: SPURIOUS %s:%d [%s] (fired on an unmarked line)" %
              ((name,) + extra))
        ok = False
    return ok


def main():
    expected = expected_findings()
    if not expected:
        print("corpus: no lint:expect markers found — corpus missing?")
        return 1

    ok = True

    # --- Pass 1: framework API, every rule, exact match. ---
    findings, files, rules = framework.run([CORPUS], root=REPO_ROOT)
    actual = {(f.file, f.line, f.rule) for f in findings}
    ok &= report_diff("framework", expected, actual)

    # Every bundled rule must be exercised by at least one fixture.
    untested = set(rules) - {r for (_, _, r) in expected}
    for rule in sorted(untested):
        print("corpus: rule %r has no fixture marking it" % rule)
        ok = False

    # --- Pass 2: the real CLI with machine-readable output. ---
    cli = subprocess.run(
        [sys.executable, os.path.join("scripts", "analysis"),
         "--format=json", CORPUS],
        cwd=REPO_ROOT, capture_output=True, text=True)
    if cli.returncode != 1:
        print("cli: expected exit 1 on a dirty tree, got %d\nstderr: %s" %
              (cli.returncode, cli.stderr))
        ok = False
    else:
        doc = json.loads(cli.stdout)
        for key in ("findings", "files_scanned", "rules", "ok"):
            if key not in doc:
                print("cli: JSON output missing key %r" % key)
                ok = False
        if doc.get("ok") is not False:
            print("cli: 'ok' should be false on a dirty tree")
            ok = False
        cli_actual = {(f["file"], f["line"], f["rule"])
                      for f in doc.get("findings", [])}
        ok &= report_diff("cli-json", expected, cli_actual)

    # --- Pass 3: --rules= filtering narrows to the named rule. ---
    only, _, _ = framework.run([CORPUS], rule_names=["naked-mutex"],
                               root=REPO_ROOT)
    only_actual = {(f.file, f.line, f.rule) for f in only}
    want = {e for e in expected if e[2] == "naked-mutex"}
    ok &= report_diff("rules-filter", want, only_actual)

    if ok:
        print("corpus: OK (%d fixtures, %d expected findings, %d rules)" %
              (len(files), len(expected), len(rules)))
        return 0
    return 1


if __name__ == "__main__":
    sys.exit(main())
