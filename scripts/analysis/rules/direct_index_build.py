"""direct-index-build: index DDL must flow through the Database facade.

Calling IndexManager::BeginBuild / PublishBuild / FinishBuildDrain /
AbortBuild directly skips the lifecycle the facade enforces: table
latching, the phased online build (snapshot scan, delta catch-up, paced
convergence), WAL-at-publish durability, and the invariant hook. An index created behind the facade's back is invisible
to recovery and can race every concurrent writer. Only
src/engine/database.cc (the facade itself) may drive these entry
points; everything else calls Database::CreateIndex / DropIndex."""

import re

from .. import framework

# The facade owns the lifecycle; it is the one caller allowed.
ALLOWFILE = "src/engine/database.cc"

# Receiver spellings an IndexManager travels under inside src/, followed
# by a lifecycle entry point. Plain `db->CreateIndex(` (the facade call)
# deliberately does not match.
_DIRECT_RE = re.compile(
    r"\b(?:index_manager_|index_manager\(\)|indexes_|indexes)\s*"
    r"(?:\.|->)\s*"
    r"(?:BeginBuild|PublishBuild|FinishBuildDrain|AbortBuild)"
    r"\s*\(")


@framework.register
class DirectIndexBuild(framework.Rule):
    name = "direct-index-build"
    description = "IndexManager DDL bypasses the Database lifecycle facade"

    def check(self, sf, ctx):
        if sf.rel == ALLOWFILE:
            return
        for lineno, code in sf.code_lines:
            m = _DIRECT_RE.search(code)
            if m:
                yield self.finding(
                    sf, lineno,
                    "%s bypasses the online index lifecycle (latching, "
                    "phased build, WAL-at-publish); route DDL through the "
                    "Database facade" % m.group().rstrip("("))
