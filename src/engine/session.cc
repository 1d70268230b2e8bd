#include "engine/session.h"

#include "engine/database.h"
#include "obs/trace.h"

namespace autoindex {

Session::Session(Database* db)
    : db_(db),
      id_(db->NextSessionId()),
      executor_(std::make_unique<Executor>(&db->catalog(),
                                           &db->index_manager(),
                                           &db->stats_manager(),
                                           db->params())) {}

Session::~Session() = default;

StatusOr<ExecResult> Session::Execute(const std::string& sql) {
  // Statement trace root for text entry points (a no-op when the network
  // layer already opened one for the request). A parse failure keeps the
  // trace, with its failed parse span, as the network request's does.
  obs::ScopedTrace trace("statement");
  StatusOr<Statement> stmt = [&] {
    obs::ScopedSpan parse_span("parse");
    return ParseSql(sql);
  }();
  if (!stmt.ok()) return stmt.status();
  return Execute(*stmt);
}

StatusOr<ExecResult> Session::Execute(const Statement& stmt) {
  return db_->ExecuteOn(executor_.get(), stmt);
}

}  // namespace autoindex
