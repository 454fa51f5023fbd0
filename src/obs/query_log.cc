#include "obs/query_log.h"

#include "base/json.h"
#include "base/strings.h"

namespace ldl {

std::string QueryLogRecord::ToJson() const {
  std::string out = "{";
  json::AppendField(&out, "program", program);
  json::AppendField(&out, "query", query);
  json::AppendField(&out, "adornment", adornment);
  json::AppendField(&out, "method", method);
  json::AppendField(&out, "plan_fingerprint", plan_fingerprint);
  json::AppendField(&out, "stats_epoch", stats_epoch);
  json::AppendField(&out, "plan_epoch", plan_epoch);
  json::AppendField(&out, "prune", prune);
  json::AppendField(&out, "plan_cached", plan_cached);
  json::AppendField(&out, "outcome", outcome);
  json::AppendField(&out, "error", error);
  json::AppendField(&out, "answer_fingerprint", answer_fingerprint);
  json::AppendField(&out, "answers", answers);
  json::AppendField(&out, "budget_bytes", budget_bytes);
  json::AppendField(&out, "deadline_ms", deadline_ms);
  json::AppendField(&out, "peak_bytes", peak_bytes);
  json::AppendField(&out, "tuples_examined", tuples_examined);
  json::AppendField(&out, "tuples_derived", tuples_derived);
  json::AppendField(&out, "fixpoint_rounds", fixpoint_rounds);
  json::AppendField(&out, "rule_firings", rule_firings);
  json::AppendField(&out, "cancel_checks", cancel_checks);
  json::AppendField(&out, "optimize_ms", optimize_ms);
  json::AppendField(&out, "execute_ms", execute_ms);
  json::AppendField(&out, "total_ms", total_ms);
  out.back() = '}';  // replace the trailing comma
  return out;
}

Result<QueryLogRecord> QueryLogRecord::FromJson(const std::string& line) {
  LDL_ASSIGN_OR_RETURN(json::Value doc, json::Parse(line));
  if (doc.kind() != json::Value::Kind::kObject) {
    return Status::InvalidArgument("query log line: not a JSON object");
  }
  QueryLogRecord rec;
  LDL_RETURN_NOT_OK(doc.Get("program", &rec.program));
  LDL_RETURN_NOT_OK(doc.Get("query", &rec.query));
  LDL_RETURN_NOT_OK(doc.Get("adornment", &rec.adornment));
  LDL_RETURN_NOT_OK(doc.Get("method", &rec.method));
  LDL_RETURN_NOT_OK(doc.Get("plan_fingerprint", &rec.plan_fingerprint));
  LDL_RETURN_NOT_OK(doc.Get("stats_epoch", &rec.stats_epoch));
  // Logs from before plans were kept across refreshes: every plan was
  // made under the epoch it ran in.
  rec.plan_epoch = rec.stats_epoch;
  LDL_RETURN_NOT_OK(doc.Get("plan_epoch", &rec.plan_epoch));
  LDL_RETURN_NOT_OK(doc.Get("prune", &rec.prune));
  LDL_RETURN_NOT_OK(doc.Get("plan_cached", &rec.plan_cached));
  LDL_RETURN_NOT_OK(doc.Get("outcome", &rec.outcome));
  LDL_RETURN_NOT_OK(doc.Get("error", &rec.error));
  LDL_RETURN_NOT_OK(doc.Get("answer_fingerprint", &rec.answer_fingerprint));
  LDL_RETURN_NOT_OK(doc.Get("answers", &rec.answers));
  LDL_RETURN_NOT_OK(doc.Get("budget_bytes", &rec.budget_bytes));
  LDL_RETURN_NOT_OK(doc.Get("deadline_ms", &rec.deadline_ms));
  LDL_RETURN_NOT_OK(doc.Get("peak_bytes", &rec.peak_bytes));
  LDL_RETURN_NOT_OK(doc.Get("tuples_examined", &rec.tuples_examined));
  LDL_RETURN_NOT_OK(doc.Get("tuples_derived", &rec.tuples_derived));
  LDL_RETURN_NOT_OK(doc.Get("fixpoint_rounds", &rec.fixpoint_rounds));
  LDL_RETURN_NOT_OK(doc.Get("rule_firings", &rec.rule_firings));
  LDL_RETURN_NOT_OK(doc.Get("cancel_checks", &rec.cancel_checks));
  LDL_RETURN_NOT_OK(doc.Get("optimize_ms", &rec.optimize_ms));
  LDL_RETURN_NOT_OK(doc.Get("execute_ms", &rec.execute_ms));
  LDL_RETURN_NOT_OK(doc.Get("total_ms", &rec.total_ms));
  return rec;
}

bool QueryLogRecord::operator==(const QueryLogRecord& other) const {
  return program == other.program && query == other.query &&
         adornment == other.adornment && method == other.method &&
         plan_fingerprint == other.plan_fingerprint &&
         stats_epoch == other.stats_epoch &&
         plan_epoch == other.plan_epoch && prune == other.prune &&
         plan_cached == other.plan_cached &&
         outcome == other.outcome && error == other.error &&
         answer_fingerprint == other.answer_fingerprint &&
         answers == other.answers && budget_bytes == other.budget_bytes &&
         deadline_ms == other.deadline_ms && peak_bytes == other.peak_bytes &&
         tuples_examined == other.tuples_examined &&
         tuples_derived == other.tuples_derived &&
         fixpoint_rounds == other.fixpoint_rounds &&
         rule_firings == other.rule_firings &&
         cancel_checks == other.cancel_checks &&
         optimize_ms == other.optimize_ms && execute_ms == other.execute_ms &&
         total_ms == other.total_ms;
}

Status QueryLog::Open(const std::string& path) {
  std::lock_guard<std::mutex> lock(mu_);
  out_.open(path, std::ios::out | std::ios::app);
  if (!out_.is_open()) {
    return Status::InvalidArgument(
        StrCat("cannot open query log for append: ", path));
  }
  return Status::OK();
}

void QueryLog::Append(QueryLogRecord record) {
  std::lock_guard<std::mutex> lock(mu_);
  if (record.program.empty()) record.program = default_program_;
  if (out_.is_open()) {
    out_ << record.ToJson() << "\n";
    out_.flush();
  }
  records_.push_back(std::move(record));
}

size_t QueryLog::size() const {
  std::lock_guard<std::mutex> lock(mu_);
  return records_.size();
}

std::vector<QueryLogRecord> QueryLog::snapshot() const {
  std::lock_guard<std::mutex> lock(mu_);
  return records_;
}

Result<std::vector<QueryLogRecord>> QueryLog::ReadFile(
    const std::string& path) {
  std::ifstream in(path);
  if (!in.is_open()) {
    return Status::NotFound(StrCat("cannot open query log: ", path));
  }
  std::vector<QueryLogRecord> out;
  std::string line;
  size_t lineno = 0;
  while (std::getline(in, line)) {
    ++lineno;
    if (StripWhitespace(line).empty()) continue;
    auto rec = QueryLogRecord::FromJson(line);
    if (!rec.ok()) {
      return Status::InvalidArgument(StrCat(path, ":", lineno, ": ",
                                            rec.status().message()));
    }
    out.push_back(std::move(rec).value());
  }
  return out;
}

}  // namespace ldl
