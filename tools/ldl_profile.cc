// ldl_profile — optimizer and engine observability for LDL programs.
//
// Usage: ldl_profile [options] file.ldl
//        ldl_profile [options] -          (read the program from stdin)
//
//   --analyze            EXPLAIN ANALYZE: execute each query exactly as
//                        LdlSystem::Query does and print the estimates next
//                        to the served run's rows per plan node and totals.
//                        Default is EXPLAIN only (no execution).
//   --query GOAL         profile GOAL (e.g. "anc(bart, Y)") instead of the
//                        query forms embedded in the file. Repeatable.
//   --trace-json FILE    write spans as Chrome trace_event JSON (loadable
//                        in Perfetto / chrome://tracing).
//   --metrics-json FILE  write the metrics registry as flat JSON.
//   --metrics            print the metrics registry to stdout.
//   --calibration-json FILE
//                        with --analyze: write the per-query calibration
//                        reports (per-node q-errors, aggregates, plan
//                        regret) as a JSON array.
//   --explain-optimize   print EXPLAIN OPTIMIZE per query: the plan plus
//                        the candidate log (with dispositions) and the memo
//                        lattice the search built.
//   --search-json FILE   write the per-query search traces (scopes,
//                        candidates, memo lattice) as a JSON array.
//   --fixpoint-json FILE execute each query and write the per-round
//                        fixpoint telemetry (delta cardinality, derivation
//                        count, wall time per iteration per recursion
//                        method) as a JSON array.
//   --dot FILE           write the first query's memo lattice as a
//                        Graphviz digraph, winning subplans highlighted.
//   --prune              enable the semantic pre-optimization passes:
//                        dead-rule elimination and adornment-reachability
//                        pruning (statically unreachable (predicate,
//                        adornment) pairs skip memoization; they show as
//                        pruned-unreachable in EXPLAIN OPTIMIZE).
//   --budget-bytes N     per-query cap on peak derived-storage bytes; a
//                        query over budget aborts with ResourceExhausted.
//   --budget-tuples N    per-query cap on tuples examined.
//   --deadline-ms X      per-query wall-clock deadline (DeadlineExceeded).
//   --query-log FILE     execute each query through the instrumented
//                        lifecycle path and append one structured JSONL
//                        record per query (replayable with ldl_replay).
//   --feedback           plan in feedback mode: execute each query, fold
//                        its measured cardinalities into a statistics
//                        catalog, and let the cost model consult the
//                        catalog as a blended measured-over-estimated
//                        overlay. Runs the drift detector after every
//                        harvest. Prints a `feedback:` summary line.
//   --stats-export FILE  write the feedback statistics catalog as JSON
//                        after the run (implies the feedback loop, not
//                        feedback planning).
//   --stats-import FILE  seed the feedback statistics catalog from a
//                        previously exported JSON file before the run
//                        (decay-merged into anything already harvested).
//   --repeat K           execute the query set K times (EXPLAIN output is
//                        printed once); gives a profiler a steady workload.
//
// Exit status: 0 success, 1 any query failed (parse, optimize, unsafe plan,
// or execution error — details on stderr), 2 usage error (including a
// numeric flag whose value is not a whole number).

#include <fstream>
#include <iostream>
#include <sstream>
#include <string>
#include <vector>

#include "base/strings.h"
#include "ldl/ldl.h"
#include "obs/context.h"
#include "obs/feedback.h"
#include "obs/metrics.h"
#include "obs/process_metrics.h"
#include "obs/search_trace.h"
#include "obs/trace.h"

namespace {

struct CliOptions {
  bool analyze = false;
  bool print_metrics = false;
  bool explain_optimize = false;
  bool prune = false;
  uint64_t budget_bytes = 0;
  uint64_t budget_tuples = 0;
  double deadline_ms = 0;
  uint64_t repeat = 1;
  bool feedback = false;
  std::string stats_export;
  std::string stats_import;
  std::string query_log;
  std::string trace_json;
  std::string metrics_json;
  std::string calibration_json;
  std::string search_json;
  std::string fixpoint_json;
  std::string dot_file;
  std::vector<std::string> queries;
  std::string file;
};

int Usage() {
  std::cerr << "usage: ldl_profile [--analyze] [--explain-optimize] "
               "[--query GOAL]... "
               "[--trace-json FILE] [--metrics-json FILE] [--metrics] "
               "[--calibration-json FILE] [--search-json FILE] "
               "[--fixpoint-json FILE] [--dot FILE] [--prune] "
               "[--budget-bytes N] [--budget-tuples N] [--deadline-ms X] "
               "[--query-log FILE] [--repeat K] [--feedback] "
               "[--stats-export FILE] [--stats-import FILE] file.ldl | -\n";
  return 2;
}

int BadValue(const std::string& flag, const char* value) {
  std::cerr << "ldl_profile: bad value for " << flag << ": '" << value
            << "'\n";
  return 2;
}

bool ReadInput(const std::string& name, std::string* out) {
  if (name == "-") {
    std::ostringstream buffer;
    buffer << std::cin.rdbuf();
    *out = buffer.str();
    return true;
  }
  std::ifstream in(name);
  if (!in) return false;
  std::ostringstream buffer;
  buffer << in.rdbuf();
  *out = buffer.str();
  return true;
}

}  // namespace

int main(int argc, char** argv) {
  CliOptions cli;
  for (int i = 1; i < argc; ++i) {
    std::string arg = argv[i];
    if (arg == "--analyze") {
      cli.analyze = true;
    } else if (arg == "--metrics") {
      cli.print_metrics = true;
    } else if (arg == "--query" && i + 1 < argc) {
      cli.queries.push_back(argv[++i]);
    } else if (arg == "--trace-json" && i + 1 < argc) {
      cli.trace_json = argv[++i];
    } else if (arg == "--metrics-json" && i + 1 < argc) {
      cli.metrics_json = argv[++i];
    } else if (arg == "--calibration-json" && i + 1 < argc) {
      cli.calibration_json = argv[++i];
    } else if (arg == "--explain-optimize") {
      cli.explain_optimize = true;
    } else if (arg == "--search-json" && i + 1 < argc) {
      cli.search_json = argv[++i];
    } else if (arg == "--fixpoint-json" && i + 1 < argc) {
      cli.fixpoint_json = argv[++i];
    } else if (arg == "--dot" && i + 1 < argc) {
      cli.dot_file = argv[++i];
    } else if (arg == "--prune") {
      cli.prune = true;
    } else if (arg == "--budget-bytes" && i + 1 < argc) {
      if (!ldl::ParseUnsigned(argv[++i], &cli.budget_bytes)) {
        return BadValue(arg, argv[i]);
      }
    } else if (arg == "--budget-tuples" && i + 1 < argc) {
      if (!ldl::ParseUnsigned(argv[++i], &cli.budget_tuples)) {
        return BadValue(arg, argv[i]);
      }
    } else if (arg == "--deadline-ms" && i + 1 < argc) {
      if (!ldl::ParseDouble(argv[++i], &cli.deadline_ms) ||
          cli.deadline_ms < 0) {
        return BadValue(arg, argv[i]);
      }
    } else if (arg == "--query-log" && i + 1 < argc) {
      cli.query_log = argv[++i];
    } else if (arg == "--repeat" && i + 1 < argc) {
      if (!ldl::ParseUnsigned(argv[++i], &cli.repeat)) {
        return BadValue(arg, argv[i]);
      }
    } else if (arg == "--feedback") {
      cli.feedback = true;
    } else if (arg == "--stats-export" && i + 1 < argc) {
      cli.stats_export = argv[++i];
    } else if (arg == "--stats-import" && i + 1 < argc) {
      cli.stats_import = argv[++i];
    } else if (arg == "--help" || arg == "-h") {
      Usage();
      return 0;
    } else if (arg.size() > 1 && arg[0] == '-') {
      std::cerr << "ldl_profile: unknown option " << arg << "\n";
      return Usage();
    } else if (cli.file.empty()) {
      cli.file = arg;
    } else {
      std::cerr << "ldl_profile: more than one input file\n";
      return Usage();
    }
  }
  if (cli.file.empty()) return Usage();
  if (cli.repeat < 1) {
    std::cerr << "ldl_profile: --repeat must be >= 1\n";
    return 2;
  }
  if (!cli.calibration_json.empty() && !cli.analyze) {
    std::cerr << "ldl_profile: --calibration-json requires --analyze "
                 "(calibration pairs estimates with measured actuals)\n";
    return 2;
  }

  std::string text;
  if (!ReadInput(cli.file, &text)) {
    std::cerr << "ldl_profile: cannot read " << cli.file << "\n";
    return 1;
  }

  ldl::Tracer tracer;
  tracer.set_enabled(true);
  ldl::MetricsRegistry metrics;
  ldl::ProcessMetricsSource process_metrics(&metrics);
  ldl::SearchTracer search_tracer;
  ldl::OptimizerOptions options;
  options.trace.tracer = &tracer;
  options.trace.metrics = &metrics;
  const bool want_search = !cli.search_json.empty() ||
                           !cli.dot_file.empty() || cli.explain_optimize;
  if (want_search) options.trace.search = &search_tracer;
  options.record_fixpoint_iterations = !cli.fixpoint_json.empty();
  if (cli.prune) {
    options.analyze_reachability = true;
    options.eliminate_dead_rules = true;
  }
  options.limits.budget_bytes = cli.budget_bytes;
  options.limits.budget_tuples = cli.budget_tuples;
  options.limits.deadline_ms = cli.deadline_ms;
  const bool use_feedback = cli.feedback || !cli.stats_export.empty() ||
                            !cli.stats_import.empty();
  options.feedback = cli.feedback;

  ldl::LdlSystem sys(options);
  ldl::StatisticsCatalog catalog;
  ldl::DriftDetector detector;
  if (use_feedback) {
    sys.set_feedback(&catalog, &detector);
    if (!cli.stats_import.empty()) {
      ldl::Status imported = catalog.ImportFile(cli.stats_import);
      if (!imported.ok()) {
        std::cerr << "ldl_profile: " << cli.stats_import << ": "
                  << imported.ToString() << "\n";
        return 1;
      }
    }
  }
  ldl::QueryLog query_log;
  if (!cli.query_log.empty()) {
    ldl::Status opened = query_log.Open(cli.query_log);
    if (!opened.ok()) {
      std::cerr << "ldl_profile: " << cli.query_log << ": "
                << opened.ToString() << "\n";
      return 1;
    }
    query_log.set_default_program(cli.file);
    sys.set_query_log(&query_log);
  }
  ldl::Status load = sys.LoadProgram(text);
  if (!load.ok()) {
    std::cerr << "ldl_profile: " << cli.file << ": " << load.ToString()
              << "\n";
    return 1;
  }

  std::vector<std::string> goals = cli.queries;
  if (goals.empty()) {
    for (const ldl::QueryForm& query : sys.pending_queries()) {
      goals.push_back(query.goal.ToString());
    }
  }
  if (goals.empty()) {
    std::cout << cli.file << ": no queries to profile (embed `goal?` forms "
                             "or pass --query)\n";
  }

  bool failed = false;
  std::vector<ldl::CalibrationReport> reports;
  std::vector<std::string> search_entries;  // one JSON object per goal
  std::vector<std::string> fixpoint_entries;
  std::string dot;
  const bool execute_queries = !cli.fixpoint_json.empty() ||
                               !cli.query_log.empty() ||
                               options.limits.any() || cli.repeat > 1 ||
                               use_feedback;
  for (uint64_t rep = 0; rep < cli.repeat; ++rep) {
    // Only the first pass prints; later passes re-execute the queries.
    const bool verbose = rep == 0;
    for (const std::string& goal : goals) {
    if (verbose) {
      std::cout << "== " << (cli.analyze ? "EXPLAIN ANALYZE " : "EXPLAIN ")
                << goal << "? ==\n";
    }
    // Execute first when asked to: LdlSystem::Query is the instrumented
    // lifecycle path — it enforces the limits, appends the query-log
    // record (on success and on typed failure), and carries the
    // per-round fixpoint telemetry.
    if (execute_queries) {
      auto answer = sys.Query(goal);
      if (!answer.ok()) {
        std::cerr << "ldl_profile: " << goal << ": "
                  << answer.status().ToString() << "\n";
        failed = true;
      } else if (verbose) {
        if (!cli.query_log.empty()) {
          std::cout << "lifecycle: " << answer->answers.size()
                    << " answers, peak " << answer->peak_bytes
                    << " bytes, " << answer->tuples_examined
                    << " tuples examined, " << answer->fixpoint_rounds
                    << " rounds, " << answer->cancel_checks
                    << " cancel checks\n";
        }
        if (!cli.fixpoint_json.empty()) {
          std::ostringstream entry;
          entry << "{\"goal\": \"" << ldl::JsonEscape(goal)
                << "\", \"method\": \""
                << ldl::RecursionMethodToString(answer->plan.top_method)
                << "\", \"iterations\": "
                << answer->exec_stats.iterations << ", \"rounds\": ";
          answer->exec_stats.WriteIterationsJson(entry);
          entry << "}";
          fixpoint_entries.push_back(entry.str());
        }
      }
    }
    if (!verbose) continue;
    // The plan summary (and, via Optimize, the optimizer.* metrics). One
    // shared tracer, cleared per goal; the trace is captured right after
    // this call, before --analyze's regret re-runs pollute it.
    if (want_search) search_tracer.Clear();
    auto plan = cli.explain_optimize ? sys.ExplainOptimize(goal)
                                     : sys.Explain(goal);
    if (!plan.ok()) {
      std::cerr << "ldl_profile: " << goal << ": " << plan.status().ToString()
                << "\n";
      failed = true;
      continue;
    }
    std::cout << *plan << "\n";
    if (!cli.search_json.empty()) {
      std::ostringstream entry;
      entry << "{\"goal\": \"" << ldl::JsonEscape(goal) << "\", \"search\": ";
      search_tracer.WriteJson(entry);
      entry << "}";
      search_entries.push_back(entry.str());
    }
    if (!cli.dot_file.empty() && dot.empty()) {
      std::ostringstream d;
      search_tracer.WriteDot(d);
      dot = d.str();
    }
    if (cli.analyze) {
      auto analyzed = sys.AnalyzeCalibrated(goal);
      if (!analyzed.ok()) {
        std::cerr << "ldl_profile: " << goal << ": "
                  << analyzed.status().ToString() << "\n";
        failed = true;
        continue;
      }
      std::cout << analyzed->text << "\n";
      reports.push_back(std::move(analyzed->report));
    } else {
      auto rendered = sys.ExplainTree(goal);
      if (!rendered.ok()) {
        std::cerr << "ldl_profile: " << goal << ": "
                  << rendered.status().ToString() << "\n";
        failed = true;
        continue;
      }
      std::cout << *rendered << "\n";
    }
    }
  }

  if (use_feedback) {
    // One greppable line for CI and operators; the full catalog goes to
    // --stats-export.
    std::cout << "feedback: entries=" << catalog.size()
              << " observations=" << catalog.total_observations()
              << " drift_events=" << detector.drift_events()
              << " stats_epoch=" << sys.statistics().epoch() << "\n";
    if (!cli.stats_export.empty()) {
      ldl::Status exported = catalog.ExportFile(cli.stats_export);
      if (!exported.ok()) {
        std::cerr << "ldl_profile: " << cli.stats_export << ": "
                  << exported.ToString() << "\n";
        return 1;
      }
    }
    sys.set_feedback(nullptr, nullptr);
  }

  if (!cli.calibration_json.empty()) {
    std::ofstream out(cli.calibration_json);
    if (!out) {
      std::cerr << "ldl_profile: cannot write " << cli.calibration_json
                << "\n";
      return 1;
    }
    out << '[';
    for (size_t i = 0; i < reports.size(); ++i) {
      if (i) out << ',';
      reports[i].WriteJson(out);
    }
    out << "]\n";
  }

  if (!cli.search_json.empty()) {
    std::ofstream out(cli.search_json);
    if (!out) {
      std::cerr << "ldl_profile: cannot write " << cli.search_json << "\n";
      return 1;
    }
    out << '[';
    for (size_t i = 0; i < search_entries.size(); ++i) {
      if (i) out << ',';
      out << '\n' << search_entries[i];
    }
    out << "]\n";
  }
  if (!cli.fixpoint_json.empty()) {
    std::ofstream out(cli.fixpoint_json);
    if (!out) {
      std::cerr << "ldl_profile: cannot write " << cli.fixpoint_json << "\n";
      return 1;
    }
    out << '[';
    for (size_t i = 0; i < fixpoint_entries.size(); ++i) {
      if (i) out << ',';
      out << '\n' << fixpoint_entries[i];
    }
    out << "]\n";
  }
  if (!cli.dot_file.empty()) {
    std::ofstream out(cli.dot_file);
    if (!out) {
      std::cerr << "ldl_profile: cannot write " << cli.dot_file << "\n";
      return 1;
    }
    out << dot;
  }
  process_metrics.Refresh();  // current uptime/RSS in the dumps below
  if (cli.print_metrics) std::cout << metrics.ToString();
  if (!cli.metrics_json.empty()) {
    std::ofstream out(cli.metrics_json);
    if (!out) {
      std::cerr << "ldl_profile: cannot write " << cli.metrics_json << "\n";
      return 1;
    }
    metrics.WriteJson(out);
  }
  if (!cli.trace_json.empty()) {
    std::ofstream out(cli.trace_json);
    if (!out) {
      std::cerr << "ldl_profile: cannot write " << cli.trace_json << "\n";
      return 1;
    }
    tracer.WriteChromeTrace(out);
  }
  return failed ? 1 : 0;
}
