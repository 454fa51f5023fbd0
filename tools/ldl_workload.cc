// ldl_workload — aggregate and diff JSONL query logs (ldl_profile
// --query-log / ldl_replay output).
//
// Usage: ldl_workload [options] log.jsonl [log2.jsonl]
//
// One log: prints the workload report — one row per query signature
// (program|query|adornment) with counts, plan fingerprints, latency
// p50/p95/max, tuples, and peak bytes, then the top-N records by tuples
// examined.
//
// Two logs: prints both reports, then a diff keyed by query signature:
//
//   PLAN-DRIFT          a plan fingerprint the baseline never produced
//   OUTCOME-CHANGE      the ok/error mix changed between runs
//   LATENCY-REGRESSION  p50 grew past --threshold (with the --min-ms floor)
//   ONLY-BEFORE/AFTER   signature present in only one log (informational)
//
//   --check          exit 1 when any gating finding exists (drift, outcome
//                    change, or latency regression); requires two logs.
//   --threshold PCT  latency regression threshold in percent (default 50).
//   --min-ms X       ignore latency comparisons below this floor
//                    (default 1 ms — micro-timings are noise).
//   --top N          records in the top-by-tuples section (default 5).
//
// Exit status: 0 clean, 1 unreadable log or gated finding under --check,
// 2 usage error (including a numeric flag whose value is not a number).

#include <iostream>
#include <string>
#include <vector>

#include "base/strings.h"
#include "obs/query_log.h"
#include "obs/workload.h"

namespace {

int Usage() {
  std::cerr << "usage: ldl_workload [--check] [--threshold PCT] "
               "[--min-ms X] [--top N] log.jsonl [log2.jsonl]\n";
  return 2;
}

int BadValue(const std::string& flag, const char* value) {
  std::cerr << "ldl_workload: bad value for " << flag << ": '" << value
            << "'\n";
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  bool check = false;
  uint64_t top_n = 5;
  ldl::WorkloadThresholds thresholds;
  std::vector<std::string> files;
  for (int i = 1; i < argc; ++i) {
    std::string arg = argv[i];
    if (arg == "--check") {
      check = true;
    } else if (arg == "--threshold" && i + 1 < argc) {
      if (!ldl::ParseDouble(argv[++i], &thresholds.latency_pct)) {
        return BadValue(arg, argv[i]);
      }
    } else if (arg == "--min-ms" && i + 1 < argc) {
      if (!ldl::ParseDouble(argv[++i], &thresholds.min_ms)) {
        return BadValue(arg, argv[i]);
      }
    } else if (arg == "--top" && i + 1 < argc) {
      if (!ldl::ParseUnsigned(argv[++i], &top_n)) {
        return BadValue(arg, argv[i]);
      }
    } else if (arg == "--help" || arg == "-h") {
      Usage();
      return 0;
    } else if (arg.size() > 1 && arg[0] == '-') {
      std::cerr << "ldl_workload: unknown option " << arg << "\n";
      return Usage();
    } else {
      files.push_back(arg);
    }
  }
  if (files.empty() || files.size() > 2) return Usage();
  if (check && files.size() != 2) {
    std::cerr << "ldl_workload: --check needs two logs to compare\n";
    return 2;
  }

  std::vector<ldl::WorkloadReport> reports;
  for (const std::string& file : files) {
    auto records = ldl::QueryLog::ReadFile(file);
    if (!records.ok()) {
      std::cerr << "ldl_workload: " << file << ": "
                << records.status().ToString() << "\n";
      return 1;
    }
    reports.push_back(ldl::WorkloadReport::Build(*records));
  }

  if (files.size() == 1) {
    std::cout << reports[0].ToString(top_n);
    return 0;
  }

  std::cout << "--- " << files[0] << " ---\n" << reports[0].ToString(top_n)
            << "\n--- " << files[1] << " ---\n" << reports[1].ToString(top_n)
            << "\n--- diff (" << files[0] << " -> " << files[1] << ") ---\n";
  const ldl::WorkloadDiff diff =
      ldl::WorkloadDiff::Build(reports[0], reports[1], thresholds);
  std::cout << diff.ToString();
  if (check && diff.failed()) return 1;
  return 0;
}
