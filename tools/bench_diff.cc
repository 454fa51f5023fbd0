// bench_diff — regression gate over the bench JSON exports.
//
// Usage: bench_diff [options] BASELINE_DIR CURRENT_DIR
//
//   --threshold PCT      fail when a time-like cell grew by more than PCT
//                        percent over its baseline (default 25).
//   --min-baseline MS    ignore comparisons where both sides are below this
//                        floor (default 5.0 ms) — micro-timings are noise.
//   --update-baselines   copy CURRENT_DIR's BENCH_*.json into BASELINE_DIR
//                        instead of comparing (refreshing the committed
//                        baselines after an intentional perf change).
//
// Each bench binary writes BENCH_<name>.json via bench_util's JsonSink:
// {"bench":..., "experiments":[{"id",...,"tables":[{"headers":[...],
// "rows":[[...]]}]}]}. Two kinds of column are gated:
//  - time-like columns (header mentions "ms" or "time") may grow by at
//    most --threshold percent;
//  - exact columns (header mentions "answers", "examined" or "derived")
//    are machine-independent counts and must match the baseline exactly.
// Rows are paired by position within a table and must agree on their key
// cells: the leading label cells, i.e. every cell before the first gated
// column or the first number (at least the first cell). E4's rows, for
// instance, share their first cell and differ in the second. A reshaped
// table, or a row whose key cells differ, is reported as skipped, not
// failed, so adding a workload does not masquerade as a regression.
//
// Timings only compare between runs on the same kind of machine, so for
// every file whose time cells were compared the host each side records
// (cpu, nproc, compiler, build type; bench_util.h) is printed next to the
// verdict, "unrecorded" for files written before hosts were recorded.
//
// Exit status: 0 no regressions, 1 regression or exact mismatch found,
// 2 usage/parse error.

#include <algorithm>
#include <cctype>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <iostream>
#include <sstream>
#include <string>
#include <utility>
#include <vector>

#include "base/json.h"

namespace {

namespace fs = std::filesystem;

struct Options {
  double threshold_pct = 25.0;
  double min_baseline_ms = 5.0;
  bool update_baselines = false;
  std::string baseline_dir;
  std::string current_dir;
};

int Usage() {
  std::cerr << "usage: bench_diff [--threshold PCT] [--min-baseline MS] "
               "[--update-baselines] BASELINE_DIR CURRENT_DIR\n";
  return 2;
}

bool ReadFile(const fs::path& path, std::string* out) {
  std::ifstream in(path);
  if (!in) return false;
  std::ostringstream buffer;
  buffer << in.rdbuf();
  *out = buffer.str();
  return true;
}

std::string Lower(std::string s) {
  std::transform(s.begin(), s.end(), s.begin(),
                 [](unsigned char c) { return std::tolower(c); });
  return s;
}

bool TimeLikeHeader(const std::string& header) {
  std::string h = Lower(header);
  return h.find("ms") != std::string::npos ||
         h.find("time") != std::string::npos;
}

/// Columns whose cells are machine-independent counts: they must match the
/// baseline exactly.
bool ExactHeader(const std::string& header) {
  std::string h = Lower(header);
  return h.find("answers") != std::string::npos ||
         h.find("examined") != std::string::npos ||
         h.find("derived") != std::string::npos;
}

bool ParseCell(const std::string& cell, double* out) {
  if (cell.empty() || cell == "-") return false;
  char* end = nullptr;
  *out = std::strtod(cell.c_str(), &end);
  return end != cell.c_str();
}

/// True when the whole cell is one number (unlike ParseCell, which accepts
/// a numeric prefix such as the "2" of "2, 8").
bool IsNumber(const std::string& cell) {
  char* end = nullptr;
  std::strtod(cell.c_str(), &end);
  return !cell.empty() && end == cell.c_str() + cell.size();
}

/// A string cell's text; "" for a missing value or any other kind.
std::string TextOf(const ldl::json::Value* v) {
  return v != nullptr && v->kind() == ldl::json::Value::Kind::kString
             ? v->text()
             : "";
}

/// headers + rows of one table, flattened out of the DOM; empty headers
/// means the table node was malformed.
struct FlatTable {
  std::string id;  ///< "<experiment id>/<table index>"
  std::vector<std::string> headers;
  std::vector<std::vector<std::string>> rows;
};

std::vector<FlatTable> ExtractTables(const ldl::json::Value& root) {
  using Kind = ldl::json::Value::Kind;
  std::vector<FlatTable> tables;
  const ldl::json::Value* experiments = root.Find("experiments");
  if (experiments == nullptr || experiments->kind() != Kind::kArray) {
    return tables;
  }
  for (const ldl::json::Value& exp : experiments->items()) {
    const ldl::json::Value* id = exp.Find("id");
    const ldl::json::Value* exp_tables = exp.Find("tables");
    if (exp_tables == nullptr || exp_tables->kind() != Kind::kArray) {
      continue;
    }
    for (size_t t = 0; t < exp_tables->items().size(); ++t) {
      const ldl::json::Value& table = exp_tables->items()[t];
      FlatTable flat;
      flat.id = TextOf(id) + "/" + std::to_string(t);
      const ldl::json::Value* headers = table.Find("headers");
      const ldl::json::Value* rows = table.Find("rows");
      if (headers != nullptr) {
        for (const ldl::json::Value& h : headers->items()) {
          flat.headers.push_back(TextOf(&h));
        }
      }
      if (rows != nullptr) {
        for (const ldl::json::Value& row : rows->items()) {
          std::vector<std::string> cells;
          for (const ldl::json::Value& cell : row.items()) {
            cells.push_back(
                cell.kind() == Kind::kNumber
                    ? std::to_string(std::strtod(cell.text().c_str(), nullptr))
                    : TextOf(&cell));
          }
          flat.rows.push_back(std::move(cells));
        }
      }
      tables.push_back(std::move(flat));
    }
  }
  return tables;
}

/// The host a bench file records, on one line; "unrecorded" when the file
/// has no host record.
std::string HostOf(const ldl::json::Value& root) {
  const ldl::json::Value* host = root.Find("host");
  if (host == nullptr || host->kind() != ldl::json::Value::Kind::kObject) {
    return "unrecorded";
  }
  std::string cpu, compiler, build_type;
  uint64_t nproc = 0;
  (void)host->Get("cpu", &cpu);
  (void)host->Get("nproc", &nproc);
  (void)host->Get("compiler", &compiler);
  (void)host->Get("build_type", &build_type);
  return cpu + ", " + std::to_string(nproc) + " cpus, " + compiler + ", " +
         (build_type.empty() ? "default" : build_type) + " build";
}

struct DiffCounts {
  size_t time_checked = 0;   ///< time cells compared
  size_t regressions = 0;    ///< time cells over the threshold
  size_t exact_checked = 0;  ///< exact cells compared
  size_t mismatches = 0;     ///< exact cells that differ
};

/// Number of key cells of a table row: the leading cells before the first
/// gated column or the first number, and at least one.
size_t KeyCells(const std::vector<std::string>& headers,
                const std::vector<std::string>& row) {
  size_t n = 0;
  while (n < headers.size() && n < row.size() &&
         !TimeLikeHeader(headers[n]) && !ExactHeader(headers[n]) &&
         !IsNumber(row[n])) {
    ++n;
  }
  return std::max<size_t>(n, 1);
}

/// Compares one bench file pair, adding its comparisons, regressions and
/// mismatches into `counts` and printing each failure.
void DiffFile(const std::string& name, const ldl::json::Value& baseline,
              const ldl::json::Value& current, const Options& options,
              DiffCounts* counts) {
  std::vector<FlatTable> base_tables = ExtractTables(baseline);
  std::vector<FlatTable> cur_tables = ExtractTables(current);

  for (const FlatTable& cur : cur_tables) {
    const FlatTable* base = nullptr;
    bool id_seen = false;
    for (const FlatTable& b : base_tables) {
      if (b.id != cur.id) continue;
      id_seen = true;
      if (b.headers == cur.headers) {
        base = &b;
        break;
      }
    }
    if (base == nullptr) {
      // A table the baseline has never seen is expected when a benchmark
      // grows a new experiment — the next --update-baselines records it.
      // Same id with different headers means the table was reshaped; both
      // are skips, not failures.
      std::cout << name << " " << cur.id
                << (id_seen ? ": baseline table has different headers "
                              "(reshaped), skipped\n"
                            : ": new table, skipped\n");
      continue;
    }
    const size_t rows = std::min(cur.rows.size(), base->rows.size());
    for (size_t r = 0; r < rows; ++r) {
      const auto& cur_row = cur.rows[r];
      const auto& base_row = base->rows[r];
      // Positional match must agree on the key cells; a reshaped row is a
      // skip, not a regression.
      if (cur_row.empty() || base_row.empty()) continue;
      const size_t keys = KeyCells(base->headers, base_row);
      if (cur_row.size() < keys ||
          !std::equal(base_row.begin(), base_row.begin() + keys,
                      cur_row.begin())) {
        std::cout << name << " " << cur.id << " row " << r
                  << ": key cells differ from the baseline (reshaped), "
                     "skipped\n";
        continue;
      }
      std::string label = base_row[0];
      for (size_t k = 1; k < keys; ++k) {
        label.append(" | ").append(base_row[k]);
      }
      for (size_t c = 0; c < cur.headers.size(); ++c) {
        if (c >= cur_row.size() || c >= base_row.size()) break;
        if (ExactHeader(cur.headers[c])) {
          ++counts->exact_checked;
          if (cur_row[c] != base_row[c]) {
            ++counts->mismatches;
            std::printf("%s %s [%s] row %zu \"%s\": %s -> %s (must match "
                        "exactly)\n",
                        name.c_str(), cur.id.c_str(), cur.headers[c].c_str(),
                        r, label.c_str(), base_row[c].c_str(),
                        cur_row[c].c_str());
          }
          continue;
        }
        if (!TimeLikeHeader(cur.headers[c])) continue;
        double cur_v = 0, base_v = 0;
        if (!ParseCell(cur_row[c], &cur_v) ||
            !ParseCell(base_row[c], &base_v)) {
          continue;
        }
        ++counts->time_checked;
        if (std::max(cur_v, base_v) < options.min_baseline_ms) continue;
        double limit = base_v * (1.0 + options.threshold_pct / 100.0);
        if (cur_v > limit) {
          ++counts->regressions;
          double pct = base_v > 0 ? (cur_v / base_v - 1.0) * 100.0 : 0;
          std::printf(
              "%s %s [%s] row \"%s\": %.3f -> %.3f ms (+%.0f%% > %.0f%%)\n",
              name.c_str(), cur.id.c_str(), cur.headers[c].c_str(),
              label.c_str(), base_v, cur_v, pct, options.threshold_pct);
        }
      }
    }
  }
}

}  // namespace

int main(int argc, char** argv) {
  Options options;
  std::vector<std::string> positional;
  for (int i = 1; i < argc; ++i) {
    std::string arg = argv[i];
    if (arg == "--threshold" && i + 1 < argc) {
      options.threshold_pct = std::atof(argv[++i]);
    } else if (arg == "--min-baseline" && i + 1 < argc) {
      options.min_baseline_ms = std::atof(argv[++i]);
    } else if (arg == "--update-baselines") {
      options.update_baselines = true;
    } else if (arg == "--help" || arg == "-h") {
      Usage();
      return 0;
    } else if (arg.size() > 1 && arg[0] == '-') {
      std::cerr << "bench_diff: unknown option " << arg << "\n";
      return Usage();
    } else {
      positional.push_back(arg);
    }
  }
  if (positional.size() != 2) return Usage();
  options.baseline_dir = positional[0];
  options.current_dir = positional[1];

  std::error_code ec;
  std::vector<fs::path> current_files;
  for (const auto& entry :
       fs::directory_iterator(options.current_dir, ec)) {
    const std::string file = entry.path().filename().string();
    if (file.rfind("BENCH_", 0) == 0 &&
        file.size() > 5 && file.substr(file.size() - 5) == ".json") {
      current_files.push_back(entry.path());
    }
  }
  if (ec) {
    std::cerr << "bench_diff: cannot read " << options.current_dir << ": "
              << ec.message() << "\n";
    return 2;
  }
  std::sort(current_files.begin(), current_files.end());
  if (current_files.empty()) {
    std::cerr << "bench_diff: no BENCH_*.json in " << options.current_dir
              << "\n";
    return 2;
  }

  if (options.update_baselines) {
    fs::create_directories(options.baseline_dir, ec);
    for (const fs::path& src : current_files) {
      fs::path dst = fs::path(options.baseline_dir) / src.filename();
      fs::copy_file(src, dst, fs::copy_options::overwrite_existing, ec);
      if (ec) {
        std::cerr << "bench_diff: cannot copy " << src << " -> " << dst
                  << ": " << ec.message() << "\n";
        return 2;
      }
      std::cout << "updated " << dst.string() << "\n";
    }
    return 0;
  }

  DiffCounts counts;
  for (const fs::path& cur_path : current_files) {
    const std::string name = cur_path.filename().string();
    fs::path base_path = fs::path(options.baseline_dir) / name;
    std::string base_text, cur_text;
    if (!ReadFile(base_path, &base_text)) {
      std::cout << name << ": no baseline (run with --update-baselines to "
                           "record one), skipped\n";
      continue;
    }
    if (!ReadFile(cur_path, &cur_text)) {
      std::cerr << "bench_diff: cannot read " << cur_path << "\n";
      return 2;
    }
    auto baseline = ldl::json::Parse(base_text);
    if (!baseline.ok()) {
      std::cerr << "bench_diff: " << base_path.string() << ": "
                << baseline.status().message() << "\n";
      return 2;
    }
    auto current = ldl::json::Parse(cur_text);
    if (!current.ok()) {
      std::cerr << "bench_diff: " << cur_path.string() << ": "
                << current.status().message() << "\n";
      return 2;
    }
    const size_t timed_before = counts.time_checked;
    DiffFile(name, *baseline, *current, options, &counts);
    if (counts.time_checked > timed_before) {
      std::printf("%s timings: baseline host %s; current host %s\n",
                  name.c_str(), HostOf(*baseline).c_str(),
                  HostOf(*current).c_str());
    }
  }

  std::printf("bench_diff: %zu time cells checked, %zu regression%s "
              "(threshold %.0f%%, floor %.1f ms); %zu exact cells checked, "
              "%zu mismatch%s\n",
              counts.time_checked, counts.regressions,
              counts.regressions == 1 ? "" : "s", options.threshold_pct,
              options.min_baseline_ms, counts.exact_checked,
              counts.mismatches, counts.mismatches == 1 ? "" : "es");
  return counts.regressions > 0 || counts.mismatches > 0 ? 1 : 0;
}
