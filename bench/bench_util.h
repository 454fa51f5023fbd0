#ifndef LDLOPT_BENCH_BENCH_UTIL_H_
#define LDLOPT_BENCH_BENCH_UTIL_H_

#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <string>
#include <thread>
#include <vector>

#include "base/strings.h"

namespace ldl {
namespace bench {

#ifndef LDLOPT_BUILD_TYPE
#define LDLOPT_BUILD_TYPE ""
#endif

/// The machine a bench ran on, as every BENCH_*.json records it: timings
/// are comparable only between runs on the same kind of host.
struct HostRecord {
  std::string cpu;  ///< /proc/cpuinfo "model name"; "unknown" elsewhere
  unsigned nproc = 0;
  std::string compiler;
  std::string build_type;

  static HostRecord Current() {
    HostRecord host;
    host.cpu = "unknown";
    std::ifstream cpuinfo("/proc/cpuinfo");
    for (std::string line; std::getline(cpuinfo, line);) {
      if (line.rfind("model name", 0) != 0) continue;
      const size_t start = line.find_first_not_of(" \t:", line.find(':'));
      if (start != std::string::npos) host.cpu = line.substr(start);
      break;
    }
    host.nproc = std::thread::hardware_concurrency();
#if defined(__clang__)
    host.compiler = "clang " __clang_version__;
#elif defined(__GNUC__)
    host.compiler = "gcc " __VERSION__;
#else
    host.compiler = "unknown";
#endif
    host.build_type = LDLOPT_BUILD_TYPE;
    return host;
  }
};

/// Process-wide collector mirroring every Banner section and printed Table
/// into machine-readable JSON. Each bench binary calls FlushJson(name) at
/// exit to write BENCH_<name>.json next to the human tables, so runs can be
/// diffed or plotted without scraping stdout.
class JsonSink {
 public:
  static JsonSink& Global() {
    static JsonSink sink;
    return sink;
  }

  void BeginSection(const std::string& id, const std::string& title) {
    sections_.push_back({id, title, {}});
  }

  void AddTable(const std::vector<std::string>& headers,
                const std::vector<std::vector<std::string>>& rows) {
    if (sections_.empty()) BeginSection("", "");
    sections_.back().tables.push_back({headers, rows});
  }

  /// Writes BENCH_<name>.json into $LDL_BENCH_JSON_DIR (default: the
  /// current directory), with the host it ran on (HostRecord). Set
  /// LDL_BENCH_JSON=0 to disable.
  void Flush(const std::string& name) const {
    const char* toggle = std::getenv("LDL_BENCH_JSON");
    if (toggle != nullptr && std::string(toggle) == "0") return;
    std::string dir;
    if (const char* env = std::getenv("LDL_BENCH_JSON_DIR")) dir = env;
    std::string path =
        (dir.empty() ? "" : dir + "/") + "BENCH_" + name + ".json";
    std::ofstream out(path);
    if (!out) {
      std::fprintf(stderr, "bench: cannot write %s\n", path.c_str());
      return;
    }
    const HostRecord host = HostRecord::Current();
    out << "{\"bench\":\"" << JsonEscape(name) << "\",\"host\":{\"cpu\":\""
        << JsonEscape(host.cpu) << "\",\"nproc\":" << host.nproc
        << ",\"compiler\":\"" << JsonEscape(host.compiler)
        << "\",\"build_type\":\"" << JsonEscape(host.build_type)
        << "\"},\"experiments\":[";
    for (size_t s = 0; s < sections_.size(); ++s) {
      if (s) out << ",";
      const Section& section = sections_[s];
      out << "{\"id\":\"" << JsonEscape(section.id) << "\",\"title\":\""
          << JsonEscape(section.title) << "\",\"tables\":[";
      for (size_t t = 0; t < section.tables.size(); ++t) {
        if (t) out << ",";
        WriteTable(out, section.tables[t]);
      }
      out << "]}";
    }
    out << "]}\n";
    std::printf("wrote %s\n", path.c_str());
  }

 private:
  struct TableData {
    std::vector<std::string> headers;
    std::vector<std::vector<std::string>> rows;
  };
  struct Section {
    std::string id;
    std::string title;
    std::vector<TableData> tables;
  };

  static void WriteStringArray(std::ofstream& out,
                               const std::vector<std::string>& items) {
    out << "[";
    for (size_t i = 0; i < items.size(); ++i) {
      if (i) out << ",";
      out << "\"" << JsonEscape(items[i]) << "\"";
    }
    out << "]";
  }

  static void WriteTable(std::ofstream& out, const TableData& table) {
    out << "{\"headers\":";
    WriteStringArray(out, table.headers);
    out << ",\"rows\":[";
    for (size_t r = 0; r < table.rows.size(); ++r) {
      if (r) out << ",";
      WriteStringArray(out, table.rows[r]);
    }
    out << "]}";
  }

  std::vector<Section> sections_;
};

/// Fixed-width console table, used to print the paper-style result tables
/// that each bench binary regenerates. Print() also registers the table
/// with the JsonSink so FlushJson exports it.
class Table {
 public:
  explicit Table(std::vector<std::string> headers)
      : headers_(std::move(headers)) {}

  void AddRow(std::vector<std::string> row) { rows_.push_back(std::move(row)); }

  void Print() const {
    JsonSink::Global().AddTable(headers_, rows_);
    std::vector<size_t> widths(headers_.size());
    for (size_t c = 0; c < headers_.size(); ++c) widths[c] = headers_[c].size();
    for (const auto& row : rows_) {
      for (size_t c = 0; c < row.size() && c < widths.size(); ++c) {
        widths[c] = std::max(widths[c], row[c].size());
      }
    }
    auto print_row = [&widths](const std::vector<std::string>& row) {
      std::printf("|");
      for (size_t c = 0; c < widths.size(); ++c) {
        const std::string& cell = c < row.size() ? row[c] : std::string();
        std::printf(" %-*s |", static_cast<int>(widths[c]), cell.c_str());
      }
      std::printf("\n");
    };
    print_row(headers_);
    std::printf("|");
    for (size_t c = 0; c < widths.size(); ++c) {
      std::printf("%s|", std::string(widths[c] + 2, '-').c_str());
    }
    std::printf("\n");
    for (const auto& row : rows_) print_row(row);
    std::printf("\n");
  }

 private:
  std::vector<std::string> headers_;
  std::vector<std::vector<std::string>> rows_;
};

/// printf-style float formatting into std::string.
inline std::string Fmt(double v, const char* fmt = "%.3g") {
  char buf[64];
  std::snprintf(buf, sizeof(buf), fmt, v);
  return buf;
}

inline std::string Pct(size_t num, size_t den) {
  if (den == 0) return "-";
  char buf[32];
  std::snprintf(buf, sizeof(buf), "%.0f%%",
                100.0 * static_cast<double>(num) / static_cast<double>(den));
  return buf;
}

/// Wall-clock stopwatch in milliseconds.
class Stopwatch {
 public:
  Stopwatch() : start_(std::chrono::steady_clock::now()) {}
  double ElapsedMs() const {
    auto end = std::chrono::steady_clock::now();
    return std::chrono::duration<double, std::milli>(end - start_).count();
  }

 private:
  std::chrono::steady_clock::time_point start_;
};

inline void Banner(const char* id, const char* title) {
  std::printf("==============================================================\n");
  std::printf("%s — %s\n", id, title);
  std::printf("==============================================================\n");
  JsonSink::Global().BeginSection(id, title);
}

/// Writes the collected sections/tables as BENCH_<name>.json (see
/// JsonSink::Flush). Call once at the end of main.
inline void FlushJson(const char* name) { JsonSink::Global().Flush(name); }

}  // namespace bench
}  // namespace ldl

#endif  // LDLOPT_BENCH_BENCH_UTIL_H_
