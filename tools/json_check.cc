// json_check — validates observability output files.
//
// Usage: json_check [--jsonl] file [file ...]
//
// Default mode parses each file with ldlopt's JSON reader (base/json.h:
// RFC 8259, nesting capped at 1024 levels), so CI can assert that the JSON
// the observability tools emit (Chrome traces, metrics dumps, bench
// results) will load anywhere. Errors carry the byte offset.
//
// With --jsonl, each input is JSON Lines (one JSON value per non-empty
// line — the query-log format); every line is validated independently and
// errors carry the line number.
//
// Exit status: 0 all files valid, 1 any invalid/unreadable, 2 usage error.

#include <fstream>
#include <iostream>
#include <sstream>
#include <string>

#include "base/json.h"

int main(int argc, char** argv) {
  bool jsonl = false;
  int first_file = 1;
  while (first_file < argc && argv[first_file][0] == '-' &&
         argv[first_file][1] != '\0') {
    const std::string arg = argv[first_file];
    if (arg == "--jsonl") {
      jsonl = true;
    } else {
      std::cerr << "json_check: unknown option " << arg << "\n";
      return 2;
    }
    ++first_file;
  }
  if (first_file >= argc) {
    std::cerr << "usage: json_check [--jsonl] file [file ...]\n";
    return 2;
  }
  int failures = 0;
  for (int i = first_file; i < argc; ++i) {
    std::ifstream in(argv[i]);
    if (!in) {
      std::cerr << argv[i] << ": cannot read file\n";
      ++failures;
      continue;
    }
    if (jsonl) {
      std::string line;
      size_t lineno = 0;
      size_t values = 0;
      bool bad = false;
      while (std::getline(in, line)) {
        ++lineno;
        if (line.empty()) continue;
        const auto parsed = ldl::json::Parse(line);
        if (!parsed.ok()) {
          std::cerr << argv[i] << ": line " << lineno << ": invalid JSON: "
                    << parsed.status().message() << "\n";
          bad = true;
        } else {
          ++values;
        }
      }
      if (bad) {
        ++failures;
      } else {
        std::cout << argv[i] << ": ok (" << values << " values)\n";
      }
      continue;
    }
    std::ostringstream buffer;
    buffer << in.rdbuf();
    const auto parsed = ldl::json::Parse(buffer.str());
    if (!parsed.ok()) {
      std::cerr << argv[i] << ": invalid JSON: " << parsed.status().message()
                << "\n";
      ++failures;
    } else {
      std::cout << argv[i] << ": ok\n";
    }
  }
  return failures > 0 ? 1 : 0;
}
