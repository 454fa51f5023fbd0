#include "obs/search_trace.h"

#include "base/json.h"
#include "base/strings.h"

namespace ldl {

const char* CandidateDispositionToString(CandidateDisposition d) {
  switch (d) {
    case CandidateDisposition::kKept:
      return "kept";
    case CandidateDisposition::kDominated:
      return "dominated";
    case CandidateDisposition::kPrunedBound:
      return "pruned-bound";
    case CandidateDisposition::kPrunedUnsafe:
      return "pruned-unsafe";
    case CandidateDisposition::kMemoHit:
      return "memo-hit";
    case CandidateDisposition::kPrunedUnreachable:
      return "pruned-unreachable";
  }
  return "?";
}

uint32_t SearchTracer::CurrentScope() {
  if (!scope_stack_.empty()) return scope_stack_.back();
  // Candidates recorded outside any scope get an implicit root.
  scopes_.push_back({"(search)", -1});
  uint32_t root = static_cast<uint32_t>(scopes_.size() - 1);
  scope_stack_.push_back(root);
  return root;
}

uint32_t SearchTracer::BeginScope(std::string_view label) {
  if (!enabled_) return 0;
  SearchScopeInfo info;
  info.label.assign(label.data(), label.size());
  info.parent = scope_stack_.empty()
                    ? -1
                    : static_cast<int32_t>(scope_stack_.back());
  scopes_.push_back(std::move(info));
  uint32_t id = static_cast<uint32_t>(scopes_.size() - 1);
  scope_stack_.push_back(id);
  return id;
}

void SearchTracer::EndScope() {
  if (!enabled_) return;
  if (!scope_stack_.empty()) scope_stack_.pop_back();
}

uint32_t SearchTracer::InternDetail(std::string_view text) {
  if (text.empty()) {
    if (details_.empty()) details_.emplace_back();
    return 0;
  }
  if (details_.empty()) details_.emplace_back();
  details_.emplace_back(text);
  return static_cast<uint32_t>(details_.size() - 1);
}

void SearchTracer::RecordCandidate(const std::vector<size_t>& order,
                                   double cost,
                                   CandidateDisposition disposition,
                                   std::string_view detail) {
  if (!enabled_) return;
  if (candidates_.size() >= max_candidates_) {
    ++dropped_;
    return;
  }
  SearchCandidate c;
  c.scope = CurrentScope();
  c.order_offset = static_cast<uint32_t>(order_arena_.size());
  c.order_len = static_cast<uint32_t>(order.size());
  for (size_t idx : order) order_arena_.push_back(static_cast<uint32_t>(idx));
  c.cost = cost;
  c.disposition = disposition;
  c.detail = InternDetail(detail);
  candidates_.push_back(c);
}

void SearchTracer::RecordCandidateStep(const std::vector<size_t>& prefix,
                                       size_t next, double cost,
                                       CandidateDisposition disposition,
                                       std::string_view detail) {
  if (!enabled_) return;
  if (candidates_.size() >= max_candidates_) {
    ++dropped_;
    return;
  }
  SearchCandidate c;
  c.scope = CurrentScope();
  c.order_offset = static_cast<uint32_t>(order_arena_.size());
  c.order_len = static_cast<uint32_t>(prefix.size() + 1);
  for (size_t idx : prefix) order_arena_.push_back(static_cast<uint32_t>(idx));
  order_arena_.push_back(static_cast<uint32_t>(next));
  c.cost = cost;
  c.disposition = disposition;
  c.detail = InternDetail(detail);
  candidates_.push_back(c);
}

void SearchTracer::RecordMemoHit(uint32_t node, double cost) {
  if (!enabled_) return;
  if (candidates_.size() >= max_candidates_) {
    ++dropped_;
    return;
  }
  SearchCandidate c;
  c.scope = CurrentScope();
  c.order_offset = static_cast<uint32_t>(order_arena_.size());
  c.cost = cost;
  c.disposition = CandidateDisposition::kMemoHit;
  c.memo_node = node;
  candidates_.push_back(c);
}

uint32_t SearchTracer::InternMemoNode(std::string_view key) {
  if (!enabled_) return 0;
  auto it = memo_index_.find(key);
  if (it != memo_index_.end()) return it->second;
  MemoNodeInfo node;
  node.key.assign(key.data(), key.size());
  memo_.push_back(std::move(node));
  uint32_t id = static_cast<uint32_t>(memo_.size() - 1);
  memo_index_.emplace(memo_.back().key, id);
  return id;
}

void SearchTracer::SetMemoNode(uint32_t node, double cost, double card,
                               bool safe, std::string_view method,
                               std::string_view note) {
  if (!enabled_ || node >= memo_.size()) return;
  MemoNodeInfo& n = memo_[node];
  n.cost = cost;
  n.card = card;
  n.safe = safe;
  n.method.assign(method.data(), method.size());
  n.note.assign(note.data(), note.size());
}

void SearchTracer::AddMemoEdge(uint32_t parent, uint32_t child) {
  if (!enabled_ || parent >= memo_.size() || child >= memo_.size()) return;
  std::vector<uint32_t>& children = memo_[parent].children;
  for (uint32_t c : children) {
    if (c == child) return;
  }
  children.push_back(child);
}

void SearchTracer::MarkWinning(std::string_view key) {
  if (!enabled_) return;
  auto it = memo_index_.find(key);
  if (it != memo_index_.end()) memo_[it->second].winning = true;
}

void SearchTracer::Clear() {
  ++generation_;
  dropped_ = 0;
  scopes_.clear();
  scope_stack_.clear();
  candidates_.clear();
  order_arena_.clear();
  details_.clear();
  memo_.clear();
  memo_index_.clear();
}

std::vector<size_t> SearchTracer::OrderOf(const SearchCandidate& c) const {
  std::vector<size_t> order;
  order.reserve(c.order_len);
  for (uint32_t i = 0; i < c.order_len; ++i) {
    order.push_back(order_arena_[c.order_offset + i]);
  }
  return order;
}

const std::string& SearchTracer::DetailOf(const SearchCandidate& c) const {
  static const std::string kEmpty;
  if (c.memo_node != UINT32_MAX && c.memo_node < memo_.size()) {
    return memo_[c.memo_node].key;
  }
  if (c.detail == 0 || c.detail >= details_.size()) return kEmpty;
  return details_[c.detail];
}

size_t SearchTracer::CountDisposition(CandidateDisposition d) const {
  size_t n = 0;
  for (const SearchCandidate& c : candidates_) {
    if (c.disposition == d) ++n;
  }
  return n;
}

void SearchTracer::WriteJson(std::ostream& os) const {
  os << "{\"scopes\":[";
  for (size_t i = 0; i < scopes_.size(); ++i) {
    if (i) os << ',';
    os << "{\"id\":" << i << ",\"label\":\"" << JsonEscape(scopes_[i].label)
       << "\",\"parent\":" << scopes_[i].parent << "}";
  }
  os << "],\"candidates\":[";
  for (size_t i = 0; i < candidates_.size(); ++i) {
    const SearchCandidate& c = candidates_[i];
    if (i) os << ',';
    os << "{\"scope\":" << c.scope << ",\"order\":[";
    for (uint32_t j = 0; j < c.order_len; ++j) {
      if (j) os << ',';
      os << order_arena_[c.order_offset + j];
    }
    // Unsafe subplans are priced at +inf (§8.2): json::Number quotes it.
    os << "],\"cost\":" << json::Number(c.cost) << ",\"disposition\":\""
       << CandidateDispositionToString(c.disposition) << "\"";
    if (!DetailOf(c).empty()) {
      os << ",\"detail\":\"" << JsonEscape(DetailOf(c)) << "\"";
    }
    os << "}";
  }
  os << "],\"dropped_candidates\":" << dropped_ << ",\"memo\":[";
  for (size_t i = 0; i < memo_.size(); ++i) {
    const MemoNodeInfo& n = memo_[i];
    if (i) os << ',';
    os << "{\"key\":\"" << JsonEscape(n.key)
       << "\",\"cost\":" << json::Number(n.cost)
       << ",\"card\":" << json::Number(n.card) << ",\"safe\":" << (n.safe ? "true" : "false")
       << ",\"winning\":" << (n.winning ? "true" : "false");
    if (!n.method.empty()) {
      os << ",\"method\":\"" << JsonEscape(n.method) << "\"";
    }
    if (!n.note.empty()) os << ",\"note\":\"" << JsonEscape(n.note) << "\"";
    os << ",\"children\":[";
    for (size_t j = 0; j < n.children.size(); ++j) {
      if (j) os << ',';
      os << n.children[j];
    }
    os << "]}";
  }
  os << "]}\n";
}

namespace {

/// DOT double-quoted string escaping (quotes and backslashes).
std::string DotEscape(const std::string& text) {
  std::string out;
  out.reserve(text.size());
  for (char ch : text) {
    if (ch == '"' || ch == '\\') out.push_back('\\');
    out.push_back(ch);
  }
  return out;
}

}  // namespace

void SearchTracer::WriteDot(std::ostream& os) const {
  os << "digraph memo_lattice {\n"
     << "  rankdir=TB;\n"
     << "  node [shape=box, fontname=\"monospace\", fontsize=10];\n";
  for (size_t i = 0; i < memo_.size(); ++i) {
    const MemoNodeInfo& n = memo_[i];
    os << "  n" << i << " [label=\"" << DotEscape(n.key);
    if (n.safe) {
      os << "\\ncost " << n.cost << "  card " << n.card;
      if (!n.method.empty()) os << "\\n" << DotEscape(n.method);
    } else {
      os << "\\nUNSAFE";
    }
    os << "\"";
    if (!n.safe) {
      os << ", color=gray, fontcolor=gray";
    } else if (n.winning) {
      os << ", style=filled, fillcolor=lightgoldenrod, penwidth=2";
    }
    os << "];\n";
  }
  for (size_t i = 0; i < memo_.size(); ++i) {
    for (uint32_t child : memo_[i].children) {
      os << "  n" << i << " -> n" << child;
      if (memo_[i].winning && child < memo_.size() &&
          memo_[child].winning) {
        os << " [color=red, penwidth=2]";
      }
      os << ";\n";
    }
  }
  os << "}\n";
}

}  // namespace ldl
