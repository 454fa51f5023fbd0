#include "obs/feedback.h"

#include <algorithm>
#include <cmath>
#include <fstream>
#include <sstream>
#include <utility>

#include "base/json.h"
#include "base/strings.h"
#include "obs/calibration.h"

namespace ldl {

namespace {

/// One element of an export's "entries" array, validated.
Result<std::pair<AdornedPredicate, CatalogEntry>> ParseEntry(
    const json::Value& item) {
  if (item.kind() != json::Value::Kind::kObject) {
    return Status::InvalidArgument(StrCat(
        "stats catalog: entry is not an object at offset ", item.offset()));
  }
  std::string predicate;
  uint64_t arity = 0;
  std::string adornment;
  CatalogEntry entry;
  LDL_RETURN_NOT_OK(item.Get("predicate", &predicate));
  LDL_RETURN_NOT_OK(item.Get("arity", &arity));
  LDL_RETURN_NOT_OK(item.Get("adornment", &adornment));
  LDL_RETURN_NOT_OK(item.Get("card", &entry.card));
  LDL_RETURN_NOT_OK(item.Get("weight", &entry.weight));
  LDL_RETURN_NOT_OK(item.Get("observations", &entry.observations));
  LDL_RETURN_NOT_OK(item.Get("first_epoch", &entry.first_epoch));
  LDL_RETURN_NOT_OK(item.Get("last_epoch", &entry.last_epoch));
  if (predicate.empty()) {
    return Status::InvalidArgument("stats catalog: entry without predicate");
  }
  LDL_ASSIGN_OR_RETURN(Adornment adn, Adornment::FromString(adornment));
  if (adn.size() != arity) {
    return Status::InvalidArgument(
        StrCat("stats catalog: ", predicate, "/", arity, ": adornment \"",
               adornment, "\" does not match arity"));
  }
  if (!std::isfinite(entry.card) || entry.card < 0 ||
      !std::isfinite(entry.weight) || entry.weight < 0) {
    return Status::InvalidArgument(
        StrCat("stats catalog: ", predicate, "/", arity,
               ": non-finite or negative card/weight"));
  }
  return std::pair{AdornedPredicate{PredicateId{predicate, arity}, adn},
                   entry};
}

}  // namespace

void StatisticsCatalog::Observe(const PredicateId& pred, const Adornment& adn,
                                double card, uint64_t epoch) {
  if (!std::isfinite(card) || card < 0) return;
  std::lock_guard<std::mutex> lock(mu_);
  const AdornedPredicate key{pred, adn};
  auto it = entries_.find(key);
  if (it == entries_.end()) {
    if (entries_.size() >= options_.max_entries) {
      ++dropped_observations_;
      return;
    }
    it = entries_.emplace(key, CatalogEntry{}).first;
    it->second.first_epoch = epoch;
  }
  CatalogEntry& e = it->second;
  const double aged = options_.decay * e.weight;
  e.card = (aged * e.card + card) / (aged + 1.0);
  e.weight = aged + 1.0;
  e.observations += 1;
  e.last_epoch = epoch;
  ++total_observations_;
}

void StatisticsCatalog::ObserveMeasured(const MeasuredStatistics& measured,
                                        uint64_t epoch) {
  for (const auto& [key, card] : measured.Entries()) {
    Observe(key.pred, key.adornment, card, epoch);
  }
}

bool StatisticsCatalog::Lookup(const PredicateId& pred, const Adornment& adn,
                               CatalogEntry* out) const {
  std::lock_guard<std::mutex> lock(mu_);
  auto it = entries_.find(AdornedPredicate{pred, adn});
  if (it == entries_.end()) return false;
  *out = it->second;
  return true;
}

size_t StatisticsCatalog::size() const {
  std::lock_guard<std::mutex> lock(mu_);
  return entries_.size();
}

uint64_t StatisticsCatalog::total_observations() const {
  std::lock_guard<std::mutex> lock(mu_);
  return total_observations_;
}

uint64_t StatisticsCatalog::dropped_observations() const {
  std::lock_guard<std::mutex> lock(mu_);
  return dropped_observations_;
}

std::vector<std::pair<AdornedPredicate, CatalogEntry>>
StatisticsCatalog::Entries() const {
  std::lock_guard<std::mutex> lock(mu_);
  return {entries_.begin(), entries_.end()};
}

MeasuredStatistics StatisticsCatalog::BlendedOverlay(
    const Statistics& stats) const {
  std::lock_guard<std::mutex> lock(mu_);
  MeasuredStatistics overlay;
  for (const auto& [key, e] : entries_) {
    if (e.weight <= 0) continue;
    if (key.adornment.AllArgsFree() && stats.Has(key.pred)) {
      // A real estimate exists: ramp from it toward the measured truth as
      // evidence accumulates, so one noisy observation cannot hijack a
      // well-grounded catalog cardinality.
      const double est = stats.Get(key.pred).cardinality;
      const double blend = e.weight / (e.weight + options_.blend_weight);
      overlay.Set(key.pred, key.adornment,
                  blend * e.card + (1.0 - blend) * est);
    } else if (e.weight >= options_.min_weight) {
      // Adorned bindings and derived predicates have only the default-stats
      // placeholder to "blend" with; the measurement is strictly better.
      overlay.Set(key.pred, key.adornment, e.card);
    }
  }
  return overlay;
}

void StatisticsCatalog::WriteJson(std::ostream& os) const {
  os << ToJson();
}

std::string StatisticsCatalog::ToJson() const {
  std::lock_guard<std::mutex> lock(mu_);
  std::string out = "{";
  json::AppendField(&out, "version", static_cast<uint64_t>(1));
  json::AppendField(&out, "decay", options_.decay);
  StrAppend(&out, "\"entries\":[");
  bool first = true;
  for (const auto& [key, e] : entries_) {
    if (!first) out.push_back(',');
    first = false;
    std::string obj = "{";
    json::AppendField(&obj, "predicate", key.pred.name);
    json::AppendField(&obj, "arity", static_cast<uint64_t>(key.pred.arity));
    json::AppendField(&obj, "adornment", key.adornment.ToString());
    json::AppendField(&obj, "card", e.card);
    json::AppendField(&obj, "weight", e.weight);
    json::AppendField(&obj, "observations", e.observations);
    json::AppendField(&obj, "first_epoch", e.first_epoch);
    json::AppendField(&obj, "last_epoch", e.last_epoch);
    obj.back() = '}';  // replace the trailing comma
    StrAppend(&out, obj);
  }
  StrAppend(&out, "]}");
  return out;
}

Status StatisticsCatalog::MergeJson(const std::string& text) {
  LDL_ASSIGN_OR_RETURN(json::Value doc, json::Parse(text));
  if (doc.kind() != json::Value::Kind::kObject) {
    return Status::InvalidArgument("stats catalog: not a JSON object");
  }
  uint64_t version = 0;
  LDL_RETURN_NOT_OK(doc.Get("version", &version));
  if (version > 1) {
    return Status::InvalidArgument(
        StrCat("stats catalog: unsupported version ", version));
  }
  // "decay" and unknown keys are informational.
  const json::Value* entries = doc.Find("entries");
  if (entries != nullptr && entries->kind() != json::Value::Kind::kArray) {
    return Status::InvalidArgument(
        StrCat("stats catalog: \"entries\" is not an array at offset ",
               entries->offset()));
  }

  // Validate fully before mutating: an import either applies or doesn't.
  std::vector<std::pair<AdornedPredicate, CatalogEntry>> parsed;
  if (entries != nullptr) {
    for (const json::Value& item : entries->items()) {
      LDL_ASSIGN_OR_RETURN(auto entry, ParseEntry(item));
      parsed.push_back(std::move(entry));
    }
  }

  std::lock_guard<std::mutex> lock(mu_);
  for (auto& [key, imported] : parsed) {
    auto it = entries_.find(key);
    if (it == entries_.end()) {
      if (entries_.size() >= options_.max_entries) {
        ++dropped_observations_;
        continue;
      }
      entries_.emplace(key, imported);
      total_observations_ += imported.observations;
      continue;
    }
    // Merge into an existing stream: the resident weight ages one decay
    // step, then the imported evidence folds in at its own weight — an
    // import into an empty slot is an exact copy.
    CatalogEntry& e = it->second;
    const double aged = options_.decay * e.weight;
    const double total = aged + imported.weight;
    if (total > 0) {
      e.card = (aged * e.card + imported.weight * imported.card) / total;
    }
    e.weight = total;
    e.observations += imported.observations;
    e.first_epoch = std::min(e.first_epoch, imported.first_epoch);
    e.last_epoch = std::max(e.last_epoch, imported.last_epoch);
    total_observations_ += imported.observations;
  }
  return Status::OK();
}

Status StatisticsCatalog::ExportFile(const std::string& path) const {
  std::ofstream out(path);
  if (!out) {
    return Status::InvalidArgument(
        StrCat("cannot write stats catalog: ", path));
  }
  out << ToJson() << "\n";
  return Status::OK();
}

Status StatisticsCatalog::ImportFile(const std::string& path) {
  std::ifstream in(path);
  if (!in) {
    return Status::NotFound(StrCat("cannot read stats catalog: ", path));
  }
  std::ostringstream buffer;
  buffer << in.rdbuf();
  return MergeJson(buffer.str());
}

void StatisticsCatalog::ExportTo(MetricsRegistry* metrics) const {
  if (metrics == nullptr) return;
  std::lock_guard<std::mutex> lock(mu_);
  metrics->gauge("feedback.catalog_entries")
      ->Set(static_cast<double>(entries_.size()));
  metrics->gauge("feedback.observations")
      ->Set(static_cast<double>(total_observations_));
  metrics->gauge("feedback.dropped_observations")
      ->Set(static_cast<double>(dropped_observations_));
}

size_t DriftDetector::Check(const StatisticsCatalog& catalog,
                            Statistics* stats, MetricsRegistry* metrics) {
  if (stats == nullptr) return 0;
  std::lock_guard<std::mutex> lock(mu_);
  double max_q = 1.0;
  std::vector<DriftEvent> tripped;
  for (const auto& [key, e] : catalog.Entries()) {
    // Only hot all-free entries of predicates with *real* statistics can
    // drift: everything else costs through the default-stats placeholder,
    // which is not an estimate the epoch should churn over.
    if (!key.adornment.AllArgsFree()) continue;
    if (e.observations < options_.hot_observations) continue;
    if (!stats->Has(key.pred)) continue;
    const double est = stats->Get(key.pred).cardinality;
    const double q = QError(est, e.card);
    if (q > max_q) max_q = q;
    if (q < options_.drift_q_threshold) continue;
    auto it = tripped_epoch_.find(key);
    if (it != tripped_epoch_.end() && it->second == stats->epoch()) {
      continue;  // already reported against this statistics generation
    }
    DriftEvent event;
    event.key = key;
    event.measured = e.card;
    event.estimated = est;
    event.q_error = q;
    event.old_epoch = stats->epoch();
    tripped.push_back(event);
  }
  last_max_q_ = max_q;
  if (metrics != nullptr) {
    metrics->gauge("feedback.max_q_error")->Set(max_q);
  }
  if (tripped.empty()) return 0;

  // One epoch bump per detection, however many keys diverged: the epoch
  // numbers statistics generations, not individual divergences.
  const uint64_t new_epoch = stats->epoch() + 1;
  stats->set_epoch(new_epoch);
  for (DriftEvent& event : tripped) {
    event.new_epoch = new_epoch;
    tripped_epoch_[event.key] = new_epoch;
    history_.push_back(event);
  }
  if (history_.size() > kMaxHistory) {
    history_.erase(history_.begin(),
                   history_.begin() +
                       static_cast<std::ptrdiff_t>(history_.size() -
                                                   kMaxHistory));
  }
  drift_events_ += tripped.size();
  if (metrics != nullptr) {
    metrics->counter("feedback.drift_events")
        ->Increment(static_cast<uint64_t>(tripped.size()));
  }
  return tripped.size();
}

uint64_t DriftDetector::drift_events() const {
  std::lock_guard<std::mutex> lock(mu_);
  return drift_events_;
}

double DriftDetector::last_max_q_error() const {
  std::lock_guard<std::mutex> lock(mu_);
  return last_max_q_;
}

std::vector<DriftEvent> DriftDetector::history() const {
  std::lock_guard<std::mutex> lock(mu_);
  return history_;
}

}  // namespace ldl
