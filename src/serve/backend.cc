// The scoring-backend seam and its process-wide registry. The built-in
// engines and the list that registers them are in backends/builtins.cc.

#include "serve/backend.h"

#include <cmath>
#include <map>
#include <mutex>
#include <utility>

namespace adamine::serve {

namespace {

struct RegistryEntry {
  BackendFactory factory;
  BackendTraits traits;
};

struct Registry {
  std::mutex mu;
  std::map<std::string, RegistryEntry> entries;  // Sorted by name.
};

/// Built on first access from the one list of built-ins (see
/// internal::BuiltinBackends), not through RegisterBackend, which would
/// re-enter this initializer.
Registry& GlobalRegistry() {
  static Registry& registry = *[]() {
    auto* r = new Registry();
    for (internal::BuiltinBackend& builtin : internal::BuiltinBackends()) {
      r->entries[builtin.name] = {std::move(builtin.factory), builtin.traits};
    }
    return r;
  }();
  return registry;
}

/// Caller holds registry.mu.
std::string JoinRegisteredNames(const Registry& registry) {
  std::string names;
  for (const auto& [name, entry] : registry.entries) {
    if (!names.empty()) names += ", ";
    names += name;
  }
  return names;
}

Status UnknownBackend(const std::string& name, const Registry& registry) {
  return Status::InvalidArgument("unknown backend '" + name +
                                 "'; registered backends: " +
                                 JoinRegisteredNames(registry));
}

}  // namespace

Status BackendOptions::Validate() const {
  ADAMINE_RETURN_IF_ERROR(ivf.Validate());
  if (rerank_factor < 1) {
    return Status::InvalidArgument("rerank_factor must be >= 1");
  }
  if (seal_threshold < 1) {
    return Status::InvalidArgument("seal_threshold must be >= 1");
  }
  if (memtable_max_rows < 0 || memtable_max_bytes < 0 || max_seal_lag < 0) {
    return Status::InvalidArgument(
        "memtable budgets and max_seal_lag must be >= 0 (0 = unbounded)");
  }
  if (memtable_max_rows > 0 && memtable_max_rows < seal_threshold) {
    return Status::InvalidArgument(
        "memtable_max_rows below seal_threshold would backpressure before "
        "sealing can ever trigger");
  }
  if (admit_wait_ms < 0.0 || scrub_interval_ms < 0.0) {
    return Status::InvalidArgument(
        "admit_wait_ms/scrub_interval_ms must be >= 0");
  }
  return Status::Ok();
}

StatusOr<TopKResult> ScoringBackend::ScoreTopK(const QueryBatch& batch,
                                               int64_t k,
                                               const QueryOptions& options) {
  if (k <= 0) {
    return Status::InvalidArgument("k must be positive");
  }
  if (batch.empty()) return TopKResult{};  // Zero queries, zero rows.
  if (batch.queries.ndim() != 2) {
    return Status::InvalidArgument("queries must be 2-D [B, D]");
  }
  if (batch.queries.cols() != dim()) {
    return Status::InvalidArgument(
        "query dim " + std::to_string(batch.queries.cols()) +
        " does not match corpus dim " + std::to_string(dim()));
  }
  // A non-finite query value makes NaN or infinite scores, and NaN breaks
  // the strict weak ordering every ranking relies on: there is no answer.
  const float* values = batch.queries.data();
  for (int64_t i = 0; i < batch.queries.numel(); ++i) {
    if (!std::isfinite(values[i])) {
      return Status::InvalidArgument(
          "query row " + std::to_string(i / dim()) +
          " has a non-finite value at column " + std::to_string(i % dim()));
    }
  }
  return ScoreTopKImpl(batch, k, options);
}

Status ScoringBackend::SetProbes(int64_t /*probes*/) {
  return Status::FailedPrecondition(
      std::string("backend '") + name() +
      "' has no probe dial (probes apply only to backends with a coarse "
      "quantiser, e.g. ivf)");
}

StatusOr<int64_t> ScoringBackend::Add(const Tensor& /*row*/) {
  return Status::FailedPrecondition(
      std::string("backend '") + name() +
      "' is immutable (live mutation needs the mutable backend; see "
      "src/mutate/)");
}

Status ScoringBackend::Delete(int64_t /*id*/) {
  return Status::FailedPrecondition(
      std::string("backend '") + name() +
      "' is immutable (live mutation needs the mutable backend; see "
      "src/mutate/)");
}

Status RegisterBackend(const std::string& name, BackendFactory factory,
                       const BackendTraits& traits) {
  if (name.empty()) {
    return Status::InvalidArgument("backend name must be non-empty");
  }
  if (!factory) {
    return Status::InvalidArgument("backend '" + name +
                                   "' registered without a factory");
  }
  Registry& registry = GlobalRegistry();
  std::lock_guard<std::mutex> lock(registry.mu);
  if (registry.entries.count(name) != 0) {
    return Status::InvalidArgument("backend '" + name +
                                   "' is already registered");
  }
  registry.entries[name] = {std::move(factory), traits};
  return Status::Ok();
}

StatusOr<std::unique_ptr<ScoringBackend>> CreateBackend(
    const std::string& name, const BackendConfig& config) {
  BackendFactory factory;
  {
    Registry& registry = GlobalRegistry();
    std::lock_guard<std::mutex> lock(registry.mu);
    auto it = registry.entries.find(name);
    if (it == registry.entries.end()) {
      return UnknownBackend(name, registry);
    }
    factory = it->second.factory;
  }
  // The factory runs outside the registry lock: building an index or
  // booting a remote topology may be slow, and a factory may itself
  // consult the registry.
  return factory(config);
}

std::vector<std::string> RegisteredBackendNames() {
  Registry& registry = GlobalRegistry();
  std::lock_guard<std::mutex> lock(registry.mu);
  std::vector<std::string> names;
  names.reserve(registry.entries.size());
  for (const auto& [name, entry] : registry.entries) names.push_back(name);
  return names;
}

StatusOr<BackendTraits> TraitsOfBackend(const std::string& name) {
  Registry& registry = GlobalRegistry();
  std::lock_guard<std::mutex> lock(registry.mu);
  auto it = registry.entries.find(name);
  if (it == registry.entries.end()) return UnknownBackend(name, registry);
  return it->second.traits;
}

}  // namespace adamine::serve
