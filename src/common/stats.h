// Small statistics helpers used by benchmarks and the metrics registry.
//
// Every counter struct here self-describes to the metrics registry (DESIGN.md §12.2):
// `kGroupName` names its group, `VisitFields` walks its exported fields in a fixed order,
// and `Clear()` comes from the shared CRTP base instead of per-struct boilerplate. New
// counter structs must follow the same shape — scripts/lint_invariants.py (rule
// counters-register) rejects a `*Counters` struct without kGroupName + VisitFields.

#ifndef NIMBUS_SRC_COMMON_STATS_H_
#define NIMBUS_SRC_COMMON_STATS_H_

#include <algorithm>
#include <array>
#include <cmath>
#include <cstddef>
#include <cstdint>
#include <vector>

namespace nimbus {

namespace detail {

// Shared reset: value-reinitialize the derived struct.
template <typename T>
struct ClearableCounters {
  void Clear() { *static_cast<T*>(this) = T{}; }
};

}  // namespace detail

// Hit/miss/eviction counters for the control plane's caches (patch cache, projection
// cache...). Benchmarks export these through their reporters; examples print HitRate().
struct CacheCounters : detail::ClearableCounters<CacheCounters> {
  std::uint64_t hits = 0;
  std::uint64_t misses = 0;
  std::uint64_t evictions = 0;

  std::uint64_t lookups() const { return hits + misses; }
  double HitRate() const {
    return lookups() == 0 ? 0.0 : static_cast<double>(hits) / static_cast<double>(lookups());
  }

  static constexpr const char* kGroupName = "cache";
  template <typename V>
  void VisitFields(V&& visit) const {
    visit("hits", hits);
    visit("misses", misses);
    visit("evictions", evictions);
  }
};

// Accounting for the instantiation pipeline (DESIGN.md §7). The group keeps the name it had
// when the pipeline was sharded, so exported metric names stay stable.
struct ShardCounters : detail::ClearableCounters<ShardCounters> {
  std::uint64_t validate_batches = 0;
  std::uint64_t apply_batches = 0;
  std::uint64_t assemble_jobs = 0;
  // Set-plan cache (one plan record per worker-template set, revalidated by map uid + set
  // edit generation). `plan_builds` counts cold builds AND invalidation rebuilds; steady
  // state is all reuses.
  std::uint64_t plan_builds = 0;
  std::uint64_t plan_reuses = 0;
  // Commands built by the serialized central path's cold encodes (DESIGN.md §10): the
  // explicit command lists a cached half encoding is produced from. Steady state adds none.
  std::uint64_t commands_assembled = 0;
  std::uint64_t preconditions_checked = 0;
  std::uint64_t validation_failures = 0;
  std::uint64_t deltas_applied = 0;

  static constexpr const char* kGroupName = "shards";
  template <typename V>
  void VisitFields(V&& visit) const {
    visit("validate_batches", validate_batches);
    visit("apply_batches", apply_batches);
    visit("assemble_jobs", assemble_jobs);
    visit("plan_builds", plan_builds);
    visit("plan_reuses", plan_reuses);
    visit("commands_assembled", commands_assembled);
    visit("preconditions_checked", preconditions_checked);
    visit("validation_failures", validation_failures);
    visit("deltas_applied", deltas_applied);
  }
};

// Serialized-batch cache accounting (DESIGN.md §10): the pre-encoded per-worker command
// buffers the batched central path ships instead of struct vectors. `half_encodes` counts
// cold per-half template encodes (and invalidation re-encodes); steady state is all
// `half_reuses` — memcpy + slot patch. `params_patched` are same-size in-place parameter
// overwrites; `splices` are batches rebuilt by segment copy because an override changed a
// parameter's length.
struct SerializedBatchCounters : detail::ClearableCounters<SerializedBatchCounters> {
  std::uint64_t half_encodes = 0;    // cold per-worker-half template encodes
  std::uint64_t half_reuses = 0;     // cached template bytes reused (memcpy + patch)
  std::uint64_t batches = 0;         // serialized batches shipped
  std::uint64_t commands = 0;        // commands inside those batches
  std::uint64_t params_patched = 0;  // parameter slots overwritten in place
  std::uint64_t splices = 0;         // size-changing rebuilds (segment copy)
  std::uint64_t bytes_encoded = 0;   // template bytes produced by cold encodes
  std::uint64_t bytes_shipped = 0;   // encoded bytes actually handed to the network

  double ReuseRate() const {
    const std::uint64_t total = half_encodes + half_reuses;
    return total == 0 ? 0.0 : static_cast<double>(half_reuses) / static_cast<double>(total);
  }

  static constexpr const char* kGroupName = "serialized";
  template <typename V>
  void VisitFields(V&& visit) const {
    visit("half_encodes", half_encodes);
    visit("half_reuses", half_reuses);
    visit("batches", batches);
    visit("commands", commands);
    visit("params_patched", params_patched);
    visit("splices", splices);
    visit("bytes_encoded", bytes_encoded);
    visit("bytes_shipped", bytes_shipped);
  }
};

// What a network message carries, for per-kind wire accounting (the bench JSONs report
// control-plane vs data bytes separately).
enum class MessageKind : std::uint8_t {
  kControl = 0,      // heartbeats, completions, installs, instantiations, halts, recovery
  kCommand,          // explicit command messages (per-task dispatch, patches)
  kSerializedBatch,  // pre-encoded command batches (wire codec, DESIGN.md §10)
  kData,             // object payloads exchanged directly between workers
};
inline constexpr std::size_t kMessageKindCount = 4;

// Per-message-kind traffic counters kept by sim::Network.
struct NetworkCounters : detail::ClearableCounters<NetworkCounters> {
  std::array<std::uint64_t, kMessageKindCount> messages{};
  std::array<std::int64_t, kMessageKindCount> bytes{};

  void Record(MessageKind kind, std::int64_t payload_bytes) {
    const auto k = static_cast<std::size_t>(kind);
    ++messages[k];
    bytes[k] += payload_bytes;
  }
  std::uint64_t messages_for(MessageKind kind) const {
    return messages[static_cast<std::size_t>(kind)];
  }
  std::int64_t bytes_for(MessageKind kind) const {
    return bytes[static_cast<std::size_t>(kind)];
  }
  std::uint64_t total_messages() const {
    std::uint64_t n = 0;
    for (std::uint64_t m : messages) {
      n += m;
    }
    return n;
  }
  std::int64_t total_bytes() const {
    std::int64_t n = 0;
    for (std::int64_t b : bytes) {
      n += b;
    }
    return n;
  }

  static constexpr const char* kGroupName = "network";
  template <typename V>
  void VisitFields(V&& visit) const {
    visit("messages_control", messages_for(MessageKind::kControl));
    visit("messages_command", messages_for(MessageKind::kCommand));
    visit("messages_serialized_batch", messages_for(MessageKind::kSerializedBatch));
    visit("messages_data", messages_for(MessageKind::kData));
    visit("bytes_control", static_cast<std::uint64_t>(bytes_for(MessageKind::kControl)));
    visit("bytes_command", static_cast<std::uint64_t>(bytes_for(MessageKind::kCommand)));
    visit("bytes_serialized_batch",
          static_cast<std::uint64_t>(bytes_for(MessageKind::kSerializedBatch)));
    visit("bytes_data", static_cast<std::uint64_t>(bytes_for(MessageKind::kData)));
  }
};

// Failure-detection accounting (DESIGN.md §14): the heartbeat/suspicion protocol on the
// controller plus the peer losses the TCP transport reports (its own `tcp.*` counters
// count the redials). `suspects_marked` /
// `suspects_cleared` track the suspicion state machine (a cleared suspect was a false
// alarm — a late heartbeat arrived before the miss threshold); `injected_*` count fault
// events the FaultInjector actually applied, so tests can assert a schedule executed.
struct FailureCounters : detail::ClearableCounters<FailureCounters> {
  std::uint64_t heartbeats_sent = 0;       // worker-side periodic beats
  std::uint64_t heartbeats_received = 0;   // controller-side beats accepted
  std::uint64_t heartbeat_acks = 0;        // acks received back by workers
  std::uint64_t suspects_marked = 0;       // workers that missed >=1 beat
  std::uint64_t suspects_cleared = 0;      // suspects exonerated by a late beat
  std::uint64_t workers_failed = 0;        // suspects declared dead (recovery triggered)
  std::uint64_t connection_losses = 0;     // TCP peer losses (EPIPE/ECONNRESET/read-zero)
  std::uint64_t injected_drops = 0;        // fault-injector: heartbeats dropped
  std::uint64_t injected_delays = 0;       // fault-injector: heartbeats held back
  std::uint64_t injected_duplicates = 0;   // fault-injector: heartbeats sent twice

  static constexpr const char* kGroupName = "failure";
  template <typename V>
  void VisitFields(V&& visit) const {
    visit("heartbeats_sent", heartbeats_sent);
    visit("heartbeats_received", heartbeats_received);
    visit("heartbeat_acks", heartbeat_acks);
    visit("suspects_marked", suspects_marked);
    visit("suspects_cleared", suspects_cleared);
    visit("workers_failed", workers_failed);
    visit("connection_losses", connection_losses);
    visit("injected_drops", injected_drops);
    visit("injected_delays", injected_delays);
    visit("injected_duplicates", injected_duplicates);
  }
};

// Controller scheduling and fault-tolerance events: Naiad-style full reinstalls forced by a
// scheduling change, task migrations planned as template edits, checkpoints taken, and
// completed recoveries.
struct ControllerCounters : detail::ClearableCounters<ControllerCounters> {
  std::uint64_t naiad_reinstalls = 0;    // kStaticDataflow: migration forced a reinstall
  std::uint64_t migrations_planned = 0;  // tasks moved by PlanRandomMigrations
  std::uint64_t checkpoints = 0;         // checkpoints committed
  std::uint64_t recoveries = 0;          // recoveries completed

  static constexpr const char* kGroupName = "controller";
  template <typename V>
  void VisitFields(V&& visit) const {
    visit("naiad_reinstalls", naiad_reinstalls);
    visit("migrations_planned", migrations_planned);
    visit("checkpoints", checkpoints);
    visit("recoveries", recoveries);
  }
};

// Worker-side materialization accounting (DESIGN.md §9.3): per-worker totals, folded per
// instantiation group the worker materializes. `dense_resolves` counts entries whose
// read/write sets had to be (re)resolved to store-dense indices (first touch or
// post-edit); steady state is zero per group.
struct MaterializeCounters : detail::ClearableCounters<MaterializeCounters> {
  std::uint64_t groups = 0;          // instantiation groups materialized
  std::uint64_t entries = 0;         // template entries turned into runtime commands
  std::uint64_t dense_resolves = 0;  // entries whose object sets were (re)resolved

  static constexpr const char* kGroupName = "materialize";
  template <typename V>
  void VisitFields(V&& visit) const {
    visit("groups", groups);
    visit("entries", entries);
    visit("dense_resolves", dense_resolves);
  }
};

// Accumulates samples and answers summary queries. Percentile queries sort a copy lazily.
class SampleStats {
 public:
  void Add(double v) {
    samples_.push_back(v);
    sum_ += v;
  }

  std::size_t count() const { return samples_.size(); }
  double sum() const { return sum_; }

  double Mean() const { return samples_.empty() ? 0.0 : sum_ / samples_.size(); }

  double Min() const {
    return samples_.empty() ? 0.0 : *std::min_element(samples_.begin(), samples_.end());
  }

  double Max() const {
    return samples_.empty() ? 0.0 : *std::max_element(samples_.begin(), samples_.end());
  }

  double StdDev() const {
    if (samples_.size() < 2) {
      return 0.0;
    }
    const double mean = Mean();
    double acc = 0.0;
    for (double v : samples_) {
      acc += (v - mean) * (v - mean);
    }
    return std::sqrt(acc / (samples_.size() - 1));
  }

  // p in [0, 1]; nearest-rank percentile.
  double Percentile(double p) const {
    if (samples_.empty()) {
      return 0.0;
    }
    std::vector<double> sorted = samples_;
    std::sort(sorted.begin(), sorted.end());
    const auto rank = static_cast<std::size_t>(p * (sorted.size() - 1) + 0.5);
    return sorted[std::min(rank, sorted.size() - 1)];
  }

  const std::vector<double>& samples() const { return samples_; }

  void Clear() {
    samples_.clear();
    sum_ = 0.0;
  }

 private:
  std::vector<double> samples_;
  double sum_ = 0.0;
};

}  // namespace nimbus

#endif  // NIMBUS_SRC_COMMON_STATS_H_
