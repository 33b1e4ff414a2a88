// Span tracer (DESIGN.md §12): a timeline of the control plane's work across the
// controller loop, instantiation-pipeline stages, worker materialization and network sends.
//
// Model
//   * Spans are RAII scopes recorded as one complete event at scope exit, stamped with the
//     wall-clock interval the code actually ran plus the virtual time at which the
//     simulator ran it (sim handlers execute at a fixed virtual instant, so virtual time
//     locates a span on the simulated timeline and wall time gives its cost).
//   * Instant events mark points (patch-cache hit/miss, lookahead consumption, sends);
//     counter events carry a value series.
//   * Every event lands in the recording thread's ring buffer (fixed capacity, oldest
//     overwritten) and carries a global sequence number, so export merges buffers into one
//     deterministic order. Under the simulator the stream is bit-identical across runs
//     (names, order, tracks, virtual timestamps) — traces double as regression oracles,
//     like worker command logs.
//   * Lanes map to Chrome trace-event processes, tracks to threads: controller phases
//     (one track), pipeline stages (one track, 0), worker materialization
//     (worker id = track), network sends (MessageKind = track). Export is Chrome
//     trace-event JSON, loadable in Perfetto / chrome://tracing.
//
// Overhead contract
//   Compiled out entirely under -DNIMBUS_TRACING=OFF (macros expand to nothing). Compiled
//   in but disabled, every site costs one relaxed atomic load and branch; the Table 2 and
//   fig8 perf canaries run in exactly that configuration and hold the ±15% gate.

#ifndef NIMBUS_SRC_COMMON_TRACING_H_
#define NIMBUS_SRC_COMMON_TRACING_H_

#include <atomic>
#include <chrono>
#include <cstddef>
#include <cstdint>
#include <functional>
#include <mutex>
#include <string>
#include <vector>

namespace nimbus::trace {

// Where an event belongs on the timeline; exported as one Chrome trace "process" each.
enum class Lane : std::uint8_t {
  kController = 0,  // controller phases (validate / apply / assemble / lookahead)
  kPipeline,        // instantiation-pipeline stages; track 0
  kWorker,          // worker decode / materialize / group-start; track = worker id
  kNetwork,         // sends; track = MessageKind
};
inline constexpr std::size_t kLaneCount = 4;
const char* LaneName(Lane lane);

enum class EventType : std::uint8_t {
  kSpan = 0,  // complete interval: wall_ns..wall_ns+wall_dur_ns, at virtual_ns
  kInstant,   // a point; `value` is its argument (e.g. payload bytes)
  kCounter,   // a named value sample
};

struct Event {
  EventType type = EventType::kInstant;
  Lane lane = Lane::kController;
  std::uint32_t track = 0;
  const char* name = "";        // static string; never owned
  std::uint64_t seq = 0;        // global record order (spans: at scope END)
  std::int64_t virtual_ns = 0;  // sim virtual time (spans: at scope START)
  std::int64_t wall_ns = 0;     // steady-clock ns (spans: scope start)
  std::int64_t wall_dur_ns = 0; // spans only
  std::int64_t value = 0;       // instant argument / counter value
};

class Tracer {
 public:
  struct Options {
    std::size_t ring_capacity = 1 << 16;  // events per thread
  };

  static Tracer& Get();

  // Starts recording. Ring capacity applies to buffers created or reset after the call.
  // Enable/Disable/Clear must not race with recording threads (call them between
  // simulation runs).
  void Enable(const Options& options);
  void Enable() { Enable(Options()); }
  void Disable();
  void Clear();  // drops recorded events, keeps the enabled state and clocks

  // The single runtime branch every instrumentation site takes first.
  static bool enabled() { return enabled_.load(std::memory_order_relaxed); }

  // Virtual-clock source (the owning Cluster's Simulation). `owner` keys the binding so a
  // destroyed cluster only unbinds itself, never a successor's clock.
  void SetVirtualClock(std::function<std::int64_t()> clock, const void* owner);
  void ResetVirtualClock(const void* owner);
  std::int64_t VirtualNow() const { return virtual_clock_ ? virtual_clock_() : 0; }

  static std::int64_t WallNow() {
    return std::chrono::duration_cast<std::chrono::nanoseconds>(
               std::chrono::steady_clock::now().time_since_epoch())
        .count();
  }

  // Records one event (instrumentation macros and ScopedSpan call this; callers must
  // check enabled() first). For spans, `wall_ns`/`virtual_ns` are the scope-start stamps.
  void Record(const Event& event);

  // Events recorded per ring-buffer slot overflow (oldest were overwritten).
  std::uint64_t dropped() const;

  // Merged view of every thread's ring buffer, in global sequence order.
  std::vector<Event> Snapshot() const;

  // Chrome trace-event JSON ("traceEvents" array + lane/track metadata). Wall timestamps
  // are normalized to the earliest event; virtual time rides in each event's args.
  std::string ChromeJson() const;
  bool WriteChromeJson(const std::string& path) const;

 private:
  Tracer() = default;
  struct ThreadBuffer;
  ThreadBuffer* BufferForThisThread();

  static std::atomic<bool> enabled_;

  mutable std::mutex mu_;
  std::vector<ThreadBuffer*> buffers_;  // leaked on purpose: thread_local cache outlives
  std::size_t ring_capacity_ = 1 << 16;
  std::atomic<std::uint64_t> seq_{0};
  std::function<std::int64_t()> virtual_clock_;
  const void* clock_owner_ = nullptr;
};

// RAII span. Captures the start stamps at construction, records one kSpan event at
// destruction. Inert (one branch) when tracing is disabled.
class ScopedSpan {
 public:
  ScopedSpan(Lane lane, std::uint32_t track, const char* name, std::int64_t value = 0)
      : active_(Tracer::enabled()) {
    if (active_) {
      event_.type = EventType::kSpan;
      event_.lane = lane;
      event_.track = track;
      event_.name = name;
      event_.value = value;
      event_.virtual_ns = Tracer::Get().VirtualNow();
      event_.wall_ns = Tracer::WallNow();
    }
  }
  ~ScopedSpan() {
    if (active_) {
      event_.wall_dur_ns = Tracer::WallNow() - event_.wall_ns;
      Tracer::Get().Record(event_);
    }
  }

  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;

 private:
  bool active_;
  Event event_;
};

namespace internal {
inline void RecordPoint(EventType type, Lane lane, std::uint32_t track, const char* name,
                        std::int64_t value) {
  Event e;
  e.type = type;
  e.lane = lane;
  e.track = track;
  e.name = name;
  e.value = value;
  e.virtual_ns = Tracer::Get().VirtualNow();
  e.wall_ns = Tracer::WallNow();
  Tracer::Get().Record(e);
}
}  // namespace internal

}  // namespace nimbus::trace

// Instrumentation macros. NIMBUS_TRACING_DISABLED (set by -DNIMBUS_TRACING=OFF at
// configure time) compiles every site away entirely.
#if defined(NIMBUS_TRACING_DISABLED)

#define NIMBUS_TRACE_SPAN(lane, track, name) ((void)0)
#define NIMBUS_TRACE_SPAN_V(lane, track, name, value) ((void)0)
#define NIMBUS_TRACE_INSTANT(lane, track, name, value) ((void)0)
#define NIMBUS_TRACE_COUNTER(lane, track, name, value) ((void)0)

#else

#define NIMBUS_TRACE_CAT_(a, b) a##b
#define NIMBUS_TRACE_CAT(a, b) NIMBUS_TRACE_CAT_(a, b)

#define NIMBUS_TRACE_SPAN(lane, track, name) \
  ::nimbus::trace::ScopedSpan NIMBUS_TRACE_CAT(nimbus_trace_span_, __LINE__)( \
      (lane), (track), (name))
#define NIMBUS_TRACE_SPAN_V(lane, track, name, value) \
  ::nimbus::trace::ScopedSpan NIMBUS_TRACE_CAT(nimbus_trace_span_, __LINE__)( \
      (lane), (track), (name), (value))
#define NIMBUS_TRACE_INSTANT(lane, track, name, value)                                   \
  do {                                                                                   \
    if (::nimbus::trace::Tracer::enabled()) {                                            \
      ::nimbus::trace::internal::RecordPoint(::nimbus::trace::EventType::kInstant,       \
                                             (lane), (track), (name), (value));          \
    }                                                                                    \
  } while (0)
#define NIMBUS_TRACE_COUNTER(lane, track, name, value)                                   \
  do {                                                                                   \
    if (::nimbus::trace::Tracer::enabled()) {                                            \
      ::nimbus::trace::internal::RecordPoint(::nimbus::trace::EventType::kCounter,       \
                                             (lane), (track), (name), (value));          \
    }                                                                                    \
  } while (0)

#endif  // NIMBUS_TRACING_DISABLED

#endif  // NIMBUS_SRC_COMMON_TRACING_H_
