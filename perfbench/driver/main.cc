// perfbench_driver: one workload, one process, closed loop over loopback TCP.
//
//   perfbench_driver --workload NAME --seed N --seconds S --trace 0|1
//                    [--corrupt-reference]
//
// --trace 0 measures the end-to-end metrics with tracing off. --trace 1 is the separate
// traced run: it measures an untraced half and a traced half on the same cluster and
// prints the per-layer ledger. Every run checks its outputs outside the timed window
// (LR coefficients against the sequential reference bit for bit; watersim frames against
// the same seed on the simulator backend). The last stdout line is one JSON object:
// {"correct", "attempted", "failed", "metrics", "context"}; perfbench/run.py adds the
// build context and prints the final result line.

#include <sys/resource.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <limits>
#include <memory>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "perfbench/driver/ledger.h"
#include "perfbench/driver/replay.h"
#include "perfbench/driver/session.h"
#include "src/common/stats.h"
#include "src/common/tracing.h"
#include "src/net/tcp_transport.h"

namespace perfbench {
namespace {

using nimbus::MessageKind;
using nimbus::SampleStats;
using nimbus::TransportKind;

struct Args {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 3.0;
  bool trace = false;
  bool corrupt_reference = false;
};

// ---- Watchdog: a block that never completes fails the run instead of hanging it ----

std::atomic<std::int64_t> g_last_progress_ns{0};
std::atomic<std::uint64_t> g_attempted{0};
constexpr std::int64_t kStallNs = 60'000'000'000;  // no unit completes for 60 s

void Progress() { g_last_progress_ns.store(NowNs(), std::memory_order_relaxed); }

void StartWatchdog() {
  Progress();
  std::thread([] {
    for (;;) {
      std::this_thread::sleep_for(std::chrono::seconds(1));
      if (NowNs() - g_last_progress_ns.load(std::memory_order_relaxed) > kStallNs) {
        std::fprintf(stderr, "perfbench: a block made no progress for 60 s; failing\n");
        std::printf("{\"correct\": false, \"attempted\": %llu, \"failed\": 1, "
                    "\"metrics\": {}}\n",
                    static_cast<unsigned long long>(g_attempted.load() + 1));
        std::fflush(stdout);
        std::_Exit(3);
      }
    }
  }).detach();
}

// ---- Metrics and printing ----

struct Metric {
  std::string name;
  double value;
  std::string unit;
};

std::string JsonMetrics(const std::vector<Metric>& metrics) {
  std::string out = "{";
  char buf[128];
  for (std::size_t i = 0; i < metrics.size(); ++i) {
    std::snprintf(buf, sizeof(buf), "%s\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}",
                  i == 0 ? "" : ", ", metrics[i].name.c_str(), metrics[i].value,
                  metrics[i].unit.c_str());
    out += buf;
  }
  return out + "}";
}

void PrintTable(const char* title, const std::vector<Metric>& metrics) {
  std::printf("\n%s\n", title);
  for (const Metric& m : metrics) {
    std::printf("  %-38s %16.4f  %s\n", m.name.c_str(), m.value, m.unit.c_str());
  }
}

double Ratio(double num, double den) { return den == 0.0 ? 0.0 : num / den; }

double Percentile(const std::vector<double>& v, double p) {
  SampleStats s;
  for (double x : v) {
    s.Add(x);
  }
  return s.Percentile(p);
}

std::vector<double> BlockMicros(const std::vector<BlockSample>& samples) {
  std::vector<double> out;
  out.reserve(samples.size());
  for (const BlockSample& s : samples) {
    out.push_back(static_cast<double>(s.return_ns - s.call_ns) * 1e-3);
  }
  return out;
}

// ---- Measured windows ----

// Host CPU time from /proc/stat's aggregate "cpu" line, in ticks. Steal is time this
// machine's virtual CPUs were ready to run while the hypervisor ran another tenant.
struct CpuTicks {
  std::uint64_t steal = 0;
  std::uint64_t total = 0;
};

CpuTicks ReadCpuTicks() {
  CpuTicks t;
  std::FILE* f = std::fopen("/proc/stat", "r");
  if (f == nullptr) {
    return t;  // no host accounting: every slice counts as quiet
  }
  unsigned long long v[8] = {};
  const int n = std::fscanf(f, "cpu %llu %llu %llu %llu %llu %llu %llu %llu", &v[0], &v[1],
                            &v[2], &v[3], &v[4], &v[5], &v[6], &v[7]);
  std::fclose(f);
  if (n == 8) {
    for (unsigned long long x : v) {
      t.total += x;
    }
    t.steal = v[7];
  }
  return t;
}

double StealPct(const CpuTicks& from, const CpuTicks& to) {
  const std::uint64_t total = to.total - from.total;
  return total == 0 ? 0.0
                    : 100.0 * static_cast<double>(to.steal - from.steal) /
                          static_cast<double>(total);
}

// The measured window is cut into slices of about kSliceNs. On a shared host, a slice
// during which the hypervisor stole CPU time measures the neighbours as much as this
// program, so the end-to-end metrics use the least-stolen slices that add up to
// --seconds. The window stretches, up to kMaxStretch x --seconds, until it holds
// --seconds of slices with at most kQuietStealPct stolen. Blocks of unused slices are
// still attempted and checked.
constexpr std::int64_t kSliceNs = 100'000'000;
constexpr double kQuietStealPct = 1.0;
constexpr double kMaxStretch = 8.0;
constexpr double kEverySlice = std::numeric_limits<double>::infinity();

// A --trace 0 run sets up kSetups clusters one after another. setup_s is the median of
// the kQuietSetups least-stolen set-ups (stable: ties keep time order), by the rule of
// the slices above. A watersim set-up is one frame of about 300 blocks, and it varies by
// up to a third from one set-up to the next.
constexpr int kSetups = 15;
constexpr int kQuietSetups = 9;

struct Window {
  std::vector<BlockSample> samples;       // every block measured, in order
  std::vector<BlockSample> used;          // the blocks of the slices the metrics use
  std::vector<double> slice_tasks_per_s;  // per used slice; their median is tasks_per_s
  std::int64_t wall_ns = 0;               // summed block time
  std::int64_t used_ns = 0;
  CpuTicks from, to;  // host ticks at the window's ends (first and last session)

  void Append(const Window& o) {
    if (samples.empty()) {
      from = o.from;
    }
    samples.insert(samples.end(), o.samples.begin(), o.samples.end());
    used.insert(used.end(), o.used.begin(), o.used.end());
    slice_tasks_per_s.insert(slice_tasks_per_s.end(), o.slice_tasks_per_s.begin(),
                             o.slice_tasks_per_s.end());
    wall_ns += o.wall_ns;
    used_ns += o.used_ns;
    to = o.to;
  }
};

// Runs whole units until the window holds `seconds` of quiet block time or reaches its
// stretch limit (see kSliceNs). `after_block` runs after every block (the traced run
// takes its stamps there); `after_unit` after every unit (the traced run drains the
// tracer there). Both run outside the timed blocks.
Window Measure(Session* session, double seconds, double quiet_steal_pct,
               const std::function<void()>& after_block,
               const std::function<void(const Window&)>& after_unit) {
  struct Slice {
    std::size_t first = 0;
    std::size_t end = 0;
    std::int64_t wall_ns = 0;  // summed block time
    double tasks_per_s = 0.0;
    double steal_pct = 0.0;
  };
  Window w;
  nimbus::Cluster& cluster = session->cluster();
  cluster.Quiesce();
  std::uint64_t tasks0 = cluster.controller().tasks_dispatched();
  w.from = ReadCpuTicks();
  CpuTicks ticks0 = w.from;
  std::vector<Slice> slices;
  Slice open;
  std::int64_t quiet_ns = 0;
  const auto budget = static_cast<std::int64_t>(seconds * 1e9);
  const auto cap = static_cast<std::int64_t>(seconds * kMaxStretch * 1e9);
  // Slices close between blocks, also inside a watersim frame (the driver thread has no
  // block outstanding there).
  auto close = [&] {
    cluster.Quiesce();
    const std::uint64_t tasks = cluster.controller().tasks_dispatched();
    const CpuTicks ticks = ReadCpuTicks();
    open.end = w.samples.size();
    open.tasks_per_s =
        static_cast<double>(tasks - tasks0) / (static_cast<double>(open.wall_ns) * 1e-9);
    open.steal_pct = StealPct(ticks0, ticks);
    quiet_ns += open.steal_pct <= quiet_steal_pct ? open.wall_ns : 0;
    slices.push_back(open);
    open = Slice();
    open.first = w.samples.size();
    tasks0 = tasks;
    ticks0 = ticks;
  };
  session->set_after_block([&] {
    const BlockSample& b = w.samples.back();
    w.wall_ns += b.return_ns - b.call_ns;
    open.wall_ns += b.return_ns - b.call_ns;
    g_attempted.fetch_add(1, std::memory_order_relaxed);
    Progress();
    if (after_block) {
      after_block();
    }
    if (open.wall_ns >= kSliceNs || quiet_ns + open.wall_ns >= budget || w.wall_ns >= cap) {
      close();
    }
  });
  while (quiet_ns < budget && w.wall_ns < cap) {
    session->RunUnit(&w.samples);
    if (after_unit) {
      after_unit(w);
    }
  }
  session->set_after_block(nullptr);
  if (open.first < w.samples.size()) {
    close();  // the rest of the last watersim frame
  }
  w.to = ReadCpuTicks();
  // The least-stolen slices first (stable: ties keep time order), until --seconds.
  std::vector<std::size_t> order(slices.size());
  for (std::size_t i = 0; i < order.size(); ++i) {
    order[i] = i;
  }
  std::stable_sort(order.begin(), order.end(), [&](std::size_t a, std::size_t b) {
    return slices[a].steal_pct < slices[b].steal_pct;
  });
  std::vector<bool> use(slices.size(), false);
  std::int64_t chosen_ns = 0;
  for (std::size_t i : order) {
    if (chosen_ns >= budget) {
      break;
    }
    use[i] = true;
    chosen_ns += slices[i].wall_ns;
  }
  for (std::size_t i = 0; i < slices.size(); ++i) {
    if (!use[i]) {
      continue;
    }
    const Slice& slice = slices[i];
    w.used.insert(w.used.end(), w.samples.begin() + static_cast<std::ptrdiff_t>(slice.first),
                  w.samples.begin() + static_cast<std::ptrdiff_t>(slice.end));
    w.slice_tasks_per_s.push_back(slice.tasks_per_s);
    w.used_ns += slice.wall_ns;
  }
  return w;
}

std::uint64_t Recovered(const std::vector<BlockSample>& samples) {
  std::uint64_t n = 0;
  for (const BlockSample& s : samples) {
    n += s.recovered ? 1 : 0;
  }
  return n;
}

// ---- Counters read after Quiesce ----

struct Counters {
  std::uint64_t tasks_dispatched = 0, tasks_via_templates = 0;
  std::uint64_t lookaheads_scheduled = 0, lookahead_hits = 0;
  std::uint64_t patch_hits = 0, patch_lookups = 0;
  std::uint64_t stage_plan_hits = 0, stage_plan_lookups = 0;
  std::uint64_t plan_builds = 0, plan_reuses = 0, commands_assembled = 0;
  std::uint64_t half_encodes = 0, half_reuses = 0, serialized_bytes = 0;
  std::uint64_t serialized_batches = 0, serialized_commands = 0;
  std::uint64_t entries = 0, groups = 0, tasks_executed = 0;

  static Counters Read(Session* session) {
    nimbus::Cluster& cluster = session->cluster();
    cluster.Quiesce();
    nimbus::NimbusController& c = cluster.controller();
    Counters k;
    k.tasks_dispatched = c.tasks_dispatched();
    k.tasks_via_templates = c.tasks_via_templates();
    k.lookaheads_scheduled = c.lookaheads_scheduled();
    k.lookahead_hits = c.lookahead_hits();
    const nimbus::CacheCounters& patch = c.templates().patch_cache().counters();
    k.patch_hits = patch.hits;
    k.patch_lookups = patch.lookups();
    const nimbus::CacheCounters& plans = c.templates().stage_plan_counters();
    k.stage_plan_hits = plans.hits;
    k.stage_plan_lookups = plans.lookups();
    const nimbus::ShardCounters& shards = c.instantiation_pipeline().shard_counters();
    k.plan_builds = shards.plan_builds;
    k.plan_reuses = shards.plan_reuses;
    k.commands_assembled = shards.commands_assembled;
    const nimbus::SerializedBatchCounters& ser =
        c.instantiation_pipeline().serialized_counters();
    k.half_encodes = ser.half_encodes;
    k.half_reuses = ser.half_reuses;
    k.serialized_bytes = ser.bytes_shipped;
    k.serialized_batches = ser.batches;
    k.serialized_commands = ser.commands;
    for (nimbus::WorkerId id : cluster.worker_ids()) {
      const nimbus::Worker* w = cluster.worker(id);
      k.entries += w->materialize_counters().entries;
      k.groups += w->materialize_counters().groups;
      k.tasks_executed += w->tasks_executed();
    }
    return k;
  }
};

// Count metrics over a fixed amount of work, so two runs of one seed print them equal.
std::vector<Metric> CountMetrics(const Counters& a, const Counters& b, std::uint64_t blocks) {
  const auto d = [](std::uint64_t x, std::uint64_t y) { return static_cast<double>(y - x); };
  const double n = static_cast<double>(blocks);
  return {
      {"controller.tasks_per_block", d(a.tasks_dispatched, b.tasks_dispatched) / n, "count"},
      {"controller.template_task_ratio",
       Ratio(d(a.tasks_via_templates, b.tasks_via_templates),
             d(a.tasks_dispatched, b.tasks_dispatched)),
       "ratio"},
      {"controller.lookahead_hit_ratio",
       Ratio(d(a.lookahead_hits, b.lookahead_hits),
             d(a.lookaheads_scheduled, b.lookaheads_scheduled)),
       "ratio"},
      {"core.patch_hit_ratio",
       Ratio(d(a.patch_hits, b.patch_hits), d(a.patch_lookups, b.patch_lookups)), "ratio"},
      {"core.stage_plan_hit_ratio",
       Ratio(d(a.stage_plan_hits, b.stage_plan_hits),
             d(a.stage_plan_lookups, b.stage_plan_lookups)),
       "ratio"},
      {"runtime.plan_reuse_ratio",
       Ratio(d(a.plan_reuses, b.plan_reuses),
             d(a.plan_reuses, b.plan_reuses) + d(a.plan_builds, b.plan_builds)),
       "ratio"},
      {"runtime.commands_assembled_per_block",
       (d(a.commands_assembled, b.commands_assembled) +
        d(a.serialized_commands, b.serialized_commands)) / n,
       "count"},
      {"runtime.serialized_half_reuse_ratio",
       Ratio(d(a.half_reuses, b.half_reuses),
             d(a.half_reuses, b.half_reuses) + d(a.half_encodes, b.half_encodes)),
       "ratio"},
      {"runtime.serialized_bytes_per_block", d(a.serialized_bytes, b.serialized_bytes) / n,
       "B"},
      {"worker.entries_per_block", d(a.entries, b.entries) / n, "count"},
      {"worker.groups_per_block", d(a.groups, b.groups) / n, "count"},
      {"worker.tasks_executed_per_block", d(a.tasks_executed, b.tasks_executed) / n, "count"},
  };
}

// Fixed work for the count window: LR blocks are identical; watersim counts one frame.
constexpr int kLrCountBlocks = 100;

// ---- Correctness ----

struct Verdict {
  bool correct = true;
  std::uint64_t failed = 0;
  std::string detail;
};

// LR: the session's coefficients against ReferenceInnerLoop; a mismatch fails every
// measured block, since each one fed the result.
Verdict CheckLr(Session* session, bool corrupt, std::uint64_t measured_blocks) {
  Verdict v;
  v.correct = session->CoefficientsMatchReference(corrupt);
  v.failed = v.correct ? 0 : measured_blocks;
  v.detail = std::string("LR coefficients vs ReferenceInnerLoop, bit for bit: ") +
             (v.correct ? "equal" : "DIFFERENT");
  return v;
}

// Watersim: every frame of each TCP session against the same seed on the simulator
// (`reference` holds at least as many frames as the longest session). A mismatched frame
// fails its blocks.
Verdict CheckWatersim(const std::vector<std::vector<FrameRecord>>& sessions,
                      std::vector<FrameRecord> reference, bool corrupt) {
  Verdict v;
  if (corrupt && !reference.empty()) {
    reference[0].volume += 1.0;
  }
  int bad = 0;
  std::size_t frames = 0;
  std::uint64_t blocks = 0;
  int substeps = 0;
  int cg = 0;
  for (const std::vector<FrameRecord>& got : sessions) {
    for (std::size_t i = 0; i < got.size(); ++i) {
      if (i >= reference.size() || !SameFrame(got[i], reference[i])) {
        ++bad;
        v.failed += got[i].blocks;
      }
      ++frames;
      blocks += got[i].blocks;
      substeps += got[i].substeps;
      cg += got[i].cg_iterations;
    }
  }
  v.correct = bad == 0;
  char buf[256];
  std::snprintf(buf, sizeof(buf),
                "watersim %zu frames over %zu session(s) (%d substeps, %d CG iterations, "
                "%llu blocks) vs simulator: %d mismatched",
                frames, sessions.size(), substeps, cg, static_cast<unsigned long long>(blocks),
                bad);
  v.detail = buf;
  return v;
}

// Exact per-block traffic from a simulator run (modeled bytes), per MessageKind.
struct NetCounts {
  double frames_per_block[nimbus::kMessageKindCount] = {};
  double bytes_per_frame[nimbus::kMessageKindCount] = {};
  double bytes_per_block = 0.0;
};

NetCounts NetDelta(const nimbus::NetworkCounters& a, const nimbus::NetworkCounters& b,
                   std::uint64_t blocks) {
  NetCounts n;
  for (std::size_t k = 0; k < nimbus::kMessageKindCount; ++k) {
    const double frames = static_cast<double>(b.messages[k] - a.messages[k]);
    const double bytes = static_cast<double>(b.bytes[k] - a.bytes[k]);
    n.frames_per_block[k] = frames / static_cast<double>(blocks);
    n.bytes_per_frame[k] = Ratio(bytes, frames);
    n.bytes_per_block += bytes / static_cast<double>(blocks);
  }
  return n;
}

// The simulator reference for watersim: `frames` frames through the application's own
// RunFrame. With `net`, also the sim network's traffic over frame `count_frame`.
std::unique_ptr<Session> WatersimReference(const Workload& workload, std::uint64_t seed,
                                           std::size_t frames, std::size_t count_frame,
                                           NetCounts* net) {
  auto sim = std::make_unique<Session>(workload, seed, TransportKind::kSim);
  sim->SetUp();
  nimbus::NetworkCounters before;
  for (std::size_t i = 0; i < frames; ++i) {
    if (i == count_frame) {
      before = sim->cluster().network().counters();
    }
    sim->RunReferenceFrame();
    Progress();
    if (i == count_frame && net != nullptr) {
      *net = NetDelta(before, sim->cluster().network().counters(), sim->frames()[i].blocks);
    }
  }
  return sim;
}

// ---- Context ----

std::string ContextJson(const Args& args, const Workload& workload, const Window& w) {
  const double used_share =
      Ratio(static_cast<double>(w.used_ns), static_cast<double>(w.wall_ns));
  char buf[640];
  std::snprintf(buf, sizeof(buf),
                "{\"nproc\": %ld, \"compiler\": \"%s\", \"build_type\": \"%s\", "
                "\"transport\": \"tcp-loopback\", \"workers\": %d, \"partitions\": %d, "
                "\"seed\": %llu, \"seconds\": %g, \"trace\": %d, \"setups\": %d, "
                "\"host_steal_pct\": %.2f, \"used_share\": %.3f, "
                "\"load\": \"closed loop, 1 driver thread, 1 block outstanding\"}",
                sysconf(_SC_NPROCESSORS_ONLN), PERFBENCH_COMPILER, PERFBENCH_BUILD_TYPE,
                kWorkers, Partitions(workload), static_cast<unsigned long long>(args.seed),
                args.seconds, args.trace ? 1 : 0, args.trace ? 1 : kSetups,
                StealPct(w.from, w.to), used_share);
  return buf;
}

void PrintResult(bool correct, std::uint64_t attempted, std::uint64_t failed,
                 const std::vector<Metric>& metrics, const std::string& context) {
  std::printf("{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, \"metrics\": %s, "
              "\"context\": %s}\n",
              correct ? "true" : "false", static_cast<unsigned long long>(attempted),
              static_cast<unsigned long long>(failed), JsonMetrics(metrics).c_str(),
              context.c_str());
}

// ---- --trace 0: end-to-end metrics ----

int RunEndToEnd(const Args& args, const Workload& workload) {
  // Each set-up is timed, then measured for its share of --seconds, then checked. Pooling
  // several clusters evens out per-cluster luck (thread placement, neighbours).
  std::vector<std::pair<double, double>> setups;  // (steal %, seconds)
  Window w;  // pooled over sessions
  Verdict v;
  std::vector<std::vector<FrameRecord>> frames;
  for (int i = 0; i < kSetups; ++i) {
    const CpuTicks ticks0 = ReadCpuTicks();
    const std::int64_t t0 = NowNs();
    auto session = std::make_unique<Session>(workload, args.seed, TransportKind::kTcp);
    session->SetUp();
    session->Warm();
    const double seconds = static_cast<double>(NowNs() - t0) * 1e-9;
    setups.emplace_back(StealPct(ticks0, ReadCpuTicks()), seconds);
    Progress();

    const Window part =
        Measure(session.get(), args.seconds / kSetups, kQuietStealPct, nullptr,
                nullptr);
    w.Append(part);
    if (workload.app == AppKind::kLr) {
      const Verdict check =
          CheckLr(session.get(), args.corrupt_reference, part.samples.size());
      v.correct = v.correct && check.correct;
      v.failed += check.failed;
      if (!check.correct || v.detail.empty()) {
        v.detail = check.detail;
      }
    } else {
      frames.push_back(session->frames());
    }
  }
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  const double peak_rss_mb = static_cast<double>(usage.ru_maxrss) / 1024.0;

  if (workload.app == AppKind::kWatersim) {
    std::size_t longest = 0;
    for (const auto& f : frames) {
      longest = std::max(longest, f.size());
    }
    auto reference = WatersimReference(workload, args.seed, longest, /*count_frame=*/0,
                                       nullptr);
    v = CheckWatersim(frames, reference->frames(), args.corrupt_reference);
  }
  const std::uint64_t recovered = Recovered(w.samples);
  const std::uint64_t attempted = w.samples.size();
  const std::uint64_t failed = std::min<std::uint64_t>(attempted, v.failed + recovered);
  const bool correct = v.correct && recovered == 0;
  std::stable_sort(setups.begin(), setups.end(),
                   [](const auto& a, const auto& b) { return a.first < b.first; });
  std::vector<double> setup_s;
  for (int i = 0; i < kQuietSetups; ++i) {
    setup_s.push_back(setups[static_cast<std::size_t>(i)].second);
  }

  const std::vector<double> us = BlockMicros(w.used);
  const std::vector<Metric> metrics = {
      {"block_p50_us", Percentile(us, 0.50), "us"},
      {"block_p90_us", Percentile(us, 0.90), "us"},
      {"tasks_per_s", Percentile(w.slice_tasks_per_s, 0.5), "tasks/s"},
      {"setup_s", Percentile(setup_s, 0.5), "s"},
      {"peak_rss_mb", peak_rss_mb, "MB"},
  };
  std::printf("workload %s  seed %llu  set-ups %d (%d used: %.4f to %.4f s)  blocks %zu "
              "(%zu used)  window %.3f s (%.3f s used)  host steal %.1f%%\n",
              workload.name, static_cast<unsigned long long>(args.seed), kSetups,
              kQuietSetups, *std::min_element(setup_s.begin(), setup_s.end()),
              *std::max_element(setup_s.begin(), setup_s.end()),
              w.samples.size(), w.used.size(), static_cast<double>(w.wall_ns) * 1e-9,
              static_cast<double>(w.used_ns) * 1e-9, StealPct(w.from, w.to));
  PrintTable("end-to-end (tracing off)", metrics);
  std::printf("  %-38s %16.4f  %s  (%llu failed / %llu attempted)\n", "error_rate",
              Ratio(static_cast<double>(failed), static_cast<double>(attempted)), "ratio",
              static_cast<unsigned long long>(failed),
              static_cast<unsigned long long>(attempted));
  std::printf("\ncorrectness: %s; recovered blocks: %llu => %s\n", v.detail.c_str(),
              static_cast<unsigned long long>(recovered), correct ? "PASS" : "FAIL");
  PrintResult(correct, attempted, failed, metrics, ContextJson(args, workload, w));
  return 0;
}

// ---- --trace 1: per-layer ledger ----

WireShape ShapeOf(const Workload& workload) {
  if (workload.mode == nimbus::ControlMode::kTemplates) {
    return WireShape::kNone;
  }
  return workload.serialized_batching ? WireShape::kSerialized : WireShape::kPerTask;
}

int RunTraced(const Args& args, const Workload& workload) {
  Session session(workload, args.seed, TransportKind::kTcp);
  session.SetUp();
  session.Warm();
  Progress();

  // 1. Count window: a fixed amount of work, tracing off.
  const Counters c0 = Counters::Read(&session);
  std::uint64_t count_blocks = 0;
  const int count_units = workload.app == AppKind::kLr ? kLrCountBlocks : 1;
  for (int i = 0; i < count_units; ++i) {
    count_blocks += session.RunUnit(nullptr);
    Progress();
  }
  const Counters c1 = Counters::Read(&session);
  std::vector<Metric> counts = CountMetrics(c0, c1, count_blocks);

  // 2. Untraced half, then 3. traced half, on the same cluster.
  const Window untraced = Measure(&session, args.seconds / 2, kEverySlice, nullptr, nullptr);

  auto* driver_endpoint =
      dynamic_cast<nimbus::net::TcpEndpoint*>(&session.cluster().transport());
  const auto e0 = driver_endpoint->counters();
  SeamRecorder recorder;
  std::vector<BlockStamps> stamps;
  std::vector<BlockLedger> ledgers;
  session.cluster().Quiesce();
  recorder.Install(&session);
  nimbus::trace::Tracer& tracer = nimbus::trace::Tracer::Get();
  tracer.Enable();
  // Drain the tracer between units (LR: every 64 blocks) so no ring buffer wraps.
  std::size_t drained = 0;
  auto drain = [&](const Window& w, bool force) {
    if (!force && w.samples.size() - drained < 64) {
      return;
    }
    session.cluster().Quiesce();
    const std::vector<nimbus::trace::Event> events = tracer.Snapshot();
    tracer.Clear();
    const std::vector<BlockSample> blocks(
        w.samples.begin() + static_cast<std::ptrdiff_t>(drained), w.samples.end());
    std::vector<BlockStamps> chunk_stamps(
        stamps.begin() + static_cast<std::ptrdiff_t>(drained), stamps.end());
    AddApplyEnds(events, blocks, &chunk_stamps);
    std::vector<BlockLedger> chunk;
    for (std::size_t i = 0; i < blocks.size(); ++i) {
      chunk.push_back(Attribute(blocks[i], chunk_stamps[i]));
    }
    AddWorkerSpans(events, blocks, &chunk);
    ledgers.insert(ledgers.end(), chunk.begin(), chunk.end());
    drained = w.samples.size();
  };
  const Window traced = Measure(
      &session, args.seconds / 2, kEverySlice, [&] { stamps.push_back(recorder.Take()); },
      [&](const Window& w) { drain(w, /*force=*/false); });
  drain(traced, /*force=*/true);
  tracer.Disable();
  const std::uint64_t dropped = tracer.dropped();
  tracer.Clear();
  session.cluster().Quiesce();
  recorder.Uninstall(&session);
  const auto e1 = driver_endpoint->counters();

  // Correctness, outside every timed window.
  Verdict v;
  NetCounts net;
  std::vector<std::vector<nimbus::Command>> logs;
  if (workload.app == AppKind::kLr) {
    v = CheckLr(&session, args.corrupt_reference,
                untraced.samples.size() + traced.samples.size());
    // Simulator replay of the same seed: exact frame counts and the command logs.
    Session sim(workload, args.seed, TransportKind::kSim, /*command_log=*/true);
    sim.SetUp();
    sim.Warm();
    const nimbus::NetworkCounters n0 = sim.cluster().network().counters();
    std::vector<std::size_t> log_start;
    for (nimbus::WorkerId id : sim.cluster().worker_ids()) {
      log_start.push_back(sim.cluster().worker(id)->command_log().size());
    }
    for (int i = 0; i < kLrCountBlocks; ++i) {
      sim.RunUnit(nullptr);
    }
    Progress();
    net = NetDelta(n0, sim.cluster().network().counters(), kLrCountBlocks);
    std::size_t k = 0;
    for (nimbus::WorkerId id : sim.cluster().worker_ids()) {
      const auto& log = sim.cluster().worker(id)->command_log();
      logs.emplace_back(log.begin() + static_cast<std::ptrdiff_t>(log_start[k++]), log.end());
    }
  } else {
    // Frame 1 is the count window on both backends.
    auto reference = WatersimReference(workload, args.seed, session.frames().size(),
                                       /*count_frame=*/1, &net);
    v = CheckWatersim({session.frames()}, reference->frames(), args.corrupt_reference);
  }
  const double commands_per_batch =
      Ratio(static_cast<double>(c1.serialized_commands - c0.serialized_commands),
            static_cast<double>(c1.serialized_batches - c0.serialized_batches));
  const CodecCost codec =
      ReplayCommandCodec(logs, ShapeOf(workload), commands_per_batch, /*seconds=*/0.5);
  Progress();
  if (!codec.round_trip_ok) {
    v.correct = false;
    v.detail += "; command-log codec round trip: DIFFERENT";
  }
  std::vector<MixFrame> mix;
  for (std::size_t k = 0; k < nimbus::kMessageKindCount; ++k) {
    const long n = std::lround(net.frames_per_block[k]);
    const long frames = n == 0 && net.frames_per_block[k] > 0 ? 1 : n;
    const auto bytes =
        static_cast<std::size_t>(std::max(1.0, std::round(net.bytes_per_frame[k])));
    for (long i = 0; i < frames; ++i) {
      mix.push_back({static_cast<MessageKind>(k), bytes});
    }
  }
  const FrameMixResult wire = ReplayFrameMix(mix, 1.0);
  Progress();

  const std::uint64_t attempted = untraced.samples.size() + traced.samples.size();
  const std::uint64_t recovered = Recovered(untraced.samples) + Recovered(traced.samples);
  const std::uint64_t failed = std::min<std::uint64_t>(attempted, v.failed + recovered);
  const bool correct = v.correct && recovered == 0;

  // Ledger: per-block p50 of each interval.
  auto p50 = [&](double BlockLedger::*field) {
    std::vector<double> values;
    values.reserve(ledgers.size());
    for (const BlockLedger& l : ledgers) {
      values.push_back(l.*field);
    }
    return Percentile(values, 0.5);
  };
  const std::vector<double> traced_us = BlockMicros(traced.samples);
  const double traced_p50 = Percentile(traced_us, 0.5);
  const double untraced_p50 = Percentile(BlockMicros(untraced.samples), 0.5);
  const double ingress = p50(&BlockLedger::ingress), validate = p50(&BlockLedger::validate),
               apply = p50(&BlockLedger::apply), assemble = p50(&BlockLedger::assemble),
               fanout = p50(&BlockLedger::fanout), wake = p50(&BlockLedger::wake);

  std::vector<Metric> layer = {
      {"driver.ingress_us", ingress, "us"},
      {"driver.wake_us", wake, "us"},
      {"controller.validate_us", validate, "us"},
      {"controller.apply_us", apply, "us"},
      {"controller.assemble_us", assemble, "us"},
      {"controller.fanout_to_done_us", fanout, "us"},
  };
  layer.insert(layer.end(), counts.begin(), counts.end());  // controller ... worker counts
  const double driver_frames = static_cast<double>(e1.frames_sent - e0.frames_sent);
  std::vector<Metric> rest = {
      {"worker.decode_us", p50(&BlockLedger::decode), "us"},
      {"worker.materialize_us", p50(&BlockLedger::materialize), "us"},
      {"worker.group_start_us", p50(&BlockLedger::group_start), "us"},
      {"task.encode_ns_per_command", codec.encode_ns_per_command, "ns"},
      {"task.decode_ns_per_command", codec.decode_ns_per_command, "ns"},
      {"net.frames_per_block.control", net.frames_per_block[0], "count"},
      {"net.frames_per_block.command", net.frames_per_block[1], "count"},
      {"net.frames_per_block.serialized_batch", net.frames_per_block[2], "count"},
      {"net.frames_per_block.data", net.frames_per_block[3], "count"},
      {"net.bytes_per_block", net.bytes_per_block, "B"},
      {"net.frame_rtt_us", wire.rtt_p50_us, "us"},
      {"net.frames_per_s", wire.frames_per_s, "1/s"},
      {"net.driver_writev_per_frame",
       Ratio(static_cast<double>(e1.writev_calls - e0.writev_calls), driver_frames), "ratio"},
      {"net.driver_partial_writes", static_cast<double>(e1.partial_writes - e0.partial_writes),
       "count"},
      {"unattributed_us",
       traced_p50 - (ingress + validate + apply + assemble + fanout + wake), "us"},
      {"tracing_overhead_pct", Ratio(traced_p50 - untraced_p50, untraced_p50) * 100.0, "%"},
  };
  layer.insert(layer.end(), rest.begin(), rest.end());

  std::printf("workload %s  seed %llu  traced run: %zu untraced + %zu traced blocks, "
              "count window %llu blocks\n",
              workload.name, static_cast<unsigned long long>(args.seed),
              untraced.samples.size(), traced.samples.size(),
              static_cast<unsigned long long>(count_blocks));
  PrintTable("per-layer ledger (durations: per-block p50; counts: per block)", layer);
  std::printf("\n  block p50 %.2f us untraced, %.2f us traced; traced p90 %.2f us, p99 %.2f "
              "us (n=%zu)\n",
              untraced_p50, traced_p50, Percentile(traced_us, 0.90),
              Percentile(traced_us, 0.99), traced_us.size());
  std::printf("  tracing overhead: %+.2f%% on block p50; tracer events dropped: %llu\n",
              Ratio(traced_p50 - untraced_p50, untraced_p50) * 100.0,
              static_cast<unsigned long long>(dropped));
  std::printf("\ncorrectness: %s; recovered blocks: %llu => %s\n", v.detail.c_str(),
              static_cast<unsigned long long>(recovered), correct ? "PASS" : "FAIL");
  Window both = untraced;
  both.Append(traced);
  PrintResult(correct, attempted, failed, layer, ContextJson(args, workload, both));
  return 0;
}

bool ParseArgs(int argc, char** argv, Args* args) {
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    const bool has_value = i + 1 < argc;
    if (flag == "--workload" && has_value) {
      args->workload = argv[++i];
    } else if (flag == "--seed" && has_value) {
      args->seed = std::strtoull(argv[++i], nullptr, 10);
    } else if (flag == "--seconds" && has_value) {
      args->seconds = std::strtod(argv[++i], nullptr);
    } else if (flag == "--trace" && has_value) {
      args->trace = std::strcmp(argv[++i], "0") != 0;
    } else if (flag == "--corrupt-reference") {
      args->corrupt_reference = true;
    } else {
      return false;
    }
  }
  return !args->workload.empty() && args->seconds > 0;
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) {
  perfbench::Args args;
  if (!perfbench::ParseArgs(argc, argv, &args)) {
    std::fprintf(stderr,
                 "usage: perfbench_driver --workload NAME --seed N --seconds S --trace 0|1 "
                 "[--corrupt-reference]\n");
    return 2;
  }
  const perfbench::Workload* workload = perfbench::FindWorkload(args.workload);
  if (workload == nullptr) {
    std::fprintf(stderr, "unknown workload '%s'\n", args.workload.c_str());
    return 2;
  }
  perfbench::StartWatchdog();
  return args.trace ? perfbench::RunTraced(args, *workload)
                    : perfbench::RunEndToEnd(args, *workload);
}
