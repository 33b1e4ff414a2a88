// Table 2 — Template instantiation costs (paper §5.2).
//
// The paper reports: instantiate controller template 0.2µs/task; instantiate worker
// template 1.7µs/task when auto-validation applies (back-to-back repetition of the same
// block) and 7.3µs/task with full validation — i.e. over 500k tasks/s in steady state and
// 130k tasks/s under dynamic control flow. We measure our implementation's equivalents:
// the per-instantiation bookkeeping (version-map delta application), the auto-validation
// fast path, and the full validation sweep over all preconditions.
//
// Perf trajectory (same machine, Release): the dense-ID/flat-array refactor (PR 1) took
// the 8000-task block from 0.206/0.198/0.498 ms per instantiation (controller / auto /
// full validation) to 0.052/0.052/0.098 ms — ~4x / ~4x / ~5x. Subsequent PRs compare
// against BENCH_table2.json at the repo root (regenerate via bench/run_benchmarks.sh).
//
// Every row drives the instantiation pipeline's stages (runtime::InstantiationPipeline), as
// the controller does (DESIGN.md §7).

#include <benchmark/benchmark.h>

#include <cstdint>
#include <vector>

#include "bench/bench_util.h"
#include "src/common/metrics.h"
#include "src/common/stats.h"
#include "src/runtime/instantiation_pipeline.h"

namespace nimbus::bench {
namespace {

constexpr int kWorkers = 100;
constexpr int kPartitions = 7899;

// Exports every field of the registered counter groups into the benchmark's counter map
// under the registry's "group.field" names. Replaces the hand-plucked per-field rows:
// a field added to a counter struct shows up in the bench report with no bench change.
void ExportRegistry(const metrics::Registry& registry, benchmark::State& state) {
  const metrics::Snapshot snap = registry.Take();
  registry.ForEach(snap, [&state](const std::string& name, std::uint64_t value) {
    state.counters[name] = static_cast<double>(value);
  });
}

// Per-instantiation controller-template bookkeeping: fill parameters + apply the cached
// write delta (paper row: 0.2µs/task).
void BM_InstantiateControllerTemplate(benchmark::State& state) {
  auto block = BuildMicroBlock(kPartitions, kWorkers);
  const core::ControllerTemplate* tmpl = block->manager.Find(block->template_id);
  core::WorkerTemplateSet set =
      core::ProjectBlock(*tmpl, block->assignment, WorkerTemplateId(0), ConstantBytes(80));
  VersionMap versions;
  SeedVersions(*block, &versions);
  runtime::InstantiationPipeline pipeline;
  core::Patch patch;
  for (auto _ : state) {
    pipeline.ApplyEffects(set, patch, &versions);
  }
  ReportPerTaskTime(state, 8000.0);
}
BENCHMARK(BM_InstantiateControllerTemplate)->Unit(benchmark::kMillisecond);

// Auto-validation fast path: repeated execution of a self-validating template skips the
// precondition sweep entirely (paper row: 1.7µs/task).
void BM_InstantiateWorkerTemplateAutoValidation(benchmark::State& state) {
  auto block = BuildMicroBlock(kPartitions, kWorkers);
  const core::ControllerTemplate* tmpl = block->manager.Find(block->template_id);
  core::WorkerTemplateSet set =
      core::ProjectBlock(*tmpl, block->assignment, WorkerTemplateId(0), ConstantBytes(80));
  VersionMap versions;
  SeedVersions(*block, &versions);
  runtime::InstantiationPipeline pipeline;
  core::Patch patch;
  for (auto _ : state) {
    // Steady state: prev == self && self-validating => only bookkeeping + param fill.
    const bool auto_ok = set.self_validating();
    benchmark::DoNotOptimize(auto_ok);
    pipeline.ApplyEffects(set, patch, &versions);
  }
  ReportPerTaskTime(state, 8000.0);
}
BENCHMARK(BM_InstantiateWorkerTemplateAutoValidation)->Unit(benchmark::kMillisecond);

// Full validation: check every precondition against the version map (paper row: 7.3µs/task,
// the dynamic-control-flow path). The perf-gate canary (bench/run_benchmarks.sh --check);
// exports the pipeline's counters.
void BM_InstantiateWorkerTemplateFullValidation(benchmark::State& state) {
  auto block = BuildMicroBlock(kPartitions, kWorkers);
  const core::ControllerTemplate* tmpl = block->manager.Find(block->template_id);
  core::WorkerTemplateSet set =
      core::ProjectBlock(*tmpl, block->assignment, WorkerTemplateId(0), ConstantBytes(80));
  VersionMap versions;
  SeedVersions(*block, &versions);
  runtime::InstantiationPipeline pipeline;
  core::Patch patch;
  for (auto _ : state) {
    auto needed = pipeline.Validate(set, versions);
    benchmark::DoNotOptimize(needed);
    pipeline.ApplyEffects(set, patch, &versions);
  }
  metrics::Registry registry;
  registry.Register(&pipeline.shard_counters());
  ExportRegistry(registry, state);
  ReportPerTaskTime(state, 8000.0);
}
BENCHMARK(BM_InstantiateWorkerTemplateFullValidation)->Unit(benchmark::kMillisecond);

// Patch-cache hit: resolve a failing precondition set via the cached patch (paper §4.2's
// second optimization; hit rates are high because control flow is narrow).
void BM_ResolvePatchCacheHit(benchmark::State& state) {
  auto block = BuildMicroBlock(kPartitions, kWorkers);
  const core::ControllerTemplate* tmpl = block->manager.Find(block->template_id);
  core::WorkerTemplateSet set =
      core::ProjectBlock(*tmpl, block->assignment, WorkerTemplateId(0), ConstantBytes(80));
  VersionMap versions;
  SeedVersions(*block, &versions);
  // Invalidate the broadcast object everywhere but its writer: a realistic entry patch.
  versions.RecordWrite(block->coeff, block->assignment.WorkerFor(0));
  runtime::InstantiationPipeline pipeline;
  bool hit = false;
  core::Patch first = block->manager.ResolvePatch(set, 12345, versions,
                                                  pipeline.Validate(set, versions), &hit);
  for (auto _ : state) {
    core::Patch patch = block->manager.ResolvePatch(set, 12345, versions,
                                                    pipeline.Validate(set, versions), &hit);
    benchmark::DoNotOptimize(patch);
  }
  state.counters["cache_hit"] = hit ? 1 : 0;
  state.counters["directives"] = static_cast<double>(first.size());
  const CacheCounters& cc = block->manager.patch_cache().counters();
  metrics::Registry registry;
  registry.Register(&cc);
  ExportRegistry(registry, state);
  state.counters["cache.hit_rate"] = cc.HitRate();
}
BENCHMARK(BM_ResolvePatchCacheHit)->Unit(benchmark::kMillisecond);

// Host calibration for the perf gate (bench/run_benchmarks.sh --check): a fixed loop with
// the full-validation canary's shape and footprint (~1.8 MB) but no project code. A probe
// sweep over an 8,000-entry array of 40-byte records checks one slot each of a
// 16,000-object table whose holders live in small heap vectors, like the version map's;
// an update sweep over a second 8,000-entry array then bumps those slots, like the apply
// stage. Its time moves only with the host, so the gate compares canary/calibration
// ratios instead of absolute times.
void BM_HostCalibrationSweep(benchmark::State& state) {
  struct Record {
    std::uint32_t object = 0;
    std::uint32_t worker = 0;
    std::uint64_t pad[4] = {0, 0, 0, 0};
  };
  struct Holder {
    std::uint32_t worker = 0;
    std::uint64_t version = 0;
  };
  struct Slot {
    bool exists = true;
    std::uint64_t latest = 0;
    std::vector<Holder> held;
  };
  constexpr std::size_t kEntries = 8000;
  std::vector<Slot> slots(2 * kEntries);
  std::vector<Record> probes(kEntries);
  std::vector<Record> updates(kEntries);
  for (std::size_t i = 0; i < slots.size(); ++i) {
    slots[i].held.push_back(Holder{static_cast<std::uint32_t>(i % kWorkers), 0});
  }
  for (std::size_t i = 0; i < kEntries; ++i) {
    probes[i].object = static_cast<std::uint32_t>((i * 7919) % slots.size());
    probes[i].worker = static_cast<std::uint32_t>(i % kWorkers);
    updates[i].object = static_cast<std::uint32_t>((i * 2) % slots.size());
    updates[i].worker = static_cast<std::uint32_t>(i % kWorkers);
  }
  for (auto _ : state) {
    std::uint64_t stale = 0;
    for (const Record& r : probes) {
      const Slot& slot = slots[r.object];
      bool latest = false;
      for (const Holder& h : slot.held) {
        latest |= h.worker == r.worker && h.version == slot.latest;
      }
      stale += slot.exists && !latest ? 1 : 0;
    }
    for (const Record& r : updates) {
      Slot& slot = slots[r.object];
      slot.held.front() = Holder{r.worker, ++slot.latest};
    }
    benchmark::DoNotOptimize(stale);
    benchmark::ClobberMemory();
  }
  ReportPerTaskTime(state, 8000.0);
}
BENCHMARK(BM_HostCalibrationSweep)->Unit(benchmark::kMillisecond);

// Command-ID bases for every non-empty half, as the controller allocates them per
// instantiation (contiguous ranges, one per participating worker).
std::vector<CommandId> HalfBases(const core::WorkerTemplateSet& set, std::uint64_t first) {
  std::vector<CommandId> bases(set.halves().size(), CommandId::Invalid());
  std::uint64_t next = first;
  for (std::size_t h = 0; h < set.halves().size(); ++h) {
    if (!set.halves()[h].entries.empty()) {
      bases[h] = CommandId(next);
      next += set.halves()[h].entries.size();
    }
  }
  return bases;
}

// Serialized-batch assembly, steady state: the cached per-worker wire buffers are reused,
// so each instantiation is memcpy + three header patches per worker (DESIGN.md §10). The
// first iteration's cold encode is amortized away by the warm-up call. Gated in
// bench/run_benchmarks.sh at +-15% alongside the full-validation canary.
void BM_SerializedBatchAssembly(benchmark::State& state) {
  auto block = BuildMicroBlock(kPartitions, kWorkers);
  const core::ControllerTemplate* tmpl = block->manager.Find(block->template_id);
  core::WorkerTemplateSet set =
      core::ProjectBlock(*tmpl, block->assignment, WorkerTemplateId(0), ConstantBytes(80));
  runtime::InstantiationPipeline pipeline;
  const std::vector<CommandId> bases = HalfBases(set, 1000);
  pipeline.AssembleSerializedBatches(set, {}, 1, TaskId(0), bases);  // warm: cold encode
  for (auto _ : state) {
    auto batches = pipeline.AssembleSerializedBatches(set, {}, 1, TaskId(0), bases);
    benchmark::DoNotOptimize(batches);
  }
  const SerializedBatchCounters& sbc = pipeline.serialized_counters();
  metrics::Registry registry;
  registry.Register(&sbc);
  ExportRegistry(registry, state);
  state.counters["serialized.reuse_rate"] = sbc.ReuseRate();
  ReportPerTaskTime(state, 8000.0);
}
BENCHMARK(BM_SerializedBatchAssembly)->Unit(benchmark::kMillisecond);

}  // namespace
}  // namespace nimbus::bench

int main(int argc, char** argv) {
  std::printf(
      "Table 2 (paper, EC2): instantiate controller template 0.2us/task; worker template\n"
      "1.7us/task (auto-validation) / 7.3us/task (full validation) -- i.e. >500k tasks/s\n"
      "steady-state, 130k tasks/s under dynamic control flow. Below: measured per-task\n"
      "costs of THIS implementation. Instantiation must be much cheaper than installation\n"
      "(Table 1) and full validation must cost several times the auto-validated path.\n\n");
  benchmark::Initialize(&argc, argv);
  benchmark::RunSpecifiedBenchmarks();
  return 0;
}
