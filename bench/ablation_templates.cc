// Ablation — which parts of the template machinery buy what (DESIGN.md §5).
//
// Steady-state LR on 100 workers under four configurations:
//   full            — templates with auto-validation and the patch cache (the system)
//   no-auto-valid   — every instantiation runs the full precondition sweep (§4.2 opt. 1 off)
//   no-patch-cache  — every patch recomputed from scratch (§4.2 opt. 2 off)
//   no-templates    — central scheduling of every task
//
// Also reports the nested-loop scenario (alternating inner/outer blocks), where patching
// actually fires, so the patch-cache column is meaningful.

#include <cstdio>

#include "bench/bench_util.h"

namespace nimbus::bench {
namespace {

struct Setup {
  const char* name;
  ControlMode mode;
  bool force_validation;
  bool disable_patch_cache;
};

double SteadyIteration(const Setup& setup, bool nested) {
  ClusterOptions options;
  options.force_full_validation = setup.force_validation;
  options.disable_patch_cache = setup.disable_patch_cache;
  LrHarness h = MakeLrHarness(100, setup.mode, options);
  h.app->Setup();
  for (int i = 0; i < 5; ++i) {
    h.app->RunInnerIteration();
  }
  if (nested) {
    for (int i = 0; i < 4; ++i) {
      h.app->RunOuterIteration();  // bring the outer block to the fast path too
    }
  }
  const sim::TimePoint start = h.cluster->simulation().now();
  const int rounds = 10;
  int blocks = 0;
  for (int i = 0; i < rounds; ++i) {
    if (nested) {
      h.app->RunInnerIteration();
      h.app->RunInnerIteration();
      h.app->RunOuterIteration();
      blocks += 3;
    } else {
      h.app->RunInnerIteration();
      ++blocks;
    }
  }
  return sim::ToSeconds(h.cluster->simulation().now() - start) / blocks;
}

void Run() {
  const Setup setups[] = {
      {"full templates", ControlMode::kTemplates, false, false},
      {"no auto-validation", ControlMode::kTemplates, true, false},
      {"no patch cache", ControlMode::kTemplates, false, true},
      {"no templates (central)", ControlMode::kCentralOnly, false, false},
  };

  std::printf("Ablation: per-block completion time, LR on 100 workers (8000-task block)\n\n");
  std::printf("%-26s %18s %18s\n", "configuration", "tight_loop_s", "nested_loop_s");
  for (const Setup& setup : setups) {
    const double tight = SteadyIteration(setup, /*nested=*/false);
    const double nested = SteadyIteration(setup, /*nested=*/true);
    std::printf("%-26s %18.3f %18.3f\n", setup.name, tight, nested);
  }
  std::printf(
      "\nReading: auto-validation halves the tight-loop block time (the §4.2 fast path).\n"
      "The patch cache saves ~13us per directive per block transition -- material for\n"
      "wide patches, invisible at this block size (its mechanism is asserted by\n"
      "ControlPlaneTest.DisablePatchCacheAblation). Everything is dwarfed by the cost of\n"
      "disabling templates entirely.\n");
}

}  // namespace
}  // namespace nimbus::bench

int main() {
  nimbus::bench::Run();
  return 0;
}
