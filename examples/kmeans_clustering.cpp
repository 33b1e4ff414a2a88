// K-means clustering to convergence, with a mid-job checkpoint and an injected worker
// failure: the controller detects the silence, reloads the checkpoint, and the driver loop
// resumes from the restored marker (paper §4.4).
//
//   $ ./examples/kmeans_clustering

#include <cstdio>

#include "src/apps/kmeans.h"
#include "src/driver/cluster.h"
#include "src/driver/job.h"

int main() {
  using namespace nimbus;
  using apps::KMeansApp;

  ClusterOptions options;
  options.workers = 4;
  options.partitions = 16;
  options.mode = ControlMode::kTemplates;
  options.failure_detection = true;
  options.heartbeat_period = sim::Millis(100);
  options.heartbeat_timeout = sim::Millis(500);
  Cluster cluster(options);
  Job job(&cluster);

  KMeansApp::Config config;
  config.partitions = 16;
  config.reduce_groups = 4;
  config.dim = 4;
  config.clusters = 5;
  config.points_per_partition = 64;
  config.noise = 3.0;  // overlapping clusters: convergence takes a while
  config.virtual_bytes_total = 2LL * 1000 * 1000 * 1000;
  KMeansApp app(&job, config);
  app.Setup();

  std::printf("k-means: %d clusters, dim %d, %d partitions on %d workers\n\n",
              config.clusters, config.dim, config.partitions, options.workers);

  bool failed_already = false;
  int iter = 0;
  double movement = 1e9;
  while (movement > 1e-10 && iter < 60) {
    const auto result = app.RunIteration();
    if (result.recovered) {
      std::printf("!! worker failure detected; reloaded checkpoint @ iteration %llu\n",
                  static_cast<unsigned long long>(result.resume_marker));
      iter = static_cast<int>(result.resume_marker);
      continue;
    }
    movement = result.FirstScalar();
    ++iter;
    std::printf("iteration %2d: centroid movement %.6f\n", iter, movement);

    if (iter == 4) {
      job.Checkpoint(4);
      std::printf("-- checkpoint written (all live objects persisted) --\n");
    }
    if (iter == 6 && !failed_already) {
      failed_already = true;
      cluster.FailWorker(WorkerId(2));
      std::printf("-- injecting failure of worker 2 --\n");
    }
  }

  std::printf("\nconverged after %d iterations (recoveries: %lld)\n", iter,
              static_cast<long long>(cluster.controller().counters().recoveries));
  return 0;
}
