// K-means clustering benchmark application (paper §5.1, Fig 7b).
//
// One basic block per iteration: an assign-and-accumulate map over point partitions, then a
// two-level reduction tree over per-partition sums, then a centroid update task that returns
// the total centroid movement (the driver's convergence test). Structure mirrors the
// logistic-regression block but with larger reduction payloads (k centroids x (dim+1)),
// which is why the paper's k-means iterations are ~1.5x slower than LR at equal scale.

#ifndef NIMBUS_SRC_APPS_KMEANS_H_
#define NIMBUS_SRC_APPS_KMEANS_H_

#include <cstdint>
#include <string>
#include <vector>

#include "src/driver/job.h"

namespace nimbus::apps {

class KMeansApp {
 public:
  struct Config {
    int partitions = 8;
    int reduce_groups = 4;
    int dim = 4;
    int clusters = 3;
    int points_per_partition = 32;
    // Gaussian spread of each synthetic cluster; larger values overlap the clusters and
    // slow convergence (useful for long-running demos).
    double noise = 0.5;
    std::int64_t virtual_bytes_total = 100LL * 1000 * 1000 * 1000;  // 100 GB
    double core_bytes_per_second = 2.0e9;  // calibrated: 20 workers => ~310 ms/iteration
    std::uint64_t seed = 7;
    std::string block_prefix = "km";
  };

  KMeansApp(Job* job, Config config);

  void Setup();

  // One iteration; scalar = total L2 movement of the centroids.
  Job::RunResult RunIteration();
  double RunIterations(int n);

  std::vector<double> CentroidSnapshot();

  // Sequential reference mirroring the distributed reduction order exactly.
  static std::vector<double> ReferenceRun(const Config& config, int iters);

  sim::Duration MapTaskDuration() const;
  std::string BlockName() const { return config_.block_prefix + "_iter"; }
  const Config& config() const { return config_; }

 private:
  void DefineFunctions();
  void DefineBlocks();

  Job* job_;
  Config config_;

  VariableId points_, centroids_, psum_, ppartial_;
  FunctionId fn_init_points_, fn_init_centroids_;
  FunctionId fn_assign_, fn_reduce1_, fn_update_;
};

// Synthetic clustered points: row p of partition q is [x0..xd-1]; clusters are separated
// Gaussians whose centers derive from the seed.
std::vector<double> SynthesizePoints(std::uint64_t seed, int partition, int points, int dim,
                                     int clusters, double noise);
std::vector<double> InitialCentroids(std::uint64_t seed, int clusters, int dim);

}  // namespace nimbus::apps

#endif  // NIMBUS_SRC_APPS_KMEANS_H_
