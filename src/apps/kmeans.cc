#include "src/apps/kmeans.h"

#include <cmath>

#include "src/common/logging.h"
#include "src/common/rng.h"
#include "src/common/serialize.h"

namespace nimbus::apps {

namespace {

// Accumulator layout: for each cluster c, [sum_x0..sum_xd-1, count] -> k*(dim+1) doubles.
void AssignAndAccumulate(const std::vector<double>& points,
                         const std::vector<double>& centroids, int dim, int k,
                         std::vector<double>* acc) {
  const auto n = static_cast<int>(points.size()) / dim;
  for (int p = 0; p < n; ++p) {
    const double* x = points.data() + static_cast<std::ptrdiff_t>(p) * dim;
    int best = 0;
    double best_d2 = 0.0;
    for (int c = 0; c < k; ++c) {
      double d2 = 0.0;
      for (int d = 0; d < dim; ++d) {
        const double diff = x[d] - centroids[static_cast<std::size_t>(c * dim + d)];
        d2 += diff * diff;
      }
      if (c == 0 || d2 < best_d2) {
        best = c;
        best_d2 = d2;
      }
    }
    double* slot = acc->data() + static_cast<std::ptrdiff_t>(best) * (dim + 1);
    for (int d = 0; d < dim; ++d) {
      slot[d] += x[d];
    }
    slot[dim] += 1.0;
  }
}

// Returns total centroid movement after recomputing centers from the accumulator.
double UpdateCentroids(const std::vector<double>& acc, int dim, int k,
                       std::vector<double>* centroids) {
  double movement = 0.0;
  for (int c = 0; c < k; ++c) {
    const double* slot = acc.data() + static_cast<std::ptrdiff_t>(c) * (dim + 1);
    const double count = slot[dim];
    if (count < 0.5) {
      continue;  // empty cluster keeps its centroid
    }
    double d2 = 0.0;
    for (int d = 0; d < dim; ++d) {
      const double updated = slot[d] / count;
      const double diff = updated - (*centroids)[static_cast<std::size_t>(c * dim + d)];
      d2 += diff * diff;
      (*centroids)[static_cast<std::size_t>(c * dim + d)] = updated;
    }
    movement += std::sqrt(d2);
  }
  return movement;
}

}  // namespace

std::vector<double> InitialCentroids(std::uint64_t seed, int clusters, int dim) {
  Rng rng(seed * 31337 + 5);
  std::vector<double> centers(static_cast<std::size_t>(clusters * dim));
  for (auto& v : centers) {
    v = rng.NextDouble(-5.0, 5.0);
  }
  return centers;
}

std::vector<double> SynthesizePoints(std::uint64_t seed, int partition, int points, int dim,
                                     int clusters, double noise) {
  const std::vector<double> centers = InitialCentroids(seed, clusters, dim);
  Rng rng(seed + 7919ull * static_cast<std::uint64_t>(partition + 1));
  std::vector<double> out;
  out.reserve(static_cast<std::size_t>(points) * static_cast<std::size_t>(dim));
  for (int p = 0; p < points; ++p) {
    const auto c = static_cast<int>(rng.NextBounded(static_cast<std::uint64_t>(clusters)));
    for (int d = 0; d < dim; ++d) {
      out.push_back(centers[static_cast<std::size_t>(c * dim + d)] +
                    noise * rng.NextGaussian());
    }
  }
  return out;
}

KMeansApp::KMeansApp(Job* job, Config config) : job_(job), config_(config) {
  NIMBUS_CHECK_GT(config_.partitions, 0);
  NIMBUS_CHECK_LE(config_.reduce_groups, config_.partitions);
}

sim::Duration KMeansApp::MapTaskDuration() const {
  const double bytes_per_partition =
      static_cast<double>(config_.virtual_bytes_total) / config_.partitions;
  return static_cast<sim::Duration>(bytes_per_partition / config_.core_bytes_per_second *
                                    1e9);
}

void KMeansApp::Setup() {
  const int p = config_.partitions;
  const int g = config_.reduce_groups;
  const std::int64_t acc_bytes =
      static_cast<std::int64_t>(config_.clusters) * (config_.dim + 1) * 8;

  const std::string& prefix = config_.block_prefix;
  points_ = job_->DefineVariable(prefix + ".points", p, config_.virtual_bytes_total / p);
  centroids_ = job_->DefineVariable(prefix + ".centroids", 1,
                                    static_cast<std::int64_t>(config_.clusters) *
                                        config_.dim * 8);
  psum_ = job_->DefineVariable(prefix + ".psum", p, acc_bytes);
  ppartial_ = job_->DefineVariable(prefix + ".ppartial", g, acc_bytes);

  DefineFunctions();
  DefineBlocks();

  std::vector<StageDescriptor> init;
  {
    StageDescriptor stage;
    stage.name = prefix + ".init_points";
    for (int q = 0; q < p; ++q) {
      TaskDescriptor task;
      task.function = fn_init_points_;
      task.writes = {ObjRef{points_, q}};
      task.placement_partition = q;
      task.duration = sim::Millis(1);
      BlobWriter w;
      w.WriteU32(static_cast<std::uint32_t>(q));
      w.WriteU64(config_.seed);
      task.params = w.Take();
      stage.tasks.push_back(std::move(task));
    }
    init.push_back(std::move(stage));
  }
  {
    StageDescriptor stage;
    stage.name = prefix + ".init_centroids";
    TaskDescriptor task;
    task.function = fn_init_centroids_;
    task.writes = {ObjRef{centroids_, 0}};
    task.placement_partition = 0;
    task.duration = sim::Millis(1);
    stage.tasks.push_back(std::move(task));
    init.push_back(std::move(stage));
  }
  job_->RunStages(std::move(init));
}

void KMeansApp::DefineFunctions() {
  const Config cfg = config_;
  const std::string& prefix = config_.block_prefix;

  fn_init_points_ = job_->RegisterFunction(prefix + ".init_points", [cfg](TaskContext& ctx) {
    BlobReader r(ctx.params());
    const int partition = static_cast<int>(r.ReadU32());
    const std::uint64_t seed = r.ReadU64();
    ctx.WriteVector(0).values() =
        SynthesizePoints(seed, partition, cfg.points_per_partition, cfg.dim,
                         cfg.clusters, cfg.noise);
  });

  fn_init_centroids_ =
      job_->RegisterFunction(prefix + ".init_centroids", [cfg](TaskContext& ctx) {
        // Slightly perturbed initial centers so iterations actually move.
        std::vector<double> c = InitialCentroids(cfg.seed, cfg.clusters, cfg.dim);
        Rng rng(cfg.seed + 99);
        for (auto& v : c) {
          v += 0.8 * rng.NextGaussian();
        }
        ctx.WriteVector(0).values() = std::move(c);
      });

  fn_assign_ = job_->RegisterFunction(prefix + ".assign", [cfg](TaskContext& ctx) {
    const auto& pts = ctx.ReadVector(0).values();
    const auto& centers = ctx.ReadVector(1).values();
    auto& acc = ctx.WriteVector(0).values();
    acc.assign(static_cast<std::size_t>(cfg.clusters * (cfg.dim + 1)), 0.0);
    AssignAndAccumulate(pts, centers, cfg.dim, cfg.clusters, &acc);
  });

  fn_reduce1_ = job_->RegisterFunction(prefix + ".reduce1", [cfg](TaskContext& ctx) {
    auto& out = ctx.WriteVector(0).values();
    out.assign(static_cast<std::size_t>(cfg.clusters * (cfg.dim + 1)), 0.0);
    for (std::size_t i = 0; i < ctx.read_count(); ++i) {
      const auto& part = ctx.ReadVector(i).values();
      for (std::size_t j = 0; j < out.size(); ++j) {
        out[j] += part[j];
      }
    }
  });

  fn_update_ = job_->RegisterFunction(prefix + ".update", [cfg](TaskContext& ctx) {
    const std::size_t n_partials = ctx.read_count() - 1;
    std::vector<double> total(static_cast<std::size_t>(cfg.clusters * (cfg.dim + 1)), 0.0);
    for (std::size_t i = 0; i < n_partials; ++i) {
      const auto& part = ctx.ReadVector(i).values();
      for (std::size_t j = 0; j < total.size(); ++j) {
        total[j] += part[j];
      }
    }
    auto& centers = ctx.WriteVector(0).values();
    ctx.ReturnScalar(UpdateCentroids(total, cfg.dim, cfg.clusters, &centers));
  });
}

void KMeansApp::DefineBlocks() {
  const int p = config_.partitions;
  const int g = config_.reduce_groups;

  StageDescriptor map_stage;
  map_stage.name = "assign";
  for (int q = 0; q < p; ++q) {
    TaskDescriptor task;
    task.function = fn_assign_;
    task.reads = {ObjRef{points_, q}, ObjRef{centroids_, 0}};
    task.writes = {ObjRef{psum_, q}};
    task.placement_partition = q;
    task.duration = MapTaskDuration();
    map_stage.tasks.push_back(std::move(task));
  }

  StageDescriptor reduce1_stage;
  reduce1_stage.name = "reduce1";
  for (int group = 0; group < g; ++group) {
    TaskDescriptor task;
    task.function = fn_reduce1_;
    for (int q = group; q < p; q += g) {
      task.reads.push_back(ObjRef{psum_, q});
    }
    task.writes = {ObjRef{ppartial_, group}};
    task.placement_partition = group;
    task.duration = sim::Micros(400);
    reduce1_stage.tasks.push_back(std::move(task));
  }

  StageDescriptor update_stage;
  update_stage.name = "update";
  {
    TaskDescriptor task;
    task.function = fn_update_;
    for (int group = 0; group < g; ++group) {
      task.reads.push_back(ObjRef{ppartial_, group});
    }
    task.reads.push_back(ObjRef{centroids_, 0});
    task.writes = {ObjRef{centroids_, 0}};
    task.placement_partition = 0;
    task.duration = sim::Micros(600);
    task.returns_scalar = true;
    update_stage.tasks.push_back(std::move(task));
  }

  job_->DefineBlock(BlockName(),
                    {std::move(map_stage), std::move(reduce1_stage), std::move(update_stage)});
}

Job::RunResult KMeansApp::RunIteration() { return job_->RunBlock(BlockName()); }

double KMeansApp::RunIterations(int n) {
  double movement = 0.0;
  for (int i = 0; i < n; ++i) {
    movement = RunIteration().FirstScalar();
  }
  return movement;
}

std::vector<double> KMeansApp::CentroidSnapshot() {
  return job_->ReadVector(centroids_, 0);
}

std::vector<double> KMeansApp::ReferenceRun(const Config& config, int iters) {
  const int p = config.partitions;
  const int g = config.reduce_groups;
  std::vector<std::vector<double>> data(static_cast<std::size_t>(p));
  for (int q = 0; q < p; ++q) {
    data[static_cast<std::size_t>(q)] = SynthesizePoints(
        config.seed, q, config.points_per_partition, config.dim, config.clusters,
        config.noise);
  }
  std::vector<double> centers = InitialCentroids(config.seed, config.clusters, config.dim);
  {
    Rng rng(config.seed + 99);
    for (auto& v : centers) {
      v += 0.8 * rng.NextGaussian();
    }
  }

  const auto acc_size = static_cast<std::size_t>(config.clusters * (config.dim + 1));
  for (int it = 0; it < iters; ++it) {
    std::vector<std::vector<double>> psums(static_cast<std::size_t>(p));
    for (int q = 0; q < p; ++q) {
      psums[static_cast<std::size_t>(q)].assign(acc_size, 0.0);
      AssignAndAccumulate(data[static_cast<std::size_t>(q)], centers, config.dim,
                          config.clusters, &psums[static_cast<std::size_t>(q)]);
    }
    std::vector<double> total(acc_size, 0.0);
    for (int group = 0; group < g; ++group) {
      std::vector<double> partial(acc_size, 0.0);
      for (int q = group; q < p; q += g) {
        for (std::size_t j = 0; j < acc_size; ++j) {
          partial[j] += psums[static_cast<std::size_t>(q)][j];
        }
      }
      for (std::size_t j = 0; j < acc_size; ++j) {
        total[j] += partial[j];
      }
    }
    UpdateCentroids(total, config.dim, config.clusters, &centers);
  }
  return centers;
}

}  // namespace nimbus::apps
