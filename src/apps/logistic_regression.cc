#include "src/apps/logistic_regression.h"

#include <cmath>

#include "src/common/logging.h"
#include "src/common/serialize.h"

namespace nimbus::apps {

namespace {

double Sigmoid(double z) { return 1.0 / (1.0 + std::exp(-z)); }

// Accumulates the logistic-loss gradient of `rows` at `w` into `grad` (sized dim).
void AccumulateGradient(const std::vector<double>& rows, const std::vector<double>& w,
                        int dim, std::vector<double>* grad) {
  const int row_len = dim + 1;
  const auto n = static_cast<int>(rows.size()) / row_len;
  for (int r = 0; r < n; ++r) {
    const double* row = rows.data() + static_cast<std::ptrdiff_t>(r) * row_len;
    const double label = row[0];
    double dot = 0.0;
    for (int d = 0; d < dim; ++d) {
      dot += row[1 + d] * w[static_cast<std::size_t>(d)];
    }
    // d/dw of log(1 + exp(-y w.x)) = -y x sigmoid(-y w.x)
    const double coefficient = -label * Sigmoid(-label * dot);
    for (int d = 0; d < dim; ++d) {
      (*grad)[static_cast<std::size_t>(d)] += coefficient * row[1 + d];
    }
  }
}

double LogisticLoss(const std::vector<double>& rows, const std::vector<double>& w, int dim) {
  const int row_len = dim + 1;
  const auto n = static_cast<int>(rows.size()) / row_len;
  double loss = 0.0;
  for (int r = 0; r < n; ++r) {
    const double* row = rows.data() + static_cast<std::ptrdiff_t>(r) * row_len;
    const double label = row[0];
    double dot = 0.0;
    for (int d = 0; d < dim; ++d) {
      dot += row[1 + d] * w[static_cast<std::size_t>(d)];
    }
    loss += std::log1p(std::exp(-label * dot));
  }
  return loss;
}

}  // namespace

std::vector<double> TrueCoefficients(std::uint64_t seed, int dim) {
  Rng rng(seed * 7919 + 13);
  std::vector<double> w(static_cast<std::size_t>(dim));
  for (auto& v : w) {
    v = rng.NextDouble(-1.0, 1.0);
  }
  return w;
}

std::vector<double> SynthesizeRows(std::uint64_t seed, int partition, int rows, int dim) {
  Rng rng(seed + 1000003ull * static_cast<std::uint64_t>(partition + 1));
  const std::vector<double> w_true = TrueCoefficients(seed, dim);
  std::vector<double> out;
  out.reserve(static_cast<std::size_t>(rows) * static_cast<std::size_t>(dim + 1));
  for (int r = 0; r < rows; ++r) {
    double dot = 0.0;
    std::vector<double> x(static_cast<std::size_t>(dim));
    for (int d = 0; d < dim; ++d) {
      x[static_cast<std::size_t>(d)] = rng.NextDouble(-1.0, 1.0);
      dot += x[static_cast<std::size_t>(d)] * w_true[static_cast<std::size_t>(d)];
    }
    const double noise = 0.1 * rng.NextGaussian();
    out.push_back(dot + noise > 0 ? 1.0 : -1.0);
    out.insert(out.end(), x.begin(), x.end());
  }
  return out;
}

LogisticRegressionApp::LogisticRegressionApp(Job* job, Config config)
    : job_(job), config_(config) {
  NIMBUS_CHECK_GT(config_.partitions, 0);
  NIMBUS_CHECK_GT(config_.reduce_groups, 0);
  NIMBUS_CHECK_LE(config_.reduce_groups, config_.partitions);
}

sim::Duration LogisticRegressionApp::GradientTaskDuration() const {
  const double bytes_per_partition =
      static_cast<double>(config_.virtual_bytes_total) / config_.partitions;
  return static_cast<sim::Duration>(bytes_per_partition / config_.core_bytes_per_second *
                                    1e9);
}

int LogisticRegressionApp::TasksPerInnerBlock() const {
  return config_.partitions + config_.reduce_groups + 1;
}

void LogisticRegressionApp::Setup() {
  const int p = config_.partitions;
  const int g = config_.reduce_groups;
  const std::int64_t bytes_per_partition = config_.virtual_bytes_total / p;
  const std::int64_t small = static_cast<std::int64_t>(config_.dim) * 8;

  const std::string& prefix = config_.block_prefix;
  tdata_ = job_->DefineVariable(prefix + ".tdata", p, bytes_per_partition);
  edata_ = job_->DefineVariable(prefix + ".edata", p, bytes_per_partition / 4);
  coeff_ = job_->DefineVariable(prefix + ".coeff", 1, small);
  grad_ = job_->DefineVariable(prefix + ".grad", p, small);
  gpartial_ = job_->DefineVariable(prefix + ".gpartial", g, small);
  err_ = job_->DefineVariable(prefix + ".err", p, 8);
  epartial_ = job_->DefineVariable(prefix + ".epartial", g, 8);
  model_ = job_->DefineVariable(prefix + ".model", 1, 16);

  DefineFunctions();
  DefineBlocks();

  // ---- Load (synthesize) the data: one init stage per variable ----
  std::vector<StageDescriptor> init_stages;
  auto init_stage = [&](const std::string& name, FunctionId fn, VariableId var, int count,
                        bool with_partition_param) {
    StageDescriptor stage;
    stage.name = name;
    for (int i = 0; i < count; ++i) {
      TaskDescriptor task;
      task.function = fn;
      task.writes = {ObjRef{var, i}};
      task.placement_partition = i % p;
      task.duration = sim::Millis(1);
      if (with_partition_param) {
        BlobWriter w;
        w.WriteU32(static_cast<std::uint32_t>(i));
        w.WriteU64(config_.seed);
        task.params = w.Take();
      }
      stage.tasks.push_back(std::move(task));
    }
    init_stages.push_back(std::move(stage));
  };
  init_stage(prefix + ".init_tdata", fn_init_tdata_, tdata_, p, true);
  init_stage(prefix + ".init_edata", fn_init_edata_, edata_, p, true);
  init_stage(prefix + ".init_coeff", fn_init_coeff_, coeff_, 1, false);
  init_stage(prefix + ".init_model", fn_init_model_, model_, 1, false);
  job_->RunStages(std::move(init_stages));
}

void LogisticRegressionApp::DefineFunctions() {
  const Config cfg = config_;
  const std::string& prefix = config_.block_prefix;

  fn_init_tdata_ = job_->RegisterFunction(prefix + ".init_tdata", [cfg](TaskContext& ctx) {
    BlobReader r(ctx.params());
    const int partition = static_cast<int>(r.ReadU32());
    const std::uint64_t seed = r.ReadU64();
    ctx.WriteVector(0).values() =
        SynthesizeRows(seed, partition, cfg.rows_per_partition, cfg.dim);
  });
  fn_init_edata_ = job_->RegisterFunction(prefix + ".init_edata", [cfg](TaskContext& ctx) {
    BlobReader r(ctx.params());
    const int partition = static_cast<int>(r.ReadU32());
    const std::uint64_t seed = r.ReadU64();
    // Estimation split: different stream than training data.
    ctx.WriteVector(0).values() =
        SynthesizeRows(seed + 0xE0E0E0, partition, cfg.rows_per_partition / 2 + 1, cfg.dim);
  });
  fn_init_coeff_ = job_->RegisterFunction(prefix + ".init_coeff", [cfg](TaskContext& ctx) {
    ctx.WriteVector(0).values().assign(static_cast<std::size_t>(cfg.dim), 0.0);
  });
  fn_init_model_ = job_->RegisterFunction(prefix + ".init_model", [cfg](TaskContext& ctx) {
    ctx.WriteVector(0).values() = {cfg.learning_rate, 0.0};  // [learning rate, last error]
  });

  // gradient = Gradient(tdata, coeff, param)   (reads: tdata[p], coeff, model)
  fn_gradient_ = job_->RegisterFunction(prefix + ".gradient", [cfg](TaskContext& ctx) {
    const auto& rows = ctx.ReadVector(0).values();
    const auto& w = ctx.ReadVector(1).values();
    auto& grad = ctx.WriteVector(0).values();
    grad.assign(static_cast<std::size_t>(cfg.dim), 0.0);
    AccumulateGradient(rows, w, cfg.dim, &grad);
  });

  // Level-1 reduce: sum this group's per-partition gradients.
  fn_reduce1_ = job_->RegisterFunction(prefix + ".reduce1", [cfg](TaskContext& ctx) {
    auto& out = ctx.WriteVector(0).values();
    out.assign(static_cast<std::size_t>(cfg.dim), 0.0);
    for (std::size_t i = 0; i < ctx.read_count(); ++i) {
      const auto& part = ctx.ReadVector(i).values();
      for (std::size_t d = 0; d < out.size(); ++d) {
        out[d] += part[d];
      }
    }
  });

  // Level-2 reduce + coefficient update; returns the gradient norm to the driver.
  fn_reduce2_update_ =
      job_->RegisterFunction(prefix + ".reduce2_update", [cfg](TaskContext& ctx) {
        // reads: gpartial[0..G-1], coeff, model ; writes: coeff
        const std::size_t n_partials = ctx.read_count() - 2;
        std::vector<double> total(static_cast<std::size_t>(cfg.dim), 0.0);
        for (std::size_t i = 0; i < n_partials; ++i) {
          const auto& part = ctx.ReadVector(i).values();
          for (std::size_t d = 0; d < total.size(); ++d) {
            total[d] += part[d];
          }
        }
        const auto& model = ctx.ReadVector(n_partials + 1).values();
        const double lr = model[0];
        auto& w = ctx.WriteVector(0).values();
        double norm2 = 0.0;
        for (std::size_t d = 0; d < w.size(); ++d) {
          w[d] -= lr * total[d];
          norm2 += total[d] * total[d];
        }
        ctx.ReturnScalar(std::sqrt(norm2));
      });

  // error = Estimate(edata, coeff, param)
  fn_estimate_ = job_->RegisterFunction(prefix + ".estimate", [cfg](TaskContext& ctx) {
    const auto& rows = ctx.ReadVector(0).values();
    const auto& w = ctx.ReadVector(1).values();
    ctx.WriteScalar(0).set_value(LogisticLoss(rows, w, cfg.dim));
  });

  fn_ereduce1_ = job_->RegisterFunction(prefix + ".ereduce1", [](TaskContext& ctx) {
    double sum = 0.0;
    for (std::size_t i = 0; i < ctx.read_count(); ++i) {
      sum += ctx.ReadScalar(i);
    }
    ctx.WriteScalar(0).set_value(sum);
  });

  // param = update_model(param, error): decay the learning rate; report the error.
  fn_ereduce2_model_ =
      job_->RegisterFunction(prefix + ".ereduce2_model", [cfg](TaskContext& ctx) {
        const std::size_t n_partials = ctx.read_count() - 1;
        double error = 0.0;
        for (std::size_t i = 0; i < n_partials; ++i) {
          error += ctx.ReadScalar(i);
        }
        error /= static_cast<double>(cfg.partitions * cfg.rows_per_partition);
        auto& model = ctx.WriteVector(0).values();
        model[0] *= 0.9;  // learning-rate decay
        model[1] = error;
        ctx.ReturnScalar(error);
      });
}

void LogisticRegressionApp::DefineBlocks() {
  const int p = config_.partitions;
  const int g = config_.reduce_groups;
  const sim::Duration map_duration = GradientTaskDuration();
  const sim::Duration reduce1_duration = sim::Micros(200);
  const sim::Duration reduce2_duration = sim::Micros(300);

  // Partitions are grouped by congruence class mod `g`, which aligns groups with workers
  // under round-robin placement (level 1 of the tree is then copy-free).
  auto group_members = [&](int group) {
    std::vector<int> members;
    for (int q = group; q < p; q += g) {
      members.push_back(q);
    }
    return members;
  };

  // ---- Inner block: gradient map + 2-level reduce + update ----
  {
    StageDescriptor map_stage;
    map_stage.name = "gradient";
    for (int q = 0; q < p; ++q) {
      TaskDescriptor task;
      task.function = fn_gradient_;
      task.reads = {ObjRef{tdata_, q}, ObjRef{coeff_, 0}, ObjRef{model_, 0}};
      task.writes = {ObjRef{grad_, q}};
      task.placement_partition = q;
      task.duration = map_duration;
      map_stage.tasks.push_back(std::move(task));
    }

    StageDescriptor reduce1_stage;
    reduce1_stage.name = "reduce1";
    for (int group = 0; group < g; ++group) {
      TaskDescriptor task;
      task.function = fn_reduce1_;
      for (int q : group_members(group)) {
        task.reads.push_back(ObjRef{grad_, q});
      }
      task.writes = {ObjRef{gpartial_, group}};
      task.placement_partition = group;  // partition `group` lives on worker group % W
      task.duration = reduce1_duration;
      reduce1_stage.tasks.push_back(std::move(task));
    }

    StageDescriptor reduce2_stage;
    reduce2_stage.name = "reduce2_update";
    {
      TaskDescriptor task;
      task.function = fn_reduce2_update_;
      for (int group = 0; group < g; ++group) {
        task.reads.push_back(ObjRef{gpartial_, group});
      }
      task.reads.push_back(ObjRef{coeff_, 0});
      task.reads.push_back(ObjRef{model_, 0});
      task.writes = {ObjRef{coeff_, 0}};
      task.placement_partition = 0;
      task.duration = reduce2_duration;
      task.returns_scalar = true;
      reduce2_stage.tasks.push_back(std::move(task));
    }

    job_->DefineBlock(InnerBlockName(),
                      {std::move(map_stage), std::move(reduce1_stage),
                       std::move(reduce2_stage)});
  }

  // ---- Outer block: estimate map + 2-level reduce + model update ----
  {
    StageDescriptor map_stage;
    map_stage.name = "estimate";
    for (int q = 0; q < p; ++q) {
      TaskDescriptor task;
      task.function = fn_estimate_;
      task.reads = {ObjRef{edata_, q}, ObjRef{coeff_, 0}};
      task.writes = {ObjRef{err_, q}};
      task.placement_partition = q;
      task.duration = map_duration / 4;
      map_stage.tasks.push_back(std::move(task));
    }

    StageDescriptor reduce1_stage;
    reduce1_stage.name = "ereduce1";
    for (int group = 0; group < g; ++group) {
      TaskDescriptor task;
      task.function = fn_ereduce1_;
      for (int q : group_members(group)) {
        task.reads.push_back(ObjRef{err_, q});
      }
      task.writes = {ObjRef{epartial_, group}};
      task.placement_partition = group;
      task.duration = sim::Micros(100);
      reduce1_stage.tasks.push_back(std::move(task));
    }

    StageDescriptor reduce2_stage;
    reduce2_stage.name = "ereduce2_model";
    {
      TaskDescriptor task;
      task.function = fn_ereduce2_model_;
      for (int group = 0; group < g; ++group) {
        task.reads.push_back(ObjRef{epartial_, group});
      }
      task.reads.push_back(ObjRef{model_, 0});
      task.writes = {ObjRef{model_, 0}};
      task.placement_partition = 0;
      task.duration = sim::Micros(200);
      task.returns_scalar = true;
      reduce2_stage.tasks.push_back(std::move(task));
    }

    job_->DefineBlock(OuterBlockName(),
                      {std::move(map_stage), std::move(reduce1_stage),
                       std::move(reduce2_stage)});
  }
}

Job::RunResult LogisticRegressionApp::RunInnerIteration() {
  return job_->RunBlock(InnerBlockName());
}

Job::RunResult LogisticRegressionApp::RunOuterIteration() {
  return job_->RunBlock(OuterBlockName());
}

double LogisticRegressionApp::RunInnerLoop(int iters) {
  double norm = 0.0;
  for (int i = 0; i < iters; ++i) {
    norm = RunInnerIteration().FirstScalar();
  }
  return norm;
}

LogisticRegressionApp::NestedResult LogisticRegressionApp::RunNestedLoop(double threshold_g,
                                                                         double threshold_e,
                                                                         int max_inner,
                                                                         int max_outer) {
  NestedResult result;
  double error = threshold_e + 1.0;
  while (error > threshold_e && result.outer_iterations < max_outer) {
    double gradient = threshold_g + 1.0;
    int inner = 0;
    while (gradient > threshold_g && inner < max_inner) {
      gradient = RunInnerIteration().FirstScalar();
      ++inner;
      ++result.total_inner_iterations;
    }
    error = RunOuterIteration().FirstScalar();
    ++result.outer_iterations;
  }
  result.final_error = error;
  return result;
}

std::vector<double> LogisticRegressionApp::CoeffSnapshot() {
  return job_->ReadVector(coeff_, 0);
}

std::vector<double> LogisticRegressionApp::ReferenceInnerLoop(const Config& config,
                                                              int iters) {
  const int p = config.partitions;
  const int g = config.reduce_groups;
  std::vector<std::vector<double>> data(static_cast<std::size_t>(p));
  for (int q = 0; q < p; ++q) {
    data[static_cast<std::size_t>(q)] =
        SynthesizeRows(config.seed, q, config.rows_per_partition, config.dim);
  }
  std::vector<double> w(static_cast<std::size_t>(config.dim), 0.0);
  const double lr = config.learning_rate;

  for (int it = 0; it < iters; ++it) {
    // Mirror the distributed reduction order exactly: per-partition gradients, summed
    // within groups in member order, then across groups in group order.
    std::vector<std::vector<double>> grads(static_cast<std::size_t>(p));
    for (int q = 0; q < p; ++q) {
      grads[static_cast<std::size_t>(q)].assign(static_cast<std::size_t>(config.dim), 0.0);
      AccumulateGradient(data[static_cast<std::size_t>(q)], w, config.dim,
                         &grads[static_cast<std::size_t>(q)]);
    }
    std::vector<double> total(static_cast<std::size_t>(config.dim), 0.0);
    for (int group = 0; group < g; ++group) {
      std::vector<double> partial(static_cast<std::size_t>(config.dim), 0.0);
      for (int q = group; q < p; q += g) {
        for (int d = 0; d < config.dim; ++d) {
          partial[static_cast<std::size_t>(d)] +=
              grads[static_cast<std::size_t>(q)][static_cast<std::size_t>(d)];
        }
      }
      for (int d = 0; d < config.dim; ++d) {
        total[static_cast<std::size_t>(d)] += partial[static_cast<std::size_t>(d)];
      }
    }
    for (int d = 0; d < config.dim; ++d) {
      w[static_cast<std::size_t>(d)] -= lr * total[static_cast<std::size_t>(d)];
    }
  }
  return w;
}

}  // namespace nimbus::apps
