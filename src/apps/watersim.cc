#include "src/apps/watersim.h"

#include <algorithm>
#include <cmath>

#include "src/common/logging.h"
#include "src/common/rng.h"
#include "src/common/serialize.h"

namespace nimbus::apps {

namespace {

constexpr double kDx = 1.0;
constexpr double kGravity = -9.8;
constexpr double kDtMin = 1e-3;
constexpr int kParticlesPerPartition = 24;

// Cell index within a slab.
inline int Cell(int i, int j, int k, int nx, int ny) { return i + nx * (j + ny * k); }

inline int Wrap(int i, int n) { return (i + n) % n; }

}  // namespace

WaterSimApp::WaterSimApp(Job* job, Config config) : job_(job), config_(config) {
  NIMBUS_CHECK_GT(config_.partitions, 0);
  NIMBUS_CHECK_LE(config_.reduce_groups, config_.partitions);
  NIMBUS_CHECK_GE(config_.nz_local, 2);
}

void WaterSimApp::DefineVariables() {
  const int p = config_.partitions;
  const int g = config_.reduce_groups;
  const std::int64_t slab = static_cast<std::int64_t>(SlabCells()) * 8;
  const std::int64_t plane = static_cast<std::int64_t>(PlaneCells()) * 8;

  auto def = [&](const char* name, int parts, std::int64_t bytes) {
    return job_->DefineVariable(B(name), parts, bytes);
  };

  phi_ = def("phi", p, slab);
  phi_halo_lo_ = def("phi_halo_lo", p, plane);
  phi_halo_hi_ = def("phi_halo_hi", p, plane);
  u_ = def("u", p, slab);
  v_ = def("v", p, slab);
  w_ = def("w", p, slab);
  u_halo_lo_ = def("vel_halo_lo", p, 3 * plane);
  u_halo_hi_ = def("vel_halo_hi", p, 3 * plane);
  particles_ = def("particles", p, 2 * kParticlesPerPartition * 8);
  removed_particles_ = def("removed_particles", p, kParticlesPerPartition * 8);
  divergence_ = def("divergence", p, slab);
  rhs_ = def("rhs", p, slab);
  pressure_ = def("pressure", p, slab);
  cg_r_ = def("cg_r", p, slab);
  cg_p_ = def("cg_p", p, slab);
  cg_q_ = def("cg_q", p, slab);
  cg_p_halo_lo_ = def("cg_p_halo_lo", p, plane);
  cg_p_halo_hi_ = def("cg_p_halo_hi", p, plane);
  pq_partial_ = def("pq_partial", p, 8);
  rr_partial_ = def("rr_partial", p, 8);
  pq_group_ = def("pq_group", g, 8);
  rr_group_ = def("rr_group", g, 8);
  rho_ = def("rho", 1, 8);
  alpha_ = def("alpha", 1, 8);
  beta_ = def("beta", 1, 8);
  dt_local_ = def("dt_local", p, 8);
  dt_group_ = def("dt_group", g, 8);
  dt_global_ = def("dt_global", 1, 8);
  speed_partial_ = def("speed_partial", p, 8);
  speed_group_ = def("speed_group", g, 8);
  speed_global_ = def("speed_global", 1, 8);
  frame_time_ = def("frame_time", 1, 8);
  forces_ = def("forces", p, slab);
  density_ = def("density", p, slab);
  interface_flags_ = def("interface_flags", p, slab);
  reseed_counter_ = def("reseed_counter", p, 8);
  stats_ = def("stats", 1, 32);
  vorticity_ = def("vorticity", p, slab);
  curvature_ = def("curvature", p, slab);
  wall_mask_ = def("wall_mask", p, slab);
}

void WaterSimApp::DefineFunctions() {
  const Config cfg = config_;
  const int nx = cfg.nx, ny = cfg.ny, nzl = cfg.nz_local;
  const int cells = SlabCells();
  const int plane = PlaneCells();

  // ---- Initialization ----
  fn_init_fields_ = job_->RegisterFunction(B("init_fields"), [=](TaskContext& ctx) {
    BlobReader r(ctx.params());
    const int q = static_cast<int>(r.ReadU32());
    const std::uint64_t seed = r.ReadU64();
    Rng rng(seed + 17ull * static_cast<std::uint64_t>(q + 1));

    // writes: phi, u, v, w, particles, removed, pressure, density, wall_mask
    auto& phi = ctx.WriteVector(0, static_cast<std::size_t>(cells)).values();
    auto& u = ctx.WriteVector(1, static_cast<std::size_t>(cells)).values();
    auto& vv = ctx.WriteVector(2, static_cast<std::size_t>(cells)).values();
    auto& w = ctx.WriteVector(3, static_cast<std::size_t>(cells)).values();
    auto& parts = ctx.WriteVector(4).values();
    auto& removed = ctx.WriteVector(5).values();
    auto& pressure = ctx.WriteVector(6, static_cast<std::size_t>(cells)).values();
    auto& density = ctx.WriteVector(7, static_cast<std::size_t>(cells)).values();
    auto& wall = ctx.WriteVector(8, static_cast<std::size_t>(cells)).values();

    // Water column fills the lower 40% of the global domain; a pour inlet adds downward
    // velocity near the top (the paper's "water poured into a glass" scene).
    const double water_level = 0.4 * cfg.nz_local * /*global partitions*/ 8.0;
    for (int k = 0; k < nzl; ++k) {
      const double zg = (q * nzl + k) * kDx;
      for (int j = 0; j < ny; ++j) {
        for (int i = 0; i < nx; ++i) {
          const int c = Cell(i, j, k, nx, ny);
          phi[static_cast<std::size_t>(c)] = water_level - zg;  // >0 inside water
          u[static_cast<std::size_t>(c)] = 0.05 * rng.NextGaussian();
          vv[static_cast<std::size_t>(c)] = 0.05 * rng.NextGaussian();
          w[static_cast<std::size_t>(c)] = -0.2;
          pressure[static_cast<std::size_t>(c)] = 0.0;
          density[static_cast<std::size_t>(c)] = 1.0;
          wall[static_cast<std::size_t>(c)] = (i == 0 || i == nx - 1) ? 1.0 : 0.0;
        }
      }
    }
    parts.clear();
    for (int n = 0; n < kParticlesPerPartition; ++n) {
      parts.push_back(rng.NextDouble(0.0, nzl * kDx));              // local z position
      parts.push_back(rng.NextDouble(-0.5, 0.5));                   // carried phi offset
    }
    removed.assign(1, 0.0);
  });

  fn_init_globals_ = job_->RegisterFunction(B("init_globals"), [=](TaskContext& ctx) {
    ctx.WriteScalar(0).set_value(0.0);  // frame_time
    ctx.WriteScalar(1).set_value(0.0);  // rho
    ctx.WriteScalar(2).set_value(0.0);  // alpha
    ctx.WriteScalar(3).set_value(0.0);  // beta
    ctx.WriteScalar(4).set_value(kDtMin);  // dt_global
    ctx.WriteScalar(5).set_value(0.0);  // speed_global
    ctx.WriteVector(6).values().assign(4, 0.0);  // stats
  });

  fn_reset_frame_ = job_->RegisterFunction(B("reset_frame"), [](TaskContext& ctx) {
    ctx.WriteScalar(0).set_value(0.0);
  });

  // ---- dt block ----
  fn_compute_dt_ = job_->RegisterFunction(B("compute_dt"), [=](TaskContext& ctx) {
    const auto& u = ctx.ReadVector(0).values();
    const auto& vv = ctx.ReadVector(1).values();
    const auto& w = ctx.ReadVector(2).values();
    double max_speed = 1e-6;
    for (int c = 0; c < cells; ++c) {
      max_speed = std::max({max_speed, std::abs(u[static_cast<std::size_t>(c)]),
                            std::abs(vv[static_cast<std::size_t>(c)]),
                            std::abs(w[static_cast<std::size_t>(c)])});
    }
    ctx.WriteScalar(0).set_value(max_speed);
  });

  fn_reduce_dt_group_ = job_->RegisterFunction(B("reduce_dt_group"), [](TaskContext& ctx) {
    double m = 0.0;
    for (std::size_t i = 0; i < ctx.read_count(); ++i) {
      m = std::max(m, ctx.ReadScalar(i));
    }
    ctx.WriteScalar(0).set_value(m);
  });

  fn_reduce_dt_ = job_->RegisterFunction(B("reduce_dt"), [=](TaskContext& ctx) {
    // reads: dt_group[0..g-1], frame_time ; writes: dt_global
    const std::size_t n = ctx.read_count() - 1;
    double max_speed = 1e-6;
    for (std::size_t i = 0; i < n; ++i) {
      max_speed = std::max(max_speed, ctx.ReadScalar(i));
    }
    const double frame_time = ctx.ReadScalar(n);
    double dt = std::max(kDtMin, cfg.cfl * kDx / max_speed);
    dt = std::min(dt, cfg.max_dt);
    dt = std::min(dt, cfg.frame_duration - frame_time);  // clamp to frame end
    dt = std::max(dt, kDtMin);
    ctx.WriteScalar(0).set_value(dt);
    ctx.ReturnScalar(dt);
  });

  // ---- Halo packing ----
  fn_pack_phi_ = job_->RegisterFunction(B("pack_phi"), [=](TaskContext& ctx) {
    const auto& phi = ctx.ReadVector(0).values();
    auto& lo = ctx.WriteVector(0, static_cast<std::size_t>(plane)).values();
    auto& hi = ctx.WriteVector(1, static_cast<std::size_t>(plane)).values();
    for (int c = 0; c < plane; ++c) {
      lo[static_cast<std::size_t>(c)] = phi[static_cast<std::size_t>(c)];
      hi[static_cast<std::size_t>(c)] =
          phi[static_cast<std::size_t>(c + (nzl - 1) * plane)];
    }
  });

  fn_pack_vel_ = job_->RegisterFunction(B("pack_vel"), [=](TaskContext& ctx) {
    const auto& u = ctx.ReadVector(0).values();
    const auto& vv = ctx.ReadVector(1).values();
    const auto& w = ctx.ReadVector(2).values();
    auto& lo = ctx.WriteVector(0, static_cast<std::size_t>(3 * plane)).values();
    auto& hi = ctx.WriteVector(1, static_cast<std::size_t>(3 * plane)).values();
    for (int c = 0; c < plane; ++c) {
      lo[static_cast<std::size_t>(c)] = u[static_cast<std::size_t>(c)];
      lo[static_cast<std::size_t>(plane + c)] = vv[static_cast<std::size_t>(c)];
      lo[static_cast<std::size_t>(2 * plane + c)] = w[static_cast<std::size_t>(c)];
      const int top = c + (nzl - 1) * plane;
      hi[static_cast<std::size_t>(c)] = u[static_cast<std::size_t>(top)];
      hi[static_cast<std::size_t>(plane + c)] = vv[static_cast<std::size_t>(top)];
      hi[static_cast<std::size_t>(2 * plane + c)] = w[static_cast<std::size_t>(top)];
    }
  });

  // Upwind advection of one scalar slab by (u,v,w); vertical neighbors come from halos.
  // reads: field, u, v, w, dt, [halo_below (hi plane of q-1)], [halo_above (lo of q+1)]
  auto advect_scalar = [=](TaskContext& ctx, bool has_below, bool has_above,
                           std::size_t out_index) {
    const auto& f = ctx.ReadVector(0).values();
    const auto& u = ctx.ReadVector(1).values();
    const auto& vv = ctx.ReadVector(2).values();
    const auto& w = ctx.ReadVector(3).values();
    const double dt = ctx.ReadScalar(4);
    std::size_t next = 5;
    const std::vector<double>* below = has_below ? &ctx.ReadVector(next++).values() : nullptr;
    const std::vector<double>* above = has_above ? &ctx.ReadVector(next++).values() : nullptr;

    auto at = [&](int i, int j, int k) -> double {
      i = Wrap(i, nx);
      j = Wrap(j, ny);
      if (k < 0) {
        return below != nullptr ? (*below)[static_cast<std::size_t>(Cell(i, j, 0, nx, ny))]
                                : f[static_cast<std::size_t>(Cell(i, j, 0, nx, ny))];
      }
      if (k >= nzl) {
        return above != nullptr
                   ? (*above)[static_cast<std::size_t>(Cell(i, j, 0, nx, ny))]
                   : f[static_cast<std::size_t>(Cell(i, j, nzl - 1, nx, ny))];
      }
      return f[static_cast<std::size_t>(Cell(i, j, k, nx, ny))];
    };

    auto& out = ctx.WriteVector(out_index, static_cast<std::size_t>(cells)).values();
    out.resize(static_cast<std::size_t>(cells));
    for (int k = 0; k < nzl; ++k) {
      for (int j = 0; j < ny; ++j) {
        for (int i = 0; i < nx; ++i) {
          const int c = Cell(i, j, k, nx, ny);
          const double uc = u[static_cast<std::size_t>(c)];
          const double vc = vv[static_cast<std::size_t>(c)];
          const double wc = w[static_cast<std::size_t>(c)];
          const double fx = uc > 0 ? at(i, j, k) - at(i - 1, j, k)
                                   : at(i + 1, j, k) - at(i, j, k);
          const double fy = vc > 0 ? at(i, j, k) - at(i, j - 1, k)
                                   : at(i, j + 1, k) - at(i, j, k);
          const double fz = wc > 0 ? at(i, j, k) - at(i, j, k - 1)
                                   : at(i, j, k + 1) - at(i, j, k);
          out[static_cast<std::size_t>(c)] =
              at(i, j, k) - dt / kDx * (uc * fx + vc * fy + wc * fz);
        }
      }
    }
  };

  fn_advect_phi_ = job_->RegisterFunction(B("advect_phi"), [=](TaskContext& ctx) {
    // read layout: phi, u, v, w, dt, [below], [above] -- flags in params
    BlobReader r(ctx.params());
    const bool has_below = r.ReadU8() != 0;
    const bool has_above = r.ReadU8() != 0;
    advect_scalar(ctx, has_below, has_above, 0);
  });

  fn_advect_vel_ = job_->RegisterFunction(B("advect_vel"), [=](TaskContext& ctx) {
    // reads: u, v, w, dt, [vel_halo_below], [vel_halo_above]; writes u, v, w
    BlobReader r(ctx.params());
    const bool has_below = r.ReadU8() != 0;
    const bool has_above = r.ReadU8() != 0;
    const auto& u = ctx.ReadVector(0).values();
    const auto& vv = ctx.ReadVector(1).values();
    const auto& w = ctx.ReadVector(2).values();
    const double dt = ctx.ReadScalar(3);
    std::size_t next = 4;
    const std::vector<double>* below = has_below ? &ctx.ReadVector(next++).values() : nullptr;
    const std::vector<double>* above = has_above ? &ctx.ReadVector(next++).values() : nullptr;

    auto component = [&](const std::vector<double>& f, int comp, int i, int j,
                         int k) -> double {
      i = Wrap(i, nx);
      j = Wrap(j, ny);
      if (k < 0) {
        const int c = Cell(i, j, 0, nx, ny);
        return below != nullptr ? (*below)[static_cast<std::size_t>(comp * plane + c)]
                                : f[static_cast<std::size_t>(c)];
      }
      if (k >= nzl) {
        const int c = Cell(i, j, 0, nx, ny);
        return above != nullptr ? (*above)[static_cast<std::size_t>(comp * plane + c)]
                                : f[static_cast<std::size_t>(Cell(i, j, nzl - 1, nx, ny))];
      }
      return f[static_cast<std::size_t>(Cell(i, j, k, nx, ny))];
    };

    std::vector<double> nu(static_cast<std::size_t>(cells));
    std::vector<double> nv(static_cast<std::size_t>(cells));
    std::vector<double> nw(static_cast<std::size_t>(cells));
    for (int k = 0; k < nzl; ++k) {
      for (int j = 0; j < ny; ++j) {
        for (int i = 0; i < nx; ++i) {
          const int c = Cell(i, j, k, nx, ny);
          const double wc = w[static_cast<std::size_t>(c)];
          auto upwind_z = [&](const std::vector<double>& f, int comp) {
            return wc > 0 ? component(f, comp, i, j, k) - component(f, comp, i, j, k - 1)
                          : component(f, comp, i, j, k + 1) - component(f, comp, i, j, k);
          };
          nu[static_cast<std::size_t>(c)] =
              u[static_cast<std::size_t>(c)] - dt / kDx * wc * upwind_z(u, 0);
          nv[static_cast<std::size_t>(c)] =
              vv[static_cast<std::size_t>(c)] - dt / kDx * wc * upwind_z(vv, 1);
          nw[static_cast<std::size_t>(c)] =
              w[static_cast<std::size_t>(c)] - dt / kDx * wc * upwind_z(w, 2);
        }
      }
    }
    ctx.WriteVector(0).values() = std::move(nu);
    ctx.WriteVector(1).values() = std::move(nv);
    ctx.WriteVector(2).values() = std::move(nw);
  });

  fn_forces_ = job_->RegisterFunction(B("apply_forces"), [=](TaskContext& ctx) {
    // reads: phi, density, dt; writes: w, forces
    const auto& phi = ctx.ReadVector(0).values();
    const auto& density = ctx.ReadVector(1).values();
    const double dt = ctx.ReadScalar(2);
    auto& w = ctx.WriteVector(0).values();
    auto& forces = ctx.WriteVector(1, static_cast<std::size_t>(cells)).values();
    forces.resize(static_cast<std::size_t>(cells));
    for (int c = 0; c < cells; ++c) {
      const double inside = phi[static_cast<std::size_t>(c)] > 0 ? 1.0 : 0.05;
      const double f = kGravity * inside * density[static_cast<std::size_t>(c)];
      forces[static_cast<std::size_t>(c)] = f;
      w[static_cast<std::size_t>(c)] += dt * f * 0.01;  // scaled for the proxy's stability
      w[static_cast<std::size_t>(c)] *= 0.999;          // mild damping
    }
  });

  fn_advect_particles_ = job_->RegisterFunction(B("advect_particles"), [=](TaskContext& ctx) {
    // reads: particles, w, dt; writes: particles
    const auto& w = ctx.ReadVector(1).values();
    const double dt = ctx.ReadScalar(2);
    auto& parts = ctx.WriteVector(0).values();
    for (std::size_t n = 0; n + 1 < parts.size(); n += 2) {
      const int k = std::clamp(static_cast<int>(parts[n] / kDx), 0, nzl - 1);
      parts[n] += dt * w[static_cast<std::size_t>(Cell(0, 0, k, nx, ny))];
    }
  });

  fn_delete_escaped_ = job_->RegisterFunction(B("delete_escaped"), [=](TaskContext& ctx) {
    // reads: particles; writes: particles, removed_particles
    auto& parts = ctx.WriteVector(0).values();
    auto& removed = ctx.WriteVector(1).values();
    double escaped = 0.0;
    std::vector<double> kept;
    kept.reserve(parts.size());
    for (std::size_t n = 0; n + 1 < parts.size(); n += 2) {
      if (parts[n] < -kDx || parts[n] > (nzl + 1) * kDx) {
        escaped += 1.0;
      } else {
        kept.push_back(parts[n]);
        kept.push_back(parts[n + 1]);
      }
    }
    parts = std::move(kept);
    removed.assign(1, escaped);
  });

  fn_correct_phi_ = job_->RegisterFunction(B("correct_phi"), [=](TaskContext& ctx) {
    // reads: particles; writes: phi  (particle-levelset error correction)
    const auto& parts = ctx.ReadVector(0).values();
    auto& phi = ctx.WriteVector(0).values();
    for (std::size_t n = 0; n + 1 < parts.size(); n += 2) {
      const int k = std::clamp(static_cast<int>(parts[n] / kDx), 0, nzl - 1);
      const int c = Cell(0, 0, k, nx, ny);
      phi[static_cast<std::size_t>(c)] += 0.01 * parts[n + 1];
    }
  });

  fn_reseed_ = job_->RegisterFunction(B("reseed"), [=](TaskContext& ctx) {
    // reads: phi, reseed params; writes: particles, reseed_counter
    const auto& phi = ctx.ReadVector(0).values();
    auto& parts = ctx.WriteVector(0).values();
    auto& counter = ctx.WriteVector(1).values();
    if (counter.empty()) {
      counter.assign(1, 0.0);
    }
    counter[0] += 1.0;
    Rng rng(static_cast<std::uint64_t>(counter[0]) * 104729 + 11);
    while (parts.size() < 2 * kParticlesPerPartition) {
      const double z = rng.NextDouble(0.0, nzl * kDx);
      const int k = std::clamp(static_cast<int>(z / kDx), 0, nzl - 1);
      parts.push_back(z);
      parts.push_back(0.1 * phi[static_cast<std::size_t>(Cell(0, 0, k, nx, ny))]);
    }
  });

  fn_reinit_phi_ = job_->RegisterFunction(B("reinit_phi"), [=](TaskContext& ctx) {
    // reads: phi; writes: phi, interface_flags, curvature  (one smoothing sweep)
    auto& phi = ctx.WriteVector(0).values();
    auto& flags = ctx.WriteVector(1, static_cast<std::size_t>(cells)).values();
    auto& curv = ctx.WriteVector(2, static_cast<std::size_t>(cells)).values();
    flags.resize(static_cast<std::size_t>(cells));
    curv.resize(static_cast<std::size_t>(cells));
    for (int k = 0; k < nzl; ++k) {
      for (int j = 0; j < ny; ++j) {
        for (int i = 0; i < nx; ++i) {
          const int c = Cell(i, j, k, nx, ny);
          const double left =
              phi[static_cast<std::size_t>(Cell(Wrap(i - 1, nx), j, k, nx, ny))];
          const double right =
              phi[static_cast<std::size_t>(Cell(Wrap(i + 1, nx), j, k, nx, ny))];
          curv[static_cast<std::size_t>(c)] =
              left - 2 * phi[static_cast<std::size_t>(c)] + right;
          flags[static_cast<std::size_t>(c)] =
              std::abs(phi[static_cast<std::size_t>(c)]) < kDx ? 1.0 : 0.0;
        }
      }
    }
    for (int c = 0; c < cells; ++c) {
      phi[static_cast<std::size_t>(c)] += 0.05 * curv[static_cast<std::size_t>(c)];
    }
  });

  fn_extrapolate_ = job_->RegisterFunction(B("extrapolate"), [=](TaskContext& ctx) {
    // reads: phi, u, v, w; writes: u, v, w, vorticity (damp air-side velocity)
    const auto& phi = ctx.ReadVector(0).values();
    auto& u = ctx.WriteVector(0).values();
    auto& vv = ctx.WriteVector(1).values();
    auto& w = ctx.WriteVector(2).values();
    auto& vort = ctx.WriteVector(3, static_cast<std::size_t>(cells)).values();
    vort.resize(static_cast<std::size_t>(cells));
    for (int c = 0; c < cells; ++c) {
      if (phi[static_cast<std::size_t>(c)] < -2 * kDx) {
        u[static_cast<std::size_t>(c)] *= 0.5;
        vv[static_cast<std::size_t>(c)] *= 0.5;
        w[static_cast<std::size_t>(c)] *= 0.5;
      }
      vort[static_cast<std::size_t>(c)] =
          u[static_cast<std::size_t>(c)] - vv[static_cast<std::size_t>(c)];
    }
  });

  fn_divergence_ = job_->RegisterFunction(B("divergence"), [=](TaskContext& ctx) {
    // reads: u, v, w, [vel_halo_below], [vel_halo_above]; writes: divergence, rhs
    BlobReader r(ctx.params());
    const bool has_below = r.ReadU8() != 0;
    const bool has_above = r.ReadU8() != 0;
    const auto& u = ctx.ReadVector(0).values();
    const auto& vv = ctx.ReadVector(1).values();
    const auto& w = ctx.ReadVector(2).values();
    std::size_t next = 3;
    const std::vector<double>* below = has_below ? &ctx.ReadVector(next++).values() : nullptr;
    const std::vector<double>* above = has_above ? &ctx.ReadVector(next++).values() : nullptr;

    auto wc = [&](int i, int j, int k) -> double {
      if (k < 0) {
        const int c = Cell(i, j, 0, nx, ny);
        return below != nullptr ? (*below)[static_cast<std::size_t>(2 * plane + c)]
                                : w[static_cast<std::size_t>(c)];
      }
      if (k >= nzl) {
        const int c = Cell(i, j, 0, nx, ny);
        return above != nullptr ? (*above)[static_cast<std::size_t>(2 * plane + c)]
                                : w[static_cast<std::size_t>(Cell(i, j, nzl - 1, nx, ny))];
      }
      return w[static_cast<std::size_t>(Cell(i, j, k, nx, ny))];
    };

    auto& div = ctx.WriteVector(0, static_cast<std::size_t>(cells)).values();
    auto& rhs = ctx.WriteVector(1, static_cast<std::size_t>(cells)).values();
    div.resize(static_cast<std::size_t>(cells));
    rhs.resize(static_cast<std::size_t>(cells));
    for (int k = 0; k < nzl; ++k) {
      for (int j = 0; j < ny; ++j) {
        for (int i = 0; i < nx; ++i) {
          const int c = Cell(i, j, k, nx, ny);
          const double du =
              u[static_cast<std::size_t>(Cell(Wrap(i + 1, nx), j, k, nx, ny))] -
              u[static_cast<std::size_t>(Cell(Wrap(i - 1, nx), j, k, nx, ny))];
          const double dv =
              vv[static_cast<std::size_t>(Cell(i, Wrap(j + 1, ny), k, nx, ny))] -
              vv[static_cast<std::size_t>(Cell(i, Wrap(j - 1, ny), k, nx, ny))];
          const double dw = wc(i, j, k + 1) - wc(i, j, k - 1);
          div[static_cast<std::size_t>(c)] = (du + dv + dw) / (2 * kDx);
          rhs[static_cast<std::size_t>(c)] = div[static_cast<std::size_t>(c)];
        }
      }
    }
  });

  // ---- Conjugate gradient (7-point Laplacian, Dirichlet at global z ends) ----
  fn_cg_init_ = job_->RegisterFunction(B("cg_init"), [=](TaskContext& ctx) {
    // reads: rhs; writes: pressure, cg_r, cg_p, rr_partial
    const auto& rhs = ctx.ReadVector(0).values();
    auto& x = ctx.WriteVector(0, static_cast<std::size_t>(cells)).values();
    auto& rvec = ctx.WriteVector(1, static_cast<std::size_t>(cells)).values();
    auto& p = ctx.WriteVector(2, static_cast<std::size_t>(cells)).values();
    x.assign(static_cast<std::size_t>(cells), 0.0);
    rvec = rhs;
    p = rhs;
    double rr = 0.0;
    for (int c = 0; c < cells; ++c) {
      rr += rhs[static_cast<std::size_t>(c)] * rhs[static_cast<std::size_t>(c)];
    }
    ctx.WriteScalar(3).set_value(rr);
  });

  fn_cg_pack_p_ = job_->RegisterFunction(B("cg_pack_p"), [=](TaskContext& ctx) {
    const auto& p = ctx.ReadVector(0).values();
    auto& lo = ctx.WriteVector(0, static_cast<std::size_t>(plane)).values();
    auto& hi = ctx.WriteVector(1, static_cast<std::size_t>(plane)).values();
    for (int c = 0; c < plane; ++c) {
      lo[static_cast<std::size_t>(c)] = p[static_cast<std::size_t>(c)];
      hi[static_cast<std::size_t>(c)] = p[static_cast<std::size_t>(c + (nzl - 1) * plane)];
    }
  });

  fn_cg_spmv_ = job_->RegisterFunction(B("cg_spmv"), [=](TaskContext& ctx) {
    // reads: cg_p, [p_halo_below], [p_halo_above]; writes: cg_q, pq_partial
    BlobReader r(ctx.params());
    const bool has_below = r.ReadU8() != 0;
    const bool has_above = r.ReadU8() != 0;
    const auto& p = ctx.ReadVector(0).values();
    std::size_t next = 1;
    const std::vector<double>* below = has_below ? &ctx.ReadVector(next++).values() : nullptr;
    const std::vector<double>* above = has_above ? &ctx.ReadVector(next++).values() : nullptr;

    auto pv = [&](int i, int j, int k) -> double {
      i = Wrap(i, nx);
      j = Wrap(j, ny);
      if (k < 0) {
        return below != nullptr ? (*below)[static_cast<std::size_t>(Cell(i, j, 0, nx, ny))]
                                : 0.0;  // global Dirichlet boundary
      }
      if (k >= nzl) {
        return above != nullptr ? (*above)[static_cast<std::size_t>(Cell(i, j, 0, nx, ny))]
                                : 0.0;
      }
      return p[static_cast<std::size_t>(Cell(i, j, k, nx, ny))];
    };

    auto& q = ctx.WriteVector(0, static_cast<std::size_t>(cells)).values();
    q.resize(static_cast<std::size_t>(cells));
    double pq = 0.0;
    for (int k = 0; k < nzl; ++k) {
      for (int j = 0; j < ny; ++j) {
        for (int i = 0; i < nx; ++i) {
          const int c = Cell(i, j, k, nx, ny);
          const double ap = 6.0 * pv(i, j, k) - pv(i - 1, j, k) - pv(i + 1, j, k) -
                            pv(i, j - 1, k) - pv(i, j + 1, k) - pv(i, j, k - 1) -
                            pv(i, j, k + 1);
          q[static_cast<std::size_t>(c)] = ap;
          pq += pv(i, j, k) * ap;
        }
      }
    }
    ctx.WriteScalar(1).set_value(pq);
  });

  fn_sum_group_ = job_->RegisterFunction(B("sum_group"), [](TaskContext& ctx) {
    double sum = 0.0;
    for (std::size_t i = 0; i < ctx.read_count(); ++i) {
      sum += ctx.ReadScalar(i);
    }
    ctx.WriteScalar(0).set_value(sum);
  });

  fn_cg_alpha_ = job_->RegisterFunction(B("cg_alpha"), [](TaskContext& ctx) {
    // reads: pq_group[0..g-1], rho; writes: alpha
    const std::size_t n = ctx.read_count() - 1;
    double pq = 0.0;
    for (std::size_t i = 0; i < n; ++i) {
      pq += ctx.ReadScalar(i);
    }
    const double rho = ctx.ReadScalar(n);
    ctx.WriteScalar(0).set_value(std::abs(pq) > 1e-300 ? rho / pq : 0.0);
  });

  fn_cg_update_xr_ = job_->RegisterFunction(B("cg_update_xr"), [=](TaskContext& ctx) {
    // reads: cg_p, cg_q, alpha; writes: pressure, cg_r, rr_partial
    const auto& p = ctx.ReadVector(0).values();
    const auto& q = ctx.ReadVector(1).values();
    const double alpha = ctx.ReadScalar(2);
    auto& x = ctx.WriteVector(0).values();
    auto& rvec = ctx.WriteVector(1).values();
    double rr = 0.0;
    for (int c = 0; c < cells; ++c) {
      x[static_cast<std::size_t>(c)] += alpha * p[static_cast<std::size_t>(c)];
      rvec[static_cast<std::size_t>(c)] -= alpha * q[static_cast<std::size_t>(c)];
      rr += rvec[static_cast<std::size_t>(c)] * rvec[static_cast<std::size_t>(c)];
    }
    ctx.WriteScalar(2).set_value(rr);
  });

  fn_cg_beta_ = job_->RegisterFunction(B("cg_beta"), [](TaskContext& ctx) {
    // reads: rr_group[0..g-1], rho; writes: rho, beta; returns residual
    const std::size_t n = ctx.read_count() - 1;
    double rr = 0.0;
    for (std::size_t i = 0; i < n; ++i) {
      rr += ctx.ReadScalar(i);
    }
    const double rho_old = ctx.ReadScalar(n);
    ctx.WriteScalar(0).set_value(rr);
    ctx.WriteScalar(1).set_value(rho_old > 1e-300 ? rr / rho_old : 0.0);
    ctx.ReturnScalar(std::sqrt(rr));
  });

  fn_cg_update_p_ = job_->RegisterFunction(B("cg_update_p"), [=](TaskContext& ctx) {
    // reads: cg_r, beta; writes: cg_p
    const auto& rvec = ctx.ReadVector(0).values();
    const double beta = ctx.ReadScalar(1);
    auto& p = ctx.WriteVector(0).values();
    for (int c = 0; c < cells; ++c) {
      p[static_cast<std::size_t>(c)] =
          rvec[static_cast<std::size_t>(c)] + beta * p[static_cast<std::size_t>(c)];
    }
  });

  // ---- Projection + frame bookkeeping ----
  fn_apply_pressure_ = job_->RegisterFunction(B("apply_pressure"), [=](TaskContext& ctx) {
    // reads: pressure, [p_halo_below], [p_halo_above], dt; writes: u, v, w
    BlobReader r(ctx.params());
    const bool has_below = r.ReadU8() != 0;
    const bool has_above = r.ReadU8() != 0;
    const auto& x = ctx.ReadVector(0).values();
    std::size_t next = 1;
    const std::vector<double>* below = has_below ? &ctx.ReadVector(next++).values() : nullptr;
    const std::vector<double>* above = has_above ? &ctx.ReadVector(next++).values() : nullptr;
    const double dt = ctx.ReadScalar(next);

    auto xv = [&](int i, int j, int k) -> double {
      i = Wrap(i, nx);
      j = Wrap(j, ny);
      if (k < 0) {
        return below != nullptr ? (*below)[static_cast<std::size_t>(Cell(i, j, 0, nx, ny))]
                                : 0.0;
      }
      if (k >= nzl) {
        return above != nullptr ? (*above)[static_cast<std::size_t>(Cell(i, j, 0, nx, ny))]
                                : 0.0;
      }
      return x[static_cast<std::size_t>(Cell(i, j, k, nx, ny))];
    };

    auto& u = ctx.WriteVector(0).values();
    auto& vv = ctx.WriteVector(1).values();
    auto& w = ctx.WriteVector(2).values();
    for (int k = 0; k < nzl; ++k) {
      for (int j = 0; j < ny; ++j) {
        for (int i = 0; i < nx; ++i) {
          const int c = Cell(i, j, k, nx, ny);
          u[static_cast<std::size_t>(c)] -=
              dt * (xv(i + 1, j, k) - xv(i - 1, j, k)) / (2 * kDx);
          vv[static_cast<std::size_t>(c)] -=
              dt * (xv(i, j + 1, k) - xv(i, j - 1, k)) / (2 * kDx);
          w[static_cast<std::size_t>(c)] -=
              dt * (xv(i, j, k + 1) - xv(i, j, k - 1)) / (2 * kDx);
        }
      }
    }
  });

  fn_monitor_ = job_->RegisterFunction(B("monitor"), [=](TaskContext& ctx) {
    const auto& u = ctx.ReadVector(0).values();
    const auto& vv = ctx.ReadVector(1).values();
    const auto& w = ctx.ReadVector(2).values();
    double m = 0.0;
    for (int c = 0; c < cells; ++c) {
      m = std::max({m, std::abs(u[static_cast<std::size_t>(c)]),
                    std::abs(vv[static_cast<std::size_t>(c)]),
                    std::abs(w[static_cast<std::size_t>(c)])});
    }
    ctx.WriteScalar(0).set_value(m);
  });

  fn_monitor_group_ = job_->RegisterFunction(B("monitor_group"), [](TaskContext& ctx) {
    double m = 0.0;
    for (std::size_t i = 0; i < ctx.read_count(); ++i) {
      m = std::max(m, ctx.ReadScalar(i));
    }
    ctx.WriteScalar(0).set_value(m);
  });

  fn_advance_time_ = job_->RegisterFunction(B("advance_time"), [](TaskContext& ctx) {
    // reads: speed_group[0..g-1], dt_global, frame_time; writes: speed_global, frame_time,
    // stats; returns new frame_time
    const std::size_t n = ctx.read_count() - 2;
    double speed = 0.0;
    for (std::size_t i = 0; i < n; ++i) {
      speed = std::max(speed, ctx.ReadScalar(i));
    }
    const double dt = ctx.ReadScalar(n);
    const double t = ctx.ReadScalar(n + 1) + dt;
    ctx.WriteScalar(0).set_value(speed);
    ctx.WriteScalar(1).set_value(t);
    auto& stats = ctx.WriteVector(2).values();
    if (stats.size() < 4) {
      stats.assign(4, 0.0);
    }
    stats[0] += 1.0;   // substeps executed
    stats[1] = speed;  // last max speed
    ctx.ReturnScalar(t);
  });
}

void WaterSimApp::DefineBlocks() {
  const int p = config_.partitions;
  const int g = config_.reduce_groups;

  // Halo-neighbour flags for partition q, encoded into the task's parameter blob.
  auto halo_params = [&](int q) {
    BlobWriter w;
    w.WriteU8(q > 0 ? 1 : 0);
    w.WriteU8(q < p - 1 ? 1 : 0);
    return w.Take();
  };
  auto add_halo_reads = [&](TaskDescriptor* task, VariableId lo, VariableId hi, int q) {
    if (q > 0) {
      task->reads.push_back(ObjRef{hi, q - 1});  // plane below comes from q-1's top
    }
    if (q < p - 1) {
      task->reads.push_back(ObjRef{lo, q + 1});  // plane above comes from q+1's bottom
    }
  };

  auto map_stage = [&](const std::string& name, FunctionId fn, sim::Duration duration,
                       const std::vector<VariableId>& reads,
                       const std::vector<VariableId>& writes) {
    StageDescriptor stage;
    stage.name = name;
    for (int q = 0; q < p; ++q) {
      TaskDescriptor task;
      task.function = fn;
      for (VariableId r : reads) {
        task.reads.push_back(ObjRef{r, r == dt_global_ ? 0 : q});
      }
      for (VariableId w : writes) {
        task.writes.push_back(ObjRef{w, q});
      }
      task.placement_partition = q;
      task.duration = duration;
      stage.tasks.push_back(std::move(task));
    }
    return stage;
  };

  auto group_reduce_stage = [&](const std::string& name, FunctionId fn, VariableId in,
                                VariableId out, sim::Duration duration) {
    StageDescriptor stage;
    stage.name = name;
    for (int group = 0; group < g; ++group) {
      TaskDescriptor task;
      task.function = fn;
      for (int q = group; q < p; q += g) {
        task.reads.push_back(ObjRef{in, q});
      }
      task.writes = {ObjRef{out, group}};
      task.placement_partition = group;
      task.duration = duration;
      stage.tasks.push_back(std::move(task));
    }
    return stage;
  };

  // ---- ws_frame_start ----
  {
    StageDescriptor stage;
    stage.name = "reset_frame";
    TaskDescriptor task;
    task.function = fn_reset_frame_;
    task.writes = {ObjRef{frame_time_, 0}};
    task.placement_partition = 0;
    task.duration = sim::Micros(100);
    stage.tasks.push_back(std::move(task));
    job_->DefineBlock(B("frame_start"), {std::move(stage)});
  }

  // ---- ws_dt: compute_dt(P) -> group max(G) -> final(1, returns dt) ----
  {
    StageDescriptor compute =
        map_stage("compute_dt", fn_compute_dt_, config_.cg_task, {u_, v_, w_}, {dt_local_});
    StageDescriptor group = group_reduce_stage("reduce_dt_group", fn_reduce_dt_group_,
                                               dt_local_, dt_group_, config_.reduce_task);
    StageDescriptor final_stage;
    final_stage.name = "reduce_dt";
    TaskDescriptor task;
    task.function = fn_reduce_dt_;
    for (int i = 0; i < g; ++i) {
      task.reads.push_back(ObjRef{dt_group_, i});
    }
    task.reads.push_back(ObjRef{frame_time_, 0});
    task.writes = {ObjRef{dt_global_, 0}};
    task.placement_partition = 0;
    task.duration = config_.reduce_task;
    task.returns_scalar = true;
    final_stage.tasks.push_back(std::move(task));
    job_->DefineBlock(B("dt"),
                      {std::move(compute), std::move(group), std::move(final_stage)});
  }

  // ---- ws_advect: 12 stages ----
  {
    std::vector<StageDescriptor> stages;
    stages.push_back(map_stage("pack_phi", fn_pack_phi_, config_.pack_task, {phi_},
                               {phi_halo_lo_, phi_halo_hi_}));
    stages.push_back(map_stage("pack_vel", fn_pack_vel_, config_.pack_task, {u_, v_, w_},
                               {u_halo_lo_, u_halo_hi_}));
    // advect_phi: reads phi, u, v, w, dt, [below hi], [above lo]
    {
      StageDescriptor stage;
      stage.name = "advect_phi";
      for (int q = 0; q < p; ++q) {
        TaskDescriptor task;
        task.function = fn_advect_phi_;
        task.reads = {ObjRef{phi_, q}, ObjRef{u_, q}, ObjRef{v_, q}, ObjRef{w_, q},
                      ObjRef{dt_global_, 0}};
        add_halo_reads(&task, phi_halo_lo_, phi_halo_hi_, q);
        task.writes = {ObjRef{phi_, q}};
        task.placement_partition = q;
        task.duration = config_.advect_task;
        task.params = halo_params(q);
        stage.tasks.push_back(std::move(task));
      }
      stages.push_back(std::move(stage));
    }
    // advect_vel: reads u, v, w, dt, [vel halos]
    {
      StageDescriptor stage;
      stage.name = "advect_vel";
      for (int q = 0; q < p; ++q) {
        TaskDescriptor task;
        task.function = fn_advect_vel_;
        task.reads = {ObjRef{u_, q}, ObjRef{v_, q}, ObjRef{w_, q}, ObjRef{dt_global_, 0}};
        add_halo_reads(&task, u_halo_lo_, u_halo_hi_, q);
        task.writes = {ObjRef{u_, q}, ObjRef{v_, q}, ObjRef{w_, q}};
        task.placement_partition = q;
        task.duration = config_.advect_task;
        task.params = halo_params(q);
        stage.tasks.push_back(std::move(task));
      }
      stages.push_back(std::move(stage));
    }
    stages.push_back(map_stage("apply_forces", fn_forces_, config_.small_task,
                               {phi_, density_, dt_global_}, {w_, forces_}));
    stages.push_back(map_stage("advect_particles", fn_advect_particles_, config_.small_task,
                               {particles_, w_, dt_global_}, {particles_}));
    stages.push_back(map_stage("delete_escaped", fn_delete_escaped_, config_.pack_task,
                               {particles_}, {particles_, removed_particles_}));
    stages.push_back(map_stage("correct_phi", fn_correct_phi_, config_.small_task,
                               {particles_}, {phi_}));
    stages.push_back(
        map_stage("reseed", fn_reseed_, config_.pack_task, {phi_}, {particles_,
                                                                    reseed_counter_}));
    stages.push_back(map_stage("reinit_phi", fn_reinit_phi_, config_.small_task, {phi_},
                               {phi_, interface_flags_, curvature_}));
    stages.push_back(map_stage("extrapolate", fn_extrapolate_, config_.small_task,
                               {phi_, u_, v_, w_}, {u_, v_, w_, vorticity_}));
    // divergence reads fresh velocity halos: repack first.
    stages.push_back(map_stage("pack_vel2", fn_pack_vel_, config_.pack_task, {u_, v_, w_},
                               {u_halo_lo_, u_halo_hi_}));
    {
      StageDescriptor stage;
      stage.name = "divergence";
      for (int q = 0; q < p; ++q) {
        TaskDescriptor task;
        task.function = fn_divergence_;
        task.reads = {ObjRef{u_, q}, ObjRef{v_, q}, ObjRef{w_, q}};
        add_halo_reads(&task, u_halo_lo_, u_halo_hi_, q);
        task.writes = {ObjRef{divergence_, q}, ObjRef{rhs_, q}};
        task.placement_partition = q;
        task.duration = config_.small_task;
        task.params = halo_params(q);
        stage.tasks.push_back(std::move(task));
      }
      stages.push_back(std::move(stage));
    }
    job_->DefineBlock(B("advect"), std::move(stages));
  }

  // ---- ws_cg_init: r = rhs, p = r, x = 0; rho = r.r ----
  {
    StageDescriptor init = map_stage("cg_init", fn_cg_init_, config_.cg_task, {rhs_},
                                     {pressure_, cg_r_, cg_p_, rr_partial_});
    StageDescriptor group = group_reduce_stage("cg_rho_group", fn_sum_group_, rr_partial_,
                                               rr_group_, config_.reduce_task);
    StageDescriptor final_stage;
    final_stage.name = "cg_rho";
    TaskDescriptor task;
    task.function = fn_cg_beta_;  // also computes rho & beta bookkeeping; returns sqrt(rr)
    for (int i = 0; i < g; ++i) {
      task.reads.push_back(ObjRef{rr_group_, i});
    }
    task.reads.push_back(ObjRef{rho_, 0});
    task.writes = {ObjRef{rho_, 0}, ObjRef{beta_, 0}};
    task.placement_partition = 0;
    task.duration = config_.reduce_task;
    task.returns_scalar = true;
    final_stage.tasks.push_back(std::move(task));
    job_->DefineBlock(B("cg_init"),
                      {std::move(init), std::move(group), std::move(final_stage)});
  }

  // ---- ws_cg_iter: 6 stages, returns sqrt(residual) ----
  {
    std::vector<StageDescriptor> stages;
    stages.push_back(map_stage("cg_pack_p", fn_cg_pack_p_, config_.pack_task, {cg_p_},
                               {cg_p_halo_lo_, cg_p_halo_hi_}));
    {
      StageDescriptor stage;
      stage.name = "cg_spmv";
      for (int q = 0; q < p; ++q) {
        TaskDescriptor task;
        task.function = fn_cg_spmv_;
        task.reads = {ObjRef{cg_p_, q}};
        add_halo_reads(&task, cg_p_halo_lo_, cg_p_halo_hi_, q);
        task.writes = {ObjRef{cg_q_, q}, ObjRef{pq_partial_, q}};
        task.placement_partition = q;
        task.duration = config_.cg_task;
        task.params = halo_params(q);
        stage.tasks.push_back(std::move(task));
      }
      stages.push_back(std::move(stage));
    }
    stages.push_back(group_reduce_stage("cg_pq_group", fn_sum_group_, pq_partial_, pq_group_,
                                        config_.reduce_task));
    {
      StageDescriptor stage;
      stage.name = "cg_alpha";
      TaskDescriptor task;
      task.function = fn_cg_alpha_;
      for (int i = 0; i < g; ++i) {
        task.reads.push_back(ObjRef{pq_group_, i});
      }
      task.reads.push_back(ObjRef{rho_, 0});
      task.writes = {ObjRef{alpha_, 0}};
      task.placement_partition = 0;
      task.duration = config_.reduce_task;
      stage.tasks.push_back(std::move(task));
      stages.push_back(std::move(stage));
    }
    {
      StageDescriptor stage;
      stage.name = "cg_update_xr";
      for (int q = 0; q < p; ++q) {
        TaskDescriptor task;
        task.function = fn_cg_update_xr_;
        task.reads = {ObjRef{cg_p_, q}, ObjRef{cg_q_, q}, ObjRef{alpha_, 0}};
        task.writes = {ObjRef{pressure_, q}, ObjRef{cg_r_, q}, ObjRef{rr_partial_, q}};
        task.placement_partition = q;
        task.duration = config_.cg_task;
        stage.tasks.push_back(std::move(task));
      }
      stages.push_back(std::move(stage));
    }
    stages.push_back(group_reduce_stage("cg_rr_group", fn_sum_group_, rr_partial_, rr_group_,
                                        config_.reduce_task));
    {
      StageDescriptor stage;
      stage.name = "cg_beta";
      TaskDescriptor task;
      task.function = fn_cg_beta_;
      for (int i = 0; i < g; ++i) {
        task.reads.push_back(ObjRef{rr_group_, i});
      }
      task.reads.push_back(ObjRef{rho_, 0});
      task.writes = {ObjRef{rho_, 0}, ObjRef{beta_, 0}};
      task.placement_partition = 0;
      task.duration = config_.reduce_task;
      task.returns_scalar = true;
      stage.tasks.push_back(std::move(task));
      stages.push_back(std::move(stage));
    }
    {
      StageDescriptor stage;
      stage.name = "cg_update_p";
      for (int q = 0; q < p; ++q) {
        TaskDescriptor task;
        task.function = fn_cg_update_p_;
        task.reads = {ObjRef{cg_r_, q}, ObjRef{beta_, 0}};
        task.writes = {ObjRef{cg_p_, q}};
        task.placement_partition = q;
        task.duration = config_.cg_task;
        stage.tasks.push_back(std::move(task));
      }
      stages.push_back(std::move(stage));
    }
    job_->DefineBlock(B("cg_iter"), std::move(stages));
  }

  // ---- ws_project: pack pressure, apply gradient, monitor, advance time ----
  {
    std::vector<StageDescriptor> stages;
    stages.push_back(map_stage("pack_pressure", fn_cg_pack_p_, config_.pack_task, {pressure_},
                               {cg_p_halo_lo_, cg_p_halo_hi_}));
    {
      StageDescriptor stage;
      stage.name = "apply_pressure";
      for (int q = 0; q < p; ++q) {
        TaskDescriptor task;
        task.function = fn_apply_pressure_;
        task.reads = {ObjRef{pressure_, q}};
        add_halo_reads(&task, cg_p_halo_lo_, cg_p_halo_hi_, q);
        task.reads.push_back(ObjRef{dt_global_, 0});
        task.writes = {ObjRef{u_, q}, ObjRef{v_, q}, ObjRef{w_, q}};
        task.placement_partition = q;
        task.duration = config_.small_task;
        task.params = halo_params(q);
        stage.tasks.push_back(std::move(task));
      }
      stages.push_back(std::move(stage));
    }
    stages.push_back(map_stage("monitor", fn_monitor_, config_.cg_task, {u_, v_, w_},
                               {speed_partial_}));
    stages.push_back(group_reduce_stage("monitor_group", fn_monitor_group_, speed_partial_,
                                        speed_group_, config_.reduce_task));
    {
      StageDescriptor stage;
      stage.name = "advance_time";
      TaskDescriptor task;
      task.function = fn_advance_time_;
      for (int i = 0; i < g; ++i) {
        task.reads.push_back(ObjRef{speed_group_, i});
      }
      task.reads.push_back(ObjRef{dt_global_, 0});
      task.reads.push_back(ObjRef{frame_time_, 0});
      task.writes = {ObjRef{speed_global_, 0}, ObjRef{frame_time_, 0}, ObjRef{stats_, 0}};
      task.placement_partition = 0;
      task.duration = config_.reduce_task;
      task.returns_scalar = true;
      stage.tasks.push_back(std::move(task));
      stages.push_back(std::move(stage));
    }
    job_->DefineBlock(B("project"), std::move(stages));
  }
}

void WaterSimApp::Setup() {
  DefineVariables();
  DefineFunctions();
  DefineBlocks();

  std::vector<StageDescriptor> init;
  {
    StageDescriptor stage;
    stage.name = "init_fields";
    for (int q = 0; q < config_.partitions; ++q) {
      TaskDescriptor task;
      task.function = fn_init_fields_;
      task.writes = {ObjRef{phi_, q},      ObjRef{u_, q},
                     ObjRef{v_, q},        ObjRef{w_, q},
                     ObjRef{particles_, q}, ObjRef{removed_particles_, q},
                     ObjRef{pressure_, q}, ObjRef{density_, q},
                     ObjRef{wall_mask_, q}};
      task.placement_partition = q;
      task.duration = sim::Millis(2);
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
    stage.name = "init_globals";
    TaskDescriptor task;
    task.function = fn_init_globals_;
    task.writes = {ObjRef{frame_time_, 0},  ObjRef{rho_, 0},         ObjRef{alpha_, 0},
                   ObjRef{beta_, 0},        ObjRef{dt_global_, 0},   ObjRef{speed_global_, 0},
                   ObjRef{stats_, 0}};
    task.placement_partition = 0;
    task.duration = sim::Micros(100);
    stage.tasks.push_back(std::move(task));
    init.push_back(std::move(stage));
  }
  job_->RunStages(std::move(init));
}

WaterSimApp::FrameStats WaterSimApp::RunFrame() {
  FrameStats stats;
  job_->RunBlock(B("frame_start"));
  double frame_time = 0.0;
  while (frame_time < config_.frame_duration - 1e-9 &&
         stats.substeps < config_.max_substeps) {
    // Middle loop: data-dependent time step from the CFL condition.
    job_->RunBlock(B("dt"));
    job_->RunBlock(B("advect"));

    // Inner loop: CG until the residual is small -- genuinely data-dependent.
    double residual = job_->RunBlock(B("cg_init")).FirstScalar();
    int cg = 0;
    while (residual > config_.cg_tolerance && cg < config_.max_cg_iterations) {
      residual = job_->RunBlock(B("cg_iter")).FirstScalar();
      ++cg;
    }
    stats.total_cg_iterations += cg;
    stats.last_residual = residual;

    const Job::RunResult project = job_->RunBlock(B("project"));
    frame_time = project.FirstScalar();
    ++stats.substeps;
  }
  stats.frame_time = frame_time;

  // Read the max speed from the stats object (every frame's project block writes it).
  const std::vector<double> frame_stats = job_->ReadVector(stats_, 0);
  NIMBUS_CHECK_GE(frame_stats.size(), 2u);
  stats.max_speed = frame_stats[1];
  return stats;
}

double WaterSimApp::MeasureVolume() {
  double volume = 0.0;
  for (int q = 0; q < config_.partitions; ++q) {
    for (double phi : job_->ReadVector(phi_, q)) {
      if (phi > 0) {
        volume += 1.0;
      }
    }
  }
  return volume;
}

}  // namespace nimbus::apps
