// Particle-levelset water-simulation proxy (paper §5.5, Fig 11).
//
// Stands in for the PhysBAM simulation the paper ports to Nimbus: water pouring into a
// glass, a triply-nested loop with 21 computational stages over 40+ variables, inner-loop
// termination conditions based on data values, and tasks from ~100µs to tens of ms.
//
// Structure (per frame):
//
//   while (frame_time < frame_duration) {           // middle loop, data-dependent (CFL)
//     dt = ReduceDt(max |u|)                        //   block ws_dt
//     Advect(levelset, velocity, particles, ...)    //   block ws_advect   (12 stages)
//     rho = CgInit(divergence)                      //   block ws_cg_init
//     while (sqrt(rho) > tolerance) {               // inner loop, data-dependent (residual)
//       rho = CgIterate()                           //   block ws_cg_iter  (6 stages)
//     }
//     frame_time += ProjectAndAdvance(dt)           //   block ws_project  (4 stages)
//   }
//
// The grid is a 3D slab decomposition along z: partition q owns an nx*ny*nz_local slab of
// each field. Halo planes are explicit small variables written by pack stages and read by
// neighbors, so inter-partition dependencies become ordinary cross-worker copies in the
// worker templates. The pressure solve is a real distributed conjugate-gradient on the
// 7-point Laplacian (per-partition SpMV + two reduction trees per iteration), so the inner
// loop's exit really is data-dependent.
//
// Physics is simplified (first-order upwind advection, single-phase forcing) but every task
// does real arithmetic on real slabs; modeled task durations are set separately so the
// control-plane experiments see PhysBAM-scale timing (median 13 ms, tails 60-70 ms / 100 µs).

#ifndef NIMBUS_SRC_APPS_WATERSIM_H_
#define NIMBUS_SRC_APPS_WATERSIM_H_

#include <cstdint>
#include <string>
#include <vector>

#include "src/driver/job.h"

namespace nimbus::apps {

class WaterSimApp {
 public:
  struct Config {
    int partitions = 4;
    int reduce_groups = 2;
    int nx = 8, ny = 8, nz_local = 4;  // per-partition slab
    double frame_duration = 1.0;       // simulated seconds per frame
    double cfl = 0.5;
    double max_dt = 0.15;              // dt cap (standard stability clamp)
    double cg_tolerance = 1e-4;
    int max_cg_iterations = 60;
    int max_substeps = 16;
    std::uint64_t seed = 3;

    // Modeled durations (calibrated to the paper's task-length distribution).
    sim::Duration advect_task = sim::Millis(60);   // heavy stages
    sim::Duration pack_task = sim::Micros(100);    // the paper's shortest tasks
    sim::Duration cg_task = sim::Millis(3);        // 10% of tasks are <3ms
    sim::Duration small_task = sim::Millis(13);    // median
    sim::Duration reduce_task = sim::Micros(300);

    std::string block_prefix = "ws";
  };

  WaterSimApp(Job* job, Config config);

  // Defines 40+ variables, 25+ stage functions and the five basic blocks; initializes the
  // water column.
  void Setup();

  struct FrameStats {
    int substeps = 0;
    int total_cg_iterations = 0;
    double frame_time = 0.0;
    double last_residual = 0.0;
    double max_speed = 0.0;
  };

  // Runs one frame of the triply nested driver loop.
  FrameStats RunFrame();

  // Total water volume (sum of levelset-inside indicator), for conservation checks.
  double MeasureVolume();

  const Config& config() const { return config_; }

 private:
  void DefineVariables();
  void DefineFunctions();
  void DefineBlocks();
  std::string B(const std::string& s) const { return config_.block_prefix + "_" + s; }

  int SlabCells() const { return config_.nx * config_.ny * config_.nz_local; }
  int PlaneCells() const { return config_.nx * config_.ny; }

  Job* job_;
  Config config_;

  // --- Field variables (one slab per partition unless noted) ---
  VariableId phi_, phi_halo_lo_, phi_halo_hi_;          // levelset + ghost planes
  VariableId u_, v_, w_;                                // velocity components
  VariableId u_halo_lo_, u_halo_hi_;                    // w-normal ghost planes (z faces)
  VariableId particles_, removed_particles_;            // marker particles
  VariableId divergence_, rhs_, pressure_;
  VariableId cg_r_, cg_p_, cg_q_;                       // CG state
  VariableId cg_p_halo_lo_, cg_p_halo_hi_;
  VariableId pq_partial_, rr_partial_;                  // CG dot-product partials
  VariableId pq_group_, rr_group_;                      // reduce-tree level 1
  VariableId rho_, alpha_, beta_;                       // global CG scalars (1 partition)
  VariableId dt_local_, dt_group_, dt_global_;          // CFL reduction
  VariableId speed_partial_, speed_group_, speed_global_;
  VariableId frame_time_;                               // accumulated physical time (1)
  VariableId forces_, density_, interface_flags_, reseed_counter_, stats_;
  VariableId vorticity_, curvature_, wall_mask_;

  // --- Functions ---
  FunctionId fn_init_fields_, fn_init_globals_, fn_reset_frame_;
  FunctionId fn_compute_dt_, fn_reduce_dt_group_, fn_reduce_dt_;
  FunctionId fn_pack_phi_, fn_pack_vel_, fn_advect_phi_, fn_advect_vel_, fn_forces_;
  FunctionId fn_advect_particles_, fn_correct_phi_, fn_reseed_, fn_delete_escaped_;
  FunctionId fn_reinit_phi_, fn_extrapolate_, fn_divergence_;
  FunctionId fn_cg_init_, fn_cg_pack_p_, fn_cg_spmv_, fn_cg_update_xr_, fn_cg_update_p_;
  FunctionId fn_sum_group_, fn_cg_alpha_, fn_cg_beta_;
  FunctionId fn_apply_pressure_, fn_monitor_, fn_monitor_group_, fn_advance_time_;
};

}  // namespace nimbus::apps

#endif  // NIMBUS_SRC_APPS_WATERSIM_H_
