#include "core/simulator.hpp"

#include <algorithm>
#include <cstdio>
#include <filesystem>
#include <memory>

#include "core/health.hpp"
#include "obs/metrics.hpp"
#include "obs/trace.hpp"
#include "rom/local_stage.hpp"
#include "thermal/conduction_assembler.hpp"
#include "util/fault_injector.hpp"
#include "util/hash.hpp"
#include "util/log.hpp"
#include "util/timer.hpp"

namespace ms::core {

SimulationConfig SimulationConfig::paper_default() {
  SimulationConfig config;
  config.geometry = {15.0, 5.0, 0.5, 50.0};
  config.mesh_spec = {12, 9};
  config.local.nodes_x = 4;
  config.local.nodes_y = 4;
  config.local.nodes_z = 4;
  config.local.samples_per_block = 100;
  config.thermal_load = -250.0;
  return config;
}

MoreStressSimulator::MoreStressSimulator(SimulationConfig config) : config_(std::move(config)) {
  config_.geometry.validate();
  config_.mesh_spec.validate();
}

std::string MoreStressSimulator::model_fingerprint(rom::BlockKind kind) const {
  char buf[256];
  std::snprintf(buf, sizeof(buf), "rom_%s_p%.3g_d%.3g_t%.3g_h%.3g_m%dx%d_n%d%d%d_s%d.bin",
                kind == rom::BlockKind::Tsv ? "tsv" : "dummy", config_.geometry.pitch,
                config_.geometry.diameter, config_.geometry.liner_thickness,
                config_.geometry.height, config_.mesh_spec.elems_xy, config_.mesh_spec.elems_z,
                config_.local.nodes_x, config_.local.nodes_y, config_.local.nodes_z,
                config_.local.samples_per_block);
  return buf;
}

std::string MoreStressSimulator::cache_path(rom::BlockKind kind) const {
  return (std::filesystem::path(cache_dir_) / model_fingerprint(kind)).string();
}

const rom::RomModel& MoreStressSimulator::model_for(rom::BlockKind kind) {
  auto& slot = (kind == rom::BlockKind::Tsv) ? tsv_model_ : dummy_model_;
  if (slot != nullptr) return *slot;

  const auto build = [this, kind]() -> std::shared_ptr<const rom::RomModel> {
    // Inside the single-flight builder: a cancelled or fault-injected build
    // throws, the cache clears the slot, and concurrent waiters retry.
    cancel_.check("local.stage");
    if (util::FaultInjector::enabled()) util::FaultInjector::global().fire("model_build");
    if (!cache_dir_.empty()) {
      const std::string path = cache_path(kind);
      if (std::filesystem::exists(path)) {
        // A stale or truncated cache file (e.g. written by an older format
        // revision) must not abort the run — recompute and overwrite it.
        try {
          auto loaded = std::make_shared<rom::RomModel>(rom::RomModel::load(path));
          MS_LOG_INFO("loaded cached ROM model from %s", path.c_str());
          return loaded;
        } catch (const std::exception& e) {
          MS_LOG_WARN("discarding unreadable ROM cache %s (%s); recomputing", path.c_str(),
                      e.what());
        }
      }
    }
    auto fresh = std::make_shared<rom::RomModel>(rom::run_local_stage(
        config_.geometry, config_.mesh_spec, config_.materials, kind, config_.local));
    if (!cache_dir_.empty()) {
      std::filesystem::create_directories(cache_dir_);
      fresh->save(cache_path(kind));
    }
    return fresh;
  };
  // The in-memory cache (sweep engine) keys by the same fingerprint the disk
  // cache names files with; disk is only consulted on an in-memory miss.
  slot = model_cache_ != nullptr ? model_cache_->get_or_create(model_fingerprint(kind), build)
                                 : build();
  return *slot;
}

const rom::RomModel& MoreStressSimulator::tsv_model() { return model_for(rom::BlockKind::Tsv); }

const rom::RomModel& MoreStressSimulator::dummy_model() {
  return model_for(rom::BlockKind::Dummy);
}

double MoreStressSimulator::prepare_local_stage(bool with_dummy) {
  util::WallTimer timer;
  const bool tsv_cached = tsv_model_ != nullptr;
  (void)tsv_model();
  if (with_dummy && dummy_model_ == nullptr) (void)dummy_model();
  return tsv_cached && (!with_dummy || dummy_model_ != nullptr) ? 0.0 : timer.seconds();
}

namespace {

/// The factorization options every factor-cache key renders: the panel
/// width changes the factor's rounding, so callers differing only here must
/// not share an entry.
std::string factor_options_tag(const la::SparseCholesky::Options& factor) {
  return "w" + std::to_string(factor.max_supernode_width);
}

/// The solver detail RunStats carries of a panel's GlobalSolveStats.
void copy_solve_stats(RunStats& stats, const rom::GlobalSolveStats& solve) {
  stats.solve_seconds = solve.solve_seconds;
  stats.global_dofs = solve.num_dofs;
  stats.iterations = solve.iterations;
  stats.converged = solve.converged;
  stats.factor_seconds = solve.factor_seconds;
  stats.factor_nnz = solve.factor_nnz;
  stats.fill_ratio = solve.fill_ratio;
  stats.degraded = solve.degraded;
  stats.diagonal_shift = solve.diagonal_shift;
}

}  // namespace

std::string MoreStressSimulator::global_factor_key(const Window& window) {
  // The key must determine the assembled operator's values and the
  // constrained-dof set — BC *values* are lifted against the cached unlifted
  // operator, so they vary freely under one key. The reduced element
  // matrices fingerprint geometry, mesh, materials, and node counts in one
  // shot (any change reruns the local stage and shifts the hash); the mask
  // and constrained dofs cover layout and boundary structure.
  const rom::RomModel& tsv = tsv_model();
  std::uint64_t h = util::fnv1a(tsv.element_stiffness.data());
  h = util::fnv1a(tsv.element_load, h);
  if (window.uses_dummy) {
    const rom::RomModel& dummy = dummy_model();
    h = util::fnv1a(dummy.element_stiffness.data(), h);
    h = util::fnv1a(dummy.element_load, h);
  }
  h = util::fnv1a(window.mask, h);
  h = util::fnv1a(window.bc.dofs, h);
  char buf[224];
  std::snprintf(buf, sizeof(buf), "glob_b%dx%d_n%d%d%d_d%d_%s_%016llx", window.grid.blocks_x(),
                window.grid.blocks_y(), config_.local.nodes_x, config_.local.nodes_y,
                config_.local.nodes_z, window.uses_dummy ? 1 : 0,
                factor_options_tag(config_.global.factor).c_str(),
                static_cast<unsigned long long>(h));
  return buf;
}

MoreStressSimulator::Panel MoreStressSimulator::run_panel(
    const Window& window, const rom::BlockLoadField& primary_load,
    const std::vector<rom::BlockLoadField>& extra_loads) {
  MS_TRACE_SCOPE("core.global.panel");
  cancel_.check("global.panel");
  const rom::RomModel& tsv = tsv_model();
  const rom::RomModel* dummy = window.uses_dummy ? &dummy_model() : nullptr;
  const rom::BlockGrid& grid = window.grid;
  const rom::BlockMask& mask = window.mask;
  const rom::BlockRange& report_range = window.report_range;

  Panel panel;
  ArrayResult& result = panel.primary;
  result.stats.local_stage_seconds =
      tsv.local_stage_seconds + (dummy != nullptr ? dummy->local_stage_seconds : 0.0);

  rom::GlobalSolveOptions solve_options = config_.global;
  solve_options.cancel = cancel_;
  const bool direct = fem::parse_solve_method(solve_options.method) == fem::SolveMethod::kDirect;
  const bool cache_global = factor_cache_ != nullptr && direct;
  if (cache_global) {
    solve_options.factor_cache = factor_cache_;
    solve_options.factor_key = global_factor_key(window);
  }

  util::WallTimer timer;
  rom::GlobalProblem problem;
  std::vector<Vec> extra_rhs;
  {
    MS_TRACE_SCOPE("core.global.assemble");
    if (cache_global && factor_cache_->contains(solve_options.factor_key)) {
      // Warm path: the key's factorization and unlifted operator are already
      // resident (entries are never evicted, so contains() cannot go stale),
      // and assembly reduces to the load vectors. On a cold key the full
      // operator is assembled below and the solver populates the cache.
      problem.num_dofs = grid.num_dofs();
      problem.rhs = rom::assemble_global_rhs(grid, tsv, dummy, mask, primary_load);
    } else if (!direct) {
      // Krylov paths apply the block operator matrix-free: no CSR.
      problem.num_dofs = grid.num_dofs();
      problem.op = std::make_shared<const rom::BlockOperator>(grid, tsv, dummy, mask);
      problem.rhs = rom::assemble_global_rhs(grid, tsv, dummy, mask, primary_load);
    } else {
      problem = rom::assemble_global(grid, tsv, dummy, mask, primary_load);
    }
    // The reduced stiffness is load-independent, so every extra case costs
    // one load-vector assembly against the shared operator.
    extra_rhs.reserve(extra_loads.size());
    for (const rom::BlockLoadField& extra : extra_loads) {
      extra_rhs.push_back(rom::assemble_global_rhs(grid, tsv, dummy, mask, extra));
    }
  }
  result.stats.assemble_seconds = timer.seconds();

  cancel_.check("global.solve");
  timer.reset();
  rom::GlobalSolveStats& panel_stats = panel.solve;
  panel.extra = rom::solve_global_multi(problem, std::move(extra_rhs), window.bc, solve_options,
                                        &panel_stats);
  const bool check = config_.robustness.check_finite;
  for (const Vec& solution : panel.extra) {
    require_finite(check, "global.solve", "global solution", solution);
  }
  // solve_global_multi returns [primary | extras]; the primary leaves the
  // front so `extra` lines up with `extra_loads`.
  result.solution = std::move(panel.extra.front());
  panel.extra.erase(panel.extra.begin());
  copy_solve_stats(result.stats, panel_stats);

  cancel_.check("global.reconstruct");
  timer.reset();
  {
    MS_TRACE_SCOPE("core.global.reconstruct");
    result.stress = rom::reconstruct_plane_stress(grid, tsv, dummy, mask, result.solution,
                                                  primary_load, report_range);
    result.von_mises = fem::to_von_mises(result.stress);
  }
  require_finite(check, "global.reconstruct", "von Mises field", result.von_mises.data(),
                 result.von_mises.size());
  result.stats.reconstruct_seconds = timer.seconds();

  result.region_blocks_x = report_range.width();
  result.region_blocks_y = report_range.height();
  result.samples_per_block = tsv.samples_per_block;
  result.stats.memory_bytes = panel_stats.matrix_bytes + panel_stats.solver_bytes +
                              tsv.memory_bytes() +
                              (dummy != nullptr ? dummy->memory_bytes() : 0) +
                              result.stress.size() * sizeof(fem::Stress6) +
                              result.solution.size() * sizeof(double);
  return panel;
}

namespace {

/// One source of truth for the package conduction-mesh spec: the steady and
/// transient scenario-2 paths must build byte-identical thermal models or
/// the constant-trace == steady lock silently breaks.
chiplet::PackageThermalSpec package_thermal_spec(const ThermalCouplingOptions& coupling) {
  chiplet::PackageThermalSpec spec;
  spec.elems_per_block_xy = coupling.elems_per_block_xy;
  spec.coarse_elems_xy = coupling.package_coarse_elems_xy;
  spec.elems_z_substrate = coupling.package_elems_z_substrate;
  spec.elems_z_interposer = coupling.elems_z;
  spec.elems_z_die = coupling.package_elems_z_die;
  spec.filler_conductivity = coupling.package_filler_conductivity;
  spec.conductivity_model = coupling.conductivity_model;
  return spec;
}

/// Factor-cache key of a steady conduction solve. The conductivity fields
/// fingerprint the geometry, materials, layout, and conductivity model; the
/// mesh dimensions and film coefficient fix the sparsity pattern and the
/// constrained-dof set (film == 0 means a Dirichlet sink on the z-min face);
/// the factorization options are rendered like the global key's. The sink
/// *temperature* and the power input are rhs-only and excluded.
std::string thermal_steady_key(const mesh::HexMesh& mesh,
                               const thermal::ConductivityField& conductivity,
                               const thermal::ThermalSolveOptions& solve) {
  std::uint64_t h = util::fnv1a(conductivity.in_plane);
  h = util::fnv1a(conductivity.through_plane, h);
  char buf[224];
  std::snprintf(buf, sizeof(buf), "thermS_n%lld_e%lld_f%.17g_%s_%016llx",
                static_cast<long long>(mesh.num_nodes()), static_cast<long long>(mesh.num_elems()),
                solve.sink_film_coefficient, factor_options_tag(solve.factor).c_str(),
                static_cast<unsigned long long>(h));
  return buf;
}

/// Factor-cache key of the transient θ-stepper's operator M/Δt + θK: the
/// steady key's inputs plus the capacities, time step, scheme, and lumping.
std::string thermal_transient_key(const mesh::HexMesh& mesh,
                                  const thermal::ConductivityField& conductivity,
                                  const Vec& capacities,
                                  const thermal::TransientSolveOptions& options) {
  std::uint64_t h = util::fnv1a(conductivity.in_plane);
  h = util::fnv1a(conductivity.through_plane, h);
  h = util::fnv1a(capacities, h);
  char buf[288];
  std::snprintf(buf, sizeof(buf), "thermT_n%lld_e%lld_f%.17g_dt%.17g_s%d_l%d_%s_%016llx",
                static_cast<long long>(mesh.num_nodes()), static_cast<long long>(mesh.num_elems()),
                options.base.sink_film_coefficient, options.time_step,
                static_cast<int>(options.scheme),
                options.lumped_capacitance ? 1 : 0,
                factor_options_tag(options.base.factor).c_str(),
                static_cast<unsigned long long>(h));
  return buf;
}

}  // namespace

thermal::ThermalSolveOptions MoreStressSimulator::steady_solve_options(
    const std::string& factor_key) const {
  thermal::ThermalSolveOptions options = config_.coupling.solve;
  options.cancel = cancel_;
  if (factor_cache_ != nullptr && !factor_key.empty()) {
    options.factor_cache = factor_cache_;
    options.factor_key = factor_key;
  }
  return options;
}

thermal::TransientSolveOptions MoreStressSimulator::transient_solve_options(
    const std::string& factor_key, double time_step) const {
  // One boundary model for steady and transient runs: the sink/ambient data
  // rides in coupling.solve, the stepping controls in coupling.transient.
  thermal::TransientSolveOptions options = config_.coupling.transient;
  options.time_step = time_step;
  options.base = config_.coupling.solve;
  options.base.cancel = cancel_;
  if (factor_cache_ != nullptr && !factor_key.empty()) {
    options.base.factor_cache = factor_cache_;
    options.base.factor_key = factor_key;
  }
  return options;
}

chiplet::PackageThermalModel MoreStressSimulator::conduction_model(const Window& window,
                                                                 bool with_capacity) const {
  const ThermalCouplingOptions& coupling = config_.coupling;
  if (window.package != nullptr) {
    return chiplet::build_package_thermal_model(window.package->geometry(), config_.geometry,
                                                window.placement, window.mask, config_.materials,
                                                package_thermal_spec(coupling));
  }
  const int bx = window.grid.blocks_x();
  const int by = window.grid.blocks_y();
  chiplet::PackageThermalModel model;
  model.mesh = thermal::build_array_thermal_mesh(config_.geometry, bx, by,
                                                 coupling.elems_per_block_xy, coupling.elems_z);
  model.conductivity = thermal::array_block_conductivities(
      model.mesh, config_.geometry, config_.materials, bx, by, window.mask,
      coupling.conductivity_model);
  if (with_capacity) {
    model.capacity = thermal::array_block_capacities(model.mesh, config_.geometry,
                                                     config_.materials, bx, by, window.mask,
                                                     coupling.conductivity_model);
  }
  return model;
}

rom::BlockLoadField MoreStressSimulator::steady_conduction(const Window& window,
                                                           const thermal::PowerMap& power,
                                                           thermal::TemperatureField* temperature,
                                                           thermal::ThermalSolveStats* stats) {
  const chiplet::PackageThermalModel model = conduction_model(window, /*with_capacity=*/false);
  const thermal::ThermalSolveOptions solve = steady_solve_options(
      factor_cache_ != nullptr
          ? thermal_steady_key(model.mesh, model.conductivity, config_.coupling.solve)
          : std::string());
  *temperature = thermal::solve_power_map(model.mesh, model.conductivity, power, solve, stats);

  const thermal::BlockReduction& r = window.reduction;
  std::vector<double> delta_t =
      r.windowed ? temperature->block_averages(r.blocks_x, r.blocks_y, r.pitch, r.origin, r.z0,
                                               r.z1)
                 : temperature->block_averages(r.blocks_x, r.blocks_y, r.pitch);
  for (double& dt : delta_t) dt -= r.reference;
  require_finite(config_.robustness.check_finite, "thermal.steady", "per-block dT field",
                 delta_t.data(), delta_t.size());
  return rom::BlockLoadField(r.blocks_x, r.blocks_y, std::move(delta_t));
}

thermal::TransientTemperatureResult MoreStressSimulator::transient_conduction(
    const Window& window, const thermal::PowerTrace& trace, double time_step,
    thermal::TransientSolveStats* stats) {
  const chiplet::PackageThermalModel model = conduction_model(window, /*with_capacity=*/true);
  std::string factor_key;
  if (factor_cache_ != nullptr) {
    factor_key = thermal_transient_key(model.mesh, model.conductivity, model.capacity,
                                       transient_solve_options(std::string(), time_step));
  }
  thermal::TransientTemperatureResult transient = thermal::solve_power_trace(
      model.mesh, model.conductivity, model.capacity, trace, window.reduction,
      transient_solve_options(factor_key, time_step), stats);
  require_finite(config_.robustness.check_finite, "thermal.transient", "dT peak envelope",
                 transient.peak_envelope.data(), transient.peak_envelope.size());
  return transient;
}

reliability::ReliabilityReport MoreStressSimulator::assess_fatigue(
    const reliability::StressHistory& history, double trace_duration,
    const FatigueOptions& options) const {
  // Deriving the Engelmaier frequency from sub-millisecond traces produces
  // cycles/day far outside the correlation's validity (and a non-negative
  // exponent); cap the *derived* value at a power-cycling-scale 1e6 — an
  // explicit options.cycles_per_day is taken at face value.
  const double cycles_per_day =
      options.cycles_per_day > 0.0
          ? options.cycles_per_day
          : (trace_duration > 0.0 ? std::min(86400.0 / trace_duration, 1e6) : 0.0);
  const reliability::FatigueModelSet models = reliability::standard_model_set(
      config_.materials, options.solder_shear_modulus, options.solder_mean_temperature,
      cycles_per_day, options.solder_shear_modulus_slope);
  reliability::ReliabilityOptions assess;
  assess.range_bins = options.range_bins;
  assess.mean_bins = options.mean_bins;
  reliability::ReliabilityReport report =
      reliability::assess_history(history, models, trace_duration, assess);
  // Damage maps must be finite (cycles_to_failure is legitimately +inf on
  // damage-free blocks, so only the Miner sums are swept).
  for (const reliability::ChannelAssessment& channel : report.channels) {
    require_finite(config_.robustness.check_finite, "fatigue.damage", "damage map",
                   channel.damage.data(), channel.damage.size());
  }
  return report;
}

}  // namespace ms::core
