#pragma once
// MoreStressSimulator — the public entry point of the library.
//
//   ms::core::MoreStressSimulator sim(ms::core::SimulationConfig::paper_default());
//   ms::sweep::ScenarioSpec spec;          // scenario 1: uniform ΔT array
//   spec.blocks_x = spec.blocks_y = 20;
//   const ms::sweep::ScenarioResult result = sim.simulate(spec);
//   // result.array->von_mises is the mid-plane field; ->stats has cost data.
//
// The one-shot local stage runs lazily on first use and is cached for the
// lifetime of the simulator (and optionally on disk), exactly mirroring the
// paper's "perform once, reuse for arbitrary array sizes/loads/locations".
// Every scenario kind (array / submodel x steady / transient / fatigue) is
// one declarative sweep::ScenarioSpec handed to simulate(); see
// sweep/scenario_spec.hpp and the README "Scenarios" section.

#include <memory>
#include <string>
#include <vector>

#include "chiplet/package_model.hpp"
#include "chiplet/package_thermal.hpp"
#include "chiplet/submodel.hpp"
#include "core/cancel.hpp"
#include "core/config.hpp"
#include "core/results.hpp"
#include "la/factor_cache.hpp"
#include "reliability/damage.hpp"
#include "reliability/stress_history.hpp"
#include "rom/block_grid.hpp"
#include "rom/global_assembler.hpp"
#include "rom/global_solver.hpp"
#include "rom/load_field.hpp"
#include "rom/model_cache.hpp"
#include "rom/reconstruct.hpp"
#include "thermal/power_map.hpp"
#include "thermal/power_trace.hpp"
#include "thermal/temperature_field.hpp"
#include "thermal/thermal_solver.hpp"

namespace ms::sweep {
struct ScenarioSpec;
struct ScenarioResult;
}  // namespace ms::sweep

namespace ms::core {

class MoreStressSimulator {
 public:
  explicit MoreStressSimulator(SimulationConfig config);

  /// The one entry point for every scenario. The kind (standalone array or
  /// dummy-padded sub-model window in a package) resolves into one Window,
  /// the analysis into one stage sequence over it:
  ///   steady    — optional steady conduction of a power map to per-block
  ///               ΔT, then one global panel;
  ///   transient — θ-stepper march of a power trace, then the peak-envelope
  ///               ΔT and every requested snapshot step as one panel (the
  ///               worst transient state, which a steady solve of any single
  ///               instant underestimates);
  ///   fatigue   — the same march, then envelope + every recorded step
  ///               (subject to fatigue.record_stride) as one panel reduced
  ///               to per-block stress channels, rainflow-counted and
  ///               Miner-summed under the standard model set.
  /// A uniform power map degenerates to the scalar-ΔT load exactly, and a
  /// constant trace relaxes to the steady solution. A spec.time_step
  /// override only changes the θ-stepper's step. Defined in
  /// core/simulate_scenario.cpp.
  [[nodiscard]] sweep::ScenarioResult simulate(const sweep::ScenarioSpec& spec);

  /// Force the local stage now (otherwise lazy). Returns its wall time,
  /// 0 when already cached.
  double prepare_local_stage(bool with_dummy);

  /// Optional on-disk cache for the one-shot models.
  void set_cache_directory(const std::string& dir) { cache_dir_ = dir; }

  /// Cross-scenario factorization memoization (the sweep engine's cache).
  /// Non-owning; the cache must outlive the simulator. Direct-method solves
  /// (global stage, steady conduction, θ-stepper) then share factorizations
  /// with every other simulator wired to the same cache. Keys incorporate a
  /// values-fingerprint of the operator inputs (model loads, conductivity
  /// fields, constrained-dof sets), so simulators with different configs may
  /// safely share one cache. Results stay bit-identical to uncached runs.
  void set_factor_cache(la::FactorCache* cache) { factor_cache_ = cache; }

  /// Cross-simulator local-stage sharing (the sweep engine's model cache).
  /// Non-owning; must outlive the simulator. Keyed by the same fingerprint
  /// as the on-disk cache, composes with set_cache_directory (disk is
  /// checked on an in-memory miss).
  void set_model_cache(rom::ModelCache* cache) { model_cache_ = cache; }

  /// Cooperative cancellation/deadline token, checked at panel, assembly,
  /// factorization, and trace-step boundaries. Inert by default — only the
  /// sweep engine (and tests) arm it.
  void set_cancel_token(core::CancelToken token) { cancel_ = std::move(token); }

  [[nodiscard]] const SimulationConfig& config() const { return config_; }
  [[nodiscard]] const rom::RomModel& tsv_model();
  [[nodiscard]] const rom::RomModel& dummy_model();

 private:
  /// A scenario kind resolved once: the ROM block grid (the padded window
  /// for a sub-model), its TSV mask and Dirichlet condition, the reported
  /// block range, and — for conduction — the package the window sits in.
  struct Window {
    explicit Window(rom::BlockGrid block_grid) : grid(std::move(block_grid)) {}
    rom::BlockGrid grid;
    rom::BlockMask mask;  ///< y-major, 1 = TSV block; empty = all TSV
    fem::DirichletBc bc;
    rom::BlockRange report_range;
    bool uses_dummy = false;
    // Conduction inputs (power and trace loads only):
    /// The package hosting a sub-model window; null for a standalone array
    /// (and for a sub-model driven by a displacement payload).
    std::shared_ptr<const chiplet::PackageModel> package;
    chiplet::SubmodelPlacement placement;
    /// Plan extent every power map must cover [um]: the array footprint, or
    /// the package substrate.
    double plan_x = 0.0;
    double plan_y = 0.0;
    /// Per-block ΔT reduction of a conduction solution onto the grid
    /// (windowed to the interposer layer for a sub-model).
    thermal::BlockReduction reduction;
  };
  /// One global panel: the primary case fully reconstructed, the raw global
  /// solution of every extra case (same order as the extra loads), and the
  /// panel's solve statistics.
  struct Panel {
    ArrayResult primary;
    std::vector<Vec> extra;
    rom::GlobalSolveStats solve;
  };

  /// Kind resolution (simulate_scenario.cpp): grid, mask, boundary data,
  /// report range, and the package/placement with its one coverage check.
  Window resolve_window(const sweep::ScenarioSpec& spec);
  /// The one multi-RHS global solve every analysis runs: assemble the global
  /// operator once, solve [primary | extras] as a single panel (one
  /// factorization on the direct path), and reconstruct the primary case.
  /// What the extras become (snapshot fields, fatigue channels) is the
  /// caller's step, and so is publishing core.run.*. The primary's memory
  /// covers models, operator, factor, its stress field and solution, but
  /// nothing the caller keeps of the extras. With a factor cache attached,
  /// a resident key skips the operator assembly entirely (load vectors
  /// only) and the factorization.
  Panel run_panel(const Window& window, const rom::BlockLoadField& primary_load,
                  const std::vector<rom::BlockLoadField>& extra_loads);
  /// The window's conduction model: the array's own coarse mesh with
  /// TSV-aware block conductivities, or the package stack with the window's
  /// blocks resolved. Capacities are built for the transient march only
  /// (the package model always carries them).
  [[nodiscard]] chiplet::PackageThermalModel conduction_model(const Window& window,
                                                              bool with_capacity) const;
  /// Steady conduction of `power` over the window's conduction model,
  /// reduced to the per-block ΔT the ROM takes.
  rom::BlockLoadField steady_conduction(const Window& window, const thermal::PowerMap& power,
                                        thermal::TemperatureField* temperature,
                                        thermal::ThermalSolveStats* stats);
  /// Transient conduction of `trace` over the same model with step
  /// `time_step`, recording the per-block ΔT history and its peak envelope.
  thermal::TransientTemperatureResult transient_conduction(const Window& window,
                                                           const thermal::PowerTrace& trace,
                                                           double time_step,
                                                           thermal::TransientSolveStats* stats);
  /// Rainflow + Miner reduction of a recorded history under the standard
  /// model set (options parameterize bins and the Engelmaier channel).
  reliability::ReliabilityReport assess_fatigue(const reliability::StressHistory& history,
                                                double trace_duration,
                                                const FatigueOptions& options) const;
  const rom::RomModel& model_for(rom::BlockKind kind);
  /// The one-shot model's identity string (geometry/mesh/nodes/samples) —
  /// the on-disk cache's file name and the ModelCache key.
  [[nodiscard]] std::string model_fingerprint(rom::BlockKind kind) const;
  [[nodiscard]] std::string cache_path(rom::BlockKind kind) const;
  /// Factor-cache key of the lifted global operator: model fingerprints and
  /// load hashes (covering materials), mask, constrained-dof set, and the
  /// factorization options. Forces the needed models to exist.
  std::string global_factor_key(const Window& window);
  /// One source of truth for "transient options = coupling.transient with
  /// coupling.solve as boundary model" at step `time_step`, plus the
  /// factor-cache wiring when a cache is attached.
  [[nodiscard]] thermal::TransientSolveOptions transient_solve_options(
      const std::string& factor_key, double time_step) const;
  /// coupling.solve with the factor-cache wiring (steady conduction paths).
  [[nodiscard]] thermal::ThermalSolveOptions steady_solve_options(
      const std::string& factor_key) const;

  SimulationConfig config_;
  std::shared_ptr<const rom::RomModel> tsv_model_;
  std::shared_ptr<const rom::RomModel> dummy_model_;
  std::string cache_dir_;
  la::FactorCache* factor_cache_ = nullptr;
  rom::ModelCache* model_cache_ = nullptr;
  core::CancelToken cancel_;
};

}  // namespace ms::core
