#pragma once
// Library-facing helpers shared by the workloads: the bench-scale
// configuration, the reference-FEM accuracy oracle, the traced local stage,
// and field comparisons.

#include "core/report.hpp"
#include "core/simulator.hpp"
#include "harness.hpp"
#include "sweep/scenario_result.hpp"
#include "sweep/scenario_spec.hpp"

namespace perfbench {

constexpr double kMiB = 1024.0 * 1024.0;

/// Bench-scale configuration: the paper geometry at `pitch` with a coarser
/// fine mesh (8 graded elements across, 6 through the height) and
/// `samples` plane samples per block — the values of the repository's
/// table benches, fixed here so the benchmark's inputs only change when
/// this file does.
ms::core::SimulationConfig bench_config(double pitch, int samples);

/// The sweeps' configuration: bench_config(15, 10) with direct solvers for
/// the global stage and conduction, so both operators go through the
/// factor cache.
ms::core::SimulationConfig sweep_config();

/// Steady array spec under the config's uniform ΔT.
ms::sweep::ScenarioSpec uniform_array_spec(int blocks_x, int blocks_y);

/// Accuracy oracle: normalized MAE (in %) of simulate(uniform edge x edge)
/// against the full fine-mesh reference FEM of the simulator's config.
/// `fem_seconds` receives the reference run's wall time.
double oracle_error_pct(ms::core::MoreStressSimulator& simulator, int edge, double* fem_seconds);

/// The one-shot local stage for a traced run: repeats it untimed for the
/// warm-up, then runs it once inside a "rom.local_stage" span (recorded as
/// rom.local_stage_s).
ms::rom::RomModel traced_local_stage(const ms::core::SimulationConfig& config, Tracer& tracer,
                                     Record& record);

/// Bitwise equality of the stress payload every scenario kind shares.
bool same_fields(const ms::core::ArrayResult& a, const ms::core::ArrayResult& b);

/// Bitwise equality of two query results, including the fatigue verdict.
bool same_result(const ms::sweep::ScenarioResult& a, const ms::sweep::ScenarioResult& b);

}  // namespace perfbench
