#include "model.hpp"

#include "rom/local_stage.hpp"

namespace perfbench {

ms::core::SimulationConfig bench_config(double pitch, int samples) {
  ms::core::SimulationConfig config = ms::core::SimulationConfig::paper_default();
  config.geometry.pitch = pitch;
  config.mesh_spec = {8, 6};
  config.local.samples_per_block = samples;
  config.local.sample_displacements = false;
  return config;
}

ms::core::SimulationConfig sweep_config() {
  ms::core::SimulationConfig config = bench_config(15.0, 10);
  config.global.method = "direct";
  config.coupling.solve.method = "direct";
  return config;
}

ms::sweep::ScenarioSpec uniform_array_spec(int blocks_x, int blocks_y) {
  ms::sweep::ScenarioSpec spec;
  spec.name = "uniform_" + std::to_string(blocks_x) + "x" + std::to_string(blocks_y);
  spec.kind = ms::sweep::ScenarioKind::kArray;
  spec.analysis = ms::sweep::AnalysisKind::kSteady;
  spec.load = ms::sweep::LoadKind::kUniform;
  spec.blocks_x = blocks_x;
  spec.blocks_y = blocks_y;
  return spec;
}

double oracle_error_pct(ms::core::MoreStressSimulator& simulator, int edge, double* fem_seconds) {
  const ms::sweep::ScenarioResult rom = simulator.simulate(uniform_array_spec(edge, edge));
  ms::fem::FemSolveOptions fem;
  fem.method = "cg";
  fem.precond = "ssor";
  fem.rel_tol = 1e-7;
  const Clock::time_point start = Clock::now();
  const ms::core::ReferenceResult reference =
      ms::core::reference_array(simulator.config(), edge, edge, fem);
  if (fem_seconds != nullptr) *fem_seconds = seconds_since(start);
  return 100.0 * ms::core::field_error(reference, rom.base().von_mises);
}

ms::rom::RomModel traced_local_stage(const ms::core::SimulationConfig& config, Tracer& tracer,
                                     Record& record) {
  const auto run = [&config] {
    return ms::rom::run_local_stage(config.geometry, config.mesh_spec, config.materials,
                                    ms::rom::BlockKind::Tsv, config.local);
  };
  for (const Clock::time_point start = Clock::now(); seconds_since(start) < kWarmUpSeconds;) {
    (void)run();
  }
  ms::rom::RomModel model;
  int id = 0;
  {
    const Tracer::Scope span(tracer, "rom.local_stage");
    id = span.id();
    model = run();
  }
  record.metric("rom.local_stage_s", tracer.span(id).seconds());
  return model;
}

bool same_fields(const ms::core::ArrayResult& a, const ms::core::ArrayResult& b) {
  return a.von_mises == b.von_mises && a.stress == b.stress && a.solution == b.solution;
}

bool same_result(const ms::sweep::ScenarioResult& a, const ms::sweep::ScenarioResult& b) {
  if (a.failed() || b.failed() || !same_fields(a.base(), b.base())) return false;
  if (a.peak_von_mises != b.peak_von_mises) return false;
  if ((a.fatigue == nullptr) != (b.fatigue == nullptr)) return false;
  if (a.fatigue != nullptr) {
    const auto& fa = a.fatigue->report;
    const auto& fb = b.fatigue->report;
    if (fa.min_life_cycles != fb.min_life_cycles || fa.min_life_channel != fb.min_life_channel ||
        a.fatigue->history.raw_data() != b.fatigue->history.raw_data()) {
      return false;
    }
  }
  if ((a.thermal_array == nullptr) != (b.thermal_array == nullptr)) return false;
  if (a.thermal_array != nullptr &&
      a.thermal_array->load.values() != b.thermal_array->load.values()) {
    return false;
  }
  return true;
}

}  // namespace perfbench
