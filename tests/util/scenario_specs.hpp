#pragma once
// ScenarioSpec builders for tests that drive MoreStressSimulator::simulate
// with pre-built payloads (power maps, traces, packages, boundary data):
//
//   sim.simulate(with_power(array_spec(3, 3), power)).thermal_array
//
// Header-only so every test suite can include it as "util/scenario_specs.hpp".

#include <array>
#include <functional>
#include <memory>

#include "chiplet/package_model.hpp"
#include "chiplet/submodel.hpp"
#include "rom/load_field.hpp"
#include "sweep/scenario_result.hpp"
#include "sweep/scenario_spec.hpp"
#include "thermal/power_map.hpp"
#include "thermal/power_trace.hpp"

namespace ms::testutil {

/// Standalone blocks_x x blocks_y array, steady, uniform ΔT = config.thermal_load.
inline sweep::ScenarioSpec array_spec(int blocks_x, int blocks_y) {
  sweep::ScenarioSpec spec;
  spec.blocks_x = blocks_x;
  spec.blocks_y = blocks_y;
  return spec;
}

/// Sub-model window: blocks_x x blocks_y TSV blocks padded by dummy_rings.
inline sweep::ScenarioSpec submodel_spec(int blocks_x, int blocks_y, int dummy_rings) {
  sweep::ScenarioSpec spec = array_spec(blocks_x, blocks_y);
  spec.kind = sweep::ScenarioKind::kSubmodel;
  spec.dummy_rings = dummy_rings;
  return spec;
}

/// Steady uniform load with an explicit per-block ΔT field.
inline sweep::ScenarioSpec with_load(sweep::ScenarioSpec spec, const rom::BlockLoadField& load) {
  spec.load_field = std::make_shared<const rom::BlockLoadField>(load);
  return spec;
}

/// Steady uniform sub-model load with explicit boundary displacements.
inline sweep::ScenarioSpec with_displacement(
    sweep::ScenarioSpec spec,
    std::function<std::array<double, 3>(const mesh::Point3&)> displacement) {
  spec.displacement = std::move(displacement);
  return spec;
}

/// Steady power-map load.
inline sweep::ScenarioSpec with_power(sweep::ScenarioSpec spec, const thermal::PowerMap& power) {
  spec.load = sweep::LoadKind::kPower;
  spec.power_map = std::make_shared<const thermal::PowerMap>(power);
  return spec;
}

/// Power-trace load under a transient or fatigue analysis.
inline sweep::ScenarioSpec with_trace(
    sweep::ScenarioSpec spec, const thermal::PowerTrace& trace,
    sweep::AnalysisKind analysis = sweep::AnalysisKind::kTransient) {
  spec.analysis = analysis;
  spec.load = sweep::LoadKind::kTrace;
  spec.power_trace = std::make_shared<const thermal::PowerTrace>(trace);
  return spec;
}

/// Place a sub-model window in `package` at `placement`. The spec holds a
/// non-owning pointer: the caller's package must outlive every query.
inline sweep::ScenarioSpec in_package(sweep::ScenarioSpec spec,
                                      const chiplet::PackageModel& package,
                                      const chiplet::SubmodelPlacement& placement) {
  spec.package = std::shared_ptr<const chiplet::PackageModel>(
      std::shared_ptr<const chiplet::PackageModel>(), &package);
  spec.placement = placement;
  return spec;
}

}  // namespace ms::testutil
