// Equivalence locks: every programmatic payload (load_field, power_map,
// power_trace) and override (delta_t, time_step) of a ScenarioSpec must be
// bit-identical to the declarative form it replaces — the scalar ΔT, the
// config's thermal load, the synthesized power map / trace, a simulator
// built with the adjusted config. Same fields, same stress tensors, same
// global solution, compared with == (no tolerance). Both queries run on one
// simulator (shared local-stage model, no caches), so any drift is a real
// dispatch bug, not numerical noise.

#include <gtest/gtest.h>

#include <algorithm>
#include <array>
#include <cmath>
#include <limits>
#include <memory>
#include <string>
#include <vector>

#include "chiplet/package_model.hpp"
#include "core/cancel.hpp"
#include "core/sim_error.hpp"
#include "core/simulator.hpp"
#include "la/factor_cache.hpp"
#include "sweep/scenario_result.hpp"
#include "sweep/scenario_spec.hpp"

namespace ms::sweep {
namespace {

core::SimulationConfig small_config() {
  core::SimulationConfig config = core::SimulationConfig::paper_default();
  config.mesh_spec = {6, 3};
  config.local.nodes_x = config.local.nodes_y = config.local.nodes_z = 3;
  config.local.samples_per_block = 10;
  return config;
}

void expect_bitwise(const core::ArrayResult& a, const core::ArrayResult& b) {
  EXPECT_EQ(a.region_blocks_x, b.region_blocks_x);
  EXPECT_EQ(a.region_blocks_y, b.region_blocks_y);
  EXPECT_EQ(a.von_mises, b.von_mises);
  EXPECT_EQ(a.stress, b.stress);
  EXPECT_EQ(a.solution, b.solution);
}

TEST(SimulateSpec, ArraySteadyUniformMatchesLegacy) {
  // The default delta_t (NaN) defers to config.thermal_load.
  const core::SimulationConfig config = small_config();
  core::MoreStressSimulator sim(config);
  ScenarioSpec spec;
  spec.blocks_x = 3;
  spec.blocks_y = 2;
  const ScenarioResult deferred = sim.simulate(spec);
  spec.delta_t = config.thermal_load;
  const ScenarioResult explicit_load = sim.simulate(spec);
  ASSERT_NE(deferred.array, nullptr);
  ASSERT_NE(explicit_load.array, nullptr);
  expect_bitwise(*deferred.array, *explicit_load.array);
  const std::vector<double>& vm = explicit_load.array->von_mises;
  EXPECT_EQ(deferred.peak_von_mises, *std::max_element(vm.begin(), vm.end()));
  EXPECT_TRUE(std::isnan(deferred.min_life_log10));
}

TEST(SimulateSpec, ArraySteadyLoadFieldPayloadMatchesLegacy) {
  core::MoreStressSimulator sim(small_config());
  ScenarioSpec scalar;
  scalar.blocks_x = 2;
  scalar.blocks_y = 2;
  scalar.delta_t = -100.0;
  ScenarioSpec payload = scalar;
  payload.delta_t = std::numeric_limits<double>::quiet_NaN();
  payload.load_field = std::make_shared<rom::BlockLoadField>(rom::BlockLoadField::uniform(-100.0));
  const ScenarioResult a = sim.simulate(scalar);
  const ScenarioResult b = sim.simulate(payload);
  ASSERT_NE(a.array, nullptr);
  ASSERT_NE(b.array, nullptr);
  expect_bitwise(*b.array, *a.array);
}

TEST(SimulateSpec, ArraySteadyPowerMatchesLegacy) {
  const core::SimulationConfig config = small_config();
  core::MoreStressSimulator sim(config);

  ScenarioSpec spec;
  spec.load = LoadKind::kPower;
  spec.blocks_x = 3;
  spec.blocks_y = 3;
  spec.power.background = 25.0;
  spec.power.hotspot_peak = 300.0;
  ScenarioSpec payload = spec;
  payload.power_map = std::make_shared<thermal::PowerMap>(make_power_map(spec, config));

  const ScenarioResult synthesized = sim.simulate(spec);
  const ScenarioResult result = sim.simulate(payload);
  ASSERT_NE(synthesized.thermal_array, nullptr);
  ASSERT_NE(result.thermal_array, nullptr);
  expect_bitwise(*result.thermal_array, *synthesized.thermal_array);
  EXPECT_EQ(result.thermal_array->load.values(), synthesized.thermal_array->load.values());
  EXPECT_EQ(result.thermal_array->temperature.nodal(),
            synthesized.thermal_array->temperature.nodal());
}

TEST(SimulateSpec, ArrayTransientMatchesLegacyWithSnapshots) {
  const core::SimulationConfig config = small_config();
  core::MoreStressSimulator sim(config);

  ScenarioSpec spec;
  spec.analysis = AnalysisKind::kTransient;
  spec.load = LoadKind::kTrace;
  spec.blocks_x = 3;
  spec.blocks_y = 2;
  spec.power.background = 30.0;
  spec.power.hotspot_peak = 200.0;
  spec.trace.period = 6e-5;
  spec.trace.duty = 0.5;
  spec.trace.cycles = 1;
  spec.snapshot_steps = {0, 2};
  ScenarioSpec payload = spec;
  payload.power_trace = std::make_shared<thermal::PowerTrace>(
      make_power_trace(spec, make_power_map(spec, config)));

  const ScenarioResult synthesized = sim.simulate(spec);
  const ScenarioResult result = sim.simulate(payload);
  ASSERT_NE(synthesized.transient_array, nullptr);
  ASSERT_NE(result.transient_array, nullptr);
  const core::ThermalTransientArrayResult& expected = *synthesized.transient_array;
  expect_bitwise(*result.transient_array, expected);
  EXPECT_EQ(result.transient_array->envelope_load.values(), expected.envelope_load.values());
  ASSERT_EQ(result.transient_array->snapshots.size(), 2u);
  ASSERT_EQ(expected.snapshots.size(), 2u);
  for (std::size_t i = 0; i < expected.snapshots.size(); ++i) {
    expect_bitwise(result.transient_array->snapshots[i], expected.snapshots[i]);
  }
}

TEST(SimulateSpec, TransientSnapshotsMatchSteadyQueriesOfTheirSteps) {
  // The envelope and the snapshots solve as one panel whose extra solutions
  // are reconstructed against their own loads. Snapshot k must equal a
  // steady query at recorded step k's ΔT on the same simulator, so any
  // mismatch between an extra solution and its load shows here, on the CG
  // path, on the direct path, and on the direct path through a factor cache.
  struct Path {
    const char* method;
    bool cached;
  };
  for (const Path path : {Path{"cg", false}, Path{"direct", false}, Path{"direct", true}}) {
    SCOPED_TRACE(std::string(path.method) + (path.cached ? " + factor cache" : ""));
    core::SimulationConfig config = small_config();
    config.global.method = path.method;
    core::MoreStressSimulator sim(config);
    la::FactorCache cache;
    if (path.cached) sim.set_factor_cache(&cache);

    ScenarioSpec spec;
    spec.analysis = AnalysisKind::kTransient;
    spec.load = LoadKind::kTrace;
    spec.blocks_x = 3;
    spec.blocks_y = 2;
    spec.power.background = 30.0;
    spec.power.hotspot_peak = 200.0;
    spec.trace.period = 6e-5;
    spec.trace.duty = 0.5;
    spec.trace.cycles = 1;
    spec.snapshot_steps = {0, 2, 3};
    const ScenarioResult result = sim.simulate(spec);
    ASSERT_NE(result.transient_array, nullptr);
    const core::ThermalTransientArrayResult& transient = *result.transient_array;
    ASSERT_EQ(transient.snapshots.size(), spec.snapshot_steps.size());

    for (std::size_t k = 0; k < spec.snapshot_steps.size(); ++k) {
      const thermal::TransientTemperatureResult& t = transient.transient;
      ScenarioSpec steady;
      steady.blocks_x = spec.blocks_x;
      steady.blocks_y = spec.blocks_y;
      steady.load_field = std::make_shared<rom::BlockLoadField>(
          t.blocks_x, t.blocks_y,
          la::Vec(t.block_delta_t[static_cast<std::size_t>(spec.snapshot_steps[k])]));
      const ScenarioResult expected = sim.simulate(steady);
      ASSERT_NE(expected.array, nullptr);
      SCOPED_TRACE("snapshot " + std::to_string(k));
      expect_bitwise(transient.snapshots[k], *expected.array);
    }
  }
}

TEST(SimulateSpec, ArrayFatigueMatchesLegacy) {
  const core::SimulationConfig config = small_config();
  core::MoreStressSimulator sim(config);

  ScenarioSpec spec;
  spec.analysis = AnalysisKind::kFatigue;
  spec.load = LoadKind::kTrace;
  spec.blocks_x = 2;
  spec.blocks_y = 2;
  spec.power.background = 20.0;
  spec.power.hotspot_peak = 350.0;
  spec.trace.period = 6e-5;
  spec.trace.duty = 0.25;
  spec.trace.cycles = 2;
  ScenarioSpec payload = spec;
  payload.power_trace = std::make_shared<thermal::PowerTrace>(
      make_power_trace(spec, make_power_map(spec, config)));

  const ScenarioResult synthesized = sim.simulate(spec);
  const ScenarioResult result = sim.simulate(payload);
  ASSERT_NE(synthesized.fatigue, nullptr);
  ASSERT_NE(result.fatigue, nullptr);
  const core::FatigueResult& expected = *synthesized.fatigue;
  expect_bitwise(*result.fatigue, expected);
  EXPECT_EQ(result.fatigue->history.raw_data(), expected.history.raw_data());
  EXPECT_EQ(result.fatigue->report.min_life_cycles, expected.report.min_life_cycles);
  EXPECT_EQ(result.fatigue->report.min_life_channel, expected.report.min_life_channel);
  EXPECT_EQ(result.min_life_log10, std::log10(expected.report.min_life_cycles));
  EXPECT_EQ(result.min_life_seconds, expected.report.min_life_seconds);
}

TEST(SimulateSpec, SubmodelSteadyUniformDisplacementMatchesLegacy) {
  // Sub-model window under a displacement payload: a delta_t override and
  // the uniform load_field payload it replaces run the same load.
  core::MoreStressSimulator sim(small_config());
  ScenarioSpec spec;
  spec.kind = ScenarioKind::kSubmodel;
  spec.blocks_x = 2;
  spec.blocks_y = 2;
  spec.dummy_rings = 1;
  spec.displacement = [](const mesh::Point3& p) {
    return std::array<double, 3>{1e-4 * p.x, 1e-4 * p.y, -2e-4 * p.z};
  };
  spec.delta_t = -100.0;
  ScenarioSpec payload = spec;
  payload.delta_t = std::numeric_limits<double>::quiet_NaN();
  payload.load_field = std::make_shared<rom::BlockLoadField>(rom::BlockLoadField::uniform(-100.0));

  const ScenarioResult a = sim.simulate(spec);
  const ScenarioResult b = sim.simulate(payload);
  ASSERT_NE(a.array, nullptr);
  ASSERT_NE(b.array, nullptr);
  expect_bitwise(*b.array, *a.array);
  EXPECT_EQ(a.array->region_blocks_x, 2);
}

/// The demo package hosting a 2x2 window padded by one ring (4x4 blocks).
std::shared_ptr<const chiplet::PackageModel> demo_package(const core::SimulationConfig& config) {
  const chiplet::PackageGeometry geometry =
      chiplet::demo_package_geometry(config.geometry.pitch, 4, config.geometry.height);
  return std::make_shared<const chiplet::PackageModel>(geometry, chiplet::demo_coarse_spec(),
                                                       config.thermal_load);
}

TEST(SimulateSpec, SubmodelThermalMatchesLegacyWithSharedPackage) {
  const core::SimulationConfig config = small_config();
  core::MoreStressSimulator sim(config);

  // Pre-build the demo package once and hand it to both queries via the
  // payload slot — the same object the sweep engine would share.
  const auto package = demo_package(config);
  const chiplet::SubmodelPlacement placement =
      chiplet::standard_locations(package->geometry(), config.geometry.pitch, 4, 4)[1];

  ScenarioSpec spec;
  spec.kind = ScenarioKind::kSubmodel;
  spec.load = LoadKind::kPower;
  spec.blocks_x = 2;
  spec.blocks_y = 2;
  spec.dummy_rings = 1;
  spec.package = package;
  spec.placement = placement;
  spec.power.background = 15.0;
  spec.power.hotspot_peak = 250.0;
  ScenarioSpec payload = spec;
  payload.power_map = std::make_shared<thermal::PowerMap>(
      make_power_map(spec, config, package->geometry(), placement));

  const ScenarioResult synthesized = sim.simulate(spec);
  const ScenarioResult result = sim.simulate(payload);
  ASSERT_NE(synthesized.thermal_submodel, nullptr);
  ASSERT_NE(result.thermal_submodel, nullptr);
  expect_bitwise(*result.thermal_submodel, *synthesized.thermal_submodel);
  EXPECT_EQ(result.thermal_submodel->load.values(), synthesized.thermal_submodel->load.values());
}

TEST(SimulateSpec, SubmodelFatigueMatchesLegacy) {
  const core::SimulationConfig config = small_config();
  core::MoreStressSimulator sim(config);

  const auto package = demo_package(config);
  const chiplet::SubmodelPlacement placement =
      chiplet::standard_locations(package->geometry(), config.geometry.pitch, 4, 4)[0];

  ScenarioSpec spec;
  spec.kind = ScenarioKind::kSubmodel;
  spec.analysis = AnalysisKind::kFatigue;
  spec.load = LoadKind::kTrace;
  spec.blocks_x = 2;
  spec.blocks_y = 2;
  spec.dummy_rings = 1;
  spec.package = package;
  spec.placement = placement;
  spec.power.background = 20.0;
  spec.power.hotspot_peak = 300.0;
  spec.trace.period = 6e-5;
  spec.trace.duty = 0.5;
  spec.trace.cycles = 1;
  ScenarioSpec payload = spec;
  payload.power_trace = std::make_shared<thermal::PowerTrace>(make_power_trace(
      spec, make_power_map(spec, config, package->geometry(), placement)));

  const ScenarioResult synthesized = sim.simulate(spec);
  const ScenarioResult result = sim.simulate(payload);
  ASSERT_NE(synthesized.fatigue, nullptr);
  ASSERT_NE(result.fatigue, nullptr);
  expect_bitwise(*result.fatigue, *synthesized.fatigue);
  EXPECT_EQ(result.fatigue->history.raw_data(), synthesized.fatigue->history.raw_data());
  EXPECT_EQ(result.fatigue->report.min_life_cycles, synthesized.fatigue->report.min_life_cycles);
}

ScenarioSpec small_transient_spec() {
  ScenarioSpec spec;
  spec.analysis = AnalysisKind::kTransient;
  spec.load = LoadKind::kTrace;
  spec.blocks_x = 2;
  spec.blocks_y = 2;
  spec.power.background = 25.0;
  spec.trace.period = 6e-5;
  spec.trace.duty = 0.5;
  spec.trace.cycles = 1;
  return spec;
}

TEST(SimulateSpec, TimeStepOverrideMatchesAdjustedConfig) {
  // A per-spec time_step override must be bit-identical to a simulator
  // whose config carries that step outright.
  core::SimulationConfig adjusted = small_config();
  adjusted.coupling.transient.time_step = 1.5e-5;
  core::MoreStressSimulator reference(adjusted);
  ScenarioSpec spec = small_transient_spec();
  const ScenarioResult expected = reference.simulate(spec);

  core::MoreStressSimulator sim(small_config());
  spec.time_step = 1.5e-5;
  const ScenarioResult result = sim.simulate(spec);
  ASSERT_NE(expected.transient_array, nullptr);
  ASSERT_NE(result.transient_array, nullptr);
  expect_bitwise(*result.transient_array, *expected.transient_array);
  EXPECT_EQ(result.transient_array->transient.times, expected.transient_array->transient.times);
}

TEST(SimulateSpec, TimeStepOverrideHonoursCancellation) {
  // The override must run under the simulator's own cancel token: an
  // already-cancelled query fails classified instead of running to the end.
  for (const double time_step : {0.0, 1.5e-5}) {
    core::MoreStressSimulator sim(small_config());
    const core::CancelToken token = core::CancelToken::cancellable();
    token.request_cancel();
    sim.set_cancel_token(token);
    ScenarioSpec spec = small_transient_spec();
    spec.time_step = time_step;
    try {
      (void)sim.simulate(spec);
      ADD_FAILURE() << "time_step=" << time_step << ": query ran to completion";
    } catch (const core::SimError& e) {
      EXPECT_EQ(e.code(), core::SimErrorCode::kCancelled) << "time_step=" << time_step;
    }
  }
}

}  // namespace
}  // namespace ms::sweep
