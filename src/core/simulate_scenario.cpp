// MoreStressSimulator::simulate(const sweep::ScenarioSpec&) — the one
// scenario entry point. Each dimension of the spec is resolved once: the
// kind into a Window (grid, mask, boundary data, report range, package),
// the load into a power map or trace, and the analysis into one stage
// sequence over the window — so the array and sub-model scenarios share
// every transient, fatigue, and validation step.

#include <algorithm>
#include <cmath>
#include <functional>
#include <stdexcept>

#include "chiplet/displacement_field.hpp"
#include "core/health.hpp"
#include "core/simulator.hpp"
#include "obs/metrics.hpp"
#include "obs/query_scope.hpp"
#include "obs/trace.hpp"
#include "reliability/channel_extract.hpp"
#include "reliability/stress_history.hpp"
#include "sweep/scenario_result.hpp"
#include "sweep/scenario_spec.hpp"
#include "util/log.hpp"
#include "util/timer.hpp"

namespace ms::core {

namespace {

double peak_of(const std::vector<double>& field) {
  return field.empty() ? 0.0 : *std::max_element(field.begin(), field.end());
}

/// Largest diagonal shift any solve behind this result took (0 = no solver
/// needed the shift-retry ladder; the scenario then reports kDegraded).
double max_shift_of(const sweep::ScenarioResult& result) {
  double shift = result.base().stats.diagonal_shift;
  const auto fold = [&shift](double s) { shift = std::max(shift, s); };
  if (result.thermal_array) fold(result.thermal_array->thermal_stats.diagonal_shift);
  if (result.thermal_submodel) fold(result.thermal_submodel->thermal_stats.diagonal_shift);
  if (result.transient_array) {
    fold(result.transient_array->thermal_stats.diagonal_shift);
    for (const ArrayResult& snapshot : result.transient_array->snapshots)
      fold(snapshot.stats.diagonal_shift);
  }
  if (result.transient_submodel) fold(result.transient_submodel->thermal_stats.diagonal_shift);
  if (result.fatigue) {
    fold(result.fatigue->thermal_stats.diagonal_shift);
    fold(result.fatigue->solve_stats.diagonal_shift);
  }
  return shift;
}

/// Record what only the core layer measures: the global stage's solve,
/// factor and size detail is already published under rom.global.* and the
/// local stage's cost under rom.local.stage_seconds, each fact once.
void publish_run_stats(const RunStats& s) {
  auto& reg = obs::MetricRegistry::global();
  reg.histogram("core.run.assemble_seconds").record(s.assemble_seconds);
  reg.histogram("core.run.reconstruct_seconds").record(s.reconstruct_seconds);
  reg.gauge("core.run.memory_bytes").set(static_cast<double>(s.memory_bytes));
}

/// The package's own coarse displacement in the window's local frame. The
/// closure keeps the package alive: the field references its mesh and u.
std::function<std::array<double, 3>(const mesh::Point3&)> package_boundary(
    const std::shared_ptr<const chiplet::PackageModel>& package,
    const chiplet::SubmodelPlacement& placement) {
  const chiplet::DisplacementField local =
      chiplet::DisplacementField(package->mesh(), package->displacement())
          .shifted(placement.origin);
  return [local, package](const mesh::Point3& p) { return local(p); };
}

/// Recorded-history indices the fatigue panel solves: every stride-th record
/// starting at the initial state, the last record always included (the
/// envelope of a relaxing trace lives there).
std::vector<int> select_history_steps(std::size_t num_records, int stride) {
  if (stride < 1) throw std::invalid_argument("FatigueOptions: record_stride must be >= 1");
  std::vector<int> steps;
  for (std::size_t r = 0; r < num_records; r += static_cast<std::size_t>(stride)) {
    steps.push_back(static_cast<int>(r));
  }
  if (steps.empty() || steps.back() != static_cast<int>(num_records) - 1) {
    steps.push_back(static_cast<int>(num_records) - 1);
  }
  return steps;
}

/// Per-block ΔT loads of the selected recorded steps.
std::vector<rom::BlockLoadField> loads_of_steps(const thermal::TransientTemperatureResult& t,
                                                const std::vector<int>& steps) {
  std::vector<rom::BlockLoadField> loads;
  loads.reserve(steps.size());
  for (int step : steps) {
    if (step < 0 || static_cast<std::size_t>(step) >= t.num_records()) {
      throw std::invalid_argument("snapshot step outside the recorded history");
    }
    loads.emplace_back(t.blocks_x, t.blocks_y, la::Vec(t.block_delta_t[step]));
  }
  return loads;
}

}  // namespace

MoreStressSimulator::Window MoreStressSimulator::resolve_window(
    const sweep::ScenarioSpec& spec) {
  const bool submodel = spec.kind == sweep::ScenarioKind::kSubmodel;
  const int rings = submodel ? spec.dummy_rings : 0;
  const int bx = spec.blocks_x + 2 * rings;
  const int by = spec.blocks_y + 2 * rings;
  const double pitch = config_.geometry.pitch;
  Window window(rom::BlockGrid(bx, by, config_.local.nodes_x, config_.local.nodes_y,
                               config_.local.nodes_z, pitch, config_.geometry.height));
  window.report_range = {rings, rings + spec.blocks_x, rings, rings + spec.blocks_y};
  window.plan_x = bx * pitch;
  window.plan_y = by * pitch;
  window.reduction.blocks_x = bx;
  window.reduction.blocks_y = by;
  window.reduction.pitch = pitch;
  window.reduction.reference = config_.coupling.stress_free_temperature;
  if (!submodel) {
    window.bc = rom::clamp_top_bottom(window.grid);
    return window;
  }

  window.mask = mesh::padded_tsv_mask(bx, by, rings);
  window.uses_dummy = rings > 0;
  if (spec.load == sweep::LoadKind::kUniform && spec.displacement) {
    window.bc = rom::submodel_boundary(window.grid, spec.displacement);
    return window;
  }
  // The package: the spec's payload, else the demo package sized to the
  // padded window and solved for the config's thermal load (the sweep engine
  // shares one per padded size through the payload slot — building a
  // package is itself a coarse FEM solve).
  if (spec.package != nullptr) {
    window.package = spec.package;
  } else {
    window.package = std::make_shared<chiplet::PackageModel>(
        chiplet::demo_package_geometry(pitch, std::max(bx, by), config_.geometry.height),
        chiplet::demo_coarse_spec(), config_.thermal_load);
  }
  const chiplet::PackageGeometry& geometry = window.package->geometry();
  window.placement =
      spec.placement.blocks_x != 0
          ? spec.placement
          : chiplet::standard_locations(geometry, pitch, bx, by)[static_cast<std::size_t>(
                spec.location - 1)];
  if (window.placement.blocks_x != bx || window.placement.blocks_y != by) {
    throw std::invalid_argument("scenario '" + spec.name +
                                "': placement must cover the padded window "
                                "(blocks + 2*dummy_rings per axis)");
  }
  window.plan_x = geometry.substrate_x;
  window.plan_y = geometry.substrate_y;
  window.reduction.windowed = true;
  window.reduction.origin = window.placement.origin;
  window.reduction.z0 = geometry.interposer_z0();
  window.reduction.z1 = geometry.interposer_z1();
  window.bc = rom::submodel_boundary(window.grid,
                                     package_boundary(window.package, window.placement));
  return window;
}

sweep::ScenarioResult MoreStressSimulator::simulate(const sweep::ScenarioSpec& spec) {
  MS_TRACE_SCOPE("core.simulate");
  spec.validate();
  util::WallTimer timer;
  sweep::ScenarioResult result;
  result.name = spec.name;
  result.kind = spec.kind;
  result.analysis = spec.analysis;

  const Window window = resolve_window(spec);
  const bool array = spec.kind == sweep::ScenarioKind::kArray;
  const auto synthesized_power = [&]() {
    return array ? sweep::make_power_map(spec, config_)
                 : sweep::make_power_map(spec, config_, window.package->geometry(),
                                         window.placement);
  };
  // density_at is 0 outside a map, so a map short of the conduction plan
  // would silently drop heat.
  const auto require_footprint = [&window](const thermal::PowerMap& map) {
    if (std::abs(map.width() - window.plan_x) > 1e-9 * window.plan_x ||
        std::abs(map.height() - window.plan_y) > 1e-9 * window.plan_y) {
      throw std::invalid_argument(
          "power map footprint must match the array extent or package plan (use "
          "PowerMap::per_block, or zero tiles for unpowered regions)");
    }
  };

  // validate() pins the load to the analysis: uniform/power -> steady,
  // trace -> transient/fatigue.
  if (spec.load == sweep::LoadKind::kUniform) {
    const rom::BlockLoadField load =
        spec.load_field != nullptr
            ? *spec.load_field
            : rom::BlockLoadField::uniform(std::isnan(spec.delta_t) ? config_.thermal_load
                                                                    : spec.delta_t);
    result.array = std::make_shared<ArrayResult>(run_panel(window, load, {}).primary);
  } else if (spec.load == sweep::LoadKind::kPower) {
    const thermal::PowerMap power =
        spec.power_map != nullptr ? *spec.power_map : synthesized_power();
    require_footprint(power);
    const auto steady = [&](auto& r) {
      r.load = steady_conduction(window, power, &r.temperature, &r.thermal_stats);
      static_cast<ArrayResult&>(r) = run_panel(window, r.load, {}).primary;
    };
    if (array) {
      steady(*(result.thermal_array = std::make_shared<ThermalArrayResult>()));
    } else {
      steady(*(result.thermal_submodel = std::make_shared<ThermalSubmodelResult>()));
    }
  } else {
    const thermal::PowerTrace trace =
        spec.power_trace != nullptr ? *spec.power_trace
                                    : sweep::make_power_trace(spec, synthesized_power());
    if (trace.num_keyframes() == 0) throw std::invalid_argument("trace has no keyframes");
    for (std::size_t i = 0; i < trace.num_keyframes(); ++i) require_footprint(trace.keyframe(i));
    const double time_step =
        spec.time_step != 0.0 ? spec.time_step : config_.coupling.transient.time_step;
    const auto march = [&](auto& r) {
      r.transient = transient_conduction(window, trace, time_step, &r.thermal_stats);
      r.envelope_load = rom::BlockLoadField(window.grid.blocks_x(), window.grid.blocks_y(),
                                            Vec(r.transient.peak_envelope));
    };

    if (spec.analysis == sweep::AnalysisKind::kTransient && !array) {
      // Snapshots are an array-only request (ScenarioSpec::validate).
      auto& r = *(result.transient_submodel = std::make_shared<ThermalTransientSubmodelResult>());
      march(r);
      static_cast<ArrayResult&>(r) = run_panel(window, r.envelope_load, {}).primary;
    } else if (spec.analysis == sweep::AnalysisKind::kTransient) {
      // The envelope and every requested snapshot share the global operator:
      // one assembly, one factorization, one multi-RHS panel. Each snapshot
      // then reconstructs its own field (disjoint slots, so in parallel) and
      // carries the envelope's stats, the shared assembly/factorization
      // cost, with its own reconstruct time.
      auto& r = *(result.transient_array = std::make_shared<ThermalTransientArrayResult>());
      r.snapshot_steps = spec.snapshot_steps;
      march(r);
      const std::vector<rom::BlockLoadField> loads = loads_of_steps(r.transient, r.snapshot_steps);
      Panel panel = run_panel(window, r.envelope_load, loads);
      static_cast<ArrayResult&>(r) = std::move(panel.primary);
      const rom::RomModel& tsv = tsv_model();
      r.snapshots.resize(loads.size());
#ifdef _OPENMP
#pragma omp parallel for schedule(dynamic)
#endif
      for (std::ptrdiff_t c = 0; c < static_cast<std::ptrdiff_t>(loads.size()); ++c) {
        const auto k = static_cast<std::size_t>(c);
        ArrayResult& snapshot = r.snapshots[k];
        snapshot.stats = r.stats;
        snapshot.solution = std::move(panel.extra[k]);
        util::WallTimer reconstruct_timer;
        // An array window has no dummy blocks.
        snapshot.stress = rom::reconstruct_plane_stress(window.grid, tsv, nullptr, window.mask,
                                                        snapshot.solution, loads[k],
                                                        window.report_range);
        snapshot.von_mises = fem::to_von_mises(snapshot.stress);
        snapshot.stats.reconstruct_seconds = reconstruct_timer.seconds();
        snapshot.region_blocks_x = window.report_range.width();
        snapshot.region_blocks_y = window.report_range.height();
        snapshot.samples_per_block = tsv.samples_per_block;
      }
    } else {
      // The whole fatigue history — envelope plus every selected step — runs
      // as one multi-RHS panel; the step solutions are then reduced to
      // per-block channels in one batched pass over all steps
      // (reliability/channel_extract.hpp), never as dense per-step fields.
      FatigueResult& r = *(result.fatigue = std::make_shared<FatigueResult>());
      march(r);
      r.history_steps =
          select_history_steps(r.transient.num_records(), spec.fatigue.record_stride);
      std::vector<double> step_times;
      step_times.reserve(r.history_steps.size());
      for (int step : r.history_steps) step_times.push_back(r.transient.times[step]);
      const std::vector<rom::BlockLoadField> step_loads =
          loads_of_steps(r.transient, r.history_steps);
      Panel panel = run_panel(window, r.envelope_load, step_loads);
      static_cast<ArrayResult&>(r) = std::move(panel.primary);
      r.solve_stats = panel.solve;
      const rom::RomModel* dummy = window.uses_dummy ? &dummy_model() : nullptr;

      r.history = reliability::StressHistory(window.report_range.width(),
                                             window.report_range.height());
      r.history.resize_steps(step_times);
      util::WallTimer history_timer;
      {
        MS_TRACE_SCOPE("core.fatigue.channel_extract");
        reliability::extract_channel_history(window.grid, tsv_model(), dummy, window.mask,
                                             panel.extra, step_loads, window.report_range,
                                             r.history);
      }
      r.history_seconds = history_timer.seconds();
      require_finite(config_.robustness.check_finite, "fatigue.channels", "channel history",
                     r.history.raw_data().data(), r.history.raw_data().size());
      // The multi-RHS panel is the allocation that scales with trace length:
      // num_rhs right-hand sides and as many solutions held simultaneously,
      // plus the retained channel history.
      r.stats.memory_bytes += 2 * static_cast<std::size_t>(r.solve_stats.num_rhs) *
                                  static_cast<std::size_t>(r.solve_stats.num_dofs) *
                                  sizeof(double) +
                              r.history.memory_bytes();
      util::WallTimer reliability_timer;
      r.report = assess_fatigue(r.history, trace.duration(), spec.fatigue);
      r.reliability_seconds = reliability_timer.seconds();
    }
  }

  publish_run_stats(result.base().stats);
  result.peak_von_mises = peak_of(result.base().von_mises);
  if (result.fatigue != nullptr) {
    const reliability::ReliabilityReport& report = result.fatigue->report;
    result.min_life_log10 = std::log10(report.min_life_cycles);
    result.min_life_seconds = report.min_life_seconds;
    result.life_channel = reliability::channel_name(report.min_life_channel);
  }
  result.diagonal_shift = max_shift_of(result);
  if (result.diagonal_shift != 0.0) result.status = sweep::ScenarioStatus::kDegraded;
  result.simulate_seconds = timer.seconds();
  MS_LOG_DEBUG("%s %s scenario '%s': %d x %d blocks, peak von Mises %.3f MPa",
               sweep::to_string(spec.kind), sweep::to_string(spec.analysis), spec.name.c_str(),
               spec.blocks_x, spec.blocks_y, result.peak_von_mises);

  auto& reg = obs::MetricRegistry::global();
  reg.counter("sweep.scenarios").add(1);
  reg.histogram("sweep.scenario_seconds").record(result.simulate_seconds);
  // Per-analysis-kind latency: steady/transient/fatigue scenarios have very
  // different cost profiles, so the combined histogram hides regressions.
  reg.histogram(std::string("sweep.scenario_seconds.") + sweep::to_string(spec.analysis))
      .record(result.simulate_seconds);
  obs::QueryScope::observe_seconds("scenario_seconds", result.simulate_seconds);
  return result;
}

}  // namespace ms::core
