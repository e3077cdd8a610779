// The two sweep workloads, both on sweep::SweepEngine with one batch in
// flight:
//
//   fatigue_sweep_warm — a seeded 64-point (duty, peak) family of 8x8
//     square-wave fatigue scenarios, replayed in warm passes of 256 queries
//     after a cache-fill pass: every factorization is a cache hit.
//   size_sweep_cold — 16 steady power-map scenarios of distinct array
//     shapes; the factor cache is cleared between passes, so every query
//     misses it twice (conduction + global operator).

#include <algorithm>
#include <map>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "harness.hpp"
#include "la/shift_retry.hpp"
#include "model.hpp"
#include "reliability/channel_extract.hpp"
#include "reliability/damage.hpp"
#include "rom/local_stage.hpp"
#include "sweep/sweep_engine.hpp"
#include "thermal/conduction_assembler.hpp"
#include "thermal/thermal_solver.hpp"

namespace perfbench {

namespace {

constexpr double kPulsePeriod = 60e-6;  // s
constexpr int kStepsPerPeriod = 8;
constexpr int kFamilySize = 64;
constexpr int kFamilyRepeats = 4;  // warm pass = 256 queries
constexpr int kOracleEdge = 4;
constexpr int kFreshSamples = 2;
/// size_sweep_cold's shapes: (edge, edge) and (edge, edge + 1) for edges
/// 6..13 — 16 distinct operators per pass.
constexpr int kMinEdge = 6;
constexpr int kMaxEdge = 13;
constexpr int kReplayEdge = 10;

enum class Sweep { kFatigueWarm, kSizeCold };

struct Workload {
  ms::core::SimulationConfig config;
  std::vector<ms::sweep::ScenarioSpec> setup_batch;  ///< cache-fill pass
  std::vector<ms::sweep::ScenarioSpec> batch;        ///< one timed pass
  ms::sweep::ScenarioSpec replay;                    ///< the traced query
  bool cold = false;
};

Workload fatigue_workload(std::uint64_t seed) {
  Workload w;
  w.config = sweep_config();
  w.config.coupling.transient.time_step = kPulsePeriod / kStepsPerPeriod;
  Rng rng(seed);
  for (int i = 0; i < kFamilySize; ++i) {
    ms::sweep::ScenarioSpec spec;
    spec.name = "fatigue_" + std::to_string(i);
    spec.kind = ms::sweep::ScenarioKind::kArray;
    spec.analysis = ms::sweep::AnalysisKind::kFatigue;
    spec.load = ms::sweep::LoadKind::kTrace;
    spec.blocks_x = spec.blocks_y = 8;
    spec.power.background = 20.0;
    spec.power.hotspot_peak = rng.uniform(50.0, 400.0);
    spec.trace.shape = "square";
    spec.trace.period = kPulsePeriod;
    spec.trace.duty = rng.uniform(0.15, 0.85);
    spec.trace.cycles = 1;
    spec.validate();
    w.setup_batch.push_back(std::move(spec));
  }
  for (int r = 0; r < kFamilyRepeats; ++r) {
    w.batch.insert(w.batch.end(), w.setup_batch.begin(), w.setup_batch.end());
  }
  w.replay = w.setup_batch[rng.next() % w.setup_batch.size()];
  return w;
}

Workload size_workload(std::uint64_t seed) {
  Workload w;
  w.config = sweep_config();
  w.cold = true;
  Rng rng(seed);
  const auto power_spec = [&rng](int bx, int by) {
    ms::sweep::ScenarioSpec spec;
    spec.name = "steady_" + std::to_string(bx) + "x" + std::to_string(by);
    spec.kind = ms::sweep::ScenarioKind::kArray;
    spec.analysis = ms::sweep::AnalysisKind::kSteady;
    spec.load = ms::sweep::LoadKind::kPower;
    spec.blocks_x = bx;
    spec.blocks_y = by;
    spec.power.background = rng.uniform(10.0, 30.0);
    spec.power.hotspot_peak = rng.uniform(100.0, 400.0);
    spec.power.hotspot_x = rng.uniform(0.2, 0.8);
    spec.power.hotspot_y = rng.uniform(0.2, 0.8);
    spec.validate();
    return spec;
  };
  // Largest shapes first, in a fixed order: the seed varies the power maps
  // only, so every seed runs the same operators side by side.
  for (int edge = kMaxEdge; edge >= kMinEdge; --edge) {
    w.batch.push_back(power_spec(edge, edge + 1));
    w.batch.push_back(power_spec(edge, edge));
  }
  // Set-up builds the ROM model through one small query.
  w.setup_batch.push_back(power_spec(2, 2));
  w.replay = power_spec(kReplayEdge, kReplayEdge);
  return w;
}

Workload make_workload(Sweep sweep, std::uint64_t seed) {
  return sweep == Sweep::kFatigueWarm ? fatigue_workload(seed) : size_workload(seed);
}

ms::sweep::SweepOptions engine_options(const Workload& w, int workers) {
  ms::sweep::SweepOptions options;
  options.config = w.config;
  options.num_threads = workers;
  options.flight_recorder = false;
  return options;
}

/// Engine construction + the cache-fill pass (the local stage runs inside
/// it); a cold sweep then drops the factorizations the fill left behind.
std::unique_ptr<ms::sweep::SweepEngine> set_up(const Workload& w, int workers) {
  auto engine = std::make_unique<ms::sweep::SweepEngine>(engine_options(w, workers));
  (void)engine->run(w.setup_batch);
  if (w.cold) engine->factor_cache().clear();
  return engine;
}

/// One timed pass plus what the checks and metrics need from it.
struct Pass {
  std::vector<ms::sweep::ScenarioResult> rows;
  double wall = 0.0;
  std::uint64_t hits = 0;
  std::uint64_t misses = 0;
  std::int64_t factorizations = 0;  ///< global-stage, as the rows report them
};

Pass timed_pass(ms::sweep::SweepEngine& engine, const Workload& w) {
  if (w.cold) engine.factor_cache().clear();
  ms::la::FactorCache& cache = engine.factor_cache();
  Pass pass;
  const std::uint64_t hits = cache.hits();
  const std::uint64_t misses = cache.misses();
  const Clock::time_point start = Clock::now();
  pass.rows = engine.run(w.batch);
  pass.wall = seconds_since(start);
  pass.hits = cache.hits() - hits;
  pass.misses = cache.misses() - misses;
  for (const ms::sweep::ScenarioResult& row : pass.rows) {
    if (row.fatigue != nullptr) pass.factorizations += row.fatigue->solve_stats.num_factorizations;
  }
  return pass;
}

std::string count_detail(const char* what, double got, double want) {
  return std::string(what) + ": got " + std::to_string(static_cast<long long>(got)) +
         ", expected " + std::to_string(static_cast<long long>(want));
}

void measure(Sweep sweep, const Args& args, Record& record) {
  const Clock::time_point run_start = Clock::now();
  const Workload w = make_workload(sweep, args.seed);
  const int workers = args.single_thread ? 1 : usable_cpus();
  record.fact("workers", workers);

  std::vector<double> setup;
  std::unique_ptr<ms::sweep::SweepEngine> engine;
  const int repeats = args.single_thread ? 1 : kSetupRepeats;
  for (int r = 0; r < repeats;) {
    const bool warm_up = seconds_since(run_start) < kWarmUpSeconds;
    engine.reset();
    const Clock::time_point start = Clock::now();
    engine = set_up(w, workers);
    if (!warm_up) {
      setup.push_back(seconds_since(start));
      ++r;
    }
  }
  record.metric("setup_s", median(setup), setup.size());

  std::vector<double> latency_ms;
  std::vector<double> query_bytes;
  double wall = 0.0;
  double busy = 0.0;
  std::uint64_t hits = 0;
  std::uint64_t misses = 0;
  std::int64_t factorizations = 0;
  std::size_t queries = 0;
  bool accounted = true;
  Pass last;
  // The single-thread baseline (trace runs only) times one pass.
  do {
    last = timed_pass(*engine, w);
    accounted = accounted && last.rows.size() == w.batch.size();
    for (const ms::sweep::ScenarioResult& row : last.rows) {
      record.attempt(!row.failed());
      busy += row.simulate_seconds;
      if (row.failed()) continue;
      latency_ms.push_back(1e3 * row.simulate_seconds);
      query_bytes.push_back(static_cast<double>(row.base().stats.memory_bytes));
    }
    wall += last.wall;
    hits += last.hits;
    misses += last.misses;
    factorizations += last.factorizations;
    queries += last.rows.size();
  } while (wall < args.seconds && !args.single_thread);

  const double qps = static_cast<double>(queries) / wall;
  record.fact("pass_qps", qps);
  record.check("rows_accounted", accounted,
               "every pass returns one row per query; failed rows are counted, never dropped");
  if (args.single_thread) return;

  record.metric("query_p50_ms", median(latency_ms), latency_ms.size());
  record.metric("query_p95_ms", percentile(latency_ms, 0.95), latency_ms.size());
  record.metric("queries_per_s", qps, queries);
  record.metric("peak_rss_mb", peak_rss_mb());
  record.metric("rom_mem_mb", median(query_bytes) / kMiB, query_bytes.size());
  record.fact("queries", static_cast<double>(queries));
  record.fact("factor_cache_hits", static_cast<double>(hits));
  record.fact("factor_cache_misses", static_cast<double>(misses));
  record.fact("worker_busy_frac", busy / (wall * workers));
  if (w.cold) {
    record.check("two_misses_per_query", misses == 2 * queries,
                 count_detail("factor-cache misses", static_cast<double>(misses),
                              2.0 * static_cast<double>(queries)));
  } else {
    record.check("warm_zero_factorizations", misses == 0 && factorizations == 0,
                 count_detail("factorizations in warm passes",
                              static_cast<double>(misses + factorizations), 0.0));
  }

  // Seeded rows of the last pass against a fresh simulator with no caches.
  ms::core::MoreStressSimulator fresh(w.config);
  Rng rng(args.seed ^ 0x5eedULL);
  bool identical = true;
  for (int k = 0; k < kFreshSamples; ++k) {
    const std::size_t i = rng.next() % last.rows.size();
    identical = identical && same_result(fresh.simulate(w.batch[i]), last.rows[i]);
  }
  record.check("fresh_bitwise", identical,
               "sampled engine rows equal simulate(spec) on a fresh simulator bitwise");
  const double err_pct = oracle_error_pct(fresh, kOracleEdge, nullptr);
  record.fact("rom_err_pct", err_pct);
  record.metric("rom_err_pct", err_pct);
}

// --- traced replays ----------------------------------------------------------

struct Replay {
  std::vector<double> von_mises;
  double min_life_cycles = 0.0;
  int thermal_steps = 0;
  ms::la::offset_t factor_nnz = 0;
};

/// The fatigue query of simulate(spec), stage by stage, with `cache`
/// standing in for the engine's factor cache (warm after the first call).
Replay replay_fatigue(const Workload& w, const ms::rom::RomModel& model,
                      ms::la::FactorCache& cache, Tracer& tracer) {
  const ms::core::SimulationConfig& config = w.config;
  const ms::core::ThermalCouplingOptions& coupling = config.coupling;
  const ms::sweep::ScenarioSpec& spec = w.replay;
  const int bx = spec.blocks_x;
  const int by = spec.blocks_y;
  Replay out;
  const ms::thermal::PowerTrace power =
      ms::sweep::make_power_trace(spec, ms::sweep::make_power_map(spec, config));

  ms::mesh::HexMesh mesh;
  ms::thermal::ConductivityField conductivity;
  ms::la::Vec capacity;
  {
    const Tracer::Scope span(tracer, "thermal.setup");
    mesh = ms::thermal::build_array_thermal_mesh(config.geometry, bx, by,
                                                 coupling.elems_per_block_xy, coupling.elems_z);
    conductivity = ms::thermal::array_block_conductivities(
        mesh, config.geometry, config.materials, bx, by, {}, coupling.conductivity_model);
    capacity = ms::thermal::array_block_capacities(mesh, config.geometry, config.materials, bx,
                                                   by, {}, coupling.conductivity_model);
  }
  ms::thermal::TransientSolveOptions transient_options = coupling.transient;
  transient_options.base = coupling.solve;
  transient_options.base.factor_cache = &cache;
  transient_options.base.factor_key = "perfbench.thermal";
  ms::thermal::BlockReduction reduction;
  reduction.blocks_x = bx;
  reduction.blocks_y = by;
  reduction.pitch = config.geometry.pitch;
  reduction.reference = coupling.stress_free_temperature;
  ms::thermal::TransientTemperatureResult transient;
  ms::thermal::TransientSolveStats thermal_stats;
  {
    const Tracer::Scope span(tracer, "thermal.transient");
    transient = ms::thermal::solve_power_trace(mesh, conductivity, capacity, power, reduction,
                                               transient_options, &thermal_stats);
  }
  out.thermal_steps = thermal_stats.num_steps;

  // Every recorded step (record_stride 1) joins the envelope in one panel.
  const ms::rom::BlockLoadField envelope(bx, by, ms::la::Vec(transient.peak_envelope));
  std::vector<ms::rom::BlockLoadField> step_loads;
  std::vector<double> step_times;
  for (std::size_t s = 0; s < transient.num_records(); ++s) {
    step_loads.emplace_back(bx, by, ms::la::Vec(transient.block_delta_t[s]));
    step_times.push_back(transient.times[s]);
  }
  const ms::rom::BlockGrid grid(bx, by, config.local.nodes_x, config.local.nodes_y,
                                config.local.nodes_z, config.geometry.pitch,
                                config.geometry.height);
  const ms::fem::DirichletBc bc = ms::rom::clamp_top_bottom(grid);
  ms::rom::GlobalSolveOptions global = config.global;
  global.factor_cache = &cache;
  global.factor_key = "perfbench.global";

  ms::rom::GlobalProblem problem;
  std::vector<ms::la::Vec> step_rhs;
  {
    const bool warm = cache.contains(global.factor_key);
    const Tracer::Scope span(tracer, warm ? "rom.rhs_assemble" : "rom.assemble");
    if (warm) {
      problem.num_dofs = grid.num_dofs();
      problem.rhs = ms::rom::assemble_global_rhs(grid, model, nullptr, {}, envelope);
    } else {
      problem = ms::rom::assemble_global(grid, model, nullptr, {}, envelope);
    }
    for (const ms::rom::BlockLoadField& load : step_loads) {
      step_rhs.push_back(ms::rom::assemble_global_rhs(grid, model, nullptr, {}, load));
    }
  }
  std::vector<ms::la::Vec> solutions;
  {
    const Tracer::Scope span(tracer, "rom.solve_multi");
    solutions = ms::rom::solve_global_multi(problem, std::move(step_rhs), bc, global);
  }
  const ms::rom::BlockRange range = ms::rom::BlockRange::all(grid);
  {
    const Tracer::Scope span(tracer, "rom.reconstruct");
    out.von_mises = ms::fem::to_von_mises(ms::rom::reconstruct_plane_stress(
        grid, model, nullptr, {}, solutions.front(), envelope, range));
  }
  solutions.erase(solutions.begin());
  ms::reliability::StressHistory history(bx, by);
  history.resize_steps(step_times);
  {
    const Tracer::Scope span(tracer, "reliability.extract");
    ms::reliability::extract_channel_history(grid, model, nullptr, {}, solutions, step_loads,
                                             range, history);
  }
  {
    const Tracer::Scope span(tracer, "reliability.assess");
    const ms::core::FatigueOptions& fatigue = spec.fatigue;
    const double duration = power.duration();
    const double cycles_per_day =
        fatigue.cycles_per_day > 0.0
            ? fatigue.cycles_per_day
            : (duration > 0.0 ? std::min(86400.0 / duration, 1e6) : 0.0);
    const ms::reliability::FatigueModelSet models = ms::reliability::standard_model_set(
        config.materials, fatigue.solder_shear_modulus, fatigue.solder_mean_temperature,
        cycles_per_day, fatigue.solder_shear_modulus_slope);
    ms::reliability::ReliabilityOptions assess;
    assess.range_bins = fatigue.range_bins;
    assess.mean_bins = fatigue.mean_bins;
    out.min_life_cycles =
        ms::reliability::assess_history(history, models, duration, assess).min_life_cycles;
  }
  return out;
}

/// The cold steady power-map query of simulate(spec), stage by stage, with
/// the global direct solve split into Dirichlet lifting, factorization and
/// triangular solves (the uncached branch of rom::solve_global_multi).
Replay replay_steady(const Workload& w, const ms::rom::RomModel& model, Tracer& tracer) {
  const ms::core::SimulationConfig& config = w.config;
  const ms::core::ThermalCouplingOptions& coupling = config.coupling;
  const ms::sweep::ScenarioSpec& spec = w.replay;
  const int bx = spec.blocks_x;
  const int by = spec.blocks_y;
  Replay out;
  const ms::thermal::PowerMap power = ms::sweep::make_power_map(spec, config);

  ms::mesh::HexMesh mesh;
  ms::thermal::ConductivityField conductivity;
  {
    const Tracer::Scope span(tracer, "thermal.setup");
    mesh = ms::thermal::build_array_thermal_mesh(config.geometry, bx, by,
                                                 coupling.elems_per_block_xy, coupling.elems_z);
    conductivity = ms::thermal::array_block_conductivities(
        mesh, config.geometry, config.materials, bx, by, {}, coupling.conductivity_model);
  }
  ms::thermal::TemperatureField temperature;
  {
    const Tracer::Scope span(tracer, "thermal.steady");
    temperature = ms::thermal::solve_power_map(mesh, conductivity, power, coupling.solve);
  }
  std::vector<double> delta_t = temperature.block_averages(bx, by, config.geometry.pitch);
  for (double& dt : delta_t) dt -= coupling.stress_free_temperature;
  const ms::rom::BlockLoadField load(bx, by, std::move(delta_t));

  const ms::rom::BlockGrid grid(bx, by, config.local.nodes_x, config.local.nodes_y,
                                config.local.nodes_z, config.geometry.pitch,
                                config.geometry.height);
  const ms::fem::DirichletBc bc = ms::rom::clamp_top_bottom(grid);
  ms::rom::GlobalProblem problem;
  {
    const Tracer::Scope span(tracer, "rom.assemble");
    problem = ms::rom::assemble_global(grid, model, nullptr, {}, load);
  }
  std::vector<ms::la::Vec> solutions;
  {
    const Tracer::Scope span(tracer, "rom.solve");
    std::vector<ms::la::Vec> rhs{std::move(problem.rhs)};
    ms::fem::apply_dirichlet(problem.stiffness, rhs, bc);
    ms::la::ShiftRetryResult factored;
    {
      const Tracer::Scope factor(tracer, "la.factor");
      factored = ms::la::factor_with_shift_retry(problem.stiffness, config.global.factor,
                                                 config.global.shift_retry, "rom.global.factor");
    }
    out.factor_nnz = factored.factor->factor_nnz();
    const Tracer::Scope triangular(tracer, "la.triangular");
    solutions = factored.factor->solve_multi(rhs);
  }
  {
    const Tracer::Scope span(tracer, "rom.reconstruct");
    out.von_mises = ms::fem::to_von_mises(ms::rom::reconstruct_plane_stress(
        grid, model, nullptr, {}, solutions.front(), load, ms::rom::BlockRange::all(grid)));
  }
  return out;
}

/// Conduction (and, for transient queries, capacitance) assembly on the
/// replayed query's thermal mesh. It runs inside thermal.transient /
/// thermal.steady as well; this side call, outside the replayed query,
/// times it alone. Returns its span's seconds.
double probe_thermal_assembly(const Workload& w, Tracer& tracer) {
  const ms::core::SimulationConfig& config = w.config;
  const ms::core::ThermalCouplingOptions& coupling = config.coupling;
  const int bx = w.replay.blocks_x;
  const int by = w.replay.blocks_y;
  const ms::mesh::HexMesh mesh = ms::thermal::build_array_thermal_mesh(
      config.geometry, bx, by, coupling.elems_per_block_xy, coupling.elems_z);
  const ms::thermal::ConductivityField conductivity = ms::thermal::array_block_conductivities(
      mesh, config.geometry, config.materials, bx, by, {}, coupling.conductivity_model);
  const ms::la::Vec capacity =
      w.cold ? ms::la::Vec()
             : ms::thermal::array_block_capacities(mesh, config.geometry, config.materials, bx,
                                                   by, {}, coupling.conductivity_model);
  int id = 0;
  {
    const Tracer::Scope span(tracer, "thermal.assemble");
    id = span.id();
    (void)ms::la::CsrMatrix::from_triplets(ms::thermal::conduction_triplets(
        mesh, conductivity.in_plane, conductivity.through_plane));
    if (!w.cold) {
      (void)ms::thermal::assemble_capacitance(mesh, capacity,
                                              coupling.transient.lumped_capacitance);
    }
  }
  return tracer.span(id).seconds();
}

void trace(Sweep sweep, const Args& args, Record& record) {
  const Workload w = make_workload(sweep, args.seed);
  const int workers = usable_cpus();
  record.fact("workers", workers);
  Tracer tracer;
  const ms::rom::RomModel model = traced_local_stage(w.config, tracer, record);

  // Engine-level numbers of one pass at `workers` workers.
  {
    const std::unique_ptr<ms::sweep::SweepEngine> engine = set_up(w, workers);
    const Pass pass = timed_pass(*engine, w);
    double busy = 0.0;
    for (const ms::sweep::ScenarioResult& row : pass.rows) {
      busy += row.simulate_seconds;
      record.attempt(!row.failed());
    }
    record.fact("pass_qps", static_cast<double>(pass.rows.size()) / pass.wall);
    record.metric("sweep.worker_busy_frac", busy / (pass.wall * workers), pass.rows.size());
    const double lookups = static_cast<double>(pass.hits + pass.misses);
    record.metric("la.factor_cache.hit_ratio",
                  lookups > 0.0 ? static_cast<double>(pass.hits) / lookups : 0.0);
    record.metric("la.factor_cache.entries",
                  static_cast<double>(engine->factor_cache().size()));
  }

  // Untraced reference queries on a simulator in the replay's cache state.
  ms::core::MoreStressSimulator simulator(w.config);
  ms::la::FactorCache reference_cache;
  if (!w.cold) {
    simulator.set_factor_cache(&reference_cache);
    (void)simulator.simulate(w.replay);  // fill, like the engine's set-up pass
  }
  (void)simulator.prepare_local_stage(/*with_dummy=*/false);
  std::vector<double> untraced;
  ms::sweep::ScenarioResult reference;
  for (int k = 0; k < kReplays; ++k) {
    const Clock::time_point start = Clock::now();
    reference = simulator.simulate(w.replay);
    untraced.push_back(seconds_since(start));
    record.attempt(!reference.failed());
  }

  ms::la::FactorCache replay_cache;
  if (!w.cold) (void)replay_fatigue(w, model, replay_cache, tracer);  // fill, untimed
  std::vector<int> queries;
  bool match = true;
  Replay replay;
  for (int q = 0; q < kReplays; ++q) {
    {
      const Tracer::Scope query(tracer, "query", q);
      queries.push_back(query.id());
      replay = w.cold ? replay_steady(w, model, tracer)
                      : replay_fatigue(w, model, replay_cache, tracer);
    }
    record.attempt(true);
    match = match && replay.von_mises == reference.base().von_mises &&
            (w.cold || replay.min_life_cycles == reference.fatigue->report.min_life_cycles);
  }
  record.check("replay_matches", match,
               w.cold ? "the replay reproduces simulate(spec)'s von Mises field bitwise"
                      : "the replay reproduces simulate(spec)'s von Mises field and lifetime "
                        "bitwise");
  record.metric("thermal.assemble_s", probe_thermal_assembly(w, tracer));

  double fem_seconds = 0.0;
  {
    const Tracer::Scope span(tracer, "oracle");
    record.fact("rom_err_pct", oracle_error_pct(simulator, kOracleEdge, &fem_seconds));
  }

  record_replays(tracer, queries, untraced, record);
  if (w.cold) {
    record.metric("la.factor_nnz", static_cast<double>(replay.factor_nnz));
  } else {
    record.metric("thermal.steps", replay.thermal_steps);
  }
  record.metric("fem.reference_s", fem_seconds);
  if (!args.trace_out.empty()) tracer.write_chrome_trace(args.trace_out);
}

void run(Sweep sweep, const Args& args, Record& record) {
  if (args.trace && !args.single_thread) {
    trace(sweep, args, record);
  } else {
    measure(sweep, args, record);
  }
}

}  // namespace

void run_fatigue_sweep(const Args& args, Record& record) {
  run(Sweep::kFatigueWarm, args, record);
}

void run_size_sweep(const Args& args, Record& record) { run(Sweep::kSizeCold, args, record); }

}  // namespace perfbench
