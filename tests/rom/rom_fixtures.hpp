#pragma once
// Small TSV and dummy block models (3x3x3 surface nodes, 10x10 samples) built
// once per test binary, shared by the global-stage suites.

#include "rom/block_grid.hpp"
#include "rom/local_stage.hpp"

namespace ms::rom::fixtures {

inline mesh::TsvGeometry geometry() { return {15.0, 5.0, 0.5, 50.0}; }
inline mesh::BlockMeshSpec spec() { return {6, 3}; }

inline const fem::MaterialTable& table() {
  static const fem::MaterialTable t = fem::MaterialTable::standard();
  return t;
}

inline RomModel build_model(BlockKind kind) {
  LocalStageOptions options;
  options.nodes_x = options.nodes_y = options.nodes_z = 3;
  options.samples_per_block = 10;
  return run_local_stage(geometry(), spec(), table(), kind, options);
}

inline const RomModel& tsv_model() {
  static const RomModel m = build_model(BlockKind::Tsv);
  return m;
}

inline const RomModel& dummy_model() {
  static const RomModel m = build_model(BlockKind::Dummy);
  return m;
}

inline BlockGrid make_grid(int bx, int by) { return BlockGrid(bx, by, 3, 3, 3, 15.0, 50.0); }

}  // namespace ms::rom::fixtures
