#pragma once
// The benchmark's named workloads. Each is a fixed list of RunSpecs; one
// iteration of a workload executes every spec once through
// harness::execute_full. Only the seed varies a workload's inputs.

#include <cstdint>
#include <string>
#include <vector>

#include "harness/experiment.h"

namespace perfbench {

struct Workload {
  std::string name;
  std::vector<bamboo::harness::RunSpec> specs;
  /// Per spec: the run carries a forged-QC proposer, so certificates must
  /// be rejected (every other run must reject none).
  std::vector<bool> forged;
  /// Directory of the file-backed stores, emptied before every run so each
  /// run starts from the same (empty) disk state; "" when no spec uses one.
  std::string store_dir;
  /// Set-up repetitions per iteration (set-up is short; more samples give
  /// a steadier median).
  int setup_probes = 1;
};

[[nodiscard]] const std::vector<std::string>& workload_names();

/// Throws std::invalid_argument on an unknown name. `scratch_dir` is where
/// file-backed stores live.
[[nodiscard]] Workload make_workload(const std::string& name,
                                     std::uint64_t seed,
                                     const std::string& scratch_dir);

}  // namespace perfbench
