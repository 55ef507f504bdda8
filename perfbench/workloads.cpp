#include "workloads.h"

#include <stdexcept>

namespace perfbench {
namespace {

using bamboo::harness::RunSpec;

// HotStuff, 400-tx blocks, a closed loop of 256 sessions.
RunSpec base_spec(std::uint64_t seed, std::uint32_t n) {
  RunSpec spec;
  spec.cfg.protocol = "hotstuff";
  spec.cfg.n_replicas = n;
  spec.cfg.bsize = 400;
  spec.cfg.seed = seed;
  spec.workload.mode = bamboo::client::LoadMode::kClosedLoop;
  spec.workload.concurrency = 256;
  return spec;
}

Workload single(const std::string& name, RunSpec spec, int setup_probes) {
  Workload w;
  w.name = name;
  w.specs.push_back(std::move(spec));
  w.forged.push_back(false);
  w.setup_probes = setup_probes;
  return w;
}

// Run-length axis: n=4 with one long window, so the forest holds many
// blocks and its pruning dominates host time.
Workload long_horizon(std::uint64_t seed) {
  RunSpec spec = base_spec(seed, 4);
  spec.opts.warmup_s = 0.25;
  spec.opts.measure_s = 4.0;
  return single("long_horizon", std::move(spec), 64);
}

// Cluster-size axis: n=64, where every replica re-verifies every
// certificate and KeyStore::verify dominates host time.
Workload large_n(std::uint64_t seed) {
  RunSpec spec = base_spec(seed, 64);
  spec.opts.warmup_s = 0.25;
  spec.opts.measure_s = 1.0;
  return single("large_n", std::move(spec), 32);
}

// Storage, sync, churn, the open-loop client and mempool, and the queued
// CPU path: Poisson arrivals from 100k clients below saturation, a
// round-robin election (so requests sent to followers commit too), a
// file-backed store, a crash-restart long enough for snapshot transfer, a
// partition short enough for chain-sync, a link degrade, and batch
// certificate verification on two CPU workers.
Workload churn_recovery(std::uint64_t seed, const std::string& scratch_dir) {
  RunSpec spec = base_spec(seed, 4);
  spec.workload.mode = bamboo::client::LoadMode::kOpenLoop;
  spec.workload.concurrency = 0;
  spec.workload.arrival_rate_tps = 10000;
  spec.workload.client_population = 100000;
  spec.cfg.election = "roundrobin";
  spec.cfg.store = "file";
  spec.cfg.store_path = scratch_dir + "/store";
  spec.cfg.sync_batch = 8;
  spec.cfg.snapshot_gap = 4;
  spec.cfg.verify_strategy = "batch";
  spec.cfg.cpu_workers = 2;
  spec.cfg.churn =
      "crash-restart@1s:replica=3:for=2s;"
      "partition@3.5s:groups=0-1-3|2;"
      "heal@3.8s;"
      "degrade@4s:link=0-1:+5ms;"
      "restore@4.5s:link=0-1";
  // Most of the 6.5 s window is steady operation, so the latency median
  // sits among undisturbed requests (12.3-12.5 ms across seeds); with a
  // 4.5 s window it fell among those delayed by the faults (135-145 ms)
  // and moved more from seed to seed.
  spec.opts.warmup_s = 0.5;
  spec.opts.measure_s = 6.5;
  Workload w = single("churn_recovery", std::move(spec), 32);
  w.store_dir = scratch_dir + "/store";
  return w;
}

// A fixed grid of short runs: five protocols, each honest and with one
// forking replica, plus one forged-QC run. The only workload where
// Streamlet's echo, FnF-BFT's multi-leader slots and forked side branches
// run, and where cluster construction and result accounting count.
Workload protocol_mix(std::uint64_t seed) {
  Workload w;
  w.name = "protocol_mix";
  w.setup_probes = 16;
  const char* protocols[] = {"hotstuff", "2chs", "streamlet", "fasthotstuff",
                             "fnfbft"};
  std::uint64_t index = 0;
  auto add = [&](RunSpec spec, bool forged) {
    spec.cfg.seed = seed * 16 + index++;
    spec.opts.warmup_s = 0.1;
    spec.opts.measure_s = 0.4;
    w.specs.push_back(std::move(spec));
    w.forged.push_back(forged);
  };
  for (const char* protocol : protocols) {
    for (bool forking : {false, true}) {
      RunSpec spec = base_spec(0, 4);
      spec.cfg.protocol = protocol;
      if (spec.cfg.protocol == "fnfbft") spec.cfg.election = "multi:2";
      if (forking) {
        spec.cfg.byz_no = 1;
        spec.cfg.strategy = "forking";
      }
      add(std::move(spec), false);
    }
  }
  RunSpec forge = base_spec(0, 4);
  forge.cfg.byz_no = 1;
  forge.cfg.strategy = "forge-qc";
  add(std::move(forge), true);
  return w;
}

}  // namespace

const std::vector<std::string>& workload_names() {
  static const std::vector<std::string> names = {
      "long_horizon", "large_n", "churn_recovery", "protocol_mix"};
  return names;
}

Workload make_workload(const std::string& name, std::uint64_t seed,
                       const std::string& scratch_dir) {
  if (name == "long_horizon") return long_horizon(seed);
  if (name == "large_n") return large_n(seed);
  if (name == "churn_recovery") return churn_recovery(seed, scratch_dir);
  if (name == "protocol_mix") return protocol_mix(seed);
  throw std::invalid_argument("unknown workload: " + name);
}

}  // namespace perfbench
