// Long-horizon soak: a HotStuff cluster with one forking replica runs for
// tens of simulated seconds. The invariants must hold over the whole run,
// and the forest must stay exactly the committed chain plus the uncommitted
// tail (or, with retention, the retention window plus that tail): pruning
// leaks nothing, however long the run. Labelled `soak` in ctest.

#include <gtest/gtest.h>

#include <algorithm>
#include <cstddef>
#include <vector>

#include "client/workload.h"
#include "harness/cluster.h"

namespace bamboo {
namespace {

/// Number of blocks strictly below the committed tip in its subtree.
std::size_t tip_descendants(const forest::BlockForest& forest) {
  std::size_t n = 0;
  std::vector<types::BlockPtr> stack = forest.children(
      forest.committed_tip()->hash());
  while (!stack.empty()) {
    const types::BlockPtr b = stack.back();
    stack.pop_back();
    ++n;
    for (const types::BlockPtr& c : forest.children(b->hash())) {
      stack.push_back(c);
    }
  }
  return n;
}

/// Blocks a forest holds beyond the committed chain (or its last
/// `retention + 1` heights) and the uncommitted tail above it.
std::size_t excess(const forest::BlockForest& forest,
                   std::uint32_t retention) {
  std::size_t chain = forest.committed_height() + 1;
  if (retention > 0) chain = std::min<std::size_t>(chain, retention + 1);
  return forest.size() - chain - tip_descendants(forest);
}

struct SoakOutcome {
  bool consistent = false;
  std::uint64_t safety_violations = 0;
  std::uint64_t forked = 0;
  std::size_t max_excess = 0;  ///< over the once-a-second probes
};

/// Runs `sim_s` simulated seconds of HotStuff n=4 with replica 3 forking,
/// probing every honest replica's forest once per simulated second.
SoakOutcome soak(std::uint32_t retention, double sim_s) {
  core::Config cfg;
  cfg.protocol = "hotstuff";
  cfg.n_replicas = 4;
  cfg.byz_no = 1;
  cfg.strategy = "forking";
  cfg.bsize = 100;
  cfg.retention = retention;
  harness::Cluster cluster(cfg);

  client::WorkloadConfig wl;
  wl.concurrency = 64;
  client::WorkloadDriver driver(cluster.simulator(), cluster.network(),
                                cluster.config(), wl);
  driver.install();

  SoakOutcome out;
  auto probe = [&cluster, &cfg, &out, retention] {
    for (types::NodeId id = 0; id < cluster.size(); ++id) {
      if (cfg.is_byzantine(id)) continue;
      out.max_excess = std::max(
          out.max_excess, excess(cluster.replica(id).forest(), retention));
    }
  };
  for (double t = 1.0; t < sim_s; t += 1.0) {
    cluster.simulator().schedule_at(sim::from_seconds(t), probe);
  }
  cluster.start();
  driver.start();
  cluster.simulator().run_for(sim::from_seconds(sim_s));
  driver.stop();

  out.consistent = cluster.check_consistency().consistent;
  for (types::NodeId id = 0; id < cluster.size(); ++id) {
    out.safety_violations += cluster.replica(id).stats().safety_violations;
    if (cfg.is_byzantine(id)) continue;
    out.forked += cluster.replica(id).stats().blocks_forked;
    const auto& forest = cluster.replica(id).forest();
    EXPECT_EQ(excess(forest, retention), 0u)
        << "replica " << id << " holds blocks off the main chain";
    EXPECT_EQ(forest.orphan_count(), 0u) << "replica " << id;
  }
  return out;
}

TEST(Soak, ForestStaysChainPlusTailOverLongRun) {
  const SoakOutcome out = soak(/*retention=*/0, /*sim_s=*/21.0);
  EXPECT_TRUE(out.consistent);
  EXPECT_EQ(out.safety_violations, 0u);
  EXPECT_GT(out.forked, 0u) << "the forking replica must leave forks behind";
  EXPECT_EQ(out.max_excess, 0u);
}

TEST(Soak, RetentionBoundsForestOverLongRun) {
  constexpr std::uint32_t kRetention = 64;
  const SoakOutcome out = soak(kRetention, /*sim_s=*/21.0);
  EXPECT_TRUE(out.consistent);
  EXPECT_EQ(out.safety_violations, 0u);
  EXPECT_EQ(out.max_excess, 0u);
}

}  // namespace
}  // namespace bamboo
