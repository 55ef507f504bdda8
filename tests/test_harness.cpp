// Tests for the harness layer: workload driver semantics (closed/open
// loop, retries, watchdogs, measurement windows), cluster construction,
// experiment metrics, and the table printer.

#include <gtest/gtest.h>

#include <optional>
#include <sstream>

#include "client/workload.h"
#include "harness/cluster.h"
#include "harness/experiment.h"
#include "harness/table.h"

namespace bamboo {
namespace {

// ---------------------------------------------------------------------------
// TextTable
// ---------------------------------------------------------------------------

TEST(TextTable, AlignsColumns) {
  harness::TextTable table({"a", "long-header"});
  table.add_row({"wide-cell", "x"});
  std::ostringstream out;
  table.print(out);
  const std::string text = out.str();
  EXPECT_NE(text.find("long-header"), std::string::npos);
  EXPECT_NE(text.find("wide-cell"), std::string::npos);
  // Three lines: header, rule, row.
  EXPECT_EQ(std::count(text.begin(), text.end(), '\n'), 3);
}

TEST(TextTable, NumberFormatting) {
  EXPECT_EQ(harness::TextTable::num(3.14159, 2), "3.14");
  EXPECT_EQ(harness::TextTable::num(5, 0), "5");
  EXPECT_EQ(harness::TextTable::count(0), "0");
  EXPECT_EQ(harness::TextTable::count(999), "999");
  EXPECT_EQ(harness::TextTable::count(1000), "1,000");
  EXPECT_EQ(harness::TextTable::count(20096), "20,096");
  EXPECT_EQ(harness::TextTable::count(131275), "131,275");
  EXPECT_EQ(harness::TextTable::count(1234567890), "1,234,567,890");
}

// ---------------------------------------------------------------------------
// Cluster
// ---------------------------------------------------------------------------

TEST(Cluster, BuildsConfiguredTopology) {
  core::Config cfg;
  cfg.n_replicas = 7;
  cfg.protocol = "2chs";
  cfg.byz_no = 2;
  cfg.strategy = "forking";
  harness::Cluster cluster(cfg);
  cluster.start();
  EXPECT_EQ(cluster.size(), 7u);
  EXPECT_EQ(cluster.network().num_endpoints(), 7u + cfg.n_client_hosts);
  // Byzantine strategies applied to the top ids only.
  EXPECT_FALSE(cluster.replica(0).is_byzantine());
  EXPECT_FALSE(cluster.replica(4).is_byzantine());
  EXPECT_TRUE(cluster.replica(5).is_byzantine());
  EXPECT_TRUE(cluster.replica(6).is_byzantine());
  EXPECT_EQ(cluster.replica(3).safety().name(), "2chs");
}

TEST(Cluster, OhsProfileLowersIngestCost) {
  core::Config cfg;
  cfg.protocol = "ohs";
  harness::Cluster cluster(cfg);
  EXPECT_LT(cluster.config().cpu_ingest_per_tx, sim::microseconds(18));
  cluster.start();
  EXPECT_EQ(cluster.replica(0).safety().name(), "hotstuff");
}

TEST(Cluster, ConsistencyReportDetailsHeights) {
  core::Config cfg;
  harness::Cluster cluster(cfg);
  client::WorkloadConfig wl;
  wl.concurrency = 16;
  client::WorkloadDriver driver(cluster.simulator(), cluster.network(),
                                cluster.config(), wl);
  driver.install();
  cluster.start();
  driver.start();
  cluster.simulator().run_for(sim::from_seconds(0.3));
  const auto report = cluster.check_consistency();
  EXPECT_TRUE(report.consistent);
  EXPECT_GT(report.max_committed_height, 0u);
  EXPECT_LE(report.min_committed_height, report.max_committed_height);
}

TEST(Cluster, SameSeedIsBitForBitReproducible) {
  auto run = [](std::uint64_t seed) {
    core::Config cfg;
    cfg.seed = seed;
    cfg.bsize = 50;
    harness::Cluster cluster(cfg);
    client::WorkloadConfig wl;
    wl.concurrency = 32;
    client::WorkloadDriver driver(cluster.simulator(), cluster.network(),
                                  cluster.config(), wl);
    driver.install();
    cluster.start();
    driver.start();
    cluster.simulator().run_for(sim::from_seconds(0.4));
    return std::tuple{cluster.observer().stats().blocks_committed,
                      cluster.observer().current_view(),
                      driver.stats().completed,
                      cluster.network().bytes_sent()};
  };
  EXPECT_EQ(run(111), run(111));
  EXPECT_NE(run(111), run(222));
}

TEST(Cluster, RestartOutlivesThePredecessorsPendingCpuWork) {
  // Restart the replica at an instant when its CPU workers are busy: the
  // completion events the old instance scheduled fire after the swap, so
  // they must still find it alive (the sanitizer build checks this) and
  // must not run its work.
  core::Config cfg;
  harness::Cluster cluster(cfg);
  cluster.start();
  while (!cluster.replica(3).has_pending_events()) {
    ASSERT_TRUE(cluster.simulator().step());
  }
  cluster.restart_replica(3);
  EXPECT_FALSE(cluster.replica(3).crashed());
  cluster.simulator().run_for(sim::from_seconds(0.3));
  EXPECT_EQ(cluster.restarts(), 1u);
  EXPECT_TRUE(cluster.check_consistency().consistent);
  EXPECT_GT(cluster.replica(3).stats().blocks_committed, 0u);
}

TEST(Cluster, RestartOutlivesThePredecessorsDeferredProposal) {
  // In non-responsive mode a leader that enters its view after a timeout
  // proposes only propose_wait_after_vc later. Restart it inside that
  // wait: the deferred proposal must find the old instance alive and
  // must not propose for it.
  core::Config cfg;
  cfg.byz_no = 1;
  cfg.strategy = "crash";  // replica 3's views time out
  cfg.propose_wait_after_vc = sim::milliseconds(50);
  harness::Cluster cluster(cfg);
  std::optional<types::NodeId> waiting;
  cluster.add_view_listener([&](types::NodeId id, types::View view) {
    if (!waiting && cluster.total_timeouts() > 0 &&
        cluster.election().leader(view) == id) {
      waiting = id;
    }
  });
  cluster.start();
  while (!waiting) ASSERT_TRUE(cluster.simulator().step());
  cluster.restart_replica(*waiting);
  cluster.simulator().run_for(sim::from_seconds(0.5));
  EXPECT_EQ(cluster.restarts(), 1u);
  EXPECT_TRUE(cluster.check_consistency().consistent);
}

// ---------------------------------------------------------------------------
// Workload driver
// ---------------------------------------------------------------------------

TEST(Workload, ClosedLoopBoundsOutstandingRequests) {
  core::Config cfg;
  cfg.bsize = 50;
  harness::Cluster cluster(cfg);
  client::WorkloadConfig wl;
  wl.concurrency = 8;
  client::WorkloadDriver driver(cluster.simulator(), cluster.network(),
                                cluster.config(), wl);
  driver.install();
  cluster.start();
  driver.start();
  cluster.simulator().run_for(sim::from_seconds(0.3));
  // Issued is always completed + in-flight (<= concurrency).
  EXPECT_LE(driver.stats().issued,
            driver.stats().completed + driver.stats().rejected + 8);
  EXPECT_GT(driver.stats().completed, 0u);
}

TEST(Workload, OpenLoopApproximatesPoissonRate) {
  core::Config cfg;
  cfg.bsize = 400;
  harness::Cluster cluster(cfg);
  client::WorkloadConfig wl;
  wl.mode = client::LoadMode::kOpenLoop;
  wl.arrival_rate_tps = 5000;
  client::WorkloadDriver driver(cluster.simulator(), cluster.network(),
                                cluster.config(), wl);
  driver.install();
  cluster.start();
  driver.start();
  cluster.simulator().run_for(sim::from_seconds(1.0));
  EXPECT_NEAR(static_cast<double>(driver.stats().issued), 5000.0, 300.0);
}

TEST(Workload, MeasurementWindowExcludesWarmup) {
  core::Config cfg;
  cfg.bsize = 50;
  harness::Cluster cluster(cfg);
  client::WorkloadConfig wl;
  wl.concurrency = 16;
  client::WorkloadDriver driver(cluster.simulator(), cluster.network(),
                                cluster.config(), wl);
  driver.install();
  cluster.start();
  driver.start();
  cluster.simulator().run_for(sim::from_seconds(0.2));
  const auto warmup_completed = driver.stats().completed;
  EXPECT_GT(warmup_completed, 0u);
  EXPECT_EQ(driver.measured_completed(), 0u);  // not measuring yet

  driver.begin_measurement();
  cluster.simulator().run_for(sim::from_seconds(0.2));
  driver.end_measurement();
  EXPECT_GT(driver.measured_completed(), 0u);
  EXPECT_LT(driver.measured_completed(), driver.stats().completed);
  EXPECT_NEAR(driver.measured_seconds(), 0.2, 1e-9);
  EXPECT_EQ(driver.latencies_ms().count(), driver.measured_completed());
}

TEST(Workload, WatchdogAbandonsStuckSessions) {
  core::Config cfg;
  cfg.bsize = 50;
  cfg.byz_no = 2;       // f+1 crashes: the cluster can never commit
  cfg.strategy = "crash";
  cfg.timeout = sim::milliseconds(20);
  harness::Cluster cluster(cfg);
  client::WorkloadConfig wl;
  wl.concurrency = 4;
  wl.session_timeout = sim::milliseconds(100);
  client::WorkloadDriver driver(cluster.simulator(), cluster.network(),
                                cluster.config(), wl);
  driver.install();
  cluster.start();
  driver.start();
  cluster.simulator().run_for(sim::from_seconds(1.0));
  // Nothing commits, so every re-issue comes from the watchdog.
  EXPECT_EQ(driver.stats().completed, 0u);
  EXPECT_GT(driver.stats().abandoned, 20u);
  EXPECT_GT(driver.stats().issued, driver.stats().abandoned);
}

// ---------------------------------------------------------------------------
// run_experiment metrics
// ---------------------------------------------------------------------------

TEST(Experiment, MetricsAreInternallyConsistent) {
  core::Config cfg;
  cfg.bsize = 100;
  client::WorkloadConfig wl;
  wl.concurrency = 64;
  const auto r = harness::run_experiment(cfg, wl, {0.2, 0.6});
  EXPECT_NEAR(r.measured_s, 0.6, 1e-9);
  EXPECT_GT(r.throughput_tps, 0);
  EXPECT_GT(r.latency_samples, 0u);
  EXPECT_GE(r.latency_ms_p99, r.latency_ms_p50);
  EXPECT_GT(r.views, 0u);
  EXPECT_GT(r.blocks_committed, 0u);
  EXPECT_LE(r.cgr_per_view, 1.001);
  EXPECT_LE(r.cgr_per_block, 1.001);
  EXPECT_NEAR(r.block_interval, 3.0, 0.2);  // HotStuff happy path
  EXPECT_TRUE(r.consistent);
  EXPECT_EQ(r.safety_violations, 0u);
}

TEST(Experiment, SweepsReturnOnePointPerLevel) {
  core::Config cfg;
  cfg.bsize = 50;
  client::WorkloadConfig wl;
  const auto closed =
      harness::sweep_closed_loop(cfg, wl, {8, 32}, {0.1, 0.3});
  ASSERT_EQ(closed.size(), 2u);
  EXPECT_DOUBLE_EQ(closed[0].offered, 8);
  EXPECT_DOUBLE_EQ(closed[1].offered, 32);
  // More clients => at least as much throughput below saturation.
  EXPECT_GE(closed[1].result.throughput_tps,
            closed[0].result.throughput_tps * 0.9);

  const auto open =
      harness::sweep_open_loop(cfg, wl, {500.0, 2000.0}, {0.1, 0.3});
  ASSERT_EQ(open.size(), 2u);
  EXPECT_GT(open[1].result.throughput_tps, open[0].result.throughput_tps);
}

TEST(Experiment, TimelineBucketsCoverHorizon) {
  core::Config cfg;
  cfg.bsize = 100;
  client::WorkloadConfig wl;
  wl.mode = client::LoadMode::kOpenLoop;
  wl.arrival_rate_tps = 2000;
  const auto t = harness::run_responsiveness_timeline(
      cfg, wl, /*horizon=*/1.0, /*bucket=*/0.25, /*fluct_start=*/10,
      /*fluct_end=*/11, 0, 0, /*crash_at=*/-1, 0);
  ASSERT_EQ(t.tx_per_s.size(), 4u);
  ASSERT_EQ(t.bucket_start_s.size(), 4u);
  EXPECT_DOUBLE_EQ(t.bucket_start_s[3], 0.75);
  // Steady state: every bucket near the offered rate.
  for (std::size_t i = 1; i < t.tx_per_s.size(); ++i) {
    EXPECT_NEAR(t.tx_per_s[i], 2000.0, 600.0) << "bucket " << i;
  }
  EXPECT_TRUE(t.summary.consistent);
}

}  // namespace
}  // namespace bamboo
