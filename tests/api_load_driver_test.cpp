// The open-loop load driver (api::run_open_loop_batch) under wall-clock
// load. The `direct` mechanism in saturation mode (no engine) does no work
// of its own, so `stack_cost_per_request` is the whole service time and
// the `batch_workers` lanes are the servers: capacity is
// batch_workers / stack_cost_per_request.
#include "api/load_driver.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <chrono>
#include <stdexcept>
#include <string>
#include <thread>

#include "api/registry.hpp"

namespace xsearch::api {
namespace {

ClientPtr direct_client(std::size_t workers, Nanos service,
                        std::size_t queue_capacity = 4096) {
  ClientConfig config;
  config.contact_engine = false;
  config.batch_workers = workers;
  config.stack_cost_per_request = service;
  config.batch_queue_capacity = queue_capacity;
  auto client = make_client("direct", Backend{}, config);
  EXPECT_TRUE(client.is_ok()) << client.status().to_string();
  return std::move(client).value();
}

LoadConfig offered(double rps, Nanos duration) {
  LoadConfig config;
  config.target_rps = rps;
  config.duration = duration;
  return config;
}

std::string probe() { return "load driver probe"; }

TEST(LoadDriver, CompletesAllRequestsUnderLowLoad) {
  auto client = direct_client(2, 0);
  const auto report =
      run_open_loop_batch(*client, probe, offered(500, 200 * kMilli));
  EXPECT_EQ(report.completed, report.issued);
  EXPECT_EQ(report.dropped, 0u);
  EXPECT_EQ(client->stats().completed, report.completed);
  EXPECT_NEAR(report.achieved_rps, 500, 100);
}

TEST(LoadDriver, LatencyLowWhenUnderCapacity) {
  // Service time 0.1 ms at 200 rps on 2 lanes: far from saturation.
  auto client = direct_client(2, 100 * kMicro);
  const auto report =
      run_open_loop_batch(*client, probe, offered(200, 200 * kMilli));
  EXPECT_LT(report.p50_ms(), 5.0);
}

TEST(LoadDriver, LatencyExplodesBeyondCapacity) {
  // Capacity = 2 lanes / 1 ms = 2000 rps.
  auto client = direct_client(2, kMilli);
  const auto under =
      run_open_loop_batch(*client, probe, offered(1000, 250 * kMilli));
  const auto over =
      run_open_loop_batch(*client, probe, offered(6000, 250 * kMilli));
  EXPECT_GT(over.p50_ms(), 4 * under.p50_ms());
}

TEST(LoadDriver, ThroughputCapsAtCapacity) {
  // Far beyond 2 lanes / 1 ms = 2000 rps; a short batch queue sheds the
  // excess instead of draining it for seconds after the schedule ends.
  constexpr std::size_t kLanes = 2;
  auto client = direct_client(kLanes, kMilli, 64);
  const auto report =
      run_open_loop_batch(*client, probe, offered(8000, 250 * kMilli));
  EXPECT_GT(report.dropped, 0u);
  // Busy-waiting lanes cannot exceed the machine's core count.
  const unsigned hw = std::max(1u, std::thread::hardware_concurrency());
  const double capacity_rps =
      static_cast<double>(std::min<unsigned>(kLanes, hw)) * 1000.0;
  EXPECT_LT(report.achieved_rps, 1.5 * capacity_rps);
  EXPECT_GT(report.achieved_rps, 0.6 * capacity_rps);
}

TEST(LoadDriver, ZeroRateProducesNothing) {
  auto client = direct_client(2, 0);
  const auto report = run_open_loop_batch(*client, probe, offered(0, 200 * kMilli));
  EXPECT_EQ(report.issued, 0u);
  EXPECT_EQ(report.completed, 0u);
  EXPECT_EQ(client->stats().submitted, 0u);
}

TEST(LoadDriver, ReportPercentilesOrdered) {
  auto client = direct_client(4, 50 * kMicro);
  const auto report =
      run_open_loop_batch(*client, probe, offered(1000, 200 * kMilli));
  EXPECT_LE(report.p50_ms(), report.p99_ms());
  EXPECT_LE(report.late_us_p50(), report.late_us_max());
  EXPECT_EQ(report.lateness.count(), report.issued);
}

TEST(LoadDriver, StalledDispatcherChargesLatenessToLatency) {
  // The 20th query stalls the dispatcher for 5 ms, so the requests that
  // fall due meanwhile are submitted late. Each must be charged from its
  // scheduled instant: no latency below its own lateness.
  auto client = direct_client(2, 0);
  int calls = 0;
  const auto stalling = [&calls] {
    if (++calls == 20) std::this_thread::sleep_for(std::chrono::milliseconds(5));
    return probe();
  };
  const auto report =
      run_open_loop_batch(*client, stalling, offered(1000, 100 * kMilli));
  ASSERT_EQ(report.dropped, 0u);
  ASSERT_EQ(report.completed, report.issued);
  ASSERT_EQ(report.latency.count(), report.lateness.count());

  // The stall starts as request 19 is submitted and request 20 falls due
  // 1 ms into it, so request 20 is about 4 ms late.
  EXPECT_GE(report.lateness.max(), 3 * kMilli);
  EXPECT_GE(report.latency.max(), report.lateness.max());
  // Per request latency >= lateness implies rank-by-rank dominance of the
  // two distributions (same bucket layout, so exact even when bucketed).
  const std::uint64_t n = report.latency.count();
  for (std::uint64_t rank = 1; rank <= n; ++rank) {
    const double q = static_cast<double>(rank) / static_cast<double>(n);
    EXPECT_GE(report.latency.value_at_quantile(q),
              report.lateness.value_at_quantile(q))
        << "rank " << rank << " of " << n;
  }
}

TEST(LoadDriver, QueryCallbackFailureReachesTheCaller) {
  // next_query runs on the dispatcher thread; its exception must surface
  // from run_open_loop_batch after the accepted requests are collected.
  auto client = direct_client(2, 0);
  int calls = 0;
  const auto failing = [&calls]() -> std::string {
    if (++calls == 3) throw std::runtime_error("no more queries");
    return probe();
  };
  EXPECT_THROW(
      (void)run_open_loop_batch(*client, failing, offered(1000, 100 * kMilli)),
      std::runtime_error);
  EXPECT_EQ(client->stats().completed, 2u);
}

}  // namespace
}  // namespace xsearch::api
