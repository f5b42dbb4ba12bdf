// Deterministic wire-level chaos harness (ISSUE 8 acceptance suite).
//
// Three layers, bottom up:
//  * frame-level fault satellites — partial writes/reads, dropped and
//    garbage-corrupted frames, truncated/oversized headers — each forced
//    deterministically through a single-fault FaultPlan (probability 1 for
//    the targeted action);
//  * circuit breakers — the RemoteBroker's client-side breaker fast-fails
//    without wire I/O while open and recovers through half-open probes on an
//    injected clock; the XSearchProxy's engine-path breaker stops calling a
//    dead engine and recovers the same way;
//  * the end-to-end chaos run — broker → ProxyServer → ProxyFleet under a
//    seeded FaultPlan, for several seeds: every request completes within its
//    deadline with a typed outcome, duplicates stay inside the documented
//    at-least-once window, and once the plan is exhausted the path serves
//    cleanly again.
//
// Runs under ThreadSanitizer and AddressSanitizer in CI (labels: net, chaos).
#include "net/chaos.hpp"

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <memory>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "common/circuit_breaker.hpp"
#include "common/deadline.hpp"
#include "dataset/synthetic.hpp"
#include "engine/corpus.hpp"
#include "engine/search_engine.hpp"
#include "net/frame.hpp"
#include "net/proxy_fleet.hpp"
#include "net/proxy_server.hpp"
#include "net/remote_broker.hpp"
#include "net/socket.hpp"
#include "sgx/attestation.hpp"
#include "test_util.hpp"
#include "xsearch/broker.hpp"
#include "xsearch/proxy.hpp"

namespace xsearch::net {
namespace {

// --- harness helpers ---------------------------------------------------------

/// A connected loopback stream pair (client side, server side).
struct Loopback {
  TcpStream client;
  TcpStream server;
};

Loopback make_loopback() {
  auto listener = TcpListener::bind(0);
  EXPECT_TRUE(listener.is_ok()) << listener.status().to_string();
  auto client = TcpStream::connect("127.0.0.1", listener.value().port());
  EXPECT_TRUE(client.is_ok()) << client.status().to_string();
  auto server = listener.value().accept();
  EXPECT_TRUE(server.is_ok()) << server.status().to_string();
  return Loopback{std::move(client).value(), std::move(server).value()};
}

/// A plan whose single fault is `action` with certainty — the deterministic
/// building block of the frame-level satellites.
std::shared_ptr<FaultPlan> single_fault_plan(FaultAction action,
                                             std::uint64_t seed = 3) {
  FaultPlan::Options options;
  options.seed = seed;
  options.fault_ops = 1;
  options.delay_p = 0;
  options.max_delay = 0;
  options.partial_p = 0;
  options.drop_p = 0;
  options.reset_p = 0;
  options.garbage_p = 0;
  switch (action) {
    case FaultAction::kDelay:
      options.delay_p = 1.0;
      options.max_delay = kMilli;
      break;
    case FaultAction::kPartialThenReset:
      options.partial_p = 1.0;
      break;
    case FaultAction::kDrop:
      options.drop_p = 1.0;
      break;
    case FaultAction::kReset:
      options.reset_p = 1.0;
      break;
    case FaultAction::kGarbage:
      options.garbage_p = 1.0;
      break;
    case FaultAction::kPass:
      options.fault_ops = 0;
      break;
  }
  return std::make_shared<FaultPlan>(options);
}

// --- frame-level satellites --------------------------------------------------

TEST(ChaosFrame, RoundTripCarriesRemainingBudget) {
  Loopback wire = make_loopback();
  const Bytes payload = to_bytes("budgeted query record");
  // The writer puts the deadline's REMAINING budget on the wire: at most
  // the original 1234 ms, and only the write's own latency less.
  ASSERT_TRUE(write_frame(wire.client, FrameType::kQuery, payload,
                          Deadline::after(1234 * kMilli))
                  .is_ok());
  auto frame = read_frame(wire.server);
  ASSERT_TRUE(frame.is_ok()) << frame.status().to_string();
  EXPECT_LE(frame.value().budget_millis, 1234u);
  EXPECT_GT(frame.value().budget_millis, 1000u);
  EXPECT_EQ(frame.value().type, FrameType::kQuery);
  EXPECT_EQ(frame.value().payload, payload);
}

TEST(ChaosFrame, InfiniteDeadlineReadsAsBudgetZero) {
  Loopback wire = make_loopback();
  ASSERT_TRUE(write_frame(wire.client, FrameType::kQuery, to_bytes("q"),
                          Deadline::infinite())
                  .is_ok());
  auto frame = read_frame(wire.server);
  ASSERT_TRUE(frame.is_ok());
  EXPECT_EQ(frame.value().budget_millis, 0u);  // wire meaning: no deadline
}

TEST(ChaosFrame, TruncatedFrameIsDataLoss) {
  Loopback wire = make_loopback();
  // Length word promises a 10-byte frame, then the peer dies mid-header.
  const Bytes header = {0x00, 0x00, 0x00, 0x0a};
  ASSERT_TRUE(wire.client.write_all(header).is_ok());
  wire.client.shutdown_both();
  auto frame = read_frame(wire.server);
  ASSERT_FALSE(frame.is_ok());
  EXPECT_EQ(frame.status().code(), StatusCode::kDataLoss);
}

TEST(ChaosFrame, ZeroAndOversizedLengthsAreDataLoss) {
  {
    Loopback wire = make_loopback();
    const Bytes zero = {0x00, 0x00, 0x00, 0x00};
    ASSERT_TRUE(wire.client.write_all(zero).is_ok());
    auto frame = read_frame(wire.server);
    ASSERT_FALSE(frame.is_ok());
    EXPECT_EQ(frame.status().code(), StatusCode::kDataLoss);
  }
  {
    Loopback wire = make_loopback();
    // Length far past the 4 MiB cap: refused before any allocation.
    const Bytes huge = {0x7f, 0xff, 0xff, 0xff};
    ASSERT_TRUE(wire.client.write_all(huge).is_ok());
    auto frame = read_frame(wire.server);
    ASSERT_FALSE(frame.is_ok());
    EXPECT_EQ(frame.status().code(), StatusCode::kDataLoss);
  }
}

TEST(ChaosSocketFaults, PartialWriteResetsBothSides) {
  Loopback wire = make_loopback();
  ChaosSocket chaotic(std::move(wire.client),
                      single_fault_plan(FaultAction::kPartialThenReset));
  // The header write moves only half its bytes, then the connection resets:
  // the writer sees a typed transport error...
  const Status written =
      write_frame(chaotic, FrameType::kQuery, to_bytes("doomed"));
  ASSERT_FALSE(written.is_ok());
  EXPECT_EQ(written.code(), StatusCode::kUnavailable);
  // ...and the reader a truncated frame (EOF mid-header), never a hang.
  auto frame = read_frame(wire.server, Deadline::after(kSecond));
  ASSERT_FALSE(frame.is_ok());
  EXPECT_EQ(frame.status().code(), StatusCode::kDataLoss);
}

TEST(ChaosSocketFaults, PartialReadResetsAndFailsTyped) {
  Loopback wire = make_loopback();
  ASSERT_TRUE(write_frame(wire.client, FrameType::kQuery, to_bytes("intact"))
                  .is_ok());
  ChaosSocket chaotic(std::move(wire.server),
                      single_fault_plan(FaultAction::kPartialThenReset));
  auto frame = read_frame(chaotic);
  ASSERT_FALSE(frame.is_ok());
  EXPECT_EQ(frame.status().code(), StatusCode::kUnavailable);
}

TEST(ChaosSocketFaults, DroppedWriteIsSilentUntilTheReadDeadline) {
  Loopback wire = make_loopback();
  ChaosSocket chaotic(std::move(wire.client),
                      single_fault_plan(FaultAction::kDrop));
  // The insidious fault: the frame header vanishes in flight and the WRITER
  // sees success — only a read deadline can surface it.
  ASSERT_TRUE(write_frame(chaotic, FrameType::kQuery, to_bytes("vanishes"))
                  .is_ok());
  auto frame = read_frame(wire.server, Deadline::after(100 * kMilli));
  ASSERT_FALSE(frame.is_ok());
  // The payload bytes arrive without their header: the reader misparses
  // them as an out-of-range length (DATA_LOSS) or times out waiting for
  // bytes that never come — typed either way, never a hang.
  EXPECT_TRUE(frame.status().code() == StatusCode::kDataLoss ||
              frame.status().code() == StatusCode::kDeadlineExceeded)
      << frame.status().to_string();
}

TEST(ChaosSocketFaults, GarbageCorruptionNeverReadsAsTheOriginalFrame) {
  Loopback wire = make_loopback();
  ChaosSocket chaotic(std::move(wire.client),
                      single_fault_plan(FaultAction::kGarbage));
  const Bytes payload = to_bytes("pristine payload");
  ASSERT_TRUE(write_frame(chaotic, FrameType::kQuery, payload).is_ok());
  auto frame = read_frame(wire.server, Deadline::after(100 * kMilli));
  if (frame.is_ok()) {
    // The corruption hit the type byte or spilled into the payload: the
    // frame must not round-trip unchanged (integrity is the secure
    // channel's job — the framing layer just must not mask the damage).
    EXPECT_TRUE(frame.value().type != FrameType::kQuery ||
                frame.value().payload != payload);
  } else {
    // The corruption hit the length word: typed failure, not a hang.
    EXPECT_TRUE(frame.status().code() == StatusCode::kDataLoss ||
                frame.status().code() == StatusCode::kDeadlineExceeded)
        << frame.status().to_string();
  }
}

// --- client-side circuit breaker --------------------------------------------

core::XSearchProxy::Options proxy_only_options() {
  core::XSearchProxy::Options options;
  options.k = 2;
  options.history_capacity = 4096;
  options.contact_engine = false;
  return options;
}

TEST(ChaosBreaker, OpenBreakerFastFailsWithoutWireIoThenRecovers) {
  sgx::AttestationAuthority authority(to_bytes("chaos-breaker-root"));
  core::XSearchProxy proxy(nullptr, authority, proxy_only_options());
  auto server = ProxyServer::start(proxy);
  ASSERT_TRUE(server.is_ok());
  const std::uint16_t port = server.value()->port();

  // Breaker on an injected clock: the test steps the cooldown by hand.
  Nanos fake_now = 0;
  RemoteBroker::Options options;
  options.request_budget = 2 * kSecond;
  options.breaker_enabled = true;
  options.breaker.window = 8;
  options.breaker.min_samples = 2;
  options.breaker.failure_ratio = 0.5;
  options.breaker.open_cooldown = 50 * kMilli;
  options.breaker.half_open_probes = 1;
  options.breaker.now = [&fake_now] { return fake_now; };
  RemoteBroker broker("127.0.0.1", port, authority, proxy.measurement(), 5,
                      options);
  ASSERT_TRUE(broker.search("baseline through a healthy proxy").is_ok());

  // Proxy goes away: both attempts of the next call fail, tripping the
  // breaker (window min_samples=2, ratio 0.5).
  server.value()->stop();
  EXPECT_FALSE(broker.search("server is down").is_ok());
  EXPECT_EQ(broker.breaker_stats().state, CircuitBreaker::State::kOpen);
  EXPECT_GE(broker.breaker_stats().trips, 1u);

  // Open state: fail fast with a typed verdict and ZERO wire activity.
  const std::uint64_t frames_before = broker.frames_sent();
  auto rejected = broker.search("must not touch the wire");
  ASSERT_FALSE(rejected.is_ok());
  EXPECT_EQ(rejected.status().code(), StatusCode::kUpstreamDown);
  EXPECT_NE(rejected.status().message().find("circuit breaker open"),
            std::string::npos);
  EXPECT_EQ(broker.frames_sent(), frames_before);
  EXPECT_GE(broker.breaker_stats().rejected, 1u);

  // The proxy returns on the same port; stepping the clock past the
  // cooldown admits half-open probes, and the first success closes the
  // breaker (half_open_probes = 1).
  auto revived = ProxyServer::start(proxy, port);
  ASSERT_TRUE(revived.is_ok()) << revived.status().to_string();
  bool recovered = false;
  for (int i = 0; i < 5 && !recovered; ++i) {
    fake_now += options.breaker.open_cooldown;
    recovered = broker.search("recovery probe " + std::to_string(i)).is_ok();
  }
  EXPECT_TRUE(recovered);
  EXPECT_EQ(broker.breaker_stats().state, CircuitBreaker::State::kClosed);
  revived.value()->stop();
}

// --- engine-path circuit breaker ---------------------------------------------

TEST(ChaosEngineBreaker, DeadEngineTripsBreakerAndHalfOpenProbesRecover) {
  dataset::SyntheticLogConfig log_config;
  log_config.num_users = 10;
  log_config.total_queries = 300;
  log_config.vocab_size = 400;
  log_config.num_topics = 6;
  log_config.words_per_topic = 40;
  const dataset::QueryLog log = dataset::generate_synthetic_log(log_config);
  const engine::Corpus corpus(log,
                              engine::CorpusConfig{.seed = 4, .num_documents = 200});
  const engine::SearchEngine engine(corpus);
  sgx::AttestationAuthority authority(to_bytes("engine-breaker-root"));

  // Engine outage switch + call counter, injected through the host-side
  // fault hook (the same seam the degraded bench drives via FaultPlan).
  auto engine_down = std::make_shared<std::atomic<bool>>(true);
  auto engine_calls = std::make_shared<std::atomic<std::uint64_t>>(0);

  Nanos fake_now = 0;
  core::XSearchProxy::Options options;
  options.k = 2;
  options.history_capacity = 4096;
  options.engine_breaker_enabled = true;
  options.engine_breaker.window = 8;
  options.engine_breaker.min_samples = 2;
  options.engine_breaker.failure_ratio = 0.5;
  options.engine_breaker.open_cooldown = 50 * kMilli;
  options.engine_breaker.half_open_probes = 1;
  options.engine_breaker.now = [&fake_now] { return fake_now; };
  options.engine_fault_hook = [engine_down, engine_calls]() -> Status {
    engine_calls->fetch_add(1, std::memory_order_relaxed);
    if (engine_down->load(std::memory_order_relaxed)) {
      return unavailable("chaos: engine outage");
    }
    return Status::ok();
  };
  core::XSearchProxy proxy(&engine, authority, options);
  core::ClientBroker broker(proxy, authority, proxy.measurement(), 11);
  ASSERT_TRUE(broker.connect().is_ok());

  // Engine down: queries fail with a SEALED per-query error (the record was
  // opened and executed — exactly-once still holds), and the breaker trips.
  int outage_queries = 0;
  while (proxy.engine_breaker_stats().state != CircuitBreaker::State::kOpen &&
         outage_queries < 8) {
    auto results = broker.search(log.records()[outage_queries].text);
    EXPECT_FALSE(results.is_ok());
    ++outage_queries;
  }
  EXPECT_EQ(proxy.engine_breaker_stats().state, CircuitBreaker::State::kOpen);
  EXPECT_GE(proxy.engine_breaker_stats().trips, 1u);

  // Open: round trips fail fast WITHOUT invoking the engine path at all —
  // the hook (which sits before the engine) stops being called.
  const std::uint64_t calls_at_trip = engine_calls->load();
  for (int i = 0; i < 3; ++i) {
    auto results = broker.search(log.records()[20 + i].text);
    EXPECT_FALSE(results.is_ok());
    EXPECT_NE(results.status().message().find("circuit breaker open"),
              std::string::npos);
  }
  EXPECT_EQ(engine_calls->load(), calls_at_trip);
  EXPECT_GE(proxy.engine_breaker_stats().rejected, 1u);

  // Engine heals; past the cooldown the half-open probe goes through the
  // real engine and the breaker closes.
  engine_down->store(false, std::memory_order_relaxed);
  bool recovered = false;
  for (int i = 0; i < 5 && !recovered; ++i) {
    fake_now += options.engine_breaker.open_cooldown;
    recovered = broker.search(log.records()[40 + i].text).is_ok();
  }
  EXPECT_TRUE(recovered);
  EXPECT_EQ(proxy.engine_breaker_stats().state, CircuitBreaker::State::kClosed);
}

// --- end-to-end chaos run ----------------------------------------------------

// The acceptance run (ISSUE 8): for each seed, a broker with an end-to-end
// request budget drives a ProxyServer + two-worker ProxyFleet through a
// ChaosSocket until the fault plan is exhausted. Invariants:
//  * every call returns within its budget (plus bounded slack) with either
//    results or a typed error — no hangs;
//  * executions on the fleet stay inside the documented at-least-once
//    envelope (each execution is a success, a counted at-least-once retry,
//    or the delivered final attempt of a failure);
//  * after the last injected fault, the path serves cleanly again.
TEST(ChaosEndToEnd, SeededFaultPlansNeverHangAndRecoverCleanly) {
  sgx::AttestationAuthority authority(to_bytes("chaos-e2e-root"));
  for (const std::uint64_t seed : {7u, 21u, 42u}) {
    SCOPED_TRACE("seed " + std::to_string(seed));

    ProxyFleet::Options fleet_options;
    fleet_options.workers = 2;
    fleet_options.proxy = proxy_only_options();
    auto fleet = ProxyFleet::create(nullptr, authority, fleet_options);
    ASSERT_TRUE(fleet.is_ok()) << fleet.status().to_string();

    ProxyServer::Options server_options;
    server_options.workers = 4;
    server_options.queue_timeout = 500 * kMilli;
    server_options.io_budget = 500 * kMilli;
    auto server = ProxyServer::start(*fleet.value(), 0, server_options);
    ASSERT_TRUE(server.is_ok());

    FaultPlan::Options plan_options;
    plan_options.seed = seed;
    plan_options.fault_ops = 12;
    auto plan = std::make_shared<FaultPlan>(plan_options);

    RemoteBroker::Options broker_options;
    broker_options.request_budget = 2 * kSecond;
    broker_options.connect_budget = kSecond;
    broker_options.retry.max_attempts = 3;
    broker_options.retry.initial_backoff = kMilli;
    broker_options.retry.max_backoff = 10 * kMilli;
    broker_options.retry_budget.capacity = 1000.0;  // chaos phase may retry a lot
    broker_options.wrap_stream = [plan](TcpStream stream) {
      return std::make_unique<ChaosSocket>(std::move(stream), plan);
    };
    RemoteBroker broker("127.0.0.1", server.value()->port(), authority,
                        fleet.value()->measurement(), seed, broker_options);

    int successes = 0;
    int failures = 0;
    int calls = 0;
    while (!plan->exhausted() && calls < 200) {
      const auto started = std::chrono::steady_clock::now();
      auto results = broker.search("chaos seed " + std::to_string(seed) +
                                   " call " + std::to_string(calls));
      const auto elapsed = std::chrono::steady_clock::now() - started;
      // Budget 2s, up to 3 attempts sharing it, backoff capped by the
      // remaining budget: generous slack, but never a hang.
      EXPECT_LT(elapsed, std::chrono::seconds(10));
      if (results.is_ok()) {
        ++successes;
      } else {
        ++failures;
        EXPECT_NE(results.status().code(), StatusCode::kOk);
      }
      ++calls;
    }
    EXPECT_TRUE(plan->exhausted()) << "only " << plan->faults_injected()
                                   << " faults injected in " << calls << " calls";

    // Recovery window: the plan passes everything now, so the path must
    // serve every request (transparently re-handshaking off any wreckage
    // the last fault left behind).
    for (int i = 0; i < 5; ++i) {
      auto results = broker.search("recovery " + std::to_string(i));
      EXPECT_TRUE(results.is_ok()) << results.status().to_string();
      if (results.is_ok()) ++successes;
    }

    // Duplicate envelope: every history entry on the fleet is one executed
    // query. Each execution is (a) the success of a call, (b) covered by a
    // counted at-least-once retry, or (c) the delivered final attempt of a
    // failed call — nothing executes outside that envelope.
    std::size_t executed = 0;
    for (std::size_t w = 0; w < fleet.value()->worker_count(); ++w) {
      executed += fleet.value()->worker_history_depth(w);
    }
    EXPECT_GE(executed, static_cast<std::size_t>(successes));
    EXPECT_LE(executed,
              static_cast<std::size_t>(successes) +
                  static_cast<std::size_t>(failures) +
                  broker.at_least_once_retries());

    server.value()->stop();
  }
}

// Switchless chaos case: every enclave's ring workers are parked mid-burst.
// The fault is invisible to the wire — frames flow, the proxy answers — so
// the only acceptable behavior is the submit path degrading to the plain
// ecall fallback within its pickup patience. Requests must keep completing
// within budget (no hang behind the parked ring), and unpausing must return
// traffic to the exitless path.
TEST(ChaosEndToEnd, ParkedSwitchlessWorkersDegradeToEcallsNotHangs) {
  sgx::AttestationAuthority authority(to_bytes("chaos-switchless-root"));

  ProxyFleet::Options fleet_options;
  fleet_options.workers = 2;
  fleet_options.proxy = proxy_only_options();
  fleet_options.proxy.switchless.enabled = true;
  fleet_options.proxy.switchless.ring_depth = 8;
  fleet_options.proxy.switchless.workers = 1;
  fleet_options.proxy.switchless.pickup_patience = 5 * kMilli;
  auto fleet = ProxyFleet::create(nullptr, authority, fleet_options);
  ASSERT_TRUE(fleet.is_ok()) << fleet.status().to_string();

  ProxyServer::Options server_options;
  server_options.workers = 4;
  server_options.queue_timeout = 500 * kMilli;
  server_options.io_budget = 500 * kMilli;
  auto server = ProxyServer::start(*fleet.value(), 0, server_options);
  ASSERT_TRUE(server.is_ok());

  RemoteBroker::Options broker_options;
  broker_options.request_budget = 2 * kSecond;
  broker_options.connect_budget = kSecond;
  RemoteBroker broker("127.0.0.1", server.value()->port(), authority,
                      fleet.value()->measurement(), 33, broker_options);

  // Warm burst: the ring is live, queries ride it.
  for (int i = 0; i < 6; ++i) {
    auto results = broker.search("warm burst " + std::to_string(i));
    ASSERT_TRUE(results.is_ok()) << results.status().to_string();
  }
  const auto warm = fleet.value()->fleet_stats().ring;
  EXPECT_GE(warm.jobs_switchless, 1u);

  // Park every worker's ring crew mid-burst. A crew mid-poll-pass can still
  // drain one last job after the pause lands; wait for the park counters to
  // confirm every crew re-parked before asserting on the degraded burst.
  const auto parks_before = fleet.value()->fleet_stats().ring.worker_parks;
  for (std::size_t w = 0; w < fleet.value()->worker_count(); ++w) {
    fleet.value()->worker_proxy(w)->pause_switchless_workers(true);
  }
  for (int i = 0; i < 2000 && fleet.value()->fleet_stats().ring.worker_parks <
                                  parks_before + fleet.value()->worker_count();
       ++i) {
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  for (int i = 0; i < 6; ++i) {
    const auto started = std::chrono::steady_clock::now();
    auto results = broker.search("parked burst " + std::to_string(i));
    const auto elapsed = std::chrono::steady_clock::now() - started;
    ASSERT_TRUE(results.is_ok()) << results.status().to_string();
    EXPECT_LT(elapsed, std::chrono::seconds(10));  // degraded, never hung
  }
  const auto parked = fleet.value()->fleet_stats().ring;
  EXPECT_GE(parked.fallback_ecalls - warm.fallback_ecalls, 6u);
  EXPECT_EQ(parked.jobs_switchless, warm.jobs_switchless);

  // Unpause: traffic returns to the exitless path. Give the woken workers
  // a beat to sweep the cancelled carcasses out of the ring first.
  for (std::size_t w = 0; w < fleet.value()->worker_count(); ++w) {
    fleet.value()->worker_proxy(w)->pause_switchless_workers(false);
  }
  std::this_thread::sleep_for(std::chrono::milliseconds(20));
  for (int i = 0; i < 4; ++i) {
    auto results = broker.search("revived burst " + std::to_string(i));
    ASSERT_TRUE(results.is_ok()) << results.status().to_string();
  }
  EXPECT_GT(fleet.value()->fleet_stats().ring.jobs_switchless,
            warm.jobs_switchless);

  server.value()->stop();
}

}  // namespace
}  // namespace xsearch::net
