// Figure 5 — latency vs offered throughput for X-Search, PEAS and Tor.
//
// Paper claims (§6.3): X-Search serves ~25,000 req/s with sub-second
// latency; PEAS saturates around 1,000 req/s; Tor around 100 req/s — one
// and two orders of magnitude apart. Measured wrk2-style by
// api::run_open_loop_batch (the one open-loop driver; it reports its own
// lateness as late_p50/late_max, in us) with the proxies replying
// immediately (no live engine), isolating proxy capacity.
//
// Every mechanism is driven through the unified PrivateSearchClient API:
// the client is built by name from the MechanismRegistry, and the load is
// offered through the asynchronous batch path (submit/poll on the client's
// own worker lanes), so any registered mechanism — including a sixth one —
// is benchable by passing its name on the command line.
//
// What is real here: every request executes the full proxy compute path
// (X-Search: channel AEAD open/seal + Algorithm 1 + history update inside
// the enclave boundary; PEAS: hybrid envelope decryption + co-occurrence
// fake generation; Tor: three onion layers each way). What is calibrated:
// a per-request stack/network service cost per system
// (netsim::service_costs::for_mechanism) sized so the saturation knees land
// at the paper's magnitudes (ARCHITECTURE.md, "Measured vs modelled"); the
// JSON marks such rows "modeled": true.
//
// The special name "xsearch-remote" drives the same saturation load over
// real TCP: an in-process ProxyServer fronts the proxy, the unified client
// is api::make_remote_client, and each batch lane holds its own attested
// session — so the bench exercises the bounded SessionTable and the
// pool-served connection path concurrently, end to end, and reports the
// session-lifecycle counters afterwards.
//
// The closed-loop modes share run_closed_loop. "xsearch-sessions" is the
// concurrent-scaling mode: one shared saturation proxy, S closed-loop
// client sessions on S threads for S in {1,2,4,8}. With per-session RNG
// streams and reader/writer history there is no global lock on the query
// path, so aggregate throughput should track the hardware parallelism
// available instead of flattening against a serialization point (on a
// 1-core container it stays level; the thing to check is that it does not
// *collapse* as sessions are added).
//
// The special name "xsearch-switchless" is the boundary-transport mode:
// the same 4-session closed loop run twice against one saturation proxy —
// classic per-request ecall vs the exitless job ring — reporting achieved
// qps, real enclave transitions per query (the ring drives this to ~0) and
// the ring's fallback/park/wakeup counters. See run_switchless_sweep below.
//
// The special name "xsearch-fleet" is the scale-out mode: a ProxyFleet of
// {1,2,4} consistent-hash-routed workers behind one ProxyServer, swept
// against wire batch sizes {1,4,16} (one AEAD seal/open and one TCP round
// trip per batched frame). See run_fleet_sweep below.
//
// The special name "xsearch-recovery" (also reachable as
// --mode=xsearch-recovery) is the kill-and-recover mode: a 2-worker fleet
// under a FleetSupervisor, closed-loop TCP load, one worker's enclave
// killed mid-run. Measured per phase (pre-kill / recovery / post-recovery):
// qps and the victim's history depth — decoy quality — right after the
// automatic respawn. Run twice: warm (sealed checkpoints on, the respawn
// restores the history) vs cold (no checkpoints, the respawn reopens the
// paper's cold-start obfuscation window). See run_recovery_sweep below.
//
// The special name "xsearch-idle-sweep" is the connection-scaling mode:
// N mostly-idle attested sessions (N in {1k,10k,50k}, clamped to the fd
// rlimit) held concurrently against the same saturation ProxyHandler
// behind two server architectures — the epoll reactor (ProxyServer) and a
// thread-per-connection baseline resurrected in this bench. Reported per
// leg: RSS growth per held session and the p50/p99 wakeup-to-reply time of
// a query sent on an already-idle session. A leg that cannot reach N
// (thread spawn failure, refused connections) is marked "cannot". See
// run_idle_sweep below.
//
// The special name "xsearch-degraded" is the brownout mode: a 2-worker
// fleet with a live engine whose calls are degraded mid-run through the
// proxies' host-side fault hook (FaultPlan::engine_call — injected latency
// + failures). The per-proxy engine circuit breaker trips, sheds the
// engine path fast, and half-open probes restore it once the fault window
// closes. Measured per phase (healthy / degraded / recovered): goodput,
// failed searches (shed), and p99 latency. See run_degraded_sweep below.
//
// Besides the stdout table, every run writes machine-readable JSON (default
// BENCH_fig5.json, or pass --json=PATH): the host shape and one object per
// measured row, uploaded by the CI release-bench job per PR.
//
// Run: ./build/bench/fig5_throughput_latency [--json=PATH] [--mode=NAME]
//      [mechanism...]
//      (default: xsearch peas tor; any registered name, xsearch-remote,
//      xsearch-sessions, xsearch-switchless, xsearch-fleet,
//      xsearch-recovery, xsearch-degraded or xsearch-idle-sweep;
//      --mode=NAME is shorthand for appending NAME to the mechanism list)
#include <sched.h>
#include <sys/resource.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdio>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <functional>
#include <latch>
#include <map>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "api/client.hpp"
#include "api/load_driver.hpp"
#include "api/registry.hpp"
#include "api/remote.hpp"
#include "api/xsearch_options.hpp"
#include "bench_common.hpp"
#include "crypto/x25519.hpp"
#include "net/chaos.hpp"
#include "net/fleet_supervisor.hpp"
#include "net/proxy_fleet.hpp"
#include "net/proxy_server.hpp"
#include "net/remote_broker.hpp"
#include "net/frame.hpp"
#include "netsim/netsim.hpp"
#include "sgx/attestation.hpp"
#include "xsearch/broker.hpp"
#include "xsearch/proxy.hpp"
#include "xsearch/wire.hpp"

namespace {

using namespace xsearch;  // NOLINT
using namespace std::chrono_literals;  // NOLINT

/// One measured row, kept for the JSON dump. `sessions` is only meaningful
/// for the xsearch-sessions sweep, `workers`/`batch` for the xsearch-fleet
/// sweep, `mode`/`phase`/`history_depth` for the xsearch-recovery sweep
/// (0/empty elsewhere).
struct JsonRow {
  std::string system;
  double offered_rps = 0.0;
  double achieved_rps = 0.0;
  double mean_ms = 0.0;
  double p50_ms = 0.0;
  double p99_ms = 0.0;
  std::uint64_t dropped = 0;
  std::size_t sessions = 0;
  std::size_t workers = 0;
  std::size_t batch = 0;
  std::string mode;   // "warm" / "cold" (recovery) or "reactor" / "threads"
  std::string phase;  // "pre-kill" / ... (recovery) or "ok" / "cannot" (idle)
  std::size_t history_depth = 0;
  /// xsearch-idle-sweep only: resident-memory growth per held session.
  double rss_kb = 0.0;
  /// Open-loop rows (offered_rps > 0) only: the generator's lateness (us).
  double late_us_p50 = 0.0;
  double late_us_max = 0.0;
  bool modeled = false;  // service time includes a calibrated stack cost
};

std::vector<JsonRow> g_rows;

/// Minimal JSON string escaping (mechanism names come from argv).
std::string json_escape(const std::string& s) {
  std::string out;
  out.reserve(s.size());
  for (const char c : s) {
    if (c == '"' || c == '\\') out.push_back('\\');
    if (static_cast<unsigned char>(c) < 0x20) continue;  // drop control chars
    out.push_back(c);
  }
  return out;
}

/// The value of the first "`key`<blanks>:<blanks>value" line of a /proc
/// file, or "" (VmRSS in /proc/self/status, model name in /proc/cpuinfo).
std::string proc_field(const char* path, const std::string& key) {
  std::ifstream file(path);
  for (std::string line; std::getline(file, line);) {
    if (line.rfind(key, 0) != 0) continue;
    const auto value = line.find_first_not_of(" \t", line.find(':') + 1);
    return value == std::string::npos ? "" : line.substr(value);
  }
  return "";
}

bool write_json(const std::string& path) {
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) return false;
  const std::string cpu = proc_field("/proc/cpuinfo", "model name");
  cpu_set_t usable;  // the CPUs `nproc` counts
  const int nproc = ::sched_getaffinity(0, sizeof usable, &usable) == 0
                        ? CPU_COUNT(&usable)
                        : static_cast<int>(std::thread::hardware_concurrency());
  std::fprintf(f,
               "{\n  \"figure\": \"fig5_throughput_latency\",\n"
               "  \"host\": {\"nproc\": %d, \"cpu_model\": \"%s\"},\n"
               "  \"rows\": [\n",
               nproc, json_escape(cpu.empty() ? "unknown" : cpu).c_str());
  for (std::size_t i = 0; i < g_rows.size(); ++i) {
    const JsonRow& r = g_rows[i];
    std::fprintf(f,
                 "    {\"system\": \"%s\", \"offered_rps\": %.1f, "
                 "\"achieved_rps\": %.1f, \"mean_ms\": %.3f, \"p50_ms\": %.3f, "
                 "\"p99_ms\": %.3f, \"dropped\": %llu, \"sessions\": %zu, "
                 "\"workers\": %zu, \"batch\": %zu, \"mode\": \"%s\", "
                 "\"phase\": \"%s\", \"history_depth\": %zu, "
                 "\"rss_kb_per_session\": %.2f",
                 json_escape(r.system).c_str(), r.offered_rps, r.achieved_rps, r.mean_ms,
                 r.p50_ms, r.p99_ms, static_cast<unsigned long long>(r.dropped),
                 r.sessions, r.workers, r.batch, json_escape(r.mode).c_str(),
                 json_escape(r.phase).c_str(), r.history_depth, r.rss_kb);
    if (r.offered_rps > 0) {
      std::fprintf(f, ", \"gen_late_us_p50\": %.1f, \"gen_late_us_max\": %.1f",
                   r.late_us_p50, r.late_us_max);
    }
    std::fprintf(f, "%s}%s\n", r.modeled ? ", \"modeled\": true" : "",
                 i + 1 < g_rows.size() ? "," : "");
  }
  std::fprintf(f, "  ]\n}\n");
  std::fclose(f);
  return true;
}

/// The value at percentile `pct` of `values` (sorted in place); 0 if empty.
double percentile(std::vector<double>& values, std::size_t pct) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  return values[values.size() * pct / 100];
}

// ---- shared deployment and closed-loop scaffolding --------------------------

/// Whether `status` is OK; prints "what: status" when it is not.
bool ok(const std::string& what, const Status& status) {
  if (status.is_ok()) return true;
  std::fprintf(stderr, "%s: %s\n", what.c_str(), status.to_string().c_str());
  return false;
}
template <typename T>
bool ok(const std::string& what, const Result<T>& result) {
  return ok(what, result.status());
}

/// A saturation-mode proxy (no engine), or null after printing why not.
std::unique_ptr<core::XSearchProxy> saturation_proxy(
    const std::string& mode, const sgx::AttestationAuthority& authority,
    core::XSearchProxy::Options options) {
  options.contact_engine = false;
  auto proxy = core::XSearchProxy::create(nullptr, authority, options);
  return ok(mode + " proxy", proxy) ? std::move(proxy).value() : nullptr;
}

/// A proxy or fleet served on an ephemeral loopback port.
template <typename Handler>
struct Served {
  std::unique_ptr<Handler> handler;
  std::unique_ptr<net::ProxyServer> server;  // null: it did not start
};

template <typename Handler>
Served<Handler> serve(const std::string& mode,
                      Result<std::unique_ptr<Handler>> created) {
  Served<Handler> served;
  if (!ok(mode, created)) return served;
  auto server = net::ProxyServer::start(*created.value());
  if (!ok(mode + " server", server)) return served;
  served.handler = std::move(created).value();
  served.server = std::move(server).value();
  return served;
}

/// One closed-loop call; returns the queries it answered (0: it failed).
using SessionCall = std::function<std::uint64_t()>;

/// Connects `broker` (ClientBroker or RemoteBroker); its call is one search
/// of `query`, or one batch of `batch` copies. Empty if the connect fails.
template <typename Broker>
SessionCall search_call(std::shared_ptr<Broker> broker, std::string query,
                        std::size_t batch = 1) {
  if (!broker->connect().is_ok()) return {};
  if (batch == 1) {
    return [broker, query]() -> std::uint64_t {
      return broker->search(query).is_ok() ? 1 : 0;
    };
  }
  return [broker, queries = std::vector<std::string>(batch, query)]() -> std::uint64_t {
    auto outcomes = broker->search_batch(queries);
    return outcomes.is_ok() ? outcomes.value().size() : 0;
  };
}

struct ClosedLoop {
  std::size_t sessions = 1;
  std::chrono::milliseconds window = 400ms;  // per phase
  std::size_t phases = 1;
  /// Runs as each phase starts; phase 0's once every session is connected
  /// and before the first call.
  std::function<void(std::size_t)> on_phase;
  bool timed = false;  // record each call's latency
};

struct PhaseTally {
  std::uint64_t completed = 0;     // queries answered
  std::uint64_t failed = 0;        // calls that failed
  double secs = 0.0;               // phase wall time
  std::vector<double> latency_ms;  // per call, when timed

  [[nodiscard]] double qps() const {
    return secs > 0 ? static_cast<double>(completed) / secs : 0.0;
  }
};

/// Runs `plan.sessions` threads. Thread s connects via `open(s)` before the
/// clock starts (attestation serializes in the proxy and would bias 1 vs
/// many sessions if timed), then repeats the call through `plan.phases`
/// back-to-back windows, booking each call to the phase it started in.
std::vector<PhaseTally> run_closed_loop(
    const ClosedLoop& plan, const std::function<SessionCall(std::size_t)>& open) {
  std::atomic<std::size_t> phase{0};
  std::atomic<bool> stop{false};
  std::latch connected(static_cast<std::ptrdiff_t>(plan.sessions));
  std::latch go(1);
  std::vector<std::vector<PhaseTally>> per_session(plan.sessions);
  std::vector<std::thread> threads;
  threads.reserve(plan.sessions);
  for (std::size_t s = 0; s < plan.sessions; ++s) {
    threads.emplace_back([&, s] {
      const SessionCall call = open(s);
      connected.count_down();
      go.wait();
      std::vector<PhaseTally> mine(plan.phases);
      while (call && !stop.load(std::memory_order_relaxed)) {
        PhaseTally& tally = mine[phase.load(std::memory_order_relaxed)];
        const Nanos t0 = wall_now();
        const std::uint64_t answered = call();
        if (plan.timed) {
          tally.latency_ms.push_back(static_cast<double>(wall_now() - t0) /
                                     static_cast<double>(kMilli));
        }
        tally.completed += answered;
        tally.failed += answered == 0 ? 1 : 0;
      }
      per_session[s] = std::move(mine);
    });
  }
  connected.wait();

  std::vector<PhaseTally> phases(plan.phases);
  for (std::size_t p = 0; p < plan.phases; ++p) {
    const Nanos t0 = wall_now();
    phase.store(p, std::memory_order_relaxed);
    if (plan.on_phase) plan.on_phase(p);
    if (p == 0) go.count_down();
    std::this_thread::sleep_for(plan.window);
    if (p + 1 == plan.phases) {
      stop.store(true, std::memory_order_relaxed);
      for (auto& t : threads) t.join();
    }
    phases[p].secs = static_cast<double>(wall_now() - t0) /
                     static_cast<double>(kSecond);
  }
  for (const auto& session : per_session) {
    for (std::size_t p = 0; p < plan.phases; ++p) {
      phases[p].completed += session[p].completed;
      phases[p].failed += session[p].failed;
      phases[p].latency_ms.insert(phases[p].latency_ms.end(),
                                  session[p].latency_ms.begin(),
                                  session[p].latency_ms.end());
    }
  }
  return phases;
}

/// Concurrent-session closed-loop sweep over one shared saturation proxy.
void run_session_sweep(const api::ClientConfig& config) {
  sgx::AttestationAuthority authority(to_bytes("fig5-sessions-root"));
  const auto proxy = saturation_proxy("xsearch-sessions", authority,
                                      api::xsearch_proxy_options(config));
  if (proxy == nullptr) return;

  for (const std::size_t sessions : {1u, 2u, 4u, 8u}) {
    const double rps =
        run_closed_loop({.sessions = sessions}, [&](std::size_t s) {
          return search_call(std::make_shared<core::ClientBroker>(
                                 *proxy, authority, proxy->measurement(), 9000 + s),
                             "concurrent scaling probe");
        })[0].qps();
    std::printf("%-16s %9zu* %12.1f %10s %10s %10s %8s\n", "xsearch-sessions",
                sessions, rps, "-", "-", "-", "-");
    g_rows.push_back({.system = "xsearch-sessions", .achieved_rps = rps,
                      .sessions = sessions});
  }
  std::printf("# *closed-loop: column is concurrent sessions, not offered rps\n");
}

/// Switchless-boundary sweep: the same 4-session closed loop against one
/// saturation proxy, once on the classic one-ecall-per-request path and
/// once through the exitless job ring. The figure of merit is the last
/// column — real enclave transitions per query — which the ring drives to
/// ~0 while the throughput columns show what the extra scheduler hop costs
/// on this box (hardware SGX would bank ~8us per avoided crossing instead).
void run_switchless_sweep(const api::ClientConfig& config) {
  sgx::AttestationAuthority authority(to_bytes("fig5-switchless-root"));
  constexpr std::size_t kSessions = 4;

  for (const bool switchless : {false, true}) {
    core::XSearchProxy::Options options = api::xsearch_proxy_options(config);
    options.switchless.enabled = switchless;
    options.switchless.ring_depth = 64;
    options.switchless.workers = 2;
    options.switchless.pickup_patience = 20 * kMilli;
    const auto proxy = saturation_proxy("xsearch-switchless", authority, options);
    if (proxy == nullptr) return;

    // Counted from after the handshakes, which are ecalls too.
    sgx::TransitionStats before;
    const PhaseTally tally = run_closed_loop(
        {.sessions = kSessions,
         .on_phase = [&](std::size_t) { before = proxy->enclave().transition_stats(); }},
        [&](std::size_t s) {
          return search_call(std::make_shared<core::ClientBroker>(
                                 *proxy, authority, proxy->measurement(), 9500 + s),
                             "switchless boundary probe");
        })[0];
    const auto after = proxy->enclave().transition_stats();
    const double transitions_per_query =
        tally.completed == 0 ? 0.0
                             : static_cast<double>(after.ecalls - before.ecalls) /
                                   static_cast<double>(tally.completed);
    const auto ring = proxy->ring_stats();
    const char* mode = switchless ? "switchless" : "ecall";

    std::printf("%-16s %9zu* %12.1f %10s %10s %10s %8.3f\n",
                "xsearch-switchless", kSessions, tally.qps(), "-", "-",
                mode, transitions_per_query);
    std::printf(
        "# %s: %llu queries, %.3f new ecalls/query, ring: %llu switchless / "
        "%llu fallback / %llu ring-full / %llu parks / %llu wakeups\n",
        mode, static_cast<unsigned long long>(tally.completed),
        transitions_per_query,
        static_cast<unsigned long long>(ring.jobs_switchless),
        static_cast<unsigned long long>(ring.fallback_ecalls),
        static_cast<unsigned long long>(ring.ring_full_rejects),
        static_cast<unsigned long long>(ring.worker_parks),
        static_cast<unsigned long long>(ring.worker_wakeups));
    g_rows.push_back({.system = "xsearch-switchless", .achieved_rps = tally.qps(),
                      .sessions = kSessions, .mode = mode});
  }
  std::printf(
      "# *closed-loop: last column is real enclave transitions per query\n");
}

/// Fleet scale-out sweep: {1,2,4} consistent-hash-routed proxy workers
/// behind one ProxyServer × wire batch sizes {1,4,16}, driven closed-loop
/// by 4 concurrent TCP sessions. Fixed offered load (every client thread
/// saturates), so the figure of merit is aggregate qps as workers grow and
/// per-query wire cost as batches grow: each batched frame pays ONE AEAD
/// seal/open + TCP round trip for `batch` queries. On a single-core runner
/// worker scaling reads as "does not collapse"; the batch column shows the
/// real amortization either way (aead_per_query = 2/batch).
void run_fleet_sweep(const api::ClientConfig& config) {
  sgx::AttestationAuthority authority(to_bytes("fig5-fleet-root"));
  constexpr std::size_t kClientSessions = 4;

  for (const std::size_t workers : {1u, 2u, 4u}) {
    const auto served = serve(
        "xsearch-fleet",
        net::ProxyFleet::create(nullptr, authority,
                                api::fleet_options(config, {.workers = workers,
                                                            .virtual_nodes = 64})));
    if (served.server == nullptr) return;

    for (const std::size_t batch : {1u, 4u, 16u}) {
      const PhaseTally tally = run_closed_loop(
          {.sessions = kClientSessions, .window = 300ms}, [&](std::size_t s) {
            return search_call(std::make_shared<net::RemoteBroker>(
                                   "127.0.0.1", served.server->port(), authority,
                                   served.handler->measurement(), 7000 + 13 * s + batch),
                               "fleet scaling probe", batch);
          })[0];
      const double mean_ms =  // per query, per session
          tally.qps() == 0 ? 0.0 : 1e3 * kClientSessions / tally.qps();
      std::printf("%-16s %4zuw %4zub %12.1f %10.3f %10s %10s %8s\n",
                  "xsearch-fleet", workers, batch, tally.qps(), mean_ms, "-",
                  "-", "-");
      g_rows.push_back({.system = "xsearch-fleet", .achieved_rps = tally.qps(),
                        .mean_ms = mean_ms, .workers = workers, .batch = batch});
    }

    std::uint64_t routed_total = 0;
    std::size_t workers_hit = 0;
    for (std::size_t w = 0; w < served.handler->worker_count(); ++w) {
      const auto stats = served.handler->worker_stats(w);
      routed_total += stats.routed;
      workers_hit += stats.sessions.created > 0 ? 1 : 0;
    }
    std::printf("# xsearch-fleet workers=%zu: routed=%llu workers_with_sessions=%zu\n",
                workers, static_cast<unsigned long long>(routed_total),
                workers_hit);
  }
  std::printf("# *closed-loop: columns are workers/batch; mean_ms is per query\n");
}

/// Kill-and-recover sweep: 2 fleet workers behind one ProxyServer, 2
/// closed-loop TCP sessions, a FleetSupervisor probing heartbeats. After a
/// pre-kill measurement window one worker's enclave is crashed; the
/// supervisor detects it, drains the arc and respawns. Measured per phase:
/// aggregate qps, plus the victim's history depth right after the respawn —
/// the decoy-quality number that separates warm (checkpointed) from cold
/// restarts. Run twice, warm then cold.
void run_recovery_sweep(const api::ClientConfig& base_config) {
  constexpr std::size_t kClientSessions = 2;
  constexpr const char* kPhaseNames[] = {"pre-kill", "recovery", "post-recovery"};

  for (const bool warm : {true, false}) {
    const std::filesystem::path checkpoint_dir =
        std::filesystem::temp_directory_path() / "fig5_recovery_ckpt";
    std::filesystem::remove_all(checkpoint_dir);
    api::ClientConfig config = base_config;
    config.recovery.checkpoint_dir = warm ? checkpoint_dir.string() : "";
    // Closed-loop in-process rates reach tens of kqps: a tighter interval
    // would turn the row into a checkpoint-write bench instead of a
    // recovery one (each seal snapshots the whole history).
    config.recovery.checkpoint_interval_queries = 512;
    config.recovery.probe_interval = 5 * kMilli;
    config.recovery.failure_threshold = 2;

    sgx::AttestationAuthority authority(to_bytes("fig5-recovery-root"));
    const auto served = serve(
        "xsearch-recovery",
        net::ProxyFleet::create(
            nullptr, authority,
            api::fleet_options(config, {.workers = 2, .virtual_nodes = 64})));
    if (served.server == nullptr) return;
    net::ProxyFleet& fleet = *served.handler;
    const auto supervisor =
        net::FleetSupervisor::create(fleet, api::supervisor_options(config));
    if (!ok("xsearch-recovery supervisor", supervisor)) return;

    std::vector<std::uint64_t> session_ids(kClientSessions, 0);
    std::size_t victim = 0;
    std::size_t depth_before_kill = 0;
    std::size_t depth_after_respawn = 0;
    const auto on_phase = [&](std::size_t p) {
      if (p == 0) {
        // Kill the worker that owns session 0 so the dip is visible from a
        // client actually parked on the dead arc.
        victim = fleet.owner_of(session_ids[0]);
      } else if (p == 1) {
        depth_before_kill = fleet.worker_history_depth(victim);
        (void)fleet.kill_worker(victim);
      } else {
        // The decoy table the respawned worker STARTED from (warm = last
        // checkpoint, cold = 0). checkpoint.restored_entries is immutable
        // for the revived proxy — the live history_depth would already
        // include post-respawn traffic that re-hashed onto the arc, which
        // in cold mode can erase the warm/cold gap this sweep exists to
        // show.
        depth_after_respawn = fleet.worker_stats(victim).checkpoint.restored_entries;
      }
    };
    const auto phases = run_closed_loop(
        {.sessions = kClientSessions, .window = 300ms, .phases = 3,
         .on_phase = on_phase},
        [&](std::size_t s) {
          auto broker = std::make_shared<net::RemoteBroker>(
              "127.0.0.1", served.server->port(), authority,
              fleet.measurement(), 4200 + 17 * s);
          SessionCall call = search_call(broker, "recovery probe");
          if (call) session_ids[s] = broker->session_id();
          return call;
        });

    const char* mode = warm ? "warm" : "cold";
    for (std::size_t p = 0; p < 3; ++p) {
      const std::size_t depth = p == 0 ? depth_before_kill : depth_after_respawn;
      std::printf("%-16s %5s %13s %12.1f %10s %10s %10s %8llu depth=%zu\n",
                  "xsearch-recovery", mode, kPhaseNames[p], phases[p].qps(),
                  "-", "-", "-",
                  static_cast<unsigned long long>(phases[p].failed), depth);
      g_rows.push_back({.system = "xsearch-recovery", .achieved_rps = phases[p].qps(),
                        .dropped = phases[p].failed, .workers = 2, .mode = mode,
                        .phase = kPhaseNames[p], .history_depth = depth});
    }
    const auto stats = fleet.fleet_stats();
    std::printf("# xsearch-recovery %s: auto_respawns=%llu restore_hits=%llu "
                "restore_misses=%llu warm_start_ratio=%.2f\n",
                mode, static_cast<unsigned long long>(stats.auto_respawns),
                static_cast<unsigned long long>(stats.restore_hits),
                static_cast<unsigned long long>(stats.restore_misses),
                stats.warm_start_ratio);
    std::filesystem::remove_all(checkpoint_dir);
  }
  std::printf("# *kill-and-recover: dropped column is failed searches in the "
              "phase; depth is the victim's pre-kill history, then its "
              "restored-checkpoint depth\n");
}

/// Brownout sweep: a 2-worker fleet with a live engine, 2 closed-loop TCP
/// sessions with end-to-end request budgets, and a mid-run window where
/// FaultPlan::engine_call degrades every engine round trip (injected delay
/// + a failure rate past the breaker's trip ratio). The per-proxy engine
/// circuit breaker converts the brownout into fast typed failures instead
/// of budget-burning slow ones, then half-open probes re-close it once the
/// window ends. Reported per phase: goodput (successful qps), failed
/// searches, and the client-observed p99.
void run_degraded_sweep(const api::ClientConfig& base_config,
                        const engine::SearchEngine& engine) {
  constexpr std::size_t kClientSessions = 2;
  constexpr const char* kPhaseNames[] = {"healthy", "degraded", "recovered"};

  api::ClientConfig config = base_config;
  config.contact_engine = true;  // the engine path is the subject here

  // Engine-path fault plan, gated on the degraded phase below: 60% of
  // engine calls fail (past the 50% trip ratio), the rest eat a 2ms stall.
  net::FaultPlan::Options plan_options;
  plan_options.seed = 42;
  plan_options.fault_ops = 1'000'000;  // never exhausts inside the window
  plan_options.delay_p = plan_options.partial_p = plan_options.drop_p = 0.0;
  plan_options.reset_p = plan_options.garbage_p = 0.0;
  plan_options.engine_delay_p = 0.3;
  plan_options.engine_delay = 2 * kMilli;
  plan_options.engine_fail_p = 0.6;
  auto plan = std::make_shared<net::FaultPlan>(plan_options);
  auto degraded = std::make_shared<std::atomic<bool>>(false);

  sgx::AttestationAuthority authority(to_bytes("fig5-degraded-root"));
  net::ProxyFleet::Options fleet_options =
      api::fleet_options(config, {.workers = 2, .virtual_nodes = 64});
  fleet_options.proxy.engine_fault_hook = [plan, degraded]() -> Status {
    if (!degraded->load(std::memory_order_relaxed)) return {};
    return plan->engine_call();
  };
  fleet_options.proxy.engine_breaker_enabled = true;
  fleet_options.proxy.engine_breaker.window = 32;
  fleet_options.proxy.engine_breaker.min_samples = 8;
  fleet_options.proxy.engine_breaker.failure_ratio = 0.5;
  fleet_options.proxy.engine_breaker.open_cooldown = 50 * kMilli;
  fleet_options.proxy.engine_breaker.half_open_probes = 2;
  const auto served = serve(
      "xsearch-degraded", net::ProxyFleet::create(&engine, authority, fleet_options));
  if (served.server == nullptr) return;

  const net::RemoteBroker::Options broker_options{
      .request_budget = 500 * kMilli, .connect_budget = kSecond,
      .retry = {.max_attempts = 2, .initial_backoff = kMilli, .max_backoff = 10 * kMilli}};
  auto phases = run_closed_loop(
      {.sessions = kClientSessions,
       .window = 300ms,
       .phases = 3,
       .on_phase =
           [&](std::size_t p) {
             if (p > 0) degraded->store(p == 1, std::memory_order_relaxed);
           },
       .timed = true},
      [&](std::size_t s) {
        return search_call(
            std::make_shared<net::RemoteBroker>(
                "127.0.0.1", served.server->port(), authority,
                served.handler->measurement(), 6100 + 19 * s, broker_options),
            "brownout probe");
      });

  for (std::size_t p = 0; p < 3; ++p) {
    const double p99 = percentile(phases[p].latency_ms, 99);
    std::printf("%-16s %13s %12.1f %10s %10s %10.3f %8llu\n",
                "xsearch-degraded", kPhaseNames[p], phases[p].qps(), "-", "-",
                p99, static_cast<unsigned long long>(phases[p].failed));
    g_rows.push_back({.system = "xsearch-degraded", .achieved_rps = phases[p].qps(),
                      .p99_ms = p99, .dropped = phases[p].failed, .workers = 2,
                      .mode = "engine-chaos", .phase = kPhaseNames[p]});
  }
  std::uint64_t trips = 0;
  std::uint64_t rejected = 0;
  for (std::size_t w = 0; w < served.handler->worker_count(); ++w) {
    const auto proxy = served.handler->worker_proxy(w);
    if (proxy == nullptr) continue;
    const auto stats = proxy->engine_breaker_stats();
    trips += stats.trips;
    rejected += stats.rejected;
  }
  std::printf("# xsearch-degraded: engine_faults=%llu breaker_trips=%llu "
              "breaker_rejected=%llu\n",
              static_cast<unsigned long long>(plan->faults_injected()),
              static_cast<unsigned long long>(trips),
              static_cast<unsigned long long>(rejected));
  std::printf("# *brownout: dropped column is failed searches in the phase; "
              "p99 is client-observed\n");
}

// ---- idle-session sweep -----------------------------------------------------

/// Current VmRSS in kB from /proc/self/status (0 if unreadable).
std::size_t vm_rss_kb() {
  return std::strtoull(proc_field("/proc/self/status", "VmRSS").c_str(),
                       nullptr, 10);
}

/// Minimal thread-per-connection frame server over the same ProxyHandler —
/// the pre-reactor architecture, resurrected as the idle sweep's baseline
/// leg. One blocking thread per accepted connection, parked in read_frame()
/// while its session idles: the per-session cost is a whole thread (stack +
/// kernel task) instead of the reactor's buffer-and-table-entry.
class ThreadPerConnectionServer {
 public:
  static Result<std::unique_ptr<ThreadPerConnectionServer>> start(
      core::ProxyHandler& proxy) {
    auto listener = net::TcpListener::bind(0);
    if (!listener) return listener.status();
    return std::unique_ptr<ThreadPerConnectionServer>(
        new ThreadPerConnectionServer(proxy, std::move(listener).value()));
  }

  ~ThreadPerConnectionServer() { stop(); }

  [[nodiscard]] std::uint16_t port() const { return listener_.port(); }
  [[nodiscard]] bool spawn_failed() const {
    return spawn_failed_.load(std::memory_order_relaxed);
  }

  void stop() {
    if (stopping_.exchange(true)) return;
    listener_.close();
    if (accept_thread_.joinable()) accept_thread_.join();
    // The accept thread, the only other user of mutex_, has exited.
    MutexLock lock(mutex_);
    for (const auto& stream : live_) stream->shutdown_both();
    for (auto& t : threads_) t.join();
    listener_.release();
  }

 private:
  ThreadPerConnectionServer(core::ProxyHandler& proxy,
                            net::TcpListener listener)
      : proxy_(&proxy), listener_(std::move(listener)) {
    accept_thread_ = std::thread([this] { accept_loop(); });
  }

  void accept_loop() {
    while (!stopping_.load(std::memory_order_relaxed)) {
      auto accepted = listener_.accept();
      if (!accepted) break;  // listener closed
      auto stream =
          std::make_shared<net::TcpStream>(std::move(accepted).value());
      try {
        std::thread worker([this, stream] { serve(*stream); });
        MutexLock lock(mutex_);
        live_.push_back(stream);
        threads_.push_back(std::move(worker));
      } catch (const std::system_error&) {
        // The architecture's hard wall: no thread, no connection.
        spawn_failed_.store(true, std::memory_order_relaxed);
        (void)net::write_frame(
            *stream, net::FrameType::kErrorStatus,
            net::encode_error_status(
                overloaded("thread-per-connection: cannot spawn")));
        stream->shutdown_both();
      }
    }
  }

  void serve(net::TcpStream& stream) {
    while (!stopping_.load(std::memory_order_relaxed)) {
      auto frame = net::read_frame(stream);
      if (!frame) return;  // clean close or broken peer
      const Reply reply = answer(frame.value());
      if (!net::write_frame(stream, reply.type, reply.payload).is_ok() ||
          reply.close) {
        return;
      }
    }
  }

  /// The reply to one frame; `close` ends the connection after sending it.
  struct Reply {
    net::FrameType type;
    Bytes payload;
    bool close = false;
  };

  Reply answer(const net::Frame& frame) {
    const auto error = [](const Status& status, bool close) {
      return Reply{net::FrameType::kErrorStatus,
                   net::encode_error_status(status), close};
    };
    switch (frame.type) {
      case net::FrameType::kHello: {
        if (frame.payload.size() != crypto::kX25519KeySize) {
          return error(invalid_argument("bad hello"), true);
        }
        crypto::X25519Key client_pub;
        std::memcpy(client_pub.data(), frame.payload.data(), client_pub.size());
        auto response = proxy_->handshake(client_pub);
        if (!response) return error(response.status(), true);
        Reply reply{net::FrameType::kHelloReply, {}};
        core::wire::put_u64(reply.payload, response.value().session_id);
        const Bytes quote = response.value().quote.serialize();
        core::wire::put_u32(reply.payload,
                            static_cast<std::uint32_t>(quote.size()));
        append(reply.payload, quote);
        append(reply.payload, response.value().server_ephemeral_pub);
        return reply;
      }
      case net::FrameType::kQuery:
      case net::FrameType::kBatchQuery: {
        std::size_t offset = 0;
        const auto session = core::wire::get_u64(frame.payload, offset);
        if (!session) return error(invalid_argument("bad query frame"), true);
        auto response = proxy_->handle_query_record(
            session.value(), ByteSpan(frame.payload).subspan(offset));
        if (!response) return error(response.status(), false);
        return {frame.type == net::FrameType::kQuery ? net::FrameType::kQueryReply
                                                     : net::FrameType::kBatchReply,
                std::move(response).value()};
      }
      default:
        return error(invalid_argument("unexpected frame"), true);
    }
  }

  core::ProxyHandler* proxy_;
  net::TcpListener listener_;
  std::atomic<bool> stopping_{false};
  std::atomic<bool> spawn_failed_{false};
  std::thread accept_thread_;
  Mutex mutex_;
  std::vector<std::shared_ptr<net::TcpStream>> live_ XS_GUARDED_BY(mutex_);
  std::vector<std::thread> threads_ XS_GUARDED_BY(mutex_);
};

/// One idle-sweep leg: hold `sessions` attested, mostly-idle connections
/// against `port`, then measure RSS growth per session and wakeup-to-reply
/// on a sample of the held population.
/// Returns the leg's RSS growth per held session (kB).
double run_idle_leg(const sgx::AttestationAuthority& authority,
                    const sgx::Measurement& measurement, std::uint16_t port,
                    std::size_t sessions, const char* mode,
                    const std::function<bool()>& architecture_failed) {
  const std::size_t rss_before = vm_rss_kb();

  std::vector<std::unique_ptr<net::RemoteBroker>> brokers;
  brokers.reserve(sessions);
  std::uint64_t connect_failures = 0;
  for (std::size_t s = 0; s < sessions; ++s) {
    auto broker = std::make_unique<net::RemoteBroker>(
        "127.0.0.1", port, authority, measurement, 8'000'000 + s);
    if (broker->connect().is_ok()) {
      brokers.push_back(std::move(broker));
    } else if (++connect_failures > 64) {
      break;  // systematic refusal: the leg cannot hold this population
    }
  }
  const std::size_t held = brokers.size();
  const std::size_t rss_after = vm_rss_kb();
  const double rss_kb_per_session =
      held == 0 || rss_after <= rss_before
          ? 0.0
          : static_cast<double>(rss_after - rss_before) /
                static_cast<double>(held);

  // Wakeup-to-reply: one query per sampled session, sent while the whole
  // population sits idle — the number a mostly-idle client actually feels.
  std::vector<double> wake_ms;
  std::uint64_t query_failures = 0;
  const std::size_t sample = std::min<std::size_t>(1000, held);
  if (sample > 0) {
    const std::size_t stride = held / sample;
    wake_ms.reserve(sample);
    for (std::size_t i = 0; i < sample; ++i) {
      const Nanos t0 = wall_now();
      if (brokers[i * stride]->search("idle wakeup probe").is_ok()) {
        wake_ms.push_back(static_cast<double>(wall_now() - t0) /
                          static_cast<double>(kMilli));
      } else {
        ++query_failures;
      }
    }
  }
  const double p50 = percentile(wake_ms, 50);
  const double p99 = percentile(wake_ms, 99);

  const bool complete = held == sessions && query_failures == 0 &&
                        !architecture_failed();
  const std::uint64_t dropped = connect_failures + query_failures;
  std::printf("%-16s %6zu/%-6zu %8s %10.3f %10.3f %7.1fkB %8llu%s\n",
              "xsearch-idle", held, sessions, mode, p50, p99,
              rss_kb_per_session, static_cast<unsigned long long>(dropped),
              complete ? "" : "  CANNOT");
  g_rows.push_back({.system = "xsearch-idle", .p50_ms = p50, .p99_ms = p99,
                    .dropped = dropped, .sessions = held, .mode = mode,
                    .phase = complete ? "ok" : "cannot",
                    .rss_kb = rss_kb_per_session});
  return rss_kb_per_session;
}

/// Connection-scaling sweep: the reactor data plane vs thread-per-
/// connection, each holding N mostly-idle attested sessions in one
/// process (2 fds per session: client end + server end). The reactor's
/// idle session costs a receive buffer and a table entry; the baseline's
/// costs a parked thread — RSS per session and the ability to reach N at
/// all are the figures of merit (the paper's tens-of-thousands-of-users
/// claim, measured architecturally).
void run_idle_sweep(const api::ClientConfig& base_config) {
  // Lift the soft fd limit to the hard cap and size the targets to fit.
  rlimit nofile{};
  if (::getrlimit(RLIMIT_NOFILE, &nofile) == 0) {
    nofile.rlim_cur = nofile.rlim_max;
    (void)::setrlimit(RLIMIT_NOFILE, &nofile);
  }
  (void)::getrlimit(RLIMIT_NOFILE, &nofile);
  const std::size_t fd_budget =
      nofile.rlim_cur == RLIM_INFINITY
          ? (1u << 20)
          : static_cast<std::size_t>(nofile.rlim_cur);
  const std::size_t session_budget =
      fd_budget > 400 ? (fd_budget - 200) / 2 : 100;

  std::vector<std::size_t> targets;
  for (const std::size_t want : {1'000u, 10'000u, 50'000u}) {
    const std::size_t n = std::min<std::size_t>(want, session_budget);
    if (n < want) {
      std::printf("# xsearch-idle: target %zu clamped to %zu "
                  "(RLIMIT_NOFILE=%zu, 2 fds/session in-process)\n",
                  want, n, fd_budget);
    }
    if (targets.empty() || targets.back() != n) targets.push_back(n);
  }

  api::ClientConfig config = base_config;
  // Every held session lives in the enclave's session table concurrently.
  config.session_capacity = targets.back() + 64;

  std::printf("%-16s %13s %8s %10s %10s %9s %8s\n", "system", "held/target",
              "arch", "p50_ms", "p99_ms", "rss/sess", "dropped");
  for (const std::size_t sessions : targets) {
    double reactor_rss = 0.0;
    double threads_rss = 0.0;
    for (const bool reactor : {true, false}) {
      sgx::AttestationAuthority authority(to_bytes("fig5-idle-root"));
      const auto proxy = saturation_proxy("xsearch-idle", authority,
                                          api::xsearch_proxy_options(config));
      if (proxy == nullptr) return;
      if (reactor) {
        net::ProxyServer::Options server_options;
        server_options.workers = 2;  // per *request*, not per connection
        auto server = net::ProxyServer::start(*proxy, 0, server_options);
        if (!ok("xsearch-idle server", server)) return;
        reactor_rss = run_idle_leg(authority, proxy->measurement(),
                                   server.value()->port(), sessions, "reactor",
                                   [] { return false; });
        server.value()->stop();
      } else {
        auto started = ThreadPerConnectionServer::start(*proxy);
        if (!ok("xsearch-idle threaded server", started)) return;
        auto& server = *started.value();
        threads_rss = run_idle_leg(authority, proxy->measurement(),
                                   server.port(), sessions, "threads",
                                   [&server] { return server.spawn_failed(); });
        server.stop();
      }
    }
    // Both legs pay the same client-side cost (one RemoteBroker + one
    // enclave session each), so the difference is the server's idle cost:
    // a parked thread vs a receive buffer + connection entry.
    std::printf("# xsearch-idle %zu: threads leg pays +%.1fkB/session over "
                "the reactor (the parked per-connection thread)\n",
                sessions, threads_rss - reactor_rss);
  }
  std::printf("# *idle sweep: rss/sess is RSS growth per held session "
              "(client+server in-process); CANNOT = leg could not hold or "
              "serve the population\n");
}

/// Offered-rate grids bracketing each system's saturation knee.
const std::vector<double>& rate_grid(const std::string& mechanism) {
  static const std::map<std::string, std::vector<double>> grids = {
      {"xsearch", {1000.0, 5000.0, 10000.0, 15000.0, 20000.0, 24000.0,
                   27000.0, 30000.0}},
      {"peas", {100.0, 300.0, 600.0, 800.0, 1000.0, 1200.0, 1500.0}},
      {"tor", {10.0, 25.0, 50.0, 75.0, 100.0, 120.0, 150.0}},
      // Real TCP round trips: the knee sits well below the in-process one.
      {"xsearch-remote", {500.0, 1000.0, 2000.0, 4000.0, 8000.0}},
  };
  static const std::vector<double> generic = {1000.0, 5000.0, 10000.0,
                                              20000.0, 40000.0};
  const auto it = grids.find(mechanism);
  return it != grids.end() ? it->second : generic;
}

}  // namespace

int main(int argc, char** argv) {
  std::printf("# Figure 5: latency vs offered throughput (proxy saturation)\n");

  std::string json_path = "BENCH_fig5.json";
  std::vector<std::string> mechanisms;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg.rfind("--json=", 0) == 0) {
      json_path = arg.substr(7);
    } else {  // --mode=NAME is NAME
      mechanisms.push_back(arg.rfind("--mode=", 0) == 0 ? arg.substr(7) : arg);
    }
  }
  if (mechanisms.empty()) mechanisms = {"xsearch", "peas", "tor"};

  const auto bed = bench::make_testbed(
      {.num_users = 100, .total_queries = 10'000, .num_documents = 100});
  const std::string sample_query = bed->split.test.records()[0].text;

  std::printf("%-16s %10s %12s %10s %10s %10s %8s %9s %9s\n", "system",
              "offered", "achieved", "mean_ms", "p50_ms", "p99_ms", "dropped",
              "late_p50", "late_max");

  const std::map<std::string, std::function<void(const api::ClientConfig&)>>
      sweeps = {
          {"xsearch-sessions", run_session_sweep},
          {"xsearch-switchless", run_switchless_sweep},
          {"xsearch-fleet", run_fleet_sweep},
          {"xsearch-recovery", run_recovery_sweep},
          {"xsearch-degraded",
           [&](const api::ClientConfig& config) {
             run_degraded_sweep(config, *bed->engine);
           }},
          {"xsearch-idle-sweep", run_idle_sweep},
      };

  std::uint64_t seed = 100;
  for (const auto& name : mechanisms) {
    api::ClientConfig config;
    config.contact_engine = false;  // reply-immediately saturation mode
    config.k = 3;
    config.top_k = 20;
    config.history_capacity = 100'000;
    config.batch_workers = 4;  // the lanes netsim::service_costs assumes
    config.seed = seed += 100;

    if (const auto sweep = sweeps.find(name); sweep != sweeps.end()) {
      sweep->second(config);
      continue;
    }

    // "xsearch-remote": real sockets supply the stack cost the in-process
    // run calibrates.
    const bool remote = name == "xsearch-remote";
    sgx::AttestationAuthority remote_authority(to_bytes("fig5-remote-root"));
    Served<core::XSearchProxy> served;
    api::ClientPtr client_ptr;
    if (remote) {
      // Same translation as the in-process "xsearch" mechanism — the two
      // must not drift, or remote and in-process measurements stop being
      // comparable.
      served = serve(name, core::XSearchProxy::create(
                               nullptr, remote_authority,
                               api::xsearch_proxy_options(config)));
      if (served.server == nullptr) continue;
      client_ptr = api::make_remote_client(
          "127.0.0.1", served.server->port(), remote_authority,
          served.handler->measurement(), config);
    } else {
      config.stack_cost_per_request =
          netsim::service_costs::for_mechanism(name).cost_per_request;
      api::Backend backend;  // no engine: proxies answer without retrieval
      backend.fake_source = &bed->split.train;
      auto client = api::make_client(name, backend, config);
      if (!ok(name, client)) continue;
      client_ptr = std::move(client).value();
    }
    if (!ok(name, client_ptr->connect())) continue;

    for (const double rps : rate_grid(name)) {
      const auto r = api::run_open_loop_batch(
          *client_ptr, [&] { return sample_query; },
          {.target_rps = rps, .duration = 400 * kMilli});
      std::printf("%-16s %10.0f %12.1f %10.3f %10.3f %10.3f %8llu %9.1f %9.1f\n",
                  name.c_str(), r.offered_rps, r.achieved_rps, r.mean_ms(),
                  r.p50_ms(), r.p99_ms(), static_cast<unsigned long long>(r.dropped),
                  r.late_us_p50(), r.late_us_max());
      g_rows.push_back({.system = name, .offered_rps = r.offered_rps,
                        .achieved_rps = r.achieved_rps, .mean_ms = r.mean_ms(),
                        .p50_ms = r.p50_ms(), .p99_ms = r.p99_ms(),
                        .dropped = r.dropped, .late_us_p50 = r.late_us_p50(),
                        .late_us_max = r.late_us_max(),
                        .modeled = config.stack_cost_per_request > 0});
    }
    client_ptr->close();

    if (remote) {
      // One attested session per batch lane, all concurrently live: the
      // multi-threaded shared-table claim of §4.1, measured.
      const auto stats = served.handler->session_stats();
      std::printf("# %s sessions: peak=%zu created=%llu evicted=%llu "
                  "connections=%llu reaped=%llu\n",
                  name.c_str(), stats.peak_active,
                  static_cast<unsigned long long>(stats.created),
                  static_cast<unsigned long long>(stats.evicted_lru +
                                                  stats.expired_ttl),
                  static_cast<unsigned long long>(
                      served.server->connections_served()),
                  static_cast<unsigned long long>(
                      served.server->connections_reaped()));
      served.server->stop();
    }
  }

  if (write_json(json_path)) {
    std::printf("# wrote %s\n", json_path.c_str());
  } else {
    std::fprintf(stderr, "cannot write %s\n", json_path.c_str());
  }
  std::printf("\n# paper: X-Search ~25k req/s sub-second; PEAS ~1k; Tor ~100\n");
  return 0;
}
