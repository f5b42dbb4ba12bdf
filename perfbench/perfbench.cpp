// Repository benchmark: X-Search's real request path under four workloads.
//
//   net::RemoteBroker -> loopback TCP -> net::ProxyServer reactor
//     -> TracingHandler (this file) -> core::XSearchProxy | net::ProxyFleet
//
// Every workload starts its proxy by restoring a sealed checkpoint of a full
// history window (Options::history_capacity entries, 1M by default): the
// state of a proxy that has been in service, so the restore is a real
// restart cost and the EPC footprint and decoy sampling run at their
// production size. Building the query log, the engine index and that seed
// checkpoint are the workload's inputs and are not timed as set-up.
//
// Workloads (see README.md for why each exists):
//   live-search       open loop at 1000 qps, engine on, test-split queries
//   proxy-saturation  closed loop, 2 sessions, single-query frames, no engine
//   batch-saturation  closed loop, 2 sessions, 16-query frames, no engine
//   new-users         closed loop, 2 clients, connect+attest+query+close per
//                     operation against a 2-worker ProxyFleet
// BENCHMARK.json gates all but batch-saturation, whose figures swing with
// hypervisor steal on shared hosts; README.md has the evidence.
//
// Usage:
//   perfbench --workload NAME --seed N --seconds S --trace 0|1
//             --work-dir DIR [--trace-out FILE] [--inject-delay-us U]
// Prints one line per metric, then the result as one JSON object on the last
// line. `--trace 0` reports the end-to-end metrics, `--trace 1` the
// per-layer ones (spans are taken only in benchmark code, around calls into
// the program's public functions). `--inject-delay-us` busy-waits inside
// the proxy span of every request; selftest.py uses it to show the
// per-layer attribution follows a known cost. Exits 1 when an output fails
// the correctness checks, 2 on a usage or set-up error.

#include <sys/prctl.h>
#include <sys/resource.h>
#include <time.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <cerrno>
#include <chrono>
#include <cinttypes>
#include <cmath>
#include <condition_variable>
#include <csignal>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <deque>
#include <filesystem>
#include <fstream>
#include <limits>
#include <map>
#include <memory>
#include <mutex>
#include <optional>
#include <string>
#include <string_view>
#include <thread>
#include <unordered_map>
#include <utility>
#include <vector>

#include "common/bytes.hpp"
#include "common/clock.hpp"
#include "dataset/query_log.hpp"
#include "dataset/synthetic.hpp"
#include "engine/analytics.hpp"
#include "engine/corpus.hpp"
#include "engine/search_engine.hpp"
#include "net/proxy_fleet.hpp"
#include "net/proxy_server.hpp"
#include "net/remote_broker.hpp"
#include "sgx/attestation.hpp"
#include "xsearch/checkpoint.hpp"
#include "xsearch/proxy.hpp"

namespace fs = std::filesystem;
using namespace xsearch;

namespace {

// ---- workload shape ---------------------------------------------------------
// At most 4 busy threads on a 4-core host: 2 client sessions (+ the open-loop
// generator), and a server sized to match (2 dispatch workers, 1 shard).
constexpr std::size_t kSessions = 2;
constexpr std::size_t kServerWorkers = 2;
constexpr std::size_t kBatch = 16;
constexpr double kOpenLoopRate = 1000.0;  // qps, under half of capacity
constexpr std::size_t kFleetWorkers = 2;
// Small enough that LRU eviction runs throughout the measured window.
constexpr std::size_t kNewUsersSessionCapacity = 256;
constexpr int kSetupReps = 5;
constexpr double kWarmupSeconds = 1.0;
// The window is cut into sub-windows of this length; the end-to-end timing
// metrics are medians over sub-windows, so a host stall that lasts a few
// seconds moves one or two of them instead of the whole run's figure.
constexpr double kSubWindowSeconds = 2.0;
// Open-loop requests still queued this long after the window are failed
// without being sent, so a collapsed server cannot stall the run.
constexpr Nanos kDrainLimit = 30 * kSecond;
constexpr std::size_t kEngineReplayCap = 1000;
constexpr int kEngineReplayReps = 3;
constexpr std::size_t kMaxErrorsKept = 8;

enum class Workload { kLiveSearch, kProxySaturation, kBatchSaturation, kNewUsers };

struct WorkloadInfo {
  const char* name;
  Workload workload;
};
constexpr WorkloadInfo kWorkloads[] = {
    {"live-search", Workload::kLiveSearch},
    {"proxy-saturation", Workload::kProxySaturation},
    {"batch-saturation", Workload::kBatchSaturation},
    {"new-users", Workload::kNewUsers},
};

struct Args {
  Workload workload = Workload::kLiveSearch;
  std::string workload_name;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  fs::path work_dir;
  fs::path trace_out;
  Nanos inject_delay = 0;
};

[[noreturn]] void usage(const char* message) {
  std::fprintf(stderr,
               "perfbench: %s\nusage: perfbench --workload "
               "live-search|proxy-saturation|batch-saturation|new-users "
               "--seed N --seconds S --trace 0|1 --work-dir DIR "
               "[--trace-out FILE] [--inject-delay-us U]\n",
               message);
  std::exit(2);
}

Args parse_args(int argc, char** argv) {
  Args args;
  bool have_workload = false;
  for (int i = 1; i < argc; ++i) {
    const std::string_view flag = argv[i];
    if (i + 1 >= argc) usage("missing value");
    const char* value = argv[++i];
    char* end = nullptr;
    errno = 0;
    if (flag == "--workload") {
      args.workload_name = value;
      for (const auto& info : kWorkloads) {
        if (args.workload_name == info.name) {
          args.workload = info.workload;
          have_workload = true;
        }
      }
      if (!have_workload) usage("unknown workload");
      continue;
    }
    if (flag == "--work-dir") {
      args.work_dir = value;
      continue;
    }
    if (flag == "--trace-out") {
      args.trace_out = value;
      continue;
    }
    const double number = std::strtod(value, &end);
    if (end == value || *end != '\0' || errno != 0) usage("bad number");
    if (flag == "--seed") {
      args.seed = static_cast<std::uint64_t>(std::strtoull(value, nullptr, 10));
    } else if (flag == "--seconds") {
      if (number <= 0 || number > 120) usage("--seconds out of range");
      args.seconds = number;
    } else if (flag == "--trace") {
      if (number != 0 && number != 1) usage("--trace takes 0 or 1");
      args.trace = number == 1;
    } else if (flag == "--inject-delay-us") {
      if (number < 0 || number > 100'000) usage("--inject-delay-us out of range");
      args.inject_delay = static_cast<Nanos>(number * kMicro);
    } else {
      usage("unknown flag");
    }
  }
  if (!have_workload) usage("--workload is required");
  if (args.work_dir.empty()) usage("--work-dir is required");
  return args;
}

// ---- host shape and CPU accounting -----------------------------------------

std::string cpu_model() {
  std::ifstream in("/proc/cpuinfo");
  std::string line;
  while (std::getline(in, line)) {
    if (line.rfind("model name", 0) == 0) {
      const auto colon = line.find(':');
      if (colon != std::string::npos) return line.substr(colon + 2);
    }
  }
  return "unknown";
}

/// Aggregate jiffies of the host's CPUs: total and stolen by the hypervisor.
struct HostCpu {
  std::uint64_t total = 0;
  std::uint64_t steal = 0;
};

HostCpu read_host_cpu() {
  HostCpu cpu;
  std::ifstream in("/proc/stat");
  std::string label;
  in >> label;
  if (label != "cpu") return cpu;
  for (int field = 0; field < 8; ++field) {
    std::uint64_t value = 0;
    if (!(in >> value)) break;
    cpu.total += value;
    if (field == 7) cpu.steal = value;
  }
  return cpu;
}

double cpu_us(int who) {
  rusage usage{};
  getrusage(who, &usage);
  const auto us = [](const timeval& tv) {
    return static_cast<double>(tv.tv_sec) * 1e6 + static_cast<double>(tv.tv_usec);
  };
  return us(usage.ru_utime) + us(usage.ru_stime);
}

double thread_cpu_us() { return cpu_us(RUSAGE_THREAD); }

void sleep_until(Nanos when) {
  timespec ts{};
  ts.tv_sec = static_cast<time_t>(when / kSecond);
  ts.tv_nsec = static_cast<long>(when % kSecond);
  while (clock_nanosleep(CLOCK_MONOTONIC, TIMER_ABSTIME, &ts, nullptr) == EINTR) {
  }
}

void busy_wait(Nanos duration) {
  const Nanos until = wall_now() + duration;
  while (wall_now() < until) {
  }
}

/// Nearest-rank percentile; +inf samples (failed requests) sort last.
double percentile(std::vector<double> values, double q) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  const auto rank = static_cast<std::size_t>(
      std::ceil(q * static_cast<double>(values.size())));
  return values[std::clamp<std::size_t>(rank, 1, values.size()) - 1];
}

double median(std::vector<double> values) { return percentile(std::move(values), 0.5); }

/// Splits an OR query as the engine observer sees it back into sub-queries.
std::vector<std::string> split_or(std::string_view combined) {
  constexpr std::string_view kSep = " OR ";
  std::vector<std::string> parts;
  std::size_t begin = 0;
  while (true) {
    const auto at = combined.find(kSep, begin);
    parts.emplace_back(combined.substr(begin, at - begin));
    if (at == std::string_view::npos) return parts;
    begin = at + kSep.size();
  }
}

// ---- tracing -----------------------------------------------------------------

/// One timed call. Request id = (session, seq): seq 0 is the session's
/// handshake, 1.. its query records in order, so a client span and the
/// proxy span of the same request join on the id.
struct Span {
  const char* name = "";
  std::uint64_t session = 0;
  std::uint64_t seq = 0;
  Nanos start = 0;
  Nanos end = 0;
};

/// In-memory span store: one buffer per recording thread, appended without
/// locks, collected after every recording thread has stopped.
class SpanLog {
 public:
  void set_recording(bool on) { recording_.store(on, std::memory_order_release); }

  void record(const char* name, std::uint64_t session, std::uint64_t seq,
              Nanos start, Nanos end) {
    if (!recording_.load(std::memory_order_acquire)) return;
    local().push_back(Span{name, session, seq, start, end});
  }

  [[nodiscard]] std::vector<Span> collect() {
    std::lock_guard lock(mutex_);
    std::vector<Span> all;
    for (const auto& buffer : buffers_) all.insert(all.end(), buffer->begin(), buffer->end());
    return all;
  }

 private:
  std::vector<Span>& local() {
    thread_local std::vector<Span>* buffer = nullptr;
    if (buffer == nullptr) {
      std::lock_guard lock(mutex_);
      buffers_.push_back(std::make_unique<std::vector<Span>>());
      buffer = buffers_.back().get();
      buffer->reserve(1 << 15);
    }
    return *buffer;
  }

  std::atomic<bool> recording_{false};
  std::mutex mutex_;
  std::vector<std::unique_ptr<std::vector<Span>>> buffers_;
};

SpanLog& spans() {
  static SpanLog log;
  return log;
}

/// ProxyHandler decorator between ProxyServer and the proxy or fleet. Times
/// handshakes and query records when tracing, and optionally adds a fixed
/// busy delay inside the query span (the sensitivity self-check). With
/// neither enabled it only forwards.
class TracingHandler final : public core::ProxyHandler {
 public:
  TracingHandler(core::ProxyHandler& inner, bool trace, Nanos busy_delay)
      : inner_(&inner), trace_(trace), busy_delay_(busy_delay) {}

  using ProxyHandler::handshake;

  Result<core::HandshakeResponse> handshake(const crypto::X25519Key& client_pub,
                                            std::uint64_t proposed) override {
    if (!trace_) return inner_->handshake(client_pub, proposed);
    const Nanos start = wall_now();
    auto response = inner_->handshake(client_pub, proposed);
    const Nanos end = wall_now();
    if (response) {
      const std::uint64_t session = response.value().session_id;
      {
        std::lock_guard lock(mutex_);
        next_seq_[session] = 1;
      }
      spans().record("proxy.handshake", session, 0, start, end);
    }
    return response;
  }

  Result<Bytes> handle_query_record(std::uint64_t session, ByteSpan record) override {
    return handle(session, record, nullptr);
  }

  Result<Bytes> handle_query_record(std::uint64_t session, ByteSpan record,
                                    const Deadline& deadline) override {
    return handle(session, record, &deadline);
  }

  sgx::Measurement measurement() const override { return inner_->measurement(); }

 private:
  Result<Bytes> forward(std::uint64_t session, ByteSpan record,
                        const Deadline* deadline) {
    return deadline != nullptr
               ? inner_->handle_query_record(session, record, *deadline)
               : inner_->handle_query_record(session, record);
  }

  Result<Bytes> handle(std::uint64_t session, ByteSpan record,
                       const Deadline* deadline) {
    if (!trace_ && busy_delay_ == 0) return forward(session, record, deadline);
    const Nanos start = wall_now();
    if (busy_delay_ > 0) busy_wait(busy_delay_);
    auto reply = forward(session, record, deadline);
    const Nanos end = wall_now();
    if (trace_) {
      std::uint64_t seq = 0;
      {
        std::lock_guard lock(mutex_);
        seq = next_seq_[session]++;
      }
      spans().record("proxy.query", session, seq, start, end);
    }
    return reply;
  }

  core::ProxyHandler* inner_;
  const bool trace_;
  const Nanos busy_delay_;
  std::mutex mutex_;
  std::unordered_map<std::uint64_t, std::uint64_t> next_seq_;
};

/// Thread-safe record of every OR query the engine receives (the engine's
/// observer hook). Feeds the live-search correctness check and the traced
/// run's engine replay.
class EngineLog {
 public:
  void record(std::string_view combined) {
    std::lock_guard lock(mutex_);
    queries_.emplace_back(combined);
  }
  [[nodiscard]] std::size_t size() {
    std::lock_guard lock(mutex_);
    return queries_.size();
  }
  /// Only after the engine's callers have stopped.
  [[nodiscard]] const std::vector<std::string>& queries() const { return queries_; }

 private:
  std::mutex mutex_;
  std::vector<std::string> queries_;
};

// ---- inputs ------------------------------------------------------------------

struct Inputs {
  dataset::QueryLog log;
  /// The held-out test split of the 100 most active users, in user order.
  std::vector<std::string> user_queries;
  std::unique_ptr<engine::Corpus> corpus;
  std::unique_ptr<engine::SearchEngine> engine;
};

/// The §5.1 testbed at the figure benches' scale: synthetic AOL-like log,
/// top-100 users, 2/3-1/3 split, topical corpus + BM25 engine.
Inputs make_inputs(std::uint64_t seed) {
  Inputs in;
  dataset::SyntheticLogConfig log_config;
  log_config.seed = seed;
  log_config.num_users = 400;
  log_config.total_queries = 60'000;
  log_config.vocab_size = 8'000;
  log_config.num_topics = 80;
  in.log = dataset::generate_synthetic_log(log_config);
  const auto top = in.log.filter_users(in.log.most_active_users(100));
  const auto split = dataset::split_per_user(top, 2.0 / 3.0);
  auto test = split.test.records();
  std::stable_sort(test.begin(), test.end(),
                   [](const auto& a, const auto& b) { return a.user < b.user; });
  for (auto& record : test) in.user_queries.push_back(std::move(record.text));

  engine::CorpusConfig corpus_config;
  corpus_config.seed = seed ^ 0xd0c5;
  corpus_config.num_documents = 12'000;
  in.corpus = std::make_unique<engine::Corpus>(in.log, corpus_config);
  in.engine = std::make_unique<engine::SearchEngine>(*in.corpus);
  return in;
}

/// Seals a full history window (the log's queries, cycled) the way a proxy
/// in service would have checkpointed it, into `dir`/history.ckpt.
Status write_seed_checkpoint(const Inputs& in,
                             const sgx::AttestationAuthority& authority,
                             const fs::path& dir, std::size_t entries) {
  core::XSearchProxy::Options options;
  options.contact_engine = false;
  options.checkpoint_dir = dir;
  auto proxy = core::XSearchProxy::create(nullptr, authority, options);
  if (!proxy) return proxy.status();
  const auto& records = in.log.records();
  std::vector<std::string> chunk;
  for (std::size_t i = 0; i < entries;) {
    chunk.clear();
    for (; i < entries && chunk.size() < 65'536; ++i) {
      chunk.push_back(records[i % records.size()].text);
    }
    proxy.value()->warm_history(chunk);
  }
  return proxy.value()->checkpoint_now();
}

// ---- deployment --------------------------------------------------------------

/// A client session: one broker plus its request sequence number.
struct Client {
  std::unique_ptr<net::RemoteBroker> broker;
  std::uint64_t seq = 0;
};

/// The proxy (or fleet), decorator, server and the workload's long-lived
/// client sessions. Members are destroyed in reverse order: clients, then
/// the server (joins its threads), then the proxy side.
struct Deployment {
  std::unique_ptr<core::XSearchProxy> proxy;
  std::unique_ptr<net::ProxyFleet> fleet;
  std::unique_ptr<TracingHandler> handler;
  std::unique_ptr<net::ProxyServer> server;
  std::vector<Client> clients;
  double restore_s = 0;

  /// Every enclave proxy in the deployment.
  [[nodiscard]] std::vector<std::shared_ptr<core::XSearchProxy>> proxies() const {
    std::vector<std::shared_ptr<core::XSearchProxy>> out;
    if (proxy) out.emplace_back(std::shared_ptr<core::XSearchProxy>(), proxy.get());
    if (fleet) {
      for (std::size_t i = 0; i < fleet->worker_count(); ++i) {
        out.push_back(fleet->worker_proxy(i));
      }
    }
    return out;
  }
  [[nodiscard]] core::ProxyHandler& backend() const {
    return proxy ? static_cast<core::ProxyHandler&>(*proxy) : *fleet;
  }
};

struct DeployConfig {
  Workload workload;
  const engine::SearchEngine* engine;
  const sgx::AttestationAuthority* authority;
  fs::path proxy_checkpoint_dir;
  fs::path fleet_checkpoint_dir;
  std::size_t history_entries;
  bool trace;
  Nanos inject_delay;
  std::uint64_t seed;
};

std::unique_ptr<net::RemoteBroker> make_broker(const DeployConfig& config,
                                               const Deployment& deployment,
                                               std::uint64_t broker_seed) {
  return std::make_unique<net::RemoteBroker>(
      "127.0.0.1", deployment.server->port(), *config.authority,
      deployment.backend().measurement(), broker_seed);
}

/// Restores the proxy or fleet from its sealed checkpoint, starts the
/// reactor and attests the workload's sessions. This is what `setup_s`
/// times. Fails unless every enclave restored the full window.
Result<std::unique_ptr<Deployment>> deploy(const DeployConfig& config) {
  auto deployment = std::make_unique<Deployment>();
  core::XSearchProxy::Options options;  // program defaults
  options.contact_engine = config.workload == Workload::kLiveSearch;

  const Nanos restore_start = wall_now();
  if (config.workload == Workload::kNewUsers) {
    net::ProxyFleet::Options fleet_options;
    fleet_options.workers = kFleetWorkers;
    fleet_options.proxy = options;
    fleet_options.proxy.session_capacity = kNewUsersSessionCapacity;
    fleet_options.proxy.checkpoint_dir = config.fleet_checkpoint_dir;
    auto fleet = net::ProxyFleet::create(config.engine, *config.authority, fleet_options);
    if (!fleet) return fleet.status();
    deployment->fleet = std::move(fleet).value();
  } else {
    options.checkpoint_dir = config.proxy_checkpoint_dir;
    auto proxy = core::XSearchProxy::create(config.engine, *config.authority, options);
    if (!proxy) return proxy.status();
    deployment->proxy = std::move(proxy).value();
  }
  deployment->restore_s = static_cast<double>(wall_now() - restore_start) / 1e9;

  for (const auto& proxy : deployment->proxies()) {
    const auto restored = proxy->checkpoint_stats();
    if (!restored.restore_hit || restored.restored_entries != config.history_entries) {
      return internal_error("enclave did not restore the full history window");
    }
  }

  deployment->handler = std::make_unique<TracingHandler>(
      deployment->backend(), config.trace, config.inject_delay);
  net::ProxyServer::Options server_options;
  server_options.workers = kServerWorkers;
  auto server = net::ProxyServer::start(*deployment->handler, 0, server_options);
  if (!server) return server.status();
  deployment->server = std::move(server).value();

  for (std::size_t s = 0; s < kSessions; ++s) {
    Client client{make_broker(config, *deployment, config.seed * 1000 + s), 0};
    if (Status connected = client.broker->connect(); !connected.is_ok()) {
      return connected;
    }
    deployment->clients.push_back(std::move(client));
  }
  return deployment;
}

// ---- measurement -------------------------------------------------------------

/// Server-side counters read around the measured window.
struct ServerCounters {
  std::uint64_t ecalls = 0;
  std::uint64_t ocalls = 0;
  std::uint64_t ring_jobs = 0;
  std::uint64_t ring_fallbacks = 0;
  std::uint64_t sessions_created = 0;
  std::uint64_t sessions_evicted = 0;
  std::uint64_t routed = 0;
  std::uint64_t shed = 0;
  std::uint64_t queue_expired = 0;
  std::uint64_t deadline_expired = 0;
  std::size_t engine_calls = 0;
};

ServerCounters read_counters(const Deployment& deployment, EngineLog& engine_log) {
  ServerCounters c;
  for (const auto& proxy : deployment.proxies()) {
    const auto transitions = proxy->enclave().transition_stats();
    c.ecalls += transitions.ecalls;
    c.ocalls += transitions.ocalls;
    const auto ring = proxy->ring_stats();
    c.ring_jobs += ring.jobs_switchless;
    c.ring_fallbacks += ring.fallback_ecalls;
    const auto sessions = proxy->session_stats();
    c.sessions_created += sessions.created;
    c.sessions_evicted += sessions.evicted_lru + sessions.expired_ttl;
  }
  if (deployment.fleet) {
    for (std::size_t i = 0; i < deployment.fleet->worker_count(); ++i) {
      c.routed += deployment.fleet->worker_stats(i).routed;
    }
  }
  c.shed = deployment.server->connections_shed();
  c.queue_expired = deployment.server->queue_expired();
  c.deadline_expired = deployment.server->deadline_expired();
  c.engine_calls = engine_log.size();
  return c;
}

/// The measured window [t0, t1), cut into `subs` equal sub-windows.
struct Window {
  Nanos t0 = 0;
  Nanos t1 = 0;
  std::size_t subs = 1;
  [[nodiscard]] bool contains(Nanos t) const { return t >= t0 && t < t1; }
  /// Start of sub-window i (i == subs gives t1).
  [[nodiscard]] Nanos boundary(std::size_t i) const {
    return t0 + (t1 - t0) * static_cast<Nanos>(i) / static_cast<Nanos>(subs);
  }
  /// Sub-window holding `t`; `t` must be in the window.
  [[nodiscard]] std::size_t sub(Nanos t) const {
    return static_cast<std::size_t>((t - t0) * static_cast<Nanos>(subs) / (t1 - t0));
  }
};

/// A broker's own counters, read around one call.
struct BrokerCounters {
  explicit BrokerCounters(const net::RemoteBroker& broker)
      : frames(broker.frames_sent()),
        queries(broker.queries_sent()),
        reconnects(broker.reconnects()),
        retries(broker.at_least_once_retries()) {}
  std::uint64_t frames, queries, reconnects, retries;
};

/// What one client-side thread saw. Counts cover the requests the window
/// holds; CPU is sampled at the thread's first step at or after t0 and t1,
/// before it does more work.
struct ThreadTally {
  explicit ThreadTally(std::size_t subs = 1)
      : latency_ms(subs), sub_queries(subs, 0), cpu_us(subs + 1, 0.0) {}

  std::vector<std::vector<double>> latency_ms;  // per sub-window; +inf = failed
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  std::uint64_t queries = 0;  // completed user queries (16 per batch frame)
  std::vector<std::uint64_t> sub_queries;  // the same per sub-window
  // Open loop: first and last completion of the requests due in the window.
  Nanos first_end = std::numeric_limits<Nanos>::max();
  Nanos last_end = 0;
  std::uint64_t frames = 0;
  std::uint64_t queries_sent = 0;
  std::uint64_t reconnects = 0;
  std::uint64_t retries = 0;
  std::vector<double> late_us;  // open-loop generator lateness
  std::vector<double> cpu_us;   // thread CPU at each sub-window boundary
  // Whole-run correctness evidence.
  std::uint64_t ok_queries_total = 0;
  std::uint64_t results = 0;
  std::uint64_t tracking_urls = 0;
  std::uint64_t bad_batches = 0;
  std::map<std::string, std::uint64_t> sent_ok;  // live-search only
  std::vector<std::string> errors;

  void error(const Status& status) {
    if (errors.size() < kMaxErrorsKept) errors.push_back(status.to_string());
  }

  /// Adds another thread's tally (CPU samples add up boundary by boundary).
  void merge(const ThreadTally& other) {
    for (std::size_t i = 0; i < latency_ms.size(); ++i) {
      latency_ms[i].insert(latency_ms[i].end(), other.latency_ms[i].begin(),
                           other.latency_ms[i].end());
      sub_queries[i] += other.sub_queries[i];
    }
    for (std::size_t i = 0; i < cpu_us.size(); ++i) cpu_us[i] += other.cpu_us[i];
    late_us.insert(late_us.end(), other.late_us.begin(), other.late_us.end());
    attempted += other.attempted;
    failed += other.failed;
    queries += other.queries;
    first_end = std::min(first_end, other.first_end);
    last_end = std::max(last_end, other.last_end);
    frames += other.frames;
    queries_sent += other.queries_sent;
    reconnects += other.reconnects;
    retries += other.retries;
    ok_queries_total += other.ok_queries_total;
    results += other.results;
    tracking_urls += other.tracking_urls;
    bad_batches += other.bad_batches;
    for (const auto& [query, n] : other.sent_ok) sent_ok[query] += n;
    for (const auto& e : other.errors) {
      if (errors.size() < kMaxErrorsKept) errors.push_back(e);
    }
  }

  /// Books one request of sub-window `sub`: `carried` user queries
  /// (0 = failed), its latency, and the broker counters around it.
  void book(std::size_t sub, std::uint64_t carried, Nanos latency,
            const BrokerCounters& before, const BrokerCounters& after) {
    ++attempted;
    if (carried == 0) {
      ++failed;
      latency_ms[sub].push_back(INFINITY);
    } else {
      queries += carried;
      sub_queries[sub] += carried;
      latency_ms[sub].push_back(static_cast<double>(latency) / 1e6);
    }
    frames += after.frames - before.frames;
    queries_sent += after.queries - before.queries;
    reconnects += after.reconnects - before.reconnects;
    retries += after.retries - before.retries;
  }
};

/// Samples the calling thread's CPU time at each sub-window boundary, at the
/// thread's first step at or after it and before it does more work. A
/// blocked thread uses no CPU, so a sample taken when it wakes is exact.
class CpuSampler {
 public:
  explicit CpuSampler(const Window& window) : window_(window) {}
  void step(Nanos now, ThreadTally& tally) {
    while (next_ <= window_.subs && now >= window_.boundary(next_)) {
      tally.cpu_us[next_++] = thread_cpu_us();
    }
  }
  /// The thread does no more work: its CPU at every boundary still ahead is
  /// what it has used by now.
  void finish(ThreadTally& tally) {
    const double now = thread_cpu_us();
    while (next_ <= window_.subs) tally.cpu_us[next_++] = now;
  }

 private:
  Window window_;
  std::size_t next_ = 0;
};

void check_results(const std::vector<engine::SearchResult>& results, ThreadTally& tally) {
  tally.results += results.size();
  for (const auto& result : results) {
    if (engine::is_tracking_url(result.url)) ++tally.tracking_urls;
  }
}

/// One closed-loop call: single query, batch, or (new-users) a fresh
/// session's connect + query + close. Returns the user queries it carried
/// on success, 0 on failure.
std::uint64_t run_call(Workload workload, Client& client,
                       const std::vector<std::string>& queries, std::size_t& next,
                       std::size_t stride, ThreadTally& tally) {
  auto& broker = *client.broker;
  const auto take = [&]() -> const std::string& {
    const std::string& q = queries[next % queries.size()];
    next += stride;
    return q;
  };
  if (workload == Workload::kBatchSaturation) {
    std::vector<std::string> batch;
    for (std::size_t i = 0; i < kBatch; ++i) batch.push_back(take());
    const Nanos start = wall_now();
    auto reply = broker.search_batch(batch);
    spans().record("client.query", broker.session_id(), ++client.seq, start, wall_now());
    if (!reply) {
      tally.error(reply.status());
      return 0;
    }
    if (reply.value().size() != kBatch) ++tally.bad_batches;
    for (const auto& outcome : reply.value()) {
      if (!outcome.status.is_ok()) {
        tally.error(outcome.status);
        return 0;
      }
      check_results(outcome.results, tally);
    }
    return reply.value().size() == kBatch ? kBatch : 0;
  }

  const std::string& query = take();
  const Nanos start = wall_now();
  auto reply = broker.search(query);
  spans().record("client.query", broker.session_id(), ++client.seq, start, wall_now());
  if (!reply) {
    tally.error(reply.status());
    return 0;
  }
  check_results(reply.value(), tally);
  if (workload == Workload::kLiveSearch) ++tally.sent_ok[query];
  return 1;
}

/// Closed loop: each thread sends its next request when the previous one
/// returned, until t1.
void closed_loop_thread(Workload workload, const DeployConfig& config,
                        const Deployment& deployment, Client* session,
                        const std::vector<std::string>& queries, std::size_t index,
                        Window window, ThreadTally& tally) {
  CpuSampler cpu(window);
  std::size_t next = index;
  std::uint64_t op = 0;
  while (true) {
    Client fresh;
    Client* client = session;
    Nanos start = wall_now();
    cpu.step(start, tally);
    if (start >= window.t1) break;
    bool ok = true;
    if (workload == Workload::kNewUsers) {
      fresh.broker = make_broker(config, deployment,
                                 (config.seed << 32) + (index << 28) + op++);
      const Status connected = fresh.broker->connect();
      spans().record("client.connect", fresh.broker->session_id(), 0, start, wall_now());
      if (!connected.is_ok()) {
        tally.error(connected);
        ok = false;
      }
      client = &fresh;
    }
    const BrokerCounters before(*client->broker);
    const std::uint64_t carried =
        ok ? run_call(workload, *client, queries, next, kSessions, tally) : 0;
    const BrokerCounters after(*client->broker);
    fresh.broker.reset();  // new-users: the close is part of the operation
    const Nanos end = wall_now();
    tally.ok_queries_total += carried;
    if (window.contains(end)) {
      tally.book(window.sub(end), carried, end - start, before, after);
    }
  }
  cpu.finish(tally);
}

/// Open-loop job: the index of the user query and when it was due.
struct Job {
  std::size_t index = 0;
  Nanos due = 0;
};

class JobQueue {
 public:
  void push(Job job) {
    {
      std::lock_guard lock(mutex_);
      jobs_.push_back(job);
    }
    ready_.notify_one();
  }
  void close() {
    {
      std::lock_guard lock(mutex_);
      closed_ = true;
    }
    ready_.notify_all();
  }
  bool pop(Job& job) {
    std::unique_lock lock(mutex_);
    ready_.wait(lock, [&] { return closed_ || !jobs_.empty(); });
    if (jobs_.empty()) return false;
    job = jobs_.front();
    jobs_.pop_front();
    return true;
  }

 private:
  std::mutex mutex_;
  std::condition_variable ready_;
  std::deque<Job> jobs_;
  bool closed_ = false;
};

/// Open loop at kOpenLoopRate from `start`: sleeps until each request is due
/// (absolute clock_nanosleep) and queues it for the next free session.
void generator_thread(Nanos start, Window window, JobQueue& queue, ThreadTally& tally) {
  // Wake at the due time, not up to the default 50 us timer slack after it.
  prctl(PR_SET_TIMERSLACK, 1UL, 0UL, 0UL, 0UL);
  CpuSampler cpu(window);
  const double period = 1e9 / kOpenLoopRate;
  for (std::size_t i = 0;; ++i) {
    const Nanos due = start + static_cast<Nanos>(static_cast<double>(i) * period);
    if (due >= window.t1) break;
    sleep_until(due);
    const Nanos now = wall_now();
    cpu.step(now, tally);
    if (window.contains(due)) {
      tally.late_us.push_back(static_cast<double>(now - due) / 1e3);
    }
    queue.push(Job{i, due});
  }
  queue.close();
  cpu.finish(tally);
}

void open_loop_session(Client& client, const std::vector<std::string>& queries,
                       Window window, JobQueue& queue, ThreadTally& tally) {
  CpuSampler cpu(window);
  Job job;
  while (queue.pop(job)) {
    const Nanos start = wall_now();
    cpu.step(start, tally);
    std::size_t next = job.index;
    const BrokerCounters before(*client.broker);
    std::uint64_t carried = 0;
    if (start - window.t1 < kDrainLimit) {
      carried = run_call(Workload::kLiveSearch, client, queries, next, 1, tally);
    }
    const BrokerCounters after(*client.broker);
    const Nanos end = wall_now();
    tally.ok_queries_total += carried;
    if (!window.contains(job.due)) continue;
    if (carried > 0) {
      tally.first_end = std::min(tally.first_end, end);
      tally.last_end = std::max(tally.last_end, end);
    }
    tally.book(window.sub(job.due), carried, end - job.due, before, after);
  }
  cpu.finish(tally);
}

struct Measurement {
  Window window;
  std::vector<ThreadTally> tallies;  // sessions, then the generator if any
  // Process CPU and the main thread's CPU at each sub-window boundary.
  std::vector<double> process_cpu_us;
  std::vector<double> main_cpu_us;
  double steal_pct = 0;
  ServerCounters before;
  ServerCounters after;
  std::size_t engine_log_t0 = 0;
  std::size_t engine_log_t1 = 0;
};

Measurement measure(Workload workload, const DeployConfig& config, Deployment& deployment,
                    const std::vector<std::string>& queries, double seconds,
                    EngineLog& engine_log) {
  Measurement m;
  const Nanos start = wall_now() + 10 * kMilli;
  m.window.t0 = start + static_cast<Nanos>(kWarmupSeconds * 1e9);
  m.window.t1 = m.window.t0 + static_cast<Nanos>(seconds * 1e9);
  m.window.subs = std::max<std::size_t>(
      1, static_cast<std::size_t>(std::lround(seconds / kSubWindowSeconds)));
  const bool open_loop = workload == Workload::kLiveSearch;
  m.tallies.assign(kSessions + (open_loop ? 1 : 0), ThreadTally(m.window.subs));

  JobQueue queue;
  std::vector<std::thread> threads;
  for (std::size_t s = 0; s < kSessions; ++s) {
    if (open_loop) {
      threads.emplace_back(open_loop_session, std::ref(deployment.clients[s]),
                           std::cref(queries), m.window, std::ref(queue),
                           std::ref(m.tallies[s]));
    } else {
      Client* session = workload == Workload::kNewUsers ? nullptr : &deployment.clients[s];
      threads.emplace_back([&, s, session] {
        sleep_until(start);
        closed_loop_thread(workload, config, deployment, session, queries, s, m.window,
                           m.tallies[s]);
      });
    }
  }
  if (open_loop) {
    threads.emplace_back(generator_thread, start, m.window, std::ref(queue),
                         std::ref(m.tallies[kSessions]));
  }

  HostCpu host0;
  for (std::size_t i = 0; i <= m.window.subs; ++i) {
    sleep_until(m.window.boundary(i));
    m.process_cpu_us.push_back(cpu_us(RUSAGE_SELF));
    m.main_cpu_us.push_back(thread_cpu_us());
    if (i == 0) {
      host0 = read_host_cpu();
      m.before = read_counters(deployment, engine_log);
      m.engine_log_t0 = m.before.engine_calls;
      spans().set_recording(config.trace);
    }
  }
  spans().set_recording(false);
  const HostCpu host1 = read_host_cpu();
  m.after = read_counters(deployment, engine_log);
  m.engine_log_t1 = m.after.engine_calls;
  if (host1.total > host0.total) {
    m.steal_pct = 100.0 * static_cast<double>(host1.steal - host0.steal) /
                  static_cast<double>(host1.total - host0.total);
  }
  for (auto& thread : threads) thread.join();
  return m;
}

/// The correctness gate: every reply authenticated and parsed, batches came
/// back whole, no tracking URL reached a client, no request failed, and the
/// engine saw exactly one (k+1)-way OR query per user query, holding that
/// query (live-search), or nothing at all (the other workloads).
std::vector<std::string> check_outputs(Workload workload, const ThreadTally& all,
                                       const std::vector<std::string>& observed) {
  std::vector<std::string> violations = all.errors;
  if (all.attempted == 0) violations.push_back("no request completed in the window");
  if (all.failed > 0) violations.push_back("failed requests: " + std::to_string(all.failed));
  if (all.bad_batches > 0) violations.push_back("batch replies without 16 outcomes");
  if (all.tracking_urls > 0) violations.push_back("tracking URLs reached the client");
  if (workload != Workload::kLiveSearch) {
    if (!observed.empty()) {
      violations.push_back("engine contacted on a contact_engine=false workload");
    }
    return violations;
  }
  if (all.results == 0) violations.push_back("live-search returned no results");
  if (observed.size() != all.ok_queries_total) {
    violations.push_back("engine saw " + std::to_string(observed.size()) +
                         " OR queries for " + std::to_string(all.ok_queries_total) +
                         " user queries");
  }
  const std::size_t k = core::XSearchProxy::Options{}.k;
  std::unordered_map<std::string, std::uint64_t> carried_by;
  for (const auto& combined : observed) {
    auto parts = split_or(combined);
    if (parts.size() != k + 1) {
      violations.push_back("OR query with " + std::to_string(parts.size()) + " sub-queries");
      break;
    }
    std::sort(parts.begin(), parts.end());
    parts.erase(std::unique(parts.begin(), parts.end()), parts.end());
    for (auto& part : parts) ++carried_by[std::move(part)];
  }
  for (const auto& [query, sent] : all.sent_ok) {
    if (carried_by[query] < sent) {
      violations.push_back("user query missing from the engine's OR queries");
      break;
    }
  }
  return violations;
}

// ---- reporting ---------------------------------------------------------------

struct Metric {
  std::string name;
  double value;
  std::string unit;
};

std::string json_number(double value) {
  if (!std::isfinite(value)) value = value > 0 ? 1e300 : -1e300;
  char buffer[64];
  std::snprintf(buffer, sizeof buffer, "%.17g", value);
  return buffer;
}

/// Client-span self time: the span minus the part its proxy child covers.
double self_us(const Span& parent, const Span& child) {
  const Nanos covered = std::max<Nanos>(
      0, std::min(parent.end, child.end) - std::max(parent.start, child.start));
  return static_cast<double>(parent.end - parent.start - covered) / 1e3;
}

/// Client and proxy spans joined on their request id.
struct SpanJoin {
  std::vector<double> rtt_self;      // client.query minus proxy.query
  std::vector<double> query_us;      // proxy.query
  std::vector<double> connect_self;  // client.connect minus proxy.handshake
  std::vector<double> handshake_us;  // proxy.handshake
};

SpanJoin join_spans(const std::vector<Span>& all) {
  std::map<std::pair<std::uint64_t, std::uint64_t>, const Span*> proxy_side;
  for (const auto& span : all) {
    if (std::string_view(span.name).rfind("proxy.", 0) == 0) {
      proxy_side[{span.session, span.seq}] = &span;
    }
  }
  SpanJoin out;
  for (const auto& span : all) {
    const std::string_view name = span.name;
    if (name.rfind("client.", 0) != 0) continue;
    const auto child = proxy_side.find({span.session, span.seq});
    if (child == proxy_side.end()) continue;
    const double child_us =
        static_cast<double>(child->second->end - child->second->start) / 1e3;
    const bool connect = name == "client.connect";
    (connect ? out.connect_self : out.rtt_self).push_back(self_us(span, *child->second));
    (connect ? out.handshake_us : out.query_us).push_back(child_us);
  }
  return out;
}

/// Engine time per OR query. The engine sits behind the enclave's send/recv
/// ocalls, so its span cannot be taken from the host without editing the
/// program; the OR queries it received in the window are replayed against
/// the same engine after the run instead (at most kEngineReplayCap, evenly
/// spaced). Each is timed kEngineReplayReps times and its fastest run kept,
/// so a stray interrupt is not counted as engine time.
std::vector<double> replay_engine(const engine::SearchEngine& engine,
                                  const std::vector<std::string>& or_queries) {
  const std::size_t step = std::max<std::size_t>(1, or_queries.size() / kEngineReplayCap);
  const auto per_subquery = core::XSearchProxy::Options{}.results_per_subquery;
  std::vector<double> us;
  for (std::size_t i = 0; i < or_queries.size(); i += step) {
    const auto parts = split_or(or_queries[i]);
    double best = INFINITY;
    for (int rep = 0; rep < kEngineReplayReps; ++rep) {
      const Nanos start = wall_now();
      (void)engine.search_or(parts, per_subquery);
      best = std::min(best, static_cast<double>(wall_now() - start) / 1e3);
    }
    us.push_back(best);
  }
  return us;
}

void write_spans(const fs::path& path, const std::vector<Span>& all) {
  if (path.empty()) return;
  std::error_code ignored;
  fs::create_directories(path.parent_path(), ignored);
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) return;
  std::fprintf(f, "name,parent,session,seq,start_ns,end_ns\n");
  for (const auto& span : all) {
    const bool proxy_side = std::string_view(span.name).rfind("proxy.", 0) == 0;
    const char* parent = !proxy_side ? ""
                         : std::string_view(span.name) == "proxy.handshake"
                             ? "client.connect"
                             : "client.query";
    std::fprintf(f, "%s,%s,%" PRIu64 ",%" PRIu64 ",%" PRId64 ",%" PRId64 "\n",
                 span.name, parent, span.session, span.seq, span.start, span.end);
  }
  std::fclose(f);
}

}  // namespace

int main(int argc, char** argv) {
  std::signal(SIGPIPE, SIG_IGN);
  const Args args = parse_args(argc, argv);
  const Workload workload = args.workload;

  std::printf("# perfbench workload=%s seed=%" PRIu64 " seconds=%g trace=%d\n",
              args.workload_name.c_str(), args.seed, args.seconds, args.trace ? 1 : 0);
  std::printf("# host nproc=%ld cpu=\"%s\"\n", sysconf(_SC_NPROCESSORS_ONLN),
              cpu_model().c_str());

  // Inputs: query log, engine index, and the sealed full-window checkpoint.
  const Nanos inputs_start = wall_now();
  Inputs in = make_inputs(args.seed);
  const sgx::AttestationAuthority authority(
      to_bytes("perfbench-root-" + std::to_string(args.seed)));
  const std::size_t history_entries = core::XSearchProxy::Options{}.history_capacity;
  std::error_code fs_error;
  const fs::path seed_dir = args.work_dir / "seed";
  const fs::path fleet_dir = args.work_dir / "fleet";
  fs::create_directories(seed_dir, fs_error);
  if (Status sealed = write_seed_checkpoint(in, authority, seed_dir, history_entries);
      !sealed.is_ok()) {
    std::fprintf(stderr, "perfbench: seed checkpoint: %s\n", sealed.to_string().c_str());
    return 2;
  }
  for (std::size_t i = 0; i < kFleetWorkers; ++i) {
    const fs::path worker = fleet_dir / ("worker-" + std::to_string(i));
    fs::create_directories(worker, fs_error);
    fs::copy_file(seed_dir / "history.ckpt", worker / "history.ckpt",
                  fs::copy_options::overwrite_existing, fs_error);
    if (fs_error) {
      std::fprintf(stderr, "perfbench: %s\n", fs_error.message().c_str());
      return 2;
    }
  }
  std::printf("# inputs: queries=%zu test_queries=%zu docs=%zu history=%zu (%.3f s)\n",
              in.log.size(), in.user_queries.size(), in.corpus->size(),
              history_entries, static_cast<double>(wall_now() - inputs_start) / 1e9);

  EngineLog engine_log;
  in.engine->set_observer([&engine_log](std::string_view q) { engine_log.record(q); });

  const DeployConfig config{workload,      in.engine.get(), &authority, seed_dir,
                            fleet_dir,     history_entries, args.trace, args.inject_delay,
                            args.seed};

  // Set-up, repeated: each deployment restores the sealed window from scratch
  // and the last one serves the measured window.
  std::vector<double> setup_s;
  std::vector<double> restore_s;
  std::unique_ptr<Deployment> deployment;
  for (int rep = 0; rep < kSetupReps; ++rep) {
    deployment.reset();
    const Nanos start = wall_now();
    auto deployed = deploy(config);
    const Nanos end = wall_now();
    if (!deployed) {
      std::fprintf(stderr, "perfbench: deploy: %s\n", deployed.status().to_string().c_str());
      return 2;
    }
    deployment = std::move(deployed).value();
    setup_s.push_back(static_cast<double>(end - start) / 1e9);
    restore_s.push_back(deployment->restore_s);
  }

  Measurement m = measure(workload, config, *deployment, in.user_queries, args.seconds,
                          engine_log);

  std::size_t largest_history = 0;
  double epc_peak_bytes = 0;
  std::uint64_t epc_page_faults = 0;
  for (const auto& proxy : deployment->proxies()) {
    largest_history = std::max(largest_history, proxy->history_size());
    epc_peak_bytes = std::max(epc_peak_bytes,
                              static_cast<double>(proxy->enclave().epc().peak()));
    epc_page_faults += proxy->enclave().epc().page_faults();
  }
  // Stop the data plane (joins the reactor and dispatch threads) before
  // reading what they recorded.
  deployment->clients.clear();
  deployment->server->stop();
  in.engine->set_observer(nullptr);

  // ---- aggregate --------------------------------------------------------------
  const std::size_t subs = m.window.subs;
  ThreadTally all(subs);
  for (const auto& tally : m.tallies) all.merge(tally);
  const double queries = static_cast<double>(std::max<std::uint64_t>(all.queries, 1));
  const double ops = static_cast<double>(std::max<std::uint64_t>(all.attempted, 1));
  const auto delta = [&](std::uint64_t ServerCounters::*field) {
    return static_cast<double>(m.after.*field - m.before.*field);
  };

  const auto& observed = engine_log.queries();
  const std::vector<std::string> violations = check_outputs(workload, all, observed);
  const bool correct = violations.empty();
  for (const auto& v : violations) std::printf("# VIOLATION: %s\n", v.c_str());

  // ---- end-to-end metrics -----------------------------------------------------
  // Each timing is taken per sub-window (latency percentiles, completions,
  // and server CPU = process CPU minus the benchmark's own threads) and
  // reported as the median over sub-windows.
  const double sub_s = static_cast<double>(m.window.t1 - m.window.t0) / 1e9 /
                       static_cast<double>(subs);
  std::vector<double> sub_p50, sub_p90, sub_qps, sub_server_cpu;
  double client_cpu_us = 0;
  std::size_t samples = 0;
  for (std::size_t i = 0; i < subs; ++i) {
    const double bench_us = (all.cpu_us[i + 1] - all.cpu_us[i]) +
                            (m.main_cpu_us[i + 1] - m.main_cpu_us[i]);
    const double server_us = m.process_cpu_us[i + 1] - m.process_cpu_us[i] - bench_us;
    client_cpu_us += bench_us;
    samples += all.latency_ms[i].size();
    sub_p50.push_back(percentile(all.latency_ms[i], 0.5));
    sub_p90.push_back(percentile(all.latency_ms[i], 0.9));
    sub_qps.push_back(static_cast<double>(all.sub_queries[i]) / sub_s);
    sub_server_cpu.push_back(
        server_us / static_cast<double>(std::max<std::uint64_t>(all.sub_queries[i], 1)));
  }
  // Closed loop: completions per second. Open loop: the completion rate of
  // the requests due in the window, between the first and the last of them
  // to complete; it falls below the offered rate once a backlog builds.
  double qps = median(sub_qps);
  if (workload == Workload::kLiveSearch && all.queries > 1 && all.last_end > all.first_end) {
    qps = static_cast<double>(all.queries - 1) /
          (static_cast<double>(all.last_end - all.first_end) / 1e9);
  }
  const double fail_frac = static_cast<double>(all.failed) / ops;
  const auto print_subs = [](const char* name, const std::vector<double>& values) {
    std::printf("# sub-windows %s:", name);
    for (double v : values) std::printf(" %.4g", v);
    std::printf("\n");
  };
  print_subs("p90_ms", sub_p90);
  print_subs("server_cpu_us_per_query", sub_server_cpu);
  std::vector<Metric> e2e = {
      {"setup_s", median(setup_s), "s"},
      {"qps", qps, "1/s"},
      {"p50_ms", median(sub_p50), "ms"},
      {"p90_ms", median(sub_p90), "ms"},
      {"server_cpu_us_per_query", median(sub_server_cpu), "us"},
      {"epc_peak_mb", epc_peak_bytes / 1e6, "MB"},
  };
  std::printf("# requests attempted=%" PRIu64 " failed=%" PRIu64 " latency samples=%zu "
              "in %zu sub-windows of %.1f s\n",
              all.attempted, all.failed, samples, subs, sub_s);
  std::printf("# host steal_pct=%.3f over the window; generator lateness p50=%.1f us "
              "max=%.1f us\n",
              m.steal_pct, percentile(all.late_us, 0.5), percentile(all.late_us, 1.0));
  std::printf("# setup_s runs:");
  for (double s : setup_s) std::printf(" %.4f", s);
  std::printf("\n");
  for (const auto& metric : e2e) {
    std::printf("%-34s %14.4f %s\n", metric.name.c_str(), metric.value, metric.unit.c_str());
  }
  std::printf("%-34s %14.4f %s\n", "fail_frac", fail_frac, "1");

  // ---- per-layer metrics (traced run) -----------------------------------------
  std::vector<Metric> layers;
  if (args.trace) {
    const std::vector<Span> all_spans = spans().collect();
    write_spans(args.trace_out, all_spans);
    const SpanJoin joined = join_spans(all_spans);
    std::printf("# spans: %zu recorded, %zu query joins, %zu connect joins -> %s\n",
                all_spans.size(), joined.query_us.size(), joined.handshake_us.size(),
                args.trace_out.empty() ? "(not written)" : args.trace_out.c_str());

    const std::size_t in_window = m.engine_log_t1 - m.engine_log_t0;
    double subqueries = 0;
    for (std::size_t i = m.engine_log_t0; i < m.engine_log_t1; ++i) {
      subqueries += static_cast<double>(split_or(observed[i]).size());
    }
    const std::vector<double> search_or_us = replay_engine(
        *in.engine, {observed.begin() + static_cast<std::ptrdiff_t>(m.engine_log_t0),
                     observed.begin() + static_cast<std::ptrdiff_t>(m.engine_log_t1)});
    const double engine_p50 = percentile(search_or_us, 0.5);
    const double frames = static_cast<double>(std::max<std::uint64_t>(all.frames, 1));
    const double queries_per_frame = static_cast<double>(all.queries_sent) / frames;
    const double query_p50 = percentile(joined.query_us, 0.5);

    layers = {
        {"net.rtt_self_us.p50", percentile(joined.rtt_self, 0.5), "us"},
        {"net.rtt_self_us.p90", percentile(joined.rtt_self, 0.9), "us"},
        {"net.connect_self_us.p50", percentile(joined.connect_self, 0.5), "us"},
        {"net.frames_per_query", static_cast<double>(all.frames) /
                                     std::max(1.0, static_cast<double>(all.queries_sent)),
         "count/query"},
        {"net.shed", delta(&ServerCounters::shed), "count"},
        {"net.queue_expired", delta(&ServerCounters::queue_expired), "count"},
        {"net.deadline_expired", delta(&ServerCounters::deadline_expired), "count"},
        {"net.client_retries", static_cast<double>(all.retries), "count"},
        {"net.client_reconnects", static_cast<double>(all.reconnects), "count"},
        {"net.fleet_routed_per_op", delta(&ServerCounters::routed) / ops, "count/op"},
        {"proxy.query_us.p50", query_p50, "us"},
        {"proxy.query_us.p90", percentile(joined.query_us, 0.9), "us"},
        {"proxy.query_us_per_query.p50",
         query_p50 / std::max(1.0, queries_per_frame), "us"},
        {"proxy.handshake_us.p50", percentile(joined.handshake_us, 0.5), "us"},
        {"proxy.handshake_us.p90", percentile(joined.handshake_us, 0.9), "us"},
        {"proxy.restore_s", median(restore_s), "s"},
        {"proxy.trusted_self_us.p50", query_p50 - engine_p50, "us"},
        {"engine.search_or_us.p50", engine_p50, "us"},
        {"engine.search_or_us.p90", percentile(search_or_us, 0.9), "us"},
        {"engine.calls_per_query", static_cast<double>(in_window) / queries, "count/query"},
        {"engine.subqueries_per_query",
         in_window == 0 ? 0.0 : subqueries / static_cast<double>(in_window), "count/query"},
        {"sgx.ecalls_per_query", delta(&ServerCounters::ecalls) / queries, "count/query"},
        {"sgx.ocalls_per_query", delta(&ServerCounters::ocalls) / queries, "count/query"},
        {"sgx.ring_jobs_per_query", delta(&ServerCounters::ring_jobs) / queries,
         "count/query"},
        {"sgx.ring_fallbacks_per_query", delta(&ServerCounters::ring_fallbacks) / queries,
         "count/query"},
        {"sgx.epc_page_faults", static_cast<double>(epc_page_faults), "count"},
        {"xsearch.sessions_created", delta(&ServerCounters::sessions_created), "count"},
        {"xsearch.sessions_evicted", delta(&ServerCounters::sessions_evicted), "count"},
        {"xsearch.history_entries", static_cast<double>(largest_history), "count"},
        {"bench.client_cpu_us_per_query", client_cpu_us / queries, "us"},
        {"bench.gen_late_us.p50", percentile(all.late_us, 0.5), "us"},
        {"bench.gen_late_us.max", percentile(all.late_us, 1.0), "us"},
        {"host.steal_pct", m.steal_pct, "%"},
        // The traced run's own end-to-end figures: against the untraced
        // medians they give the tracing overhead.
        {"traced.qps", e2e[1].value, "1/s"},
        {"traced.p50_ms", e2e[2].value, "ms"},
        {"traced.server_cpu_us_per_query", e2e[4].value, "us"},
    };
    for (const auto& metric : layers) {
      std::printf("%-34s %14.4f %s\n", metric.name.c_str(), metric.value,
                  metric.unit.c_str());
    }
  }

  // ---- result line --------------------------------------------------------------
  const auto& reported = args.trace ? layers : e2e;
  std::string json = "{\"correct\": ";
  json += correct ? "true" : "false";
  json += ", \"attempted\": " + std::to_string(all.attempted);
  json += ", \"failed\": " + std::to_string(all.failed);
  json += ", \"metrics\": {";
  for (std::size_t i = 0; i < reported.size(); ++i) {
    if (i > 0) json += ", ";
    json += "\"" + reported[i].name + "\": {\"value\": " + json_number(reported[i].value) +
            ", \"unit\": \"" + reported[i].unit + "\"}";
  }
  json += "}}";
  std::printf("%s\n", json.c_str());
  std::fflush(stdout);
  return correct ? 0 : 1;
}
