// Network client broker: the client-side daemon of §4.2 speaking to a
// ProxyServer over TCP instead of in-process calls.
//
// Behaviour is identical to core::ClientBroker — attest the enclave behind
// the server before trusting it, then exchange encrypted records — with the
// frames of net/frame.hpp as transport.
//
// Robustness model (one request = one `search`/`search_batch` call):
//
//  * Every call runs under an end-to-end deadline derived from
//    `Options::request_budget` (0 = none). The deadline bounds every socket
//    operation, rides the wire as the frame budget so the server can
//    refuse work it cannot finish in time, and caps the retry loop.
//  * The proxy's session table is bounded (LRU + idle TTL), so an
//    established session can legitimately disappear between two queries;
//    the connection can also die (server restart, shed connection). The
//    broker recovers by discarding the channel, re-attesting through a
//    fresh handshake, and retrying under `Options::retry` — capped
//    attempts with decorrelated-jitter backoff — as long as the
//    per-connection `RetryBudget` has tokens and the deadline has time.
//    Failures during the initial attestation itself (wrong measurement,
//    rogue authority, refused connection) are never retried.
//  * A client-side `CircuitBreaker` (optional) watches transport-level
//    outcomes; while it is open, calls fail fast with UPSTREAM_DOWN and
//    never touch the wire, then half-open probes restore service.
#pragma once

#include <functional>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "common/circuit_breaker.hpp"
#include "common/deadline.hpp"
#include "common/retry.hpp"
#include "common/rng.hpp"
#include "crypto/random.hpp"
#include "crypto/secure_channel.hpp"
#include "engine/document.hpp"
#include "net/frame.hpp"
#include "net/socket.hpp"
#include "sgx/attestation.hpp"
#include "xsearch/broker.hpp"
#include "xsearch/wire.hpp"

namespace xsearch::net {

class RemoteBroker {
 public:
  struct Options {
    /// End-to-end budget for one `search`/`search_batch` call, covering
    /// every attempt, backoff pause, and socket operation. 0 = unbounded
    /// (the historical behavior). Also carried on the wire (frame budget) so
    /// the server sheds work whose budget already expired.
    Nanos request_budget = 0;
    /// Budget for connect + attested handshake (0 = unbounded). Always
    /// additionally capped by the remaining request budget.
    Nanos connect_budget = 0;
    /// Attempt cap + backoff curve for session-recovery retries. The
    /// default (two attempts) preserves the historical retry-exactly-once.
    RetryPolicy retry;
    /// Token bucket damping retry storms across the connection's lifetime.
    RetryBudget::Options retry_budget;
    /// Client-side breaker over transport-level outcomes. Disabled by
    /// default; when enabled, open-state calls fail fast without wire I/O.
    bool breaker_enabled = false;
    CircuitBreaker::Options breaker;
    /// Test seam: wraps the freshly connected TcpStream (e.g. in a
    /// ChaosSocket). Default: the plain stream.
    std::function<std::unique_ptr<ByteStream>(TcpStream)> wrap_stream;
  };

  RemoteBroker(std::string host, std::uint16_t port,
               const sgx::AttestationAuthority& authority,
               const sgx::Measurement& expected_measurement, std::uint64_t seed);
  RemoteBroker(std::string host, std::uint16_t port,
               const sgx::AttestationAuthority& authority,
               const sgx::Measurement& expected_measurement, std::uint64_t seed,
               Options options);

  /// Connects, attests, establishes the channel. Idempotent.
  [[nodiscard]] Status connect();

  /// One private search over the network, within the request budget.
  /// Transparently re-handshakes and retries (policy- and budget-capped)
  /// when the proxy evicted/expired the session or the connection broke
  /// mid-query.
  [[nodiscard]] Result<std::vector<engine::SearchResult>> search(
      std::string_view query);

  /// Many private searches in one kBatchQuery frame: ONE sealed record
  /// each way and one TCP round trip, so AEAD and syscall cost amortize
  /// over the batch (bounded by core::wire::kMaxBatchQueries).
  /// Whole-batch transport failures are the returned status; per-query
  /// failures are per-item. Re-handshakes and retries like `search`.
  ///
  /// Retry semantics are *at-least-once*, and only where unavoidable. The
  /// batch travels as one frame, so per-item delivery states do not exist:
  ///  * per-item failures in a received reply are final (deterministic
  ///    engine/proxy verdicts) — they are NOT blindly retried;
  ///  * a failure before the frame reached the wire — and a frame-level
  ///    error reply, which means the proxy refused the record without
  ///    opening it — retries with exactly-once semantics;
  ///  * a frame that was sent but whose reply was lost (dead connection,
  ///    garbled reply) is the ambiguous case: the proxy may have executed
  ///    the whole batch, and the retry may execute it again (duplicate
  ///    history entries and engine traffic, no channel-safety impact).
  ///    These retries are counted in `at_least_once_retries()` so
  ///    deployments can observe the duplication risk they actually took.
  [[nodiscard]] Result<std::vector<core::BatchOutcome>> search_batch(
      const std::vector<std::string>& queries);

  [[nodiscard]] bool connected() const { return channel_.has_value(); }

  /// Times the broker had to tear down and re-establish the session.
  [[nodiscard]] std::uint64_t reconnects() const { return reconnects_; }

  /// Retries that re-sent a query/batch frame whose reply was LOST after
  /// delivery (dead connection, garbled reply): the at-least-once window,
  /// where the proxy may have executed the work twice. Never-delivered
  /// frames and frame-level error replies (the proxy refused the record
  /// without opening it) do not count — those retries are exactly-once.
  [[nodiscard]] std::uint64_t at_least_once_retries() const {
    return at_least_once_retries_;
  }

  /// Retries the token bucket refused (storm damping kicked in).
  [[nodiscard]] std::uint64_t retries_budget_denied() const {
    return retries_budget_denied_;
  }

  /// Current session id (0 before connect). Routing metadata only.
  [[nodiscard]] std::uint64_t session_id() const { return session_id_; }

  /// Wire round trips (frames) and queries carried — the amortization the
  /// fleet bench reports as seal/open ops per query.
  [[nodiscard]] std::uint64_t frames_sent() const { return frames_sent_; }
  [[nodiscard]] std::uint64_t queries_sent() const { return queries_sent_; }

  /// Client-side breaker state ({} when the breaker is disabled).
  [[nodiscard]] CircuitBreaker::Stats breaker_stats() const {
    return breaker_ != nullptr ? breaker_->stats() : CircuitBreaker::Stats{};
  }

 private:
  /// One attempt; sets `retryable` when the failure left the session
  /// unusable (channel nonce desync or dead transport) and a fresh
  /// handshake may succeed, and `delivered` once the request frame was
  /// handed to the transport (after which a retry is at-least-once).
  [[nodiscard]] Result<std::vector<engine::SearchResult>> search_once(
      std::string_view query, const Deadline& deadline, bool& retryable,
      bool& delivered);
  [[nodiscard]] Result<std::vector<core::BatchOutcome>> search_batch_once(
      const std::vector<std::string>& queries, const Deadline& deadline,
      bool& retryable, bool& delivered);
  /// Shared query/batch transport: seals `message`, sends it as `type`,
  /// expects `reply_type`, opens and parses the reply.
  [[nodiscard]] Result<core::wire::ClientMessage> round_trip(
      FrameType type, FrameType reply_type, ByteSpan message,
      const Deadline& deadline, bool& retryable, bool& delivered);
  [[nodiscard]] Status connect_within(const Deadline& deadline);
  void reset_session();
  /// Overall deadline for one client call.
  [[nodiscard]] Deadline request_deadline() const {
    return options_.request_budget > 0 ? Deadline::after(options_.request_budget)
                                       : Deadline();
  }
  /// Breaker bookkeeping for one attempt's outcome.
  void record_breaker_outcome(const Status& status);
  /// Decides whether to go around the retry loop again; on yes, resets the
  /// session, sleeps out the backoff (deadline-capped) and returns true.
  [[nodiscard]] bool prepare_retry(RetryState& retry, const Deadline& deadline,
                                   bool retryable, bool delivered);

  std::string host_;
  std::uint16_t port_;
  const sgx::AttestationAuthority* authority_;
  sgx::Measurement expected_measurement_;
  crypto::SecureRandom rng_;
  Options options_;
  RetryBudget retry_budget_;
  std::unique_ptr<CircuitBreaker> breaker_;
  Rng jitter_rng_;

  std::unique_ptr<ByteStream> stream_;
  std::optional<crypto::SecureChannel> channel_;
  std::uint64_t session_id_ = 0;
  std::uint64_t reconnects_ = 0;
  std::uint64_t at_least_once_retries_ = 0;
  std::uint64_t retries_budget_denied_ = 0;
  std::uint64_t frames_sent_ = 0;
  std::uint64_t queries_sent_ = 0;
};

}  // namespace xsearch::net
