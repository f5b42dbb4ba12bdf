#include "net/remote_broker.hpp"

#include <chrono>
#include <cstring>
#include <thread>

#include "xsearch/wire.hpp"

namespace xsearch::net {

RemoteBroker::RemoteBroker(std::string host, std::uint16_t port,
                           const sgx::AttestationAuthority& authority,
                           const sgx::Measurement& expected_measurement,
                           std::uint64_t seed)
    : RemoteBroker(std::move(host), port, authority, expected_measurement, seed,
                   Options{}) {}

RemoteBroker::RemoteBroker(std::string host, std::uint16_t port,
                           const sgx::AttestationAuthority& authority,
                           const sgx::Measurement& expected_measurement,
                           std::uint64_t seed, Options options)
    : host_(std::move(host)),
      port_(port),
      authority_(&authority),
      expected_measurement_(expected_measurement),
      rng_(crypto::domain_seed(seed, /*tag=*/0xb0)),  // remote-broker domain separation
      options_(std::move(options)),
      retry_budget_(options_.retry_budget),
      jitter_rng_(seed) {  // backoff jitter needs no crypto strength
  if (options_.breaker_enabled) {
    breaker_ = std::make_unique<CircuitBreaker>(options_.breaker);
  }
}

Status RemoteBroker::connect() { return connect_within(request_deadline()); }

Status RemoteBroker::connect_within(const Deadline& deadline) {
  if (channel_.has_value()) return Status::ok();

  // The handshake gets its own (tighter) budget on top of the request's:
  // a stalled attestation should fail fast, not eat the whole deadline.
  Deadline effective = deadline;
  if (options_.connect_budget > 0) {
    effective = effective.min(Deadline::after(options_.connect_budget));
  }

  auto stream = TcpStream::connect(host_, port_);
  if (!stream) return stream.status();
  if (options_.wrap_stream) {
    stream_ = options_.wrap_stream(std::move(stream).value());
  } else {
    stream_ = std::make_unique<TcpStream>(std::move(stream).value());
  }

  const auto ephemeral = crypto::x25519_keypair_from_seed(rng_.key());

  // The hello carries the handshake's own budget, so the server sheds an
  // attestation the client has already given up on.
  XS_RETURN_IF_ERROR(
      write_frame(*stream_, FrameType::kHello, ephemeral.public_key, effective));
  auto reply = read_frame(*stream_, effective);
  if (!reply) return reply.status();
  if (reply.value().type == FrameType::kErrorStatus) {
    return decode_error_status(reply.value().payload);
  }
  if (reply.value().type != FrameType::kHelloReply) {
    return data_loss("unexpected frame type in handshake");
  }

  const ByteSpan payload(reply.value().payload);
  std::size_t offset = 0;
  auto session = core::wire::get_u64(payload, offset);
  if (!session) return session.status();
  auto quote_len = core::wire::get_u32(payload, offset);
  if (!quote_len) return quote_len.status();
  if (offset + quote_len.value() + crypto::kX25519KeySize != payload.size()) {
    return data_loss("malformed hello reply");
  }
  auto quote = sgx::Quote::deserialize(payload.subspan(offset, quote_len.value()));
  if (!quote) return quote.status();
  offset += quote_len.value();
  crypto::X25519Key server_eph;
  std::memcpy(server_eph.data(), payload.data() + offset, server_eph.size());

  // Attestation gate: refuse to key the channel unless the quote is genuine
  // and names the expected enclave code.
  auto static_pub = sgx::verify_and_extract_channel_key(*authority_, quote.value(),
                                                        expected_measurement_);
  if (!static_pub) return static_pub.status();

  channel_.emplace(
      crypto::SecureChannel::initiator(ephemeral, static_pub.value(), server_eph));
  session_id_ = session.value();
  return Status::ok();
}

void RemoteBroker::reset_session() {
  stream_.reset();
  channel_.reset();
  session_id_ = 0;
}

void RemoteBroker::record_breaker_outcome(const Status& status) {
  if (breaker_ == nullptr) return;
  if (status.is_ok()) {
    breaker_->record_success();
    return;
  }
  switch (status.code()) {
    // Transport/dependency health signals: the proxy (or its engine) is
    // unreachable, shedding, or too slow. These trip the breaker.
    case StatusCode::kUnavailable:
    case StatusCode::kDeadlineExceeded:
    case StatusCode::kDataLoss:
    case StatusCode::kOverloaded:
    case StatusCode::kUpstreamDown:
      breaker_->record_failure();
      break;
    default:
      // Deterministic verdicts (bad argument, auth failure, unknown
      // session) say nothing about proxy health.
      break;
  }
}

bool RemoteBroker::prepare_retry(RetryState& retry, const Deadline& deadline,
                                 bool retryable, bool delivered) {
  if (!retryable || !retry.should_retry() || deadline.expired()) return false;
  if (!retry_budget_.try_spend()) {
    // Bucket empty: a persistently failing proxy degrades this connection
    // to one attempt per request instead of multiplying load.
    ++retries_budget_denied_;
    return false;
  }
  if (delivered) ++at_least_once_retries_;
  reset_session();
  ++reconnects_;
  Nanos pause = retry.next_backoff(jitter_rng_);
  if (!deadline.is_infinite() && pause > deadline.remaining()) {
    pause = deadline.remaining();
  }
  if (pause > 0) {
    std::this_thread::sleep_for(std::chrono::nanoseconds(pause));
  }
  return true;
}

Result<std::vector<engine::SearchResult>> RemoteBroker::search(std::string_view query) {
  const Deadline deadline = request_deadline();
  retry_budget_.record_request();
  RetryState retry(options_.retry);
  for (;;) {
    if (breaker_ != nullptr && !breaker_->allow()) {
      // Fast fail: no connect, no frame, no wire bytes while open.
      return upstream_down("broker: circuit breaker open");
    }
    bool retryable = false;
    bool delivered = false;
    auto attempt = search_once(query, deadline, retryable, delivered);
    retry.note_attempt();
    record_breaker_outcome(attempt.status());
    if (attempt.is_ok()) return attempt;
    // The session died under us (bounded-table eviction, idle expiry,
    // broken or shed connection) or the channel desynced: fresh attested
    // handshake, bounded retries with jittered backoff. If the frame had
    // already been delivered, the retry may re-execute the query on the
    // proxy (at-least-once, counted).
    if (!prepare_retry(retry, deadline, retryable, delivered)) return attempt;
  }
}

Result<core::wire::ClientMessage> RemoteBroker::round_trip(
    FrameType type, FrameType reply_type, ByteSpan message,
    const Deadline& deadline, bool& retryable, bool& delivered) {
  XS_RETURN_IF_ERROR(connect_within(deadline));

  Bytes payload;
  core::wire::put_u64(payload, session_id_);
  append(payload, channel_->seal(message));
  if (auto written = write_frame(*stream_, type, payload, deadline);
      !written.is_ok()) {
    // The frame never reached the transport: retrying cannot duplicate
    // work on the proxy.
    retryable = true;
    return written;
  }
  delivered = true;
  ++frames_sent_;

  auto reply = read_frame(*stream_, deadline);
  if (!reply) {
    retryable = true;
    return reply.status();
  }
  if (reply.value().type == FrameType::kErrorStatus) {
    // A frame-level error means the proxy never opened our record (unknown
    // session, auth failure, deadline or overload shed, breaker open): our
    // send counter advanced but the proxy's receive counter did not, so the
    // channel is unusable — and since nothing was executed, a retry cannot
    // duplicate work. The typed status lets the caller (and its breaker)
    // tell the causes apart.
    retryable = true;
    delivered = false;
    return decode_error_status(reply.value().payload);
  }
  if (reply.value().type != reply_type) {
    retryable = true;
    return data_loss("unexpected frame type in query reply");
  }

  auto plaintext = channel_->open(reply.value().payload);
  if (!plaintext) {
    retryable = true;
    return plaintext.status();
  }
  return core::wire::parse_client_message(plaintext.value());
}

Result<std::vector<engine::SearchResult>> RemoteBroker::search_once(
    std::string_view query, const Deadline& deadline, bool& retryable,
    bool& delivered) {
  auto message =
      round_trip(FrameType::kQuery, FrameType::kQueryReply,
                 core::wire::frame_query(query), deadline, retryable, delivered);
  if (!message) return message.status();
  ++queries_sent_;
  if (message.value().type == core::wire::ClientMessageType::kError) {
    return unavailable("proxy error: " + message.value().error);
  }
  if (message.value().type != core::wire::ClientMessageType::kResults) {
    return data_loss("unexpected message type from proxy");
  }
  return std::move(message).value().results;
}

Result<std::vector<core::BatchOutcome>> RemoteBroker::search_batch(
    const std::vector<std::string>& queries) {
  const Deadline deadline = request_deadline();
  retry_budget_.record_request();
  RetryState retry(options_.retry);
  for (;;) {
    if (breaker_ != nullptr && !breaker_->allow()) {
      return upstream_down("broker: circuit breaker open");
    }
    bool retryable = false;
    bool delivered = false;
    auto attempt = search_batch_once(queries, deadline, retryable, delivered);
    retry.note_attempt();
    record_breaker_outcome(attempt.status());
    if (attempt.is_ok()) return attempt;
    // A parsed reply with per-item failures is NOT retryable (those
    // verdicts are final and a blind batch re-send would duplicate the
    // successful items); only transport/session-level failures reach here.
    // A batch that never hit the wire retries exactly-once; one that did is
    // the counted at-least-once case — the reply was lost, so the whole
    // frame (the smallest unit the proxy can execute) must be re-sent.
    if (!prepare_retry(retry, deadline, retryable, delivered)) return attempt;
  }
}

Result<std::vector<core::BatchOutcome>> RemoteBroker::search_batch_once(
    const std::vector<std::string>& queries, const Deadline& deadline,
    bool& retryable, bool& delivered) {
  XS_RETURN_IF_ERROR(core::check_batch_request_size(queries.size()));
  auto message = round_trip(FrameType::kBatchQuery, FrameType::kBatchReply,
                            core::wire::frame_query_batch(queries), deadline,
                            retryable, delivered);
  if (!message) return message.status();
  queries_sent_ += queries.size();
  return core::decode_batch_reply(std::move(message).value(), queries.size());
}

}  // namespace xsearch::net
