#include "net/proxy_server.hpp"

#include <algorithm>
#include <cstring>
#include <utility>

#include "net/frame.hpp"
#include "xsearch/wire.hpp"

namespace xsearch::net {

namespace {

/// Per-connection protocol: incremental frame parsing on the loop thread,
/// enclave/handler work on dispatch workers. Job bytes are
/// `[type byte][frame payload]` — the single copy out of the recv buffer.
class FrameProtocol final : public ConnectionProtocol {
 public:
  explicit FrameProtocol(core::ProxyHandler* proxy) : proxy_(proxy) {}

  Action on_input(ByteSpan buffered) override {
    Action action;
    const FrameCursor::Step step = FrameCursor::parse(buffered);
    switch (step.state) {
      case FrameCursor::State::kError:
        // Malformed length word: unrecoverable, mirror the historical
        // silent close (read_frame's DATA_LOSS never produced a reply).
        action.close = true;
        return action;
      case FrameCursor::State::kNeed:
        action.need = step.need;
        // Once the length word is in, the frame has started: the reactor's
        // io budget bounds finishing it (anti-slowloris, as before).
        action.mid_message = buffered.size() >= 4;
        return action;
      case FrameCursor::State::kFrame:
        break;
    }

    const FrameCursor::View& frame = step.frame;
    action.consumed = frame.frame_bytes;

    switch (frame.type) {
      case FrameType::kHello:
        if (frame.payload.size() != crypto::kX25519KeySize) {
          action.reply = encode_error(invalid_argument("bad hello"));
          action.close = true;
          return action;
        }
        break;
      case FrameType::kQuery:
      case FrameType::kBatchQuery:
        if (frame.payload.size() < 8) {
          action.reply = encode_error(invalid_argument("bad query frame"));
          action.close = true;
          return action;
        }
        break;
      default:
        action.reply = encode_error(invalid_argument("unexpected frame"));
        action.close = true;
        return action;
    }

    action.dispatch = true;
    action.deadline = Deadline::from_budget_millis(frame.budget_millis);
    action.job.reserve(1 + frame.payload.size());
    action.job.push_back(static_cast<std::uint8_t>(frame.type));
    append(action.job, frame.payload);
    return action;
  }

  JobResult run_job(ByteSpan job, const Deadline& deadline) override {
    JobResult result;
    const auto type = static_cast<FrameType>(job[0]);
    const ByteSpan payload = job.subspan(1);

    switch (type) {
      case FrameType::kHello: {
        crypto::X25519Key client_pub;
        std::memcpy(client_pub.data(), payload.data(), client_pub.size());
        auto response = proxy_->handshake(client_pub);
        if (!response) {
          result.reply.push_back(encode_error(response.status()));
          result.close = true;
          return result;
        }
        Bytes body;
        core::wire::put_u64(body, response.value().session_id);
        const Bytes quote = response.value().quote.serialize();
        core::wire::put_u32(body, static_cast<std::uint32_t>(quote.size()));
        append(body, quote);
        append(body, response.value().server_ephemeral_pub);
        push_frame(result.reply, FrameType::kHelloReply, std::move(body));
        return result;
      }

      case FrameType::kQuery:
      case FrameType::kBatchQuery: {
        // Identical host-side handling: the frame carries session id + one
        // sealed record; whether that record holds one query or a batch is
        // decided inside the enclave. Only the reply type mirrors the
        // request's.
        const FrameType reply_type = type == FrameType::kQuery
                                         ? FrameType::kQueryReply
                                         : FrameType::kBatchReply;
        std::size_t offset = 0;
        auto session = core::wire::get_u64(payload, offset);
        if (!session) {
          result.reply.push_back(encode_error(invalid_argument("bad query frame")));
          result.close = true;
          return result;
        }
        auto response = proxy_->handle_query_record(
            session.value(), payload.subspan(offset), deadline);
        if (!response) {
          Status status = response.status();
          if (status.code() == StatusCode::kUnavailable) {
            // On the query path UNAVAILABLE means the handler's own
            // dependency (fleet worker, enclave) is the problem — tell the
            // client so it stops retrying a proxy that cannot help it.
            status = upstream_down(status.message());
          }
          result.reply.push_back(encode_error(status));
          return result;  // connection keeps serving, as before
        }
        push_frame(result.reply, reply_type, std::move(response).value());
        return result;
      }

      default:
        result.reply.push_back(encode_error(invalid_argument("unexpected frame")));
        result.close = true;
        return result;
    }
  }

  JobResult shed(const Status& status) override {
    JobResult result;
    result.reply.push_back(encode_error(status));
    result.close = true;
    return result;
  }

  /// One contiguous kErrorStatus frame (header glued to payload — error
  /// paths are cold, a copy is fine).
  [[nodiscard]] static Bytes encode_error(const Status& status) {
    Bytes payload = encode_error_status(status);
    Bytes frame = encode_frame_header(FrameType::kErrorStatus, payload.size())
                      .value();
    append(frame, payload);
    return frame;
  }

 private:
  /// Queues header + payload as separate buffers; the reactor's vectored
  /// write sends both without a gluing copy.
  static void push_frame(std::vector<Bytes>& out, FrameType type,
                         Bytes payload) {
    out.push_back(encode_frame_header(type, payload.size()).value());
    out.push_back(std::move(payload));
  }

  core::ProxyHandler* proxy_;
};

}  // namespace

Result<std::unique_ptr<ProxyServer>> ProxyServer::start(core::ProxyHandler& proxy,
                                                        std::uint16_t port) {
  return start(proxy, port, Options{});
}

Result<std::unique_ptr<ProxyServer>> ProxyServer::start(core::ProxyHandler& proxy,
                                                        std::uint16_t port,
                                                        Options options) {
  auto listener = TcpListener::bind(port);
  if (!listener) return listener.status();

  Reactor::Options reactor_options;
  reactor_options.shards = options.shards;
  reactor_options.dispatch_workers = options.workers;
  reactor_options.dispatch_queue =
      std::max<std::size_t>(1, options.max_pending_connections);
  reactor_options.queue_timeout = options.queue_timeout;
  reactor_options.io_budget = options.io_budget;
  reactor_options.idle_ttl = options.idle_ttl;
  reactor_options.max_connections = options.max_connections;
  reactor_options.accept_fault = std::move(options.accept_fault);
  core::ProxyHandler* handler = &proxy;
  reactor_options.protocol_factory = [handler] {
    return std::make_unique<FrameProtocol>(handler);
  };
  reactor_options.encode_shed = &FrameProtocol::encode_error;

  auto reactor = Reactor::start(std::move(listener).value(),
                                std::move(reactor_options));
  if (!reactor) return reactor.status();
  return std::unique_ptr<ProxyServer>(
      new ProxyServer(proxy, std::move(reactor).value()));
}

ProxyServer::ProxyServer(core::ProxyHandler& proxy,
                         std::unique_ptr<Reactor> reactor)
    : proxy_(&proxy), reactor_(std::move(reactor)) {}

ProxyServer::~ProxyServer() { stop(); }

void ProxyServer::stop() { reactor_->stop(); }

}  // namespace xsearch::net
