#include "xsearch/wire.hpp"

#include <algorithm>
#include <cstring>

#include "engine/result_record.hpp"

namespace xsearch::core::wire {

void put_u32(Bytes& out, std::uint32_t v) {
  std::uint8_t buf[4];
  store_be32(buf, v);
  append(out, ByteSpan(buf, 4));
}

Result<std::uint32_t> get_u32(ByteSpan in, std::size_t& offset) {
  if (offset + 4 > in.size()) return data_loss("wire: truncated u32");
  const std::uint32_t v = load_be32(in.data() + offset);
  offset += 4;
  return v;
}

void put_u64(Bytes& out, std::uint64_t v) {
  std::uint8_t buf[8];
  store_be64(buf, v);
  append(out, ByteSpan(buf, 8));
}

Result<std::uint64_t> get_u64(ByteSpan in, std::size_t& offset) {
  if (offset + 8 > in.size()) return data_loss("wire: truncated u64");
  std::uint64_t hi = load_be32(in.data() + offset);
  std::uint64_t lo = load_be32(in.data() + offset + 4);
  offset += 8;
  return (hi << 32) | lo;
}

void put_double(Bytes& out, double v) {
  std::uint64_t bits = 0;
  std::memcpy(&bits, &v, sizeof bits);
  put_u64(out, bits);
}

Result<double> get_double(ByteSpan in, std::size_t& offset) {
  auto bits = get_u64(in, offset);
  if (!bits) return bits.status();
  double v = 0;
  const std::uint64_t b = bits.value();
  std::memcpy(&v, &b, sizeof v);
  return v;
}

void put_string(Bytes& out, std::string_view s) {
  put_u32(out, static_cast<std::uint32_t>(s.size()));
  append(out, to_bytes(s));
}

namespace {

/// get_string as a view into `in` (no copy).
Result<std::string_view> get_string_view(ByteSpan in, std::size_t& offset) {
  auto len = get_u32(in, offset);
  if (!len) return len.status();
  if (offset + len.value() > in.size()) return data_loss("wire: truncated string");
  const std::string_view s(reinterpret_cast<const char*>(in.data() + offset),
                           len.value());
  offset += len.value();
  return s;
}

}  // namespace

Result<std::string> get_string(ByteSpan in, std::size_t& offset) {
  auto s = get_string_view(in, offset);
  if (!s) return s.status();
  return std::string(s.value());
}

namespace {

// Smallest wire size of one result: doc, three empty strings, score.
constexpr std::size_t kMinResultWireSize = 4 + 3 * 4 + 8;

/// Parses one result list *prefix* of `raw` starting at `offset`, as views
/// into `raw`. The batch framing concatenates several lists, so unlike
/// parse_results this must not require the list to exhaust the input.
Result<std::vector<engine::SearchResultView>> parse_result_views_at(
    ByteSpan raw, std::size_t& offset) {
  auto count = get_u32(raw, offset);
  if (!count) return count.status();
  std::vector<engine::SearchResultView> results;
  // The count is untrusted: reserve no more than the bytes left can hold.
  results.reserve(std::min<std::size_t>(
      count.value(), (raw.size() - offset) / kMinResultWireSize));
  for (std::uint32_t i = 0; i < count.value(); ++i) {
    engine::SearchResultView r;
    auto doc = get_u32(raw, offset);
    if (!doc) return doc.status();
    r.doc = doc.value();
    auto title = get_string_view(raw, offset);
    if (!title) return title.status();
    r.title = title.value();
    auto desc = get_string_view(raw, offset);
    if (!desc) return desc.status();
    r.description = desc.value();
    auto url = get_string_view(raw, offset);
    if (!url) return url.status();
    r.url = url.value();
    auto score = get_double(raw, offset);
    if (!score) return score.status();
    r.score = score.value();
    results.push_back(r);
  }
  return results;
}

Result<std::vector<engine::SearchResult>> owned_results(
    const Result<std::vector<engine::SearchResultView>>& views) {
  if (!views) return views.status();
  std::vector<engine::SearchResult> results;
  results.reserve(views.value().size());
  for (const auto& view : views.value()) results.push_back(view.owned());
  return results;
}

Result<std::vector<engine::SearchResult>> parse_results_at(ByteSpan raw,
                                                           std::size_t& offset) {
  return owned_results(parse_result_views_at(raw, offset));
}

/// A batch count of zero is as malformed as an oversized one: an empty
/// batch would make the enclave seal a reply for nothing.
Status check_batch_count(std::uint32_t count) {
  if (count == 0) return data_loss("wire: empty batch");
  if (count > kMaxBatchQueries) return data_loss("wire: batch too large");
  return Status::ok();
}

}  // namespace

Bytes serialize_results(const std::vector<engine::SearchResult>& results) {
  Bytes out;
  engine::append_results(out, results);
  return out;
}

Result<std::vector<engine::SearchResultView>> parse_result_views(ByteSpan raw) {
  std::size_t offset = 0;
  auto results = parse_result_views_at(raw, offset);
  if (!results) return results.status();
  if (offset != raw.size()) return data_loss("wire: trailing bytes after results");
  return results;
}

Result<std::vector<engine::SearchResult>> parse_results(ByteSpan raw) {
  return owned_results(parse_result_views(raw));
}

Bytes serialize_engine_request(const EngineRequest& request) {
  std::size_t size = 8;
  for (const auto& q : request.sub_queries) size += 4 + q.size();
  Bytes out;
  out.reserve(size);
  put_u32(out, request.top_k_each);
  put_u32(out, static_cast<std::uint32_t>(request.sub_queries.size()));
  for (const auto& q : request.sub_queries) put_string(out, q);
  return out;
}

Result<EngineRequest> parse_engine_request(ByteSpan raw) {
  std::size_t offset = 0;
  EngineRequest req;
  auto top_k = get_u32(raw, offset);
  if (!top_k) return top_k.status();
  req.top_k_each = top_k.value();
  auto count = get_u32(raw, offset);
  if (!count) return count.status();
  for (std::uint32_t i = 0; i < count.value(); ++i) {
    auto q = get_string(raw, offset);
    if (!q) return q.status();
    req.sub_queries.push_back(std::move(q).value());
  }
  if (offset != raw.size()) return data_loss("wire: trailing bytes after request");
  return req;
}

Bytes frame_query(std::string_view query) {
  Bytes out;
  out.push_back(static_cast<std::uint8_t>(ClientMessageType::kQuery));
  put_string(out, query);
  return out;
}

Bytes frame_results(const std::vector<engine::SearchResult>& results) {
  Bytes out;
  out.reserve(1 + engine::results_wire_size(results));
  out.push_back(static_cast<std::uint8_t>(ClientMessageType::kResults));
  engine::append_results(out, results);
  return out;
}

Bytes frame_error(std::string_view message) {
  Bytes out;
  out.push_back(static_cast<std::uint8_t>(ClientMessageType::kError));
  put_string(out, message);
  return out;
}

Bytes frame_query_batch(const std::vector<std::string>& queries) {
  std::size_t size = 1 + 4;
  for (const auto& q : queries) size += 4 + q.size();
  Bytes out;
  out.reserve(size);
  out.push_back(static_cast<std::uint8_t>(ClientMessageType::kQueryBatch));
  put_u32(out, static_cast<std::uint32_t>(queries.size()));
  for (const auto& q : queries) put_string(out, q);
  return out;
}

Bytes frame_results_batch(const std::vector<BatchItem>& items) {
  std::size_t size = 1 + 4;
  for (const auto& item : items) {
    size += 1;
    size += item.ok ? engine::results_wire_size(item.results) : 4 + item.error.size();
  }
  Bytes out;
  out.reserve(size);
  out.push_back(static_cast<std::uint8_t>(ClientMessageType::kResultsBatch));
  put_u32(out, static_cast<std::uint32_t>(items.size()));
  for (const auto& item : items) {
    out.push_back(item.ok ? 1 : 0);
    if (item.ok) {
      engine::append_results(out, item.results);
    } else {
      put_string(out, item.error);
    }
  }
  return out;
}

Result<ClientMessage> parse_client_message(ByteSpan raw) {
  if (raw.empty()) return data_loss("wire: empty client message");
  ClientMessage msg;
  const auto type = static_cast<ClientMessageType>(raw[0]);
  const ByteSpan payload = raw.subspan(1);
  std::size_t offset = 0;
  switch (type) {
    case ClientMessageType::kQuery: {
      auto q = get_string(payload, offset);
      if (!q) return q.status();
      msg.type = ClientMessageType::kQuery;
      msg.query = std::move(q).value();
      return msg;
    }
    case ClientMessageType::kResults: {
      auto results = parse_results(payload);
      if (!results) return results.status();
      msg.type = ClientMessageType::kResults;
      msg.results = std::move(results).value();
      return msg;
    }
    case ClientMessageType::kError: {
      auto e = get_string(payload, offset);
      if (!e) return e.status();
      msg.type = ClientMessageType::kError;
      msg.error = std::move(e).value();
      return msg;
    }
    case ClientMessageType::kQueryBatch: {
      auto count = get_u32(payload, offset);
      if (!count) return count.status();
      XS_RETURN_IF_ERROR(check_batch_count(count.value()));
      msg.queries.reserve(count.value());
      for (std::uint32_t i = 0; i < count.value(); ++i) {
        auto q = get_string(payload, offset);
        if (!q) return q.status();
        msg.queries.push_back(std::move(q).value());
      }
      if (offset != payload.size()) {
        return data_loss("wire: trailing bytes after query batch");
      }
      msg.type = ClientMessageType::kQueryBatch;
      return msg;
    }
    case ClientMessageType::kResultsBatch: {
      auto count = get_u32(payload, offset);
      if (!count) return count.status();
      XS_RETURN_IF_ERROR(check_batch_count(count.value()));
      msg.batch.reserve(count.value());
      for (std::uint32_t i = 0; i < count.value(); ++i) {
        if (offset >= payload.size()) return data_loss("wire: truncated batch");
        BatchItem item;
        item.ok = payload[offset] != 0;
        ++offset;
        if (item.ok) {
          auto results = parse_results_at(payload, offset);
          if (!results) return results.status();
          item.results = std::move(results).value();
        } else {
          auto e = get_string(payload, offset);
          if (!e) return e.status();
          item.error = std::move(e).value();
        }
        msg.batch.push_back(std::move(item));
      }
      if (offset != payload.size()) {
        return data_loss("wire: trailing bytes after results batch");
      }
      msg.type = ClientMessageType::kResultsBatch;
      return msg;
    }
  }
  return data_loss("wire: unknown client message type");
}

}  // namespace xsearch::core::wire
