#include "engine/result_record.hpp"

#include <cstring>

namespace xsearch::engine {

namespace {

void put_u32(Bytes& out, std::uint32_t v) {
  std::uint8_t buf[4];
  store_be32(buf, v);
  append(out, ByteSpan(buf, sizeof buf));
}

void put_string(Bytes& out, std::string_view s) {
  put_u32(out, static_cast<std::uint32_t>(s.size()));
  append(out, ByteSpan(reinterpret_cast<const std::uint8_t*>(s.data()), s.size()));
}

}  // namespace

void append_record_prefix(Bytes& out, DocId doc, std::string_view title,
                          std::string_view description, std::string_view url) {
  put_u32(out, doc);
  put_string(out, title);
  put_string(out, description);
  put_string(out, url);
}

void append_score(Bytes& out, double score) {
  std::uint64_t bits = 0;
  std::memcpy(&bits, &score, sizeof bits);
  std::uint8_t buf[kScoreWireSize];
  store_be64(buf, bits);
  append(out, ByteSpan(buf, sizeof buf));
}

void append_count(Bytes& out, std::uint32_t count) { put_u32(out, count); }

std::size_t results_wire_size(const std::vector<SearchResult>& results) {
  std::size_t size = kCountWireSize;
  for (const auto& r : results) {
    size += record_prefix_size(r.title, r.description, r.url) + kScoreWireSize;
  }
  return size;
}

void append_results(Bytes& out, const std::vector<SearchResult>& results) {
  out.reserve(out.size() + results_wire_size(results));
  append_count(out, static_cast<std::uint32_t>(results.size()));
  for (const auto& r : results) {
    append_record_prefix(out, r.doc, r.title, r.description, r.url);
    append_score(out, r.score);
  }
}

}  // namespace xsearch::engine
