// The result-list wire format, written in one place.
//
// A serialized result list is a big-endian u32 count followed by one record
// per result:
//
//   u32 doc | u32 len, title | u32 len, description | u32 len, url | u64 score
//
// (all integers big-endian, the score as its IEEE-754 bits). Everything
// before the score depends only on the document, so `SearchEngine` encodes
// that prefix once per document at construction and a reply is the count
// plus, per merged document, a copy of its prefix and its score.
// `core::wire::serialize_results` writes owned results through the same
// functions; the parser (`core::wire::parse_result_views`) stays with the
// enclave code that reads untrusted replies.
#pragma once

#include <cstddef>
#include <cstdint>
#include <string_view>
#include <vector>

#include "common/bytes.hpp"
#include "engine/document.hpp"

namespace xsearch::engine {

/// Wire size of the count that opens a result list.
inline constexpr std::size_t kCountWireSize = 4;

/// Wire size of the score that closes every record.
inline constexpr std::size_t kScoreWireSize = 8;

/// Wire size of a record's document part (doc id and the three
/// length-prefixed fields; everything but the score).
[[nodiscard]] constexpr std::size_t record_prefix_size(std::string_view title,
                                                       std::string_view description,
                                                       std::string_view url) {
  return 4 + 4 + title.size() + 4 + description.size() + 4 + url.size();
}

/// Appends a record's document part.
void append_record_prefix(Bytes& out, DocId doc, std::string_view title,
                          std::string_view description, std::string_view url);

/// Appends the score that closes a record.
void append_score(Bytes& out, double score);

/// Appends the count that opens a result list.
void append_count(Bytes& out, std::uint32_t count);

/// Exact wire size of a whole result list.
[[nodiscard]] std::size_t results_wire_size(const std::vector<SearchResult>& results);

/// Appends a whole result list (count, then each record), reserving its
/// exact size first so the seal/frame path allocates once.
void append_results(Bytes& out, const std::vector<SearchResult>& results);

}  // namespace xsearch::engine
