// Wire formats used across the X-Search deployment:
//
//  * client <-> proxy: framed handshake / query / response messages carried
//    inside SecureChannel records;
//  * enclave <-> host <-> engine: the "socket" payloads crossing the ocall
//    boundary (an OR-query request and a serialized result list).
//
// Formats are length-prefixed binary; parsers are total (they never read
// out of bounds and report malformed input as Status).
#pragma once

#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

#include "common/bytes.hpp"
#include "common/status.hpp"
#include "engine/document.hpp"

namespace xsearch::core::wire {

// --- primitives ----------------------------------------------------------

/// Appends a u32-length-prefixed string.
void put_string(Bytes& out, std::string_view s);

/// Reads a u32-length-prefixed string, advancing `offset`.
[[nodiscard]] Result<std::string> get_string(ByteSpan in, std::size_t& offset);

void put_u32(Bytes& out, std::uint32_t v);
[[nodiscard]] Result<std::uint32_t> get_u32(ByteSpan in, std::size_t& offset);

void put_u64(Bytes& out, std::uint64_t v);
[[nodiscard]] Result<std::uint64_t> get_u64(ByteSpan in, std::size_t& offset);

void put_double(Bytes& out, double v);
[[nodiscard]] Result<double> get_double(ByteSpan in, std::size_t& offset);

// --- result lists ---------------------------------------------------------

[[nodiscard]] Bytes serialize_results(const std::vector<engine::SearchResult>& results);
[[nodiscard]] Result<std::vector<engine::SearchResult>> parse_results(ByteSpan raw);

/// parse_results without the copies: the results' text fields are views
/// into `raw`, which must outlive them. Same bounds checks and errors —
/// parse_results is this parser plus `owned()` per result.
[[nodiscard]] Result<std::vector<engine::SearchResultView>> parse_result_views(
    ByteSpan raw);

// --- engine request (crosses the ocall "socket") --------------------------

/// What the enclave writes to the engine socket: the sub-queries of the OR
/// query plus how many results to retrieve per sub-query.
struct EngineRequest {
  std::vector<std::string> sub_queries;
  std::uint32_t top_k_each = 20;
};

[[nodiscard]] Bytes serialize_engine_request(const EngineRequest& request);
[[nodiscard]] Result<EngineRequest> parse_engine_request(ByteSpan raw);

// --- client messages (inside SecureChannel records) ------------------------

enum class ClientMessageType : std::uint8_t {
  kQuery = 1,
  kResults = 2,
  kError = 3,
  kQueryBatch = 4,    // many queries sealed as ONE channel record
  kResultsBatch = 5,  // per-item results/errors, sealed as one record
};

/// Upper bound on queries per batch message. Bounds the work one sealed
/// record can demand from the enclave and the allocation a parsed batch can
/// force; parsers reject bigger (and empty) batches as malformed.
inline constexpr std::size_t kMaxBatchQueries = 64;

/// Outcome of one query inside a batch: either a result list or an error
/// string. Item failures (engine unavailable for one query) must not poison
/// the batch, so each slot carries its own verdict.
struct BatchItem {
  bool ok = false;
  std::vector<engine::SearchResult> results;  // ok
  std::string error;                          // !ok
};

/// Frames a query message (client -> enclave plaintext).
[[nodiscard]] Bytes frame_query(std::string_view query);

/// Frames a results message (enclave -> client plaintext).
[[nodiscard]] Bytes frame_results(const std::vector<engine::SearchResult>& results);

/// Frames an error message.
[[nodiscard]] Bytes frame_error(std::string_view message);

/// Frames a query batch (client -> enclave plaintext): 1..kMaxBatchQueries
/// queries carried in one sealed record, so a batch costs one AEAD
/// seal/open instead of one per query.
[[nodiscard]] Bytes frame_query_batch(const std::vector<std::string>& queries);

/// Frames the per-item outcomes of a batch (enclave -> client plaintext).
[[nodiscard]] Bytes frame_results_batch(const std::vector<BatchItem>& items);

struct ClientMessage {
  ClientMessageType type = ClientMessageType::kError;
  std::string query;                          // kQuery
  std::vector<engine::SearchResult> results;  // kResults
  std::string error;                          // kError
  std::vector<std::string> queries;           // kQueryBatch
  std::vector<BatchItem> batch;               // kResultsBatch
};

[[nodiscard]] Result<ClientMessage> parse_client_message(ByteSpan raw);

}  // namespace xsearch::core::wire
