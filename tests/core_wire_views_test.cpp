// Untrusted engine bytes: the in-place result-list parser.
//
// The enclave parses the engine's reply in place (wire::parse_result_views),
// so every view it hands to the filter points into a buffer the untrusted
// host filled. This test cuts a valid serialized list at every byte offset
// and sets each length prefix to 0xFFFFFFFF; every such input must come back
// as a data_loss error. Each input sits in its own exactly-sized heap buffer,
// so under the ASan CI leg a read past its end aborts the test.
#include <gtest/gtest.h>

#include <algorithm>
#include <memory>
#include <string>
#include <string_view>
#include <vector>

#include "engine/analytics.hpp"
#include "xsearch/wire.hpp"

namespace xsearch::core {
namespace {

std::vector<engine::SearchResult> sample_results() {
  std::vector<engine::SearchResult> results(3);
  results[0] = {7, "private web search", "a description of some length",
                engine::make_tracking_url("https://one.example/", 1), 1.5};
  results[1] = {8, "", "", "", 0.0};  // empty strings: zero-length prefixes
  results[2] = {9, "t", "d", "https://three.example/", -2.25};
  return results;
}

// Offsets of the u32 length prefixes in a serialized list: the count, then
// per result the title, description and url lengths (doc and score are
// fixed-width fields between them).
std::vector<std::size_t> length_prefix_offsets(
    const std::vector<engine::SearchResult>& results) {
  std::vector<std::size_t> offsets = {0};
  std::size_t at = 4;
  for (const auto& r : results) {
    at += 4;  // doc
    for (const std::string* field : {&r.title, &r.description, &r.url}) {
      offsets.push_back(at);
      at += 4 + field->size();
    }
    at += 8;  // score
  }
  return offsets;
}

void expect_data_loss(const Bytes& input, const std::string& what,
                      std::string_view message = {}) {
  // A fresh allocation of exactly input.size() bytes: no slack for an
  // out-of-bounds read to land in unnoticed.
  const auto heap = std::make_unique<std::uint8_t[]>(input.size());
  std::copy(input.begin(), input.end(), heap.get());
  const ByteSpan span(heap.get(), input.size());

  const auto views = wire::parse_result_views(span);
  ASSERT_FALSE(views.is_ok()) << what;
  EXPECT_EQ(views.status().code(), StatusCode::kDataLoss) << what;
  if (!message.empty()) EXPECT_EQ(views.status().message(), message) << what;
  const auto owned = wire::parse_results(span);
  ASSERT_FALSE(owned.is_ok()) << what;
  EXPECT_EQ(owned.status().code(), StatusCode::kDataLoss) << what;
  EXPECT_EQ(owned.status().message(), views.status().message()) << what;
}

TEST(WireResultViews, ParsesValidListInPlace) {
  const auto results = sample_results();
  const Bytes raw = wire::serialize_results(results);
  const auto views = wire::parse_result_views(raw);
  ASSERT_TRUE(views.is_ok());
  ASSERT_EQ(views.value().size(), results.size());
  const auto* begin = reinterpret_cast<const char*>(raw.data());
  for (std::size_t i = 0; i < results.size(); ++i) {
    const auto& view = views.value()[i];
    EXPECT_EQ(view.owned(), results[i]);
    for (const std::string_view field : {view.title, view.description, view.url}) {
      if (field.empty()) continue;
      EXPECT_GE(field.data(), begin);
      EXPECT_LE(field.data() + field.size(), begin + raw.size());
    }
  }
}

TEST(WireResultViews, EveryTruncationIsDataLoss) {
  const Bytes raw = wire::serialize_results(sample_results());
  for (std::size_t cut = 0; cut < raw.size(); ++cut) {
    expect_data_loss(Bytes(raw.begin(), raw.begin() + static_cast<std::ptrdiff_t>(cut)),
                     "cut at " + std::to_string(cut));
  }
}

TEST(WireResultViews, HugeLengthPrefixIsDataLoss) {
  const auto results = sample_results();
  const Bytes raw = wire::serialize_results(results);
  const auto offsets = length_prefix_offsets(results);
  for (const std::size_t at : offsets) {
    ASSERT_LE(at + 4, raw.size());
    Bytes corrupt = raw;
    store_be32(corrupt.data() + at, 0xFFFFFFFFu);
    // The string's own bounds check must catch it, not a later field.
    expect_data_loss(corrupt, "length prefix at " + std::to_string(at),
                     at == 0 ? "wire: truncated u32" : "wire: truncated string");
  }
}

TEST(WireResultViews, TrailingBytesAreDataLoss) {
  Bytes raw = wire::serialize_results(sample_results());
  raw.push_back(0);
  expect_data_loss(raw, "trailing byte");
}

}  // namespace
}  // namespace xsearch::core
