#include "xsearch/filter.hpp"

#include <gtest/gtest.h>

#include "engine/analytics.hpp"
#include "xsearch/wire.hpp"

namespace xsearch::core {
namespace {

engine::SearchResult make_result(std::string title, std::string description,
                                 std::string url = "https://x.example/") {
  engine::SearchResult r;
  r.title = std::move(title);
  r.description = std::move(description);
  r.url = std::move(url);
  return r;
}

TEST(ResultFilter, KeepsResultsMatchingOriginal) {
  ResultFilter filter;
  std::vector<engine::SearchResult> results = {
      make_result("pasta recipes tonight", "pasta sauce tomato"),
      make_result("web privacy tools", "private web search tools"),
  };
  const auto kept = filter.filter("private web search", {"pasta recipes"}, results);
  ASSERT_EQ(kept.size(), 1u);
  EXPECT_EQ(kept[0].title, "web privacy tools");
}

TEST(ResultFilter, DropsResultsMatchingFakesBetter) {
  ResultFilter filter;
  std::vector<engine::SearchResult> results = {
      make_result("pasta recipes tonight", "pasta sauce tomato recipes"),
  };
  const auto kept = filter.filter("quantum physics", {"pasta recipes"}, results);
  EXPECT_TRUE(kept.empty());
}

TEST(ResultFilter, TieGoesToOriginal) {
  // Algorithm 2 keeps a result when score[original] equals the max.
  ResultFilter filter;
  std::vector<engine::SearchResult> results = {
      make_result("shared word here", "nothing else"),
  };
  const auto kept = filter.filter("shared alpha", {"shared beta"}, results);
  ASSERT_EQ(kept.size(), 1u);
}

TEST(ResultFilter, NoFakesKeepsEverything) {
  ResultFilter filter;
  std::vector<engine::SearchResult> results = {
      make_result("anything at all", "whatever"),
      make_result("something else", "entirely"),
  };
  EXPECT_EQ(filter.filter("query", {}, results).size(), 2u);
}

TEST(ResultFilter, EmptyResults) {
  ResultFilter filter;
  EXPECT_TRUE(filter.filter("query", {"fake"}, {}).empty());
}

TEST(ResultFilter, ScoresUseTitleAndDescription) {
  ResultFilter filter;
  // Original matches the title once; fake matches the description twice.
  std::vector<engine::SearchResult> results = {
      make_result("original topic", "fake subject matter fake words subject matter"),
  };
  const auto kept = filter.filter("original", {"fake subject matter"}, results);
  EXPECT_TRUE(kept.empty());  // fake scores 3 (fake+subject+matter), original 1
}

TEST(ResultFilter, StripsTrackingUrls) {
  ResultFilter filter;
  std::vector<engine::SearchResult> results = {
      make_result("match query words", "query words",
                  engine::make_tracking_url("https://real.example/page", 7)),
  };
  const auto kept = filter.filter("query words", {}, results);
  ASSERT_EQ(kept.size(), 1u);
  EXPECT_EQ(kept[0].url, "https://real.example/page");
}

TEST(ResultFilter, StripTrackingLeavesCleanUrls) {
  std::vector<engine::SearchResult> results = {
      make_result("t", "d", "https://already-clean.example/")};
  ResultFilter::strip_tracking(results);
  EXPECT_EQ(results[0].url, "https://already-clean.example/");
}

TEST(ResultFilter, StripsNestedTrackingUrls) {
  // The engine is untrusted: a redirect wrapped in another redirect must be
  // unwrapped all the way, not forwarded one level down.
  ResultFilter filter;
  std::vector<engine::SearchResult> results = {make_result(
      "match query words", "query words",
      engine::make_tracking_url(
          engine::make_tracking_url("https://real.example/page", 2), 1))};
  const auto kept = filter.filter("query words", {}, results);
  ASSERT_EQ(kept.size(), 1u);
  EXPECT_EQ(kept[0].url, "https://real.example/page");
}

TEST(ResultFilter, DropsTrackingUrlWithoutTarget) {
  // A redirect naming no target cannot be scrubbed, so the result is
  // dropped rather than forwarded with the engine's tracking link.
  ResultFilter filter;
  std::vector<engine::SearchResult> results = {
      make_result("match query words", "query words",
                  "https://search.example/l/?track=99"),
      make_result("match query words", "query words",
                  engine::make_tracking_url("https://search.example/l/?track=98", 3)),
      make_result("match query words", "query words", "https://clean.example/"),
  };
  const auto kept = filter.filter("query words", {}, results);
  ASSERT_EQ(kept.size(), 1u);
  EXPECT_EQ(kept[0].url, "https://clean.example/");
  for (const auto& r : kept) EXPECT_FALSE(engine::is_tracking_url(r.url));
}

TEST(ResultFilter, FilterViewsMatchesOwningFilter) {
  // The in-place path (views into the engine's serialized reply) keeps the
  // same results, copied out with tracking stripped.
  std::vector<engine::SearchResult> results = {
      make_result("pasta recipes tonight", "pasta sauce tomato",
                  engine::make_tracking_url("https://pasta.example/", 4)),
      make_result("web privacy tools", "private web search tools",
                  engine::make_tracking_url(
                      engine::make_tracking_url("https://web.example/", 5), 6)),
      make_result("private search", "web", "https://search.example/l/?track=7"),
  };
  for (const FilterScoring scoring :
       {FilterScoring::kCommonWords, FilterScoring::kCosine}) {
    const ResultFilter filter(scoring);
    const Bytes raw = wire::serialize_results(results);
    const auto views = wire::parse_result_views(raw);
    ASSERT_TRUE(views.is_ok());
    const auto kept =
        filter.filter_views("private web search", {"pasta recipes"}, views.value());
    EXPECT_EQ(kept, filter.filter("private web search", {"pasta recipes"}, results));
    ASSERT_EQ(kept.size(), 1u);
    EXPECT_EQ(kept[0].url, "https://web.example/");
  }
}

TEST(ResultFilter, CosineVariantWorks) {
  ResultFilter filter(FilterScoring::kCosine);
  std::vector<engine::SearchResult> results = {
      make_result("private web search guide", "private web search explained"),
      make_result("pasta cooking guide", "pasta recipes explained"),
  };
  const auto kept = filter.filter("private web search", {"pasta cooking"}, results);
  ASSERT_EQ(kept.size(), 1u);
  EXPECT_EQ(kept[0].title, "private web search guide");
}

// ---- wire formats ---------------------------------------------------------------

TEST(Wire, ResultsRoundTrip) {
  std::vector<engine::SearchResult> results = {
      make_result("title one", "desc one", "https://one.example/"),
      make_result("title two", "desc two", "https://two.example/"),
  };
  results[0].doc = 17;
  results[0].score = 3.14;
  const auto parsed = wire::parse_results(wire::serialize_results(results));
  ASSERT_TRUE(parsed.is_ok());
  EXPECT_EQ(parsed.value(), results);
}

TEST(Wire, ResultViewsPointIntoTheBuffer) {
  const std::vector<engine::SearchResult> results = {
      make_result("title one", "desc one", "https://one.example/")};
  const Bytes raw = wire::serialize_results(results);
  const auto views = wire::parse_result_views(raw);
  ASSERT_TRUE(views.is_ok());
  ASSERT_EQ(views.value().size(), 1u);
  const auto& view = views.value()[0];
  const auto* begin = reinterpret_cast<const char*>(raw.data());
  EXPECT_GE(view.title.data(), begin);
  EXPECT_LE(view.url.data() + view.url.size(), begin + raw.size());
  EXPECT_EQ(view.owned(), results[0]);
}

TEST(Wire, EmptyResultsRoundTrip) {
  const auto parsed = wire::parse_results(wire::serialize_results({}));
  ASSERT_TRUE(parsed.is_ok());
  EXPECT_TRUE(parsed.value().empty());
}

TEST(Wire, ParseResultsRejectsTruncation) {
  const Bytes raw = wire::serialize_results({make_result("t", "d")});
  for (const std::size_t cut : {1u, 5u, 10u}) {
    if (cut < raw.size()) {
      EXPECT_FALSE(wire::parse_results(ByteSpan(raw.data(), raw.size() - cut)).is_ok());
    }
  }
}

TEST(Wire, ParseResultsRejectsTrailingGarbage) {
  Bytes raw = wire::serialize_results({});
  raw.push_back(0xff);
  EXPECT_FALSE(wire::parse_results(raw).is_ok());
}

TEST(Wire, EngineRequestRoundTrip) {
  wire::EngineRequest req;
  req.sub_queries = {"alpha", "beta gamma", "delta"};
  req.top_k_each = 17;
  const auto parsed = wire::parse_engine_request(wire::serialize_engine_request(req));
  ASSERT_TRUE(parsed.is_ok());
  EXPECT_EQ(parsed.value().sub_queries, req.sub_queries);
  EXPECT_EQ(parsed.value().top_k_each, 17u);
}

TEST(Wire, ClientQueryMessageRoundTrip) {
  const auto parsed = wire::parse_client_message(wire::frame_query("my secret query"));
  ASSERT_TRUE(parsed.is_ok());
  EXPECT_EQ(parsed.value().type, wire::ClientMessageType::kQuery);
  EXPECT_EQ(parsed.value().query, "my secret query");
}

TEST(Wire, ClientResultsMessageRoundTrip) {
  const auto parsed = wire::parse_client_message(
      wire::frame_results({make_result("t", "d", "https://u.example/")}));
  ASSERT_TRUE(parsed.is_ok());
  EXPECT_EQ(parsed.value().type, wire::ClientMessageType::kResults);
  ASSERT_EQ(parsed.value().results.size(), 1u);
  EXPECT_EQ(parsed.value().results[0].title, "t");
}

TEST(Wire, ClientErrorMessageRoundTrip) {
  const auto parsed = wire::parse_client_message(wire::frame_error("engine down"));
  ASSERT_TRUE(parsed.is_ok());
  EXPECT_EQ(parsed.value().type, wire::ClientMessageType::kError);
  EXPECT_EQ(parsed.value().error, "engine down");
}

TEST(Wire, ClientMessageRejectsEmpty) {
  EXPECT_FALSE(wire::parse_client_message({}).is_ok());
}

TEST(Wire, ClientMessageRejectsUnknownTag) {
  EXPECT_FALSE(wire::parse_client_message(Bytes{99, 0, 0, 0, 0}).is_ok());
}

TEST(Wire, PrimitivesRejectTruncation) {
  Bytes buf;
  wire::put_u32(buf, 7);
  std::size_t offset = 2;
  EXPECT_FALSE(wire::get_u32(ByteSpan(buf.data(), 3), offset).is_ok());
  offset = 0;
  EXPECT_FALSE(wire::get_u64(ByteSpan(buf.data(), 4), offset).is_ok());
}

TEST(Wire, DoubleRoundTrip) {
  Bytes buf;
  wire::put_double(buf, -123.456e-7);
  std::size_t offset = 0;
  const auto v = wire::get_double(buf, offset);
  ASSERT_TRUE(v.is_ok());
  EXPECT_DOUBLE_EQ(v.value(), -123.456e-7);
}

}  // namespace
}  // namespace xsearch::core
