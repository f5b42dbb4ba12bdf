// The engine's encoded replies against an independent reference.
//
// SearchEngine answers from result records rendered once at construction
// and from precomputed BM25 impacts. These tests pin that the bytes it
// sends are exactly what the straightforward engine would send: BM25
// evaluated term by term with on-the-fly idf and length normalization, each
// result decorated per query (title, 25-word snippet, tracking URL), the
// sub-query lists merged rank by rank, and the list encoded field by field
// with the wire primitives. Every reply is compared three ways:
// `search_or_encoded` == `wire::serialize_results(search_or(...))` ==
// the reference encoding.
#include <gtest/gtest.h>

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <limits>
#include <map>
#include <string>
#include <unordered_map>
#include <unordered_set>
#include <vector>

#include "common/rng.hpp"
#include "dataset/synthetic.hpp"
#include "engine/analytics.hpp"
#include "engine/corpus.hpp"
#include "engine/index.hpp"
#include "engine/search_engine.hpp"
#include "text/tokenizer.hpp"
#include "xsearch/wire.hpp"

namespace xsearch::engine {
namespace {

constexpr std::size_t kMaxTopK = std::numeric_limits<std::uint32_t>::max();

// ---- reference engine ---------------------------------------------------------

/// BM25 as a per-query loop over raw postings: idf from the document
/// frequency and the length norm from the document's boosted length,
/// computed for every posting a query touches.
class ReferenceIndex {
 public:
  explicit ReferenceIndex(Bm25Params params = {}) : params_(params) {}

  void add(const Document& doc) {
    std::unordered_map<std::string, double> weights;
    double length = 0.0;
    for (const auto& token : text::tokenize(doc.title)) {
      weights[token] += params_.title_boost;
      length += params_.title_boost;
    }
    for (const auto& token : text::tokenize(doc.body)) {
      weights[token] += 1.0;
      length += 1.0;
    }
    for (const auto& [term, weight] : weights) {
      postings_[term].push_back({doc.id, static_cast<float>(weight)});
    }
    lengths_.push_back(length);
    total_length_ += length;
  }

  std::vector<ScoredDoc> search(std::string_view query, std::size_t top_k) const {
    const std::size_t n_docs = lengths_.size();
    if (n_docs == 0 || top_k == 0) return {};
    const double avg_len = total_length_ / static_cast<double>(n_docs);
    std::vector<std::string> terms;
    for (const auto& token : text::tokenize(query)) {
      if (postings_.contains(token) &&
          std::find(terms.begin(), terms.end(), token) == terms.end()) {
        terms.push_back(token);
      }
    }
    std::map<DocId, double> scores;
    for (const auto& term : terms) {
      const auto& plist = postings_.at(term);
      const double df = static_cast<double>(plist.size());
      const double idf = std::log(
          1.0 + (static_cast<double>(n_docs) - df + 0.5) / (df + 0.5));
      for (const auto& [doc, weight] : plist) {
        const double tf = weight;
        const double norm =
            params_.k1 * (1.0 - params_.b + params_.b * lengths_[doc] / avg_len);
        scores[doc] += idf * (tf * (params_.k1 + 1.0)) / (tf + norm);
      }
    }
    std::vector<ScoredDoc> ranked;
    for (const auto& [doc, score] : scores) ranked.push_back({doc, score});
    std::sort(ranked.begin(), ranked.end(), [](const ScoredDoc& a, const ScoredDoc& b) {
      if (a.score != b.score) return a.score > b.score;
      return a.doc < b.doc;
    });
    if (ranked.size() > top_k) ranked.resize(top_k);
    return ranked;
  }

 private:
  Bm25Params params_;
  std::unordered_map<std::string, std::vector<std::pair<DocId, float>>> postings_;
  std::vector<double> lengths_;
  double total_length_ = 0.0;
};

/// A result decorated per query: the document's title, the leading
/// `snippet_words` words of its body, and its tracking redirect.
SearchResult reference_decorate(const Document& doc, double score,
                                std::size_t snippet_words = 25) {
  SearchResult result;
  result.doc = doc.id;
  result.title = doc.title;
  result.score = score;
  std::size_t words = 0;
  std::size_t end = 0;
  while (end < doc.body.size() && words < snippet_words) {
    const auto space = doc.body.find(' ', end);
    if (space == std::string::npos) {
      end = doc.body.size();
      break;
    }
    end = space + 1;
    ++words;
  }
  result.description = doc.body.substr(0, end);
  if (!result.description.empty() && result.description.back() == ' ') {
    result.description.pop_back();
  }
  std::uint64_t token_state = 0x414e41ull ^ (std::uint64_t{doc.id} << 17);
  result.url = make_tracking_url(doc.url, splitmix64(token_state));
  return result;
}

/// The result list encoded field by field with the wire primitives.
Bytes reference_encode(const std::vector<SearchResult>& results) {
  Bytes out;
  core::wire::put_u32(out, static_cast<std::uint32_t>(results.size()));
  for (const auto& r : results) {
    core::wire::put_u32(out, r.doc);
    core::wire::put_string(out, r.title);
    core::wire::put_string(out, r.description);
    core::wire::put_string(out, r.url);
    core::wire::put_double(out, r.score);
  }
  return out;
}

struct ReferenceEngine {
  explicit ReferenceEngine(const std::vector<Document>& docs,
                           std::size_t snippet_words = 25)
      : documents(&docs), snippet_words(snippet_words) {
    for (const auto& doc : docs) index.add(doc);
  }

  /// Per-sub-query lists merged rank by rank, first sight wins. Ranks past
  /// the longest list add nothing, so the merge stops there.
  std::vector<SearchResult> search_or(const std::vector<std::string>& sub_queries,
                                      std::size_t top_k_each) const {
    std::vector<std::vector<ScoredDoc>> lists;
    std::size_t longest = 0;
    for (const auto& q : sub_queries) {
      lists.push_back(index.search(q, top_k_each));
      longest = std::max(longest, lists.back().size());
    }
    std::vector<SearchResult> merged;
    std::unordered_set<DocId> seen;
    for (std::size_t rank = 0; rank < longest; ++rank) {
      for (const auto& list : lists) {
        if (rank < list.size() && seen.insert(list[rank].doc).second) {
          merged.push_back(reference_decorate((*documents)[list[rank].doc],
                                              list[rank].score, snippet_words));
        }
      }
    }
    return merged;
  }

  std::vector<SearchResult> search(std::string_view query, std::size_t top_k) const {
    std::vector<SearchResult> out;
    for (const auto& sd : index.search(query, top_k)) {
      out.push_back(reference_decorate((*documents)[sd.doc], sd.score, snippet_words));
    }
    return out;
  }

  const std::vector<Document>* documents;
  std::size_t snippet_words;
  ReferenceIndex index;
};

/// One OR query through all three paths; returns the reply.
Bytes expect_or_reply_matches(const SearchEngine& engine, const ReferenceEngine& ref,
                              const std::vector<std::string>& sub_queries,
                              std::size_t top_k_each) {
  const Bytes encoded = engine.search_or_encoded(sub_queries, top_k_each);
  EXPECT_EQ(encoded, core::wire::serialize_results(engine.search_or(sub_queries, top_k_each)));
  EXPECT_EQ(encoded, reference_encode(ref.search_or(sub_queries, top_k_each)));
  return encoded;
}

Document make_doc(DocId id, std::string title, std::string body) {
  return Document{id, std::move(title), std::move(body),
                  "https://doc" + std::to_string(id) + ".example/page"};
}

// ---- fixture: a synthetic corpus ------------------------------------------------

class EngineReplyTest : public ::testing::Test {
 protected:
  static dataset::QueryLog make_log() {
    dataset::SyntheticLogConfig config;
    config.num_users = 40;
    config.total_queries = 3000;
    config.vocab_size = 1200;
    config.num_topics = 12;
    config.words_per_topic = 60;
    return dataset::generate_synthetic_log(config);
  }

  EngineReplyTest()
      : log_(make_log()),
        corpus_(log_, CorpusConfig{.seed = 5, .num_documents = 1500}),
        engine_(corpus_),
        reference_(corpus_.documents()) {}

  const std::string& log_query(Rng& rng) const {
    return log_.records()[rng.uniform(log_.size())].text;
  }

  dataset::QueryLog log_;
  Corpus corpus_;
  SearchEngine engine_;
  ReferenceEngine reference_;
};

TEST_F(EngineReplyTest, RandomOrQueriesMatchReference) {
  Rng rng(2024);
  std::size_t shared_hits = 0;
  for (int i = 0; i < 300; ++i) {
    std::vector<std::string> sub_queries;
    const std::size_t n = 1 + rng.uniform(6);
    for (std::size_t s = 0; s < n; ++s) sub_queries.push_back(log_query(rng));
    // Every third query repeats a sub-query or widens one with another's
    // words, so one document is hit by several sub-queries.
    if (i % 3 == 0) sub_queries.push_back(sub_queries.front());
    if (i % 3 == 1) sub_queries.push_back(sub_queries.back() + " " + log_query(rng));
    const std::size_t top_k_each = 1 + rng.uniform(25);

    const Bytes reply = expect_or_reply_matches(engine_, reference_, sub_queries, top_k_each);
    std::size_t listed = 0;
    for (const auto& q : sub_queries) listed += reference_.index.search(q, top_k_each).size();
    const auto parsed = core::wire::parse_result_views(reply);
    ASSERT_TRUE(parsed.is_ok());
    if (parsed.value().size() < listed) ++shared_hits;
  }
  // The merge's dedup actually ran on a good share of the queries.
  EXPECT_GT(shared_hits, 100u);
}

TEST_F(EngineReplyTest, UnknownTermsAndEmptySubQueries) {
  const std::string& real = log_.records()[7].text;
  expect_or_reply_matches(engine_, reference_, {"qqzx unknownword", "", real}, 20);
  expect_or_reply_matches(engine_, reference_, {"", real, "", "!!! ???"}, 20);
  // Nothing matches: a reply with a zero count and no records.
  const Bytes none = expect_or_reply_matches(engine_, reference_, {"qqzx", ""}, 20);
  EXPECT_EQ(none, Bytes(4, 0));
  expect_or_reply_matches(engine_, reference_, {}, 20);
}

TEST_F(EngineReplyTest, TopKEachEdgeValues) {
  Rng rng(77);
  for (const std::size_t top_k_each : {std::size_t{0}, std::size_t{1}, std::size_t{20},
                                       kMaxTopK}) {
    for (int i = 0; i < 20; ++i) {
      const std::vector<std::string> sub_queries = {log_query(rng), log_query(rng),
                                                    log_query(rng), log_query(rng)};
      const Bytes reply =
          expect_or_reply_matches(engine_, reference_, sub_queries, top_k_each);
      if (top_k_each == 0) EXPECT_EQ(reply, Bytes(4, 0));
    }
  }
}

TEST_F(EngineReplyTest, SingleQueryMatchesReference) {
  Rng rng(9);
  for (int i = 0; i < 100; ++i) {
    const std::string& q = log_query(rng);
    const std::size_t top_k = i % 10 == 0 ? kMaxTopK : rng.uniform(30);
    const Bytes encoded = engine_.search_encoded(q, top_k);
    EXPECT_EQ(encoded, core::wire::serialize_results(engine_.search(q, top_k)));
    EXPECT_EQ(encoded, reference_encode(reference_.search(q, top_k)));
  }
}

// An OR query whose top_k_each is the largest wire value must cost what its
// hits cost, not one merge step per requested rank: at 2^32-1 ranks times
// k+1 lists, a rank-bounded merge spins for tens of seconds.
TEST_F(EngineReplyTest, HugeTopKEachReturnsPromptly) {
  const auto start = std::chrono::steady_clock::now();
  EXPECT_TRUE(engine_.search_or({"qqzx", "zzqq", "xxqq", "qxqx"}, kMaxTopK).empty());
  const auto all = engine_.search_or({log_.records()[0].text, log_.records()[1].text,
                                      log_.records()[2].text, "qqzx"},
                                     kMaxTopK);
  EXPECT_FALSE(all.empty());
  EXPECT_LT(std::chrono::steady_clock::now() - start, std::chrono::seconds(2));
}

// ---- hand-made documents: snippet and title edge cases -------------------------

TEST(EngineReplyEdges, SnippetAndTitleEdgeCases) {
  std::string long_body;
  for (int w = 0; w < 40; ++w) long_body += "word" + std::to_string(w) + " ";
  const std::vector<Document> docs = {
      make_doc(0, "short body", "alpha beta"),            // shorter than the snippet
      make_doc(1, "trailing space", "alpha beta gamma "),  // body ends in a space
      make_doc(2, "", "alpha untitled body"),              // empty title
      make_doc(3, "long body alpha", long_body),           // truncated at 25 words
      make_doc(4, "exact", long_body.substr(0, long_body.size() - 1)),
      make_doc(5, "double  spaces", "alpha  beta   gamma delta"),
      make_doc(6, "empty body alpha", ""),
      make_doc(7, "single", "alpha"),
  };
  for (const std::size_t snippet_words : {std::size_t{25}, std::size_t{2}, std::size_t{0}}) {
    const SearchEngine engine(std::span<const Document>(docs), snippet_words);
    const ReferenceEngine reference(docs, snippet_words);
    for (const std::size_t top_k : {std::size_t{3}, std::size_t{20}, kMaxTopK}) {
      expect_or_reply_matches(engine, reference, {"alpha", "word3 body", "gamma"}, top_k);
      expect_or_reply_matches(engine, reference, {"untitled", "single empty"}, top_k);
      const Bytes encoded = engine.search_encoded("alpha beta", top_k);
      EXPECT_EQ(encoded, reference_encode(reference.search("alpha beta", top_k)));
    }
  }
  // The decoration really hit every edge: docs 0, 2 and 6 come back.
  const SearchEngine engine{std::span<const Document>(docs)};
  std::unordered_set<DocId> returned;
  for (const auto& r : engine.search_or({"alpha", "untitled"}, 20)) returned.insert(r.doc);
  EXPECT_TRUE(returned.contains(0) && returned.contains(2) && returned.contains(6));
}

// ---- index refresh: add, search, add, search -----------------------------------

TEST(EngineReplyEdges, IndexRefreezesAfterEveryAdd) {
  const std::vector<std::string> words = {"web",  "search", "privacy", "pasta",
                                          "code", "music",  "news",    "game"};
  const std::vector<std::string> queries = {"web privacy", "pasta", "music news game",
                                            "unknown", ""};
  Rng rng(31);
  InvertedIndex index;
  ReferenceIndex reference;
  InvertedIndex::Scratch scratch;
  std::vector<ScoredDoc> reused;
  const auto expect_same = [](const std::vector<ScoredDoc>& got,
                              const std::vector<ScoredDoc>& expected) {
    ASSERT_EQ(got.size(), expected.size());
    for (std::size_t i = 0; i < got.size(); ++i) {
      EXPECT_EQ(got[i].doc, expected[i].doc);
      EXPECT_EQ(got[i].score, expected[i].score);
    }
  };
  std::vector<double> web_scores;
  for (DocId id = 0; id < 60; ++id) {
    std::string body;
    for (int w = 0; w < 10; ++w) body += words[rng.uniform(words.size())] + " ";
    const Document doc = make_doc(id, words[rng.uniform(words.size())], body);
    index.add_document(doc);
    reference.add(doc);
    if (id % 7 != 6) continue;  // add several, then search
    for (const auto& q : queries) {
      SCOPED_TRACE(q + " after doc " + std::to_string(id));
      const auto expected = reference.search(q, 10);
      expect_same(index.search(q, 10), expected);
      index.search_with(q, 10, scratch, reused);
      expect_same(reused, expected);
    }
    web_scores.push_back(index.search("web", 1).at(0).score);
  }
  // The collection statistics moved between searches, and the scores with them.
  ASSERT_GE(web_scores.size(), 2u);
  EXPECT_NE(web_scores.front(), web_scores.back());
}

}  // namespace
}  // namespace xsearch::engine
