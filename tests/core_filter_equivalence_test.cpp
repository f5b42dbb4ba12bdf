// Equivalence proof for the optimized ResultFilter.
//
// The optimized filter scans each result field once against a flat table of
// the sub-queries' tokens (common words) or scores over a shared vocabulary
// (cosine). This test pins it against a straight transcription of
// Algorithm 2 as the paper states it — score every (sub-query, result) pair
// independently, keep a result iff the original's score equals the maximum
// — across randomized workloads and the scanner's edge cases (long runs,
// non-ASCII bytes, empty or tokenless fields, repeats, ties, a token table
// that must grow), asserting the *exact* kept list (contents and order,
// ties included) for both scoring variants and both entry points.
#include <gtest/gtest.h>

#include <string>
#include <unordered_set>
#include <vector>

#include "common/rng.hpp"
#include "engine/analytics.hpp"
#include "text/sparse_vector.hpp"
#include "text/tokenizer.hpp"
#include "text/vocabulary.hpp"
#include "xsearch/filter.hpp"
#include "xsearch/wire.hpp"

namespace xsearch::core {
namespace {

// ---- reference implementation (pre-optimization semantics) ---------------

std::size_t ref_common_words(const std::unordered_set<std::string>& a_words,
                             std::string_view b) {
  std::size_t count = 0;
  std::unordered_set<std::string> seen;
  for (auto& token : text::tokenize(b)) {
    if (a_words.contains(token) && seen.insert(token).second) ++count;
  }
  return count;
}

double ref_score(FilterScoring scoring, std::string_view query,
                 const engine::SearchResult& result) {
  if (scoring == FilterScoring::kCommonWords) {
    const auto tokens = text::tokenize(query);
    const std::unordered_set<std::string> words(tokens.begin(), tokens.end());
    return static_cast<double>(ref_common_words(words, result.title) +
                               ref_common_words(words, result.description));
  }
  // Cosine ablation, per-pair fresh vocabulary (id assignment cannot affect
  // cosine, so this is the strictest possible baseline for the shared-
  // vocabulary batch implementation).
  text::Vocabulary vocab;
  const auto q_vec = text::tf_vector(vocab, query);
  const auto r_vec =
      text::tf_vector(vocab, result.title + " " + result.description);
  return q_vec.cosine(r_vec);
}

std::vector<engine::SearchResult> ref_filter(
    FilterScoring scoring, std::string_view original,
    const std::vector<std::string>& fakes,
    std::vector<engine::SearchResult> results) {
  std::vector<engine::SearchResult> kept;
  kept.reserve(results.size());
  for (auto& r : results) {
    const double original_score = ref_score(scoring, original, r);
    bool is_max = true;
    for (const auto& fake : fakes) {
      if (ref_score(scoring, fake, r) > original_score) {
        is_max = false;
        break;
      }
    }
    if (is_max) kept.push_back(std::move(r));
  }
  ResultFilter::strip_tracking(kept);
  return kept;
}

// ---- randomized workloads -------------------------------------------------

// Deliberately overlapping small vocabulary (so score ties are common),
// mixed case (tokenizer folding), stopwords, digits, and punctuation-glued
// tokens.
const std::vector<std::string>& word_pool() {
  static const std::vector<std::string> kPool = {
      "private", "Web",    "search", "ENGINE", "the",   "of",     "and",
      "enclave", "proxy",  "query",  "ق",      "42",    "x86",    "pasta",
      "recipe",  "Pasta",  "sauce",  "privacy", "web",  "tools",  "is",
      "scores",  "match,", "row;",   "",        "a",    "कखग",    "tennis"};
  return kPool;
}

std::string random_text(Rng& rng, std::size_t max_words) {
  std::string out;
  const std::size_t n = rng.uniform(max_words + 1);
  for (std::size_t i = 0; i < n; ++i) {
    if (!out.empty()) out += ' ';
    out += word_pool()[rng.uniform(word_pool().size())];
  }
  return out;
}

std::vector<engine::SearchResult> random_results(Rng& rng, std::size_t max_n) {
  std::vector<engine::SearchResult> results;
  const std::size_t n = rng.uniform(max_n + 1);
  for (std::size_t i = 0; i < n; ++i) {
    engine::SearchResult r;
    r.doc = static_cast<engine::DocId>(i);
    r.title = random_text(rng, 8);
    r.description = random_text(rng, 30);
    r.score = rng.uniform_double();
    r.url = rng.bernoulli(0.3)
                ? engine::make_tracking_url("https://real.example/p" +
                                                std::to_string(i),
                                            rng.next())
                : "https://clean.example/p" + std::to_string(i);
    results.push_back(std::move(r));
  }
  return results;
}

class FilterEquivalence : public ::testing::TestWithParam<FilterScoring> {};

TEST_P(FilterEquivalence, MatchesReferenceAcrossRandomWorkloads) {
  const FilterScoring scoring = GetParam();
  const ResultFilter optimized(scoring);
  Rng rng(scoring == FilterScoring::kCommonWords ? 0xf117e4 : 0xc051ce);

  const int rounds = scoring == FilterScoring::kCommonWords ? 200 : 80;
  for (int round = 0; round < rounds; ++round) {
    const std::string original = random_text(rng, 6);
    std::vector<std::string> fakes;
    const std::size_t k = rng.uniform(9);  // 0..8 (includes the no-fake case)
    for (std::size_t i = 0; i < k; ++i) fakes.push_back(random_text(rng, 6));
    const auto results = random_results(rng, 50);

    const auto expected = ref_filter(scoring, original, fakes, results);
    const auto actual = optimized.filter(original, fakes, results);
    ASSERT_EQ(actual, expected)
        << "round " << round << " original='" << original << "' k=" << k
        << " results=" << results.size();
  }
}

TEST_P(FilterEquivalence, TieOnZeroScoresKeepsResult) {
  // A result sharing nothing with any sub-query scores 0 everywhere; the
  // original ties the max and Algorithm 2 keeps it. Both implementations
  // must agree on this edge (the postings-based scorer never even sees the
  // result's tokens).
  const ResultFilter optimized(GetParam());
  std::vector<engine::SearchResult> results(1);
  results[0].title = "zebra";
  results[0].description = "quagga";
  const auto expected =
      ref_filter(GetParam(), "alpha", {"beta"}, results);
  EXPECT_EQ(optimized.filter("alpha", {"beta"}, results), expected);
  EXPECT_EQ(expected.size(), 1u);
}

// ---- scanner edge cases ---------------------------------------------------

struct EdgeCase {
  std::string name;
  std::string original;
  std::vector<std::string> fakes;
  std::vector<engine::SearchResult> results;
};

engine::SearchResult edge_result(std::string title, std::string description,
                                 std::size_t i) {
  engine::SearchResult r;
  r.doc = static_cast<engine::DocId>(i);
  r.title = std::move(title);
  r.description = std::move(description);
  r.url = engine::make_tracking_url("https://edge.example/" + std::to_string(i), i);
  r.score = static_cast<double>(i);
  return r;
}

// Alphanumeric run of `n` bytes with mixed case, so folding matters.
std::string long_run(std::size_t n, char last = 'z') {
  std::string run;
  const std::string_view cycle = "Ab3xQ9";
  for (std::size_t i = 0; i + 1 < n; ++i) run += cycle[i % cycle.size()];
  run += last;
  return run;
}

std::string upper(std::string s) {
  for (char& c : s) {
    if (c >= 'a' && c <= 'z') c = static_cast<char>(c - 'a' + 'A');
  }
  return s;
}

std::vector<EdgeCase> edge_cases() {
  std::vector<EdgeCase> cases;
  const std::string run300 = long_run(300);
  const std::string run4k = long_run(4096);
  // Same length as run4k, differs in the last byte: shares the gate bit and
  // must be told apart by the full comparison.
  const std::string run4k_other = long_run(4096, 'y');

  // Long runs in results and in sub-queries.
  cases.push_back(
      {"long_runs", "alpha " + run300, {run4k + " beta", run4k_other},
       {edge_result(upper(run300), run4k, 0),
        edge_result(run4k + " " + run4k, "alpha", 1),
        edge_result(run4k_other, run300 + " alpha", 2),
        edge_result(long_run(299) + " " + long_run(301), "beta", 3),
        edge_result(run300 + run300, run4k_other + "!" + run300, 4),
        // Here the long tokens alone decide the verdict.
        edge_result(run4k, "", 5), edge_result(upper(run300), "beta", 6),
        edge_result(run4k_other, "", 7)}});

  // Bytes >= 0x80 and punctuation-only fields.
  cases.push_back({"high_bytes_and_punctuation",
                   "caf\xc3\xa9 na\xefve search",
                   {"\xff\xfe web", "caf na ve"},
                   {edge_result("caf\xc3\xa9", "\xc3\xa9\xc3\xa9 na", 0),
                    edge_result("!!! ,,, ;;;", "--- ... ???", 1),
                    edge_result("\x80\x81\xfe\xff", "\xff web \xfe", 2),
                    edge_result("caf", "ve search na", 3),
                    edge_result("SEARCH\xc2\xa0web", "na\xefve", 4)}});

  // Empty title or description (or both).
  cases.push_back({"empty_fields",
                   "private web",
                   {"pasta sauce"},
                   {edge_result("", "private pasta sauce", 0),
                    edge_result("private web", "", 1),
                    edge_result("", "", 2),
                    edge_result("pasta", "", 3)}});

  // Sub-queries with no tokens at all.
  cases.push_back({"tokenless_fake",
                   "alpha",
                   {"!!!", "", "beta"},
                   {edge_result("alpha", "beta", 0),
                    edge_result("beta", "beta gamma", 1),
                    edge_result("!!!", "nothing", 2)}});
  cases.push_back({"tokenless_original",
                   "!!!",
                   {"beta", "gamma"},
                   {edge_result("zeta", "eta", 0),
                    edge_result("beta", "x", 1),
                    edge_result("", "gamma", 2)}});

  // Tokens repeated within one field and across sub-queries.
  cases.push_back({"repeats",
                   "pasta pasta recipe Pasta",
                   {"pasta sauce sauce", "recipe RECIPE pasta", "sauce"},
                   {edge_result("pasta PASTA pasta", "sauce sauce sauce sauce", 0),
                    edge_result("recipe recipe", "pasta pasta recipe", 1),
                    edge_result("sauce", "sauce pasta recipe sauce", 2),
                    edge_result("pasta sauce", "pasta sauce", 3)}});

  // Exact score ties between the original and a fake.
  cases.push_back({"ties",
                   "alpha beta",
                   {"gamma delta", "alpha gamma"},
                   {edge_result("alpha gamma", "", 0),
                    edge_result("alpha", "gamma", 1),
                    edge_result("alpha gamma delta", "beta", 2),
                    edge_result("gamma delta", "alpha beta", 3),
                    edge_result("gamma delta", "alpha", 4)}});

  // k=40 sub-queries of 8 tokens each: ~300 distinct tokens, so the token
  // table must grow several times while keeping every token's sub-queries.
  // k=70 also needs more than one 64-bit word per token's sub-query set.
  for (const std::size_t k : {40u, 70u}) {
    EdgeCase big{"k" + std::to_string(k), "", {}, {}};
    const auto word = [](std::size_t q, std::size_t j) {
      // Overlapping ids so tokens are shared across neighbouring queries.
      return "w" + std::to_string(q * 7 + j);
    };
    for (std::size_t q = 0; q <= k; ++q) {
      std::string text;
      for (std::size_t j = 0; j < 8; ++j) text += word(q, j) + " ";
      if (q == 0) {
        big.original = text;
      } else {
        big.fakes.push_back(text);
      }
    }
    Rng rng(k);
    for (std::size_t i = 0; i < 60; ++i) {
      std::string title;
      std::string description;
      for (std::size_t j = 0; j < 6; ++j) {
        title += word(rng.uniform(k + 1), rng.uniform(8)) + " ";
      }
      for (std::size_t j = 0; j < 25; ++j) {
        description += word(rng.uniform(k + 1), rng.uniform(8)) + " ";
      }
      if (i % 5 == 0) title += word(0, rng.uniform(8));  // favour the original
      big.results.push_back(edge_result(title, description, i));
    }
    cases.push_back(std::move(big));
  }
  return cases;
}

TEST_P(FilterEquivalence, MatchesReferenceOnScannerEdgeCases) {
  const ResultFilter optimized(GetParam());
  for (const EdgeCase& c : edge_cases()) {
    const auto expected = ref_filter(GetParam(), c.original, c.fakes, c.results);
    EXPECT_EQ(optimized.filter(c.original, c.fakes, c.results), expected) << c.name;

    // The in-place path, over views into the serialized results, agrees.
    const Bytes raw = wire::serialize_results(c.results);
    const auto views = wire::parse_result_views(raw);
    ASSERT_TRUE(views.is_ok()) << c.name;
    EXPECT_EQ(optimized.filter_views(c.original, c.fakes, views.value()), expected)
        << c.name;
  }
}

TEST(FilterEquivalenceEdgeCases, CasesAreNotTrivial) {
  // Guard against edge cases that keep everything or nothing and so could
  // not tell a broken scorer from a working one.
  std::size_t kept = 0;
  std::size_t dropped = 0;
  for (const EdgeCase& c : edge_cases()) {
    const auto expected =
        ref_filter(FilterScoring::kCommonWords, c.original, c.fakes, c.results);
    kept += expected.size();
    dropped += c.results.size() - expected.size();
  }
  EXPECT_GT(kept, 10u);
  EXPECT_GT(dropped, 10u);
}

INSTANTIATE_TEST_SUITE_P(AllScorings, FilterEquivalence,
                         ::testing::Values(FilterScoring::kCommonWords,
                                           FilterScoring::kCosine),
                         [](const auto& info) {
                           return info.param == FilterScoring::kCommonWords
                                      ? "CommonWords"
                                      : "Cosine";
                         });

}  // namespace
}  // namespace xsearch::core
