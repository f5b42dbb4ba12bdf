// Result filtering — Algorithm 2 of the paper.
//
// The engine's answer to the OR query mixes results for all k+1 sub-queries.
// For each result, a score is computed per sub-query as the number of common
// words between the sub-query and the result's title plus the number of
// common words with its description; a result is forwarded to the user only
// if the *original* query's score is the maximum. The filter also rewrites
// analytics tracking URLs back to their target (paper §4.1), unwrapping
// nested redirects and dropping a result whose redirect names no target.
//
// The common-words scorer is single-pass. The k+1 sub-queries' distinct
// tokens go once per call into a flat, power-of-two, open-addressed table
// that stores each token's hash and the sub-queries containing it. Each
// result field is then scanned once: one table lookup per byte both finds
// token boundaries and folds case; a 256×64-bit gate on (first byte, token
// length) rejects most tokens before they are hashed; the survivors are
// probed, and an epoch stamp per token id counts each word once per field.
// No result token is copied, no per-field buffer is filled, nothing is sorted.
//
// `filter_views` runs the same scorer over results that are views into the
// engine's serialized reply (wire::parse_result_views), so only the kept
// results are copied into owned SearchResults — with their URL already
// stripped. The owning `filter` is a thin adapter over the same scorer. At
// live-search shape (k=3, 20 results per sub-query, 25-word descriptions;
// Release build, 4-core Xeon VM) parse + filter take 79–85 µs per query,
// against 229–278 µs for the previous token→postings `unordered_map`
// scorer over fully copied results (medians over 50 distinct batches, two
// sittings); bench/microbench.cpp tracks it as filter/live_shape.
//
// tests/core_filter_equivalence_test.cpp checks both scorings against a
// per-pair transcription of Algorithm 2: the exact kept list, ties included.
#pragma once

#include <span>
#include <string>
#include <string_view>
#include <vector>

#include "engine/document.hpp"

namespace xsearch::core {

/// Scoring flavour — the paper's common-words metric is the default; the
/// cosine variant exists for the filter-scoring ablation bench.
enum class FilterScoring { kCommonWords, kCosine };

class ResultFilter {
 public:
  explicit ResultFilter(FilterScoring scoring = FilterScoring::kCommonWords)
      : scoring_(scoring) {}

  /// Algorithm 2: keep results whose best-matching sub-query is the
  /// original. Ties in favour of the original (score[original] == max keeps
  /// the result, as in the paper's pseudocode).
  [[nodiscard]] std::vector<engine::SearchResult> filter(
      std::string_view original, const std::vector<std::string>& fakes,
      std::vector<engine::SearchResult> results) const;

  /// Same verdicts over borrowed results: only the kept ones are copied
  /// out, tracking already stripped.
  [[nodiscard]] std::vector<engine::SearchResult> filter_views(
      std::string_view original, const std::vector<std::string>& fakes,
      std::span<const engine::SearchResultView> results) const;

  /// Strips analytics redirection from a result list in place: nested
  /// redirects are unwrapped to the final target, and a result whose
  /// redirect carries no target is dropped.
  static void strip_tracking(std::vector<engine::SearchResult>& results);

 private:
  [[nodiscard]] std::vector<engine::SearchResult> filter_common_words(
      std::string_view original, const std::vector<std::string>& fakes,
      std::vector<engine::SearchResult> results) const;
  [[nodiscard]] std::vector<engine::SearchResult> filter_cosine(
      std::string_view original, const std::vector<std::string>& fakes,
      std::vector<engine::SearchResult> results) const;

  FilterScoring scoring_;
};

}  // namespace xsearch::core
