// The simulated web search engine (Bing stand-in).
//
// Serves ranked results with titles, description snippets and analytics
// tracking URLs. Mirrors the paper's own methodology for OR queries
// (§5.3.2): since Bing's OR operator only worked on single-word queries,
// the authors submitted each sub-query independently and merged the k+1
// result sets — `search_or` does exactly that.
//
// Every field of a result except its score depends only on the document:
// the title, the first `snippet_words` words of the body, and a tracking
// URL whose token is derived from the doc id. The constructor therefore
// renders each document's result record once, in the result-list wire
// format (engine/result_record.hpp), into one contiguous slab. A query
// only ranks: the `_encoded` entry points answer with the count plus a
// copy of each ranked document's record and its score — the bytes hosts
// send — and the owning entry points build SearchResults from the same
// records. Ranking state (scores, per-sub-query lists, the merge's
// dedup stamps) lives in one reusable scratch per thread.
//
// The engine is "honest but curious" (§3): it answers correctly, and it
// additionally exposes a query observation hook so the SimAttack adversary
// can record what the engine sees.
#pragma once

#include <functional>
#include <span>
#include <string>
#include <string_view>
#include <vector>

#include "common/bytes.hpp"
#include "engine/corpus.hpp"
#include "engine/document.hpp"
#include "engine/index.hpp"

namespace xsearch::engine {

class SearchEngine {
 public:
  /// Indexes the corpus and renders every document's result record;
  /// `snippet_words` controls description length.
  explicit SearchEngine(const Corpus& corpus, std::size_t snippet_words = 25,
                        Bm25Params params = {});

  /// Same over a document list (ids must be 0..n-1 in order).
  explicit SearchEngine(std::span<const Document> documents,
                        std::size_t snippet_words = 25, Bm25Params params = {});

  /// Single query, top-k results.
  [[nodiscard]] std::vector<SearchResult> search(std::string_view query,
                                                 std::size_t top_k) const;

  /// `search`, serialized: byte-identical to
  /// `core::wire::serialize_results(search(query, top_k))`.
  [[nodiscard]] Bytes search_encoded(std::string_view query, std::size_t top_k) const;

  /// OR query over several sub-queries: each sub-query is evaluated
  /// independently for `top_k_each` results and the result sets are merged
  /// (deduplicated by document, keeping the best score, interleaved by
  /// per-sub-query rank so no sub-query dominates the head of the list).
  /// The merge runs for as many ranks as the longest sub-query list has, so
  /// an oversized `top_k_each` costs nothing beyond the hits that exist.
  [[nodiscard]] std::vector<SearchResult> search_or(
      const std::vector<std::string>& sub_queries, std::size_t top_k_each) const;

  /// `search_or`, serialized: byte-identical to
  /// `core::wire::serialize_results(search_or(sub_queries, top_k_each))`.
  [[nodiscard]] Bytes search_or_encoded(const std::vector<std::string>& sub_queries,
                                        std::size_t top_k_each) const;

  /// Registers an observer invoked with every query string the engine
  /// receives — the adversary's vantage point.
  void set_observer(std::function<void(std::string_view)> observer) {
    observer_ = std::move(observer);
  }

  [[nodiscard]] std::size_t document_count() const { return index_.document_count(); }

  /// Host memory held by the pre-rendered records (slab plus offsets).
  [[nodiscard]] std::size_t record_bytes() const {
    return records_.capacity() + record_offsets_.capacity() * sizeof(std::size_t);
  }

 private:
  /// Ranked documents of one query / one OR query, in reply order. The
  /// list lives in this thread's scratch: valid until its next search.
  [[nodiscard]] const std::vector<ScoredDoc>& rank(std::string_view query,
                                                   std::size_t top_k) const;
  [[nodiscard]] const std::vector<ScoredDoc>& rank_or(
      const std::vector<std::string>& sub_queries, std::size_t top_k_each) const;

  /// Count plus each ranked document's record and score.
  [[nodiscard]] Bytes encode(const std::vector<ScoredDoc>& ranked) const;
  /// The same records as owned results.
  [[nodiscard]] std::vector<SearchResult> materialize(
      const std::vector<ScoredDoc>& ranked) const;

  InvertedIndex index_;
  Bytes records_;                            // every document's record prefix
  std::vector<std::size_t> record_offsets_;  // doc d is [offsets[d], offsets[d + 1])
  std::function<void(std::string_view)> observer_;
};

}  // namespace xsearch::engine
