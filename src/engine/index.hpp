// Inverted index with BM25 ranking.
//
// The retrieval core of the simulated search engine: documents are indexed
// by their title and body terms (title terms carry a configurable field
// boost) and queries are scored with Okapi BM25.
//
// Scoring reads precomputed impacts. A term's BM25 contribution to a
// document depends only on collection statistics (document count, average
// length, the term's document frequency) and the document itself, so once
// the collection stops changing the index is *frozen*: every posting's
// contribution is computed once, with the same double expression a query
// would use, into flat per-term arrays (doc ids and impacts, laid out
// term after term). A query adds up impacts; it does no division, log or
// length lookup. `add_document` thaws the index and the next search (or
// `freeze()`) recomputes the arrays from the raw postings, so an index
// that grows between searches keeps scoring against current statistics.
//
// Scores accumulate into a dense per-document array owned by a reusable
// `Scratch`, not a per-call hash map: an OR query evaluates its k+1
// sub-queries through one Scratch, and SearchEngine keeps one Scratch per
// thread, so the score state, the touched-doc list and the ranking buffer
// are allocated once per thread instead of once per query.
#pragma once

#include <atomic>
#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

#include "common/mutex.hpp"
#include "engine/document.hpp"
#include "text/vocabulary.hpp"

namespace xsearch::engine {

struct Bm25Params {
  double k1 = 1.2;
  double b = 0.75;
  double title_boost = 2.0;  // weight of a title occurrence vs a body one
};

/// A scored document id.
struct ScoredDoc {
  DocId doc = 0;
  double score = 0.0;
};

class InvertedIndex {
 public:
  explicit InvertedIndex(Bm25Params params = {}) : params_(params) {}

  /// Reusable per-search state; see the header comment. A default-
  /// constructed Scratch works with any index and grows on first use.
  /// First touch of a doc is detected by epoch stamp, not by a zero score
  /// (a zero-weight posting, e.g. title_boost = 0, must not re-touch).
  struct Scratch {
    std::vector<double> scores;            // dense per-doc accumulator
    std::vector<std::uint32_t> stamps;     // epoch of each doc's last visit
    std::uint32_t epoch = 0;               // current pass's stamp value
    std::vector<DocId> touched;            // docs scored, in first-visit order
    std::vector<text::TermId> terms;       // deduplicated query terms
    std::string token_buffer;              // tokenize_views backing store
    std::vector<std::string_view> tokens;  // token views into token_buffer

    /// Starts a pass over doc ids below `n_docs`: from here on
    /// `first_visit(doc)` is true exactly once per doc. The O(n_docs)
    /// clear happens once per Scratch (plus once per epoch-counter wrap).
    void begin_pass(std::size_t n_docs);

    /// True the first time `doc` is visited in the current pass. Stores
    /// unconditionally, so callers can use the answer without branching.
    [[nodiscard]] bool first_visit(DocId doc) {
      const bool first = stamps[doc] != epoch;
      stamps[doc] = epoch;
      return first;
    }
  };

  /// Indexes one document (id must be unique) and thaws the index.
  /// Not safe to call concurrently with searches.
  void add_document(const Document& doc);

  /// Computes the frozen impact arrays now instead of on the next search,
  /// so no query pays for it. Safe to call concurrently with searches.
  void freeze() const;

  /// Top-k documents for a free-text query, BM25-ranked, deterministic
  /// tie-break by doc id. Unknown terms are ignored.
  [[nodiscard]] std::vector<ScoredDoc> search(std::string_view query,
                                              std::size_t top_k) const;

  /// Same, accumulating through caller-owned scratch so consecutive
  /// searches (the k+1 sub-queries of an OR query) share one allocation.
  /// `out` is cleared and filled with the ranked top-k.
  void search_with(std::string_view query, std::size_t top_k, Scratch& scratch,
                   std::vector<ScoredDoc>& out) const;

  [[nodiscard]] std::size_t document_count() const { return doc_lengths_.size(); }
  [[nodiscard]] std::size_t term_count() const { return vocab_.size(); }

 private:
  struct Posting {
    DocId doc;
    float weight;  // field-boosted term frequency
  };

  /// Builds the impact arrays from the raw postings.
  void build_impacts() const XS_REQUIRES(freeze_mutex_);

  Bm25Params params_;
  text::Vocabulary vocab_;
  std::vector<std::vector<Posting>> postings_;  // raw postings, by TermId
  std::vector<double> doc_lengths_;             // boosted length per doc
  double total_length_ = 0.0;

  // Frozen scoring arrays: term t's postings are [impact_start_[t],
  // impact_start_[t + 1]) of impact_docs_/impacts_. Written only by
  // build_impacts under freeze_mutex_ and published by the release store
  // to frozen_; searches read them after an acquire load sees it true.
  mutable Mutex freeze_mutex_;
  mutable std::atomic<bool> frozen_{false};
  mutable std::vector<std::size_t> impact_start_;
  mutable std::vector<DocId> impact_docs_;
  mutable std::vector<double> impacts_;
};

}  // namespace xsearch::engine
