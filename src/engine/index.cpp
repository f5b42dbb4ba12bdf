#include "engine/index.hpp"

#include <algorithm>
#include <cassert>
#include <cmath>
#include <unordered_map>

#include "text/tokenizer.hpp"

namespace xsearch::engine {

void InvertedIndex::Scratch::begin_pass(std::size_t n_docs) {
  if (stamps.size() < n_docs) {
    scores.resize(n_docs, 0.0);
    stamps.resize(n_docs, 0);
    // One spare slot: the branch-free append in search_with writes a doc
    // id one past the last touched doc on every posting, even when all
    // n_docs are already touched.
    touched.resize(n_docs + 1);
  }
  if (++epoch == 0) {  // wrapped: stamp 0 must mean "never visited"
    std::fill(stamps.begin(), stamps.end(), 0);
    epoch = 1;
  }
}

void InvertedIndex::add_document(const Document& doc) {
  assert(doc.id == doc_lengths_.size() && "documents must be added with dense ids");

  std::unordered_map<text::TermId, double> weights;
  double length = 0.0;
  for (const auto& token : text::tokenize(doc.title)) {
    weights[vocab_.intern(token)] += params_.title_boost;
    length += params_.title_boost;
  }
  for (const auto& token : text::tokenize(doc.body)) {
    weights[vocab_.intern(token)] += 1.0;
    length += 1.0;
  }

  postings_.resize(vocab_.size());
  for (const auto& [term, weight] : weights) {
    postings_[term].push_back(Posting{doc.id, static_cast<float>(weight)});
  }
  doc_lengths_.push_back(length);
  total_length_ += length;
  frozen_.store(false, std::memory_order_relaxed);
}

void InvertedIndex::freeze() const {
  if (frozen_.load(std::memory_order_acquire)) return;
  MutexLock lock(freeze_mutex_);
  if (frozen_.load(std::memory_order_relaxed)) return;
  build_impacts();
  frozen_.store(true, std::memory_order_release);
}

void InvertedIndex::build_impacts() const {
  const std::size_t n_docs = doc_lengths_.size();
  impact_start_.assign(postings_.size() + 1, 0);
  std::size_t total = 0;
  for (std::size_t t = 0; t < postings_.size(); ++t) {
    impact_start_[t] = total;
    total += postings_[t].size();
  }
  impact_start_[postings_.size()] = total;
  impact_docs_.resize(total);
  impacts_.resize(total);
  if (n_docs == 0) return;

  const double avg_len = total_length_ / static_cast<double>(n_docs);
  for (std::size_t t = 0; t < postings_.size(); ++t) {
    const auto& plist = postings_[t];
    const double df = static_cast<double>(plist.size());
    const double idf = std::log(
        1.0 + (static_cast<double>(n_docs) - df + 0.5) / (df + 0.5));
    std::size_t at = impact_start_[t];
    for (const Posting& p : plist) {
      const double tf = p.weight;
      const double norm =
          params_.k1 * (1.0 - params_.b +
                        params_.b * doc_lengths_[p.doc] / avg_len);
      impact_docs_[at] = p.doc;
      impacts_[at] = idf * (tf * (params_.k1 + 1.0)) / (tf + norm);
      ++at;
    }
  }
}

std::vector<ScoredDoc> InvertedIndex::search(std::string_view query,
                                             std::size_t top_k) const {
  Scratch scratch;
  std::vector<ScoredDoc> out;
  search_with(query, top_k, scratch, out);
  return out;
}

void InvertedIndex::search_with(std::string_view query, std::size_t top_k,
                                Scratch& scratch, std::vector<ScoredDoc>& out) const {
  out.clear();
  const std::size_t n_docs = doc_lengths_.size();
  if (n_docs == 0 || top_k == 0) return;
  freeze();

  // Deduplicate query terms; BM25 treats repeated query terms linearly but
  // short web queries rarely repeat words, and dedup keeps scores stable.
  scratch.tokens.clear();
  text::tokenize_views_into(query, scratch.token_buffer, scratch.tokens);
  auto& terms = scratch.terms;
  terms.clear();
  for (const std::string_view token : scratch.tokens) {
    if (const auto id = vocab_.lookup(token)) {
      if (std::find(terms.begin(), terms.end(), *id) == terms.end()) {
        terms.push_back(*id);
      }
    }
  }
  if (terms.empty()) return;

  // Dense accumulator, reset lazily: a doc's score is live only once the
  // current pass has visited it. Whether a posting is its doc's first
  // decides what the score starts from and whether the doc is appended to
  // `touched`, not which instructions run: that pattern is data-dependent,
  // and a branch on it mispredicts.
  scratch.begin_pass(n_docs);
  auto& scores = scratch.scores;
  auto& touched = scratch.touched;
  std::size_t n_touched = 0;
  for (const text::TermId term : terms) {
    const std::size_t end = impact_start_[term + 1];
    for (std::size_t i = impact_start_[term]; i < end; ++i) {
      const DocId doc = impact_docs_[i];
      const bool first = scratch.first_visit(doc);
      scores[doc] = (first ? 0.0 : scores[doc]) + impacts_[i];
      touched[n_touched] = doc;
      n_touched += first ? 1 : 0;
    }
  }

  out.reserve(n_touched);
  for (std::size_t i = 0; i < n_touched; ++i) {
    out.push_back({touched[i], scores[touched[i]]});
  }
  const std::size_t keep = std::min(top_k, out.size());
  std::partial_sort(out.begin(), out.begin() + static_cast<std::ptrdiff_t>(keep),
                    out.end(), [](const ScoredDoc& a, const ScoredDoc& b) {
                      if (a.score != b.score) return a.score > b.score;
                      return a.doc < b.doc;
                    });
  out.resize(keep);
}

}  // namespace xsearch::engine
