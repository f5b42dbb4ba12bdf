#include "xsearch/filter.hpp"

#include <algorithm>
#include <array>
#include <bit>
#include <cstdint>

#include "engine/analytics.hpp"
#include "text/sparse_vector.hpp"
#include "text/tokenizer.hpp"
#include "text/vocabulary.hpp"

namespace xsearch::core {

namespace {

// Calls on_token(first, length, folded_first_byte) for each maximal run of
// token bytes in `text`. One table lookup per byte both classifies it and
// folds its case, so the scan needs no lower-cased copy of the text.
template <typename OnToken>
void for_each_token(std::string_view text, OnToken&& on_token) {
  const auto* p = reinterpret_cast<const unsigned char*>(text.data());
  const auto* const end = p + text.size();
  while (p != end) {
    const char folded = text::token_fold(*p);
    if (folded == 0) {
      ++p;
      continue;
    }
    const auto* const start = p;
    do {
      ++p;
    } while (p != end && text::token_fold(*p) != 0);
    on_token(start, static_cast<std::size_t>(p - start),
             static_cast<unsigned char>(folded));
  }
}

// FNV-1a over the case-folded bytes of a token.
std::uint64_t hash_token(const unsigned char* p, std::size_t n) {
  std::uint64_t h = 0xcbf29ce484222325ULL;
  for (std::size_t i = 0; i < n; ++i) {
    h ^= static_cast<unsigned char>(text::token_fold(p[i]));
    h *= 0x100000001b3ULL;
  }
  return h;
}

// Algorithm 2's common-words score for one batch. Sub-query 0 is the
// original; 1..k are the fakes. Their distinct tokens live in a flat
// open-addressed table (each slot keeps the token's hash, so growth never
// rehashes text), and each token id maps to the bitset of sub-queries that
// contain it. Result tokens are only ever looked up: one absent from every
// sub-query adds to no score.
class CommonWordsScorer {
 public:
  CommonWordsScorer(std::string_view original, const std::vector<std::string>& fakes)
      : words_per_token_((fakes.size() + 1 + 63) / 64), scores_(fakes.size() + 1) {
    for (std::size_t q = 0; q < scores_.size(); ++q) {
      const std::string_view query = q == 0 ? original : fakes[q - 1];
      for_each_token(query, [&](const unsigned char* p, std::size_t n,
                                unsigned char first) {
        const std::uint32_t id = insert(p, n, first);
        query_bits_[id * words_per_token_ + q / 64] |= std::uint64_t{1} << (q % 64);
      });
    }
  }

  /// Algorithm 2's verdict: score[q] = distinct title words shared with q +
  /// distinct description words shared with q; keep iff no sub-query beats
  /// the original.
  [[nodiscard]] bool keeps(std::string_view title, std::string_view description) {
    std::fill(scores_.begin(), scores_.end(), 0);
    accumulate(title);
    accumulate(description);
    const std::uint32_t original_score = scores_[0];
    return std::all_of(scores_.begin() + 1, scores_.end(),
                       [&](std::uint32_t s) { return s <= original_score; });
  }

 private:
  static constexpr std::uint32_t kEmpty = UINT32_MAX;

  struct Slot {
    std::uint64_t hash = 0;
    std::uint32_t id = kEmpty;
  };

  // Gate bit for a token length: 1..63 have their own bit, longer share 63.
  static std::uint64_t length_bit(std::size_t n) {
    return std::uint64_t{1} << (std::min<std::size_t>(n, 64) - 1);
  }

  [[nodiscard]] std::size_t home(std::uint64_t hash) const {
    return static_cast<std::size_t>(hash ^ (hash >> 32)) & (slots_.size() - 1);
  }

  /// Id of the token at [p, p+n), or kEmpty if no sub-query has it.
  [[nodiscard]] std::uint32_t find(const unsigned char* p, std::size_t n,
                                   unsigned char first) const {
    if ((gate_[first] & length_bit(n)) == 0) return kEmpty;
    const std::uint64_t hash = hash_token(p, n);
    for (std::size_t i = home(hash);; i = (i + 1) & (slots_.size() - 1)) {
      const Slot& slot = slots_[i];
      if (slot.id == kEmpty) return kEmpty;
      if (slot.hash == hash && equals(tokens_[slot.id], p, n)) return slot.id;
    }
  }

  static bool equals(std::string_view folded, const unsigned char* p, std::size_t n) {
    if (folded.size() != n) return false;
    for (std::size_t i = 0; i < n; ++i) {
      if (folded[i] != text::token_fold(p[i])) return false;
    }
    return true;
  }

  std::uint32_t insert(const unsigned char* p, std::size_t n, unsigned char first) {
    if (const std::uint32_t id = find(p, n, first); id != kEmpty) return id;
    if ((tokens_.size() + 1) * 2 > slots_.size()) grow();
    const auto id = static_cast<std::uint32_t>(tokens_.size());
    std::string& token = tokens_.emplace_back(n, '\0');
    for (std::size_t i = 0; i < n; ++i) token[i] = text::token_fold(p[i]);
    place({hash_token(p, n), id});
    gate_[first] |= length_bit(n);
    query_bits_.resize(query_bits_.size() + words_per_token_);
    stamps_.push_back(0);
    return id;
  }

  void place(const Slot& entry) {
    std::size_t i = home(entry.hash);
    while (slots_[i].id != kEmpty) i = (i + 1) & (slots_.size() - 1);
    slots_[i] = entry;
  }

  void grow() {
    std::vector<Slot> old(slots_.size() * 2);
    slots_.swap(old);
    for (const Slot& slot : old) {
      if (slot.id != kEmpty) place(slot);
    }
  }

  void accumulate(std::string_view field) {
    ++epoch_;
    for_each_token(field, [&](const unsigned char* p, std::size_t n,
                              unsigned char first) {
      const std::uint32_t id = find(p, n, first);
      // The epoch stamp counts a token once per field.
      if (id == kEmpty || stamps_[id] == epoch_) return;
      stamps_[id] = epoch_;
      for (std::size_t w = 0; w < words_per_token_; ++w) {
        for (std::uint64_t bits = query_bits_[id * words_per_token_ + w]; bits != 0;
             bits &= bits - 1) {
          ++scores_[w * 64 + static_cast<std::size_t>(std::countr_zero(bits))];
        }
      }
    });
  }

  std::size_t words_per_token_;            // bitset words per token id
  std::array<std::uint64_t, 256> gate_{};  // folded first byte → length bits
  std::vector<Slot> slots_ = std::vector<Slot>(32);  // power of two; half-load growth
  std::vector<std::string> tokens_;                  // case-folded, by id
  std::vector<std::uint64_t> query_bits_;  // id → sub-queries containing it
  std::vector<std::uint32_t> stamps_;      // id → epoch it was last counted in
  std::uint32_t epoch_ = 0;
  std::vector<std::uint32_t> scores_;  // per sub-query, for the current result
};

// Innermost target of nested tracking redirects, as a view into `url`. A
// redirect that names no target comes back as it is, still a tracking URL.
std::string_view unwrap_tracking(std::string_view url) {
  while (const auto target = engine::extract_target_url(url)) url = *target;
  return url;
}

}  // namespace

std::vector<engine::SearchResult> ResultFilter::filter(
    std::string_view original, const std::vector<std::string>& fakes,
    std::vector<engine::SearchResult> results) const {
  std::vector<engine::SearchResult> kept =
      scoring_ == FilterScoring::kCommonWords
          ? filter_common_words(original, fakes, std::move(results))
          : filter_cosine(original, fakes, std::move(results));
  strip_tracking(kept);
  return kept;
}

std::vector<engine::SearchResult> ResultFilter::filter_views(
    std::string_view original, const std::vector<std::string>& fakes,
    std::span<const engine::SearchResultView> results) const {
  if (scoring_ == FilterScoring::kCosine) {
    // The ablation scorer works on owned results.
    std::vector<engine::SearchResult> owned;
    owned.reserve(results.size());
    for (const auto& r : results) owned.push_back(r.owned());
    return filter(original, fakes, std::move(owned));
  }
  CommonWordsScorer scorer(original, fakes);
  std::vector<engine::SearchResult> kept;
  kept.reserve(results.size());
  for (const auto& r : results) {
    if (!scorer.keeps(r.title, r.description)) continue;
    const std::string_view url = unwrap_tracking(r.url);
    if (engine::is_tracking_url(url)) continue;  // redirect with no target
    kept.push_back({r.doc, std::string(r.title), std::string(r.description),
                    std::string(url), r.score});
  }
  return kept;
}

std::vector<engine::SearchResult> ResultFilter::filter_common_words(
    std::string_view original, const std::vector<std::string>& fakes,
    std::vector<engine::SearchResult> results) const {
  CommonWordsScorer scorer(original, fakes);
  std::vector<engine::SearchResult> kept;
  kept.reserve(results.size());
  for (auto& r : results) {
    if (scorer.keeps(r.title, r.description)) kept.push_back(std::move(r));
  }
  return kept;
}

std::vector<engine::SearchResult> ResultFilter::filter_cosine(
    std::string_view original, const std::vector<std::string>& fakes,
    std::vector<engine::SearchResult> results) const {
  // One vocabulary for the whole batch; each sub-query's TF vector is built
  // exactly once. Cosine depends only on term identity, not id values, so
  // sharing the vocabulary leaves every score unchanged.
  text::Vocabulary vocab;
  std::vector<text::SparseVector> query_vecs;
  query_vecs.reserve(fakes.size() + 1);
  query_vecs.push_back(text::tf_vector(vocab, original));
  for (const auto& fake : fakes) query_vecs.push_back(text::tf_vector(vocab, fake));

  std::vector<engine::SearchResult> kept;
  kept.reserve(results.size());
  std::string textual;
  for (auto& r : results) {
    textual.assign(r.title);
    textual += ' ';
    textual += r.description;
    const text::SparseVector r_vec = text::tf_vector(vocab, textual);
    const double original_score = query_vecs[0].cosine(r_vec);
    bool is_max = true;
    for (std::size_t q = 1; q < query_vecs.size(); ++q) {
      if (query_vecs[q].cosine(r_vec) > original_score) {
        is_max = false;
        break;
      }
    }
    if (is_max) kept.push_back(std::move(r));
  }
  return kept;
}

void ResultFilter::strip_tracking(std::vector<engine::SearchResult>& results) {
  for (auto& r : results) {
    const std::string_view url = unwrap_tracking(r.url);
    r.url.erase(0, static_cast<std::size_t>(url.data() - r.url.data()));
  }
  // What is still a redirect named no target; the engine is untrusted, so
  // such a link must not reach the client.
  std::erase_if(results, [](const engine::SearchResult& r) {
    return engine::is_tracking_url(r.url);
  });
}

}  // namespace xsearch::core
