#include "engine/search_engine.hpp"

#include <algorithm>

#include "common/rng.hpp"
#include "engine/analytics.hpp"
#include "engine/result_record.hpp"

namespace xsearch::engine {

namespace {

/// One thread's ranking state, reused by every search on that thread: the
/// index scratch, the per-sub-query ranked lists and the merged list.
struct ThreadScratch {
  InvertedIndex::Scratch index;
  std::vector<std::vector<ScoredDoc>> per_query;
  std::vector<ScoredDoc> ranked;
};

ThreadScratch& thread_scratch() {
  thread_local ThreadScratch scratch;
  return scratch;
}

/// The leading `words` words of `body`, without a trailing space.
std::string_view snippet(std::string_view body, std::size_t words) {
  std::size_t count = 0;
  std::size_t end = 0;
  while (end < body.size() && count < words) {
    const auto space = body.find(' ', end);
    if (space == std::string_view::npos) {
      end = body.size();
      break;
    }
    end = space + 1;
    ++count;
  }
  std::string_view out = body.substr(0, end);
  if (!out.empty() && out.back() == ' ') out.remove_suffix(1);
  return out;
}

/// The analytics redirect's opaque (but deterministic) token for a doc.
std::uint64_t tracking_token(DocId doc) {
  std::uint64_t state = 0x414e41ull ^ (std::uint64_t{doc} << 17);
  return splitmix64(state);
}

/// Reads one length-prefixed field of a record the engine encoded itself.
std::string_view take_field(const std::uint8_t*& p) {
  const std::uint32_t len = load_be32(p);
  const std::string_view field(reinterpret_cast<const char*>(p + 4), len);
  p += 4 + len;
  return field;
}

}  // namespace

SearchEngine::SearchEngine(const Corpus& corpus, std::size_t snippet_words,
                           Bm25Params params)
    : SearchEngine(std::span<const Document>(corpus.documents()), snippet_words,
                   params) {}

SearchEngine::SearchEngine(std::span<const Document> documents,
                           std::size_t snippet_words, Bm25Params params)
    : index_(params) {
  record_offsets_.reserve(documents.size() + 1);
  for (const Document& doc : documents) {
    index_.add_document(doc);
    record_offsets_.push_back(records_.size());
    append_record_prefix(records_, doc.id, doc.title, snippet(doc.body, snippet_words),
                         make_tracking_url(doc.url, tracking_token(doc.id)));
  }
  record_offsets_.push_back(records_.size());
  records_.shrink_to_fit();
  index_.freeze();
}

const std::vector<ScoredDoc>& SearchEngine::rank(std::string_view query,
                                                 std::size_t top_k) const {
  if (observer_) observer_(query);
  ThreadScratch& scratch = thread_scratch();
  index_.search_with(query, top_k, scratch.index, scratch.ranked);
  return scratch.ranked;
}

const std::vector<ScoredDoc>& SearchEngine::rank_or(
    const std::vector<std::string>& sub_queries, std::size_t top_k_each) const {
  if (observer_) {
    // The engine sees one OR query, exactly as the proxy sends it.
    std::string combined;
    std::size_t total = 0;
    for (const auto& q : sub_queries) total += q.size() + 4;
    combined.reserve(total);
    for (const auto& q : sub_queries) {
      if (!combined.empty()) combined += " OR ";
      combined += q;
    }
    observer_(combined);
  }

  // Evaluate each sub-query independently (paper §5.3.2) through this
  // thread's scratch ...
  ThreadScratch& scratch = thread_scratch();
  if (scratch.per_query.size() < sub_queries.size()) {
    scratch.per_query.resize(sub_queries.size());
  }
  const std::span<std::vector<ScoredDoc>> per_query(scratch.per_query.data(),
                                                    sub_queries.size());
  std::size_t longest = 0;
  for (std::size_t i = 0; i < sub_queries.size(); ++i) {
    index_.search_with(sub_queries[i], top_k_each, scratch.index, per_query[i]);
    longest = std::max(longest, per_query[i].size());
  }

  // ... and merge rank-by-rank so every sub-query contributes near the top,
  // deduplicating documents on first sight. The merge visits only ranks
  // some list has: `top_k_each` is a wire value and may be huge.
  auto& ranked = scratch.ranked;
  ranked.clear();
  scratch.index.begin_pass(index_.document_count());
  for (std::size_t depth = 0; depth < longest; ++depth) {
    for (const auto& list : per_query) {
      if (depth < list.size() && scratch.index.first_visit(list[depth].doc)) {
        ranked.push_back(list[depth]);
      }
    }
  }
  return ranked;
}

Bytes SearchEngine::encode(const std::vector<ScoredDoc>& ranked) const {
  std::size_t size = kCountWireSize;
  for (const ScoredDoc& sd : ranked) {
    size += record_offsets_[sd.doc + 1] - record_offsets_[sd.doc] + kScoreWireSize;
  }
  Bytes out;
  out.reserve(size);
  append_count(out, static_cast<std::uint32_t>(ranked.size()));
  for (const ScoredDoc& sd : ranked) {
    const auto* record = records_.data() + record_offsets_[sd.doc];
    out.insert(out.end(), record, records_.data() + record_offsets_[sd.doc + 1]);
    append_score(out, sd.score);
  }
  return out;
}

std::vector<SearchResult> SearchEngine::materialize(
    const std::vector<ScoredDoc>& ranked) const {
  std::vector<SearchResult> out;
  out.reserve(ranked.size());
  for (const ScoredDoc& sd : ranked) {
    const std::uint8_t* p = records_.data() + record_offsets_[sd.doc] + 4;  // past the doc id
    SearchResultView view;
    view.doc = sd.doc;
    view.title = take_field(p);
    view.description = take_field(p);
    view.url = take_field(p);
    view.score = sd.score;
    out.push_back(view.owned());
  }
  return out;
}

std::vector<SearchResult> SearchEngine::search(std::string_view query,
                                               std::size_t top_k) const {
  return materialize(rank(query, top_k));
}

Bytes SearchEngine::search_encoded(std::string_view query, std::size_t top_k) const {
  return encode(rank(query, top_k));
}

std::vector<SearchResult> SearchEngine::search_or(
    const std::vector<std::string>& sub_queries, std::size_t top_k_each) const {
  return materialize(rank_or(sub_queries, top_k_each));
}

Bytes SearchEngine::search_or_encoded(const std::vector<std::string>& sub_queries,
                                      std::size_t top_k_each) const {
  return encode(rank_or(sub_queries, top_k_each));
}

}  // namespace xsearch::engine
