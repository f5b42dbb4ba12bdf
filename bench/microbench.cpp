// Query hot-path microbenchmarks — the per-PR perf trajectory tracker.
//
// Times the four stages a query pays inside the proxy, in isolation:
//
//   obfuscate    Algorithm 1: history sample + shuffle + history add
//   obfuscate_mt same, from N threads over one shared history (the
//                lock-free-obfuscation claim, measured)
//   filter       Algorithm 2 at k=7, results_per_subquery=10 (R=80), both
//                scorings, against an embedded *reference* implementation —
//                a verbatim copy of the pre-optimization per-pair scorer —
//                so the optimized filter's speedup is re-measurable forever
//   filter/live_shape
//                the common-words filter at the live-search shape (k=3, 20
//                results per sub-query, 25-word descriptions, tracking URLs)
//                over views into the serialized reply, as the proxy runs it;
//                cross-checked result-for-result against the reference
//   wire/parse_results_inplace
//                parsing that reply in place (views, no copies) vs
//                wire/parse_results, the owning parse
//   search_or    the engine's k+1-sub-query OR evaluation + merge
//   engine/search_or_encoded
//                the engine round trip at live-search shape (4 sub-queries
//                x 20 results), ending in the encoded reply hosts send
//   seal_open    one channel AEAD round trip at a typical record size
//
// Output: a human-readable table on stdout and machine-readable JSON
// (default BENCH_micro.json, first CLI arg overrides), uploaded by the CI
// release-bench job so numbers accumulate per PR.
//
// Run: ./build/bench/microbench [out.json]
#include <algorithm>
#include <chrono>
#include <cstdio>
#include <string>
#include <thread>
#include <unordered_set>
#include <vector>

#include "bench_common.hpp"
#include "common/rng.hpp"
#include "crypto/secure_channel.hpp"
#include "net/frame.hpp"
#include "net/socket.hpp"
#include "sgx/enclave.hpp"
#include "crypto/x25519.hpp"
#include "engine/analytics.hpp"
#include "text/sparse_vector.hpp"
#include "text/tokenizer.hpp"
#include "text/vocabulary.hpp"
#include "xsearch/filter.hpp"
#include "xsearch/history.hpp"
#include "xsearch/obfuscator.hpp"
#include "xsearch/wire.hpp"

namespace {

using namespace xsearch;  // NOLINT
using Clock = std::chrono::steady_clock;

constexpr std::size_t kFilterK = 7;
constexpr std::size_t kResultsPerSubquery = 10;

double us_per_op(Clock::time_point t0, Clock::time_point t1, std::size_t ops) {
  return std::chrono::duration<double, std::micro>(t1 - t0).count() /
         static_cast<double>(ops);
}

// ---- reference filter: the pre-PR per-pair implementation -----------------
//
// Kept verbatim (modulo the removed helper overloads) as the fixed point the
// optimized ResultFilter is measured against. Scores every (sub-query,
// result) pair from scratch: one tokenization + hash-set build per pair.
class ReferenceFilter {
 public:
  explicit ReferenceFilter(core::FilterScoring scoring) : scoring_(scoring) {}

  [[nodiscard]] std::vector<engine::SearchResult> filter(
      std::string_view original, const std::vector<std::string>& fakes,
      std::vector<engine::SearchResult> results) const {
    std::vector<engine::SearchResult> kept;
    kept.reserve(results.size());
    for (auto& r : results) {
      const double original_score = score(original, r);
      bool is_max = true;
      for (const auto& fake : fakes) {
        if (score(fake, r) > original_score) {
          is_max = false;
          break;
        }
      }
      if (is_max) kept.push_back(std::move(r));
    }
    core::ResultFilter::strip_tracking(kept);
    return kept;
  }

 private:
  [[nodiscard]] static std::size_t common_words(
      const std::unordered_set<std::string>& a_words, std::string_view b) {
    std::size_t count = 0;
    std::unordered_set<std::string> seen;
    for (auto& token : text::tokenize(b)) {
      if (a_words.contains(token) && seen.insert(token).second) ++count;
    }
    return count;
  }

  [[nodiscard]] double score(std::string_view query,
                             const engine::SearchResult& result) const {
    if (scoring_ == core::FilterScoring::kCommonWords) {
      const auto tokens = text::tokenize(query);
      const std::unordered_set<std::string> words(tokens.begin(), tokens.end());
      return static_cast<double>(common_words(words, result.title) +
                                 common_words(words, result.description));
    }
    text::Vocabulary vocab;
    const auto q_vec = text::tf_vector(vocab, query);
    const auto r_vec =
        text::tf_vector(vocab, result.title + " " + result.description);
    return q_vec.cosine(r_vec);
  }

  core::FilterScoring scoring_;
};

// ---- synthetic filter workload --------------------------------------------

struct FilterWorkload {
  std::string original;
  std::vector<std::string> fakes;
  std::vector<engine::SearchResult> results;
};

FilterWorkload make_filter_workload(Rng& rng) {
  const std::vector<std::string> pool = {
      "private", "web",     "search",  "engine",   "enclave", "proxy",
      "query",   "results", "pasta",   "recipe",   "quantum", "physics",
      "tennis",  "scores",  "weather", "forecast", "music",   "festival",
      "travel",  "booking", "linux",   "kernel",   "privacy", "tracking"};
  const auto words = [&](std::size_t n) {
    std::string s;
    for (std::size_t i = 0; i < n; ++i) {
      if (!s.empty()) s += ' ';
      s += pool[rng.uniform(pool.size())];
    }
    return s;
  };

  FilterWorkload w;
  w.original = words(3);
  for (std::size_t i = 0; i < kFilterK; ++i) w.fakes.push_back(words(3));
  const std::size_t R = (kFilterK + 1) * kResultsPerSubquery;
  for (std::size_t i = 0; i < R; ++i) {
    engine::SearchResult r;
    r.doc = static_cast<engine::DocId>(i);
    r.title = words(6);
    r.description = words(25);
    r.url = "https://results.example/" + std::to_string(i);
    w.results.push_back(std::move(r));
  }
  return w;
}

// Live-search shape: k=3 fakes, 20 results per sub-query, 6-word titles
// and 25-word descriptions over a 600-word vocabulary, each result carrying
// two of its own sub-query's words in the title and the description, and
// tracking URLs (nested on every fifth result) as the engine serves them.
constexpr std::size_t kLiveK = 3;
constexpr std::size_t kLiveResultsPerSubquery = 20;

FilterWorkload make_live_filter_workload(Rng& rng) {
  std::vector<std::string> vocabulary;
  for (std::size_t i = 0; i < 600; ++i) {
    std::string word;
    const std::size_t len = 3 + rng.uniform(8);
    for (std::size_t c = 0; c < len; ++c) {
      word += static_cast<char>('a' + rng.uniform(26));
    }
    if (rng.bernoulli(0.1)) word[0] = static_cast<char>(word[0] - 'a' + 'A');
    vocabulary.push_back(std::move(word));
  }
  const auto query = [&] {
    std::string q;
    for (std::size_t i = 0; i < 3; ++i) {
      q += vocabulary[rng.uniform(vocabulary.size())] + ' ';
    }
    return q;
  };
  FilterWorkload w;
  w.original = query();
  for (std::size_t i = 0; i < kLiveK; ++i) w.fakes.push_back(query());

  const auto words = [&](std::size_t n, const std::vector<std::string>& own) {
    std::string s;
    for (std::size_t i = 0; i < n; ++i) {
      s += i < own.size() ? own[i] : vocabulary[rng.uniform(vocabulary.size())];
      s += rng.bernoulli(0.1) ? ", " : " ";
    }
    return s;
  };
  for (std::size_t q = 0; q <= kLiveK; ++q) {
    const std::vector<std::string> own =
        text::tokenize(q == 0 ? w.original : w.fakes[q - 1]);
    for (std::size_t i = 0; i < kLiveResultsPerSubquery; ++i) {
      const auto pick = [&] {
        return std::vector<std::string>{own[rng.uniform(own.size())],
                                        own[rng.uniform(own.size())]};
      };
      engine::SearchResult r;
      r.doc = static_cast<engine::DocId>(w.results.size());
      r.title = words(6, pick());
      r.description = words(25, pick());
      r.url = engine::make_tracking_url(
          "https://results.example/page/" + std::to_string(r.doc), rng.next());
      if (r.doc % 5 == 0) r.url = engine::make_tracking_url(r.url, rng.next());
      r.score = rng.uniform_double();
      w.results.push_back(std::move(r));
    }
  }
  return w;
}

// ---- replay stream: serves a prepared wire image forever ------------------
//
// Backs the frame/parse_copy stage: read_frame() pulls the length word and
// then the rest of the 9-byte header plus body as separate read_exact
// calls, each of which this stream answers with a freshly allocated copy —
// exactly the per-read allocation profile a blocking reader pays per frame.
class ReplayStream final : public net::ByteStream {
 public:
  explicit ReplayStream(Bytes wire) : wire_(std::move(wire)) {}

  [[nodiscard]] Status write_all(ByteSpan, const Deadline&) override {
    return Status::ok();
  }
  [[nodiscard]] Result<Bytes> read_exact(std::size_t n,
                                         const Deadline&) override {
    Bytes out;
    out.reserve(n);
    while (out.size() < n) {
      const std::size_t take = std::min(n - out.size(), wire_.size() - pos_);
      out.insert(out.end(), wire_.begin() + static_cast<std::ptrdiff_t>(pos_),
                 wire_.begin() + static_cast<std::ptrdiff_t>(pos_ + take));
      pos_ = (pos_ + take) % wire_.size();
    }
    return out;
  }
  void shutdown_both() override {}
  [[nodiscard]] bool valid() const override { return true; }

 private:
  Bytes wire_;
  std::size_t pos_ = 0;
};

struct StageResult {
  std::string name;
  double us = 0.0;
  double ops_per_sec = 0.0;
};

std::vector<StageResult> g_stages;

void report(const std::string& name, double us) {
  std::printf("%-24s %12.2f us/op %14.0f ops/s\n", name.c_str(), us,
              1e6 / us);
  g_stages.push_back({name, us, 1e6 / us});
}

}  // namespace

int main(int argc, char** argv) {
  const std::string json_path = argc > 1 ? argv[1] : "BENCH_micro.json";
  std::printf("# microbench: query hot-path stages (k=%zu, results/subq=%zu)\n",
              kFilterK, kResultsPerSubquery);
  Rng rng(42);

  // ---- obfuscate ----------------------------------------------------------
  {
    core::QueryHistory history(100'000);
    for (std::size_t i = 0; i < 20'000; ++i) {
      history.add("warm query " + std::to_string(i));
    }
    core::Obfuscator obfuscator(history, kFilterK);
    const std::size_t iters = 20'000;
    const auto t0 = Clock::now();
    for (std::size_t i = 0; i < iters; ++i) {
      (void)obfuscator.obfuscate("the user query", rng);
    }
    report("obfuscate", us_per_op(t0, Clock::now(), iters));
  }

  // ---- obfuscate_mt: shared history, one RNG stream per thread ------------
  for (const std::size_t threads : {1u, 2u, 4u}) {
    core::QueryHistory history(100'000);
    for (std::size_t i = 0; i < 20'000; ++i) {
      history.add("warm query " + std::to_string(i));
    }
    core::Obfuscator obfuscator(history, kFilterK);
    const std::size_t iters_each = 8'000;
    std::vector<std::thread> pool;
    const auto t0 = Clock::now();
    for (std::size_t t = 0; t < threads; ++t) {
      pool.emplace_back([&, t] {
        Rng thread_rng(1000 + t);  // the per-session stream, modeled
        for (std::size_t i = 0; i < iters_each; ++i) {
          (void)obfuscator.obfuscate("the user query", thread_rng);
        }
      });
    }
    for (auto& th : pool) th.join();
    const double us =
        us_per_op(t0, Clock::now(), iters_each * threads);
    report("obfuscate_mt/" + std::to_string(threads), us);
  }

  // ---- filter: optimized vs reference, both scorings ----------------------
  double filter_speedup = 0.0;
  {
    FilterWorkload w = make_filter_workload(rng);
    struct Variant {
      const char* name;
      core::FilterScoring scoring;
      std::size_t iters_opt;
      std::size_t iters_ref;
    };
    for (const Variant v :
         {Variant{"common_words", core::FilterScoring::kCommonWords, 2000, 200},
          Variant{"cosine", core::FilterScoring::kCosine, 1000, 100}}) {
      const core::ResultFilter optimized(v.scoring);
      const ReferenceFilter reference(v.scoring);

      // The two implementations must agree before their timings mean
      // anything (the randomized equivalence test covers this exhaustively;
      // this is the smoke version).
      const auto kept_opt = optimized.filter(w.original, w.fakes, w.results);
      const auto kept_ref = reference.filter(w.original, w.fakes, w.results);
      if (kept_opt.size() != kept_ref.size()) {
        std::fprintf(stderr, "filter mismatch (%s): opt=%zu ref=%zu\n", v.name,
                     kept_opt.size(), kept_ref.size());
        return 1;
      }

      auto t0 = Clock::now();
      for (std::size_t i = 0; i < v.iters_opt; ++i) {
        (void)optimized.filter(w.original, w.fakes, w.results);
      }
      const double opt_us = us_per_op(t0, Clock::now(), v.iters_opt);

      t0 = Clock::now();
      for (std::size_t i = 0; i < v.iters_ref; ++i) {
        (void)reference.filter(w.original, w.fakes, w.results);
      }
      const double ref_us = us_per_op(t0, Clock::now(), v.iters_ref);

      report(std::string("filter/") + v.name, opt_us);
      report(std::string("filter_ref/") + v.name, ref_us);
      std::printf("%-24s %12.1fx\n", (std::string("speedup/") + v.name).c_str(),
                  ref_us / opt_us);
      if (v.scoring == core::FilterScoring::kCommonWords) {
        filter_speedup = ref_us / opt_us;
      }
    }
  }

  // ---- filter/live_shape + wire: the proxy's engine-reply path ------------
  {
    // Its own stream, so the stages after it see the inputs they always did.
    Rng live_rng(13);
    const FilterWorkload w = make_live_filter_workload(live_rng);
    const Bytes reply = core::wire::serialize_results(w.results);
    const core::ResultFilter optimized;
    const ReferenceFilter reference(core::FilterScoring::kCommonWords);

    const auto views = core::wire::parse_result_views(reply);
    if (!views.is_ok()) {
      std::fprintf(stderr, "wire/parse_results_inplace: bad reply\n");
      return 1;
    }
    const auto kept = optimized.filter_views(w.original, w.fakes, views.value());
    const auto kept_ref = reference.filter(w.original, w.fakes, w.results);
    if (kept != kept_ref || kept.empty() || kept.size() == w.results.size()) {
      std::fprintf(stderr, "filter/live_shape mismatch: opt=%zu ref=%zu of %zu\n",
                   kept.size(), kept_ref.size(), w.results.size());
      return 1;
    }

    std::size_t iters = 5000;
    auto t0 = Clock::now();
    for (std::size_t i = 0; i < iters; ++i) {
      (void)optimized.filter_views(w.original, w.fakes, views.value());
    }
    report("filter/live_shape", us_per_op(t0, Clock::now(), iters));

    iters = 20'000;
    std::size_t sink = 0;
    t0 = Clock::now();
    for (std::size_t i = 0; i < iters; ++i) {
      sink += core::wire::parse_result_views(reply).value().size();
    }
    report("wire/parse_results_inplace", us_per_op(t0, Clock::now(), iters));
    t0 = Clock::now();
    for (std::size_t i = 0; i < iters; ++i) {
      sink += core::wire::parse_results(reply).value().size();
    }
    report("wire/parse_results", us_per_op(t0, Clock::now(), iters));
    if (sink != 2 * iters * w.results.size()) {
      std::fprintf(stderr, "wire: parsed result count drifted\n");
      return 1;
    }
  }

  // ---- search_or ----------------------------------------------------------
  {
    const auto bed = bench::make_testbed(
        {.num_users = 50, .total_queries = 4'000, .num_documents = 2'000});
    core::QueryHistory history(50'000);
    for (const auto& rec : bed->split.train.records()) history.add(rec.text);
    core::Obfuscator obfuscator(history, kFilterK);
    const auto& test = bed->split.test.records();
    const std::size_t iters = 400;
    // Obfuscate before the clock starts, so the stage times the engine
    // alone (Algorithm 1 has its own `obfuscate` stage).
    std::vector<std::vector<std::string>> or_queries;
    or_queries.reserve(iters);
    for (std::size_t i = 0; i < iters; ++i) {
      or_queries.push_back(
          obfuscator.obfuscate(test[i % test.size()].text, rng).sub_queries);
    }
    const auto t0 = Clock::now();
    for (const auto& sub_queries : or_queries) {
      (void)bed->engine->search_or(sub_queries, kResultsPerSubquery);
    }
    report("search_or", us_per_op(t0, Clock::now(), iters));

    // engine/search_or_encoded: the engine round trip a host pays on
    // live-search — 4 sub-queries (k=3) x 20 results, answered as the
    // encoded reply it sends. Own stream and pre-drawn queries, so only the
    // engine is timed and the stages after it see the inputs they always did.
    Rng live_rng(17);
    const core::Obfuscator live_obfuscator(history, 3);
    std::vector<std::vector<std::string>> live_queries;
    for (std::size_t i = 0; i < 200; ++i) {
      live_queries.push_back(
          live_obfuscator.obfuscate(test[i % test.size()].text, live_rng).sub_queries);
    }
    const std::size_t live_iters = 2000;
    std::size_t reply_bytes = 0;
    const auto t1 = Clock::now();
    for (std::size_t i = 0; i < live_iters; ++i) {
      reply_bytes +=
          bed->engine->search_or_encoded(live_queries[i % live_queries.size()], 20).size();
    }
    report("engine/search_or_encoded", us_per_op(t1, Clock::now(), live_iters));
    std::printf("# engine: %.1f KB per reply, %.1f KB of pre-rendered records for %zu docs\n",
                static_cast<double>(reply_bytes) / live_iters / 1024.0,
                static_cast<double>(bed->engine->record_bytes()) / 1024.0,
                bed->engine->document_count());
  }

  // ---- seal_open ----------------------------------------------------------
  {
    crypto::X25519Secret::Raw seed{};
    seed[0] = 1;
    const auto server_static =
        crypto::x25519_keypair_from_seed(crypto::X25519Secret(seed));
    seed[0] = 2;
    const auto server_eph =
        crypto::x25519_keypair_from_seed(crypto::X25519Secret(seed));
    seed[0] = 3;
    const auto client_eph =
        crypto::x25519_keypair_from_seed(crypto::X25519Secret(seed));
    crypto::SecureChannel client = crypto::SecureChannel::initiator(
        client_eph, server_static.public_key, server_eph.public_key);
    crypto::SecureChannel server = crypto::SecureChannel::responder(
        server_static, server_eph, client_eph.public_key);

    const Bytes payload(4096, 0x5a);  // a typical filtered-results frame
    const std::size_t iters = 20'000;
    const auto t0 = Clock::now();
    for (std::size_t i = 0; i < iters; ++i) {
      auto opened = server.open(client.seal(payload));
      if (!opened) {
        std::fprintf(stderr, "seal/open failed\n");
        return 1;
      }
    }
    report("seal_open/4KiB", us_per_op(t0, Clock::now(), iters));
  }

  // ---- frame parse: blocking copy path vs zero-copy cursor ----------------
  //
  // The same 512-byte kQuery frame (9-byte header), decoded two ways.
  // parse_copy is the blocking read_frame() shape: one read_exact for the
  // length word and one for the rest, each allocating and copying (served
  // here from an in-memory replay stream, so the delta is pure decode cost —
  // no syscalls on either side). parse_cursor is the reactor's FrameCursor
  // over an already-buffered wire image: header fields are decoded in place
  // and the payload comes back as a span into the buffer, zero allocations
  // per frame.
  {
    const Bytes payload(512, 0x5a);
    auto header = net::encode_frame_header(net::FrameType::kQuery, payload.size());
    if (!header.is_ok()) {
      std::fprintf(stderr, "encode_frame_header failed\n");
      return 1;
    }
    Bytes wire = std::move(header).value();
    append(wire, payload);

    const std::size_t iters = 200'000;
    {
      ReplayStream stream(wire);
      const auto t0 = Clock::now();
      for (std::size_t i = 0; i < iters; ++i) {
        auto frame = net::read_frame(stream);
        if (!frame.is_ok() || frame.value().payload.size() != payload.size()) {
          std::fprintf(stderr, "frame/parse_copy: bad frame\n");
          return 1;
        }
      }
      report("frame/parse_copy", us_per_op(t0, Clock::now(), iters));
    }
    {
      // A receive buffer holding several frames, walked the way a reactor
      // connection walks its rbuf: parse at the cursor, consume frame_bytes.
      Bytes rbuf;
      for (std::size_t i = 0; i < 16; ++i) append(rbuf, wire);
      std::size_t offset = 0;
      std::uint64_t sink = 0;
      const auto t0 = Clock::now();
      for (std::size_t i = 0; i < iters; ++i) {
        const auto step = net::FrameCursor::parse(
            ByteSpan(rbuf).subspan(offset, rbuf.size() - offset));
        if (step.state != net::FrameCursor::State::kFrame) {
          std::fprintf(stderr, "frame/parse_cursor: bad frame\n");
          return 1;
        }
        sink += step.frame.payload.size();
        offset += step.frame.frame_bytes;
        if (offset == rbuf.size()) offset = 0;
      }
      report("frame/parse_cursor", us_per_op(t0, Clock::now(), iters));
      if (sink != iters * payload.size()) {
        std::fprintf(stderr, "frame/parse_cursor: payload size drifted\n");
        return 1;
      }
    }
  }

  // ---- boundary: 2-ecall path vs switchless job ring ----------------------
  //
  // Same trivial request handler, two transports. The simulation charges no
  // per-transition cost (hardware SGX pays ~8us per crossing), so the
  // structural win of the exitless path — ZERO transitions per request,
  // printed below — does not show up as wall-clock here; on this box the
  // ring adds scheduler hops instead. The JSON keeps both so the trend
  // tracker catches regressions in either transport's constant factor.
  {
    sgx::EnclaveRuntime enclave(
        {.code_identity = to_bytes("microbench-boundary-enclave")});
    enclave.register_ecall(
        sgx::EcallId::kRequest,
        [](ByteSpan in) -> Result<Bytes> { return Bytes(in.begin(), in.end()); });
    const Bytes payload(256, 0x42);
    const std::size_t iters = 20'000;

    auto t0 = Clock::now();
    for (std::size_t i = 0; i < iters; ++i) {
      auto r = enclave.ecall(sgx::EcallId::kRequest, payload);
      if (!r.is_ok()) return 1;
    }
    report("boundary/ecall", us_per_op(t0, Clock::now(), iters));
    const auto ecall_transitions = enclave.transition_stats().ecalls;

    sgx::SwitchlessOptions switchless;
    switchless.ring_depth = 64;
    switchless.workers = 1;
    switchless.pickup_patience = kSecond;  // live worker: measure the ring
    enclave.start_switchless(switchless);
    const auto before_ring = enclave.transition_stats().ecalls;
    t0 = Clock::now();
    for (std::size_t i = 0; i < iters; ++i) {
      auto r = enclave.submit(sgx::EcallId::kRequest, payload);
      if (!r.is_ok()) return 1;
    }
    report("boundary/switchless", us_per_op(t0, Clock::now(), iters));
    const auto ring_transitions = enclave.transition_stats().ecalls - before_ring;
    const auto ring = enclave.ring_stats();
    enclave.stop_switchless();
    std::printf(
        "%-24s %zu requests: %llu transitions on the ecall path, %llu on the "
        "ring (%llu rode it switchlessly, %llu fell back)\n",
        "transitions", iters,
        static_cast<unsigned long long>(ecall_transitions),
        static_cast<unsigned long long>(ring_transitions),
        static_cast<unsigned long long>(ring.jobs_switchless),
        static_cast<unsigned long long>(ring.fallback_ecalls));
  }

  // ---- JSON ---------------------------------------------------------------
  if (std::FILE* f = std::fopen(json_path.c_str(), "w")) {
    std::fprintf(f, "{\n  \"config\": {\"k\": %zu, \"results_per_subquery\": %zu},\n",
                 kFilterK, kResultsPerSubquery);
    std::fprintf(f, "  \"filter_speedup_common_words\": %.2f,\n", filter_speedup);
    std::fprintf(f, "  \"stages\": [\n");
    for (std::size_t i = 0; i < g_stages.size(); ++i) {
      std::fprintf(f,
                   "    {\"name\": \"%s\", \"us_per_op\": %.3f, "
                   "\"ops_per_sec\": %.1f}%s\n",
                   g_stages[i].name.c_str(), g_stages[i].us,
                   g_stages[i].ops_per_sec,
                   i + 1 < g_stages.size() ? "," : "");
    }
    std::fprintf(f, "  ]\n}\n");
    std::fclose(f);
    std::printf("# wrote %s\n", json_path.c_str());
  } else {
    std::fprintf(stderr, "cannot write %s\n", json_path.c_str());
    return 1;
  }

  // Regression alarm: the optimized filter measures 5x and more even on noisy
  // shared runners. Below 4x print a loud warning (could be CI jitter);
  // below 2x something is actually broken — fail the job.
  if (filter_speedup < 2.0) {
    std::fprintf(stderr,
                 "filter speedup %.2fx below the 2x regression bar — the "
                 "optimized filter has regressed\n",
                 filter_speedup);
    return 1;
  }
  if (filter_speedup < 4.0) {
    std::fprintf(stderr,
                 "warning: filter speedup %.2fx below the expected 4x "
                 "(noisy runner, or a creeping regression — check the "
                 "BENCH_micro.json trend)\n",
                 filter_speedup);
  }
  return 0;
}
