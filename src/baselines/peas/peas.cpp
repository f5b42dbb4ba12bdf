#include "baselines/peas/peas.hpp"

#include <cstring>

#include "crypto/hmac.hpp"
#include "text/tokenizer.hpp"
#include "xsearch/filter.hpp"
#include "xsearch/wire.hpp"

namespace xsearch::baselines::peas {

namespace {

constexpr char kEnvelopeInfo[] = "peas-envelope-v1";
constexpr std::uint32_t kNonceRequest = 0x50455152;   // "PEQR"
constexpr std::uint32_t kNonceResponse = 0x50455250;  // "PERP"

crypto::AeadKey derive_envelope_key(crypto::X25519Key shared) {
  // By value on purpose: guaranteed copy elision makes the call-site prvalue
  // this very parameter, so the wipe below reaches the only copy of the DH
  // shared secret (rule: wipe lingering secret temporaries).
  const crypto::AeadKey key =
      crypto::hkdf(/*salt=*/{}, shared, to_bytes(kEnvelopeInfo), crypto::kAeadKeySize)
          .slice<crypto::kAeadKeySize>();
  secure_wipe(shared);
  return key;
}

}  // namespace

// --- FakeQueryGenerator -----------------------------------------------------

FakeQueryGenerator::FakeQueryGenerator(const dataset::QueryLog& past_queries)
    : cooc_(vocab_) {
  for (const auto& record : past_queries.records()) cooc_.add_query(record.text);
}

std::string FakeQueryGenerator::generate(std::string_view reference, Rng& rng) const {
  std::size_t length = text::tokenize_no_stopwords(reference).size();
  if (length == 0) length = 1 + rng.uniform(3);
  return cooc_.generate_fake_query(length, rng);
}

std::vector<std::string> FakeQueryGenerator::generate_k(std::string_view reference,
                                                        std::size_t k, Rng& rng) const {
  std::vector<std::string> fakes;
  fakes.reserve(k);
  for (std::size_t i = 0; i < k; ++i) fakes.push_back(generate(reference, rng));
  return fakes;
}

// --- PeasIssuer --------------------------------------------------------------

PeasIssuer::PeasIssuer(const engine::SearchEngine* engine, std::uint64_t seed)
    : engine_(engine) {
  keys_ = crypto::x25519_keypair_from_seed(
      crypto::domain_seed(seed, /*tag=*/0x15));  // issuer domain separation
}

Result<Bytes> PeasIssuer::handle(ByteSpan envelope) {
  if (envelope.size() < crypto::kX25519KeySize + crypto::kAeadTagSize) {
    return invalid_argument("peas: envelope too short");
  }
  crypto::X25519Key client_eph;
  std::memcpy(client_eph.data(), envelope.data(), client_eph.size());
  const crypto::AeadKey key =
      derive_envelope_key(crypto::x25519(keys_.private_key, client_eph));

  auto plain = crypto::aead_open(key, crypto::make_nonce(kNonceRequest, 0),
                                 to_bytes(kEnvelopeInfo),
                                 envelope.subspan(client_eph.size()));
  if (!plain) return permission_denied("peas: envelope authentication failed");

  auto request = core::wire::parse_engine_request(*plain);
  if (!request) return request.status();

  const Bytes payload = engine_ != nullptr
                            ? engine_->search_or_encoded(request.value().sub_queries,
                                                         request.value().top_k_each)
                            : core::wire::serialize_results({});
  return crypto::aead_seal(key, crypto::make_nonce(kNonceResponse, 0),
                           to_bytes(kEnvelopeInfo), payload);
}

// --- PeasReceiver ------------------------------------------------------------

Result<Bytes> PeasReceiver::forward(std::uint32_t client_id, ByteSpan envelope) {
  // The receiver knows `client_id` (it terminates the client connection)
  // but can only relay the opaque envelope. Nothing about the query leaks
  // here unless receiver and issuer collude.
  (void)client_id;
  ++forwarded_;
  return issuer_->handle(envelope);
}

// --- PeasClient ---------------------------------------------------------------

PeasClient::PeasClient(std::uint32_t client_id, PeasReceiver& receiver,
                       const crypto::X25519Key& issuer_public_key,
                       const FakeQueryGenerator& fakes, std::size_t k,
                       std::uint64_t seed)
    : client_id_(client_id),
      receiver_(&receiver),
      issuer_public_key_(issuer_public_key),
      fakes_(&fakes),
      k_(k),
      rng_(seed),
      secure_rng_(crypto::domain_seed(seed, /*tag=*/0x9e)) {}

std::vector<std::string> PeasClient::protect(std::string_view query) {
  std::vector<std::string> sub_queries = fakes_->generate_k(query, k_, rng_);
  const std::size_t position = rng_.uniform(sub_queries.size() + 1);
  sub_queries.insert(sub_queries.begin() + static_cast<std::ptrdiff_t>(position),
                     std::string(query));
  return sub_queries;
}

Bytes PeasClient::encrypt_to_issuer(const std::vector<std::string>& sub_queries,
                                    std::uint32_t top_k_each) {
  const auto ephemeral = crypto::x25519_keypair_from_seed(secure_rng_.key());
  const crypto::AeadKey key =
      derive_envelope_key(crypto::x25519(ephemeral.private_key, issuer_public_key_));

  core::wire::EngineRequest request;
  request.sub_queries = sub_queries;
  request.top_k_each = top_k_each;

  Bytes envelope(ephemeral.public_key.begin(), ephemeral.public_key.end());
  append(envelope, crypto::aead_seal(key, crypto::make_nonce(kNonceRequest, 0),
                                     to_bytes(kEnvelopeInfo),
                                     core::wire::serialize_engine_request(request)));
  // Remember the session key for the response (stored in the envelope's
  // ephemeral slot client-side).
  last_key_ = key;
  return envelope;
}

Result<std::vector<engine::SearchResult>> PeasClient::search(std::string_view query,
                                                             std::uint32_t top_k_each) {
  const std::vector<std::string> sub_queries = protect(query);
  const Bytes envelope = encrypt_to_issuer(sub_queries, top_k_each);

  auto sealed_response = receiver_->forward(client_id_, envelope);
  if (!sealed_response) return sealed_response.status();

  auto payload = crypto::aead_open(last_key_, crypto::make_nonce(kNonceResponse, 0),
                                   to_bytes(kEnvelopeInfo), sealed_response.value());
  if (!payload) return permission_denied("peas: response authentication failed");

  auto results = core::wire::parse_results(*payload);
  if (!results) return results.status();

  // Client-side filtering: the client knows which sub-query was real.
  std::vector<std::string> fake_only;
  for (const auto& q : sub_queries) {
    if (q != query) fake_only.push_back(q);
  }
  core::ResultFilter filter;
  return filter.filter(query, fake_only, std::move(results).value());
}

}  // namespace xsearch::baselines::peas
