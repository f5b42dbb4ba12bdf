#include "baselines/tor/tor.hpp"

#include <cstring>

#include "crypto/hmac.hpp"
#include "xsearch/wire.hpp"

namespace xsearch::baselines::tor {

namespace {

constexpr char kCircuitInfo[] = "tor-circuit-key-v1";
constexpr std::uint32_t kNonceForward = 0x544f5246;   // "TORF"
constexpr std::uint32_t kNonceBackward = 0x544f5242;  // "TORB"

crypto::AeadKey derive_circuit_key(crypto::X25519Key shared) {
  // By value on purpose: guaranteed copy elision makes the call-site prvalue
  // this very parameter, so the wipe below reaches the only copy of the DH
  // shared secret (rule: wipe lingering secret temporaries).
  const crypto::AeadKey key =
      crypto::hkdf(/*salt=*/{}, shared, to_bytes(kCircuitInfo), crypto::kAeadKeySize)
          .slice<crypto::kAeadKeySize>();
  secure_wipe(shared);
  return key;
}

}  // namespace

// --- TorRelay ----------------------------------------------------------------

TorRelay::TorRelay(std::uint64_t seed) {
  keys_ = crypto::x25519_keypair_from_seed(
      crypto::domain_seed(seed, /*tag=*/0x70));  // relay domain separation
}

void TorRelay::establish_circuit(CircuitId circuit,
                                 const crypto::X25519Key& client_ephemeral) {
  CircuitState state;
  state.key = derive_circuit_key(crypto::x25519(keys_.private_key, client_ephemeral));
  circuits_[circuit] = state;
}

Result<Bytes> TorRelay::peel(CircuitId circuit, ByteSpan cell) {
  const auto it = circuits_.find(circuit);
  if (it == circuits_.end()) return not_found("tor: unknown circuit");
  auto& state = it->second;
  auto inner =
      crypto::aead_open(state.key, crypto::make_nonce(kNonceForward, state.forward_counter),
                        /*aad=*/{}, cell);
  if (!inner) return permission_denied("tor: forward cell authentication failed");
  ++state.forward_counter;
  return *std::move(inner);
}

Result<Bytes> TorRelay::wrap(CircuitId circuit, ByteSpan payload) {
  const auto it = circuits_.find(circuit);
  if (it == circuits_.end()) return not_found("tor: unknown circuit");
  auto& state = it->second;
  Bytes cell = crypto::aead_seal(
      state.key, crypto::make_nonce(kNonceBackward, state.backward_counter),
      /*aad=*/{}, payload);
  ++state.backward_counter;
  return cell;
}

// --- TorCircuit ----------------------------------------------------------------

TorCircuit::TorCircuit(CircuitId id, std::vector<TorRelay*> path, std::uint64_t seed)
    : id_(id), path_(std::move(path)) {
  crypto::SecureRandom rng(crypto::domain_seed(seed, /*tag=*/0xc2));

  layer_keys_.reserve(path_.size());
  forward_counters_.assign(path_.size(), 0);
  backward_counters_.assign(path_.size(), 0);
  for (TorRelay* relay : path_) {
    const auto ephemeral = crypto::x25519_keypair_from_seed(rng.key());
    relay->establish_circuit(id_, ephemeral.public_key);
    layer_keys_.push_back(
        derive_circuit_key(crypto::x25519(ephemeral.private_key, relay->public_key())));
  }
}

Bytes TorCircuit::build_onion(ByteSpan payload) {
  // Innermost layer first (exit relay peels last).
  Bytes cell(payload.begin(), payload.end());
  for (std::size_t i = path_.size(); i-- > 0;) {
    cell = crypto::aead_seal(layer_keys_[i],
                             crypto::make_nonce(kNonceForward, forward_counters_[i]),
                             /*aad=*/{}, cell);
    ++forward_counters_[i];
  }
  return cell;
}

Result<Bytes> TorCircuit::unwrap_response(ByteSpan cell) {
  // The entry relay wrapped last, so its layer comes off first.
  Bytes current(cell.begin(), cell.end());
  for (std::size_t i = 0; i < path_.size(); ++i) {
    auto inner = crypto::aead_open(
        layer_keys_[i], crypto::make_nonce(kNonceBackward, backward_counters_[i]),
        /*aad=*/{}, current);
    if (!inner) return permission_denied("tor: response layer authentication failed");
    ++backward_counters_[i];
    current = *std::move(inner);
  }
  return current;
}

// --- TorClient ------------------------------------------------------------------

TorClient::TorClient(std::vector<TorRelay*> relays, const engine::SearchEngine* engine,
                     std::uint64_t seed)
    : relays_(std::move(relays)),
      engine_(engine),
      circuit_(/*id=*/seed, relays_, seed) {}

Result<std::vector<engine::SearchResult>> TorClient::search(std::string_view query,
                                                            std::uint32_t top_k) {
  // Forward path: the onion loses one layer per relay.
  Bytes query_payload;
  core::wire::put_u32(query_payload, top_k);
  core::wire::put_string(query_payload, query);

  Bytes cell = circuit_.build_onion(query_payload);
  for (TorRelay* relay : relays_) {
    auto peeled = relay->peel(circuit_.id(), cell);
    if (!peeled) return peeled.status();
    cell = std::move(peeled).value();
  }

  // Exit node: plain query to the engine on behalf of the client.
  std::size_t offset = 0;
  auto k = core::wire::get_u32(cell, offset);
  if (!k) return k.status();
  auto plain_query = core::wire::get_string(cell, offset);
  if (!plain_query) return plain_query.status();

  Bytes response = engine_ != nullptr
                       ? engine_->search_encoded(plain_query.value(), k.value())
                       : core::wire::serialize_results({});

  // Backward path: each relay (exit first) adds its response layer.
  for (std::size_t i = relays_.size(); i-- > 0;) {
    auto wrapped = relays_[i]->wrap(circuit_.id(), response);
    if (!wrapped) return wrapped.status();
    response = std::move(wrapped).value();
  }

  auto plain = circuit_.unwrap_response(response);
  if (!plain) return plain.status();
  return core::wire::parse_results(plain.value());
}

}  // namespace xsearch::baselines::tor
