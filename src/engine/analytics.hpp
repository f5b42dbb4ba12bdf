// Analytics URL redirection, as real engines apply to result links.
//
// The paper notes (§4.1) that X-Search "tampers" results "to remove any URL
// redirection used for analytics". The simulated engine therefore serves
// tracking URLs of the form
//   https://search.example/l/?track=<opaque>&target=<real-url>
// and the proxy's filtering stage rewrites them back to the target.
#pragma once

#include <optional>
#include <string>
#include <string_view>

namespace xsearch::engine {

/// Wraps `target_url` in a tracking redirect carrying an opaque token.
[[nodiscard]] std::string make_tracking_url(std::string_view target_url,
                                            std::uint64_t token);

/// True if `url` is a tracking redirect of this engine.
[[nodiscard]] bool is_tracking_url(std::string_view url);

/// Recovers the target URL from a tracking redirect, as a view into `url`
/// (the target is always a suffix of it); nullopt if `url` is not a
/// tracking URL or carries no target. Unwraps one level only.
[[nodiscard]] std::optional<std::string_view> extract_target_url(std::string_view url);

}  // namespace xsearch::engine
