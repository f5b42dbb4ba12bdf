#include "engine/analytics.hpp"

#include <string>

namespace xsearch::engine {

namespace {
constexpr std::string_view kPrefix = "https://search.example/l/?track=";
constexpr std::string_view kTargetParam = "&target=";
}  // namespace

std::string make_tracking_url(std::string_view target_url, std::uint64_t token) {
  std::string out(kPrefix);
  out += std::to_string(token);
  out += kTargetParam;
  out += target_url;
  return out;
}

bool is_tracking_url(std::string_view url) { return url.starts_with(kPrefix); }

std::optional<std::string_view> extract_target_url(std::string_view url) {
  if (!is_tracking_url(url)) return std::nullopt;
  const auto pos = url.find(kTargetParam);
  if (pos == std::string_view::npos) return std::nullopt;
  return url.substr(pos + kTargetParam.size());
}

}  // namespace xsearch::engine
