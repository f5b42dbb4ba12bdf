// Query/document tokenization.
//
// All text processing in the reproduction (query similarity, BM25 indexing,
// the common-word filter of Algorithm 2, SimAttack profiles) shares this
// tokenizer so that every component sees the same word boundaries:
// lower-cased maximal runs of ASCII alphanumerics.
//
// Classification and case folding go through constexpr lookup tables rather
// than <cctype>, so tokenization is locale-independent (std::isalnum honors
// the global C locale) and branch-light. Hot paths use `tokenize_views`,
// which lower-cases into a caller-owned reusable buffer and returns
// string_views — one amortized allocation per call instead of one
// std::string per token.
#pragma once

#include <array>
#include <string>
#include <string_view>
#include <vector>

namespace xsearch::text {

namespace detail {

inline constexpr std::array<bool, 256> kIsTokenChar = [] {
  std::array<bool, 256> t{};
  for (unsigned c = '0'; c <= '9'; ++c) t[c] = true;
  for (unsigned c = 'a'; c <= 'z'; ++c) t[c] = true;
  for (unsigned c = 'A'; c <= 'Z'; ++c) t[c] = true;
  return t;
}();

inline constexpr std::array<char, 256> kToLower = [] {
  std::array<char, 256> t{};
  for (unsigned c = 0; c < 256; ++c) t[c] = static_cast<char>(c);
  for (unsigned c = 'A'; c <= 'Z'; ++c) t[c] = static_cast<char>(c - 'A' + 'a');
  return t;
}();

// Token byte -> its lower-cased form; separator -> 0. One lookup both
// classifies a byte and folds its case, for scanners that do both at once.
inline constexpr std::array<char, 256> kTokenFold = [] {
  std::array<char, 256> t{};
  for (unsigned c = 0; c < 256; ++c) {
    if (kIsTokenChar[c]) t[c] = kToLower[c];
  }
  return t;
}();

}  // namespace detail

/// True for the ASCII alphanumerics that form tokens (locale-independent).
[[nodiscard]] constexpr bool is_token_char(unsigned char c) {
  return detail::kIsTokenChar[c];
}

/// ASCII lower-casing; non-letters pass through unchanged.
[[nodiscard]] constexpr char to_lower_ascii(unsigned char c) {
  return detail::kToLower[c];
}

/// Lower-cased token byte, or 0 if `c` separates tokens. Same boundaries
/// as is_token_char, same folding as to_lower_ascii.
[[nodiscard]] constexpr char token_fold(unsigned char c) {
  return detail::kTokenFold[c];
}

/// Splits `text` into lower-cased alphanumeric tokens.
[[nodiscard]] std::vector<std::string> tokenize(std::string_view text);

/// Allocation-lean tokenization: lower-cases `text` into `buffer` (reused
/// across calls, so its allocation amortizes away) and returns views of the
/// tokens. The views point into `buffer` and are valid only until the next
/// call that reuses it.
[[nodiscard]] std::vector<std::string_view> tokenize_views(std::string_view text,
                                                           std::string& buffer);

/// Same, but appends into a caller-owned token vector (also reused).
void tokenize_views_into(std::string_view text, std::string& buffer,
                         std::vector<std::string_view>& tokens);

/// Tokenizes and removes stopwords (a small fixed English list, matching
/// the preprocessing applied to the AOL log in the PEAS/SimAttack line of
/// work).
[[nodiscard]] std::vector<std::string> tokenize_no_stopwords(std::string_view text);

/// True if `word` is on the built-in stopword list. Allocation-free: the
/// list is a static set of string_views.
[[nodiscard]] bool is_stopword(std::string_view word);

/// Number of distinct tokens the two texts share (the nbCommonWords
/// function of Algorithm 2 in the paper).
[[nodiscard]] std::size_t common_word_count(std::string_view a, std::string_view b);

}  // namespace xsearch::text
