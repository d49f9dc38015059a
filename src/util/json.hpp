/// \file json.hpp
/// \brief The one JSON string writer, shared by the trace, metrics and
/// kappa-watch exports.
#pragma once

#include <string>
#include <string_view>

namespace kappa {

/// \p text as a quoted JSON string literal: quotes and backslashes
/// escaped, newlines and tabs by name, every other control character as
/// \u00XX.
[[nodiscard]] inline std::string json_string(std::string_view text) {
  static constexpr char kHex[] = "0123456789abcdef";
  std::string out;
  out.reserve(text.size() + 2);
  out += '"';
  for (const char c : text) {
    switch (c) {
      case '"':
        out += "\\\"";
        break;
      case '\\':
        out += "\\\\";
        break;
      case '\n':
        out += "\\n";
        break;
      case '\t':
        out += "\\t";
        break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          out += "\\u00";
          out += kHex[(c >> 4) & 0xf];
          out += kHex[c & 0xf];
        } else {
          out += c;
        }
    }
  }
  out += '"';
  return out;
}

}  // namespace kappa
