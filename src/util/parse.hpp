#pragma once
/// \file parse.hpp
/// Strict text-to-value parsing shared by the CLI flags, the HDLS_* knob
/// table and every `*_from_string`: whole-string numbers and
/// case-insensitive enum names.

#include <algorithm>
#include <cctype>
#include <charconv>
#include <cstdlib>
#include <iterator>
#include <limits>
#include <optional>
#include <string>
#include <string_view>
#include <type_traits>

namespace hdls::util {

/// `text` as an integer >= `min`; std::nullopt unless the whole string is
/// one.
template <class T>
[[nodiscard]] std::optional<T> parse_integer(std::string_view text,
                                             T min = std::numeric_limits<T>::min()) noexcept {
    T v{};
    const auto [ptr, ec] = std::from_chars(text.data(), text.data() + text.size(), v);
    if (ec != std::errc{} || ptr != text.data() + text.size() || v < min) {
        return std::nullopt;
    }
    return v;
}

/// `text` as a decimal number (strtod syntax); std::nullopt unless the
/// whole string is one.
[[nodiscard]] inline std::optional<double> parse_number(const std::string& text) noexcept {
    char* end = nullptr;
    const double v = std::strtod(text.c_str(), &end);
    if (text.empty() || end != text.c_str() + text.size()) {
        return std::nullopt;
    }
    return v;
}

/// True when `a` and `b` are equal ignoring ASCII case.
[[nodiscard]] inline bool iequals(std::string_view a, std::string_view b) noexcept {
    const auto same = [](unsigned char x, unsigned char y) {
        return std::tolower(x) == std::tolower(y);
    };
    return std::equal(a.begin(), a.end(), b.begin(), b.end(), same);
}

/// The first of `values` whose `name(value)` equals `text` ignoring case.
template <class Values, class Name>
[[nodiscard]] auto from_name(std::string_view text, const Values& values, Name name) noexcept
    -> std::optional<std::remove_cvref_t<decltype(*std::begin(values))>> {
    for (const auto& v : values) {
        if (iequals(text, name(v))) {
            return v;
        }
    }
    return std::nullopt;
}

}  // namespace hdls::util
