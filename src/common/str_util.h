#ifndef ECA_COMMON_STR_UTIL_H_
#define ECA_COMMON_STR_UTIL_H_

#include <string>
#include <string_view>
#include <vector>

namespace eca {

// Joins the elements of `parts` with `sep`.
std::string StrJoin(const std::vector<std::string>& parts,
                    const std::string& sep);

// Appends `parts` in order into one string. Use it instead of an
// operator+ chain that starts at a literal: GCC 12 reports a false
// -Wrestrict on the inlined operator+(const char*, std::string&&).
template <typename... Parts>
std::string StrCat(const Parts&... parts) {
  std::string out;
  out.reserve((std::string_view(parts).size() + ...));
  (out.append(std::string_view(parts)), ...);
  return out;
}

// Repeats `s` `n` times.
std::string StrRepeat(const std::string& s, int n);

// printf-style formatting into a std::string.
std::string StrFormat(const char* fmt, ...)
    __attribute__((format(printf, 1, 2)));

}  // namespace eca

#endif  // ECA_COMMON_STR_UTIL_H_
