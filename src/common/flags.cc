#include "src/common/flags.h"

#include <algorithm>
#include <cctype>
#include <cerrno>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <iterator>
#include <type_traits>
#include <utility>

namespace ursa {

namespace {

// Value placeholder in the usage text, by Flag::Target alternative.
constexpr const char* kPlaceholder[] = {"", "=N", "=N", "=N", "=X", "=S"};
static_assert(std::variant_size_v<Flag::Target> == std::size(kPlaceholder));

std::string Range(double lo, double hi) {
  char buf[64];
  std::snprintf(buf, sizeof(buf), "[%.10g, %.10g]", lo, hi);
  return buf;
}

template <typename T>
std::string ParseNumber(const Flag& flag, const std::string& text, T* out) {
  const char* begin = text.c_str();
  char* end = nullptr;
  errno = 0;
  // Parsed at the widest type of T's kind, narrowed after the range check.
  std::conditional_t<std::is_floating_point_v<T>, double,
                     std::conditional_t<std::is_signed_v<T>, long long, unsigned long long>>
      value{};
  double lo = flag.min;
  double hi = flag.max;
  if constexpr (std::is_floating_point_v<T>) {
    value = std::strtod(begin, &end);
  } else {
    lo = std::max(lo, static_cast<double>(std::numeric_limits<T>::min()));
    hi = std::min(hi, static_cast<double>(std::numeric_limits<T>::max()));
    if constexpr (std::is_signed_v<T>) {
      value = std::strtoll(begin, &end, 10);
    } else {
      // strtoull negates a leading minus sign instead of rejecting it.
      const char* first = begin;
      while (std::isspace(static_cast<unsigned char>(*first))) {
        ++first;
      }
      value = *first == '-' ? 0 : std::strtoull(begin, &end, 10);
    }
  }
  const std::string rejects = std::string("flag --") + flag.name + " rejects '" + text + "'";
  if (end == begin || end == nullptr || *end != '\0' ||
      (std::is_integral_v<T> && errno == ERANGE)) {
    return rejects + " (not a number)";
  }
  const double v = static_cast<double>(value);
  if (!(v >= lo) || !(v <= hi)) {
    return rejects + " (out of range " + Range(lo, hi) + ")";
  }
  *out = static_cast<T>(value);
  return "";
}

// Stores `value` (nullptr when the argument had no '=') into the row.
std::string Assign(const Flag& flag, const char* value) {
  const std::string name = std::string("--") + flag.name;
  if (bool* const* on = std::get_if<bool*>(&flag.target)) {
    if (value != nullptr) {
      return "flag " + name + " is a switch and takes no value";
    }
    **on = true;
    return "";
  }
  if (value == nullptr) {
    return "flag " + name + " needs a value (" + name + kPlaceholder[flag.target.index()] + ")";
  }
  if (std::string* const* text = std::get_if<std::string*>(&flag.target)) {
    **text = value;
    return "";
  }
  return std::visit(
      [&](auto* dest) -> std::string {
        using T = std::remove_pointer_t<decltype(dest)>;
        if constexpr (std::is_same_v<T, bool> || std::is_same_v<T, std::string>) {
          return "";  // Handled above.
        } else {
          return ParseNumber(flag, value, dest);
        }
      },
      flag.target);
}

}  // namespace

FlagTable::FlagTable(std::string program, std::vector<Flag> flags)
    : program_(std::move(program)), flags_(std::move(flags)) {}

std::string FlagTable::TryParse(int argc, const char* const* argv) const {
  for (int i = 1; i < argc; ++i) {
    const char* arg = argv[i];
    const char* name = std::strncmp(arg, "--", 2) == 0 ? arg + 2 : "";
    const char* eq = std::strchr(name, '=');
    const size_t len = eq != nullptr ? static_cast<size_t>(eq - name) : std::strlen(name);
    const auto match = std::find_if(flags_.begin(), flags_.end(), [&](const Flag& flag) {
      return std::strlen(flag.name) == len && std::strncmp(flag.name, name, len) == 0;
    });
    if (match == flags_.end()) {
      return std::string("unknown flag '") + arg + "'";
    }
    std::string error = Assign(*match, eq != nullptr ? eq + 1 : nullptr);
    if (!error.empty()) {
      return error;
    }
  }
  return "";
}

void FlagTable::Parse(int argc, const char* const* argv) const {
  const std::string error = TryParse(argc, argv);
  if (!error.empty()) {
    Fail(error);
  }
}

void FlagTable::Fail(const std::string& message) const {
  std::fprintf(stderr, "%s: %s\n%s", program_.c_str(), message.c_str(), Usage().c_str());
  std::exit(2);
}

std::string FlagTable::Usage() const {
  std::vector<std::string> spellings;
  size_t width = 0;
  for (const Flag& flag : flags_) {
    spellings.push_back(std::string("  --") + flag.name + kPlaceholder[flag.target.index()]);
    width = std::max(width, spellings.back().size());
  }
  std::string out = "usage: " + program_ + " [flags]\n";
  for (size_t i = 0; i < flags_.size(); ++i) {
    const Flag& flag = flags_[i];
    std::string line = spellings[i];
    line.resize(width + 2, ' ');
    line += flag.help;
    const bool numeric = !std::holds_alternative<bool*>(flag.target) &&
                         !std::holds_alternative<std::string*>(flag.target);
    if (numeric && (std::isfinite(flag.min) || std::isfinite(flag.max))) {
      line += " " + Range(flag.min, flag.max);
    }
    out += line + "\n";
  }
  return out;
}

}  // namespace ursa
