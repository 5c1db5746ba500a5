// Declarative command-line flags for ursa_sim and the bench binaries. Each
// row of a FlagTable binds `--name=value` to a typed destination with an
// inclusive range and a one-line help string; the usage text is generated
// from the same rows, so a new knob is one row.
//
// Parsing is strict. Parse() exits 2, naming the flag on stderr, for:
//   - an unknown flag (a typo never falls back to a default);
//   - a malformed number: empty, trailing garbage, integer overflow, or a
//     minus sign on an unsigned value;
//   - a number outside the row's range;
//   - a switch given a value (`--spec=1`), or a valued flag given none.
// The last occurrence of a repeated flag wins. Building a table registers
// nothing globally: each binary declares its rows in main().
#ifndef SRC_COMMON_FLAGS_H_
#define SRC_COMMON_FLAGS_H_

#include <cstdint>
#include <limits>
#include <string>
#include <variant>
#include <vector>

namespace ursa {

struct Flag {
  // bool* is a switch: `--name` sets it to true and takes no value. Every
  // other destination takes `--name=value`. flags.cc indexes its usage
  // placeholders by this order.
  using Target = std::variant<bool*, int*, int64_t*, uint64_t*, double*, std::string*>;

  const char* name;  // Without the leading "--".
  Target target;
  const char* help;
  // Inclusive bounds, checked for numeric destinations only.
  double min = -std::numeric_limits<double>::infinity();
  double max = std::numeric_limits<double>::infinity();
};

class FlagTable {
 public:
  FlagTable(std::string program, std::vector<Flag> flags);

  // Parses argv[1..] into the rows' destinations. Returns "" on success,
  // otherwise a one-line error that names the offending flag.
  std::string TryParse(int argc, const char* const* argv) const;

  // TryParse, exiting through Fail() on an error.
  void Parse(int argc, const char* const* argv) const;

  // Prints "<program>: <message>" and the usage to stderr and exits 2. For
  // values checked after parsing (enum spellings, files).
  [[noreturn]] void Fail(const std::string& message) const;

  // "usage: <program> [flags]" followed by one line per row.
  std::string Usage() const;

 private:
  std::string program_;
  std::vector<Flag> flags_;
};

}  // namespace ursa

#endif  // SRC_COMMON_FLAGS_H_
