// Tests for the declarative flag table (src/common/flags.h): typed parsing,
// inclusive ranges, strict rejection of malformed values and unknown flags,
// last-wins repetition and the generated usage text.
#include "src/common/flags.h"

#include <gtest/gtest.h>

#include <string>
#include <vector>

namespace ursa {
namespace {

struct Values {
  bool on = false;
  int count = 5;
  int64_t big = 0;
  uint64_t seed = 42;
  double rate = 0.5;
  std::string path = "default";
};

FlagTable MakeTable(Values* v) {
  return FlagTable("prog", {
                               {"on", &v->on, "a switch"},
                               {"count", &v->count, "an int", 1, 10},
                               {"big", &v->big, "an int64", -5, 1e12},
                               {"seed", &v->seed, "a uint64"},
                               {"rate", &v->rate, "a double", 0, 1},
                               {"path", &v->path, "a string"},
                           });
}

// Parses `args` (without the program name); returns the error ("" = ok).
std::string Parse(Values* v, std::vector<const char*> args) {
  args.insert(args.begin(), "prog");
  return MakeTable(v).TryParse(static_cast<int>(args.size()), args.data());
}

TEST(Flags, ParsesEveryType) {
  Values v;
  EXPECT_EQ(Parse(&v, {"--on", "--count=7", "--big=-3", "--seed=18446744073709551615",
                       "--rate=0.25", "--path=/tmp/x"}),
            "");
  EXPECT_TRUE(v.on);
  EXPECT_EQ(v.count, 7);
  EXPECT_EQ(v.big, -3);
  EXPECT_EQ(v.seed, 18446744073709551615ull);
  EXPECT_EQ(v.rate, 0.25);
  EXPECT_EQ(v.path, "/tmp/x");
}

TEST(Flags, UnsetFlagsKeepTheirDestinationValues) {
  Values v;
  EXPECT_EQ(Parse(&v, {}), "");
  EXPECT_FALSE(v.on);
  EXPECT_EQ(v.count, 5);
  EXPECT_EQ(v.seed, 42u);
  EXPECT_EQ(v.path, "default");
}

TEST(Flags, RangesAreInclusiveAtBothEnds) {
  Values v;
  EXPECT_EQ(Parse(&v, {"--count=1"}), "");
  EXPECT_EQ(v.count, 1);
  EXPECT_EQ(Parse(&v, {"--count=10"}), "");
  EXPECT_EQ(v.count, 10);
  EXPECT_EQ(Parse(&v, {"--rate=0"}), "");
  EXPECT_EQ(v.rate, 0.0);
  EXPECT_EQ(Parse(&v, {"--rate=1"}), "");
  EXPECT_EQ(v.rate, 1.0);
  EXPECT_EQ(Parse(&v, {"--big=-5"}), "");
  EXPECT_EQ(v.big, -5);

  for (const char* bad : {"--count=0", "--count=11", "--rate=-0.001", "--rate=1.001",
                          "--big=-6", "--rate=nan"}) {
    Values w;
    const std::string error = Parse(&w, {bad});
    EXPECT_NE(error.find("out of range"), std::string::npos) << bad << ": " << error;
    EXPECT_EQ(w.count, 5) << bad;  // A rejected value is not stored.
    EXPECT_EQ(w.rate, 0.5) << bad;
  }
  // An int destination is also bounded by its type.
  Values w;
  EXPECT_NE(Parse(&w, {"--big=1000000000001"}), "");
}

TEST(Flags, RejectsTrailingGarbageAndEmptyNumbers) {
  for (const char* bad : {"--count=5x", "--count=abc", "--count=", "--count=5 ", "--rate=0.5s",
                          "--seed=12x", "--seed=", "--big=1e3"}) {
    Values v;
    const std::string error = Parse(&v, {bad});
    EXPECT_NE(error.find("not a number"), std::string::npos) << bad << ": " << error;
  }
}

TEST(Flags, RejectsANegativeUint64) {
  for (const char* bad : {"--seed=-1", "--seed= -1", "--seed=-0"}) {
    Values v;
    const std::string error = Parse(&v, {bad});
    EXPECT_NE(error.find("--seed"), std::string::npos) << bad;
    EXPECT_NE(error.find("not a number"), std::string::npos) << bad << ": " << error;
    EXPECT_EQ(v.seed, 42u);
  }
  Values v;
  EXPECT_NE(Parse(&v, {"--seed=18446744073709551616"}), "");  // Overflow.
}

TEST(Flags, SwitchTakesNoValueAndValuedFlagsNeedOne) {
  Values v;
  const std::string error = Parse(&v, {"--on=1"});
  EXPECT_NE(error.find("--on"), std::string::npos) << error;
  EXPECT_NE(error.find("switch"), std::string::npos) << error;
  EXPECT_FALSE(v.on);
  EXPECT_NE(Parse(&v, {"--count"}).find("needs a value"), std::string::npos);
  // An empty string is a value.
  EXPECT_EQ(Parse(&v, {"--path="}), "");
  EXPECT_EQ(v.path, "");
}

TEST(Flags, RejectsUnknownFlagsByName) {
  for (const char* bad : {"--nope", "--nope=3", "--coun=3", "--count3", "count=3", "-count=3",
                          "--", "-", ""}) {
    Values v;
    const std::string error = Parse(&v, {bad});
    EXPECT_EQ(error, std::string("unknown flag '") + bad + "'");
  }
}

TEST(Flags, LastOccurrenceWins) {
  Values v;
  EXPECT_EQ(Parse(&v, {"--count=3", "--path=a", "--count=9", "--path=b"}), "");
  EXPECT_EQ(v.count, 9);
  EXPECT_EQ(v.path, "b");
}

TEST(Flags, StopsAtTheFirstBadArgument) {
  Values v;
  EXPECT_NE(Parse(&v, {"--count=3", "--count=99", "--path=late"}), "");
  EXPECT_EQ(v.count, 3);
  EXPECT_EQ(v.path, "default");
}

TEST(Flags, UsageNamesEveryRow) {
  Values v;
  const std::string usage = MakeTable(&v).Usage();
  EXPECT_EQ(usage.rfind("usage: prog", 0), 0u) << usage;
  for (const char* spelling : {"--on ", "--count=N", "--big=N", "--seed=N", "--rate=X",
                               "--path=S"}) {
    EXPECT_NE(usage.find(spelling), std::string::npos) << spelling << "\n" << usage;
  }
  for (const char* help : {"a switch", "an int", "an int64", "a uint64", "a double",
                           "a string"}) {
    EXPECT_NE(usage.find(help), std::string::npos) << help;
  }
  EXPECT_NE(usage.find("an int [1, 10]"), std::string::npos) << usage;
  EXPECT_NE(usage.find("a double [0, 1]"), std::string::npos) << usage;
}

TEST(FlagsDeathTest, ParseExitsTwoAndNamesTheFlag) {
  Values v;
  const FlagTable table = MakeTable(&v);
  std::vector<const char*> args = {"prog", "--count=0"};
  EXPECT_EXIT(table.Parse(static_cast<int>(args.size()), args.data()),
              ::testing::ExitedWithCode(2), "prog: flag --count rejects '0'.*\nusage: prog");
  args = {"prog", "--spec=1"};
  EXPECT_EXIT(table.Parse(static_cast<int>(args.size()), args.data()),
              ::testing::ExitedWithCode(2), "unknown flag '--spec=1'");
  EXPECT_EXIT(table.Fail("--path rejects 'x'"), ::testing::ExitedWithCode(2),
              "prog: --path rejects 'x'");
}

}  // namespace
}  // namespace ursa
