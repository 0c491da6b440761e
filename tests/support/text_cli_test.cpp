#include <gtest/gtest.h>

#include "support/cli.h"
#include "support/errors.h"
#include "support/text.h"

namespace ute {
namespace {

TEST(Text, SplitString) {
  const auto parts = splitString("a,b,,c", ',');
  ASSERT_EQ(parts.size(), 4u);
  EXPECT_EQ(parts[0], "a");
  EXPECT_EQ(parts[2], "");
  EXPECT_EQ(parts[3], "c");
  EXPECT_EQ(splitString("", ',').size(), 1u);
  EXPECT_EQ(splitString("noseparator", ',')[0], "noseparator");
}

TEST(Text, Trim) {
  EXPECT_EQ(trimString("  x y  "), "x y");
  EXPECT_EQ(trimString("\t\n"), "");
  EXPECT_EQ(trimString("abc"), "abc");
}

TEST(Text, StartsWith) {
  EXPECT_TRUE(startsWith("abcdef", "abc"));
  EXPECT_FALSE(startsWith("ab", "abc"));
  EXPECT_TRUE(startsWith("x", ""));
}

TEST(Text, WithCommas) {
  EXPECT_EQ(withCommas(0), "0");
  EXPECT_EQ(withCommas(999), "999");
  EXPECT_EQ(withCommas(1000), "1,000");
  EXPECT_EQ(withCommas(40282), "40,282");
  EXPECT_EQ(withCommas(11216936), "11,216,936");
}

TEST(Text, Fixed) {
  EXPECT_EQ(fixed(3.14159, 2), "3.14");
  EXPECT_EQ(fixed(0.0000890, 7), "0.0000890");
}

TEST(Text, ParseNumbers) {
  EXPECT_EQ(parseU64("  42 "), 42u);
  EXPECT_DOUBLE_EQ(parseF64("2.5"), 2.5);
  EXPECT_THROW(parseU64("abc"), ParseError);
  EXPECT_THROW(parseU64(""), ParseError);
  EXPECT_THROW(parseF64("1.2x"), ParseError);
}

TEST(Cli, ParsesValuesFlagsAndPositionals) {
  const char* argv[] = {"prog",    "--name",  "run1", "--count=5",
                        "--force", "file.uti"};
  CliParser cli(6, argv, {"name", "count"}, {"force"});
  EXPECT_EQ(cli.valueOr("name", std::string("x")), "run1");
  EXPECT_EQ(cli.valueOr("count", std::uint64_t{0}), 5u);
  EXPECT_TRUE(cli.hasFlag("force"));
  EXPECT_FALSE(cli.hasFlag("other"));
  ASSERT_EQ(cli.positional().size(), 1u);
  EXPECT_EQ(cli.positional()[0], "file.uti");
}

TEST(Cli, MissingValueThrows) {
  const char* argv[] = {"prog", "--name"};
  EXPECT_THROW(CliParser(2, argv, {"name"}, {}), UsageError);
}

TEST(Cli, UnknownOptionsAreRejected) {
  // Every spelling of an undeclared option fails and names it; without
  // the check "--shards 8" would leave "8" as a positional argument.
  for (const char* arg : {"--shards", "--shards=8"}) {
    const char* argv[] = {"prog", arg, "8"};
    try {
      CliParser(3, argv, {"name"}, {"force"});
      ADD_FAILURE() << arg << " was accepted";
    } catch (const UsageError& e) {
      EXPECT_STREQ(e.what(), "unknown option --shards") << arg;
    }
  }
  // A flag takes no value.
  const char* argv[] = {"prog", "--force=yes"};
  EXPECT_THROW(CliParser(2, argv, {"name"}, {"force"}), UsageError);
}

TEST(Cli, DefaultsApply) {
  const char* argv[] = {"prog"};
  CliParser cli(1, argv, {"x"}, {});
  EXPECT_EQ(cli.valueOr("x", std::uint64_t{7}), 7u);
  EXPECT_DOUBLE_EQ(cli.valueOr("x", 2.5), 2.5);
  EXPECT_FALSE(cli.value("x").has_value());
}

}  // namespace
}  // namespace ute
