// INI-style Config reader.
#include <gtest/gtest.h>

#include <cstdint>
#include <string>
#include <utility>

#include "common/config.hpp"
#include "common/error.hpp"
#include "service/config.hpp"

namespace flexmr {
namespace {

TEST(Config, ParsesSectionsAndKeys) {
  const auto config = Config::parse(
      "top = 1\n"
      "[cluster]\n"
      "nodes = 12\n"
      "ips = 7.5\n"
      "# a comment\n"
      "; another comment\n"
      "[job]\n"
      "name = wordcount\n");
  EXPECT_EQ(config.get_int("top", 0), 1);
  EXPECT_EQ(config.get_int("cluster.nodes", 0), 12);
  EXPECT_DOUBLE_EQ(config.get_double("cluster.ips", 0), 7.5);
  EXPECT_EQ(config.get_string("job.name", ""), "wordcount");
  EXPECT_EQ(config.size(), 4u);
}

TEST(Config, TrimsWhitespace) {
  const auto config = Config::parse("  key   =   value with spaces  \n");
  EXPECT_EQ(config.get_string("key", ""), "value with spaces");
}

TEST(Config, FallbacksWhenMissing) {
  const auto config = Config::parse("");
  EXPECT_EQ(config.get_string("nope", "dflt"), "dflt");
  EXPECT_DOUBLE_EQ(config.get_double("nope", 2.5), 2.5);
  EXPECT_EQ(config.get_int("nope", -3), -3);
  EXPECT_TRUE(config.get_bool("nope", true));
  EXPECT_FALSE(config.has("nope"));
}

TEST(Config, BooleanForms) {
  const auto config = Config::parse(
      "a = true\nb = 1\nc = yes\nd = false\ne = 0\nf = no\n");
  for (const char* key : {"a", "b", "c"}) {
    EXPECT_TRUE(config.get_bool(key, false)) << key;
  }
  for (const char* key : {"d", "e", "f"}) {
    EXPECT_FALSE(config.get_bool(key, true)) << key;
  }
}

TEST(Config, MalformedInputThrows) {
  EXPECT_THROW(Config::parse("[unclosed\n"), ConfigError);
  EXPECT_THROW(Config::parse("no equals sign\n"), ConfigError);
  EXPECT_THROW(Config::parse("= value\n"), ConfigError);
}

TEST(Config, TypeErrorsThrow) {
  const auto config = Config::parse("x = hello\n");
  EXPECT_THROW(config.get_double("x", 0.0), ConfigError);
  EXPECT_THROW(config.get_int("x", 0), ConfigError);
  EXPECT_THROW(config.get_bool("x", false), ConfigError);
}

TEST(Config, RequiredAccessors) {
  const auto config = Config::parse("n = 5\n");
  EXPECT_EQ(config.require_int("n"), 5);
  EXPECT_THROW(config.require_int("missing"), ConfigError);
  EXPECT_THROW(config.require_string("missing"), ConfigError);
  EXPECT_THROW(config.require_double("missing"), ConfigError);
}

TEST(Config, SetOverrides) {
  auto config = Config::parse("a = 1\n");
  config.set("a", "2");
  config.set("b", "3");
  EXPECT_EQ(config.get_int("a", 0), 2);
  EXPECT_EQ(config.get_int("b", 0), 3);
}

TEST(Config, LoadMissingFileThrows) {
  EXPECT_THROW(Config::load("/nonexistent/path/file.ini"), ConfigError);
}

TEST(Config, IdAtSpecParsesWholeTokens) {
  const auto config = Config::parse("a = 3 @ 25\nb =  7@0.5\n");
  EXPECT_EQ(config.get_id_at("a"), (std::pair<std::uint32_t, double>{3, 25}));
  EXPECT_EQ(config.get_id_at("b"), (std::pair<std::uint32_t, double>{7, 0.5}));
  EXPECT_FALSE(config.get_id_at("missing").has_value());
  for (const char* bad : {"3", "@ 5", "3 @", "3 @ 5 @ 6", "3 @ inf",
                          "+3 @ 5", "4294967296 @ 5", "3 @ 1e999"}) {
    const auto parsed = Config::parse(std::string("k = ") + bad + "\n");
    EXPECT_THROW(parsed.get_id_at("k"), ConfigError) << bad;
  }
}

// `[failures] nodeN` and `[am] crashN` specs used to go through
// std::stoul/std::stod: a trailing suffix was silently dropped ("3x @ 25s"
// read as node 3 at 25 s), a non-number escaped as std::invalid_argument,
// and "-1" wrapped around to a huge id.
TEST(Config, ServiceIdAtSpecsRejectGarbage) {
  for (const char* bad : {"3x @ 25s", "3 @ soon", "-1 @ 5"}) {
    for (const std::string key : {"[failures]\nnode1", "[am]\ncrash1"}) {
      const auto config = Config::parse(key + " = " + bad + "\n");
      try {
        service::parse_service_config(config);
        ADD_FAILURE() << key << " = " << bad << " was accepted";
      } catch (const ConfigError& error) {
        const std::string name = key.substr(key.find(']') + 2);
        EXPECT_NE(std::string(error.what()).find(name), std::string::npos)
            << error.what();
      } catch (const std::exception& error) {
        ADD_FAILURE() << key << " = " << bad << " threw " << error.what();
      }
    }
  }
  const auto good = service::parse_service_config(
      Config::parse("[failures]\nnode1 = 3 @ 25\n[am]\ncrash1 = 0 @ 20.0\n"));
  ASSERT_EQ(good.node_failures.size(), 1u);
  EXPECT_EQ(good.node_failures[0], (std::pair<NodeId, SimTime>{3, 25.0}));
  ASSERT_EQ(good.am_crashes.size(), 1u);
  EXPECT_EQ(good.am_crashes[0].first, 0u);
  EXPECT_DOUBLE_EQ(good.am_crashes[0].second, 20.0);
}

TEST(Config, CountsParseWholeNonNegativeIntegers) {
  const auto config = Config::parse("a = 3\nb =  0 \nc = 4294967295\n");
  EXPECT_EQ(config.get_count("a", 9), 3u);
  EXPECT_EQ(config.get_count("b", 9), 0u);
  EXPECT_EQ(config.get_count("c", 9), 4294967295u);
  EXPECT_EQ(config.get_count("missing", 9), 9u);
  for (const char* bad : {"-1", "+3", "3x", "2.5", "", "4294967296"}) {
    const auto parsed = Config::parse(std::string("k = ") + bad + "\n");
    EXPECT_THROW(parsed.get_count("k", 0), ConfigError) << bad;
  }
}

// Counts used to go through static_cast<uint...>(get_int(...)): "-1"
// wrapped around to 4294967295 attempts or SIZE_MAX jobs. Every count key
// of the service and cluster files now rejects it, naming the key.
TEST(Config, NegativeCountsAreRejectedByName) {
  for (const std::string key :
       {"[am]\nmax_attempts", "[service]\ntotal_jobs",
        "[service]\nmax_concurrent_jobs", "[service]\nreplication",
        "[preemption]\nmax_kills_per_round"}) {
    const auto config = Config::parse(key + " = -1\n");
    const std::string name = key.substr(key.find(']') + 2);
    try {
      service::parse_service_config(config);
      ADD_FAILURE() << key << " = -1 was accepted";
    } catch (const ConfigError& error) {
      EXPECT_NE(std::string(error.what()).find(name), std::string::npos)
          << error.what();
    }
  }
  for (const char* key : {"count", "slots"}) {
    const auto config = Config::parse(
        std::string("[group1]\nips = 10\ncount = 2\n") + key + " = -1\n");
    EXPECT_THROW(service::build_cluster(config), ConfigError) << key;
  }
}

TEST(Config, LastDuplicateWins) {
  const auto config = Config::parse("k = 1\nk = 2\n");
  EXPECT_EQ(config.get_int("k", 0), 2);
}

}  // namespace
}  // namespace flexmr
