// Small INI-style configuration reader.
//
// Examples and ad-hoc experiments can describe a cluster/workload in a flat
// `[section] key = value` file instead of recompiling. Lines starting with
// '#' or ';' are comments. Keys are addressed as "section.key"; keys before
// any section header live in the "" section and are addressed bare.
#pragma once

#include <cstdint>
#include <optional>
#include <string>
#include <string_view>
#include <unordered_map>
#include <utility>

namespace flexmr {

class Config {
 public:
  Config() = default;

  /// Parses INI text. Throws ConfigError on malformed lines.
  static Config parse(std::string_view text);

  /// Loads and parses a file. Throws ConfigError if unreadable.
  static Config load(const std::string& path);

  bool has(const std::string& key) const;
  std::optional<std::string> get(const std::string& key) const;

  std::string get_string(const std::string& key,
                         const std::string& fallback) const;
  double get_double(const std::string& key, double fallback) const;
  long get_int(const std::string& key, long fallback) const;
  bool get_bool(const std::string& key, bool fallback) const;

  /// Reads an `<id> @ <seconds>` spec such as "3 @ 25": a non-negative
  /// integer id and a finite number of seconds. Each side must be consumed
  /// whole (surrounding whitespace aside); anything else throws
  /// ConfigError naming the key. Nullopt when the key is absent.
  std::optional<std::pair<std::uint32_t, double>> get_id_at(
      const std::string& key) const;

  /// Reads a non-negative count (machines, slots, jobs, attempts): a whole
  /// decimal integer in [0, 2^32). A sign, a suffix or an out-of-range
  /// value throws ConfigError naming the key, instead of wrapping "-1"
  /// around to a huge count. `fallback` when the key is absent.
  std::uint32_t get_count(const std::string& key,
                          std::uint32_t fallback) const;

  /// Required-key variants throw ConfigError when absent or malformed.
  std::string require_string(const std::string& key) const;
  double require_double(const std::string& key) const;
  long require_int(const std::string& key) const;

  void set(const std::string& key, const std::string& value);

  std::size_t size() const { return values_.size(); }

 private:
  std::unordered_map<std::string, std::string> values_;
};

}  // namespace flexmr
