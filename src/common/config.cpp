#include "common/config.hpp"

#include <cctype>
#include <charconv>
#include <cmath>
#include <cstdlib>
#include <fstream>
#include <sstream>

#include "common/error.hpp"

namespace flexmr {

namespace {

std::string_view trim(std::string_view s) {
  while (!s.empty() && std::isspace(static_cast<unsigned char>(s.front()))) {
    s.remove_prefix(1);
  }
  while (!s.empty() && std::isspace(static_cast<unsigned char>(s.back()))) {
    s.remove_suffix(1);
  }
  return s;
}

/// Parses `token` (surrounding whitespace aside) whole into `out`: no sign
/// prefix, no suffix, in range.
template <typename T>
bool parse_whole(std::string_view token, T& out) {
  token = trim(token);
  const auto [end, ec] =
      std::from_chars(token.data(), token.data() + token.size(), out);
  return !token.empty() && ec == std::errc() &&
         end == token.data() + token.size();
}

}  // namespace

Config Config::parse(std::string_view text) {
  Config config;
  std::string section;
  std::size_t line_no = 0;
  std::size_t pos = 0;
  while (pos <= text.size()) {
    const std::size_t eol = text.find('\n', pos);
    std::string_view line = text.substr(
        pos, eol == std::string_view::npos ? std::string_view::npos
                                           : eol - pos);
    pos = eol == std::string_view::npos ? text.size() + 1 : eol + 1;
    ++line_no;

    line = trim(line);
    if (line.empty() || line.front() == '#' || line.front() == ';') continue;
    if (line.front() == '[') {
      if (line.back() != ']' || line.size() < 3) {
        throw ConfigError("malformed section header at line " +
                          std::to_string(line_no));
      }
      section = std::string(trim(line.substr(1, line.size() - 2)));
      continue;
    }
    const std::size_t eq = line.find('=');
    if (eq == std::string_view::npos) {
      throw ConfigError("expected 'key = value' at line " +
                        std::to_string(line_no));
    }
    const std::string key(trim(line.substr(0, eq)));
    const std::string value(trim(line.substr(eq + 1)));
    if (key.empty()) {
      throw ConfigError("empty key at line " + std::to_string(line_no));
    }
    const std::string full = section.empty() ? key : section + "." + key;
    config.values_[full] = value;
  }
  return config;
}

Config Config::load(const std::string& path) {
  std::ifstream in(path);
  if (!in) throw ConfigError("cannot open config file: " + path);
  std::ostringstream os;
  os << in.rdbuf();
  return parse(os.str());
}

bool Config::has(const std::string& key) const {
  return values_.contains(key);
}

std::optional<std::string> Config::get(const std::string& key) const {
  const auto it = values_.find(key);
  if (it == values_.end()) return std::nullopt;
  return it->second;
}

std::string Config::get_string(const std::string& key,
                               const std::string& fallback) const {
  return get(key).value_or(fallback);
}

double Config::get_double(const std::string& key, double fallback) const {
  const auto value = get(key);
  if (!value) return fallback;
  char* end = nullptr;
  const double parsed = std::strtod(value->c_str(), &end);
  if (end == value->c_str() || *end != '\0') {
    throw ConfigError("key '" + key + "' is not a number: " + *value);
  }
  return parsed;
}

long Config::get_int(const std::string& key, long fallback) const {
  const auto value = get(key);
  if (!value) return fallback;
  char* end = nullptr;
  const long parsed = std::strtol(value->c_str(), &end, 10);
  if (end == value->c_str() || *end != '\0') {
    throw ConfigError("key '" + key + "' is not an integer: " + *value);
  }
  return parsed;
}

bool Config::get_bool(const std::string& key, bool fallback) const {
  const auto value = get(key);
  if (!value) return fallback;
  if (*value == "true" || *value == "1" || *value == "yes") return true;
  if (*value == "false" || *value == "0" || *value == "no") return false;
  throw ConfigError("key '" + key + "' is not a boolean: " + *value);
}

std::optional<std::pair<std::uint32_t, double>> Config::get_id_at(
    const std::string& key) const {
  const auto value = get(key);
  if (!value) return std::nullopt;
  const std::string_view text = *value;
  const std::size_t at = text.find('@');
  std::uint32_t id = 0;
  double seconds = 0;
  if (at == std::string_view::npos || !parse_whole(text.substr(0, at), id) ||
      !parse_whole(text.substr(at + 1), seconds) || !std::isfinite(seconds)) {
    throw ConfigError("key '" + key + "' is not '<id> @ <seconds>': " +
                      *value);
  }
  return std::pair{id, seconds};
}

std::uint32_t Config::get_count(const std::string& key,
                                std::uint32_t fallback) const {
  const auto value = get(key);
  if (!value) return fallback;
  std::uint32_t count = 0;
  if (!parse_whole(*value, count)) {
    throw ConfigError("key '" + key + "' is not a non-negative count: " +
                      *value);
  }
  return count;
}

std::string Config::require_string(const std::string& key) const {
  const auto value = get(key);
  if (!value) throw ConfigError("missing required key: " + key);
  return *value;
}

double Config::require_double(const std::string& key) const {
  if (!has(key)) throw ConfigError("missing required key: " + key);
  return get_double(key, 0.0);
}

long Config::require_int(const std::string& key) const {
  if (!has(key)) throw ConfigError("missing required key: " + key);
  return get_int(key, 0);
}

void Config::set(const std::string& key, const std::string& value) {
  values_[key] = value;
}

}  // namespace flexmr
