#include "scenario/config.hpp"

#include <cmath>
#include <cstdio>
#include <fstream>
#include <sstream>

#include "common/check.hpp"
#include "scenario/json.hpp"

namespace fedbiad::scenario {

namespace {

void check_range(double v, double lo, double hi, const char* field) {
  FEDBIAD_CHECK(std::isfinite(v) && v >= lo && v <= hi,
                std::string("scenario: ") + field + " out of range [" +
                    std::to_string(lo) + ", " + std::to_string(hi) + "]");
}

double get_number(const json::Value& v, const char* field) {
  FEDBIAD_CHECK(v.is_number(),
                std::string("scenario: ") + field + " must be a number");
  return v.as_number();
}

/// An integral number in [lo, 2^64): the range a uint64 holds, checked
/// before the cast (converting a larger or infinite double is undefined).
std::uint64_t get_integer(const json::Value& v, const char* field, double lo) {
  const double n = get_number(v, field);
  FEDBIAD_CHECK(n >= lo && n < 0x1p64 && n == std::floor(n),
                std::string("scenario: ") + field + " must be an integer in [" +
                    std::to_string(static_cast<int>(lo)) + ", 2^64)");
  return static_cast<std::uint64_t>(n);
}

/// Walks an object's members through `consume(key, value) -> bool`;
/// a member no handler claims is an unknown key and throws.
template <typename Fn>
void walk_object(const json::Value& v, const char* what, Fn&& consume) {
  FEDBIAD_CHECK(v.is_object(),
                std::string("scenario: ") + what + " must be an object");
  for (const auto& [key, member] : v.as_object()) {
    FEDBIAD_CHECK(consume(key, member),
                  std::string("scenario: unknown key \"") + key + "\" in " +
                      what);
  }
}

AvailabilityConfig parse_availability(const json::Value& v) {
  AvailabilityConfig out;
  walk_object(v, "availability",
              [&](const std::string& key, const json::Value& m) {
                if (key == "period_seconds") {
                  out.period_seconds = get_number(m, "period_seconds");
                } else if (key == "window_fraction") {
                  out.window_fraction = get_number(m, "window_fraction");
                } else if (key == "on_probability") {
                  out.on_probability = get_number(m, "on_probability");
                } else if (key == "correlation") {
                  out.correlation = get_number(m, "correlation");
                } else {
                  return false;
                }
                return true;
              });
  return out;
}

ChurnConfig parse_churn(const json::Value& v) {
  ChurnConfig out;
  walk_object(v, "churn", [&](const std::string& key, const json::Value& m) {
    if (key == "failure_rate") {
      out.failure_rate = get_number(m, "failure_rate");
      return true;
    }
    return false;
  });
  return out;
}

RetryConfig parse_retry(const json::Value& v) {
  RetryConfig out;
  walk_object(v, "faults.retry",
              [&](const std::string& key, const json::Value& m) {
                if (key == "max_attempts") {
                  out.max_attempts =
                      get_integer(m, "faults.retry.max_attempts", 1.0);
                } else if (key == "backoff_seconds") {
                  out.backoff_seconds = get_number(m, "backoff_seconds");
                } else if (key == "backoff_multiplier") {
                  out.backoff_multiplier = get_number(m, "backoff_multiplier");
                } else if (key == "jitter_fraction") {
                  out.jitter_fraction = get_number(m, "jitter_fraction");
                } else {
                  return false;
                }
                return true;
              });
  return out;
}

FaultsConfig parse_faults(const json::Value& v) {
  FaultsConfig out;
  walk_object(v, "faults", [&](const std::string& key, const json::Value& m) {
    if (key == "corruption_probability") {
      out.corruption_probability = get_number(m, "corruption_probability");
    } else if (key == "corruption_mode") {
      FEDBIAD_CHECK(m.is_string(),
                    "scenario: faults.corruption_mode must be a string");
      const std::string& mode = m.as_string();
      if (mode == "bit_flip") {
        out.corruption_mode = CorruptionMode::kBitFlip;
      } else if (mode == "truncate") {
        out.corruption_mode = CorruptionMode::kTruncate;
      } else {
        FEDBIAD_CHECK(false,
                      "scenario: faults.corruption_mode must be \"bit_flip\" "
                      "or \"truncate\", got \"" +
                          mode + "\"");
      }
    } else if (key == "duplicate_probability") {
      out.duplicate_probability = get_number(m, "duplicate_probability");
    } else if (key == "retry") {
      out.retry = parse_retry(m);
    } else {
      return false;
    }
    return true;
  });
  return out;
}

std::string num(double v) {
  char buf[64];
  std::snprintf(buf, sizeof buf, "%.17g", v);
  return buf;
}

}  // namespace

const char* to_string(CorruptionMode mode) noexcept {
  switch (mode) {
    case CorruptionMode::kBitFlip:
      return "bit_flip";
    case CorruptionMode::kTruncate:
      return "truncate";
  }
  return "?";
}

void Config::validate() const {
  FEDBIAD_CHECK(!name.empty(), "scenario: name must be non-empty");
  for (const char c : name) {
    const bool ok = (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') ||
                    (c >= '0' && c <= '9') || c == '-' || c == '_' || c == '.';
    FEDBIAD_CHECK(ok, "scenario: name must be a [A-Za-z0-9._-] slug");
  }
  check_range(over_selection, 1.0, 8.0, "over_selection");
  if (deadline_seconds != 0.0) {
    FEDBIAD_CHECK(std::isfinite(deadline_seconds) && deadline_seconds > 0.0,
                  "scenario: deadline_seconds must be positive (or 0 = off)");
  }
  if (availability.has_value()) {
    const AvailabilityConfig& a = *availability;
    FEDBIAD_CHECK(std::isfinite(a.period_seconds) && a.period_seconds > 0.0,
                  "scenario: availability.period_seconds must be positive");
    // A zero-width window can never admit a dispatch — reject it rather
    // than let the engine starve hunting for a moment that never comes.
    FEDBIAD_CHECK(a.window_fraction > 0.0 && a.window_fraction <= 1.0,
                  "scenario: availability.window_fraction must be in (0, 1]");
    FEDBIAD_CHECK(a.on_probability > 0.0 && a.on_probability <= 1.0,
                  "scenario: availability.on_probability must be in (0, 1]");
    check_range(a.correlation, 0.0, 1.0 - 1e-9, "availability.correlation");
  }
  if (churn.has_value()) {
    check_range(churn->failure_rate, 0.0, 0.95, "churn.failure_rate");
  }
  if (faults.has_value()) {
    const FaultsConfig& f = *faults;
    // Same < 1 cap as churn: a session where every delivery corrupts and
    // every retry budget drains would starve the engine outright.
    check_range(f.corruption_probability, 0.0, 0.95,
                "faults.corruption_probability");
    check_range(f.duplicate_probability, 0.0, 0.95,
                "faults.duplicate_probability");
    const RetryConfig& r = f.retry;
    FEDBIAD_CHECK(r.max_attempts >= 1 && r.max_attempts <= 16,
                  "scenario: faults.retry.max_attempts out of range [1, 16]");
    FEDBIAD_CHECK(std::isfinite(r.backoff_seconds) && r.backoff_seconds > 0.0,
                  "scenario: faults.retry.backoff_seconds must be positive");
    check_range(r.backoff_multiplier, 1.0, 8.0,
                "faults.retry.backoff_multiplier");
    check_range(r.jitter_fraction, 0.0, 1.0 - 1e-9,
                "faults.retry.jitter_fraction");
  }
}

Config Config::from_json(const std::string& text) {
  const json::Value root = json::Value::parse(text);
  Config cfg;
  walk_object(root, "scenario",
              [&](const std::string& key, const json::Value& m) {
                if (key == "name") {
                  FEDBIAD_CHECK(m.is_string(),
                                "scenario: name must be a string");
                  cfg.name = m.as_string();
                } else if (key == "seed") {
                  cfg.seed = get_integer(m, "seed", 0.0);
                } else if (key == "over_selection") {
                  cfg.over_selection = get_number(m, "over_selection");
                } else if (key == "deadline_seconds") {
                  cfg.deadline_seconds = get_number(m, "deadline_seconds");
                } else if (key == "availability") {
                  cfg.availability = parse_availability(m);
                } else if (key == "churn") {
                  cfg.churn = parse_churn(m);
                } else if (key == "faults") {
                  cfg.faults = parse_faults(m);
                } else {
                  return false;
                }
                return true;
              });
  cfg.validate();
  return cfg;
}

Config Config::load(const std::string& path) {
  std::ifstream is(path);
  FEDBIAD_CHECK(static_cast<bool>(is),
                "scenario: cannot read file " + path);
  std::ostringstream ss;
  ss << is.rdbuf();
  return from_json(ss.str());
}

std::string Config::to_json() const {
  std::ostringstream os;
  os << "{\n";
  os << "  \"name\": \"" << name << "\",\n";
  os << "  \"seed\": " << seed << ",\n";
  os << "  \"over_selection\": " << num(over_selection) << ",\n";
  os << "  \"deadline_seconds\": " << num(deadline_seconds);
  if (availability.has_value()) {
    const AvailabilityConfig& a = *availability;
    os << ",\n  \"availability\": {\n";
    os << "    \"period_seconds\": " << num(a.period_seconds) << ",\n";
    os << "    \"window_fraction\": " << num(a.window_fraction) << ",\n";
    os << "    \"on_probability\": " << num(a.on_probability) << ",\n";
    os << "    \"correlation\": " << num(a.correlation) << "\n  }";
  }
  if (churn.has_value()) {
    os << ",\n  \"churn\": {\n";
    os << "    \"failure_rate\": " << num(churn->failure_rate) << "\n  }";
  }
  if (faults.has_value()) {
    const FaultsConfig& f = *faults;
    os << ",\n  \"faults\": {\n";
    os << "    \"corruption_probability\": " << num(f.corruption_probability)
       << ",\n";
    os << "    \"corruption_mode\": \"" << to_string(f.corruption_mode)
       << "\",\n";
    os << "    \"duplicate_probability\": " << num(f.duplicate_probability)
       << ",\n";
    os << "    \"retry\": {\n";
    os << "      \"max_attempts\": " << f.retry.max_attempts << ",\n";
    os << "      \"backoff_seconds\": " << num(f.retry.backoff_seconds)
       << ",\n";
    os << "      \"backoff_multiplier\": " << num(f.retry.backoff_multiplier)
       << ",\n";
    os << "      \"jitter_fraction\": " << num(f.retry.jitter_fraction)
       << "\n    }\n  }";
  }
  os << "\n}\n";
  return os.str();
}

}  // namespace fedbiad::scenario
