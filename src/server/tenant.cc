#include "server/tenant.h"

#include <algorithm>
#include <cctype>
#include <cerrno>
#include <chrono>
#include <cstdlib>
#include <string>
#include <vector>

namespace ipdb {
namespace server {

namespace {

/// Splits on whitespace and semicolons, dropping empty pieces.
std::vector<std::string> Tokenize(const std::string& text) {
  std::vector<std::string> tokens;
  std::string current;
  for (char c : text) {
    if (std::isspace(static_cast<unsigned char>(c)) || c == ';') {
      if (!current.empty()) tokens.push_back(std::move(current));
      current.clear();
    } else {
      current.push_back(c);
    }
  }
  if (!current.empty()) tokens.push_back(std::move(current));
  return tokens;
}

StatusOr<int64_t> ParseInt(const std::string& key, const std::string& value) {
  if (value.empty()) {
    return IPDB_STATUS(StatusCode::kInvalidArgument)
           << "tenant config: empty value for '" << key << "'";
  }
  errno = 0;
  char* end = nullptr;
  const long long parsed = std::strtoll(value.c_str(), &end, 10);
  if (errno != 0 || end == nullptr || *end != '\0') {
    return IPDB_STATUS(StatusCode::kInvalidArgument)
           << "tenant config: '" << key << "' wants an integer, got '"
           << value << "'";
  }
  return static_cast<int64_t>(parsed);
}

StatusOr<double> ParseDouble(const std::string& key,
                             const std::string& value) {
  if (value.empty()) {
    return IPDB_STATUS(StatusCode::kInvalidArgument)
           << "tenant config: empty value for '" << key << "'";
  }
  errno = 0;
  char* end = nullptr;
  const double parsed = std::strtod(value.c_str(), &end);
  if (errno != 0 || end == nullptr || *end != '\0') {
    return IPDB_STATUS(StatusCode::kInvalidArgument)
           << "tenant config: '" << key << "' wants a number, got '" << value
           << "'";
  }
  return parsed;
}

StatusOr<bool> ParseBool(const std::string& key, const std::string& value) {
  if (value == "1" || value == "true") return true;
  if (value == "0" || value == "false") return false;
  return IPDB_STATUS(StatusCode::kInvalidArgument)
         << "tenant config: '" << key << "' wants 0/1/true/false, got '"
         << value << "'";
}

}  // namespace

StatusOr<TenantConfig> ParseTenantConfig(const std::string& text) {
  TenantConfig config;
  for (const std::string& token : Tokenize(text)) {
    const size_t equals = token.find('=');
    if (equals == std::string::npos || equals == 0) {
      return IPDB_STATUS(StatusCode::kInvalidArgument)
             << "tenant config: expected key=value, got '" << token << "'";
    }
    const std::string key = token.substr(0, equals);
    const std::string value = token.substr(equals + 1);
    if (key == "max_in_flight") {
      StatusOr<int64_t> parsed = ParseInt(key, value);
      if (!parsed.ok()) return parsed.status();
      config.max_in_flight = parsed.value();
    } else if (key == "budget_ms") {
      StatusOr<int64_t> parsed = ParseInt(key, value);
      if (!parsed.ok()) return parsed.status();
      config.budget_ms = parsed.value();
    } else if (key == "max_circuit_nodes") {
      StatusOr<int64_t> parsed = ParseInt(key, value);
      if (!parsed.ok()) return parsed.status();
      config.max_circuit_nodes = parsed.value();
    } else if (key == "max_samples") {
      StatusOr<int64_t> parsed = ParseInt(key, value);
      if (!parsed.ok()) return parsed.status();
      config.max_samples = parsed.value();
    } else if (key == "fallback") {
      StatusOr<bool> parsed = ParseBool(key, value);
      if (!parsed.ok()) return parsed.status();
      config.fallback = parsed.value();
    } else if (key == "fallback_samples") {
      StatusOr<int64_t> parsed = ParseInt(key, value);
      if (!parsed.ok()) return parsed.status();
      config.fallback_samples = parsed.value();
    } else if (key == "fallback_confidence") {
      StatusOr<double> parsed = ParseDouble(key, value);
      if (!parsed.ok()) return parsed.status();
      config.fallback_confidence = parsed.value();
    } else if (key == "degraded_samples") {
      StatusOr<int64_t> parsed = ParseInt(key, value);
      if (!parsed.ok()) return parsed.status();
      config.degraded_samples = parsed.value();
    } else if (key == "cache_max_bytes") {
      StatusOr<int64_t> parsed = ParseInt(key, value);
      if (!parsed.ok()) return parsed.status();
      config.cache_max_bytes = parsed.value();
    } else if (key == "cache_max_entries") {
      StatusOr<int64_t> parsed = ParseInt(key, value);
      if (!parsed.ok()) return parsed.status();
      config.cache_max_entries = parsed.value();
    } else if (key == "trace_sample") {
      StatusOr<double> parsed = ParseDouble(key, value);
      if (!parsed.ok()) return parsed.status();
      config.trace_sample = parsed.value();
    } else if (key == "slo_p99_ms") {
      StatusOr<double> parsed = ParseDouble(key, value);
      if (!parsed.ok()) return parsed.status();
      config.slo_p99_ms = parsed.value();
    } else if (key == "slo_availability") {
      StatusOr<double> parsed = ParseDouble(key, value);
      if (!parsed.ok()) return parsed.status();
      config.slo_availability = parsed.value();
    } else if (key == "slo_burn_alert") {
      StatusOr<double> parsed = ParseDouble(key, value);
      if (!parsed.ok()) return parsed.status();
      config.slo_burn_alert = parsed.value();
    } else {
      return IPDB_STATUS(StatusCode::kInvalidArgument)
             << "tenant config: unknown key '" << key << "'";
    }
  }
  IPDB_RETURN_IF_ERROR(ValidateTenantConfig(config));
  return config;
}

Status ValidateTenantConfig(const TenantConfig& config) {
  if (config.max_in_flight < 1) {
    return InvalidArgumentError("tenant config: max_in_flight must be >= 1");
  }
  if (config.budget_ms < 0 || config.max_circuit_nodes < 0 ||
      config.max_samples < 0 || config.cache_max_bytes < 0 ||
      config.cache_max_entries < 0) {
    return InvalidArgumentError("tenant config: caps must be >= 0");
  }
  if (config.budget_ms > kMaxBudgetMs) {
    return InvalidArgumentError(
        "tenant config: budget_ms must be <= " + std::to_string(kMaxBudgetMs));
  }
  if (config.fallback_samples < 1 || config.degraded_samples < 1) {
    return InvalidArgumentError(
        "tenant config: sample counts must be >= 1");
  }
  if (!(config.fallback_confidence > 0.0 &&
        config.fallback_confidence < 1.0)) {
    return InvalidArgumentError(
        "tenant config: fallback_confidence must lie in (0, 1)");
  }
  if (!(config.trace_sample >= 0.0 && config.trace_sample <= 1.0)) {
    return InvalidArgumentError(
        "tenant config: trace_sample must lie in [0, 1]");
  }
  if (config.slo_p99_ms < 0.0) {
    return InvalidArgumentError("tenant config: slo_p99_ms must be >= 0");
  }
  if (!(config.slo_availability >= 0.0 && config.slo_availability < 1.0)) {
    return InvalidArgumentError(
        "tenant config: slo_availability must lie in [0, 1)");
  }
  if (config.slo_burn_alert <= 0.0) {
    return InvalidArgumentError(
        "tenant config: slo_burn_alert must be > 0");
  }
  return Status::Ok();
}

pqe::QueryOptions ToQueryOptions(
    const TenantConfig& config, ExecutionBudget* budget,
    ExecutionBudget::Clock::time_point deadline_start, bool degraded,
    const CancelToken* cancel) {
  *budget = ExecutionBudget{};
  if (config.budget_ms > 0) {
    budget->deadline =
        deadline_start + std::chrono::milliseconds(config.budget_ms);
  }
  budget->max_circuit_nodes = config.max_circuit_nodes;
  budget->max_samples = config.max_samples;
  budget->cancel = cancel;
  pqe::QueryOptions options;
  options.fallback = config.fallback;
  options.fallback_samples = config.fallback_samples;
  options.fallback_confidence = config.fallback_confidence;
  if (degraded) {
    // Sample-only rung: cap the compiler at one circuit node so the
    // exact rung trips immediately and the certified Monte Carlo
    // interval answers, at a reduced sample count. Exact answers can
    // still happen — via the (cheaper-than-sampling) lifted rung.
    options.fallback = true;
    budget->max_circuit_nodes = 1;
    options.fallback_samples =
        std::min(config.fallback_samples, config.degraded_samples);
  }
  options.budget = budget;
  return options;
}

}  // namespace server
}  // namespace ipdb
