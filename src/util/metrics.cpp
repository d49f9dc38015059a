/// \file metrics.cpp
/// \brief MetricsRegistry storage and stable JSON emission.
#include "util/metrics.hpp"

#include <cstdio>
#include <ostream>
#include <stdexcept>
#include <utility>

#include "util/json.hpp"

namespace kappa {

void MetricsRegistry::set_u64(const std::string& name, std::uint64_t value) {
  Value v;
  v.type = Type::kU64;
  v.u64 = value;
  metrics_[name] = std::move(v);
}

void MetricsRegistry::set_i64(const std::string& name, std::int64_t value) {
  Value v;
  v.type = Type::kI64;
  v.i64 = value;
  metrics_[name] = std::move(v);
}

void MetricsRegistry::set_f64(const std::string& name, double value) {
  Value v;
  v.type = Type::kF64;
  v.f64 = value;
  metrics_[name] = std::move(v);
}

void MetricsRegistry::set_str(const std::string& name, std::string value) {
  Value v;
  v.type = Type::kStr;
  v.str = std::move(value);
  metrics_[name] = std::move(v);
}

void MetricsRegistry::set_u64_list(const std::string& name,
                                   std::vector<std::uint64_t> values) {
  Value v;
  v.type = Type::kU64List;
  v.u64s = std::move(values);
  metrics_[name] = std::move(v);
}

void MetricsRegistry::set_f64_list(const std::string& name,
                                   std::vector<double> values) {
  Value v;
  v.type = Type::kF64List;
  v.f64s = std::move(values);
  metrics_[name] = std::move(v);
}

void MetricsRegistry::set_counter(const CounterField& field,
                                  std::uint64_t total,
                                  std::vector<std::uint64_t> per_rank) {
  counters_.push_back(&field);
  const std::string group = field.group;
  set_u64(group + "." + field.name, total);
  set_u64_list(group + ".per_rank." + field.name, std::move(per_rank));
}

bool MetricsRegistry::contains(const std::string& name) const {
  return metrics_.count(name) != 0;
}

std::vector<std::string> MetricsRegistry::names() const {
  std::vector<std::string> result;
  result.reserve(metrics_.size());
  for (const auto& [name, value] : metrics_) result.push_back(name);
  return result;
}

const MetricsRegistry::Value& MetricsRegistry::at(const std::string& name,
                                                  Type type) const {
  const auto it = metrics_.find(name);
  if (it == metrics_.end()) {
    throw std::out_of_range("MetricsRegistry: no metric named " + name);
  }
  if (it->second.type != type) {
    throw std::logic_error("MetricsRegistry: type mismatch reading " + name);
  }
  return it->second;
}

std::uint64_t MetricsRegistry::u64(const std::string& name) const {
  return at(name, Type::kU64).u64;
}

std::int64_t MetricsRegistry::i64(const std::string& name) const {
  return at(name, Type::kI64).i64;
}

double MetricsRegistry::f64(const std::string& name) const {
  return at(name, Type::kF64).f64;
}

const std::string& MetricsRegistry::str(const std::string& name) const {
  return at(name, Type::kStr).str;
}

const std::vector<std::uint64_t>& MetricsRegistry::u64_list(
    const std::string& name) const {
  return at(name, Type::kU64List).u64s;
}

const std::vector<double>& MetricsRegistry::f64_list(
    const std::string& name) const {
  return at(name, Type::kF64List).f64s;
}

namespace {

/// Round-trippable double without locale surprises.
void write_f64(std::ostream& out, double value) {
  char buffer[40];
  std::snprintf(buffer, sizeof buffer, "%.17g", value);
  // JSON has no infinity/nan literals; clamp to null.
  for (const char* p = buffer; *p != '\0'; ++p) {
    if (*p == 'n' || *p == 'i') {
      out << "null";
      return;
    }
  }
  out << buffer;
}

}  // namespace

void MetricsRegistry::write_json(std::ostream& out, int indent) const {
  const std::string pad(static_cast<std::size_t>(indent), ' ');
  out << pad << "{\n" << pad << "  \"schema\": \"" << kMetricsSchema
      << "\",\n" << pad << "  \"counters\": [";
  for (std::size_t i = 0; i < counters_.size(); ++i) {
    const CounterField& field = *counters_[i];
    out << (i == 0 ? "" : ",") << '\n' << pad << "    {\"group\": \""
        << field.group << "\", \"name\": \"" << field.name
        << "\", \"unit\": \"" << field.unit << "\", \"fold\": \""
        << (field.fold == CounterFold::kSum ? "sum" : "max") << "\"}";
  }
  out << (counters_.empty() ? "" : "\n" + pad + "  ") << "],\n"
      << pad << "  \"metrics\": {";
  bool first = true;
  for (const auto& [name, value] : metrics_) {
    if (!first) out << ',';
    first = false;
    out << '\n' << pad << "    ";
    out << json_string(name);
    out << ": {\"type\": \"";
    switch (value.type) {
      case Type::kU64:
        out << "u64\", \"value\": " << value.u64;
        break;
      case Type::kI64:
        out << "i64\", \"value\": " << value.i64;
        break;
      case Type::kF64:
        out << "f64\", \"value\": ";
        write_f64(out, value.f64);
        break;
      case Type::kStr:
        out << "str\", \"value\": ";
        out << json_string(value.str);
        break;
      case Type::kU64List: {
        out << "u64[]\", \"value\": [";
        for (std::size_t i = 0; i < value.u64s.size(); ++i) {
          out << (i == 0 ? "" : ", ") << value.u64s[i];
        }
        out << ']';
        break;
      }
      case Type::kF64List: {
        out << "f64[]\", \"value\": [";
        for (std::size_t i = 0; i < value.f64s.size(); ++i) {
          if (i != 0) out << ", ";
          write_f64(out, value.f64s[i]);
        }
        out << ']';
        break;
      }
    }
    out << '}';
  }
  out << '\n' << pad << "  }\n" << pad << "}";
}

}  // namespace kappa
