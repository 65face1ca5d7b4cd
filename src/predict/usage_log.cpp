#include "predict/usage_log.h"

#include <fstream>
#include <map>
#include <sstream>

#include "util/assert.h"

namespace spectra::predict {

namespace {

// Field separator is TAB; map entries use ','/'='; file entries use ','/'='.
// Keys and paths must therefore avoid tabs, commas, and '='; the
// applications in this repository satisfy that by construction and
// serialize() enforces it.
void check_token(const std::string& s) {
  SPECTRA_REQUIRE(s.find('\t') == std::string::npos &&
                      s.find(',') == std::string::npos &&
                      s.find('\n') == std::string::npos,
                  "token contains a reserved separator: " + s);
}

std::string join_map(const NamedFeatures& m) {
  std::ostringstream os;
  bool first = true;
  for (const auto& [name, value] : m) {  // name order: byte-stable
    check_token(name);
    if (!first) os << ',';
    os << name << '=' << value;
    first = false;
  }
  return os.str();
}

NamedFeatures parse_map(const std::string& s) {
  std::map<std::string, double> out;  // name order, a repeated name's last
  std::istringstream is(s);
  std::string item;
  while (std::getline(is, item, ',')) {
    const auto eq = item.find('=');
    SPECTRA_REQUIRE(eq != std::string::npos, "malformed map entry: " + item);
    out[item.substr(0, eq)] = std::stod(item.substr(eq + 1));
  }
  return {out.begin(), out.end()};
}

std::vector<std::string> split_fields(const std::string& line) {
  std::vector<std::string> fields;
  std::istringstream is(line);
  std::string f;
  while (std::getline(is, f, '\t')) fields.push_back(f);
  return fields;
}

}  // namespace

UsageRecord UsageRecord::from_usage(const std::string& operation,
                                    const FeatureSchema& schema,
                                    const FeatureVector& features,
                                    const monitor::OperationUsage& usage) {
  UsageRecord r;
  r.operation = operation;
  r.discrete = to_named(schema.discrete, features.discrete);
  r.continuous = to_named(schema.continuous, features.continuous);
  r.data_tag = features.data_tag.str();
  r.elapsed = usage.elapsed;
  r.local_cycles = usage.local_cycles;
  r.remote_cycles = usage.remote_cycles;
  r.bytes_sent = usage.bytes_sent;
  r.bytes_received = usage.bytes_received;
  r.rpcs = usage.rpcs;
  r.rpc_failures = usage.rpc_failures;
  r.energy = usage.energy;
  r.energy_valid = usage.energy_valid;
  std::map<std::string, fs::Access> merged;
  for (const auto& a : usage.local_file_accesses) merged.emplace(a.path, a);
  for (const auto& a : usage.remote_file_accesses) merged.emplace(a.path, a);
  for (const auto& [path, a] : merged) r.file_accesses.push_back(a);
  return r;
}

void UsageLog::append(UsageRecord record) {
  records_.push_back(std::move(record));
}

std::vector<UsageRecord> UsageLog::for_operation(
    const std::string& operation) const {
  std::vector<UsageRecord> out;
  for (const auto& r : records_) {
    if (r.operation == operation) out.push_back(r);
  }
  return out;
}

std::string UsageLog::serialize(const UsageRecord& r) {
  check_token(r.operation);
  check_token(r.data_tag);
  std::ostringstream os;
  os.precision(17);
  os << r.operation << '\t' << join_map(r.discrete) << '\t'
     << join_map(r.continuous) << '\t' << r.data_tag << '\t' << r.elapsed
     << '\t' << r.local_cycles << '\t' << r.remote_cycles << '\t'
     << r.bytes_sent << '\t' << r.bytes_received << '\t' << r.rpcs << '\t'
     << r.energy << '\t' << (r.energy_valid ? 1 : 0) << '\t';
  bool first = true;
  for (const auto& a : r.file_accesses) {
    check_token(a.path);
    if (!first) os << ',';
    os << a.path << '=' << a.size << (a.write ? ":w" : ":r");
    first = false;
  }
  os << '\t' << r.rpc_failures;
  return os.str();
}

UsageRecord UsageLog::deserialize(const std::string& line) {
  const auto fields = split_fields(line);
  SPECTRA_REQUIRE(fields.size() >= 12, "malformed usage record: " + line);
  UsageRecord r;
  r.operation = fields[0];
  r.discrete = parse_map(fields[1]);
  r.continuous = parse_map(fields[2]);
  r.data_tag = fields[3];
  r.elapsed = std::stod(fields[4]);
  r.local_cycles = std::stod(fields[5]);
  r.remote_cycles = std::stod(fields[6]);
  r.bytes_sent = std::stod(fields[7]);
  r.bytes_received = std::stod(fields[8]);
  r.rpcs = std::stod(fields[9]);
  r.energy = std::stod(fields[10]);
  r.energy_valid = fields[11] == "1";
  if (fields.size() >= 13 && !fields[12].empty()) {
    std::istringstream is(fields[12]);
    std::string item;
    while (std::getline(is, item, ',')) {
      const auto eq = item.find('=');
      const auto colon = item.rfind(':');
      SPECTRA_REQUIRE(eq != std::string::npos && colon != std::string::npos &&
                          colon > eq,
                      "malformed file access: " + item);
      fs::Access a;
      a.path = item.substr(0, eq);
      a.size = std::stod(item.substr(eq + 1, colon - eq - 1));
      a.write = item.substr(colon + 1) == "w";
      r.file_accesses.push_back(a);
    }
  }
  // Logs written before transport-failure accounting lack this field.
  if (fields.size() >= 14) r.rpc_failures = std::stod(fields[13]);
  return r;
}

void UsageLog::save(const std::string& path) const {
  std::ofstream out(path, std::ios::trunc);
  SPECTRA_REQUIRE(out.good(), "cannot open usage log for writing: " + path);
  for (const auto& r : records_) out << serialize(r) << '\n';
  out.flush();
  SPECTRA_REQUIRE(out.good(), "failed writing usage log: " + path);
}

void UsageLog::load(const std::string& path) {
  std::ifstream in(path);
  SPECTRA_REQUIRE(in.good(), "cannot open usage log for reading: " + path);
  records_.clear();
  std::string line;
  while (std::getline(in, line)) {
    if (line.empty()) continue;
    records_.push_back(deserialize(line));
  }
}

}  // namespace spectra::predict
