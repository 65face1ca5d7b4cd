// Persistent log of observed operation resource usage (§3.4: "Spectra logs
// resource usage and creates models that predict future demand... each
// predictor reads the logged resource usage data").
//
// The log is the system of record; in-memory models are rebuilt from it at
// registration time and updated incrementally afterwards. Persistence uses
// a line-oriented text format so logs survive restarts and can be inspected.
#pragma once

#include <iosfwd>
#include <string>
#include <vector>

#include "fs/coda.h"
#include "monitor/types.h"
#include "predict/features.h"

namespace spectra::predict {

struct UsageRecord {
  std::string operation;
  // Features by name, as the log's text holds them.
  NamedFeatures discrete;
  NamedFeatures continuous;
  std::string data_tag;
  double elapsed = 0.0;
  double local_cycles = 0.0;
  double remote_cycles = 0.0;
  double bytes_sent = 0.0;
  double bytes_received = 0.0;
  double rpcs = 0.0;
  double rpc_failures = 0.0;
  double energy = 0.0;
  bool energy_valid = true;
  // Merged local+remote accesses, deduplicated by path.
  std::vector<fs::Access> file_accesses;

  // `features` are named through `schema`.
  static UsageRecord from_usage(const std::string& operation,
                                const FeatureSchema& schema,
                                const FeatureVector& features,
                                const monitor::OperationUsage& usage);
};

class UsageLog {
 public:
  void append(UsageRecord record);

  const std::vector<UsageRecord>& records() const { return records_; }
  std::vector<UsageRecord> for_operation(const std::string& operation) const;
  std::size_t size() const { return records_.size(); }
  void clear() { records_.clear(); }

  // Text persistence. save overwrites; load replaces the in-memory records.
  // Both throw util::ContractError on I/O failure or malformed input.
  void save(const std::string& path) const;
  void load(const std::string& path);

  static std::string serialize(const UsageRecord& record);
  static UsageRecord deserialize(const std::string& line);

 private:
  std::vector<UsageRecord> records_;
};

}  // namespace spectra::predict
