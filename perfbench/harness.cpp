#include "harness.h"

#include <algorithm>
#include <fstream>
#include <iomanip>
#include <limits>
#include <stdexcept>
#include <string>

namespace perfbench {

double highest_supported_percentile(std::size_t samples) {
  for (const double p : {99.0, 95.0, 90.0, 75.0}) {
    if (static_cast<double>(samples) * (100.0 - p) / 100.0 >= 10.0) return p;
  }
  return 50.0;
}

double peak_rss_mib() {
  // VmHWM, not getrusage's ru_maxrss: the latter keeps the peak of the
  // image that exec replaced, so a small process started by run.py reports
  // the Python interpreter's resident size.
  std::ifstream status("/proc/self/status");
  std::string line;
  while (std::getline(status, line)) {
    if (line.rfind("VmHWM:", 0) == 0) {
      return std::stod(line.substr(6)) / 1024.0;  // the field is in kB
    }
  }
  return std::numeric_limits<double>::quiet_NaN();
}

CpuRotation::CpuRotation() {
  if (sched_getaffinity(0, sizeof(allowed_), &allowed_) != 0) return;
  for (int cpu = 0; cpu < CPU_SETSIZE; ++cpu) {
    if (CPU_ISSET(cpu, &allowed_)) cpus_.push_back(cpu);
  }
}

CpuRotation::~CpuRotation() {
  if (!cpus_.empty()) sched_setaffinity(0, sizeof(allowed_), &allowed_);
}

void CpuRotation::pin(std::size_t i) {
  if (cpus_.empty()) return;
  cpu_set_t one;
  CPU_ZERO(&one);
  CPU_SET(cpus_[i % cpus_.size()], &one);
  sched_setaffinity(0, sizeof(one), &one);
}

void PhaseResult::fail(std::uint64_t ops, std::string what) {
  failed += ops;
  if (problems.size() < 8) problems.push_back(std::move(what));
}

SpanLog::Id SpanLog::add(const char* name, std::uint64_t op, Id parent,
                         Clock::time_point start, Clock::time_point end) {
  spans_.push_back({name, op, parent, start, end});
  return static_cast<Id>(spans_.size() - 1);
}

SpanLog::Id SpanLog::open(const char* name, std::uint64_t op, Id parent,
                          Clock::time_point start) {
  return add(name, op, parent, start, start);
}

void SpanLog::close(Id id, Clock::time_point end) {
  spans_.at(static_cast<std::size_t>(id)).end = end;
}

void SpanLog::merge(const SpanLog& other) {
  const auto base = static_cast<Id>(spans_.size());
  for (Span s : other.spans_) {
    if (s.parent != kRoot) s.parent += base;
    spans_.push_back(s);
  }
}

std::vector<double> SpanLog::durations_us(std::string_view name) const {
  std::vector<double> out;
  for (const Span& s : spans_) {
    if (name == s.name) out.push_back(micros_between(s.start, s.end));
  }
  return out;
}

std::vector<double> SpanLog::self_times_us() const {
  // Union of each span's child intervals, clipped to the span.
  std::vector<std::vector<std::pair<Clock::time_point, Clock::time_point>>>
      children(spans_.size());
  for (const Span& s : spans_) {
    if (s.parent != kRoot) {
      children[static_cast<std::size_t>(s.parent)].emplace_back(s.start,
                                                                s.end);
    }
  }
  std::vector<double> self(spans_.size());
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    const Span& s = spans_[i];
    auto& kids = children[i];
    std::sort(kids.begin(), kids.end());
    double covered = 0.0;
    Clock::time_point reach = s.start;
    for (auto [a, b] : kids) {
      a = std::max(a, reach);
      b = std::min(b, s.end);
      if (b > a) {
        covered += micros_between(a, b);
        reach = b;
      }
    }
    self[i] = micros_between(s.start, s.end) - covered;
  }
  return self;
}

void SpanLog::write_jsonl(const std::string& path) const {
  std::ofstream out(path, std::ios::trunc);
  if (!out) throw std::runtime_error("cannot write span log " + path);
  out << std::fixed << std::setprecision(3);
  const std::vector<double> self = self_times_us();
  const Clock::time_point epoch =
      spans_.empty() ? Clock::time_point{} : spans_.front().start;
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    const Span& s = spans_[i];
    out << "{\"id\":" << i << ",\"name\":\"" << s.name << "\",\"op\":" << s.op
        << ",\"parent\":" << s.parent
        << ",\"start_us\":" << micros_between(epoch, s.start)
        << ",\"end_us\":" << micros_between(epoch, s.end)
        << ",\"self_us\":" << self[i] << "}\n";
  }
}

Metric median_metric(std::string name, std::string unit,
                         const std::vector<double>& samples,
                         std::string basis) {
  return {std::move(name), std::move(unit),
          Figure{median(samples), samples.size(), std::move(basis)}};
}

}  // namespace perfbench
