#include <gtest/gtest.h>

#include <cstdint>
#include <cstdio>
#include <fstream>
#include <new>
#include <sstream>
#include <string>
#include <vector>

#include "apps/janus.h"
#include "obs/memaudit.h"
#include "obs/obs.h"
#include "scenario/experiment.h"
#include "util/assert.h"

namespace spectra::obs {
namespace {

using scenario::SpeechExperiment;

// --------------------------------------------------------------- metrics

TEST(CounterTest, AddsAndResets) {
  Counter c;
  EXPECT_DOUBLE_EQ(c.value(), 0.0);
  c.add();
  c.add(3.5);
  EXPECT_DOUBLE_EQ(c.value(), 4.5);
  c.reset();
  EXPECT_DOUBLE_EQ(c.value(), 0.0);
}

TEST(HistogramTest, StreamingStats) {
  Histogram h;
  EXPECT_EQ(h.count(), 0u);
  EXPECT_DOUBLE_EQ(h.mean(), 0.0);
  h.observe(2.0);
  h.observe(-1.0);
  h.observe(5.0);
  EXPECT_EQ(h.count(), 3u);
  EXPECT_DOUBLE_EQ(h.sum(), 6.0);
  EXPECT_DOUBLE_EQ(h.min(), -1.0);
  EXPECT_DOUBLE_EQ(h.max(), 5.0);
  EXPECT_DOUBLE_EQ(h.mean(), 2.0);
  h.reset();
  EXPECT_EQ(h.count(), 0u);
  EXPECT_DOUBLE_EQ(h.min(), 0.0);
}

TEST(MetricsRegistryTest, HandlesAreStable) {
  MetricsRegistry reg;
  Counter* c = &reg.counter("a.count");
  reg.counter("z.other");
  reg.histogram("m.hist");
  EXPECT_EQ(&reg.counter("a.count"), c);  // fetch-or-create returns same slot
  c->add(2.0);
  EXPECT_DOUBLE_EQ(reg.find_counter("a.count")->value(), 2.0);
  EXPECT_EQ(reg.size(), 3u);
}

TEST(MetricsRegistryTest, CrossTypeNameCollisionThrows) {
  MetricsRegistry reg;
  reg.counter("x");
  reg.histogram("y");
  EXPECT_THROW(reg.histogram("x"), util::ContractError);
  EXPECT_THROW(reg.counter("y"), util::ContractError);
}

TEST(MetricsRegistryTest, FindReturnsNullWhenAbsent) {
  MetricsRegistry reg;
  EXPECT_EQ(reg.find_counter("nope"), nullptr);
  EXPECT_EQ(reg.find_histogram("nope"), nullptr);
}

TEST(MetricsRegistryTest, ResetZeroesButKeepsRegistrations) {
  MetricsRegistry reg;
  Counter* c = &reg.counter("c");
  Histogram* h = &reg.histogram("h");
  c->add(7.0);
  h->observe(1.0);
  reg.reset();
  EXPECT_EQ(reg.size(), 2u);
  EXPECT_EQ(&reg.counter("c"), c);  // handles survive reset
  EXPECT_DOUBLE_EQ(c->value(), 0.0);
  EXPECT_EQ(h->count(), 0u);
}

TEST(MetricsRegistryTest, SnapshotSortedByName) {
  MetricsRegistry reg;
  reg.histogram("b.hist").observe(4.0);
  reg.counter("c.count").add(1.0);
  reg.counter("a.count").add(2.0);
  const auto rows = reg.snapshot();
  ASSERT_EQ(rows.size(), 3u);
  EXPECT_EQ(rows[0].name, "a.count");
  EXPECT_EQ(rows[1].name, "b.hist");
  EXPECT_EQ(rows[2].name, "c.count");
  EXPECT_EQ(rows[0].type, "counter");
  EXPECT_EQ(rows[1].type, "histogram");
  EXPECT_DOUBLE_EQ(rows[1].mean, 4.0);
}

TEST(MetricsRegistryTest, CsvExportShape) {
  MetricsRegistry reg;
  reg.counter("ops").add(3.0);
  reg.histogram("lat").observe(0.5);
  std::ostringstream out;
  reg.export_csv(out);
  std::istringstream in(out.str());
  std::string line;
  ASSERT_TRUE(std::getline(in, line));
  EXPECT_EQ(line, "name,type,count,sum,min,max,mean");
  std::vector<std::string> rows;
  while (std::getline(in, line)) rows.push_back(line);
  ASSERT_EQ(rows.size(), 2u);
  EXPECT_EQ(rows[0].substr(0, 4), "lat,");
  EXPECT_EQ(rows[1].substr(0, 4), "ops,");
}

TEST(MetricsRegistryTest, JsonlExportOneObjectPerLine) {
  MetricsRegistry reg;
  reg.counter("ops").add(3.0);
  reg.histogram("lat").observe(0.5);
  std::ostringstream out;
  reg.export_jsonl(out);
  std::istringstream in(out.str());
  std::string line;
  std::size_t n = 0;
  while (std::getline(in, line)) {
    ++n;
    EXPECT_EQ(line.front(), '{');
    EXPECT_EQ(line.back(), '}');
    EXPECT_NE(line.find("\"name\":"), std::string::npos);
  }
  EXPECT_EQ(n, 2u);
}

TEST(MetricsRegistryTest, ExportToFilePicksFormatByExtension) {
  MetricsRegistry reg;
  reg.counter("ops").add(1.0);
  const std::string csv = ::testing::TempDir() + "obs_metrics.csv";
  const std::string jsonl = ::testing::TempDir() + "obs_metrics.jsonl";
  reg.export_to_file(csv);
  reg.export_to_file(jsonl);
  std::ifstream fc(csv), fj(jsonl);
  std::string first;
  ASSERT_TRUE(std::getline(fc, first));
  EXPECT_EQ(first, "name,type,count,sum,min,max,mean");
  ASSERT_TRUE(std::getline(fj, first));
  EXPECT_EQ(first.front(), '{');
  std::remove(csv.c_str());
  std::remove(jsonl.c_str());
}

// ----------------------------------------------------------------- trace

TEST(TraceFormatTest, DoublesRoundTripShortest) {
  EXPECT_EQ(format_double(0.0), "0");
  EXPECT_EQ(format_double(1.5), "1.5");
  EXPECT_EQ(format_double(0.1), "0.1");  // not 0.1000000000000000055...
  EXPECT_EQ(format_double(-2.25), "-2.25");
}

TEST(TraceFormatTest, JsonQuoteEscapes) {
  EXPECT_EQ(json_quote("plain"), "\"plain\"");
  EXPECT_EQ(json_quote("a\"b"), "\"a\\\"b\"");
  EXPECT_EQ(json_quote("a\\b"), "\"a\\\\b\"");
  EXPECT_EQ(json_quote("a\nb"), "\"a\\nb\"");
  EXPECT_EQ(json_quote(std::string("a\x01") + "b"), "\"a\\u0001b\"");
}

TEST(TraceEventTest, FieldsRenderInInsertionOrder) {
  TraceEvent ev("decision", 12.5);
  ev.field("op", "speech").field("n", 3).field("ok", true).field("x", 0.25);
  EXPECT_EQ(ev.to_json(),
            "{\"type\":\"decision\",\"t\":12.5,\"op\":\"speech\","
            "\"n\":3,\"ok\":true,\"x\":0.25}");
}

TEST(TraceEventTest, NestedNumericMap) {
  TraceEvent ev("decision", 0.0);
  ev.field("fidelity", std::map<std::string, double>{{"b", 1.0}, {"a", 0.5}});
  EXPECT_EQ(ev.to_json(),
            "{\"type\":\"decision\",\"t\":0,\"fidelity\":{\"a\":0.5,\"b\":1}}");
}

TEST(TraceSinkTest, EmitsJsonlLines) {
  std::ostringstream out;
  TraceSink sink(out);
  sink.emit(TraceEvent("a", 1.0));
  sink.emit(TraceEvent("b", 2.0));
  EXPECT_EQ(sink.events(), 2u);
  EXPECT_EQ(out.str(), "{\"type\":\"a\",\"t\":1}\n{\"type\":\"b\",\"t\":2}\n");
}

TEST(TraceSinkTest, OpenWritesFile) {
  const std::string path = ::testing::TempDir() + "obs_trace.jsonl";
  {
    auto sink = TraceSink::open(path);
    sink->emit(TraceEvent("a", 1.0));
  }
  std::ifstream in(path);
  std::string line;
  ASSERT_TRUE(std::getline(in, line));
  EXPECT_EQ(line, "{\"type\":\"a\",\"t\":1}");
  std::remove(path.c_str());
}

TEST(ObservabilityTest, TracingTogglesWithSink) {
  Observability obs;
  EXPECT_FALSE(obs.tracing());
  EXPECT_EQ(obs.trace(), nullptr);
  std::ostringstream out;
  obs.trace_to(out);
  EXPECT_TRUE(obs.tracing());
  ASSERT_NE(obs.trace(), nullptr);
}

// ----------------------------------------------------- integration (speech)

constexpr int kOps = 3;

// One seeded speech run with tracing into `out`; returns the world's obs so
// callers can also inspect metrics.
std::string traced_speech_run(std::uint64_t seed, Observability& obs) {
  std::ostringstream out;
  obs.trace_to(out);
  SpeechExperiment::Config cfg;
  cfg.seed = seed;
  cfg.obs = &obs;
  SpeechExperiment exp(cfg);
  auto world = exp.trained_world();
  for (int i = 0; i < kOps; ++i) {
    const auto choice = world->spectra().begin_fidelity_op(
        apps::JanusApp::kOperation, {{"utt_len", 2.0}});
    EXPECT_TRUE(choice.ok);
    world->janus().execute(world->spectra(), 2.0);
    world->spectra().end_fidelity_op();
  }
  return out.str();
}

std::vector<std::string> lines_of(const std::string& s) {
  std::vector<std::string> out;
  std::istringstream in(s);
  std::string line;
  while (std::getline(in, line)) out.push_back(line);
  return out;
}

std::size_t count_type(const std::vector<std::string>& lines,
                       const std::string& type) {
  const std::string tag = "{\"type\":\"" + type + "\"";
  std::size_t n = 0;
  for (const auto& l : lines) {
    if (l.compare(0, tag.size(), tag) == 0) ++n;
  }
  return n;
}

TEST(ObsIntegrationTest, SpeechRunEmitsOneDecisionRecordPerOp) {
  Observability obs;
  const auto lines = lines_of(traced_speech_run(1000, obs));
  ASSERT_FALSE(lines.empty());
  for (const auto& l : lines) {
    EXPECT_EQ(l.compare(0, 9, "{\"type\":\""), 0) << l;
    EXPECT_EQ(l.back(), '}') << l;
  }
  // Training uses forced alternatives (no decision), so exactly one decision
  // record per measured begin_fidelity_op.
  EXPECT_EQ(count_type(lines, "decision"), static_cast<std::size_t>(kOps));
  // Every op — training included — ends through end_fidelity_op.
  EXPECT_GT(count_type(lines, "end_fidelity_op"),
            static_cast<std::size_t>(kOps));
  // Phases from the experiment harness: setup, train, settle.
  EXPECT_EQ(count_type(lines, "phase"), 3u);
  // Decision explain records carry the utility breakdown.
  for (const auto& l : lines) {
    if (l.compare(0, 18, "{\"type\":\"decision\"") != 0) continue;
    EXPECT_NE(l.find("\"mode\":\"model\""), std::string::npos) << l;
    for (const char* key :
         {"\"candidates\":", "\"evaluations\":", "\"memo_hits\":", "\"plan\":",
          "\"server\":", "\"fidelity\":", "\"lu_total\":", "\"lu_latency\":",
          "\"lu_energy\":", "\"lu_fidelity\":", "\"predicted_s\":",
          "\"virtual_decision_s\":"}) {
      EXPECT_NE(l.find(key), std::string::npos) << key << " missing in " << l;
    }
  }
}

TEST(ObsIntegrationTest, SeededTraceIsBitIdenticalAcrossReplays) {
  Observability a, b;
  const std::string ta = traced_speech_run(1000, a);
  const std::string tb = traced_speech_run(1000, b);
  EXPECT_EQ(ta, tb);
  // Different seed perturbs virtual time, so traces differ.
  Observability c;
  EXPECT_NE(traced_speech_run(1001, c), ta);
}

TEST(ObsIntegrationTest, MetricsCoverThePipeline) {
  Observability obs;
  traced_speech_run(1000, obs);
  const auto& m = obs.metrics();
  const auto counter = [&](const char* name) {
    const Counter* c = m.find_counter(name);
    EXPECT_NE(c, nullptr) << name;
    return c != nullptr ? c->value() : -1.0;
  };
  EXPECT_DOUBLE_EQ(counter("client.decisions"), kOps);
  // 18 training runs + kOps measured ops all complete.
  EXPECT_DOUBLE_EQ(counter("client.ops_completed"), 18.0 + kOps);
  EXPECT_GT(counter("solver.evaluations"), 0.0);
  // Speech's 6-alternative space goes through the exhaustive solver, which
  // never revisits a coordinate; the memoized path is exercised by the
  // heuristic-solver unit tests on large spaces.
  EXPECT_DOUBLE_EQ(counter("solver.memo_hits"), 0.0);
  EXPECT_GT(counter("client.snapshots"), 0.0);
  EXPECT_GT(counter("monitor.network.refreshes"), 0.0);
  EXPECT_GT(counter("rpc.calls"), 0.0);
  EXPECT_GT(counter("rpc.attempts"), 0.0);
  // Wall-clock decision latency lives in metrics (never in the trace).
  const Histogram* wall = m.find_histogram("decision.wall_ms");
  ASSERT_NE(wall, nullptr);
  EXPECT_EQ(wall->count(), static_cast<std::size_t>(kOps));
  const Histogram* virt = m.find_histogram("decision.virtual_ms");
  ASSERT_NE(virt, nullptr);
  EXPECT_GT(virt->mean(), 0.0);
  // Phase timers cover setup/train/settle.
  for (const char* name : {"phase.setup.virtual_s", "phase.train.virtual_s",
                           "phase.settle.virtual_s"}) {
    const Histogram* h = m.find_histogram(name);
    ASSERT_NE(h, nullptr) << name;
    EXPECT_EQ(h->count(), 1u);
  }
}

TEST(ObsIntegrationTest, MetricsAloneNeedNoTraceSink) {
  Observability obs;  // no trace_to: metrics-only mode
  SpeechExperiment::Config cfg;
  cfg.seed = 1000;
  cfg.obs = &obs;
  SpeechExperiment exp(cfg);
  auto world = exp.trained_world();
  const auto choice = world->spectra().begin_fidelity_op(
      apps::JanusApp::kOperation, {{"utt_len", 2.0}});
  EXPECT_TRUE(choice.ok);
  world->janus().execute(world->spectra(), 2.0);
  world->spectra().end_fidelity_op();
  EXPECT_DOUBLE_EQ(obs.metrics().find_counter("client.decisions")->value(),
                   1.0);
}

// --------------------------------------------------------------- memaudit

// The tests call ::operator new directly rather than using new-expressions:
// the standard lets the compiler elide a new/delete pair from a
// new-expression even when the allocation functions are replaced, which
// would make these counters never move. A plain function call cannot be
// elided.

TEST(MemAuditTest, PeakRssIsReported) {
  EXPECT_GT(peak_rss_bytes(), 0u);
}

TEST(MemAuditTest, ScopeAttributesAllocationsAndFrees) {
  if (!memaudit_enabled()) {
    GTEST_SKIP() << "memaudit hook not linked (sanitizer build)";
  }
  const MemCounters before = memaudit_scope(MemScopeId::kFleetTick);
  void* block = nullptr;
  MemCounters during;
  {
    MemScope scope(MemScopeId::kFleetTick);
    block = ::operator new(4096);
    during = memaudit_scope(MemScopeId::kFleetTick);
  }
  ::operator delete(block);
  const MemCounters after = memaudit_scope(MemScopeId::kFleetTick);
  EXPECT_EQ(during.allocs, before.allocs + 1);
  EXPECT_EQ(during.live_bytes, before.live_bytes + 4096);
  EXPECT_EQ(after.live_bytes, before.live_bytes);
  EXPECT_EQ(after.frees, before.frees + 1);
}

TEST(MemAuditTest, FreeOutsideTheScopeCreditsTheAllocatingScope) {
  if (!memaudit_enabled()) {
    GTEST_SKIP() << "memaudit hook not linked (sanitizer build)";
  }
  const MemCounters before = memaudit_scope(MemScopeId::kScenario);
  void* block = nullptr;
  {
    MemScope scope(MemScopeId::kScenario);
    block = ::operator new(512);
  }
  // Freed under kOther; the allocation header routes the credit back.
  ::operator delete(block);
  const MemCounters after = memaudit_scope(MemScopeId::kScenario);
  EXPECT_EQ(after.live_bytes, before.live_bytes);
  EXPECT_EQ(after.allocs, before.allocs + 1);
  EXPECT_EQ(after.frees, before.frees + 1);
}

TEST(MemAuditTest, OveralignedAllocationsRoundTrip) {
  if (!memaudit_enabled()) {
    GTEST_SKIP() << "memaudit hook not linked (sanitizer build)";
  }
  const MemCounters before = memaudit_scope(MemScopeId::kFleetWorld);
  void* block = nullptr;
  {
    MemScope scope(MemScopeId::kFleetWorld);
    block = ::operator new(256, std::align_val_t{128});
  }
  EXPECT_EQ(reinterpret_cast<std::uintptr_t>(block) % 128, 0u);
  ::operator delete(block, std::align_val_t{128});
  const MemCounters after = memaudit_scope(MemScopeId::kFleetWorld);
  EXPECT_EQ(after.live_bytes, before.live_bytes);
}

TEST(MemAuditTest, TotalsAndPeakTrackLiveBytes) {
  if (!memaudit_enabled()) {
    GTEST_SKIP() << "memaudit hook not linked (sanitizer build)";
  }
  const auto peak0 = memaudit_peak_live_bytes();
  const long long live0 = memaudit_live_bytes();
  void* block = ::operator new(1 << 16);
  EXPECT_GE(memaudit_live_bytes(), live0 + (1 << 16));
  const MemCounters total = memaudit_total();
  EXPECT_EQ(total.live_bytes, memaudit_live_bytes());
  ::operator delete(block);
  // Peak is a high-water mark: frees never lower it.
  EXPECT_GE(memaudit_peak_live_bytes(), peak0);
  EXPECT_GE(memaudit_peak_live_bytes(),
            static_cast<unsigned long long>(live0) + (1 << 16));
}

}  // namespace
}  // namespace spectra::obs
