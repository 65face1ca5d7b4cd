// serve_nullop: an in-process `spectra serve` daemon over the
// simulator-backed service factory, with its write-ahead log on disk, driven
// by two closed-loop BlockingClients (three busy threads in all).
//
// Each client runs fixed-length sessions: hello, register_app nullop, a
// fixed number of begin/end pairs, disconnect. A client's sessions all use
// one session seed, so every session must reproduce the client's first one
// exactly; that keeps the simulated metrics exact however many sessions fit.
#include <algorithm>
#include <cmath>
#include <cstdio>
#include <fstream>
#include <functional>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "harness.h"
#include "obs/trace.h"
#include "scenario/app_service.h"
#include "scenario/batch.h"
#include "serve/client.h"
#include "serve/protocol.h"
#include "serve/record.h"
#include "serve/replay.h"
#include "serve/server.h"
#include "util/rng.h"

namespace perfbench {
namespace {

using namespace spectra;  // NOLINT

constexpr int kClients = 2;
// Session length of the repository's own serve benchmark
// (scripts/bench.sh: `spectra loadgen --ops=32`), so session set-up and
// parking weigh in ops_per_s as they do in that traffic.
constexpr int kOpsPerSession = 32;
// Daemon + template-session builds before the timed phase; set-up reports
// their median. 1001 builds take ~0.4 s, long enough to span several of
// the host's sub-second speed swings; a batch of ~40 ms samples one instant
// of them. (Builds after the phase run ~20% slower on the heap the phase
// leaves behind, so mixing them would put the median between two clusters.)
constexpr int kSetupReps = 1001;
// Client throughput and latency are taken per block of a fixed number of
// begin/end pairs after a one-second warm-up, and reported over blocks by
// quiet_rate/quiet_time. 1000 is the least that puts ten samples beyond a
// block's p99 (as decide's rounds); a client completes ~11 blocks a second.
constexpr double kWarmupS = 1.0;
constexpr std::size_t kBlockOps = 1000;
// Traced phases only: in-process ops through the daemon's layers, and
// session clones timed one by one.
constexpr int kProbeOps = 2000;
constexpr int kProbeSessions = 50;

struct OpRecord {
  core::ServiceDecision decision;
  core::ServiceOpResult result;
};

bool same(const OpRecord& a, const OpRecord& b) {
  const core::ServiceDecision& x = a.decision;
  const core::ServiceDecision& y = b.decision;
  return x.ok == y.ok && x.from_model == y.from_model && x.plan == y.plan &&
         x.placement == y.placement && x.fidelity == y.fidelity &&
         x.predicted_time_s == y.predicted_time_s &&
         x.predicted_energy_j == y.predicted_energy_j &&
         x.log_utility == y.log_utility && x.t == y.t &&
         a.result.ok == b.result.ok && a.result.seq == b.result.seq &&
         a.result.time_s == b.result.time_s &&
         a.result.energy_j == b.result.energy_j && a.result.t == b.result.t;
}

struct ClientRun {
  std::uint64_t seed = 1;
  std::uint64_t first_sid = 0;
  std::vector<OpRecord> reference;  // the first session
  // Per block of kBlockOps pairs completed after the warm-up: its wall
  // time (session set-ups included) and the p50 and p99 of its begin round
  // trips. Summarized as each block closes, so the benchmark's own memory
  // (which peak_rss_mb sees) does not grow with the op count.
  std::vector<double> block_s;
  std::vector<double> block_p50;
  std::vector<double> block_p99;
  std::uint64_t completed = 0;
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  std::vector<std::string> problems;
  SpanLog spans;
};

void drive(int index, std::uint16_t port, Clock::time_point warm,
           Clock::time_point deadline, bool trace, ClientRun& run) {
  std::uint64_t op_id = static_cast<std::uint64_t>(index) << 40;
  std::vector<double> block_us;  // begin round trips of the open block
  block_us.reserve(kBlockOps);
  Clock::time_point block_start = warm;
  for (int session = 0; Clock::now() < deadline; ++session) {
    int done = 0;
    run.attempted += kOpsPerSession;
    try {
      serve::BlockingClient client("127.0.0.1", port);
      const serve::HelloOkMsg hello =
          client.hello("perfbench-" + std::to_string(index));
      if (session == 0) run.first_sid = hello.session_id;
      client.register_app("nullop", "baseline", run.seed);
      for (; done < kOpsPerSession; ++done, ++op_id) {
        const auto t0 = Clock::now();
        const core::ServiceDecision d = client.begin_op(serve::BeginOpMsg{});
        const auto t1 = Clock::now();
        const core::ServiceOpResult r = client.end_op();
        const auto t2 = Clock::now();
        ++run.completed;
        if (t2 >= warm) {
          block_us.push_back(micros_between(t0, t1));
          if (block_us.size() == kBlockOps) {
            run.block_s.push_back(seconds_between(block_start, t2));
            run.block_p50.push_back(util::percentile_value(block_us, 50.0));
            run.block_p99.push_back(util::percentile_value(block_us, 99.0));
            block_us.clear();
            block_start = t2;
          }
        }
        if (trace) {
          const SpanLog::Id op =
              run.spans.add("serve.op", op_id, SpanLog::kRoot, t0, t2);
          run.spans.add("serve.begin_rtt", op_id, op, t0, t1);
          run.spans.add("serve.end_rtt", op_id, op, t1, t2);
        }
        const OpRecord rec{d, r};
        if (session == 0) run.reference.push_back(rec);
        if (!d.ok || !r.ok || !std::isfinite(r.time_s) || r.time_s <= 0.0 ||
            !std::isfinite(r.energy_j) || r.energy_j <= 0.0) {
          ++run.failed;
          if (run.problems.size() < 4) run.problems.push_back("bad reply");
        } else if (!same(rec, run.reference[static_cast<std::size_t>(done)])) {
          ++run.failed;
          if (run.problems.size() < 4) {
            run.problems.push_back("client " + std::to_string(index) +
                                   " session " + std::to_string(session) +
                                   " op " + std::to_string(done) +
                                   " differs from its first session");
          }
        }
      }
      client.close();
    } catch (const std::exception& e) {
      run.failed += static_cast<std::uint64_t>(kOpsPerSession - done);
      run.problems.push_back("client " + std::to_string(index) + ": " +
                             e.what());
      break;
    }
  }
}

// The record lines of session `sid`, read from the head of the log until
// the session's last end line.
std::string session_lines(const std::string& wal, std::uint64_t sid) {
  std::ifstream in(wal);
  const std::string key = "\"sid\":" + std::to_string(sid) + ",";
  std::string line;
  std::string out;
  int ends = 0;
  while (ends < kOpsPerSession && std::getline(in, line)) {
    if (line.find(key) == std::string::npos) continue;
    out += line + "\n";
    if (line.find("\"type\":\"serve.end\"") != std::string::npos) ++ends;
  }
  return out;
}

struct LayerProbe {
  std::vector<double> codec_us, codec_begin_us, service_begin_us,
      service_end_us, record_us, record_begin_us, session_setup_us;
};

// Runs the daemon's per-op layers in-process: frame codec, the
// DecisionService session, and record rendering plus a flushed write.
LayerProbe probe_layers(const core::ServiceFactory& factory,
                        std::uint64_t seed, const std::string& record_path,
                        SpanLog& spans, PhaseResult& out) {
  LayerProbe p;
  for (int i = 0; i < kProbeSessions; ++i) {
    const auto s0 = Clock::now();
    auto session = factory("nullop", "baseline", seed);
    const auto s1 = Clock::now();
    spans.add("scenario.session_setup", static_cast<std::uint64_t>(i),
              SpanLog::kRoot, s0, s1);
    p.session_setup_us.push_back(micros_between(s0, s1));
  }
  auto session = factory("nullop", "baseline", seed);
  auto sink = obs::TraceSink::open(record_path);
  serve::FrameReader reader;
  auto through = [&reader](const std::string& frame) {
    reader.feed(frame);
    return reader.next().value().payload;
  };
  const std::uint64_t sid = 1;
  for (std::uint64_t seq = 1; seq <= kProbeOps; ++seq) {
    const auto c0 = Clock::now();
    const serve::BeginOpMsg m =
        serve::decode_begin_op(through(serve::encode_begin_op({})));
    const auto c1 = Clock::now();
    core::ServiceBeginRequest req;
    req.op = m.op;
    req.data_tag = m.data_tag;
    req.params = m.params;
    const core::ServiceDecision d = session->begin_op(req);
    const auto c2 = Clock::now();
    core::ServiceBeginRequest recorded = req;
    if (recorded.op.empty()) recorded.op = session->status().op;
    sink->write_raw(serve::render_begin_line(sid, seq, recorded, d) + "\n");
    sink->flush();
    const auto c3 = Clock::now();
    const core::ServiceDecision d2 =
        serve::decode_begin_ok(through(serve::encode_begin_ok(d)));
    const auto c4 = Clock::now();
    serve::decode_end_op(through(serve::encode_end_op(0)));
    const auto c5 = Clock::now();
    const core::ServiceOpResult r = session->end_op();
    const auto c6 = Clock::now();
    sink->write_raw(serve::render_end_line(sid, r.seq, r) + "\n");
    sink->flush();
    const auto c7 = Clock::now();
    const core::ServiceOpResult r2 =
        serve::decode_end_ok(through(serve::encode_end_ok(r)));
    const auto c8 = Clock::now();

    const SpanLog::Id op =
        spans.add("serve.probe_op", seq, SpanLog::kRoot, c0, c8);
    spans.add("serve.codec", seq, op, c0, c1);
    spans.add("core.service_begin", seq, op, c1, c2);
    spans.add("serve.record", seq, op, c2, c3);
    spans.add("serve.codec", seq, op, c3, c5);
    spans.add("core.service_end", seq, op, c5, c6);
    spans.add("serve.record", seq, op, c6, c7);
    spans.add("serve.codec", seq, op, c7, c8);
    const double codec_begin = micros_between(c0, c1) + micros_between(c3, c4);
    p.codec_begin_us.push_back(codec_begin);
    p.codec_us.push_back(codec_begin + micros_between(c4, c5) +
                         micros_between(c7, c8));
    p.service_begin_us.push_back(micros_between(c1, c2));
    p.service_end_us.push_back(micros_between(c5, c6));
    p.record_begin_us.push_back(micros_between(c2, c3));
    p.record_us.push_back(micros_between(c2, c3) + micros_between(c6, c7));
    ++out.attempted;
    if (!d.ok || !r.ok || d2.plan != d.plan || r2.seq != r.seq) {
      out.fail(1, "in-process probe op " + std::to_string(seq) + " failed");
    }
  }
  return p;
}

}  // namespace

PhaseResult run_serve(const Options& options, double seconds,
                      SpanLog* trace) {
  PhaseResult out;
  const core::ServiceFactory factory = scenario::app_service_factory();
  std::vector<ClientRun> clients(kClients);
  util::Rng rng(options.seed);
  for (ClientRun& c : clients) {
    c.seed = static_cast<std::uint64_t>(rng.uniform_int(1, 1'000'000));
  }

  serve::ServeConfig config;
  config.record_path = options.out_dir + "/serve_wal.jsonl";
  std::vector<double> setup_s;
  std::unique_ptr<serve::Server> server;
  std::uint16_t port = 0;
  auto set_up = [&] {
    server.reset();
    scenario::TrainedWorldCache::instance().clear();
    const auto s0 = Clock::now();
    server = std::make_unique<serve::Server>(config, factory);
    port = server->bind();
    for (const ClientRun& c : clients) factory("nullop", "baseline", c.seed);
    const auto s1 = Clock::now();
    setup_s.push_back(seconds_between(s0, s1));
    if (trace != nullptr) {
      trace->add("serve.setup", setup_s.size(), SpanLog::kRoot, s0, s1);
    }
  };
  {
    CpuRotation rotation;  // restored before the daemon and clients start
    for (int rep = 0; rep < kSetupReps; ++rep) {
      rotation.pin(static_cast<std::size_t>(rep));
      set_up();
    }
  }

  serve::Server::Stats stats;
  std::string daemon_error;
  std::thread daemon([&] {
    try {
      stats = server->run();
    } catch (const std::exception& e) {
      daemon_error = e.what();
    }
  });
  const auto seconds_from_now = [](double s) {
    return Clock::now() + std::chrono::duration_cast<Clock::duration>(
                              std::chrono::duration<double>(s));
  };
  const auto warm = seconds_from_now(kWarmupS);
  const auto deadline = seconds_from_now(kWarmupS + seconds);
  {
    std::vector<std::thread> threads;
    for (int i = 0; i < kClients; ++i) {
      threads.emplace_back(drive, i, port, warm, deadline, trace != nullptr,
                           std::ref(clients[static_cast<std::size_t>(i)]));
    }
    for (std::thread& t : threads) t.join();
  }
  server->request_stop();
  daemon.join();
  server.reset();

  std::uint64_t completed = 0;
  std::vector<double> p50, p99;
  std::size_t blocks = clients[0].block_s.size();
  for (ClientRun& c : clients) {
    out.attempted += c.attempted;
    out.failed += c.failed;
    for (std::string& p : c.problems) out.problems.push_back(std::move(p));
    completed += c.completed;
    blocks = std::min(blocks, c.block_s.size());
    p50.insert(p50.end(), c.block_p50.begin(), c.block_p50.end());
    p99.insert(p99.end(), c.block_p99.begin(), c.block_p99.end());
    if (trace != nullptr) trace->merge(c.spans);
  }
  // The clients run side by side at one pace, so their i-th blocks span
  // nearly the same time: together they ran at the sum of their rates.
  std::vector<double> rate(blocks, 0.0);
  for (const ClientRun& c : clients) {
    for (std::size_t b = 0; b < blocks; ++b) {
      rate[b] += kBlockOps / c.block_s[b];
    }
  }
  const std::size_t samples = p50.size() * kBlockOps;

  if (!daemon_error.empty()) out.fail(completed, "daemon: " + daemon_error);
  if (stats.ops != completed) {
    out.fail(completed > stats.ops ? completed - stats.ops
                                   : stats.ops - completed,
             "daemon counted " + std::to_string(stats.ops) + " ops, clients " +
                 std::to_string(completed));
  }
  if (stats.sheds != 0 || stats.protocol_errors != 0) {
    out.fail(completed, "daemon shed " + std::to_string(stats.sheds) +
                            " and saw " +
                            std::to_string(stats.protocol_errors) +
                            " protocol errors");
  }
  // Replay the first session of client 0 from the log, in-process.
  const std::string one = options.out_dir + "/serve_replay_session.jsonl";
  {
    std::ofstream(one, std::ios::trunc)
        << session_lines(config.record_path, clients[0].first_sid);
  }
  const serve::ReplayResult replay = serve::run_replay({one}, factory);
  if (!replay.identical || replay.sessions != 1 ||
      replay.ops != static_cast<std::uint64_t>(kOpsPerSession)) {
    out.fail(kOpsPerSession, "replay of session " +
                                 std::to_string(clients[0].first_sid) +
                                 " diverged at line " +
                                 std::to_string(replay.mismatch_line));
  }
  std::remove(one.c_str());
  std::remove(config.record_path.c_str());

  out.setup_s = {median(setup_s), setup_s.size(),
                 "median of daemon bind + template session builds"};
  const std::string of_blocks = std::to_string(kBlockOps) + "-pair blocks";
  out.ops_per_s = {quiet_rate(rate), blocks,
                   "begin/end pairs per second, both clients' i-th blocks "
                   "summed, 95th percentile over " +
                       std::to_string(blocks) + " pairs of " + of_blocks};
  const std::string per_block = "per client block, 5th percentile over " +
                                std::to_string(p50.size()) + " " + of_blocks;
  out.p50_us = {quiet_time(p50), samples,
                "begin_op round trip, p50 " + per_block};
  out.p99_us = {quiet_time(p99), samples,
                "begin_op round trip, p99 " + per_block};
  std::vector<double> time_s, energy_j;
  for (const ClientRun& c : clients) {
    for (const OpRecord& r : c.reference) {
      time_s.push_back(r.result.time_s);
      energy_j.push_back(r.result.energy_j);
    }
  }
  const std::string exact =
      "mean over each client's first session (every session equal)";
  out.sim_op_s = {util::mean_of(time_s), time_s.size(), exact};
  out.sim_energy_j = {util::mean_of(energy_j), energy_j.size(), exact};

  if (trace != nullptr) {
    const std::string record = options.out_dir + "/serve_probe_record.jsonl";
    const LayerProbe p =
        probe_layers(factory, clients[0].seed, record, *trace, out);
    std::remove(record.c_str());
    const double rtt = median(trace->durations_us("serve.begin_rtt"));
    const double in_process = median(p.codec_begin_us) +
                              median(p.service_begin_us) +
                              median(p.record_begin_us);
    const std::string per_op = "median per in-process op";
    auto count = [](const char* name, std::uint64_t v) {
      return Metric{name, "count",
                    {static_cast<double>(v), 1, "Server::Stats"}};
    };
    out.layers = {
        median_metric("serve.codec_us", "us", p.codec_us,
                      "encode, FrameReader feed/next, decode of one op's four "
                      "messages, " + per_op),
        median_metric("core.service_begin_us", "us", p.service_begin_us,
                      "DecisionService::begin_op, " + per_op),
        median_metric("core.service_end_us", "us", p.service_end_us,
                      "DecisionService::end_op, " + per_op),
        median_metric("serve.record_us", "us", p.record_us,
                      "render begin+end lines, write and flush, " + per_op),
        median_metric("scenario.session_setup_us", "us", p.session_setup_us,
                      "one ServiceFactory call (template clone), median"),
        {"serve.loop_us", "us",
         {rtt - in_process, samples,
          "begin round trip p50 - (codec + service begin + record) of the "
          "begin half"}},
        count("serve.daemon.connections", stats.connections),
        count("serve.daemon.ops", stats.ops),
        count("serve.daemon.parked", stats.parked),
        count("serve.daemon.sheds", stats.sheds),
        count("serve.daemon.protocol_errors", stats.protocol_errors),
    };
  }
  return out;
}

}  // namespace perfbench
