#include "serve/loadgen.h"

#include <algorithm>
#include <atomic>
#include <chrono>
#include <memory>
#include <mutex>
#include <string_view>
#include <thread>
#include <vector>

#include "fault/wire_chaos.h"
#include "serve/client.h"
#include "util/stats.h"

namespace spectra::serve {
namespace {

void sleep_s(double s) {
  std::this_thread::sleep_for(std::chrono::duration<double>(s));
}

// Apply one wire fault to an outgoing frame. Mirrors the taxonomy in
// fault/wire_chaos.h; every branch either delivers the frame (possibly
// mangled in shape but not content), delivers garbage the server must
// reject at the framing layer, or kills the connection — the resilient
// retry loop is responsible for making the operation happen anyway.
void chaos_send(BlockingClient& client, const std::string& bytes,
                const fault::WireAction& action) {
  using fault::WireFaultKind;
  switch (action.kind) {
    case WireFaultKind::kNone:
      client.send_raw(bytes);
      return;
    case WireFaultKind::kDelay:
      sleep_s(action.delay_s);
      client.send_raw(bytes);
      return;
    case WireFaultKind::kSplit: {
      const std::size_t chunk = std::max<std::size_t>(1, action.split_chunk);
      for (std::size_t off = 0; off < bytes.size(); off += chunk) {
        client.send_raw(
            std::string_view(bytes).substr(off, chunk));
      }
      return;
    }
    case WireFaultKind::kStall: {
      // Slowloris: half a frame, then silence. A server with a half-frame
      // deadline closes us mid-stall; one without eventually gets the rest.
      const std::size_t half = std::max<std::size_t>(1, bytes.size() / 2);
      client.send_raw(std::string_view(bytes).substr(0, half));
      sleep_s(action.stall_s);
      client.send_raw(std::string_view(bytes).substr(half));
      return;
    }
    case WireFaultKind::kCorrupt: {
      // Header-only corruption: a length beyond kMaxPayload is invalid in
      // every protocol version, so the server must answer with a framing
      // error and drop us — it can never decode this into a real request.
      std::string bad = bytes;
      bad[0] = static_cast<char>(0xFF);
      bad[1] = static_cast<char>(0xFF);
      bad[2] = static_cast<char>(0xFF);
      bad[3] = static_cast<char>(0xFF);
      client.send_raw(bad);
      return;
    }
    case WireFaultKind::kRst: {
      // Vanish rudely mid-frame: the server sees ECONNRESET.
      client.send_raw(
          std::string_view(bytes).substr(0, std::max<std::size_t>(
                                                1, bytes.size() / 2)));
      client.close_with_rst();
      throw TransportError(rpc::ErrorKind::kLinkLost,
                           "chaos: injected connection abort");
    }
  }
}

}  // namespace

LoadgenStats run_loadgen(const LoadgenConfig& config) {
  using Clock = std::chrono::steady_clock;

  fault::WireFaultPlan plan(
      config.chaos_seed != 0 ? config.chaos_seed : config.seed);
  if (config.chaos_intensity > 0.0) plan.scale_rate(config.chaos_intensity);

  std::vector<std::vector<double>> latencies(config.clients);
  std::vector<ResilientStats> recovery(config.clients);
  std::atomic<std::uint64_t> ops{0};
  std::atomic<std::uint64_t> errors{0};
  std::atomic<std::uint64_t> faults{0};
  std::mutex error_mu;
  std::string first_error;

  const auto t0 = Clock::now();
  std::vector<std::thread> threads;
  threads.reserve(config.clients);
  for (std::size_t i = 0; i < config.clients; ++i) {
    threads.emplace_back([&, i] {
      try {
        latencies[i].reserve(config.ops_per_client);
        ResilientConfig rc;
        rc.host = config.host;
        rc.port = config.port;
        rc.client_name = "loadgen-" + std::to_string(i);
        rc.seed = config.seed + i;
        ResilientClient client(rc);
        if (config.chaos_intensity > 0.0) {
          // Chaos applies to begin/end frames (registration stays clean so
          // every run registers exactly the same session set).
          auto request_no = std::make_shared<std::uint64_t>(0);
          client.set_send_hook(
              [&plan, &faults, i, request_no](BlockingClient& c,
                                              const std::string& bytes) {
                const fault::WireAction a = plan.action(i, (*request_no)++);
                if (a.kind != fault::WireFaultKind::kNone) {
                  faults.fetch_add(1, std::memory_order_relaxed);
                }
                chaos_send(c, bytes, a);
              });
        }
        client.register_app(config.app, config.scenario, config.seed);
        for (std::size_t k = 0; k < config.ops_per_client; ++k) {
          const auto start = Clock::now();
          client.begin_op(BeginOpMsg{});
          client.end_op();
          const auto end = Clock::now();
          latencies[i].push_back(
              std::chrono::duration<double, std::milli>(end - start).count());
          ops.fetch_add(1, std::memory_order_relaxed);
        }
        recovery[i] = client.stats();
        client.close();
      } catch (const std::exception& e) {
        errors.fetch_add(1, std::memory_order_relaxed);
        const std::lock_guard<std::mutex> lock(error_mu);
        if (first_error.empty()) first_error = e.what();
      }
    });
  }
  for (std::thread& t : threads) t.join();
  const double wall =
      std::chrono::duration<double>(Clock::now() - t0).count();

  std::vector<double> all;
  for (const auto& v : latencies) all.insert(all.end(), v.begin(), v.end());

  LoadgenStats stats;
  stats.ops = ops.load();
  stats.errors = errors.load();
  stats.first_error = first_error;
  stats.wall_s = wall;
  stats.rps = wall > 0 ? static_cast<double>(stats.ops) / wall : 0.0;
  if (!all.empty()) {
    stats.p50_ms = util::percentile_value(all, 50.0);
    stats.p99_ms = util::percentile_value(all, 99.0);
  }
  stats.faults_injected = faults.load();
  for (const ResilientStats& r : recovery) {
    stats.reconnects += r.reconnects;
    stats.resumes += r.resumes;
    stats.reissues += r.reissues;
    stats.retries += r.retries;
  }
  return stats;
}

}  // namespace spectra::serve
