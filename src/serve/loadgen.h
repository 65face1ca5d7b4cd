// Loopback load generator for the serve daemon.
//
// `spectra loadgen --clients N` opens N concurrent connections, each
// running hello → register_app → (begin/end)×ops, and reports throughput
// and per-operation latency percentiles. All clients share one (app,
// scenario, seed), so the daemon trains a single template world and every
// session is a clone — the measurement exercises the socket loop and
// decision path, not world training.
//
// Every client is a ResilientClient, so a run survives a daemon
// kill/restart mid-run by reconnecting, resuming its session, and
// re-issuing idempotently. With `chaos_intensity > 0` (loadgen --chaos)
// each client also mangles its own begin/end frames through a seeded
// fault::WireFaultPlan — delays, fragmented sends, slowloris stalls,
// header corruption, RST aborts — and must still finish every operation
// exactly once; without it, its sends are clean.
//
// Latency here is wall-clock (it measures the daemon), so it belongs in
// BENCH output and never in traces or goldens.
#pragma once

#include <cstdint>
#include <string>

namespace spectra::serve {

struct LoadgenConfig {
  std::string host = "127.0.0.1";
  std::uint16_t port = 0;
  std::size_t clients = 8;
  std::size_t ops_per_client = 16;
  std::string app = "nullop";
  std::string scenario;  // empty = the app's baseline
  std::uint64_t seed = 1;
  // Wire chaos: 0 = off; otherwise scales WireFaultConfig's base
  // fault_rate (1.0 = the default 25% per-request rate).
  double chaos_intensity = 0.0;
  std::uint64_t chaos_seed = 0;  // 0 = derive from `seed`
};

struct LoadgenStats {
  std::uint64_t ops = 0;     // completed begin/end pairs
  std::uint64_t errors = 0;  // failed clients (connect or protocol errors)
  std::string first_error;   // diagnostic from the first failed client
  double wall_s = 0.0;
  double rps = 0.0;     // ops per wall-clock second
  double p50_ms = 0.0;  // per-op (begin+end round trips) latency
  double p99_ms = 0.0;
  // Recovery counters, summed over clients.
  std::uint64_t faults_injected = 0;
  std::uint64_t reconnects = 0;
  std::uint64_t resumes = 0;
  std::uint64_t reissues = 0;
  std::uint64_t retries = 0;
};

LoadgenStats run_loadgen(const LoadgenConfig& config);

}  // namespace spectra::serve
