// The spectra serve daemon: a single-threaded, non-blocking socket server.
//
// One poll() loop multiplexes the listening socket, every client
// connection, and the process shutdown pipe (util::shutdown_fd). Each
// connection owns a small state machine: a FrameReader accumulating
// partial reads, an OutBuffer drained on POLLOUT (partial writes resume
// where they left off), and at most one DecisionService session created
// by register_app. No thread is ever blocked on a slow client.
//
// The daemon protects itself from misbehaving peers:
//   * idle deadline — a connection that sends nothing for idle_timeout_s
//     is closed (a stalled reader cannot hold a slot forever);
//   * half-frame deadline — a frame whose header arrived but whose bytes
//     stall for frame_timeout_s is treated as a slowloris and closed;
//   * bounded outbuf — a consumer whose undelivered replies exceed
//     max_outbuf_bytes is disconnected instead of ballooning memory;
//   * overload shedding — sessions beyond max_sessions and connections
//     beyond max_connections are refused with a retryable in-band
//     kOverloaded error rather than silently dropped.
// Every shed, timeout, and forced close increments Stats and, when a
// record log is open, appends a lifecycle trace line.
//
// Sessions survive their connections: when a connection dies, its session
// is parked (at most 256, oldest evicted) and a later connection can re-attach
// with kResume, continuing at the same (sid, seq). Begin/end requests are
// idempotent on their seq key — a re-issued request whose reply was lost
// is answered from the per-session reply cache without re-executing —
// which is what makes client-side retry safe.
//
// Shutdown is cooperative and responsive from three directions:
//   * a kShutdown frame from any client (acknowledged, then drained),
//   * SIGINT/SIGTERM via the self-pipe (util::install_signal_handlers),
//   * request_stop() from a controlling thread (tests).
// All three end the loop the same way: stop accepting, flush pending
// replies briefly, close everything, and return — so sinks flush through
// normal unwind. Replies still undelivered when the drain window closes
// are counted into Stats (dropped_frames/dropped_bytes) and recorded.
//
// When `record_path` is set, every session registration, decision, and
// operation result is appended as a deterministic JSONL line in
// socket-arrival order (see serve/record.h for the canonical form) and
// flushed to the kernel line by line before the reply goes out, making the
// record a write-ahead log that survives kill -9 (not an OS crash: there
// is no fsync). A daemon killed outright restarts with `resume` set: bind()
// replays the log in-process (serve/replay.h) into parked sessions and
// refuses it unless the re-rendered record equals the logged one, then
// appends to it — byte-identical to a run that never crashed, because
// sessions are pure functions of (app, scenario, seed, request sequence).
#pragma once

#include <cstdint>
#include <memory>
#include <string>
#include <utility>

#include "core/decision_service.h"

namespace spectra::serve {

struct ServeConfig {
  std::string host = "127.0.0.1";
  std::uint16_t port = 0;       // 0 = ephemeral; bind() returns the choice
  std::string record_path;      // empty = no operation-trace record
  // Recover record_path before accepting traffic (its partial tail cut,
  // its sessions re-driven and parked) and keep appending to it.
  bool resume = false;
  std::size_t max_connections = 256;
  std::size_t max_sessions = 256;   // registered sessions on live connections
  double idle_timeout_s = 30.0;     // no bytes read for this long → close (0 = off)
  double frame_timeout_s = 5.0;     // half-read frame stalled → close (0 = off)
  std::size_t max_outbuf_bytes = 4u << 20;  // undelivered replies cap (0 = off)
  // Test hooks: cap bytes moved per syscall to force partial reads/writes
  // through the state machines (0 = unlimited).
  std::size_t max_read_chunk = 0;
  std::size_t max_write_chunk = 0;
};

class Server {
 public:
  Server(ServeConfig config, core::ServiceFactory factory);
  ~Server();

  Server(const Server&) = delete;
  Server& operator=(const Server&) = delete;

  // With `resume`, recover the record first; then create, bind, and listen
  // on the configured address. Returns the bound port (the kernel's pick
  // when config.port == 0). Throws util::ContractError on socket errors
  // and, before any socket exists, on a log that does not parse or does
  // not replay identically (naming its first differing canonical line).
  std::uint16_t bind();

  struct Stats {
    std::uint64_t connections = 0;  // total accepted
    std::uint64_t ops = 0;          // completed operations
    bool shutdown_frame = false;    // a client asked us to stop
    // Self-protection counters; each increment has a matching lifecycle
    // trace line when a record log is open.
    std::uint64_t sheds = 0;             // overload refusals (conn + session)
    std::uint64_t idle_timeouts = 0;     // closes for silence
    std::uint64_t frame_timeouts = 0;    // closes for a stalled half-frame
    std::uint64_t slow_consumer_closes = 0;  // closes for outbuf overflow
    std::uint64_t protocol_errors = 0;   // framing violations (conn dropped)
    // Shutdown-drain data loss (satellite: observable, not silent).
    std::uint64_t dropped_frames = 0;
    std::uint64_t dropped_bytes = 0;
    // Recovery counters.
    std::uint64_t parked = 0;            // sessions parked at disconnect
    std::uint64_t resumed = 0;           // kResume re-attachments served
    std::uint64_t replayed_cached = 0;   // idempotent replies from cache
    std::uint64_t wal_sessions = 0;      // sessions rebuilt from the WAL
    std::uint64_t wal_ops = 0;           // operations replayed from the WAL
    std::uint64_t wal_truncated_bytes = 0;  // partial tail cut from the WAL
  };

  // The poll loop; blocks until shutdown. bind() must have been called.
  Stats run();

  // Counters so far. Valid between bind() and run() (WAL recovery
  // counters) and after run() returns; not thread-safe against a
  // concurrently running loop.
  const Stats& stats() const;

  // Thread-safe: wake the loop and make it wind down (same path as a
  // kShutdown frame). Usable from another thread while run() is blocked.
  void request_stop();

 private:
  struct Impl;
  std::unique_ptr<Impl> impl_;
};

// Every Server::Stats counter with its report name, in report order: the
// daemon's shutdown ledger and --stats-json both print this list.
inline constexpr std::pair<const char*, std::uint64_t Server::Stats::*>
    kStatsCounters[] = {
        {"connections", &Server::Stats::connections},
        {"ops", &Server::Stats::ops},
        {"sheds", &Server::Stats::sheds},
        {"idle_timeouts", &Server::Stats::idle_timeouts},
        {"frame_timeouts", &Server::Stats::frame_timeouts},
        {"slow_consumer_closes", &Server::Stats::slow_consumer_closes},
        {"protocol_errors", &Server::Stats::protocol_errors},
        {"dropped_frames", &Server::Stats::dropped_frames},
        {"dropped_bytes", &Server::Stats::dropped_bytes},
        {"parked", &Server::Stats::parked},
        {"resumed", &Server::Stats::resumed},
        {"replayed_cached", &Server::Stats::replayed_cached},
        {"wal_sessions", &Server::Stats::wal_sessions},
        {"wal_ops", &Server::Stats::wal_ops},
        {"wal_truncated_bytes", &Server::Stats::wal_truncated_bytes},
};

}  // namespace spectra::serve
