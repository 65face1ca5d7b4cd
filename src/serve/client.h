// A small blocking client for the serve daemon's wire protocol.
//
// Used by `spectra replay`, the serve tests and, under ResilientClient,
// `spectra loadgen`. One request in flight at a time: call() writes a frame
// (looping over partial writes, or through a caller's send hook) and reads
// until the matching reply frame arrives.
//
// Failures surface as a two-level taxonomy mirroring rpc::ErrorKind:
//   * TransportError — the connection itself failed (connect refused,
//     reset, EOF mid-reply). Carries the rpc::ErrorKind classification;
//     derives from util::ContractError for compatibility with callers
//     that treat any client failure as fatal.
//   * ServerError — the daemon answered kError. Carries the wire
//     ErrorCode so callers can tell retryable refusals (overload,
//     shutdown) from fatal ones; derives from ProtocolError.
//
// ResilientClient wraps BlockingClient with reconnect + capped
// exponential backoff (seeded jitter) and idempotent re-issue keyed by
// (sid, seq): after any transport failure it reconnects, re-attaches its
// session with kResume (sessions survive on the server parked or
// WAL-replayed), and re-sends the request with the same seq — the server
// answers re-issues from its reply cache, so an op is never run twice.
// This is what lets loadgen ride out a daemon kill/restart mid-run, and it
// is loadgen's only client: with no send hook, its sends are clean.
#pragma once

#include <cstdint>
#include <functional>
#include <optional>
#include <string>
#include <string_view>

#include "core/decision_service.h"
#include "rpc/retry.h"
#include "serve/protocol.h"
#include "util/assert.h"
#include "util/rng.h"

namespace spectra::serve {

// The connection failed; `kind` classifies how (kServerDown = connect
// refused, kLinkLost = reset/EOF mid-stream, kUnreachable = no route).
class TransportError : public util::ContractError {
 public:
  TransportError(rpc::ErrorKind kind, const std::string& what)
      : util::ContractError(what), kind_(kind) {}
  rpc::ErrorKind kind() const { return kind_; }

 private:
  rpc::ErrorKind kind_;
};

// The daemon answered kError with `code`.
class ServerError : public ProtocolError {
 public:
  ServerError(ErrorCode code, const std::string& what)
      : ProtocolError(what), code_(code) {}
  ErrorCode code() const { return code_; }

 private:
  ErrorCode code_;
};

class BlockingClient {
 public:
  // Sends one encoded frame on the client in place of send_raw; wire chaos
  // uses it to mangle begin/end frames. It may throw TransportError to
  // simulate a failed send.
  using SendHook = std::function<void(BlockingClient&, const std::string&)>;

  // Connect to host:port; throws TransportError on failure.
  BlockingClient(const std::string& host, std::uint16_t port);
  ~BlockingClient();

  BlockingClient(const BlockingClient&) = delete;
  BlockingClient& operator=(const BlockingClient&) = delete;

  HelloOkMsg hello(const std::string& client_name);
  RegisterOkMsg register_app(const std::string& app,
                             const std::string& scenario, std::uint64_t seed);
  core::ServiceDecision begin_op(const BeginOpMsg& msg,
                                 const SendHook& send = {});
  // `seq` = 0 ends the pending op; a nonzero seq is the idempotency key.
  core::ServiceOpResult end_op(std::uint64_t seq = 0,
                               const SendHook& send = {});
  ResumeOkMsg resume(std::uint64_t session_id);
  StatusOkMsg status();
  // Ask the daemon to stop; waits for the acknowledgement.
  void shutdown_server();

  // Raw access for protocol tests: send arbitrary bytes, read one frame.
  void send_raw(std::string_view bytes);
  Frame read_frame();

  void close();
  // Abort: close with SO_LINGER 0 so the peer sees RST, not FIN. Used by
  // the wire chaos injector to simulate clients that vanish rudely.
  void close_with_rst();
  int fd() const { return fd_; }

 private:
  // Send one request (through `send` when set) and read its reply; throws
  // ServerError on kError, ProtocolError on any other unexpected type.
  Frame call(const std::string& frame_bytes, MsgType expect,
             const SendHook& send = {});

  int fd_ = -1;
  FrameReader reader_;
};

// ---- self-healing client -------------------------------------------------

struct ResilientConfig {
  std::string host = "127.0.0.1";
  std::uint16_t port = 0;
  std::string client_name = "resilient";
  // Reconnect/backoff schedule; defaults tuned for a daemon restart
  // taking up to a few seconds.
  rpc::RetryPolicy retry{.max_attempts = 10,
                         .timeout = 0.0,
                         .backoff_initial = 0.05,
                         .backoff_multiplier = 2.0,
                         .backoff_max = 1.0,
                         .jitter = 0.2};
  std::uint64_t seed = 1;  // jitter stream
};

struct ResilientStats {
  std::uint64_t connects = 0;    // successful TCP connects
  std::uint64_t reconnects = 0;  // connects after the first
  std::uint64_t resumes = 0;     // sessions re-attached via kResume
  std::uint64_t reissues = 0;    // requests re-sent with a prior seq
  std::uint64_t retries = 0;     // backoff waits taken
};

class ResilientClient {
 public:
  explicit ResilientClient(ResilientConfig config);

  // Mirror of the BlockingClient session API; each call retries through
  // reconnect/resume/re-issue until it succeeds or the retry budget is
  // exhausted (the last error is rethrown).
  RegisterOkMsg register_app(const std::string& app,
                             const std::string& scenario, std::uint64_t seed);
  core::ServiceDecision begin_op(BeginOpMsg msg);
  core::ServiceOpResult end_op();

  const ResilientStats& stats() const { return stats_; }

  // Sends begin/end frames in place of a clean send (loadgen --chaos).
  void set_send_hook(BlockingClient::SendHook hook) {
    send_hook_ = std::move(hook);
  }

  void close();

 private:
  // Connect + hello + (resume | re-register) until the session is live.
  void ensure_session();
  void backoff(int attempt);
  template <typename Fn>
  auto with_retry(Fn&& fn) -> decltype(fn());

  ResilientConfig config_;
  std::optional<BlockingClient> client_;
  std::uint64_t sid_ = 0;         // sticky across reconnects once known
  bool registered_ = false;       // a register_ok or resume_ok was seen
  std::string app_, scenario_;    // for re-register when resume misses
  std::string op_;                // the session's registered operation
  std::uint64_t app_seed_ = 1;
  std::uint64_t seq_begun_ = 0;     // client-side idempotency keys
  std::uint64_t seq_completed_ = 0;
  util::Rng jitter_;
  ResilientStats stats_;
  BlockingClient::SendHook send_hook_;
};

}  // namespace spectra::serve
