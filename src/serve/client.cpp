#include "serve/client.h"

#include <arpa/inet.h>
#include <netinet/in.h>
#include <sys/socket.h>
#include <unistd.h>

#include <cerrno>
#include <chrono>
#include <cstring>
#include <thread>

#include "util/assert.h"

namespace spectra::serve {

namespace {

rpc::ErrorKind classify_connect_errno(int err) {
  switch (err) {
    case ECONNREFUSED:
      return rpc::ErrorKind::kServerDown;
    case ENETUNREACH:
    case EHOSTUNREACH:
      return rpc::ErrorKind::kUnreachable;
    case ETIMEDOUT:
      return rpc::ErrorKind::kTimeout;
    default:
      return rpc::ErrorKind::kUnreachable;
  }
}

}  // namespace

BlockingClient::BlockingClient(const std::string& host, std::uint16_t port) {
  fd_ = ::socket(AF_INET, SOCK_STREAM, 0);
  SPECTRA_REQUIRE(fd_ >= 0,
                  "socket() failed: " + std::string(std::strerror(errno)));
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(port);
  SPECTRA_REQUIRE(::inet_pton(AF_INET, host.c_str(), &addr.sin_addr) == 1,
                  "bad address: " + host);
  if (::connect(fd_, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) != 0) {
    const int err = errno;
    ::close(fd_);
    fd_ = -1;
    throw TransportError(classify_connect_errno(err),
                         "connect(" + host + ":" + std::to_string(port) +
                             ") failed: " + std::strerror(err));
  }
}

BlockingClient::~BlockingClient() { close(); }

void BlockingClient::close() {
  if (fd_ >= 0) {
    ::close(fd_);
    fd_ = -1;
  }
}

void BlockingClient::close_with_rst() {
  if (fd_ < 0) return;
  linger lg{};
  lg.l_onoff = 1;
  lg.l_linger = 0;
  ::setsockopt(fd_, SOL_SOCKET, SO_LINGER, &lg, sizeof(lg));
  ::close(fd_);
  fd_ = -1;
}

void BlockingClient::send_raw(std::string_view bytes) {
  SPECTRA_REQUIRE(fd_ >= 0, "client is closed");
  std::size_t off = 0;
  while (off < bytes.size()) {
    // MSG_NOSIGNAL: a daemon that died mid-session surfaces as EPIPE (a
    // TransportError below), not a process-killing SIGPIPE in loadgen/replay.
    const ssize_t n =
        ::send(fd_, bytes.data() + off, bytes.size() - off, MSG_NOSIGNAL);
    if (n < 0) {
      if (errno == EINTR) continue;
      throw TransportError(rpc::ErrorKind::kLinkLost,
                           "write() failed: " +
                               std::string(std::strerror(errno)));
    }
    off += static_cast<std::size_t>(n);
  }
}

Frame BlockingClient::read_frame() {
  SPECTRA_REQUIRE(fd_ >= 0, "client is closed");
  for (;;) {
    if (auto frame = reader_.next()) return *frame;
    char buf[65536];
    const ssize_t n = ::read(fd_, buf, sizeof(buf));
    if (n < 0) {
      if (errno == EINTR) continue;
      throw TransportError(rpc::ErrorKind::kLinkLost,
                           "read() failed: " +
                               std::string(std::strerror(errno)));
    }
    if (n == 0) {
      throw TransportError(rpc::ErrorKind::kLinkLost,
                           "daemon closed the connection mid-reply");
    }
    reader_.feed(std::string_view(buf, static_cast<std::size_t>(n)));
  }
}

Frame BlockingClient::call(const std::string& frame_bytes, MsgType expect,
                           const SendHook& send) {
  if (send) {
    send(*this, frame_bytes);
  } else {
    send_raw(frame_bytes);
  }
  const Frame reply = read_frame();
  if (reply.type == MsgType::kError) {
    const ErrorMsg e = decode_error(reply.payload);
    throw ServerError(e.code, e.message);
  }
  if (reply.type != expect) {
    throw ProtocolError(std::string("expected ") + to_token(expect) +
                        ", daemon sent " + to_token(reply.type));
  }
  return reply;
}

HelloOkMsg BlockingClient::hello(const std::string& client_name) {
  HelloMsg m;
  m.client_name = client_name;
  const Frame reply = call(encode_hello(m), MsgType::kHelloOk);
  return decode_hello_ok(reply.payload);
}

RegisterOkMsg BlockingClient::register_app(const std::string& app,
                                           const std::string& scenario,
                                           std::uint64_t seed) {
  RegisterAppMsg m;
  m.app = app;
  m.scenario = scenario;
  m.seed = seed;
  const Frame reply = call(encode_register_app(m), MsgType::kRegisterOk);
  return decode_register_ok(reply.payload);
}

core::ServiceDecision BlockingClient::begin_op(const BeginOpMsg& msg,
                                               const SendHook& send) {
  const Frame reply = call(encode_begin_op(msg), MsgType::kBeginOk, send);
  return decode_begin_ok(reply.payload);
}

core::ServiceOpResult BlockingClient::end_op(std::uint64_t seq,
                                             const SendHook& send) {
  const Frame reply = call(encode_end_op(seq), MsgType::kEndOk, send);
  return decode_end_ok(reply.payload);
}

ResumeOkMsg BlockingClient::resume(std::uint64_t session_id) {
  ResumeMsg m;
  m.session_id = session_id;
  const Frame reply = call(encode_resume(m), MsgType::kResumeOk);
  return decode_resume_ok(reply.payload);
}

StatusOkMsg BlockingClient::status() {
  const Frame reply = call(encode_status(), MsgType::kStatusOk);
  return decode_status_ok(reply.payload);
}

void BlockingClient::shutdown_server() {
  const Frame reply = call(encode_shutdown(), MsgType::kShutdownOk);
  decode_empty(reply.payload, reply.type);
}

// ---- ResilientClient -----------------------------------------------------

ResilientClient::ResilientClient(ResilientConfig config)
    : config_(std::move(config)), jitter_(config_.seed) {}

void ResilientClient::close() { client_.reset(); }

void ResilientClient::backoff(int attempt) {
  ++stats_.retries;
  const double delay =
      config_.retry.backoff_delay(attempt, jitter_.uniform());
  std::this_thread::sleep_for(std::chrono::duration<double>(delay));
}

template <typename Fn>
auto ResilientClient::with_retry(Fn&& fn) -> decltype(fn()) {
  for (int attempt = 1;; ++attempt) {
    try {
      if (attempt > 1) ++stats_.reissues;
      return fn();
    } catch (const TransportError&) {
      // The connection is gone; reconnect + resume on the next attempt.
      client_.reset();
      if (attempt >= config_.retry.max_attempts) throw;
    } catch (const ServerError& e) {
      if (e.code() == ErrorCode::kProtocol ||
          e.code() == ErrorCode::kShuttingDown) {
        // The daemon is about to drop this connection.
        client_.reset();
      } else if (!retryable(e.code())) {
        throw;
      }
      if (attempt >= config_.retry.max_attempts) throw;
    } catch (const ProtocolError&) {
      // Reply-stream desync (unexpected type): the frames are unreliable;
      // reconnect and lean on idempotent re-issue.
      client_.reset();
      if (attempt >= config_.retry.max_attempts) throw;
    }
    backoff(attempt);
  }
}

void ResilientClient::ensure_session() {
  if (client_) return;
  client_.emplace(config_.host, config_.port);
  ++stats_.connects;
  if (stats_.connects > 1) ++stats_.reconnects;
  const HelloOkMsg h = client_->hello(config_.client_name);
  const std::uint64_t fresh_sid = h.session_id;
  if (sid_ != 0) {
    // We had (or may have had) a session under sid_; try to re-attach.
    // The server finds it parked, on a zombie connection, or rebuilt from
    // its write-ahead log after a restart.
    try {
      const ResumeOkMsg r = client_->resume(sid_);
      registered_ = true;
      op_ = r.op;
      ++stats_.resumes;
      return;
    } catch (const ServerError& e) {
      if (e.code() != ErrorCode::kUnknownSession || registered_) throw;
      // Registration was sent but never acknowledged and the server has
      // no trace of it — it never executed. Start fresh below.
      sid_ = 0;
    }
  }
  sid_ = fresh_sid;
  if (!app_.empty()) {
    const RegisterOkMsg ok =
        client_->register_app(app_, scenario_, app_seed_);
    registered_ = true;
    op_ = ok.op;
  }
}

RegisterOkMsg ResilientClient::register_app(const std::string& app,
                                            const std::string& scenario,
                                            std::uint64_t seed) {
  SPECTRA_REQUIRE(app_.empty() || app_ == app,
                  "one session registers one app");
  app_ = app;
  scenario_ = scenario;
  app_seed_ = seed;
  return with_retry([&] {
    ensure_session();
    RegisterOkMsg ok;
    ok.op = op_;
    return ok;
  });
}

core::ServiceDecision ResilientClient::begin_op(BeginOpMsg msg) {
  SPECTRA_REQUIRE(registered_ || !app_.empty(),
                  "begin_op before register_app");
  // Claim the seq up front: every re-issue of this logical op carries the
  // same key, so the server can answer a duplicate from its cache.
  const std::uint64_t seq = seq_begun_ + 1;
  msg.seq = seq;
  return with_retry([&] {
    ensure_session();
    const core::ServiceDecision d = client_->begin_op(msg, send_hook_);
    seq_begun_ = seq;
    return d;
  });
}

core::ServiceOpResult ResilientClient::end_op() {
  SPECTRA_REQUIRE(seq_begun_ > seq_completed_, "end_op without a begun op");
  const std::uint64_t seq = seq_begun_;
  return with_retry([&] {
    ensure_session();
    const core::ServiceOpResult r = client_->end_op(seq, send_hook_);
    seq_completed_ = seq;
    return r;
  });
}

}  // namespace spectra::serve
