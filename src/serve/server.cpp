#include "serve/server.h"

#include <arpa/inet.h>
#include <fcntl.h>
#include <netinet/in.h>
#include <poll.h>
#include <sys/socket.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <cerrno>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <cstring>
#include <deque>
#include <filesystem>
#include <list>
#include <map>
#include <vector>

#include "obs/trace.h"
#include "serve/outbuf.h"
#include "serve/protocol.h"
#include "serve/record.h"
#include "serve/replay.h"
#include "util/assert.h"
#include "util/shutdown.h"

namespace spectra::serve {
namespace {

using Clock = std::chrono::steady_clock;

void set_nonblocking(int fd) {
  const int flags = ::fcntl(fd, F_GETFL, 0);
  SPECTRA_REQUIRE(flags >= 0 && ::fcntl(fd, F_SETFL, flags | O_NONBLOCK) == 0,
                  "fcntl(O_NONBLOCK) failed: " +
                      std::string(std::strerror(errno)));
}

// One client connection's state machine.
struct Connection {
  int fd = -1;
  std::uint64_t sid = 0;
  bool greeted = false;
  bool closing = false;  // close once outbuf drains
  FrameReader reader;
  OutBuffer out;
  // The registered session (serve/replay.h), decoupled from the connection
  // so it can be parked across disconnects and resumed. Its last replies
  // make begin/end idempotent on their seq key: a re-issued request whose
  // reply was lost is answered from them without re-executing (and without
  // re-recording), so a retrying client can never double-run an op.
  std::unique_ptr<SessionState> state;
  Clock::time_point last_activity;      // last byte moved either direction
  Clock::time_point partial_since;      // when the pending half-frame began
  bool partial_pending = false;

  void enqueue(std::string bytes) { out.enqueue(std::move(bytes)); }
  bool drained() const { return out.drained(); }
};

// Refuses a begin or end whose seq is neither the cached one nor the next.
[[noreturn]] void bad_seq(const char* request, std::uint64_t seq,
                          std::uint64_t cached) {
  throw ServeError(ErrorCode::kBadSeq,
                   std::string(request) + " seq " + std::to_string(seq) +
                       " is neither cached (" + std::to_string(cached) +
                       ") nor next (" + std::to_string(cached + 1) + ")");
}

// Accepts past max_connections get an in-band kOverloaded refusal; only a
// flood this far past the limit is dropped without the courtesy reply.
constexpr std::size_t kShedHeadroom = 64;

// Disconnected sessions kept resumable; the oldest is evicted past this.
constexpr std::size_t kMaxParked = 256;

}  // namespace

struct Server::Impl {
  ServeConfig config;
  core::ServiceFactory factory;
  int listen_fd = -1;
  int wake_read = -1;   // request_stop() self-pipe
  int wake_write = -1;
  std::list<Connection> connections;
  // Sessions whose connection died, keyed by sid, resumable via kResume.
  std::map<std::uint64_t, SessionState> parked;
  std::deque<std::uint64_t> park_order;  // FIFO eviction past kMaxParked
  std::unique_ptr<obs::TraceSink> record;
  Stats stats;
  std::atomic<bool> stopping{false};  // request_stop() writes cross-thread
  std::uint64_t next_sid = 0;

  ~Impl() {
    for (Connection& c : connections) {
      if (c.fd >= 0) ::close(c.fd);
    }
    if (listen_fd >= 0) ::close(listen_fd);
    if (wake_read >= 0) ::close(wake_read);
    if (wake_write >= 0) ::close(wake_write);
  }

  // Append one line to the record and flush it to the kernel: the record
  // doubles as a write-ahead log, so a line must be written before the
  // reply that acknowledges it can reach the client. That survives kill -9
  // of the daemon, not a crash of the OS (there is no fsync).
  void append(const std::string& line) {
    if (!record) return;
    record->write_raw(line + "\n");
    record->flush();
  }
  void append(const obs::TraceEvent& event) {
    if (record) append(event.to_json());
  }

  // Add `n` to a Stats counter and append the lifecycle line that mirrors
  // it, so the two always reconcile.
  void lifecycle(std::uint64_t& counter, const obs::TraceEvent& event,
                 std::uint64_t n = 1) {
    counter += n;
    append(event);
  }

  std::size_t live_sessions() const {
    std::size_t n = 0;
    for (const Connection& c : connections) {
      if (c.state) ++n;
    }
    return n;
  }

  // Move a dying connection's session into the parked map so a later
  // kResume can re-attach it. Bounded: the oldest parked session is
  // evicted past kMaxParked (its history stays in the WAL, so a daemon
  // restarted with --resume can still reconstruct it).
  void park_session(Connection& c) {
    if (!c.state) return;
    const std::uint64_t sid = c.state->sid;
    parked.insert_or_assign(sid, std::move(*c.state));
    c.state.reset();
    park_order.push_back(sid);
    ++stats.parked;
    while (parked.size() > kMaxParked && !park_order.empty()) {
      const std::uint64_t victim = park_order.front();
      park_order.pop_front();
      auto it = parked.find(victim);
      if (it == parked.end()) continue;  // already resumed
      parked.erase(it);
      append(obs::TraceEvent("serve.close", 0.0)
                 .field("sid", static_cast<std::size_t>(victim))
                 .field("reason", "park_evicted"));
    }
  }

  // Count undelivered replies before the socket closes under this
  // connection; shutdown-drain and forced closes both go through here so
  // data loss is observable instead of silent.
  void account_drops(const Connection& c) {
    const std::size_t frames = c.out.pending_frames();
    if (frames == 0) return;
    const std::size_t bytes = c.out.pending_bytes();
    stats.dropped_bytes += bytes;
    lifecycle(stats.dropped_frames,
              obs::TraceEvent("serve.drop", 0.0)
                  .field("sid", static_cast<std::size_t>(c.sid))
                  .field("frames", frames)
                  .field("bytes", bytes),
              frames);
  }

  // Close and erase one connection, parking its session.
  std::list<Connection>::iterator destroy(
      std::list<Connection>::iterator it) {
    Connection& c = *it;
    account_drops(c);
    park_session(c);
    ::close(c.fd);
    return connections.erase(it);
  }

  void count_shed(std::uint64_t sid, const char* scope) {
    lifecycle(stats.sheds, obs::TraceEvent("serve.shed", 0.0)
                               .field("sid", static_cast<std::size_t>(sid))
                               .field("scope", scope));
  }

  // Dispatch one complete frame; replies are queued on the connection.
  // ProtocolError → error reply and connection teardown; ServeError →
  // coded error reply, connection stays usable; ContractError and other
  // std::exception → generic error reply, connection stays usable.
  void dispatch(Connection& c, const Frame& frame) {
    switch (frame.type) {
      case MsgType::kHello: {
        const HelloMsg m = decode_hello(frame.payload);
        if (m.version != kProtocolVersion) {
          throw ProtocolError("protocol version mismatch: daemon speaks " +
                              std::to_string(kProtocolVersion) + ", client " +
                              std::to_string(m.version));
        }
        c.greeted = true;
        HelloOkMsg ok;
        ok.session_id = c.sid;
        c.enqueue(encode_hello_ok(ok));
        return;
      }
      case MsgType::kRegisterApp: {
        const RegisterAppMsg m = decode_register_app(frame.payload);
        SPECTRA_REQUIRE(c.greeted, "register_app before hello");
        SPECTRA_REQUIRE(!c.state, "session already registered");
        if (live_sessions() >= config.max_sessions) {
          count_shed(c.sid, "sessions");
          throw ServeError(ErrorCode::kOverloaded,
                           "session limit reached (" +
                               std::to_string(config.max_sessions) +
                               "); retry later");
        }
        auto st = std::make_unique<SessionState>();
        st->sid = c.sid;
        st->service = factory(m.app, m.scenario, m.seed);
        const core::ServiceStatus status = st->service->status();
        append(render_session_line(c.sid, status.virtual_now, status));
        c.state = std::move(st);
        RegisterOkMsg ok;
        ok.op = status.op;
        c.enqueue(encode_register_ok(ok));
        return;
      }
      case MsgType::kResume: {
        const ResumeMsg m = decode_resume(frame.payload);
        SPECTRA_REQUIRE(c.greeted, "resume before hello");
        SPECTRA_REQUIRE(!c.state, "session already registered");
        auto it = parked.find(m.session_id);
        if (it != parked.end()) {
          c.state = std::make_unique<SessionState>(std::move(it->second));
          parked.erase(it);
        } else {
          // The previous connection may still look alive to us (the
          // client saw a failure we have not noticed yet). Steal the
          // session; the zombie connection drains and closes.
          for (Connection& other : connections) {
            if (&other != &c && other.state &&
                other.state->sid == m.session_id) {
              c.state = std::move(other.state);
              other.closing = true;
              break;
            }
          }
        }
        if (!c.state) {
          throw ServeError(ErrorCode::kUnknownSession,
                           "no session " + std::to_string(m.session_id) +
                               " to resume");
        }
        c.sid = c.state->sid;
        lifecycle(stats.resumed,
                  obs::TraceEvent("serve.resume", 0.0)
                      .field("sid", static_cast<std::size_t>(c.sid))
                      .field("seq_begun",
                             static_cast<std::size_t>(c.state->seq_begun))
                      .field("seq_completed", static_cast<std::size_t>(
                                                  c.state->seq_completed)));
        ResumeOkMsg ok;
        ok.op = c.state->service->status().op;
        ok.seq_begun = c.state->seq_begun;
        ok.seq_completed = c.state->seq_completed;
        c.enqueue(encode_resume_ok(ok));
        return;
      }
      case MsgType::kBeginOp: {
        const BeginOpMsg m = decode_begin_op(frame.payload);
        SPECTRA_REQUIRE(c.state, "begin_op before register_app");
        // Records have no NaN or infinity: refuse them before deciding.
        for (const auto& [name, value] : m.params) {
          SPECTRA_REQUIRE(std::isfinite(value),
                          "begin parameter " + name + " must be finite");
        }
        SessionState& st = *c.state;
        const std::uint64_t seq = m.seq == 0 ? st.seq_begun + 1 : m.seq;
        if (seq == st.seq_begun && seq > 0) {
          // Idempotent re-issue of the op we already began: answer from
          // the cache, do not re-execute or re-record.
          ++stats.replayed_cached;
          c.enqueue(encode_begin_ok(st.last_decision));
          return;
        }
        if (seq != st.seq_begun + 1) bad_seq("begin", seq, st.seq_begun);
        core::ServiceBeginRequest req;
        req.op = m.op;
        req.data_tag = m.data_tag;
        req.params = m.params;
        st.last_decision = st.service->begin_op(req);
        st.seq_begun = seq;
        // Record the request with the operation name resolved, so replay
        // renders the identical line from its own register_ok.
        core::ServiceBeginRequest recorded = req;
        if (recorded.op.empty()) recorded.op = st.service->status().op;
        append(render_begin_line(c.sid, seq, recorded, st.last_decision));
        c.enqueue(encode_begin_ok(st.last_decision));
        return;
      }
      case MsgType::kEndOp: {
        const std::uint64_t requested = decode_end_op(frame.payload);
        SPECTRA_REQUIRE(c.state, "end_op before register_app");
        SessionState& st = *c.state;
        const std::uint64_t seq = requested == 0 ? st.seq_begun : requested;
        if (seq == st.seq_completed && seq > 0) {
          ++stats.replayed_cached;
          c.enqueue(encode_end_ok(st.last_result));
          return;
        }
        if (seq != st.seq_completed + 1) bad_seq("end", seq, st.seq_completed);
        st.last_result = st.service->end_op();
        st.seq_completed = st.last_result.seq;
        append(render_end_line(c.sid, st.seq_completed, st.last_result));
        ++stats.ops;
        c.enqueue(encode_end_ok(st.last_result));
        return;
      }
      case MsgType::kStatus: {
        decode_empty(frame.payload, frame.type);
        StatusOkMsg ok;
        if (c.state) ok.session = c.state->service->status();
        ok.sessions_active = live_sessions();
        ok.ops_served = stats.ops;
        c.enqueue(encode_status_ok(ok));
        return;
      }
      case MsgType::kShutdown: {
        decode_empty(frame.payload, frame.type);
        stats.shutdown_frame = true;
        stopping = true;
        c.enqueue(encode_shutdown_ok());
        return;
      }
      default:
        // Response types arriving at the server are a protocol violation.
        throw ProtocolError(std::string("unexpected message: ") +
                            to_token(frame.type));
    }
  }

  // Returns false when the connection should be torn down immediately.
  bool on_readable(Connection& c) {
    char buf[65536];
    std::size_t cap = sizeof(buf);
    if (config.max_read_chunk > 0 && config.max_read_chunk < cap) {
      cap = config.max_read_chunk;
    }
    const ssize_t n = ::read(c.fd, buf, cap);
    if (n == 0) return false;  // orderly or abrupt disconnect
    if (n < 0) {
      return errno == EAGAIN || errno == EWOULDBLOCK || errno == EINTR;
    }
    c.last_activity = Clock::now();
    try {
      c.reader.feed(std::string_view(buf, static_cast<std::size_t>(n)));
      while (auto frame = c.reader.next()) {
        try {
          dispatch(c, *frame);
        } catch (const ProtocolError& e) {
          ++stats.protocol_errors;
          c.enqueue(encode_error(ErrorMsg{ErrorCode::kProtocol, e.what()}));
          c.closing = true;
          break;
        } catch (const ServeError& e) {
          c.enqueue(encode_error(ErrorMsg{e.code(), e.what()}));
        } catch (const std::exception& e) {
          c.enqueue(encode_error(ErrorMsg{ErrorCode::kGeneric, e.what()}));
        }
        if (c.closing || stopping) break;
      }
    } catch (const ProtocolError& e) {
      // Malformed framing: the byte stream is unrecoverable.
      ++stats.protocol_errors;
      c.enqueue(encode_error(ErrorMsg{ErrorCode::kProtocol, e.what()}));
      c.closing = true;
    }
    // Half-frame deadline bookkeeping: remember when the oldest byte of
    // an incomplete frame arrived.
    if (c.reader.pending_bytes() > 0) {
      if (!c.partial_pending) {
        c.partial_pending = true;
        c.partial_since = c.last_activity;
      }
    } else {
      c.partial_pending = false;
    }
    // A consumer that lets replies pile past the cap is disconnected:
    // unread replies are its own loss, unbounded memory would be ours.
    if (config.max_outbuf_bytes > 0 &&
        c.out.pending_bytes() > config.max_outbuf_bytes) {
      lifecycle(stats.slow_consumer_closes,
                obs::TraceEvent("serve.close", 0.0)
                    .field("sid", static_cast<std::size_t>(c.sid))
                    .field("reason", "slow_consumer")
                    .field("bytes", c.out.pending_bytes()));
      return false;
    }
    return true;
  }

  bool on_writable(Connection& c) {
    while (!c.out.drained()) {
      std::size_t len = c.out.pending_bytes();
      if (config.max_write_chunk > 0 && config.max_write_chunk < len) {
        len = config.max_write_chunk;
      }
      // MSG_NOSIGNAL: a client that vanished with unread data (RST) makes
      // this fail with EPIPE instead of raising SIGPIPE and killing the
      // whole daemon; the error path below tears the connection down.
      const ssize_t n = ::send(c.fd, c.out.data(), len, MSG_NOSIGNAL);
      if (n < 0) {
        return errno == EAGAIN || errno == EWOULDBLOCK || errno == EINTR;
      }
      if (n > 0) c.last_activity = Clock::now();
      c.out.advance(static_cast<std::size_t>(n));
      if (config.max_write_chunk > 0) break;  // one capped chunk per wakeup
    }
    if (c.out.drained() && c.closing) return false;
    return true;
  }

  void accept_new() {
    for (;;) {
      const int fd = ::accept(listen_fd, nullptr, nullptr);
      if (fd < 0) return;  // EAGAIN, or transient accept failure
      if (connections.size() >= config.max_connections) {
        if (connections.size() >= config.max_connections + kShedHeadroom) {
          // Far past the limit: drop without the courtesy error so a
          // flood cannot make us allocate per-victim state.
          ::close(fd);
          continue;
        }
        // Shed with an in-band retryable refusal instead of a silent
        // close, so well-behaved clients back off instead of guessing.
        set_nonblocking(fd);
        Connection c;
        c.fd = fd;
        c.closing = true;
        c.last_activity = Clock::now();
        c.enqueue(encode_error(
            ErrorMsg{ErrorCode::kOverloaded,
                     "connection limit reached (" +
                         std::to_string(config.max_connections) +
                         "); retry later"}));
        count_shed(0, "connections");
        connections.push_back(std::move(c));
        continue;
      }
      set_nonblocking(fd);
      Connection c;
      c.fd = fd;
      c.sid = ++next_sid;
      c.last_activity = Clock::now();
      connections.push_back(std::move(c));
      ++stats.connections;
    }
  }

  // Close connections that blew an idle or half-frame deadline.
  void sweep_deadlines() {
    if (config.idle_timeout_s <= 0.0 && config.frame_timeout_s <= 0.0) {
      return;
    }
    const Clock::time_point now = Clock::now();
    for (auto it = connections.begin(); it != connections.end();) {
      Connection& c = *it;
      const double idle_s =
          std::chrono::duration<double>(now - c.last_activity).count();
      const double partial_s =
          c.partial_pending
              ? std::chrono::duration<double>(now - c.partial_since).count()
              : 0.0;
      if (config.frame_timeout_s > 0.0 &&
          partial_s > config.frame_timeout_s) {
        lifecycle(stats.frame_timeouts,
                  obs::TraceEvent("serve.timeout", 0.0)
                      .field("sid", static_cast<std::size_t>(c.sid))
                      .field("kind", "frame")
                      .field("stalled_s", partial_s));
        it = destroy(it);
        continue;
      }
      if (config.idle_timeout_s > 0.0 && idle_s > config.idle_timeout_s) {
        lifecycle(stats.idle_timeouts,
                  obs::TraceEvent("serve.timeout", 0.0)
                      .field("sid", static_cast<std::size_t>(c.sid))
                      .field("kind", "idle")
                      .field("idle_s", idle_s));
        it = destroy(it);
        continue;
      }
      ++it;
    }
  }

  // Replay the write-ahead log in-process and park every session it
  // rebuilds: sessions are pure functions of (app, scenario, seed, request
  // sequence), so this is the pre-crash daemon's state, last replies
  // included. A log that does not re-render identically is refused.
  void recover() {
    std::string text = read_record(config.record_path);
    // A SIGKILL mid-line leaves a partial tail; once the intact prefix
    // checks out, cut it so appended lines glue onto a clean boundary.
    stats.wal_truncated_bytes = strip_partial_tail(text);
    const ReplayResult r =
        replay_in_process(text, factory, [this](SessionState&& st) {
          next_sid = std::max(next_sid, st.sid);
          park_order.push_back(st.sid);
          parked.insert_or_assign(st.sid, std::move(st));
        });
    SPECTRA_REQUIRE(r.identical,
                    "cannot resume " + config.record_path +
                        ": it does not replay identically (canonical line " +
                        std::to_string(r.mismatch_line) + ")\n  logged:   " +
                        r.expected_line + "\n  replayed: " + r.actual_line);
    if (stats.wal_truncated_bytes > 0) {
      std::filesystem::resize_file(config.record_path, text.size());
    }
    stats.wal_sessions = r.sessions;
    stats.wal_ops = r.ops;
  }
};

Server::Server(ServeConfig config, core::ServiceFactory factory)
    : impl_(std::make_unique<Impl>()) {
  impl_->config = std::move(config);
  impl_->factory = std::move(factory);
  int pipefd[2];
  SPECTRA_REQUIRE(::pipe(pipefd) == 0, "pipe() failed: " +
                                           std::string(std::strerror(errno)));
  impl_->wake_read = pipefd[0];
  impl_->wake_write = pipefd[1];
  set_nonblocking(impl_->wake_read);
  set_nonblocking(impl_->wake_write);
}

Server::~Server() = default;

std::uint16_t Server::bind() {
  Impl& s = *impl_;
  SPECTRA_REQUIRE(s.listen_fd < 0, "bind() called twice");
  if (s.config.resume) s.recover();
  s.listen_fd = ::socket(AF_INET, SOCK_STREAM, 0);
  SPECTRA_REQUIRE(s.listen_fd >= 0, "socket() failed: " +
                                        std::string(std::strerror(errno)));
  const int one = 1;
  ::setsockopt(s.listen_fd, SOL_SOCKET, SO_REUSEADDR, &one, sizeof(one));
  set_nonblocking(s.listen_fd);

  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(s.config.port);
  SPECTRA_REQUIRE(
      ::inet_pton(AF_INET, s.config.host.c_str(), &addr.sin_addr) == 1,
      "bad listen address: " + s.config.host);
  SPECTRA_REQUIRE(::bind(s.listen_fd, reinterpret_cast<sockaddr*>(&addr),
                         sizeof(addr)) == 0,
                  "bind(" + s.config.host + ":" +
                      std::to_string(s.config.port) +
                      ") failed: " + std::string(std::strerror(errno)));
  SPECTRA_REQUIRE(::listen(s.listen_fd, 128) == 0,
                  "listen() failed: " + std::string(std::strerror(errno)));

  socklen_t len = sizeof(addr);
  SPECTRA_REQUIRE(::getsockname(s.listen_fd,
                                reinterpret_cast<sockaddr*>(&addr), &len) == 0,
                  "getsockname() failed");
  if (!s.config.record_path.empty()) {
    // A resumed log is continued; a fresh one truncates.
    s.record = obs::TraceSink::open(s.config.record_path, s.config.resume);
  }
  if (s.config.resume) {
    s.append(
        obs::TraceEvent("serve.recovered", 0.0)
            .field("sessions", static_cast<std::size_t>(s.stats.wal_sessions))
            .field("ops", static_cast<std::size_t>(s.stats.wal_ops))
            .field("truncated_bytes",
                   static_cast<std::size_t>(s.stats.wal_truncated_bytes)));
  }
  return ntohs(addr.sin_port);
}

Server::Stats Server::run() {
  Impl& s = *impl_;
  SPECTRA_REQUIRE(s.listen_fd >= 0, "run() before bind()");

  // Once stopping, give pending replies a bounded number of flush rounds
  // instead of waiting on slow clients forever.
  int drain_rounds = 0;
  constexpr int kMaxDrainRounds = 20;  // x 50 ms poll timeout = ~1 s

  for (;;) {
    if (util::shutdown_requested()) s.stopping = true;
    if (s.stopping) {
      bool pending = false;
      for (const Connection& c : s.connections) {
        if (!c.drained()) pending = true;
      }
      if (!pending || ++drain_rounds > kMaxDrainRounds) break;
    } else {
      s.sweep_deadlines();
    }

    // A connection that finished draining after being marked closing (or
    // was marked with nothing pending, e.g. its session was stolen by a
    // resume) would otherwise poll no events and linger forever.
    for (auto it = s.connections.begin(); it != s.connections.end();) {
      if (it->closing && it->drained()) {
        it = s.destroy(it);
      } else {
        ++it;
      }
    }

    // The wake pipe, shutdown self-pipe, and listener matter only until a
    // stop is requested. Once stopping they stay out of the poll set: the
    // shutdown self-pipe is never drained (by contract — every poller must
    // see it), so polling it here would fire POLLIN forever and collapse
    // the 50 ms drain timeout to a busy spin.
    std::vector<pollfd> fds;
    fds.reserve(s.connections.size() + 3);
    std::size_t wake_idx = SIZE_MAX;
    std::size_t listen_idx = SIZE_MAX;
    if (!s.stopping) {
      wake_idx = fds.size();
      fds.push_back({s.wake_read, POLLIN, 0});
      const int shutdown_fd = util::shutdown_fd();
      if (shutdown_fd >= 0) fds.push_back({shutdown_fd, POLLIN, 0});
      listen_idx = fds.size();
      fds.push_back({s.listen_fd, POLLIN, 0});
    }
    const std::size_t first_conn = fds.size();
    for (const Connection& c : s.connections) {
      short events = 0;
      if (!s.stopping && !c.closing) events |= POLLIN;
      if (!c.drained()) events |= POLLOUT;
      fds.push_back({c.fd, events, 0});
    }

    int timeout_ms = s.stopping ? 50 : 500;
    // Deadline sweeps need the loop to tick while connections sit idle;
    // 50 ms granularity bounds how late a timeout can fire.
    if (!s.stopping && !s.connections.empty() &&
        (s.config.idle_timeout_s > 0.0 || s.config.frame_timeout_s > 0.0)) {
      timeout_ms = 50;
    }
    const int rc = ::poll(fds.data(), fds.size(), timeout_ms);
    if (rc < 0) {
      if (errno == EINTR) continue;
      SPECTRA_REQUIRE(false,
                      "poll() failed: " + std::string(std::strerror(errno)));
    }

    if (wake_idx != SIZE_MAX && (fds[wake_idx].revents & POLLIN)) {
      // Drain our own wake pipe (private to this server, unlike the
      // shutdown self-pipe) so stale bytes never re-wake a later poll.
      char buf[64];
      while (::read(s.wake_read, buf, sizeof(buf)) > 0) {
      }
    }
    if (listen_idx != SIZE_MAX && (fds[listen_idx].revents & POLLIN)) {
      s.accept_new();
    }

    // accept_new() may have appended connections that have no pollfd entry
    // this round; stop at fds.size() so they are not judged on garbage
    // revents (they get polled next iteration).
    std::size_t i = first_conn;
    for (auto it = s.connections.begin();
         it != s.connections.end() && i < fds.size(); ++i) {
      Connection& c = *it;
      const short rev = fds[i].revents;
      bool alive = true;
      if (rev & (POLLERR | POLLNVAL)) alive = false;
      if (alive && (rev & (POLLIN | POLLHUP))) alive = s.on_readable(c);
      if (alive && (rev & POLLOUT)) alive = s.on_writable(c);
      // A connection whose entire reply fit the socket buffer at enqueue
      // time never polls POLLOUT; try an eager flush instead of waiting.
      if (alive && !c.drained() && !(rev & POLLOUT)) {
        alive = s.on_writable(c);
      }
      if (!alive) {
        it = s.destroy(it);
      } else {
        ++it;
      }
    }
  }

  for (auto it = s.connections.begin(); it != s.connections.end();) {
    it = s.destroy(it);
  }
  ::close(s.listen_fd);
  s.listen_fd = -1;
  s.record.reset();  // flush the operation-trace record
  return s.stats;
}

const Server::Stats& Server::stats() const { return impl_->stats; }

void Server::request_stop() {
  impl_->stopping = true;
  const char byte = 1;
  [[maybe_unused]] ssize_t n = ::write(impl_->wake_write, &byte, 1);
}

}  // namespace spectra::serve
