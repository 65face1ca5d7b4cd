// Serve daemon suite: wire protocol, operation-trace records, and the
// non-blocking socket server end to end over loopback.
//
// The protocol tests feed the incremental FrameReader one byte at a time
// and throw malformed frames at every decoder. The server tests run the
// real poll loop on a background thread against BlockingClient sessions:
// partial reads/writes (via the byte-capped test hooks), 64-way concurrent
// clients, abrupt disconnects, in-band errors, and all three shutdown
// paths. The golden tests record scripted sessions and lock their
// canonical bytes against tests/golden/serve_record.jsonl.golden (nullop)
// and tests/golden/serve_apps_record.jsonl.golden (one session per
// simulated app), then replay each golden and assert byte-identical
// decisions. The write-ahead-log tests cut a recorded run at every line
// boundary (and once inside a line), resume each cut and finish the run,
// and require the record of an uninterrupted run; a corrupted digit must
// make resume refuse the log.
//
// Regenerate the golden (a reviewed event, never an accident) with
//   SPECTRA_UPDATE_GOLDEN=1 ./build/tests/serve_test
#include <gtest/gtest.h>

#include <sys/socket.h>

#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <limits>
#include <memory>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "fault/wire_chaos.h"
#include "scenario/app_service.h"
#include "serve/client.h"
#include "serve/loadgen.h"
#include "serve/outbuf.h"
#include "serve/protocol.h"
#include "serve/record.h"
#include "serve/replay.h"
#include "serve/server.h"
#include "util/assert.h"
#include "util/rng.h"
#include "util/shutdown.h"

namespace spectra::serve {
namespace {

#ifndef SPECTRA_GOLDEN_DIR
#error "SPECTRA_GOLDEN_DIR must be defined by the build"
#endif

// ---- protocol: framing ---------------------------------------------------

TEST(FrameReaderTest, ByteAtATimeYieldsIdenticalFrames) {
  HelloMsg hello;
  hello.client_name = "one-byte-at-a-time";
  BeginOpMsg begin;
  begin.op = "null.op";
  begin.data_tag = "small";
  begin.params = {{"utt_len", 2.5}, {"words", 10.0}};
  const std::string stream = encode_hello(hello) + encode_begin_op(begin) +
                             encode_status() + encode_end_op();

  FrameReader reader;
  std::vector<Frame> frames;
  for (char byte : stream) {
    reader.feed(std::string_view(&byte, 1));
    while (auto f = reader.next()) frames.push_back(std::move(*f));
  }
  ASSERT_EQ(frames.size(), 4u);
  EXPECT_EQ(reader.pending_bytes(), 0u);

  EXPECT_EQ(frames[0].type, MsgType::kHello);
  const HelloMsg h = decode_hello(frames[0].payload);
  EXPECT_EQ(h.client_name, "one-byte-at-a-time");
  EXPECT_EQ(h.version, kProtocolVersion);

  EXPECT_EQ(frames[1].type, MsgType::kBeginOp);
  const BeginOpMsg b = decode_begin_op(frames[1].payload);
  EXPECT_EQ(b.op, "null.op");
  EXPECT_EQ(b.data_tag, "small");
  EXPECT_EQ(b.params, begin.params);

  EXPECT_EQ(frames[2].type, MsgType::kStatus);
  EXPECT_EQ(frames[3].type, MsgType::kEndOp);
}

TEST(FrameReaderTest, OversizedPayloadLengthRejectedAtHeaderTime) {
  // Header only: length kMaxPayload+1, type kHello. The reader must throw
  // as soon as the 5 header bytes are in — before any payload arrives.
  const std::uint32_t len = kMaxPayload + 1;
  std::string header;
  for (int i = 0; i < 4; ++i) {
    header.push_back(static_cast<char>((len >> (8 * i)) & 0xFF));
  }
  header.push_back(static_cast<char>(MsgType::kHello));

  FrameReader reader;
  reader.feed(header.substr(0, 4));  // incomplete header: fine
  EXPECT_FALSE(reader.next().has_value());
  EXPECT_THROW(reader.feed(header.substr(4)), ProtocolError);
}

TEST(FrameReaderTest, UnknownTypeByteRejected) {
  std::string header(4, '\0');  // zero-length payload
  header.push_back(static_cast<char>(0x42));
  FrameReader reader;
  EXPECT_THROW(reader.feed(header), ProtocolError);
}

TEST(FrameReaderTest, PartialFrameStaysPending) {
  const std::string frame = encode_status();
  FrameReader reader;
  reader.feed(std::string_view(frame).substr(0, frame.size() - 1));
  EXPECT_FALSE(reader.next().has_value());
  EXPECT_EQ(reader.pending_bytes(), frame.size() - 1);
}

// ---- protocol: payload decoding ------------------------------------------

TEST(PayloadTest, TruncatedPayloadRejected) {
  const std::string good = encode_hello(HelloMsg{kProtocolVersion, "x"});
  // Strip the frame header, then truncate the payload.
  const std::string payload = good.substr(kFrameHeader);
  EXPECT_THROW(decode_hello(payload.substr(0, payload.size() - 1)),
               ProtocolError);
}

TEST(PayloadTest, TrailingBytesRejected) {
  const std::string payload =
      encode_hello(HelloMsg{kProtocolVersion, "x"}).substr(kFrameHeader);
  EXPECT_THROW(decode_hello(payload + "extra"), ProtocolError);
}

TEST(PayloadTest, OversizedStringRejected) {
  PayloadWriter w;
  w.put_u32(kProtocolVersion);
  w.put_u32(kMaxString + 1);  // string length prefix over the cap
  EXPECT_THROW(decode_hello(w.str()), ProtocolError);
}

TEST(PayloadTest, MapCountOverflowRejected) {
  // A count far larger than the remaining bytes could hold.
  PayloadWriter w;
  w.put_u32(0xFFFFFFFFu);
  PayloadReader r(w.str());
  EXPECT_THROW(r.get_map(), ProtocolError);
}

TEST(PayloadTest, NonEmptyPayloadForEmptyMessageRejected) {
  EXPECT_THROW(decode_empty("x", MsgType::kEndOp), ProtocolError);
}

TEST(PayloadTest, DecisionAndResultRoundTrip) {
  core::ServiceDecision d;
  d.ok = true;
  d.from_model = true;
  d.plan = "remote";
  d.placement = "s2";
  d.fidelity = {{"level", 1.0}, {"zoom", 0.25}};
  d.predicted_time_s = 0.125;
  d.predicted_energy_j = 3.5;
  d.log_utility = -1.75;
  d.t = 42.5;
  const core::ServiceDecision d2 =
      decode_begin_ok(encode_begin_ok(d).substr(kFrameHeader));
  EXPECT_EQ(d2.ok, d.ok);
  EXPECT_EQ(d2.from_model, d.from_model);
  EXPECT_EQ(d2.plan, d.plan);
  EXPECT_EQ(d2.placement, d.placement);
  EXPECT_EQ(d2.fidelity, d.fidelity);
  EXPECT_DOUBLE_EQ(d2.predicted_time_s, d.predicted_time_s);
  EXPECT_DOUBLE_EQ(d2.predicted_energy_j, d.predicted_energy_j);
  EXPECT_DOUBLE_EQ(d2.log_utility, d.log_utility);
  EXPECT_DOUBLE_EQ(d2.t, d.t);

  core::ServiceOpResult r;
  r.ok = true;
  r.seq = 7;
  r.time_s = 0.5;
  r.energy_j = 1.25;
  r.t = 43.0;
  const core::ServiceOpResult r2 =
      decode_end_ok(encode_end_ok(r).substr(kFrameHeader));
  EXPECT_EQ(r2.seq, r.seq);
  EXPECT_DOUBLE_EQ(r2.time_s, r.time_s);
  EXPECT_DOUBLE_EQ(r2.energy_j, r.energy_j);
  EXPECT_DOUBLE_EQ(r2.t, r.t);
}

// ---- records -------------------------------------------------------------

core::ServiceStatus fake_status(std::uint64_t seed) {
  core::ServiceStatus st;
  st.app = "nullop";
  st.scenario = "baseline";
  st.seed = seed;
  st.op = "null.op";
  return st;
}

core::ServiceDecision fake_decision(double t) {
  core::ServiceDecision d;
  d.ok = true;
  d.from_model = true;
  d.plan = "local";
  d.placement = "local";
  d.fidelity = {{"level", 1.0}};
  d.predicted_time_s = 0.001;
  d.predicted_energy_j = 0.01;
  d.log_utility = 1.5;
  d.t = t;
  return d;
}

core::ServiceOpResult fake_result(std::uint64_t seq, double t) {
  core::ServiceOpResult r;
  r.ok = true;
  r.seq = seq;
  r.time_s = 0.002;
  r.energy_j = 0.02;
  r.t = t;
  return r;
}

TEST(RecordTest, CanonicalFormIsInterleavingInvariant) {
  core::ServiceBeginRequest req;
  req.op = "null.op";
  req.params = {{"x", 1.5}};

  const std::string s1 = render_session_line(1, 8.0, fake_status(1));
  const std::string b11 = render_begin_line(1, 1, req, fake_decision(8.1));
  const std::string e11 = render_end_line(1, 1, fake_result(1, 8.2));
  const std::string s2 = render_session_line(2, 8.0, fake_status(2));
  const std::string b21 = render_begin_line(2, 1, req, fake_decision(8.3));
  const std::string e21 = render_end_line(2, 1, fake_result(1, 8.4));

  auto join = [](std::initializer_list<std::string> lines) {
    std::string out;
    for (const auto& l : lines) out += l + "\n";
    return out;
  };
  const std::string ordered = join({s1, b11, e11, s2, b21, e21});
  const std::string interleaved = join({s1, s2, b11, b21, e21, e11});
  EXPECT_EQ(canonicalize_record(ordered), canonicalize_record(interleaved));
  EXPECT_EQ(canonicalize_record(ordered), ordered);  // already canonical
}

TEST(RecordTest, ParseRecoversSessionsAndRequests) {
  core::ServiceBeginRequest req;
  req.op = "null.op";
  req.data_tag = "small";
  req.params = {{"utt_len", 2.5}};
  const std::string text =
      render_session_line(3, 8.0, fake_status(9)) + "\n" +
      render_begin_line(3, 1, req, fake_decision(8.1)) + "\n" +
      render_end_line(3, 1, fake_result(1, 8.2)) + "\n" +
      render_begin_line(3, 2, req, fake_decision(8.3)) + "\n";

  const auto sessions = parse_record(text);
  ASSERT_EQ(sessions.size(), 1u);
  const ReplaySession& s = sessions[0];
  EXPECT_EQ(s.sid, 3u);
  EXPECT_EQ(s.app, "nullop");
  EXPECT_EQ(s.scenario, "baseline");
  EXPECT_EQ(s.seed, 9u);
  EXPECT_EQ(s.op, "null.op");
  ASSERT_EQ(s.ops.size(), 2u);
  EXPECT_EQ(s.ops[0].seq, 1u);
  EXPECT_TRUE(s.ops[0].has_end);
  EXPECT_EQ(s.ops[0].request.data_tag, "small");
  EXPECT_EQ(s.ops[0].request.params, req.params);
  EXPECT_EQ(s.ops[1].seq, 2u);
  EXPECT_FALSE(s.ops[1].has_end);  // truncated record: no end line
}

TEST(RecordTest, MalformedLineRejected) {
  EXPECT_THROW(canonicalize_record("{\"type\":\"bogus\"}\n"),
               util::ContractError);
  EXPECT_THROW(parse_record("not json at all\n"), util::ContractError);
}

// ---- the server over loopback --------------------------------------------

class ServerFixture {
 public:
  explicit ServerFixture(ServeConfig config = {}) {
    server_ = std::make_unique<Server>(std::move(config),
                                       scenario::app_service_factory());
    port_ = server_->bind();
    thread_ = std::thread([this] { stats_ = server_->run(); });
  }

  ~ServerFixture() { stop(); }

  std::uint16_t port() const { return port_; }
  Server& server() { return *server_; }

  Server::Stats stop() {
    if (thread_.joinable()) {
      server_->request_stop();
      thread_.join();
    }
    return stats_;
  }

 private:
  std::unique_ptr<Server> server_;
  std::uint16_t port_ = 0;
  std::thread thread_;
  Server::Stats stats_;
};

TEST(ServerTest, ServesASessionEndToEnd) {
  ServerFixture fx;
  BlockingClient client("127.0.0.1", fx.port());
  const HelloOkMsg hello = client.hello("serve-test");
  EXPECT_EQ(hello.version, kProtocolVersion);
  EXPECT_GE(hello.session_id, 1u);

  const RegisterOkMsg reg = client.register_app("nullop", "baseline", 1);
  EXPECT_EQ(reg.op, "null.op");

  for (int i = 1; i <= 3; ++i) {
    const core::ServiceDecision d = client.begin_op(BeginOpMsg{});
    EXPECT_TRUE(d.ok);
    EXPECT_TRUE(d.plan == "local" || d.plan == "remote");
    const core::ServiceOpResult r = client.end_op();
    EXPECT_TRUE(r.ok);
    EXPECT_EQ(r.seq, static_cast<std::uint64_t>(i));
    EXPECT_GT(r.time_s, 0.0);
  }

  const StatusOkMsg st = client.status();
  EXPECT_EQ(st.session.app, "nullop");
  EXPECT_EQ(st.session.ops_completed, 3u);
  EXPECT_EQ(st.sessions_active, 1u);
  EXPECT_EQ(st.ops_served, 3u);

  const Server::Stats stats = fx.stop();
  EXPECT_EQ(stats.connections, 1u);
  EXPECT_EQ(stats.ops, 3u);
  EXPECT_FALSE(stats.shutdown_frame);
}

TEST(ServerTest, PartialReadsAndWritesAreReassembled) {
  ServeConfig cfg;
  cfg.max_read_chunk = 1;   // the poll loop sees one byte per wakeup
  cfg.max_write_chunk = 1;  // and dribbles replies out one byte at a time
  ServerFixture fx(std::move(cfg));
  BlockingClient client("127.0.0.1", fx.port());
  client.hello("dribble");
  EXPECT_EQ(client.register_app("nullop", "baseline", 1).op, "null.op");
  const core::ServiceDecision d = client.begin_op(BeginOpMsg{});
  EXPECT_TRUE(d.ok);
  EXPECT_TRUE(client.end_op().ok);
}

TEST(ServerTest, SixtyFourConcurrentClients) {
  ServerFixture fx;
  LoadgenConfig cfg;
  cfg.port = fx.port();
  cfg.clients = 64;
  cfg.ops_per_client = 2;
  const LoadgenStats stats = run_loadgen(cfg);
  EXPECT_EQ(stats.errors, 0u) << stats.first_error;
  EXPECT_EQ(stats.ops, 128u);
  const Server::Stats server_stats = fx.stop();
  EXPECT_EQ(server_stats.connections, 64u);
  EXPECT_EQ(server_stats.ops, 128u);
}

TEST(ServerTest, AbruptDisconnectDoesNotKillTheServer) {
  ServerFixture fx;
  {
    // Half a frame, then vanish.
    BlockingClient rude("127.0.0.1", fx.port());
    const std::string frame = encode_hello(HelloMsg{kProtocolVersion, "rude"});
    rude.send_raw(std::string_view(frame).substr(0, 3));
    rude.close();
  }
  {
    // A session mid-operation, then vanish.
    BlockingClient rude("127.0.0.1", fx.port());
    rude.hello("rude2");
    rude.register_app("nullop", "baseline", 1);
    rude.begin_op(BeginOpMsg{});
    rude.close();
  }
  BlockingClient polite("127.0.0.1", fx.port());
  polite.hello("polite");
  EXPECT_EQ(polite.register_app("nullop", "baseline", 1).op, "null.op");
  EXPECT_TRUE(polite.begin_op(BeginOpMsg{}).ok);
  EXPECT_TRUE(polite.end_op().ok);
}

TEST(ServerTest, RstDisconnectDuringReplyDoesNotKillTheServer) {
  // SIGPIPE regression: a client that resets the connection (SO_LINGER 0 →
  // RST on close) with replies still unread makes the daemon's next write
  // hit a dead socket. Without MSG_NOSIGNAL that raises SIGPIPE, whose
  // default action would kill this whole test process, server included.
  ServerFixture fx;
  for (int round = 0; round < 8; ++round) {
    BlockingClient rude("127.0.0.1", fx.port());
    rude.hello("rst");
    rude.register_app("nullop", "baseline", 1);
    std::string burst;
    for (int i = 0; i < 4; ++i) {
      burst += encode_begin_op(BeginOpMsg{});
      burst += encode_end_op();
    }
    rude.send_raw(burst);
    const struct linger lg = {1, 0};
    ::setsockopt(rude.fd(), SOL_SOCKET, SO_LINGER, &lg, sizeof(lg));
    rude.close();
  }
  // The daemon survived every reset and still serves politely.
  BlockingClient polite("127.0.0.1", fx.port());
  polite.hello("polite");
  EXPECT_EQ(polite.register_app("nullop", "baseline", 1).op, "null.op");
  EXPECT_TRUE(polite.begin_op(BeginOpMsg{}).ok);
  EXPECT_TRUE(polite.end_op().ok);
}

TEST(ServerTest, MalformedFrameGetsErrorReplyAndClose) {
  ServerFixture fx;
  BlockingClient client("127.0.0.1", fx.port());
  // A header announcing a 2 MiB payload: framing violation.
  const std::uint32_t len = kMaxPayload + 1;
  std::string header;
  for (int i = 0; i < 4; ++i) {
    header.push_back(static_cast<char>((len >> (8 * i)) & 0xFF));
  }
  header.push_back(static_cast<char>(MsgType::kHello));
  client.send_raw(header);
  const Frame reply = client.read_frame();
  EXPECT_EQ(reply.type, MsgType::kError);
  // The daemon then drops the connection...
  EXPECT_THROW(client.read_frame(), util::ContractError);
  client.close();
  // ...but keeps serving everyone else.
  BlockingClient next("127.0.0.1", fx.port());
  EXPECT_EQ(next.hello("next").version, kProtocolVersion);
}

TEST(ServerTest, InBandErrorKeepsConnectionUsable) {
  ServerFixture fx;
  BlockingClient client("127.0.0.1", fx.port());
  client.hello("err");
  // Unknown app: an in-band error (kError reply), not a framing violation.
  EXPECT_THROW(client.register_app("no-such-app", "", 1), ProtocolError);
  // Same connection still works.
  EXPECT_EQ(client.register_app("nullop", "baseline", 1).op, "null.op");
  EXPECT_TRUE(client.begin_op(BeginOpMsg{}).ok);
  EXPECT_TRUE(client.end_op().ok);
}

// Overhead servers take machine ids 1..N and the file server is id 9, so
// "<N>srv" fits 1-8 servers; 9 and up is an in-band range error. 2^64 + 1
// servers would wrap to 1 in unchecked arithmetic.
TEST(ServerTest, NullopServerCountIsRangeChecked) {
  ServerFixture fx;
  BlockingClient client("127.0.0.1", fx.port());
  client.hello("range");
  for (const std::string scenario : {"9srv", "18446744073709551617srv"}) {
    try {
      client.register_app("nullop", scenario, 1);
      ADD_FAILURE() << scenario << " was accepted";
    } catch (const ServerError& e) {
      const std::string what = e.what();
      EXPECT_EQ(e.code(), ErrorCode::kGeneric);
      EXPECT_NE(what.find(scenario), std::string::npos) << what;
      EXPECT_NE(what.find("[1, 8]"), std::string::npos) << what;
    }
  }
  // Same connection still works, at the largest count that fits.
  EXPECT_EQ(client.register_app("nullop", "8srv", 1).op, "null.op");
  EXPECT_TRUE(client.begin_op(BeginOpMsg{}).ok);
  EXPECT_TRUE(client.end_op().ok);
}

// A record renders numbers with std::to_chars, and its parser reads no NaN
// or infinity. So a begin whose parameters are not all finite is refused
// in-band before the session sees it: nothing is recorded, the session
// keeps serving, and the record still replays.
TEST(ServerTest, NonFiniteBeginParamsRejectedInBand) {
  const std::string record_path =
      ::testing::TempDir() + "/serve_nonfinite.jsonl";
  std::remove(record_path.c_str());
  {
    ServeConfig cfg;
    cfg.record_path = record_path;
    ServerFixture fx(std::move(cfg));
    BlockingClient client("127.0.0.1", fx.port());
    client.hello("nonfinite");
    client.register_app("nullop", "baseline", 1);
    for (const double bad : {std::numeric_limits<double>::quiet_NaN(),
                             std::numeric_limits<double>::infinity(),
                             -std::numeric_limits<double>::infinity()}) {
      BeginOpMsg begin;
      begin.params = {{"x", bad}};
      try {
        client.begin_op(begin);
        ADD_FAILURE() << "x=" << bad << " was accepted";
      } catch (const ServerError& e) {
        const std::string what = e.what();
        EXPECT_EQ(e.code(), ErrorCode::kGeneric);
        EXPECT_NE(what.find("finite"), std::string::npos) << what;
      }
    }
    BeginOpMsg begin;
    begin.params = {{"x", 1.5}};
    EXPECT_TRUE(client.begin_op(begin).ok);
    EXPECT_TRUE(client.end_op().ok);
    client.close();
    fx.stop();
  }
  ReplayConfig rc;
  rc.record_path = record_path;
  const ReplayResult result =
      run_replay(rc, scenario::app_service_factory());
  EXPECT_TRUE(result.identical)
      << "first divergence at canonical line " << result.mismatch_line
      << "\n  expected: " << result.expected_line
      << "\n  actual:   " << result.actual_line;
  EXPECT_EQ(result.ops, 1u);
}

// A begin naming a parameter the session's operation does not declare is
// refused in-band before the session decides: nothing is recorded, the
// session keeps serving, and the record still replays. (Each new name
// would otherwise become a regression column and an interned string that
// lives as long as the daemon.)
TEST(ServerTest, UndeclaredBeginParameterRefusedInBand) {
  const std::string record_path =
      ::testing::TempDir() + "/serve_undeclared.jsonl";
  std::remove(record_path.c_str());
  {
    ServeConfig cfg;
    cfg.record_path = record_path;
    ServerFixture fx(std::move(cfg));
    BlockingClient client("127.0.0.1", fx.port());
    client.hello("undeclared");
    client.register_app("nullop", "baseline", 1);
    BeginOpMsg undeclared;
    undeclared.params = {{"y", 1.0}};
    try {
      client.begin_op(undeclared);
      ADD_FAILURE() << "y was accepted";
    } catch (const ServerError& e) {
      const std::string what = e.what();
      EXPECT_EQ(e.code(), ErrorCode::kGeneric);
      EXPECT_NE(what.find("'y'"), std::string::npos) << what;
    }
    BeginOpMsg begin;
    begin.params = {{"x", 1.5}};
    EXPECT_TRUE(client.begin_op(begin).ok);
    EXPECT_TRUE(client.end_op().ok);
    client.close();
    fx.stop();
  }
  std::ifstream in(record_path);
  std::string line;
  int begins = 0;
  while (std::getline(in, line)) {
    if (line.find("\"serve.begin\"") == std::string::npos) continue;
    ++begins;
    EXPECT_NE(line.find("\"params\":{\"x\":1.5}"), std::string::npos) << line;
  }
  EXPECT_EQ(begins, 1);
  ReplayConfig rc;
  rc.record_path = record_path;
  const ReplayResult result =
      run_replay(rc, scenario::app_service_factory());
  EXPECT_TRUE(result.identical)
      << "first divergence at canonical line " << result.mismatch_line
      << "\n  expected: " << result.expected_line
      << "\n  actual:   " << result.actual_line;
  EXPECT_EQ(result.ops, 1u);
}

// Each app's input is range-checked before a decision: an utterance length
// outside (0, 600] s, a sentence outside [1, 10000] words, or an unknown
// document gets an in-band kGeneric error, is not recorded, and leaves the
// session serving. The test never calls end_op: a daemon that accepted one
// of these inputs would run it there (an utterance of 1e9 s never ends).
TEST(ServerTest, AppInputsAreRangeCheckedInBand) {
  const std::string record_path =
      ::testing::TempDir() + "/serve_app_inputs.jsonl";
  std::remove(record_path.c_str());
  const auto param = [](const char* name, double value) {
    BeginOpMsg m;
    m.params = {{name, value}};
    return m;
  };
  BeginOpMsg huge_doc;
  huge_doc.data_tag = "huge";
  struct Case {
    std::string app;
    std::vector<BeginOpMsg> bad;
    std::string bound;  // named in every rejection
  };
  const std::vector<Case> cases = {
      {"speech",
       {param("utt_len", -1.0), param("utt_len", 0.0),
        param("utt_len", 600.5), param("utt_len", 1e9)},
       "(0, 600]"},
      {"latex", {huge_doc}, "small or large"},
      {"pangloss",
       {param("words", 0.0), param("words", 0.5), param("words", -3.0),
        param("words", 10001.0), param("words", 1e300)},
       "[1, 10000]"},
  };
  {
    ServeConfig cfg;
    cfg.record_path = record_path;
    ServerFixture fx(std::move(cfg));
    for (const Case& c : cases) {
      BlockingClient client("127.0.0.1", fx.port());
      client.hello("inputs-" + c.app);
      client.register_app(c.app, "baseline", 7);
      for (const BeginOpMsg& begin : c.bad) {
        try {
          client.begin_op(begin);
          ADD_FAILURE() << c.app << ": out-of-range input was accepted";
        } catch (const ServerError& e) {
          const std::string what = e.what();
          EXPECT_EQ(e.code(), ErrorCode::kGeneric) << what;
          EXPECT_NE(what.find(c.bound), std::string::npos) << what;
        }
      }
      // The session still decides, on the app's default input.
      EXPECT_TRUE(client.begin_op(BeginOpMsg{}).ok) << c.app;
      client.close();
    }
    fx.stop();
  }
  ReplayConfig rc;
  rc.record_path = record_path;
  const ReplayResult result =
      run_replay(rc, scenario::app_service_factory());
  EXPECT_TRUE(result.identical)
      << "first divergence at canonical line " << result.mismatch_line
      << "\n  expected: " << result.expected_line
      << "\n  actual:   " << result.actual_line;
  EXPECT_EQ(result.sessions, 3u);
  EXPECT_EQ(result.ops, 3u);
}

TEST(ServerTest, ShutdownFrameStopsTheLoop) {
  ServerFixture fx;
  BlockingClient client("127.0.0.1", fx.port());
  client.hello("stopper");
  client.shutdown_server();
  const Server::Stats stats = fx.stop();  // joins; run() already returning
  EXPECT_TRUE(stats.shutdown_frame);
}

TEST(ServerTest, ProcessShutdownRequestStopsTheLoop) {
  util::install_signal_handlers();
  util::reset_shutdown_for_tests();
  ServerFixture fx;
  BlockingClient client("127.0.0.1", fx.port());
  client.hello("signal");
  util::request_shutdown();  // same flag + self-pipe as SIGINT/SIGTERM
  const Server::Stats stats = fx.stop();
  EXPECT_FALSE(stats.shutdown_frame);
  util::reset_shutdown_for_tests();
}

std::string read_file(const std::string& path);  // defined with the golden

// ---- outbuf: partial-write coalescing ------------------------------------

TEST(OutBufferTest, CoalescingResumesPartialWritesAtOutpos) {
  OutBuffer out;
  out.enqueue("abcdef");
  EXPECT_EQ(out.pending_bytes(), 6u);
  out.advance(4);  // "abcd" went out; "ef" remains
  EXPECT_EQ(out.pending_bytes(), 2u);
  EXPECT_EQ(std::string(out.data(), 2), "ef");

  // Appending while a partial write is outstanding must NOT rewind the
  // cursor: the next write starts at the unsent tail, never resending
  // bytes the peer already has.
  out.enqueue("123");
  EXPECT_EQ(out.pending_bytes(), 5u);
  EXPECT_EQ(std::string(out.data(), 5), "ef123");
  EXPECT_EQ(out.pending_frames(), 2u);

  out.advance(2);  // first frame fully delivered
  EXPECT_EQ(out.frames_delivered(), 1u);
  EXPECT_EQ(out.pending_frames(), 1u);
  EXPECT_EQ(std::string(out.data(), 3), "123");
  out.advance(3);
  EXPECT_TRUE(out.drained());
  EXPECT_EQ(out.frames_delivered(), 2u);
  EXPECT_EQ(out.pending_bytes(), 0u);

  // Enqueue-after-drain reuses the buffer without stale-prefix bleed.
  out.enqueue("xyz");
  EXPECT_EQ(std::string(out.data(), 3), "xyz");
  out.advance(3);
  EXPECT_TRUE(out.drained());

  EXPECT_THROW(out.advance(1), util::ContractError);  // past pending
}

// ---- framing: fuzz under randomized splits and corrupt headers -----------

TEST(FrameReaderTest, RandomizedSplitPointsNeverChangeDecodedFrames) {
  // Property: however the byte stream is fragmented, the reader yields the
  // identical frame sequence. 100 seeded trials over a mixed stream.
  BeginOpMsg begin;
  begin.op = "null.op";
  begin.params = {{"a", 1.0}, {"b", -2.5}};
  begin.seq = 3;
  const std::string stream =
      encode_hello(HelloMsg{kProtocolVersion, "fuzz"}) +
      encode_begin_op(begin) + encode_status() + encode_end_op(3) +
      encode_resume(ResumeMsg{42}) + encode_shutdown();

  FrameReader reference;
  std::vector<Frame> expected;
  reference.feed(stream);
  while (auto f = reference.next()) expected.push_back(std::move(*f));
  ASSERT_EQ(expected.size(), 6u);

  util::Rng rng(20260808);
  for (int trial = 0; trial < 100; ++trial) {
    FrameReader reader;
    std::vector<Frame> got;
    std::size_t off = 0;
    while (off < stream.size()) {
      const std::size_t n = static_cast<std::size_t>(rng.uniform_int(
          1, static_cast<long>(stream.size() - off)));
      reader.feed(std::string_view(stream).substr(off, n));
      off += n;
      while (auto f = reader.next()) got.push_back(std::move(*f));
    }
    ASSERT_EQ(got.size(), expected.size()) << "trial " << trial;
    for (std::size_t i = 0; i < got.size(); ++i) {
      EXPECT_EQ(got[i].type, expected[i].type) << "trial " << trial;
      EXPECT_EQ(got[i].payload, expected[i].payload) << "trial " << trial;
    }
    EXPECT_EQ(reader.pending_bytes(), 0u);
  }
}

TEST(FrameReaderTest, CorruptHeadersAlwaysRejectedAtHeaderBoundary) {
  // Property: a header carrying an oversized length or an unknown type
  // byte throws ProtocolError — the framing taxonomy is "violation ⇒
  // connection drop", never a silent resync. Seeded over 200 corruptions.
  util::Rng rng(97);
  for (int trial = 0; trial < 200; ++trial) {
    std::string header;
    const bool oversized = rng.bernoulli(0.5);
    std::uint32_t len;
    if (oversized) {
      len = kMaxPayload + 1 +
            static_cast<std::uint32_t>(rng.uniform_int(0, 1 << 20));
    } else {
      len = static_cast<std::uint32_t>(rng.uniform_int(0, 64));
    }
    for (int i = 0; i < 4; ++i) {
      header.push_back(static_cast<char>((len >> (8 * i)) & 0xFF));
    }
    std::uint8_t type = static_cast<std::uint8_t>(rng.uniform_int(0, 255));
    if (!oversized) {
      // Force an unknown type; known request/response bytes are valid.
      while (is_known_type(type)) {
        type = static_cast<std::uint8_t>(rng.uniform_int(0, 255));
      }
    }
    header.push_back(static_cast<char>(type));

    FrameReader reader;
    bool threw = false;
    // Feed in random fragments: the throw may come on any fragment, but
    // must come no later than the header's 5th byte.
    try {
      std::size_t off = 0;
      while (off < header.size()) {
        const std::size_t n = static_cast<std::size_t>(
            rng.uniform_int(1, static_cast<long>(header.size() - off)));
        reader.feed(std::string_view(header).substr(off, n));
        off += n;
      }
    } catch (const ProtocolError&) {
      threw = true;
    }
    EXPECT_TRUE(threw) << "trial " << trial << " len=" << len
                       << " type=" << static_cast<int>(type);
  }
}

// ---- protocol: error codes and idempotency keys --------------------------

TEST(ProtocolTest, ErrorCodeTaxonomy) {
  EXPECT_TRUE(retryable(ErrorCode::kOverloaded));
  EXPECT_TRUE(retryable(ErrorCode::kShuttingDown));
  EXPECT_FALSE(retryable(ErrorCode::kGeneric));
  EXPECT_FALSE(retryable(ErrorCode::kProtocol));
  EXPECT_FALSE(retryable(ErrorCode::kUnknownSession));
  EXPECT_FALSE(retryable(ErrorCode::kBadSeq));

  const std::string coded =
      encode_error(ErrorMsg{ErrorCode::kOverloaded, "busy"});
  const ErrorMsg e = decode_error(coded.substr(kFrameHeader));
  EXPECT_EQ(e.code, ErrorCode::kOverloaded);
  EXPECT_EQ(e.message, "busy");
}

TEST(ProtocolTest, BeginAndEndCarrySeqKeys) {
  BeginOpMsg b;
  b.op = "null.op";
  b.seq = 9;
  const BeginOpMsg b2 =
      decode_begin_op(encode_begin_op(b).substr(kFrameHeader));
  EXPECT_EQ(b2.seq, 9u);

  EXPECT_EQ(decode_end_op(encode_end_op(7).substr(kFrameHeader)), 7u);
  EXPECT_EQ(decode_end_op(encode_end_op().substr(kFrameHeader)), 0u);

  ResumeOkMsg r;
  r.op = "null.op";
  r.seq_begun = 4;
  r.seq_completed = 3;
  const ResumeOkMsg r2 =
      decode_resume_ok(encode_resume_ok(r).substr(kFrameHeader));
  EXPECT_EQ(r2.op, "null.op");
  EXPECT_EQ(r2.seq_begun, 4u);
  EXPECT_EQ(r2.seq_completed, 3u);
}

// ---- records: WAL plumbing -----------------------------------------------

TEST(RecordTest, LifecycleLinesAreSkippedNotRejected) {
  const std::string text =
      std::string("{\"type\":\"serve.shed\",\"scope\":\"sessions\"}\n") +
      render_session_line(1, 8.0, fake_status(1)) + "\n" +
      "{\"type\":\"serve.timeout\",\"kind\":\"idle\"}\n" +
      "{\"type\":\"serve.recovered\",\"sessions\":1}\n";
  // Canonical form contains only the session line.
  EXPECT_EQ(canonicalize_record(text),
            render_session_line(1, 8.0, fake_status(1)) + "\n");
  EXPECT_EQ(parse_record(text).size(), 1u);
  // The skip list is closed: unknown types still hard-error.
  EXPECT_THROW(canonicalize_record("{\"type\":\"serve.bogus\"}\n"),
               util::ContractError);
}

TEST(RecordTest, StripPartialTailCutsAtLastNewline) {
  std::string text = "line one\nline two\npartial tai";
  EXPECT_EQ(strip_partial_tail(text), 11u);
  EXPECT_EQ(text, "line one\nline two\n");
  std::string clean = "a\nb\n";
  EXPECT_EQ(strip_partial_tail(clean), 0u);
  std::string all_partial = "never-finished";
  EXPECT_EQ(strip_partial_tail(all_partial), 14u);
  EXPECT_EQ(all_partial, "");
}

// ---- server: self-protection ---------------------------------------------

TEST(ServerTest, SessionOverloadShedsWithRetryableError) {
  ServeConfig cfg;
  cfg.max_sessions = 1;
  ServerFixture fx(std::move(cfg));

  BlockingClient first("127.0.0.1", fx.port());
  first.hello("first");
  ASSERT_EQ(first.register_app("nullop", "baseline", 1).op, "null.op");

  BlockingClient second("127.0.0.1", fx.port());
  second.hello("second");
  try {
    second.register_app("nullop", "baseline", 1);
    FAIL() << "expected an overload refusal";
  } catch (const ServerError& e) {
    EXPECT_EQ(e.code(), ErrorCode::kOverloaded);
    EXPECT_TRUE(retryable(e.code()));
  }
  // The refusal is in-band: the connection is still usable...
  EXPECT_EQ(second.status().sessions_active, 1u);
  // ...and capacity freed by the first client can be claimed.
  first.close();
  // The server notices the close asynchronously; retry briefly.
  for (int i = 0; i < 100; ++i) {
    try {
      ASSERT_EQ(second.register_app("nullop", "baseline", 1).op, "null.op");
      break;
    } catch (const ServerError& e) {
      ASSERT_EQ(e.code(), ErrorCode::kOverloaded);
      std::this_thread::sleep_for(std::chrono::milliseconds(10));
    }
  }
  EXPECT_TRUE(second.begin_op(BeginOpMsg{}).ok);
  EXPECT_TRUE(second.end_op().ok);
  second.close();
  const Server::Stats stats = fx.stop();
  EXPECT_GE(stats.sheds, 1u);
}

TEST(ServerTest, ConnectionOverloadShedsWithErrorThenClose) {
  ServeConfig cfg;
  cfg.max_connections = 1;
  ServerFixture fx(std::move(cfg));

  BlockingClient occupant("127.0.0.1", fx.port());
  occupant.hello("occupant");

  BlockingClient shed_me("127.0.0.1", fx.port());
  const Frame reply = shed_me.read_frame();  // refusal arrives unprompted
  ASSERT_EQ(reply.type, MsgType::kError);
  const ErrorMsg e = decode_error(reply.payload);
  EXPECT_EQ(e.code, ErrorCode::kOverloaded);
  // Then the daemon closes the shed connection.
  EXPECT_THROW(shed_me.read_frame(), util::ContractError);
  shed_me.close();

  // The occupant is unaffected.
  EXPECT_EQ(occupant.register_app("nullop", "baseline", 1).op, "null.op");
  occupant.close();
  const Server::Stats stats = fx.stop();
  EXPECT_GE(stats.sheds, 1u);
  EXPECT_EQ(stats.connections, 1u);  // shed connections are not counted
}

TEST(ServerTest, IdleConnectionTimedOutAndCounted) {
  ServeConfig cfg;
  cfg.idle_timeout_s = 0.15;
  ServerFixture fx(std::move(cfg));
  BlockingClient idler("127.0.0.1", fx.port());
  idler.hello("idler");
  // Send nothing; the daemon must cut us loose.
  EXPECT_THROW({
    for (int i = 0; i < 100; ++i) idler.read_frame();
  }, util::ContractError);
  idler.close();
  const Server::Stats stats = fx.stop();
  EXPECT_GE(stats.idle_timeouts, 1u);
}

TEST(ServerTest, StalledHalfFrameTimedOutAndCounted) {
  ServeConfig cfg;
  cfg.frame_timeout_s = 0.15;
  cfg.idle_timeout_s = 60.0;  // the frame deadline must fire first
  ServerFixture fx(std::move(cfg));
  BlockingClient slowloris("127.0.0.1", fx.port());
  const std::string frame =
      encode_hello(HelloMsg{kProtocolVersion, "slowloris"});
  slowloris.send_raw(std::string_view(frame).substr(0, 3));
  // Never send the rest: a slowloris holding a half-read frame.
  EXPECT_THROW({
    for (int i = 0; i < 100; ++i) slowloris.read_frame();
  }, util::ContractError);
  slowloris.close();
  const Server::Stats stats = fx.stop();
  EXPECT_GE(stats.frame_timeouts, 1u);
  EXPECT_EQ(stats.idle_timeouts, 0u);
}

TEST(ServerTest, SlowConsumerDisconnectedWhenOutbufOverflows) {
  ServeConfig cfg;
  cfg.max_outbuf_bytes = 64;  // far below one burst of replies
  ServerFixture fx(std::move(cfg));
  BlockingClient hog("127.0.0.1", fx.port());
  // A burst of requests whose replies overflow the bounded outbuf before
  // we read any of them.
  std::string burst;
  for (int i = 0; i < 64; ++i) burst += encode_status();
  hog.send_raw(encode_hello(HelloMsg{kProtocolVersion, "hog"}) + burst);
  EXPECT_THROW({
    for (int i = 0; i < 1000; ++i) hog.read_frame();
  }, util::ContractError);
  hog.close();
  const Server::Stats stats = fx.stop();
  EXPECT_GE(stats.slow_consumer_closes, 1u);
  EXPECT_GT(stats.dropped_frames, 0u);  // undelivered replies accounted
  EXPECT_GT(stats.dropped_bytes, 0u);
}

// ---- server: session parking, resume, idempotent re-issue ----------------

TEST(ServerTest, SessionSurvivesDisconnectAndResumes) {
  ServerFixture fx;
  std::uint64_t sid = 0;
  {
    BlockingClient client("127.0.0.1", fx.port());
    sid = client.hello("disconnector").session_id;
    client.register_app("nullop", "baseline", 5);
    ASSERT_TRUE(client.begin_op(BeginOpMsg{}).ok);
    ASSERT_TRUE(client.end_op().ok);
    client.close();
  }
  // Give the poll loop a moment to notice the close and park the session.
  BlockingClient back("127.0.0.1", fx.port());
  back.hello("back");
  ResumeOkMsg ok;
  for (int i = 0; i < 100; ++i) {
    try {
      ok = back.resume(sid);
      break;
    } catch (const ServerError& e) {
      ASSERT_EQ(e.code(), ErrorCode::kUnknownSession);
      std::this_thread::sleep_for(std::chrono::milliseconds(10));
    }
  }
  EXPECT_EQ(ok.op, "null.op");
  EXPECT_EQ(ok.seq_begun, 1u);
  EXPECT_EQ(ok.seq_completed, 1u);
  // The resumed session continues its history: next op is seq 2.
  ASSERT_TRUE(back.begin_op(BeginOpMsg{}).ok);
  EXPECT_EQ(back.end_op().seq, 2u);
  back.close();

  const Server::Stats stats = fx.stop();
  EXPECT_GE(stats.parked, 1u);
  EXPECT_EQ(stats.resumed, 1u);
}

TEST(ServerTest, ResumeOfUnknownSessionIsCleanInBandError) {
  ServerFixture fx;
  BlockingClient client("127.0.0.1", fx.port());
  client.hello("guesser");
  try {
    client.resume(424242);
    FAIL() << "expected kUnknownSession";
  } catch (const ServerError& e) {
    EXPECT_EQ(e.code(), ErrorCode::kUnknownSession);
  }
  // In-band: the connection can still register normally.
  EXPECT_EQ(client.register_app("nullop", "baseline", 1).op, "null.op");
}

TEST(ServerTest, ReissuedSeqAnsweredFromCacheWithoutReExecution) {
  ServerFixture fx;
  BlockingClient client("127.0.0.1", fx.port());
  client.hello("reissue");
  client.register_app("nullop", "baseline", 3);

  BeginOpMsg begin;
  begin.seq = 1;
  const core::ServiceDecision d1 = client.begin_op(begin);
  // Re-issue the same key: byte-identical cached reply, no re-execution.
  const core::ServiceDecision d2 = client.begin_op(begin);
  EXPECT_EQ(d2.plan, d1.plan);
  EXPECT_EQ(d2.placement, d1.placement);
  EXPECT_DOUBLE_EQ(d2.t, d1.t);
  EXPECT_DOUBLE_EQ(d2.log_utility, d1.log_utility);

  const core::ServiceOpResult r1 = client.end_op(1);
  const core::ServiceOpResult r2 = client.end_op(1);
  EXPECT_EQ(r1.seq, 1u);
  EXPECT_EQ(r2.seq, 1u);
  EXPECT_DOUBLE_EQ(r2.t, r1.t);

  // A seq that is neither cached nor next is rejected, in-band.
  BeginOpMsg bad;
  bad.seq = 7;
  try {
    client.begin_op(bad);
    FAIL() << "expected kBadSeq";
  } catch (const ServerError& e) {
    EXPECT_EQ(e.code(), ErrorCode::kBadSeq);
  }
  // Still usable: the next in-order op proceeds.
  BeginOpMsg next;
  next.seq = 2;
  EXPECT_TRUE(client.begin_op(next).ok);
  EXPECT_EQ(client.end_op(2).seq, 2u);
  client.close();

  const Server::Stats stats = fx.stop();
  EXPECT_EQ(stats.replayed_cached, 2u);
  EXPECT_EQ(stats.ops, 2u);  // the re-issues did not re-run anything
}

// ---- server: crash recovery from the write-ahead log ---------------------

TEST(ServerTest, WalResumeContinuesRecordByteIdentically) {
  const std::string wal = ::testing::TempDir() + "/serve_wal_resume.jsonl";
  const std::string reference =
      ::testing::TempDir() + "/serve_wal_reference.jsonl";
  std::remove(wal.c_str());
  std::remove(reference.c_str());

  std::uint64_t sid = 0;
  {
    // Phase 1: a session does two ops, then the daemon "dies".
    ServeConfig cfg;
    cfg.record_path = wal;
    ServerFixture fx(std::move(cfg));
    BlockingClient client("127.0.0.1", fx.port());
    sid = client.hello("phase1").session_id;
    client.register_app("nullop", "baseline", 11);
    for (int i = 0; i < 2; ++i) {
      ASSERT_TRUE(client.begin_op(BeginOpMsg{}).ok);
      ASSERT_TRUE(client.end_op().ok);
    }
    client.close();
    fx.stop();
  }
  // Simulate a SIGKILL mid-line: a partial tail glued onto the log.
  {
    std::ofstream out(wal, std::ios::binary | std::ios::app);
    out << "{\"type\":\"begin\",\"sid\":1,\"se";  // cut mid-write
  }
  {
    // Phase 2: restart with --resume on the same log, re-attach, continue.
    ServeConfig cfg;
    cfg.record_path = wal;
    cfg.resume = true;
    ServerFixture fx(std::move(cfg));
    BlockingClient client("127.0.0.1", fx.port());
    client.hello("phase2");
    const ResumeOkMsg ok = client.resume(sid);
    EXPECT_EQ(ok.seq_begun, 2u);
    EXPECT_EQ(ok.seq_completed, 2u);
    for (int i = 0; i < 2; ++i) {
      ASSERT_TRUE(client.begin_op(BeginOpMsg{}).ok);
      ASSERT_TRUE(client.end_op().ok);
    }
    client.close();
    const Server::Stats stats = fx.stop();
    EXPECT_EQ(stats.wal_sessions, 1u);
    EXPECT_EQ(stats.wal_ops, 2u);
    EXPECT_GT(stats.wal_truncated_bytes, 0u);
    EXPECT_EQ(stats.resumed, 1u);
  }
  {
    // Reference: the same four ops with no crash in between.
    ServeConfig cfg;
    cfg.record_path = reference;
    ServerFixture fx(std::move(cfg));
    BlockingClient client("127.0.0.1", fx.port());
    client.hello("reference");
    client.register_app("nullop", "baseline", 11);
    for (int i = 0; i < 4; ++i) {
      ASSERT_TRUE(client.begin_op(BeginOpMsg{}).ok);
      ASSERT_TRUE(client.end_op().ok);
    }
    client.close();
    fx.stop();
  }

  // The combined crash+resume record is byte-identical to the
  // uninterrupted run (lifecycle lines are excluded from canonical form).
  EXPECT_EQ(canonicalize_record(read_file(wal)),
            canonicalize_record(read_file(reference)))
      << "crash + --resume diverged from the uninterrupted run";
}

// ---- the write-ahead log at every crash point ----------------------------

// Two nullop sessions of three ops each, driven with explicit seqs so that a
// resumed session continues exactly where its log left off.
constexpr std::uint64_t kSweepSessions = 2;
constexpr std::uint64_t kSweepOps = 3;

struct SweepSession {
  std::unique_ptr<BlockingClient> client;
  std::uint64_t begun = 0;
  std::uint64_t completed = 0;

  // Register session `sid` (it must be the sid the daemon hands out).
  void start(std::uint16_t port, std::uint64_t sid) {
    client = std::make_unique<BlockingClient>("127.0.0.1", port);
    ASSERT_EQ(client->hello("sweep").session_id, sid);
    client->register_app("nullop", "baseline", 20 + sid);
  }

  // Re-attach session `sid` at the seqs the daemon rebuilt.
  void resume(std::uint16_t port, std::uint64_t sid) {
    client = std::make_unique<BlockingClient>("127.0.0.1", port);
    client->hello("sweep");
    const ResumeOkMsg ok = client->resume(sid);
    begun = ok.seq_begun;
    completed = ok.seq_completed;
  }

  // End the open op, or else run the next one; nothing once all are done.
  void step() {
    if (completed == kSweepOps) return;
    if (begun == completed) {
      BeginOpMsg begin;
      begin.seq = ++begun;
      ASSERT_TRUE(client->begin_op(begin).ok);
    }
    ASSERT_TRUE(client->end_op(begun).ok);
    completed = begun;
  }
};

// Brings every sweep session to kSweepOps completed ops, round-robin.
void finish_sweep(std::vector<SweepSession>& sessions) {
  for (std::uint64_t op = 0; op < kSweepOps; ++op) {
    for (SweepSession& s : sessions) s.step();
  }
  for (SweepSession& s : sessions) s.client->close();
}

// The uninterrupted run's raw log.
std::string record_sweep(const std::string& path) {
  std::remove(path.c_str());
  ServeConfig cfg;
  cfg.record_path = path;
  ServerFixture fx(std::move(cfg));
  std::vector<SweepSession> sessions(kSweepSessions);
  for (std::uint64_t sid = 1; sid <= kSweepSessions; ++sid) {
    sessions[sid - 1].start(fx.port(), sid);
  }
  finish_sweep(sessions);
  fx.stop();
  return read_file(path);
}

TEST(ServerTest, WalRecoversAtEveryCrashPoint) {
  const std::string log =
      record_sweep(::testing::TempDir() + "/serve_sweep_reference.jsonl");
  const std::string reference = canonicalize_record(log);
  const std::vector<std::string> lines = split_lines(log);
  ASSERT_EQ(lines.size(), kSweepSessions * (1 + 2 * kSweepOps));

  // Every line boundary, then one torn tail: half of the middle line.
  std::vector<std::string> cuts;
  std::string prefix;
  for (const std::string& line : lines) {
    cuts.push_back(prefix);
    prefix += line + "\n";
  }
  cuts.push_back(prefix);
  const std::size_t mid = lines.size() / 2;
  cuts.push_back(cuts[mid] + lines[mid].substr(0, lines[mid].size() / 2));

  const std::string path = ::testing::TempDir() + "/serve_sweep_cut.jsonl";
  for (std::size_t i = 0; i < cuts.size(); ++i) {
    SCOPED_TRACE("cut " + std::to_string(i) + " of " +
                 std::to_string(cuts.size()));
    std::ofstream(path, std::ios::binary | std::ios::trunc) << cuts[i];
    std::string intact = cuts[i];
    strip_partial_tail(intact);
    std::vector<bool> logged(kSweepSessions, false);
    for (const ReplaySession& sess : parse_record(intact)) {
      logged[sess.sid - 1] = true;
    }
    {
      ServeConfig cfg;
      cfg.record_path = path;
      cfg.resume = true;
      ServerFixture fx(std::move(cfg));
      std::vector<SweepSession> sessions(kSweepSessions);
      // Sids go out in accept order, so the sessions that must register
      // connect before the ones that resume.
      for (std::uint64_t sid = 1; sid <= kSweepSessions; ++sid) {
        if (!logged[sid - 1]) sessions[sid - 1].start(fx.port(), sid);
      }
      for (std::uint64_t sid = 1; sid <= kSweepSessions; ++sid) {
        if (logged[sid - 1]) sessions[sid - 1].resume(fx.port(), sid);
      }
      finish_sweep(sessions);
      fx.stop();
    }
    EXPECT_EQ(canonicalize_record(read_file(path)), reference);
    ReplayConfig rc;
    rc.record_path = path;
    const ReplayResult replay =
        run_replay(rc, scenario::app_service_factory());
    EXPECT_TRUE(replay.identical)
        << "first divergence at canonical line " << replay.mismatch_line;
  }
}

TEST(ServerTest, CorruptedWalIsRefusedAtResume) {
  const std::string log =
      record_sweep(::testing::TempDir() + "/serve_corrupt_reference.jsonl");
  const std::string path = ::testing::TempDir() + "/serve_corrupt.jsonl";
  // One digit of a decision's predicted time, an op's measured time, and a
  // session's virtual time.
  for (const std::string key : {"pred_time", "time", "t"}) {
    SCOPED_TRACE(key);
    std::string bad = log;
    const std::size_t field = bad.find("\"" + key + "\":");
    ASSERT_NE(field, std::string::npos);
    const std::size_t digit =
        bad.find_first_of("0123456789", field + key.size() + 3);
    bad[digit] = bad[digit] == '9' ? '0' : static_cast<char>(bad[digit] + 1);
    std::ofstream(path, std::ios::binary | std::ios::trunc) << bad;

    ServeConfig cfg;
    cfg.record_path = path;
    cfg.resume = true;
    Server server(std::move(cfg), scenario::app_service_factory());
    try {
      server.bind();
      ADD_FAILURE() << "a corrupted log was resumed";
    } catch (const util::ContractError& e) {
      EXPECT_NE(std::string(e.what()).find("canonical line"),
                std::string::npos)
          << e.what();
    }
    EXPECT_EQ(read_file(path), bad) << "a refused log must stay untouched";
  }
}

// ---- the self-healing client ---------------------------------------------

TEST(ResilientClientTest, SurvivesDaemonKillAndRestart) {
  const std::string wal = ::testing::TempDir() + "/resilient_wal.jsonl";
  std::remove(wal.c_str());

  ServeConfig cfg;
  cfg.record_path = wal;
  auto fx = std::make_unique<ServerFixture>(cfg);
  const std::uint16_t port = fx->port();

  ResilientConfig rc;
  rc.port = port;
  rc.client_name = "survivor";
  ResilientClient client(rc);
  ASSERT_EQ(client.register_app("nullop", "baseline", 13).op, "null.op");
  for (int i = 0; i < 2; ++i) {
    ASSERT_TRUE(client.begin_op(BeginOpMsg{}).ok);
    ASSERT_TRUE(client.end_op().ok);
  }

  // Kill the daemon out from under the client, then restart it on the
  // same port from the write-ahead log.
  fx->stop();
  fx.reset();
  ServeConfig cfg2;
  cfg2.port = port;
  cfg2.record_path = wal;
  cfg2.resume = true;
  ServerFixture fx2(std::move(cfg2));

  // The client's next calls ride reconnect → resume → re-issue.
  for (int i = 0; i < 2; ++i) {
    ASSERT_TRUE(client.begin_op(BeginOpMsg{}).ok);
    const core::ServiceOpResult r = client.end_op();
    ASSERT_TRUE(r.ok);
    if (i == 1) {
      EXPECT_EQ(r.seq, 4u);  // history continued, not restarted
    }
  }
  const ResilientStats& cs = client.stats();
  EXPECT_GE(cs.reconnects, 1u);
  EXPECT_GE(cs.resumes, 1u);
  client.close();
  const Server::Stats stats = fx2.stop();
  EXPECT_EQ(stats.wal_sessions, 1u);
  EXPECT_EQ(stats.wal_ops, 2u);
}

// ---- wire chaos ----------------------------------------------------------

TEST(WireChaosTest, PlanIsDeterministicAndOrderIndependent) {
  const fault::WireFaultPlan plan(42);
  const fault::WireFaultPlan same(42);
  const fault::WireFaultPlan other(43);
  bool any_fault = false;
  bool any_difference = false;
  for (std::uint64_t c = 0; c < 4; ++c) {
    for (std::uint64_t r = 0; r < 64; ++r) {
      const fault::WireAction a = plan.action(c, r);
      const fault::WireAction b = same.action(c, r);
      EXPECT_EQ(a.kind, b.kind);
      EXPECT_DOUBLE_EQ(a.delay_s, b.delay_s);
      EXPECT_EQ(a.split_chunk, b.split_chunk);
      if (a.kind != fault::WireFaultKind::kNone) any_fault = true;
      if (a.kind != other.action(c, r).kind) any_difference = true;
    }
  }
  EXPECT_TRUE(any_fault);       // the default 25% rate fires somewhere
  EXPECT_TRUE(any_difference);  // and the seed matters
  // Querying (2, 7) is the same whether or not other keys were queried
  // first — the plan is a pure function, safe across threads.
  EXPECT_EQ(plan.action(2, 7).kind, fault::WireFaultPlan(42).action(2, 7).kind);
}

TEST(WireChaosTest, TextFormRoundTrips) {
  fault::WireFaultConfig cfg;
  cfg.fault_rate = 0.5;
  cfg.max_delay_s = 0.01;
  cfg.stall_s = 0.1;
  cfg.w_rst = 0.0;  // asymmetric weights to catch field swaps
  const fault::WireFaultPlan plan(7, cfg);
  const fault::WireFaultPlan reparsed =
      fault::WireFaultPlan::parse(plan.to_string());
  EXPECT_EQ(reparsed.to_string(), plan.to_string());
  for (std::uint64_t r = 0; r < 32; ++r) {
    EXPECT_EQ(reparsed.action(0, r).kind, plan.action(0, r).kind);
  }
  EXPECT_THROW(fault::WireFaultPlan::parse("bogus_key 1\n"),
               util::ContractError);
}

TEST(WireChaosTest, ChaosSoakCompletesEveryOpExactlyOnce) {
  // The acceptance gate in miniature: chaos-mangled clients against a
  // daemon with deadlines armed. Every op must complete exactly once and
  // the daemon must stay up throughout.
  ServeConfig cfg;
  cfg.frame_timeout_s = 2.0;  // longer than the 0.25 s stall fault
  ServerFixture fx(std::move(cfg));

  LoadgenConfig lg;
  lg.port = fx.port();
  lg.clients = 4;
  lg.ops_per_client = 6;
  lg.seed = 99;
  lg.chaos_intensity = 1.5;
  const LoadgenStats stats = run_loadgen(lg);
  EXPECT_EQ(stats.errors, 0u) << stats.first_error;
  EXPECT_EQ(stats.ops, 24u);
  EXPECT_GT(stats.faults_injected, 0u);

  const Server::Stats server_stats = fx.stop();
  EXPECT_EQ(server_stats.ops, 24u);  // exactly once, despite re-issues
}

// ---- record → replay golden ----------------------------------------------

std::string golden_path() {
  return std::string(SPECTRA_GOLDEN_DIR) + "/serve_record.jsonl.golden";
}

bool update_mode() {
  const char* v = std::getenv("SPECTRA_UPDATE_GOLDEN");
  return v != nullptr && std::string(v) == "1";
}

std::string read_file(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  EXPECT_TRUE(in.good()) << "missing golden file: " << path
                         << " (regenerate with SPECTRA_UPDATE_GOLDEN=1)";
  std::ostringstream os;
  os << in.rdbuf();
  return os.str();
}

TEST(ReplayGoldenTest, ScriptedSessionMatchesGoldenAndReplaysIdentically) {
  const std::string record_path =
      ::testing::TempDir() + "/serve_record_golden.jsonl";
  std::remove(record_path.c_str());

  {
    ServeConfig cfg;
    cfg.record_path = record_path;
    ServerFixture fx(std::move(cfg));
    BlockingClient client("127.0.0.1", fx.port());
    client.hello("golden");
    client.register_app("nullop", "baseline", 7);
    for (int i = 0; i < 3; ++i) {
      BeginOpMsg begin;
      if (i == 2) begin.params = {{"x", 1.5}};  // exercise map rendering
      ASSERT_TRUE(client.begin_op(begin).ok);
      ASSERT_TRUE(client.end_op().ok);
    }
    client.close();
    fx.stop();
  }

  const std::string recorded = canonicalize_record(read_file(record_path));
  ASSERT_FALSE(recorded.empty());

  if (update_mode()) {
    std::ofstream out(golden_path(), std::ios::binary | std::ios::trunc);
    out << recorded;
    ASSERT_TRUE(out.good());
  }
  EXPECT_EQ(recorded, read_file(golden_path()))
      << "serve record diverged from golden";

  // The committed golden must replay byte-identically in-process.
  ReplayConfig rc;
  rc.record_path = golden_path();
  const ReplayResult result =
      run_replay(rc, scenario::app_service_factory());
  EXPECT_TRUE(result.identical)
      << "first divergence at canonical line " << result.mismatch_line
      << "\n  expected: " << result.expected_line
      << "\n  actual:   " << result.actual_line;
  EXPECT_EQ(result.sessions, 1u);
  EXPECT_EQ(result.ops, 3u);
}

std::string apps_golden_path() {
  return std::string(SPECTRA_GOLDEN_DIR) + "/serve_apps_record.jsonl.golden";
}

// One scripted session per simulated app, two operations each: speech with
// utt_len 1.5 s and its default, latex on the large document and its
// default, pangloss on 6 and 44 words.
TEST(ReplayGoldenTest, AppSessionsMatchGoldenAndReplayIdentically) {
  const std::string record_path =
      ::testing::TempDir() + "/serve_apps_record_golden.jsonl";
  std::remove(record_path.c_str());

  BeginOpMsg short_utterance;
  short_utterance.params = {{"utt_len", 1.5}};
  BeginOpMsg large_doc;
  large_doc.data_tag = "large";
  BeginOpMsg six_words;
  six_words.params = {{"words", 6.0}};
  BeginOpMsg long_sentence;
  long_sentence.params = {{"words", 44.0}};
  const std::vector<std::pair<std::string, std::vector<BeginOpMsg>>> scripts =
      {{"speech", {short_utterance, BeginOpMsg{}}},
       {"latex", {large_doc, BeginOpMsg{}}},
       {"pangloss", {six_words, long_sentence}}};
  {
    ServeConfig cfg;
    cfg.record_path = record_path;
    ServerFixture fx(std::move(cfg));
    for (const auto& [app, ops] : scripts) {
      BlockingClient client("127.0.0.1", fx.port());
      client.hello("golden-" + app);
      client.register_app(app, "baseline", 7);
      for (const BeginOpMsg& begin : ops) {
        ASSERT_TRUE(client.begin_op(begin).ok) << app;
        ASSERT_TRUE(client.end_op().ok) << app;
      }
      client.close();
    }
    fx.stop();
  }

  const std::string recorded = canonicalize_record(read_file(record_path));
  ASSERT_FALSE(recorded.empty());

  if (update_mode()) {
    std::ofstream out(apps_golden_path(), std::ios::binary | std::ios::trunc);
    out << recorded;
    ASSERT_TRUE(out.good());
  }
  EXPECT_EQ(recorded, read_file(apps_golden_path()))
      << "serve record diverged from golden";

  ReplayConfig rc;
  rc.record_path = apps_golden_path();
  const ReplayResult result =
      run_replay(rc, scenario::app_service_factory());
  EXPECT_TRUE(result.identical)
      << "first divergence at canonical line " << result.mismatch_line
      << "\n  expected: " << result.expected_line
      << "\n  actual:   " << result.actual_line;
  EXPECT_EQ(result.sessions, 3u);
  EXPECT_EQ(result.ops, 6u);
}

}  // namespace
}  // namespace spectra::serve
