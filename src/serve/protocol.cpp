#include "serve/protocol.h"

#include <bit>
#include <cstdio>
#include <cstring>

namespace spectra::serve {

const char* to_token(MsgType type) {
  switch (type) {
    case MsgType::kHello:
      return "hello";
    case MsgType::kRegisterApp:
      return "register_app";
    case MsgType::kBeginOp:
      return "begin_op";
    case MsgType::kEndOp:
      return "end_op";
    case MsgType::kStatus:
      return "status";
    case MsgType::kShutdown:
      return "shutdown";
    case MsgType::kResume:
      return "resume";
    case MsgType::kHelloOk:
      return "hello_ok";
    case MsgType::kRegisterOk:
      return "register_ok";
    case MsgType::kBeginOk:
      return "begin_ok";
    case MsgType::kEndOk:
      return "end_ok";
    case MsgType::kStatusOk:
      return "status_ok";
    case MsgType::kShutdownOk:
      return "shutdown_ok";
    case MsgType::kResumeOk:
      return "resume_ok";
    case MsgType::kError:
      return "error";
  }
  return "unknown";
}

const char* to_token(ErrorCode code) {
  switch (code) {
    case ErrorCode::kGeneric:
      return "generic";
    case ErrorCode::kProtocol:
      return "protocol";
    case ErrorCode::kOverloaded:
      return "overloaded";
    case ErrorCode::kShuttingDown:
      return "shutting_down";
    case ErrorCode::kUnknownSession:
      return "unknown_session";
    case ErrorCode::kBadSeq:
      return "bad_seq";
  }
  return "unknown";
}

bool retryable(ErrorCode code) {
  switch (code) {
    case ErrorCode::kOverloaded:
    case ErrorCode::kShuttingDown:
      return true;
    case ErrorCode::kGeneric:
    case ErrorCode::kProtocol:
    case ErrorCode::kUnknownSession:
    case ErrorCode::kBadSeq:
      return false;
  }
  return false;
}

bool is_known_type(std::uint8_t type) {
  // Every type has a token; any other byte reads "unknown".
  return std::strcmp(to_token(static_cast<MsgType>(type)), "unknown") != 0;
}

namespace {

void append_u32(std::string* out, std::uint32_t v) {
  char b[4];
  b[0] = static_cast<char>(v & 0xFF);
  b[1] = static_cast<char>((v >> 8) & 0xFF);
  b[2] = static_cast<char>((v >> 16) & 0xFF);
  b[3] = static_cast<char>((v >> 24) & 0xFF);
  out->append(b, 4);
}

std::uint32_t read_u32(const char* p) {
  const auto b = reinterpret_cast<const unsigned char*>(p);
  return static_cast<std::uint32_t>(b[0]) |
         (static_cast<std::uint32_t>(b[1]) << 8) |
         (static_cast<std::uint32_t>(b[2]) << 16) |
         (static_cast<std::uint32_t>(b[3]) << 24);
}

}  // namespace

std::string encode_frame(MsgType type, std::string_view payload) {
  if (payload.size() > kMaxPayload) {
    throw ProtocolError("payload too large: " +
                        std::to_string(payload.size()));
  }
  std::string out;
  out.reserve(kFrameHeader + payload.size());
  append_u32(&out, static_cast<std::uint32_t>(payload.size()));
  out.push_back(static_cast<char>(type));
  out.append(payload);
  return out;
}

// ---- FrameReader ---------------------------------------------------------

void FrameReader::check_header() {
  if (buffer_.size() < kFrameHeader) return;
  const std::uint32_t len = read_u32(buffer_.data());
  if (len > kMaxPayload) {
    throw ProtocolError("frame payload " + std::to_string(len) +
                        " exceeds the " + std::to_string(kMaxPayload) +
                        "-byte limit");
  }
  const auto type = static_cast<std::uint8_t>(buffer_[4]);
  if (!is_known_type(type)) {
    char hex[3];
    std::snprintf(hex, sizeof(hex), "%02x", type);
    throw ProtocolError(std::string("unknown message type 0x") + hex);
  }
}

void FrameReader::feed(std::string_view bytes) {
  buffer_.append(bytes);
  // Validate the header as soon as it is complete, so a hostile length
  // or type byte is rejected before its payload is buffered.
  check_header();
}

std::optional<Frame> FrameReader::next() {
  if (buffer_.size() < kFrameHeader) return std::nullopt;
  const std::uint32_t len = read_u32(buffer_.data());
  if (buffer_.size() < kFrameHeader + len) return std::nullopt;
  Frame f;
  f.type = static_cast<MsgType>(static_cast<std::uint8_t>(buffer_[4]));
  f.payload = buffer_.substr(kFrameHeader, len);
  buffer_.erase(0, kFrameHeader + len);
  check_header();  // the next frame's header may already be buffered
  return f;
}

// ---- PayloadWriter -------------------------------------------------------

void PayloadWriter::put_u8(std::uint8_t v) {
  out_.push_back(static_cast<char>(v));
}

void PayloadWriter::put_u32(std::uint32_t v) { append_u32(&out_, v); }

void PayloadWriter::put_u64(std::uint64_t v) {
  put_u32(static_cast<std::uint32_t>(v & 0xFFFFFFFFu));
  put_u32(static_cast<std::uint32_t>(v >> 32));
}

void PayloadWriter::put_f64(double v) {
  put_u64(std::bit_cast<std::uint64_t>(v));
}

void PayloadWriter::put_string(std::string_view s) {
  if (s.size() > kMaxString) {
    throw ProtocolError("string too large: " + std::to_string(s.size()));
  }
  put_u32(static_cast<std::uint32_t>(s.size()));
  out_.append(s);
}

void PayloadWriter::put_map(const std::map<std::string, double>& m) {
  put_u32(static_cast<std::uint32_t>(m.size()));
  for (const auto& [k, v] : m) {  // std::map iterates key-sorted
    put_string(k);
    put_f64(v);
  }
}

// ---- PayloadReader -------------------------------------------------------

void PayloadReader::need(std::size_t n) const {
  if (pos_ + n > data_.size()) {
    throw ProtocolError("truncated payload: wanted " + std::to_string(n) +
                        " more byte(s) at offset " + std::to_string(pos_) +
                        " of " + std::to_string(data_.size()));
  }
}

std::uint8_t PayloadReader::get_u8() {
  need(1);
  return static_cast<std::uint8_t>(data_[pos_++]);
}

std::uint32_t PayloadReader::get_u32() {
  need(4);
  const std::uint32_t v = read_u32(data_.data() + pos_);
  pos_ += 4;
  return v;
}

std::uint64_t PayloadReader::get_u64() {
  const std::uint64_t lo = get_u32();
  const std::uint64_t hi = get_u32();
  return lo | (hi << 32);
}

double PayloadReader::get_f64() {
  return std::bit_cast<double>(get_u64());
}

std::string PayloadReader::get_string() {
  const std::uint32_t len = get_u32();
  if (len > kMaxString) {
    throw ProtocolError("string length " + std::to_string(len) +
                        " exceeds the " + std::to_string(kMaxString) +
                        "-byte limit");
  }
  need(len);
  std::string s(data_.substr(pos_, len));
  pos_ += len;
  return s;
}

std::map<std::string, double> PayloadReader::get_map() {
  const std::uint32_t n = get_u32();
  // Each entry needs at least a string header and a double.
  if (static_cast<std::size_t>(n) * 12 > data_.size()) {
    throw ProtocolError("map count " + std::to_string(n) +
                        " cannot fit the payload");
  }
  std::map<std::string, double> m;
  for (std::uint32_t i = 0; i < n; ++i) {
    std::string k = get_string();
    const double v = get_f64();
    m.emplace(std::move(k), v);
  }
  return m;
}

void PayloadReader::expect_done() const {
  if (pos_ != data_.size()) {
    throw ProtocolError("payload has " + std::to_string(data_.size() - pos_) +
                        " trailing byte(s)");
  }
}

// ---- messages ------------------------------------------------------------

namespace {

// One field of a message, in either direction: a writer reads it, a reader
// assigns it. Booleans travel as u8, error codes as their u8 value.
void io(PayloadWriter& w, bool v) { w.put_u8(v ? 1 : 0); }
void io(PayloadWriter& w, std::uint32_t v) { w.put_u32(v); }
void io(PayloadWriter& w, std::uint64_t v) { w.put_u64(v); }
void io(PayloadWriter& w, double v) { w.put_f64(v); }
void io(PayloadWriter& w, const std::string& v) { w.put_string(v); }
void io(PayloadWriter& w, const std::map<std::string, double>& v) {
  w.put_map(v);
}
void io(PayloadWriter& w, ErrorCode v) {
  w.put_u8(static_cast<std::uint8_t>(v));
}
void io(PayloadReader& r, bool& v) { v = r.get_u8() != 0; }
void io(PayloadReader& r, std::uint32_t& v) { v = r.get_u32(); }
void io(PayloadReader& r, std::uint64_t& v) { v = r.get_u64(); }
void io(PayloadReader& r, double& v) { v = r.get_f64(); }
void io(PayloadReader& r, std::string& v) { v = r.get_string(); }
void io(PayloadReader& r, std::map<std::string, double>& v) {
  v = r.get_map();
}
void io(PayloadReader& r, ErrorCode& v) {
  v = static_cast<ErrorCode>(r.get_u8());
}

template <typename Stream, typename... Field>
void each(Stream& s, Field&... fields) {
  (io(s, fields), ...);
}

// Each message's frame type and its fields in wire order: the one list
// both its encoder and its decoder walk.
template <typename Msg>
struct Wire;
template <>
struct Wire<HelloMsg> {
  static constexpr MsgType kType = MsgType::kHello;
  static void fields(auto& s, auto& m) { each(s, m.version, m.client_name); }
};
template <>
struct Wire<HelloOkMsg> {
  static constexpr MsgType kType = MsgType::kHelloOk;
  static void fields(auto& s, auto& m) { each(s, m.version, m.session_id); }
};
template <>
struct Wire<RegisterAppMsg> {
  static constexpr MsgType kType = MsgType::kRegisterApp;
  static void fields(auto& s, auto& m) {
    each(s, m.app, m.scenario, m.seed);
  }
};
template <>
struct Wire<RegisterOkMsg> {
  static constexpr MsgType kType = MsgType::kRegisterOk;
  static void fields(auto& s, auto& m) { each(s, m.op); }
};
template <>
struct Wire<BeginOpMsg> {
  static constexpr MsgType kType = MsgType::kBeginOp;
  static void fields(auto& s, auto& m) {
    each(s, m.op, m.data_tag, m.params, m.seq);
  }
};
template <>
struct Wire<core::ServiceDecision> {
  static constexpr MsgType kType = MsgType::kBeginOk;
  static void fields(auto& s, auto& m) {
    each(s, m.ok, m.from_model, m.plan, m.placement, m.fidelity,
         m.predicted_time_s, m.predicted_energy_j, m.log_utility, m.t);
  }
};
template <>
struct Wire<core::ServiceOpResult> {
  static constexpr MsgType kType = MsgType::kEndOk;
  static void fields(auto& s, auto& m) {
    each(s, m.ok, m.seq, m.time_s, m.energy_j, m.t);
  }
};
template <>
struct Wire<StatusOkMsg> {
  static constexpr MsgType kType = MsgType::kStatusOk;
  static void fields(auto& s, auto& m) {
    each(s, m.session.app, m.session.scenario, m.session.seed, m.session.op,
         m.session.ops_begun, m.session.ops_completed,
         m.session.op_in_progress, m.session.virtual_now, m.sessions_active,
         m.ops_served);
  }
};
template <>
struct Wire<ResumeMsg> {
  static constexpr MsgType kType = MsgType::kResume;
  static void fields(auto& s, auto& m) { each(s, m.session_id); }
};
template <>
struct Wire<ResumeOkMsg> {
  static constexpr MsgType kType = MsgType::kResumeOk;
  static void fields(auto& s, auto& m) {
    each(s, m.op, m.seq_begun, m.seq_completed);
  }
};
template <>
struct Wire<ErrorMsg> {
  static constexpr MsgType kType = MsgType::kError;
  static void fields(auto& s, auto& m) { each(s, m.code, m.message); }
};

template <typename Msg>
std::string encode(const Msg& m) {
  PayloadWriter w;
  Wire<Msg>::fields(w, m);
  return encode_frame(Wire<Msg>::kType, w.str());
}

template <typename Msg>
Msg decode(std::string_view payload) {
  PayloadReader r(payload);
  Msg m;
  Wire<Msg>::fields(r, m);
  r.expect_done();
  return m;
}

}  // namespace

std::string encode_hello(const HelloMsg& m) { return encode(m); }
HelloMsg decode_hello(std::string_view p) { return decode<HelloMsg>(p); }

std::string encode_hello_ok(const HelloOkMsg& m) { return encode(m); }
HelloOkMsg decode_hello_ok(std::string_view p) {
  return decode<HelloOkMsg>(p);
}

std::string encode_register_app(const RegisterAppMsg& m) { return encode(m); }
RegisterAppMsg decode_register_app(std::string_view p) {
  return decode<RegisterAppMsg>(p);
}

std::string encode_register_ok(const RegisterOkMsg& m) { return encode(m); }
RegisterOkMsg decode_register_ok(std::string_view p) {
  return decode<RegisterOkMsg>(p);
}

std::string encode_begin_op(const BeginOpMsg& m) { return encode(m); }
BeginOpMsg decode_begin_op(std::string_view p) {
  return decode<BeginOpMsg>(p);
}

std::string encode_begin_ok(const core::ServiceDecision& m) {
  return encode(m);
}
core::ServiceDecision decode_begin_ok(std::string_view p) {
  return decode<core::ServiceDecision>(p);
}

std::string encode_end_op(std::uint64_t seq) {
  PayloadWriter w;
  w.put_u64(seq);
  return encode_frame(MsgType::kEndOp, w.str());
}

std::uint64_t decode_end_op(std::string_view payload) {
  // An empty payload is the version-1 form, kept decodable so hand-rolled
  // clients (and the tests' minimal frames) still mean "end the pending op".
  if (payload.empty()) return 0;
  PayloadReader r(payload);
  const std::uint64_t seq = r.get_u64();
  r.expect_done();
  return seq;
}

std::string encode_end_ok(const core::ServiceOpResult& m) { return encode(m); }
core::ServiceOpResult decode_end_ok(std::string_view p) {
  return decode<core::ServiceOpResult>(p);
}

std::string encode_status() { return encode_frame(MsgType::kStatus, ""); }

std::string encode_status_ok(const StatusOkMsg& m) { return encode(m); }
StatusOkMsg decode_status_ok(std::string_view p) {
  return decode<StatusOkMsg>(p);
}

std::string encode_shutdown() { return encode_frame(MsgType::kShutdown, ""); }

std::string encode_shutdown_ok() {
  return encode_frame(MsgType::kShutdownOk, "");
}

std::string encode_resume(const ResumeMsg& m) { return encode(m); }
ResumeMsg decode_resume(std::string_view p) { return decode<ResumeMsg>(p); }

std::string encode_resume_ok(const ResumeOkMsg& m) { return encode(m); }
ResumeOkMsg decode_resume_ok(std::string_view p) {
  return decode<ResumeOkMsg>(p);
}

std::string encode_error(const ErrorMsg& m) { return encode(m); }
ErrorMsg decode_error(std::string_view p) { return decode<ErrorMsg>(p); }

void decode_empty(std::string_view payload, MsgType type) {
  if (!payload.empty()) {
    throw ProtocolError(std::string(to_token(type)) +
                        " must carry an empty payload");
  }
}

}  // namespace spectra::serve
