#include "serve/record.h"

#include <algorithm>
#include <cctype>
#include <charconv>
#include <cstddef>
#include <fstream>
#include <map>
#include <sstream>
#include <utility>

#include "obs/trace.h"
#include "util/assert.h"

namespace spectra::serve {
namespace {

// ---- a scanner for the record's own single-line JSON ---------------------
//
// Record lines are produced by obs::TraceEvent, so the grammar is a flat
// object of string / number / bool values plus one-level-deep objects of
// numbers. The scanner accepts exactly that.

class LineScanner {
 public:
  explicit LineScanner(const std::string& line, std::size_t lineno)
      : line_(line), lineno_(lineno) {
    expect('{');
    if (peek() == '}') {
      ++pos_;
      return;
    }
    for (;;) {
      std::string key = parse_string();
      expect(':');
      parse_value(key);
      const char c = take();
      if (c == '}') break;
      SPECTRA_REQUIRE(c == ',', context("expected ',' or '}'"));
    }
  }

  const std::string& str(const std::string& key) const {
    auto it = strings_.find(key);
    SPECTRA_REQUIRE(it != strings_.end(),
                    context("missing string field \"" + key + "\""));
    return it->second;
  }

  double num(const std::string& key) const {
    auto it = numbers_.find(key);
    SPECTRA_REQUIRE(it != numbers_.end(),
                    context("missing numeric field \"" + key + "\""));
    return it->second;
  }

  std::uint64_t uint(const std::string& key) const {
    const double v = num(key);
    SPECTRA_REQUIRE(v >= 0 && v == static_cast<double>(
                                       static_cast<std::uint64_t>(v)),
                    context("field \"" + key + "\" is not an integer"));
    return static_cast<std::uint64_t>(v);
  }

  const std::map<std::string, double>& object(const std::string& key) const {
    auto it = objects_.find(key);
    SPECTRA_REQUIRE(it != objects_.end(),
                    context("missing object field \"" + key + "\""));
    return it->second;
  }

 private:
  std::string context(const std::string& what) const {
    return "record line " + std::to_string(lineno_) + ": " + what;
  }

  char peek() const {
    SPECTRA_REQUIRE(pos_ < line_.size(), context("truncated line"));
    return line_[pos_];
  }

  char take() {
    const char c = peek();
    ++pos_;
    return c;
  }

  void expect(char c) {
    SPECTRA_REQUIRE(take() == c, context(std::string("expected '") + c + "'"));
  }

  std::string parse_string() {
    expect('"');
    std::string out;
    for (;;) {
      char c = take();
      if (c == '"') return out;
      if (c == '\\') {
        c = take();
        switch (c) {
          case '"':
          case '\\':
          case '/':
            out.push_back(c);
            break;
          case 'n':
            out.push_back('\n');
            break;
          case 't':
            out.push_back('\t');
            break;
          case 'r':
            out.push_back('\r');
            break;
          case 'b':
            out.push_back('\b');
            break;
          case 'f':
            out.push_back('\f');
            break;
          case 'u': {
            // TraceEvent only emits \u00XX for control bytes.
            SPECTRA_REQUIRE(pos_ + 4 <= line_.size(),
                            context("truncated \\u escape"));
            unsigned code = 0;
            auto [p, ec] = std::from_chars(
                line_.data() + pos_, line_.data() + pos_ + 4, code, 16);
            SPECTRA_REQUIRE(ec == std::errc() &&
                                p == line_.data() + pos_ + 4 && code < 256,
                            context("bad \\u escape"));
            pos_ += 4;
            out.push_back(static_cast<char>(code));
            break;
          }
          default:
            SPECTRA_REQUIRE(false, context("bad escape sequence"));
        }
      } else {
        out.push_back(c);
      }
    }
  }

  double parse_number() {
    const std::size_t start = pos_;
    while (pos_ < line_.size() &&
           (std::isdigit(static_cast<unsigned char>(line_[pos_])) ||
            line_[pos_] == '-' || line_[pos_] == '+' || line_[pos_] == '.' ||
            line_[pos_] == 'e' || line_[pos_] == 'E')) {
      ++pos_;
    }
    double v = 0.0;
    auto [p, ec] =
        std::from_chars(line_.data() + start, line_.data() + pos_, v);
    SPECTRA_REQUIRE(ec == std::errc() && p == line_.data() + pos_ &&
                        pos_ > start,
                    context("bad number"));
    return v;
  }

  void parse_value(const std::string& key) {
    const char c = peek();
    if (c == '"') {
      strings_[key] = parse_string();
    } else if (c == '{') {
      ++pos_;
      std::map<std::string, double>& obj = objects_[key];
      if (peek() == '}') {
        ++pos_;
        return;
      }
      for (;;) {
        std::string k = parse_string();
        expect(':');
        obj[k] = parse_number();
        const char d = take();
        if (d == '}') break;
        SPECTRA_REQUIRE(d == ',', context("expected ',' or '}' in object"));
      }
    } else if (c == 't' || c == 'f') {
      const char* word = c == 't' ? "true" : "false";
      for (const char* p = word; *p; ++p) expect(*p);
      numbers_[key] = c == 't' ? 1.0 : 0.0;
    } else {
      numbers_[key] = parse_number();
    }
  }

  const std::string& line_;
  std::size_t lineno_;
  std::size_t pos_ = 0;
  std::map<std::string, std::string> strings_;
  std::map<std::string, double> numbers_;
  std::map<std::string, std::map<std::string, double>> objects_;
};

}  // namespace

std::vector<std::string> split_lines(const std::string& text) {
  std::vector<std::string> lines;
  std::size_t start = 0;
  while (start < text.size()) {
    std::size_t end = text.find('\n', start);
    if (end == std::string::npos) end = text.size();
    if (end > start) lines.push_back(text.substr(start, end - start));
    start = end + 1;
  }
  return lines;
}

// ---- lifecycle events ----------------------------------------------------

bool is_lifecycle_event(const std::string& type) {
  return type == "serve.shed" || type == "serve.timeout" ||
         type == "serve.close" || type == "serve.drop" ||
         type == "serve.resume" || type == "serve.recovered";
}

// ---- write-ahead-log hygiene ---------------------------------------------

std::string read_record(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  SPECTRA_REQUIRE(in.good(), "cannot read record: " + path);
  std::ostringstream buf;
  buf << in.rdbuf();
  return buf.str();
}

std::size_t strip_partial_tail(std::string& text) {
  if (text.empty() || text.back() == '\n') return 0;
  const std::size_t cut = text.find_last_of('\n');
  const std::size_t keep = cut == std::string::npos ? 0 : cut + 1;
  const std::size_t dropped = text.size() - keep;
  text.resize(keep);
  return dropped;
}

// ---- rendering -----------------------------------------------------------

std::string render_session_line(std::uint64_t sid, double t,
                                const core::ServiceStatus& status) {
  return obs::TraceEvent("serve.session", t)
      .field("sid", static_cast<std::size_t>(sid))
      .field("app", status.app)
      .field("scenario", status.scenario)
      .field("seed", static_cast<std::size_t>(status.seed))
      .field("op", status.op)
      .to_json();
}

std::string render_begin_line(std::uint64_t sid, std::uint64_t seq,
                              const core::ServiceBeginRequest& request,
                              const core::ServiceDecision& decision) {
  return obs::TraceEvent("serve.begin", decision.t)
      .field("sid", static_cast<std::size_t>(sid))
      .field("seq", static_cast<std::size_t>(seq))
      .field("op", request.op)
      .field("data", request.data_tag)
      .field("params", request.params)
      .field("from_model", decision.from_model)
      .field("plan", decision.plan)
      .field("placement", decision.placement)
      .field("fidelity", decision.fidelity)
      .field("pred_time", decision.predicted_time_s)
      .field("pred_energy", decision.predicted_energy_j)
      .field("log_util", decision.log_utility)
      .to_json();
}

std::string render_end_line(std::uint64_t sid, std::uint64_t seq,
                            const core::ServiceOpResult& result) {
  return obs::TraceEvent("serve.end", result.t)
      .field("sid", static_cast<std::size_t>(sid))
      .field("seq", static_cast<std::size_t>(seq))
      .field("ok", result.ok)
      .field("time", result.time_s)
      .field("energy", result.energy_j)
      .to_json();
}

// ---- canonical form ------------------------------------------------------

namespace {

enum class Event { kSession, kBegin, kEnd };

// Calls fn(line, scanner, event, lineno) for each core line in order.
// Lifecycle lines are skipped; any other type is an error.
template <typename Fn>
void for_each_event(const std::vector<std::string>& lines, Fn&& fn) {
  for (std::size_t lineno = 1; lineno <= lines.size(); ++lineno) {
    const std::string& line = lines[lineno - 1];
    const LineScanner s(line, lineno);
    const std::string& type = s.str("type");
    if (is_lifecycle_event(type)) continue;
    SPECTRA_REQUIRE(type == "serve.session" || type == "serve.begin" ||
                        type == "serve.end",
                    "record line " + std::to_string(lineno) +
                        ": unknown event type " + type);
    fn(line, s,
       type == "serve.session" ? Event::kSession
       : type == "serve.begin" ? Event::kBegin
                               : Event::kEnd,
       lineno);
  }
}

}  // namespace

std::string canonicalize_record(const std::string& text) {
  struct Keyed {
    std::uint64_t sid;
    std::uint64_t order;  // the session line, then begin/end by seq
    const std::string* line;
  };
  const std::vector<std::string> lines = split_lines(text);
  std::vector<Keyed> keyed;
  keyed.reserve(lines.size());
  for_each_event(lines, [&](const std::string& line, const LineScanner& s,
                            Event event, std::size_t) {
    Keyed k{s.uint("sid"), 0, &line};
    if (event != Event::kSession) {
      k.order = 2 * s.uint("seq") - (event == Event::kBegin ? 1 : 0);
    }
    keyed.push_back(k);
  });
  std::stable_sort(keyed.begin(), keyed.end(),
                   [](const Keyed& a, const Keyed& b) {
                     if (a.sid != b.sid) return a.sid < b.sid;
                     return a.order < b.order;
                   });
  std::string out;
  out.reserve(text.size());
  for (const Keyed& k : keyed) {
    out.append(*k.line);
    out.push_back('\n');
  }
  return out;
}

// ---- parsing -------------------------------------------------------------

std::vector<ReplaySession> parse_record(const std::string& text) {
  std::map<std::uint64_t, ReplaySession> sessions;
  for_each_event(split_lines(text), [&](const std::string&,
                                        const LineScanner& s, Event event,
                                        std::size_t lineno) {
    const std::uint64_t sid = s.uint("sid");
    const std::string where = "record line " + std::to_string(lineno) + ": ";
    if (event == Event::kSession) {
      SPECTRA_REQUIRE(!sessions.count(sid),
                      where + "duplicate session " + std::to_string(sid));
      ReplaySession& sess = sessions[sid];
      sess.sid = sid;
      sess.app = s.str("app");
      sess.scenario = s.str("scenario");
      sess.seed = s.uint("seed");
      sess.op = s.str("op");
      return;
    }
    auto it = sessions.find(sid);
    SPECTRA_REQUIRE(it != sessions.end(),
                    where + (event == Event::kBegin ? "begin" : "end") +
                        " before session " + std::to_string(sid));
    ReplaySession& sess = it->second;
    const std::uint64_t seq = s.uint("seq");
    if (event == Event::kBegin) {
      SPECTRA_REQUIRE(seq == sess.ops.size() + 1,
                      where + "out-of-order seq " + std::to_string(seq));
      ReplayOp op;
      op.seq = seq;
      op.request.op = s.str("op");
      op.request.data_tag = s.str("data");
      op.request.params = s.object("params");
      sess.ops.push_back(std::move(op));
    } else {
      SPECTRA_REQUIRE(seq == sess.ops.size() && !sess.ops.empty() &&
                          !sess.ops.back().has_end,
                      where + "end without matching begin, seq " +
                          std::to_string(seq));
      sess.ops.back().has_end = true;
    }
  });
  std::vector<ReplaySession> out;
  out.reserve(sessions.size());
  for (auto& [sid, sess] : sessions) out.push_back(std::move(sess));
  return out;
}

}  // namespace spectra::serve
