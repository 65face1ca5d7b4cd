#include "serve/replay.h"

#include <algorithm>
#include <vector>

#include "serve/client.h"
#include "serve/protocol.h"
#include "serve/record.h"

namespace spectra::serve {
namespace {

std::string replay_over_wire(const std::vector<ReplaySession>& sessions,
                             const std::string& host, std::uint16_t port) {
  std::string out;
  for (const ReplaySession& sess : sessions) {
    BlockingClient client(host, port);
    client.hello("replay");
    client.register_app(sess.app, sess.scenario, sess.seed);
    const StatusOkMsg st = client.status();
    out += render_session_line(sess.sid, st.session.virtual_now, st.session) +
           "\n";
    for (const ReplayOp& op : sess.ops) {
      BeginOpMsg msg;
      msg.op = op.request.op;
      msg.data_tag = op.request.data_tag;
      msg.params = op.request.params;
      const core::ServiceDecision d = client.begin_op(msg);
      out += render_begin_line(sess.sid, op.seq, op.request, d) + "\n";
      if (op.has_end) {
        const core::ServiceOpResult r = client.end_op();
        out += render_end_line(sess.sid, r.seq, r) + "\n";
      }
    }
  }
  return out;
}

// Counts the record's sessions and ops, and marks the first canonical line
// where the replayed record differs from it.
ReplayResult check(const std::string& record,
                   const std::vector<ReplaySession>& sessions,
                   const std::string& replayed) {
  ReplayResult result;
  result.sessions = sessions.size();
  for (const ReplaySession& sess : sessions) result.ops += sess.ops.size();
  const std::string expected = canonicalize_record(record);
  const std::string actual = canonicalize_record(replayed);
  if (expected == actual) {
    result.identical = true;
    return result;
  }
  const std::vector<std::string> exp_lines = split_lines(expected);
  const std::vector<std::string> act_lines = split_lines(actual);
  const std::size_t n = std::max(exp_lines.size(), act_lines.size());
  for (std::size_t i = 0; i < n; ++i) {
    const std::string& e = i < exp_lines.size() ? exp_lines[i] : std::string();
    const std::string& a = i < act_lines.size() ? act_lines[i] : std::string();
    if (e != a) {
      result.mismatch_line = i + 1;
      result.expected_line = e;
      result.actual_line = a;
      break;
    }
  }
  return result;
}

}  // namespace

ReplayResult replay_in_process(
    const std::string& record, const core::ServiceFactory& factory,
    const std::function<void(SessionState&&)>& keep) {
  const std::vector<ReplaySession> sessions = parse_record(record);
  std::string out;
  for (const ReplaySession& sess : sessions) {
    SessionState state;
    state.sid = sess.sid;
    state.service = factory(sess.app, sess.scenario, sess.seed);
    const core::ServiceStatus st = state.service->status();
    out += render_session_line(sess.sid, st.virtual_now, st) + "\n";
    for (const ReplayOp& op : sess.ops) {
      state.last_decision = state.service->begin_op(op.request);
      state.seq_begun = op.seq;
      out += render_begin_line(sess.sid, op.seq, op.request,
                               state.last_decision) +
             "\n";
      if (op.has_end) {
        state.last_result = state.service->end_op();
        state.seq_completed = state.last_result.seq;
        out += render_end_line(sess.sid, state.seq_completed,
                               state.last_result) +
               "\n";
      }
    }
    if (keep) keep(std::move(state));
  }
  return check(record, sessions, out);
}

ReplayResult run_replay(const ReplayConfig& config,
                        const core::ServiceFactory& factory) {
  const std::string record = read_record(config.record_path);
  if (config.port < 0) return replay_in_process(record, factory);
  const std::vector<ReplaySession> sessions = parse_record(record);
  return check(record, sessions,
               replay_over_wire(sessions, config.host,
                                static_cast<std::uint16_t>(config.port)));
}

}  // namespace spectra::serve
