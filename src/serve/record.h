// Operation-trace records for the serve daemon.
//
// Every session registration, begin_fidelity_op decision, and
// end_fidelity_op result is rendered as one deterministic JSONL line
// (obs::TraceEvent — shortest round-trip doubles, insertion-order fields,
// virtual timestamps only). A record file is the concatenation of those
// lines in socket-arrival order.
//
// Arrival order interleaves concurrent sessions non-deterministically, so
// equality is defined on the *canonical* form: lines stable-sorted by
// (session id, operation sequence), which is a total order because each
// session runs one operation at a time. canonicalize_record() produces it;
// replay compares canonical bytes. A single-session record is already
// canonical.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "core/decision_service.h"

namespace spectra::serve {

// ---- rendering (the daemon's write path) ---------------------------------

// {"type":"serve.session","t":...,"sid":...,"app":...,"scenario":...,
//  "seed":...,"op":...} — emitted when register_app succeeds; `t` is the
// session world's virtual time after training.
std::string render_session_line(std::uint64_t sid, double t,
                                const core::ServiceStatus& status);

// {"type":"serve.begin","t":...,"sid":...,"seq":...,"op":...,"data":...,
//  "params":{...},"from_model":...,"plan":...,"placement":...,
//  "fidelity":{...},"pred_time":...,"pred_energy":...,"log_util":...}
std::string render_begin_line(std::uint64_t sid, std::uint64_t seq,
                              const core::ServiceBeginRequest& request,
                              const core::ServiceDecision& decision);

// {"type":"serve.end","t":...,"sid":...,"seq":...,"ok":...,"time":...,
//  "energy":...}
std::string render_end_line(std::uint64_t sid, std::uint64_t seq,
                            const core::ServiceOpResult& result);

// ---- lifecycle events ----------------------------------------------------

// Besides the three core record events above, the daemon writes
// operational lifecycle lines (sheds, timeouts, forced closes, dropped
// replies, resumes) into the same log so its self-protection actions are
// observable next to the traffic they affected. These are metadata: the
// canonical form and the replay parser skip them, because session replay
// is a pure function of the core lines alone. The set is closed — an
// unknown "serve.*" type is still a hard error, so corruption cannot hide
// behind the skip rule.
bool is_lifecycle_event(const std::string& type);

// ---- write-ahead-log hygiene ---------------------------------------------

// The whole record file; throws util::ContractError when it cannot be read.
std::string read_record(const std::string& path);

// A SIGKILL can leave a partial final line in the log. Drops any trailing
// bytes after the last newline (in place) and returns how many were
// removed, so `--resume` can parse the intact prefix and truncate the
// file before appending to it.
std::size_t strip_partial_tail(std::string& text);

// ---- canonical form ------------------------------------------------------

// The non-empty lines of `text`, without their newlines.
std::vector<std::string> split_lines(const std::string& text);

// Stable-sorts the record's lines by (sid, operation order) so two records
// of the same logical session set compare byte-for-byte regardless of how
// socket arrivals interleaved. Lifecycle lines are skipped. Throws
// util::ContractError on lines that do not parse as record events.
std::string canonicalize_record(const std::string& text);

// ---- parsing (the replay read path) --------------------------------------

struct ReplayOp {
  std::uint64_t seq = 0;
  core::ServiceBeginRequest request;
  bool has_end = false;  // a crash can truncate the final end line
};

struct ReplaySession {
  std::uint64_t sid = 0;
  std::string app;
  std::string scenario;
  std::uint64_t seed = 1;
  std::string op;
  std::vector<ReplayOp> ops;  // ordered by seq
};

// Parses a record into its sessions (ordered by sid). Lifecycle lines are
// skipped. Throws util::ContractError on malformed lines or inconsistent
// sequences.
std::vector<ReplaySession> parse_record(const std::string& text);

}  // namespace spectra::serve
