// Replay a recorded daemon session and check decision identity.
//
// `spectra replay <record>` re-issues every recorded request — per
// session, in sequence order — and re-renders the record lines from the
// replies it gets back. Because sessions are a pure function of (app,
// scenario, seed, request sequence), the re-rendered record must match the
// original byte-for-byte in canonical form (serve/record.h); any
// divergence is a determinism regression in the decision path.
//
// Two execution modes:
//   * in-process (port < 0): requests drive DecisionService sessions built
//     by the supplied factory directly — no sockets, used by the golden
//     test and the default CLI path;
//   * against a live daemon (port >= 0): requests go over the wire; the
//     replies carry enough (virtual times, decisions, results) to render
//     identical lines client-side. Session ids are taken from the record,
//     so replay does not depend on the daemon's accept order.
//
// The in-process mode is also how the daemon recovers its write-ahead log
// (`serve --resume`): the sessions it re-drives are kept and parked, and a
// log that does not re-render byte for byte is refused.
#pragma once

#include <cstdint>
#include <functional>
#include <memory>
#include <string>

#include "core/decision_service.h"

namespace spectra::serve {

struct ReplayConfig {
  std::string record_path;
  std::string host = "127.0.0.1";
  int port = -1;  // < 0 = in-process replay via the factory
};

struct ReplayResult {
  bool identical = false;
  std::uint64_t sessions = 0;
  std::uint64_t ops = 0;
  // First divergence in canonical line order (1-based; 0 when identical).
  std::size_t mismatch_line = 0;
  std::string expected_line;
  std::string actual_line;
};

// Throws util::ContractError on unreadable or malformed records.
// `factory` is only used for in-process replay.
ReplayResult run_replay(const ReplayConfig& config,
                        const core::ServiceFactory& factory);

// One session's state, as the daemon keeps it (live or parked) and as
// re-driving its recorded requests rebuilds it: the service, the seqs begun
// and completed, and the replies to the last begin and end, from which a
// re-issued request is answered without re-executing.
struct SessionState {
  std::uint64_t sid = 0;
  std::unique_ptr<core::DecisionService> service;
  std::uint64_t seq_begun = 0;
  std::uint64_t seq_completed = 0;
  core::ServiceDecision last_decision;
  core::ServiceOpResult last_result;
};

// In-process replay of a record's text (no partial tail): re-drives every
// recorded session, in session order, through a fresh service from
// `factory`, re-renders its lines and compares them with `record` in
// canonical form. Each session is handed to `keep`, when set, after its
// last request. Throws util::ContractError on malformed records.
ReplayResult replay_in_process(
    const std::string& record, const core::ServiceFactory& factory,
    const std::function<void(SessionState&&)>& keep = {});

}  // namespace spectra::serve
