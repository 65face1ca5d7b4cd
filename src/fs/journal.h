// Write-ahead journal for crash-consistent reintegration (ISSUE 4).
//
// Reintegration pushes a volume's buffered modifications file by file over
// a faultable network; a partition or crash mid-push used to leave no
// record of how far the push got. The journal fixes that with standard WAL
// discipline:
//
//   begin()        — record the full intent (every file, size, version)
//                    before any bytes move; the transaction is kActive.
//   mark_pushed()  — after a file is durable at the server.
//   commit()       — every file pushed; the transaction is kCommitted.
//   abort()        — the push was abandoned (server unreachable at
//                    recovery); un-pushed modifications remain buffered as
//                    dirty cache entries, pushed ones are durable, so
//                    rollback is purely a bookkeeping transition.
//
// CodaClient::recover_reintegration replays an interrupted (still-kActive)
// transaction at the next opportunity: records already at the server are
// acknowledged idempotently, surviving un-pushed records are re-pushed, and
// superseded ones (a newer local write bumped the version) are left to the
// next reintegration of their volume. Journal bookkeeping itself costs zero
// virtual time — only the replayed transfers are timed.
#pragma once

#include <cstdint>
#include <deque>
#include <string>
#include <vector>

#include "util/units.h"

namespace spectra::fs {

enum class TxnState { kActive, kCommitted, kAborted };

struct JournalFileRecord {
  std::string path;
  util::Bytes size = 0.0;
  std::uint64_t version = 0;
  bool pushed = false;
};

struct JournalTxn {
  std::uint64_t id = 0;
  std::string volume;
  util::Seconds started_at = 0.0;
  TxnState state = TxnState::kActive;
  std::vector<JournalFileRecord> files;

  bool fully_pushed() const;
};

class ReintegrationJournal {
 public:
  // Starts a transaction; at most one may be active at a time.
  std::uint64_t begin(const std::string& volume, util::Seconds now,
                      std::vector<JournalFileRecord> files);
  void mark_pushed(std::uint64_t txn_id, const std::string& path);
  void commit(std::uint64_t txn_id);
  void abort(std::uint64_t txn_id);

  bool has_open_txn() const;
  // Null when no transaction is active.
  const JournalTxn* open_txn() const;

  // Bounded history, oldest first; the open transaction (if any) is last.
  const std::deque<JournalTxn>& transactions() const { return txns_; }
  std::size_t committed() const { return committed_; }
  std::size_t aborted() const { return aborted_; }
  // Transactions that were recovered after an interruption (replayed or
  // rolled back), for tests and soak reporting.
  std::size_t recovered() const { return recovered_; }
  void note_recovery() { ++recovered_; }

 private:
  JournalTxn& find(std::uint64_t txn_id);

  std::deque<JournalTxn> txns_;
  std::uint64_t next_id_ = 1;
  std::size_t committed_ = 0;
  std::size_t aborted_ = 0;
  std::size_t recovered_ = 0;
  static constexpr std::size_t kMaxHistory = 64;
};

}  // namespace spectra::fs
