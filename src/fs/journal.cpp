#include "fs/journal.h"

#include "util/assert.h"

namespace spectra::fs {

bool JournalTxn::fully_pushed() const {
  for (const auto& f : files) {
    if (!f.pushed) return false;
  }
  return true;
}

std::uint64_t ReintegrationJournal::begin(const std::string& volume,
                                          util::Seconds now,
                                          std::vector<JournalFileRecord> files) {
  SPECTRA_REQUIRE(!has_open_txn(),
                  "reintegration journal: transaction already active");
  SPECTRA_REQUIRE(!files.empty(),
                  "reintegration journal: empty transaction");
  JournalTxn txn;
  txn.id = next_id_++;
  txn.volume = volume;
  txn.started_at = now;
  txn.files = std::move(files);
  txns_.push_back(std::move(txn));
  while (txns_.size() > kMaxHistory &&
         txns_.front().state != TxnState::kActive) {
    txns_.pop_front();
  }
  return txns_.back().id;
}

JournalTxn& ReintegrationJournal::find(std::uint64_t txn_id) {
  for (auto& t : txns_) {
    if (t.id == txn_id) return t;
  }
  SPECTRA_REQUIRE(false, "reintegration journal: unknown transaction");
  return txns_.back();  // unreachable
}

void ReintegrationJournal::mark_pushed(std::uint64_t txn_id,
                                       const std::string& path) {
  JournalTxn& txn = find(txn_id);
  SPECTRA_REQUIRE(txn.state == TxnState::kActive,
                  "reintegration journal: mark_pushed on a closed txn");
  for (auto& f : txn.files) {
    if (f.path == path) {
      f.pushed = true;
      return;
    }
  }
  SPECTRA_REQUIRE(false,
                  "reintegration journal: " + path + " not in transaction");
}

void ReintegrationJournal::commit(std::uint64_t txn_id) {
  JournalTxn& txn = find(txn_id);
  SPECTRA_REQUIRE(txn.state == TxnState::kActive,
                  "reintegration journal: commit on a closed txn");
  txn.state = TxnState::kCommitted;
  ++committed_;
}

void ReintegrationJournal::abort(std::uint64_t txn_id) {
  JournalTxn& txn = find(txn_id);
  SPECTRA_REQUIRE(txn.state == TxnState::kActive,
                  "reintegration journal: abort on a closed txn");
  txn.state = TxnState::kAborted;
  ++aborted_;
}

bool ReintegrationJournal::has_open_txn() const {
  return open_txn() != nullptr;
}

const JournalTxn* ReintegrationJournal::open_txn() const {
  if (txns_.empty()) return nullptr;
  const JournalTxn& last = txns_.back();
  return last.state == TxnState::kActive ? &last : nullptr;
}

}  // namespace spectra::fs
