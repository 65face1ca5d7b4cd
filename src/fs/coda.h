// Coda-like distributed file system substrate.
//
// The paper relies on Coda for remote-execution correctness: files are
// cached on clients, modifications are buffered locally under weak
// connectivity, and buffered modifications must be *reintegrated* (at volume
// granularity) to the file servers before a remote operation may observe
// them. Spectra's file-cache monitor and consistency manager are built on
// exactly these semantics, so this module reproduces them:
//
//   * FileServer  — authoritative store: file metadata + version numbers.
//   * CodaClient  — per-machine cache: LRU over a byte budget, fetch on
//     miss (timed over the simulated network), dirty buffering of writes,
//     volume-granularity reintegration, access tracing for monitors, and a
//     cache-state enumeration call whose cost grows with cache occupancy
//     (the paper measures 5.2 ms on an empty cache vs 359.6 ms on a full
//     one, caused by Coda writing the entire cache state to a temp file).
//
// Version numbers make staleness observable: a read returns the version it
// saw, so tests can prove that remote execution without reintegration reads
// stale data and that Spectra's consistency manager prevents this.
#pragma once

#include <deque>
#include <list>
#include <map>
#include <optional>
#include <set>
#include <string>
#include <vector>

#include "fs/journal.h"
#include "hw/machine.h"
#include "net/network.h"
#include "util/stats.h"
#include "util/units.h"

namespace spectra::fs {

using hw::MachineId;
using util::Bytes;
using util::BytesPerSec;
using util::Seconds;

struct FileInfo {
  std::string path;
  Bytes size = 0.0;
  std::string volume;
};

// A single file access observed during an operation; consumed by the
// file-cache state monitor.
struct Access {
  std::string path;
  Bytes size = 0.0;
  bool write = false;
  bool cache_miss = false;
};

class FileServer {
 public:
  explicit FileServer(MachineId host) : host_(host) {}

  MachineId host() const { return host_; }

  // Create (or replace) a file. Version starts at 1.
  void create(const FileInfo& info);

  bool exists(const std::string& path) const;
  const FileInfo& info(const std::string& path) const;
  std::uint64_t version(const std::string& path) const;

  // Applied by reintegration: installs new content/size, bumps version.
  void install(const std::string& path, Bytes size, std::uint64_t version);

  std::vector<FileInfo> files_in_volume(const std::string& volume) const;

  // Copy the authoritative store from the same server in another world.
  void copy_state_from(const FileServer& src) { files_ = src.files_; }

 private:
  struct Entry {
    FileInfo info;
    std::uint64_t version = 1;
  };
  MachineId host_;
  std::map<std::string, Entry> files_;
};

struct CodaClientConfig {
  Bytes cache_capacity = 64.0 * 1024 * 1024;
  // Per-file fetch/reintegration RPC overhead on top of the bulk transfer.
  Seconds per_file_overhead = 0.02;
  // Reintegration ships the CML (log records) as well as data; effective
  // bytes = data * this factor.
  double reintegration_overhead = 1.3;
  // Coda's own prior estimate of its fetch rate, used until it has observed
  // real fetches (this is Coda's estimator, not Spectra's).
  BytesPerSec nominal_fetch_rate = 100.0 * 1024;
  // Cache-state enumeration cost model (the "inefficient interface" the
  // paper calls out): seconds = base + per_entry * cached_entries.
  Seconds cache_dump_base = 0.0002;
  Seconds cache_dump_per_entry = 0.00006;
};

class CodaClient {
 public:
  // `self_id` is the id this machine was registered under in `network`.
  CodaClient(MachineId self_id, hw::Machine& machine, net::Network& network,
             FileServer& server, CodaClientConfig config = {});

  MachineId self() const { return self_id_; }
  // Machine hosting this client's file server.
  MachineId file_server_host() const { return server_.host(); }

  // ---- cache state -----------------------------------------------------
  bool is_cached(const std::string& path) const;
  // Cached AND current with respect to the server (not stale).
  bool is_fresh(const std::string& path) const;
  std::size_t cached_count() const { return cache_.size(); }
  Bytes cached_bytes() const { return cached_bytes_; }

  // Instantly warm the cache (experiment setup, not timed).
  void warm(const std::string& path);
  void evict(const std::string& path);
  void evict_all();

  // Enumerate the cache, charging the client CPU for the enumeration the
  // way Coda's temp-file interface does. Used by the file-cache monitor.
  std::vector<FileInfo> dump_cache_state();

  // The paper measures the dump-everything interface at 359.6 ms on a full
  // cache and remarks "We plan to replace this interface with a more
  // efficient implementation" (§4.4). This is that implementation: an
  // incremental interface returning only the changes since a previously
  // returned generation, at cost proportional to the delta. When the change
  // journal no longer reaches back to `since`, a full resync is returned
  // (full-dump cost).
  struct CacheDelta {
    std::uint64_t generation = 0;  // pass back as `since` next time
    bool full_resync = false;      // added_or_updated is the complete cache
    std::vector<FileInfo> added_or_updated;
    std::vector<std::string> removed;
  };
  CacheDelta dump_cache_state_delta(std::uint64_t since);

  // Coda's estimate of the rate at which uncached data will be fetched.
  BytesPerSec estimated_fetch_rate() const;

  // ---- file operations (timed) ------------------------------------------
  // Read a file: fetches from the file server on miss or staleness
  // (advancing the clock), touches LRU, records the access when tracing.
  // Returns the version observed.
  std::uint64_t read(const std::string& path);

  // Modify a file locally: content is buffered in the cache and marked
  // dirty; the new version is invisible to other machines until the volume
  // is reintegrated. `new_size` of nullopt keeps the current size.
  void write(const std::string& path, std::optional<Bytes> new_size = {});

  // ---- dirty state / reintegration ---------------------------------------
  bool has_dirty_files() const { return !dirty_.empty(); }
  bool is_dirty(const std::string& path) const { return dirty_.count(path); }
  std::vector<FileInfo> dirty_files() const;
  std::vector<std::string> dirty_volumes() const;
  Bytes dirty_bytes_in_volume(const std::string& volume) const;

  // Push all buffered modifications in `volume` to the file server
  // (volume-granularity, as Coda does). Returns elapsed time. The push is
  // journaled (see fs/journal.h): an interrupted push is replayed or rolled
  // back by recover_reintegration before the next one starts.
  Seconds reintegrate_volume(const std::string& volume);
  Seconds reintegrate_all();

  // Resolve an interrupted reintegration, if any: re-push surviving
  // un-pushed records when the file server is reachable (idempotently
  // skipping files already installed), or abort the transaction when it is
  // not — un-pushed modifications stay buffered as dirty cache entries.
  // Returns elapsed (virtual) time; 0 when there was nothing to recover.
  Seconds recover_reintegration();

  const ReintegrationJournal& reintegration_log() const {
    return reintegration_log_;
  }

  // Structural consistency check for the chaos harness: cache accounting,
  // LRU bijection, dirty-set and journal invariants. Returns human-readable
  // violations; empty means consistent.
  std::vector<std::string> check_invariants() const;

  // ---- access tracing (for the file-cache monitor) -----------------------
  // Traces nest: the operation-wide monitor trace and a local RPC dispatch
  // trace may be active simultaneously; every access is recorded into all
  // active traces, and stop_trace pops the most recently started one.
  void start_trace();
  std::vector<Access> stop_trace();

  // Copy cache/journal/dirty state from the same client in another world.
  // Rebuilds the per-entry LRU iterators against this client's own list
  // (a memberwise copy would alias the source's). No trace may be active
  // on either side.
  void copy_state_from(const CodaClient& src);

 private:
  struct CacheEntry {
    FileInfo info;
    std::uint64_t version = 0;
    std::list<std::string>::iterator lru_it;
  };

  void touch_lru(const std::string& path);
  void insert_entry(const FileInfo& info, std::uint64_t version);
  void evict_lru_until_fits(Bytes incoming);
  void record_access(const std::string& path, Bytes size, bool write,
                     bool miss);

  MachineId self_id_;
  hw::Machine& machine_;
  net::Network& network_;
  FileServer& server_;
  CodaClientConfig config_;

  void journal_event(bool removed, const FileInfo& info);

  std::map<std::string, CacheEntry> cache_;
  std::list<std::string> lru_;  // front = most recent
  Bytes cached_bytes_ = 0.0;
  std::set<std::string> dirty_;

  // Change journal for the incremental cache-state interface.
  struct CacheEvent {
    std::uint64_t generation = 0;
    bool removed = false;
    FileInfo info;
  };
  std::deque<CacheEvent> journal_;
  std::uint64_t generation_ = 0;
  std::uint64_t journal_start_gen_ = 1;  // oldest generation still recorded
  static constexpr std::size_t kMaxJournal = 1024;

  util::Ewma fetch_rate_{0.3};

  // Write-ahead journal for reintegration pushes (distinct from journal_,
  // the cache-event journal above).
  ReintegrationJournal reintegration_log_;

  std::vector<std::vector<Access>> traces_;  // stack of active traces
};

}  // namespace spectra::fs
