// Content-addressed result cache: the pipeline is deterministic per
// (sequencing graph, pipeline options), so repeated requests for the same
// assay should be a lookup, not an 11-second MILP re-solve.
//
// Keying. make_cache_key() derives a *canonical* text form of the request:
// operations are sorted by name and referenced by name (so the same graph
// built with its operations added in a different order -- different ids --
// hashes equal), and every pipeline_options field is printed with
// round-trip-exact doubles (so any option change hashes different). The
// 64-bit FNV-1a hash of that text addresses the entry; the full canonical
// text is kept alongside and compared exactly on every lookup, so a hash
// collision degrades to a miss, never to a wrong result.
//
// Tiers. An in-memory LRU tier (bounded by entry count AND by a byte
// budget charged from stored document sizes) sits in front of an optional
// on-disk tier (one file per key, <dir>/<16-hex-digest>.json, written
// atomically via rename). Disk entries are the api/serialize.h flow
// documents themselves -- self-describing and human-inspectable; on a disk
// hit the document is deserialized, its key re-derived from the embedded
// (graph, options) and verified, and the entry promoted into memory.
//
// Zero-copy hits. Entries are immutable and handed out as
// shared_ptr<const entry>: a hit shares the stored flow_result and
// document bytes with the cache (and with every other concurrent hit)
// instead of deep-copying them -- the serve front end writes the document
// bytes straight from the shared entry.
//
// Only fully completed (status::ok) results are cached; best-effort
// time_limit/cancelled outcomes and failures are always recomputed.
//
// Single-flight. Concurrent misses on the same key would all pay the
// solve (a cache stampede): lookup_or_lead() elects one leader per key
// and blocks the other callers until the leader stores (they then return
// the entry as a hit) or aborts (the next waiter takes over leadership).
// This is what makes "only the first occurrence of each (graph, options)
// pays solver time" hold under a concurrent request stream.
//
// Thread safety: every public member is safe to call concurrently.
#pragma once

#include <condition_variable>
#include <cstdint>
#include <functional>
#include <list>
#include <memory>
#include <mutex>
#include <optional>
#include <string>
#include <unordered_map>
#include <unordered_set>

#include "api/pipeline.h"

namespace transtore::api {

/// Canonical identity of one (graph, options) request.
struct cache_key {
  std::string canonical;   // name-canonical text (hash + exact-match basis)
  /// Id-faithful graph text. Two graphs that differ only in operation
  /// insertion order share `canonical` (and hash) but not `identity`; a
  /// cache hit additionally requires identity equality, because the cached
  /// result addresses operations by id -- serving it to an id-permuted
  /// twin would silently mis-map every operation. The twin recomputes (and
  /// takes over the entry) instead.
  std::string identity;
  std::uint64_t hash = 0;  // FNV-1a of `canonical`

  /// 16-hex-digit digest (the on-disk file stem).
  [[nodiscard]] std::string digest() const;
};

/// Derive the canonical key. Invariant under operation insertion order when
/// operation names are unique (they are for every built-in assay and every
/// graph accepted by assay/io.h); graphs with duplicate names fall back to
/// id-order canonicalization, which is safe but order-sensitive.
[[nodiscard]] cache_key make_cache_key(const assay::sequencing_graph& graph,
                                       const pipeline_options& options);

/// Same key extended by a scenario tag (e.g. a fault-recovery scenario's
/// canonical description). An empty tag yields exactly the plain key, so
/// pre-existing keys and disk files stay stable.
[[nodiscard]] cache_key make_cache_key(const assay::sequencing_graph& graph,
                                       const pipeline_options& options,
                                       const std::string& scenario);

struct result_cache_options {
  /// Entries held by the in-memory LRU tier.
  std::size_t memory_entries = 64;
  /// Directory of the on-disk tier; empty disables it. Created on first
  /// store if missing.
  std::string disk_dir;
  /// Entries held by the (memory-only) negative tier: structurally failed
  /// outcomes (infeasible / invalid_input) that are deterministic for the
  /// key and therefore pointless to re-solve. 0 disables negative caching.
  std::size_t negative_entries = 256;
  /// Byte budget of the in-memory tier, each entry charged the size of its
  /// stored document. 0 = no byte bound (entry count still applies).
  /// Least-recently-used entries are evicted until the tier fits; the most
  /// recently stored entry is always kept, so a single document larger
  /// than the budget still caches (the budget is then exceeded by exactly
  /// that one entry).
  std::size_t memory_bytes = 0;
};

struct cache_stats {
  std::uint64_t lookups = 0;
  std::uint64_t memory_hits = 0;
  std::uint64_t disk_hits = 0;
  /// Includes lookups that gave up waiting on a concurrent solve (bypass).
  std::uint64_t misses = 0;
  std::uint64_t stores = 0;
  std::uint64_t evictions = 0;
  /// Bytes released by memory-tier evictions (document sizes of evicted
  /// entries; the on-disk copies, when a disk tier exists, remain).
  std::uint64_t bytes_evicted = 0;
  /// Memory hits that coalesced onto a concurrent leader's in-flight solve
  /// (a subset of memory_hits: the waiter paid a wait, not a solve).
  std::uint64_t coalesced_hits = 0;
  /// Disk entries that could not be read, parsed, or key-verified (treated
  /// as misses).
  std::uint64_t disk_errors = 0;
  /// Negative tier (counted separately from the positive tiers above;
  /// negative probes do not touch `lookups`/`misses`).
  std::uint64_t negative_hits = 0;
  std::uint64_t negative_stores = 0;
  std::uint64_t negative_evictions = 0;
  /// Point-in-time occupancy, captured under the same lock as the counters
  /// above: stats() is one atomic snapshot, so `lookups == memory_hits +
  /// disk_hits + misses` and `entries`/`bytes` agree with the counters no
  /// matter what runs concurrently.
  std::uint64_t entries = 0;
  std::uint64_t bytes = 0;
  std::uint64_t negative_entries = 0;
};

class result_cache {
public:
  explicit result_cache(result_cache_options options = {});

  /// One cached result: the serialized flow document (served verbatim by
  /// the service front end, hence byte-identical replays) plus the
  /// deserialized value for in-process reuse.
  struct entry {
    std::shared_ptr<const std::string> document;
    std::shared_ptr<const flow_result> flow;
  };
  /// How entries are handed out: shared and immutable. Every hit on one
  /// key returns the same entry object -- no per-hit copy of the
  /// flow_result or the document bytes.
  using entry_ptr = std::shared_ptr<const entry>;

  /// Memory tier first, then disk. A hit refreshes LRU recency. Does not
  /// join or lead flights (a concurrent solve of the same key reads as a
  /// plain miss) -- the solve paths use lookup_or_lead instead. Null on a
  /// miss.
  [[nodiscard]] entry_ptr lookup(const cache_key& key);

  /// Outcome of a single-flight lookup.
  enum class flight {
    hit,    // `out` holds the entry (cached, from disk, or coalesced onto
            // a concurrent leader's freshly stored result)
    leader, // miss; the caller owns the solve and MUST end the flight via
            // store() (success) or abort_flight() (failure)
    bypass, // `give_up` fired while coalescing; the caller proceeds on its
            // own (an optional store() is still welcome) and must NOT
            // call abort_flight()
  };

  /// Single-flight lookup (see header comment). `give_up` is polled while
  /// waiting on a concurrent leader; return true to stop waiting (e.g. a
  /// fired cancel token or an expired deadline).
  [[nodiscard]] flight lookup_or_lead(const cache_key& key, entry_ptr& out,
                                      const std::function<bool()>& give_up);

  /// Insert (or refresh) an entry in both tiers; completes a flight on
  /// this key and wakes its waiters. Never throws: disk-tier failures are
  /// counted in stats().disk_errors and skipped.
  void store(const cache_key& key, entry e);

  /// Leader's failure path: end the flight without storing. The longest-
  /// waiting caller inherits leadership.
  void abort_flight(const cache_key& key);

  /// A cached structural failure: the status and message the solver is
  /// guaranteed to reproduce for this key.
  struct negative_entry {
    status code = status::infeasible;
    std::string message;
  };

  /// Probe the negative tier (memory-only, bounded, LRU). Not part of the
  /// single-flight protocol: callers probe before lookup_or_lead.
  [[nodiscard]] std::optional<negative_entry> lookup_negative(
      const cache_key& key);

  /// Record a structural failure for this key. Only infeasible and
  /// invalid_input outcomes are accepted (anything else is dropped --
  /// time_limit/cancelled/internal are not deterministic for the key).
  void store_negative(const cache_key& key, negative_entry e);

  [[nodiscard]] cache_stats stats() const;
  [[nodiscard]] std::size_t size() const;
  [[nodiscard]] const result_cache_options& options() const {
    return options_;
  }

private:
  struct slot {
    std::string canonical;
    std::string identity;
    entry_ptr value;
  };
  using lru_list = std::list<slot>;

  /// Document size charged against the byte budget.
  [[nodiscard]] static std::size_t charge(const entry_ptr& e) {
    return e && e->document ? e->document->size() : 0;
  }

  /// All three expect lock_ held.
  void touch(lru_list::iterator it);
  void insert_locked(const cache_key& key, entry_ptr e);
  void evict_to_budget_locked();
  [[nodiscard]] entry_ptr disk_lookup(const cache_key& key);
  void disk_store(const cache_key& key, const entry& e);
  [[nodiscard]] std::string disk_path(const cache_key& key) const;

  struct negative_slot {
    std::string canonical;
    std::string identity;
    negative_entry value;
  };
  using negative_list = std::list<negative_slot>;

  result_cache_options options_;
  mutable std::mutex lock_;
  lru_list order_; // front = most recent
  std::size_t bytes_ = 0; // sum of charge() over order_
  std::unordered_map<std::string, lru_list::iterator> index_; // by canonical
  negative_list negative_order_; // front = most recent
  std::unordered_map<std::string, negative_list::iterator> negative_index_;
  std::unordered_set<std::string> inflight_; // keys being solved by a leader
  std::condition_variable flight_done_;
  cache_stats stats_;
  bool disk_dir_ready_ = false;
};

} // namespace transtore::api
