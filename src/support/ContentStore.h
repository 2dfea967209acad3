//===- support/ContentStore.h - Content-addressed blob store ----*- C++ -*-===//
//
// Part of the ipcp project.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The content-addressed disk tier that holds persisted summary caches
/// for every tool: the driver's and suitecheck's `--cache-dir` and the
/// service's write-behind tier (docs/INCREMENTAL.md, docs/SCALING.md).
/// Two maps, both plain files:
///
///  * `objects/<key>.blob` — immutable blobs named by the StableHash of
///    their bytes (`contentKey`). Writing the same bytes twice is a
///    dedup hit, not a second file: identical session caches persisted
///    by different sessions (or different tools analyzing the same
///    program under the same options) collapse to one object. Objects
///    are written once via temp-file + rename, so readers never see a
///    partial blob, and a reread is verified against its own name —
///    the store detects bit rot instead of serving it.
///
///  * `refs/<hash-of-name>.ref` — a mutable pointer from a logical name
///    (for summaries: source name + options fingerprint, see
///    SummaryCache::storeName — deliberately tool- and
///    session-independent) to the current object key. Rebinds are
///    atomic renames, so a crash leaves either the old or the new
///    pointer, never a torn one.
///
/// The split is what makes the tier shared: any reader resolves any
/// logical name to the same object, so a session evicted from the
/// daemon's memory warm-starts there again (or in a restarted daemon, or
/// in a command-line tool) with zero jump-function evaluations.
/// Thread-safe; all operations are also safe across processes sharing
/// the directory (atomic renames only).
///
/// Crash safety (docs/ROBUSTNESS.md): opening a store runs a recovery
/// *scrub* (unless `Options::ScrubOnOpen` is off, as in the one-program
/// command-line tools) — stale `.tmp.*` files left by a crash mid-write
/// are swept, every object is re-hashed and corrupt ones are moved aside
/// under `quarantine/` (never deleted: they are forensic evidence), and
/// refs whose object is gone are dropped so `get` degrades to a clean
/// miss instead of an integrity failure. `get` applies the same repair to
/// the one object it reads, so a blob that rots while a store is open is
/// quarantined on first use and rewritten by the next put.
/// `Options::Durable` additionally fsyncs data before the rename and the
/// directory after it, so a renamed object survives power loss, not just
/// process death.
///
//===----------------------------------------------------------------------===//

#ifndef IPCP_SUPPORT_CONTENTSTORE_H
#define IPCP_SUPPORT_CONTENTSTORE_H

#include <array>
#include <atomic>
#include <cstdint>
#include <string>

namespace ipcp {

/// Content-addressed blob store with named references.
class ContentStore {
public:
  struct Options {
    /// fsync data before rename and the parent directory after it.
    bool Durable;
    /// Run the recovery scrub when the store directory already exists.
    bool ScrubOnOpen;
    // Explicit default constructor (not member initializers): Options()
    // is a default argument of the enclosing class's constructor, which
    // member initializers cannot serve.
    Options() : Durable(false), ScrubOnOpen(true) {}
  };

  /// Uses \p Root as the store directory; created lazily on first put.
  /// When the directory already exists and \p Opts.ScrubOnOpen is set,
  /// runs `scrub()` before serving (counted in `stats()`).
  explicit ContentStore(std::string Root, Options Opts = Options());

  ContentStore(const ContentStore &) = delete;
  ContentStore &operator=(const ContentStore &) = delete;

  /// Stores \p Bytes under its content key and returns the key. An
  /// object that already exists is not rewritten (a dedup hit). On I/O
  /// failure returns an empty string and fills \p Error.
  std::string put(const std::string &Bytes, std::string *Error = nullptr);

  /// Atomically points \p LogicalName at object \p Key.
  bool bind(const std::string &LogicalName, const std::string &Key,
            std::string *Error = nullptr);

  /// put + bind in one call; returns the key or "".
  std::string putNamed(const std::string &LogicalName,
                       const std::string &Bytes,
                       std::string *Error = nullptr);

  /// What get() found under a logical name.
  enum class Lookup {
    Found,    ///< the object, verified against its content key
    Missing,  ///< no ref, an unreadable ref, or a ref whose object is gone
    Rejected, ///< an object over MaxObjectBytes, unreadable, or corrupt
  };

  /// Objects larger than this are rejected before a byte is read: no
  /// stored summary comes close, and refusing early keeps a corrupt or
  /// hostile file from ballooning the caller's parse.
  static constexpr uint64_t MaxObjectBytes = 64u << 20;

  /// Resolves \p LogicalName and loads its object into \p BytesOut,
  /// verifying the bytes against the content key. A rejected object is
  /// counted as an integrity failure and moved to `quarantine/`, so the
  /// ref dangles (the next get is a clean miss) and the next put of those
  /// bytes writes the object again instead of counting a dedup hit.
  Lookup get(const std::string &LogicalName, std::string &BytesOut);

  /// What one recovery pass found and repaired.
  struct ScrubReport {
    uint64_t TmpSwept = 0;        ///< stale `.tmp.*` files removed
    uint64_t ObjectsChecked = 0;  ///< blobs re-hashed
    uint64_t Quarantined = 0;     ///< corrupt blobs moved to quarantine/
    uint64_t RefsChecked = 0;     ///< refs resolved
    uint64_t DanglingDropped = 0; ///< refs to missing objects removed
    bool Ok = true;               ///< false when a repair itself failed
  };

  /// Recovery pass over the whole store: sweep temp litter, verify and
  /// quarantine objects, drop dangling refs. Safe on a live store (all
  /// repairs are unlink/rename); a missing root is an empty, Ok report.
  ScrubReport scrub();

  /// Lifetime counters, all monotone, declared once each in
  /// support/StoreStats.def. `DedupHits` counts puts that found their
  /// object already present; `IntegrityFailures` counts gets that
  /// rejected their object. `Quarantined` counts objects moved aside by
  /// those gets and by every `scrub()` run on this handle; the other
  /// scrub counters accumulate across the scrubs alone.
  enum Stat : unsigned {
#define IPCP_STORE_STAT(Id, Key) Id,
#include "support/StoreStats.def"
#undef IPCP_STORE_STAT
    NumStats
  };
  /// The JSON key of each counter, indexed by Stat.
  static const char *const StatKeys[NumStats];
  using Stats = std::array<uint64_t, NumStats>;
  Stats stats() const;

  std::string objectPath(const std::string &Key) const;
  std::string refPath(const std::string &LogicalName) const;
  std::string quarantinePath(const std::string &Key) const;

  /// The content key of \p Bytes: the hex StableHash (FNV-1a 64) of the
  /// byte string — the same primitive that keys the summary cache.
  static std::string contentKey(const std::string &Bytes);

private:
  void bump(Stat S, uint64_t N = 1) {
    Counters[S].fetch_add(N, std::memory_order_relaxed);
  }
  /// Moves object \p Key aside under quarantine/.
  bool quarantine(const std::string &Key);

  std::string Root;
  Options Opts;
  std::array<std::atomic<uint64_t>, NumStats> Counters{};
};

} // namespace ipcp

#endif // IPCP_SUPPORT_CONTENTSTORE_H
