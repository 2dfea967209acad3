//===- core/SummaryCache.h - Persistent per-procedure summaries -*- C++ -*-===//
//
// Part of the ipcp project.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The persistent summary store behind incremental analysis
/// (docs/INCREMENTAL.md). One CacheEntry holds everything the pipeline
/// derives per procedure — MOD summary, return and forward jump
/// functions, the VAL set at fixpoint, and the record-stage counts — and
/// is keyed by three 64-bit StableHashes:
///
///  * `BodyHash`: the StableHash of the pristine lowered body;
///  * `SCCKey`: a hash over the body hashes of the procedure's entire
///    call-graph SCC plus the *content* hashes (MOD + return jump
///    functions — exactly what callers consume) of every external direct
///    callee. An edit that leaves a callee's summary content unchanged
///    therefore cuts off early instead of invalidating every transitive
///    caller;
///  * `CallersHash`: a hash over (name, body hash) of the direct
///    callers, which catches added or deleted call sites whose absence
///    the callee-directed keys cannot see (the cached VAL set depends on
///    who calls you).
///
/// The store is in-memory first, and decoded: an entry holds its keys as
/// integers, its variables as formal positions or indices into the
/// cache's name table, and its expressions as trees over those leaves.
/// Nothing in it points into a module, so a stale entry can never dangle
/// into freed IR; runIPCP re-binds the entries of the components that hit
/// to the current module. The entry layout — globals in name order,
/// return jump functions in document spelling order, VAL rows — is known
/// here alone: runIPCP converts through globalNames, seal and
/// readVal/writeVal. Names stay interned until a run begins with the
/// table more than twice its size after the last load or compaction; it
/// then re-interns just the names the entries use. A long session's table
/// thus stays within twice the largest name set its entries have used,
/// plus one run's new names, whatever its edit history, and names a
/// degraded run interned do not pile up either.
///
/// A run changes nothing until it commits, and it commits only when it
/// finished un-degraded, so neither a tripped budget nor a run that
/// throws can poison the cache. The commit carries every hit procedure's
/// entry forward (refreshing only its callers hash, VAL and record
/// counts) and stores fresh entries for the rest; afterwards the store
/// holds exactly the module's procedures.
///
/// SummaryCache does no file I/O of its own: `load`/`save` move the whole
/// store through a ContentStore (support/ContentStore.h) as one versioned
/// `ipcp-cache-v2` JSON document, named by `storeName` (source name +
/// options fingerprint), whose payload is checksummed with the same
/// StableHash. The driver's and suitecheck's `--cache-dir` and the
/// service's write-behind tier all call this one pair, so they share one
/// naming rule, one on-disk layout, and one recovery tool (`ipcp_serverd
/// --scrub-store`). The text codec runs only inside `serialize` and
/// `loadFromString`, and to hash the content of fresh entries. A
/// truncated, version-mismatched, or bit-flipped document, or one with an
/// entry that does not decode, fails validation atomically — in the
/// store's content check or in the codec — and the run proceeds cold
/// (counted by cache_load_failures).
///
/// In the document, expressions and variable references are a tiny
/// prefix grammar (`C5`, `F0`, `G:x`, `(+ F0 C1)`, `(u- F0)`, `_` for
/// bottom); a document decodes only when every string is in the
/// canonical form serialize writes, so a loaded entry re-serializes to
/// the bytes it was read from.
///
//===----------------------------------------------------------------------===//

#ifndef IPCP_CORE_SUMMARYCACHE_H
#define IPCP_CORE_SUMMARYCACHE_H

#include "core/JumpFunction.h"
#include "core/Options.h"

#include <functional>
#include <memory>
#include <span>
#include <string>
#include <string_view>
#include <unordered_map>
#include <utility>
#include <vector>

namespace ipcp {

class ContentStore;
class Variable;
class VariableSet;

/// A variable a summary names, independent of any module: a formal of
/// the owning procedure by position, or a global or local by name.
struct SummaryVar {
  enum class Kind : uint8_t { Formal, Global, Local };
  Kind K = Kind::Formal;
  /// The formal's position, or the name's index in the cache's name
  /// table (SummaryCache::name).
  uint32_t Index = 0;
};

/// One node of a summary expression. An entry's nodes form one pool in
/// which every node follows its operands, in the order a left-to-right
/// post-order walk of each expression visits them.
struct SummaryNode {
  SymExpr::Kind K = SymExpr::Kind::Const;
  BinaryOp BinOp = BinaryOp::Add;
  UnaryOp UnOp = UnaryOp::Neg;
  ConstantValue C = 0; ///< Const
  SummaryVar Var;      ///< Formal (any variable leaf)
  uint32_t L = 0;      ///< Binary and Unary: pool index of the operand
  uint32_t R = 0;      ///< Binary: pool index of the right operand
};

/// One procedure's summary. Its keys and summaries are fixed when the
/// entry is built; Run is what the last committed run found for the
/// procedure and is refreshed by every commit.
struct CacheEntry {
  /// A summary expression: the pool index of its root, or bottom.
  static constexpr uint32_t Bottom = ~0u;

  uint64_t BodyHash = 0;
  uint64_t SCCKey = 0;
  /// What callers consume (MOD summary + return jump functions), the
  /// hash their SCCKeys include. Not persisted: recomputed on load.
  uint64_t ContentHash = 0;

  /// MOD summary: modifiable formal indices (ascending, as ModRef lists
  /// them), and modified and extended (referenced) globals as name
  /// indices sorted by name. Checked against the current ModRef results
  /// on reuse.
  std::vector<unsigned> ModFormals;
  std::vector<uint32_t> ModGlobals;
  std::vector<uint32_t> ExtGlobals;

  /// The expression pool of the jump functions below.
  std::vector<SummaryNode> Nodes;

  /// Return jump functions, sorted by their variable's document spelling.
  std::vector<std::pair<SummaryVar, uint32_t>> ReturnJFs;

  /// Forward jump functions, one record per call site in body order:
  /// the callee (a name index), one expression per actual, and one per
  /// extended global of the callee in its ValLayout order.
  struct SiteJFs {
    uint32_t Callee = 0;
    std::vector<uint32_t> Formals;
    std::vector<std::pair<SummaryVar, uint32_t>> Globals;
  };
  std::vector<SiteJFs> ForwardJFs;

  /// Record-stage replay data (counts only; substitution facts are
  /// deliberately not cached — see docs/INCREMENTAL.md).
  struct RecordCounts {
    uint64_t ConstantRefs = 0;
    uint64_t IrrelevantConstants = 0;
    uint64_t SCCPConstantValues = 0;
    uint64_t SCCPExecutableBlocks = 0;
  };

  struct RunState {
    uint64_t CallersHash = 0;
    /// VAL(p) at fixpoint as a row over the entry's extended formals:
    /// the formals by position (the document omits top values, so a
    /// loaded row ends at the last non-top formal), then one value per
    /// ExtGlobals entry. Present only when the run reached a propagation
    /// fixpoint.
    bool HasVal = false;
    std::vector<LatticeValue> ValFormals;
    std::vector<LatticeValue> ValGlobals;
    bool HasRecord = false;
    RecordCounts Record;
  };
  RunState Run;
};

/// The summary store. One instance serves one (source, options) pair;
/// reusing it across runIPCP calls on the same module gives warm runs
/// without touching disk.
class SummaryCache {
public:
  /// A name-table index no name has.
  static constexpr uint32_t NoName = ~0u;

  /// The ContentStore name of the summaries of \p SourceName under
  /// \p Opts: source name + options fingerprint, with no tool or session
  /// component, so every tool sharing a store resolves every other tool's
  /// persisted summaries.
  static std::string storeName(const std::string &SourceName,
                               const IPCPOptions &Opts);

  /// Replaces the entries with the summaries \p Store holds for
  /// \p SourceName under \p Opts; true on a warm start. A name the store
  /// does not hold is a plain cold start. An object the store rejects, or
  /// a document the codec rejects (parse error, schema, options or
  /// checksum mismatch, an entry that does not decode), is a cold start
  /// that loadFailed() reports. \p Guard, when non-null, bounds the parse
  /// against the shared deadline.
  bool load(ContentStore &Store, const std::string &SourceName,
            const IPCPOptions &Opts, ResourceGuard *Guard = nullptr);

  /// Puts the entries into \p Store under storeName() once a run has
  /// committed; returns false only when the store write fails.
  bool save(ContentStore &Store, const std::string &SourceName,
            const IPCPOptions &Opts, std::string *Error = nullptr);

  /// The document codec used by load/save; exposed for the differential
  /// tests and the fuzzer's corruption invariant.
  bool loadFromString(const std::string &Text, const IPCPOptions &Opts,
                      ResourceGuard *Guard = nullptr);
  std::string serialize(const IPCPOptions &Opts) const;

  /// True from a rejected load until the next run begins; that run
  /// reports it as cache_load_failures, and later runs do not.
  bool loadFailed() const { return LoadFailed; }

  /// Entries held.
  size_t size() const;

  /// The name table: procedure, callee, global and local names, each
  /// interned once. Indices stay valid until the next run begins, which
  /// re-interns just the names the entries use whenever the table has
  /// more than doubled since the last load or compaction.
  uint32_t findName(std::string_view Name) const;
  uint32_t intern(std::string_view Name);
  const std::string &name(uint32_t Index) const { return Names[Index]; }
  size_t nameCount() const { return Names.size(); }

  /// The entry of the procedure named by \p NameIndex, or null.
  const CacheEntry *entry(uint32_t NameIndex) const {
    return NameIndex < Entries.size() ? Entries[NameIndex].get() : nullptr;
  }

  /// Encoding of fresh entries: \p V as a summary variable of its owner
  /// (interning its name), and \p E (null: bottom) appended to
  /// \p Entry's pool; returns the root.
  SummaryVar var(const Variable *V);
  uint32_t addExpr(CacheEntry &Entry, const SymExpr *E);

  /// The names of \p Set, interned, in the order an entry keeps its
  /// ModGlobals and ExtGlobals in (by name).
  std::vector<uint32_t> globalNames(const VariableSet &Set);

  /// Completes a fresh entry's summaries: orders its return jump
  /// functions as entries keep them (by document spelling) and stores its
  /// content hash.
  void seal(CacheEntry &Entry) const;

  /// A procedure's ValLayout row — \p NumFormals formals by position,
  /// then the globals of \p Ext in ID order — to and from an entry's VAL
  /// row. readVal fills \p Row, and returns false when \p Entry holds no
  /// VAL or one that does not fit the procedure.
  bool readVal(const CacheEntry &Entry, size_t NumFormals,
               const VariableSet &Ext, std::span<LatticeValue> Row) const;
  static void writeVal(std::span<const LatticeValue> Row, size_t NumFormals,
                       const VariableSet &Ext, CacheEntry::RunState &Run);

  /// One procedure of a committed run: its name index, a rebuilt entry
  /// or null to carry the current entry of that name forward, and the
  /// run's findings for it.
  struct CommittedProc {
    uint32_t Name = NoName;
    std::unique_ptr<CacheEntry> Fresh;
    CacheEntry::RunState Run;
  };

  /// Run lifecycle, driven by runIPCP: beginRun clears the load failure
  /// and compacts the name table when it is due; commit, called only by a
  /// run that finished un-degraded, makes the entries exactly \p Procs
  /// (making this object warm for the next run). A run that never
  /// commits leaves the entries as they were.
  void beginRun();
  void commit(std::vector<CommittedProc> Procs);

  /// True once a run committed entries (what save() persists).
  bool committed() const { return RunCommitted; }

  /// The option axes that change analysis results, as a string baked
  /// into the cache key and the on-disk payload.
  static std::string optionsFingerprint(const IPCPOptions &Opts);

  /// The one cache rule: false for IntraproceduralOnly and the contexts
  /// engine, which runIPCP runs cold.
  static bool models(const IPCPOptions &Opts);

private:
  /// ContentHash of \p Entry: its MOD summary and return jump functions
  /// in their document spelling.
  uint64_t contentHash(const CacheEntry &Entry) const;

  /// Re-interns the names the entries use into a fresh table.
  void compactNames();

  std::vector<std::string> Names;
  /// Hashes a name and a view of one alike, so lookups by view copy
  /// nothing.
  struct NameHash {
    using is_transparent = void;
    size_t operator()(std::string_view S) const {
      return std::hash<std::string_view>()(S);
    }
  };
  std::unordered_map<std::string, uint32_t, NameHash, std::equal_to<>>
      NameIndex;
  /// By name index; null for names no entry has.
  std::vector<std::unique_ptr<CacheEntry>> Entries;
  /// Names.size() after the last load or compaction.
  size_t CompactNames = 0;
  bool LoadFailed = false;
  bool RunCommitted = false;
};

} // namespace ipcp

#endif // IPCP_CORE_SUMMARYCACHE_H
