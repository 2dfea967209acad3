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
/// is keyed by:
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
/// The store is in-memory first: runIPCP stages fresh entries during a
/// run and commits them only when the run finished un-degraded, so a
/// tripped budget can never poison the cache. SummaryCache does no file
/// I/O of its own: `load`/`save` move the whole store through a
/// ContentStore (support/ContentStore.h) as one versioned `ipcp-cache-v2`
/// JSON document, named by `storeName` (source name + options
/// fingerprint), whose payload is checksummed with the same StableHash.
/// The driver's and suitecheck's `--cache-dir` and the service's
/// write-behind tier all call this one pair, so they share one naming
/// rule, one on-disk layout, and one recovery tool (`ipcp_serverd
/// --scrub-store`). A truncated, version-mismatched, or bit-flipped
/// document fails validation atomically — in the store's content check
/// or in the codec — and the run proceeds cold (counted by
/// cache_load_failures).
///
/// Expressions and variable references cross the serialization boundary
/// as a tiny prefix grammar (`C5`, `F0`, `G:x`, `(+ F0 C1)`, `(u- F0)`,
/// `_` for bottom) re-interned through the run's SymExprContext; the
/// codec is exposed statically so the differential tests and the fuzzer
/// can attack it directly.
///
//===----------------------------------------------------------------------===//

#ifndef IPCP_CORE_SUMMARYCACHE_H
#define IPCP_CORE_SUMMARYCACHE_H

#include "core/JumpFunction.h"
#include "core/Options.h"

#include <string>
#include <unordered_map>
#include <utility>
#include <vector>

namespace ipcp {

class ContentStore;
class Procedure;

/// One procedure's persisted summary. String-typed throughout: entries
/// are resolved against the *current* module only after their keys
/// validate, so a stale entry can never dangle into freed IR.
struct CacheEntry {
  std::string Name;
  std::string BodyHash;
  std::string SCCKey;
  std::string CallersHash;

  /// MOD summary: modifiable formal indices, modified global names, and
  /// extended (referenced) global names, all in their canonical orders.
  /// Validated against the current ModRef results on reuse.
  std::vector<unsigned> ModFormals;
  std::vector<std::string> ModGlobals;
  std::vector<std::string> ExtGlobals;

  /// Return jump functions as (variable ref, expression) pairs, sorted
  /// by ref string.
  std::vector<std::pair<std::string, std::string>> ReturnJFs;

  /// Forward jump functions, one record per call site in body order.
  struct SiteJFs {
    std::string Callee;
    std::vector<std::string> Formals;
    std::vector<std::pair<std::string, std::string>> Globals;
  };
  std::vector<SiteJFs> ForwardJFs;

  /// VAL(p) at fixpoint: non-top entries as (variable ref, value) pairs
  /// sorted by ref, where a value is "c:<n>" or "bot". Present only when
  /// the run reached a propagation fixpoint.
  bool HasVal = false;
  std::vector<std::pair<std::string, std::string>> Val;

  /// Record-stage replay data (counts only; substitution facts are
  /// deliberately not cached — see docs/INCREMENTAL.md).
  bool HasRecord = false;
  uint64_t ConstantRefs = 0;
  uint64_t IrrelevantConstants = 0;
  uint64_t SCCPConstantValues = 0;
  uint64_t SCCPExecutableBlocks = 0;
};

/// The summary store. One instance serves one (source, options) pair;
/// reusing it across runIPCP calls on the same module gives warm runs
/// without touching disk.
class SummaryCache {
public:
  /// The ContentStore name of the summaries of \p SourceName under
  /// \p Opts: source name + options fingerprint, with no tool, session or
  /// shard component, so every tool sharing a store resolves every other
  /// tool's persisted summaries.
  static std::string storeName(const std::string &SourceName,
                               const IPCPOptions &Opts);

  /// Replaces the entries with the summaries \p Store holds for
  /// \p SourceName under \p Opts; true on a warm start. A name the store
  /// does not hold is a plain cold start. An object the store rejects, or
  /// a document the codec rejects (parse error, schema, options or
  /// checksum mismatch), is a cold start that loadFailed() reports.
  /// \p Guard, when non-null, bounds the parse against the shared
  /// deadline.
  bool load(ContentStore &Store, const std::string &SourceName,
            const IPCPOptions &Opts, ResourceGuard *Guard = nullptr);

  /// Puts the entries into \p Store under storeName() once a run has
  /// committed; returns false only when the store write fails.
  bool save(ContentStore &Store, const std::string &SourceName,
            const IPCPOptions &Opts, std::string *Error = nullptr);

  /// String-level codec used by load/save; exposed for the differential
  /// tests and the fuzzer's corruption invariant.
  bool loadFromString(const std::string &Text, const IPCPOptions &Opts,
                      ResourceGuard *Guard = nullptr);
  std::string serialize(const IPCPOptions &Opts) const;

  /// True from a rejected load until the next run begins; that run
  /// reports it as cache_load_failures, and later runs do not.
  bool loadFailed() const { return LoadFailed; }

  size_t size() const { return Entries.size(); }
  const CacheEntry *find(const std::string &Name) const;

  /// Run lifecycle, driven by runIPCP: beginRun clears the staging area
  /// and the load failure, stage() collects this run's fresh entries, and
  /// finishRun(true) replaces the store with them (making this object
  /// warm for the next run); finishRun(false) — a degraded run — discards
  /// the staging area and keeps the previous store untouched.
  void beginRun();
  void stage(CacheEntry E);
  void finishRun(bool Commit);

  /// True once a run committed entries (what save() persists).
  bool committed() const { return RunCommitted; }

  /// The option axes that change analysis results, as a string baked
  /// into the cache key and the on-disk payload.
  static std::string optionsFingerprint(const IPCPOptions &Opts);

  /// The one cache rule: false for IntraproceduralOnly, the binding-graph
  /// propagator and the contexts engine, which runIPCP runs cold. The
  /// FIFO schedule is modeled but adopts only jump-function summaries:
  /// no cached VAL, no record-stage replay.
  static bool models(const IPCPOptions &Opts);

  /// Variable reference codec: "F<i>" (formal of the owning procedure,
  /// by position), "G:<name>" (global), "L:<name>" (local). Resolution
  /// returns null on any mismatch with the current module.
  static std::string varRef(const Variable *V);
  static Variable *resolveVarRef(const std::string &Ref, Procedure *Owner);

  /// VAL value codec: "c:<n>" or "bot"; parseValue rejects anything else.
  static std::string valueString(LatticeValue V);
  static bool parseValue(const std::string &Text, LatticeValue &V);

  /// Expression codec (prefix, space-separated): "_" bottom, "C<n>"
  /// constant, variable refs as above, "(<op> L R)" binary with the
  /// operator's source spelling, "(u- X)" / "(u! X)" unary. parseExpr
  /// re-interns through \p Ctx (idempotent on canonical trees) and sets
  /// \p Ok false on malformed input; a well-formed "_" yields null with
  /// \p Ok true.
  static std::string exprString(const SymExpr *E);
  static const SymExpr *parseExpr(const std::string &Text, Procedure *Owner,
                                  SymExprContext &Ctx, bool *Ok);

private:
  std::unordered_map<std::string, CacheEntry> Entries;
  std::unordered_map<std::string, CacheEntry> Staged;
  bool LoadFailed = false;
  bool RunCommitted = false;
};

} // namespace ipcp

#endif // IPCP_CORE_SUMMARYCACHE_H
