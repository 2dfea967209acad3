//===- tests/IncrementalTests.cpp - Warm-vs-cold differential layer -------===//
//
// Part of the ipcp project.
//
//===----------------------------------------------------------------------===//
//
// The soundness argument for the incremental summary cache
// (docs/INCREMENTAL.md) is differential: a warm run — whatever mix of
// adopted summaries, cached VAL sets, and replayed record stages it
// lands on — must produce a normalized "ipcp-report-v1" document that is
// byte-identical to a cold run of the same module. This file drives that
// comparison over:
//
//  - every program in examples/programs/,
//  - the twelve-program benchmark suite,
//  - a seeded generator corpus, and
//  - single-procedure mutants analyzed against the *stale* cache of
//    their original (the invalidation paths, including MOD changes that
//    must propagate to callers),
//
// for well over 200 distinct programs per run, plus the corruption and
// lifecycle properties: truncated / version-mismatched / bit-flipped
// cache files degrade to a cold run (never crash, never alter results),
// mismatched options miss the cache entirely, and a degraded run can
// never poison the store.
//
//===----------------------------------------------------------------------===//

#include "TestUtil.h"

#include "analysis/CallGraph.h"
#include "core/Pipeline.h"
#include "core/Report.h"
#include "core/SummaryCache.h"
#include "ir/Instructions.h"
#include "support/ContentStore.h"
#include "support/FileIO.h"
#include "support/Json.h"
#include "support/StableHash.h"
#include "workload/Generator.h"
#include "workload/Study.h"

#include <gtest/gtest.h>

#include <cstring>
#include <filesystem>
#include <fstream>
#include <memory>
#include <optional>
#include <string>
#include <vector>

using namespace ipcp;
using namespace ipcp::test;

namespace {

/// A result's report with everything a warm run may legitimately change
/// (timings, cache block, volatile work counters) stripped.
std::string normalized(const IPCPResult &Res) {
  JsonValue Doc = resultToJson(Res);
  normalizeReportForDiff(Doc);
  return Doc.dump(2);
}

/// The core differential check on one module: a cache-populating cold
/// run, the warm rerun behind it, and a cache-less reference must agree
/// on the normalized report — and the warm run must actually have been
/// warm (every procedure a hit, at least one VAL set adopted, no jump
/// function evaluated).
void expectWarmEqualsCold(Module &M, const std::string &Label) {
  IPCPResult Plain = runIPCP(M);

  SummaryCache Cache;
  IPCPResult Cold = runIPCP(M, {}, nullptr, &Cache);
  IPCPResult Warm = runIPCP(M, {}, nullptr, &Cache);

  std::string Reference = normalized(Plain);
  EXPECT_EQ(Reference, normalized(Cold)) << Label << ": populating run";
  EXPECT_EQ(Reference, normalized(Warm)) << Label << ": warm run";

  EXPECT_EQ(Cold.Stats.get("cache_hits"), 0u) << Label;
  EXPECT_GT(Cold.Stats.get("cache_misses"), 0u) << Label;
  EXPECT_EQ(Warm.Stats.get("cache_misses"), 0u) << Label;
  EXPECT_GT(Warm.Stats.get("cache_hits"), 0u) << Label;
  EXPECT_GT(Warm.Stats.get("cache_val_adopted"), 0u) << Label;
  EXPECT_EQ(Warm.Stats.get("prop_evaluations"), 0u) << Label;
}

/// The stale-cache differential check: analyze \p Mutant against the
/// cache populated from \p Original. Whatever the invalidation logic
/// decides to keep or rebuild, the normalized report must match a cold
/// run of the mutant.
void expectStaleWarmEqualsCold(Module &Original, Module &Mutant,
                               const std::string &Label) {
  SummaryCache Cache;
  runIPCP(Original, {}, nullptr, &Cache);

  IPCPResult Warm = runIPCP(Mutant, {}, nullptr, &Cache);
  IPCPResult Cold = runIPCP(Mutant);
  EXPECT_EQ(normalized(Cold), normalized(Warm)) << Label;
}

/// Prepends `print 9;` to procedure index \p Victim of a clone of \p M:
/// a body change whose summary content is unchanged (the early-cutoff
/// case).
std::unique_ptr<Module> withPrintPrepended(const Module &M, size_t Victim) {
  std::unique_ptr<Module> Mut = M.clone();
  Procedure *P = Mut->procedures()[Victim % Mut->procedures().size()].get();
  P->getEntryBlock()->insertAtTop(P->create<PrintInst>(
      Mut->nextInstId(), SourceLoc(), Mut->getConstant(9)));
  return Mut;
}

/// Prepends `g = 7;` (first scalar global) to procedure index \p Victim
/// of a clone of \p M: grows MOD(p), so the summary *content* changes
/// and the invalidation must reach every caller. Returns null when the
/// module has no scalar global.
std::unique_ptr<Module> withGlobalStorePrepended(const Module &M,
                                                 size_t Victim) {
  std::unique_ptr<Module> Mut = M.clone();
  Variable *Global = nullptr;
  for (Variable *G : Mut->globals())
    if (G->isScalar()) {
      Global = G;
      break;
    }
  if (!Global)
    return nullptr;
  Procedure *P = Mut->procedures()[Victim % Mut->procedures().size()].get();
  P->getEntryBlock()->insertAtTop(P->create<StoreInst>(
      Mut->nextInstId(), SourceLoc(), Global, Mut->getConstant(7)));
  return Mut;
}

//===----------------------------------------------------------------------===//
// Differential equivalence: examples, suite, generated corpus, mutants
//===----------------------------------------------------------------------===//

TEST(Incremental, ExamplePrograms) {
  unsigned Analyzed = 0;
  for (const auto &Entry :
       std::filesystem::directory_iterator(IPCP_EXAMPLES_DIR)) {
    if (Entry.path().extension() != ".mf")
      continue;
    std::string Source, Error;
    ASSERT_TRUE(readFileToString(Entry.path().string(), Source, &Error))
        << Error;
    DiagnosticsEngine Diags;
    std::optional<Program> Prog = parseAndCheck(Source, Diags);
    if (!Prog)
      continue; // e.g. bad_syntax.mf — frontend rejection is its own test
    std::unique_ptr<Module> M = lowerProgram(*Prog);
    expectWarmEqualsCold(*M, Entry.path().filename().string());
    ++Analyzed;
  }
  EXPECT_GE(Analyzed, 3u) << "examples/programs/ lost its corpus";
}

TEST(Incremental, SuitePrograms) {
  for (const SuiteProgram &Prog : benchmarkSuite()) {
    std::unique_ptr<Module> M = loadSuiteModule(Prog);
    expectWarmEqualsCold(*M, Prog.Name);
  }
}

// ~100 generated programs across the generator's shape axes.
TEST(Incremental, GeneratedPrograms) {
  for (uint64_t Seed = 1; Seed <= 100; ++Seed) {
    GeneratorConfig Config;
    Config.Seed = Seed;
    Config.NumProcs = 3 + unsigned(Seed % 5);
    Config.StmtsPerProc = 6;
    Config.AllowRecursion = Seed % 4 == 0;
    Config.UseArrays = Seed % 3 != 0;
    Config.UseWhileLoops = Seed % 2 == 0;
    std::unique_ptr<Module> M = lowerOk(generateProgram(Config));
    expectWarmEqualsCold(*M, "seed " + std::to_string(Seed));
  }
}

// ~120 single-procedure mutants, each analyzed against the stale cache
// of its original: 60 body-only edits (early cutoff) and 60 MOD-growing
// edits (content change, caller invalidation).
TEST(Incremental, MutatedPrograms) {
  for (uint64_t Seed = 1; Seed <= 60; ++Seed) {
    GeneratorConfig Config;
    Config.Seed = 1000 + Seed;
    Config.NumProcs = 3 + unsigned(Seed % 4);
    Config.StmtsPerProc = 6;
    Config.AllowRecursion = Seed % 5 == 0;
    std::unique_ptr<Module> M = lowerOk(generateProgram(Config));
    std::string Label = "mutant seed " + std::to_string(Seed);

    std::unique_ptr<Module> PrintMut = withPrintPrepended(*M, size_t(Seed));
    expectStaleWarmEqualsCold(*M, *PrintMut, Label + " (print)");

    std::unique_ptr<Module> StoreMut =
        withGlobalStorePrepended(*M, size_t(Seed) + 1);
    ASSERT_NE(StoreMut, nullptr) << Label;
    expectStaleWarmEqualsCold(*M, *StoreMut, Label + " (global store)");
  }
}

//===----------------------------------------------------------------------===//
// Warm commits equal cold commits
//===----------------------------------------------------------------------===//

/// Edits of \p M like an editor's: `print` edits spread over eight
/// procedures and one global-store edit.
std::vector<std::unique_ptr<Module>> editsOf(const Module &M) {
  std::vector<std::unique_ptr<Module>> Edits;
  size_t N = M.procedures().size();
  for (size_t K = 0; K != std::min<size_t>(N, 8); ++K)
    Edits.push_back(withPrintPrepended(M, K * N / std::min<size_t>(N, 8)));
  if (std::unique_ptr<Module> Store = withGlobalStorePrepended(M, N / 2))
    Edits.push_back(std::move(Store));
  return Edits;
}

/// Runs \p Edits in order through one cache populated from \p M. After
/// every warm run the store must hold exactly what a fresh cache holds
/// after one cold run of the same module, and the normalized report must
/// equal the cold one: a warm commit carries its hits forward without
/// changing a byte.
void expectWarmCommitsEqualCold(
    const Module &M, const std::vector<std::unique_ptr<Module>> &Edits,
    const std::string &Label) {
  IPCPOptions Opts;
  SummaryCache Cache;
  runIPCP(M, Opts, nullptr, &Cache);
  for (size_t K = 0; K != Edits.size(); ++K) {
    IPCPResult Warm = runIPCP(*Edits[K], Opts, nullptr, &Cache);
    SummaryCache Fresh;
    IPCPResult Cold = runIPCP(*Edits[K], Opts, nullptr, &Fresh);
    std::string Step = Label + ", edit " + std::to_string(K);
    EXPECT_EQ(Fresh.serialize(Opts), Cache.serialize(Opts)) << Step;
    EXPECT_EQ(normalized(Cold), normalized(Warm)) << Step;
  }
}

TEST(Incremental, WarmCommitsEqualColdOnExamplesAndSuite) {
  for (const auto &Entry :
       std::filesystem::directory_iterator(IPCP_EXAMPLES_DIR)) {
    if (Entry.path().extension() != ".mf")
      continue;
    std::string Source, Error;
    ASSERT_TRUE(readFileToString(Entry.path().string(), Source, &Error))
        << Error;
    DiagnosticsEngine Diags;
    std::optional<Program> Prog = parseAndCheck(Source, Diags);
    if (!Prog)
      continue;
    std::unique_ptr<Module> M = lowerProgram(*Prog);
    expectWarmCommitsEqualCold(*M, editsOf(*M),
                               Entry.path().filename().string());
  }
  for (const SuiteProgram &Prog : benchmarkSuite()) {
    std::unique_ptr<Module> M = loadSuiteModule(Prog);
    expectWarmCommitsEqualCold(*M, editsOf(*M), Prog.Name);
  }
}

TEST(Incremental, WarmCommitsEqualColdOnGeneratedModules) {
  for (unsigned NumProcs : {64u, 512u}) {
    GeneratorConfig Config;
    Config.Seed = 7;
    Config.NumProcs = NumProcs;
    std::unique_ptr<Module> M = lowerOk(generateProgram(Config));
    expectWarmCommitsEqualCold(*M, editsOf(*M),
                               std::to_string(NumProcs) + " procedures");
  }
}

//===----------------------------------------------------------------------===//
// Incrementality: a warm rerun does strictly less propagation work
//===----------------------------------------------------------------------===//

const char *const Chain = R"(
global scale;

proc leaf(a) {
  a = a * 2;
}

proc mid(b) {
  call leaf(b);
  b = b + scale;
}

proc main() {
  var x;
  scale = 10;
  x = 3;
  call mid(x);
  print x;
}
)";

/// Index of the first procedure of \p M that has callers but no call
/// sites of its own, or none.
std::optional<size_t> leafWithCallers(const Module &M) {
  CallGraph CG(M);
  for (Procedure *P : CG.procedures())
    if (CG.callSitesIn(P).empty() && !CG.callers(P).empty())
      return P->getModuleIndex();
  return std::nullopt;
}

/// Prepends `print 9;` to procedure \p Leaf of \p M and analyzes the
/// edit through \p Cache, which holds \p M's summaries. The warm run
/// re-analyzes the leaf's SCC but adopts its callers (the body edit left
/// the leaf's summary content unchanged, so the callers' keys still
/// validate): it evaluates strictly fewer jump functions than the
/// identical cold run, and the normalized reports are equal.
void expectLeafEditDoesLessWork(const Module &M, size_t Leaf,
                                SummaryCache &Cache,
                                const std::string &Label) {
  std::unique_ptr<Module> Edited = withPrintPrepended(M, Leaf);
  IPCPResult Warm = runIPCP(*Edited, {}, nullptr, &Cache);
  IPCPResult Cold = runIPCP(*Edited);
  EXPECT_EQ(normalized(Cold), normalized(Warm)) << Label;
  EXPECT_LT(Warm.Stats.get("prop_evaluations"),
            Cold.Stats.get("prop_evaluations"))
      << Label;
  EXPECT_GT(Warm.Stats.get("cache_hits"), 0u) << Label;
  EXPECT_GT(Warm.Stats.get("cache_invalidations") +
                Warm.Stats.get("cache_misses"),
            0u)
      << Label;
}

TEST(Incremental, LeafEditDoesStrictlyLessWork) {
  std::unique_ptr<Module> M = lowerOk(Chain);
  SummaryCache Cache;
  runIPCP(*M, {}, nullptr, &Cache);

  // A fully warm rerun evaluates no jump functions at all.
  IPCPResult Rerun = runIPCP(*M, {}, nullptr, &Cache);
  EXPECT_EQ(Rerun.Stats.get("prop_evaluations"), 0u);
  EXPECT_EQ(Rerun.Stats.get("cache_misses"), 0u);

  // After editing only `leaf`, `mid` and `main` are adopted.
  expectLeafEditDoesLessWork(*M, getProc(*M, "leaf")->getModuleIndex(), Cache,
                             "Chain");

  // The same edit to the first leaf with callers of every suite program.
  for (const SuiteProgram &Prog : benchmarkSuite()) {
    std::unique_ptr<Module> SM = loadSuiteModule(Prog);
    std::optional<size_t> Leaf = leafWithCallers(*SM);
    ASSERT_TRUE(Leaf) << Prog.Name;
    SummaryCache SuiteCache;
    runIPCP(*SM, {}, nullptr, &SuiteCache);
    expectLeafEditDoesLessWork(*SM, *Leaf, SuiteCache, Prog.Name);
  }
}

// Deleting a procedure and its call: the commit drops its entry, so the
// store holds exactly the procedures of the module it last analyzed.
TEST(Incremental, DeletingAProcedureDropsItsEntry) {
  std::unique_ptr<Module> M = lowerOk(Chain);
  std::string WithoutLeaf = Chain;
  for (const char *Cut : {"proc leaf(a) {\n  a = a * 2;\n}\n",
                          "  call leaf(b);\n"}) {
    size_t At = WithoutLeaf.find(Cut);
    ASSERT_NE(At, std::string::npos) << Cut;
    WithoutLeaf.erase(At, std::strlen(Cut));
  }
  std::vector<std::unique_ptr<Module>> Edits;
  Edits.push_back(lowerOk(WithoutLeaf));
  expectWarmCommitsEqualCold(*M, Edits, "chain without leaf");

  SummaryCache Cache;
  runIPCP(*M, {}, nullptr, &Cache);
  EXPECT_EQ(Cache.size(), 3u);
  runIPCP(*Edits[0], {}, nullptr, &Cache);
  EXPECT_EQ(Cache.size(), 2u);
}

// Commutative operands are ordered by variable id, so reordering the
// global declarations re-canonicalizes a stored tree when its component
// is adopted: the run uses the context's tree, and the commit rebuilds
// that entry instead of carrying the stale spelling forward.
TEST(Incremental, DeclarationReorderRebuildsTheEntry) {
  const char *Before = "global a;\nglobal b;\n"
                       "proc f() { a = a + b; }\n"
                       "proc main() { a = 1; b = 2; call f(); print a; }\n";
  const char *After = "global b;\nglobal a;\n"
                      "proc f() { a = a + b; }\n"
                      "proc main() { a = 1; b = 2; call f(); print a; }\n";
  std::unique_ptr<Module> M = lowerOk(Before);
  std::vector<std::unique_ptr<Module>> Edits;
  Edits.push_back(lowerOk(After));
  expectWarmCommitsEqualCold(*M, Edits, "reordered globals");

  SummaryCache Cache;
  runIPCP(*M, {}, nullptr, &Cache);
  EXPECT_NE(Cache.serialize({}).find("(+ G:a G:b)"), std::string::npos);
  IPCPResult Warm = runIPCP(*Edits[0], {}, nullptr, &Cache);
  EXPECT_EQ(Warm.Stats.get("cache_hits"), 1u); // f, adopted and rebuilt
  EXPECT_NE(Cache.serialize({}).find("(+ G:b G:a)"), std::string::npos);
}

// After a `print` edit, every procedure outside the edited SCC keeps its
// body, its callees' summaries and its CONSTANTS, so its record stage
// replays — the edited procedure's callees too, though their VAL sets
// are not adopted (their caller changed).
TEST(Incremental, PrintEditReplaysEveryOtherProcedure) {
  GeneratorConfig Config;
  Config.Seed = 3;
  Config.NumProcs = 64;
  std::unique_ptr<Module> M = lowerOk(generateProgram(Config));
  CallGraph CG(*M);
  unsigned BeyondAdopted = 0, Checked = 0;
  for (Procedure *P : CG.procedures()) {
    if (CG.callees(P).empty() || CG.isRecursive(P) || Checked == 4)
      continue;
    ++Checked;
    SummaryCache Cache;
    runIPCP(*M, {}, nullptr, &Cache);
    std::unique_ptr<Module> Mut = withPrintPrepended(*M, P->getModuleIndex());
    IPCPResult Warm = runIPCP(*Mut, {}, nullptr, &Cache);
    EXPECT_EQ(normalized(runIPCP(*Mut)), normalized(Warm)) << P->getName();
    EXPECT_EQ(Warm.Stats.get("cache_misses"), 1u) << P->getName();
    EXPECT_EQ(Warm.Stats.get("cache_record_reused"),
              Warm.Stats.get("cg_procedures") - Warm.Stats.get("cache_misses"))
        << P->getName();
    BeyondAdopted += Warm.Stats.get("cache_val_adopted") <
                     Warm.Stats.get("cache_record_reused");
  }
  EXPECT_EQ(Checked, 4u);
  EXPECT_GT(BeyondAdopted, 0u)
      << "no edit replayed beyond the adopted VAL sets";
}

const char *const Fan = R"(
global scale;

proc leaf(a) {
  a = a * 2;
}

proc side(c) {
  print c;
}

proc mid(b) {
  call leaf(b);
  b = b + scale;
}

proc main() {
  var x;
  scale = 10;
  x = 3;
  call mid(x);
  call side(7);
  print x;
}
)";

// An edit that changes a callee's CONSTANTS (here a literal actual)
// re-runs that callee's record stage; the others replay.
TEST(Incremental, ChangedConstantsRerunTheRecordStage) {
  std::unique_ptr<Module> M = lowerOk(Fan);
  SummaryCache Cache;
  runIPCP(*M, {}, nullptr, &Cache);

  std::string Edited = Fan;
  size_t At = Edited.find("call side(7)");
  ASSERT_NE(At, std::string::npos);
  Edited.replace(At, 12, "call side(8)");
  std::unique_ptr<Module> Mut = lowerOk(Edited);
  IPCPResult Warm = runIPCP(*Mut, {}, nullptr, &Cache);
  IPCPResult Cold = runIPCP(*Mut);
  EXPECT_EQ(normalized(Cold), normalized(Warm));
  EXPECT_EQ(Warm.Stats.get("cache_misses"), 1u); // main
  EXPECT_EQ(Warm.Stats.get("cache_hits"), 3u);
  // leaf and mid replay; side sees c = 8 now and runs SCCP again.
  EXPECT_EQ(Warm.Stats.get("cache_record_reused"), 2u);
  ASSERT_NE(Warm.findProc("side"), nullptr);
  ASSERT_EQ(Warm.findProc("side")->EntryConstants.size(), 1u);
  EXPECT_EQ(Warm.findProc("side")->EntryConstants[0].second, 8);
}

//===----------------------------------------------------------------------===//
// Corruption: every broken cache degrades to a cold run
//===----------------------------------------------------------------------===//

/// Populates an in-memory cache from the chain program and returns its
/// serialized form along with the module.
std::string populatedCacheText(std::unique_ptr<Module> &M,
                               const IPCPOptions &Opts) {
  M = lowerOk(Chain);
  SummaryCache Cache;
  runIPCP(*M, Opts, nullptr, &Cache);
  EXPECT_TRUE(Cache.committed());
  return Cache.serialize(Opts);
}

/// Expects \p Text to be rejected by loadFromString and the subsequent
/// run to be a plain cold run with unchanged results.
void expectDegradesToCold(const std::string &Text, const std::string &Label) {
  std::unique_ptr<Module> M = lowerOk(Chain);
  IPCPResult Reference = runIPCP(*M);

  SummaryCache Cache;
  EXPECT_FALSE(Cache.loadFromString(Text, IPCPOptions())) << Label;
  EXPECT_EQ(Cache.size(), 0u) << Label;

  IPCPResult Run = runIPCP(*M, {}, nullptr, &Cache);
  EXPECT_EQ(normalized(Reference), normalized(Run)) << Label;
  EXPECT_EQ(Run.Stats.get("cache_hits"), 0u) << Label;
  EXPECT_GT(Run.Stats.get("cache_misses"), 0u) << Label;
}

TEST(IncrementalCache, SerializedRoundTrip) {
  std::unique_ptr<Module> M;
  IPCPOptions Opts;
  std::string Text = populatedCacheText(M, Opts);
  EXPECT_NE(Text.find("ipcp-cache-v2"), std::string::npos);

  SummaryCache Cache;
  ASSERT_TRUE(Cache.loadFromString(Text, Opts));
  EXPECT_EQ(Cache.size(), 3u); // leaf, mid, main

  IPCPResult Warm = runIPCP(*M, Opts, nullptr, &Cache);
  EXPECT_EQ(Warm.Stats.get("cache_misses"), 0u);
  EXPECT_EQ(normalized(runIPCP(*M)), normalized(Warm));
}

TEST(IncrementalCache, TruncationDegradesToCold) {
  std::unique_ptr<Module> M;
  IPCPOptions Opts;
  std::string Text = populatedCacheText(M, Opts);
  expectDegradesToCold(Text.substr(0, Text.size() / 2), "half");
  expectDegradesToCold(Text.substr(0, 1), "one byte");
  expectDegradesToCold("", "empty");
}

TEST(IncrementalCache, VersionMismatchDegradesToCold) {
  std::unique_ptr<Module> M;
  IPCPOptions Opts;
  std::string Text = populatedCacheText(M, Opts);
  size_t At = Text.find("ipcp-cache-v2");
  ASSERT_NE(At, std::string::npos);
  Text.replace(At, 13, "ipcp-cache-v9");
  expectDegradesToCold(Text, "version");
}

TEST(IncrementalCache, BitFlipsDegradeToCold) {
  std::unique_ptr<Module> M;
  IPCPOptions Opts;
  std::string Text = populatedCacheText(M, Opts);
  // Flip a spread of payload bytes; the checksum (or the JSON parser)
  // must reject every one of them without crashing.
  for (size_t Frac = 1; Frac <= 4; ++Frac) {
    std::string Bad = Text;
    Bad[Bad.size() * Frac / 5] ^= 0x11;
    SummaryCache Probe;
    IPCPOptions ProbeOpts;
    if (Probe.loadFromString(Bad, ProbeOpts) && Probe.size() > 0)
      continue; // the flip landed on a byte the checksum ignores (none do)
    expectDegradesToCold(Bad, "flip at " + std::to_string(Frac) + "/5");
  }
}

// A document whose checksum holds but one of whose expressions does not
// decode is rejected whole, like a checksum mismatch.
TEST(IncrementalCache, GarbledExpressionFailsTheLoad) {
  std::unique_ptr<Module> M;
  IPCPOptions Opts;
  std::optional<JsonValue> Doc =
      JsonValue::parse(populatedCacheText(M, Opts), nullptr);
  ASSERT_TRUE(Doc);
  JsonValue *Payload = Doc->find("payload");
  ASSERT_NE(Payload, nullptr);
  JsonValue &Leaf = Payload->find("procedures")->at(0);
  ASSERT_EQ(Leaf.find("name")->asString(), "leaf");
  JsonValue &Expr = Leaf.find("return_jfs")->at(0).at(1);
  ASSERT_EQ(Expr.asString(), "(* F0 C2)");
  Expr = JsonValue("(* F0 C2");
  Doc->set("checksum", stableHashHex(stableHashBytes(Payload->dump(0))));
  std::string Text = Doc->dump(2) + "\n";

  SummaryCache Cache;
  EXPECT_FALSE(Cache.loadFromString(Text, Opts));
  EXPECT_TRUE(Cache.loadFailed());
  IPCPResult Run = runIPCP(*M, Opts, nullptr, &Cache);
  EXPECT_EQ(Run.Stats.get("cache_load_failures"), 1u);
  EXPECT_EQ(Run.Stats.get("cache_hits"), 0u);
  EXPECT_EQ(normalized(runIPCP(*M)), normalized(Run));
}

// F4294967295 is a valid uint32_t formal position that re-renders to the
// same text. Its VAL slot count must not wrap: the load fails against its
// allocation bound instead of writing past the row.
TEST(IncrementalCache, ForgedFormalIndexFailsTheLoad) {
  std::unique_ptr<Module> M;
  IPCPOptions Opts;
  std::optional<JsonValue> Doc =
      JsonValue::parse(populatedCacheText(M, Opts), nullptr);
  ASSERT_TRUE(Doc);
  JsonValue *Payload = Doc->find("payload");
  ASSERT_NE(Payload, nullptr);
  JsonValue &Leaf = Payload->find("procedures")->at(0);
  ASSERT_EQ(Leaf.find("name")->asString(), "leaf");
  JsonValue Pair = JsonValue::array();
  Pair.push("F4294967295");
  Pair.push("c:1");
  JsonValue Val = JsonValue::array();
  Val.push(std::move(Pair));
  Leaf.set("val", std::move(Val));
  Doc->set("checksum", stableHashHex(stableHashBytes(Payload->dump(0))));
  std::string Text = Doc->dump(2) + "\n";

  SummaryCache Cache;
  EXPECT_FALSE(Cache.loadFromString(Text, Opts));
  EXPECT_TRUE(Cache.loadFailed());
  EXPECT_EQ(Cache.size(), 0u);
  IPCPResult Run = runIPCP(*M, Opts, nullptr, &Cache);
  EXPECT_EQ(Run.Stats.get("cache_load_failures"), 1u);
  EXPECT_EQ(Run.Stats.get("cache_hits"), 0u);
  EXPECT_EQ(normalized(runIPCP(*M)), normalized(Run));
}

// Renaming a procedure and a global on every edit interns new names each
// run, committed or degraded. A run begins by re-interning what the
// entries use once the table has doubled, so the table stays
// proportional to the module rather than to the edit history; the
// entries carried across a compaction still re-bind, and the store ends
// as a fresh cache's would.
TEST(IncrementalCache, NameTableStaysBoundedAcrossRenames) {
  auto Source = [](int K) {
    std::string F = 'f' + std::to_string(K), G = 'g' + std::to_string(K);
    return "global " + G + ";\n"
           "proc h(c) { c = c + 1; }\n"
           "proc " + F + "(a) { a = a * 2 + " + G + "; }\n"
           "proc main() { var x; x = 3; " + G + " = 1; call h(5); call " +
           F + "(x); print x; }\n";
  };
  SummaryCache Cache;
  runIPCP(*lowerOk(Source(0)), {}, nullptr, &Cache);
  size_t Live = Cache.nameCount();
  IPCPOptions Tripping;
  Tripping.Limits.MaxPropagationEvals = 1;
  // Runs 1-30 commit; runs 31-60 trip their budget and commit nothing.
  for (int K = 1; K <= 60; ++K) {
    std::unique_ptr<Module> M = lowerOk(Source(K));
    bool Degrade = K > 30;
    IPCPResult Warm = runIPCP(*M, Degrade ? Tripping : IPCPOptions(),
                              nullptr, &Cache);
    EXPECT_EQ(Warm.Status.Degraded, Degrade) << K;
    if (!Degrade) {
      EXPECT_EQ(normalized(runIPCP(*M)), normalized(Warm)) << K;
    }
    EXPECT_EQ(Warm.Stats.get("cache_hits"), 1u) << K; // h
    // Twice the live names, plus the two this run added.
    EXPECT_LE(Cache.nameCount(), 2 * Live + 2) << K;
  }
  SummaryCache Fresh;
  runIPCP(*lowerOk(Source(30)), {}, nullptr, &Fresh);
  EXPECT_EQ(Cache.serialize({}), Fresh.serialize({}));
}

TEST(IncrementalCache, OptionsMismatchMissesTheCache) {
  IPCPOptions A;
  IPCPOptions B;
  B.ForwardKind = JumpFunctionKind::Literal;
  EXPECT_NE(SummaryCache::storeName("prog.mf", A),
            SummaryCache::storeName("prog.mf", B));

  // A payload saved under A does not validate under B even when handed
  // over the store name's head: the fingerprint is in the payload.
  std::unique_ptr<Module> M;
  std::string Text = populatedCacheText(M, A);
  SummaryCache Cache;
  EXPECT_FALSE(Cache.loadFromString(Text, B));
  EXPECT_EQ(Cache.size(), 0u);
}

/// \p Row moved off its default, one variant per other value: the
/// flipped switch, every other choice, or the least and the next count.
std::vector<IPCPOptions> offDefault(const OptionSpec &Row) {
  std::vector<IPCPOptions> Variants;
  const IPCPOptions Defaults;
  if (Row.Type == OptionType::Switch) {
    Row.Set(Variants.emplace_back(), !Row.Get(Defaults));
  } else if (Row.Type == OptionType::Choice) {
    for (const OptionChoice &C : Row.Choices)
      if (C.Value != Row.Get(Defaults))
        Row.Set(Variants.emplace_back(), C.Value);
  } else {
    for (uint64_t V : {Row.Min, Row.Get(Defaults) + 1})
      if (V != Row.Get(Defaults))
        Row.Set(Variants.emplace_back(), V);
  }
  return Variants;
}

// The configurations the summary format does not model run cold even
// when handed a cache: nothing is adopted and nothing is committed.
// SummaryCache::models reads intraprocedural_only and engine alone:
// moving any other setting off its default keeps the run cached.
TEST(IncrementalCache, UnmodeledConfigurationsLeaveTheCacheEmpty) {
  for (const OptionSpec &Row : optionTable()) {
    bool Read = Row.Key == std::string("intraprocedural_only") ||
                Row.Key == std::string("engine");
    for (const IPCPOptions &Opts : offDefault(Row))
      EXPECT_EQ(SummaryCache::models(Opts), !Read) << Row.Key;
  }
  std::unique_ptr<Module> M = lowerOk(Chain);
  std::vector<IPCPOptions> Unmodeled(2);
  Unmodeled[0].IntraproceduralOnly = true;
  Unmodeled[1].Engine = PropagationEngine::Contexts;
  for (const IPCPOptions &Opts : Unmodeled) {
    std::string Label = SummaryCache::optionsFingerprint(Opts);
    SummaryCache Cache;
    IPCPResult Res = runIPCP(*M, Opts, nullptr, &Cache);
    EXPECT_FALSE(SummaryCache::models(Opts)) << Label;
    EXPECT_FALSE(Res.UsedCache) << Label;
    EXPECT_EQ(Cache.size(), 0u) << Label;
    EXPECT_FALSE(Cache.committed()) << Label;
  }
}

TEST(IncrementalCache, FingerprintCoversEveryFingerprintedOption) {
  const std::string Default = SummaryCache::optionsFingerprint(IPCPOptions());
  EXPECT_EQ(Default, "ipcp-cache-v2;jf=polynomial;rjf=1;mod=1;intra=0;"
                     "gated=0;engine=jump;maxexpr=64");
  // Move every setting off its default, one at a time: a fingerprinted
  // setting must change the fingerprint, and max_contexts and the
  // budgets, which cached summaries do not depend on, must not.
  for (const OptionSpec &Row : optionTable()) {
    std::vector<IPCPOptions> Variants = offDefault(Row);
    ASSERT_FALSE(Variants.empty()) << Row.Key;
    for (const IPCPOptions &V : Variants) {
      if (Row.FingerprintTag) {
        EXPECT_NE(SummaryCache::optionsFingerprint(V), Default) << Row.Key;
      } else {
        EXPECT_EQ(SummaryCache::optionsFingerprint(V), Default) << Row.Key;
      }
    }
  }
}

TEST(IncrementalCache, DiskRoundTripAndTruncation) {
  std::string Dir = ::testing::TempDir() + "ipcp-cache-test";
  std::filesystem::remove_all(Dir);
  std::unique_ptr<Module> M = lowerOk(Chain);
  IPCPOptions Opts;
  // The command-line tools' store: no scrub on open, so a corrupt object
  // is found by the load itself.
  ContentStore::Options StoreOpts;
  StoreOpts.ScrubOnOpen = false;
  ContentStore Store(Dir, StoreOpts);

  // Cold start on a missing directory: not a failure, just cold.
  SummaryCache Writer;
  EXPECT_FALSE(Writer.load(Store, "chain.mf", Opts));
  EXPECT_FALSE(Writer.loadFailed());
  runIPCP(*M, Opts, nullptr, &Writer);
  std::string Error;
  ASSERT_TRUE(Writer.save(Store, "chain.mf", Opts, &Error)) << Error;

  // A fresh object warms up from the store.
  SummaryCache Reader;
  EXPECT_TRUE(Reader.load(Store, "chain.mf", Opts));
  EXPECT_EQ(Reader.size(), 3u);
  IPCPResult Warm = runIPCP(*M, Opts, nullptr, &Reader);
  EXPECT_EQ(Warm.Stats.get("cache_misses"), 0u);

  // Truncate the object on disk: load fails, loadFailed() reports it, and
  // the run both proceeds cold and surfaces cache_load_failures.
  std::string Path =
      Store.objectPath(ContentStore::contentKey(Writer.serialize(Opts)));
  std::string Text;
  ASSERT_TRUE(readFileToString(Path, Text, &Error)) << Error;
  {
    std::ofstream Out(Path, std::ios::trunc | std::ios::binary);
    Out << Text.substr(0, Text.size() / 3);
  }
  SummaryCache Corrupt;
  EXPECT_FALSE(Corrupt.load(Store, "chain.mf", Opts));
  EXPECT_TRUE(Corrupt.loadFailed());
  IPCPResult Run = runIPCP(*M, Opts, nullptr, &Corrupt);
  EXPECT_GT(Run.Stats.get("cache_load_failures"), 0u);
  EXPECT_GT(Run.Stats.get("cache_misses"), 0u);
  EXPECT_EQ(normalized(runIPCP(*M)), normalized(Run));
  std::filesystem::remove_all(Dir);
}

//===----------------------------------------------------------------------===//
// Lifecycle: degraded runs never poison the store
//===----------------------------------------------------------------------===//

TEST(IncrementalCache, DegradedRunDoesNotPoisonTheStore) {
  std::unique_ptr<Module> M = lowerOk(Chain);
  SummaryCache Cache;
  runIPCP(*M, {}, nullptr, &Cache);
  EXPECT_TRUE(Cache.committed());

  // Edit the *root* procedure and rerun with a budget that trips
  // mid-propagation (the root edit invalidates every cached VAL set, so
  // propagation must do real work): the degraded run must not commit
  // its partial summaries.
  std::unique_ptr<Module> Edited = M->clone();
  Procedure *EditedMain = getProc(*Edited, "main");
  EditedMain->getEntryBlock()->insertAtTop(EditedMain->create<PrintInst>(
      Edited->nextInstId(), SourceLoc(), Edited->getConstant(2)));
  IPCPOptions Tripping;
  Tripping.Limits.MaxPropagationEvals = 1;
  std::string Before = Cache.serialize(Tripping);
  IPCPResult Degraded = runIPCP(*Edited, Tripping, nullptr, &Cache);
  EXPECT_TRUE(Degraded.Status.Degraded);
  EXPECT_GT(Degraded.Stats.get("cache_hits"), 0u) << "nothing was adopted";
  EXPECT_EQ(Before, Cache.serialize(Tripping));

  // The store still serves the *original* module perfectly warm.
  IPCPResult Warm = runIPCP(*M, {}, nullptr, &Cache);
  EXPECT_EQ(Warm.Stats.get("cache_misses"), 0u);
  EXPECT_EQ(normalized(runIPCP(*M)), normalized(Warm));
}

// A warm run whose propagation budget trips after adoption has no VAL
// rows, so nothing may replay record counts computed under the cached
// fixpoint: its report equals that of the same degraded run done cold.
TEST(IncrementalCache, DegradedWarmRunEqualsDegradedColdRun) {
  IPCPOptions Tripping;
  Tripping.Limits.MaxPropagationEvals = 1;
  for (uint64_t Seed = 1; Seed <= 20; ++Seed) {
    GeneratorConfig Config;
    Config.Seed = Seed;
    Config.NumProcs = 6;
    std::unique_ptr<Module> M = lowerOk(generateProgram(Config));
    SummaryCache Cache;
    runIPCP(*M, {}, nullptr, &Cache);
    std::unique_ptr<Module> Mut =
        withPrintPrepended(*M, M->procedures().size() - 2);
    IPCPResult Warm = runIPCP(*Mut, Tripping, nullptr, &Cache);
    IPCPResult Cold = runIPCP(*Mut, Tripping);
    ASSERT_TRUE(Warm.Status.Degraded) << "seed " << Seed;
    EXPECT_EQ(Warm.Stats.get("cache_record_reused"), 0u) << "seed " << Seed;
    EXPECT_EQ(normalized(Cold), normalized(Warm)) << "seed " << Seed;
  }
}

// The reporting surface: a cached run exposes the "cache" block, and
// normalizeReportForDiff removes exactly the volatile parts.
TEST(IncrementalCache, ReportSurface) {
  std::unique_ptr<Module> M = lowerOk(Chain);
  SummaryCache Cache;
  IPCPResult Res = runIPCP(*M, {}, nullptr, &Cache);
  EXPECT_TRUE(Res.UsedCache);

  JsonValue Doc = resultToJson(Res);
  ASSERT_NE(Doc.find("cache"), nullptr);
  EXPECT_NE(Doc.find("timings_us"), nullptr);
  normalizeReportForDiff(Doc);
  EXPECT_EQ(Doc.find("cache"), nullptr);
  EXPECT_EQ(Doc.find("timings_us"), nullptr);

  IPCPResult Plain = runIPCP(*M);
  EXPECT_FALSE(Plain.UsedCache);
  JsonValue PlainDoc = resultToJson(Plain);
  EXPECT_EQ(PlainDoc.find("cache"), nullptr);
}

} // namespace
