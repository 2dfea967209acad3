// Development smoke test: exercise the full pipeline on one program.
#include "analysis/SCCP.h"
#include "analysis/SSAConstruction.h"
#include "core/Pipeline.h"
#include "frontend/Parser.h"
#include "interp/Interpreter.h"
#include "ir/AstLower.h"
#include "ir/IRPrinter.h"
#include "ir/Verifier.h"

#include <cstdio>

using namespace ipcp;

static const char *Source = R"(
global nx, dt, steps, debug, depth;
global field[64];

proc init() {
  nx = 20; dt = 4; steps = 3; debug = 0; depth = 100;
  var i;
  do i = 0, 63 { field[i] = 0; }
}

proc noisy() {
  var v;
  read v;
  depth = v;
}

proc diffuse(w) {
  var i, c;
  c = nx * dt;
  do i = 1, nx - 1 { field[i] = field[i - 1] + w * c; }
}

proc step(k) {
  if (debug != 0) { call noisy(); }
  call diffuse(k * 2);
  print depth + k;
}

proc main() {
  var k;
  call init();
  do k = 1, steps { call step(k); }
  print depth;
}
)";

int main() {
  DiagnosticsEngine Diags;
  auto Prog = parseAndCheck(Source, Diags);
  if (!Prog) {
    std::fprintf(stderr, "FRONTEND ERRORS:\n%s", Diags.str().c_str());
    return 1;
  }
  auto M = lowerProgram(*Prog);
  auto Errs = verifyModule(*M);
  for (auto &E : Errs)
    std::fprintf(stderr, "preSSA verify: %s\n", E.c_str());
  if (!Errs.empty())
    return 1;
  std::printf("=== pre-SSA IR ===\n%s\n", printModule(*M).c_str());

  // SSA side tables over the module, which stays as printed above.
  CallGraph CG(*M);
  ModRefInfo MRI = ModRefInfo::compute(*M, CG);
  std::printf("=== SSA side tables ===\n");
  std::vector<std::string> SSAErrs;
  for (auto &P : M->procedures()) {
    SSAResult SSA = constructSSA(*P, MRI);
    verifySSA(*P, SSA, SSAErrs);
    std::printf("%s: %zu promoted, %zu phis, %zu callouts, %zu calls\n",
                P->getName().c_str(), SSA.PromotedVars.size(),
                SSA.Phis.size(), SSA.CallOuts.size(), SSA.Calls.size());
  }
  for (auto &E : SSAErrs)
    std::fprintf(stderr, "SSA verify: %s\n", E.c_str());

  // Full IPCP.
  IPCPOptions Opts;
  IPCPResult R = runIPCP(*M, Opts);
  std::printf("=== IPCP (polynomial + RJF + MOD) ===\n");
  for (auto &PR : R.Procs) {
    std::printf("%s: refs=%u constants:", PR.Name.c_str(), PR.ConstantRefs);
    for (auto &[Name, V] : PR.EntryConstants)
      std::printf(" %s=%lld", Name.c_str(), (long long)V);
    std::printf("\n");
  }
  std::printf("total refs=%u entry constants=%u\n", R.TotalConstantRefs,
              R.TotalEntryConstants);
  std::printf("%s", formatStatsTable(R.Stats).c_str());

  // Ablations.
  for (auto Kind :
       {JumpFunctionKind::Literal, JumpFunctionKind::IntraproceduralConstant,
        JumpFunctionKind::PassThrough, JumpFunctionKind::Polynomial}) {
    IPCPOptions O;
    O.ForwardKind = Kind;
    IPCPResult RR = runIPCP(*M, O);
    IPCPOptions ONoRet = O;
    ONoRet.UseReturnJumpFunctions = false;
    IPCPResult RNoRet = runIPCP(*M, ONoRet);
    std::printf("kind=%-12s refs=%3u  (no-ret refs=%3u)\n",
                jumpFunctionKindName(Kind), RR.TotalConstantRefs,
                RNoRet.TotalConstantRefs);
  }
  IPCPOptions NoMod;
  NoMod.UseModInformation = false;
  std::printf("no-MOD refs=%u\n", runIPCP(*M, NoMod).TotalConstantRefs);
  IPCPOptions Intra;
  Intra.IntraproceduralOnly = true;
  std::printf("intra-only refs=%u\n", runIPCP(*M, Intra).TotalConstantRefs);
  auto Complete = runCompletePropagation(*M);
  std::printf("complete refs=%u rounds=%u blocksRemoved=%u\n",
              Complete.TotalConstantRefs, Complete.Rounds,
              Complete.BlocksRemoved);

  // Interpret + manual oracle.
  ExecutionResult Exec = interpret(*M);
  std::printf("exec status=%d steps=%llu outputs=%zu entries=%zu\n",
              (int)Exec.TheStatus, (unsigned long long)Exec.Steps,
              Exec.Output.size(), Exec.Entries.size());
  for (auto V : Exec.Output)
    std::printf("out: %lld\n", (long long)V);

  // Check soundness by name.
  unsigned Violations = 0;
  for (const EntrySnapshot &Snap : Exec.Entries) {
    const ProcedureResult *PR = R.findProc(Snap.Proc->getName());
    if (!PR)
      continue;
    for (auto &[Name, C] : PR->EntryConstants) {
      for (auto &[Var, Val] : Snap.Values) {
        if (Var->getName() == Name && Val != C) {
          std::printf("VIOLATION: %s.%s claimed %lld, saw %lld\n",
                      Snap.Proc->getName().c_str(), Name.c_str(),
                      (long long)C, (long long)Val);
          ++Violations;
        }
      }
    }
  }
  std::printf(Violations ? "UNSOUND (%u)\n" : "sound\n", Violations);
  return Violations != 0;
}
