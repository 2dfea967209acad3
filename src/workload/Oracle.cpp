//===- workload/Oracle.cpp ------------------------------------------------===//
//
// Part of the ipcp project.
//
//===----------------------------------------------------------------------===//

#include "workload/Oracle.h"

#include <string_view>
#include <unordered_map>

using namespace ipcp;

std::string OracleReport::str() const {
  std::string Out = Sound ? "sound" : "UNSOUND";
  Out += " (" + std::to_string(CheckedPairs) + " pairs over " +
         std::to_string(DynamicEntries) + " entries)";
  for (const std::string &V : Violations) {
    Out += "\n  ";
    Out += V;
  }
  return Out;
}

OracleReport ipcp::checkSoundness(const Module &M, const IPCPResult &R,
                                  const ExecutionOptions &Opts) {
  OracleReport Report;
  ExecutionOptions Run = Opts;
  Run.Facts = &R.Facts;
  ExecutionResult Exec = interpret(M, Run);
  Report.ExecStatus = Exec.TheStatus;
  Report.DynamicEntries = Exec.Entries.size();
  for (std::string &V : Exec.FactViolations) {
    Report.Sound = false;
    Report.Violations.push_back(std::move(V));
  }

  // Name -> first result of that name (IPCPResult::findProc's answer),
  // built once: the loop below looks up every dynamic entry.
  std::unordered_map<std::string_view, const ProcedureResult *> Results;
  Results.reserve(R.Procs.size());
  for (const ProcedureResult &PR : R.Procs)
    Results.emplace(PR.Name, &PR);

  for (const EntrySnapshot &Snap : Exec.Entries) {
    auto Found = Results.find(Snap.Proc->getName());
    if (Found == Results.end())
      continue;
    const ProcedureResult *PR = Found->second;
    for (const auto &[Name, Claimed] : PR->EntryConstants) {
      // Resolve the claimed name against the snapshot's variables: the
      // procedure's formal of that name, or the global of that name.
      const Variable *Var = Snap.Proc->findVariable(Name);
      if (!Var || !Var->isFormal()) {
        const Variable *G = M.findGlobal(Name);
        if (G)
          Var = G;
      }
      if (!Var)
        continue; // e.g. a local shadowing; not part of a snapshot
      auto It = Snap.Values.find(Var);
      if (It == Snap.Values.end())
        continue;
      ++Report.CheckedPairs;
      if (It->second != Claimed) {
        Report.Sound = false;
        Report.Violations.push_back(
            "procedure '" + Snap.Proc->getName() + "': claimed " + Name +
            " = " + std::to_string(Claimed) + " but observed " +
            std::to_string(It->second));
      }
    }
  }
  return Report;
}
