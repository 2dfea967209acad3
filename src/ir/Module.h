//===- ir/Module.h - Whole-program IR container -----------------*- C++ -*-===//
//
// Part of the ipcp project.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// A Module owns every procedure, every global variable, the uniqued
/// integer constants, and the ID counters. Modules deep-clone with all
/// instruction and variable IDs preserved, so analysis facts computed on a
/// module apply to any clone of it (complete propagation analyzes and
/// rewrites its own working copy; see DESIGN.md).
///
/// Globals and constants live in the module's arena; each procedure's IR
/// lives in that procedure's own (see Procedure.h).
///
//===----------------------------------------------------------------------===//

#ifndef IPCP_IR_MODULE_H
#define IPCP_IR_MODULE_H

#include "ir/Procedure.h"
#include "support/Arena.h"

#include <memory>
#include <string>
#include <string_view>
#include <unordered_map>
#include <vector>

namespace ipcp {

/// A whole MiniFort program in IR form.
class Module {
public:
  Module() = default;
  Module(const Module &) = delete;
  Module &operator=(const Module &) = delete;

  //===--------------------------------------------------------------------===
  // Procedures and globals
  //===--------------------------------------------------------------------===

  /// Appends a procedure; \p ArenaBytes sizes its arena's first chunk.
  Procedure *createProcedure(std::string_view Name, size_t ArenaBytes = 0);

  const std::vector<std::unique_ptr<Procedure>> &procedures() const {
    return Procs;
  }

  /// The first procedure named \p Name in module order; null if absent.
  /// A hash lookup: lowering resolves every call site through it.
  Procedure *findProcedure(std::string_view Name) const;

  /// Destroys \p P and removes it from the module. The caller must
  /// ensure no live procedure still calls it (the inliner removes whole
  /// unreachable groups at once).
  void eraseProcedure(Procedure *P);

  /// Creates a global scalar (ArraySize 0) or array.
  Variable *addGlobal(std::string_view Name, ConstantValue ArraySize = 0);

  const std::vector<Variable *> &globals() const { return Globals; }

  Variable *findGlobal(std::string_view Name) const;

  //===--------------------------------------------------------------------===
  // Uniqued values and IDs
  //===--------------------------------------------------------------------===

  /// The uniqued ConstantInt for \p V.
  ConstantInt *getConstant(ConstantValue V);

  /// The module's undef singleton.
  UndefValue *getUndef() { return &Undef; }

  /// Fresh module-unique instruction ID.
  uint64_t nextInstId() { return NextInstId++; }

  /// Fresh module-unique variable ID.
  uint64_t nextVarId() { return NextVarId++; }

  /// Exclusive upper bounds on the IDs handed out so far; dense clone
  /// tables are sized from these.
  uint64_t instIdBound() const { return NextInstId; }
  uint64_t varIdBound() const { return NextVarId; }

  //===--------------------------------------------------------------------===
  // Cloning
  //===--------------------------------------------------------------------===

  /// Deep-copies the module. Instruction and variable IDs are preserved,
  /// so an (ID -> fact) map computed on the clone applies to the original.
  /// Requires pre-SSA form (no phis, entry values, or call-outs), which is
  /// the canonical on-disk form of a lowered program.
  std::unique_ptr<Module> clone() const;

  /// Copies procedure \p Src into this module (its own module) under
  /// \p NewName, with fresh instruction and variable IDs. Globals and
  /// callee references are shared with the original. Used by the
  /// procedure-cloning transformation; requires pre-SSA form.
  Procedure *cloneProcedure(const Procedure &Src, std::string_view NewName);

  /// Total instructions across all procedures.
  unsigned instructionCount() const;

private:
  /// Declared first so it outlives everything that points into it.
  Arena Mem;
  std::vector<std::unique_ptr<Procedure>> Procs;
  /// Name -> first procedure of that name. Keys view the procedures' own
  /// names, which never change after creation.
  std::unordered_map<std::string_view, Procedure *> ProcIndex;
  std::vector<Variable *> Globals;
  std::unordered_map<ConstantValue, ConstantInt *> Constants;
  UndefValue Undef;
  uint64_t NextInstId = 0;
  uint64_t NextVarId = 0;
};

} // namespace ipcp

#endif // IPCP_IR_MODULE_H
