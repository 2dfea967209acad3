//===- ir/Procedure.h - One procedure's CFG and symbols ---------*- C++ -*-===//
//
// Part of the ipcp project.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// A Procedure owns its basic blocks, its formal and local variables, and
/// the per-variable EntryValue objects that jump functions range over.
/// Lowering guarantees a single entry block and a single exit block whose
/// only instruction is the Ret.
///
/// Blocks, block names, variables and instructions all live in the
/// procedure's own arena, which it frees in O(chunks) when it dies. An
/// erased instruction or block keeps its bytes there until then; the
/// transform pipeline's round cap bounds that growth. The analysis never
/// allocates in the arena: entry values sit in a heap-backed side map.
///
//===----------------------------------------------------------------------===//

#ifndef IPCP_IR_PROCEDURE_H
#define IPCP_IR_PROCEDURE_H

#include "ir/BasicBlock.h"
#include "ir/Value.h"
#include "ir/Variable.h"
#include "support/Arena.h"

#include <memory>
#include <span>
#include <string>
#include <string_view>
#include <type_traits>
#include <unordered_map>
#include <vector>

namespace ipcp {

class Module;

/// One MiniFort procedure in IR form.
class Procedure {
public:
  /// \p ArenaBytes sizes the arena's first chunk (0: a small default).
  Procedure(Module *Parent, std::string Name, size_t ArenaBytes = 0)
      : Parent(Parent), Name(std::move(Name)), Mem(ArenaBytes) {}

  Procedure(const Procedure &) = delete;
  Procedure &operator=(const Procedure &) = delete;

  Module *getModule() const { return Parent; }
  const std::string &getName() const { return Name; }

  /// Dense position in the owning module's procedure list.
  uint32_t getModuleIndex() const { return ModuleIndex; }

  //===--------------------------------------------------------------------===
  // Blocks
  //===--------------------------------------------------------------------===

  /// Creates and appends a new block; the name is copied into the arena.
  BasicBlock *createBlock(std::string_view BlockName);

  std::span<BasicBlock *const> blocks() const { return Blocks.span(); }

  BasicBlock *getEntryBlock() const {
    return Blocks.empty() ? nullptr : Blocks.front();
  }

  BasicBlock *getExitBlock() const { return ExitBlock; }
  void setExitBlock(BasicBlock *BB) { ExitBlock = BB; }

  /// Removes \p BB (must have no predecessors left) with the
  /// instructions inside; their memory stays in the arena, poisoned.
  void eraseBlock(BasicBlock *BB);

  /// Deletes blocks unreachable from the entry, fixing predecessor lists.
  /// Returns the number of blocks removed.
  unsigned removeUnreachableBlocks();

  //===--------------------------------------------------------------------===
  // Variables
  //===--------------------------------------------------------------------===

  /// Appends a formal parameter (in positional order).
  Variable *addFormal(std::string_view VarName);

  /// Adds a scalar or array local.
  Variable *addLocal(std::string_view VarName, ConstantValue ArraySize = 0);

  std::span<Variable *const> formals() const { return Formals.span(); }
  std::span<Variable *const> locals() const { return Locals.span(); }

  /// Looks up a formal or local by name (globals live in the Module).
  Variable *findVariable(std::string_view VarName) const;

  /// The canonical "value of \p Var on entry" SSA object, created on
  /// first request (a lazy cache, like instStream()).
  EntryValue *getEntryValue(Variable *Var) const;

  //===--------------------------------------------------------------------===
  // Instructions
  //===--------------------------------------------------------------------===

  /// Allocates an instruction of kind \p InstT in this procedure's arena,
  /// belonging to no block yet.
  template <typename InstT, typename... ArgTs>
  InstT *create(ArgTs &&...Args) {
    static_assert(std::is_trivially_destructible_v<InstT>,
                  "arena instructions are never destroyed");
    if constexpr (std::is_same_v<InstT, CallInst>)
      return CallInst::create(Mem, std::forward<ArgTs>(Args)...);
    else
      return Instruction::create<InstT>(Mem, std::forward<ArgTs>(Args)...);
  }

  /// The arena holding this procedure's IR.
  Arena &arena() { return Mem; }
  const Arena &arena() const { return Mem; }

  //===--------------------------------------------------------------------===
  // Misc
  //===--------------------------------------------------------------------===

  unsigned getNumFormals() const { return Formals.size(); }

  /// Number of instructions across all blocks.
  unsigned instructionCount() const;

  /// Collects every CallInst in block order.
  std::vector<CallInst *> callSites() const;

  //===--------------------------------------------------------------------===
  // Flat instruction stream
  //===--------------------------------------------------------------------===

  /// The procedure's instructions laid out as one contiguous array in
  /// block order, with each block's instructions addressed as an index
  /// span. Rebuilt lazily after any CFG or instruction-list mutation;
  /// building it also assigns Instruction::getLocalIdx() and
  /// BasicBlock::getDensePos(), so analyses index dense side tables
  /// instead of pointer-keyed hash maps.
  struct InstStream {
    struct Span {
      uint32_t Begin = 0;
      uint32_t End = 0;
    };
    std::vector<Instruction *> Insts; ///< all instructions, block order
    std::vector<Span> Spans;          ///< per-block [Begin, End) into Insts

    size_t size() const { return Insts.size(); }
    size_t numBlocks() const { return Spans.size(); }
  };

  /// Materializes (or returns the cached) flat stream. Iteration over
  /// Insts visits every instruction exactly once in block order.
  const InstStream &instStream() const;

  /// Marks the cached stream stale; called by every block/instruction
  /// mutator. Dense indices remain readable but must not be trusted until
  /// instStream() runs again.
  void invalidateInstStream() { StreamValid = false; }

private:
  friend class Module; // clone support

  Module *Parent;
  std::string Name;
  Arena Mem;
  ArenaVector<BasicBlock *> Blocks;
  BasicBlock *ExitBlock = nullptr;
  ArenaVector<Variable *> Formals;
  ArenaVector<Variable *> Locals;
  mutable std::unordered_map<Variable *, std::unique_ptr<EntryValue>>
      EntryValues;
  unsigned NextBlockId = 0;
  uint32_t ModuleIndex = 0;
  mutable InstStream Stream;
  mutable bool StreamValid = false;
};

} // namespace ipcp

#endif // IPCP_IR_PROCEDURE_H
