//===- interp/Interpreter.cpp ---------------------------------------------===//
//
// Part of the ipcp project.
//
//===----------------------------------------------------------------------===//

#include "interp/Interpreter.h"

#include "analysis/DeadCode.h"
#include "frontend/Sema.h"
#include "support/Casting.h"

#include <cassert>
#include <map>
#include <span>
#include <unordered_set>

using namespace ipcp;

namespace {

/// Mutable storage for one scalar.
using Cell = ConstantValue;

/// One activation record.
struct Frame {
  /// Where each scalar formal/local lives. Formals point into the caller
  /// (by-reference) or into TempCells (expression actuals).
  std::unordered_map<const Variable *, Cell *> ScalarCells;
  /// Backing store for locals.
  std::vector<std::unique_ptr<Cell>> OwnedCells;
  /// Hidden temporaries for expression actuals, reused across loop
  /// iterations (keyed by call instruction and actual index).
  std::map<std::pair<const Instruction *, unsigned>, Cell> TempCells;
  /// Local arrays.
  std::unordered_map<const Variable *, std::vector<Cell>> Arrays;
  /// Values produced by instructions in this activation.
  std::unordered_map<const Instruction *, ConstantValue> Values;
};

/// One activation on the machine's explicit call stack: the procedure,
/// its frame, the next instruction to run, and the call depth.
struct Activation {
  const Procedure *Proc;
  Frame F;
  const Instruction *Pos = nullptr;
  unsigned Depth = 0;
};

/// Whole-execution state. MiniFort calls run on an explicit stack of
/// activations rather than on the C++ stack, so MaxCallDepth bounds the
/// work in every build, sanitizers included.
class Machine {
public:
  Machine(const Module &M, const ExecutionOptions &Opts, ExecutionResult &R)
      : M(M), Opts(Opts), R(R) {
    for (const Variable *G : M.globals()) {
      if (G->isScalar())
        GlobalCells[G] = 0;
      else
        GlobalArrays[G] = std::vector<Cell>(G->getArraySize(), 0);
    }
  }

  void run() {
    const Procedure *Main = M.findProcedure(EntryProcedureName);
    assert(Main && "interpret requires a main procedure");
    if (enter(*Main, /*ArgCells=*/{}, /*Depth=*/0))
      execute();
  }

private:
  bool trap(const std::string &Message) {
    if (R.TheStatus == ExecutionResult::Status::Ok) {
      R.TheStatus = ExecutionResult::Status::Trap;
      R.TrapMessage = Message;
    }
    return false;
  }

  bool outOfFuel(const std::string &Message) {
    if (R.TheStatus == ExecutionResult::Status::Ok) {
      R.TheStatus = ExecutionResult::Status::OutOfFuel;
      R.TrapMessage = Message;
    }
    return false;
  }

  ConstantValue nextInput() {
    if (InputCursor < Opts.Inputs.size())
      return Opts.Inputs[InputCursor++];
    // xorshift64* stream; keep the magnitude small so arithmetic on read
    // values rarely overflows.
    InputState ^= InputState >> 12;
    InputState ^= InputState << 25;
    InputState ^= InputState >> 27;
    return static_cast<ConstantValue>((InputState * 2685821657736338717ULL) %
                                      2048);
  }

  Cell *scalarCell(Frame &F, const Variable *Var) {
    if (Var->isGlobal()) {
      auto It = GlobalCells.find(Var);
      assert(It != GlobalCells.end() && "unknown global");
      return &It->second;
    }
    auto It = F.ScalarCells.find(Var);
    assert(It != F.ScalarCells.end() && "unbound scalar variable");
    return It->second;
  }

  std::vector<Cell> *arrayStorage(Frame &F, const Variable *Arr) {
    if (Arr->isGlobal()) {
      auto It = GlobalArrays.find(Arr);
      assert(It != GlobalArrays.end() && "unknown global array");
      return &It->second;
    }
    auto It = F.Arrays.find(Arr);
    assert(It != F.Arrays.end() && "unbound local array");
    return &It->second;
  }

  /// Records a contradiction of fact \p Inst, once per instruction.
  void factViolated(const Procedure &P, const Instruction *Inst,
                    const std::string &What) {
    if (Contradicted.insert(Inst->getId()).second)
      R.FactViolations.push_back("procedure '" + P.getName() + "': " + What +
                                 " at " + Inst->getLoc().str());
  }

  void checkLoad(const Procedure &P, const LoadInst *Load, ConstantValue V) {
    auto It = Opts.Facts->ConstantLoads.find(Load->getId());
    if (It != Opts.Facts->ConstantLoads.end() && It->second != V)
      factViolated(P, Load,
                   "claimed " + std::string(Load->getVariable()->getName()) +
                       " = " + std::to_string(It->second) + " but read " +
                       std::to_string(V));
  }

  void checkBranch(const Procedure &P, const CondBranchInst *CBr,
                   bool Taken) {
    auto It = Opts.Facts->FoldedBranches.find(CBr->getId());
    if (It != Opts.Facts->FoldedBranches.end() && It->second != Taken)
      factViolated(P, CBr,
                   std::string("claimed the branch always goes ") +
                       (It->second ? "true" : "false") + " but it went " +
                       (Taken ? "true" : "false"));
  }

  bool value(Frame &F, const Value *V, ConstantValue &Out) {
    if (const auto *C = dyn_cast<ConstantInt>(V)) {
      Out = C->getValue();
      return true;
    }
    const auto *Inst = dyn_cast<Instruction>(V);
    assert(Inst && "pre-SSA operands are constants or instructions");
    auto It = F.Values.find(Inst);
    assert(It != F.Values.end() && "use of unevaluated instruction");
    Out = It->second;
    return true;
  }

  /// Runs activations until the stack empties. Returns false when
  /// execution must stop (trap/fuel).
  bool execute();

  /// Pushes an activation of \p P at \p Depth, its formals bound to
  /// \p ArgCells. Returns false (out of fuel) past MaxCallDepth.
  bool enter(const Procedure &P, std::span<Cell *const> ArgCells,
             unsigned Depth);

  const Module &M;
  const ExecutionOptions &Opts;
  ExecutionResult &R;
  std::unordered_map<const Variable *, Cell> GlobalCells;
  std::unordered_map<const Variable *, std::vector<Cell>> GlobalArrays;
  size_t InputCursor = 0;
  uint64_t InputState = 0x9E3779B97F4A7C15ULL;
  bool Seeded = false;
  std::unordered_set<uint64_t> Contradicted; ///< fact IDs already reported
  std::vector<Activation> Stack;
  std::vector<Cell *> ArgScratch; ///< a call's argument cells
};

} // namespace

bool Machine::enter(const Procedure &P, std::span<Cell *const> ArgCells,
                    unsigned Depth) {
  if (!Seeded) {
    InputState ^= Opts.InputSeed * 0x2545F4914F6CDD1DULL + 1;
    Seeded = true;
  }
  if (Depth > Opts.MaxCallDepth)
    return outOfFuel("call depth limit exceeded in '" + P.getName() + "'");
  assert(ArgCells.size() == P.getNumFormals() && "arity mismatch at call");

  Activation &A = Stack.emplace_back();
  A.Proc = &P;
  A.Depth = Depth;
  Frame &F = A.F;
  for (unsigned I = 0, E = P.getNumFormals(); I != E; ++I)
    F.ScalarCells[P.formals()[I]] = ArgCells[I];
  for (const Variable *L : P.locals()) {
    if (L->isScalar()) {
      F.OwnedCells.push_back(std::make_unique<Cell>(0));
      F.ScalarCells[L] = F.OwnedCells.back().get();
    } else {
      F.Arrays[L] = std::vector<Cell>(L->getArraySize(), 0);
    }
  }

  if (Opts.RecordEntrySnapshots) {
    EntrySnapshot Snap;
    Snap.Proc = &P;
    for (const Variable *Formal : P.formals())
      Snap.Values[Formal] = *F.ScalarCells[Formal];
    for (const auto &[G, Val] : GlobalCells)
      Snap.Values[G] = Val;
    R.Entries.push_back(std::move(Snap));
  }

  const BasicBlock *Entry = P.getEntryBlock();
  assert(Entry && "procedure with no blocks");
  A.Pos = Entry->instructions().front();
  return true;
}

bool Machine::execute() {
  while (!Stack.empty()) {
    // Runs the top activation until it returns or calls; a call pushes
    // the callee and resumes the caller after the call once it returns.
    Activation &A = Stack.back();
    const Procedure &P = *A.Proc;
    Frame &F = A.F;
    const Instruction *Inst = A.Pos;
    bool Returned = false;
    bool Called = false;
    while (!Returned && !Called) {
      assert(Inst && "fell off a block without a terminator");
      if (!Inst) {
        Returned = true;
        break;
      }
      if (++R.Steps > Opts.MaxSteps)
        return outOfFuel("step budget exhausted in '" + P.getName() + "'");

      const Instruction *Next = Inst->getNextNode();
      switch (Inst->getKind()) {
      case ValueKind::Binary: {
        const auto *Bin = cast<BinaryInst>(Inst);
        ConstantValue L, Rv;
        value(F, Bin->getLHS(), L);
        value(F, Bin->getRHS(), Rv);
        auto Folded = foldBinary(Bin->getOp(), L, Rv);
        if (!Folded)
          return trap(std::string("arithmetic fault on '") +
                      binaryOpSpelling(Bin->getOp()) + "' at " +
                      Inst->getLoc().str() + " in '" + P.getName() + "'");
        F.Values[Inst] = *Folded;
        break;
      }
      case ValueKind::Unary: {
        const auto *Un = cast<UnaryInst>(Inst);
        ConstantValue V;
        value(F, Un->getValueOperand(), V);
        auto Folded = foldUnary(Un->getOp(), V);
        if (!Folded)
          return trap("arithmetic fault on unary operator at " +
                      Inst->getLoc().str() + " in '" + P.getName() + "'");
        F.Values[Inst] = *Folded;
        break;
      }
      case ValueKind::Load: {
        const auto *Load = cast<LoadInst>(Inst);
        ConstantValue V = *scalarCell(F, Load->getVariable());
        F.Values[Inst] = V;
        if (Opts.Facts)
          checkLoad(P, Load, V);
        break;
      }
      case ValueKind::Store: {
        const auto *Store = cast<StoreInst>(Inst);
        ConstantValue V;
        value(F, Store->getValueOperand(), V);
        *scalarCell(F, Store->getVariable()) = V;
        break;
      }
      case ValueKind::ArrayLoad: {
        const auto *ALoad = cast<ArrayLoadInst>(Inst);
        ConstantValue Index;
        value(F, ALoad->getIndex(), Index);
        std::vector<Cell> *Storage = arrayStorage(F, ALoad->getArray());
        if (Index < 0 || Index >= static_cast<ConstantValue>(Storage->size()))
          return trap("array index " + std::to_string(Index) +
                      " out of bounds for '" +
                      std::string(ALoad->getArray()->getName()) + "' at " +
                      Inst->getLoc().str());
        F.Values[Inst] = (*Storage)[Index];
        break;
      }
      case ValueKind::ArrayStore: {
        const auto *AStore = cast<ArrayStoreInst>(Inst);
        ConstantValue Index, V;
        value(F, AStore->getIndex(), Index);
        value(F, AStore->getValueOperand(), V);
        std::vector<Cell> *Storage = arrayStorage(F, AStore->getArray());
        if (Index < 0 || Index >= static_cast<ConstantValue>(Storage->size()))
          return trap("array index " + std::to_string(Index) +
                      " out of bounds for '" +
                      std::string(AStore->getArray()->getName()) + "' at " +
                      Inst->getLoc().str());
        (*Storage)[Index] = V;
        break;
      }
      case ValueKind::Read:
        F.Values[Inst] = nextInput();
        break;
      case ValueKind::Print: {
        ConstantValue V;
        value(F, cast<PrintInst>(Inst)->getValueOperand(), V);
        R.Output.push_back(V);
        break;
      }
      case ValueKind::Call: {
        const auto *Call = cast<CallInst>(Inst);
        ArgScratch.clear();
        for (unsigned I = 0, E = Call->getNumActuals(); I != E; ++I) {
          const CallActual &Actual = Call->getActual(I);
          if (Actual.ByRefLoc) {
            ArgScratch.push_back(scalarCell(F, Actual.ByRefLoc));
          } else {
            // Expression actual: hidden temporary (Fortran-style);
            // callee updates are discarded.
            ConstantValue V;
            value(F, Call->getActualValue(I), V);
            Cell &Temp = F.TempCells[{Call, I}];
            Temp = V;
            ArgScratch.push_back(&Temp);
          }
        }
        A.Pos = Next;
        // Pushing the callee may move A: it is not touched again before
        // the outer loop fetches the callee.
        if (!enter(*Call->getCallee(), ArgScratch, A.Depth + 1))
          return false;
        Called = true;
        break;
      }
      case ValueKind::Branch:
        Next = cast<BranchInst>(Inst)->getTarget()->instructions().front();
        break;
      case ValueKind::CondBranch: {
        const auto *CBr = cast<CondBranchInst>(Inst);
        ConstantValue Cond;
        value(F, CBr->getCond(), Cond);
        if (Opts.Facts)
          checkBranch(P, CBr, Cond != 0);
        Next = (Cond != 0 ? CBr->getTrueTarget() : CBr->getFalseTarget())
                   ->instructions()
                   .front();
        break;
      }
      case ValueKind::Ret:
        Returned = true;
        break;
      default:
        assert(false && "unknown instruction kind");
        return trap("internal: unknown instruction kind");
      }
      Inst = Next;
    }
    if (Returned)
      Stack.pop_back();
  }
  return true;
}

ExecutionResult ipcp::interpret(const Module &M,
                                const ExecutionOptions &Opts) {
  ExecutionResult Result;
  Machine VM(M, Opts, Result);
  VM.run();
  return Result;
}
