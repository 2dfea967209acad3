//===- support/StableHash.cpp ---------------------------------------------===//
//
// Part of the ipcp project.
//
//===----------------------------------------------------------------------===//

#include "support/StableHash.h"

#include "ir/BasicBlock.h"
#include "ir/Instructions.h"
#include "ir/Procedure.h"
#include "support/Casting.h"
#include "support/ConstantMath.h"

using namespace ipcp;

uint64_t ipcp::stableHashBytes(std::string_view Data) {
  StableHasher H;
  H.bytes(Data.data(), Data.size());
  return H.result();
}

StableHashDigits ipcp::stableHashDigits(uint64_t H) {
  static const char Digits[] = "0123456789abcdef";
  StableHashDigits Out;
  for (int I = 15; I >= 0; --I, H >>= 4)
    Out.Digits[I] = Digits[H & 0xf];
  return Out;
}

std::string ipcp::stableHashHex(uint64_t H) {
  return std::string(stableHashDigits(H).view());
}

bool ipcp::parseStableHashHex(std::string_view Text, uint64_t &H) {
  if (Text.size() != 16)
    return false;
  uint64_t V = 0;
  for (char C : Text) {
    if (C >= '0' && C <= '9')
      V = V << 4 | uint64_t(C - '0');
    else if (C >= 'a' && C <= 'f')
      V = V << 4 | uint64_t(C - 'a' + 10);
    else
      return false;
  }
  H = V;
  return true;
}

namespace {

// Byte tags of the serialization format (docs/INCREMENTAL.md). These are
// part of the persisted cache key: renumbering them is a format change
// and must bump the cache schema version.
enum : uint8_t {
  TagProcedure = 0x50,
  TagBlock = 0x42,

  // Operand references.
  TagOpConstant = 0x01,
  TagOpEntryValue = 0x02,
  TagOpUndef = 0x03,
  TagOpInstruction = 0x04,
  TagOpNull = 0x05,

  // Variable references.
  TagVarGlobal = 0x11,
  TagVarGlobalArray = 0x12,
  TagVarFormal = 0x13,
  TagVarLocal = 0x14,
  TagVarLocalArray = 0x15,
  TagVarNull = 0x16,

  // Instruction opcodes.
  TagInstBinary = 0x20,
  TagInstUnary = 0x21,
  TagInstLoad = 0x22,
  TagInstArrayLoad = 0x23,
  TagInstRead = 0x24,
  // 0x25 and 0x26 tagged phis and CallOuts, which no body holds (SSA
  // form lives in side tables); they stay retired.
  TagInstStore = 0x27,
  TagInstArrayStore = 0x28,
  TagInstPrint = 0x29,
  TagInstCall = 0x2a,
  TagInstBranch = 0x2b,
  TagInstCondBranch = 0x2c,
  TagInstRet = 0x2d,
  TagInstOther = 0x2e,
};

/// Serializes one procedure body into a StableHasher. Identity of
/// instructions is their position in the procedure's instruction stream
/// (block order, so forward references — phi inputs — still resolve);
/// identity of blocks is their position in the block list. Both are the
/// dense numbers the stream assigns; an operand or target outside \p P
/// has none and hashes as ~0.
class BodyHasher {
public:
  explicit BodyHasher(const Procedure &P) : P(P), Stream(P.instStream()) {}

  uint64_t hash() {
    H.u8(TagProcedure);
    H.str(P.getName());
    H.u32(uint32_t(P.getNumFormals()));

    H.u32(uint32_t(P.blocks().size()));
    for (BasicBlock *BB : P.blocks()) {
      H.u8(TagBlock);
      H.u32(uint32_t(BB->instructions().size()));
      for (Instruction *I : BB->instructions())
        hashInst(*I);
    }
    return H.result();
  }

private:
  void hashVar(const Variable *Var) {
    if (!Var) {
      H.u8(TagVarNull);
      return;
    }
    switch (Var->getKind()) {
    case Variable::Kind::Global:
      H.u8(TagVarGlobal);
      H.str(Var->getName());
      return;
    case Variable::Kind::GlobalArray:
      H.u8(TagVarGlobalArray);
      H.str(Var->getName());
      return;
    case Variable::Kind::Formal:
      // Formals of this procedure go by position; a (defensive) formal
      // of another procedure falls back to the owner's name too.
      H.u8(TagVarFormal);
      if (Var->getParent() == &P) {
        H.u32(Var->getFormalIndex());
      } else {
        H.u32(~0u);
        H.str(Var->getName());
      }
      return;
    case Variable::Kind::Local:
      H.u8(TagVarLocal);
      H.str(Var->getName());
      return;
    case Variable::Kind::LocalArray:
      H.u8(TagVarLocalArray);
      H.str(Var->getName());
      return;
    }
  }

  void hashOperand(const Value *V) {
    if (!V) {
      H.u8(TagOpNull);
      return;
    }
    if (const auto *C = dyn_cast<ConstantInt>(V)) {
      H.u8(TagOpConstant);
      H.i64(C->getValue());
      return;
    }
    if (const auto *E = dyn_cast<EntryValue>(V)) {
      H.u8(TagOpEntryValue);
      hashVar(E->getVariable());
      return;
    }
    if (isa<UndefValue>(V)) {
      H.u8(TagOpUndef);
      return;
    }
    const auto *I = cast<Instruction>(V);
    uint32_t Idx = I->getLocalIdx();
    H.u8(TagOpInstruction);
    H.u32(Idx < Stream.size() && Stream.Insts[Idx] == I ? Idx : ~0u);
  }

  void hashBlockRef(const BasicBlock *BB) {
    uint32_t Pos = BB ? BB->getDensePos() : ~0u;
    H.u32(Pos < P.blocks().size() && P.blocks()[Pos] == BB ? Pos : ~0u);
  }

  void hashInst(const Instruction &I) {
    switch (I.getKind()) {
    case ValueKind::Binary:
      H.u8(TagInstBinary);
      H.str(binaryOpSpelling(cast<BinaryInst>(&I)->getOp()));
      break;
    case ValueKind::Unary:
      H.u8(TagInstUnary);
      H.str(unaryOpSpelling(cast<UnaryInst>(&I)->getOp()));
      break;
    case ValueKind::Load:
      H.u8(TagInstLoad);
      hashVar(cast<LoadInst>(&I)->getVariable());
      break;
    case ValueKind::ArrayLoad:
      H.u8(TagInstArrayLoad);
      hashVar(cast<ArrayLoadInst>(&I)->getArray());
      break;
    case ValueKind::Read:
      H.u8(TagInstRead);
      break;
    case ValueKind::Store:
      H.u8(TagInstStore);
      hashVar(cast<StoreInst>(&I)->getVariable());
      break;
    case ValueKind::ArrayStore:
      H.u8(TagInstArrayStore);
      hashVar(cast<ArrayStoreInst>(&I)->getArray());
      break;
    case ValueKind::Print:
      H.u8(TagInstPrint);
      break;
    case ValueKind::Call: {
      const auto *Call = cast<CallInst>(&I);
      H.u8(TagInstCall);
      H.str(Call->getCallee() ? Call->getCallee()->getName()
                              : std::string());
      H.u32(Call->getNumActuals());
      for (unsigned A = 0, E = Call->getNumActuals(); A != E; ++A) {
        const CallActual &Actual = Call->getActual(A);
        hashVar(Actual.ByRefLoc);
        H.u8(Actual.WasLiteral ? 1 : 0);
      }
      break;
    }
    case ValueKind::Branch:
      H.u8(TagInstBranch);
      hashBlockRef(cast<BranchInst>(&I)->getTarget());
      break;
    case ValueKind::CondBranch: {
      const auto *CBr = cast<CondBranchInst>(&I);
      H.u8(TagInstCondBranch);
      hashBlockRef(CBr->getTrueTarget());
      hashBlockRef(CBr->getFalseTarget());
      break;
    }
    case ValueKind::Ret:
      H.u8(TagInstRet);
      break;
    default:
      H.u8(TagInstOther);
      break;
    }

    H.u32(uint32_t(I.operands().size()));
    for (const Value *Op : I.operands())
      hashOperand(Op);
  }

  const Procedure &P;
  const Procedure::InstStream &Stream;
  StableHasher H;
};

} // namespace

uint64_t ipcp::hashProcedureBody(const Procedure &P) {
  return BodyHasher(P).hash();
}
