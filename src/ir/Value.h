//===- ir/Value.h - SSA value hierarchy -------------------------*- C++ -*-===//
//
// Part of the ipcp project.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The Value hierarchy. A Value is anything an instruction operand can
/// name: integer constants, the entry value of a formal/global, an undef
/// placeholder, or a value-producing instruction. Dispatch uses a single
/// ValueKind enum and the LLVM-style casting templates.
///
//===----------------------------------------------------------------------===//

#ifndef IPCP_IR_VALUE_H
#define IPCP_IR_VALUE_H

#include "ir/Variable.h"
#include "support/Casting.h"
#include "support/ConstantMath.h"

#include <cstdint>

namespace ipcp {

/// Discriminator for the whole Value hierarchy (constants and
/// instructions). Instruction kinds are a contiguous sub-range.
enum class ValueKind : uint8_t {
  ConstantInt,
  EntryValue,
  Undef,
  // --- value-producing instructions ---
  FirstInst,
  Binary = FirstInst,
  Unary,
  Load,
  ArrayLoad,
  Read,
  Phi,
  CallOut,
  // --- side-effect / control instructions (produce no value) ---
  Store,
  ArrayStore,
  Print,
  Call,
  Branch,
  CondBranch,
  Ret,
  LastInst = Ret,
};

/// Root of the value hierarchy.
class Value {
public:
  ValueKind getKind() const { return TheKind; }

  bool isInstruction() const {
    return TheKind >= ValueKind::FirstInst && TheKind <= ValueKind::LastInst;
  }

  /// True when this value may appear as an operand (constants, entry
  /// values, undef, and value-producing instructions).
  bool producesValue() const {
    return TheKind < ValueKind::Store;
  }

protected:
  explicit Value(ValueKind TheKind) : TheKind(TheKind) {}
  ~Value() = default; // not deleted polymorphically through Value*

private:
  ValueKind TheKind;
};

/// A uniqued integer constant; obtained via Module::getConstant.
class ConstantInt : public Value {
public:
  explicit ConstantInt(ConstantValue V)
      : Value(ValueKind::ConstantInt), V(V) {}

  ConstantValue getValue() const { return V; }

  static bool classof(const Value *Val) {
    return Val->getKind() == ValueKind::ConstantInt;
  }

private:
  ConstantValue V;
};

/// The SSA name for "the value variable X holds on entry to procedure P".
/// These are the unknowns that jump functions range over: the support of
/// a jump function is a set of EntryValues. One exists per (procedure,
/// promoted scalar); obtained via Procedure::getEntryValue.
class EntryValue : public Value {
public:
  explicit EntryValue(Variable *Var)
      : Value(ValueKind::EntryValue), Var(Var) {}

  Variable *getVariable() const { return Var; }

  static bool classof(const Value *Val) {
    return Val->getKind() == ValueKind::EntryValue;
  }

private:
  Variable *Var;
};

/// Placeholder for a value on a path where no definition reaches. MiniFort
/// zero-initializes every location, so well-formed lowering never leaves
/// undef reachable; it exists as a defensive backstop for the verifier.
class UndefValue : public Value {
public:
  UndefValue() : Value(ValueKind::Undef) {}

  static bool classof(const Value *Val) {
    return Val->getKind() == ValueKind::Undef;
  }
};

} // namespace ipcp

#endif // IPCP_IR_VALUE_H
