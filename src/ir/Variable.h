//===- ir/Variable.h - Named storage locations ------------------*- C++ -*-===//
//
// Part of the ipcp project.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// A Variable is a named storage location: a global (COMMON-like), a formal
/// parameter (a by-reference cell), a procedure local, or an array of any
/// of those. Pre-SSA IR reads and writes variables through Load/Store
/// instructions; SSA construction promotes scalar variables to SSA values.
///
/// Variables carry module-unique IDs that deep-cloning preserves, so
/// analysis facts computed on a clone can be mapped back to the original.
/// They live in their owner's arena (a procedure's, or the module's for
/// globals) and are trivially destructible: the name views a copy in the
/// same arena.
///
//===----------------------------------------------------------------------===//

#ifndef IPCP_IR_VARIABLE_H
#define IPCP_IR_VARIABLE_H

#include "support/ConstantMath.h"

#include <algorithm>
#include <cstdint>
#include <string_view>
#include <vector>

namespace ipcp {

class Procedure;

/// A named storage location in a MiniFort program.
class Variable {
public:
  enum class Kind {
    Global,      ///< shared scalar, zero-initialized
    GlobalArray, ///< shared array, zero-initialized
    Formal,      ///< by-reference parameter cell
    Local,       ///< procedure-scoped scalar, zero-initialized
    LocalArray,  ///< procedure-scoped array, zero-initialized
  };

  Variable(uint64_t Id, Kind TheKind, std::string_view Name,
           Procedure *Parent, unsigned FormalIndex = 0,
           ConstantValue ArraySize = 0)
      : Id(Id), TheKind(TheKind), Name(Name), Parent(Parent),
        FormalIndex(FormalIndex), ArraySize(ArraySize) {}

  uint64_t getId() const { return Id; }
  /// Used only by Module::clone to preserve IDs across deep copies.
  void setId(uint64_t NewId) { Id = NewId; }
  Kind getKind() const { return TheKind; }
  std::string_view getName() const { return Name; }

  /// The owning procedure; null for globals.
  Procedure *getParent() const { return Parent; }

  bool isGlobal() const {
    return TheKind == Kind::Global || TheKind == Kind::GlobalArray;
  }
  bool isFormal() const { return TheKind == Kind::Formal; }
  bool isLocal() const {
    return TheKind == Kind::Local || TheKind == Kind::LocalArray;
  }
  bool isArray() const {
    return TheKind == Kind::GlobalArray || TheKind == Kind::LocalArray;
  }
  /// Scalars are candidates for SSA promotion and constant propagation.
  bool isScalar() const { return !isArray(); }

  /// Position in the owning procedure's parameter list (formals only).
  unsigned getFormalIndex() const { return FormalIndex; }

  /// Declared extent (arrays only).
  ConstantValue getArraySize() const { return ArraySize; }

private:
  uint64_t Id;
  Kind TheKind;
  std::string_view Name;
  Procedure *Parent;
  unsigned FormalIndex;
  ConstantValue ArraySize;
};

/// Deterministic variable ordering (by clone-stable ID). Analyses iterate
/// variable sets; ordering them by ID keeps every run reproducible.
struct VariableIdLess {
  bool operator()(const Variable *A, const Variable *B) const {
    return A->getId() < B->getId();
  }
};

/// An ID-ordered set of variables, backed by a sorted flat vector: the
/// sets are small (a procedure's referenced globals, a call's kills) and
/// hot loops iterate them, so contiguity beats the red-black tree this
/// replaces. Iteration order remains ID order, keeping runs reproducible.
class VariableSet {
public:
  using const_iterator = std::vector<Variable *>::const_iterator;

  std::pair<const_iterator, bool> insert(Variable *V) {
    auto It = std::lower_bound(Items.begin(), Items.end(), V,
                               VariableIdLess());
    if (It != Items.end() && *It == V)
      return {It, false};
    return {Items.insert(It, V), true};
  }

  size_t count(const Variable *V) const {
    return std::binary_search(Items.begin(), Items.end(),
                              const_cast<Variable *>(V), VariableIdLess())
               ? 1
               : 0;
  }

  const_iterator begin() const { return Items.begin(); }
  const_iterator end() const { return Items.end(); }
  size_t size() const { return Items.size(); }
  bool empty() const { return Items.empty(); }

private:
  std::vector<Variable *> Items;
};

} // namespace ipcp

#endif // IPCP_IR_VARIABLE_H
