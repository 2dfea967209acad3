//===- support/Ids.h - Typed dense integer IDs ------------------*- C++ -*-===//
//
// Part of the ipcp project.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Dense integer handles for the data-oriented core. A DenseId<Tag> is a
/// strongly typed wrapper over a uint32_t index that doubles as a direct
/// index into a side table. Invalid ids compare equal to each other and
/// convert to false. ExprId, the handle into a SymExprContext's node
/// table, is the one in use.
///
//===----------------------------------------------------------------------===//

#ifndef IPCP_SUPPORT_IDS_H
#define IPCP_SUPPORT_IDS_H

#include <cassert>
#include <cstddef>
#include <cstdint>

namespace ipcp {

/// A strongly typed dense index. Tag is any distinct type; it is never
/// instantiated.
template <typename Tag> class DenseId {
public:
  static constexpr uint32_t InvalidIndex = ~uint32_t(0);

  constexpr DenseId() = default;
  constexpr explicit DenseId(uint32_t Index) : Index(Index) {}

  static constexpr DenseId invalid() { return DenseId(); }
  static constexpr DenseId fromIndex(size_t I) {
    return DenseId(uint32_t(I));
  }

  constexpr bool isValid() const { return Index != InvalidIndex; }
  constexpr explicit operator bool() const { return isValid(); }

  /// The raw table index; only meaningful for valid ids.
  constexpr uint32_t index() const {
    assert(isValid() && "indexing with an invalid id");
    return Index;
  }

  constexpr uint32_t rawValue() const { return Index; }

  friend constexpr bool operator==(DenseId A, DenseId B) {
    return A.Index == B.Index;
  }
  friend constexpr bool operator!=(DenseId A, DenseId B) {
    return A.Index != B.Index;
  }
  friend constexpr bool operator<(DenseId A, DenseId B) {
    return A.Index < B.Index;
  }

private:
  uint32_t Index = InvalidIndex;
};

struct ExprIdTag;

/// Handle into a SymExprContext's node table.
using ExprId = DenseId<ExprIdTag>;

} // namespace ipcp

#endif // IPCP_SUPPORT_IDS_H
