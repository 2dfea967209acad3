//===- support/StableHash.h - Stable structural hashing ---------*- C++ -*-===//
//
// Part of the ipcp project.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The content hashes behind the incremental summary cache
/// (docs/INCREMENTAL.md). Two requirements shape everything here:
///
///  1. *Stability.* The same procedure body must hash identically across
///     processes, runs, platforms, and endiannesses — the hash is a
///     persisted cache key, not an in-memory bucket index. Every integer
///     is therefore serialized as explicit little-endian bytes before it
///     touches the hash, and the byte stream never contains pointers,
///     allocation-order ids, or source locations.
///
///  2. *Sensitivity.* Any single-instruction change to the lowered IR —
///     a different literal, operator, operand, callee, variable, or
///     branch target — must change the hash (StableHashTests pins this
///     on mutation corpora). Structural identity is encoded with
///     per-kind opcode tags, dense traversal-order numbering of
///     instruction results, and block indices for branch targets.
///
/// The underlying mix is 64-bit FNV-1a: tiny, dependency-free, and fully
/// specified, so the on-disk `ipcp-cache-v2` format can document it in
/// one sentence. Cryptographic strength is not a goal; 64 bits over the
/// handful of procedures a module holds keeps accidental collisions
/// negligible, and the differential test layer cross-checks the cached
/// answers against cold runs anyway.
///
//===----------------------------------------------------------------------===//

#ifndef IPCP_SUPPORT_STABLEHASH_H
#define IPCP_SUPPORT_STABLEHASH_H

#include <cstddef>
#include <cstdint>
#include <string>
#include <string_view>

namespace ipcp {

class Procedure;

/// Incremental 64-bit FNV-1a over an explicitly serialized byte stream.
/// All multi-byte integers enter the stream little-endian regardless of
/// host byte order (the documented, test-pinned format).
class StableHasher {
public:
  static constexpr uint64_t OffsetBasis = 0xcbf29ce484222325ULL;
  static constexpr uint64_t Prime = 0x100000001b3ULL;

  void byte(uint8_t B) { H = (H ^ B) * Prime; }

  void bytes(const void *Data, size_t Size) {
    const auto *P = static_cast<const uint8_t *>(Data);
    for (size_t I = 0; I != Size; ++I)
      byte(P[I]);
  }

  void u8(uint8_t V) { byte(V); }

  void u32(uint32_t V) {
    byte(uint8_t(V));
    byte(uint8_t(V >> 8));
    byte(uint8_t(V >> 16));
    byte(uint8_t(V >> 24));
  }

  void u64(uint64_t V) {
    u32(uint32_t(V));
    u32(uint32_t(V >> 32));
  }

  void i64(int64_t V) { u64(uint64_t(V)); }

  /// Length-prefixed, so "ab"+"c" and "a"+"bc" hash differently.
  void str(std::string_view S) {
    u32(uint32_t(S.size()));
    bytes(S.data(), S.size());
  }

  uint64_t result() const { return H; }

private:
  uint64_t H = OffsetBasis;
};

/// One-shot FNV-1a of a raw byte string (no length prefix; matches the
/// classic published test vectors).
uint64_t stableHashBytes(std::string_view Data);

/// The 16 lowercase hex digits of a hash, rendered without allocating.
struct StableHashDigits {
  char Digits[16];
  std::string_view view() const { return {Digits, sizeof(Digits)}; }
};
StableHashDigits stableHashDigits(uint64_t H);

/// Fixed-width lowercase hex rendering of a hash (16 digits).
std::string stableHashHex(uint64_t H);

/// Parses the stableHashHex form: exactly 16 lowercase hex digits.
bool parseStableHashHex(std::string_view Text, uint64_t &H);

/// The structural hash of one procedure's lowered (pre-SSA) body. Covers
/// the procedure name, formal count, every instruction's opcode and
/// operands (instruction results by their position in the instruction
/// stream, Instruction::getLocalIdx(),
/// variables by kind + formal index or name, constants by value), binary
/// and unary operator spellings, callee names, by-reference binding and
/// literal-actual flags at call sites, and branch targets as block
/// indices (BasicBlock::getDensePos()). Builds \p P's instruction stream
/// when it is stale. Excludes instruction ids, variable ids, source locations,
/// and anything reachable only through global state — see
/// docs/INCREMENTAL.md for the byte-level format.
uint64_t hashProcedureBody(const Procedure &P);

} // namespace ipcp

#endif // IPCP_SUPPORT_STABLEHASH_H
