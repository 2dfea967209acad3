//===- support/Arena.h - Bump-pointer allocation ----------------*- C++ -*-===//
//
// Part of the ipcp project.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// A chunked bump allocator for the data-oriented core (docs/ARCHITECTURE.md,
/// "Memory layout"). Objects allocated back-to-back from one Arena are
/// contiguous in allocation order, so consumers that walk them in that
/// order touch memory linearly instead of pointer-chasing a heap of
/// individual allocations. Four owners use one:
///
///  - a frontend Program holds its AST and its own copy of the source
///    text (names are views into that copy);
///  - each IR Procedure holds its blocks, variables, block names and
///    instructions;
///  - a Module holds its globals and uniqued constants;
///  - a SymExprContext holds its hash-consed SymExpr nodes.
///
/// The arena never frees individual objects: memory is reclaimed all at
/// once by reset() or destruction, in O(chunks). Destructors are NOT run,
/// so create<T>() takes trivially destructible types only. An owner that
/// drops an object early (an erased instruction) leaves its bytes in the
/// arena and calls poison() on them, so AddressSanitizer builds still
/// report a stale read as a use after free.
///
//===----------------------------------------------------------------------===//

#ifndef IPCP_SUPPORT_ARENA_H
#define IPCP_SUPPORT_ARENA_H

#include <algorithm>
#include <cassert>
#include <cstddef>
#include <cstdint>
#include <cstring>
#include <new>
#include <span>
#include <string_view>
#include <type_traits>
#include <utility>

#if defined(__SANITIZE_ADDRESS__)
#include <sanitizer/asan_interface.h>
#define IPCP_ARENA_ASAN 1
#endif

namespace ipcp {

/// A chunked bump allocator. Allocation is a pointer bump in the common
/// case; chunks grow geometrically up to MaxChunkBytes so large arenas
/// amortize to O(log n) mallocs total. Each chunk is one heap allocation:
/// a small header, then the payload, with the headers linking the chunks
/// newest to oldest, so the arena keeps no side table of its chunks.
class Arena {
public:
  explicit Arena(size_t FirstChunkBytes = 4096,
                 size_t MaxChunkBytes = 256 * 1024)
      : NextChunkBytes(FirstChunkBytes ? FirstChunkBytes : 4096),
        MaxChunkBytes(MaxChunkBytes) {}

  Arena(const Arena &) = delete;
  Arena &operator=(const Arena &) = delete;

  /// Takes \p Other's chunks; \p Other is left empty (no chunks, nothing
  /// allocated), so the two never hand out the same memory.
  Arena(Arena &&Other) noexcept { take(Other); }
  Arena &operator=(Arena &&Other) noexcept {
    if (this != &Other) {
      releaseChunks(0);
      take(Other);
    }
    return *this;
  }

  ~Arena() { releaseChunks(0); }

  /// Returns \p Size bytes aligned to \p Align (a power of two).
  void *allocate(size_t Size, size_t Align = alignof(std::max_align_t)) {
    assert(Align != 0 && (Align & (Align - 1)) == 0 &&
           "alignment must be a power of two");
    uintptr_t P = (Cur + (Align - 1)) & ~uintptr_t(Align - 1);
    if (P + Size > End) {
      grow(Size + Align);
      P = (Cur + (Align - 1)) & ~uintptr_t(Align - 1);
    }
    Cur = P + Size;
    Allocated += Size;
#ifdef IPCP_ARENA_ASAN
    ASAN_UNPOISON_MEMORY_REGION(reinterpret_cast<void *>(P), Size);
#endif
    return reinterpret_cast<void *>(P);
  }

  /// Constructs a T in the arena. The destructor is never run — see the
  /// file comment.
  template <typename T, typename... Args> T *create(Args &&...CtorArgs) {
    static_assert(std::is_trivially_destructible_v<T>,
                  "arena objects are never destroyed");
    return ::new (allocate(sizeof(T), alignof(T)))
        T(std::forward<Args>(CtorArgs)...);
  }

  /// Uninitialized storage for \p N objects of type T.
  template <typename T> T *allocateArray(size_t N) {
    static_assert(std::is_trivially_destructible_v<T>,
                  "arena objects are never destroyed");
    return static_cast<T *>(allocate(N * sizeof(T), alignof(T)));
  }

  /// Copies \p Items into the arena.
  template <typename T> std::span<const T> copyArray(std::span<const T> Items) {
    static_assert(std::is_trivially_copyable_v<T>,
                  "arena arrays are copied bytewise");
    if (Items.empty())
      return {};
    T *Data = allocateArray<T>(Items.size());
    std::memcpy(static_cast<void *>(Data), Items.data(),
                Items.size() * sizeof(T));
    return {Data, Items.size()};
  }

  /// Copies \p S into the arena; the view lives as long as the arena.
  std::string_view copyString(std::string_view S) {
    if (S.empty())
      return {};
    char *Data = allocateArray<char>(S.size());
    std::memcpy(Data, S.data(), S.size());
    return {Data, S.size()};
  }

  /// Marks \p Size bytes at \p P, which this arena handed out, as dead.
  /// A no-op except under AddressSanitizer, where a later access to them
  /// reports a use after poison.
  static void poison([[maybe_unused]] const void *P,
                     [[maybe_unused]] size_t Size) {
#ifdef IPCP_ARENA_ASAN
    ASAN_POISON_MEMORY_REGION(P, Size);
#endif
  }

  /// Drops every allocation but keeps the first chunk for reuse, so a
  /// reset-and-refill cycle settles into zero mallocs.
  void reset() {
    releaseChunks(1);
    if (Last) {
      Cur = reinterpret_cast<uintptr_t>(Last->payload());
      End = Cur + Last->Bytes;
#ifdef IPCP_ARENA_ASAN
      ASAN_POISON_MEMORY_REGION(Last->payload(), Last->Bytes);
#endif
    } else {
      Cur = End = 0;
    }
    Allocated = 0;
  }

  /// Total payload bytes handed out since construction or reset().
  size_t bytesAllocated() const { return Allocated; }

  /// Chunks currently owned (1 after reset unless empty).
  size_t chunkCount() const { return NumChunks; }

private:
  /// Sits in front of each chunk's payload, in the same allocation. Its
  /// size keeps the payload aligned for any type.
  struct alignas(std::max_align_t) ChunkHeader {
    ChunkHeader *Prev; ///< the chunk allocated before this one, or null
    size_t Bytes;      ///< payload bytes
    std::byte *payload() { return reinterpret_cast<std::byte *>(this + 1); }
  };

  void take(Arena &Other) {
    Last = std::exchange(Other.Last, nullptr);
    NumChunks = std::exchange(Other.NumChunks, 0);
    Cur = std::exchange(Other.Cur, 0);
    End = std::exchange(Other.End, 0);
    Allocated = std::exchange(Other.Allocated, 0);
    NextChunkBytes = Other.NextChunkBytes;
    MaxChunkBytes = Other.MaxChunkBytes;
  }

  /// Frees every chunk but the first \p Keep allocated.
  void releaseChunks(size_t Keep) {
    while (NumChunks > Keep) {
      ChunkHeader *C = std::exchange(Last, Last->Prev);
#ifdef IPCP_ARENA_ASAN
      // The heap allocator owns these bytes again.
      ASAN_UNPOISON_MEMORY_REGION(C->payload(), C->Bytes);
#endif
      ::operator delete(C);
      --NumChunks;
    }
  }

  void grow(size_t AtLeast) {
    size_t Bytes = NextChunkBytes;
    while (Bytes < AtLeast)
      Bytes *= 2;
    if (NextChunkBytes < MaxChunkBytes)
      NextChunkBytes = std::min(NextChunkBytes * 2, MaxChunkBytes);
    // The header comes on top of the payload, so a chunk sized to fit an
    // owner's bytes exactly still fits them. The payload is left
    // uninitialized: untouched pages of a large chunk stay out of the
    // resident set.
    Last = ::new (::operator new(sizeof(ChunkHeader) + Bytes))
        ChunkHeader{Last, Bytes};
    ++NumChunks;
    Cur = reinterpret_cast<uintptr_t>(Last->payload());
    End = Cur + Bytes;
#ifdef IPCP_ARENA_ASAN
    ASAN_POISON_MEMORY_REGION(Last->payload(), Bytes);
#endif
  }

  ChunkHeader *Last = nullptr; ///< the newest chunk
  size_t NumChunks = 0;
  uintptr_t Cur = 0;
  uintptr_t End = 0;
  size_t Allocated = 0;
  size_t NextChunkBytes = 4096;
  size_t MaxChunkBytes = 256 * 1024;
};

/// A growable array whose storage comes from an Arena passed to each
/// growing call. Growth copies into a fresh, doubled allocation and
/// leaves (and poisons) the old one, so it suits short lists that grow a
/// few times: a block's predecessors, a procedure's blocks and variables.
template <typename T> class ArenaVector {
  static_assert(std::is_trivially_copyable_v<T> &&
                    std::is_trivially_destructible_v<T>,
                "ArenaVector elements are moved bytewise");

public:
  T *begin() const { return Data; }
  T *end() const { return Data + Size; }
  size_t size() const { return Size; }
  size_t capacity() const { return Cap; }
  bool empty() const { return Size == 0; }
  T &operator[](size_t I) const {
    assert(I < Size && "ArenaVector index out of range");
    return Data[I];
  }
  T &front() const { return (*this)[0]; }
  T &back() const { return (*this)[Size - 1]; }
  std::span<T> span() const { return {Data, Size}; }

  void reserve(Arena &A, size_t N) {
    if (N <= Cap)
      return;
    T *NewData = A.allocateArray<T>(N);
    if (Size)
      std::memcpy(static_cast<void *>(NewData), Data, Size * sizeof(T));
    if (Cap)
      Arena::poison(Data, Cap * sizeof(T));
    Data = NewData;
    Cap = uint32_t(N);
  }

  void push_back(Arena &A, T V) {
    if (Size == Cap)
      reserve(A, Cap ? 2 * size_t(Cap) : 2);
    Data[Size++] = V;
  }

  /// Removes the element at \p I, keeping the order of the rest.
  void eraseAt(size_t I) {
    assert(I < Size && "ArenaVector index out of range");
    std::memmove(static_cast<void *>(Data + I), Data + I + 1,
                 (Size - I - 1) * sizeof(T));
    --Size;
  }

  void clear() { Size = 0; }

private:
  T *Data = nullptr;
  uint32_t Size = 0;
  uint32_t Cap = 0;
};

} // namespace ipcp

#endif // IPCP_SUPPORT_ARENA_H
