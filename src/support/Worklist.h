//===- support/Worklist.h - Deduplicating worklists -------------*- C++ -*-===//
//
// Part of the ipcp project.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// A FIFO worklist over densely numbered keys that keeps at most one
/// pending occurrence of each. Its users number procedures 0..N-1: the
/// MOD/REF fixpoint by module index, the SCC-scheduled interprocedural
/// propagator by schedule position. Membership is a generation-stamped
/// vector, so membership tests do no hashing and clear() is O(1).
///
//===----------------------------------------------------------------------===//

#ifndef IPCP_SUPPORT_WORKLIST_H
#define IPCP_SUPPORT_WORKLIST_H

#include <cassert>
#include <cstdint>
#include <vector>

namespace ipcp {

/// FIFO queue of unique dense indices in [0, reserve()d count).
/// Membership is a generation stamp per key: a key is pending iff its
/// stamp equals the current generation, so insert/pop never hash and
/// clear() just bumps the generation.
class IndexWorklist {
public:
  /// Grows the key universe to at least \p Count keys and pre-sizes the
  /// queue to match: at most one occurrence of each key is ever pending,
  /// so Count slots make every subsequent push allocation-free.
  void reserve(size_t Count) {
    if (Stamp.size() < Count)
      Stamp.resize(Count, 0);
    Queue.reserve(Count);
  }

  /// Empties the queue in O(1); all keys become re-insertable.
  void clear() {
    ++Generation;
    Queue.clear();
    Head = 0;
  }

  /// Enqueues \p Key; returns false if it was already pending.
  bool insert(unsigned Key) {
    assert(Key < Stamp.size() && "key outside reserved universe");
    if (Stamp[Key] == Generation)
      return false;
    Stamp[Key] = Generation;
    Queue.push_back(Key);
    return true;
  }

  /// Dequeues the oldest key. Precondition: !empty().
  unsigned pop() {
    assert(!empty() && "pop from empty worklist");
    unsigned Key = Queue[Head++];
    Stamp[Key] = Generation - 1; // no longer pending; re-insertable
    if (Head == Queue.size()) {
      Queue.clear();
      Head = 0;
    }
    return Key;
  }

  bool empty() const { return Head == Queue.size(); }
  size_t size() const { return Queue.size() - Head; }

private:
  std::vector<uint64_t> Stamp;
  std::vector<unsigned> Queue;
  size_t Head = 0;
  uint64_t Generation = 1;
};

} // namespace ipcp

#endif // IPCP_SUPPORT_WORKLIST_H
