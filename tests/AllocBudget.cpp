//===- tests/AllocBudget.cpp - Heap allocations of one compile ------------===//
//
// Part of the ipcp project.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Counts the heap allocations RequestRun::compile makes (parse, check
/// and lowering) on the seed-1, 512-procedure generated module, and fails
/// above a fixed budget. With one heap object per AST node, instruction,
/// block and variable that compile made 224,917 allocations; the AST and
/// the IR now live in arenas, and the budget is a tenth of that figure.
/// A count does not depend on the host or the build type.
///
/// The count comes from this program's own global operator new, which is
/// why it is a separate executable rather than a gtest.
///
//===----------------------------------------------------------------------===//

#include "core/Report.h"
#include "ir/Module.h"
#include "workload/Generator.h"

#include <cstdio>
#include <cstdlib>
#include <new>

namespace {

constexpr size_t AllocationBudget = 22'500;

bool Counting = false;
size_t Allocations = 0;

void *countedAlloc(size_t Size) {
  if (Counting)
    ++Allocations;
  if (void *P = std::malloc(Size ? Size : 1))
    return P;
  throw std::bad_alloc();
}

} // namespace

void *operator new(size_t Size) { return countedAlloc(Size); }
void *operator new[](size_t Size) { return countedAlloc(Size); }
void operator delete(void *P) noexcept { std::free(P); }
void operator delete[](void *P) noexcept { std::free(P); }
void operator delete(void *P, size_t) noexcept { std::free(P); }
void operator delete[](void *P, size_t) noexcept { std::free(P); }

int main() {
  using namespace ipcp;
  GeneratorConfig Config;
  Config.Seed = 1;
  Config.NumProcs = 512;
  std::string Source = generateProgram(Config);

  AnalysisRequest Req;
  RequestRun Run(Req);
  Counting = true;
  bool Ok = Run.compile(Source);
  Counting = false;
  if (!Ok) {
    std::fprintf(stderr,
                 "alloc_budget: the generated module did not compile\n");
    return 1;
  }

  unsigned Insts = Run.M->instructionCount();
  std::printf("compile: %zu allocations for %u instructions (%.3f per "
              "instruction); budget %zu\n",
              Allocations, Insts, double(Allocations) / Insts,
              AllocationBudget);
  if (Allocations > AllocationBudget) {
    std::fprintf(stderr, "alloc_budget: %zu allocations exceed the budget "
                         "of %zu\n",
                 Allocations, AllocationBudget);
    return 1;
  }
  return 0;
}
