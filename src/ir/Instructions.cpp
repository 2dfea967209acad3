//===- ir/Instructions.cpp ------------------------------------------------===//
//
// Part of the ipcp project.
//
//===----------------------------------------------------------------------===//

#include "ir/Instructions.h"

using namespace ipcp;

Instruction::~Instruction() = default;

void Instruction::replaceUsesOfWith(Value *From, Value *To) {
  for (unsigned I = 0, E = Operands.size(); I != E; ++I)
    if (Operands[I] == From)
      Operands[I] = To;
}
