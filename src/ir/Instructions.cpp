//===- ir/Instructions.cpp ------------------------------------------------===//
//
// Part of the ipcp project.
//
//===----------------------------------------------------------------------===//

#include "ir/Instructions.h"

using namespace ipcp;

Instruction::~Instruction() = default;
