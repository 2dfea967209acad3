//===- core/JumpFunction.cpp ----------------------------------------------===//
//
// Part of the ipcp project.
//
//===----------------------------------------------------------------------===//

#include "core/JumpFunction.h"

#include <algorithm>
#include <set>

using namespace ipcp;

std::string SymExpr::str() const {
  switch (TheKind) {
  case Kind::Const:
    return std::to_string(C);
  case Kind::Formal:
    return std::string(Var->getName());
  case Kind::Binary:
    return '(' + L->str() + " " + binaryOpSpelling(BinOp) + " " + R->str() +
           ")";
  case Kind::Unary:
    return '(' + std::string(unaryOpSpelling(UnOp)) + L->str() + ")";
  }
  return "?";
}

size_t SymExprContext::hashNode(const SymExpr &E) {
  auto Mix = [](size_t H, size_t V) {
    H ^= V + 0x9E3779B97F4A7C15ULL + (H << 6) + (H >> 2);
    return H;
  };
  size_t H = static_cast<size_t>(E.getKind());
  switch (E.getKind()) {
  case SymExpr::Kind::Const:
    H = Mix(H, std::hash<ConstantValue>()(E.getConst()));
    break;
  case SymExpr::Kind::Formal:
    H = Mix(H, std::hash<uint64_t>()(E.getFormal()->getId()));
    break;
  case SymExpr::Kind::Binary:
    H = Mix(H, static_cast<size_t>(E.getBinaryOp()));
    // Children are interned; their dense ids identify them structurally.
    H = Mix(H, E.getLHS()->id().rawValue());
    H = Mix(H, E.getRHS()->id().rawValue());
    break;
  case SymExpr::Kind::Unary:
    H = Mix(H, static_cast<size_t>(E.getUnaryOp()));
    H = Mix(H, E.getLHS()->id().rawValue());
    break;
  }
  return H;
}

bool SymExprContext::sameNode(const SymExpr &A, const SymExpr &B) {
  if (A.getKind() != B.getKind())
    return false;
  switch (A.getKind()) {
  case SymExpr::Kind::Const:
    return A.getConst() == B.getConst();
  case SymExpr::Kind::Formal:
    return A.getFormal() == B.getFormal();
  case SymExpr::Kind::Binary:
    // Children are interned, so pointer equality is structural equality.
    return A.getBinaryOp() == B.getBinaryOp() && A.getLHS() == B.getLHS() &&
           A.getRHS() == B.getRHS();
  case SymExpr::Kind::Unary:
    return A.getUnaryOp() == B.getUnaryOp() && A.getLHS() == B.getLHS();
  }
  return false;
}

void SymExprContext::rehash(size_t NewSlotCount) {
  assert((NewSlotCount & (NewSlotCount - 1)) == 0 && "slot count not 2^k");
  Slots.assign(NewSlotCount, ExprId::InvalidIndex);
  SlotMask = NewSlotCount - 1;
  for (const SymExpr *E : Nodes) {
    size_t Slot = hashNode(*E) & SlotMask;
    while (Slots[Slot] != ExprId::InvalidIndex)
      Slot = (Slot + 1) & SlotMask;
    Slots[Slot] = E->id().rawValue();
  }
}

const SymExpr *SymExprContext::intern(const SymExpr &Node) {
  if (Slots.empty())
    rehash(64);
  size_t Slot = hashNode(Node) & SlotMask;
  while (Slots[Slot] != ExprId::InvalidIndex) {
    const SymExpr *Candidate = Nodes[Slots[Slot]];
    if (sameNode(Node, *Candidate))
      return Candidate;
    Slot = (Slot + 1) & SlotMask;
  }

  SymExpr *Stable = NodeArena.create<SymExpr>(Node);
  ExprId Id = ExprId::fromIndex(Nodes.size());
  Stable->Id = Id;
  Nodes.push_back(Stable);
  Slots[Slot] = Id.rawValue();
  // Keep the load factor under 3/4 so linear probes stay short.
  if (Nodes.size() * 4 >= Slots.size() * 3)
    rehash(Slots.size() * 2);
  return Stable;
}

const SymExpr *SymExprContext::getConst(ConstantValue V) {
  SymExpr Node;
  Node.TheKind = SymExpr::Kind::Const;
  Node.C = V;
  Node.Size = 1;
  return intern(Node);
}

const SymExpr *SymExprContext::getFormal(Variable *Var) {
  assert(Var && Var->isScalar() && "formal nodes name scalar variables");
  SymExpr Node;
  Node.TheKind = SymExpr::Kind::Formal;
  Node.Var = Var;
  Node.Size = 1;
  return intern(Node);
}

int SymExprContext::compare(const SymExpr *A, const SymExpr *B) {
  if (A == B)
    return 0;
  if (A->getKind() != B->getKind())
    return A->getKind() < B->getKind() ? -1 : 1;
  switch (A->getKind()) {
  case SymExpr::Kind::Const:
    if (A->getConst() != B->getConst())
      return A->getConst() < B->getConst() ? -1 : 1;
    return 0;
  case SymExpr::Kind::Formal:
    if (A->getFormal()->getId() != B->getFormal()->getId())
      return A->getFormal()->getId() < B->getFormal()->getId() ? -1 : 1;
    return 0;
  case SymExpr::Kind::Binary: {
    if (A->getBinaryOp() != B->getBinaryOp())
      return A->getBinaryOp() < B->getBinaryOp() ? -1 : 1;
    if (int C = compare(A->getLHS(), B->getLHS()))
      return C;
    return compare(A->getRHS(), B->getRHS());
  }
  case SymExpr::Kind::Unary:
    if (A->getUnaryOp() != B->getUnaryOp())
      return A->getUnaryOp() < B->getUnaryOp() ? -1 : 1;
    return compare(A->getLHS(), B->getLHS());
  }
  return 0;
}

const SymExpr *SymExprContext::getBinary(BinaryOp Op, const SymExpr *L,
                                         const SymExpr *R) {
  if (!L || !R)
    return nullptr;

  // Constant folding; a fold that would trap at runtime is bottom.
  if (L->isConst() && R->isConst()) {
    if (auto Folded = foldBinary(Op, L->getConst(), R->getConst()))
      return getConst(*Folded);
    return nullptr;
  }

  // Safe value-preserving identities.
  if (Op == BinaryOp::Add) {
    if (L->isConst() && L->getConst() == 0)
      return R;
    if (R->isConst() && R->getConst() == 0)
      return L;
  }
  if (Op == BinaryOp::Sub) {
    if (R->isConst() && R->getConst() == 0)
      return L;
    if (L == R)
      return getConst(0);
  }
  if (Op == BinaryOp::Mul) {
    if (L->isConst() && L->getConst() == 1)
      return R;
    if (R->isConst() && R->getConst() == 1)
      return L;
    if ((L->isConst() && L->getConst() == 0) ||
        (R->isConst() && R->getConst() == 0))
      return getConst(0);
  }
  if ((Op == BinaryOp::CmpEq || Op == BinaryOp::CmpLe ||
       Op == BinaryOp::CmpGe) &&
      L == R)
    return getConst(1);
  if ((Op == BinaryOp::CmpNe || Op == BinaryOp::CmpLt ||
       Op == BinaryOp::CmpGt) &&
      L == R)
    return getConst(0);

  // Canonical operand order for commutative operators: constants last
  // (so `a * 2` keeps its source reading), ties broken structurally.
  if (isCommutativeOp(Op)) {
    auto ConstRank = [](const SymExpr *E) { return E->isConst() ? 1 : 0; };
    if (ConstRank(L) > ConstRank(R) ||
        (ConstRank(L) == ConstRank(R) && compare(R, L) < 0))
      std::swap(L, R);
  }

  if (L->size() + R->size() + 1 > MaxNodes)
    return nullptr; // too complex: decline (bottom)

  SymExpr Node;
  Node.TheKind = SymExpr::Kind::Binary;
  Node.BinOp = Op;
  Node.L = L;
  Node.R = R;
  Node.Size = L->size() + R->size() + 1;
  return intern(Node);
}

const SymExpr *SymExprContext::getUnary(UnaryOp Op, const SymExpr *X) {
  if (!X)
    return nullptr;
  if (X->isConst()) {
    if (auto Folded = foldUnary(Op, X->getConst()))
      return getConst(*Folded);
    return nullptr;
  }
  // --x == x.
  if (Op == UnaryOp::Neg && X->getKind() == SymExpr::Kind::Unary &&
      X->getUnaryOp() == UnaryOp::Neg)
    return X->getLHS();
  if (X->size() + 1 > MaxNodes)
    return nullptr;

  SymExpr Node;
  Node.TheKind = SymExpr::Kind::Unary;
  Node.UnOp = Op;
  Node.L = X;
  Node.Size = X->size() + 1;
  return intern(Node);
}

const SymExpr *SymExprContext::substitute(
    const SymExpr *E,
    const std::function<const SymExpr *(Variable *)> &Map) {
  if (!E)
    return nullptr;
  switch (E->getKind()) {
  case SymExpr::Kind::Const:
    return E;
  case SymExpr::Kind::Formal:
    return Map(E->getFormal());
  case SymExpr::Kind::Binary: {
    const SymExpr *L = substitute(E->getLHS(), Map);
    if (!L)
      return nullptr;
    const SymExpr *R = substitute(E->getRHS(), Map);
    return getBinary(E->getBinaryOp(), L, R);
  }
  case SymExpr::Kind::Unary:
    return getUnary(E->getUnaryOp(), substitute(E->getLHS(), Map));
  }
  return nullptr;
}

JumpFunction::JumpFunction(const SymExpr *E) : Expr(E) {
  if (!Expr)
    return;
  VariableSet Vars;
  std::vector<const SymExpr *> Stack{Expr};
  while (!Stack.empty()) {
    const SymExpr *Node = Stack.back();
    Stack.pop_back();
    switch (Node->getKind()) {
    case SymExpr::Kind::Const:
      break;
    case SymExpr::Kind::Formal:
      Vars.insert(Node->getFormal());
      break;
    case SymExpr::Kind::Binary:
      Stack.push_back(Node->getLHS());
      Stack.push_back(Node->getRHS());
      break;
    case SymExpr::Kind::Unary:
      Stack.push_back(Node->getLHS());
      break;
    }
  }
  Support.assign(Vars.begin(), Vars.end());
}

LatticeValue JumpFunction::evaluate(const LatticeEnv &Env) const {
  return evaluateVia([&Env](Variable *Var) {
    auto It = Env.find(Var);
    return It == Env.end() ? LatticeValue::top() : It->second;
  });
}

std::string JumpFunction::str() const {
  return isBottom() ? "_|_" : Expr->str();
}
