//===- workload/Generator.cpp ---------------------------------------------===//
//
// Part of the ipcp project.
//
//===----------------------------------------------------------------------===//

#include "workload/Generator.h"

#include <vector>

using namespace ipcp;

namespace {

/// Deterministic generator state for one program.
class ProgramGenerator {
public:
  explicit ProgramGenerator(const GeneratorConfig &Config)
      : Config(Config), RngState(Config.Seed * 0x9E3779B97F4A7C15ULL + 1) {}

  std::string run();

private:
  // xorshift64.
  uint64_t next() {
    RngState ^= RngState << 13;
    RngState ^= RngState >> 7;
    RngState ^= RngState << 17;
    return RngState;
  }
  unsigned below(unsigned N) { return N ? next() % N : 0; }
  bool chance(unsigned Percent) { return below(100) < Percent; }

  struct ProcShape {
    std::string Name;
    unsigned NumParams;
  };

  std::string arrayIndex();
  void indent() { Out.append(2 * Depth, ' '); }
  void line(const std::string &Text) {
    indent();
    Out += Text;
    Out += '\n';
  }

  std::string varName(unsigned ProcIdx);
  std::string expr(unsigned ProcIdx, unsigned DepthLeft);
  std::string callStmt(unsigned ProcIdx);
  void stmt(unsigned ProcIdx, unsigned Budget, unsigned LoopDepth);
  void body(unsigned ProcIdx, unsigned Stmts, unsigned LoopDepth);
  void proc(unsigned ProcIdx);

  const GeneratorConfig &Config;
  uint64_t RngState;
  std::string Out;
  unsigned Depth = 0;
  unsigned LoopCounter = 0;
  std::vector<ProcShape> Procs;
  static constexpr unsigned NumLocals = 3;
};

} // namespace

std::string ProgramGenerator::varName(unsigned ProcIdx) {
  // Pick among this procedure's params, its locals, and the globals.
  unsigned NumParams = ProcIdx < Procs.size() ? Procs[ProcIdx].NumParams : 0;
  unsigned Total = NumParams + NumLocals + Config.NumGlobals;
  unsigned Pick = below(Total);
  if (Pick < NumParams)
    return 'a' + std::to_string(Pick);
  Pick -= NumParams;
  if (Pick < NumLocals)
    return 'v' + std::to_string(Pick);
  Pick -= NumLocals;
  return 'g' + std::to_string(Pick);
}

std::string ProgramGenerator::expr(unsigned ProcIdx, unsigned DepthLeft) {
  if (DepthLeft == 0 || chance(45)) {
    if (chance(40))
      return std::to_string(static_cast<int>(below(19)) - 9);
    return varName(ProcIdx);
  }
  static const char *Ops[] = {"+", "+", "-", "*", "<", "=="};
  const char *Op = Ops[below(6)];
  // The operands of a concatenation are unsequenced, so each draw gets a
  // statement of its own. The order, right operand first, is the one
  // GCC 12 chose when they shared one, which keeps the seeded programs.
  std::string RHS = expr(ProcIdx, DepthLeft - 1);
  std::string LHS = expr(ProcIdx, DepthLeft - 1);
  return '(' + LHS + " " + Op + " " + RHS + ")";
}

std::string ProgramGenerator::callStmt(unsigned ProcIdx) {
  // Layered: only call procedures with larger indices (acyclic), except
  // for guarded self-recursion.
  if (ProcIdx + 1 >= Procs.size())
    return "";
  unsigned Callee = ProcIdx + 1 + below(Procs.size() - ProcIdx - 1);
  const ProcShape &Target = Procs[Callee];

  std::string Call = "call " + Target.Name + "(";
  // Variable actuals must be distinct within one call (the Fortran
  // no-alias rule) and never globals (a global by-ref actual aliased
  // with direct global access would break the framework's assumption).
  std::vector<std::string> UsedVars;
  unsigned NumParams = Procs[ProcIdx].NumParams;
  for (unsigned I = 0; I != Target.NumParams; ++I) {
    if (I)
      Call += ", ";
    if (chance(Config.LiteralArgChance)) {
      Call += std::to_string(below(200));
      continue;
    }
    if (chance(60)) {
      // Try a distinct local/param variable actual (pass-through food).
      unsigned Total = NumParams + NumLocals;
      std::string Name;
      for (unsigned Try = 0; Try != 4 && Name.empty(); ++Try) {
        unsigned Pick = below(Total);
        std::string Candidate = Pick < NumParams
                                    ? 'a' + std::to_string(Pick)
                                    : 'v' + std::to_string(Pick - NumParams);
        bool Dup = false;
        for (const std::string &Used : UsedVars)
          if (Used == Candidate)
            Dup = true;
        if (!Dup)
          Name = Candidate;
      }
      if (!Name.empty()) {
        UsedVars.push_back(Name);
        Call += Name;
        continue;
      }
    }
    // Expression actual (hidden temporary). The "+ 0" wrapper guarantees
    // this is never a bare variable — in particular never a bare global,
    // which by-reference semantics would alias with direct global access
    // inside the callee (the Fortran nonconformance the framework
    // assumes away). Value numbering folds the identity, so the
    // analysis still sees the underlying expression.
    Call += '(' + expr(ProcIdx, 2) + " + 0)";
  }
  Call += ");";
  return Call;
}

std::string ProgramGenerator::arrayIndex() {
  // In-bounds by construction: loop variables stay within 0..10 and the
  // arrays have 16 elements.
  switch (below(3)) {
  case 0:
    return "i0";
  case 1:
    return "i1";
  default:
    return std::to_string(below(16));
  }
}

void ProgramGenerator::stmt(unsigned ProcIdx, unsigned Budget,
                            unsigned LoopDepth) {
  unsigned Roll = below(100);

  if (Roll < Config.CallChance && LoopDepth == 0) {
    std::string Call = callStmt(ProcIdx);
    if (!Call.empty()) {
      line(Call);
      return;
    }
    Roll = 100; // fall through to an assignment
  } else if (Roll < Config.CallChance + Config.IfChance && Budget > 1) {
    line("if (" + expr(ProcIdx, 2) + ") {");
    ++Depth;
    body(ProcIdx, 1 + below(2), LoopDepth);
    --Depth;
    if (chance(40)) {
      line("} else {");
      ++Depth;
      body(ProcIdx, 1 + below(2), LoopDepth);
      --Depth;
    }
    line("}");
    return;
  } else if (Roll < Config.CallChance + Config.IfChance + Config.LoopChance &&
             Budget > 1 && LoopDepth < 2) {
    std::string IndVar = 'i' + std::to_string(LoopCounter++ % 2);
    unsigned Lo = below(4);
    line("do " + IndVar + " = " + std::to_string(Lo) + ", " +
         std::to_string(Lo + 1 + below(6)) + " {");
    ++Depth;
    body(ProcIdx, 1 + below(2), LoopDepth + 1);
    --Depth;
    line("}");
    return;
  } else if (Roll <
             Config.CallChance + Config.IfChance + Config.LoopChance +
                 Config.ReadChance) {
    line("read v" + std::to_string(below(NumLocals)) + ";");
    return;
  } else if (Config.UseWhileLoops && Budget > 1 && LoopDepth < 2 &&
             chance(10)) {
    // Bounded counter loop. The w* counters are reserved for while
    // loops (no other statement ever reads or writes them), so every
    // write is either a small initialization or the decrement below:
    // termination is guaranteed even when loops nest and share one.
    std::string Counter = 'w' + std::to_string(LoopCounter++ % 2);
    line(Counter + " = " + std::to_string(1 + below(6)) + ";");
    line("while (" + Counter + " > 0) {");
    ++Depth;
    body(ProcIdx, 1 + below(2), LoopDepth + 1);
    line(Counter + " = " + Counter + " - 1;");
    --Depth;
    line("}");
    return;
  } else if (Config.UseArrays && chance(12)) {
    if (chance(50)) {
      std::string Arr = chance(50) ? "ga" : "la";
      std::string Value = expr(ProcIdx, Config.MaxExprDepth);
      std::string Index = arrayIndex();
      line(Arr + "[" + Index + "] = " + Value + ";");
    } else {
      std::string Arr = chance(50) ? "ga" : "la";
      std::string Index = arrayIndex();
      unsigned Dest = below(NumLocals);
      line('v' + std::to_string(Dest) + " = " + Arr + "[" + Index + "];");
    }
    return;
  } else if (chance(8)) {
    line("print " + expr(ProcIdx, Config.MaxExprDepth) + ";");
    return;
  }

  // Assignment.
  std::string Target;
  if (chance(Config.GlobalAssignChance) && Config.NumGlobals)
    Target = 'g' + std::to_string(below(Config.NumGlobals));
  else if (chance(50))
    Target = 'v' + std::to_string(below(NumLocals));
  else if (Procs[ProcIdx].NumParams)
    Target = 'a' + std::to_string(below(Procs[ProcIdx].NumParams));
  else
    Target = 'v' + std::to_string(below(NumLocals));
  // Bias toward constants so there is something to propagate.
  std::string Value = chance(35) ? std::to_string(below(500))
                                 : expr(ProcIdx, Config.MaxExprDepth);
  line(Target + " = " + Value + ";");
}

void ProgramGenerator::body(unsigned ProcIdx, unsigned Stmts,
                            unsigned LoopDepth) {
  for (unsigned I = 0; I != Stmts; ++I)
    stmt(ProcIdx, Stmts - I, LoopDepth);
}

void ProgramGenerator::proc(unsigned ProcIdx) {
  const ProcShape &Shape = Procs[ProcIdx];
  std::string Header = "proc " + Shape.Name + "(";
  for (unsigned I = 0; I != Shape.NumParams; ++I) {
    if (I)
      Header += ", ";
    Header += 'a' + std::to_string(I);
  }
  Header += ") {";
  line(Header);
  ++Depth;
  line("var v0, v1, v2, i0, i1;");
  if (Config.UseWhileLoops)
    line("var w0, w1;");
  if (Config.UseArrays)
    line("var la[16];");

  // Guarded self-recursion: strictly decreasing depth argument.
  if (Config.AllowRecursion && Shape.NumParams != 0 && chance(50)) {
    line("if (a0 > 0) {");
    ++Depth;
    std::string Self = "call " + Shape.Name + "(a0 - 1";
    // Wrap the remaining arguments as expressions (hidden temporaries)
    // so recursion never creates by-reference aliasing.
    for (unsigned I = 1; I != Shape.NumParams; ++I)
      Self += ", (" + expr(ProcIdx, 1) + " + 0)";
    Self += ");";
    line(Self);
    --Depth;
    line("}");
  }

  body(ProcIdx, Config.StmtsPerProc, 0);
  --Depth;
  line("}");
  line("");
}

std::string ProgramGenerator::run() {
  Out += "// generated: seed=" + std::to_string(Config.Seed) + "\n";
  if (Config.NumGlobals) {
    Out += "global ";
    for (unsigned I = 0; I != Config.NumGlobals; ++I) {
      if (I)
        Out += ", ";
      Out += 'g' + std::to_string(I);
    }
    Out += ";\n";
  }
  if (Config.UseArrays)
    Out += "global ga[16];\n";
  Out += "\n";

  // main is procedure 0 with no parameters; the rest follow in layers.
  Procs.push_back({"main", 0});
  for (unsigned I = 0; I != Config.NumProcs; ++I)
    Procs.push_back(
        {'p' + std::to_string(I), 1 + below(Config.MaxParams)});

  for (unsigned I = 0; I != Procs.size(); ++I)
    proc(I);
  return std::move(Out);
}

std::string ipcp::generateProgram(const GeneratorConfig &Config) {
  ProgramGenerator Gen(Config);
  return Gen.run();
}
