//===- tests/TestUtil.cpp -------------------------------------------------===//
//
// Part of the ipcp project.
//
//===----------------------------------------------------------------------===//

#include "TestUtil.h"
#include "core/ServiceDispatcher.h"

#include <thread>

using namespace ipcp;

Program ipcp::test::parseOk(const std::string &Source) {
  DiagnosticsEngine Diags;
  std::optional<Program> Prog = parseAndCheck(Source, Diags);
  EXPECT_TRUE(Prog.has_value()) << "unexpected diagnostics:\n" << Diags.str();
  if (!Prog)
    return Program();
  return std::move(*Prog);
}

std::string ipcp::test::parseErrors(const std::string &Source) {
  DiagnosticsEngine Diags;
  std::optional<Program> Prog = parseAndCheck(Source, Diags);
  EXPECT_FALSE(Prog.has_value()) << "expected diagnostics, got none";
  return Diags.str();
}

std::unique_ptr<Module> ipcp::test::lowerOk(const std::string &Source) {
  Program Prog = parseOk(Source);
  std::unique_ptr<Module> M = lowerProgram(Prog);
  expectVerifies(*M);
  return M;
}

Procedure *ipcp::test::getProc(Module &M, const std::string &Name) {
  Procedure *P = M.findProcedure(Name);
  EXPECT_NE(P, nullptr) << "missing procedure " << Name;
  return P;
}

void ipcp::test::expectVerifies(const Module &M) {
  std::vector<std::string> Errors = verifyModule(M);
  for (const std::string &E : Errors)
    ADD_FAILURE() << E;
}

void ipcp::test::expectVerifiesSSA(const Procedure &P, const SSAResult &SSA) {
  std::vector<std::string> Errors;
  verifySSA(P, SSA, Errors);
  for (const std::string &E : Errors)
    ADD_FAILURE() << E;
}

std::vector<std::pair<const LoadInst *, Value *>>
ipcp::test::promotedLoads(const Procedure &P, const SSAResult &SSA) {
  std::vector<std::pair<const LoadInst *, Value *>> Loads;
  for (Instruction *Inst : P.instStream().Insts)
    if (auto *Load = dyn_cast<LoadInst>(Inst))
      if (SSA.isPromotedAccess(Load))
        Loads.push_back({Load, SSA.resolve(Load)});
  return Loads;
}

std::vector<std::string>
ipcp::test::runLines(ServiceDispatcher &Svc,
                     const std::vector<std::string> &Lines) {
  std::unique_ptr<ServiceDispatcher::Stream> St = Svc.openStream();
  std::vector<std::string> Out;
  std::thread Consumer([&] {
    std::string Response;
    while (St->popResponse(Response))
      Out.push_back(Response);
  });
  for (const std::string &Line : Lines)
    if (Svc.submitLine(*St, Line))
      break;
  Svc.finishStream(*St);
  Consumer.join();
  return Out;
}
