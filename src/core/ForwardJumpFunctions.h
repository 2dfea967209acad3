//===- core/ForwardJumpFunctions.h - Forward jump functions -----*- C++ -*-===//
//
// Part of the ipcp project.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Builds the forward jump functions J_s^y for every call site s and
/// every parameter y of the callee — the callee's formals (from the
/// actuals) and the callee's extended globals (from the value of each
/// global at the call point). The four classes of Section 3.1 are
/// produced by trimming one underlying symbolic lift:
///
///  - Literal: keep only syntactic literal actuals; globals are bottom
///    ("misses any constant globals which are passed implicitly");
///  - IntraproceduralConstant: keep only expressions that folded to a
///    constant — gcp(y, s);
///  - PassThrough: additionally keep a bare entry value of a caller
///    formal/global;
///  - Polynomial: keep any expression over the caller's entry values.
///
/// Because trimming only ever replaces an expression with bottom, the
/// constants each class propagates are a subset of those of the next
/// class — the containment the paper states and our property tests check.
///
/// All jump functions are built before propagation begins and never
/// rebuilt (Section 3.1: "It is not necessary to reconstruct the jump
/// functions on each iteration over G"): buildJumpFunctions
/// (core/Pipeline.h) runs buildProcedure over the module once the return
/// jump functions are final.
///
//===----------------------------------------------------------------------===//

#ifndef IPCP_CORE_FORWARDJUMPFUNCTIONS_H
#define IPCP_CORE_FORWARDJUMPFUNCTIONS_H

#include "core/Options.h"
#include "core/ReturnJumpFunctions.h"

namespace ipcp {

/// The jump functions attached to one call site.
struct CallSiteJumpFunctions {
  CallInst *Site = nullptr;
  Procedure *Caller = nullptr;

  /// One jump function per callee formal, positionally.
  std::vector<JumpFunction> Formals;

  /// One jump function per callee extended global, ID-ordered.
  std::vector<std::pair<Variable *, JumpFunction>> Globals;
};

/// Forward jump functions for every call site in a module.
class ForwardJumpFunctions {
public:
  /// Builds the jump functions of class \p Kind for every call site in
  /// \p P. Callee return jump functions consulted through \p RJFs must be
  /// final; \p RJFs may be null (configurations without return jump
  /// functions). \p UseGatedSSA selects the gated phi resolution
  /// (Options.h).
  void buildProcedure(Procedure *P, const CallGraph &CG, const ModRefInfo &MRI,
                      const SSAResult &ProcSSA,
                      const ReturnJumpFunctions *RJFs, SymExprContext &Ctx,
                      JumpFunctionKind Kind, bool UseGatedSSA);

  /// Installs one call site's jump functions directly (cache restore
  /// path).
  void insert(CallSiteJumpFunctions JFs) {
    const CallInst *Site = JFs.Site;
    Sites.insert_or_assign(Site, std::move(JFs));
  }

  const CallSiteJumpFunctions &at(const CallInst *Site) const;

  /// Distribution counters for the study: how many jump functions ended
  /// as bottom / constant / pass-through / polynomial.
  struct Stats {
    unsigned Bottom = 0;
    unsigned Constant = 0;
    unsigned PassThrough = 0;
    unsigned Polynomial = 0;
    unsigned total() const {
      return Bottom + Constant + PassThrough + Polynomial;
    }
  };
  Stats stats() const;

private:
  std::unordered_map<const CallInst *, CallSiteJumpFunctions> Sites;
};

} // namespace ipcp

#endif // IPCP_CORE_FORWARDJUMPFUNCTIONS_H
