//===- core/SummaryCache.cpp ----------------------------------------------===//
//
// Part of the ipcp project.
//
//===----------------------------------------------------------------------===//

#include "core/SummaryCache.h"

#include "ir/Module.h"
#include "ir/Procedure.h"
#include "support/ContentStore.h"
#include "support/Json.h"
#include "support/StableHash.h"

#include <algorithm>
#include <cerrno>
#include <cstdlib>
#include <optional>

using namespace ipcp;

namespace {

constexpr const char *CacheSchema = "ipcp-cache-v2";

} // namespace

std::string SummaryCache::optionsFingerprint(const IPCPOptions &Opts) {
  std::string FP = CacheSchema;
  for (const OptionSpec &Row : optionTable())
    if (Row.FingerprintTag)
      FP.append(";").append(Row.FingerprintTag).append("=").append(
          optionText(Row, Opts));
  return FP;
}

bool SummaryCache::models(const IPCPOptions &Opts) {
  return !Opts.IntraproceduralOnly && !Opts.UseBindingGraphPropagator &&
         Opts.Engine != PropagationEngine::Contexts;
}

//===----------------------------------------------------------------------===//
// Variable reference and value codecs
//===----------------------------------------------------------------------===//

std::string SummaryCache::varRef(const Variable *V) {
  if (!V)
    return "?";
  std::string Ref = V->isFormal() ? "F" : V->isGlobal() ? "G:" : "L:";
  Ref += V->isFormal() ? std::to_string(V->getFormalIndex()) : V->getName();
  return Ref;
}

Variable *SummaryCache::resolveVarRef(const std::string &Ref,
                                      Procedure *Owner) {
  if (Ref.size() < 2 || !Owner)
    return nullptr;
  if (Ref[0] == 'F') {
    char *End = nullptr;
    unsigned long Index = std::strtoul(Ref.c_str() + 1, &End, 10);
    if (!End || *End != '\0' || Index >= Owner->formals().size())
      return nullptr;
    return Owner->formals()[Index];
  }
  if (Ref[0] == 'G' && Ref[1] == ':') {
    Variable *G = Owner->getModule()->findGlobal(Ref.substr(2));
    return G && G->isGlobal() ? G : nullptr;
  }
  if (Ref[0] == 'L' && Ref[1] == ':') {
    Variable *L = Owner->findVariable(Ref.substr(2));
    return L && L->isLocal() ? L : nullptr;
  }
  return nullptr;
}

std::string SummaryCache::valueString(LatticeValue V) {
  if (!V.isConstant())
    return "bot";
  std::string Text = "c:";
  Text += std::to_string(V.getConstant());
  return Text;
}

bool SummaryCache::parseValue(const std::string &Text, LatticeValue &V) {
  if (Text == "bot") {
    V = LatticeValue::bottom();
    return true;
  }
  if (Text.size() <= 2 || Text[0] != 'c' || Text[1] != ':')
    return false;
  errno = 0;
  char *End = nullptr;
  long long N = std::strtoll(Text.c_str() + 2, &End, 10);
  if (errno != 0 || !End || *End != '\0')
    return false;
  V = LatticeValue::constant(N);
  return true;
}

//===----------------------------------------------------------------------===//
// Expression codec
//===----------------------------------------------------------------------===//

namespace {

void renderExpr(const SymExpr *E, std::string &Out) {
  switch (E->getKind()) {
  case SymExpr::Kind::Const:
    Out += 'C';
    Out += std::to_string(E->getConst());
    return;
  case SymExpr::Kind::Formal:
    Out += SummaryCache::varRef(E->getFormal());
    return;
  case SymExpr::Kind::Binary:
    Out += "(";
    Out += binaryOpSpelling(E->getBinaryOp());
    Out += " ";
    renderExpr(E->getLHS(), Out);
    Out += " ";
    renderExpr(E->getRHS(), Out);
    Out += ")";
    return;
  case SymExpr::Kind::Unary:
    Out += "(u";
    Out += unaryOpSpelling(E->getUnaryOp());
    Out += " ";
    renderExpr(E->getLHS(), Out);
    Out += ")";
    return;
  }
}

std::optional<BinaryOp> binaryOpFromSpelling(const std::string &Token) {
  static constexpr BinaryOp All[] = {
      BinaryOp::Add,   BinaryOp::Sub,   BinaryOp::Mul,   BinaryOp::Div,
      BinaryOp::Mod,   BinaryOp::CmpEq, BinaryOp::CmpNe, BinaryOp::CmpLt,
      BinaryOp::CmpLe, BinaryOp::CmpGt, BinaryOp::CmpGe};
  for (BinaryOp Op : All)
    if (Token == binaryOpSpelling(Op))
      return Op;
  return std::nullopt;
}

/// Whitespace/paren tokenizer + recursive-descent parser for the prefix
/// grammar. Depth-capped: cached expressions are trees the run's own
/// SymExprContext produced, so anything deeper than the node cap is
/// corrupt input, not data.
class ExprParser {
public:
  ExprParser(const std::string &Text, Procedure *Owner, SymExprContext &Ctx)
      : Owner(Owner), Ctx(Ctx) {
    tokenize(Text);
  }

  const SymExpr *parse(bool *Ok) {
    const SymExpr *E = parseOne(0);
    bool Good = !Failed && Pos == Tokens.size();
    *Ok = Good;
    return Good ? E : nullptr;
  }

private:
  void tokenize(const std::string &Text) {
    std::string Cur;
    auto Flush = [&] {
      if (!Cur.empty()) {
        Tokens.push_back(Cur);
        Cur.clear();
      }
    };
    for (char C : Text) {
      if (C == ' ' || C == '\t') {
        Flush();
      } else if (C == '(' || C == ')') {
        Flush();
        Tokens.push_back(std::string(1, C));
      } else {
        Cur += C;
      }
    }
    Flush();
  }

  const std::string *next() {
    if (Pos >= Tokens.size()) {
      Failed = true;
      return nullptr;
    }
    return &Tokens[Pos++];
  }

  const SymExpr *parseOne(unsigned Depth) {
    if (Depth > 512) {
      Failed = true;
      return nullptr;
    }
    const std::string *Tok = next();
    if (!Tok)
      return nullptr;
    if (*Tok == "(") {
      const std::string *Op = next();
      if (!Op)
        return nullptr;
      const SymExpr *E = nullptr;
      if (Op->size() > 1 && (*Op)[0] == 'u') {
        UnaryOp UOp = (*Op == "u-") ? UnaryOp::Neg : UnaryOp::Not;
        if (*Op != "u-" && *Op != "u!") {
          Failed = true;
          return nullptr;
        }
        const SymExpr *X = parseOne(Depth + 1);
        E = X ? Ctx.getUnary(UOp, X) : nullptr;
      } else if (std::optional<BinaryOp> BOp = binaryOpFromSpelling(*Op)) {
        const SymExpr *L = parseOne(Depth + 1);
        const SymExpr *R = L ? parseOne(Depth + 1) : nullptr;
        E = R ? Ctx.getBinary(*BOp, L, R) : nullptr;
      } else {
        Failed = true;
        return nullptr;
      }
      const std::string *Close = next();
      if (!Close || *Close != ")") {
        Failed = true;
        return nullptr;
      }
      // A null from the context here means the canonical re-intern
      // disagrees with what was stored (e.g. a bit-flipped constant now
      // folds or traps) — corrupt, not bottom.
      if (!E)
        Failed = true;
      return E;
    }
    if ((*Tok)[0] == 'C') {
      char *End = nullptr;
      long long V = std::strtoll(Tok->c_str() + 1, &End, 10);
      if (!End || *End != '\0' || Tok->size() < 2) {
        Failed = true;
        return nullptr;
      }
      return Ctx.getConst(V);
    }
    Variable *Var = SummaryCache::resolveVarRef(*Tok, Owner);
    if (!Var) {
      Failed = true;
      return nullptr;
    }
    return Ctx.getFormal(Var);
  }

  Procedure *Owner;
  SymExprContext &Ctx;
  std::vector<std::string> Tokens;
  size_t Pos = 0;
  bool Failed = false;
};

} // namespace

std::string SummaryCache::exprString(const SymExpr *E) {
  if (!E)
    return "_";
  std::string Out;
  renderExpr(E, Out);
  return Out;
}

const SymExpr *SummaryCache::parseExpr(const std::string &Text,
                                       Procedure *Owner, SymExprContext &Ctx,
                                       bool *Ok) {
  if (Text == "_") {
    *Ok = true;
    return nullptr;
  }
  return ExprParser(Text, Owner, Ctx).parse(Ok);
}

//===----------------------------------------------------------------------===//
// JSON encode / decode
//===----------------------------------------------------------------------===//

namespace {

JsonValue stringPairsToJson(
    const std::vector<std::pair<std::string, std::string>> &Pairs) {
  JsonValue Arr = JsonValue::array();
  for (const auto &[A, B] : Pairs) {
    JsonValue Pair = JsonValue::array();
    Pair.push(A);
    Pair.push(B);
    Arr.push(std::move(Pair));
  }
  return Arr;
}

bool stringPairsFromJson(
    const JsonValue *V,
    std::vector<std::pair<std::string, std::string>> &Out) {
  if (!V || !V->isArray())
    return false;
  for (size_t I = 0, E = V->size(); I != E; ++I) {
    const JsonValue &Pair = V->at(I);
    if (!Pair.isArray() || Pair.size() != 2 || !Pair.at(0).isString() ||
        !Pair.at(1).isString())
      return false;
    Out.emplace_back(Pair.at(0).asString(), Pair.at(1).asString());
  }
  return true;
}

bool stringsFromJson(const JsonValue *V, std::vector<std::string> &Out) {
  if (!V || !V->isArray())
    return false;
  for (size_t I = 0, E = V->size(); I != E; ++I) {
    if (!V->at(I).isString())
      return false;
    Out.push_back(V->at(I).asString());
  }
  return true;
}

JsonValue entryToJson(const CacheEntry &E) {
  JsonValue Obj = JsonValue::object();
  Obj.set("name", E.Name);
  Obj.set("body", E.BodyHash);
  Obj.set("scc_key", E.SCCKey);
  Obj.set("callers", E.CallersHash);

  JsonValue ModFormals = JsonValue::array();
  for (unsigned I : E.ModFormals)
    ModFormals.push(I);
  Obj.set("mod_formals", std::move(ModFormals));
  JsonValue ModGlobals = JsonValue::array();
  for (const std::string &G : E.ModGlobals)
    ModGlobals.push(G);
  Obj.set("mod_globals", std::move(ModGlobals));
  JsonValue ExtGlobals = JsonValue::array();
  for (const std::string &G : E.ExtGlobals)
    ExtGlobals.push(G);
  Obj.set("ext_globals", std::move(ExtGlobals));

  Obj.set("return_jfs", stringPairsToJson(E.ReturnJFs));

  JsonValue Sites = JsonValue::array();
  for (const CacheEntry::SiteJFs &S : E.ForwardJFs) {
    JsonValue Site = JsonValue::object();
    Site.set("callee", S.Callee);
    JsonValue Formals = JsonValue::array();
    for (const std::string &F : S.Formals)
      Formals.push(F);
    Site.set("formals", std::move(Formals));
    Site.set("globals", stringPairsToJson(S.Globals));
    Sites.push(std::move(Site));
  }
  Obj.set("forward_jfs", std::move(Sites));

  if (E.HasVal)
    Obj.set("val", stringPairsToJson(E.Val));
  if (E.HasRecord) {
    JsonValue Rec = JsonValue::object();
    Rec.set("refs", E.ConstantRefs);
    Rec.set("irrelevant", E.IrrelevantConstants);
    Rec.set("sccp_values", E.SCCPConstantValues);
    Rec.set("sccp_blocks", E.SCCPExecutableBlocks);
    Obj.set("record", std::move(Rec));
  }
  return Obj;
}

bool entryFromJson(const JsonValue &Obj, CacheEntry &E) {
  if (!Obj.isObject())
    return false;
  auto Str = [&Obj](const char *Key, std::string &Out) {
    const JsonValue *V = Obj.find(Key);
    if (!V || !V->isString())
      return false;
    Out = V->asString();
    return true;
  };
  if (!Str("name", E.Name) || !Str("body", E.BodyHash) ||
      !Str("scc_key", E.SCCKey) || !Str("callers", E.CallersHash))
    return false;

  const JsonValue *ModFormals = Obj.find("mod_formals");
  if (!ModFormals || !ModFormals->isArray())
    return false;
  for (size_t I = 0, N = ModFormals->size(); I != N; ++I) {
    if (!ModFormals->at(I).isInt() || ModFormals->at(I).asInt() < 0)
      return false;
    E.ModFormals.push_back(unsigned(ModFormals->at(I).asInt()));
  }
  if (!stringsFromJson(Obj.find("mod_globals"), E.ModGlobals) ||
      !stringsFromJson(Obj.find("ext_globals"), E.ExtGlobals) ||
      !stringPairsFromJson(Obj.find("return_jfs"), E.ReturnJFs))
    return false;

  const JsonValue *Sites = Obj.find("forward_jfs");
  if (!Sites || !Sites->isArray())
    return false;
  for (size_t I = 0, N = Sites->size(); I != N; ++I) {
    const JsonValue &Site = Sites->at(I);
    CacheEntry::SiteJFs S;
    const JsonValue *Callee = Site.find("callee");
    if (!Callee || !Callee->isString())
      return false;
    S.Callee = Callee->asString();
    if (!stringsFromJson(Site.find("formals"), S.Formals) ||
        !stringPairsFromJson(Site.find("globals"), S.Globals))
      return false;
    E.ForwardJFs.push_back(std::move(S));
  }

  if (const JsonValue *Val = Obj.find("val")) {
    if (!stringPairsFromJson(Val, E.Val))
      return false;
    E.HasVal = true;
  }
  if (const JsonValue *Rec = Obj.find("record")) {
    auto Count = [&Rec](const char *Key, uint64_t &Out) {
      const JsonValue *V = Rec->find(Key);
      if (!V || !V->isInt() || V->asInt() < 0)
        return false;
      Out = uint64_t(V->asInt());
      return true;
    };
    if (!Count("refs", E.ConstantRefs) ||
        !Count("irrelevant", E.IrrelevantConstants) ||
        !Count("sccp_values", E.SCCPConstantValues) ||
        !Count("sccp_blocks", E.SCCPExecutableBlocks))
      return false;
    E.HasRecord = true;
  }
  return true;
}

} // namespace

//===----------------------------------------------------------------------===//
// Store lifecycle
//===----------------------------------------------------------------------===//

const CacheEntry *SummaryCache::find(const std::string &Name) const {
  auto It = Entries.find(Name);
  return It == Entries.end() ? nullptr : &It->second;
}

void SummaryCache::beginRun() {
  Staged.clear();
  LoadFailed = false;
}

void SummaryCache::stage(CacheEntry E) {
  std::string Name = E.Name;
  Staged.insert_or_assign(std::move(Name), std::move(E));
}

void SummaryCache::finishRun(bool Commit) {
  if (Commit) {
    Entries = std::move(Staged);
    RunCommitted = true;
  }
  Staged.clear();
}

std::string SummaryCache::serialize(const IPCPOptions &Opts) const {
  JsonValue Payload = JsonValue::object();
  Payload.set("options", optionsFingerprint(Opts));

  std::vector<const CacheEntry *> Sorted;
  Sorted.reserve(Entries.size());
  for (const auto &[Name, E] : Entries)
    Sorted.push_back(&E);
  std::sort(Sorted.begin(), Sorted.end(),
            [](const CacheEntry *A, const CacheEntry *B) {
              return A->Name < B->Name;
            });
  JsonValue Procs = JsonValue::array();
  for (const CacheEntry *E : Sorted)
    Procs.push(entryToJson(*E));
  Payload.set("procedures", std::move(Procs));

  // The checksum covers the compact dump of the payload — exactly what
  // load() recomputes from the parsed tree, so any parse-surviving bit
  // flip that changes payload content fails validation deterministically.
  std::string Checksum = stableHashHex(stableHashBytes(Payload.dump(0)));

  JsonValue Doc = JsonValue::object();
  Doc.set("schema", CacheSchema);
  Doc.set("checksum", Checksum);
  Doc.set("payload", std::move(Payload));
  return Doc.dump(2) + "\n";
}

bool SummaryCache::loadFromString(const std::string &Text,
                                  const IPCPOptions &Opts,
                                  ResourceGuard *Guard) {
  Entries.clear();
  LoadFailed = true; // flipped to false only on full success

  if (Guard) {
    Guard->checkDeadline("analysis");
    if (Guard->tripped())
      return false;
  }

  std::string Error;
  std::optional<JsonValue> Doc = JsonValue::parse(Text, &Error);
  if (!Doc || !Doc->isObject())
    return false;

  const JsonValue *Schema = Doc->find("schema");
  if (!Schema || !Schema->isString() || Schema->asString() != CacheSchema)
    return false;
  const JsonValue *Checksum = Doc->find("checksum");
  const JsonValue *Payload = Doc->find("payload");
  if (!Checksum || !Checksum->isString() || !Payload || !Payload->isObject())
    return false;
  if (stableHashHex(stableHashBytes(Payload->dump(0))) !=
      Checksum->asString())
    return false;

  const JsonValue *FP = Payload->find("options");
  if (!FP || !FP->isString() || FP->asString() != optionsFingerprint(Opts))
    return false;

  const JsonValue *Procs = Payload->find("procedures");
  if (!Procs || !Procs->isArray())
    return false;
  std::unordered_map<std::string, CacheEntry> Loaded;
  for (size_t I = 0, N = Procs->size(); I != N; ++I) {
    CacheEntry E;
    if (!entryFromJson(Procs->at(I), E))
      return false;
    std::string Name = E.Name;
    if (!Loaded.emplace(std::move(Name), std::move(E)).second)
      return false; // duplicate procedure: corrupt
  }
  if (Guard) {
    Guard->checkDeadline("analysis");
    if (Guard->tripped()) {
      Entries.clear();
      return false;
    }
  }

  Entries = std::move(Loaded);
  LoadFailed = false;
  return true;
}

std::string SummaryCache::storeName(const std::string &SourceName,
                                    const IPCPOptions &Opts) {
  return SourceName + '\n' + optionsFingerprint(Opts);
}

bool SummaryCache::load(ContentStore &Store, const std::string &SourceName,
                        const IPCPOptions &Opts, ResourceGuard *Guard) {
  Entries.clear();
  std::string Text;
  ContentStore::Lookup Found = Store.get(storeName(SourceName, Opts), Text);
  LoadFailed = Found == ContentStore::Lookup::Rejected;
  return Found == ContentStore::Lookup::Found &&
         loadFromString(Text, Opts, Guard);
}

bool SummaryCache::save(ContentStore &Store, const std::string &SourceName,
                        const IPCPOptions &Opts, std::string *Error) {
  return !RunCommitted ||
         !Store.putNamed(storeName(SourceName, Opts), serialize(Opts), Error)
              .empty();
}
