//===- core/SummaryCache.cpp ----------------------------------------------===//
//
// Part of the ipcp project.
//
//===----------------------------------------------------------------------===//

#include "core/SummaryCache.h"

#include "ir/Variable.h"
#include "support/ContentStore.h"
#include "support/Json.h"
#include "support/StableHash.h"

#include <algorithm>
#include <charconv>
#include <numeric>
#include <optional>
#include <string_view>

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
  return !Opts.IntraproceduralOnly && Opts.Engine == PropagationEngine::Jump;
}

//===----------------------------------------------------------------------===//
// The text codec: document spellings of variables, values and expressions
//===----------------------------------------------------------------------===//

namespace {

/// "F<i>" (formal of the owning procedure, by position), "G:<name>"
/// (global), "L:<name>" (local).
std::string varText(SummaryVar V, const SummaryCache &Cache) {
  if (V.K == SummaryVar::Kind::Formal)
    return 'F' + std::to_string(V.Index);
  return (V.K == SummaryVar::Kind::Global ? "G:" : "L:") + Cache.name(V.Index);
}

/// "c:<n>" or "bot"; top is never written.
std::string valueText(LatticeValue V) {
  return V.isConstant() ? "c:" + std::to_string(V.getConstant()) : "bot";
}

/// Prefix, space-separated: "_" bottom, "C<n>" constant, variables as
/// above, "(<op> L R)" binary with the operator's source spelling,
/// "(u- X)" / "(u! X)" unary.
void renderNode(const CacheEntry &E, uint32_t Index, const SummaryCache &Cache,
                std::string &Out) {
  const SummaryNode &N = E.Nodes[Index];
  switch (N.K) {
  case SymExpr::Kind::Const:
    Out += 'C';
    Out += std::to_string(N.C);
    return;
  case SymExpr::Kind::Formal:
    Out += varText(N.Var, Cache);
    return;
  case SymExpr::Kind::Binary:
    Out += "(";
    Out += binaryOpSpelling(N.BinOp);
    Out += " ";
    renderNode(E, N.L, Cache, Out);
    Out += " ";
    renderNode(E, N.R, Cache, Out);
    Out += ")";
    return;
  case SymExpr::Kind::Unary:
    Out += "(u";
    Out += unaryOpSpelling(N.UnOp);
    Out += " ";
    renderNode(E, N.L, Cache, Out);
    Out += ")";
    return;
  }
}

std::string exprText(const CacheEntry &E, uint32_t Root,
                     const SummaryCache &Cache) {
  if (Root == CacheEntry::Bottom)
    return "_";
  std::string Out;
  renderNode(E, Root, Cache, Out);
  return Out;
}

/// Decodes a variable spelling, interning its name into \p Cache.
bool parseVar(std::string_view Text, SummaryCache &Cache, SummaryVar &V) {
  if (Text.size() >= 2 && Text[0] == 'F') {
    uint32_t Index = 0;
    const char *End = Text.data() + Text.size();
    auto [Ptr, Ec] = std::from_chars(Text.data() + 1, End, Index);
    if (Ec != std::errc() || Ptr != End)
      return false;
    V = {SummaryVar::Kind::Formal, Index};
    return true;
  }
  if (Text.size() > 2 && Text[1] == ':' && (Text[0] == 'G' || Text[0] == 'L')) {
    V = {Text[0] == 'G' ? SummaryVar::Kind::Global : SummaryVar::Kind::Local,
         Cache.intern(std::string(Text.substr(2)))};
    return true;
  }
  return false;
}

bool parseValue(std::string_view Text, LatticeValue &V) {
  if (Text == "bot") {
    V = LatticeValue::bottom();
    return true;
  }
  ConstantValue N = 0;
  const char *End = Text.data() + Text.size();
  if (Text.size() <= 2 || Text.substr(0, 2) != "c:")
    return false;
  auto [Ptr, Ec] = std::from_chars(Text.data() + 2, End, N);
  if (Ec != std::errc() || Ptr != End)
    return false;
  V = LatticeValue::constant(N);
  return true;
}

std::optional<BinaryOp> binaryOpFromSpelling(std::string_view Token) {
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
/// grammar, appending each expression to an entry's pool in post-order.
/// Depth-capped: cached expressions are trees the analysis built under
/// its node cap, so anything deeper is corrupt input, not data.
class ExprParser {
public:
  ExprParser(std::string_view Text, CacheEntry &E, SummaryCache &Cache)
      : E(E), Cache(Cache) {
    tokenize(Text);
  }

  /// The root of the parsed expression, or false when \p Text is
  /// malformed.
  bool parse(uint32_t &Root) {
    Root = parseOne(0);
    return !Failed && Pos == Tokens.size();
  }

private:
  void tokenize(std::string_view Text) {
    size_t Begin = 0;
    auto Flush = [&](size_t End) {
      if (End > Begin)
        Tokens.push_back(Text.substr(Begin, End - Begin));
      Begin = End + 1;
    };
    for (size_t I = 0; I != Text.size(); ++I) {
      char C = Text[I];
      if (C == ' ' || C == '\t') {
        Flush(I);
      } else if (C == '(' || C == ')') {
        Flush(I);
        Tokens.push_back(Text.substr(I, 1));
      }
    }
    Flush(Text.size());
  }

  std::string_view next() {
    if (Pos >= Tokens.size()) {
      Failed = true;
      return {};
    }
    return Tokens[Pos++];
  }

  uint32_t add(SummaryNode N) {
    E.Nodes.push_back(N);
    return uint32_t(E.Nodes.size() - 1);
  }

  uint32_t parseOne(unsigned Depth) {
    if (Depth > 512) {
      Failed = true;
      return 0;
    }
    std::string_view Tok = next();
    if (Tok.empty())
      return 0;
    SummaryNode N;
    if (Tok == "(") {
      std::string_view Op = next();
      if (Op == "u-" || Op == "u!") {
        N.K = SymExpr::Kind::Unary;
        N.UnOp = Op == "u-" ? UnaryOp::Neg : UnaryOp::Not;
        N.L = parseOne(Depth + 1);
      } else if (std::optional<BinaryOp> BOp = binaryOpFromSpelling(Op)) {
        N.K = SymExpr::Kind::Binary;
        N.BinOp = *BOp;
        N.L = parseOne(Depth + 1);
        N.R = parseOne(Depth + 1);
      } else {
        Failed = true;
        return 0;
      }
      if (next() != ")")
        Failed = true;
      return Failed ? 0 : add(N);
    }
    if (Tok[0] == 'C') {
      const char *End = Tok.data() + Tok.size();
      auto [Ptr, Ec] = std::from_chars(Tok.data() + 1, End, N.C);
      if (Ec != std::errc() || Ptr != End) {
        Failed = true;
        return 0;
      }
      return add(N);
    }
    N.K = SymExpr::Kind::Formal;
    if (!parseVar(Tok, Cache, N.Var)) {
      Failed = true;
      return 0;
    }
    return add(N);
  }

  CacheEntry &E;
  SummaryCache &Cache;
  std::vector<std::string_view> Tokens;
  size_t Pos = 0;
  bool Failed = false;
};

/// The three decoders below accept only the spelling serialize writes,
/// so a decoded entry re-renders to the text it came from.
bool decodeExpr(const JsonValue &V, CacheEntry &E, SummaryCache &Cache,
                uint32_t &Root) {
  if (!V.isString())
    return false;
  const std::string &Text = V.asString();
  if (Text == "_") {
    Root = CacheEntry::Bottom;
    return true;
  }
  return ExprParser(Text, E, Cache).parse(Root) &&
         exprText(E, Root, Cache) == Text;
}

bool decodeVar(const JsonValue &V, SummaryCache &Cache, SummaryVar &Out) {
  return V.isString() && parseVar(V.asString(), Cache, Out) &&
         varText(Out, Cache) == V.asString();
}

bool decodeValue(const JsonValue &V, LatticeValue &Out) {
  return V.isString() && parseValue(V.asString(), Out) &&
         valueText(Out) == V.asString();
}

} // namespace

//===----------------------------------------------------------------------===//
// Names and fresh entries
//===----------------------------------------------------------------------===//

uint32_t SummaryCache::findName(std::string_view Name) const {
  auto It = NameIndex.find(Name);
  return It == NameIndex.end() ? NoName : It->second;
}

uint32_t SummaryCache::intern(std::string_view Name) {
  auto It = NameIndex.find(Name);
  if (It != NameIndex.end())
    return It->second;
  uint32_t Index = uint32_t(Names.size());
  NameIndex.emplace(std::string(Name), Index);
  Names.emplace_back(Name);
  return Index;
}

SummaryVar SummaryCache::var(const Variable *V) {
  if (V->isFormal())
    return {SummaryVar::Kind::Formal, V->getFormalIndex()};
  return {V->isGlobal() ? SummaryVar::Kind::Global : SummaryVar::Kind::Local,
          intern(V->getName())};
}

uint32_t SummaryCache::addExpr(CacheEntry &Entry, const SymExpr *E) {
  if (!E)
    return CacheEntry::Bottom;
  SummaryNode N;
  N.K = E->getKind();
  switch (N.K) {
  case SymExpr::Kind::Const:
    N.C = E->getConst();
    break;
  case SymExpr::Kind::Formal:
    N.Var = var(E->getFormal());
    break;
  case SymExpr::Kind::Binary:
    N.BinOp = E->getBinaryOp();
    N.L = addExpr(Entry, E->getLHS());
    N.R = addExpr(Entry, E->getRHS());
    break;
  case SymExpr::Kind::Unary:
    N.UnOp = E->getUnaryOp();
    N.L = addExpr(Entry, E->getLHS());
    break;
  }
  Entry.Nodes.push_back(N);
  return uint32_t(Entry.Nodes.size() - 1);
}

namespace {

/// Positions in \p Set (ID order, the ValLayout's) in name order, the
/// order an entry keeps its globals in.
std::vector<uint32_t> byName(const VariableSet &Set) {
  std::vector<uint32_t> Order(Set.size());
  std::iota(Order.begin(), Order.end(), 0u);
  std::sort(Order.begin(), Order.end(), [&Set](uint32_t A, uint32_t B) {
    return Set.begin()[A]->getName() < Set.begin()[B]->getName();
  });
  return Order;
}

} // namespace

std::vector<uint32_t> SummaryCache::globalNames(const VariableSet &Set) {
  std::vector<uint32_t> Out;
  for (uint32_t K : byName(Set))
    Out.push_back(intern(Set.begin()[K]->getName()));
  return Out;
}

void SummaryCache::seal(CacheEntry &E) const {
  std::vector<std::pair<std::string, std::pair<SummaryVar, uint32_t>>> Keyed;
  for (const auto &JF : E.ReturnJFs)
    Keyed.push_back({varText(JF.first, *this), JF});
  std::sort(Keyed.begin(), Keyed.end(),
            [](const auto &A, const auto &B) { return A.first < B.first; });
  for (size_t I = 0; I != Keyed.size(); ++I)
    E.ReturnJFs[I] = Keyed[I].second;
  E.ContentHash = contentHash(E);
}

bool SummaryCache::readVal(const CacheEntry &E, size_t NumFormals,
                           const VariableSet &Ext,
                           std::span<LatticeValue> Row) const {
  const CacheEntry::RunState &Run = E.Run;
  if (!Run.HasVal || Run.ValFormals.size() > NumFormals ||
      E.ExtGlobals.size() != Ext.size() ||
      Run.ValGlobals.size() != Ext.size() ||
      Row.size() != NumFormals + Ext.size())
    return false;
  std::vector<uint32_t> Order = byName(Ext);
  for (size_t K = 0; K != Order.size(); ++K)
    if (Names[E.ExtGlobals[K]] != Ext.begin()[Order[K]]->getName())
      return false;
  std::fill(Row.begin(), Row.end(), LatticeValue::top());
  std::copy(Run.ValFormals.begin(), Run.ValFormals.end(), Row.begin());
  for (size_t K = 0; K != Order.size(); ++K)
    Row[NumFormals + Order[K]] = Run.ValGlobals[K];
  return true;
}

void SummaryCache::writeVal(std::span<const LatticeValue> Row,
                            size_t NumFormals, const VariableSet &Ext,
                            CacheEntry::RunState &Run) {
  Run.HasVal = true;
  Run.ValFormals.clear();
  Run.ValGlobals.assign(Ext.size(), LatticeValue::top());
  if (Row.size() != NumFormals + Ext.size())
    return;
  Run.ValFormals.assign(Row.begin(), Row.begin() + NumFormals);
  std::vector<uint32_t> Order = byName(Ext);
  for (size_t K = 0; K != Order.size(); ++K)
    Run.ValGlobals[K] = Row[NumFormals + Order[K]];
}

uint64_t SummaryCache::contentHash(const CacheEntry &E) const {
  StableHasher H;
  H.u8(0x4d); // 'M'
  H.u32(uint32_t(E.ModFormals.size()));
  for (unsigned I : E.ModFormals)
    H.u32(I);
  for (const std::vector<uint32_t> *Globals : {&E.ModGlobals, &E.ExtGlobals}) {
    H.u32(uint32_t(Globals->size()));
    for (uint32_t G : *Globals)
      H.str(Names[G]);
  }
  H.u8(0x52); // 'R'
  H.u32(uint32_t(E.ReturnJFs.size()));
  for (const auto &[Var, Root] : E.ReturnJFs) {
    H.str(varText(Var, *this));
    H.str(exprText(E, Root, *this));
  }
  return H.result();
}

//===----------------------------------------------------------------------===//
// JSON encode / decode
//===----------------------------------------------------------------------===//

namespace {

JsonValue hashJson(uint64_t H) { return std::string(stableHashDigits(H).view()); }

JsonValue namesJson(const std::vector<uint32_t> &Names,
                    const SummaryCache &Cache) {
  JsonValue Arr = JsonValue::array();
  for (uint32_t N : Names)
    Arr.push(Cache.name(N));
  return Arr;
}

JsonValue pairJson(std::string A, std::string B) {
  JsonValue Pair = JsonValue::array();
  Pair.push(std::move(A));
  Pair.push(std::move(B));
  return Pair;
}

JsonValue varExprsJson(const std::vector<std::pair<SummaryVar, uint32_t>> &JFs,
                       const CacheEntry &E, const SummaryCache &Cache) {
  JsonValue Arr = JsonValue::array();
  for (const auto &[Var, Root] : JFs)
    Arr.push(pairJson(varText(Var, Cache), exprText(E, Root, Cache)));
  return Arr;
}

JsonValue entryToJson(const std::string &Name, const CacheEntry &E,
                      const SummaryCache &Cache) {
  JsonValue Obj = JsonValue::object();
  Obj.set("name", Name);
  Obj.set("body", hashJson(E.BodyHash));
  Obj.set("scc_key", hashJson(E.SCCKey));
  Obj.set("callers", hashJson(E.Run.CallersHash));

  JsonValue ModFormals = JsonValue::array();
  for (unsigned I : E.ModFormals)
    ModFormals.push(I);
  Obj.set("mod_formals", std::move(ModFormals));
  Obj.set("mod_globals", namesJson(E.ModGlobals, Cache));
  Obj.set("ext_globals", namesJson(E.ExtGlobals, Cache));

  Obj.set("return_jfs", varExprsJson(E.ReturnJFs, E, Cache));

  JsonValue Sites = JsonValue::array();
  for (const CacheEntry::SiteJFs &S : E.ForwardJFs) {
    JsonValue Site = JsonValue::object();
    Site.set("callee", Cache.name(S.Callee));
    JsonValue Formals = JsonValue::array();
    for (uint32_t Root : S.Formals)
      Formals.push(exprText(E, Root, Cache));
    Site.set("formals", std::move(Formals));
    Site.set("globals", varExprsJson(S.Globals, E, Cache));
    Sites.push(std::move(Site));
  }
  Obj.set("forward_jfs", std::move(Sites));

  if (E.Run.HasVal) {
    // Non-top values only, sorted by variable spelling.
    std::vector<std::pair<std::string, std::string>> Val;
    for (uint32_t I = 0; I != E.Run.ValFormals.size(); ++I)
      if (!E.Run.ValFormals[I].isTop())
        Val.push_back({varText({SummaryVar::Kind::Formal, I}, Cache),
                       valueText(E.Run.ValFormals[I])});
    for (size_t K = 0; K != E.Run.ValGlobals.size(); ++K)
      if (!E.Run.ValGlobals[K].isTop())
        Val.push_back(
            {varText({SummaryVar::Kind::Global, E.ExtGlobals[K]}, Cache),
             valueText(E.Run.ValGlobals[K])});
    std::sort(Val.begin(), Val.end());
    JsonValue Arr = JsonValue::array();
    for (auto &[Ref, Value] : Val)
      Arr.push(pairJson(std::move(Ref), std::move(Value)));
    Obj.set("val", std::move(Arr));
  }
  if (E.Run.HasRecord) {
    JsonValue Rec = JsonValue::object();
    Rec.set("refs", E.Run.Record.ConstantRefs);
    Rec.set("irrelevant", E.Run.Record.IrrelevantConstants);
    Rec.set("sccp_values", E.Run.Record.SCCPConstantValues);
    Rec.set("sccp_blocks", E.Run.Record.SCCPExecutableBlocks);
    Obj.set("record", std::move(Rec));
  }
  return Obj;
}

/// Decodes one entry of a document into \p Cache's tables. \p FormalSlots
/// counts the VAL formal slots of the whole document against its length,
/// which bounds what a forged index can make a load allocate.
class EntryDecoder {
public:
  EntryDecoder(SummaryCache &Cache, CacheEntry &E, size_t &FormalSlots,
               size_t MaxFormalSlots)
      : Cache(Cache), E(E), FormalSlots(FormalSlots),
        MaxFormalSlots(MaxFormalSlots) {}

  bool decode(const JsonValue &Obj, uint32_t &Name) {
    if (!Obj.isObject())
      return false;
    const JsonValue *NameV = Obj.find("name");
    if (!NameV || !NameV->isString() || !hash(Obj, "body", E.BodyHash) ||
        !hash(Obj, "scc_key", E.SCCKey) ||
        !hash(Obj, "callers", E.Run.CallersHash))
      return false;
    Name = Cache.intern(NameV->asString());

    const JsonValue *ModFormals = Obj.find("mod_formals");
    if (!ModFormals || !ModFormals->isArray())
      return false;
    for (size_t I = 0, N = ModFormals->size(); I != N; ++I) {
      const JsonValue &F = ModFormals->at(I);
      if (!F.isInt() || F.asInt() < 0 || F.asInt() > int64_t(UINT32_MAX))
        return false;
      E.ModFormals.push_back(unsigned(F.asInt()));
    }
    if (!names(Obj.find("mod_globals"), E.ModGlobals) ||
        !names(Obj.find("ext_globals"), E.ExtGlobals) ||
        !varExprs(Obj.find("return_jfs"), E.ReturnJFs, true))
      return false;

    const JsonValue *Sites = Obj.find("forward_jfs");
    if (!Sites || !Sites->isArray())
      return false;
    for (size_t I = 0, N = Sites->size(); I != N; ++I) {
      const JsonValue &Site = Sites->at(I);
      CacheEntry::SiteJFs S;
      const JsonValue *Callee = Site.find("callee");
      const JsonValue *Formals = Site.find("formals");
      if (!Callee || !Callee->isString() || !Formals || !Formals->isArray())
        return false;
      S.Callee = Cache.intern(Callee->asString());
      for (size_t F = 0, NF = Formals->size(); F != NF; ++F)
        if (!decodeExpr(Formals->at(F), E, Cache, S.Formals.emplace_back()))
          return false;
      if (!varExprs(Site.find("globals"), S.Globals, false))
        return false;
      E.ForwardJFs.push_back(std::move(S));
    }

    if (const JsonValue *Val = Obj.find("val")) {
      if (!val(*Val))
        return false;
      E.Run.HasVal = true;
    }
    if (const JsonValue *Rec = Obj.find("record")) {
      auto Count = [&Rec](const char *Key, uint64_t &Out) {
        const JsonValue *V = Rec->find(Key);
        if (!V || !V->isInt() || V->asInt() < 0)
          return false;
        Out = uint64_t(V->asInt());
        return true;
      };
      CacheEntry::RecordCounts &R = E.Run.Record;
      if (!Count("refs", R.ConstantRefs) ||
          !Count("irrelevant", R.IrrelevantConstants) ||
          !Count("sccp_values", R.SCCPConstantValues) ||
          !Count("sccp_blocks", R.SCCPExecutableBlocks))
        return false;
      E.Run.HasRecord = true;
    }
    Cache.seal(E);
    return true;
  }

private:
  bool hash(const JsonValue &Obj, const char *Key, uint64_t &Out) {
    const JsonValue *V = Obj.find(Key);
    return V && V->isString() && parseStableHashHex(V->asString(), Out);
  }

  /// Names sorted strictly, as serialize writes them.
  bool names(const JsonValue *V, std::vector<uint32_t> &Out) {
    if (!V || !V->isArray())
      return false;
    for (size_t I = 0, N = V->size(); I != N; ++I) {
      const JsonValue &Name = V->at(I);
      if (!Name.isString() || (I && !(V->at(I - 1).asString() < Name.asString())))
        return false;
      Out.push_back(Cache.intern(Name.asString()));
    }
    return true;
  }

  /// (variable, expression) pairs; \p Sorted requires them strictly
  /// sorted by variable spelling.
  bool varExprs(const JsonValue *V,
                std::vector<std::pair<SummaryVar, uint32_t>> &Out,
                bool Sorted) {
    if (!V || !V->isArray())
      return false;
    for (size_t I = 0, N = V->size(); I != N; ++I) {
      const JsonValue &Pair = V->at(I);
      SummaryVar Var;
      uint32_t Root = 0;
      if (!Pair.isArray() || Pair.size() != 2 ||
          !decodeVar(Pair.at(0), Cache, Var) ||
          !decodeExpr(Pair.at(1), E, Cache, Root))
        return false;
      if (Sorted && I &&
          !(V->at(I - 1).at(0).asString() < Pair.at(0).asString()))
        return false;
      Out.push_back({Var, Root});
    }
    return true;
  }

  /// The non-top VAL values, sorted strictly by variable spelling; a
  /// formal by position, a global only when ExtGlobals names it.
  bool val(const JsonValue &V) {
    if (!V.isArray())
      return false;
    E.Run.ValGlobals.assign(E.ExtGlobals.size(), LatticeValue::top());
    for (size_t I = 0, N = V.size(); I != N; ++I) {
      const JsonValue &Pair = V.at(I);
      SummaryVar Var;
      LatticeValue Value;
      if (!Pair.isArray() || Pair.size() != 2 ||
          !decodeVar(Pair.at(0), Cache, Var) ||
          !decodeValue(Pair.at(1), Value) ||
          (I && !(V.at(I - 1).at(0).asString() < Pair.at(0).asString())))
        return false;
      if (Var.K == SummaryVar::Kind::Formal) {
        // In size_t: F4294967295 spells a valid uint32_t index, and its
        // slot count must not wrap.
        std::vector<LatticeValue> &Formals = E.Run.ValFormals;
        size_t Need = size_t(Var.Index) + 1;
        if (Need > Formals.size()) {
          FormalSlots += Need - Formals.size();
          if (FormalSlots > MaxFormalSlots)
            return false;
          Formals.resize(Need, LatticeValue::top());
        }
        Formals[Var.Index] = Value;
      } else if (Var.K == SummaryVar::Kind::Global) {
        auto It = std::find(E.ExtGlobals.begin(), E.ExtGlobals.end(),
                            Var.Index);
        if (It == E.ExtGlobals.end())
          return false;
        E.Run.ValGlobals[size_t(It - E.ExtGlobals.begin())] = Value;
      } else {
        return false;
      }
    }
    return true;
  }

  SummaryCache &Cache;
  CacheEntry &E;
  size_t &FormalSlots;
  size_t MaxFormalSlots;
};

} // namespace

//===----------------------------------------------------------------------===//
// Store lifecycle
//===----------------------------------------------------------------------===//

size_t SummaryCache::size() const {
  return size_t(std::count_if(
      Entries.begin(), Entries.end(),
      [](const std::unique_ptr<CacheEntry> &E) { return E != nullptr; }));
}

void SummaryCache::commit(std::vector<CommittedProc> Procs) {
  Entries.resize(Names.size());
  std::vector<char> Kept(Entries.size(), 0);
  for (CommittedProc &C : Procs) {
    std::unique_ptr<CacheEntry> &Slot = Entries[C.Name];
    if (C.Fresh)
      Slot = std::move(C.Fresh);
    assert(Slot && "a carried-forward entry must exist");
    Slot->Run = std::move(C.Run);
    Kept[C.Name] = 1;
  }
  for (size_t I = 0; I != Entries.size(); ++I)
    if (!Kept[I])
      Entries[I].reset();
  RunCommitted = true;
}

void SummaryCache::beginRun() {
  LoadFailed = false;
  if (Names.size() > 2 * CompactNames)
    compactNames();
}

void SummaryCache::compactNames() {
  SummaryCache Fresh;
  std::vector<uint32_t> Map(Names.size(), NoName);
  auto Remap = [&](uint32_t &N) {
    if (Map[N] == NoName)
      Map[N] = Fresh.intern(Names[N]);
    N = Map[N];
  };
  auto RemapVar = [&](SummaryVar &V) {
    if (V.K != SummaryVar::Kind::Formal)
      Remap(V.Index);
  };
  for (uint32_t I = 0; I != Entries.size(); ++I) {
    if (!Entries[I])
      continue;
    uint32_t Name = I;
    Remap(Name);
    CacheEntry &E = *Entries[I];
    for (std::vector<uint32_t> *Globals : {&E.ModGlobals, &E.ExtGlobals})
      for (uint32_t &G : *Globals)
        Remap(G);
    for (SummaryNode &N : E.Nodes)
      if (N.K == SymExpr::Kind::Formal)
        RemapVar(N.Var);
    for (auto &JF : E.ReturnJFs)
      RemapVar(JF.first);
    for (CacheEntry::SiteJFs &S : E.ForwardJFs) {
      Remap(S.Callee);
      for (auto &JF : S.Globals)
        RemapVar(JF.first);
    }
    Fresh.Entries.resize(Fresh.Names.size());
    Fresh.Entries[Name] = std::move(Entries[I]);
  }
  Names = std::move(Fresh.Names);
  NameIndex = std::move(Fresh.NameIndex);
  Entries = std::move(Fresh.Entries);
  CompactNames = Names.size();
}

std::string SummaryCache::serialize(const IPCPOptions &Opts) const {
  JsonValue Payload = JsonValue::object();
  Payload.set("options", optionsFingerprint(Opts));

  std::vector<uint32_t> Sorted;
  for (uint32_t I = 0; I != Entries.size(); ++I)
    if (Entries[I])
      Sorted.push_back(I);
  std::sort(Sorted.begin(), Sorted.end(),
            [this](uint32_t A, uint32_t B) { return Names[A] < Names[B]; });
  JsonValue Procs = JsonValue::array();
  for (uint32_t I : Sorted)
    Procs.push(entryToJson(Names[I], *Entries[I], *this));
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
  Names.clear();
  NameIndex.clear();
  Entries.clear();
  CompactNames = 0;
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
  SummaryCache Loaded;
  size_t FormalSlots = 0;
  for (size_t I = 0, N = Procs->size(); I != N; ++I) {
    auto E = std::make_unique<CacheEntry>();
    uint32_t Name = NoName;
    if (!EntryDecoder(Loaded, *E, FormalSlots, Text.size())
             .decode(Procs->at(I), Name))
      return false;
    Loaded.Entries.resize(Loaded.Names.size());
    if (Loaded.Entries[Name])
      return false; // duplicate procedure: corrupt
    Loaded.Entries[Name] = std::move(E);
  }
  if (Guard) {
    Guard->checkDeadline("analysis");
    if (Guard->tripped())
      return false;
  }

  Names = std::move(Loaded.Names);
  NameIndex = std::move(Loaded.NameIndex);
  Entries = std::move(Loaded.Entries);
  CompactNames = Names.size();
  LoadFailed = false;
  return true;
}

std::string SummaryCache::storeName(const std::string &SourceName,
                                    const IPCPOptions &Opts) {
  return SourceName + '\n' + optionsFingerprint(Opts);
}

bool SummaryCache::load(ContentStore &Store, const std::string &SourceName,
                        const IPCPOptions &Opts, ResourceGuard *Guard) {
  Names.clear();
  NameIndex.clear();
  Entries.clear();
  CompactNames = 0;
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
