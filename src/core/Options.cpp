//===- core/Options.cpp ---------------------------------------------------===//
//
// Part of the ipcp project.
//
//===----------------------------------------------------------------------===//

#include "core/Options.h"

#include "support/Json.h"

#include <algorithm>
#include <cerrno>
#include <cstdio>
#include <cstdlib>
#include <cstring>

using namespace ipcp;

namespace {

constexpr OptionChoice JumpFunctionChoices[] = {
    {"literal", unsigned(JumpFunctionKind::Literal)},
    {"intra", unsigned(JumpFunctionKind::IntraproceduralConstant)},
    {"pass-through", unsigned(JumpFunctionKind::PassThrough)},
    {"passthrough", unsigned(JumpFunctionKind::PassThrough)},
    {"polynomial", unsigned(JumpFunctionKind::Polynomial)},
};
constexpr OptionChoice EngineChoices[] = {
    {"jump", unsigned(PropagationEngine::Jump)},
    {"contexts", unsigned(PropagationEngine::Contexts)},
};

/// Ceiling of the budgets that size the parser stack and the contexts
/// and expression tables.
constexpr uint64_t TableCap = 1u << 20;
constexpr unsigned Analysis = OnDriver | OnOptions | OnReport;
constexpr unsigned Budget = OnDriver | OnServerd | OnLimits;

// Get/Set of one IPCPOptions field, converting through uint64_t.
#define FIELD(Field, Type)                                                     \
  .Get = [](const IPCPOptions &O) { return uint64_t(O.Field); },               \
  .Set = [](IPCPOptions &O, uint64_t V) { O.Field = Type(V); }

constexpr OptionSpec Table[] = {
    {.Key = "forward_jf", .Flag = "--jf", .FingerprintTag = "jf",
     .Surfaces = Analysis, .Type = OptionType::Choice,
     .Choices = JumpFunctionChoices, .Help = "jump function class",
     FIELD(ForwardKind, JumpFunctionKind)},
    {.Key = "return_jf", .Flag = "--no-return-jf", .FingerprintTag = "rjf",
     .Surfaces = Analysis, .Help = "no return jump functions",
     FIELD(UseReturnJumpFunctions, bool)},
    {.Key = "mod_information", .Flag = "--no-mod", .FingerprintTag = "mod",
     .Surfaces = Analysis, .Help = "worst-case MOD information",
     FIELD(UseModInformation, bool)},
    {.Key = "intraprocedural_only", .Flag = "--intra-only",
     .FingerprintTag = "intra", .Surfaces = Analysis,
     .Help = "intraprocedural baseline", FIELD(IntraproceduralOnly, bool)},
    {.Key = "gated_ssa", .Flag = "--gated-ssa", .FingerprintTag = "gated",
     .Surfaces = Analysis, .Help = "lift jump functions over gated SSA",
     FIELD(UseGatedSSA, bool)},
    {.Key = "engine", .Flag = "--engine", .FingerprintTag = "engine",
     .Surfaces = Analysis | OnSuitecheck, .Type = OptionType::Choice,
     .Choices = EngineChoices, .Help = "propagation engine",
     FIELD(Engine, PropagationEngine)},
    {.Key = "max_contexts", .Flag = "--max-contexts", .Surfaces = Analysis,
     .Type = OptionType::Count, .Min = 1, .Max = TableCap,
     .Help = "contexts-engine tabulation budget", FIELD(MaxContexts, unsigned)},
    {.Key = "max_expr_nodes", .FingerprintTag = "maxexpr",
     .Surfaces = OnOptions | OnReport, .Type = OptionType::Count, .Min = 1,
     .Max = TableCap, FIELD(MaxExprNodes, unsigned)},

    {.Key = "parse_depth", .Flag = "--limit-parse-depth", .Surfaces = Budget,
     .Type = OptionType::Count, .Min = 1, .Max = TableCap,
     .Help = "parser recursion depth", FIELD(Limits.MaxParseDepth, unsigned)},
    {.Key = "tokens", .Flag = "--limit-tokens", .Surfaces = Budget,
     .Type = OptionType::Count, .Help = "tokens per source buffer",
     FIELD(Limits.MaxTokens, uint64_t)},
    {.Key = "ast_nodes", .Flag = "--limit-ast-nodes", .Surfaces = Budget,
     .Type = OptionType::Count, .Help = "AST nodes the parser may allocate",
     FIELD(Limits.MaxAstNodes, uint64_t)},
    {.Key = "ir_insts", .Flag = "--limit-ir-insts", .Surfaces = Budget,
     .Type = OptionType::Count,
     .Help = "IR instructions entering (or grown by) the analysis",
     FIELD(Limits.MaxIRInstructions, uint64_t)},
    {.Key = "prop_evals", .Flag = "--limit-prop-evals", .Surfaces = Budget,
     .Type = OptionType::Count, .Help = "jump-function evaluations per solve",
     FIELD(Limits.MaxPropagationEvals, uint64_t)},
    {.Key = "deadline_ms", .Flag = "--deadline-ms", .Surfaces = Budget,
     .Type = OptionType::Count, .Help = "wall-clock deadline for the whole run",
     FIELD(Limits.DeadlineMs, uint64_t)},
};

#undef FIELD

const char *canonicalSpelling(std::span<const OptionChoice> Choices,
                              unsigned Value) {
  for (const OptionChoice &C : Choices)
    if (C.Value == Value)
      return C.Spelling;
  return "?";
}

/// Validates a Choice spelling (storing its enumerator in \p Value) or a
/// Count \p Value; a range error names the setting \p Name.
bool acceptValue(const OptionSpec &Row, const std::string &Name,
                 const std::string &Spelling, uint64_t &Value,
                 std::string &Error) {
  if (Row.Type == OptionType::Choice) {
    for (const OptionChoice &C : Row.Choices)
      if (Spelling == C.Spelling) {
        Value = C.Value;
        return true;
      }
    Error = std::string("unknown ") + Row.Help + " '" + Spelling + "'";
    return false;
  }
  if (Value >= Row.Min && Value <= Row.Max)
    return true;
  Error = Name + " must be in [" + std::to_string(Row.Min) + ", " +
          std::to_string(Row.Max) + "]";
  return false;
}

bool readUintFlag(const std::string &Arg, size_t PrefixLen, uint64_t &Out,
                  std::string &Error) {
  std::string Text = Arg.substr(PrefixLen);
  if (Text.empty() ||
      Text.find_first_not_of("0123456789") != std::string::npos) {
    Error = "malformed value in '" + Arg +
            "' (expect a non-negative integer)";
    return false;
  }
  errno = 0;
  Out = std::strtoull(Text.c_str(), nullptr, 10);
  if (errno == ERANGE) {
    Error = "value out of range in '" + Arg + "'";
    return false;
  }
  return true;
}

[[noreturn]] void exitUsage(const std::string &Message) {
  std::fprintf(stderr, "error: %s\n", Message.c_str());
  std::exit(1);
}

/// Reads one request member of a Switch, Choice or Count row.
bool readRequestValue(const OptionSpec &Row, const JsonValue &V,
                      uint64_t &Out, std::string &Error) {
  bool Switch = Row.Type == OptionType::Switch;
  bool Choice = Row.Type == OptionType::Choice;
  std::string Name = std::string("'") + Row.Key + "'";
  if (Switch   ? !V.isBool()
      : Choice ? !V.isString()
               : !V.isInt() || V.asInt() < 0) {
    Error = Name + " must be " +
            (Switch   ? "a boolean"
             : Choice ? "a string"
                      : "a non-negative integer");
    return false;
  }
  if (Switch) {
    Out = V.asBool();
    return true;
  }
  Out = Choice ? 0 : uint64_t(V.asInt());
  return acceptValue(Row, Name, Choice ? V.asString() : "", Out, Error);
}

} // namespace

std::span<const OptionSpec> ipcp::optionTable() { return Table; }

const char *ipcp::jumpFunctionKindName(JumpFunctionKind Kind) {
  return canonicalSpelling(JumpFunctionChoices, unsigned(Kind));
}

std::string ipcp::optionText(const OptionSpec &Row, const IPCPOptions &Opts) {
  uint64_t Value = Row.Get(Opts);
  if (Row.Type == OptionType::Choice)
    return canonicalSpelling(Row.Choices, unsigned(Value));
  return Row.Type == OptionType::Count ? std::to_string(Value)
                                       : Value ? "1" : "0";
}

bool ipcp::parseOptionFlag(const std::string &Arg, unsigned Surface,
                           IPCPOptions &Opts, std::string &Error) {
  for (const OptionSpec &Row : Table) {
    if (!Row.Flag || !(Row.Surfaces & Surface))
      continue;
    if (Row.Type == OptionType::Switch) {
      if (Arg != Row.Flag)
        continue;
      Row.Set(Opts, !Row.Get(IPCPOptions()));
      return true;
    }
    size_t Len = std::strlen(Row.Flag);
    if (Arg.compare(0, Len, Row.Flag) != 0 || Arg.size() == Len ||
        Arg[Len] != '=')
      continue;
    uint64_t Value = 0;
    if ((Row.Type == OptionType::Choice ||
         readUintFlag(Arg, Len + 1, Value, Error)) &&
        acceptValue(Row, Row.Flag, Arg.substr(Len + 1), Value, Error))
      Row.Set(Opts, Value);
    return true;
  }
  return false;
}

bool ipcp::takeOptionFlag(const std::string &Arg, unsigned Surface,
                          IPCPOptions &Opts) {
  std::string Error;
  bool Matched = parseOptionFlag(Arg, Surface, Opts, Error);
  if (!Error.empty())
    exitUsage(Error);
  return Matched;
}

uint64_t ipcp::parseUintFlag(const std::string &Arg, size_t PrefixLen,
                             uint64_t Max) {
  uint64_t Value = 0;
  std::string Error;
  if (!readUintFlag(Arg, PrefixLen, Value, Error))
    exitUsage(Error);
  if (Value > Max)
    exitUsage("value out of range in '" + Arg + "'");
  return Value;
}

std::string ipcp::optionHelp(unsigned Surface, unsigned Group) {
  constexpr size_t Column = 25; // where the help text starts
  const IPCPOptions Defaults;
  std::string Out;
  for (const OptionSpec &Row : Table) {
    if (!Row.Flag || !(Row.Surfaces & Surface) || !(Row.Surfaces & Group))
      continue;
    std::string Line = std::string("  ") + Row.Flag;
    for (size_t I = 0; I != Row.Choices.size(); ++I)
      Line += (I ? '|' : '=') + std::string(Row.Choices[I].Spelling);
    if (Row.Type == OptionType::Count)
      Line += "=N";
    Line += Line.size() + 2 > Column ? "\n" + std::string(Column, ' ')
                                     : std::string(Column - Line.size(), ' ');
    Out += Line + Row.Help;
    if (Row.Type == OptionType::Choice ||
        (Row.Type == OptionType::Count && Row.Get(Defaults) != 0))
      Out += " (default " + optionText(Row, Defaults) + ")";
    Out += "\n";
  }
  return Out;
}

bool ipcp::applyRequestOptions(const JsonValue &Request, IPCPOptions &Opts,
                               uint64_t (*MergeLimit)(uint64_t, uint64_t),
                               std::string *Error) {
  for (unsigned Group : {OnOptions, OnLimits}) {
    std::string Member = Group == OnLimits ? "limits" : "options";
    const JsonValue *Obj = Request.find(Member);
    if (!Obj)
      continue;
    if (!Obj->isObject()) {
      *Error = "'" + Member + "' must be an object";
      return false;
    }
    // Unknown keys fail before any value is read, so a typo cannot
    // silently analyze under defaults.
    for (const auto &[Key, Val] : Obj->members())
      if (std::none_of(std::begin(Table), std::end(Table),
                       [&](const OptionSpec &Row) {
                         return (Row.Surfaces & Group) && Key == Row.Key;
                       })) {
        *Error = "unknown " + Member + " key '" + Key + "'";
        return false;
      }
    for (const OptionSpec &Row : Table) {
      const JsonValue *V =
          (Row.Surfaces & Group) ? Obj->find(Row.Key) : nullptr;
      // An empty Choice spelling leaves the setting as it is.
      if (!V || (Row.Type == OptionType::Choice && V->isString() &&
                 V->asString().empty()))
        continue;
      uint64_t Value = 0;
      if (!readRequestValue(Row, *V, Value, *Error))
        return false;
      Row.Set(Opts,
              Group == OnLimits ? MergeLimit(Row.Get(Opts), Value) : Value);
    }
  }
  return true;
}
