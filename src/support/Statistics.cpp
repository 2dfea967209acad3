//===- support/Statistics.cpp ---------------------------------------------===//
//
// Part of the ipcp project.
//
//===----------------------------------------------------------------------===//

#include "support/Statistics.h"

#include "support/Json.h"

#include <algorithm>

using namespace ipcp;

std::string StatisticSet::str() const {
  std::string Out;
  for (const auto &[Name, Count] : Counters) {
    Out += Name;
    Out += " = ";
    Out += std::to_string(Count);
    Out += '\n';
  }
  return Out;
}

JsonValue StatisticSet::toJson() const {
  JsonValue Obj = JsonValue::object();
  for (const auto &[Name, Count] : Counters)
    Obj.set(Name, JsonValue(Count));
  return Obj;
}

namespace {

struct CounterDesc {
  const char *Name;
  const char *Description;
};

constexpr CounterDesc Registry[] = {
#define IPCP_COUNTER(name, description) {#name, description},
#include "support/Counters.def"
#undef IPCP_COUNTER
};

} // namespace

const char *ipcp::describeCounter(const std::string &Name) {
  for (const CounterDesc &D : Registry)
    if (Name == D.Name)
      return D.Description;
  return nullptr;
}

bool ipcp::isRegisteredCounter(const std::string &Name) {
  return describeCounter(Name) != nullptr;
}

std::string ipcp::formatStatsTable(const StatisticSet &Stats) {
  // Registry order groups related counters; unregistered names (if any
  // slip through) are appended alphabetically so nothing is hidden.
  std::vector<std::pair<std::string, uint64_t>> Rows;
  for (const CounterDesc &D : Registry) {
    auto It = Stats.counters().find(D.Name);
    if (It != Stats.counters().end())
      Rows.push_back({D.Name, It->second});
  }
  for (const auto &[Name, Count] : Stats.counters())
    if (!isRegisteredCounter(Name))
      Rows.push_back({Name, Count});

  size_t NameWidth = 0, ValueWidth = 0;
  for (const auto &[Name, Count] : Rows) {
    NameWidth = std::max(NameWidth, Name.size());
    ValueWidth = std::max(ValueWidth, std::to_string(Count).size());
  }

  std::string Out;
  for (const auto &[Name, Count] : Rows) {
    Out += "  ";
    Out += Name;
    Out.append(NameWidth - Name.size(), ' ');
    std::string Value = std::to_string(Count);
    Out.append(2 + ValueWidth - Value.size(), ' ');
    Out += Value;
    if (const char *Desc = describeCounter(Name)) {
      Out += "  ";
      Out += Desc;
    }
    Out += '\n';
  }
  return Out;
}
