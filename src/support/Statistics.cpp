//===- support/Statistics.cpp ---------------------------------------------===//
//
// Part of the ipcp project.
//
//===----------------------------------------------------------------------===//

#include "support/Statistics.h"

#include "support/Json.h"

#include <algorithm>
#include <vector>

using namespace ipcp;

namespace {

struct CounterDesc {
  const char *Name;
  const char *Description;
};

constexpr CounterDesc Registry[NumCounters] = {
#define IPCP_COUNTER(name, description) {#name, description},
#include "support/Counters.def"
#undef IPCP_COUNTER
};

/// The counters sorted by name: the member order of every report's
/// "counters" object, which the goldens pin.
constexpr std::array<Counter, NumCounters> ByName = [] {
  std::array<Counter, NumCounters> Order{};
  for (unsigned I = 0; I != NumCounters; ++I)
    Order[I] = Counter(I);
  std::sort(Order.begin(), Order.end(), [](Counter A, Counter B) {
    return std::string_view(Registry[unsigned(A)].Name) <
           std::string_view(Registry[unsigned(B)].Name);
  });
  return Order;
}();

} // namespace

uint64_t StatisticSet::get(std::string_view Name) const {
  for (unsigned I = 0; I != NumCounters; ++I)
    if (Name == Registry[I].Name)
      return Values[I];
  return 0;
}

JsonValue StatisticSet::toJson() const {
  JsonValue Obj = JsonValue::object();
  for (Counter C : ByName)
    if (has(C))
      Obj.set(counterName(C), JsonValue(get(C)));
  return Obj;
}

const char *ipcp::counterName(Counter C) {
  return Registry[unsigned(C)].Name;
}

const char *ipcp::describeCounter(Counter C) {
  return Registry[unsigned(C)].Description;
}

std::string ipcp::formatStatsTable(const StatisticSet &Stats) {
  // Registry order groups related counters.
  std::vector<Counter> Rows;
  size_t NameWidth = 0, ValueWidth = 0;
  for (unsigned I = 0; I != NumCounters; ++I) {
    Counter C = Counter(I);
    if (!Stats.has(C))
      continue;
    Rows.push_back(C);
    NameWidth = std::max(NameWidth, std::string_view(counterName(C)).size());
    ValueWidth = std::max(ValueWidth, std::to_string(Stats.get(C)).size());
  }

  std::string Out;
  for (Counter C : Rows) {
    std::string_view Name = counterName(C);
    Out += "  ";
    Out += Name;
    Out.append(NameWidth - Name.size(), ' ');
    std::string Value = std::to_string(Stats.get(C));
    Out.append(2 + ValueWidth - Value.size(), ' ');
    Out += Value;
    Out += "  ";
    Out += describeCounter(C);
    Out += '\n';
  }
  return Out;
}
