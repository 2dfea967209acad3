//===- workload/ServiceWorkload.cpp ---------------------------------------===//
//
// Part of the ipcp project.
//
//===----------------------------------------------------------------------===//

#include "workload/ServiceWorkload.h"

#include "core/Options.h"
#include "workload/Programs.h"

using namespace ipcp;

// The same xorshift mix the program generator uses; seeded identically,
// a log is a pure function of its config. Draws happen in a fixed order
// (and the session draw only when SessionCount > 1), so the historical
// single-session byte stream is preserved exactly.
uint64_t ServiceLogStream::rngNext() {
  RngState ^= RngState << 13;
  RngState ^= RngState >> 7;
  RngState ^= RngState << 17;
  return RngState;
}

unsigned ServiceLogStream::rngBelow(unsigned N) {
  return unsigned(rngNext() % N);
}

bool ServiceLogStream::rngPercent(unsigned Chance) {
  return rngBelow(100) < Chance;
}

ServiceLogStream::ServiceLogStream(ServiceLogConfig C)
    : Config(std::move(C)) {
  if (Config.Suites.empty())
    for (const SuiteProgram &P : benchmarkSuite())
      Programs.push_back(P.Name);
  else
    Programs = Config.Suites;
  RngState = Config.Seed ? Config.Seed : 0x9e3779b97f4a7c15ull;
  ProgIndex = rngBelow(unsigned(Programs.size()));
  KindIndex = rngBelow(4);
}

/// One analyze request object (not yet wrapped in a batch).
JsonValue ServiceLogStream::makeAnalyze(unsigned Id) {
  JsonValue Req = JsonValue::object();
  Req.set("op", "analyze");
  Req.set("id", 'r' + std::to_string(Id));
  Req.set("suite", Programs[ProgIndex]);
  if (!Config.Session.empty()) {
    if (Config.SessionCount <= 1)
      Req.set("session", Config.Session);
    else
      Req.set("session", Config.Session + "-" +
                             std::to_string(rngBelow(Config.SessionCount)));
  }
  JsonValue Options = JsonValue::object();
  Options.set("forward_jf",
              jumpFunctionKindName(JumpFunctionKind(KindIndex % 4)));
  Req.set("options", std::move(Options));
  Req.set("scrub_timings", true);
  return Req;
}

bool ServiceLogStream::next(std::string &LineOut) {
  if (Emitted < Config.Requests) {
    // Repeating the previous (program, options) pair inside one session
    // is what makes the request warm; otherwise pick fresh axes.
    if (Emitted && !rngPercent(Config.RepeatChance)) {
      ProgIndex = rngBelow(unsigned(Programs.size()));
      KindIndex = rngBelow(4);
    }
    unsigned Left = Config.Requests - Emitted;
    if (Left >= 2 && rngPercent(Config.BatchChance)) {
      unsigned Size = 2 + rngBelow(Left < 4 ? Left - 1 : 3);
      JsonValue Batch = JsonValue::object();
      Batch.set("op", "analyze-batch");
      Batch.set("id", 'b' + std::to_string(Emitted));
      JsonValue Items = JsonValue::array();
      for (unsigned I = 0; I != Size; ++I) {
        Items.push(makeAnalyze(Emitted + I));
        if (!rngPercent(Config.RepeatChance)) {
          ProgIndex = rngBelow(unsigned(Programs.size()));
          KindIndex = rngBelow(4);
        }
      }
      Batch.set("requests", std::move(Items));
      LineOut = Batch.dump();
      Emitted += Size;
      return true;
    }
    LineOut = makeAnalyze(Emitted).dump();
    ++Emitted;
    return true;
  }

  if (Config.EndWithStats && !StatsEmitted) {
    StatsEmitted = true;
    JsonValue Stats = JsonValue::object();
    Stats.set("op", "stats");
    Stats.set("id", "stats");
    LineOut = Stats.dump();
    return true;
  }
  if (Config.EndWithShutdown && !ShutdownEmitted) {
    ShutdownEmitted = true;
    JsonValue Bye = JsonValue::object();
    Bye.set("op", "shutdown");
    Bye.set("id", "bye");
    LineOut = Bye.dump();
    return true;
  }
  return false;
}

std::vector<std::string>
ipcp::generateServiceLog(const ServiceLogConfig &Config) {
  ServiceLogStream Stream(Config);
  std::vector<std::string> Lines;
  std::string Line;
  while (Stream.next(Line))
    Lines.push_back(Line);
  return Lines;
}
