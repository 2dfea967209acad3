//===- support/Trace.cpp --------------------------------------------------===//
//
// Part of the ipcp project.
//
//===----------------------------------------------------------------------===//

#include "support/Trace.h"

#include "support/Json.h"

using namespace ipcp;

size_t Trace::beginSpan(std::string Name, std::string Detail) {
  Span S;
  S.Name = std::move(Name);
  S.Detail = std::move(Detail);
  S.StartUs = nowUs();
  if (!OpenStack.empty()) {
    S.Parent = OpenStack.back();
    S.Depth = Spans[S.Parent].Depth + 1;
  }
  Spans.push_back(std::move(S));
  OpenStack.push_back(Spans.size() - 1);
  return Spans.size() - 1;
}

void Trace::endSpan() {
  if (OpenStack.empty())
    return;
  Span &S = Spans[OpenStack.back()];
  S.DurationUs = nowUs() - S.StartUs;
  S.Open = false;
  OpenStack.pop_back();
}

void Trace::absorb(const Trace &Child) {
  // The child trace was constructed after this one (its tasks were
  // spawned from a context where this trace was active), so the offset
  // is non-negative up to clock noise; clamp to keep times monotone.
  uint64_t OffsetUs = 0;
  if (Child.Start > Start)
    OffsetUs = uint64_t(std::chrono::duration_cast<std::chrono::microseconds>(
                            Child.Start - Start)
                            .count());

  size_t Base = Spans.size();
  size_t AttachTo = OpenStack.empty() ? NoParent : OpenStack.back();
  unsigned BaseDepth = AttachTo == NoParent ? 0 : Spans[AttachTo].Depth + 1;

  for (const Span &ChildSpan : Child.Spans) {
    Span S = ChildSpan;
    S.StartUs += OffsetUs;
    if (S.Parent == NoParent)
      S.Parent = AttachTo;
    else
      S.Parent += Base;
    S.Depth += BaseDepth;
    Spans.push_back(std::move(S));
  }
  for (const Event &ChildEvent : Child.Events) {
    Event E = ChildEvent;
    E.TimeUs += OffsetUs;
    if (E.Span == NoParent)
      E.Span = AttachTo;
    else
      E.Span += Base;
    Events.push_back(std::move(E));
  }
}

void Trace::event(std::string Name, std::string Detail) {
  Event E;
  E.Name = std::move(Name);
  E.Detail = std::move(Detail);
  E.TimeUs = nowUs();
  if (!OpenStack.empty())
    E.Span = OpenStack.back();
  Events.push_back(std::move(E));
}

std::string Trace::str() const {
  std::string Out = "trace:\n";
  for (const Span &S : Spans) {
    Out.append(2 * (size_t(S.Depth) + 1), ' ');
    Out += S.Name;
    if (!S.Detail.empty()) {
      Out += '(';
      Out += S.Detail;
      Out += ')';
    }
    Out += "  ";
    Out += S.Open ? "(open)" : std::to_string(S.DurationUs) + " us";
    Out += '\n';
  }
  if (!Events.empty()) {
    Out += "events:\n";
    for (const Event &E : Events) {
      Out += "  ";
      Out += std::to_string(E.TimeUs);
      Out += " us  ";
      Out += E.Name;
      if (!E.Detail.empty()) {
        Out += '(';
        Out += E.Detail;
        Out += ')';
      }
      if (E.Span != NoParent) {
        Out += "  in ";
        Out += Spans[E.Span].Name;
      }
      Out += '\n';
    }
  }
  return Out;
}

JsonValue Trace::spanToJson(size_t Index) const {
  const Span &S = Spans[Index];
  JsonValue Obj = JsonValue::object();
  Obj.set("name", S.Name);
  if (!S.Detail.empty())
    Obj.set("detail", S.Detail);
  Obj.set("start_us", S.StartUs);
  Obj.set("duration_us", S.DurationUs);
  JsonValue Children = JsonValue::array();
  for (size_t I = 0; I != Spans.size(); ++I)
    if (Spans[I].Parent == Index)
      Children.push(spanToJson(I));
  if (Children.size())
    Obj.set("children", std::move(Children));
  return Obj;
}

JsonValue Trace::toJson() const {
  JsonValue Obj = JsonValue::object();
  JsonValue Roots = JsonValue::array();
  for (size_t I = 0; I != Spans.size(); ++I)
    if (Spans[I].Parent == NoParent)
      Roots.push(spanToJson(I));
  Obj.set("spans", std::move(Roots));
  if (!Events.empty()) {
    JsonValue Evs = JsonValue::array();
    for (const Event &E : Events) {
      JsonValue EV = JsonValue::object();
      EV.set("name", E.Name);
      if (!E.Detail.empty())
        EV.set("detail", E.Detail);
      EV.set("time_us", E.TimeUs);
      if (E.Span != NoParent)
        EV.set("span", Spans[E.Span].Name);
      Evs.push(std::move(EV));
    }
    Obj.set("events", std::move(Evs));
  }
  return Obj;
}
