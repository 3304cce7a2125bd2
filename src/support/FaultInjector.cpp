//===- support/FaultInjector.cpp ------------------------------------------===//
//
// Part of the SCMO project: a reproduction of "Scalable Cross-Module
// Optimization" (Ayers, de Jong, Peyton, Schooler; PLDI 1998).
//
//===----------------------------------------------------------------------===//

#include "support/FaultInjector.h"

#include <cstdio>
#include <cstdlib>

using namespace scmo;

namespace {

struct SiteInfo {
  FaultInjector::Site S;
  const char *Name;
  bool IsWrite; ///< Write-shaped sites accept enospc/short/corrupt;
                ///< read-shaped sites accept flip.
};

constexpr SiteInfo Sites[] = {
    {FaultInjector::Site::Store, "store", true},
    {FaultInjector::Site::Read, "read", false},
    {FaultInjector::Site::CacheStore, "cache-store", true},
    {FaultInjector::Site::CacheLoad, "cache-load", false},
    {FaultInjector::Site::CacheGc, "cache-gc", true},
    {FaultInjector::Site::ObjectEmit, "object-emit", true},
    {FaultInjector::Site::ProfileWrite, "profile-write", true},
};

static_assert(sizeof(Sites) / sizeof(Sites[0]) ==
                  size_t(FaultInjector::Site::NumSites),
              "site table out of sync with Site enum");

const SiteInfo *findSite(const std::string &Name) {
  for (const SiteInfo &SI : Sites)
    if (Name == SI.Name)
      return &SI;
  return nullptr;
}

bool siteIsWrite(FaultInjector::Site S) {
  return Sites[size_t(S)].IsWrite;
}

/// Maps an action name to the Action enum, validating the site it is legal
/// on ('short'/'enospc'/'corrupt' only make sense for writes, 'flip' only
/// for reads; 'fail'/'eintr'/'crash' everywhere).
bool parseAction(const std::string &Name, FaultInjector::Site S,
                 FaultInjector::Action &A) {
  using Action = FaultInjector::Action;
  if (Name == "fail") {
    A = Action::FailIo;
    return true;
  }
  if (Name == "eintr") {
    A = Action::Eintr;
    return true;
  }
  if (Name == "crash") {
    A = Action::Crash;
    return true;
  }
  if (Name == "enospc" && siteIsWrite(S)) {
    A = Action::FailNoSpace;
    return true;
  }
  if (Name == "short" && siteIsWrite(S)) {
    A = Action::ShortWrite;
    return true;
  }
  if (Name == "corrupt" && siteIsWrite(S)) {
    A = Action::Corrupt;
    return true;
  }
  if (Name == "flip" && !siteIsWrite(S)) {
    A = Action::Corrupt;
    return true;
  }
  return false;
}

} // namespace

const char *FaultInjector::siteName(Site S) { return Sites[size_t(S)].Name; }

std::string FaultInjector::validSites() {
  std::string Out;
  for (const SiteInfo &SI : Sites) {
    if (!Out.empty())
      Out += '|';
    Out += SI.Name;
  }
  return Out;
}

std::string FaultInjector::validActions() {
  return "fail|enospc|short|eintr|corrupt|flip|crash";
}

std::shared_ptr<FaultInjector> FaultInjector::fromSpec(const std::string &Spec,
                                                       std::string &Error) {
  Error.clear();
  if (Spec.empty())
    return nullptr;
  // Can't use make_shared: the constructor is private.
  std::shared_ptr<FaultInjector> FI(new FaultInjector());
  uint64_t Seed = 1;
  size_t Start = 0;
  while (Start <= Spec.size()) {
    size_t Comma = Spec.find(',', Start);
    size_t End = Comma == std::string::npos ? Spec.size() : Comma;
    std::string Clause = Spec.substr(Start, End - Start);
    if (!Clause.empty()) {
      size_t Eq = Clause.find('=');
      if (Eq == std::string::npos || Eq + 1 >= Clause.size()) {
        Error = "fault clause '" + Clause + "' has no value";
        return nullptr;
      }
      std::string Key = Clause.substr(0, Eq);
      std::string Value = Clause.substr(Eq + 1);
      if (Key == "seed") {
        Seed = std::strtoull(Value.c_str(), nullptr, 10);
      } else {
        size_t Colon = Key.find(':');
        if (Colon == std::string::npos) {
          Error = "fault clause '" + Clause + "' is not site:action-kind=value";
          return nullptr;
        }
        FaultInjector::Clause C;
        const SiteInfo *SI = findSite(Key.substr(0, Colon));
        if (!SI) {
          Error = "unknown fault site in '" + Clause + "' (" + validSites() +
                  ")";
          return nullptr;
        }
        C.S = SI->S;
        std::string ActionKind = Key.substr(Colon + 1);
        size_t Dash = ActionKind.rfind('-');
        if (Dash == std::string::npos) {
          Error = "fault clause '" + Clause + "' needs -nth= or -rate=";
          return nullptr;
        }
        std::string Kind = ActionKind.substr(Dash + 1);
        if (!parseAction(ActionKind.substr(0, Dash), C.S, C.A)) {
          Error = "unknown or site-invalid fault action in '" + Clause +
                  "' (" + validActions() + ")";
          return nullptr;
        }
        if (Kind == "nth") {
          C.Nth = std::strtoull(Value.c_str(), nullptr, 10);
          if (!C.Nth) {
            Error = "fault clause '" + Clause + "': nth is 1-based";
            return nullptr;
          }
        } else if (Kind == "rate") {
          C.Rate = std::strtod(Value.c_str(), nullptr);
          if (C.Rate <= 0.0 || C.Rate > 1.0) {
            Error = "fault clause '" + Clause + "': rate must be in (0, 1]";
            return nullptr;
          }
        } else {
          Error = "fault clause '" + Clause + "' needs -nth= or -rate=";
          return nullptr;
        }
        FI->Clauses.push_back(C);
      }
    }
    if (Comma == std::string::npos)
      break;
    Start = Comma + 1;
  }
  if (FI->Clauses.empty()) {
    Error = "fault spec '" + Spec + "' contains no fault clause";
    return nullptr;
  }
  FI->Rng = Prng(Seed);
  return FI;
}

std::shared_ptr<FaultInjector> FaultInjector::fromEnv() {
  const char *Env = std::getenv("SCMO_FAULT_INJECT");
  if (!Env || !*Env)
    return nullptr;
  std::string Error;
  auto FI = fromSpec(Env, Error);
  if (!FI) {
    // Warn exactly once per process: a typo'd spec silently injecting
    // nothing would defeat the CI sweep.
    static bool Warned = false;
    if (!Warned) {
      Warned = true;
      std::fprintf(stderr, "scmo: ignoring SCMO_FAULT_INJECT: %s\n",
                   Error.c_str());
    }
  }
  return FI;
}

FaultInjector::Action FaultInjector::next(Site S) {
  std::lock_guard<std::mutex> Lock(M);
  uint64_t OpsAt = ++Ops[size_t(S)];
  for (const Clause &C : Clauses) {
    if (C.S != S)
      continue;
    bool Fires = C.Nth ? OpsAt == C.Nth : Rng.nextBool(C.Rate);
    if (Fires) {
      ++Injected;
      return C.A;
    }
  }
  return Action::None;
}

void FaultInjector::corruptBytes(uint8_t *Data, size_t Size) {
  if (!Size)
    return;
  std::lock_guard<std::mutex> Lock(M);
  uint64_t Flips = 1 + Rng.nextBelow(4);
  for (uint64_t I = 0; I != Flips; ++I)
    Data[Rng.nextBelow(Size)] ^= uint8_t(1 + Rng.nextBelow(255));
}

uint64_t FaultInjector::injectedCount() const {
  std::lock_guard<std::mutex> Lock(M);
  return Injected;
}

uint64_t FaultInjector::opCount(Site S) const {
  std::lock_guard<std::mutex> Lock(M);
  return Ops[size_t(S)];
}
