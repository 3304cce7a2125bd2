//===- support/FaultInjector.h ----------------------------------*- C++ -*-===//
//
// Part of the SCMO project: a reproduction of "Scalable Cross-Module
// Optimization" (Ayers, de Jong, Peyton, Schooler; PLDI 1998).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Deterministic, seedable fault injection for every durable-write and
/// durable-read path in the compiler. Every recovery branch — disk-full
/// degradation, short-write resumption, EINTR retry, checksum-mismatch
/// re-read, object-file rebuild, cache-store degradation — must be drivable
/// from tests and CI, not just from real hardware failures. The injector is
/// configured from a small spec string (`scmoc --fault-inject=<spec>` or the
/// SCMO_FAULT_INJECT environment variable) and consulted at a registry of
/// sites, each with its own deterministic operation counter.
///
/// Spec grammar (comma-separated clauses, first matching clause fires):
///
///   spec   := clause (',' clause)*
///   clause := 'seed=' N
///           | site ':' action '-nth='  N   ; fire on the Nth op (1-based)
///           | site ':' action '-rate=' F   ; fire with probability F (PRNG
///                                          ; seeded by seed=, deterministic)
///   site   := 'store'         ; NAIM repository record append
///           | 'read'          ; NAIM repository record fetch
///           | 'cache-store'   ; artifact/summary cache entry store
///           | 'cache-load'    ; artifact/summary cache entry load
///           | 'cache-gc'      ; cache GC eviction unlink
///           | 'object-emit'   ; IL object file emission
///           | 'profile-write' ; profile database write
///   action := 'fail'    ; EIO: the operation fails outright
///           | 'enospc'  ; write sites: disk-full
///           | 'short'   ; write sites: first pwrite is truncated (resumable)
///           | 'eintr'   ; first syscall of the op returns EINTR (transient)
///           | 'corrupt' ; write sites: payload hits the disk bit-flipped
///                       ; (persistent corruption; checksums see the original)
///           | 'flip'    ; read sites: returned bytes are flipped in memory
///                       ; (transient corruption; a re-read is clean)
///           | 'crash'   ; the process SIGKILLs itself mid-operation, after a
///                       ; torn partial write is on disk (torture harness)
///
/// Examples: `store:fail-nth=3`, `seed=7,read:flip-rate=0.1,store:eintr-nth=2`,
/// `cache-store:crash-nth=2`, `store:enospc-nth=1` (the spill file is full).
///
/// Determinism: nth-clauses depend only on the per-site operation counter;
/// rate-clauses draw from a splitmix PRNG seeded by `seed=` (default 1), so
/// the same spec over the same operation sequence injects the same faults.
///
//===----------------------------------------------------------------------===//

#ifndef SCMO_SUPPORT_FAULTINJECTOR_H
#define SCMO_SUPPORT_FAULTINJECTOR_H

#include "support/Prng.h"

#include <cstdint>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

namespace scmo {

/// Parses fault specs and answers "does this operation fault, and how?".
/// Thread-safe: the parallel backend's workers reach the repository
/// concurrently, and the counters must not race.
class FaultInjector {
public:
  enum class Site : uint8_t {
    Store,        ///< NAIM repository record append.
    Read,         ///< NAIM repository record fetch.
    CacheStore,   ///< Artifact/summary cache entry store.
    CacheLoad,    ///< Artifact/summary cache entry load.
    CacheGc,      ///< Cache GC eviction unlink.
    ObjectEmit,   ///< IL object file emission.
    ProfileWrite, ///< Profile database write.
    NumSites
  };

  /// What to do to the current operation.
  enum class Action : uint8_t {
    None,
    FailIo,      ///< Fail the whole operation with an I/O error.
    FailNoSpace, ///< Fail the whole operation with disk-full.
    ShortWrite,  ///< Truncate the first write (the caller's loop resumes).
    Eintr,       ///< First syscall is interrupted (the caller retries).
    Corrupt,     ///< Write: flip payload bytes on disk. Read: flip the
                 ///< fetched bytes in memory (clean on re-read).
    Crash,       ///< SIGKILL self mid-operation, torn partial write on disk.
  };

  /// Builds an injector from \p Spec. Returns null and sets \p Error on a
  /// malformed spec. An empty spec yields a null injector (no faults).
  static std::shared_ptr<FaultInjector> fromSpec(const std::string &Spec,
                                                 std::string &Error);

  /// Builds an injector from the SCMO_FAULT_INJECT environment variable;
  /// null if unset, empty, or malformed (a malformed env spec is reported
  /// once on stderr rather than silently armed).
  static std::shared_ptr<FaultInjector> fromEnv();

  /// Advances the operation counter of \p S and returns the action to
  /// apply to this operation.
  Action next(Site S);

  /// Deterministically flips 1-4 bytes of \p Data (no-op on empty input).
  void corruptBytes(uint8_t *Data, size_t Size);

  /// Number of faults injected so far (all sites).
  uint64_t injectedCount() const;

  /// Number of operations observed at \p S.
  uint64_t opCount(Site S) const;

  /// Spec-grammar name of \p S ("store", "cache-load", ...).
  static const char *siteName(Site S);

  /// '|'-separated site vocabulary for diagnostics.
  static std::string validSites();

  /// '|'-separated action vocabulary for diagnostics.
  static std::string validActions();

private:
  struct Clause {
    Site S = Site::Store;
    Action A = Action::None;
    uint64_t Nth = 0; ///< 1-based op index; 0 = rate-based.
    double Rate = 0;
  };

  FaultInjector() : Rng(1) {}

  mutable std::mutex M;
  std::vector<Clause> Clauses;
  Prng Rng;
  uint64_t Ops[size_t(Site::NumSites)] = {};
  uint64_t Injected = 0;
};

} // namespace scmo

#endif // SCMO_SUPPORT_FAULTINJECTOR_H
