//===- naim/Loader.h --------------------------------------------*- C++ -*-===//
//
// Part of the SCMO project: a reproduction of "Scalable Cross-Module
// Optimization" (Ayers, de Jong, Peyton, Schooler; PLDI 1998).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The NAIM loader: "the process that manages the movement of data in and
/// out of the repository" (paper Section 4.2). Optimizer phases acquire the
/// pools they need and release them when done; whether a released pool is
/// actually compacted or offloaded "is determined internally by the loader"
/// — clients never see the state machine (Section 4.3).
///
/// State machine per routine body (paper Figure 3):
///
///   Expanded (pinned) --release--> Expanded (unload-pending, in LRU cache)
///        ^                                  |
///        |acquire (cache hit: cheap)        | cache over soft budget:
///        |                                  v compact (swizzle to PIDs)
///   Expanded <--uncompact+swizzle-- Compact (in memory)
///        ^                                  | compact pool over budget:
///        |                                  v offload
///        +------fetch+uncompact----- Offloaded (in disk repository)
///
/// Thresholding (Section 4.3): NAIM functionality turns on in stages tied to
/// the configured "machine memory" so small compilations pay nothing.
///
/// The spill hot path (DESIGN.md §5f):
///
///  - Offloads are write-behind: the compact bytes move onto a bounded spill
///    queue drained by a dedicated writer thread, and a fetch of a record
///    still in flight is served straight from the queue. When the queue is
///    full the offload waits for a free slot (backpressure), so memory stays
///    bounded and the stores land in one deterministic order.
///  - Store elision: a pool whose compact bytes hash-match its most recent
///    repository record reuses that record instead of storing a duplicate;
///    a pool that was never mutably acquired since it was expanded from its
///    record ("clean") is dropped straight back to that record with no
///    re-encode and no store at all. Both checks are content-/history-based
///    and therefore deterministic.
///  - Compaction encode and expansion decode run *outside* the loader mutex
///    on per-pool transition states; the mutex keeps guarding metadata, the
///    LRU cache and budgets.
///
/// One loader (DESIGN.md §5k): one mutex, one LRU cache threaded through the
/// routine slots, one spill queue with its writer thread and one Repository
/// file. Residency never feeds codegen, so executables are byte-identical at
/// every partitions x jobs combination.
///
/// Failure model: the spill path is fallible by design and the loader never
/// aborts the process. The degradation ladder, from cheapest to last resort:
///
///   1. transient store/fetch faults (EINTR/EAGAIN, short transfers) are
///      retried inside the Repository and never surface;
///   2. a failed spill (ENOSPC, EIO) permanently disables offloading — pools
///      stay compact-resident, the compact budget is lifted, and a warning
///      event records the slower-but-alive outcome. Write-behind failures
///      are latched into the event queue and the in-flight payloads restored
///      to residency; the driver observes them at its next checkpoint (after
///      drainSpills()).
///   3. a corrupt fetch (checksum/magic/bounds mismatch) is re-read once —
///      transient corruption between disk and memory heals, bit-rot does
///      not — then falls back to re-expanding the routine from its source
///      object file when the driver has installed a recovery handler;
///   4. an unrecoverable pool is "poisoned": acquire() returns a trivial
///      stub body (so in-flight phases finish safely), the first such error
///      is latched, and the driver fails the build with a structured
///      diagnostic at its next checkpoint — an exit code, not an abort.
///
/// Concurrency: the loader is safe to call from the parallel backend's
/// worker threads. Its mutex M guards pool metadata, transitions and the
/// LRU; the queue mutex QM guards the spill queue (lock order always
/// M -> QM). The returned RoutineBody references are NOT guarded — the
/// backend's fan-out gives each routine to exactly one worker, which is what
/// makes unsynchronized body access safe.
///
//===----------------------------------------------------------------------===//

#ifndef SCMO_NAIM_LOADER_H
#define SCMO_NAIM_LOADER_H

#include "ir/Program.h"
#include "naim/Repository.h"
#include "support/Status.h"

#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <deque>
#include <functional>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

namespace scmo {

/// How much NAIM machinery is enabled (the x-axis of paper Figure 5).
enum class NaimMode : uint8_t {
  Off,          ///< Everything stays expanded forever.
  CompactIr,    ///< Routine IR compacts when evicted; symtabs stay expanded.
  CompactIrSt,  ///< IR and module symbol tables compact.
  Offload,      ///< Compact pools additionally spill to the disk repository.
  Auto          ///< Thresholds tied to MachineMemoryBytes enable the stages.
};

/// Loader configuration.
struct NaimConfig {
  NaimMode Mode = NaimMode::Auto;

  /// Soft cap on expanded-but-unpinned (cache-resident) IR bytes. When the
  /// cache exceeds it, least-recently-used pools are compacted.
  uint64_t ExpandedCacheBytes = 64ull << 20;

  /// Cap on in-memory compact bytes; beyond it, compact pools are offloaded
  /// to the repository (only in Offload / Auto modes).
  uint64_t CompactResidentBytes = 64ull << 20;

  /// For Auto mode: the machine's memory size from which thresholds derive.
  uint64_t MachineMemoryBytes = 512ull << 20;

  /// Repository path ("" = a private anonymous temp file).
  std::string RepositoryPath;

  /// Capacity of the write-behind spill queue. An offload that finds the
  /// queue full waits for the writer to free a slot (backpressure), so every
  /// store runs on the writer in queue order; 0 disables write-behind
  /// entirely and every offload stores synchronously.
  unsigned SpillQueueDepth = 8;

  /// Fault injector for the repository (tests / --fault-inject). When null,
  /// the loader arms one from SCMO_FAULT_INJECT if that is set, so whole
  /// test suites can run under injection without code changes.
  std::shared_ptr<FaultInjector> Injector;

  /// Derives staged thresholds from MachineMemoryBytes (Auto mode).
  static NaimConfig autoFor(uint64_t MachineMemoryBytes) {
    NaimConfig C;
    C.Mode = NaimMode::Auto;
    C.MachineMemoryBytes = MachineMemoryBytes;
    C.ExpandedCacheBytes = MachineMemoryBytes / 2;
    C.CompactResidentBytes = MachineMemoryBytes / 4;
    return C;
  }
};

/// Loader activity counters (reported by the driver's diagnostics). stats()
/// returns a snapshot of the loader's internal relaxed-atomic counters:
/// safe to read while workers are active, exact once they have joined and
/// the spill queue is drained.
struct LoaderStats {
  uint64_t Acquires = 0;
  uint64_t CacheHits = 0;     ///< Acquire found the pool still expanded.
  uint64_t Expansions = 0;    ///< Compact/offloaded -> expanded.
  uint64_t Compactions = 0;   ///< Expanded -> compact.
  uint64_t Offloads = 0;      ///< Compact -> repository (stored or elided),
                              ///< counted once the store has landed.
  uint64_t Fetches = 0;       ///< Repository -> compact (read back).
  uint64_t SymtabCompactions = 0;

  // I/O-path activity (DESIGN.md §5f).
  uint64_t SpillElisions = 0;  ///< Offloads that reused an existing record.
  uint64_t SpillQueueHits = 0; ///< Fetches served from the in-flight queue.
  uint64_t CompressedBytes = 0; ///< Payload bytes stored.

  // Contention telemetry: time workers spent blocked on the loader mutex,
  // sampled try_lock-then-lock on the acquire/release hot paths.
  uint64_t LockWaitNanos = 0; ///< Nanoseconds spent in contended locks.
  uint64_t Contentions = 0;   ///< Hot-path lock attempts that had to wait.

  // Fault-path activity (all zero on a healthy disk).
  uint64_t SpillFailures = 0; ///< Failed offload stores (degraded loader).
  uint64_t FetchRetries = 0;  ///< Corrupt fetches re-read.
  uint64_t Recoveries = 0;    ///< Pools rebuilt from their object file.
  uint64_t PoisonedPools = 0; ///< Unrecoverable pools replaced by stubs.
};

/// One notable fault-path occurrence, for the driver to surface as a
/// structured diagnostic (warnings for degradation/recovery, an error for a
/// poisoned pool).
struct LoaderEvent {
  enum class Kind : uint8_t {
    SpillDegraded, ///< Offloading disabled; pools stay resident.
    FetchRetried,  ///< A corrupt fetch healed on immediate re-read.
    Recovered,     ///< A corrupt pool was re-expanded from its object file.
    PoolPoisoned,  ///< Unrecoverable; the build must fail structurally.
  };
  Kind K = Kind::SpillDegraded;
  RoutineId Routine = InvalidId;
  std::string Detail;
};

/// Manages residency for every transitory pool in a Program.
class Loader {
public:
  /// Re-materializes the compact/expanded body of a routine from outside
  /// the repository (in practice: from its IL object file). Returns null
  /// when the routine has no recoverable source.
  using RecoverFn = std::function<std::unique_ptr<RoutineBody>(RoutineId)>;

  Loader(Program &P, const NaimConfig &Config);

  /// Joins the writer thread after draining outstanding spills.
  ~Loader();

  /// Pins and returns the expanded body of \p R (must be defined). A pinned
  /// pool is never evicted until released. Acquires nest: each acquire
  /// increments the pool's pin count and must be matched by one release.
  /// A mutable acquire marks the pool dirty: its repository record (if any)
  /// no longer matches and eviction must re-encode.
  RoutineBody &acquire(RoutineId R);

  /// As acquire(), but the caller promises not to mutate the body: the pool
  /// stays "clean", so eviction can drop it straight back to its existing
  /// repository record without re-encoding or re-storing. Read-only phases
  /// (verification, checksums, lowering) use this.
  const RoutineBody &acquireRead(RoutineId R);

  /// As acquire()/acquireRead(), but return null for undefined routines.
  RoutineBody *acquireIfDefined(RoutineId R);
  const RoutineBody *acquireReadIfDefined(RoutineId R);

  /// Drops one pin from \p R. When the last pin drops, the pool becomes
  /// unload-pending and joins the LRU cache; the loader then lazily
  /// compacts / offloads LRU pools if the budgets call for it.
  void release(RoutineId R);

  /// Releases every pinned routine (phase boundaries).
  void releaseAll();

  /// Derived IL facts for \p R (call sites, stored globals, size, hottest
  /// block), computed at most once per body version: a cached summary is
  /// served without touching the pool; a missing one costs a single read
  /// acquire. Mutable acquires invalidate, and the matching release
  /// recomputes from the still-resident body, so the interprocedural phases'
  /// repeated whole-set scans (call-graph builds, global summaries, inliner
  /// size queries) stop forcing parked pools back through decode. Returns
  /// null for undefined routines. The pointer stays valid until the next
  /// mutable acquire of \p R; single-threaded phases only.
  const RoutineIlSummary *routineSummary(RoutineId R);

  /// Enforces budgets immediately; with \p Everything, compacts all
  /// unpinned pools regardless of budget (end-of-phase cleanup in tests).
  void enforceBudget(bool Everything = false);

  /// Compacts module symbol tables if the mode/thresholds call for it.
  void maybeCompactSymtabs();

  /// Blocks until every queued write-behind spill has been stored (or has
  /// failed and been restored to residency). The driver calls this at its
  /// checkpoints so writer errors latch before stats/events are read; tests
  /// call it before exact-count assertions.
  void drainSpills();

  /// Bytes of expanded IR currently sitting unpinned in the cache.
  uint64_t cacheBytes() const;

  /// Number of unpinned expanded pools resident (paper: "cache fullness is
  /// based on the number of expanded pools resident in memory").
  size_t cachedPoolCount() const;

  /// Activity counters. Returns a snapshot: safe to call while workers are
  /// active, exact once they have joined and drainSpills() has run.
  LoaderStats stats() const;

  const NaimConfig &config() const { return Config; }

  /// The repository file backing offloaded pools.
  Repository &repository() { return Repo; }

  /// The session's effective fault injector (Config.Injector or the one
  /// armed from SCMO_FAULT_INJECT at construction; may be null). Every
  /// durable-I/O path in the session reuses this instance so per-site op
  /// counters stay deterministic across the whole build.
  std::shared_ptr<FaultInjector> faultInjector() { return Faults; }

  /// Installs the corruption fallback (degradation rung 3). The handler is
  /// invoked under the loader mutex and must not call back into the loader.
  void setRecoveryHandler(RecoverFn F);

  /// True once a spill failure has switched the loader to resident mode.
  bool degraded() const { return SpillDisabled.load(std::memory_order_relaxed); }

  /// The first unrecoverable spill-path error (Ok while the loader is
  /// healthy). Once set, some acquired bodies are stubs: the compilation's
  /// results are invalid and the driver must fail the build with this.
  Status firstError() const;

  /// Drains the accumulated fault-path events (oldest first).
  std::vector<LoaderEvent> takeEvents();

  /// True if the effective mode compacts IR at all.
  bool irCompactionEnabled() const;
  /// True if the effective mode compacts symbol tables.
  bool stCompactionEnabled() const;
  /// True if the effective mode offloads to disk.
  bool offloadEnabled() const;

private:
  /// Counter block. Relaxed atomics: the counters are statistics, not
  /// synchronization, and the workers must not serialize on them.
  struct AtomicStats {
    std::atomic<uint64_t> Acquires{0};
    std::atomic<uint64_t> CacheHits{0};
    std::atomic<uint64_t> Expansions{0};
    std::atomic<uint64_t> Compactions{0};
    std::atomic<uint64_t> Offloads{0};
    std::atomic<uint64_t> Fetches{0};
    std::atomic<uint64_t> SymtabCompactions{0};
    std::atomic<uint64_t> SpillElisions{0};
    std::atomic<uint64_t> SpillQueueHits{0};
    std::atomic<uint64_t> LockWaitNanos{0};
    std::atomic<uint64_t> Contentions{0};
    std::atomic<uint64_t> SpillFailures{0};
    std::atomic<uint64_t> FetchRetries{0};
    std::atomic<uint64_t> Recoveries{0};
    std::atomic<uint64_t> PoisonedPools{0};
  };

  struct SpillEntry {
    RoutineId R = InvalidId;
    uint64_t Ticket = 0;
    std::vector<uint8_t> Bytes;
    uint64_t Hash = 0;
    /// Clean drops onto this still-pending record; like the store itself,
    /// they count as offloads only once it lands.
    uint64_t Drops = 0;
  };

  /// Locks M, sampling contention: a failed try_lock counts once and the
  /// blocked wait is timed. Used on the acquire/release hot paths only.
  std::unique_lock<std::mutex> lockM();

  RoutineBody &acquireImpl(RoutineId R, bool Mutable);

  /// Unpins \p R's last pin: summarizes it if needed and appends it to the
  /// LRU tail as unload-pending.
  void parkLocked(RoutineId R);
  /// Removes \p R from the LRU list.
  void unlinkLocked(RoutineId R);

  void enforceBudgetLocked(std::unique_lock<std::mutex> &L, bool Everything);
  void evictOneLocked(std::unique_lock<std::mutex> &L);
  void offloadOverBudgetLocked(std::unique_lock<std::mutex> &L);

  void compactPool(RoutineId R, std::unique_lock<std::mutex> &L);
  void offloadPool(RoutineId R, std::unique_lock<std::mutex> &L);
  void storeSyncLocked(RoutineId R, std::vector<uint8_t> Bytes, uint64_t Hash);
  /// Installs \p Bytes (hash \p Hash) as the pool's compact residency.
  void restoreCompactLocked(RoutineId R, std::vector<uint8_t> Bytes,
                            uint64_t Hash);
  void degradeSpillsLocked(RoutineId R, const Status &Cause);
  Status expandPool(RoutineId R, std::unique_lock<std::mutex> &L);
  Status fetchRecord(uint64_t Offset, uint64_t Size,
                     std::vector<uint8_t> &Bytes, std::string &RetryDetail);
  Status recoverPoolLocked(RoutineId R, Status Cause);
  void installBodyLocked(RoutineId R, std::unique_ptr<RoutineBody> Body);
  void poisonPoolLocked(RoutineId R, Status Cause);

  void writerMain();

  Program &P;
  NaimConfig Config;
  std::shared_ptr<FaultInjector> Faults;
  Repository Repo;

  AtomicStats Stats;

  /// Guards pool metadata, the LRU cache and fault state. Lock order:
  /// M -> QM.
  mutable std::mutex M;
  std::condition_variable TransitionCv;
  /// The writer freed a spill-queue slot (waited on with M).
  std::condition_variable SpaceCv;

  /// Unpinned expanded pools in release order, threaded through
  /// RoutineSlot::LruPrev/LruNext: releases append at the tail, eviction
  /// takes the head.
  RoutineId LruHead = InvalidId;
  RoutineId LruTail = InvalidId;
  size_t CachedPools = 0;
  /// Sum of irBytes over the LRU list.
  uint64_t CachedBytes = 0;

  std::atomic<bool> SpillDisabled{false};
  std::vector<LoaderEvent> Events;
  Status FirstErr;
  RecoverFn Recover;

  /// Guards the spill queue (lock order M -> QM). Every push and pop also
  /// holds M, so its size may be read under M alone.
  std::mutex QM;
  std::condition_variable QWorkCv; ///< Work arrived (writer waits).
  std::condition_variable QIdleCv; ///< Queue drained (drainSpills waits).
  std::deque<std::shared_ptr<SpillEntry>> SpillQ;
  bool SpillBusy = false;
  bool StopWriter = false;
  uint64_t NextTicket = 0;
  std::thread Writer;

  /// Serializes symbol-table compaction (program-wide, not per-routine).
  std::mutex SymtabM;
};

} // namespace scmo

#endif // SCMO_NAIM_LOADER_H
