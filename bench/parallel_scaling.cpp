//===- bench/parallel_scaling.cpp -----------------------------------------===//
//
// Part of the SCMO project: a reproduction of "Scalable Cross-Module
// Optimization" (Ayers, de Jong, Peyton, Schooler; PLDI 1998).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Backend scaling with the WHOPR-style WPA/LTRANS split, in three parts:
///
///   1. Per-stage time breakdown at jobs=1 vs jobs=max. Before the split the
///      whole of HLO was one serial stage and dominated the Amdahl limit;
///      now only the WPA planner is serial and LTRANS fans out with LLO.
///      The table shows each stage's share of the build so the remaining
///      serial fraction is attributable by name.
///   2. A partitions x jobs grid of total/HLO seconds. Every cell
///      cross-checks the output checksum against the serial build: the
///      partitioned backend must buy speed, never different code.
///   3. The headline speedup (jobs=max, partitions=auto vs jobs=1).
///
/// Prints human tables, then one JSON line per configuration on stdout
/// ("{"bench":"parallel_scaling",...}") for machine consumption.
///
/// SCMO_SCALE scales the workload (default 1.0 = 80k lines); CI runs with a
/// small scale as a smoke test that every cell still executes end to end.
///
//===----------------------------------------------------------------------===//

#include "BenchCommon.h"
#include "support/ThreadPool.h"

#include <vector>

using namespace scmo;
using namespace scmo::bench;

namespace {

double stageSeconds(const BuildResult &B, const char *Name) {
  for (const StageMetrics &M : B.Stages)
    if (M.Name == Name)
      return M.Seconds;
  return 0;
}

} // namespace

int main() {
  double Scale = scaleFactor();
  uint64_t Lines = static_cast<uint64_t>(80000 * Scale);
  unsigned HW = ThreadPool::hardwareThreads();
  std::printf("Backend scaling: WPA/LTRANS split, build seconds vs "
              "--hlo-partitions x --jobs\n(scale %.2f; %llu-line Mcad1-like "
              "application, O4+P, %u hardware threads)\n\n",
              Scale, (unsigned long long)Lines, HW);

  GeneratedProgram GP = generateProgram(mcadLikeParams(Lines, 1));
  std::string Error;
  ProfileDb Db = trainProfile(GP, Error);
  if (!Error.empty()) {
    std::fprintf(stderr, "training failed: %s\n", Error.c_str());
    return 1;
  }

  auto buildAt = [&](unsigned Jobs, unsigned Partitions) {
    CompileOptions Opts = optionsFor(OptLevel::O4, true);
    Opts.Jobs = Jobs;
    Opts.HloPartitions = Partitions;
    return measure(GP, Opts, &Db, /*RunIt=*/true);
  };

  // Part 1: per-stage breakdown, serial vs wide. The serial fraction of the
  // build is whatever does not shrink between the two columns.
  Measured Serial = buildAt(1, 1);
  if (!Serial.Ok) {
    std::fprintf(stderr, "serial build failed: %s\n", Serial.Error.c_str());
    return 1;
  }
  Measured Wide = buildAt(HW, 0);
  if (!Wide.Ok) {
    std::fprintf(stderr, "wide build failed: %s\n", Wide.Error.c_str());
    return 1;
  }
  if (Wide.OutputChecksum != Serial.OutputChecksum) {
    std::fprintf(stderr, "output checksum diverged at jobs=%u (parallel "
                 "backend changed generated code!)\n", HW);
    return 1;
  }

  std::printf("Per-stage breakdown (jobs=1 vs jobs=%u, partitions=auto):\n",
              HW);
  std::printf("%12s %10s %7s %10s %7s\n", "stage", "j1 s", "j1 %", "jN s",
              "jN %");
  for (const StageMetrics &M : Serial.Build.Stages) {
    double WideS = stageSeconds(Wide.Build, M.Name.c_str());
    std::printf("%12s %10.3f %6.1f%% %10.3f %6.1f%%\n", M.Name.c_str(),
                M.Seconds, 100.0 * M.Seconds / Serial.CompileSeconds, WideS,
                100.0 * WideS / Wide.CompileSeconds);
  }
  std::printf("%12s %10.3f %7s %10.3f\n\n", "total", Serial.CompileSeconds,
              "", Wide.CompileSeconds);
  std::printf("Serial HLO fraction before the split was the whole wpa+ltrans "
              "share; now only\nthe wpa row is sequential — ltrans fans out "
              "with llo, and the Amdahl limit is\nset by wpa + link.\n\n");

  // Part 2: the partitions x jobs grid.
  std::vector<unsigned> JobCols = {1, 2, 4};
  if (HW > 4)
    JobCols.push_back(HW);
  std::vector<unsigned> PartRows = {1, 2, 4, 8, 0}; // 0 = auto (pool width).

  struct Cell {
    unsigned Partitions, Jobs;
    double TotalSeconds, HloSeconds;
  };
  std::vector<Cell> Cells;
  std::printf("Total seconds (HLO seconds) by partitions x jobs:\n");
  std::printf("%10s", "parts\\jobs");
  for (unsigned J : JobCols)
    std::printf(" %14u", J);
  std::printf("\n");
  for (unsigned Parts : PartRows) {
    if (Parts == 0)
      std::printf("%10s", "auto");
    else
      std::printf("%10u", Parts);
    for (unsigned Jobs : JobCols) {
      Measured M = buildAt(Jobs, Parts);
      if (!M.Ok) {
        std::fprintf(stderr, "\nbuild failed at partitions=%u jobs=%u: %s\n",
                     Parts, Jobs, M.Error.c_str());
        return 1;
      }
      if (M.OutputChecksum != Serial.OutputChecksum) {
        std::fprintf(stderr,
                     "\noutput checksum diverged at partitions=%u jobs=%u "
                     "(partitioning changed generated code!)\n",
                     Parts, Jobs);
        return 1;
      }
      std::printf("  %6.2f (%4.2f)", M.CompileSeconds, M.HloSeconds);
      Cells.push_back({Parts, Jobs, M.CompileSeconds, M.HloSeconds});
    }
    std::printf("\n");
  }

  double Speedup = Serial.CompileSeconds / Wide.CompileSeconds;
  std::printf("\nEnd-to-end speedup at jobs=%u, partitions=auto: %.2fx "
              "(checksums identical\nacross every cell). Expected shape: "
              "HLO seconds fall with jobs once partitions\n>= jobs; a lone "
              "partition serializes LTRANS regardless of the pool width.\n\n",
              HW, Speedup);

  for (const Cell &C : Cells)
    std::printf("{\"bench\":\"parallel_scaling\",\"lines\":%llu,"
                "\"partitions\":%u,\"jobs\":%u,\"total_seconds\":%.6f,"
                "\"hlo_seconds\":%.6f}\n",
                (unsigned long long)Lines, C.Partitions, C.Jobs,
                C.TotalSeconds, C.HloSeconds);
  std::printf("{\"bench\":\"parallel_scaling\",\"lines\":%llu,"
              "\"wpa_seconds\":%.6f,\"ltrans_seconds\":%.6f,"
              "\"speedup_at_max\":%.3f}\n",
              (unsigned long long)Lines,
              stageSeconds(Wide.Build, "wpa"),
              stageSeconds(Wide.Build, "ltrans"), Speedup);
  return 0;
}
