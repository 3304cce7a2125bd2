//===- perfbench/scmobench.cpp --------------------------------------------===//
//
// Part of the SCMO project: a reproduction of "Scalable Cross-Module
// Optimization" (Ayers, de Jong, Peyton, Schooler; PLDI 1998).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The benchmark's worker. run.py starts one process per operation, so every
/// timed build or analysis runs in a process that holds nothing but its own
/// sources: its peak RSS is its own, and a crash costs one operation. Each
/// subcommand drives the library only through its public entry points and
/// prints one JSON object on stdout.
///
///   scmobench gen     --dir D --seed S
///   scmobench interp  --dir D
///   scmobench train   --dir D --profile FILE
///   scmobench build   --dir D [--profile FILE] [--mem MIB]
///                     [--incremental CACHE] [--jobs N] [--naim-dir DIR]
///                     [--trace]
///   scmobench analyze --dir D [--mem MIB] [--incremental CACHE] [--jobs N]
///                     [--naim-dir DIR] [--trace]
///   scmobench probe   --dir D --naim-dir DIR
///
/// D/src/modules.txt lists the module names in order; D/src/<name>.mc holds
/// each module's MiniC source. Every build is +O4; with a profile it is
/// +O4 +P at 5% coarse selectivity.
///
//===----------------------------------------------------------------------===//

#include "bytecode/Compact.h"
#include "driver/CompilerSession.h"
#include "naim/Repository.h"
#include "support/Hash.h"
#include "vm/IlInterp.h"

#include <sys/resource.h>

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <map>
#include <sstream>
#include <string>
#include <utility>
#include <vector>

using namespace scmo;

namespace {

using Clock = std::chrono::steady_clock;
const Clock::time_point Epoch = Clock::now();

double now() {
  return std::chrono::duration<double>(Clock::now() - Epoch).count();
}

double cpuSeconds() {
  rusage U{};
  getrusage(RUSAGE_SELF, &U);
  auto Sec = [](const timeval &T) { return T.tv_sec + T.tv_usec * 1e-6; };
  return Sec(U.ru_utime) + Sec(U.ru_stime);
}

double peakRssMiB() {
  rusage U{};
  getrusage(RUSAGE_SELF, &U);
  return double(U.ru_maxrss) / 1024.0; // ru_maxrss is in KiB on Linux.
}

constexpr double MiB = 1048576.0;

/// mcadLikeParams target size: about 154k generated lines.
constexpr uint64_t ProgramLines = 120000;
/// Coarse selectivity of +P builds, the knee of the paper's Fig. 6.
constexpr double SelectPercent = 5;

/// Spans around the public calls this process makes, kept in memory and
/// printed with the result. Off unless --trace is given.
class Tracer {
public:
  bool Enabled = false;

  /// Opens a span under the innermost open one; returns its index.
  int open(const std::string &Name) {
    if (!Enabled)
      return -1;
    Spans.push_back({Name, now(), 0, Stack.empty() ? -1 : Stack.back()});
    Stack.push_back(int(Spans.size() - 1));
    return Stack.back();
  }
  void close(int Idx) {
    if (Idx < 0)
      return;
    Spans[Idx].End = now();
    Stack.pop_back();
  }
  /// A closed child span of \p Parent laid end to end after \p Start (the
  /// build's stage table reports durations, not start times).
  void addChild(int Parent, const std::string &Name, double Start,
                double Seconds) {
    if (Parent >= 0)
      Spans.push_back({Name, Start, Start + Seconds, Parent});
  }
  double start(int Idx) const { return Idx < 0 ? 0 : Spans[Idx].Start; }

  std::string json() const {
    std::ostringstream OS;
    OS << "[";
    for (size_t I = 0; I != Spans.size(); ++I) {
      const Span &S = Spans[I];
      OS << (I ? "," : "") << "{\"name\":\"" << S.Name << "\",\"start\":"
         << S.Start << ",\"end\":" << S.End << ",\"parent\":" << S.Parent
         << "}";
    }
    OS << "]";
    return OS.str();
  }

private:
  struct Span {
    std::string Name;
    double Start, End;
    int Parent;
  };
  std::vector<Span> Spans;
  std::vector<int> Stack;
};

Tracer Trace;

/// Scoped span.
struct SpanScope {
  explicit SpanScope(const std::string &Name) : Idx(Trace.open(Name)) {}
  ~SpanScope() { Trace.close(Idx); }
  SpanScope(const SpanScope &) = delete;
  SpanScope &operator=(const SpanScope &) = delete;
  int Idx;
};

/// Ordered key/value JSON object writer (numbers, strings, raw JSON).
class JsonOut {
public:
  JsonOut &num(const std::string &K, double V) {
    char Buf[64];
    std::snprintf(Buf, sizeof Buf, "%.9g", V);
    return raw(K, Buf);
  }
  JsonOut &count(const std::string &K, uint64_t V) {
    return raw(K, std::to_string(V));
  }
  JsonOut &str(const std::string &K, const std::string &V) {
    std::string E;
    for (char C : V) {
      if (C == '"' || C == '\\')
        E += '\\';
      if (C == '\n')
        E += "\\n";
      else if (static_cast<unsigned char>(C) >= 0x20)
        E += C;
    }
    return raw(K, "\"" + E + "\"");
  }
  JsonOut &boolean(const std::string &K, bool V) {
    return raw(K, V ? "true" : "false");
  }
  JsonOut &raw(const std::string &K, const std::string &V) {
    Body += (Body.empty() ? "" : ",") + ("\"" + K + "\":") + V;
    return *this;
  }
  std::string text() const { return "{" + Body + "}"; }
  void print() const { std::printf("%s\n", text().c_str()); }

private:
  std::string Body;
};

[[noreturn]] void die(const std::string &Msg) {
  std::fprintf(stderr, "scmobench: %s\n", Msg.c_str());
  std::exit(2);
}

bool readText(const std::string &Path, std::string &Out) {
  std::ifstream In(Path, std::ios::binary);
  if (!In)
    return false;
  std::ostringstream SS;
  SS << In.rdbuf();
  Out = SS.str();
  return true;
}

bool writeText(const std::string &Path, const std::string &Text) {
  std::ofstream Out(Path, std::ios::binary);
  Out << Text;
  return bool(Out);
}

using Sources = std::vector<std::pair<std::string, std::string>>;

Sources loadSources(const std::string &Dir) {
  std::string Manifest;
  if (!readText(Dir + "/src/modules.txt", Manifest))
    die("cannot read " + Dir + "/src/modules.txt");
  Sources S;
  std::istringstream Lines(Manifest);
  std::string Name;
  while (std::getline(Lines, Name)) {
    if (Name.empty())
      continue;
    std::string Text;
    if (!readText(Dir + "/src/" + Name + ".mc", Text))
      die("cannot read module " + Name);
    S.emplace_back(Name, std::move(Text));
  }
  if (S.empty())
    die("no modules in " + Dir);
  return S;
}

/// Parsed command-line flags shared by the subcommands.
struct Args {
  std::string Cmd, Dir, Profile, Cache, NaimDir;
  uint64_t Seed = 1, MemMiB = 0;
  unsigned Jobs = 0;
};

Args parseArgs(int argc, char **argv) {
  if (argc < 2)
    die("usage: scmobench gen|interp|train|build|analyze|probe --dir D ...");
  Args A;
  A.Cmd = argv[1];
  for (int I = 2; I < argc; ++I) {
    std::string F = argv[I];
    auto value = [&]() -> std::string {
      if (I + 1 >= argc)
        die("missing value for " + F);
      return argv[++I];
    };
    if (F == "--dir")
      A.Dir = value();
    else if (F == "--seed")
      A.Seed = std::stoull(value());
    else if (F == "--profile")
      A.Profile = value();
    else if (F == "--mem")
      A.MemMiB = std::stoull(value());
    else if (F == "--incremental")
      A.Cache = value();
    else if (F == "--jobs")
      A.Jobs = unsigned(std::stoul(value()));
    else if (F == "--naim-dir")
      A.NaimDir = value();
    else if (F == "--trace")
      Trace.Enabled = true;
    else
      die("unknown flag " + F);
  }
  if (A.Dir.empty())
    die("--dir is required");
  return A;
}

/// The options a scmoc user sets; every resource knob keeps its default.
/// The NAIM repository goes under --naim-dir so the benchmark writes only
/// inside its own tree.
CompileOptions userOptions(const Args &A) {
  CompileOptions Opts;
  Opts.Level = OptLevel::O4;
  Opts.Jobs = A.Jobs;
  if (A.MemMiB)
    Opts.Naim = NaimConfig::autoFor(A.MemMiB << 20); // scmoc --machine-mem
  if (!A.NaimDir.empty())
    Opts.Naim.RepositoryPath = A.NaimDir + "/repo";
  if (!A.Cache.empty()) {
    Opts.Incremental = true;
    Opts.CacheDir = A.Cache;
  }
  return Opts;
}

/// Adds every module under one "frontend" span; returns false on a source
/// error.
bool addSources(CompilerSession &Session, const Sources &Srcs) {
  SpanScope Frontend("frontend");
  for (const auto &[Name, Text] : Srcs) {
    SpanScope Add("frontend.addSource");
    if (!Session.addSource(Name, Text))
      return false;
  }
  return true;
}

int cmdGen(const Args &A) {
  double T0 = now();
  WorkloadParams Params = mcadLikeParams(ProgramLines, 1, A.Seed);
  Params.PlantDefects = true;
  GeneratedProgram GP;
  {
    SpanScope S("workload.generateProgram");
    GP = generateProgram(Params);
  }
  double GenSeconds = now() - T0;
  std::string Manifest;
  for (const GeneratedModule &GM : GP.Modules) {
    if (!writeText(A.Dir + "/src/" + GM.Name + ".mc", GM.Source))
      die("cannot write module " + GM.Name);
    Manifest += GM.Name + "\n";
  }
  if (!writeText(A.Dir + "/src/modules.txt", Manifest))
    die("cannot write manifest");
  JsonOut J;
  J.boolean("ok", true)
      .num("gen_s", GenSeconds)
      .raw("spans", Trace.json())
      .print();
  return 0;
}

/// The reference: the sources lowered by the frontend alone and run on the
/// IL interpreter, with no optimizer, linker or machine VM involved.
int cmdInterp(const Args &A) {
  Sources Srcs = loadSources(A.Dir);
  CompilerSession Session{CompileOptions{}};
  JsonOut J;
  if (!addSources(Session, Srcs)) {
    J.boolean("ok", false).str("error", Session.firstError()).print();
    return 0;
  }
  double T0 = now();
  IlRunResult R;
  {
    SpanScope S("vm.interpretProgram");
    R = interpretProgram(Session.program(), &Session.loader());
  }
  J.boolean("ok", R.Ok)
      .str("error", R.Error)
      .num("interp_s", now() - T0)
      .raw("exit", std::to_string(R.ExitValue))
      .count("output_count", R.OutputCount)
      .str("output_checksum", std::to_string(R.OutputChecksum))
      .count("steps", R.Steps)
      .raw("spans", Trace.json())
      .print();
  return 0;
}

int cmdTrain(const Args &A) {
  Sources Srcs = loadSources(A.Dir);
  std::string Error;
  double T0 = now();
  ProfileDb Db;
  {
    SpanScope S("profile.trainProfile");
    Db = trainProfileOnSources(Srcs, Error);
  }
  double TrainSeconds = now() - T0;
  bool Ok = Error.empty() && saveProfileDb(Db, A.Profile);
  if (Ok == false && Error.empty())
    Error = "cannot write " + A.Profile;
  JsonOut J;
  J.boolean("ok", Ok)
      .str("error", Error)
      .num("train_s", TrainSeconds)
      .raw("spans", Trace.json())
      .print();
  return 0;
}

uint64_t counter(const BuildResult &B, const char *Name) {
  return B.Stats.get(Name);
}

int cmdBuild(const Args &A) {
  Sources Srcs = loadSources(A.Dir);
  CompileOptions Opts = userOptions(A);
  ProfileDb Db;
  if (!A.Profile.empty()) {
    Opts.Pbo = true;
    Opts.SelectivityPercent = SelectPercent;
    if (!loadProfileDb(A.Profile, Db))
      die("cannot read profile " + A.Profile);
  }
  JsonOut J;
  double Cpu0 = cpuSeconds();
  double T0 = now();
  int Root = Trace.open("build_op");
  CompilerSession Session(Opts);
  if (!addSources(Session, Srcs)) {
    J.boolean("ok", false).str("error", Session.firstError()).print();
    return 0;
  }
  double FrontendEnd = now();
  if (Opts.Pbo)
    Session.attachProfile(std::move(Db));
  int BuildSpan = Trace.open("build");
  BuildResult B = Session.build();
  double Wall = now() - T0;
  double Cpu = cpuSeconds() - Cpu0;
  double Rss = peakRssMiB();
  double StageSum = 0;
  double At = Trace.start(BuildSpan);
  std::ostringstream Stages;
  for (const StageMetrics &S : B.Stages) {
    Trace.addChild(BuildSpan, "stage." + S.Name, At, S.Seconds);
    At += S.Seconds;
    StageSum += S.Seconds;
    Stages << (Stages.tellp() ? "," : "") << "\"" << S.Name
           << "\":" << S.Seconds;
  }
  Trace.close(BuildSpan);
  Trace.close(Root);
  if (!B.Ok) {
    J.boolean("ok", false).str("error", B.Error).print();
    return 0;
  }
  double FrontendSeconds = FrontendEnd - T0;

  uint64_t WpaPeak = 0;
  const MemoryProfile &M = B.Memory;
  for (unsigned S = 0; S != M.numStages(); ++S)
    if (M.StageNames[S] == "wpa")
      WpaPeak = M.cell(S, MemCategory::HloIr).PeakLiveBytes;

  RunResult Run;
  {
    SpanScope S("vm.runExecutable");
    Run = runExecutable(B.Exe);
  }
  char Hash[17];
  std::snprintf(Hash, sizeof Hash, "%016llx",
                (unsigned long long)hashExecutable(B.Exe));

  J.boolean("ok", true)
      .num("build_s", Wall)
      .num("build_cpu_s", Cpu)
      .num("peak_rss_mib", Rss)
      .num("hlo_peak_mib", double(B.HloPeakBytes) / MiB)
      .count("exe_instrs", B.Exe.Code.size())
      .str("exe_hash", Hash)
      .count("source_lines", B.SourceLines)
      .num("frontend_s", FrontendSeconds)
      .num("unattributed_s", Wall - FrontendSeconds - StageSum)
      .raw("stages", "{" + Stages.str() + "}")
      .count("cmo_lines", B.Selectivity.CmoSourceLines)
      .count("inline_sites", counter(B, "inline.sites"))
      .count("routines_optimized", counter(B, "hlo.routines_optimized"))
      .num("wpa_peak_mib", double(WpaPeak) / MiB)
      .count("compactions", B.Loader.Compactions)
      .count("offloads", B.Loader.Offloads)
      .count("fetches", B.Loader.Fetches)
      .count("expansions", B.Loader.Expansions)
      .count("contentions", B.Loader.Contentions)
      .num("stored_mib", double(B.Loader.CompressedBytes) / MiB)
      .num("lock_wait_ms", double(B.Loader.LockWaitNanos) / 1e6)
      .count("routines_lowered", B.Llo.RoutinesLowered)
      .count("spills", B.Llo.SpillsAllocated)
      .count("cache_hits", counter(B, "cache.hits"))
      .count("cache_misses", counter(B, "cache.misses"))
      .count("cache_stores", counter(B, "cache.stores"))
      .boolean("run_ok", Run.Ok)
      .count("run_cycles", Run.Cycles)
      .count("run_instrs", Run.Instructions)
      .raw("exit", std::to_string(Run.ExitValue))
      .count("output_count", Run.OutputCount)
      .str("output_checksum", std::to_string(Run.OutputChecksum))
      .raw("spans", Trace.json())
      .print();
  return 0;
}

/// Every check code the generator plants in its lintbait module (see
/// workload/Generator.cpp); each must be reported on a lint_* symbol.
const char *const PlantedCodes[] = {
    "scmo-dead-store",        "scmo-constant-trap",
    "scmo-unreachable-block", "scmo-unused-routine",
    "scmo-write-only-global", "scmo-never-written-global-load",
    "scmo-dead-global-store", "scmo-uninit-global-read",
    "scmo-dead-parameter",    "scmo-ignored-return",
    "scmo-ipcp-constant-trap", "scmo-infinite-recursion"};

int cmdAnalyze(const Args &A) {
  Sources Srcs = loadSources(A.Dir);
  CompileOptions Opts = userOptions(A);
  AnalysisOptions AOpts;
  AOpts.Jobs = Opts.Jobs;
  AOpts.Incremental = Opts.Incremental;
  AOpts.CacheDir = Opts.CacheDir;
  JsonOut J;
  double T0 = now();
  int Root = Trace.open("analyze_op");
  CompilerSession Session(Opts);
  if (!addSources(Session, Srcs)) {
    J.boolean("ok", false).str("error", Session.firstError()).print();
    return 0;
  }
  AnalysisResult R;
  {
    SpanScope S("analysis.runAnalysis");
    R = Session.runAnalysis(AOpts);
  }
  double Wall = now() - T0;
  Trace.close(Root);
  if (!R.Ok) {
    J.boolean("ok", false).str("error", R.Error).print();
    return 0;
  }
  std::string Missing;
  for (const char *Code : PlantedCodes) {
    bool Found = false;
    for (const Diagnostic &D : R.Diagnostics) {
      if (std::string(checkCodeName(D.Code)) != Code)
        continue;
      if (DiagnosticEngine::render(Session.program(), D).find("lint_") !=
          std::string::npos) {
        Found = true;
        break;
      }
    }
    if (!Found)
      Missing += std::string(Missing.empty() ? "" : " ") + Code;
  }
  char Hash[17];
  std::snprintf(
      Hash, sizeof Hash, "%016llx",
      (unsigned long long)hashBytes(
          reinterpret_cast<const uint8_t *>(R.Report.data()),
          R.Report.size()));
  J.boolean("ok", true)
      .num("analyze_s", Wall)
      .str("report_hash", Hash)
      .str("missing_codes", Missing)
      .num("stream_s", R.StreamSeconds)
      .num("interproc_s", R.InterprocSeconds)
      .count("routines_rescanned", R.RoutinesRescanned)
      .raw("spans", Trace.json())
      .print();
  return 0;
}

/// NAIM and bytecode primitives over this program's own routine bodies:
/// compact encode/decode, repository store/fetch, and a loader acquire of a
/// parked (offloaded) routine.
int cmdProbe(const Args &A) {
  Sources Srcs = loadSources(A.Dir);
  CompileOptions Opts;
  Opts.Jobs = 1;
  Opts.Naim.Mode = NaimMode::Offload;
  Opts.Naim.ExpandedCacheBytes = 0;
  Opts.Naim.CompactResidentBytes = 0;
  Opts.Naim.SpillQueueDepth = 0;
  Opts.Naim.RepositoryPath = A.NaimDir + "/probe-loader";
  CompilerSession Session(Opts);
  JsonOut J;
  if (!addSources(Session, Srcs)) {
    J.boolean("ok", false).str("error", Session.firstError()).print();
    return 0;
  }
  Program &P = Session.program();
  Loader &L = Session.loader();
  std::vector<RoutineId> Defined;
  for (RoutineId R = 0; R != P.numRoutines(); ++R)
    if (P.routine(R).IsDefined)
      Defined.push_back(R);

  // Loader: every body is parked in the repository after the frontend, so
  // each first acquire fetches and expands it.
  L.drainSpills();
  LoaderStats Before = L.stats();
  double AcquireSeconds = 0;
  std::vector<std::unique_ptr<RoutineBody>> Copies;
  std::vector<std::vector<uint8_t>> Compact;
  {
    SpanScope S("naim.acquire");
    for (RoutineId R : Defined) {
      double T0 = now();
      const RoutineBody &Body = L.acquireRead(R);
      AcquireSeconds += now() - T0;
      Compact.push_back(compactRoutine(Body));
      L.release(R);
    }
  }
  if (L.stats().Fetches - Before.Fetches != Defined.size())
    die("probe: not every routine was parked in the repository");

  uint64_t CompactBytes = 0;
  for (const auto &C : Compact)
    CompactBytes += C.size();

  // Bytecode: decode every record, then encode every decoded body, a few
  // passes so one probe lasts long enough to time.
  constexpr int Passes = 3;
  double ExpandSeconds = 0, CompactSeconds = 0;
  {
    SpanScope S("bytecode.expandRoutine");
    for (int Pass = 0; Pass != Passes; ++Pass) {
      Copies.clear();
      double T0 = now();
      for (const auto &C : Compact)
        Copies.push_back(expandRoutine(C, nullptr));
      ExpandSeconds += now() - T0;
    }
  }
  for (const auto &Body : Copies)
    if (!Body)
      die("expandRoutine rejected a record");
  {
    SpanScope S("bytecode.compactRoutine");
    for (int Pass = 0; Pass != Passes; ++Pass) {
      double T0 = now();
      for (size_t I = 0; I != Copies.size(); ++I)
        if (compactRoutine(*Copies[I]) != Compact[I])
          die("compactRoutine is not the inverse of expandRoutine");
      CompactSeconds += now() - T0;
    }
  }

  // Repository: store every record, then fetch each back.
  Repository Repo(A.NaimDir + "/probe-repo");
  std::vector<uint64_t> Offsets;
  double StoreSeconds = 0, FetchSeconds = 0;
  {
    SpanScope S("naim.Repository.store");
    double T0 = now();
    for (const auto &C : Compact) {
      Expected<uint64_t> Off = Repo.store(C);
      if (!Off)
        die("repository store failed");
      Offsets.push_back(*Off);
    }
    StoreSeconds = now() - T0;
  }
  {
    SpanScope S("naim.Repository.fetch");
    std::vector<uint8_t> Out;
    double T0 = now();
    for (size_t I = 0; I != Compact.size(); ++I) {
      if (!Repo.fetch(Offsets[I], Compact[I].size(), Out).ok() ||
          Out != Compact[I])
        die("repository fetch returned other bytes");
    }
    FetchSeconds = now() - T0;
  }

  double Mb = double(CompactBytes) / MiB;
  J.boolean("ok", true)
      .num("acquire_us", AcquireSeconds * 1e6 / double(Defined.size()))
      .num("compact_mib_per_s", Mb * Passes / CompactSeconds)
      .num("expand_mib_per_s", Mb * Passes / ExpandSeconds)
      .num("repo_store_mib_per_s", Mb / StoreSeconds)
      .num("repo_fetch_mib_per_s", Mb / FetchSeconds)
      .raw("spans", Trace.json())
      .print();
  return 0;
}

} // namespace

int main(int argc, char **argv) {
  Args A = parseArgs(argc, argv);
  if (A.Cmd == "gen")
    return cmdGen(A);
  if (A.Cmd == "interp")
    return cmdInterp(A);
  if (A.Cmd == "train")
    return cmdTrain(A);
  if (A.Cmd == "build")
    return cmdBuild(A);
  if (A.Cmd == "analyze")
    return cmdAnalyze(A);
  if (A.Cmd == "probe")
    return cmdProbe(A);
  die("unknown subcommand " + A.Cmd);
}
