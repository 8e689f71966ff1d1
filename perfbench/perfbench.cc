// The repo benchmark (perfbench/README.md). One invocation runs one
// workload for one seed:
//
//   perfbench --workload clinical_olap --seed 1 --seconds 15 --trace 0
//
// It sets the workload up several times (setup_s is the median), runs a
// closed-loop timed phase, checks every output untimed, and prints the
// metrics by name with their units. The last line of stdout is one JSON
// object: {"correct", "attempted", "failed", "metrics"}. --trace 0
// reports the end-to-end metrics; --trace 1 runs the same schedule with
// each statement replayed under spans (replay.h) and reports the
// per-layer metrics, writing the span dump to --trace-out.

#include <malloc.h>
#include <sys/mman.h>
#include <sys/resource.h>

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <map>
#include <memory>
#include <optional>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "bench_stats.h"
#include "common/strings.h"
#include "mdql/mdql.h"
#include "replay.h"
#include "serve/mdql_server.h"
#include "serve/mo_store.h"
#include "serve/tcp_server.h"
#include "streams.h"
#include "stress/oracle.h"
#include "wire_client.h"
#include "workload/clinical_generator.h"
#include "workload/retail_generator.h"

#ifndef PERFBENCH_BUILD_TYPE
#define PERFBENCH_BUILD_TYPE "unknown"
#endif

namespace perfbench {
namespace {

using namespace mddc;
using Clock = std::chrono::steady_clock;

// Data sizes and schedule shape. Changing any of them changes what the
// benchmark measures; see README.md before touching them.
constexpr std::size_t kOlapPatients = 20000;
constexpr std::size_t kRetailPurchases = 100000;
constexpr std::size_t kIngestPatients = 50000;
constexpr std::size_t kIngestBatch = 64;
/// clinical_ingest runs a fixed number of cycles, not a time window, so
/// every commit ingests the same facts; --seconds does not change it.
/// 200 reads and 200 writes give each p95 ten samples beyond it.
constexpr std::size_t kIngestCycles = 200;
constexpr std::size_t kRetailConnections = 2;
/// clinical_olap's rounds, one class deck (8 operations) each.
constexpr std::size_t kOlapRounds = 4;
constexpr std::size_t kSetupRuns = 3;
constexpr std::size_t kWarmAggregates = 4;
/// A run is flagged as taken on a disturbed host when the hypervisor
/// stole more than this share of the CPU time during its timed phase, or
/// when the memory probe after the timed phase differs from the one
/// before the setups by more than this share. Probes taken back to back
/// on a busy shared host ranged from 1.1 to 1.9 ms, so the flag marks
/// only large shifts.
constexpr double kMaxStealShare = 0.02;
constexpr double kMaxProbeDrift = 0.5;
/// Failing statements are counted; only the first few are described.
constexpr std::size_t kMaxFailureNotes = 4;

constexpr const char* kClinicalMo = "clinical";
constexpr const char* kRetailMo = "sales";

double SecondsBetween(Clock::time_point a, Clock::time_point b) {
  return std::chrono::duration<double>(b - a).count();
}

double MillisBetween(Clock::time_point a, Clock::time_point b) {
  return std::chrono::duration<double, std::milli>(b - a).count();
}

double PeakRssMb() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;
}

/// This process's CPU time (user plus system) and minor page faults so
/// far; a phase's usage is the difference of two readings.
struct Usage {
  double cpu_s = 0.0;
  double minor_faults = 0.0;

  static Usage Now() {
    rusage usage{};
    getrusage(RUSAGE_SELF, &usage);
    auto seconds = [](const timeval& tv) {
      return static_cast<double>(tv.tv_sec) +
             static_cast<double>(tv.tv_usec) / 1e6;
    };
    return {seconds(usage.ru_utime) + seconds(usage.ru_stime),
            static_cast<double>(usage.ru_minflt)};
  }
  Usage Since(const Usage& then) const {
    return {cpu_s - then.cpu_s, minor_faults - then.minor_faults};
  }
};

/// The machine's CPU time from the first line of /proc/stat, summed over
/// its CPUs: all of it, and the part the hypervisor stole.
struct CpuTicks {
  double total = 0.0;
  double steal = 0.0;

  static CpuTicks Now() {
    CpuTicks ticks;
    std::ifstream stat("/proc/stat");
    std::string cpu;
    // user nice system idle iowait irq softirq steal
    double fields[8] = {};
    if (!(stat >> cpu) || cpu != "cpu") return ticks;
    for (double& field : fields) stat >> field;
    for (double field : fields) ticks.total += field;
    ticks.steal = fields[7];
    return ticks;
  }
};

/// Where MemoryProbeMs leaves its sum, so that its loads are kept.
volatile std::uint64_t probe_sink;

/// The host's memory speed: the median milliseconds of 2·10^5 scattered
/// loads from a 32 MiB buffer, over 50 rounds (about 0.1 s). Neighbours
/// on a shared host that evict the shared cache or load the memory bus
/// slow it, and the workloads with it, while CPU steal stays near zero. The buffer is
/// mapped and unmapped directly, so the probe leaves no heap state
/// behind; its 32 MiB stay below every workload's peak RSS.
double MemoryProbeMs() {
  constexpr std::size_t kWords =
      (std::size_t{32} << 20) / sizeof(std::uint64_t);
  constexpr std::size_t kBytes = kWords * sizeof(std::uint64_t);
  void* mapped = mmap(nullptr, kBytes, PROT_READ | PROT_WRITE,
                      MAP_PRIVATE | MAP_ANONYMOUS, -1, 0);
  if (mapped == MAP_FAILED) return 0.0;
  auto* words = static_cast<std::uint64_t*>(mapped);
  for (std::size_t i = 0; i < kWords; ++i) words[i] = i;
  std::vector<double> rounds;
  std::uint64_t state = 1;
  std::uint64_t sum = 0;
  for (int round = 0; round < 50; ++round) {
    const auto a = Clock::now();
    for (int i = 0; i < 200000; ++i) {
      state = state * 6364136223846793005ull + 1442695040888963407ull;
      sum += words[(state >> 20) % kWords];
    }
    rounds.push_back(MillisBetween(a, Clock::now()));
  }
  munmap(mapped, kBytes);
  probe_sink = sum;  // keeps the loads
  return Median(rounds);
}

/// The host's state around one run: CPU steal over the timed phase and
/// the memory probe before the setups and after the timed phase.
struct HostDrift {
  double probe_before_ms = 0.0;
  double probe_after_ms = 0.0;
  double steal_share = 0.0;

  double probe_drift() const {
    return probe_before_ms > 0 ? probe_after_ms / probe_before_ms - 1.0
                               : 0.0;
  }
  bool disturbed() const {
    return steal_share > kMaxStealShare ||
           std::abs(probe_drift()) > kMaxProbeDrift;
  }
};

[[noreturn]] void Die(const std::string& what, const Status& status) {
  std::fprintf(stderr, "perfbench: %s: %s\n", what.c_str(),
               status.ToString().c_str());
  std::exit(1);
}

void Check(const Status& status, const std::string& what) {
  if (!status.ok()) Die(what, status);
}

/// Describes a failing statement; the caller counts it. Only the first
/// few failures are described.
void NoteFailure(std::vector<std::string>& notes, std::string text) {
  if (notes.size() < kMaxFailureNotes) notes.push_back(std::move(text));
}

std::string JsonString(const std::string& text) {
  std::string out = "\"";
  for (char ch : text) {
    if (ch == '"' || ch == '\\') {
      out += '\\';
      out += ch;
    } else if (static_cast<unsigned char>(ch) < 0x20) {
      char buffer[8];
      std::snprintf(buffer, sizeof(buffer), "\\u%04x", ch);
      out += buffer;
    } else {
      out += ch;
    }
  }
  return out + "\"";
}

std::string JsonNumber(double value) {
  if (!std::isfinite(value)) return "0";
  char buffer[40];
  std::snprintf(buffer, sizeof(buffer), "%.17g", value);
  return buffer;
}

/// A number for the human-readable lines.
std::string Fmt(double value) {
  char buffer[40];
  std::snprintf(buffer, sizeof(buffer), "%.6g", value);
  return buffer;
}

struct Args {
  std::string workload;
  std::uint32_t seed = 1;
  int seconds = 15;
  bool trace = false;
  std::string stamp = "unknown";
  std::string trace_out;
};

/// Counters of a serving session's reads, from SessionStats in process
/// or from the ".stats" meta command over the wire.
struct ReadCounters {
  double reads = 0, plan_cache_hits = 0, fused = 0, view_rebuilds = 0;
  double dense = 0, flat_hash = 0, index_hits = 0, index_fallbacks = 0;
  double index_builds = 0, arena_bytes = 0;

  /// Parses SessionStats::ToJson (every key in it is unique), which is
  /// also what ".stats" returns over the wire.
  static ReadCounters OfJson(const std::string& json);
  static ReadCounters Of(const serve::SessionStats& stats) {
    return OfJson(stats.ToJson());
  }
  ReadCounters Minus(const ReadCounters& other) const;
  void Add(const ReadCounters& other);
};

/// The SessionStats::ToJson key behind each ReadCounters field.
constexpr std::pair<const char*, double ReadCounters::*> kReadCounterKeys[] = {
    {"reads", &ReadCounters::reads},
    {"plan_cache_hits", &ReadCounters::plan_cache_hits},
    {"fused_pipelines", &ReadCounters::fused},
    {"view_rebuilds", &ReadCounters::view_rebuilds},
    {"dense_groupby_runs", &ReadCounters::dense},
    {"flat_hash_runs", &ReadCounters::flat_hash},
    {"index_hits", &ReadCounters::index_hits},
    {"index_fallbacks", &ReadCounters::index_fallbacks},
    {"index_builds", &ReadCounters::index_builds},
    {"arena_bytes", &ReadCounters::arena_bytes},
};

ReadCounters ReadCounters::OfJson(const std::string& json) {
  ReadCounters c;
  for (const auto& [key, field] : kReadCounterKeys) {
    const std::string needle = StrCat("\"", key, "\": ");
    const std::size_t at = json.find(needle);
    if (at != std::string::npos) {
      c.*field = std::strtod(json.c_str() + at + needle.size(), nullptr);
    }
  }
  return c;
}

ReadCounters ReadCounters::Minus(const ReadCounters& other) const {
  ReadCounters c;
  for (const auto& [key, field] : kReadCounterKeys) {
    c.*field = this->*field - other.*field;
  }
  return c;
}

void ReadCounters::Add(const ReadCounters& other) {
  for (const auto& [key, field] : kReadCounterKeys) {
    this->*field += other.*field;
  }
}

ReplayCounters Since(const ReplayCounters& now, const ReplayCounters& then) {
  return {now.facts_scanned - then.facts_scanned, now.rows - then.rows};
}

/// Writer-side counters of the traced clinical_ingest run.
struct WriteCounters {
  double writes = 0, fallbacks = 0, preagg_folds = 0, csr_tail_extends = 0;
  double rollup_patches = 0, registry_flattens = 0, live_snapshots_max = 0;
};

/// Everything one run measured and checked.
struct RunResult {
  std::vector<std::pair<std::string, std::uint64_t>> sizes;
  std::vector<double> setup_s, generate_s, publish_s, warm_s;
  std::vector<double> read_ms;   // reads completed within the timed phase
  std::vector<double> write_ms;  // writes completed within the timed phase
  double phase_s = 0.0;
  Usage phase_usage;  // CPU time and page faults of the timed phase
  HostDrift host;
  double peak_rss_mb = 0.0;
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  /// Traced reads whose replay rendered other bytes than production: a
  /// defect of the trace, not of the program (see Main).
  std::uint64_t replay_diverged = 0;
  std::vector<std::string> notes;

  // Traced runs only.
  std::vector<Span> spans;
  std::vector<double> production_read_ms;  // every replayed read
  ReadCounters production;
  ReplayCounters replay;
  WriteCounters writes;
};

/// The phases of one setup. Every workload sets up kSetupRuns times and
/// keeps the environment of the last setup for the timed phase.
struct SetupTimes {
  double generate_s = 0.0, publish_s = 0.0, warm_s = 0.0;
};

double Ratio(double num, double den) { return den > 0 ? num / den : 0.0; }

/// The readings taken when a timed phase starts.
struct PhaseStart {
  Usage usage = Usage::Now();
  CpuTicks ticks = CpuTicks::Now();
};

/// Closes a timed phase: its usage, CPU steal and peak RSS, then the
/// memory probe that follows it.
void EndPhase(const PhaseStart& start, RunResult& run) {
  run.phase_usage = Usage::Now().Since(start.usage);
  const CpuTicks ticks = CpuTicks::Now();
  run.host.steal_share = Ratio(ticks.steal - start.ticks.steal,
                               ticks.total - start.ticks.total);
  run.peak_rss_mb = PeakRssMb();
  run.host.probe_after_ms = MemoryProbeMs();
}

void RecordSetup(RunResult& run, const SetupTimes& t) {
  run.generate_s.push_back(t.generate_s);
  run.publish_s.push_back(t.publish_s);
  run.warm_s.push_back(t.warm_s);
  run.setup_s.push_back(t.generate_s + t.publish_s + t.warm_s);
}

/// First rendering of every distinct statement, and how often each ran.
/// A later execution that renders other bytes than the first is a
/// failure on its own.
struct Renderings {
  std::map<std::string, std::string> first;
  std::map<std::string, std::uint64_t> occurrences;
  std::uint64_t drifted = 0;

  void Add(const std::string& statement, std::string rendered) {
    ++occurrences[statement];
    auto [it, inserted] = first.try_emplace(statement, std::move(rendered));
    if (!inserted && it->second != rendered) ++drifted;
  }
};

/// Re-executes every distinct statement with the tree-walk interpreter
/// (CompileOptions::enable_compiler = false) on a replica of the
/// published MO. Returns how many executions rendered differently.
std::uint64_t CheckAgainstInterpreter(MdObject replica, const std::string& mo,
                                      const Renderings& seen,
                                      std::vector<std::string>* notes) {
  const auto start = Clock::now();
  mdql::Session interpreter;
  mdql::CompileOptions options;
  options.enable_compiler = false;
  interpreter.set_compile_options(options);
  Check(interpreter.Register(mo, std::move(replica)), "register replica");
  std::uint64_t mismatched = 0;
  for (const auto& [statement, rendered] : seen.first) {
    auto expected = interpreter.Execute(statement);
    const std::string text =
        expected.ok() ? expected->ToString()
                      : StrCat("<error: ", expected.status().message(), ">");
    if (text != rendered) {
      mismatched += seen.occurrences.at(statement);
      NoteFailure(*notes, StrCat("interpreter mismatch: ", statement));
    }
  }
  notes->push_back(StrCat("check: ", seen.first.size(),
                          " distinct statements re-run by the tree-walk "
                          "interpreter on a replica, ",
                          mismatched, " mismatched executions, in ",
                          Fmt(SecondsBetween(start, Clock::now())), " s"));
  return mismatched;
}

// ---------------------------------------------------------------------
// clinical_olap

ClinicalWorkloadParams ClinicalParams(std::uint32_t seed,
                                      std::size_t patients) {
  ClinicalWorkloadParams params;
  params.seed = seed;
  params.num_patients = patients;
  return params;
}

ClinicalMo GenerateClinical(const ClinicalWorkloadParams& params) {
  auto clinical =
      GenerateClinicalWorkload(params, std::make_shared<FactRegistry>());
  if (!clinical.ok()) Die("clinical generation", clinical.status());
  return std::move(clinical).ValueOrDie();
}

/// A published store with its server; members are declared in
/// destruction-safe order (sessions reference the server's store).
struct Serving {
  std::unique_ptr<serve::MoStore> store = std::make_unique<serve::MoStore>();
  std::unique_ptr<serve::MdqlServer> server =
      std::make_unique<serve::MdqlServer>(store.get());
};

void RunClinicalOlap(const Args& args, RunResult& run) {
  const ClinicalWorkloadParams params =
      ClinicalParams(args.seed, kOlapPatients);
  std::unique_ptr<Serving> serving;
  std::optional<serve::ServerSession> session;
  std::vector<std::vector<std::string>> rounds;
  for (std::size_t s = 0; s < kSetupRuns; ++s) {
    session.reset();
    serving.reset();
    SetupTimes t;
    auto t0 = Clock::now();
    ClinicalMo clinical = GenerateClinical(params);
    rounds = OlapRounds(
        stress::WorkloadProfile::For(params, clinical, kClinicalMo),
        args.seed, kOlapRounds);
    run.sizes = {{"patients", kOlapPatients},
                 {"facts", clinical.mo.facts().size()},
                 {"families", clinical.num_families},
                 {"low_level_diagnoses", clinical.num_low_level}};
    auto t1 = Clock::now();
    serving = std::make_unique<Serving>();
    Check(serving->store->Publish(kClinicalMo, std::move(clinical.mo)),
          "publish");
    auto t2 = Clock::now();
    session.emplace(serving->server->Connect());
    // Warm-up: one pass over every round.
    for (const std::vector<std::string>& round : rounds) {
      for (const std::string& statement : round) {
        auto result = session->Execute(statement);
        if (!result.ok()) Die(StrCat("warm-up ", statement), result.status());
        result->ToString();
      }
    }
    auto t3 = Clock::now();
    t.generate_s = SecondsBetween(t0, t1);
    t.publish_s = SecondsBetween(t1, t2);
    t.warm_s = SecondsBetween(t2, t3);
    RecordSetup(run, t);
  }

  Tracer tracer;
  ReadReplayer replayer(serving->store.get());
  if (args.trace) {
    // The replayer warms up like the session did, off the record.
    Tracer off_record;
    for (const std::vector<std::string>& round : rounds) {
      for (const std::string& statement : round) {
        replayer.Replay(statement, /*fused=*/true, &off_record);
      }
    }
  }
  const ReplayCounters replay_before = replayer.counters();
  const ReadCounters before = ReadCounters::Of(session->stats());
  Renderings seen;
  std::uint64_t request = 0;
  const PhaseStart phase;
  const auto start = Clock::now();
  const auto deadline = start + std::chrono::seconds(args.seconds);
  bool open = true;
  for (std::size_t next = 0; open; next = (next + 1) % rounds.size()) {
    for (const std::string& statement : rounds[next]) {
      if (Clock::now() >= deadline) {
        open = false;
        break;
      }
      const double fused_before =
          static_cast<double>(session->stats().exec.fused_pipelines);
      const auto a = Clock::now();
      auto result = session->Execute(statement);
      std::string rendered = result.ok() ? result->ToString() : "";
      const auto b = Clock::now();
      ++run.attempted;
      if (b <= deadline) run.read_ms.push_back(MillisBetween(a, b));
      if (!result.ok()) {
        ++run.failed;
        NoteFailure(run.notes, StrCat("error: ", statement, ": ",
                                      result.status().message()));
        continue;
      }
      if (args.trace) {
        run.production_read_ms.push_back(MillisBetween(a, b));
        const bool fused =
            session->stats().exec.fused_pipelines > fused_before;
        tracer.SetRequest(++request);
        Result<std::string> replayed = std::string();
        {
          Tracer::Scope root(&tracer, "read");
          replayed = replayer.Replay(statement, fused, &tracer);
        }
        if (!replayed.ok() || *replayed != rendered) {
          ++run.replay_diverged;
          NoteFailure(run.notes, StrCat("replay diverged: ", statement));
        }
      }
      seen.Add(statement, std::move(rendered));
    }
  }
  run.phase_s = args.seconds;
  EndPhase(phase, run);
  run.production = ReadCounters::Of(session->stats()).Minus(before);
  run.replay = Since(replayer.counters(), replay_before);
  run.spans = tracer.spans();
  run.writes.live_snapshots_max = static_cast<double>(
      serving->store->CollectStats().live_snapshots);

  run.failed += seen.drifted;
  ClinicalMo replica = GenerateClinical(params);
  run.failed += CheckAgainstInterpreter(std::move(replica.mo), kClinicalMo,
                                        seen, &run.notes);
}

// ---------------------------------------------------------------------
// retail_wire

RetailMo GenerateRetail(std::uint32_t seed) {
  RetailWorkloadParams params;
  params.seed = seed;
  params.num_purchases = kRetailPurchases;
  auto retail =
      GenerateRetailWorkload(params, std::make_shared<FactRegistry>());
  if (!retail.ok()) Die("retail generation", retail.status());
  return std::move(retail).ValueOrDie();
}

/// The wire bytes TcpServer sends for a successful statement.
std::string WireReply(const mdql::QueryResult& result) {
  std::string reply = StrCat("OK ", result.rows.size(), "\n");
  std::string table = result.ToString();
  if (!table.empty()) {
    reply += table;
    if (reply.back() != '\n') reply += '\n';
  }
  reply += ".\n";
  return reply;
}

/// Sends one pass over `round` through `client`.
Status WarmConnection(LineClient& client,
                      const std::vector<std::string>& round) {
  for (const std::string& statement : round) {
    auto reply = client.RoundTrip(statement);
    if (!reply.ok()) return reply.status();
    if (reply->rfind("OK ", 0) != 0) {
      return Status::InvalidArgument(StrCat(statement, ": ", *reply));
    }
  }
  return Status::OK();
}

/// One connection's share of the timed phase.
struct ClientOutcome {
  std::vector<double> read_ms;
  std::uint64_t attempted = 0;
  std::uint64_t errors = 0;
  Renderings replies;
  std::vector<std::string> notes;
  // Traced runs only.
  Tracer tracer;
  std::vector<double> production_read_ms;
  ReadCounters production;
  ReplayCounters replay;
  std::uint64_t replay_diverged = 0;
};

/// One connection's closed loop over passes of its round. `replayer` is
/// null in untraced runs.
void RunRetailClient(LineClient& client, ReadReplayer* replayer,
                     const std::vector<std::string>& round,
                     std::size_t connection, Clock::time_point deadline,
                     ClientOutcome& out) {
  ReadCounters last;
  ReplayCounters replay_before;
  if (replayer != nullptr) {
    auto stats = client.RoundTrip(".stats");
    if (stats.ok()) last = ReadCounters::OfJson(*stats);
    replay_before = replayer->counters();
  }
  std::uint64_t request = static_cast<std::uint64_t>(connection) << 32;
  // Sends one statement; false once the deadline passed or the
  // connection is gone.
  auto send = [&](const std::string& statement) {
    if (Clock::now() >= deadline) return false;
    const auto a = Clock::now();
    auto reply = client.RoundTrip(statement);
    const auto b = Clock::now();
    ++out.attempted;
    if (b <= deadline) out.read_ms.push_back(MillisBetween(a, b));
    if (!reply.ok() || reply->rfind("OK ", 0) != 0) {
      ++out.errors;
      NoteFailure(out.notes,
                  StrCat("error: ", statement, ": ",
                         reply.ok() ? *reply : reply.status().message()));
      return reply.ok();
    }
    if (replayer != nullptr) {
      out.production_read_ms.push_back(MillisBetween(a, b));
      auto stats = client.RoundTrip(".stats");
      const ReadCounters now =
          stats.ok() ? ReadCounters::OfJson(*stats) : ReadCounters();
      const bool fused = now.fused > last.fused;
      out.production.Add(now.Minus(last));
      last = now;
      out.tracer.SetRequest(++request);
      Result<std::string> replayed = std::string();
      {
        Tracer::Scope root(&out.tracer, "read");
        {
          Tracer::Scope rtt(&out.tracer, "serve.wire_rtt");
          auto epoch = client.RoundTrip(".epoch");
          if (!epoch.ok()) ++out.replay_diverged;
        }
        replayed = replayer->Replay(statement, fused, &out.tracer);
      }
      // The wire reply is the status line, the table, and the '.' line.
      bool same = replayed.ok();
      if (same) {
        std::string wire = reply->substr(0, reply->find('\n') + 1);
        wire += *replayed;
        if (wire.back() != '\n') wire += '\n';
        same = *reply == wire + ".\n";
      }
      if (!same) ++out.replay_diverged;
    }
    out.replies.Add(statement, std::move(*reply));
    return true;
  };
  for (std::size_t next = 0; send(round[next]);) {
    next = (next + 1) % round.size();
  }
  if (replayer != nullptr) {
    out.replay = Since(replayer->counters(), replay_before);
  }
}

void RunRetailWire(const Args& args, RunResult& run) {
  std::unique_ptr<Serving> serving;
  std::unique_ptr<serve::TcpServer> tcp;
  std::vector<std::unique_ptr<LineClient>> clients;
  std::vector<std::vector<std::string>> rounds(kRetailConnections);
  for (std::size_t c = 0; c < kRetailConnections; ++c) {
    rounds[c] = RetailRound(kRetailMo, args.seed, c);
  }
  for (std::size_t s = 0; s < kSetupRuns; ++s) {
    clients.clear();
    tcp.reset();
    serving.reset();
    SetupTimes t;
    auto t0 = Clock::now();
    RetailMo retail = GenerateRetail(args.seed);
    run.sizes = {{"purchases", kRetailPurchases},
                 {"facts", retail.mo.facts().size()},
                 {"connections", kRetailConnections}};
    auto t1 = Clock::now();
    serving = std::make_unique<Serving>();
    Check(serving->store->Publish(kRetailMo, std::move(retail.mo)), "publish");
    auto t2 = Clock::now();
    tcp = std::make_unique<serve::TcpServer>(serving->server.get());
    Check(tcp->Start(0), "tcp start");
    for (std::size_t c = 0; c < kRetailConnections; ++c) {
      clients.push_back(std::make_unique<LineClient>());
      Check(clients.back()->Connect(tcp->port()), "connect");
    }
    // Warm-up: the connections at once, as in the timed phase, each
    // through one pass over its round. That builds every view and rollup
    // index the rounds use and brings the heap to its working size.
    std::vector<Status> warm_status(kRetailConnections);
    {
      std::vector<std::jthread> threads;
      for (std::size_t c = 0; c < kRetailConnections; ++c) {
        threads.emplace_back([&, c] {
          warm_status[c] = WarmConnection(*clients[c], rounds[c]);
        });
      }
    }
    for (const Status& status : warm_status) Check(status, "warm-up");
    auto t3 = Clock::now();
    t.generate_s = SecondsBetween(t0, t1);
    t.publish_s = SecondsBetween(t1, t2);
    t.warm_s = SecondsBetween(t2, t3);
    RecordSetup(run, t);
  }

  // Traced runs replay each connection's reads on its own replayer,
  // warmed up like the connection's session, off the record.
  std::vector<std::unique_ptr<ReadReplayer>> replayers(kRetailConnections);
  if (args.trace) {
    Tracer off_record;
    for (std::size_t c = 0; c < kRetailConnections; ++c) {
      replayers[c] = std::make_unique<ReadReplayer>(serving->store.get());
      for (const std::string& statement : rounds[c]) {
        replayers[c]->Replay(statement, /*fused=*/true, &off_record);
      }
    }
  }
  std::vector<ClientOutcome> outcomes(kRetailConnections);
  const PhaseStart phase;
  const auto start = Clock::now();
  const auto deadline = start + std::chrono::seconds(args.seconds);
  {
    std::vector<std::jthread> threads;
    for (std::size_t c = 0; c < kRetailConnections; ++c) {
      threads.emplace_back([&, c] {
        RunRetailClient(*clients[c], replayers[c].get(), rounds[c], c,
                        deadline, outcomes[c]);
      });
    }
  }
  run.phase_s = args.seconds;
  EndPhase(phase, run);
  run.writes.live_snapshots_max = static_cast<double>(
      serving->store->CollectStats().live_snapshots);
  clients.clear();
  tcp.reset();

  // Check: the wire bytes against the in-process rendering of the same
  // statement, then the in-process rendering against the interpreter.
  serve::ServerSession inproc = serving->server->Connect();
  Renderings expected;
  std::map<std::string, std::string> wire_expected;
  std::uint64_t wire_mismatched = 0;
  for (ClientOutcome& out : outcomes) {
    run.read_ms.insert(run.read_ms.end(), out.read_ms.begin(),
                       out.read_ms.end());
    run.attempted += out.attempted;
    run.failed += out.errors + out.replies.drifted;
    run.replay_diverged += out.replay_diverged;
    run.notes.insert(run.notes.end(), out.notes.begin(), out.notes.end());
    for (const auto& [statement, reply] : out.replies.first) {
      auto it = wire_expected.find(statement);
      if (it == wire_expected.end()) {
        auto result = inproc.Execute(statement);
        if (!result.ok()) {
          Die(StrCat("in-process ", statement), result.status());
        }
        expected.first.emplace(statement, result->ToString());
        it = wire_expected.emplace(statement, WireReply(*result)).first;
      }
      const std::uint64_t times = out.replies.occurrences.at(statement);
      expected.occurrences[statement] += times;
      if (reply != it->second) {
        wire_mismatched += times;
        NoteFailure(run.notes, StrCat("wire mismatch: ", statement));
      }
    }
    if (args.trace) {
      // Parents index within one client's tracer; shift them with it.
      const std::size_t offset = run.spans.size();
      for (Span span : out.tracer.spans()) {
        if (span.parent >= 0) span.parent += static_cast<int>(offset);
        run.spans.push_back(std::move(span));
      }
      run.production_read_ms.insert(run.production_read_ms.end(),
                                    out.production_read_ms.begin(),
                                    out.production_read_ms.end());
      run.production.Add(out.production);
      run.replay.facts_scanned += out.replay.facts_scanned;
      run.replay.rows += out.replay.rows;
    }
  }
  run.failed += wire_mismatched;
  run.notes.push_back(StrCat("check: ", wire_expected.size(),
                             " distinct statements' wire bytes compared with "
                             "the in-process rendering, ",
                             wire_mismatched, " mismatched executions"));
  RetailMo replica = GenerateRetail(args.seed);
  run.failed += CheckAgainstInterpreter(std::move(replica.mo), kRetailMo,
                                        expected, &run.notes);
}

// ---------------------------------------------------------------------
// clinical_ingest

void RunClinicalIngest(const Args& args, RunResult& run) {
  const ClinicalWorkloadParams params =
      ClinicalParams(args.seed, kIngestPatients);
  const std::size_t cycles = kIngestCycles;
  std::unique_ptr<Serving> serving;
  std::optional<serve::ServerSession> feed;
  std::optional<serve::ServerSession> dashboard;
  stress::WorkloadProfile profile;
  const std::vector<std::string> reads = IngestReads(kClinicalMo);
  for (std::size_t s = 0; s < kSetupRuns; ++s) {
    feed.reset();
    dashboard.reset();
    serving.reset();
    SetupTimes t;
    auto t0 = Clock::now();
    ClinicalMo clinical = GenerateClinical(params);
    profile = stress::WorkloadProfile::For(params, clinical, kClinicalMo);
    run.sizes = {{"patients", kIngestPatients},
                 {"facts", clinical.mo.facts().size()},
                 {"cycles", cycles},
                 {"batch", kIngestBatch}};
    auto t1 = Clock::now();
    serving = std::make_unique<Serving>();
    Check(serving->store->Publish(kClinicalMo, std::move(clinical.mo)),
          "publish");
    auto t2 = Clock::now();
    feed.emplace(serving->server->Connect());
    dashboard.emplace(serving->server->Connect());
    for (int round = 0; round < 2; ++round) {
      for (const std::string& statement : reads) {
        auto result = dashboard->Execute(statement);
        if (!result.ok()) Die(StrCat("warm-up ", statement), result.status());
        result->ToString();
      }
    }
    Check(dashboard->AdviseWarmAggregates(kClinicalMo, kWarmAggregates),
          "advise warm aggregates");
    auto t3 = Clock::now();
    t.generate_s = SecondsBetween(t0, t1);
    t.publish_s = SecondsBetween(t1, t2);
    t.warm_s = SecondsBetween(t2, t3);
    RecordSetup(run, t);
  }

  serve::MoStore* store = serving->store.get();
  const std::vector<IngestCycle> schedule =
      IngestSchedule(profile, args.seed, cycles, kIngestBatch);
  stress::StressReport records;
  const std::uint64_t base_epoch = store->epoch();
  Tracer tracer;
  ReadReplayer replayer(store);
  const ReadCounters before = ReadCounters::Of(dashboard->stats());
  serve::MoStore::Stats store_before = store->CollectStats();
  std::uint64_t request = 0;
  const PhaseStart phase;
  const auto start = Clock::now();
  for (const IngestCycle& cycle : schedule) {
    // The feed's bulk INSERT.
    stress::StatementRecord write;
    write.statement = cycle.insert;
    const auto a = Clock::now();
    if (args.trace) {
      tracer.SetRequest(++request);
      ExecStats append_stats;
      Result<std::string> ack = std::string();
      {
        Tracer::Scope root(&tracer, "write");
        ack = ReplayInsert(store, cycle.insert, &tracer, &append_stats,
                           &write.epoch);
      }
      if (ack.ok()) write.rendered = std::move(*ack);
      run.writes.writes += 1;
      run.writes.preagg_folds += static_cast<double>(append_stats.preagg_folds);
      run.writes.csr_tail_extends +=
          static_cast<double>(append_stats.csr_tail_extends);
      run.writes.rollup_patches +=
          static_cast<double>(append_stats.rollup_patches);
      const serve::MoStore::Stats now = store->CollectStats();
      run.writes.live_snapshots_max = std::max(
          run.writes.live_snapshots_max,
          static_cast<double>(now.live_snapshots));
      if (!ack.ok()) {
        ++run.failed;
        NoteFailure(run.notes, StrCat("write error: ", ack.status().message()));
      }
    } else {
      auto ack = feed->Execute(cycle.insert);
      if (ack.ok()) {
        write.rendered = ack->ToString();
        write.epoch = feed->pinned_epoch();
      } else {
        ++run.failed;
        NoteFailure(run.notes, StrCat("write error: ", ack.status().message()));
      }
    }
    const auto b = Clock::now();
    run.write_ms.push_back(MillisBetween(a, b));
    ++run.attempted;
    if (!write.rendered.empty()) records.write_records.push_back(write);

    // The dashboard's read.
    const double fused_before =
        static_cast<double>(dashboard->stats().exec.fused_pipelines);
    const auto c = Clock::now();
    auto result = dashboard->Execute(cycle.read);
    std::string rendered = result.ok() ? result->ToString() : "";
    const auto d = Clock::now();
    run.read_ms.push_back(MillisBetween(c, d));
    ++run.attempted;
    if (!result.ok()) {
      ++run.failed;
      NoteFailure(run.notes, StrCat("read error: ", result.status().message()));
      continue;
    }
    if (args.trace) {
      run.production_read_ms.push_back(MillisBetween(c, d));
      const bool fused =
          dashboard->stats().exec.fused_pipelines > fused_before;
      tracer.SetRequest(++request);
      Result<std::string> replayed = std::string();
      {
        Tracer::Scope root(&tracer, "read");
        replayed = replayer.Replay(cycle.read, fused, &tracer);
      }
      if (!replayed.ok() || *replayed != rendered) {
        ++run.replay_diverged;
        NoteFailure(run.notes, StrCat("replay diverged: ", cycle.read));
      }
    }
    stress::StatementRecord read;
    read.epoch = dashboard->pinned_epoch();
    read.statement = cycle.read;
    read.rendered = std::move(rendered);
    records.read_records.push_back(std::move(read));
  }
  run.phase_s = SecondsBetween(start, Clock::now());
  EndPhase(phase, run);
  run.production = ReadCounters::Of(dashboard->stats()).Minus(before);
  run.replay = replayer.counters();
  run.spans = tracer.spans();
  const serve::MoStore::Stats store_after = store->CollectStats();
  run.writes.fallbacks = static_cast<double>(store_after.append_fallbacks -
                                             store_before.append_fallbacks);
  run.writes.registry_flattens = static_cast<double>(
      store_after.registry_flattens - store_before.registry_flattens);

  // Check: replay every read and acknowledgment, in epoch order, on a
  // replica through the tree-walk interpreter (stress/oracle.h).
  const auto check_start = Clock::now();
  ClinicalMo replica = GenerateClinical(params);
  auto oracle = stress::VerifySequentialReplay(std::move(replica.mo),
                                               kClinicalMo, base_epoch,
                                               records);
  if (!oracle.ok()) Die("sequential replay", oracle.status());
  run.failed += oracle->mismatches;
  if (oracle->mismatches > 0) {
    run.notes.push_back(StrCat("first mismatch: ", oracle->first_mismatch));
  }
  run.notes.push_back(StrCat("check: stress::VerifySequentialReplay replayed ",
                             oracle->writes_replayed, " writes and ",
                             oracle->reads_checked, " reads, ",
                             oracle->mismatches, " mismatches in ",
                             Fmt(SecondsBetween(check_start, Clock::now())),
                             " s"));
}

// ---------------------------------------------------------------------
// Reporting

struct Metric {
  std::string name;
  double value = 0.0;
  std::string unit;
};

std::string CompilerName() {
#if defined(__clang__)
  return StrCat("clang ", __clang_version__);
#elif defined(__GNUC__)
  return StrCat("gcc ", __VERSION__);
#else
  return "unknown";
#endif
}

std::string StampJson(const Args& args, const RunResult& run) {
  std::string sizes;
  for (const auto& [name, value] : run.sizes) {
    if (!sizes.empty()) sizes += ", ";
    sizes += StrCat(JsonString(name), ": ", value);
  }
  const HostDrift& host = run.host;
  return StrCat("{\"stamp\": ", JsonString(args.stamp),
                ", \"build_type\": ", JsonString(PERFBENCH_BUILD_TYPE),
                ", \"ndebug\": true, \"compiler\": ",
                JsonString(CompilerName()),
                ", \"nproc\": ", std::thread::hardware_concurrency(),
                ", \"workload\": ", JsonString(args.workload),
                ", \"seed\": ", args.seed, ", \"seconds\": ", args.seconds,
                ", \"trace\": ", args.trace ? 1 : 0, ", \"data\": {", sizes,
                "}, \"host\": {\"probe_before_ms\": ",
                JsonNumber(host.probe_before_ms), ", \"probe_after_ms\": ",
                JsonNumber(host.probe_after_ms), ", \"steal_share\": ",
                JsonNumber(host.steal_share), ", \"disturbed\": ",
                host.disturbed() ? "true" : "false", "}}");
}

/// The end-to-end metrics. Writes and failures are reported in the
/// human-readable lines; the JSON carries the metrics every workload has.
std::vector<Metric> EndToEnd(const RunResult& run,
                             std::vector<std::string>* lines) {
  const Percentile p50 = NearestRank(run.read_ms, 50);
  const Percentile p95 = NearestRank(run.read_ms, 95);
  std::vector<Metric> metrics = {
      {"setup_s", Median(run.setup_s), "s"},
      {"read_qps", Ratio(static_cast<double>(run.read_ms.size()), run.phase_s),
       "1/s"},
      {"read_p50_ms", p50.value, "ms"},
      {"read_p95_ms", p95.value, "ms"},
      {"peak_rss_mb", run.peak_rss_mb, "MB"},
  };
  // A phase's percentiles are flagged together when its p95 has fewer
  // than kMinSamplesBeyond samples beyond it: fewer than 200 samples.
  auto count = [](const std::vector<double>& samples) {
    const Percentile p = NearestRank(samples, 95);
    return StrCat("n=", p.samples, ", ", p.beyond, " beyond p95",
                  p.flagged ? "; FLAGGED: fewer than 200 samples" : "");
  };
  std::string setups;
  for (double seconds : run.setup_s) {
    setups += StrCat(setups.empty() ? "" : " ", Fmt(seconds));
  }
  lines->push_back(StrCat("setup_s        ", Fmt(metrics[0].value),
                          " s (median of ", setups, "; generate ",
                          Fmt(Median(run.generate_s)), " s, publish ",
                          Fmt(Median(run.publish_s)), " s, warm ",
                          Fmt(Median(run.warm_s)), " s)"));
  lines->push_back(StrCat("read_qps       ", Fmt(metrics[1].value),
                          " 1/s (", run.read_ms.size(), " reads in ",
                          Fmt(run.phase_s), " s, ",
                          Fmt(run.phase_usage.cpu_s), " s of CPU, ",
                          Fmt(run.phase_usage.minor_faults),
                          " page faults)"));
  lines->push_back(StrCat("read_p50_ms    ", Fmt(p50.value), " ms (",
                          count(run.read_ms), ")"));
  lines->push_back(StrCat("read_p95_ms    ", Fmt(p95.value), " ms (",
                          count(run.read_ms), ")"));
  if (run.write_ms.empty()) {
    lines->push_back("write_p50_ms   n/a ms (read-only workload)");
    lines->push_back("write_p95_ms   n/a ms (read-only workload)");
  } else {
    lines->push_back(StrCat("write_p50_ms   ",
                            Fmt(NearestRank(run.write_ms, 50).value),
                            " ms (", count(run.write_ms), ")"));
    lines->push_back(StrCat("write_p95_ms   ",
                            Fmt(NearestRank(run.write_ms, 95).value),
                            " ms (", count(run.write_ms), ")"));
  }
  lines->push_back(StrCat("peak_rss_mb    ", Fmt(run.peak_rss_mb),
                          " MB"));
  lines->push_back(StrCat(
      "failed_frac    ",
      Fmt(Ratio(static_cast<double>(run.failed),
                       static_cast<double>(run.attempted))),
      " ratio (", run.failed, " of ", run.attempted, " statements)"));
  const HostDrift& host = run.host;
  lines->push_back(StrCat(
      "host           memory probe ", Fmt(host.probe_before_ms),
      " ms before the setups, ", Fmt(host.probe_after_ms),
      " ms after the timed phase (", Fmt(100.0 * host.probe_drift()),
      "%); CPU steal ", Fmt(100.0 * host.steal_share),
      "% of the timed phase",
      host.disturbed() ? "; FLAGGED: host disturbed, compare with care"
                       : ""));
  return metrics;
}

/// Per-layer self times, keyed by (request kind, span name).
struct LayerRow {
  std::vector<double> self_ms;
  std::vector<double> span_ms;
  double total_self_ms = 0.0;
};

std::vector<Metric> PerLayer(const RunResult& run,
                             std::vector<std::string>* lines,
                             std::string* table_json) {
  const std::vector<std::int64_t> self = SelfTimes(run.spans);
  // Root kind of every span (the request span's name).
  std::vector<std::string> kind(run.spans.size());
  std::map<std::pair<std::string, std::string>, LayerRow> rows;
  std::vector<double> traced_read_ms;
  double root_self_ms = 0.0, write_root_ms = 0.0;
  for (std::size_t i = 0; i < run.spans.size(); ++i) {
    const Span& span = run.spans[i];
    kind[i] = span.parent < 0 ? span.name
                              : kind[static_cast<std::size_t>(span.parent)];
    const double self_ms = static_cast<double>(self[i]) / 1e6;
    const double span_ms =
        static_cast<double>(span.end_ns - span.start_ns) / 1e6;
    if (span.parent < 0) {
      root_self_ms += self_ms;
      if (span.name == "read") traced_read_ms.push_back(span_ms);
      if (span.name == "write") write_root_ms += span_ms;
      continue;
    }
    LayerRow& row = rows[{kind[i], span.name}];
    row.self_ms.push_back(self_ms);
    row.span_ms.push_back(span_ms);
    row.total_self_ms += self_ms;
  }
  double production_ms = write_root_ms;
  for (double ms : run.production_read_ms) production_ms += ms;
  double covered_ms = 0.0;
  for (const auto& [key, row] : rows) covered_ms += row.total_self_ms;

  auto self_p50 = [&rows](const char* kind_name, const char* name) {
    auto it = rows.find({kind_name, name});
    return it == rows.end() ? 0.0 : Median(it->second.self_ms);
  };
  auto span_p50 = [&rows](const char* kind_name, const char* name) {
    auto it = rows.find({kind_name, name});
    return it == rows.end() ? 0.0 : Median(it->second.span_ms);
  };
  const ReadCounters& p = run.production;
  const WriteCounters& w = run.writes;
  const double untraced_p50 = Median(run.production_read_ms);
  const double traced_p50 = Median(traced_read_ms);
  std::vector<Metric> metrics = {
      {"mdql.parse_ms", self_p50("read", "mdql.parse"), "ms"},
      {"mdql.compile_ms", self_p50("read", "mdql.compile"), "ms"},
      {"mdql.bind_ms", self_p50("read", "mdql.bind"), "ms"},
      {"mdql.render_ms", self_p50("read", "mdql.render"), "ms"},
      {"mdql.plan_cache_hit_ratio", Ratio(p.plan_cache_hits, p.reads),
       "ratio"},
      {"mdql.fused_ratio", Ratio(p.fused, p.reads), "ratio"},
      {"mdql.apply_ms", self_p50("write", "mdql.apply"), "ms"},
      {"algebra.timeslice_ms", self_p50("read", "algebra.timeslice"), "ms"},
      {"algebra.where_ms", self_p50("read", "algebra.where"), "ms"},
      {"algebra.stream_ms", self_p50("read", "algebra.stream"), "ms"},
      {"algebra.facts_per_row",
       Ratio(static_cast<double>(run.replay.facts_scanned),
             static_cast<double>(run.replay.rows)),
       "facts/row"},
      {"engine.dense_ratio", Ratio(p.dense, p.dense + p.flat_hash), "ratio"},
      {"engine.index_hit_ratio",
       Ratio(p.index_hits, p.index_hits + p.index_fallbacks), "ratio"},
      {"engine.index_builds_per_read", Ratio(p.index_builds, p.reads),
       "count/read"},
      {"engine.arena_bytes_per_read", Ratio(p.arena_bytes, p.reads),
       "B/read"},
      {"serve.view_build_ms", self_p50("read", "serve.view_build"), "ms"},
      {"serve.view_rebuilds_per_read", Ratio(p.view_rebuilds, p.reads),
       "count/read"},
      {"serve.append_ms", span_p50("write", "serve.append"), "ms"},
      {"serve.seal_ms", self_p50("write", "serve.append"), "ms"},
      {"serve.append_fallback_ratio", Ratio(w.fallbacks, w.writes), "ratio"},
      {"serve.preagg_folds_per_write", Ratio(w.preagg_folds, w.writes),
       "count/write"},
      {"serve.csr_tail_extends_per_write", Ratio(w.csr_tail_extends, w.writes),
       "count/write"},
      {"serve.rollup_patches", w.rollup_patches, "count"},
      {"serve.registry_flattens_per_write",
       Ratio(w.registry_flattens, w.writes), "count/write"},
      {"serve.live_snapshots", w.live_snapshots_max, "count"},
      {"serve.wire_rtt_ms", self_p50("read", "serve.wire_rtt"), "ms"},
      {"serve.publish_s", Median(run.publish_s), "s"},
      {"serve.warm_s", Median(run.warm_s), "s"},
      {"workload.generate_s", Median(run.generate_s), "s"},
      {"trace.coverage", Ratio(covered_ms, production_ms), "share"},
      {"trace.overhead", untraced_p50 > 0 ? traced_p50 / untraced_p50 - 1.0
                                          : 0.0,
       "ratio"},
      {"trace.read_p50_ms", traced_p50, "ms"},
  };

  lines->push_back(
      "traced run: the replays share the timed phase, so the end-to-end "
      "lines above are not comparable with an untraced run's");
  lines->push_back(StrCat("traced: ", run.production_read_ms.size(),
                          " reads and ", Fmt(w.writes),
                          " writes replayed under ", run.spans.size(),
                          " spans"));
  lines->push_back(StrCat("coverage: spans account for ",
                          Fmt(100.0 * Ratio(covered_ms, production_ms)),
                          "% of production statement time (",
                          Fmt(production_ms), " ms)"));
  lines->push_back(StrCat("tracing overhead: traced read_p50 ",
                          Fmt(traced_p50), " ms vs untraced ",
                          Fmt(untraced_p50), " ms"));
  lines->push_back("layer table (kind/span: calls, p50 self ms, total self "
                   "ms, share of statement time):");
  std::string table;
  for (const auto& [key, row] : rows) {
    const double share = Ratio(row.total_self_ms, production_ms);
    char line[256];
    std::snprintf(line, sizeof(line), "  %-5s %-20s %7zu %10.4f %12.3f %7.2f%%",
                  key.first.c_str(), key.second.c_str(), row.self_ms.size(),
                  Median(row.self_ms), row.total_self_ms, 100.0 * share);
    lines->push_back(line);
    if (!table.empty()) table += ", ";
    table += StrCat("{\"kind\": ", JsonString(key.first),
                    ", \"span\": ", JsonString(key.second),
                    ", \"calls\": ", row.self_ms.size(),
                    ", \"p50_self_ms\": ", JsonNumber(Median(row.self_ms)),
                    ", \"total_self_ms\": ", JsonNumber(row.total_self_ms),
                    ", \"share\": ", JsonNumber(share), "}");
  }
  lines->push_back(StrCat("  (request bookkeeping outside any layer: ",
                          Fmt(root_self_ms), " ms)"));
  *table_json = StrCat("[", table, "]");
  return metrics;
}

void WriteTraceDump(const Args& args, const RunResult& run,
                    const std::vector<Metric>& metrics,
                    const std::string& table_json) {
  if (args.trace_out.empty()) return;
  std::ofstream out(args.trace_out);
  if (!out) {
    std::fprintf(stderr, "perfbench: cannot write %s\n",
                 args.trace_out.c_str());
    return;
  }
  const std::vector<std::int64_t> self = SelfTimes(run.spans);
  out << "{\"stamp\": " << StampJson(args, run) << ",\n \"metrics\": {";
  for (std::size_t i = 0; i < metrics.size(); ++i) {
    out << (i ? ", " : "") << JsonString(metrics[i].name) << ": "
        << JsonNumber(metrics[i].value);
  }
  out << "},\n \"layers\": " << table_json << ",\n \"spans\": [\n";
  for (std::size_t i = 0; i < run.spans.size(); ++i) {
    const Span& s = run.spans[i];
    out << (i ? ",\n" : "") << "  {\"name\": " << JsonString(s.name)
        << ", \"start_ns\": " << s.start_ns << ", \"end_ns\": " << s.end_ns
        << ", \"parent\": " << s.parent << ", \"request\": " << s.request
        << ", \"self_ns\": " << self[i] << "}";
  }
  out << "\n]}\n";
}

int Usage() {
  std::fprintf(stderr,
               "usage: perfbench --workload clinical_olap|retail_wire|"
               "clinical_ingest --seed N --seconds S --trace 0|1 "
               "[--stamp TEXT] [--trace-out FILE]\n");
  return 2;
}

int Main(int argc, char** argv) {
#ifndef NDEBUG
  std::fprintf(stderr,
               "perfbench: refusing to report numbers from a build without "
               "NDEBUG; configure with -DCMAKE_BUILD_TYPE=Release\n");
  return 2;
#endif
  // The allocator runs in one fixed configuration (README.md, "Guards
  // against noise"), because glibc's adaptive defaults made retail_wire's
  // two connection threads land in a different regime on every run.
  // - One malloc arena for every thread. With per-thread arenas, how
  //   often a connection's per-statement scratch came from freshly
  //   faulted pages depended on the arena its thread drew.
  // - A fixed mmap threshold at glibc's ceiling (32 MiB) and a 1 GiB trim
  //   threshold. Under the defaults the mmap threshold follows the sizes
  //   of the large buffers freed so far, and the two threads freed them
  //   in a different order each run: seed 1's 20-second timed phase took
  //   3.1 million page faults in one run and 4.3 million in another, and
  //   reads/s followed the page faults.
  // The in-process workloads allocate from one thread, and under the
  // defaults their timed phases already took almost no page faults.
  mallopt(M_ARENA_MAX, 1);
  mallopt(M_MMAP_THRESHOLD, 32 << 20);
  mallopt(M_TRIM_THRESHOLD, 1 << 30);
  Args args;
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string flag = argv[i];
    const std::string value = argv[i + 1];
    if (flag == "--workload") {
      args.workload = value;
    } else if (flag == "--seed") {
      args.seed = static_cast<std::uint32_t>(std::strtoul(value.c_str(),
                                                          nullptr, 10));
    } else if (flag == "--seconds") {
      args.seconds = std::atoi(value.c_str());
    } else if (flag == "--trace") {
      args.trace = value == "1";
    } else if (flag == "--stamp") {
      args.stamp = value;
    } else if (flag == "--trace-out") {
      args.trace_out = value;
    } else {
      return Usage();
    }
  }
  if (argc % 2 != 1 || args.seconds < 1 || args.seconds > 600) return Usage();

  RunResult run;
  run.host.probe_before_ms = MemoryProbeMs();
  if (args.workload == "clinical_olap") {
    RunClinicalOlap(args, run);
  } else if (args.workload == "retail_wire") {
    RunRetailWire(args, run);
  } else if (args.workload == "clinical_ingest") {
    RunClinicalIngest(args, run);
  } else {
    return Usage();
  }

  std::vector<std::string> lines;
  std::vector<Metric> reported = EndToEnd(run, &lines);
  if (args.trace && run.replay_diverged == 0) {
    std::string table_json;
    reported = PerLayer(run, &lines, &table_json);
    WriteTraceDump(args, run, reported, table_json);
  }
  const bool correct = run.failed == 0 && run.attempted > 0;

  std::printf("perfbench %s seed=%u seconds=%d trace=%d\n",
              args.workload.c_str(), args.seed, args.seconds,
              args.trace ? 1 : 0);
  for (const std::string& note : run.notes) std::printf("%s\n", note.c_str());
  for (const std::string& line : lines) std::printf("%s\n", line.c_str());
  if (args.trace && run.replay_diverged > 0) {
    // The replay copies the fused pipeline's assembly, so a divergence
    // says the copy no longer follows the program. The program's outputs
    // were checked above on their own; the layer times are not its own.
    std::fprintf(stderr,
                 "perfbench: trace invalid: %llu replayed reads rendered "
                 "other bytes than production; per-layer metrics withheld "
                 "(output checks: %s)\n",
                 static_cast<unsigned long long>(run.replay_diverged),
                 correct ? "passed" : "FAILED");
    std::fflush(stdout);
    return 3;
  }
  std::string metrics_json;
  for (const Metric& m : reported) {
    if (!metrics_json.empty()) metrics_json += ", ";
    metrics_json += StrCat(JsonString(m.name), ": {\"value\": ",
                           JsonNumber(m.value), ", \"unit\": ",
                           JsonString(m.unit), "}");
  }
  std::printf("result: {\"stamp\": %s, \"correct\": %s}\n",
              StampJson(args, run).c_str(), correct ? "true" : "false");
  std::printf(
      "{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, "
      "\"metrics\": {%s}}\n",
      correct ? "true" : "false",
      static_cast<unsigned long long>(run.attempted),
      static_cast<unsigned long long>(run.failed), metrics_json.c_str());
  std::fflush(stdout);
  return correct ? 0 : 1;
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) { return perfbench::Main(argc, argv); }
