// perfbench: the repo benchmark. One workload per invocation:
//
//   perfbench --workload <campaign_sweep|vuln_suite|service_mix>
//             --seed N --seconds S --trace 0|1 [--smoke] [--corrupt-reference]
//             [--kill-daemon] [--out-dir DIR] [--git-sha SHA]
//
// Inputs are generated from --seed. With --trace 0 the untraced measured run
// prints every end-to-end metric; with --trace 1 the separate traced legs
// print every per-layer metric. Output checks run outside the timed windows
// and fail jobs (never skip them). The last stdout line is one JSON object:
// {"correct", "attempted", "failed", "metrics"}. perfbench/README.md lists
// the workloads and metrics.

#include <signal.h>
#include <sys/resource.h>
#include <sys/utsname.h>
#include <unistd.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <functional>
#include <map>
#include <set>
#include <string>
#include <thread>
#include <vector>

#include "common/alloc_stats.h"
#include "corpus/datasets.h"
#include "daemon.h"
#include "engine/fuzz_service.h"
#include "evm/code_cache.h"
#include "fuzzer/campaign.h"
#include "lang/compiler.h"
#include "legs.h"
#include "trace.h"

namespace perfbench {
namespace {

using mufuzz::analysis::BugClass;
using mufuzz::corpus::CorpusEntry;
using mufuzz::fuzzer::CampaignResult;
using mufuzz::fuzzer::StrategyConfig;

constexpr int kWorkers = 2;  // service workers (daemon --workers 2)
constexpr int kSetupReps = 9;
constexpr double kHardLimitS = 170;  // the run must end within 180 s

// ------------------------------------------------------------------ Output --

struct Args {
  std::string workload;
  uint64_t seed = 1;
  double seconds = 20;
  int trace = 0;
  bool smoke = false;
  bool corrupt_reference = false;
  bool kill_daemon = false;
  std::string out_dir;
  std::string git_sha = "unknown";
};

struct Run {
  std::vector<std::pair<std::string, std::pair<double, std::string>>> metrics;
  uint64_t attempted = 0;
  uint64_t failed = 0;
  bool correct = true;
  std::vector<std::string> notes;  ///< human-readable, also in the record

  void Set(const std::string& name, double value, const std::string& unit) {
    metrics.push_back({name, {value, unit}});
  }
  void Fail(const std::string& why) {
    correct = false;
    notes.push_back("FAIL " + why);
    std::fprintf(stderr, "perfbench: FAIL %s\n", why.c_str());
  }
  void Note(const std::string& text) {
    notes.push_back(text);
    std::fprintf(stderr, "perfbench: %s\n", text.c_str());
  }
};

std::string JsonString(const std::string& s) {
  std::string out = "\"";
  for (char c : s) {
    if (c == '"' || c == '\\') {
      out += '\\';
      out += c;
    } else if (static_cast<unsigned char>(c) < 0x20) {
      out += ' ';
    } else {
      out += c;
    }
  }
  return out + "\"";
}

std::string JsonNumber(double v) {
  if (!std::isfinite(v)) return "0";
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.17g", v);
  return buf;
}

std::string MetricsJson(const Run& run) {
  std::string out = "{";
  for (size_t i = 0; i < run.metrics.size(); ++i) {
    const auto& [name, vu] = run.metrics[i];
    if (i > 0) out += ", ";
    out += JsonString(name) + ": {\"value\": " + JsonNumber(vu.first) +
           ", \"unit\": " + JsonString(vu.second) + "}";
  }
  return out + "}";
}

std::map<std::string, std::string> Fingerprint(const Args& args) {
  std::map<std::string, std::string> fp;
  fp["git_sha"] = args.git_sha;
  fp["nproc"] = std::to_string(sysconf(_SC_NPROCESSORS_ONLN));
  std::ifstream cpuinfo("/proc/cpuinfo");
  std::string line;
  fp["cpu_model"] = "unknown";
  while (std::getline(cpuinfo, line)) {
    if (line.rfind("model name", 0) == 0) {
      size_t colon = line.find(':');
      if (colon != std::string::npos) fp["cpu_model"] = line.substr(colon + 2);
      break;
    }
  }
  utsname u{};
  fp["kernel"] = uname(&u) == 0 ? std::string(u.sysname) + " " + u.release
                                : "unknown";
  fp["cmake_build_type"] = PERFBENCH_BUILD_TYPE;
  fp["mufuzz_alloc_stats"] =
      mufuzz::AllocStatsEnabled() ? "ON" : "OFF";
  return fp;
}

std::string FingerprintJson(const std::map<std::string, std::string>& fp) {
  std::string out = "{";
  bool first = true;
  for (const auto& [k, v] : fp) {
    if (!first) out += ", ";
    first = false;
    out += JsonString(k) + ": " + JsonString(v);
  }
  return out + "}";
}

void WriteRecord(const Args& args, const Run& run,
                 const std::map<std::string, std::string>& fp) {
  if (args.out_dir.empty()) return;
  std::string path = args.out_dir + "/" + args.workload + "-seed" +
                     std::to_string(args.seed) + "-trace" +
                     std::to_string(args.trace) + ".json";
  std::ofstream f(path);
  f << "{\"workload\": " << JsonString(args.workload)
    << ", \"seed\": " << args.seed << ", \"seconds\": " << args.seconds
    << ", \"trace\": " << args.trace
    << ", \"smoke\": " << (args.smoke ? "true" : "false")
    << ",\n \"fingerprint\": " << FingerprintJson(fp)
    << ",\n \"correct\": " << (run.correct ? "true" : "false")
    << ", \"attempted\": " << run.attempted << ", \"failed\": " << run.failed
    << ",\n \"metrics\": " << MetricsJson(run) << ",\n \"notes\": [";
  for (size_t i = 0; i < run.notes.size(); ++i) {
    f << (i ? ",\n   " : "") << JsonString(run.notes[i]);
  }
  f << "]}\n";
}

// ----------------------------------------------------------------- Helpers --

double SecondsSince(int64_t t0_ns) {
  return static_cast<double>(NowNs() - t0_ns) / 1e9;
}

double Median(std::vector<double> v) { return Percentile(std::move(v), 50); }

double PeakRssMbSelf() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;
}

/// A workload's inputs: the distinct sources and the jobs over them.
struct Inputs {
  std::vector<std::string> sources;
  std::vector<BenchJob> jobs;
  /// Ground truth per source (vuln_suite scoring); empty elsewhere.
  std::vector<CorpusEntry> entries;
  std::vector<bool> interactive;  ///< per job (service_mix latency class)
};

/// Re-points every job at `inputs.sources` (after the vector is final).
void BindSources(Inputs* inputs) {
  for (BenchJob& j : inputs->jobs) {
    j.source = &inputs->sources[static_cast<size_t>(j.source_id)];
  }
}

/// Sample indices 0, k, 2k, ... with about `n` entries.
std::vector<size_t> Sample(size_t total, size_t n) {
  std::vector<size_t> out;
  if (total == 0 || n == 0) return out;
  size_t step = std::max<size_t>(1, total / n);
  for (size_t i = 0; i < total && out.size() < n; i += step) out.push_back(i);
  return out;
}

/// The output check: each sampled job's result must equal a direct
/// single-threaded fuzzer::RunCampaign of the same config. Returns the
/// number of mismatched (failed) jobs.
uint64_t CheckAgainstReference(
    const Inputs& inputs, const std::vector<size_t>& sample,
    const std::function<const CampaignResult*(size_t)>& result_of,
    bool corrupt_reference, Run* run) {
  std::map<int, mufuzz::lang::ContractArtifact> compiled;
  uint64_t failed = 0;
  bool corrupted = false;
  for (size_t j : sample) {
    const BenchJob& job = inputs.jobs[j];
    const CampaignResult* got = result_of(j);
    if (got == nullptr) continue;  // already failed; counted by the caller
    auto it = compiled.find(job.source_id);
    if (it == compiled.end()) {
      auto c = mufuzz::lang::CompileContract(*job.source);
      if (!c.ok()) {
        run->Fail("reference compile failed for " + job.name);
        ++failed;
        continue;
      }
      it = compiled.emplace(job.source_id, std::move(c).value()).first;
    }
    CampaignResult want = mufuzz::fuzzer::RunCampaign(it->second, job.config);
    if (corrupt_reference && !corrupted) {
      want.executions += 1;  // the smoke tests' deliberately wrong reference
      corrupted = true;
    }
    if (!(want == *got)) {
      run->Fail("result of " + job.name + " differs from RunCampaign");
      ++failed;
    }
  }
  return failed;
}

double MeanCoveragePct(const std::vector<const CampaignResult*>& results) {
  double sum = 0;
  int n = 0;
  for (const CampaignResult* r : results) {
    if (r == nullptr || r->total_jumpis == 0) continue;
    sum += r->branch_coverage;
    ++n;
  }
  return n > 0 ? 100.0 * sum / n : 0;
}

struct BugScore {
  int tp = 0, fn = 0, fp = 0, annotations = 0;
};

/// TP/FN/FP of the reported bug classes against the ground-truth labels.
BugScore ScoreBugs(const Inputs& inputs,
                   const std::vector<const CampaignResult*>& results) {
  BugScore s;
  for (size_t j = 0; j < inputs.jobs.size(); ++j) {
    size_t e = static_cast<size_t>(inputs.jobs[j].source_id);
    if (e >= inputs.entries.size()) continue;
    const CorpusEntry& entry = inputs.entries[e];
    for (BugClass bug : mufuzz::analysis::AllBugClasses()) {
      bool truth = entry.HasBug(bug);
      bool found = results[j] != nullptr && results[j]->Found(bug);
      s.tp += truth && found;
      s.fn += truth && !found;
      s.fp += !truth && found;
    }
  }
  s.annotations = mufuzz::corpus::CountAnnotations(inputs.entries);
  return s;
}

// ----------------------------------------------------------- Batch inputs --

/// campaign_sweep: Fig. 6's grid (four strategies over D1-small at 400 and
/// D1-large at 500 executions per contract, seeds as in fig6) at a scale
/// where one closed batch takes over a second. Instance k draws its
/// datasets with seed `seed + k * 1000003`; instance 0 is fig6's.
Inputs SweepInputs(uint64_t workload_seed, uint64_t k, bool smoke) {
  const uint64_t seed = workload_seed + k * 1000003;
  int small_n = smoke ? 3 : 48;
  int large_n = smoke ? 2 : 24;
  Inputs in;
  auto small = mufuzz::corpus::BuildD1Small(small_n, seed);
  auto large = mufuzz::corpus::BuildD1Large(large_n, seed);
  const std::vector<StrategyConfig> tools = {
      StrategyConfig::MuFuzz(), StrategyConfig::IRFuzz(),
      StrategyConfig::ConFuzzius(), StrategyConfig::SFuzz()};
  auto add = [&](const std::vector<CorpusEntry>& set, int execs,
                 uint64_t base_seed) {
    int first = static_cast<int>(in.sources.size());
    for (const CorpusEntry& e : set) in.sources.push_back(e.source);
    for (const StrategyConfig& tool : tools) {
      for (size_t i = 0; i < set.size(); ++i) {
        BenchJob j;
        j.name = set[i].name + "/" + tool.name;
        j.tenant = "sweep";
        j.source_id = first + static_cast<int>(i);
        j.config.strategy = tool;
        j.config.seed = base_seed + i;
        j.config.max_executions = execs;
        in.jobs.push_back(std::move(j));
      }
    }
  };
  add(small, 400, seed);
  add(large, 500, seed + 777);
  in.interactive.assign(in.jobs.size(), false);
  BindSources(&in);
  return in;
}

/// vuln_suite: the 155 labelled D2 contracts under MuFuzz at Table III's
/// 400-execution budget, all campaigns of instance k seeded with
/// `seed + k` (instance 0 is table3's).
Inputs VulnInputs(uint64_t workload_seed, uint64_t k, bool smoke) {
  const uint64_t seed = workload_seed + k;
  static const std::vector<CorpusEntry> kSuite =
      mufuzz::corpus::BuildD2(155);
  Inputs in;
  in.entries.assign(kSuite.begin(), kSuite.begin() + (smoke ? 12 : 155));
  for (size_t i = 0; i < in.entries.size(); ++i) {
    in.sources.push_back(in.entries[i].source);
    BenchJob j;
    j.name = in.entries[i].name;
    j.tenant = "vuln";
    j.source_id = static_cast<int>(i);
    j.config.strategy = StrategyConfig::MuFuzz();
    j.config.seed = seed;
    j.config.max_executions = 400;
    in.jobs.push_back(std::move(j));
  }
  in.interactive.assign(in.jobs.size(), false);
  BindSources(&in);
  return in;
}

// ------------------------------------------------------------ Layer report --

/// Adds every per-layer metric from the traced legs. `inproc` is the
/// engine leg (in-process FuzzService, same jobs and schedule); `wire` the
/// traced wire leg and `wire_transport` its RPC timings.
void AddLayerMetrics(const Inputs& in, const DirectResult& direct,
                     const LegResult& inproc, const LegResult& wire,
                     const WireTransport& wire_transport,
                     double wire_overhead_ms, double repeat_source_frac,
                     double gen_lag_p99_ms, double trace_overhead_frac,
                     Run* run) {
  std::vector<const SpanLog*> logs;
  for (const auto& l : direct.logs) logs.push_back(l.get());
  auto totals = Summarize(logs);
  auto get = [&](const char* name) -> const SpanTotals& {
    static const SpanTotals kEmpty;
    auto it = totals.find(name);
    return it == totals.end() ? kEmpty : it->second;
  };
  auto per = [](double a, double b) { return b > 0 ? a / b : 0; };
  const SpanTotals& compile = get("lang.compile");
  const SpanTotals& construct = get("fuzzer.campaign.construct");
  const SpanTotals& seed_corpus = get("fuzzer.campaign.seed_corpus");
  const SpanTotals& step = get("fuzzer.campaign.step");
  const SpanTotals& finalize = get("fuzzer.campaign.finalize");
  const SpanTotals& deploy = get("evm.deploy");
  const SpanTotals& exec = get("evm.exec");
  const SpanTotals& select = get("fuzzer.select");
  const LayerCounters& c = direct.counters;
  double campaign_ms = construct.total_ms + seed_corpus.total_ms +
                       step.total_ms + finalize.total_ms;
  double fuzzer_self_ms = seed_corpus.self_ms + step.self_ms;
  uint64_t masks = 0, result_execs = 0;
  for (const auto& r : direct.results) {
    if (!r.has_value()) continue;
    masks += r->masks_computed;
    result_execs += r->executions;
  }

  // Latency legs: interactive jobs only (all jobs on batch workloads).
  auto latencies = [&](const LegResult& leg) {
    std::vector<double> v;
    for (size_t j = 0; j < leg.jobs.size(); ++j) {
      bool counted = in.interactive[j] ||
                     std::none_of(in.interactive.begin(),
                                  in.interactive.end(),
                                  [](bool b) { return b; });
      if (counted && leg.jobs[j].done) v.push_back(leg.jobs[j].latency_ms);
    }
    return v;
  };
  double inproc_p50 = Median(latencies(inproc));

  std::vector<double> active, parked, rounds;
  double active_sum = 0;
  for (const JobRecord& r : inproc.jobs) {
    if (!r.done) continue;
    active.push_back(r.active_ms);
    active_sum += r.active_ms;
    parked.push_back(
        std::max(0.0, static_cast<double>(r.done_ns - r.submit_ns) / 1e6 -
                          r.active_ms));
    rounds.push_back(r.rounds);
  }
  double live_sum = 0;
  for (const auto& s : inproc.stats) {
    live_sum += static_cast<double>(s.live_jobs);
  }
  double rejected_frac = 0;
  if (!inproc.stats.empty() && inproc.stats.back().submitted > 0) {
    const auto& s = inproc.stats.back();
    rejected_frac = static_cast<double>(s.rejected_global + s.rejected_tenant) /
                    static_cast<double>(s.submitted);
  }
  std::vector<double> outcome_bytes;
  for (const JobRecord& r : wire.jobs) {
    if (r.done) outcome_bytes.push_back(static_cast<double>(r.outcome_bytes));
  }
  double code_bytes = 0;
  for (size_t b : direct.code_bytes) code_bytes += static_cast<double>(b);

  double compile_p50 = Median(compile.durations_ms);
  run->Set("lang.compile_ms", compile_p50, "ms");
  run->Set("lang.compile_share", per(compile_p50, inproc_p50), "fraction");
  run->Set("lang.repeat_source_frac", repeat_source_frac, "fraction");
  run->Set("lang.code_bytes",
           per(code_bytes, static_cast<double>(direct.code_bytes.size())),
           "bytes");
  run->Set("analysis.setup_ms",
           per(construct.self_ms, static_cast<double>(construct.count)), "ms");
  run->Set("evm.deploy_ms",
           per(deploy.total_ms, static_cast<double>(deploy.count)), "ms");
  run->Set("evm.exec_share", per(exec.total_ms, campaign_ms), "fraction");
  run->Set("evm.us_per_exec",
           per(exec.total_ms * 1e3, static_cast<double>(exec.count)), "us");
  run->Set("evm.instr_per_exec",
           per(static_cast<double>(c.instructions),
               static_cast<double>(c.execs)),
           "count");
  run->Set("evm.txs_per_exec",
           per(static_cast<double>(c.txs), static_cast<double>(c.execs)),
           "count");
  run->Set("evm.minstr_per_s",
           per(static_cast<double>(c.instructions) / 1e6,
               exec.total_ms / 1e3),
           "Minstr/s");
  run->Set("evm.revert_tx_frac",
           per(static_cast<double>(c.reverted_txs),
               static_cast<double>(c.txs)),
           "fraction");
  run->Set("evm.prefix_reuse_tx_frac",
           per(static_cast<double>(c.prefix_reused_txs),
               static_cast<double>(c.txs)),
           "fraction");
  run->Set("evm.code_cache_hit_frac",
           per(static_cast<double>(c.cache_hits),
               static_cast<double>(c.cache_hits + c.cache_misses)),
           "fraction");
  run->Set("fuzzer.self_share", per(fuzzer_self_ms, campaign_ms), "fraction");
  run->Set("fuzzer.self_us_per_exec",
           per(fuzzer_self_ms * 1e3, static_cast<double>(c.execs)), "us");
  run->Set("fuzzer.select_us",
           per(select.total_ms * 1e3, static_cast<double>(select.count)),
           "us");
  run->Set("fuzzer.select_calls", static_cast<double>(c.select_calls),
           "count");
  run->Set("fuzzer.keep_frac",
           per(static_cast<double>(c.add_kept), static_cast<double>(c.execs)),
           "fraction");
  run->Set("fuzzer.masks_per_kexec",
           per(1000.0 * static_cast<double>(masks),
               static_cast<double>(result_execs)),
           "count");
  run->Set("fuzzer.seed_corpus_ms",
           per(seed_corpus.total_ms, static_cast<double>(seed_corpus.count)),
           "ms");
  run->Set("fuzzer.finalize_ms",
           per(finalize.total_ms, static_cast<double>(finalize.count)), "ms");
  std::vector<const CampaignResult*> results;
  for (const auto& r : direct.results) {
    results.push_back(r.has_value() ? &*r : nullptr);
  }
  BugScore bugs = ScoreBugs(in, results);
  run->Set("fuzzer.bug_recall",
           per(static_cast<double>(bugs.tp),
               static_cast<double>(bugs.annotations)),
           "fraction");
  run->Set("fuzzer.false_alarms", bugs.fp, "count");
  run->Set("engine.active_ms", Median(active), "ms");
  run->Set("engine.parked_ms", Median(parked), "ms");
  run->Set("engine.worker_busy_frac",
           per(active_sum, kWorkers * inproc.wall_ms), "fraction");
  double rounds_sum = 0;
  for (double r : rounds) rounds_sum += r;
  run->Set("engine.rounds_per_job",
           per(rounds_sum, static_cast<double>(rounds.size())), "count");
  run->Set("engine.live_jobs_mean",
           per(live_sum, static_cast<double>(inproc.stats.size())), "count");
  run->Set("engine.rejected_frac", rejected_frac, "fraction");
  run->Set("server.submit_rtt_us.p50",
           Percentile(wire_transport.submit_rtt_us, 50), "us");
  run->Set("server.submit_rtt_us.p99",
           Percentile(wire_transport.submit_rtt_us, 99), "us");
  run->Set("server.poll_rtt_us.p50",
           Percentile(wire_transport.poll_rtt_us, 50), "us");
  run->Set("server.poll_rtt_us.p99",
           Percentile(wire_transport.poll_rtt_us, 99), "us");
  run->Set("server.wait_fetch_ms", Percentile(wire_transport.wait_ms, 50),
           "ms");
  double bytes_sum = 0;
  for (double b : outcome_bytes) bytes_sum += b;
  run->Set("server.outcome_bytes",
           per(bytes_sum, static_cast<double>(outcome_bytes.size())),
           "bytes");
  run->Set("server.wire_overhead_ms", wire_overhead_ms, "ms");
  run->Set("bench.gen_lag_p99_ms", gen_lag_p99_ms, "ms");
  run->Set("bench.trace_overhead_frac", trace_overhead_frac, "fraction");
}

/// The engine leg's jobs as `engine.job` spans (Submit -> seen done).
void AddEngineSpans(const LegResult& leg, SpanLog* log) {
  for (size_t j = 0; j < leg.jobs.size(); ++j) {
    const JobRecord& r = leg.jobs[j];
    if (r.done) {
      log->AddComplete("engine.job", static_cast<int64_t>(j), r.submit_ns,
                       r.done_ns);
    }
  }
}

/// Fails every job of `leg` that did not finish with a result, and every
/// finished one whose result differs from `expect` (when given).
uint64_t CountLegFailures(
    const Inputs& in, const LegResult& leg, const char* what,
    const std::function<const CampaignResult*(size_t)>& expect, Run* run) {
  uint64_t failed = 0;
  for (size_t j = 0; j < leg.jobs.size(); ++j) {
    const JobRecord& r = leg.jobs[j];
    if (!r.done || !r.result.has_value()) {
      run->Fail(std::string(what) + ": job " + in.jobs[j].name +
                " failed: " + r.error);
      ++failed;
      continue;
    }
    const CampaignResult* want = expect ? expect(j) : nullptr;
    if (want != nullptr && !(*want == *r.result)) {
      run->Fail(std::string(what) + ": result of " + in.jobs[j].name +
                " differs");
      ++failed;
    }
  }
  return failed;
}

std::vector<BenchJob> AllDueAtZero(std::vector<BenchJob> jobs) {
  for (BenchJob& j : jobs) j.due_ms = 0;
  return jobs;
}

// --------------------------------------------------------- Batch workloads --

/// `make_inputs(k)` gives the inputs of instance k of the workload; the
/// traced legs and the output checks use instance 0.
void RunBatchWorkload(const Args& args,
                      const std::function<Inputs(uint64_t)>& make_inputs,
                      Run* run) {
  const bool sweep = args.workload == "campaign_sweep";
  const Inputs in = make_inputs(0);
  const size_t check_n = args.smoke ? 4 : 12;
  const size_t low_n = args.smoke ? 4 : 200;
  const size_t low_per_batch = args.smoke ? 2 : 10;
  // Closed-batch jobs take hundreds of ms: a 2 ms POLL period resolves
  // that and keeps the poller from competing with the service's workers.
  OpenLoopOptions loop;
  loop.deadline_s = 120;
  loop.poll_period_ms = 2;

  // Set-up: compile every source and construct the service, several times;
  // the last set is kept.
  std::vector<double> setup_s;
  std::vector<mufuzz::lang::ContractArtifact> artifacts;
  std::unique_ptr<mufuzz::engine::FuzzService> service;
  mufuzz::engine::ServiceOptions options;
  options.workers = kWorkers;
  for (int rep = 0; rep < kSetupReps; ++rep) {
    service.reset();
    artifacts.clear();
    int64_t t0 = NowNs();
    for (const std::string& src : in.sources) {
      auto c = mufuzz::lang::CompileContract(src);
      if (!c.ok()) {
        run->Fail("compile failed: " + c.status().ToString());
        return;
      }
      artifacts.push_back(std::move(c).value());
    }
    service = std::make_unique<mufuzz::engine::FuzzService>(options);
    setup_s.push_back(SecondsSince(t0));
  }
  std::vector<BenchJob> batch = AllDueAtZero(in.jobs);
  for (BenchJob& j : batch) {
    j.artifact = &artifacts[static_cast<size_t>(j.source_id)];
  }
  InProcessTransport transport(service.get());
  std::vector<size_t> check = Sample(in.jobs.size(), check_n);

  if (args.trace == 0) {
    // Timed window: closed batches until --seconds of batch time have
    // passed. Batch k runs the workload's inputs for instance k (batch 0 is
    // the one set up above), so a run averages over many generated inputs.
    // Each later batch is compiled and gets a fresh service untimed, and
    // only batch 0's results are kept.
    LegResult first;
    auto first_result = [&](size_t j) -> const CampaignResult* {
      return first.jobs[j].result.has_value() ? &*first.jobs[j].result
                                              : nullptr;
    };
    uint64_t execs = 0;
    size_t batches = 0;
    double peak_rss = 0;
    std::vector<double> high, low;
    double window_s = 0;
    do {
      Inputs in_k;
      std::vector<mufuzz::lang::ContractArtifact> artifacts_k;
      std::vector<BenchJob> batch_k;
      if (batches > 0) {
        in_k = make_inputs(batches);
        for (const std::string& src : in_k.sources) {
          auto c = mufuzz::lang::CompileContract(src);
          if (!c.ok()) {
            run->Fail("compile failed: " + c.status().ToString());
            return;
          }
          artifacts_k.push_back(std::move(c).value());
        }
        batch_k = AllDueAtZero(in_k.jobs);
        for (BenchJob& j : batch_k) {
          j.artifact = &artifacts_k[static_cast<size_t>(j.source_id)];
        }
        service.reset();
        service = std::make_unique<mufuzz::engine::FuzzService>(options);
        transport = InProcessTransport(service.get());
      }
      const Inputs& cur = batches == 0 ? in : in_k;
      int64_t t0 = NowNs();
      LegResult leg =
          RunOpenLoop(&transport, batches == 0 ? batch : batch_k, loop);
      window_s += SecondsSince(t0);
      run->attempted += leg.jobs.size();
      run->failed += CountLegFailures(cur, leg, "closed batch", nullptr, run);
      for (const JobRecord& r : leg.jobs) {
        if (!r.done) continue;
        high.push_back(r.latency_ms);
        if (r.result.has_value()) execs += r.result->executions;
      }
      // Low load: a few of this batch's jobs again, one at a time, on the
      // now idle service (untimed for execs_per_s), until low_n samples.
      // Each is timed Submit -> Wait: a POLL period would quantize these
      // few-ms latencies.
      const std::vector<BenchJob>& jobs_k = batches == 0 ? batch : batch_k;
      for (size_t i = 0; i < low_per_batch && low.size() < low_n; ++i) {
        size_t j = (batches * 37 + i * (jobs_k.size() / low_per_batch + 1)) %
                   jobs_k.size();
        JobRecord one = RunOne(&transport, jobs_k[j]);
        run->attempted++;
        if (!one.done || !one.result.has_value() ||
            !leg.jobs[j].result.has_value() ||
            !(*one.result == *leg.jobs[j].result)) {
          run->Fail("low-load run of " + cur.jobs[j].name + " failed/differs");
          run->failed++;
          continue;
        }
        low.push_back(one.latency_ms);
      }
      if (batches == 0) {
        // The program's peak for one instance of the experiment (later
        // batches only churn the allocator).
        peak_rss = PeakRssMbSelf();
        first = std::move(leg);
      } else {
        // Two sampled jobs of every later batch against RunCampaign.
        std::vector<size_t> two = {batches % cur.jobs.size(),
                                   (batches * 7 + 3) % cur.jobs.size()};
        run->failed += CheckAgainstReference(
            cur, two,
            [&](size_t j) -> const CampaignResult* {
              return leg.jobs[j].result.has_value() ? &*leg.jobs[j].result
                                                    : nullptr;
            },
            false, run);
      }
      ++batches;
    } while (window_s < args.seconds);

    // Output checks (outside the timed window).
    run->failed += CheckAgainstReference(in, check, first_result,
                                         args.corrupt_reference, run);

    std::vector<const CampaignResult*> results, mufuzz_results;
    for (size_t j = 0; j < in.jobs.size(); ++j) {
      results.push_back(first_result(j));
      if (in.jobs[j].config.strategy.name == StrategyConfig::MuFuzz().name) {
        mufuzz_results.push_back(first_result(j));
      }
    }
    if (!sweep) {
      BugScore s = ScoreBugs(in, results);
      if (s.tp + s.fn != s.annotations) {
        run->Fail("TP+FN does not match the D2 annotation count");
      }
      run->Note("Table III (MuFuzz): TP " + std::to_string(s.tp) + ", FN " +
                std::to_string(s.fn) + ", FP " + std::to_string(s.fp) +
                " of " + std::to_string(s.annotations) + " annotations");
    }
    run->Note("batches " + std::to_string(batches) + " x " +
              std::to_string(batch.size()) + " jobs in " +
              std::to_string(window_s) + " s; low-load samples " +
              std::to_string(low.size()) + "; high-load samples " +
              std::to_string(high.size()));

    run->Set("setup_s", Median(setup_s), "s");
    run->Set("execs_per_s", static_cast<double>(execs) / window_s, "1/s");
    run->Set("branch_coverage_pct", MeanCoveragePct(mufuzz_results), "%");
    // Unloaded latency is reported as a note, not a gated metric: these
    // few-ms single-job runs spread up to 0.22 between runs (host wake-up
    // noise), too close to the largest bound.
    run->Note("unloaded latency p50 " + std::to_string(Percentile(low, 50)) +
              " ms over " + std::to_string(low.size()) + " single-job runs");
    run->Set("p50_ms.high", Percentile(high, 50), "ms");
    run->Set("p90_ms.high", Percentile(high, 90), "ms");
    run->Set("max_rate_jobs_per_s",
             static_cast<double>(high.size()) / window_s, "1/s");
    run->Set("peak_rss_mb", peak_rss, "MB");
    return;
  }

  // Traced legs. The first pass in a process runs far slower than later
  // ones (page faults, allocator growth, code decoding), so a warm-up pass
  // of the batch comes first; it also gives the cold code-cache hit rate.
  // Then the traced direct leg, then the untraced engine leg it is
  // compared with.
  auto cache_before = mufuzz::evm::CodeCache::Global()->stats();
  LegResult warmup = RunOpenLoop(&transport, batch, loop);
  auto cache_after = mufuzz::evm::CodeCache::Global()->stats();
  service = std::make_unique<mufuzz::engine::FuzzService>(options);
  transport = InProcessTransport(service.get());
  DirectResult direct = RunDirect(batch, in.sources, kWorkers);
  direct.counters.cache_hits = cache_after.hits - cache_before.hits;
  direct.counters.cache_misses = cache_after.misses - cache_before.misses;
  loop.stats_period_ms = 50;
  LegResult engine_leg = RunOpenLoop(&transport, batch, loop);
  loop.stats_period_ms = 0;
  auto engine_result = [&](size_t j) -> const CampaignResult* {
    return engine_leg.jobs[j].result.has_value()
               ? &*engine_leg.jobs[j].result
               : nullptr;
  };
  run->attempted += 3 * batch.size();
  run->failed += CountLegFailures(in, engine_leg, "engine leg", nullptr, run);
  run->failed +=
      CountLegFailures(in, warmup, "warm-up leg", engine_result, run);
  for (size_t j = 0; j < batch.size(); ++j) {
    const CampaignResult* want = engine_result(j);
    if (!direct.results[j].has_value() ||
        (want != nullptr && !(*want == *direct.results[j]))) {
      run->Fail("traced result of " + in.jobs[j].name +
                " differs from the untraced one: " + direct.errors[j]);
      run->failed++;
    }
  }
  run->failed += CheckAgainstReference(in, check, engine_result,
                                       args.corrupt_reference, run);

  // Wire leg over the check sample (sources sent over the wire, compiled by
  // the daemon), against the same sample in process, also from source.
  std::vector<BenchJob> sample;
  for (size_t j : check) {
    sample.push_back(in.jobs[j]);
    sample.back().due_ms = 0;
  }
  Inputs sample_in = in;
  sample_in.jobs = sample;
  BindSources(&sample_in);
  sample_in.interactive.assign(sample.size(), false);
  LegResult inproc_src = RunOpenLoop(&transport, sample_in.jobs, loop);
  SpanLog rpc_log;
  WireTransport wire(&rpc_log);
  LegResult wire_leg;
  Daemon daemon;
  std::string error;
  if (!daemon.Start(PERFBENCH_MUFUZZD, {"--workers", std::to_string(kWorkers)},
                    30, &error) ||
      !wire.Connect(daemon.port(), &error)) {
    run->Fail("daemon: " + error);
    run->failed += sample.size();
  } else {
    wire_leg = RunOpenLoop(&wire, sample_in.jobs, loop);
    if (!daemon.Stop(30)) run->Fail("daemon did not exit cleanly");
  }
  run->attempted += 2 * sample.size();
  auto sample_expect = [&](size_t k) { return engine_result(check[k]); };
  run->failed +=
      CountLegFailures(sample_in, inproc_src, "in-process sample",
                       sample_expect, run);
  if (!wire_leg.jobs.empty()) {
    run->failed += CountLegFailures(sample_in, wire_leg, "wire sample",
                                    sample_expect, run);
  }
  std::vector<double> lag;
  for (const JobRecord& r : engine_leg.jobs) lag.push_back(r.gen_lag_ms);
  std::vector<double> w, i;
  for (const JobRecord& r : wire_leg.jobs) {
    if (r.done) w.push_back(r.latency_ms);
  }
  for (const JobRecord& r : inproc_src.jobs) {
    if (r.done) i.push_back(r.latency_ms);
  }
  // The direct leg has no engine: its overhead figure also carries the
  // difference between FuzzService's batch scheduling and plain threads.
  double overhead = direct.wall_ms / engine_leg.wall_ms - 1;
  run->Note("direct (traced) leg " + std::to_string(direct.wall_ms) +
            " ms, engine (untraced) leg " +
            std::to_string(engine_leg.wall_ms) + " ms");
  AddLayerMetrics(in, direct, engine_leg, wire_leg, wire,
                  Median(w) - Median(i), /*repeat_source_frac=*/0,
                  Percentile(lag, 99), overhead, run);

  SpanLog engine_log;
  AddEngineSpans(engine_leg, &engine_log);
  std::vector<std::pair<std::string, const SpanLog*>> dump;
  for (const auto& l : direct.logs) dump.push_back({"direct", l.get()});
  dump.push_back({"engine", &engine_log});
  dump.push_back({"wire", &rpc_log});
  if (!args.out_dir.empty()) {
    WriteSpans(args.out_dir + "/spans-" + args.workload + ".tsv", dump);
  }
}

// ------------------------------------------------------------- Service mix --

/// The open-loop traffic's fixed parameters. The rates and the latency
/// limit were fixed once, from measurements of the commit that introduced
/// this benchmark (perfbench/README.md), and are not re-tuned.
struct ServiceSpec {
  double low_rate = 30;       ///< jobs/s, well under capacity
  double high_rate = 100;     ///< jobs/s, near the knee
  double limit_ms = 100;      ///< interactive p90 latency limit
  double interactive_frac = 0.85;
  double repeat_frac = 0.10;  ///< the rest is `batch`
  int interactive_execs = 200;
  int batch_execs = 2000;
  int repeat_sources = 4;
};

/// One rate step's arrivals at `rate` jobs/s for `seconds`. Interactive
/// and repeat users are independent, so theirs is a Poisson process,
/// conditioned on its expected count (each arrival at a uniform time) so
/// that seeds do not differ in offered load; the batch tenant is a pipeline
/// that submits on a fixed period. Every interactive and batch job brings a
/// fresh generated contract, every repeat job one of the fixed repeat
/// sources.
void AddSchedule(const ServiceSpec& spec, double rate, double seconds,
                 mufuzz::Rng* rng, const std::string& step, Inputs* in) {
  const double total = rate * seconds;
  const size_t n_batch = static_cast<size_t>(std::llround(
      (1 - spec.interactive_frac - spec.repeat_frac) * total));
  const size_t n_users =
      static_cast<size_t>(std::llround(total)) - n_batch;
  const size_t n_repeat = static_cast<size_t>(
      std::llround(spec.repeat_frac * total));
  std::vector<std::pair<double, int>> arrivals;  // (due s, tenant)
  for (size_t i = 0; i < n_users; ++i) {
    arrivals.push_back({rng->NextDouble() * seconds, i < n_repeat ? 1 : 0});
  }
  double phase = rng->NextDouble();
  for (size_t i = 0; i < n_batch; ++i) {
    arrivals.push_back(
        {(static_cast<double>(i) + phase) * seconds /
             static_cast<double>(n_batch),
         2});
  }
  std::sort(arrivals.begin(), arrivals.end());
  for (const auto& [due, tenant] : arrivals) {
    BenchJob j;
    j.due_ms = due * 1e3;
    j.config.strategy = StrategyConfig::MuFuzz();
    j.config.seed = rng->NextU64() % 1000000 + 1;
    bool interactive = tenant == 0;
    if (interactive) {
      j.tenant = "interactive";
      j.config.max_executions = spec.interactive_execs;
      in->sources.push_back(
          mufuzz::corpus::GenerateContract(
              mufuzz::corpus::GeneratorParams::Small(), rng->NextU64())
              .source);
      j.source_id = static_cast<int>(in->sources.size() - 1);
    } else if (tenant == 1) {
      j.tenant = "repeat";
      j.config.max_executions = spec.interactive_execs;
      j.source_id = static_cast<int>(rng->NextBelow(
          static_cast<uint64_t>(spec.repeat_sources)));
    } else {
      j.tenant = "batch";
      j.config.max_executions = spec.batch_execs;
      in->sources.push_back(
          mufuzz::corpus::GenerateContract(
              mufuzz::corpus::GeneratorParams::Large(), rng->NextU64())
              .source);
      j.source_id = static_cast<int>(in->sources.size() - 1);
    }
    j.name = step + "/" + j.tenant + "/" + std::to_string(in->jobs.size());
    in->jobs.push_back(std::move(j));
    in->interactive.push_back(interactive);
  }
}

Inputs ServiceInputs(const ServiceSpec& spec, uint64_t seed,
                     const std::vector<std::pair<double, double>>& steps,
                     std::vector<size_t>* step_begin) {
  Inputs in;
  mufuzz::Rng rng(seed * 0x9e3779b97f4a7c15ULL + 1);
  for (int k = 0; k < spec.repeat_sources; ++k) {
    in.sources.push_back(
        mufuzz::corpus::GenerateContract(
            mufuzz::corpus::GeneratorParams::Small(), rng.NextU64())
            .source);
  }
  for (size_t s = 0; s < steps.size(); ++s) {
    step_begin->push_back(in.jobs.size());
    AddSchedule(spec, steps[s].first, steps[s].second, &rng,
                "step" + std::to_string(s), &in);
  }
  step_begin->push_back(in.jobs.size());
  BindSources(&in);
  return in;
}

Inputs Slice(const Inputs& in, size_t begin, size_t end) {
  Inputs out;
  out.sources = in.sources;
  out.jobs.assign(in.jobs.begin() + static_cast<ptrdiff_t>(begin),
                  in.jobs.begin() + static_cast<ptrdiff_t>(end));
  out.interactive.assign(in.interactive.begin() + static_cast<ptrdiff_t>(begin),
                         in.interactive.begin() + static_cast<ptrdiff_t>(end));
  BindSources(&out);
  return out;
}

double RepeatSourceFrac(const Inputs& in) {
  std::set<int> seen;
  size_t repeats = 0;
  for (const BenchJob& j : in.jobs) {
    if (!seen.insert(j.source_id).second) ++repeats;
  }
  return in.jobs.empty() ? 0
                         : static_cast<double>(repeats) /
                               static_cast<double>(in.jobs.size());
}

/// Per-step summary of one open-loop leg.
struct StepSummary {
  std::vector<double> latency;  ///< interactive jobs that finished
  uint64_t interactive = 0;
  uint64_t interactive_ok = 0;  ///< finished within the limit
  uint64_t finished = 0;
  uint64_t failed = 0;
  uint64_t execs = 0;
  bool backlog_growing = false;
  /// Step start -> last completion.
  double busy_s = 0;
  /// Jobs finished / busy_s.
  double completion_rate = 0;
};

StepSummary SummarizeStep(const Inputs& in, const LegResult& leg,
                          double step_seconds, double limit_ms) {
  StepSummary s;
  auto outstanding_at = [&](double t_ms) {
    size_t n = 0;
    for (size_t j = 0; j < leg.jobs.size(); ++j) {
      if (in.jobs[j].due_ms > t_ms) continue;
      const JobRecord& r = leg.jobs[j];
      if (!r.done || in.jobs[j].due_ms + r.latency_ms > t_ms) ++n;
    }
    return n;
  };
  size_t mid = outstanding_at(step_seconds * 500);
  size_t end = outstanding_at(step_seconds * 1000);
  s.backlog_growing =
      end > mid + std::max<size_t>(4, leg.jobs.size() / 50);
  double last_done_ms = 0;
  for (size_t j = 0; j < leg.jobs.size(); ++j) {
    const JobRecord& r = leg.jobs[j];
    bool ok = r.done && r.result.has_value();
    if (r.done) {
      last_done_ms = std::max(last_done_ms, in.jobs[j].due_ms + r.latency_ms);
    }
    if (!ok) s.failed++;
    if (ok) {
      s.finished++;
      s.execs += r.result->executions;
    }
    if (!in.interactive[j]) continue;
    s.interactive++;
    if (ok) {
      s.latency.push_back(r.latency_ms);
      if (r.latency_ms <= limit_ms) s.interactive_ok++;
    }
  }
  if (last_done_ms > 0) {
    s.busy_s = last_done_ms / 1e3;
    s.completion_rate = static_cast<double>(s.finished) / s.busy_s;
  }
  return s;
}

/// Spawns the daemon, with every failure recorded on `run`.
bool StartDaemon(Daemon* daemon, WireTransport* wire, Run* run) {
  std::string error;
  if (!daemon->Start(PERFBENCH_MUFUZZD,
                     {"--workers", std::to_string(kWorkers)}, 30, &error)) {
    run->Fail("daemon start: " + error);
    return false;
  }
  if (wire != nullptr && !wire->Connect(daemon->port(), &error)) {
    run->Fail("daemon connect: " + error);
    return false;
  }
  return true;
}

void RunServiceWorkload(const Args& args, Run* run) {
  ServiceSpec spec;
  if (args.smoke) {
    spec.low_rate = 20;
    spec.interactive_execs = 100;
    spec.batch_execs = 400;
  }
  OpenLoopOptions loop;
  loop.deadline_s = 60;
  const size_t check_n = args.smoke ? 4 : 12;

  if (args.trace == 0) {
    // Ladder: `low` then `high`, each for a share of --seconds; `high` gets
    // the larger share, as its queueing latencies need the longer sample to
    // be steady. The smoke size runs one short `low` step.
    std::vector<std::pair<double, double>> steps = {
        {spec.low_rate, args.seconds * 0.3},
        {spec.high_rate, args.seconds * 0.6}};
    if (args.smoke) steps = {{spec.low_rate, args.seconds * 0.5}};
    std::vector<size_t> begin;
    Inputs in = ServiceInputs(spec, args.seed, steps, &begin);

    // Set-up: daemon spawn until its readiness line, several times; the
    // last daemon is kept.
    // mufuzzd prints its readiness line before it installs its SIGTERM
    // handler, so a SIGTERM sent right after readiness can kill it before
    // the handler exists. The set-up daemons therefore stay up (idle) until
    // the end of the run, and all of them are stopped then.
    std::vector<double> setup_s;
    std::vector<std::unique_ptr<Daemon>> daemons;
    for (int rep = 0; rep < kSetupReps; ++rep) {
      daemons.push_back(std::make_unique<Daemon>());
      int64_t t0 = NowNs();
      if (!StartDaemon(daemons.back().get(), nullptr, run)) return;
      setup_s.push_back(SecondsSince(t0));
    }
    Daemon& daemon = *daemons.back();
    WireTransport wire(nullptr);
    std::string error;
    if (!wire.Connect(daemon.port(), &error)) {
      run->Fail("daemon connect: " + error);
      return;
    }
    std::vector<StepSummary> summaries;
    std::vector<LegResult> legs;
    // --kill-daemon (the smoke tests' daemon-death path): SIGKILL the
    // daemon halfway through the first step.
    std::thread killer;
    if (args.kill_daemon) {
      killer = std::thread([&daemon, delay = steps[0].second / 2] {
        std::this_thread::sleep_for(std::chrono::duration<double>(delay));
        kill(daemon.pid(), SIGKILL);
      });
    }
    for (size_t s = 0; s < steps.size(); ++s) {
      Inputs step = Slice(in, begin[s], begin[s + 1]);
      legs.push_back(RunOpenLoop(&wire, step.jobs, loop));
      summaries.push_back(
          SummarizeStep(step, legs.back(), steps[s].second, spec.limit_ms));
      run->attempted += step.jobs.size();
      run->failed += summaries.back().failed;
      if (legs.back().transport_lost) run->Fail("daemon lost mid-run");
    }
    if (killer.joinable()) killer.join();
    double peak_rss = daemon.PeakRssMb();
    for (auto& d : daemons) {
      if (!d->Stop(30)) run->Fail("daemon did not exit cleanly");
    }

    // Output check: sampled wire results against direct RunCampaign.
    std::vector<const CampaignResult*> by_job(in.jobs.size(), nullptr);
    for (size_t s = 0; s < steps.size(); ++s) {
      for (size_t k = 0; k < legs[s].jobs.size(); ++k) {
        const JobRecord& r = legs[s].jobs[k];
        if (r.done && r.result.has_value()) by_job[begin[s] + k] = &*r.result;
      }
    }
    run->failed += CheckAgainstReference(
        in, Sample(in.jobs.size(), check_n),
        [&](size_t j) { return by_job[j]; }, args.corrupt_reference, run);

    // Highest ladder step that met the limit without a growing backlog:
    // its completion rate.
    double max_rate = 0;
    uint64_t execs = 0;
    double step_time = 0;
    for (size_t s = 0; s < steps.size(); ++s) {
      const StepSummary& sum = summaries[s];
      double p90 = Percentile(sum.latency, 90);
      double p99 = Percentile(sum.latency, 99);
      bool met = sum.failed == 0 && !sum.backlog_growing &&
                 !sum.latency.empty() && p90 <= spec.limit_ms;
      if (met) max_rate = sum.completion_rate;
      execs += sum.execs;
      step_time += sum.busy_s;
      std::vector<double> lag;
      for (const JobRecord& r : legs[s].jobs) lag.push_back(r.gen_lag_ms);
      char buf[512];
      std::snprintf(
          buf, sizeof(buf),
          "step %zu: rate %.1f/s, %zu jobs (%llu interactive), p50 %.2f ms, "
          "p90 %.2f ms, p99 %.2f ms, slo_met_frac %.4f, backlog %s, "
          "poll interval %.3f ms, gen lag p99 %.3f ms, %s",
          s, steps[s].first, legs[s].jobs.size(),
          static_cast<unsigned long long>(sum.interactive),
          Percentile(sum.latency, 50), p90, p99,
          sum.interactive > 0 ? static_cast<double>(sum.interactive_ok) /
                                    static_cast<double>(sum.interactive)
                              : 0,
          sum.backlog_growing ? "growing" : "steady", legs[s].poll_interval_ms,
          Percentile(lag, 99), met ? "meets the limit" : "misses the limit");
      run->Note(buf);
    }
    std::vector<const CampaignResult*> interactive_results;
    for (size_t j = 0; j < in.jobs.size(); ++j) {
      if (in.interactive[j]) interactive_results.push_back(by_job[j]);
    }
    const StepSummary& high = summaries.back();
    run->Set("setup_s", Median(setup_s), "s");
    run->Set("execs_per_s", static_cast<double>(execs) / step_time, "1/s");
    run->Set("branch_coverage_pct", MeanCoveragePct(interactive_results),
             "%");
    run->Set("p50_ms.high", Percentile(high.latency, 50), "ms");
    run->Set("p90_ms.high", Percentile(high.latency, 90), "ms");
    run->Set("max_rate_jobs_per_s", max_rate, "1/s");
    run->Set("peak_rss_mb", peak_rss, "MB");
    return;
  }

  // Traced legs, all on one `high` schedule: direct (layer spans), an
  // untraced and a traced wire leg (client spans, STATS sampling), and an
  // in-process leg (engine numbers, and the wire-overhead baseline).
  double step_s = args.smoke ? args.seconds * 0.25 : args.seconds * 0.2;
  std::vector<size_t> begin;
  Inputs in = ServiceInputs(spec, args.seed,
                            {{args.smoke ? spec.low_rate : spec.high_rate,
                              step_s}},
                            &begin);
  DirectResult direct = RunDirect(in.jobs, in.sources, kWorkers);
  run->attempted += in.jobs.size();

  LegResult untraced, traced;
  SpanLog rpc_log;
  WireTransport traced_wire(&rpc_log);
  {
    Daemon daemon;
    WireTransport wire(nullptr);
    if (StartDaemon(&daemon, &wire, run)) {
      untraced = RunOpenLoop(&wire, in.jobs, loop);
      if (!daemon.Stop(30)) run->Fail("daemon did not exit cleanly");
    }
  }
  {
    Daemon daemon;
    if (StartDaemon(&daemon, &traced_wire, run)) {
      loop.stats_period_ms = 100;
      traced = RunOpenLoop(&traced_wire, in.jobs, loop);
      if (!daemon.Stop(30)) run->Fail("daemon did not exit cleanly");
    }
  }
  mufuzz::engine::ServiceOptions options;
  options.workers = kWorkers;
  mufuzz::engine::FuzzService service(options);
  InProcessTransport inproc_transport(&service);
  loop.stats_period_ms = 50;
  LegResult inproc = RunOpenLoop(&inproc_transport, in.jobs, loop);

  auto direct_result = [&](size_t j) -> const CampaignResult* {
    return direct.results[j].has_value() ? &*direct.results[j] : nullptr;
  };
  for (size_t j = 0; j < in.jobs.size(); ++j) {
    if (!direct.results[j].has_value()) {
      run->Fail("direct leg: " + in.jobs[j].name + ": " + direct.errors[j]);
      run->failed++;
    }
  }
  for (LegResult* leg : {&untraced, &traced, &inproc}) {
    run->attempted += in.jobs.size();
    if (leg->jobs.empty()) {
      run->failed += in.jobs.size();
      continue;
    }
    run->failed += CountLegFailures(in, *leg, "service leg", direct_result,
                                    run);
  }
  if (!untraced.jobs.empty()) {
    std::vector<const CampaignResult*> wire_results;
    for (const JobRecord& r : untraced.jobs) {
      wire_results.push_back(r.result.has_value() ? &*r.result : nullptr);
    }
    run->failed += CheckAgainstReference(
        in, Sample(in.jobs.size(), check_n),
        [&](size_t j) { return wire_results[j]; }, args.corrupt_reference,
        run);
  }

  auto p50 = [&](const LegResult& leg) {
    return Median(SummarizeStep(in, leg, step_s, spec.limit_ms).latency);
  };
  std::vector<double> lag;
  for (const JobRecord& r : untraced.jobs) lag.push_back(r.gen_lag_ms);
  double untraced_p50 = p50(untraced);
  double overhead =
      untraced_p50 > 0 ? (p50(traced) - untraced_p50) / untraced_p50 : 0;
  AddLayerMetrics(in, direct, inproc, traced, traced_wire,
                  untraced_p50 - p50(inproc), RepeatSourceFrac(in),
                  Percentile(lag, 99), overhead, run);

  SpanLog engine_log;
  AddEngineSpans(inproc, &engine_log);
  std::vector<std::pair<std::string, const SpanLog*>> dump;
  for (const auto& l : direct.logs) dump.push_back({"direct", l.get()});
  dump.push_back({"engine", &engine_log});
  dump.push_back({"wire", &rpc_log});
  if (!args.out_dir.empty()) {
    WriteSpans(args.out_dir + "/spans-" + args.workload + ".tsv", dump);
  }
}

bool ParseArgs(int argc, char** argv, Args* args) {
  for (int i = 1; i < argc; ++i) {
    std::string flag = argv[i];
    if (flag == "--smoke") {
      args->smoke = true;
      continue;
    }
    if (flag == "--corrupt-reference") {
      args->corrupt_reference = true;
      continue;
    }
    if (flag == "--kill-daemon") {
      args->kill_daemon = true;
      continue;
    }
    if (i + 1 >= argc) return false;
    std::string value = argv[++i];
    char* end = nullptr;
    if (flag == "--workload") {
      args->workload = value;
    } else if (flag == "--seed") {
      args->seed = std::strtoull(value.c_str(), &end, 10);
      if (*end != '\0') return false;
    } else if (flag == "--seconds") {
      args->seconds = std::strtod(value.c_str(), &end);
      if (*end != '\0' || !(args->seconds > 0) || args->seconds > 120) {
        return false;
      }
    } else if (flag == "--trace") {
      if (value != "0" && value != "1") return false;
      args->trace = value == "1";
    } else if (flag == "--out-dir") {
      args->out_dir = value;
    } else if (flag == "--git-sha") {
      args->git_sha = value;
    } else {
      return false;
    }
  }
  return args->workload == "campaign_sweep" ||
         args->workload == "vuln_suite" || args->workload == "service_mix";
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) {
  using namespace perfbench;
  Args args;
  if (!ParseArgs(argc, argv, &args)) {
    std::fprintf(stderr,
                 "usage: perfbench --workload campaign_sweep|vuln_suite|"
                 "service_mix --seed N --seconds S --trace 0|1 [--smoke] "
                 "[--corrupt-reference] [--kill-daemon] [--out-dir DIR] "
                 "[--git-sha SHA]\n");
    return 2;
  }
  if (std::string(PERFBENCH_BUILD_TYPE) != "Release") {
    std::fprintf(stderr,
                 "perfbench: refusing to record numbers from a %s build; "
                 "configure with -DCMAKE_BUILD_TYPE=Release\n",
                 PERFBENCH_BUILD_TYPE);
    return 3;
  }
  // A run must end: past the hard limit the watchdog kills every daemon
  // this process started and exits without a result.
  std::thread([] {
    std::this_thread::sleep_for(std::chrono::duration<double>(kHardLimitS));
    std::fprintf(stderr, "perfbench: hard time limit reached\n");
    KillAllDaemons();
    std::_Exit(4);
  }).detach();

  auto fp = Fingerprint(args);
  std::printf("fingerprint %s\n", FingerprintJson(fp).c_str());
  Run run;
  if (args.workload == "campaign_sweep") {
    RunBatchWorkload(
        args, [&](uint64_t k) { return SweepInputs(args.seed, k, args.smoke); },
        &run);
  } else if (args.workload == "vuln_suite") {
    RunBatchWorkload(
        args, [&](uint64_t k) { return VulnInputs(args.seed, k, args.smoke); },
        &run);
  } else {
    RunServiceWorkload(args, &run);
  }
  if (run.attempted == 0) run.Fail("no job was attempted");
  if (run.failed > 0) run.correct = false;
  double ok_frac = run.attempted > 0
                       ? 1.0 - static_cast<double>(run.failed) /
                                   static_cast<double>(run.attempted)
                       : 0;
  if (args.trace == 0) run.Set("ok_frac", ok_frac, "fraction");
  for (const std::string& note : run.notes) {
    std::printf("note %s\n", note.c_str());
  }
  WriteRecord(args, run, fp);
  std::printf("{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, "
              "\"metrics\": %s}\n",
              run.correct ? "true" : "false",
              static_cast<unsigned long long>(std::max<uint64_t>(
                  run.attempted, 1)),
              static_cast<unsigned long long>(run.failed),
              MetricsJson(run).c_str());
  std::fflush(stdout);
  return 0;
}
