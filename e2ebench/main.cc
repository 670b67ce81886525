// End-to-end TopoDB benchmark.
//
//   topodb_e2ebench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//                   [--workdir <dir>] [--trace-out <file>] [--corrupt-expected]
//
// A closed loop: each client connection sends its next request only after
// the previous reply, as TopoDB's callers (GIS front ends, the router's
// backend pools) do. The system runs in this process on loopback: one
// TopoDbServer, or a TopoDbRouter in front of catalog-backed shards.
//
// --trace 0 measures the end-to-end metrics with no tracing: set-up time
// (median of several complete set-ups), throughput, latency and memory.
// --trace 1 is the separate traced run: alternating untraced and traced
// slices give the tracing overhead; the processes' metric series are read
// as deltas over the window; a sample of the traced requests is then
// replayed through each layer's public functions with one span per call.
//
// Every answer, warm-up included, is compared with the library's answer
// computed after the timed windows. A wrong answer prints the result with
// "correct": false and exits 1. The last stdout line is the result JSON.

#include <algorithm>
#include <array>
#include <atomic>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <initializer_list>
#include <map>
#include <string>
#include <thread>
#include <unordered_map>
#include <vector>

#include <malloc.h>
#include <sched.h>
#include <unistd.h>

#include "e2ebench/report.h"
#include "e2ebench/trace.h"
#include "e2ebench/workloads.h"

namespace topodb::e2e {
namespace {

using Clock = std::chrono::steady_clock;

constexpr int kSetups = 5;
constexpr int kMaxWarmupRounds = 40;
constexpr double kWarmupLevel = 0.01;
constexpr size_t kReplayRequests = 240;
constexpr int kTraceSlices = 4;

struct Options {
  std::string workload;
  uint64_t seed = 0;
  double seconds = 0;
  int trace = -1;
  std::string workdir = ".bench_build/run";
  std::string trace_out;
  bool corrupt_expected = false;
};

[[noreturn]] void Usage(const char* why) {
  std::fprintf(stderr,
               "e2ebench: %s\nusage: topodb_e2ebench --workload <name> "
               "--seed <n> --seconds <s> --trace <0|1> [--workdir <dir>] "
               "[--trace-out <file>] [--corrupt-expected]\n",
               why);
  std::exit(2);
}

Options ParseArgs(int argc, char** argv) {
  Options o;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    auto value = [&]() -> std::string {
      if (i + 1 >= argc) Usage(("missing value for " + arg).c_str());
      return argv[++i];
    };
    if (arg == "--workload") {
      o.workload = value();
    } else if (arg == "--seed") {
      o.seed = std::strtoull(value().c_str(), nullptr, 10);
    } else if (arg == "--seconds") {
      o.seconds = std::atof(value().c_str());
    } else if (arg == "--trace") {
      o.trace = std::atoi(value().c_str());
    } else if (arg == "--workdir") {
      o.workdir = value();
    } else if (arg == "--trace-out") {
      o.trace_out = value();
    } else if (arg == "--corrupt-expected") {
      o.corrupt_expected = true;
    } else {
      Usage(("unknown argument " + arg).c_str());
    }
  }
  if (o.workload.empty()) Usage("--workload is required");
  if (o.seconds <= 0) Usage("--seconds must be positive");
  if (o.trace != 0 && o.trace != 1) Usage("--trace must be 0 or 1");
  return o;
}

double Seconds(Clock::time_point t0, Clock::time_point t1) {
  return std::chrono::duration<double>(t1 - t0).count();
}

// What one closed-loop run measured, in memory that does not grow with
// the number of requests (except `kept`, filled only in traced runs).
struct LoopStats {
  void Merge(const LoopStats& other) {
    seconds += other.seconds;
    attempted += other.attempted;
    failed += other.failed;
    ok_requests += other.ok_requests;
    ok_items += other.ok_items;
    latency_sum_us += other.latency_sum_us;
    all.Merge(other.all);
    for (size_t op = 0; op < by_op.size(); ++op) by_op[op].Merge(other.by_op[op]);
    kept.insert(kept.end(), other.kept.begin(), other.kept.end());
  }

  double seconds = 0;  // Start to last reply, summed over merged runs.
  uint64_t attempted = 0;
  uint64_t failed = 0;
  uint64_t ok_requests = 0;
  uint64_t ok_items = 0;
  double latency_sum_us = 0;  // Over successful requests.
  LatencyHistogram all;
  std::array<LatencyHistogram, 3> by_op;  // Indexed by OpClass.
  std::vector<Sample> kept;
};

// Every answer of a run, stored once per key: a later answer for the same
// key is compared with the first on arrival and kept only if it differs,
// so checking every answer costs memory per distinct key, not per reply.
class AnswerLog {
 public:
  void Add(const Answer& answer) {
    ++total_;
    auto [it, inserted] = first_.try_emplace(answer.key, answer);
    if (!inserted && !it->second.SameAs(answer)) differing_.push_back(answer);
  }

  void Merge(const AnswerLog& other) {
    for (const auto& [key, answer] : other.first_) {
      auto [it, inserted] = first_.try_emplace(key, answer);
      if (!inserted && !it->second.SameAs(answer)) differing_.push_back(answer);
    }
    differing_.insert(differing_.end(), other.differing_.begin(),
                      other.differing_.end());
    total_ += other.total_;
  }

  uint64_t total() const { return total_; }

  // The distinct answers to check: the first per key, then every one
  // that disagreed with it.
  std::vector<Answer> Distinct() const {
    std::vector<Answer> out;
    out.reserve(first_.size() + differing_.size());
    for (const auto& [key, answer] : first_) out.push_back(answer);
    out.insert(out.end(), differing_.begin(), differing_.end());
    return out;
  }

 private:
  std::unordered_map<uint64_t, Answer> first_;
  std::vector<Answer> differing_;
  uint64_t total_ = 0;
};

std::string Fmt(const char* format, double a, double b = 0) {
  char buf[160];
  std::snprintf(buf, sizeof(buf), format, a, b);
  return buf;
}

class Runner {
 public:
  Runner(Workload& workload, const Options& options)
      : w_(workload), o_(options) {}

  // A complete set-up: deploy, connect every client, warm up until the
  // hit ratio of the workload's cache levels off over successive rounds.
  std::unique_ptr<Deployment> SetUp(std::vector<TopoDbClient>* clients,
                                    double* seconds) {
    const Clock::time_point t0 = Clock::now();
    const std::string dir = o_.workdir + "/" + w_.shape().name + "-" +
                            std::to_string(getpid()) + "-" +
                            std::to_string(deployments_++);
    Result<std::unique_ptr<Deployment>> d = w_.Deploy(dir);
    if (!d.ok()) Fatal("deploy", d.status());
    for (int c = 0; c < w_.shape().clients; ++c) {
      Result<TopoDbClient> client = TopoDbClient::Connect((*d)->port());
      if (!client.ok()) Fatal("connect", client.status());
      clients->push_back(std::move(client).value());
    }
    const std::string cache = w_.shape().warm_cache;
    std::vector<double> ratios;
    for (int round = 0; round < kMaxWarmupRounds; ++round) {
      const SeriesSnapshot before = SeriesSnapshot::Read((*d)->server_metrics);
      Loop(**d, *clients, 0, w_.shape().warmup_round, nullptr);
      const SeriesWindow window{before,
                                SeriesSnapshot::Read((*d)->server_metrics)};
      const double hits = window.Delta(cache + ".hits");
      const double lookups = hits + window.Delta(cache + ".misses");
      ratios.push_back(lookups > 0 ? hits / lookups : 0);
      const size_t n = ratios.size();
      if (n >= 3 && std::abs(ratios[n - 1] - ratios[n - 2]) < kWarmupLevel &&
          std::abs(ratios[n - 2] - ratios[n - 3]) < kWarmupLevel) {
        break;
      }
    }
    warmup_rounds_.push_back(ratios.size());
    *seconds = Seconds(t0, Clock::now());
    return std::move(d).value();
  }

  // Runs every client's stream until `seconds` pass (when > 0) or each has
  // sent `per_client` requests (when > 0). With `traces`, client c records
  // a root span per request into (*traces)[c] and every sample is kept.
  LoopStats Loop(Deployment& d, std::vector<TopoDbClient>& clients,
                 double seconds, int per_client,
                 std::vector<std::unique_ptr<SpanBuffer>>* traces) {
    const size_t n = clients.size();
    std::vector<LoopStats> stats(n);
    std::vector<AnswerLog> logs(n);
    const Clock::time_point start = Clock::now();
    std::vector<std::thread> threads;
    for (size_t c = 0; c < n; ++c) {
      threads.emplace_back([&, c] {
        LoopStats& st = stats[c];
        SpanBuffer* trace = traces != nullptr ? (*traces)[c].get() : nullptr;
        std::vector<Answer> answers;
        for (int k = 0; per_client <= 0 || k < per_client; ++k) {
          if (seconds > 0 && Seconds(start, Clock::now()) >= seconds) break;
          const uint64_t rid = next_request_id_++;
          const int32_t root =
              trace != nullptr ? trace->Begin("request", -1, rid) : -1;
          Sample sample =
              d.streams[c]->Issue(clients[c], &answers, trace, root, rid);
          if (trace != nullptr) trace->End(root);
          sample.request_id = rid;
          for (const Answer& answer : answers) logs[c].Add(answer);
          answers.clear();
          ++st.attempted;
          if (trace != nullptr) st.kept.push_back(sample);
          if (sample.failed) {
            ++st.failed;
            continue;
          }
          ++st.ok_requests;
          st.ok_items += sample.items;
          st.latency_sum_us += sample.latency_us;
          st.all.Record(sample.latency_us);
          st.by_op[static_cast<size_t>(sample.op)].Record(sample.latency_us);
        }
      });
    }
    for (auto& thread : threads) thread.join();
    LoopStats result;
    for (size_t c = 0; c < n; ++c) {
      result.Merge(stats[c]);
      answers_.Merge(logs[c]);
    }
    result.seconds = Seconds(start, Clock::now());
    return result;
  }

  // Closes the clients, reads durable answers, stops the deployment.
  void TearDown(std::unique_ptr<Deployment> d,
                std::vector<TopoDbClient>* clients) {
    clients->clear();
    std::vector<Answer> stored;
    w_.CollectStoredAnswers(*d, &stored);
    AnswerLog log;
    for (const Answer& answer : stored) log.Add(answer);
    answers_.Merge(log);
    const Status status = d->Shutdown();
    if (!status.ok()) Fatal("shutdown", status);
  }

  // Compares every recorded answer with the library's. Returns the
  // number of distinct wrong answers (the first few go to stderr).
  uint64_t Verify() {
    const std::vector<Answer> answers = answers_.Distinct();
    std::vector<uint64_t> keys;
    for (const Answer& a : answers) keys.push_back(a.key);
    std::sort(keys.begin(), keys.end());
    keys.erase(std::unique(keys.begin(), keys.end()), keys.end());
    w_.PrepareTruth(keys);
    std::vector<Answer> truth(keys.size());
    ParallelFor(keys.size(), [&](size_t i) { truth[i] = w_.Truth(keys[i]); });
    if (o_.corrupt_expected && !truth.empty()) {
      // Self-test of the gate: one expected answer is deliberately wrong.
      truth.front().digest ^= 1;
      truth.front().size += 1;
    }
    std::unordered_map<uint64_t, const Answer*> by_key;
    for (const Answer& t : truth) by_key[t.key] = &t;
    uint64_t wrong = 0;
    for (const Answer& a : answers) {
      const Answer& expected = *by_key.at(a.key);
      if (a.SameAs(expected)) continue;
      if (++wrong <= 5) {
        std::fprintf(stderr,
                     "e2ebench: WRONG answer for key %016llx: got code %u "
                     "size %llu digest %016llx, library code %u size %llu "
                     "digest %016llx\n",
                     static_cast<unsigned long long>(a.key), a.code,
                     static_cast<unsigned long long>(a.size),
                     static_cast<unsigned long long>(a.digest), expected.code,
                     static_cast<unsigned long long>(expected.size),
                     static_cast<unsigned long long>(expected.digest));
      }
    }
    return wrong;
  }

  uint64_t checked() const { return answers_.total(); }
  const std::vector<size_t>& warmup_rounds() const { return warmup_rounds_; }

  [[noreturn]] static void Fatal(const char* what, const Status& status) {
    std::fprintf(stderr, "e2ebench: %s failed: %s\n", what,
                 status.ToString().c_str());
    std::exit(2);
  }

 private:
  Workload& w_;
  const Options& o_;
  int deployments_ = 0;
  std::atomic<uint64_t> next_request_id_{1};
  AnswerLog answers_;
  std::vector<size_t> warmup_rounds_;
};

// p50/p99 (ms) of one latency histogram, with its sample count.
void AddLatencies(MetricList& report, const std::string& prefix,
                  const LatencyHistogram& h,
                  std::initializer_list<double> quantiles) {
  for (double q : quantiles) {
    const std::string name = prefix + "_p" +
                             std::to_string(static_cast<int>(q * 100)) + "_ms";
    if (h.count() == 0) {
      report.Add(name, 0, "ms", "n/a: no such requests in this mix");
      continue;
    }
    report.Add(name, h.Quantile(q) / 1e3, "ms",
               "n=" + std::to_string(h.count()) +
                   (QuantileSupported(h.count(), q)
                        ? ""
                        : " (fewer than 10 samples beyond this percentile)"));
  }
}

int RunEndToEnd(Workload& w, const Options& o) {
  Runner runner(w, o);
  std::vector<double> setups;
  std::vector<TopoDbClient> clients;
  double setup = 0;
  std::unique_ptr<Deployment> d = runner.SetUp(&clients, &setup);
  setups.push_back(setup);
  const double cpu0 = ProcessCpuSeconds();
  const LoopStats window = runner.Loop(*d, clients, o.seconds, 0, nullptr);
  const double cpu_s = ProcessCpuSeconds() - cpu0;
  // Free heap pages go back to the system first, so the figure is memory
  // held, not allocator slack that varies from run to run.
  malloc_trim(0);
  const double rss = ResidentMiB();
  runner.TearDown(std::move(d), &clients);
  // The remaining set-ups run after the window, so their memory cannot
  // show in rss_mb; set-up time is the median over all of them.
  while (setups.size() < kSetups) {
    d = runner.SetUp(&clients, &setup);
    setups.push_back(setup);
    runner.TearDown(std::move(d), &clients);
  }
  const uint64_t wrong = runner.Verify();

  MetricList e2e;   // The gated metrics, in the result JSON.
  MetricList more;  // Printed only: absent from some mixes, or always 0.
  std::string rounds;
  for (size_t r : runner.warmup_rounds()) {
    rounds += (rounds.empty() ? "" : "/") + std::to_string(r);
  }
  e2e.Add("setup_s", Median(setups), "s",
          "median of " + std::to_string(kSetups) +
              " set-ups; warm-up rounds " + rounds);
  e2e.Add("throughput_rps", window.ok_requests / window.seconds, "1/s",
          Fmt("%.0f ok requests in %.3f s", window.ok_requests,
              window.seconds));
  e2e.Add("items_per_s", window.ok_items / window.seconds, "1/s",
          Fmt("%.0f items", window.ok_items));
  AddLatencies(e2e, "latency", window.all, {0.50, 0.99});
  e2e.Add("cpu_ms_per_request", cpu_s * 1e3 / window.ok_requests, "ms",
          Fmt("%.3f s process CPU (clients, servers, router) over the window",
              cpu_s));
  e2e.Add("rss_mb", rss, "MiB", "resident at the end of the timed window");
  AddLatencies(more, "invariant",
               window.by_op[static_cast<size_t>(OpClass::kInvariant)],
               {0.50, 0.99});
  AddLatencies(more, "eval", window.by_op[static_cast<size_t>(OpClass::kEval)],
               {0.50, 0.99});
  AddLatencies(more, "load", window.by_op[static_cast<size_t>(OpClass::kLoad)],
               {0.50, 0.90});
  more.Add("failed_ratio",
           window.attempted == 0
               ? 0
               : static_cast<double>(window.failed) / window.attempted,
           "ratio",
           Fmt("%.0f failed / %.0f attempted", window.failed,
               window.attempted));

  std::printf("# %s seed %llu: closed loop, %d client connection(s), %s, "
              "nproc %u, %.1f s window\n",
              w.shape().name, static_cast<unsigned long long>(o.seed),
              w.shape().clients,
              w.shape().shards > 0
                  ? (std::to_string(w.shape().shards) + " shards x " +
                     std::to_string(w.shape().workers_per_server) +
                     " worker behind a router")
                        .c_str()
                  : (std::to_string(w.shape().workers_per_server) +
                     " server workers")
                        .c_str(),
              std::thread::hardware_concurrency(), o.seconds);
  std::printf("# working set: %s\n", w.Describe().c_str());
  e2e.PrintTable(stdout);
  more.PrintTable(stdout);
  std::printf("# checked %llu answers against the library: %llu wrong\n",
              static_cast<unsigned long long>(runner.checked()),
              static_cast<unsigned long long>(wrong));
  std::printf("%s\n", e2e.ResultJson(wrong == 0, window.attempted,
                                     window.failed)
                          .c_str());
  return wrong == 0 ? 0 : 1;
}

// Per-layer metrics from the replayed spans: p50 time of each layer call
// and each layer's share of the replayed requests' self time.
void AddReplayMetrics(MetricList& report, const SpanBuffer& replay,
                      std::string* dominant) {
  const auto all = SummarizeSpans({&replay});
  for (const char* name :
       {"region.parse", "arrangement.build", "invariant.extract",
        "invariant.canonical", "thematic.build", "query.parse", "query.plan",
        "query.engine_build", "catalog.find", "catalog.ingest"}) {
    auto it = all.find(name);
    std::vector<double> us;
    if (it != all.end()) us = it->second.durations_us;
    std::sort(us.begin(), us.end());
    report.Add(std::string(name) + "_us", Quantile(us, 0.5), "us",
               us.empty() ? "layer not on this mix's request path"
                          : "p50 of " + std::to_string(us.size()) + " calls");
  }
  // Self time of the replayed requests by module; the root span's own
  // self time is the replay's glue ("other").
  std::map<std::string, double> by_module;
  double total = 0;
  for (const auto& [name, summary] : SummarizeSpans({&replay}, "request")) {
    std::string module = name.substr(0, name.find('.'));
    if (module == "catalog") module = "store";
    if (module == "request") module = "other";
    by_module[module] += summary.self_us_total;
    total += summary.self_us_total;
  }
  double best = -1;
  for (const char* module : {"region", "arrangement", "invariant", "thematic",
                             "query", "store", "pipeline", "other"}) {
    const double share = total > 0 ? 100.0 * by_module[module] / total : 0;
    report.Add(std::string("self_share.") + module + "_pct", share, "%",
               Fmt("%.1f us of %.1f us replayed self time", by_module[module],
                   total));
    if (share > best && std::string(module) != "other") {
      best = share;
      *dominant = Fmt("%.1f%%", share) + " " + module;
    }
  }
}

void AddSeriesMetrics(MetricList& r, const SeriesWindow& s,
                      const SeriesWindow* router, double client_call_mean_us,
                      const QueryEngine::CacheStats& engines) {
  auto ratio = [&](const std::string& name, double num, double base,
                   const char* base_name) {
    r.Add(name, base > 0 ? num / base : 0, "ratio",
          Fmt("%.0f of %.0f ", num, base) + base_name);
  };
  const double pairs = s.Delta("arrangement.candidate_pairs");
  const double exact = s.Delta("arrangement.exact_intersections");
  r.Add("arrangement.candidate_pairs", pairs, "count");
  r.Add("arrangement.exact_intersections", exact, "count");
  ratio("arrangement.exact_per_candidate", exact, pairs, "candidate pairs");
  double decisions = 0;
  for (const char* stage : {"static_hits", "interval_hits", "expansion_hits",
                            "exact_fallbacks"}) {
    const double v = s.Delta(std::string("predicates.") + stage);
    decisions += v;
    r.Add(std::string("predicates.") + stage, v, "count");
  }
  r.Add("predicates.decisions", decisions, "count",
        "sum of the four stages: the ratio base");
  ratio("predicates.exact_fallback_ratio", s.Delta("predicates.exact_fallbacks"),
        decisions, "predicate decisions");
  r.Add("pipeline.items", s.Delta("pipeline.items"), "count");
  for (const char* stage : {"arrangement", "extract", "canonical"}) {
    r.Add(std::string("pipeline.") + stage + "_us.mean",
          s.WindowMean(std::string("pipeline.") + stage + "_us"), "us",
          "window mean");
  }
  r.Add("query.evaluations", s.Delta("query.evaluations"), "count");
  r.Add("query.eval_us.p50", s.SinceStartP50("query.eval_us"), "us",
        "since server start");
  r.Add("query.eval_us.p99", s.SinceStartP99("query.eval_us"), "us",
        "since server start");
  r.Add("query.eval_us.mean", s.WindowMean("query.eval_us"), "us",
        "window mean");
  // The server exports disc-memo and range state as gauges of whichever
  // engine evaluated last; these sums over the benchmark's own engines
  // (ground truth and replay) cover every query the run checked.
  const double memo_hits = static_cast<double>(engines.disc_memo_hits);
  ratio("query.disc_memo_hit_ratio", memo_hits,
        memo_hits + static_cast<double>(engines.disc_memo_misses),
        "disc-memo lookups of the benchmark's engines");
  r.Add("query.range_discs", static_cast<double>(engines.materialized_discs),
        "count", "materialized over the benchmark's engines");
  ratio("query.range_disc_ratio",
        static_cast<double>(engines.materialized_discs),
        static_cast<double>(engines.raw_candidates),
        "raw candidates of the benchmark's engines");
  for (const char* cache : {"semcache", "enginecache", "textcache"}) {
    const std::string c = cache;
    const double hits = s.Delta(c + ".hits");
    const double lookups = hits + s.Delta(c + ".misses");
    r.Add(c + ".lookups", lookups, "count");
    ratio(c + ".hit_ratio", hits, lookups, "lookups");
  }
  r.Add("semcache.evictions", s.Delta("semcache.evictions"), "count");
  r.Add("enginecache.entries", s.after.Value("enginecache.misses"), "count",
        "engines built since start; the cache never evicts");
  r.Add("catalog.mapped_bytes", s.Gauge("catalog.mapped_bytes"), "bytes",
        "last catalog updated");
  r.Add("catalog.ingests", s.Delta("catalog.ingests"), "count");
  r.Add("server.requests", s.Delta("server.requests"), "count");
  r.Add("server.shed", s.Delta("server.shed"), "count");
  for (const char* h : {"queue_wait_us", "execute_us"}) {
    const std::string name = std::string("server.") + h;
    r.Add(name + ".p50", s.SinceStartP50(name), "us", "since server start");
    r.Add(name + ".p99", s.SinceStartP99(name), "us", "since server start");
    r.Add(name + ".mean", s.WindowMean(name), "us", "window mean");
  }
  r.Add("server.write_us.p50", s.SinceStartP50("server.write_us"), "us",
        "since server start");
  r.Add("server.request_us.mean", s.WindowMean("server.request_us"), "us",
        "window mean");
  // Framing: what the client waits for beyond the front process's queue
  // wait and execution (encode, socket, decode, wake-ups). The server's
  // request_us is not used: it ends after the reply is written, by which
  // time the woken client may already have run.
  const double front_us =
      router != nullptr ? router->WindowMean("router.request_us")
                        : s.WindowMean("server.queue_wait_us") +
                              s.WindowMean("server.execute_us");
  r.Add("server.framing_us.mean", client_call_mean_us - front_us, "us",
        router != nullptr
            ? "client round trip minus router request time, window means"
            : "client round trip minus queue wait and execute, window means");
  if (router != nullptr) {
    r.Add("router.requests", router->Delta("router.requests"), "count");
    r.Add("router.request_us.p50", router->SinceStartP50("router.request_us"),
          "us", "since router start");
    r.Add("router.request_us.mean", router->WindowMean("router.request_us"),
          "us", "window mean");
    r.Add("router.overhead_us.mean",
          router->WindowMean("router.request_us") -
              s.WindowMean("server.execute_us"),
          "us", "router round trip minus backend execute, window means");
    r.Add("router.rerouted", router->Delta("router.rerouted"), "count");
    r.Add("router.backend_errors", router->Delta("router.backend_errors"),
          "count");
  } else {
    for (const char* name :
         {"router.requests", "router.request_us.p50", "router.request_us.mean",
          "router.overhead_us.mean", "router.rerouted",
          "router.backend_errors"}) {
      r.Add(name, 0, std::string(name).find("_us") != std::string::npos
                         ? "us"
                         : "count",
            "no router in this deployment");
    }
  }
}

int RunTraced(Workload& w, const Options& o) {
  Runner runner(w, o);
  std::vector<TopoDbClient> clients;
  double setup = 0;
  std::unique_ptr<Deployment> d = runner.SetUp(&clients, &setup);
  // Untraced and traced slices alternate, so drift over the run (caches
  // filling, the catalog growing) falls on both sides alike.
  const Clock::time_point origin = Clock::now();
  std::vector<std::unique_ptr<SpanBuffer>> traces;
  for (size_t c = 0; c < clients.size(); ++c) {
    traces.push_back(std::make_unique<SpanBuffer>(origin));
  }
  const double slice = o.seconds / (2 * kTraceSlices);
  LoopStats plain;
  LoopStats traced;
  SeriesWindow server{SeriesSnapshot::Read(d->server_metrics), {}};
  SeriesWindow router{SeriesSnapshot::Read(d->router_metrics), {}};
  for (int i = 0; i < kTraceSlices; ++i) {
    plain.Merge(runner.Loop(*d, clients, slice, 0, nullptr));
    traced.Merge(runner.Loop(*d, clients, slice, 0, &traces));
  }
  server.after = SeriesSnapshot::Read(d->server_metrics);
  router.after = SeriesSnapshot::Read(d->router_metrics);
  clients.clear();

  // Ground truth first: it also warms the engines the replay reuses, as
  // the server's are warm.
  const uint64_t wrong = runner.Verify();
  SpanBuffer replay(origin);
  std::vector<Sample> answered;
  for (const Sample& s : traced.kept) {
    if (!s.failed) answered.push_back(s);
  }
  const size_t n = answered.size();
  const size_t replayed = std::min(n, kReplayRequests);
  for (size_t i = 0; i < replayed; ++i) {
    const Sample& s = answered[i * n / replayed];
    w.Replay(s.key, *d, replay, s.request_id);
  }
  runner.TearDown(std::move(d), &clients);

  std::vector<const SpanBuffer*> buffers;
  for (const auto& t : traces) buffers.push_back(t.get());
  // The client's mean round trip over the same slices the series cover.
  const uint64_t answered_requests = plain.ok_requests + traced.ok_requests;
  const double call_mean =
      answered_requests == 0
          ? 0
          : (plain.latency_sum_us + traced.latency_sum_us) /
                static_cast<double>(answered_requests);
  buffers.push_back(&replay);
  size_t spans = 0;
  for (const SpanBuffer* b : buffers) spans += b->spans().size();
  if (!o.trace_out.empty() && !WriteSpansJsonl(o.trace_out, buffers)) {
    std::fprintf(stderr, "e2ebench: cannot write %s\n", o.trace_out.c_str());
    return 2;
  }

  MetricList layers;
  std::string dominant = "none";
  AddReplayMetrics(layers, replay, &dominant);
  AddSeriesMetrics(layers, server,
                   w.shape().shards > 0 ? &router : nullptr, call_mean,
                   w.EngineStats());
  const double rps_plain = plain.ok_requests / plain.seconds;
  const double rps_traced = traced.ok_requests / traced.seconds;
  layers.Add("trace.rps_untraced", rps_plain, "1/s");
  layers.Add("trace.rps_traced", rps_traced, "1/s");
  layers.Add("trace.overhead_pct",
             rps_plain > 0 ? 100.0 * (rps_plain - rps_traced) / rps_plain : 0,
             "%", "untraced minus traced throughput, share of untraced");
  // Latency by request kind, from the untraced slices.
  AddLatencies(layers, "op.invariant",
               plain.by_op[static_cast<size_t>(OpClass::kInvariant)],
               {0.50, 0.99});
  AddLatencies(layers, "op.eval",
               plain.by_op[static_cast<size_t>(OpClass::kEval)], {0.50, 0.99});
  AddLatencies(layers, "op.load",
               plain.by_op[static_cast<size_t>(OpClass::kLoad)], {0.50, 0.90});

  std::printf("# %s seed %llu traced run: %d alternating untraced and traced "
              "slices of %.2f s; series are deltas over the whole window; "
              "%zu traced requests replayed layer by layer; %zu spans%s\n",
              w.shape().name, static_cast<unsigned long long>(o.seed),
              kTraceSlices, slice, replayed, spans,
              o.trace_out.empty() ? "" : (" written to " + o.trace_out).c_str());
  layers.PrintTable(stdout);
  std::printf("# dominant layer by self time of a replayed request: %s\n",
              dominant.c_str());
  std::printf("# checked %llu answers against the library: %llu wrong\n",
              static_cast<unsigned long long>(runner.checked()),
              static_cast<unsigned long long>(wrong));
  const uint64_t attempted = plain.attempted + traced.attempted;
  std::printf("%s\n", layers
                          .ResultJson(wrong == 0, attempted,
                                      plain.failed + traced.failed)
                          .c_str());
  return wrong == 0 ? 0 : 1;
}

// Restricts the process, and every thread it starts later, to the first
// `n` CPUs it may run on. On a shared virtual machine a reply that wakes a
// thread on another virtual CPU can wait longer than the request took, so
// spreading loopback hand-offs over every CPU measures the host's
// scheduler rather than TopoDB. Each workload takes as many CPUs as it has
// threads that compute at once: two for invariant-cold's two workers, one
// for the hand-off chains of catalog-eval and routed-write-mix.
void PinToFirstCpus(int n) {
  cpu_set_t allowed;
  CPU_ZERO(&allowed);
  if (sched_getaffinity(0, sizeof(allowed), &allowed) != 0) return;
  cpu_set_t pinned;
  CPU_ZERO(&pinned);
  for (int cpu = 0, kept = 0; cpu < CPU_SETSIZE && kept < n; ++cpu) {
    if (CPU_ISSET(cpu, &allowed)) {
      CPU_SET(cpu, &pinned);
      ++kept;
    }
  }
  (void)sched_setaffinity(0, sizeof(pinned), &pinned);
}

}  // namespace
}  // namespace topodb::e2e

int main(int argc, char** argv) {
  using namespace topodb::e2e;
  const Options options = ParseArgs(argc, argv);
  std::unique_ptr<Workload> workload = MakeWorkload(options.workload,
                                                    options.seed);
  if (workload == nullptr) {
    std::string known;
    for (const std::string& name : WorkloadNames()) known += " " + name;
    Usage(("unknown workload; known:" + known).c_str());
  }
  PinToFirstCpus(workload->shape().cpus);
  std::error_code ec;
  std::filesystem::create_directories(options.workdir, ec);
  if (ec) Usage(("cannot create --workdir " + options.workdir).c_str());
  std::fflush(stdout);
  return options.trace == 0 ? RunEndToEnd(*workload, options)
                            : RunTraced(*workload, options);
}
