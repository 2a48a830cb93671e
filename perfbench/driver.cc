// Repo benchmark driver: four workloads driven through the public APIs
// of one process, closed loop, with end-to-end metrics from untraced
// repetitions and per-layer metrics from a traced run.
//
//   psg_perfbench --workload ps-pagerank --seed 1 --seconds 10 --trace 0
//
// Workloads (see perfbench/README.md for why each exists):
//   ps-pagerank   core::PageRank (delta PageRank on the PS), DS1-mini,
//                 100 executors + 20 servers
//   gx-pagerank   graphx::PageRank (dataflow joins/shuffles), DS1-mini,
//                 100 executors
//   stream-serve  stream::FreshnessPipeline epochs + Zipfian lookups on
//                 cleaned DS1-mini at 1/100000 scale
//   sage-train    core::GraphSage on DS3-mini, 30 executors + 30 servers
//
// A run repeats {setup, job, correctness check} on fresh contexts for
// about --seconds, each repetition in its own process pinned to the next
// allowed CPU, and reports the lower quartile of the wall-clock figures
// and medians of the rest. Wall clock comes from
// steady_clock around the driver's own calls, host counters from
// getrusage, everything else from the program's public counters
// (Metrics, RpcTelemetry, the cost ledger via AnalyzeCriticalPath,
// MemoryAccountant). Nothing inside src/ is instrumented for this.
//
// The last stdout line is one JSON object:
//   {"correct": bool, "attempted": n, "failed": n, "metrics": {...}}
// with the end-to-end metrics under --trace 0 and the per-layer metrics
// under --trace 1. Earlier lines carry the environment stamp, one line
// per repetition and (under --trace 1) a "det " line holding the
// deterministic sim metrics and work counts that perfbench/test_determinism.py
// compares across runs.

#include <sched.h>
#include <sys/resource.h>
#include <sys/wait.h>
#include <unistd.h>

#include <algorithm>
#include <array>
#include <cerrno>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <functional>
#include <map>
#include <memory>
#include <optional>
#include <string>
#include <type_traits>
#include <unordered_set>
#include <utility>
#include <vector>

#include "common/metrics.h"
#include "common/random.h"
#include "common/rpc_telemetry.h"
#include "common/stopwatch.h"
#include "common/thread_pool.h"
#include "common/trace.h"
#include "core/graph_loader.h"
#include "core/graphsage.h"
#include "core/pagerank.h"
#include "core/psgraph_context.h"
#include "core/sage_model.h"
#include "dataflow/context.h"
#include "dataflow/dataset.h"
#include "graph/datasets.h"
#include "graphx/algorithms.h"
#include "minitorch/ops.h"
#include "serving/load_gen.h"
#include "serving/router.h"
#include "serving/shard.h"
#include "serving/snapshot.h"
#include "sim/cluster.h"
#include "sim/cost_ledger.h"
#include "sim/critical_path.h"
#include "sim/sim_clock.h"
#include "stream/incremental.h"
#include "stream/mutation_log.h"
#include "stream/pipeline.h"

#ifndef PSG_BENCH_BUILD_TYPE
#define PSG_BENCH_BUILD_TYPE "unknown"
#endif

namespace psgraph::perfbench {
namespace {

#ifdef __OPTIMIZE__
constexpr bool kOptimized = true;
#else
constexpr bool kOptimized = false;
#endif

// ---------------------------------------------------------------------
// Workload parameters. Changing any of these changes the benchmark.

constexpr int kPsPageRankIters = 10;
constexpr int kGxPageRankIters = 5;
constexpr uint64_t kDs1Denom = 25000;        // |V|~32.7k, |E|=440k
constexpr uint64_t kStreamDenom = 100000;    // |V|=8177 after cleaning
constexpr int kStreamEpochs = 12;            // per repetition
constexpr double kStreamMutationsPerSec = 640.0;
constexpr double kStreamEpochSec = 0.5;
// Lookup traffic is bench_serving's mix on the same four-shard tier
// (Zipf 0.99, 4 keys per request, 2500 req/s, about 60% of the tier's
// saturation rate), lookups only as in bench_freshness (no model to infer
// with). 100 per epoch gives every repetition's 12 epochs at least the
// 1000 lookups a run must carry.
constexpr uint64_t kLookupsPerEpoch = 100;
constexpr double kLookupRatePerSec = 2500.0;
constexpr int kSageEpochs = 1;
constexpr double kSageAccuracyFloor = 0.80;
constexpr int kMinitorchSteps = 20;
// Engine parallelism unless --threads overrides it. On a shared
// four-core host two or four engine threads made stream-serve and
// sage-train no faster but noisier (a thread descheduled by another
// tenant stalls its partner at every barrier): stream-serve's job_wall_s
// spread over five runs fell from 9% at two threads to 5% at one.
constexpr long kPinnedParallelism = 1;

// ---------------------------------------------------------------------
// Small helpers.

/// Quantile q of v, interpolating linearly between the order statistics
/// around position q * (n - 1).
double Quantile(std::vector<double> v, double q) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const double pos = q * static_cast<double>(v.size() - 1);
  const size_t lo = static_cast<size_t>(pos);
  const size_t hi = std::min(lo + 1, v.size() - 1);
  return v[lo] + (v[hi] - v[lo]) * (pos - static_cast<double>(lo));
}

double Median(std::vector<double> v) { return Quantile(std::move(v), 0.5); }

/// Nearest-rank quantile of sim ticks (the convention bench_freshness
/// uses for its staleness gate).
int64_t TickQuantile(std::vector<int64_t> v, double q) {
  if (v.empty()) return 0;
  std::sort(v.begin(), v.end());
  const size_t idx = std::min(
      v.size() - 1, static_cast<size_t>(q * static_cast<double>(v.size())));
  return v[idx];
}

struct HostSample {
  double cpu_s = 0.0;
  int64_t ctx_switches = 0;
  int64_t minor_faults = 0;
};

HostSample SampleHost() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  HostSample s;
  s.cpu_s = static_cast<double>(ru.ru_utime.tv_sec + ru.ru_stime.tv_sec) +
            1e-6 * static_cast<double>(ru.ru_utime.tv_usec +
                                       ru.ru_stime.tv_usec);
  s.ctx_switches = ru.ru_nvcsw + ru.ru_nivcsw;
  s.minor_faults = ru.ru_minflt;
  return s;
}

/// Turns the program's sim-clock tracer on or off for contexts created
/// afterwards (PsGraphContext::Create and bare Tracers read it).
void SetTraceEnv(bool on) {
  if (on) {
    setenv("PSGRAPH_TRACE", "1", 1);
  } else {
    unsetenv("PSGRAPH_TRACE");
  }
}

// ---------------------------------------------------------------------
// What one repetition measured.

/// Work counts and sim quantities read from the program's counters after
/// the job. Everything here except test_accuracy is a pure function of
/// (workload, seed): bit-identical across repetitions and parallelism.
struct Work {
  int64_t makespan_ticks = 0;
  double paper_scale = 1.0;
  uint64_t peak_mem_bytes = 0;
  std::array<int64_t, sim::kNumCostCategories> categories{};
  uint64_t shuffle_bytes = 0;
  uint64_t network_bytes = 0;
  uint64_t tasks = 0;
  uint64_t rpc_calls = 0;
  uint64_t rpc_req_bytes = 0;
  uint64_t rpc_resp_bytes = 0;
  uint64_t rpc_errors = 0;
  int64_t ps_service_ticks = 0;
  uint64_t wire_bytes = 0;
  uint64_t wire_raw_bytes = 0;
  uint64_t rows_pulled = 0;
  uint64_t rows_pushed = 0;
  uint64_t nbr_entries_pulled = 0;
  uint64_t edges_mutated = 0;
  uint64_t checkpoint_bytes = 0;
  uint64_t hdfs_bytes_written = 0;
  uint64_t hdfs_bytes_read = 0;
  uint64_t cache_hits = 0;
  uint64_t cache_probes = 0;
  uint64_t batches = 0;
  uint64_t batch_items = 0;
  // Workload-specific quantities.
  uint64_t edges = 0;  ///< input edges (ps-pagerank rows-per-edge ratio)
  int iterations = 0;
  uint64_t vertices_touched = 0;
  uint64_t edges_processed = 0;
  uint64_t reembed_rows = 0;
  uint64_t num_vertices = 0;
  uint64_t lookups = 0;
  int64_t staleness_p50_ticks = 0;
  int64_t staleness_p99_ticks = 0;
  int64_t lookup_p50_ticks = 0;
  int64_t lookup_p99_ticks = 0;
  double test_accuracy = 0.0;

  /// The deterministic signature compared across repetitions and by
  /// test_determinism.py.
  std::vector<std::pair<std::string, int64_t>> Signature() const {
    std::vector<std::pair<std::string, int64_t>> s = {
        {"sim.makespan_ticks", makespan_ticks},
        {"sim.peak_mem_bytes", static_cast<int64_t>(peak_mem_bytes)},
        {"ps.rows_pulled", static_cast<int64_t>(rows_pulled)},
        {"ps.rows_pushed", static_cast<int64_t>(rows_pushed)},
        {"ps.nbr_entries_pulled", static_cast<int64_t>(nbr_entries_pulled)},
        {"ps.edges_mutated", static_cast<int64_t>(edges_mutated)},
        {"ps.service_ticks", ps_service_ticks},
        {"net.rpc_calls", static_cast<int64_t>(rpc_calls)},
        {"net.rpc_req_bytes", static_cast<int64_t>(rpc_req_bytes)},
        {"net.rpc_resp_bytes", static_cast<int64_t>(rpc_resp_bytes)},
        {"net.rpc_errors", static_cast<int64_t>(rpc_errors)},
        {"dataflow.shuffle_bytes", static_cast<int64_t>(shuffle_bytes)},
        {"stream.vertices_touched", static_cast<int64_t>(vertices_touched)},
        {"stream.staleness_p99_ticks", staleness_p99_ticks},
        {"serving.lookup_p99_ticks", lookup_p99_ticks},
    };
    for (int c = 0; c < sim::kNumCostCategories; ++c) {
      s.emplace_back(std::string("sim.") + sim::kCostCategoryNames[c] +
                         "_ticks",
                     categories[static_cast<size_t>(c)]);
    }
    return s;
  }
};

/// Trivially copyable, so a repetition run in a child process can send
/// it back through a pipe as raw bytes.
struct Rep {
  bool traced = false;
  bool ok = true;
  char why[160] = {};  ///< first failed check
  double setup_s = 0.0;
  double generate_s = 0.0;
  double stage_s = 0.0;
  double job_wall_s = 0.0;
  double cpu_s = 0.0;
  int64_t ctx_switches = 0;
  int64_t minor_faults = 0;
  uint64_t attempted = 1;  ///< the job, plus one per serving request
  uint64_t failed = 0;
  double peak_rss_mb = 0.0;  ///< of the repetition's own process
  Work work;
  // stream-serve wall spans
  std::array<double, kStreamEpochs> epoch_ms{};
  int epochs = 0;
  double epoch_s = 0.0;
  double log_next_s = 0.0;
  double submit_s = 0.0;
  // sage-train direct minitorch timing
  double minitorch_step_ms = 0.0;

  void Fail(const std::string& what) {
    if (ok) std::snprintf(why, sizeof(why), "%s", what.c_str());
    ok = false;
  }
};
static_assert(std::is_trivially_copyable_v<Rep>);

/// Brackets the job: wall clock plus the host counters' deltas.
class JobTimer {
 public:
  JobTimer() : start_(SampleHost()) {}
  void Stop(Rep* rep) const {
    rep->job_wall_s = wall_.ElapsedSeconds();
    const HostSample end = SampleHost();
    rep->cpu_s = end.cpu_s - start_.cpu_s;
    rep->ctx_switches = end.ctx_switches - start_.ctx_switches;
    rep->minor_faults = end.minor_faults - start_.minor_faults;
  }

 private:
  HostSample start_;
  Stopwatch wall_;
};

/// Reads the layer counters a cluster's sinks accumulated.
void CaptureWork(sim::SimCluster& cluster, Metrics& metrics,
                 RpcTelemetry& rpc, double paper_scale, Work* w) {
  w->makespan_ticks = cluster.clock().MakespanTicks();
  w->paper_scale = paper_scale;
  w->peak_mem_bytes = cluster.memory().MaxPeak();
  const sim::CriticalPathReport cp = sim::AnalyzeCriticalPath(&cluster);
  w->categories = cp.categories;

  const std::map<std::string, uint64_t> counters = metrics.CounterSnapshot();
  auto get = [&counters](const std::string& name) -> uint64_t {
    auto it = counters.find(name);
    return it == counters.end() ? 0 : it->second;
  };
  w->shuffle_bytes = get("dataflow.shuffle_bytes_written");
  w->network_bytes = get("dataflow.network_bytes");
  w->rows_pulled = get("ps.rows_pulled");
  w->rows_pushed = get("ps.rows_pushed");
  w->nbr_entries_pulled = get("ps.neighbor_entries_pulled");
  w->edges_mutated = get("ps.edges_inserted") + get("ps.edges_deleted");
  w->checkpoint_bytes = get("ps.checkpoint_bytes");
  w->hdfs_bytes_written = get("hdfs.bytes_written");
  w->hdfs_bytes_read = get("hdfs.bytes_read");
  w->cache_hits = get("serving.cache_hits");
  w->cache_probes = get("serving.cache_probes");
  w->batches = get("serving.batches");
  // Wire codec meters: every "<x>_raw_bytes" counter has an encoded
  // "<x>_bytes" twin; the ratio is encoded over fixed-width raw.
  for (const auto& [name, raw] : counters) {
    const std::string suffix = "_raw_bytes";
    if (name.rfind("wire.", 0) != 0 || name.size() <= suffix.size() ||
        name.compare(name.size() - suffix.size(), suffix.size(), suffix) !=
            0) {
      continue;
    }
    w->wire_raw_bytes += raw;
    w->wire_bytes +=
        get(name.substr(0, name.size() - suffix.size()) + "_bytes");
  }

  const std::map<std::string, HistogramSnapshot> hists =
      metrics.HistogramSnapshots();
  if (auto it = hists.find("dataflow.partition_ticks"); it != hists.end()) {
    w->tasks = it->second.count;
  }
  if (auto it = hists.find("serving.batch.occupancy"); it != hists.end()) {
    w->batch_items = it->second.sum;
  }

  for (const RpcTelemetry::MethodStat& m : rpc.Snapshot()) {
    w->rpc_calls += m.calls;
    w->rpc_req_bytes += m.request_bytes;
    w->rpc_resp_bytes += m.response_bytes;
    w->rpc_errors += m.errors_unavailable + m.errors_handler;
    if (m.method.rfind("ps.", 0) == 0) {
      w->ps_service_ticks += m.callee_busy_ticks;
    }
  }
}

uint64_t ScaledBudget(double gb, double scale) {
  return static_cast<uint64_t>(gb * static_cast<double>(1ull << 30) / scale);
}

// ---------------------------------------------------------------------
// PageRank references: plain single-thread power iteration in double on
// the same edge list, one per engine convention.

/// core::PageRank convention: ranks start at 0, every id starts with a
/// reset-mass delta; each sweep folds the deltas into the ranks and
/// propagates damp * delta / outdeg; a final fold after the last sweep.
std::vector<double> ReferenceDeltaPageRank(const graph::EdgeList& edges,
                                           uint64_t n, int iters,
                                           double reset) {
  std::vector<uint64_t> outdeg(n, 0);
  for (const graph::Edge& e : edges) ++outdeg[e.src];
  std::vector<double> rank(n, 0.0);
  std::vector<double> delta(n, reset);
  std::vector<double> next(n);
  const double damp = 1.0 - reset;
  for (int it = 0; it < iters; ++it) {
    std::fill(next.begin(), next.end(), 0.0);
    for (uint64_t v = 0; v < n; ++v) rank[v] += delta[v];
    for (const graph::Edge& e : edges) {
      next[e.dst] += damp * delta[e.src] / static_cast<double>(outdeg[e.src]);
    }
    delta.swap(next);
  }
  for (uint64_t v = 0; v < n; ++v) rank[v] += delta[v];
  return rank;
}

/// graphx::PageRank convention (staticPageRank): every vertex of the
/// graph starts at 1.0; rank' = reset + (1 - reset) * sum(rank/outdeg).
std::vector<double> ReferenceStaticPageRank(const graph::EdgeList& edges,
                                            uint64_t n, int iters,
                                            double reset) {
  std::vector<uint64_t> outdeg(n, 0);
  for (const graph::Edge& e : edges) ++outdeg[e.src];
  std::vector<double> rank(n, 1.0);
  std::vector<double> sum(n);
  for (int it = 0; it < iters; ++it) {
    std::fill(sum.begin(), sum.end(), 0.0);
    for (const graph::Edge& e : edges) {
      sum[e.dst] += rank[e.src] / static_cast<double>(outdeg[e.src]);
    }
    for (uint64_t v = 0; v < n; ++v) rank[v] = reset + (1.0 - reset) * sum[v];
  }
  return rank;
}

double RelL1(const std::vector<double>& got, const std::vector<double>& want) {
  double diff = 0.0;
  double norm = 0.0;
  for (size_t i = 0; i < want.size(); ++i) {
    diff += std::fabs(got[i] - want[i]);
    norm += std::fabs(want[i]);
  }
  return norm > 0.0 ? diff / norm : diff;
}

// ---------------------------------------------------------------------
// Setup timing. A short setup (tens of milliseconds) is dominated by
// one-off hiccups, so setup runs several times per repetition and the
// median counts; the state the last run built is the one the job uses.

constexpr double kSetupMinSeconds = 0.5;
constexpr size_t kSetupMaxSamples = 9;

struct SetupTimes {
  double generate_s = 0.0;
  double stage_s = 0.0;
};

/// Calls `build` (returns std::unique_ptr<State>, null after calling
/// rep->Fail) until kSetupMinSeconds have passed or kSetupMaxSamples
/// setups were timed, freeing each earlier state before the next build
/// so at most one lives at a time. Fills rep's setup medians.
template <typename State, typename Build>
std::unique_ptr<State> TimeSetup(Rep* rep, Build&& build) {
  std::unique_ptr<State> state;
  std::vector<double> total, generate, stage;
  Stopwatch all;
  do {
    state.reset();
    SetupTimes t;
    Stopwatch one;
    state = build(&t);
    if (state == nullptr) return nullptr;
    total.push_back(one.ElapsedSeconds());
    generate.push_back(t.generate_s);
    stage.push_back(t.stage_s);
  } while (all.ElapsedSeconds() < kSetupMinSeconds &&
           total.size() < kSetupMaxSamples);
  rep->setup_s = Median(total);
  rep->generate_s = Median(generate);
  rep->stage_s = Median(stage);
  return state;
}

// ---------------------------------------------------------------------
// ps-pagerank

struct PsState {
  graph::EdgeList edges;
  uint64_t n = 0;
  double scale = 1.0;
  std::unique_ptr<core::PsGraphContext> ctx;
  std::optional<dataflow::Dataset<graph::Edge>> ds;
};

Rep RunPsPageRank(uint64_t seed, bool traced) {
  Rep rep;
  rep.traced = traced;
  SetTraceEnv(traced);
  auto st = TimeSetup<PsState>(&rep, [&](SetupTimes* t) {
    auto s = std::make_unique<PsState>();
    const graph::DatasetInfo info = graph::Ds1MiniInfo(kDs1Denom);
    Stopwatch gen;
    s->edges = graph::MakeDs1Mini(info, seed);
    s->n = graph::NumVerticesOf(s->edges);
    t->generate_s = gen.ElapsedSeconds();
    // Paper DS1 geometry: 100 executors x 20 GB + 20 servers x 15 GB,
    // budgets scaled by the dataset factor.
    s->scale = info.paper_scale();
    core::PsGraphContext::Options opts;
    opts.cluster.num_executors = 100;
    opts.cluster.num_servers = 20;
    opts.cluster.executor_mem_bytes = ScaledBudget(20.0, s->scale);
    opts.cluster.server_mem_bytes = ScaledBudget(15.0, s->scale);
    opts.cluster.workload_scale = s->scale;
    auto ctx = core::PsGraphContext::Create(opts);
    if (!ctx.ok()) {
      rep.Fail("context: " + ctx.status().ToString());
      return std::unique_ptr<PsState>();
    }
    s->ctx = std::move(*ctx);
    Stopwatch stage;
    auto ds = core::StageAndLoadEdges(*s->ctx, s->edges, "perfbench/edges.bin");
    t->stage_s = stage.ElapsedSeconds();
    if (!ds.ok()) {
      rep.Fail("stage: " + ds.status().ToString());
      return std::unique_ptr<PsState>();
    }
    s->ds.emplace(std::move(*ds));
    return s;
  });
  if (st == nullptr) return rep;

  core::PageRankOptions po;
  po.max_iterations = kPsPageRankIters;
  JobTimer timer;
  auto result = core::PageRank(*st->ctx, *st->ds, st->n, po);
  timer.Stop(&rep);
  if (!result.ok()) {
    rep.Fail("pagerank: " + result.status().ToString());
    return rep;
  }
  CaptureWork(st->ctx->cluster(), st->ctx->metrics(),
              st->ctx->rpc_telemetry(), st->scale, &rep.work);
  rep.work.edges = st->edges.size();
  rep.work.iterations = result->iterations;

  const std::vector<double> want = ReferenceDeltaPageRank(
      st->edges, st->n, kPsPageRankIters, po.reset_prob);
  const double err = RelL1(result->ranks, want);
  // Ranks travel as float32 through the PS; 1e-4 relative L1 is far
  // above float rounding and far below any algorithmic slip.
  if (result->iterations != kPsPageRankIters || !(err < 1e-4)) {
    char buf[128];
    std::snprintf(buf, sizeof(buf),
                  "ranks differ from the reference: rel L1 %.3g", err);
    rep.Fail(buf);
  }
  return rep;
}

// ---------------------------------------------------------------------
// gx-pagerank

struct GxState {
  graph::EdgeList edges;
  uint64_t n = 0;
  double scale = 1.0;
  // Sinks before the cluster that points at them.
  Metrics metrics;
  Tracer tracer;
  RpcTelemetry rpc;
  std::unique_ptr<sim::SimCluster> cluster;
  std::unique_ptr<dataflow::DataflowContext> dctx;
  std::optional<dataflow::Dataset<graph::Edge>> ds;
};

Rep RunGxPageRank(uint64_t seed, bool traced) {
  Rep rep;
  rep.traced = traced;
  SetTraceEnv(traced);
  auto st = TimeSetup<GxState>(&rep, [&](SetupTimes* t) {
    auto s = std::make_unique<GxState>();
    const graph::DatasetInfo info = graph::Ds1MiniInfo(kDs1Denom);
    Stopwatch gen;
    s->edges = graph::MakeDs1Mini(info, seed);
    s->n = graph::NumVerticesOf(s->edges);
    t->generate_s = gen.ElapsedSeconds();
    // GraphX DS1 geometry: 100 executors x 55 GB, scaled.
    s->scale = info.paper_scale();
    sim::ClusterConfig cfg;
    cfg.num_executors = 100;
    cfg.num_servers = 0;
    cfg.executor_mem_bytes = ScaledBudget(55.0, s->scale);
    cfg.server_mem_bytes = 1u << 20;
    cfg.workload_scale = s->scale;
    s->tracer.set_enabled(Tracer::EnabledByEnv());
    s->cluster = std::make_unique<sim::SimCluster>(cfg);
    s->cluster->set_metrics(&s->metrics);
    s->cluster->set_tracer(&s->tracer);
    s->cluster->set_rpc_telemetry(&s->rpc);
    s->dctx = std::make_unique<dataflow::DataflowContext>(s->cluster.get());
    Stopwatch stage;
    // The initial split read, charged like the PSGraph loader charges it.
    const uint64_t share = s->edges.size() * sizeof(graph::Edge) /
                               static_cast<uint64_t>(cfg.num_executors) +
                           1;
    for (int32_t e = 0; e < cfg.num_executors; ++e) {
      s->cluster->clock().Advance(e,
                                  s->cluster->cost().DiskReadTime(share) +
                                      s->cluster->cost().NetworkTime(share));
    }
    s->ds.emplace(dataflow::Dataset<graph::Edge>::FromVector(
        s->dctx.get(), s->edges, cfg.num_executors));
    t->stage_s = stage.ElapsedSeconds();
    return s;
  });

  graphx::PageRankOptions po;
  po.max_iterations = kGxPageRankIters;
  JobTimer timer;
  auto result = graphx::PageRank(*st->ds, po);
  timer.Stop(&rep);
  if (!result.ok()) {
    rep.Fail("graphx pagerank: " + result.status().ToString());
    return rep;
  }
  CaptureWork(*st->cluster, st->metrics, st->rpc, st->scale, &rep.work);
  rep.work.edges = st->edges.size();
  rep.work.iterations = kGxPageRankIters;

  const uint64_t n = st->n;
  const std::vector<double> ref =
      ReferenceStaticPageRank(st->edges, n, kGxPageRankIters, po.reset_prob);
  std::vector<char> in_graph(n, 0);
  for (const graph::Edge& e : st->edges) in_graph[e.src] = in_graph[e.dst] = 1;
  const uint64_t expected =
      static_cast<uint64_t>(std::count(in_graph.begin(), in_graph.end(), 1));
  std::vector<double> got, want;
  got.reserve(result->size());
  want.reserve(result->size());
  bool ids_ok = result->size() == expected;
  for (const auto& [v, r] : *result) {
    if (v >= n || !in_graph[v]) {
      ids_ok = false;
      break;
    }
    got.push_back(r);
    want.push_back(ref[v]);
  }
  const double err = ids_ok ? RelL1(got, want) : 1.0;
  if (!ids_ok || !(err < 1e-9)) {
    char buf[128];
    std::snprintf(buf, sizeof(buf),
                  "ranks differ from the reference: ids %s, rel L1 %.3g",
                  ids_ok ? "ok" : "wrong", err);
    rep.Fail(buf);
  }
  return rep;
}

// ---------------------------------------------------------------------
// stream-serve

/// The mutation log and the mutable adjacency must agree on the live
/// edge set, so self-loops and duplicates are dropped up front.
graph::EdgeList CleanEdges(const graph::EdgeList& raw, uint64_t n) {
  graph::EdgeList edges;
  std::unordered_set<uint64_t> seen;
  for (const graph::Edge& e : raw) {
    if (e.src == e.dst) continue;
    if (!seen.insert(e.src * n + e.dst).second) continue;
    edges.push_back(e);
  }
  return edges;
}

/// Declaration order is construction order; each member points into the
/// ones above it, so they are destroyed before what they point at.
struct StreamState {
  graph::EdgeList edges;
  uint64_t n = 0;
  double scale = 1.0;
  std::unique_ptr<core::PsGraphContext> ctx;
  std::optional<stream::DeltaPageRankEngine> engine;
  std::optional<stream::IncrementalEmbedder> embedder;
  std::optional<stream::FreshnessPipeline> pipeline;
  std::optional<serving::SnapshotPublisher> publisher;
  std::vector<std::unique_ptr<serving::ServingShard>> shards;
  std::optional<serving::ServingRouter> router;
  std::optional<stream::MutationLog> log;
  int64_t version = 0;  ///< the bootstrap snapshot
};

/// Bootstrap: adjacency, full recompute, embeddings, watermark, the first
/// snapshot, the serving tier and the mutation log.
Status BuildStream(uint64_t seed, StreamState* s, SetupTimes* t) {
  const graph::DatasetInfo info = graph::Ds1MiniInfo(kStreamDenom);
  Stopwatch gen;
  const graph::EdgeList raw = graph::MakeDs1Mini(info, seed);
  s->n = graph::NumVerticesOf(raw);
  s->edges = CleanEdges(raw, s->n);
  t->generate_s = gen.ElapsedSeconds();
  // The 4 + 2 node cluster below has no paper geometry and unscaled
  // budgets, so its sim figures are reported as simulated (scale 1), on
  // the same clock as staleness and lookup latency.
  s->scale = 1.0;

  core::PsGraphContext::Options opts;
  opts.cluster.num_executors = 4;  // double as the serving shards
  opts.cluster.num_servers = 2;
  opts.cluster.executor_mem_bytes = 256ull << 20;
  opts.cluster.server_mem_bytes = 256ull << 20;
  PSG_ASSIGN_OR_RETURN(s->ctx, core::PsGraphContext::Create(opts));
  core::PsGraphContext& ctx = *s->ctx;
  Stopwatch stage;
  PSG_ASSIGN_OR_RETURN(
      ps::MatrixMeta adj,
      stream::LoadMutableAdjacency(ctx, s->edges, s->n, "bench.adj"));
  t->stage_s = stage.ElapsedSeconds();

  stream::DeltaPageRankOptions po;
  po.tolerance = 1e-7;
  po.prune_epsilon = 1e-4;
  po.max_iterations = 30;
  PSG_ASSIGN_OR_RETURN(auto engine, stream::DeltaPageRankEngine::Create(
                                        &ctx, adj, s->n, po, "bench.pr"));
  s->engine.emplace(std::move(engine));
  PSG_RETURN_NOT_OK(s->engine->RecomputeFull().status());
  stream::ReembedOptions eo;
  eo.dim = 8;
  PSG_ASSIGN_OR_RETURN(auto embedder, stream::IncrementalEmbedder::Create(
                                          &ctx, adj, s->n, eo, "bench"));
  s->embedder.emplace(std::move(embedder));
  PSG_RETURN_NOT_OK(s->embedder->InitFull());
  s->pipeline.emplace(&ctx, &*s->engine, &*s->embedder,
                      stream::PipelineOptions());
  PSG_RETURN_NOT_OK(s->pipeline->Init());

  serving::SnapshotOptions snap;
  snap.root = "serving/perfbench";
  snap.num_shards = ctx.num_executors();
  snap.keep_versions = 2;
  snap.matrices = {{"bench.emb", false}};
  s->publisher.emplace(&ctx.ps(), snap);
  PSG_ASSIGN_OR_RETURN(auto v1, s->publisher->Publish());
  s->version = v1.version;
  std::vector<sim::NodeId> shard_nodes;
  for (int32_t i = 0; i < ctx.num_executors(); ++i) {
    serving::ShardOptions so;
    so.root = snap.root;
    so.lookup_matrix = "bench.emb";
    so.cache_rows = 512;
    s->shards.push_back(std::make_unique<serving::ServingShard>(
        i, &ctx.cluster(), &ctx.hdfs(), /*node=*/i, so));
    PSG_RETURN_NOT_OK(s->shards.back()->Start(&ctx.fabric()));
    shard_nodes.push_back(i);
  }
  serving::RouterOptions ro;
  ro.num_shards = ctx.num_executors();
  ro.key_space = v1.key_space;
  s->router.emplace(&ctx.cluster(), &ctx.fabric(),
                    ctx.cluster().config().driver(), shard_nodes, ro);
  PSG_RETURN_NOT_OK(s->router->SwapTo(v1.version));
  s->pipeline->AttachServing(&*s->publisher, &*s->router);

  stream::MutationLogOptions mo;
  mo.seed = seed;
  mo.num_vertices = s->n;
  mo.mutations_per_second = kStreamMutationsPerSec;
  mo.epoch_seconds = kStreamEpochSec;
  mo.delete_fraction = 0.3;
  mo.start_ticks =
      ctx.cluster().clock().NowTicks(ctx.cluster().config().driver());
  s->log.emplace(s->edges, mo);
  return Status::OK();
}

Rep RunStreamServe(uint64_t seed, bool traced) {
  Rep rep;
  rep.traced = traced;
  SetTraceEnv(traced);
  auto st = TimeSetup<StreamState>(&rep, [&](SetupTimes* t) {
    auto s = std::make_unique<StreamState>();
    if (Status status = BuildStream(seed, s.get(), t); !status.ok()) {
      rep.Fail("setup: " + status.ToString());
      s.reset();
    }
    return s;
  });
  if (st == nullptr) return rep;
  core::PsGraphContext& ctx = *st->ctx;
  const uint64_t n = st->n;
  auto fail = [&rep](const char* what, const Status& status) {
    rep.Fail(std::string(what) + ": " + status.ToString());
    return rep;
  };

  // The job: mutation epochs with open-loop Zipfian lookups arriving
  // between them at a fixed sim-clock rate.
  std::vector<int64_t> staleness;
  int64_t last_version = st->version;
  JobTimer timer;
  for (int k = 0; k < kStreamEpochs && rep.ok; ++k) {
    Stopwatch epoch_wall;
    Stopwatch next_wall;
    const stream::MutationEpoch epoch = st->log->Next();
    rep.log_next_s += next_wall.ElapsedSeconds();
    auto r = st->pipeline->RunEpoch(epoch);
    rep.epoch_ms[static_cast<size_t>(rep.epochs++)] =
        epoch_wall.ElapsedMillis();
    rep.epoch_s += epoch_wall.ElapsedSeconds();
    if (!r.ok()) return fail("epoch", r.status());
    if (r->skipped || r->version <= last_version) {
      rep.Fail("an epoch was skipped or published no fresh version");
    }
    last_version = r->version;
    rep.work.vertices_touched += r->recompute.vertices_touched;
    rep.work.edges_processed += r->recompute.edges_processed;
    rep.work.reembed_rows += r->reembed_rows;
    staleness.insert(staleness.end(), r->staleness_ticks.begin(),
                     r->staleness_ticks.end());

    serving::LoadGenOptions load;
    load.num_requests = kLookupsPerEpoch;
    load.rate_per_sec = kLookupRatePerSec;
    load.zipfian = true;
    load.zipf_theta = 0.99;
    load.key_space = n;
    load.keys_per_request = 4;
    load.seed = seed * 1000003 + static_cast<uint64_t>(k);
    load.start_sec = sim::SimClock::SecondsOf(
        ctx.cluster().clock().NowTicks(ctx.cluster().config().driver()));
    const std::vector<serving::ServingRequest> requests =
        serving::GenerateLoad(load);
    Stopwatch submit_wall;
    for (const serving::ServingRequest& req : requests) {
      if (Status status = st->router->Submit(req); !status.ok()) {
        return fail("submit", status);
      }
    }
    // Drain before the next epoch so no lookup waits out an epoch.
    if (Status status = st->router->Flush(); !status.ok()) {
      return fail("flush", status);
    }
    rep.submit_s += submit_wall.ElapsedSeconds();
  }
  timer.Stop(&rep);

  CaptureWork(ctx.cluster(), ctx.metrics(), ctx.rpc_telemetry(), st->scale,
              &rep.work);
  rep.work.edges = st->edges.size();
  rep.work.iterations = kStreamEpochs;
  rep.work.num_vertices = n;
  std::vector<int64_t> latency;
  uint64_t torn = 0;
  uint64_t failed = 0;
  for (const serving::RequestRecord& rec : st->router->records()) {
    if (!rec.done || rec.failed) {
      ++failed;
    } else if (rec.torn) {
      ++torn;
    } else {
      latency.push_back(rec.completion_ticks - rec.arrival_ticks);
    }
  }
  rep.work.lookups = st->router->records().size();
  rep.attempted += rep.work.lookups;
  rep.failed += failed + torn;
  if (failed + torn > 0) rep.Fail("failed or torn lookups");
  rep.work.staleness_p50_ticks = TickQuantile(staleness, 0.50);
  rep.work.staleness_p99_ticks = TickQuantile(staleness, 0.99);
  rep.work.lookup_p50_ticks = TickQuantile(latency, 0.50);
  rep.work.lookup_p99_ticks = TickQuantile(latency, 0.99);

  // Incrementally maintained ranks must match a full recompute on the
  // final mutated graph within 1% L1.
  auto inc = st->engine->ReadRanks();
  if (!inc.ok()) return fail("read ranks", inc.status());
  if (auto full = st->engine->RecomputeFull(); !full.ok()) {
    return fail("check recompute", full.status());
  }
  auto want = st->engine->ReadRanks();
  if (!want.ok()) return fail("read ranks", want.status());
  const double err = RelL1(*inc, *want);
  if (!(err < 1e-2)) {
    char buf[128];
    std::snprintf(buf, sizeof(buf),
                  "incremental ranks differ from a full recompute: "
                  "rel L1 %.3g",
                  err);
    rep.Fail(buf);
  }
  return rep;
}

// ---------------------------------------------------------------------
// sage-train

/// Times forward + loss + backward of the GraphSage model directly on a
/// synthetic batch of the workload's shape (batch 64, fanouts 10/5,
/// DS3's 32 features, hidden 64, 8 classes).
double MinitorchStepMs(uint64_t seed) {
  const core::GraphSageOptions so;
  const int64_t dim = 32, classes = 8, batch = so.batch_size;
  const int64_t f1 = so.fanout1, f2 = so.fanout2;
  Rng rng(seed);
  core::SageParams params;
  params.w1 = minitorch::Tensor::Randn(2 * dim, so.hidden_dim, rng, true);
  params.w2 = minitorch::Tensor::Randn(2 * so.hidden_dim, classes, rng, true);
  core::SageBatch b;
  const int64_t nodes1 = batch * (1 + f1);
  const int64_t rows = nodes1 * (1 + f2);
  b.features = minitorch::Tensor::Randn(rows, dim, rng);
  b.batch_size = batch;
  for (int64_t i = 0; i < nodes1; ++i) {
    b.nodes1.push_back(i);
    std::vector<int64_t> seg;
    for (int64_t j = 0; j < f2; ++j) seg.push_back(nodes1 + i * f2 + j);
    b.seg1.push_back(std::move(seg));
  }
  for (int64_t i = 0; i < batch; ++i) {
    std::vector<int64_t> seg;
    for (int64_t j = 0; j < f1; ++j) seg.push_back(batch + i * f1 + j);
    b.seg2.push_back(std::move(seg));
    b.labels.push_back(static_cast<int32_t>(i % classes));
  }
  std::vector<double> ms;
  for (int s = 0; s < kMinitorchSteps; ++s) {
    params.w1.ZeroGrad();
    params.w2.ZeroGrad();
    Stopwatch step;
    minitorch::Tensor logits = core::SageForward(params, b);
    minitorch::Tensor loss = minitorch::SoftmaxCrossEntropy(logits, b.labels);
    loss.Backward();
    ms.push_back(step.ElapsedMillis());
  }
  return Median(ms);
}

struct SageState {
  graph::LabeledGraph g;
  double scale = 1.0;
  std::unique_ptr<core::PsGraphContext> ctx;
};

Rep RunSageTrain(uint64_t seed, bool traced) {
  Rep rep;
  rep.traced = traced;
  SetTraceEnv(traced);
  auto st = TimeSetup<SageState>(&rep, [&](SetupTimes* t) {
    auto s = std::make_unique<SageState>();
    const uint64_t denom = 1000;
    const graph::DatasetInfo info = graph::Ds3MiniInfo(denom);
    Stopwatch gen;
    s->g = graph::MakeDs3Mini(info, seed);
    t->generate_s = gen.ElapsedSeconds();
    // Table I geometry: 30 executors + 30 servers, 10 GB each, scaled.
    // Features and adjacency are staged inside GraphSage itself.
    s->scale = info.paper_scale();
    core::PsGraphContext::Options opts;
    opts.cluster.num_executors = 30;
    opts.cluster.num_servers = 30;
    opts.cluster.executor_mem_bytes =
        static_cast<uint64_t>(10.0 * static_cast<double>(1ull << 30) / denom);
    opts.cluster.server_mem_bytes = opts.cluster.executor_mem_bytes;
    opts.cluster.workload_scale = s->scale;
    auto ctx = core::PsGraphContext::Create(opts);
    if (!ctx.ok()) {
      rep.Fail("context: " + ctx.status().ToString());
      return std::unique_ptr<SageState>();
    }
    s->ctx = std::move(*ctx);
    return s;
  });
  if (st == nullptr) return rep;

  core::GraphSageOptions so;
  so.epochs = kSageEpochs;
  so.seed = seed;
  JobTimer timer;
  auto result = core::GraphSage(*st->ctx, st->g, so);
  timer.Stop(&rep);
  if (!result.ok()) {
    rep.Fail("graphsage: " + result.status().ToString());
    return rep;
  }
  CaptureWork(st->ctx->cluster(), st->ctx->metrics(),
              st->ctx->rpc_telemetry(), st->scale, &rep.work);
  rep.work.edges = st->g.edges.size();
  rep.work.iterations = result->epochs;
  rep.work.test_accuracy = result->test_accuracy;
  if (traced) rep.minitorch_step_ms = MinitorchStepMs(seed);
  if (!std::isfinite(result->final_train_loss)) {
    rep.Fail("training loss is not finite");
  } else if (!(result->test_accuracy >= kSageAccuracyFloor)) {
    char buf[96];
    std::snprintf(buf, sizeof(buf), "test accuracy %.4f below floor %.2f",
                  result->test_accuracy, kSageAccuracyFloor);
    rep.Fail(buf);
  }
  return rep;
}

// ---------------------------------------------------------------------
// Driver.

struct Args {
  std::string workload;
  uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  size_t threads = 0;  ///< 0 = min(nproc, kPinnedParallelism)
  int min_reps = 3;
};

[[noreturn]] void Usage(const char* msg) {
  std::fprintf(stderr,
               "psg_perfbench: %s\nusage: psg_perfbench --workload "
               "{ps-pagerank|gx-pagerank|stream-serve|sage-train} "
               "--seed N --seconds S --trace 0|1 [--threads T] "
               "[--min-reps R]\n",
               msg);
  std::exit(2);
}

Args ParseArgs(int argc, char** argv) {
  Args a;
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    if (i + 1 >= argc) Usage(("missing value for " + flag).c_str());
    const std::string value = argv[++i];
    char* end = nullptr;
    if (flag == "--workload") {
      a.workload = value;
    } else if (flag == "--seed") {
      a.seed = std::strtoull(value.c_str(), &end, 10);
    } else if (flag == "--seconds") {
      a.seconds = std::strtod(value.c_str(), &end);
    } else if (flag == "--trace") {
      a.trace = value == "1";
      if (value != "0" && value != "1") Usage("--trace takes 0 or 1");
    } else if (flag == "--threads") {
      a.threads = std::strtoull(value.c_str(), &end, 10);
    } else if (flag == "--min-reps") {
      a.min_reps = static_cast<int>(std::strtol(value.c_str(), &end, 10));
    } else {
      Usage(("unknown flag " + flag).c_str());
    }
    if (end != nullptr && *end != '\0') {
      Usage(("bad value for " + flag + ": " + value).c_str());
    }
  }
  if (a.workload.empty()) Usage("--workload is required");
  if (!(a.seconds > 0)) Usage("--seconds must be positive");
  if (a.min_reps < 1) Usage("--min-reps must be at least 1");
  return a;
}

std::string Num(double v) {
  char buf[40];
  std::snprintf(buf, sizeof(buf), "%.17g", std::isfinite(v) ? v : 0.0);
  return buf;
}

class MetricsJson {
 public:
  void Add(const std::string& name, double value, const char* unit) {
    if (!body_.empty()) body_ += ", ";
    body_ += "\"" + name + "\": {\"value\": " + Num(value) +
             ", \"unit\": \"" + unit + "\"}";
  }
  std::string str() const { return "{" + body_ + "}"; }

 private:
  std::string body_;
};

double Share(uint64_t num, uint64_t den) {
  return den == 0 ? 0.0
                  : static_cast<double>(num) / static_cast<double>(den);
}

/// Sim seconds at paper scale (the benches' "repro(sim)" convention);
/// stream-serve has no paper geometry and reports them unscaled.
double PaperSeconds(const Work& w, int64_t ticks) {
  return sim::SimClock::SecondsOf(ticks) * w.paper_scale;
}

/// Highest whole percentile with at least 10 samples beyond it; returns
/// (percentile, value) or (0, 0) with fewer than 11 samples.
std::pair<int, double> Tail(std::vector<double> v) {
  if (v.size() < 11) return {0, 0.0};
  std::sort(v.begin(), v.end());
  const size_t n = v.size();
  const int pct = static_cast<int>((100 * (n - 10)) / n);
  // Nearest-rank: the smallest value with at least pct% at or below it.
  const size_t rank = (static_cast<size_t>(pct) * n + 99) / 100;
  return {pct, v[std::max<size_t>(rank, 1) - 1]};
}

using RepFn = Rep (*)(uint64_t seed, bool traced);

/// Runs one repetition in a child process, so every repetition starts
/// from a fresh heap and reports its own peak RSS (a process's
/// ru_maxrss only grows, so in-process repetitions could only report
/// the maximum over all of them, the noisiest statistic there is). The
/// parent never starts the worker pool, so forking it is safe; the child
/// starts the pool before anything is timed.
Rep RunIsolated(RepFn run, uint64_t seed, bool traced, int cpu) {
  Rep rep;
  rep.traced = traced;
  int fds[2];
  if (pipe(fds) != 0) {
    rep.Fail(std::string("pipe: ") + std::strerror(errno));
    return rep;
  }
  std::fflush(stdout);
  std::fflush(stderr);
  const pid_t pid = fork();
  if (pid < 0) {
    rep.Fail(std::string("fork: ") + std::strerror(errno));
    close(fds[0]);
    close(fds[1]);
    return rep;
  }
  if (pid == 0) {
    close(fds[0]);
    if (cpu >= 0) {
      cpu_set_t set;
      CPU_ZERO(&set);
      CPU_SET(cpu, &set);
      if (sched_setaffinity(0, sizeof(set), &set) != 0) _exit(1);
    }
    if (GlobalParallelism() > 1) GlobalThreadPool();
    const Rep result = run(seed, traced);
    const char* p = reinterpret_cast<const char*>(&result);
    size_t left = sizeof(result);
    while (left > 0) {
      const ssize_t n = write(fds[1], p, left);
      if (n < 0 && errno == EINTR) continue;
      if (n <= 0) _exit(1);
      p += n;
      left -= static_cast<size_t>(n);
    }
    _exit(0);
  }
  close(fds[1]);
  Rep got;
  char* p = reinterpret_cast<char*>(&got);
  size_t have = 0;
  while (have < sizeof(got)) {
    const ssize_t n = read(fds[0], p + have, sizeof(got) - have);
    if (n < 0 && errno == EINTR) continue;
    if (n <= 0) break;
    have += static_cast<size_t>(n);
  }
  close(fds[0]);
  int status = 0;
  rusage ru{};
  while (wait4(pid, &status, 0, &ru) < 0 && errno == EINTR) {
  }
  if (have != sizeof(got) || !WIFEXITED(status) ||
      WEXITSTATUS(status) != 0) {
    rep.Fail("repetition process died (status " + std::to_string(status) +
             ")");
    return rep;
  }
  got.peak_rss_mb = static_cast<double>(ru.ru_maxrss) / 1024.0;  // KiB
  return got;
}

int Main(int argc, char** argv) {
  const Args args = ParseArgs(argc, argv);
  RepFn run = nullptr;
  if (args.workload == "ps-pagerank") {
    run = RunPsPageRank;
  } else if (args.workload == "gx-pagerank") {
    run = RunGxPageRank;
  } else if (args.workload == "stream-serve") {
    run = RunStreamServe;
  } else if (args.workload == "sage-train") {
    run = RunSageTrain;
  } else {
    Usage(("unknown workload " + args.workload).c_str());
  }

  const long nproc = sysconf(_SC_NPROCESSORS_ONLN);
  const size_t pinned =
      args.threads > 0 ? args.threads
                       : static_cast<size_t>(
                             std::clamp<long>(nproc, 1, kPinnedParallelism));
  SetGlobalParallelism(pinned);
  const char* commit = std::getenv("PSG_BENCH_COMMIT");
  std::printf("env: nproc=%ld parallelism=%zu build=%s optimized=%d "
              "compiler=\"%s\" commit=%s\n",
              nproc, GlobalParallelism(), PSG_BENCH_BUILD_TYPE,
              kOptimized ? 1 : 0, __VERSION__,
              commit != nullptr ? commit : "unknown");
  if (!kOptimized) {
    std::fprintf(stderr,
                 "psg_perfbench: built without optimization (build type "
                 "'%s'); refusing to measure. Configure with "
                 "-DCMAKE_BUILD_TYPE=Release.\n",
                 PSG_BENCH_BUILD_TYPE);
    return 3;
  }
  std::fflush(stdout);

  // A single-threaded repetition is pinned to one of the allowed CPUs,
  // taking them in turn. On a shared host each virtual CPU runs at the
  // speed its physical core's other tenants leave it, and an unpinned
  // process tends to stay on one CPU for a whole run, so a run measured
  // whichever CPU it landed on. Taking every CPU in turn puts that
  // difference inside each run, where the statistics over repetitions
  // absorb it.
  std::vector<int> cpus;
  cpu_set_t allowed;
  if (GlobalParallelism() == 1 &&
      sched_getaffinity(0, sizeof(allowed), &allowed) == 0) {
    for (int c = 0; c < CPU_SETSIZE; ++c) {
      if (CPU_ISSET(c, &allowed)) cpus.push_back(c);
    }
  }
  size_t plain_turn = 0;
  size_t traced_turn = 0;
  // Closed loop: one repetition at a time until the time is up. After the
  // minimum, a repetition starts only if one of median length still ends
  // inside --seconds, so a run lasts about --seconds. The traced run
  // alternates untraced and traced repetitions so that
  // trace.overhead_frac compares like with like.
  std::vector<Rep> reps;
  std::vector<double> rep_seconds;
  Stopwatch total;
  while (static_cast<int>(reps.size()) < args.min_reps * (args.trace ? 2 : 1) ||
         total.ElapsedSeconds() + Median(rep_seconds) < args.seconds) {
    Stopwatch rep_wall;
    const bool traced = args.trace && reps.size() % 2 == 1;
    size_t& turn = traced ? traced_turn : plain_turn;
    const int cpu = cpus.empty() ? -1 : cpus[turn++ % cpus.size()];
    reps.push_back(RunIsolated(run, args.seed, traced, cpu));
    rep_seconds.push_back(rep_wall.ElapsedSeconds());
    const Rep& r = reps.back();
    std::printf("rep %zu%s: cpu#%d  setup %.4f s  job %.4f s  cpu %.3f s  "
                "makespan %lld ticks  %s\n",
                reps.size(), traced ? " (traced)" : "", cpu, r.setup_s,
                r.job_wall_s, r.cpu_s,
                static_cast<long long>(r.work.makespan_ticks),
                r.ok ? "ok" : (std::string("FAILED: ") + r.why).c_str());
    if (!r.ok) std::fprintf(stderr, "psg_perfbench: %s\n", r.why);
    std::fflush(stdout);
  }

  uint64_t attempted = 0;
  uint64_t failed = 0;
  for (const Rep& r : reps) {
    attempted += r.attempted;
    failed += r.failed + (r.ok || r.failed > 0 ? 0 : 1);
  }
  // Determinism: every repetition of the same seed must reproduce the
  // first one's sim quantities and work counts exactly.
  const auto signature = reps.front().work.Signature();
  for (size_t i = 1; i < reps.size(); ++i) {
    if (reps[i].ok && reps.front().ok &&
        reps[i].work.Signature() != signature) {
      std::fprintf(stderr,
                   "psg_perfbench: repetition %zu's sim metrics or work "
                   "counts differ from repetition 1\n",
                   i + 1);
      ++failed;
    }
  }

  std::vector<const Rep*> plain, traced;
  for (const Rep& r : reps) (r.traced ? traced : plain).push_back(&r);
  auto quantile_of = [](const std::vector<const Rep*>& rs,
                        const std::function<double(const Rep&)>& f,
                        double q) {
    std::vector<double> v;
    for (const Rep* r : rs) v.push_back(f(*r));
    return Quantile(std::move(v), q);
  };
  auto median_of = [&](const std::vector<const Rep*>& rs,
                       const std::function<double(const Rep&)>& f) {
    return quantile_of(rs, f, 0.5);
  };
  // The end-to-end wall-clock figures are the lower quartile of the
  // untraced repetitions (the median of their faster half). Other tenants
  // of a shared host only ever add time, and on the host this was tuned
  // on they did so in two states: a repetition ran at full speed or about
  // 1.5x slower. The median flips from one state to the other once about
  // half of a run's repetitions are slowed; the lower quartile stays on
  // the fast one until three quarters are.
  auto wall_of = [&](const std::vector<const Rep*>& rs,
                     const std::function<double(const Rep&)>& f) {
    return quantile_of(rs, f, 0.25);
  };
  const Work& w = reps.front().work;

  // Workload-level figures, printed on every run.
  std::vector<double> epoch_ms;
  for (const Rep* r : plain) {
    epoch_ms.insert(epoch_ms.end(), r->epoch_ms.begin(),
                    r->epoch_ms.begin() + r->epochs);
  }
  const auto [tail_pct, tail_ms] = Tail(epoch_ms);
  auto job_of = [](const Rep& r) { return r.job_wall_s; };
  const double job_wall = wall_of(plain, job_of);
  const double job_wall_median = median_of(plain, job_of);
  std::printf("workload %s seed %llu: %zu reps, job %.4f s lower quartile, "
              "%.4f s median\n",
              args.workload.c_str(),
              static_cast<unsigned long long>(args.seed), reps.size(),
              job_wall, job_wall_median);
  if (args.workload == "stream-serve") {
    std::printf("  epoch_wall_ms p50 %.3f, p%d %.3f (n=%zu epochs); "
                "staleness p50 %.6f s p99 %.6f s; lookup p50 %.4f ms p99 "
                "%.4f ms over %llu lookups/rep\n",
                Median(epoch_ms), tail_pct, tail_ms, epoch_ms.size(),
                sim::SimClock::SecondsOf(w.staleness_p50_ticks),
                sim::SimClock::SecondsOf(w.staleness_p99_ticks),
                1e3 * sim::SimClock::SecondsOf(w.lookup_p50_ticks),
                1e3 * sim::SimClock::SecondsOf(w.lookup_p99_ticks),
                static_cast<unsigned long long>(w.lookups));
  }
  if (args.workload == "sage-train") {
    std::printf("  test_accuracy %.4f\n", w.test_accuracy);
  }
  std::printf("  error_rate %.6g (%llu failed of %llu attempted)\n",
              Share(failed, attempted),
              static_cast<unsigned long long>(failed),
              static_cast<unsigned long long>(attempted));

  MetricsJson metrics;
  if (!args.trace) {
    metrics.Add("setup_s",
                wall_of(plain, [](const Rep& r) { return r.setup_s; }), "s");
    metrics.Add("job_wall_s", job_wall, "s");
    metrics.Add("cpu_s", wall_of(plain, [](const Rep& r) { return r.cpu_s; }),
                "s");
    metrics.Add("peak_rss_mb",
                median_of(plain, [](const Rep& r) { return r.peak_rss_mb; }),
                "MB");
    metrics.Add("sim_makespan_s", PaperSeconds(w, w.makespan_ticks),
                "sim_s");
    metrics.Add("sim_peak_mem_mb",
                static_cast<double>(w.peak_mem_bytes) / (1 << 20), "MB");
  } else {
    std::printf("det {");
    for (size_t i = 0; i < signature.size(); ++i) {
      std::printf("%s\"%s\": %lld", i == 0 ? "" : ", ",
                  signature[i].first.c_str(),
                  static_cast<long long>(signature[i].second));
    }
    std::printf("}\n");

    auto t = [&](const std::function<double(const Rep&)>& f) {
      return median_of(traced, f);
    };
    const double traced_wall = t([](const Rep& r) { return r.job_wall_s; });
    metrics.Add("host.ctx_switches",
                t([](const Rep& r) { return double(r.ctx_switches); }),
                "count");
    metrics.Add("host.cpu_per_wall",
                t([](const Rep& r) { return r.cpu_s / r.job_wall_s; }),
                "ratio");
    metrics.Add("host.minor_faults",
                t([](const Rep& r) { return double(r.minor_faults); }),
                "count");
    metrics.Add("graph.generate_s",
                t([](const Rep& r) { return r.generate_s; }), "s");
    metrics.Add("storage.stage_s",
                t([](const Rep& r) { return r.stage_s; }), "s");
    metrics.Add("storage.hdfs_bytes_written",
                double(w.hdfs_bytes_written), "bytes");
    metrics.Add("storage.hdfs_bytes_read", double(w.hdfs_bytes_read),
                "bytes");
    metrics.Add("dataflow.shuffle_bytes", double(w.shuffle_bytes), "bytes");
    metrics.Add("dataflow.network_bytes", double(w.network_bytes), "bytes");
    metrics.Add("dataflow.tasks", double(w.tasks), "count");
    metrics.Add("net.rpc_calls", double(w.rpc_calls), "count");
    metrics.Add("net.rpc_req_bytes", double(w.rpc_req_bytes), "bytes");
    metrics.Add("net.rpc_resp_bytes", double(w.rpc_resp_bytes), "bytes");
    metrics.Add("net.wire_ratio", Share(w.wire_bytes, w.wire_raw_bytes),
                "ratio");
    metrics.Add("net.rpc_errors", double(w.rpc_errors), "count");
    metrics.Add("ps.rows_pulled", double(w.rows_pulled), "count");
    metrics.Add("ps.rows_pushed", double(w.rows_pushed), "count");
    metrics.Add("ps.rows_pushed_per_edge_iter",
                Share(w.rows_pushed,
                      w.edges * static_cast<uint64_t>(w.iterations)),
                "ratio");
    metrics.Add("ps.nbr_entries_pulled", double(w.nbr_entries_pulled),
                "count");
    metrics.Add("ps.edges_mutated", double(w.edges_mutated), "count");
    metrics.Add("ps.checkpoint_bytes", double(w.checkpoint_bytes), "bytes");
    metrics.Add("ps.service_s", PaperSeconds(w, w.ps_service_ticks),
                "sim_s");
    metrics.Add("minitorch.step_ms",
                t([](const Rep& r) { return r.minitorch_step_ms; }), "ms");
    metrics.Add("core.test_accuracy", w.test_accuracy, "ratio");
    metrics.Add("stream.epoch_s", t([](const Rep& r) { return r.epoch_s; }),
                "s");
    metrics.Add("stream.log_next_s",
                t([](const Rep& r) { return r.log_next_s; }), "s");
    metrics.Add("stream.epoch_wall_ms_p50", Median(epoch_ms), "ms");
    metrics.Add("stream.epoch_wall_ms_tail", tail_ms, "ms");
    metrics.Add("stream.vertices_touched", double(w.vertices_touched),
                "count");
    metrics.Add("stream.touched_frac",
                Share(w.vertices_touched,
                      w.num_vertices * static_cast<uint64_t>(w.iterations)),
                "ratio");
    metrics.Add("stream.edges_processed", double(w.edges_processed),
                "count");
    metrics.Add("stream.reembed_rows", double(w.reembed_rows), "count");
    metrics.Add("stream.staleness_p50_s",
                sim::SimClock::SecondsOf(w.staleness_p50_ticks), "sim_s");
    metrics.Add("stream.staleness_p99_s",
                sim::SimClock::SecondsOf(w.staleness_p99_ticks), "sim_s");
    metrics.Add("serving.submit_s",
                t([](const Rep& r) { return r.submit_s; }), "s");
    metrics.Add("serving.cache_hit_ratio",
                Share(w.cache_hits, w.cache_probes), "ratio");
    metrics.Add("serving.batches", double(w.batches), "count");
    metrics.Add("serving.batch_occupancy", Share(w.batch_items, w.batches),
                "count");
    metrics.Add("serving.lookup_p50_ms",
                1e3 * sim::SimClock::SecondsOf(w.lookup_p50_ticks),
                "sim_ms");
    metrics.Add("serving.lookup_p99_ms",
                1e3 * sim::SimClock::SecondsOf(w.lookup_p99_ticks),
                "sim_ms");
    static constexpr std::array<std::pair<sim::CostCategory, const char*>, 7>
        kSimLayers = {{
            {sim::CostCategory::kCompute, "sim.compute_s"},
            {sim::CostCategory::kRpcSerialize, "sim.rpc_serialize_s"},
            {sim::CostCategory::kRpcWait, "sim.rpc_wait_s"},
            {sim::CostCategory::kBarrierSkew, "sim.barrier_skew_s"},
            {sim::CostCategory::kServingQueue, "sim.serving_queue_s"},
            {sim::CostCategory::kStreamApply, "sim.stream_apply_s"},
            {sim::CostCategory::kStreamRetrain, "sim.stream_retrain_s"},
        }};
    for (const auto& [category, name] : kSimLayers) {
      metrics.Add(name,
                  PaperSeconds(w, w.categories[static_cast<size_t>(category)]),
                  "sim_s");
    }
    metrics.Add("trace.overhead_frac", traced_wall / job_wall_median - 1.0,
                "ratio");
  }

  std::printf("{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, "
              "\"metrics\": %s}\n",
              failed == 0 ? "true" : "false",
              static_cast<unsigned long long>(attempted),
              static_cast<unsigned long long>(failed),
              metrics.str().c_str());
  return 0;
}

}  // namespace
}  // namespace psgraph::perfbench

int main(int argc, char** argv) {
  return psgraph::perfbench::Main(argc, argv);
}
