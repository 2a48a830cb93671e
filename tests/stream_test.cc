// Dynamic-graph streaming tests (src/stream): the mutation log is
// deterministic and only emits valid events, ps.mutate fails loudly on
// bad deltas, incremental delta-PageRank lands on the full-recompute
// fixpoint while touching strictly fewer vertices, the freshness
// pipeline replays exactly-once across a server kill/restart, and a
// whole pipeline run is byte-identical at engine parallelism 1 vs 8.

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstring>
#include <string>
#include <unordered_set>
#include <utility>
#include <vector>

#include "common/thread_pool.h"
#include "core/psgraph_context.h"
#include "graph/types.h"
#include "ps/agent.h"
#include "stream/incremental.h"
#include "stream/mutation_log.h"
#include "stream/pipeline.h"

namespace psgraph::stream {
namespace {

core::PsGraphContext::Options SmallOptions(int32_t executors = 2,
                                           int32_t servers = 2) {
  core::PsGraphContext::Options opts;
  opts.cluster.num_executors = executors;
  opts.cluster.num_servers = servers;
  opts.cluster.executor_mem_bytes = 256ull << 20;
  opts.cluster.server_mem_bytes = 256ull << 20;
  return opts;
}

/// Ring + chord: dense ids, every vertex has out-degree 2, no self
/// loops, no duplicates — a valid MutationLog seed set.
graph::EdgeList MakeRing(uint64_t n) {
  graph::EdgeList edges;
  for (uint64_t v = 0; v < n; ++v) {
    edges.push_back({v, (v + 1) % n, 1.0f});
    edges.push_back({v, (v + 7) % n, 1.0f});
  }
  return edges;
}

MutationLogOptions LogOptions(uint64_t n) {
  MutationLogOptions mo;
  mo.seed = 11;
  mo.num_vertices = n;
  mo.mutations_per_second = 40.0;
  mo.epoch_seconds = 0.5;
  mo.delete_fraction = 0.4;
  return mo;
}

/// Applies an epoch's events to a plain edge list (reference semantics
/// for the PS-side MutateNeighbors).
void ApplyToEdgeList(const MutationEpoch& epoch, graph::EdgeList* edges) {
  for (const MutationEvent& ev : epoch.events) {
    const ps::EdgeMutation& m = ev.mutation;
    if (m.insert) {
      edges->push_back({m.src, m.dst, m.weight});
    } else {
      auto it = std::find_if(edges->begin(), edges->end(),
                             [&](const graph::Edge& e) {
                               return e.src == m.src && e.dst == m.dst;
                             });
      ASSERT_NE(it, edges->end());
      edges->erase(it);
    }
  }
}

TEST(MutationLogTest, DeterministicValidEpochs) {
  const uint64_t n = 48;
  graph::EdgeList edges = MakeRing(n);
  MutationLog a(edges, LogOptions(n));
  MutationLog b(edges, LogOptions(n));

  // Shadow semantics: track the live set alongside and check validity.
  std::vector<std::pair<uint64_t, uint64_t>> live;
  for (const graph::Edge& e : edges) live.push_back({e.src, e.dst});

  for (int k = 0; k < 6; ++k) {
    MutationEpoch ea = a.Next();
    MutationEpoch eb = b.Next();
    EXPECT_EQ(ea.epoch, k + 1);
    EXPECT_EQ(ea.epoch, eb.epoch);
    EXPECT_EQ(ea.start_ticks, eb.start_ticks);
    EXPECT_EQ(ea.end_ticks, eb.end_ticks);
    ASSERT_EQ(ea.events.size(), eb.events.size());
    EXPECT_FALSE(ea.events.empty());

    std::unordered_set<uint64_t> touched;
    int64_t prev_arrival = ea.start_ticks;
    for (size_t i = 0; i < ea.events.size(); ++i) {
      const ps::EdgeMutation& m = ea.events[i].mutation;
      const ps::EdgeMutation& m2 = eb.events[i].mutation;
      EXPECT_EQ(m.src, m2.src);
      EXPECT_EQ(m.dst, m2.dst);
      EXPECT_EQ(m.insert, m2.insert);
      EXPECT_EQ(ea.events[i].arrival_ticks, eb.events[i].arrival_ticks);

      // Arrivals are inside the window and monotone.
      EXPECT_GE(ea.events[i].arrival_ticks, prev_arrival);
      EXPECT_LT(ea.events[i].arrival_ticks, ea.end_ticks);
      prev_arrival = ea.events[i].arrival_ticks;

      // Each edge at most once per epoch; inserts new, deletes live.
      const uint64_t key = m.src * n + m.dst;
      EXPECT_TRUE(touched.insert(key).second);
      EXPECT_NE(m.src, m.dst);
      auto it = std::find(live.begin(), live.end(),
                          std::make_pair(m.src, m.dst));
      if (m.insert) {
        EXPECT_EQ(it, live.end());
        live.push_back({m.src, m.dst});
      } else {
        ASSERT_NE(it, live.end());
        live.erase(it);
      }
    }
  }
  EXPECT_EQ(a.live_edges(), live.size());
}

TEST(MutateNeighborsTest, DeleteOfNonexistentEdgeFailsLoudly) {
  auto ctx_or = core::PsGraphContext::Create(SmallOptions());
  PSG_CHECK_OK(ctx_or.status());
  auto& ctx = **ctx_or;
  const uint64_t n = 16;
  auto adj = LoadMutableAdjacency(ctx, MakeRing(n), n, "adj");
  PSG_CHECK_OK(adj.status());
  ps::PsAgent agent(&ctx.ps(), ctx.cluster().config().driver());

  // DELETE of an edge that was never inserted: loud NotFound naming it.
  Status s = agent.MutateNeighbors(
      *adj, {{/*src=*/3, /*dst=*/5, 1.0f, /*insert=*/false}});
  EXPECT_FALSE(s.ok());
  EXPECT_NE(s.message().find("nonexistent edge"), std::string::npos)
      << s.message();
  EXPECT_NE(s.message().find("3"), std::string::npos) << s.message();

  // DELETE from a source with no adjacency entry at all.
  s = agent.MutateNeighbors(
      *adj, {{/*src=*/n + 100, /*dst=*/0, 1.0f, /*insert=*/false}});
  EXPECT_FALSE(s.ok());
  EXPECT_NE(s.message().find("no adjacency"), std::string::npos)
      << s.message();

  // Duplicate INSERT of a live edge is rejected too.
  s = agent.MutateNeighbors(
      *adj, {{/*src=*/3, /*dst=*/4, 1.0f, /*insert=*/true}});
  EXPECT_FALSE(s.ok());
  EXPECT_NE(s.message().find("duplicate"), std::string::npos)
      << s.message();

  // A valid insert-then-delete round trip still works after the errors.
  PSG_CHECK_OK(agent.MutateNeighbors(
      *adj, {{/*src=*/3, /*dst=*/5, 1.0f, /*insert=*/true}}));
  PSG_CHECK_OK(agent.MutateNeighbors(
      *adj, {{/*src=*/3, /*dst=*/5, 1.0f, /*insert=*/false}}));
}

TEST(DeltaPageRankTest, IncrementalMatchesFullOnMutatedGraph) {
  // Big enough (and a small enough epoch) that the pruned residual wave
  // dies out before wrapping the ring — the "strictly fewer vertices"
  // gate is meaningful.
  const uint64_t n = 512;
  graph::EdgeList edges = MakeRing(n);
  MutationLogOptions mo = LogOptions(n);
  mo.mutations_per_second = 4.0;  // two events in the epoch
  MutationLog log(edges, mo);
  MutationEpoch epoch = log.Next();

  // Incremental: bootstrap on the initial graph, then apply the epoch.
  auto ctx_or = core::PsGraphContext::Create(SmallOptions());
  PSG_CHECK_OK(ctx_or.status());
  auto& ctx = **ctx_or;
  auto adj = LoadMutableAdjacency(ctx, edges, n, "adj");
  PSG_CHECK_OK(adj.status());
  DeltaPageRankOptions po;
  po.tolerance = 1e-9;
  po.prune_epsilon = 1e-6;
  po.max_iterations = 100;
  auto engine = DeltaPageRankEngine::Create(&ctx, *adj, n, po, "pr");
  PSG_CHECK_OK(engine.status());
  PSG_CHECK_OK(engine->RecomputeFull().status());

  std::vector<ps::EdgeMutation> batch;
  for (const MutationEvent& ev : epoch.events) batch.push_back(ev.mutation);
  auto stats = engine->ApplyMutationsAndRecompute(batch);
  PSG_CHECK_OK(stats.status());
  EXPECT_GT(stats->vertices_touched, 0u);
  EXPECT_LT(stats->vertices_touched, n)
      << "incremental recompute must touch strictly fewer vertices";
  EXPECT_FALSE(stats->affected.empty());
  EXPECT_TRUE(std::is_sorted(stats->affected.begin(),
                             stats->affected.end()));
  auto ranks = engine->ReadRanks();
  PSG_CHECK_OK(ranks.status());

  // Reference: a full recompute on the already-mutated graph in a fresh
  // context.
  graph::EdgeList mutated = edges;
  ApplyToEdgeList(epoch, &mutated);
  auto ref_ctx_or = core::PsGraphContext::Create(SmallOptions());
  PSG_CHECK_OK(ref_ctx_or.status());
  auto& ref_ctx = **ref_ctx_or;
  auto ref_adj = LoadMutableAdjacency(ref_ctx, mutated, n, "adj");
  PSG_CHECK_OK(ref_adj.status());
  auto ref_engine =
      DeltaPageRankEngine::Create(&ref_ctx, *ref_adj, n, po, "pr");
  PSG_CHECK_OK(ref_engine.status());
  PSG_CHECK_OK(ref_engine->RecomputeFull().status());
  auto ref_ranks = ref_engine->ReadRanks();
  PSG_CHECK_OK(ref_ranks.status());

  ASSERT_EQ(ranks->size(), ref_ranks->size());
  double max_err = 0.0;
  for (size_t v = 0; v < ranks->size(); ++v) {
    max_err = std::max(max_err, std::fabs((*ranks)[v] - (*ref_ranks)[v]));
  }
  EXPECT_LT(max_err, 1e-4)
      << "incremental fixpoint must agree with a full recompute";
}

TEST(FreshnessPipelineTest, ExactlyOnceReplayAfterServerKillRestart) {
  const uint64_t n = 48;
  const int kEpochs = 4;
  graph::EdgeList edges = MakeRing(n);

  DeltaPageRankOptions po;
  po.max_iterations = 30;

  // Run the pipeline over the same deterministic log twice: once clean,
  // once with server 1 killed at epoch 3 (RunEpoch repairs it before the
  // watermark check, restoring the epoch-2 checkpoint).
  auto run = [&](bool kill) -> std::vector<double> {
    auto ctx_or = core::PsGraphContext::Create(SmallOptions());
    PSG_CHECK_OK(ctx_or.status());
    auto& ctx = **ctx_or;
    auto adj = LoadMutableAdjacency(ctx, edges, n, "adj");
    PSG_CHECK_OK(adj.status());
    auto engine = DeltaPageRankEngine::Create(&ctx, *adj, n, po, "pr");
    PSG_CHECK_OK(engine.status());
    PSG_CHECK_OK(engine->RecomputeFull().status());
    FreshnessPipeline pipeline(&ctx, &*engine, nullptr, PipelineOptions());
    PSG_CHECK_OK(pipeline.Init());
    if (kill) {
      ctx.failures().ScheduleKill(ctx.ps().ServerNode(1), /*iteration=*/3);
    }

    MutationLog log(edges, LogOptions(n));
    for (int k = 0; k < kEpochs; ++k) {
      auto r = pipeline.RunEpoch(log.Next());
      PSG_CHECK_OK(r.status());
      EXPECT_FALSE(r->skipped);
      EXPECT_GT(r->mutations, 0u);
    }
    auto wm = pipeline.Watermark();
    PSG_CHECK_OK(wm.status());
    EXPECT_EQ(*wm, kEpochs);

    // A full log replay (the post-restart path) offers every epoch
    // again; each is skipped exactly once — never re-applied.
    MutationLog replay(edges, LogOptions(n));
    for (int k = 0; k < kEpochs; ++k) {
      auto r = pipeline.RunEpoch(replay.Next());
      PSG_CHECK_OK(r.status());
      EXPECT_TRUE(r->skipped);
    }

    // Out-of-order epochs are rejected loudly, not silently applied.
    MutationLog gap(edges, LogOptions(n));
    for (int k = 0; k < kEpochs + 1; ++k) gap.Next();
    MutationEpoch future = gap.Next();  // epoch kEpochs + 2
    auto bad = pipeline.RunEpoch(future);
    EXPECT_FALSE(bad.ok());
    EXPECT_NE(bad.status().message().find("replayed in order"),
              std::string::npos);

    auto ranks = engine->ReadRanks();
    PSG_CHECK_OK(ranks.status());
    return *ranks;
  };

  std::vector<double> clean = run(/*kill=*/false);
  std::vector<double> killed = run(/*kill=*/true);
  ASSERT_EQ(clean.size(), killed.size());
  // Exactly-once: the kill/restart run converges to the same state as
  // the clean run, bit for bit (consistent rollback to the epoch-2
  // checkpoint plus deterministic re-application of epoch 3).
  EXPECT_EQ(0, std::memcmp(clean.data(), killed.data(),
                           clean.size() * sizeof(double)));
}

TEST(FreshnessPipelineTest, ByteIdenticalAcrossEngineParallelism) {
  const uint64_t n = 48;
  const int kEpochs = 3;
  graph::EdgeList edges = MakeRing(n);

  struct RunResult {
    std::vector<double> ranks;
    std::vector<float> emb;
    std::vector<int64_t> staleness;
    int64_t makespan_ticks = 0;
  };
  auto run = [&]() -> RunResult {
    auto ctx_or = core::PsGraphContext::Create(SmallOptions());
    PSG_CHECK_OK(ctx_or.status());
    auto& ctx = **ctx_or;
    auto adj = LoadMutableAdjacency(ctx, edges, n, "adj");
    PSG_CHECK_OK(adj.status());
    DeltaPageRankOptions po;
    po.max_iterations = 30;
    auto engine = DeltaPageRankEngine::Create(&ctx, *adj, n, po, "pr");
    PSG_CHECK_OK(engine.status());
    PSG_CHECK_OK(engine->RecomputeFull().status());
    ReembedOptions eo;
    eo.dim = 4;
    auto embedder = IncrementalEmbedder::Create(&ctx, *adj, n, eo, "emb");
    PSG_CHECK_OK(embedder.status());
    PSG_CHECK_OK(embedder->InitFull());
    FreshnessPipeline pipeline(&ctx, &*engine, &*embedder,
                               PipelineOptions());
    PSG_CHECK_OK(pipeline.Init());

    RunResult out;
    MutationLog log(edges, LogOptions(n));
    for (int k = 0; k < kEpochs; ++k) {
      auto r = pipeline.RunEpoch(log.Next());
      PSG_CHECK_OK(r.status());
      out.staleness.insert(out.staleness.end(), r->staleness_ticks.begin(),
                           r->staleness_ticks.end());
    }
    auto ranks = engine->ReadRanks();
    PSG_CHECK_OK(ranks.status());
    out.ranks = *ranks;
    ps::PsAgent agent(&ctx.ps(), ctx.cluster().config().driver());
    std::vector<uint64_t> keys(n);
    for (uint64_t v = 0; v < n; ++v) keys[v] = v;
    auto emb = agent.PullRows(embedder->matrix(), keys);
    PSG_CHECK_OK(emb.status());
    out.emb = *emb;
    out.makespan_ticks = ctx.cluster().clock().MakespanTicks();
    return out;
  };

  SetGlobalParallelism(1);
  RunResult t1 = run();
  SetGlobalParallelism(8);
  RunResult t8 = run();
  SetGlobalParallelism(0);  // restore the env/hardware default

  EXPECT_EQ(t1.makespan_ticks, t8.makespan_ticks);
  EXPECT_EQ(t1.staleness, t8.staleness);
  ASSERT_EQ(t1.ranks.size(), t8.ranks.size());
  EXPECT_EQ(0, std::memcmp(t1.ranks.data(), t8.ranks.data(),
                           t1.ranks.size() * sizeof(double)));
  ASSERT_EQ(t1.emb.size(), t8.emb.size());
  EXPECT_EQ(0, std::memcmp(t1.emb.data(), t8.emb.data(),
                           t1.emb.size() * sizeof(float)));
  EXPECT_FALSE(t1.staleness.empty());
  for (int64_t s : t1.staleness) EXPECT_GE(s, 0);
}

/// The re-embed kernel as it was before the dense gather: sort + unique
/// the needed rows, then one lower_bound per neighbor per column. Runs
/// `steps` smoothing steps of `dirty` over the dense rows `emb`
/// ([n x d]), every step reading the rows as they were before it.
void ReferenceReembed(const std::vector<std::vector<uint64_t>>& adj,
                      const std::vector<uint64_t>& dirty, uint32_t d,
                      float alpha, int steps, std::vector<float>* emb) {
  for (int step = 0; step < steps; ++step) {
    std::vector<uint64_t> needed = dirty;
    for (uint64_t v : dirty) {
      needed.insert(needed.end(), adj[v].begin(), adj[v].end());
    }
    std::sort(needed.begin(), needed.end());
    needed.erase(std::unique(needed.begin(), needed.end()), needed.end());
    std::vector<float> rows;
    for (uint64_t v : needed) {
      rows.insert(rows.end(), emb->begin() + v * d,
                  emb->begin() + (v + 1) * d);
    }
    auto row_of = [&](uint64_t v) -> const float* {
      const size_t i = static_cast<size_t>(
          std::lower_bound(needed.begin(), needed.end(), v) -
          needed.begin());
      return rows.data() + i * d;
    };
    std::vector<float> out(dirty.size() * d);
    for (size_t i = 0; i < dirty.size(); ++i) {
      const float* self = row_of(dirty[i]);
      float* dst = out.data() + i * d;
      const auto& nbrs = adj[dirty[i]];
      if (nbrs.empty()) {
        std::copy(self, self + d, dst);
        continue;
      }
      for (uint32_t c = 0; c < d; ++c) {
        double mean = 0.0;
        for (uint64_t u : nbrs) mean += row_of(u)[c];
        mean /= static_cast<double>(nbrs.size());
        dst[c] = (1.0f - alpha) * self[c] + alpha * static_cast<float>(mean);
      }
    }
    for (size_t i = 0; i < dirty.size(); ++i) {
      std::copy(out.begin() + i * d, out.begin() + (i + 1) * d,
                emb->begin() + dirty[i] * d);
    }
  }
}

TEST(IncrementalEmbedderTest, DenseGatherMatchesSortedLookupReference) {
  // Vertex 0 is a hub (edges to and from every other vertex), the rest a
  // ring with chords, and the last vertex is isolated (no edges at all).
  const uint64_t n = 41;
  const uint64_t isolated = n - 1;
  graph::EdgeList edges;
  for (uint64_t v = 1; v < isolated; ++v) {
    edges.push_back({0, v, 1.0f});
    edges.push_back({v, 0, 1.0f});
    edges.push_back({v, v % (isolated - 1) + 1, 1.0f});
    if (v % 3 == 0) edges.push_back({v, (v * 7) % (isolated - 1) + 1, 1.0f});
  }
  ReembedOptions eo;
  eo.dim = 5;
  eo.alpha = 0.3f;
  eo.steps = 2;
  const std::vector<uint64_t> dirty = {0, 3, 17, 22, isolated};

  struct Rows {
    std::vector<std::vector<uint64_t>> adjacency;
    std::vector<float> seeded;      // hash-seeded, before any smoothing
    std::vector<float> bootstrap;   // after InitFull
    std::vector<float> wide;        // assigned before the one-step re-embed
    std::vector<float> reembedded;  // after it
  };
  auto run = [&]() -> Rows {
    Rows out;
    auto ctx_or = core::PsGraphContext::Create(SmallOptions(3, 2));
    PSG_CHECK_OK(ctx_or.status());
    auto& ctx = **ctx_or;
    auto adj = LoadMutableAdjacency(ctx, edges, n, "adj");
    PSG_CHECK_OK(adj.status());
    ps::PsAgent agent(&ctx.ps(), ctx.cluster().config().driver());
    std::vector<uint64_t> all(n);
    for (uint64_t v = 0; v < n; ++v) all[v] = v;
    auto entries = agent.PullNeighbors(*adj, all);
    PSG_CHECK_OK(entries.status());
    for (const ps::NeighborEntry& e : *entries) {
      out.adjacency.push_back(e.neighbors);
    }
    auto pull = [&](const ps::MatrixMeta& m) {
      auto rows = agent.PullRows(m, all);
      PSG_CHECK_OK(rows.status());
      return *rows;
    };

    // The same seed with no smoothing step gives the start rows.
    ReembedOptions raw = eo;
    raw.steps = 0;
    auto seeded = IncrementalEmbedder::Create(&ctx, *adj, n, raw, "raw");
    PSG_CHECK_OK(seeded.status());
    PSG_CHECK_OK(seeded->InitFull());
    out.seeded = pull(seeded->matrix());

    auto embedder = IncrementalEmbedder::Create(&ctx, *adj, n, eo, "emb");
    PSG_CHECK_OK(embedder.status());
    PSG_CHECK_OK(embedder->InitFull());
    out.bootstrap = pull(embedder->matrix());

    // Order-sensitive rows: the hub's neighbor list is a tiny value, then
    // +2^60/-2^60 pairs. Summed in list order the tiny value is absorbed
    // and the pairs cancel to 0; summed in any other order it can survive.
    // The hub's own row is 0, so the difference outlives the mix and the
    // cast to float. One smoothing step, since a second would average the
    // huge terms into values that no longer cancel.
    const float kHuge = std::ldexp(1.0f, 60);
    out.wide.assign(n * eo.dim, 0.75f);
    for (uint64_t v = 0; v < isolated; ++v) {
      for (int c = 0; c < eo.dim; ++c) {
        float& x = out.wide[v * eo.dim + c];
        if (v == 0) {
          x = 0.0f;
        } else if (v == 1) {
          x = std::ldexp(1.0f + c, -30);
        } else {
          x = v % 2 == 0 ? kHuge : -kHuge;
        }
      }
    }
    ReembedOptions one = eo;
    one.steps = 1;
    auto wide = IncrementalEmbedder::Create(&ctx, *adj, n, one, "wide");
    PSG_CHECK_OK(wide.status());
    PSG_CHECK_OK(agent.PushAssign(wide->matrix(), all, out.wide));
    auto rewritten = wide->ReembedDirty(dirty);
    PSG_CHECK_OK(rewritten.status());
    EXPECT_EQ(*rewritten, dirty.size());
    out.reembedded = pull(wide->matrix());
    return out;
  };

  auto expect_same = [](const std::vector<float>& got,
                        const std::vector<float>& want, const char* what,
                        size_t threads) {
    ASSERT_EQ(got.size(), want.size());
    EXPECT_EQ(0, std::memcmp(got.data(), want.data(),
                             got.size() * sizeof(float)))
        << what << " rows differ from the reference at parallelism "
        << threads;
  };
  std::vector<uint64_t> all(n);
  for (uint64_t v = 0; v < n; ++v) all[v] = v;
  for (size_t threads : {1, 4}) {
    SetGlobalParallelism(threads);
    Rows rows = run();
    ASSERT_EQ(rows.adjacency.size(), n);
    EXPECT_TRUE(rows.adjacency[isolated].empty());
    EXPECT_EQ(rows.adjacency[0].size(), n - 2);

    ReferenceReembed(rows.adjacency, all, eo.dim, eo.alpha, eo.steps,
                     &rows.seeded);
    expect_same(rows.bootstrap, rows.seeded, "bootstrap", threads);
    ReferenceReembed(rows.adjacency, dirty, eo.dim, eo.alpha, /*steps=*/1,
                     &rows.wide);
    expect_same(rows.reembedded, rows.wide, "re-embedded", threads);
  }
  SetGlobalParallelism(0);
}

TEST(IncrementalEmbedderTest, OutOfRangeNeighborFailsBeforeWritingRows) {
  const uint64_t n = 16;
  auto ctx_or = core::PsGraphContext::Create(SmallOptions());
  PSG_CHECK_OK(ctx_or.status());
  auto& ctx = **ctx_or;
  auto adj = LoadMutableAdjacency(ctx, MakeRing(n), n, "adj");
  PSG_CHECK_OK(adj.status());
  ReembedOptions eo;
  eo.dim = 4;
  auto embedder = IncrementalEmbedder::Create(&ctx, *adj, n, eo, "emb");
  PSG_CHECK_OK(embedder.status());
  PSG_CHECK_OK(embedder->InitFull());

  ps::PsAgent agent(&ctx.ps(), ctx.cluster().config().driver());
  std::vector<uint64_t> all(n);
  for (uint64_t v = 0; v < n; ++v) all[v] = v;
  auto before = agent.PullRows(embedder->matrix(), all);
  PSG_CHECK_OK(before.status());

  // Vertex 5 gains a neighbor one past the id space.
  PSG_CHECK_OK(agent.PushNeighbors(*adj, {{5, {n}, {}}}));
  auto r = embedder->ReembedDirty({2, 5, 9});
  ASSERT_FALSE(r.ok());
  EXPECT_EQ(r.status().code(), StatusCode::kInvalidArgument)
      << r.status().ToString();
  EXPECT_NE(r.status().message().find("key " + std::to_string(n) +
                                      " outside the id space"),
            std::string::npos)
      << r.status().ToString();

  auto after = agent.PullRows(embedder->matrix(), all);
  PSG_CHECK_OK(after.status());
  ASSERT_EQ(before->size(), after->size());
  EXPECT_EQ(0, std::memcmp(before->data(), after->data(),
                           before->size() * sizeof(float)));

  // A dirty id outside the id space fails the same way.
  auto bad_dirty = embedder->ReembedDirty({3, n + 4});
  ASSERT_FALSE(bad_dirty.ok());
  EXPECT_EQ(bad_dirty.status().code(), StatusCode::kInvalidArgument);
  EXPECT_NE(bad_dirty.status().message().find("outside the id space"),
            std::string::npos)
      << bad_dirty.status().ToString();
}

}  // namespace
}  // namespace psgraph::stream
