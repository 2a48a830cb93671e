// Tests for the parameter server: partitioners, pull/push operators,
// neighbor tables, psFuncs, column partitioning, checkpoint/restore and
// master-driven failure recovery.

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <memory>
#include <set>
#include <string>
#include <vector>

#include "common/varint.h"
#include "common/wire.h"
#include "minitorch/nn.h"
#include "net/rpc.h"
#include "ps/agent.h"
#include "ps/context.h"
#include "ps/master.h"
#include "ps/partitioner.h"
#include "ps/server.h"
#include "ps/sync.h"
#include "sim/cluster.h"
#include "storage/hdfs.h"

namespace psgraph::ps {
namespace {

class PsTest : public ::testing::Test {
 protected:
  PsTest() {
    sim::ClusterConfig cfg;
    cfg.num_executors = 2;
    cfg.num_servers = 3;
    cfg.executor_mem_bytes = 64ull << 20;
    cfg.server_mem_bytes = 64ull << 20;
    cluster_ = std::make_unique<sim::SimCluster>(cfg);
    hdfs_ = std::make_unique<storage::Hdfs>(cluster_.get());
    fabric_ = std::make_unique<net::RpcFabric>(cluster_.get());
    ctx_ = std::make_unique<PsContext>(cluster_.get(), fabric_.get(),
                                       hdfs_.get());
    PSG_CHECK_OK(ctx_->Start());
    agent_ = std::make_unique<PsAgent>(ctx_.get(),
                                       cluster_->config().executor(0));
  }

  std::unique_ptr<sim::SimCluster> cluster_;
  std::unique_ptr<storage::Hdfs> hdfs_;
  std::unique_ptr<net::RpcFabric> fabric_;
  std::unique_ptr<PsContext> ctx_;
  std::unique_ptr<PsAgent> agent_;
};

TEST(PartitionerTest, SchemesCoverAllPartitions) {
  for (PartitionScheme scheme :
       {PartitionScheme::kHash, PartitionScheme::kRange,
        PartitionScheme::kHashRange}) {
    // Chunk small enough that hash-range has more chunks than
    // partitions.
    Partitioner part(scheme, /*key_space=*/10000, /*num_partitions=*/7,
                     /*range_chunk=*/64);
    std::set<int32_t> seen;
    for (uint64_t k = 0; k < 10000; ++k) {
      int32_t p = part.PartitionOf(k);
      ASSERT_GE(p, 0);
      ASSERT_LT(p, 7);
      seen.insert(p);
    }
    EXPECT_EQ(seen.size(), 7u) << "scheme " << (int)scheme;
  }
}

TEST(PartitionerTest, RangeIsContiguous) {
  Partitioner part(PartitionScheme::kRange, 100, 4);
  EXPECT_EQ(part.PartitionOf(0), 0);
  EXPECT_EQ(part.PartitionOf(24), 0);
  EXPECT_EQ(part.PartitionOf(25), 1);
  EXPECT_EQ(part.PartitionOf(99), 3);
}

TEST(PartitionerTest, HashRangeKeepsChunksTogether) {
  Partitioner part(PartitionScheme::kHashRange, 1 << 20, 5,
                   /*range_chunk=*/256);
  for (uint64_t base = 0; base < (1 << 20); base += 4096) {
    int32_t p = part.PartitionOf(base);
    EXPECT_EQ(part.PartitionOf(base + 255), p);
  }
}

TEST(ColumnSliceTest, CoversAllColumnsDisjointly) {
  uint32_t covered = 0;
  uint32_t prev_end = 0;
  for (int s = 0; s < 3; ++s) {
    auto [b, e] = ColumnSliceOf(10, s, 3);
    EXPECT_EQ(b, prev_end);
    covered += e - b;
    prev_end = e;
  }
  EXPECT_EQ(covered, 10u);
}

TEST_F(PsTest, PullOfUnpushedRowsReturnsInitValue) {
  auto meta = ctx_->CreateMatrix("m", 100, 2, StorageKind::kRows,
                                 Layout::kRowPartitioned,
                                 PartitionScheme::kRange, 0.5f);
  ASSERT_TRUE(meta.ok());
  auto rows = agent_->PullRows(*meta, {3, 50, 99});
  ASSERT_TRUE(rows.ok());
  ASSERT_EQ(rows->size(), 6u);
  for (float v : *rows) EXPECT_FLOAT_EQ(v, 0.5f);
}

TEST_F(PsTest, PushAddAccumulatesAcrossServers) {
  auto meta = ctx_->CreateMatrix("m", 1000, 1);
  ASSERT_TRUE(meta.ok());
  std::vector<uint64_t> keys;
  std::vector<float> vals;
  for (uint64_t k = 0; k < 1000; k += 10) {
    keys.push_back(k);
    vals.push_back(static_cast<float>(k));
  }
  ASSERT_TRUE(agent_->PushAdd(*meta, keys, vals).ok());
  ASSERT_TRUE(agent_->PushAdd(*meta, keys, vals).ok());
  auto rows = agent_->PullRows(*meta, keys);
  ASSERT_TRUE(rows.ok());
  for (size_t i = 0; i < keys.size(); ++i) {
    EXPECT_FLOAT_EQ((*rows)[i], 2.0f * keys[i]);
  }
}

TEST_F(PsTest, PushAssignOverwrites) {
  auto meta = ctx_->CreateMatrix("m", 10, 1);
  ASSERT_TRUE(meta.ok());
  ASSERT_TRUE(agent_->PushAdd(*meta, {5}, {3.0f}).ok());
  ASSERT_TRUE(agent_->PushAssign(*meta, {5}, {7.0f}).ok());
  auto rows = agent_->PullRows(*meta, {5});
  ASSERT_TRUE(rows.ok());
  EXPECT_FLOAT_EQ((*rows)[0], 7.0f);
}

TEST_F(PsTest, NeighborTableRoundTrip) {
  auto meta = ctx_->CreateMatrix("nbrs", 0, 0, StorageKind::kNeighbors,
                                 Layout::kRowPartitioned,
                                 PartitionScheme::kHash);
  ASSERT_TRUE(meta.ok());
  std::vector<graph::NeighborList> tables(3);
  tables[0] = {1, {2, 3, 4}, {}};
  tables[1] = {2, {1}, {}};
  tables[2] = {77, {1, 2}, {0.5f, 0.25f}};
  ASSERT_TRUE(agent_->PushNeighbors(*meta, tables).ok());
  auto entries = agent_->PullNeighbors(*meta, {77, 1, 999});
  ASSERT_TRUE(entries.ok());
  EXPECT_EQ((*entries)[0].neighbors, (std::vector<uint64_t>{1, 2}));
  EXPECT_EQ((*entries)[0].weights.size(), 2u);
  EXPECT_EQ((*entries)[1].neighbors, (std::vector<uint64_t>{2, 3, 4}));
  EXPECT_TRUE((*entries)[2].neighbors.empty());
}

/// The "ps.pull_nbrs" response as the handler built it from copies: each
/// key's NeighborEntry copied out of the shard (CSR image or hash map),
/// then every copy encoded.
std::vector<uint8_t> EntryCopyPullNbrsResponse(
    const MatrixShard& shard, const std::vector<uint64_t>& keys) {
  std::vector<NeighborEntry> out;
  if (shard.csr.has_value()) {
    const CsrStore& csr = *shard.csr;
    auto hint = csr.keys.begin();
    uint64_t prev_key = 0;
    for (uint64_t key : keys) {
      if (key < prev_key) hint = csr.keys.begin();
      prev_key = key;
      auto it = std::lower_bound(hint, csr.keys.end(), key);
      hint = it;
      if (it == csr.keys.end() || *it != key) {
        out.push_back({});
        continue;
      }
      size_t i = static_cast<size_t>(it - csr.keys.begin());
      NeighborEntry entry;
      entry.neighbors.assign(csr.neighbors.begin() + csr.offsets[i],
                             csr.neighbors.begin() + csr.offsets[i + 1]);
      if (!csr.weights.empty()) {
        entry.weights.assign(csr.weights.begin() + csr.offsets[i],
                             csr.weights.begin() + csr.offsets[i + 1]);
      }
      out.push_back(std::move(entry));
    }
  } else {
    for (uint64_t key : keys) {
      auto it = shard.neighbors.find(key);
      out.push_back(it != shard.neighbors.end() ? it->second
                                                : NeighborEntry{});
    }
  }
  ByteBuffer resp;
  for (const NeighborEntry& entry : out) {
    PutDeltaList(&resp, entry.neighbors);
    WriteFloatBlock(&resp, entry.weights);
  }
  return resp.data();
}

TEST_F(PsTest, PullNbrsResponseMatchesEntryCopyEncoding) {
  // "mixed" has weighted and unweighted entries (its CSR image pads the
  // unweighted ones), "plain" none; vertex 9 arrives in two pushes.
  std::vector<graph::NeighborList> mixed = {
      {1, {2, 3, 4}, {}},
      {2, {1}, {}},
      {9, {1ull << 40, 0, 7}, {0.5f, 0.25f, 2.0f}},
      {14, {}, {}},
      {77, {1, 2}, {0.5f, 0.25f}},
      {300, {299, 301, 299}, {}},
      {9, {5}, {1.5f}},
  };
  std::vector<graph::NeighborList> plain;
  for (const auto& nl : mixed) plain.push_back({nl.vertex, nl.neighbors, {}});
  const std::vector<std::vector<uint64_t>> batches = {
      {1, 2, 9, 14, 77, 300},           // sorted, as the agent sends it
      {300, 77, 5, 9, 1, 1, 999, 2},    // out of order, dupes, missing
      {12345},                          // only a missing key
      {},
  };
  for (const char* name : {"mixed", "plain"}) {
    auto meta = ctx_->CreateMatrix(name, 0, 0, StorageKind::kNeighbors,
                                   Layout::kRowPartitioned,
                                   PartitionScheme::kHash);
    ASSERT_TRUE(meta.ok());
    const auto& tables = std::string(name) == "mixed" ? mixed : plain;
    ASSERT_TRUE(agent_
                    ->PushNeighbors(*meta, std::vector<graph::NeighborList>(
                                               tables.begin(),
                                               tables.end() - 1))
                    .ok());
    ASSERT_TRUE(agent_->PushNeighbors(*meta, {tables.back()}).ok());
    for (bool frozen : {false, true}) {
      if (frozen) {
        ASSERT_TRUE(agent_->FreezeNeighbors(*meta).ok());
      }
      for (int32_t s = 0; s < ctx_->num_servers(); ++s) {
        auto shard = ctx_->server(s)->GetShard(meta->id);
        ASSERT_TRUE(shard.ok());
        ASSERT_EQ((*shard)->csr.has_value(), frozen);
        for (const auto& keys : batches) {
          ByteBuffer req;
          req.Write<MatrixId>(meta->id);
          PutDeltaList(&req, keys);
          auto resp = fabric_->Call(cluster_->config().executor(0),
                                    ctx_->ServerNode(s), "ps.pull_nbrs",
                                    req);
          ASSERT_TRUE(resp.ok()) << resp.status().ToString();
          EXPECT_EQ(*resp, EntryCopyPullNbrsResponse(**shard, keys))
              << name << " frozen=" << frozen << " server " << s
              << " batch of " << keys.size();
        }
      }
    }
  }
}

TEST_F(PsTest, ColumnPartitionedPullReassemblesFullRows) {
  auto meta = ctx_->CreateMatrix("emb", 50, 8, StorageKind::kRows,
                                 Layout::kColumnPartitioned,
                                 PartitionScheme::kRange);
  ASSERT_TRUE(meta.ok());
  std::vector<float> row(8);
  for (int c = 0; c < 8; ++c) row[c] = static_cast<float>(c + 1);
  ASSERT_TRUE(agent_->PushAdd(*meta, {7}, row).ok());
  auto rows = agent_->PullRows(*meta, {7});
  ASSERT_TRUE(rows.ok());
  for (int c = 0; c < 8; ++c) {
    EXPECT_FLOAT_EQ((*rows)[c], static_cast<float>(c + 1));
  }
}

TEST_F(PsTest, DotPartialMatchesLocalDot) {
  auto emb = ctx_->CreateMatrix("emb", 20, 6, StorageKind::kRows,
                                Layout::kColumnPartitioned,
                                PartitionScheme::kRange);
  auto ctxm = ctx_->CreateMatrix("ctx", 20, 6, StorageKind::kRows,
                                 Layout::kColumnPartitioned,
                                 PartitionScheme::kRange);
  ASSERT_TRUE(emb.ok());
  ASSERT_TRUE(ctxm.ok());
  std::vector<float> u{1, 2, 3, 4, 5, 6};
  std::vector<float> c{0.5f, -1, 2, 0, 1, -2};
  ASSERT_TRUE(agent_->PushAdd(*emb, {3}, u).ok());
  ASSERT_TRUE(agent_->PushAdd(*ctxm, {9}, c).ok());
  auto dots = agent_->DotProducts(*emb, *ctxm, {{3, 9}, {3, 3}});
  ASSERT_TRUE(dots.ok());
  double expect = 0;
  for (int i = 0; i < 6; ++i) expect += u[i] * c[i];
  EXPECT_NEAR((*dots)[0], expect, 1e-6);
  EXPECT_NEAR((*dots)[1], 0.0, 1e-9) << "unpushed ctx row dots to zero";
}

TEST_F(PsTest, PageRankAdvancePsFunc) {
  auto ranks = ctx_->CreateMatrix("r", 100, 1);
  auto deltas = ctx_->CreateMatrix("d", 100, 1);
  ASSERT_TRUE(ranks.ok());
  ASSERT_TRUE(deltas.ok());
  ASSERT_TRUE(agent_->PushAdd(*deltas, {1, 2, 3}, {0.5f, -0.25f, 1.0f})
                  .ok());
  ByteBuffer args;
  args.Write<MatrixId>(deltas->id);
  args.Write<MatrixId>(ranks->id);
  auto l1 = agent_->CallFuncSum("pagerank.advance", args);
  ASSERT_TRUE(l1.ok());
  EXPECT_NEAR(*l1, 1.75, 1e-6);
  auto r = agent_->PullRows(*ranks, {1, 2, 3});
  ASSERT_TRUE(r.ok());
  EXPECT_FLOAT_EQ((*r)[0], 0.5f);
  EXPECT_FLOAT_EQ((*r)[1], -0.25f);
  auto d = agent_->PullRows(*deltas, {1, 2, 3});
  ASSERT_TRUE(d.ok());
  for (float v : *d) EXPECT_FLOAT_EQ(v, 0.0f);
  // Second advance: nothing left.
  auto l1b = agent_->CallFuncSum("pagerank.advance", args);
  ASSERT_TRUE(l1b.ok());
  EXPECT_DOUBLE_EQ(*l1b, 0.0);
}

TEST_F(PsTest, InitFillMaterializesWholeIdSpace) {
  auto meta = ctx_->CreateMatrix("f", 64, 1);
  ASSERT_TRUE(meta.ok());
  ByteBuffer args;
  args.Write<MatrixId>(meta->id);
  args.Write<float>(0.15f);
  ASSERT_TRUE(agent_->CallFuncAll("init.fill", args).ok());
  ByteBuffer count_args;
  count_args.Write<MatrixId>(meta->id);
  auto counts = agent_->CallFuncAll("rows.count", count_args);
  ASSERT_TRUE(counts.ok());
  uint64_t total = 0;
  for (const auto& resp : *counts) {
    ByteReader reader(resp.data(), resp.size());
    uint64_t c = 0;
    ASSERT_TRUE(reader.Read(&c).ok());
    total += c;
  }
  EXPECT_EQ(total, 64u);
}

TEST_F(PsTest, InitRandnIsLayoutIndependentDeterministic) {
  auto meta = ctx_->CreateMatrix("g", 32, 4, StorageKind::kRows,
                                 Layout::kColumnPartitioned,
                                 PartitionScheme::kRange);
  ASSERT_TRUE(meta.ok());
  ByteBuffer args;
  args.Write<MatrixId>(meta->id);
  args.Write<float>(1.0f);
  args.Write<uint64_t>(99);
  ASSERT_TRUE(agent_->CallFuncAll("init.randn", args).ok());
  auto row = agent_->PullRows(*meta, {5});
  ASSERT_TRUE(row.ok());
  // Reference: the same deterministic stream.
  Rng rng(99 ^ Hash64(5));
  for (int c = 0; c < 4; ++c) {
    EXPECT_FLOAT_EQ((*row)[c], (float)rng.NextGaussian());
  }
}

TEST_F(PsTest, AdamOnPsMatchesLocalAdam) {
  auto w = ctx_->CreateMatrix("w", 4, 3);
  auto m = ctx_->CreateMatrix("w.m", 4, 3);
  auto v = ctx_->CreateMatrix("w.v", 4, 3);
  ASSERT_TRUE(w.ok() && m.ok() && v.ok());
  // Local reference.
  Rng rng(1);
  minitorch::Tensor ref =
      minitorch::Tensor::Randn(4, 3, rng, /*requires_grad=*/true);
  std::vector<uint64_t> keys{0, 1, 2, 3};
  ASSERT_TRUE(agent_->PushAssign(*w, keys, ref.data()).ok());
  minitorch::Adam adam({ref}, 0.05f);

  Rng grad_rng(2);
  for (int step = 1; step <= 5; ++step) {
    std::vector<float> grads(12);
    for (auto& g : grads) g = (float)grad_rng.NextGaussian();
    // Local step.
    auto& gr = ref.mutable_grad();
    std::copy(grads.begin(), grads.end(), gr.begin());
    adam.Step();
    adam.ZeroGrad();
    // PS step, per owning server.
    for (int32_t s = 0; s < ctx_->num_servers(); ++s) {
      std::vector<uint64_t> skeys;
      std::vector<float> sgrads;
      for (uint64_t r : keys) {
        if (ctx_->ServerOfKey(*w, r) != s) continue;
        skeys.push_back(r);
        sgrads.insert(sgrads.end(), grads.begin() + r * 3,
                      grads.begin() + (r + 1) * 3);
      }
      if (skeys.empty()) continue;
      ByteBuffer args;
      args.Write<MatrixId>(w->id);
      args.Write<MatrixId>(m->id);
      args.Write<MatrixId>(v->id);
      args.Write<float>(0.05f);
      args.Write<float>(0.9f);
      args.Write<float>(0.999f);
      args.Write<float>(1e-8f);
      args.Write<int32_t>(step);
      args.WriteVector(skeys);
      args.WriteVector(sgrads);
      ASSERT_TRUE(agent_->CallFunc(s, "adam.apply", args).ok());
    }
  }
  auto rows = agent_->PullRows(*w, keys);
  ASSERT_TRUE(rows.ok());
  for (size_t i = 0; i < rows->size(); ++i) {
    EXPECT_NEAR((*rows)[i], ref.data()[i], 1e-4) << "element " << i;
  }
}

TEST_F(PsTest, CheckpointRestoreRoundTrip) {
  auto meta = ctx_->CreateMatrix("ck", 100, 2);
  ASSERT_TRUE(meta.ok());
  ASSERT_TRUE(
      agent_->PushAdd(*meta, {1, 50, 99}, {1, 2, 3, 4, 5, 6}).ok());
  PsMaster master(ctx_.get(), "ckpt/test");
  ASSERT_TRUE(master.CheckpointAll().ok());
  // Clobber and restore.
  ASSERT_TRUE(agent_->PushAdd(*meta, {1}, {100.0f, 100.0f}).ok());
  for (int32_t s = 0; s < ctx_->num_servers(); ++s) {
    ASSERT_TRUE(ctx_->server(s)->Restore("ckpt/test").ok());
  }
  auto rows = agent_->PullRows(*meta, {1, 50, 99});
  ASSERT_TRUE(rows.ok());
  EXPECT_FLOAT_EQ((*rows)[0], 1.0f);
  EXPECT_FLOAT_EQ((*rows)[5], 6.0f);
}

TEST_F(PsTest, MasterRecoversDeadServerFromCheckpoint) {
  auto meta = ctx_->CreateMatrix("rec", 100, 1);
  ASSERT_TRUE(meta.ok());
  std::vector<uint64_t> keys;
  std::vector<float> vals;
  for (uint64_t k = 0; k < 100; ++k) {
    keys.push_back(k);
    vals.push_back(static_cast<float>(k) * 2);
  }
  ASSERT_TRUE(agent_->PushAssign(*meta, keys, vals).ok());
  PsMaster master(ctx_.get(), "ckpt/rec");
  ASSERT_TRUE(master.CheckpointAll().ok());

  sim::NodeId victim = ctx_->ServerNode(1);
  cluster_->KillNode(victim);
  EXPECT_FALSE(agent_->PullRows(*meta, keys).ok())
      << "pull must fail while a server is down";
  EXPECT_EQ(master.FindDeadServers(), std::vector<int32_t>{1});

  auto recovered = master.CheckAndRecover(RecoveryMode::kPartial);
  ASSERT_TRUE(recovered.ok());
  EXPECT_EQ(*recovered, 1);
  auto rows = agent_->PullRows(*meta, keys);
  ASSERT_TRUE(rows.ok());
  for (uint64_t k = 0; k < 100; ++k) {
    EXPECT_FLOAT_EQ((*rows)[k], static_cast<float>(k) * 2);
  }
}

TEST_F(PsTest, ConsistentRecoveryRollsBackAllServers) {
  auto meta = ctx_->CreateMatrix("cons", 30, 1);
  ASSERT_TRUE(meta.ok());
  std::vector<uint64_t> keys;
  for (uint64_t k = 0; k < 30; ++k) keys.push_back(k);
  std::vector<float> ones(30, 1.0f);
  ASSERT_TRUE(agent_->PushAssign(*meta, keys, ones).ok());
  PsMaster master(ctx_.get(), "ckpt/cons");
  ASSERT_TRUE(master.CheckpointAll().ok());

  // Post-checkpoint updates that must be rolled back everywhere.
  std::vector<float> twos(30, 2.0f);
  ASSERT_TRUE(agent_->PushAssign(*meta, keys, twos).ok());
  cluster_->KillNode(ctx_->ServerNode(0));
  auto recovered = master.CheckAndRecover(RecoveryMode::kConsistent);
  ASSERT_TRUE(recovered.ok());
  auto rows = agent_->PullRows(*meta, keys);
  ASSERT_TRUE(rows.ok());
  for (float v : *rows) {
    EXPECT_FLOAT_EQ(v, 1.0f) << "all servers must roll back";
  }
}

TEST_F(PsTest, DropMatrixReleasesMemory) {
  auto meta = ctx_->CreateMatrix("tmp", 1000, 4);
  ASSERT_TRUE(meta.ok());
  std::vector<uint64_t> keys;
  std::vector<float> vals;
  for (uint64_t k = 0; k < 1000; ++k) {
    keys.push_back(k);
    for (int c = 0; c < 4; ++c) vals.push_back(1.0f);
  }
  ASSERT_TRUE(agent_->PushAdd(*meta, keys, vals).ok());
  uint64_t used = 0;
  for (int32_t s = 0; s < ctx_->num_servers(); ++s) {
    used += cluster_->memory().Usage(ctx_->ServerNode(s));
  }
  EXPECT_GT(used, 0u);
  ASSERT_TRUE(ctx_->DropMatrix("tmp").ok());
  uint64_t after = 0;
  for (int32_t s = 0; s < ctx_->num_servers(); ++s) {
    after += cluster_->memory().Usage(ctx_->ServerNode(s));
  }
  EXPECT_EQ(after, 0u);
}

// A push that does not fit the server budget fails as a whole: no row of
// the batch is applied (ps.merge's per-server all-or-nothing contract
// rests on this), for both row layouts and both push kinds.
TEST_F(PsTest, ServerMemoryBudgetEnforced) {
  for (PartitionScheme scheme :
       {PartitionScheme::kRange, PartitionScheme::kHash}) {
    for (bool add : {true, false}) {
      sim::ClusterConfig cfg;
      cfg.num_executors = 1;
      cfg.num_servers = 1;
      cfg.server_mem_bytes = 32 << 10;
      sim::SimCluster tiny(cfg);
      net::RpcFabric fabric(&tiny);
      PsContext psctx(&tiny, &fabric, nullptr);
      ASSERT_TRUE(psctx.Start().ok());
      auto meta = psctx.CreateMatrix("big", 1 << 20, 16, StorageKind::kRows,
                                     Layout::kRowPartitioned, scheme, 0.25f);
      ASSERT_TRUE(meta.ok());
      PsAgent agent(&psctx, tiny.config().executor(0));
      std::vector<uint64_t> keys;
      std::vector<float> vals;
      for (uint64_t k = 0; k < 4096; ++k) {
        keys.push_back(k);
        for (int c = 0; c < 16; ++c) vals.push_back(1.0f);
      }
      Status st = add ? agent.PushAdd(*meta, keys, vals)
                      : agent.PushAssign(*meta, keys, vals);
      EXPECT_TRUE(st.IsMemoryLimitExceeded()) << st.ToString();
      EXPECT_EQ(tiny.memory().Usage(psctx.ServerNode(0)), 0u);
      auto rows = agent.PullRows(*meta, keys);
      ASSERT_TRUE(rows.ok()) << rows.status().ToString();
      ASSERT_EQ(rows->size(), vals.size());
      for (size_t i = 0; i < rows->size(); ++i) {
        ASSERT_EQ((*rows)[i], 0.25f) << "float " << i << " was applied";
      }
      auto shard = psctx.server(0)->GetShard(meta->id);
      ASSERT_TRUE(shard.ok());
      EXPECT_EQ((*shard)->rows.size(), 0u);
      EXPECT_EQ((*shard)->charged_bytes, 0u);
    }
  }
}

// Range-partitioned row matrices live in a dense slab per server that
// covers exactly the keys the partitioner routes there; a mis-routed key
// or one beyond num_rows is an error naming the matrix, key and server,
// and nothing of the batch is applied.
TEST_F(PsTest, SlabShardRejectsKeysItDoesNotOwn) {
  auto meta = ctx_->CreateMatrix("owned", 30, 2);
  ASSERT_TRUE(meta.ok());
  PsServer* s0 = ctx_->server(0);
  auto shard = s0->GetShard(meta->id);
  ASSERT_TRUE(shard.ok());
  ASSERT_TRUE((*shard)->rows.dense());
  EXPECT_EQ((*shard)->rows.owned_begin(), 0u);
  EXPECT_EQ((*shard)->rows.owned_end(), 10u);

  const std::vector<uint64_t> keys{3, 15};
  const std::vector<float> vals{1, 2, 3, 4};
  Status st = s0->PushAdd(meta->id, keys, vals);
  ASSERT_EQ(st.code(), StatusCode::kInvalidArgument) << st.ToString();
  EXPECT_NE(st.message().find("'owned'"), std::string::npos) << st.ToString();
  EXPECT_NE(st.message().find("key 15"), std::string::npos) << st.ToString();
  EXPECT_NE(st.message().find("server 0"), std::string::npos)
      << st.ToString();
  EXPECT_FALSE((*shard)->rows.Contains(3)) << "key 3 applied before the error";
  EXPECT_EQ(s0->PushAssign(meta->id, keys, vals).code(),
            StatusCode::kInvalidArgument);
  std::vector<float> out;
  EXPECT_EQ(s0->PullRows(meta->id, keys, &out).code(),
            StatusCode::kInvalidArgument);

  // num_rows and beyond clamp onto the last server, which holds [20, 30).
  Status beyond = agent_->PushAdd(*meta, {30}, {1, 1});
  ASSERT_EQ(beyond.code(), StatusCode::kInvalidArgument)
      << beyond.ToString();
  EXPECT_NE(beyond.message().find("key 30"), std::string::npos);
  EXPECT_NE(beyond.message().find("server 2"), std::string::npos);
  EXPECT_TRUE(agent_->PushAdd(*meta, {29}, {1, 1}).ok());

  // Hash matrices keep accepting any key on any server.
  auto hashed = ctx_->CreateMatrix("hashed", 30, 2, StorageKind::kRows,
                                   Layout::kRowPartitioned,
                                   PartitionScheme::kHash);
  ASSERT_TRUE(hashed.ok());
  EXPECT_TRUE(s0->PushAdd(hashed->id, keys, vals).ok());
}

// The slab and the hash store hold the same state the same way as far as
// anything outside the server can tell: reads of never-pushed rows,
// simulated memory, checkpoints, and snapshot export bytes.
TEST(RowStoreTest, SlabMatchesHashStore) {
  struct Stack {
    explicit Stack(PartitionScheme scheme) {
      sim::ClusterConfig cfg;
      cfg.num_executors = 1;
      cfg.num_servers = 1;
      cfg.server_mem_bytes = 64ull << 20;
      cluster = std::make_unique<sim::SimCluster>(cfg);
      hdfs = std::make_unique<storage::Hdfs>(cluster.get());
      fabric = std::make_unique<net::RpcFabric>(cluster.get());
      ctx = std::make_unique<PsContext>(cluster.get(), fabric.get(),
                                        hdfs.get());
      PSG_CHECK_OK(ctx->Start());
      auto m = ctx->CreateMatrix("w", 50000, 3, StorageKind::kRows,
                                 Layout::kRowPartitioned, scheme, -1.0f);
      PSG_CHECK_OK(m.status());
      meta = *m;
      agent = std::make_unique<PsAgent>(ctx.get(),
                                        cluster->config().executor(0));
    }
    MatrixShard* shard() { return *ctx->server(0)->GetShard(meta.id); }
    std::unique_ptr<sim::SimCluster> cluster;
    std::unique_ptr<storage::Hdfs> hdfs;
    std::unique_ptr<net::RpcFabric> fabric;
    std::unique_ptr<PsContext> ctx;
    std::unique_ptr<PsAgent> agent;
    MatrixMeta meta;
  };
  Stack slab(PartitionScheme::kRange);
  Stack hash(PartitionScheme::kHash);
  ASSERT_TRUE(slab.shard()->rows.dense());
  ASSERT_FALSE(hash.shard()->rows.dense());

  // Unsorted, with a repeated new key, spread over several slab pages.
  const std::vector<uint64_t> keys{49999, 7, 30000, 7, 12, 0, 20000};
  std::vector<float> vals;
  for (size_t i = 0; i < keys.size() * 3; ++i) vals.push_back(0.5f * i);
  for (Stack* st : {&slab, &hash}) {
    ASSERT_TRUE(st->agent->PushAdd(st->meta, keys, vals).ok());
    ASSERT_TRUE(st->agent->PushAssign(st->meta, {12}, {9, 8, 7}).ok());
    ASSERT_TRUE(st->agent->PushAdd(st->meta, {13, 0}, {1, 1, 1, 1, 1, 1})
                    .ok());
  }
  const std::vector<uint64_t> probe{0, 1, 7, 12, 13, 14, 20000, 49998,
                                    49999};
  auto slab_rows = slab.agent->PullRows(slab.meta, probe);
  auto hash_rows = hash.agent->PullRows(hash.meta, probe);
  ASSERT_TRUE(slab_rows.ok() && hash_rows.ok());
  EXPECT_EQ(*slab_rows, *hash_rows);
  for (int c = 0; c < 3; ++c) EXPECT_EQ((*slab_rows)[3 + c], -1.0f);

  const sim::NodeId node = slab.ctx->ServerNode(0);
  EXPECT_EQ(slab.shard()->rows.size(), 7u);
  EXPECT_EQ(slab.shard()->rows.size(), hash.shard()->rows.size());
  EXPECT_EQ(slab.shard()->charged_bytes, hash.shard()->charged_bytes);
  EXPECT_EQ(slab.cluster->memory().Peak(node),
            hash.cluster->memory().Peak(node));

  ByteBuffer slab_export, hash_export;
  ASSERT_TRUE(slab.ctx->server(0)->ExportMatrix(slab.meta.id, &slab_export)
                  .ok());
  ASSERT_TRUE(hash.ctx->server(0)->ExportMatrix(hash.meta.id, &hash_export)
                  .ok());
  EXPECT_EQ(slab_export.data(), hash_export.data());

  // Checkpoint, clobber, restore: same rows, same charge, still a slab.
  PsServer* server = slab.ctx->server(0);
  const uint64_t charged = slab.shard()->charged_bytes;
  ASSERT_TRUE(server->Checkpoint("ckpt/slab").ok());
  ASSERT_TRUE(slab.agent->PushAdd(slab.meta, {7, 40000}, {1, 1, 1, 1, 1, 1})
                  .ok());
  ASSERT_TRUE(server->Restore("ckpt/slab").ok());
  ASSERT_TRUE(slab.shard()->rows.dense());
  EXPECT_EQ(slab.shard()->charged_bytes, charged);
  EXPECT_EQ(slab.cluster->memory().Usage(node), charged);
  auto restored = slab.agent->PullRows(slab.meta, probe);
  ASSERT_TRUE(restored.ok());
  EXPECT_EQ(*restored, *hash_rows);
  EXPECT_FALSE(slab.shard()->rows.Contains(40000));
}

TEST(RowStoreTest, SlabAllocatesOnlyTouchedPages) {
  sim::ClusterConfig cfg;
  cfg.num_executors = 1;
  cfg.num_servers = 1;
  cfg.server_mem_bytes = 64ull << 20;
  sim::SimCluster cluster(cfg);
  net::RpcFabric fabric(&cluster);
  PsContext psctx(&cluster, &fabric, nullptr);
  ASSERT_TRUE(psctx.Start().ok());
  auto meta = psctx.CreateMatrix("sparse_ids", 1 << 20, 1);
  ASSERT_TRUE(meta.ok());
  PsAgent agent(&psctx, cluster.config().executor(0));
  const MatrixShard* shard = *psctx.server(0)->GetShard(meta->id);
  ASSERT_TRUE(shard->rows.dense());
  EXPECT_EQ(shard->rows.allocated_pages(), 0u);
  // 1-float rows: 16384 to a 64 KiB page. Keys 5 and 6 share page 0.
  ASSERT_TRUE(
      agent.PushAdd(*meta, {5, 6, 500000, (1 << 20) - 1}, {1, 2, 3, 4}).ok());
  EXPECT_EQ(shard->rows.allocated_pages(), 3u);
  EXPECT_EQ(shard->rows.size(), 4u);
  auto rows = agent.PullRows(*meta, {4, 5, 6, 500000, 500001});
  ASSERT_TRUE(rows.ok());
  EXPECT_EQ(*rows, (std::vector<float>{0, 1, 2, 3, 0}));
  EXPECT_EQ(shard->rows.allocated_pages(), 3u) << "a pull allocated a page";
}

TEST_F(PsTest, SyncControllerSspBarriersEveryNthCall) {
  SyncController ssp(cluster_.get(), SyncProtocol::kSsp, /*staleness=*/3);
  cluster_->clock().Advance(cluster_->config().executor(0), 9.0);
  ssp.IterationBarrier();  // call 1: within bound, no barrier
  EXPECT_DOUBLE_EQ(cluster_->clock().Now(cluster_->config().executor(1)),
                   0.0);
  ssp.IterationBarrier();  // call 2: still within bound
  EXPECT_DOUBLE_EQ(cluster_->clock().Now(cluster_->config().executor(1)),
                   0.0);
  ssp.IterationBarrier();  // call 3: barrier fires
  EXPECT_DOUBLE_EQ(cluster_->clock().Now(cluster_->config().executor(1)),
                   9.0);
  EXPECT_GT(ssp.total_wait(), 0.0);
}

TEST_F(PsTest, SyncControllerBspVsAsp) {
  cluster_->clock().Advance(cluster_->config().executor(0), 10.0);
  SyncController asp(cluster_.get(), SyncProtocol::kAsp);
  asp.IterationBarrier();
  EXPECT_DOUBLE_EQ(cluster_->clock().Now(cluster_->config().executor(1)),
                   0.0);
  SyncController bsp(cluster_.get(), SyncProtocol::kBsp);
  bsp.IterationBarrier();
  EXPECT_DOUBLE_EQ(cluster_->clock().Now(cluster_->config().executor(1)),
                   10.0);
}

}  // namespace
}  // namespace psgraph::ps
