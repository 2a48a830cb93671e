// DataflowContext: the mini-Spark runtime shared by all Datasets.
//
// Partitions are assigned to executors round-robin (partition p lives on
// executor p % num_executors). Actions evaluate partitions concurrently on
// the global thread pool — one task per executor, partitions in ascending
// order within a task — so each executor's simulated clock receives its
// charges from a single thread in a fixed order and the makespan math
// stays exact and deterministic at any parallelism (see DESIGN.md,
// "Execution model"). PSGRAPH_THREADS=1 forces the sequential reference
// path.

#ifndef PSGRAPH_DATAFLOW_CONTEXT_H_
#define PSGRAPH_DATAFLOW_CONTEXT_H_

#include <atomic>
#include <cstdint>
#include <vector>

#include "common/metrics.h"
#include "common/result.h"
#include "common/status.h"
#include "common/trace.h"
#include "sim/cluster.h"

namespace psgraph::dataflow {

class DataflowContext {
 public:
  explicit DataflowContext(sim::SimCluster* cluster)
      : cluster_(cluster),
        executor_epochs_(cluster ? cluster->config().num_executors : 1) {}

  sim::SimCluster* cluster() { return cluster_; }

  /// Observability sinks: the cluster's per-context registries, or the
  /// process-wide globals for clusterless unit-test contexts.
  Metrics& metrics() const {
    return cluster_ != nullptr ? cluster_->metrics() : Metrics::Global();
  }
  Tracer& tracer() const {
    return cluster_ != nullptr ? cluster_->tracer() : Tracer::Global();
  }

  int32_t num_executors() const {
    return cluster_ ? cluster_->config().num_executors : 1;
  }
  int32_t ExecutorOf(int32_t partition) const {
    return partition % num_executors();
  }

  /// CPU accounting: charges `ops` record-operations to the executor that
  /// owns `partition`.
  void ChargeCompute(int32_t partition, uint64_t ops);
  /// Disk accounting on the partition's executor.
  void ChargeDiskWrite(int32_t partition, uint64_t bytes);

  /// Reduce-side fetch of one whole shuffle, block by block in
  /// reducer-major order: block (m, r) of `block_bytes(m, r)` bytes is
  /// read from disk on map partition m's executor, then transferred to
  /// reduce partition r's executor (free when both are one executor).
  /// Clock, cost-ledger and skew charges stay per block, because tick
  /// rounding per charge is part of the simulation; the byte counters are
  /// added once per shuffle.
  template <typename BlockBytes>
  void ChargeShuffleFetch(int32_t num_maps, int32_t num_reducers,
                          const BlockBytes& block_bytes) {
    if (!cluster_ || num_maps <= 0 || num_reducers <= 0) return;
    uint64_t read = 0;
    uint64_t network = 0;
    bool remote = false;
    for (int32_t r = 0; r < num_reducers; ++r) {
      for (int32_t m = 0; m < num_maps; ++m) {
        const uint64_t bytes = block_bytes(m, r);
        ChargeDiskReadTime(m, bytes);
        read += bytes;
        if (ChargeTransferTime(m, r, bytes)) {
          remote = true;
          network += bytes;
        }
      }
    }
    metrics().Add("dataflow.shuffle_bytes_read", read);
    if (remote) metrics().Add("dataflow.network_bytes", network);
  }

  /// Memory accounting on the owning executor; OOM surfaces as
  /// MemoryLimitExceeded, which aborts the job like a Spark executor OOM.
  Status AllocatePartitionMemory(int32_t partition, uint64_t bytes,
                                 const char* what);
  void ReleasePartitionMemory(int32_t partition, uint64_t bytes);

  /// BSP barrier across all executors at a stage boundary.
  void StageBarrier();

  /// Failure-recovery epochs: bumping an executor's epoch invalidates all
  /// cached partitions living on it (Spark lineage then recomputes them).
  /// Atomic because cache slots read epochs from evaluation tasks.
  uint64_t ExecutorEpoch(int32_t executor) const {
    return executor_epochs_[executor].load(std::memory_order_acquire);
  }
  void BumpExecutorEpoch(int32_t executor) {
    executor_epochs_[executor].fetch_add(1, std::memory_order_acq_rel);
  }

 private:
  void ChargeDiskReadTime(int32_t partition, uint64_t bytes);
  /// Transfer of `bytes` from the executor of `from_part` to the executor
  /// of `to_part`. Returns false (and charges nothing) for a local fetch.
  bool ChargeTransferTime(int32_t from_part, int32_t to_part,
                          uint64_t bytes);

  sim::SimCluster* cluster_;
  // Sized once in the constructor, never resized (atomics cannot move).
  std::vector<std::atomic<uint64_t>> executor_epochs_;
};

}  // namespace psgraph::dataflow

#endif  // PSGRAPH_DATAFLOW_CONTEXT_H_
