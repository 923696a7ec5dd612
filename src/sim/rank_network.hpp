// Rank-partitioned round engine: the sharded exchange over a wire.
//
// RankNetwork models a distributed deployment of the simulator: R ranks
// (processes in a real deployment; in-process here), each owning S =
// exec.num_shards worker shards, for R × S total shards over the contiguous
// node split ShardedNetwork already computes — so each rank owns a
// contiguous node range (KaGen-style rank/size partitioning). Protocol
// compute and same-rank delivery are exactly the sharded engine's; what
// changes is EndRound, which becomes an alltoallv over the staging runs:
//
//   phase 1 (unchanged): every shard seals its per-destination PackedRow
//     runs (merged into one all-to-all buffer per source at
//     S_total >= EngineConfig::merge_runs_min_shards);
//   exchange window: every cross-rank (source shard → destination shard)
//     run is framed (sim/transport.hpp: length-prefixed header + rows +
//     its own spill entries, one contiguous buffer per run), the staged
//     originals are *poisoned*, and the frames ship collectively through
//     the pluggable Transport; received frames are checksum-verified,
//     decoded, and loaded back into the staged layout;
//   phase 2 (unchanged): every shard gathers and delivers the runs
//     addressed to it.
//
// Because the inner engine is a ShardedNetwork with R × S shards and the
// round-trip is byte-lossless, a rank-backed run is bit-identical to
// ShardedNetwork at S_total = R × S for every (R, S) — and therefore
// inherits the whole differential-harness contract (S_total = 1 ==
// SyncNetwork bit-for-bit, stats invariant at every S_total). The poisoning
// makes the transport load-bearing rather than decorative: if a frame is
// dropped, reordered across runs, or corrupted, delivery sees poisoned rows
// or DecodeFrame throws — checksums break deterministically either way.
//
// The default transport is an engine-owned LoopbackTransport; inject
// EngineConfig::transport to ship through another backend.
#pragma once

#include <cstdint>
#include <memory>
#include <span>
#include <vector>

#include "sim/engine.hpp"
#include "sim/sharded_network.hpp"
#include "sim/transport.hpp"

namespace overlay {

/// Rank-backed engine; drop-in for ShardedNetwork behind `NetworkEngine`.
/// `config.num_ranks` = R, `config.exec.num_shards` = shards per rank.
class RankNetwork {
 public:
  using Config = EngineConfig;

  explicit RankNetwork(const Config& config);

  std::size_t num_nodes() const { return inner_.num_nodes(); }
  std::size_t capacity() const { return inner_.capacity(); }
  std::size_t num_shards() const { return inner_.num_shards(); }
  std::uint64_t round() const { return inner_.round(); }

  /// Ranks actually holding shards: min(config.num_ranks, total shards) —
  /// tiny networks clamp exactly like ExecPolicy::ShardsFor does.
  std::size_t num_ranks() const { return num_ranks_; }

  /// Rank owning shard `s` (contiguous blocks, first `rank_rem_` ranks one
  /// shard larger — the same split ShardedNetwork applies to nodes).
  std::size_t RankOfShard(std::size_t s) const {
    const std::size_t big = rank_rem_ * (rank_base_ + 1);
    return s < big ? s / (rank_base_ + 1)
                   : rank_rem_ + (s - big) / rank_base_;
  }
  /// Rank owning node `v` (ranks own contiguous node ranges).
  std::size_t RankOf(NodeId v) const { return RankOfShard(inner_.ShardOf(v)); }

  // ---- the NetworkEngine surface, forwarded to the inner sharded engine --
  void Send(NodeId from, NodeId to, const Message& msg) {
    inner_.Send(from, to, msg);
  }
  void SendBatch(NodeId from, std::span<const Envelope> batch) {
    inner_.SendBatch(from, batch);
  }
  void SendFanout(NodeId from, std::span<const NodeId> targets,
                  std::uint32_t kind, std::uint64_t word0) {
    inner_.SendFanout(from, targets, kind, word0);
  }
  InboxView Inbox(NodeId v) const { return inner_.Inbox(v); }

  /// The sharded two-phase exchange with the cross-rank wire hop between
  /// the phases (see the header comment).
  void EndRound();

  void SkipRounds(std::uint64_t k) { inner_.SkipRounds(k); }
  NetworkStats stats() const { return inner_.stats(); }
  std::uint64_t arena_bytes_moved() const {
    return inner_.arena_bytes_moved();
  }

  // ---- sharded-engine passthroughs (drivers, benches, tests) ----
  std::size_t ShardOf(NodeId v) const { return inner_.ShardOf(v); }
  template <typename F>
  void ForEachNode(F&& f) {
    inner_.ForEachNode(static_cast<F&&>(f));
  }
  template <typename F>
  void ForEachShard(F&& f) {
    inner_.ForEachShard(static_cast<F&&>(f));
  }
  std::uint64_t staged_rows() const { return inner_.staged_rows(); }
  std::uint64_t staged_bytes() const { return inner_.staged_bytes(); }
  std::uint64_t local_rows() const { return inner_.local_rows(); }
  std::uint64_t merged_runs() const { return inner_.merged_runs(); }
  std::uint64_t offset_matrix_bytes() const {
    return inner_.offset_matrix_bytes();
  }
  double exchange_flush_seconds() const {
    return inner_.exchange_flush_seconds();
  }
  double exchange_deliver_seconds() const {
    return inner_.exchange_deliver_seconds();
  }
  double exchange_barrier_seconds() const {
    return inner_.exchange_barrier_seconds();
  }
  double exchange_seconds() const { return inner_.exchange_seconds(); }
  double hidden_flush_seconds() const { return inner_.hidden_flush_seconds(); }
  std::uint64_t TotalSentBy(NodeId v) const { return inner_.TotalSentBy(v); }
  std::uint64_t MaxTotalSentPerNode() const {
    return inner_.MaxTotalSentPerNode();
  }

  // ---- wire telemetry (cumulative; 0 when R = 1 — nothing ever ships) ----
  std::uint64_t frames_sent() const { return frames_sent_; }
  std::uint64_t frame_bytes_sent() const { return frame_bytes_sent_; }
  std::uint64_t wire_rows_sent() const { return wire_rows_sent_; }
  std::uint64_t wire_spill_sent() const { return wire_spill_sent_; }
  /// Cumulative wall seconds of the exchange window (serialize + transport
  /// + decode); a subset of exchange_barrier_seconds()'s residual.
  double wire_seconds() const { return wire_seconds_; }

  const Transport& transport() const { return *transport_; }

 private:
  static Config InnerConfig(const Config& config);

  /// The exchange window between the inner engine's two phases.
  void ExchangeRuns();

  ShardedNetwork inner_;
  std::size_t num_ranks_;   ///< effective rank count (clamped)
  std::size_t rank_base_;   ///< shards per rank; first rank_rem_ get +1
  std::size_t rank_rem_;
  Transport* transport_;    ///< injected or owned_; never null
  std::unique_ptr<Transport> owned_;

  // Hoisted exchange scratch (steady-state allocation-free up to vector
  // capacity growth inside cells).
  std::vector<std::vector<WireBytes>> outgoing_;
  std::vector<std::vector<WireBytes>> incoming_;
  std::vector<PackedRow> row_scratch_;
  std::vector<ExtWords> spill_scratch_;

  std::uint64_t frames_sent_ = 0;
  std::uint64_t frame_bytes_sent_ = 0;
  std::uint64_t wire_rows_sent_ = 0;
  std::uint64_t wire_spill_sent_ = 0;
  double wire_seconds_ = 0;
};

static_assert(NetworkEngine<RankNetwork>);

}  // namespace overlay
