// Unit tests for the rank-partitioned exchange: the wire format of
// sim/transport.hpp (frame round-trips, rejection of corrupted frames), the
// LoopbackTransport cell semantics, and RankNetwork's bit-identity to the
// engines it wraps. The cross-engine grid sweeps live in
// engine_equivalence_test.cpp and transport_fuzz_test.cpp; this file pins
// the byte-level mechanics those sweeps rely on.
#include "sim/rank_network.hpp"

#include <gtest/gtest.h>

#include <cstdint>
#include <vector>

#include "common/check.hpp"
#include "sim/inbox_checksum.hpp"
#include "sim/network.hpp"
#include "sim/sharded_network.hpp"
#include "sim/transport.hpp"

namespace overlay {
namespace {

// ---- wire format -----------------------------------------------------------

std::vector<PackedRow> SampleRows() {
  // Two one-word rows and one spill-carrying row (ext = 0 points at the
  // run's own spill buffer, positional as on the real staging hop).
  return {
      PackedRow{.to = 7, .src = 3, .kind = 1, .ext = kNoExt, .word0 = 0xA1},
      PackedRow{.to = 9, .src = 3, .kind = 2, .ext = 0, .word0 = 0xB2},
      PackedRow{.to = 7, .src = 4, .kind = 1, .ext = kNoExt, .word0 = 0xC3},
  };
}

std::vector<ExtWords> SampleSpill() {
  ExtWords e;
  e.w[0] = 0x1111222233334444ULL;  // a genuinely multi-word payload
  e.w[1] = 0x5555666677778888ULL;
  return {e};
}

TEST(WireFormat, FrameRoundTripPreservesRowsAndSpill) {
  const std::vector<PackedRow> rows = SampleRows();
  const std::vector<ExtWords> spill = SampleSpill();

  WireBytes buf;
  EncodeFrame(/*src_shard=*/2, /*dst_shard=*/5, /*dst_rank=*/1,
              /*round=*/42, rows, spill, buf);
  EXPECT_EQ(buf.size(), kFrameHeaderBytes + rows.size() * kPackedRowBytes +
                            spill.size() * kSpillBytes);

  FrameHeader header;
  std::vector<PackedRow> got_rows;
  std::vector<ExtWords> got_spill;
  const std::size_t next = DecodeFrame(buf, 0, header, got_rows, got_spill);
  EXPECT_EQ(next, buf.size());
  EXPECT_EQ(header.magic, kFrameMagic);
  EXPECT_EQ(header.src_shard, 2u);
  EXPECT_EQ(header.dst_shard, 5u);
  EXPECT_EQ(header.dst_rank, 1u);
  EXPECT_EQ(header.round, 42u);
  EXPECT_EQ(header.row_count, rows.size());
  EXPECT_EQ(header.spill_count, spill.size());
  EXPECT_EQ(header.checksum, FramePayloadChecksum(rows, spill));

  ASSERT_EQ(got_rows.size(), rows.size());
  for (std::size_t i = 0; i < rows.size(); ++i) {
    EXPECT_EQ(got_rows[i].to, rows[i].to) << i;
    EXPECT_EQ(got_rows[i].src, rows[i].src) << i;
    EXPECT_EQ(got_rows[i].kind, rows[i].kind) << i;
    EXPECT_EQ(got_rows[i].ext, rows[i].ext) << i;
    EXPECT_EQ(got_rows[i].word0, rows[i].word0) << i;
  }
  EXPECT_EQ(got_spill, spill);
}

TEST(WireFormat, BackToBackFramesDecodeSequentially) {
  // One cell ships many runs back-to-back; every section is an 8-byte
  // multiple so each successive header stays 8-aligned. The middle frame is
  // an empty run — a legal frame carrying only its header.
  const std::vector<PackedRow> rows = SampleRows();
  const std::vector<ExtWords> spill = SampleSpill();

  WireBytes buf;
  EncodeFrame(0, 3, 1, 7, rows, spill, buf);
  const std::size_t first_end = buf.size();
  EncodeFrame(1, 3, 1, 7, {}, {}, buf);  // empty run
  const std::size_t second_end = buf.size();
  EncodeFrame(2, 4, 1, 7, rows, {}, buf);

  EXPECT_EQ(first_end % 8, 0u) << "frame sections must keep 8-alignment";
  EXPECT_EQ(second_end - first_end, kFrameHeaderBytes);

  FrameHeader header;
  std::vector<PackedRow> got_rows;
  std::vector<ExtWords> got_spill;
  std::size_t offset = DecodeFrame(buf, 0, header, got_rows, got_spill);
  EXPECT_EQ(offset, first_end);
  EXPECT_EQ(header.src_shard, 0u);

  offset = DecodeFrame(buf, offset, header, got_rows, got_spill);
  EXPECT_EQ(offset, second_end);
  EXPECT_EQ(header.src_shard, 1u);
  EXPECT_EQ(header.row_count, 0u);
  EXPECT_EQ(header.spill_count, 0u);

  offset = DecodeFrame(buf, offset, header, got_rows, got_spill);
  EXPECT_EQ(offset, buf.size());
  EXPECT_EQ(header.src_shard, 2u);
  // Decoding *appends*: rows from frames 1 and 3, spill from frame 1 only.
  EXPECT_EQ(got_rows.size(), 2 * rows.size());
  EXPECT_EQ(got_spill.size(), spill.size());
}

TEST(WireFormat, CorruptedChecksumFrameIsRejected) {
  const std::vector<PackedRow> rows = SampleRows();
  const std::vector<ExtWords> spill = SampleSpill();
  WireBytes buf;
  EncodeFrame(0, 1, 1, 3, rows, spill, buf);

  // Flip one payload byte: the checksum no longer matches.
  WireBytes corrupt = buf;
  corrupt[kFrameHeaderBytes + 5] ^= 0x40;
  FrameHeader header;
  std::vector<PackedRow> got_rows;
  std::vector<ExtWords> got_spill;
  EXPECT_THROW(DecodeFrame(corrupt, 0, header, got_rows, got_spill),
               ContractViolation);
  // A rejected frame must not leak partial payload to the caller.
  EXPECT_TRUE(got_rows.empty());
  EXPECT_TRUE(got_spill.empty());

  // Corrupting the spill section is caught too — the checksum spans it.
  corrupt = buf;
  corrupt[buf.size() - 1] ^= 0x01;
  EXPECT_THROW(DecodeFrame(corrupt, 0, header, got_rows, got_spill),
               ContractViolation);
}

TEST(WireFormat, TruncatedAndBadMagicFramesAreRejected) {
  const std::vector<PackedRow> rows = SampleRows();
  WireBytes buf;
  EncodeFrame(0, 1, 1, 3, rows, {}, buf);

  FrameHeader header;
  std::vector<PackedRow> got_rows;
  std::vector<ExtWords> got_spill;

  // Truncated mid-header and mid-payload.
  for (const std::size_t len : {kFrameHeaderBytes - 1, buf.size() - 1}) {
    WireBytes cut(buf.begin(), buf.begin() + static_cast<std::ptrdiff_t>(len));
    EXPECT_THROW(DecodeFrame(cut, 0, header, got_rows, got_spill),
                 ContractViolation)
        << "length " << len;
  }

  // Wrong magic: the buffer is not a frame at all.
  WireBytes bad = buf;
  bad[0] ^= 0xFF;
  EXPECT_THROW(DecodeFrame(bad, 0, header, got_rows, got_spill),
               ContractViolation);

  // An offset past the end is truncation, not silence.
  EXPECT_THROW(DecodeFrame(buf, buf.size() - 8, header, got_rows, got_spill),
               ContractViolation);
}

// ---- transports ------------------------------------------------------------

TEST(LoopbackTransportTest, DeliversEveryCellVerbatim) {
  LoopbackTransport transport(3);
  std::vector<std::vector<WireBytes>> outgoing(3, std::vector<WireBytes>(3));
  std::vector<std::vector<WireBytes>> incoming(3, std::vector<WireBytes>(3));
  std::uint64_t expect_bytes = 0;
  for (std::size_t r = 0; r < 3; ++r) {
    for (std::size_t q = 0; q < 3; ++q) {
      if (q == r) continue;  // diagonal must stay empty
      outgoing[r][q] = {static_cast<std::uint8_t>(0x10 * r + q),
                        static_cast<std::uint8_t>(r),
                        static_cast<std::uint8_t>(q)};
      expect_bytes += outgoing[r][q].size();
    }
  }
  // Stale incoming bytes must be overwritten, not appended to.
  incoming[0][1] = {0xDE, 0xAD};

  transport.AllToAllv(outgoing, incoming);
  for (std::size_t r = 0; r < 3; ++r) {
    for (std::size_t q = 0; q < 3; ++q) {
      EXPECT_EQ(incoming[q][r], outgoing[r][q]) << r << "->" << q;
    }
  }
  EXPECT_EQ(transport.bytes_shipped(), expect_bytes);

  // A second round accumulates the byte counter.
  transport.AllToAllv(outgoing, incoming);
  EXPECT_EQ(transport.bytes_shipped(), 2 * expect_bytes);
}

TEST(LoopbackTransportTest, RejectsNonEmptyDiagonal) {
  LoopbackTransport transport(2);
  std::vector<std::vector<WireBytes>> outgoing(2, std::vector<WireBytes>(2));
  std::vector<std::vector<WireBytes>> incoming(2, std::vector<WireBytes>(2));
  outgoing[1][1] = {0x01};  // same-rank runs never leave the engine
  EXPECT_THROW(transport.AllToAllv(outgoing, incoming), ContractViolation);
}

// ---- the rank engine -------------------------------------------------------

/// Node-major hash-driven workload (the equivalence harness's idiom): every
/// node sends `sends` messages per round to hashed destinations, some with
/// multi-word spill payloads; returns the per-round inbox checksum fold.
template <typename Net>
std::uint64_t Drive(Net& net, std::size_t rounds, std::size_t sends,
                    std::uint64_t salt) {
  const std::size_t n = net.num_nodes();
  std::uint64_t h = kFnvOffsetBasis;
  for (std::size_t round = 0; round < rounds; ++round) {
    for (NodeId v = 0; v < n; ++v) {
      for (std::size_t k = 0; k < sends; ++k) {
        const std::uint64_t x =
            Fnv1a(Fnv1a(Fnv1a(salt, round), v), k) | 1;
        Message m;
        m.kind = static_cast<std::uint32_t>(x % 5);
        m.words[0] = x;
        if (x % 7 == 0) m.words[1] = x * 3;  // spill-carrying
        net.Send(v, static_cast<NodeId>(x % n), m);
      }
    }
    net.EndRound();
    h = ChecksumInboxes(net, h);
  }
  return h;
}

TEST(RankNetworkTest, MatchesShardedGridBitForBitWithLiveWire) {
  const std::size_t n = 40;
  const std::size_t cap = 3;
  const std::uint64_t seed = 77;
  SyncNetwork sync({.num_nodes = n, .capacity = cap, .seed = seed});
  const std::uint64_t sync_sum = Drive(sync, 8, cap, seed);
  for (const std::size_t ranks : {1, 2, 4}) {
    for (const std::size_t shards : {1, 2}) {
      ShardedNetwork sharded({.num_nodes = n, .capacity = cap, .seed = seed,
                              .exec = {.num_shards = ranks * shards}});
      const std::uint64_t want = Drive(sharded, 8, cap, seed);
      RankNetwork net({.num_nodes = n, .capacity = cap, .seed = seed,
                       .exec = {.num_shards = shards}, .num_ranks = ranks});
      EXPECT_EQ(net.num_ranks(), ranks);
      const std::uint64_t got = Drive(net, 8, cap, seed);
      EXPECT_EQ(got, want) << "R " << ranks << " S " << shards;
      if (ranks * shards == 1) {
        EXPECT_EQ(got, sync_sum);
      }
      EXPECT_EQ(net.stats(), sync.stats()) << "R " << ranks << " S " << shards;
      if (ranks > 1) {
        EXPECT_GT(net.frames_sent(), 0u)
            << "cross-rank traffic must ship through the transport";
        EXPECT_EQ(net.transport().bytes_shipped(), net.frame_bytes_sent());
        EXPECT_GT(net.wire_spill_sent(), 0u) << "workload carries spill";
      } else {
        EXPECT_EQ(net.frames_sent(), 0u);
        EXPECT_EQ(net.frame_bytes_sent(), 0u);
      }
    }
  }
}

TEST(RankNetworkTest, RankOwnershipPartitionsNodesContiguously) {
  RankNetwork net({.num_nodes = 30, .capacity = 2, .seed = 1,
                   .exec = {.num_shards = 2}, .num_ranks = 3});
  ASSERT_EQ(net.num_ranks(), 3u);
  ASSERT_EQ(net.num_shards(), 6u);
  std::size_t prev = 0;
  for (NodeId v = 0; v < 30; ++v) {
    const std::size_t r = net.RankOf(v);
    EXPECT_LT(r, 3u);
    EXPECT_GE(r, prev) << "ranks must own contiguous node ranges";
    prev = r;
  }
  for (std::size_t s = 0; s < 6; ++s) {
    EXPECT_EQ(net.RankOfShard(s), s / 2) << "shard " << s;
  }
}

TEST(RankNetworkTest, ClampsRanksToTotalShards) {
  // 3 nodes cannot hold 8 ranks x 1 shard; the engine clamps like
  // ExecPolicy::ShardsFor and still runs correctly.
  RankNetwork net({.num_nodes = 3, .capacity = 2, .seed = 5,
                   .exec = {.num_shards = 1}, .num_ranks = 8});
  EXPECT_LE(net.num_ranks(), net.num_shards());
  // The bit-identity reference is the sharded engine at the *clamped* total
  // (drop choices are per-shard-RNG, so sync is only stats-equal here).
  ShardedNetwork sharded({.num_nodes = 3, .capacity = 2, .seed = 5,
                          .exec = {.num_shards = net.num_shards()}});
  const std::uint64_t want = Drive(sharded, 4, 2, 5);
  EXPECT_EQ(Drive(net, 4, 2, 5), want);
  SyncNetwork sync({.num_nodes = 3, .capacity = 2, .seed = 5});
  Drive(sync, 4, 2, 5);
  EXPECT_EQ(net.stats(), sync.stats());
  RankNetwork replay({.num_nodes = 3, .capacity = 2, .seed = 5,
                      .exec = {.num_shards = 1}, .num_ranks = 8});
  EXPECT_EQ(Drive(replay, 4, 2, 5), want);
}

TEST(RankNetworkTest, InjectedTransportCarriesTheExchange) {
  LoopbackTransport transport(2);
  EngineConfig cfg{.num_nodes = 24, .capacity = 2, .seed = 9,
                   .exec = {.num_shards = 2}, .num_ranks = 2};
  cfg.transport = &transport;
  RankNetwork net(cfg);
  EXPECT_EQ(&net.transport(), &transport);

  ShardedNetwork want_net({.num_nodes = 24, .capacity = 2, .seed = 9,
                           .exec = {.num_shards = 4}});
  const std::uint64_t want = Drive(want_net, 6, 2, 9);
  EXPECT_EQ(Drive(net, 6, 2, 9), want);
  EXPECT_GT(transport.bytes_shipped(), 0u);
  EXPECT_EQ(transport.bytes_shipped(), net.frame_bytes_sent());
}

TEST(RankNetworkTest, ForcedMergeModeIsChecksumIdenticalToUnmerged) {
  // Force the merged all-to-all packing at tiny scale: threshold 2 with
  // small segments, versus merging disabled. Same bytes, same checksums,
  // and the merge telemetry proves the merged path actually ran.
  EngineConfig merged_cfg{.num_nodes = 48, .capacity = 3, .seed = 31,
                          .exec = {.num_shards = 2}, .num_ranks = 2};
  merged_cfg.outbox_segment_rows = 8;
  merged_cfg.merge_runs_min_shards = 2;
  EngineConfig plain_cfg = merged_cfg;
  plain_cfg.merge_runs_min_shards = 0;

  RankNetwork merged(merged_cfg);
  RankNetwork plain(plain_cfg);
  const std::uint64_t got = Drive(merged, 8, 3, 31);
  EXPECT_EQ(Drive(plain, 8, 3, 31), got);
  EXPECT_GT(merged.merged_runs(), 0u) << "merge pass never fired";
  EXPECT_GT(merged.offset_matrix_bytes(), 0u);
  EXPECT_EQ(plain.merged_runs(), 0u);
  EXPECT_EQ(merged.staged_rows(), plain.staged_rows());
  EXPECT_EQ(merged.staged_bytes(), plain.staged_bytes())
      << "merging must not double-count staged bytes";
  EXPECT_EQ(merged.stats(), plain.stats());
}

}  // namespace
}  // namespace overlay
