// Rank-to-rank transport: the wire format and byte movers of the
// rank-partitioned exchange (sim/rank_network.hpp).
//
// The unit shipped is one staging run — the self-contained (PackedRow rows,
// ExtWords spill buffer) pair the sharded engine seals per (source shard,
// destination shard) — framed with a length-prefixed run header:
//
//   frame  := header · rows · spill                     (one (s → d) run)
//   header := magic 'OVX1'      u32   | src_shard   u32
//           | dst_shard   u32   | dst_rank    u32
//           | round       u64
//           | row_count   u32   | spill_count u32       (the length prefix)
//           | checksum    u64                           (FNV-1a over payload)
//   rows   := row_count   × 24 B PackedRow  (sim/message_soa.hpp, verbatim)
//   spill  := spill_count × 16 B ExtWords   (rows' ext indices point into it)
//
// Every section is a multiple of 8 bytes, so back-to-back frames in one
// buffer keep each header 8-aligned. The checksum covers the payload (rows
// then spill); DecodeFrame rejects bad magic, truncation, and checksum
// mismatch by throwing ContractViolation — a corrupted frame must never
// deliver.
//
// `Transport` is the pluggable mover: one collective AllToAllv per round,
// cell (r, q) carrying rank r's frames for rank q. `LoopbackTransport` is
// the in-process backend (deterministic; copies cells thread-per-rank on a
// ShardPool).
#pragma once

#include <cstddef>
#include <cstdint>
#include <span>
#include <vector>

#include "sim/message_soa.hpp"

namespace overlay {

class ShardPool;

/// One rank→rank cell of the exchange: frames back-to-back.
using WireBytes = std::vector<std::uint8_t>;

inline constexpr std::uint32_t kFrameMagic = 0x3158564Fu;  // 'OVX1' (LE)

/// Length-prefixed run header (40 bytes, 8-aligned; layout above).
struct FrameHeader {
  std::uint32_t magic = kFrameMagic;
  std::uint32_t src_shard = 0;  ///< global source shard of the run
  std::uint32_t dst_shard = 0;  ///< global destination shard
  std::uint32_t dst_rank = 0;   ///< rank owning dst_shard
  std::uint64_t round = 0;      ///< engine round the run belongs to
  std::uint32_t row_count = 0;
  std::uint32_t spill_count = 0;
  std::uint64_t checksum = 0;   ///< FNV-1a over rows · spill bytes
};

inline constexpr std::size_t kFrameHeaderBytes = sizeof(FrameHeader);
static_assert(kFrameHeaderBytes == 40, "frame header packs to 40 bytes");
static_assert(std::is_trivially_copyable_v<FrameHeader>,
              "headers are memcpy'd on and off the wire");

/// FNV-1a over the frame payload exactly as it sits on the wire (row bytes,
/// then spill bytes).
std::uint64_t FramePayloadChecksum(std::span<const PackedRow> rows,
                                   std::span<const ExtWords> spill);

/// Appends one frame (header + payload) for the (src_shard → dst_shard) run
/// to `out`. Empty runs (no rows, no spill) are legal frames.
void EncodeFrame(std::uint32_t src_shard, std::uint32_t dst_shard,
                 std::uint32_t dst_rank, std::uint64_t round,
                 std::span<const PackedRow> rows,
                 std::span<const ExtWords> spill, WireBytes& out);

/// Decodes the frame starting at `offset` of `buf`: validates magic, bounds
/// (truncated frames rejected), and the payload checksum — any mismatch
/// throws ContractViolation. On success fills `header`, *appends* the
/// payload to `rows`/`spill`, and returns the offset one past the frame.
std::size_t DecodeFrame(std::span<const std::uint8_t> buf, std::size_t offset,
                        FrameHeader& header, std::vector<PackedRow>& rows,
                        std::vector<ExtWords>& spill);

/// Pluggable rank-to-rank byte mover. One call per round, collective across
/// all ranks: `outgoing[r][q]` holds the frames rank r addresses to rank q
/// (r, q < num_ranks(); diagonal cells must be empty — same-rank runs never
/// leave the engine). On return `incoming[q][r]` holds exactly the bytes of
/// `outgoing[r][q]`, each cell delivered exactly once. Implementations never
/// inspect frame contents — framing integrity is the decoder's job.
class Transport {
 public:
  virtual ~Transport() = default;

  virtual std::size_t num_ranks() const = 0;

  /// Both matrices must be presized num_ranks() × num_ranks(); incoming
  /// cells are overwritten. Deterministic backends (loopback) impose no
  /// ordering of their own — cell (r, q) lands in incoming[q][r] verbatim,
  /// so the exchange result is a pure function of `outgoing`.
  virtual void AllToAllv(std::vector<std::vector<WireBytes>>& outgoing,
                         std::vector<std::vector<WireBytes>>& incoming) = 0;

  /// Payload bytes moved over the lifetime (sum of shipped cell sizes).
  virtual std::uint64_t bytes_shipped() const = 0;
};

/// In-process backend: delivers each cell by copy (a real wire never aliases
/// the sender's buffer), one destination rank per ShardPool worker —
/// disjoint incoming rows, so the fan-out is race-free and the result is
/// bit-identical however the pool schedules it. With pool = nullptr the
/// process-wide DefaultShardPool() is used; when invoked from inside a pool
/// phase (the rank engine's exchange window) the pool degrades to an inline
/// serial loop, which computes the same thing.
class LoopbackTransport final : public Transport {
 public:
  explicit LoopbackTransport(std::size_t ranks, ShardPool* pool = nullptr);

  std::size_t num_ranks() const override { return ranks_; }
  void AllToAllv(std::vector<std::vector<WireBytes>>& outgoing,
                 std::vector<std::vector<WireBytes>>& incoming) override;
  std::uint64_t bytes_shipped() const override { return bytes_shipped_; }

 private:
  std::size_t ranks_;
  ShardPool* pool_;  ///< resolved at construction; never null
  std::uint64_t bytes_shipped_ = 0;
};

}  // namespace overlay
