#include "sim/transport.hpp"

#include <cstring>

#include "common/check.hpp"
#include "sim/inbox_checksum.hpp"
#include "sim/shard_pool.hpp"

namespace overlay {

namespace {

// Byte-wise FNV-1a (the u64 fold of sim/inbox_checksum.hpp expands each
// value to 8 byte folds; wire payloads are raw bytes, so fold them directly).
std::uint64_t FoldBytes(std::uint64_t h, const void* data, std::size_t len) {
  const auto* p = static_cast<const std::uint8_t*>(data);
  for (std::size_t i = 0; i < len; ++i) {
    h ^= p[i];
    h *= 0x100000001b3ULL;
  }
  return h;
}

void AppendBytes(WireBytes& out, const void* data, std::size_t len) {
  const auto* p = static_cast<const std::uint8_t*>(data);
  out.insert(out.end(), p, p + len);
}

}  // namespace

std::uint64_t FramePayloadChecksum(std::span<const PackedRow> rows,
                                   std::span<const ExtWords> spill) {
  std::uint64_t h = kFnvOffsetBasis;
  h = FoldBytes(h, rows.data(), rows.size_bytes());
  h = FoldBytes(h, spill.data(), spill.size_bytes());
  return h;
}

void EncodeFrame(std::uint32_t src_shard, std::uint32_t dst_shard,
                 std::uint32_t dst_rank, std::uint64_t round,
                 std::span<const PackedRow> rows,
                 std::span<const ExtWords> spill, WireBytes& out) {
  FrameHeader header;
  header.src_shard = src_shard;
  header.dst_shard = dst_shard;
  header.dst_rank = dst_rank;
  header.round = round;
  header.row_count = static_cast<std::uint32_t>(rows.size());
  header.spill_count = static_cast<std::uint32_t>(spill.size());
  header.checksum = FramePayloadChecksum(rows, spill);
  AppendBytes(out, &header, kFrameHeaderBytes);
  AppendBytes(out, rows.data(), rows.size_bytes());
  AppendBytes(out, spill.data(), spill.size_bytes());
}

std::size_t DecodeFrame(std::span<const std::uint8_t> buf, std::size_t offset,
                        FrameHeader& header, std::vector<PackedRow>& rows,
                        std::vector<ExtWords>& spill) {
  OVERLAY_CHECK(offset <= buf.size() &&
                    buf.size() - offset >= kFrameHeaderBytes,
                "truncated frame: no room for a header");
  std::memcpy(&header, buf.data() + offset, kFrameHeaderBytes);
  OVERLAY_CHECK(header.magic == kFrameMagic, "bad frame magic");

  const std::size_t row_bytes =
      std::size_t{header.row_count} * kPackedRowBytes;
  const std::size_t spill_bytes =
      std::size_t{header.spill_count} * kSpillBytes;
  const std::size_t payload_at = offset + kFrameHeaderBytes;
  OVERLAY_CHECK(buf.size() - payload_at >= row_bytes + spill_bytes,
                "truncated frame: payload shorter than its length prefix");

  // memcpy off the byte stream (the buffer carries no alignment or aliasing
  // guarantees); both types are pinned trivially copyable.
  const std::size_t row_at = rows.size();
  const std::size_t spill_at = spill.size();
  rows.resize(row_at + header.row_count);
  spill.resize(spill_at + header.spill_count);
  // An empty vector's data() may be null, and memcpy from or to null is
  // undefined even for zero bytes: skip the empty sections.
  if (row_bytes != 0) {
    std::memcpy(rows.data() + row_at, buf.data() + payload_at, row_bytes);
  }
  if (spill_bytes != 0) {
    std::memcpy(spill.data() + spill_at, buf.data() + payload_at + row_bytes,
                spill_bytes);
  }

  const std::uint64_t expect = FramePayloadChecksum(
      std::span<const PackedRow>(rows).subspan(row_at),
      std::span<const ExtWords>(spill).subspan(spill_at));
  if (expect != header.checksum) {
    rows.resize(row_at);  // reject wholesale: a corrupt frame delivers nothing
    spill.resize(spill_at);
    OVERLAY_CHECK(false, "frame checksum mismatch: corrupted payload");
  }
  return payload_at + row_bytes + spill_bytes;
}

LoopbackTransport::LoopbackTransport(std::size_t ranks, ShardPool* pool)
    : ranks_(ranks), pool_(pool != nullptr ? pool : &DefaultShardPool()) {
  OVERLAY_CHECK(ranks >= 1, "transport needs at least one rank");
}

void LoopbackTransport::AllToAllv(
    std::vector<std::vector<WireBytes>>& outgoing,
    std::vector<std::vector<WireBytes>>& incoming) {
  OVERLAY_CHECK(outgoing.size() == ranks_ && incoming.size() == ranks_,
                "exchange matrices must be num_ranks x num_ranks");
  std::uint64_t shipped = 0;
  for (std::size_t r = 0; r < ranks_; ++r) {
    OVERLAY_CHECK(outgoing[r].size() == ranks_ && incoming[r].size() == ranks_,
                  "exchange matrices must be num_ranks x num_ranks");
    OVERLAY_CHECK(outgoing[r][r].empty(),
                  "same-rank runs never cross the transport");
    for (const WireBytes& cell : outgoing[r]) shipped += cell.size();
  }
  // Destination-major fan-out: worker q writes only incoming[q], so the
  // copies are disjoint and the result is schedule-independent. Inside a
  // pool phase this degrades to an inline serial loop — same bytes.
  pool_->Run(ranks_, [&](std::size_t q) {
    for (std::size_t r = 0; r < ranks_; ++r) {
      incoming[q][r].assign(outgoing[r][q].begin(), outgoing[r][q].end());
    }
  });
  bytes_shipped_ += shipped;
}

}  // namespace overlay
