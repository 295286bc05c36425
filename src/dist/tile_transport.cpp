#include "dist/tile_transport.hpp"

#include <cstring>
#include <limits>

#include "common/status.hpp"
#include "common/timer.hpp"
#include "telemetry/metrics.hpp"

namespace kgwas::dist {

namespace {

// Timed send wrapper: when event recording is on, the encode + enqueue
// becomes one "send" slice on the sender's comm lane and the source end
// of the tag's flow arrow in the merged trace.
void send_frame_traced(Communicator& comm, int dest, std::uint64_t tag,
                       std::vector<std::byte> frame) {
  if (!comm.event_recording()) {
    comm.send(dest, tag, std::move(frame));
    return;
  }
  telemetry::CommEvent event;
  event.tag = tag;
  event.peer = dest;
  event.is_send = true;
  event.bytes = frame.size();
  event.start_ns = Timer::now_ns();
  comm.send(dest, tag, std::move(frame));
  event.end_ns = Timer::now_ns();
  comm.record_comm_event(event);
}

// Header: u32 rows | u32 cols | u8 precision, little-endian memcpy fields.
constexpr std::size_t kHeaderBytes = 4 + 4 + 1;
// TLR header: u32 rows | u32 cols | u8 precision | u32 rank.
constexpr std::size_t kTlrHeaderBytes = 4 + 4 + 1 + 4;
// Slot frame representation kinds (first byte of a slot frame).
constexpr std::byte kSlotDense{0};
constexpr std::byte kSlotTlr{1};

void put_u32(std::byte* dst, std::uint32_t v) {
  std::memcpy(dst, &v, sizeof(v));
}

std::uint32_t get_u32(const std::byte* src) {
  std::uint32_t v;
  std::memcpy(&v, src, sizeof(v));
  return v;
}

/// rows * cols * bytes_per_element of untrusted u32 header fields (a
/// TLR factor substitutes rank for cols).  Throws InvalidArgument when
/// the product wraps: a wrapped size would let a tiny frame claim a huge
/// tile with no storage behind it.
std::size_t checked_payload(std::size_t rows, std::size_t cols,
                            Precision precision) {
  const std::size_t bpe = bytes_per_element(precision);
  const std::size_t max = std::numeric_limits<std::size_t>::max();
  KGWAS_CHECK_ARG(cols == 0 || rows <= max / cols,
                  "tile frame dimensions overflow");
  KGWAS_CHECK_ARG(rows * cols <= max / bpe, "tile frame payload overflows");
  return rows * cols * bpe;
}

Precision header_precision(std::byte tag) {
  const auto precision = static_cast<Precision>(tag);
  KGWAS_CHECK_ARG(static_cast<unsigned>(precision) < kNumPrecisions,
                  "tile frame carries an unknown precision tag");
  return precision;
}

// Inner frame writers/decoders: a slot frame is the kind byte followed by
// one of these at offset 1, so they work on raw (data, size) spans.
void write_tile_frame(std::byte* dst, const Tile& tile) {
  put_u32(dst, static_cast<std::uint32_t>(tile.rows()));
  put_u32(dst + 4, static_cast<std::uint32_t>(tile.cols()));
  dst[8] = static_cast<std::byte>(tile.precision());
  std::memcpy(dst + kHeaderBytes, tile.raw(), tile.storage_bytes());
}

void write_tlr_frame(std::byte* dst, const TlrTile& tile) {
  KGWAS_CHECK_ARG(tile.active(), "cannot encode an inactive TLR tile");
  put_u32(dst, static_cast<std::uint32_t>(tile.rows()));
  put_u32(dst + 4, static_cast<std::uint32_t>(tile.cols()));
  dst[8] = static_cast<std::byte>(tile.precision());
  put_u32(dst + 9, static_cast<std::uint32_t>(tile.rank()));
  // A rank-0 pair has no payload, and its empty factors may hold null
  // buffers, which memcpy must not see even for zero bytes.
  if (tile.rank() == 0) return;
  std::memcpy(dst + kTlrHeaderBytes, tile.u().raw(), tile.u().storage_bytes());
  std::memcpy(dst + kTlrHeaderBytes + tile.u().storage_bytes(), tile.v().raw(),
              tile.v().storage_bytes());
}

void decode_tile_frame(const std::byte* data, std::size_t size, Tile& out) {
  KGWAS_CHECK_ARG(size >= kHeaderBytes, "tile frame too short");
  const std::size_t rows = get_u32(data);
  const std::size_t cols = get_u32(data + 4);
  const Precision precision = header_precision(data[8]);
  const std::size_t payload = checked_payload(rows, cols, precision);
  KGWAS_CHECK_ARG(size - kHeaderBytes == payload,
                  "tile frame payload size mismatch");
  out.from_wire(rows, cols, precision, data + kHeaderBytes);
}

void decode_tlr_frame(const std::byte* data, std::size_t size, TlrTile& out) {
  KGWAS_CHECK_ARG(size >= kTlrHeaderBytes, "TLR frame too short");
  const std::size_t rows = get_u32(data);
  const std::size_t cols = get_u32(data + 4);
  const Precision precision = header_precision(data[8]);
  const std::size_t rank = get_u32(data + 9);
  const std::size_t u_bytes = checked_payload(rows, rank, precision);
  const std::size_t v_bytes = checked_payload(cols, rank, precision);
  KGWAS_CHECK_ARG(u_bytes <= size - kTlrHeaderBytes &&
                      size - kTlrHeaderBytes - u_bytes == v_bytes,
                  "TLR frame payload size mismatch");
  out.from_wire(rows, cols, rank, precision, data + kTlrHeaderBytes,
                data + kTlrHeaderBytes + u_bytes);
}

std::vector<std::byte> dense_slot_frame(const Tile& tile) {
  std::vector<std::byte> frame(1 + kHeaderBytes + tile.storage_bytes());
  frame[0] = kSlotDense;
  write_tile_frame(frame.data() + 1, tile);
  return frame;
}

}  // namespace

std::size_t slot_frame_bytes(const TileSlot& slot) {
  return 1 + (slot.is_low_rank() ? kTlrHeaderBytes : kHeaderBytes) +
         slot.storage_bytes();
}

std::vector<std::byte> encode_slot(const TileSlot& slot) {
  if (!slot.is_low_rank()) return dense_slot_frame(slot.dense());
  std::vector<std::byte> frame(slot_frame_bytes(slot));
  frame[0] = kSlotTlr;
  write_tlr_frame(frame.data() + 1, slot.low_rank());
  return frame;
}

void decode_slot(const std::vector<std::byte>& frame, TileSlot& out) {
  KGWAS_CHECK_ARG(!frame.empty(), "slot frame too short");
  if (frame[0] == kSlotDense) {
    if (out.is_low_rank()) {
      Tile t;
      decode_tile_frame(frame.data() + 1, frame.size() - 1, t);
      out.set_dense(std::move(t));
    } else {
      // In-place adopt: a steady-state cache slot reuses its payload
      // buffer frame after frame.
      decode_tile_frame(frame.data() + 1, frame.size() - 1, out.dense());
    }
    return;
  }
  KGWAS_CHECK_ARG(frame[0] == kSlotTlr,
                  "slot frame carries an unknown representation kind");
  TlrTile t;
  decode_tlr_frame(frame.data() + 1, frame.size() - 1, t);
  out.set_low_rank(std::move(t));
}

void send_slot(Communicator& comm, int dest, std::uint64_t tag,
               const TileSlot& slot) {
  if (slot.is_low_rank()) {
    static telemetry::Counter& frames =
        telemetry::MetricRegistry::global().counter("tlr.wire.frames");
    static telemetry::Counter& bytes =
        telemetry::MetricRegistry::global().counter("tlr.wire.bytes");
    frames.add(1);
    bytes.add(slot.storage_bytes());
  }
  comm.record_tile_payload(slot.precision(), slot.storage_bytes());
  send_frame_traced(comm, dest, tag, encode_slot(slot));
}

void send_dense_slot(Communicator& comm, int dest, std::uint64_t tag,
                     const Tile& tile) {
  comm.record_tile_payload(tile.precision(), tile.storage_bytes());
  send_frame_traced(comm, dest, tag, dense_slot_frame(tile));
}

Precision slot_frame_precision(const std::vector<std::byte>& frame) {
  KGWAS_CHECK_ARG(frame.size() >= 1 + kHeaderBytes, "slot frame too short");
  return header_precision(frame[9]);
}

std::size_t slot_frame_payload_bytes(const std::vector<std::byte>& frame) {
  KGWAS_CHECK_ARG(frame.size() >= 1 + kHeaderBytes, "slot frame too short");
  const std::size_t header =
      frame[0] == kSlotTlr ? 1 + kTlrHeaderBytes : 1 + kHeaderBytes;
  KGWAS_CHECK_ARG(frame.size() >= header, "slot frame too short");
  return frame.size() - header;
}

}  // namespace kgwas::dist
