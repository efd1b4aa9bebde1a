// Protocol message formats exchanged between nodes' runtime layers.
//
// Wire format of a two-sided message: [MsgHeader][payload bytes]. Bulk
// application data (cache fills, writebacks) never rides in payloads — it is
// moved by one-sided RDMA WRITE and the two-sided message is only the
// notification, as in the paper (§4.5). Payloads carry combined Operate
// operands and nothing else.
//
// Coalesced wire format (docs/perf.md): when the Tx pass packs several
// protocol messages for the same peer into one SEND, the wire image is
//   [MsgHeader type=kBatch, aux=frame count, payload_len=frame bytes]
//   [frame 0][frame 1]...
// where each frame is itself [MsgHeader][payload]. A batch of one frame is
// sent bare (no kBatch envelope), so singletons are byte-identical to the
// uncoalesced format. kBatch never reaches the runtime: the progress thread
// unpacks frames and dispatches each as its own RpcMessage.
#pragma once

#include <atomic>
#include <cstdint>
#include <cstring>

#include "net/payload_buf.hpp"

namespace darray::net {

enum class MsgType : uint8_t {
  kInvalid = 0,

  // --- coherence: requester → home -----------------------------------------
  kReadReq,      // addr/rkey: where home must WRITE the chunk data
  kWriteReq,     // addr/rkey: ditto; grants exclusive ownership
  kOperateReq,   // op_id: join the Operated participant set (no data moves)
  kWriteback,    // voluntary Dirty eviction; data WRITE precedes this message
  kOpFlush,      // payload = combined (offset, operand) pairs; voluntary
                 // eviction or reply to kFlushReq

  // --- coherence: home → others ---------------------------------------------
  kReadData,     // fill complete (data already WRITTEN into your cacheline)
  kWriteData,    // exclusive fill complete
  kOperateResp,  // you are now an Operated participant
  kInvalidate,   // drop your Shared copy, then ack
  kFetch,        // write your Dirty data back (one-sided) then kFetchData;
                 //   aux = target state for your copy (see FetchTarget)
  kFlushReq,     // flush your combine buffer (kOpFlush), drop the line

  // --- coherence: others → home ---------------------------------------------
  kInvAck,
  kFetchData,    // data WRITE into home subarray precedes this message

  // --- distributed reader/writer locks --------------------------------------
  kLockAcq,      // addr = element index, aux = LockMode
  kLockGrant,    // txn_id echoes the acquire
  kLockRel,      // addr = element index

  // --- array-compute collectives (src/compute) -------------------------------
  kReducePart,   // one edge of a reduction tree: txn_id = collective
                 //   sequence number, addr = scalar partial bits, rkey =
                 //   fragment index, aux = fragment count, payload = per-chunk
                 //   partials (deterministic mode only)

  // --- client-serving plane (src/serve) --------------------------------------
  kClientReq,    // session → owner dispatcher: txn_id = session id, addr =
                 //   request sequence, payload = [WireReq][key][value]. Journey
                 //   piggyback (obs v4): trace = journey id, aux:rkey = the
                 //   origin's t_submit stamp split hi:lo (all zero when
                 //   journey tracing is off)
  kClientResp,   // owner dispatcher → session: txn_id/addr echo the request,
                 //   trace echoes the journey id, payload = [WireResp][value]
                 //   [WireJourney if WireResp.flags bit 0]

  // --- transport-internal ----------------------------------------------------
  kBatch,        // coalesced SEND envelope; aux = frame count (Rx unpacks,
                 // never delivered to the runtime)

  // Rendezvous large-message protocol (docs/perf.md). None of these reach the
  // runtime: the comm layer negotiates, pulls, and finally dispatches the
  // *embedded* notification carried by kRndzReq.
  kRndzReq,      // txn_id = lease id; payload = [RndzDesc][inner MsgHeader]
                 //   [inner payload] — the sender advertises its pinned
                 //   source region, the receiver pulls it with RDMA READs
  kRndzAck,      // NAK: txn_id echoes the lease id; the receiver could not
                 //   complete the pull — sender falls back to eager
  kRndzFin,      // txn_id echoes the lease id; pull complete, release the
                 //   lease (and fire the source's posted_flag)

  kMaxMsgType,
};

enum class FetchTarget : uint32_t { kInvalid = 0, kShared = 1 };
enum class LockMode : uint32_t { kRead = 0, kWrite = 1 };

struct MsgHeader {
  MsgType type = MsgType::kInvalid;
  uint8_t pad = 0;
  uint16_t src_node = 0;
  uint16_t array_id = 0;
  uint16_t op_id = 0;
  uint32_t txn_id = 0;      // requester-side matching (locks, diagnostics)
  uint32_t payload_len = 0;
  uint64_t chunk = 0;
  uint64_t addr = 0;        // data placement address / element index for locks
  uint32_t rkey = 0;
  uint32_t aux = 0;         // FetchTarget / LockMode / misc
  uint64_t trace = 0;       // obs correlation id; rides the wire so a home
                            //   node's work is attributed to the remote op
};
static_assert(sizeof(MsgHeader) == 48);

// A parsed inbound message as delivered to the node's engine.
struct RpcMessage {
  MsgHeader hdr;
  PayloadBuf payload;
};

// TxRequest::posted_flag: unposted, and the owner waits for the release.
inline constexpr uint32_t kRingWhenPosted = 2;

// An outbound request handed from an engine pass to the Tx pass: an
// optional one-sided data WRITE followed (FIFO on the same QP) by the
// two-sided header+payload SEND.
struct TxRequest {
  uint16_t dst = 0;
  MsgHeader hdr;
  PayloadBuf payload;

  // Optional preceding one-sided WRITE.
  const std::byte* data_src = nullptr;  // must lie in the MR named by data_lkey
  uint32_t data_len = 0;
  uint32_t data_lkey = 0;
  uint64_t data_remote_addr = 0;
  uint32_t data_rkey = 0;

  // Optional release hook: 0 while queued, set to 1 by the Tx pass once the
  // data WRITE has been posted (payload copied), letting the runtime
  // recycle the source cacheline without a protocol-level ack. Rendezvous
  // defers the release to the kRndzFin (the source stays pinned until the
  // peer's READs complete). An owner that waits for the release swaps 0 for
  // kRingWhenPosted; the release then rings CommLayer::owner_bell().
  std::atomic<uint32_t>* posted_flag = nullptr;

  // Comm-layer internal: set when a rendezvous falls back (NAK or lease
  // exhaustion) so the re-post takes the eager path unconditionally.
  bool force_eager = false;

  bool has_data() const { return data_src != nullptr; }
};

// Region advertisement at the head of a kRndzReq payload: where the receiver
// must READ from (the sender's pinned source) and where the bytes must land
// (the receiver's own registered region, as named by the original request's
// data_remote_addr/data_rkey).
struct RndzDesc {
  uint64_t src_addr = 0;  // sender-side source address
  uint64_t dst_addr = 0;  // receiver-side destination address
  uint32_t src_rkey = 0;
  uint32_t dst_rkey = 0;
  uint32_t len = 0;
  uint32_t lease_id = 0;  // echoed in kRndzFin / kRndzAck
};
static_assert(sizeof(RndzDesc) == 32);

// Payload entry for kOpFlush: one touched element's combined operand.
// Operands are raw element bytes, at most 8 (Operate is restricted to
// lock-free-combinable element sizes).
struct OpFlushEntry {
  uint16_t offset;       // element offset within the chunk
  uint16_t pad = 0;
  uint32_t pad2 = 0;
  uint64_t value_bits;   // raw little-endian element bytes, zero-extended
};
static_assert(sizeof(OpFlushEntry) == 16);

const char* msg_type_name(MsgType t);

// Message-class axis for per-class latency histograms (obs v2): the class of
// a SEND is its MsgType value; a one-sided data WRITE uses the reserved class
// one past the last MsgType, and a rendezvous READ pull the one after that —
// so eager and rendezvous bulk bytes are distinguishable in hist.msg.*.
// kNumMsgClasses must stay ≤ obs::kMaxMsgClasses.
inline constexpr uint8_t kMsgClassDataWrite = static_cast<uint8_t>(MsgType::kMaxMsgType);
inline constexpr uint8_t kMsgClassRndzData = kMsgClassDataWrite + 1;
inline constexpr uint32_t kNumMsgClasses = kMsgClassRndzData + 1;

// Display name for a message class ("data_write" for the WRITE class,
// msg_type_name otherwise). Defined in comm_layer.cpp beside msg_type_name.
const char* msg_class_name(uint8_t cls);

// --- batch framing -----------------------------------------------------------
// Shared between the comm layer's Tx packer, the Rx unpacker, and the framing
// unit tests, so pack and unpack can never drift apart.

// Bytes one frame occupies on the wire.
inline size_t frame_bytes(size_t payload_len) { return sizeof(MsgHeader) + payload_len; }

// Writes one [MsgHeader][payload] frame at `dst` (caller sized the buffer;
// hdr.payload_len must already equal `payload_len`). Returns the frame size.
inline size_t write_frame(std::byte* dst, const MsgHeader& hdr, const std::byte* payload,
                          size_t payload_len) {
  std::memcpy(dst, &hdr, sizeof(MsgHeader));
  if (payload_len) std::memcpy(dst + sizeof(MsgHeader), payload, payload_len);
  return sizeof(MsgHeader) + payload_len;
}

// Writes the kBatch envelope header for `frames` frames spanning
// `frame_bytes_total` bytes, at the start of the wire buffer.
inline void write_batch_header(std::byte* dst, uint16_t src_node, uint32_t frames,
                               size_t frame_bytes_total) {
  MsgHeader bh;
  bh.type = MsgType::kBatch;
  bh.src_node = src_node;
  bh.aux = frames;
  bh.payload_len = static_cast<uint32_t>(frame_bytes_total);
  std::memcpy(dst, &bh, sizeof(MsgHeader));
}

// Iterates the frames of a batch payload (the bytes after the kBatch header).
// next() returns false when all frames were consumed or the image is
// malformed; valid() distinguishes the two after the loop.
class BatchReader {
 public:
  BatchReader(const std::byte* frames, size_t len, uint32_t count)
      : p_(frames), end_(frames + len), remaining_(count) {}

  // On success fills hdr and points payload at the in-place frame bytes.
  bool next(MsgHeader& hdr, const std::byte*& payload) {
    if (remaining_ == 0) return false;
    if (p_ + sizeof(MsgHeader) > end_) {
      malformed_ = true;
      return false;
    }
    std::memcpy(&hdr, p_, sizeof(MsgHeader));
    if (p_ + sizeof(MsgHeader) + hdr.payload_len > end_) {
      malformed_ = true;
      return false;
    }
    payload = p_ + sizeof(MsgHeader);
    p_ += sizeof(MsgHeader) + hdr.payload_len;
    --remaining_;
    return true;
  }

  // True iff every advertised frame was parsed and the image was fully
  // consumed with no trailing bytes.
  bool valid() const { return !malformed_ && remaining_ == 0 && p_ == end_; }

 private:
  const std::byte* p_;
  const std::byte* end_;
  uint32_t remaining_;
  bool malformed_ = false;
};

}  // namespace darray::net
