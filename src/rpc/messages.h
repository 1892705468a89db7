// File-transfer RPC messages — the "generated" stubs.
//
// The paper's application describes its request and reply messages in ASN.1
// and feeds them to the MAVROS stub compiler; the generated routine emits
// the RPC header and the XDR form of the message (§3.1).  This module is
// the hand-written equivalent of that generated code: fixed message layouts,
// explicit wire offsets, and builders that produce the gather/scatter
// descriptions the ILP loop marshals through.
//
// Wire layout of every message, offsets relative to the encryption header
// (paper Fig. 2 / Fig. 4):
//
//   [0,4)    encryption header: length of the marshalled message (including
//            this field, excluding alignment), big-endian
//   [4,..)   RPC header + XDR body (the marshalled message)
//   [..,N)   alignment bytes to the next 8-byte boundary
//
// Request (client -> server), wire version 2:
//   RPC header: msg_type=1, wire_version, request_id
//   body:       filename (XDR string), copy_count, max_reply_payload,
//               start_offset, reply_isn
//
// Reply (server -> client), one per file segment:
//   RPC header: msg_type=2, request_id, copy_index, offset, total_bytes
//   body:       segment payload (XDR variable opaque)
//   The length field stops at the last payload byte: the opaque's XDR pad
//   is counted with the alignment bytes, so a receiver learns the exact
//   payload size from the first cipher block.
#pragma once

#include <cstdint>
#include <optional>
#include <span>
#include <string>

#include "core/gather.h"
#include "core/message_plan.h"
#include "util/alignment.h"

namespace ilp::rpc {

inline constexpr std::uint32_t msg_type_request = 1;
inline constexpr std::uint32_t msg_type_reply = 2;

// Request wire-format version.  v2 added resumable transfers: a version
// word after msg_type plus the start_offset and reply_isn fields.  v1
// requests (no version word) are rejected.  v3 adds transport security: a
// key_epoch word after reply_isn, and every secure message carries an
// 8-byte clear trailer [epoch | tag] (see secure_trailer_bytes).  Endpoints
// negotiate down: a flow configured for wire v2 runs the v2 format with no
// trailers and no rekeying.
inline constexpr std::uint32_t wire_version = 2;
inline constexpr std::uint32_t wire_version_secure = 3;

// Encryption header size (the length field).
inline constexpr std::size_t enc_header_bytes = core::encryption_header_bytes;

// ---------------------------------------------------------------------------
// Request

struct file_request {
    std::uint32_t request_id = 0;
    std::string filename;
    std::uint32_t copy_count = 1;
    std::uint32_t max_reply_payload = 1024;
    // Resume point: byte offset into the reply *stream* (all copies
    // concatenated, so copy k starts at k * file_size).  The server serves
    // from here, which makes re-issued requests idempotent.
    std::uint32_t start_offset = 0;
    // Initial sequence number the reply connection uses for this attempt;
    // client and server reset their reply endpoints to it when it differs
    // from the server's current reply stream position.
    std::uint32_t reply_isn = 0;
    // Format this request was marshalled in (v2 or v3).  Marshalling writes
    // it; unmarshalling records what arrived so the server can reject a
    // version that does not match the flow's negotiated framing.
    std::uint32_t version = wire_version;
    // v3 only: the client's current key epoch, so a server picking up a
    // resumed flow re-centres its key window before replying.
    std::uint32_t key_epoch = 0;
};

// Marshals a request (control-plane; requests are small and rare) into
// `out`, producing the complete unencrypted wire image *including* the
// encryption header and alignment bytes.  Returns the total wire size, or
// nullopt if `out` is too small.
std::optional<std::size_t> marshal_request(const file_request& request,
                                           std::span<std::byte> out);

// Parses a decrypted request wire image (starting at the encryption
// header).  Returns nullopt on malformed input.
std::optional<file_request> unmarshal_request(
    std::span<const std::byte> wire);

// ---------------------------------------------------------------------------
// Reply

// Fixed-size RPC header of a reply: 5 XDR words after the encryption header.
struct reply_header {
    std::uint32_t msg_type = msg_type_reply;
    std::uint32_t request_id = 0;
    std::uint32_t copy_index = 0;
    std::uint32_t offset = 0;
    std::uint32_t total_bytes = 0;
};

inline constexpr std::size_t reply_header_bytes = 5 * 4;

// Offsets within the wire image.
inline constexpr std::size_t reply_payload_offset =
    enc_header_bytes + reply_header_bytes + 4;  // after the opaque length word

struct reply_layout {
    std::size_t payload_bytes = 0;     // segment payload carried
    std::size_t marshalled_bytes = 0;  // enc header + RPC header + XDR body
    std::size_t wire_bytes = 0;        // marshalled + alignment
    core::message_plan plan;           // parts A/B/C of this message
};

// Computes the layout for a reply carrying `payload_bytes` of file data.
reply_layout layout_reply(std::size_t payload_bytes);

// Largest payload such that the reply's wire size does not exceed
// `wire_budget` (the experiment's "packet size" knob).  Returns 0 if even an
// empty reply does not fit.
std::size_t max_payload_for_wire(std::size_t wire_budget);

// The sender-side staging for one reply's headers: the encryption header and
// RPC header words plus the XDR opaque length, pre-encoded in wire (XDR)
// form by control-plane code.  The ILP loop reads these 28 bytes through the
// gather exactly once, like any other message bytes.
struct reply_staging {
    alignas(8) std::byte bytes[reply_payload_offset];
};

// Fills `staging` and returns the gather source describing the complete wire
// image: staging (copy) + payload (copy) + generated padding.  `payload`
// must live until the gather has been consumed.
core::gather_source make_reply_source(const reply_header& header,
                                      std::span<const std::byte> payload,
                                      reply_staging& staging);

// Receive side: decodes the five RPC header words (already decrypted, XDR
// form) into a reply_header.  `words` must hold reply_header_bytes bytes.
std::optional<reply_header> decode_reply_header(
    std::span<const std::byte> words);

// ---------------------------------------------------------------------------
// Secure trailer (wire v3)
//
// Every secure message — request and reply — is the v2 wire image encrypted
// under the epoch key, followed by an 8-byte *clear* trailer:
//
//   [0,4)  key epoch, big-endian (clear so the receiver can select the key
//          before decrypting; a retransmitted segment carries the epoch it
//          was first encrypted under)
//   [4,8)  authentication tag, big-endian (folded AEAD accumulator over the
//          plaintext units of the encrypted region)
//
// The trailer is covered by the TCP checksum but not encrypted; wire sizes
// stay 8-aligned because the trailer is itself 8 bytes.

inline constexpr std::size_t secure_trailer_bytes = 8;

struct secure_trailer {
    std::uint32_t key_epoch = 0;
    std::uint32_t tag = 0;
};

// Encodes/decodes the trailer in `bytes` (exactly secure_trailer_bytes).
void encode_secure_trailer(const secure_trailer& trailer,
                           std::span<std::byte> bytes);
secure_trailer decode_secure_trailer(std::span<const std::byte> bytes);

// Largest payload whose *secure* reply (wire image + trailer) fits in
// `wire_budget`.
std::size_t max_payload_for_secure_wire(std::size_t wire_budget);

// ---------------------------------------------------------------------------
// Encryption header helpers

// Reads the marshalled-length field from a decrypted encryption header and
// validates it against the actual wire size; returns the marshalled length
// or nullopt.
std::optional<std::size_t> validate_enc_header(std::uint32_t length_field,
                                               std::size_t wire_bytes);

}  // namespace ilp::rpc
