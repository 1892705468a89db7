#include "rpc/messages.h"

#include <cstring>

#include "obs/tracer.h"
#include "util/contracts.h"
#include "util/endian.h"
#include "xdr/xdr.h"

namespace ilp::rpc {

namespace {

constexpr std::size_t max_filename_bytes = 255;

}  // namespace

std::optional<std::size_t> marshal_request(const file_request& request,
                                           std::span<std::byte> out) {
    ILP_OBS_SPAN("rpc", "marshal_request");
    if (request.filename.size() > max_filename_bytes) return std::nullopt;
    if (request.version != wire_version &&
        request.version != wire_version_secure) {
        return std::nullopt;
    }
    xdr::writer w(out);
    const std::size_t length_slot = w.reserve_u32();  // encryption header
    w.put_u32(msg_type_request);
    w.put_u32(request.version);
    w.put_u32(request.request_id);
    w.put_string(request.filename);
    w.put_u32(request.copy_count);
    w.put_u32(request.max_reply_payload);
    w.put_u32(request.start_offset);
    w.put_u32(request.reply_isn);
    if (request.version == wire_version_secure) {
        w.put_u32(request.key_epoch);
    }
    if (!w.ok()) return std::nullopt;
    const std::size_t marshalled = w.position();
    w.patch_u32(length_slot, static_cast<std::uint32_t>(marshalled));
    const std::size_t wire = align_up(marshalled, core::encryption_unit_bytes);
    if (wire > out.size()) return std::nullopt;
    // Alignment bytes are zero.
    for (std::size_t i = marshalled; i < wire; ++i) out[i] = std::byte{0};
    return wire;
}

std::optional<file_request> unmarshal_request(
    std::span<const std::byte> wire) {
    ILP_OBS_SPAN("rpc", "unmarshal_request");
    xdr::reader r(wire);
    const std::uint32_t length = r.get_u32();
    if (!r.ok() || !validate_enc_header(length, wire.size()).has_value()) {
        return std::nullopt;
    }
    xdr::reader body(wire.subspan(enc_header_bytes,
                                  length - enc_header_bytes));
    file_request request;
    if (body.get_u32() != msg_type_request) return std::nullopt;
    const std::uint32_t version = body.get_u32();
    if (version != wire_version && version != wire_version_secure) {
        return std::nullopt;
    }
    request.version = version;
    request.request_id = body.get_u32();
    request.filename = body.get_string(max_filename_bytes);
    request.copy_count = body.get_u32();
    request.max_reply_payload = body.get_u32();
    request.start_offset = body.get_u32();
    request.reply_isn = body.get_u32();
    if (version == wire_version_secure) {
        request.key_epoch = body.get_u32();
    }
    if (!body.ok() || !body.at_end()) return std::nullopt;
    return request;
}

reply_layout layout_reply(std::size_t payload_bytes) {
    reply_layout layout;
    layout.payload_bytes = payload_bytes;
    // The trailing opaque's XDR pad counts as alignment (see messages.h).
    layout.marshalled_bytes = enc_header_bytes + reply_header_bytes + 4 +
                              payload_bytes;
    layout.wire_bytes =
        align_up(layout.marshalled_bytes, core::encryption_unit_bytes);
    layout.plan = core::plan_parts(layout.marshalled_bytes);
    ILP_ENSURE(layout.plan.total_bytes == layout.wire_bytes);
    return layout;
}

std::size_t max_payload_for_wire(std::size_t wire_budget) {
    if (wire_budget < reply_payload_offset + core::encryption_unit_bytes) {
        return 0;
    }
    // Invert layout_reply: find the largest payload that still fits.
    std::size_t payload = wire_budget - reply_payload_offset;
    while (payload > 0 && layout_reply(payload).wire_bytes > wire_budget) {
        --payload;
    }
    return payload;
}

core::gather_source make_reply_source(const reply_header& header,
                                      std::span<const std::byte> payload,
                                      reply_staging& staging) {
    const reply_layout layout = layout_reply(payload.size());
    // Control-plane encode of the headers (the stub's fixed part).
    xdr::writer w({staging.bytes, sizeof staging.bytes});
    w.put_u32(static_cast<std::uint32_t>(layout.marshalled_bytes));
    w.put_u32(header.msg_type);
    w.put_u32(header.request_id);
    w.put_u32(header.copy_index);
    w.put_u32(header.offset);
    w.put_u32(header.total_bytes);
    w.put_u32(static_cast<std::uint32_t>(payload.size()));
    ILP_ENSURE(w.ok() && w.position() == reply_payload_offset);

    core::gather_source src;
    src.add({staging.bytes, reply_payload_offset});
    if (!payload.empty()) src.add(payload);
    const std::size_t tail =
        layout.wire_bytes - reply_payload_offset - payload.size();
    if (tail > 0) src.add_zeros(tail);  // XDR pad + cipher alignment
    ILP_ENSURE(src.total_size() == layout.wire_bytes);
    return src;
}

std::optional<reply_header> decode_reply_header(
    std::span<const std::byte> words) {
    if (words.size() < reply_header_bytes) return std::nullopt;
    xdr::reader r(words.subspan(0, reply_header_bytes));
    reply_header h;
    h.msg_type = r.get_u32();
    h.request_id = r.get_u32();
    h.copy_index = r.get_u32();
    h.offset = r.get_u32();
    h.total_bytes = r.get_u32();
    if (!r.ok() || h.msg_type != msg_type_reply) return std::nullopt;
    return h;
}

void encode_secure_trailer(const secure_trailer& trailer,
                           std::span<std::byte> bytes) {
    ILP_EXPECT(bytes.size() == secure_trailer_bytes);
    const std::uint32_t epoch_be = host_to_be32(trailer.key_epoch);
    const std::uint32_t tag_be = host_to_be32(trailer.tag);
    std::memcpy(bytes.data(), &epoch_be, 4);
    std::memcpy(bytes.data() + 4, &tag_be, 4);
}

secure_trailer decode_secure_trailer(std::span<const std::byte> bytes) {
    ILP_EXPECT(bytes.size() == secure_trailer_bytes);
    std::uint32_t epoch_be = 0;
    std::uint32_t tag_be = 0;
    std::memcpy(&epoch_be, bytes.data(), 4);
    std::memcpy(&tag_be, bytes.data() + 4, 4);
    return {.key_epoch = be32_to_host(epoch_be), .tag = be32_to_host(tag_be)};
}

std::size_t max_payload_for_secure_wire(std::size_t wire_budget) {
    if (wire_budget <= secure_trailer_bytes) return 0;
    return max_payload_for_wire(wire_budget - secure_trailer_bytes);
}

std::optional<std::size_t> validate_enc_header(std::uint32_t length_field,
                                               std::size_t wire_bytes) {
    const std::size_t length = length_field;
    if (length < enc_header_bytes) return std::nullopt;
    if (align_up(length, core::encryption_unit_bytes) != wire_bytes) {
        return std::nullopt;
    }
    return length;
}

}  // namespace ilp::rpc
