// Flow graphs — the app's input to the legality engine.
//
// A flow's stage composition follows from its config (cipher, wire
// framing, side), described as an analysis::stage_graph and handed to
// analysis::legality_gate before any fused loop runs.  This header builds
// those graphs, reading each graph's cipher and checksum nodes from the
// fused-loop types the selected framing names (secure_path.h: send_loop /
// receive_loop) — the same types the data paths static_assert they run.
// The same builders drive `ilp-lint`, both its stack-graph list and its
// --compose sweep (compose_sweep.h), so the graph the engine gates is
// byte-for-byte the graph CI verified.  Only the sweep splices in an extra
// observe-only tap; no data path runs one.
#pragma once

#include <cstdint>
#include <string>
#include <type_traits>
#include <vector>

#include "analysis/graph.h"
#include "app/secure_path.h"
#include "core/message_plan.h"
#include "core/stage.h"
#include "crypto/des.h"
#include "crypto/rc4.h"
#include "crypto/safer_k64.h"
#include "crypto/safer_simplified.h"
#include "crypto/simple_cipher.h"
#include "rpc/messages.h"

namespace ilp::app {

// The sweep's optional observe-only tap axis.  inet2 forces the loop down
// to the checksum's natural 2-byte unit (legal anywhere); crc32 is
// ordering-constrained, so it is legal only on linearly-scheduled sides —
// splicing it into a B,C,A send loop is the canonical verified-illegal
// composition.
enum class compose_tap : std::uint8_t { none, inet2, crc32 };

inline const char* to_string(compose_tap t) noexcept {
    switch (t) {
        case compose_tap::none: return "none";
        case compose_tap::inet2: return "inet2";
        case compose_tap::crc32: return "crc32";
    }
    return "?";
}

// How the composition traverses the message parts.
enum class compose_schedule : std::uint8_t {
    send_bca,     // send side, paper's out-of-order B,C,A part plan
    send_linear,  // send side pinned to stream order (A,B,C)
    receive,      // receive side: header region then body, in order
};

inline const char* to_string(compose_schedule s) noexcept {
    switch (s) {
        case compose_schedule::send_bca: return "send-bca";
        case compose_schedule::send_linear: return "send-linear";
        case compose_schedule::receive: return "receive";
    }
    return "?";
}

// Representative marshalled size the composed graphs (and the sweep's
// differential runs) use: header + a 1 KB payload.  The geometry rules are
// invariant in the payload size as long as marshalling pads to the cipher
// unit, so one exemplar plan stands in for every size the harness sends.
inline constexpr std::size_t compose_marshalled_bytes =
    rpc::reply_payload_offset + 1024;

// The representative message's parts in the order a schedule runs them:
// the send plan's B,C,A, or stream order.
inline std::vector<analysis::part_info> compose_parts(bool out_of_order) {
    const core::message_plan plan = core::plan_parts(compose_marshalled_bytes);
    std::vector<analysis::part_info> out;
    for (const core::message_part& p :
         out_of_order ? plan.ilp_order() : plan.linear_order()) {
        if (!p.empty()) out.push_back({p.offset, p.len});
    }
    return out;
}

inline analysis::block_node tap_node(compose_tap t) {
    if (t == compose_tap::crc32) {
        return {core::crc32_tap::footprint_decl};
    }
    return {core::checksum_tap2::footprint_decl};
}

template <typename Cipher>
constexpr const char* cipher_label() {
    if constexpr (std::is_same_v<Cipher, crypto::null_cipher>) {
        return "null";
    } else if constexpr (std::is_same_v<Cipher, crypto::simple_cipher>) {
        return "simple";
    } else if constexpr (std::is_same_v<Cipher, crypto::safer_simplified>) {
        return "safer-simplified";
    } else if constexpr (std::is_same_v<Cipher, crypto::safer_k64>) {
        return "safer-k64";
    } else if constexpr (std::is_same_v<Cipher, crypto::des>) {
        return "des";
    } else if constexpr (std::is_same_v<Cipher, crypto::aead_cipher>) {
        return "aead";
    } else if constexpr (std::is_same_v<Cipher, crypto::rc4>) {
        return "rc4";
    } else {
        return "cipher";
    }
}

// Appends one fused loop type's nodes, read from its footprints() in fusion
// order.
template <typename Loop>
void add_loop_nodes(analysis::stage_graph& g) {
    for (const analysis::footprint& fp : Loop::footprints()) {
        g.nodes.push_back({fp});
    }
}

template <typename Framing>
void add_framing_nodes(analysis::stage_graph& g, bool receive) {
    if (receive) {
        add_loop_nodes<typename Framing::receive_loop>(g);
    } else {
        add_loop_nodes<typename Framing::send_loop>(g);
    }
}

// Builds the stage graph for one data path, with the sweep's optional tap.
// The key epoch is not a node input: a rekey swaps key material inside the
// same loop, so the graph and its verdict do not change.
template <typename Cipher>
analysis::stage_graph flow_graph(const secure_params& params, compose_tap tap,
                                 compose_schedule sched) {
    const bool secure = secure_framing(params);
    analysis::stage_graph g;
    g.name = std::string("flow/") + cipher_label<Cipher>() + "/" +
             (secure ? "v3" : "v2") + "/tap-" + to_string(tap) + "/" +
             to_string(sched);
    g.site = "app/compose_models.h:flow_graph";
    g.side = sched == compose_schedule::receive ? analysis::graph_side::receive
                                                : analysis::graph_side::send;
    g.kind = analysis::pipeline_kind::fused;
    g.out_of_order_parts = sched == compose_schedule::send_bca;
    g.trailer_reserved_bytes = secure ? secure_trailer_reserved_bytes : 0;

    g.parts = compose_parts(g.out_of_order_parts);

    // Send: transform first, TCP checksum taps the ciphertext on its way
    // out.  Receive: checksum the wire image first, then invert.
    const bool receive = sched == compose_schedule::receive;
    if constexpr (std::is_same_v<Cipher, crypto::rc4>) {
        // RC4 is no block_cipher, so no framing runs it; only the sweep
        // composes it, with its node placed here.
        const analysis::block_node cipher{crypto::rc4_stage::footprint_decl};
        const analysis::block_node sum{core::checksum_tap8::footprint_decl};
        g.nodes = receive ? std::vector{sum, cipher}
                          : std::vector{cipher, sum};
    } else if constexpr (crypto::aead_capable<Cipher>) {
        if (secure) {
            add_framing_nodes<aead_framing<Cipher>>(g, receive);
        } else {
            add_framing_nodes<plain_framing<Cipher>>(g, receive);
        }
    } else {
        // A non-AEAD cipher has only plain loops; under the v3 trailer
        // reservation the composer rejects them under R2.
        add_framing_nodes<plain_framing<Cipher>>(g, receive);
    }
    // The optional extra tap goes last, on either side.
    if (tap != compose_tap::none) g.nodes.push_back(tap_node(tap));
    return g;
}

// The two graphs a flow's fused loops run: what the engine gates.
template <typename Cipher>
analysis::stage_graph flow_send_graph(const secure_params& params) {
    return flow_graph<Cipher>(params, compose_tap::none,
                              compose_schedule::send_bca);
}

template <typename Cipher>
analysis::stage_graph flow_receive_graph(const secure_params& params) {
    return flow_graph<Cipher>(params, compose_tap::none,
                              compose_schedule::receive);
}

}  // namespace ilp::app
