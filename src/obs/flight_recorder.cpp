#include "obs/flight_recorder.h"

namespace ilp::obs {

const char* flight_event_name(flight_event ev) noexcept {
    switch (ev) {
        case flight_event::connect: return "connect";
        case flight_event::segment: return "segment";
        case flight_event::retransmit: return "retransmit";
        case flight_event::rpc_retry: return "rpc_retry";
        case flight_event::rekey: return "rekey";
        case flight_event::tag_failure: return "tag_failure";
        case flight_event::epoch_skew: return "epoch_skew";
        case flight_event::completed: return "completed";
        case flight_event::gave_up: return "gave_up";
        case flight_event::deadline_exceeded: return "deadline_exceeded";
        case flight_event::request_rejected: return "request_rejected";
        case flight_event::ports_exhausted: return "ports_exhausted";
    }
    return "unknown";
}

}  // namespace ilp::obs
