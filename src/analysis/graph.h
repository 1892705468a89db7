// Block-graph IR — stage compositions as data.
//
// Every composition the stack checks is a stage graph: the fused loops the
// data paths run (read from their loop types, app/compose_models.h) and the
// cipher × framing × tap × schedule variants the `ilp-lint --compose` sweep
// assembles.  Every data-manipulation block is a self-describing node — its
// footprint (granularity, alignment, ordering and header-size constraints,
// table working set, trailer obligation).  The symbolic composer
// (compose.h) folds a graph's footprints into one pipeline_model and runs
// the paper's applicability rules on the composition; the legality gate
// (gate.h) caches those verdicts by graph_hash so the per-flow cost at
// connection setup is a map lookup.
#pragma once

#include <cstdint>
#include <optional>
#include <string>
#include <vector>

#include "analysis/model.h"

namespace ilp::analysis {

// One self-describing data-manipulation block of a stage graph.
struct block_node {
    footprint fp;
};

// Which direction of the data path the graph describes.  The side does not
// change the rules, but it names the graph in diagnostics and keeps send
// and receive compositions from colliding in the verdict cache.
enum class graph_side : std::uint8_t { send, receive };

const char* side_name(graph_side s) noexcept;

// Dependency edge: data flows from node `from` to node `to`.
struct graph_edge {
    std::size_t from = 0;
    std::size_t to = 0;
};

struct stage_graph {
    std::string name;
    std::string site;
    graph_side side = graph_side::send;
    pipeline_kind kind = pipeline_kind::fused;

    std::vector<block_node> nodes;

    // Edges between nodes (indices into `nodes`).  An empty edge list means
    // "linear chain in node order" — the common case.  The composer folds
    // footprints along a topological order and rejects cyclic graphs
    // outright (a cycle is not a pipeline).
    std::vector<graph_edge> edges;

    // Framing facts the rules need and the footprints cannot carry:
    // how many trailer bytes the wire format reserves after the body,
    // whether the schedule runs message parts out of order (B,C,A), whether
    // every header length is fixed before the loop, and the part geometry.
    std::size_t trailer_reserved_bytes = 0;
    bool out_of_order_parts = false;
    bool header_sizes_known = true;
    std::vector<part_info> parts;
};

// Order-sensitive FNV-1a fingerprint of the whole graph: structure (nodes,
// edges, kind, side), every node's footprint fields, the framing facts and
// the part geometry.  Two graphs hash equal only if the composer would
// reach the same verdict for both — the key the legality gate caches
// verdicts under.
std::uint64_t graph_hash(const stage_graph& g);

// Topological order of node indices (deterministic: ready nodes are taken
// in index order, so a linear chain folds in declaration order).  Returns
// nullopt when the graph has a cycle.
std::optional<std::vector<std::size_t>> topo_order(const stage_graph& g);

}  // namespace ilp::analysis
