#pragma once
/// \file topology.hpp
/// Simulated machine topology: the assignment of minimpi ranks to the
/// levels of a machine tree (cluster -> rack -> node -> socket -> core).
///
/// Historically this was a flat block map (`ranks_per_node`); it is now a
/// full tree spec — an ordered list of levels with fan-outs whose product
/// is the world size, e.g. racks=2, nodes=4, sockets=2, cores=8 for a
/// 128-rank run. The flat form survives as the implied two-level
/// {nodes, cores} tree, so `Topology::flat(16)` means "16 ranks per
/// node". On a real cluster the mapping is physical; here it drives
/// Comm::split_type(SplitType::Shared) (the *leaf* groups — the innermost
/// shared-memory domains the paper's node-local queues form over) and the
/// recursive scheduling hierarchy of core::build_hierarchy.

#include <cstdint>
#include <stdexcept>
#include <string>
#include <vector>

namespace minimpi {

/// One level of the machine tree: every group at this level splits into
/// `fan_out` child groups (the last level's children are single ranks).
struct TopologyLevel {
    std::string name;  ///< e.g. "racks", "nodes", "sockets", "cores"
    int fan_out = 1;
};

/// Rank-to-tree assignment. Ranks are laid out in row-major tree order:
/// rank r belongs, at depth d, to group r / group_size(d+1)... formally
/// its coordinate at level d is (r / group_size(d+1)) % fan_out[d].
struct Topology {
    /// Size of a *leaf* group (the innermost shared-memory domain;
    /// historically "ranks per node"): ranks [k*rpn, (k+1)*rpn) share leaf
    /// group k. When `levels` is set this must equal the last level's
    /// fan-out (Topology::tree keeps the two in sync).
    int ranks_per_node = 1;

    /// Full machine tree, outermost level first. Empty means the classic
    /// two-level {nodes, cores} tree implied by ranks_per_node and the
    /// world size.
    std::vector<TopologyLevel> levels;

    /// The implied two-level tree with `rpn` ranks per leaf group.
    [[nodiscard]] static Topology flat(int rpn) { return {.ranks_per_node = rpn, .levels = {}}; }

    /// Builds a tree topology; ranks_per_node follows the innermost level.
    [[nodiscard]] static Topology tree(std::vector<TopologyLevel> lv) {
        Topology t;
        if (!lv.empty()) {
            t.ranks_per_node = lv.back().fan_out;
        }
        t.levels = std::move(lv);
        return t;
    }

    /// Depth of the tree (2 for the implied flat form).
    [[nodiscard]] int depth() const noexcept {
        return levels.empty() ? 2 : static_cast<int>(levels.size());
    }

    /// Product of all fan-outs — the world size the tree describes.
    /// 0 when no explicit tree is set (the flat form fits any world size).
    [[nodiscard]] std::int64_t tree_ranks() const noexcept {
        if (levels.empty()) {
            return 0;
        }
        std::int64_t p = 1;
        for (const TopologyLevel& lv : levels) {
            p *= lv.fan_out;
        }
        return p;
    }

    /// Number of ranks inside one group at tree depth `d` (depth 0 = the
    /// whole world, depth() = a single rank). Requires an explicit tree.
    [[nodiscard]] std::int64_t group_size(int d) const {
        std::int64_t p = 1;
        for (std::size_t i = static_cast<std::size_t>(d); i < levels.size(); ++i) {
            p *= levels[i].fan_out;
        }
        return p;
    }

    /// Id of the depth-`d` group hosting `world_rank` (groups are numbered
    /// left to right across the whole tree). Requires an explicit tree.
    [[nodiscard]] int group_of(int world_rank, int d) const {
        return static_cast<int>(world_rank / group_size(d));
    }

    /// Coordinate of `world_rank` at level `d`: which of its depth-`d`
    /// group's fan_out children it falls into. Requires an explicit tree.
    [[nodiscard]] int coord_of(int world_rank, int d) const {
        return static_cast<int>((world_rank / group_size(d + 1)) %
                                levels[static_cast<std::size_t>(d)].fan_out);
    }

    /// Leaf (shared-memory) group of a rank — historically its "node".
    [[nodiscard]] int node_of(int world_rank) const noexcept {
        return world_rank / ranks_per_node;
    }

    /// Number of leaf groups in a world of `world_size` ranks.
    [[nodiscard]] int nodes_for(int world_size) const noexcept {
        return (world_size + ranks_per_node - 1) / ranks_per_node;
    }

    void validate() const {
        if (ranks_per_node < 1) {
            throw std::invalid_argument("Topology: ranks_per_node must be >= 1");
        }
        for (const TopologyLevel& lv : levels) {
            if (lv.name.empty()) {
                throw std::invalid_argument("Topology: level names must be non-empty");
            }
            if (lv.fan_out < 1) {
                throw std::invalid_argument("Topology: level '" + lv.name +
                                            "' fan-out must be >= 1 (got " +
                                            std::to_string(lv.fan_out) + ")");
            }
        }
        if (!levels.empty() && levels.back().fan_out != ranks_per_node) {
            throw std::invalid_argument(
                "Topology: innermost fan-out (" + std::to_string(levels.back().fan_out) +
                ") must equal ranks_per_node (" + std::to_string(ranks_per_node) + ")");
        }
    }

    /// Full validation against the actual world size: the tree's fan-outs
    /// must multiply to exactly `world_size`.
    void validate_world(int world_size) const {
        validate();
        const std::int64_t p = tree_ranks();
        if (p != 0 && p != world_size) {
            throw std::invalid_argument("Topology: level fan-outs multiply to " +
                                        std::to_string(p) + " but the world size is " +
                                        std::to_string(world_size));
        }
    }
};

}  // namespace minimpi
