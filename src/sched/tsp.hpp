#pragma once
// Tour construction for intra-cluster recharging (Section IV-C cites the
// canonical nearest-neighbour heuristic, O(n_c^2)) plus a 2-opt improver
// used by tests and the ablation bench to quantify how much tour quality
// matters at cluster scale. Both are plain quadratic scans: tours stay at
// cluster scale (tens of stops), where a spatial index does not pay.

#include <vector>

#include "geom/vec2.hpp"

namespace wrsn {

// Visiting order of `points` starting from `start` (start itself is not a
// point index): greedy nearest-neighbour. Returns indices into `points`.
// On an exact distance tie the lower index is visited first.
[[nodiscard]] std::vector<std::size_t> nearest_neighbor_tour(
    Vec2 start, const std::vector<Vec2>& points);

// In-place 2-opt improvement of an open tour that begins at `start`; stops
// when no improving exchange exists or `max_rounds` passes complete.
// `order` may visit any subset of `points`; each index must be in range.
void two_opt(Vec2 start, const std::vector<Vec2>& points,
             std::vector<std::size_t>& order, int max_rounds = 16);

// Length of the open path start -> points[order[0]] -> ... -> last.
[[nodiscard]] double open_tour_length(Vec2 start, const std::vector<Vec2>& points,
                                      const std::vector<std::size_t>& order);

}  // namespace wrsn
