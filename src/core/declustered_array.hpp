#pragma once
// Top-level API: given an array size v and a parity stripe size k, choose
// and build the best parity-declustered layout this library knows --
// exact BIBD-based constructions when they exist and fit the unit budget
// (Condition 4), approximately-balanced constructions (Section 3)
// otherwise.
//
// Selection lives in the construction-engine registry in src/engine/
// (engine::ConstructionPlanner::build_best; engine::Engine memoizes it);
// this header holds the vocabulary types they share.  Applications go
// through pdl::api::Array, and layout::CompiledMapper serves the mapping.

#include <string>

#include "layout/feasibility.hpp"
#include "layout/layout.hpp"
#include "layout/metrics.hpp"

namespace pdl::core {

/// What the user wants to build.
struct ArraySpec {
  std::uint32_t num_disks = 0;    ///< v
  std::uint32_t stripe_size = 0;  ///< k (2 <= k <= v); k == v means RAID5
};

/// Selection policy.
struct BuildOptions {
  /// Condition 4 budget: maximum units per disk (lookup-table rows).
  std::uint64_t unit_budget = layout::kDefaultUnitBudget;
  /// Require perfectly balanced parity (rejects Theorem 9/12 layouts and
  /// single-copy BIBD layouts whose b is not a multiple of v).
  bool require_perfect_parity = false;
  /// Permit the approximately-balanced constructions of Section 3.
  bool allow_approximate = true;
};

/// How a layout was obtained, for reporting.
enum class Construction {
  kRaid5,
  kRingLayout,        ///< Section 3.1 single-copy ring layout
  kBibdFlow,          ///< catalog BIBD + Section 4 flow-balanced parity
  kBibdPerfect,       ///< catalog BIBD + lcm(b,v)/b copies (perfect parity)
  kRemoval,           ///< Theorems 8/9
  kStairway,          ///< Theorems 10-12
  kExternal,          ///< adopted/deserialized; provenance unknown
};

[[nodiscard]] std::string construction_name(Construction construction);

/// A built layout together with its provenance and measured quality.
struct BuiltLayout {
  layout::Layout layout;
  Construction construction;
  std::string description;        ///< e.g. "stairway q=81 c=5 w=5"
  layout::LayoutMetrics metrics;  ///< measured, not predicted
};

}  // namespace pdl::core
