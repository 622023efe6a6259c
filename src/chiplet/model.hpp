// model.hpp — multi-die (chiplet) system cost composition.
//
// Maly's Eq. (1) prices a monolithic die: wafer cost amortized over
// gross dies and yield.  Chiplet Actuary (arXiv:2203.12268) and CATCH
// (arXiv:2503.15753) generalize exactly that die/yield/test/packaging
// decomposition to multi-chip systems, and both exhibit the same
// qualitative result: below a total-area threshold the monolithic die
// is cheaper (packaging, bonding, and die-to-die PHY overheads
// dominate), above it an N-way split wins (smaller dies yield
// super-linearly better on a negative-binomial process).  This module
// composes the repo's existing ingredients into that model:
//
//   * per-die area: an equal N-way split of a logic+memory+IO area
//     budget, plus `d2d_area_mm2 * (n - 1)` of die-to-die interface
//     area per chiplet (a full mesh of PHY links; zero for n = 1, so
//     the monolithic baseline is the same pipeline, not a special
//     case);
//   * per-die yield: negative-binomial (yield/models.hpp) over a
//     heterogeneous fault density — memory and IO area carry
//     configurable fractions of the logic defect density;
//   * die cost: the paper's wafer cost model (cost/wafer_cost.hpp)
//     over Maly-row gross dies (geometry/gross_die.hpp);
//   * known-good-die test: a flat-rate tester charging fixed +
//     per-cm^2 seconds per die, amortized over yielded dies, with the
//     Williams-Brown escape fraction DL = 1 - Y^(1-T)
//     (cost/test_cost.hpp) determining how many latent-defective dies
//     survive into assembly;
//   * packaging: organic substrate, RDL fan-out, or silicon
//     interposer — area-priced, with a Poisson substrate yield for
//     the patterned options;
//   * assembly: per-bond yield raised to the bond (chiplet) count,
//     composed with substrate yield and the post-test escape
//     probability of every chiplet into a module yield that divides
//     the whole bill.
//
// Everything is deterministic double arithmetic in one fixed
// association order; `evaluate_chiplet` is the scalar core, and the
// batch kernel (batch.hpp) performs its operations lane by lane, bit
// for bit (pinned by tests/chiplet/test_batch_differential.cpp).

#pragma once

#include <cstddef>

namespace silicon::chiplet {

/// Packaging substrate options, in ascending cost/complexity.
enum class substrate_kind {
    organic,     ///< laminate: cheap, assumed defect-free
    rdl,         ///< fan-out redistribution layers: patterned, yields
    interposer,  ///< silicon interposer: wafer-priced, yields
};

/// One multi-die system configuration.  Defaults describe a plausible
/// late-1990s-extrapolated process consistent with the repo's Maly
/// scenario parameters; areas are per-system budgets that the N-way
/// split divides evenly.
struct chiplet_spec {
    // --- area budget (whole system, mm^2) ---
    double logic_area_mm2 = 350.0;
    double memory_area_mm2 = 150.0;
    double io_area_mm2 = 100.0;

    /// How many identical chiplets the budget is split across (1 =
    /// monolithic baseline).
    int chiplets = 1;

    /// Die-to-die interface (PHY + TSV/bump field) area added to each
    /// chiplet per partner die: a full mesh costs (n - 1) links per
    /// die.  This is the term that makes fine-grained splits lose at
    /// small total area.
    double d2d_area_mm2 = 5.0;

    // --- process / wafer (Maly Eq. 4 wafer cost) ---
    double lambda_um = 0.5;          ///< feature size
    double c0_usd = 5000.0;          ///< wafer cost at the reference node
    double x = 1.5;                  ///< cost growth per generation
    double generation_step_um = 0.2; ///< lambda shrink per generation
    double wafer_radius_cm = 15.0;
    double edge_exclusion_cm = 0.0;

    // --- yield ---
    double defects_per_cm2 = 0.5;      ///< logic-area defect density
    double memory_defect_factor = 0.5; ///< memory density relative to logic
    double io_defect_factor = 0.3;     ///< IO density relative to logic
    double clustering_alpha = 2.0;     ///< negative-binomial clustering

    // --- known-good-die test ---
    double test_coverage = 0.98;        ///< fault coverage T in [0,1]
    double tester_rate_per_hour = 3600.0; ///< $/hour (3600 = $1/s)
    double test_seconds_fixed = 0.5;    ///< handling/index time per die
    double test_seconds_per_cm2 = 1.0;  ///< pattern time per die cm^2

    // --- packaging / assembly ---
    substrate_kind substrate = substrate_kind::organic;
    double substrate_cost_per_cm2 = 0.5;
    double rdl_cost_per_cm2 = 2.0;
    double rdl_defects_per_cm2 = 0.05;
    double interposer_cost_per_cm2 = 8.0;
    double interposer_defects_per_cm2 = 0.2;
    double package_area_factor = 1.1;   ///< package area / silicon budget
    double bond_yield = 0.99;           ///< per chiplet attach
    double bonding_cost_per_chiplet = 0.5;
};

/// Full cost breakdown for one configuration.  Every field is finite
/// when `evaluate_chiplet` returns (infeasible configurations throw
/// instead).
struct chiplet_breakdown {
    int chiplets = 1;
    double total_area_mm2 = 0.0;     ///< logic + memory + IO budget
    double chiplet_area_mm2 = 0.0;   ///< per-die, incl. D2D overhead
    double die_yield = 0.0;
    double gross_dies_per_wafer = 0.0;
    double wafer_cost_usd = 0.0;
    double die_cost_usd = 0.0;            ///< per good die
    double test_cost_per_die_usd = 0.0;   ///< per good die (probe bill / yield)
    double defect_level = 0.0;            ///< Williams-Brown escapes
    double package_area_cm2 = 0.0;
    double substrate_cost_usd = 0.0;
    double substrate_yield = 0.0;
    double assembly_yield = 0.0;  ///< bond_yield^n * substrate_yield
    double module_yield = 0.0;    ///< assembly * (1 - DL)^n
    double bonding_cost_usd = 0.0;
    double cost_per_system_usd = 0.0;       ///< bill before module yield
    double cost_per_good_system_usd = 0.0;  ///< the headline number
};

/// Price one configuration.  Throws std::invalid_argument for
/// out-of-range parameters and std::domain_error for infeasible
/// configurations (die does not fit the wafer, yield underflows to
/// zero) — the same taxonomy the serve layer maps to
/// bad_param/domain_error.
[[nodiscard]] chiplet_breakdown evaluate_chiplet(const chiplet_spec& spec);

/// The same spec rescaled so logic + memory + IO sum to
/// `total_area_mm2`, preserving the area-class ratios.  This is the
/// single scaling rule `partition_explore` uses for every grid point
/// (kernel and fallback paths alike), so both see bit-identical
/// inputs.
[[nodiscard]] chiplet_spec scaled_to_total(chiplet_spec spec,
                                           double total_area_mm2);

}  // namespace silicon::chiplet
