// batch.cpp — the SoA chiplet kernel: one body, templated over the
// block transcendentals it calls.  On simd::libm_lanes it is the
// bit-exact kernel: every lane performs the scalar core's operations
// (chiplet/model.cpp) in its order, and is NaN exactly where that
// throws.
// On simd::vector_lanes it is the fast_math kernel.
//
// Most of a lane is branchy scalar work (Maly-row gross-die scan,
// guard chain, cost composition) that both policies run as written.
// The transcendental tail shared by every lane of a partition_explore
// grid goes through the policy in blocked array passes: the
// negative-binomial die yield (1 + faults/alpha)^-alpha, the
// Williams-Brown escape pow(y, 1 - T), the RDL/interposer substrate
// yield exp(-A_pkg * D_sub) and the module yield pow(known_good, n).
//
// Lane-invariant work is hoisted out of the lane loop: the chiplets
// range, the spec field guards, the wafer and wafer-cost-model
// construction, the clustering alpha and test coverage guards, the
// wafer cost and pow(bond_yield, n).  A failed guard NaNs every lane,
// which is what the per-lane scalar path gives, since those throws do
// not depend on the swept total area.

#include "chiplet/batch.hpp"

#include "cost/wafer_cost.hpp"
#include "geometry/die.hpp"
#include "geometry/gross_die.hpp"
#include "geometry/wafer.hpp"
#include "simd/math.hpp"

#include <algorithm>
#include <cmath>
#include <cstddef>
#include <limits>
#include <optional>

namespace silicon::chiplet::batch {

namespace {

constexpr double nan_lane = std::numeric_limits<double>::quiet_NaN();
constexpr std::size_t block = 256;

bool nonneg(double v) { return std::isfinite(v) && v >= 0.0; }

/// The lane-invariant prefix of the scalar core: every guard and
/// construction here throws (or not) identically for all lanes.
bool spec_invariants_ok(const chiplet_spec& base, int chiplets) {
    if (chiplets < 1 || chiplets > 16) {
        return false;
    }
    if (!nonneg(base.d2d_area_mm2) || !nonneg(base.defects_per_cm2) ||
        !nonneg(base.memory_defect_factor) ||
        !nonneg(base.io_defect_factor) ||
        !nonneg(base.tester_rate_per_hour) ||
        !nonneg(base.test_seconds_fixed) ||
        !nonneg(base.test_seconds_per_cm2) ||
        !nonneg(base.substrate_cost_per_cm2) ||
        !nonneg(base.rdl_cost_per_cm2) ||
        !nonneg(base.rdl_defects_per_cm2) ||
        !nonneg(base.interposer_cost_per_cm2) ||
        !nonneg(base.interposer_defects_per_cm2) ||
        !nonneg(base.bonding_cost_per_chiplet)) {
        return false;
    }
    if (!std::isfinite(base.package_area_factor) ||
        base.package_area_factor < 1.0) {
        return false;
    }
    if (!std::isfinite(base.bond_yield) || !(base.bond_yield > 0.0) ||
        base.bond_yield > 1.0) {
        return false;
    }
    if (!(base.clustering_alpha > 0.0)) {
        return false;
    }
    // defect_level's coverage guard (cost/test_cost.hpp).
    if (!(base.test_coverage >= 0.0 && base.test_coverage <= 1.0)) {
        return false;
    }
    return true;
}

/// The kernel body.
template <class Math>
void kernel(const chiplet_spec& base, int chiplets,
            const double* total_area_mm2, double* out, std::size_t n) {
    if (!spec_invariants_ok(base, chiplets)) {
        std::fill(out, out + n, nan_lane);
        return;
    }
    std::optional<geometry::wafer> w;
    double wafer_usd = 0.0;
    try {
        w.emplace(centimeters{base.wafer_radius_cm},
                  centimeters{base.edge_exclusion_cm});
        const cost::wafer_cost_model wafer_cost{
            dollars{base.c0_usd}, base.x, microns{base.generation_step_um}};
        wafer_usd =
            wafer_cost.pure_wafer_cost(microns{base.lambda_um}).value();
    } catch (...) {
        std::fill(out, out + n, nan_lane);
        return;
    }

    const double base_sum = base.logic_area_mm2 + base.memory_area_mm2 +
                            base.io_area_mm2;
    const double nd = static_cast<double>(chiplets);
    const double d2d_per_die = base.d2d_area_mm2 * (nd - 1.0);
    const double d0 = base.defects_per_cm2;
    const double alpha = base.clustering_alpha;
    const double coverage = base.test_coverage;
    // Lane-invariant factor of the assembly yield; same std::pow call
    // (and bytes) as the scalar path makes per lane.
    const double bond_pow = std::pow(base.bond_yield, nd);

    bool valid[block];
    double total_v[block];
    double chip_mm2_v[block];
    double gross_v[block];
    double y_die[block];
    double known_good[block];
    double sub_yield[block];
    double mod_pow[block];
    double pb[block];
    double pe[block];
    double arg[block];

    for (std::size_t lo = 0; lo < n; lo += block) {
        const std::size_t len = (n - lo < block) ? (n - lo) : block;

        // Phase 1 (scalar): area scaling, geometry, fault budget — the
        // scalar core's guard chain up to the die-yield pow.
        for (std::size_t j = 0; j < len; ++j) {
            const double factor = total_area_mm2[lo + j] / base_sum;
            const double sl = base.logic_area_mm2 * factor;
            const double sm = base.memory_area_mm2 * factor;
            const double sio = base.io_area_mm2 * factor;
            bool ok = nonneg(sl) && nonneg(sm) && nonneg(sio);
            const double total = sl + sm + sio;
            ok = ok && total > 0.0;
            double chip_mm2 = 0.0;
            double gross = 0.0;
            double faults = 0.0;
            if (ok) {
                chip_mm2 = total / nd + d2d_per_die;
                try {
                    const geometry::die d = geometry::die::square(
                        millimeters{std::sqrt(chip_mm2)});
                    gross = static_cast<double>(geometry::gross_dies(
                        *w, d, geometry::gross_die_method::maly_rows));
                } catch (...) {
                    ok = false;
                }
                ok = ok && gross > 0.0;
                const double budget_faults =
                    (sl / 100.0) * d0 +
                    (sm / 100.0) * (d0 * base.memory_defect_factor) +
                    (sio / 100.0) * (d0 * base.io_defect_factor);
                faults = budget_faults / nd + (d2d_per_die / 100.0) * d0;
                // model.yield's require_nonnegative: accepts +inf,
                // rejects NaN (can't happen here — all terms finite).
                ok = ok && faults >= 0.0;
            }
            valid[j] = ok;
            total_v[j] = total;
            chip_mm2_v[j] = chip_mm2;
            gross_v[j] = gross;
            pb[j] = ok ? 1.0 + faults / alpha : 1.0;
            pe[j] = ok ? -alpha : 0.0;
        }

        // Phase 2 (vector): die yield (1 + faults/alpha)^-alpha.
        Math::pow(pb, pe, y_die, len);
        for (std::size_t j = 0; j < len; ++j) {
            // "die yield underflows to zero" domain guard.
            valid[j] = valid[j] && y_die[j] > 0.0;
            pb[j] = valid[j] ? y_die[j] : 1.0;
            pe[j] = valid[j] ? 1.0 - coverage : 0.0;
        }

        // Phase 3 (vector): Williams-Brown defect level — the scalar
        // path is clamped(1 - pow(y, 1 - T)) then known_good = 1 - DL;
        // replicate both ops so the clamp boundaries match.
        Math::pow(pb, pe, known_good, len);
        for (std::size_t j = 0; j < len; ++j) {
            double dl = 1.0 - known_good[j];
            dl = dl < 0.0 ? 0.0 : (dl > 1.0 ? 1.0 : dl);
            known_good[j] = 1.0 - dl;
            const double pkg_cm2 =
                base.package_area_factor * (total_v[j] / 100.0);
            const double dsub =
                base.substrate == substrate_kind::rdl
                    ? base.rdl_defects_per_cm2
                    : base.interposer_defects_per_cm2;
            arg[j] = valid[j] && base.substrate != substrate_kind::organic
                         ? -pkg_cm2 * dsub
                         : 0.0;
            pb[j] = valid[j] ? known_good[j] : 1.0;
            pe[j] = valid[j] ? nd : 0.0;
        }

        // Phase 4 (vector): substrate yield and module-yield pow.
        Math::exp(arg, sub_yield, len);
        Math::pow(pb, pe, mod_pow, len);

        // Phase 5 (scalar): cost composition with the remaining domain
        // guards, in the scalar core's association order.
        for (std::size_t j = 0; j < len; ++j) {
            if (!valid[j]) {
                out[lo + j] = nan_lane;
                continue;
            }
            const double die_usd = wafer_usd / (gross_v[j] * y_die[j]);
            const double test_usd =
                (base.tester_rate_per_hour / 3600.0) *
                (base.test_seconds_fixed +
                 base.test_seconds_per_cm2 * (chip_mm2_v[j] / 100.0));
            const double test_per_good_usd = test_usd / y_die[j];
            const double pkg_cm2 =
                base.package_area_factor * (total_v[j] / 100.0);
            double sub_usd = 0.0;
            double sy = 1.0;
            switch (base.substrate) {
                case substrate_kind::organic:
                    sub_usd = base.substrate_cost_per_cm2 * pkg_cm2;
                    sy = 1.0;
                    break;
                case substrate_kind::rdl:
                    sub_usd = base.rdl_cost_per_cm2 * pkg_cm2;
                    sy = sub_yield[j];
                    break;
                case substrate_kind::interposer:
                    sub_usd = base.interposer_cost_per_cm2 * pkg_cm2;
                    sy = sub_yield[j];
                    break;
            }
            const double assembly = bond_pow * sy;
            const double module = assembly * mod_pow[j];
            if (!(module > 0.0)) {
                out[lo + j] = nan_lane;
                continue;
            }
            const double dies_usd = nd * (die_usd + test_per_good_usd);
            const double bonding_usd = nd * base.bonding_cost_per_chiplet;
            const double system_usd = dies_usd + sub_usd + bonding_usd;
            const double good_usd = system_usd / module;
            if (!std::isfinite(good_usd)) {
                out[lo + j] = nan_lane;
                continue;
            }
            out[lo + j] = good_usd;
        }
    }
}

}  // namespace

void cost_per_good_system(const chiplet_spec& base, int chiplets,
                          const double* total_area_mm2, double* out,
                          std::size_t n) {
    kernel<simd::libm_lanes>(base, chiplets, total_area_mm2, out, n);
}

void cost_per_good_system_fast(const chiplet_spec& base, int chiplets,
                               const double* total_area_mm2, double* out,
                               std::size_t n) {
    kernel<simd::vector_lanes>(base, chiplets, total_area_mm2, out, n);
}

}  // namespace silicon::chiplet::batch
