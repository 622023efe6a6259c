#include "geometry/gross_die.hpp"

#include <algorithm>
#include <cmath>
#include <stdexcept>

namespace silicon::geometry {

namespace {

constexpr double pi = 3.14159265358979323846;

/// Half chord length of a circle of radius r_mm at signed height y_mm from
/// the center; zero outside the circle.
double half_chord(double r_mm, double y_mm) {
    const double d2 = r_mm * r_mm - y_mm * y_mm;
    return d2 > 0.0 ? std::sqrt(d2) : 0.0;
}

}  // namespace

long maly_row_count(const wafer& w, const die& d) {
    const double r = w.usable_radius().to_millimeters().value();
    const double a = d.width().value();
    const double b = d.height().value();

    // Rows of height b stacked from the bottom of the wafer (y = -r).
    const long rows = static_cast<long>(std::floor(2.0 * r / b));
    long total = 0;
    for (long j = 0; j < rows; ++j) {
        // Chord half-lengths at the bottom and top edge of row j.
        const double y_lo = static_cast<double>(j) * b - r;
        const double y_hi = static_cast<double>(j + 1) * b - r;
        const double chord =
            std::min(half_chord(r, y_lo), half_chord(r, y_hi));
        total += static_cast<long>(std::floor(2.0 * chord / a));
    }
    return total;
}

long maly_row_count_best_orientation(const wafer& w, const die& d) {
    return std::max(maly_row_count(w, d), maly_row_count(w, d.rotated()));
}

long area_ratio_bound(const wafer& w, const die& d) {
    const double wafer_mm2 = w.usable_area().to_square_millimeters().value();
    return static_cast<long>(std::floor(wafer_mm2 / d.area().value()));
}

long circumference_corrected(const wafer& w, const die& d) {
    const double r = w.usable_radius().to_millimeters().value();
    const double area = d.area().value();
    const double n =
        pi * r * r / area - pi * (2.0 * r) / std::sqrt(2.0 * area);
    return n > 0.0 ? static_cast<long>(std::floor(n)) : 0;
}

long ferris_prabhu(const wafer& w, const die& d) {
    const double r = w.usable_radius().to_millimeters().value();
    const double area = d.area().value();
    const double s = std::sqrt(area);
    const double r_eff = r - 0.5 * s;
    if (r_eff <= 0.0) {
        return 0;
    }
    return static_cast<long>(std::floor(pi * r_eff * r_eff / area));
}

namespace {

/// The exact placement search behind exact_count.  With `with_rows`
/// the winning offset's per-row counts are kept; the rows of each
/// searched offset go into one reused vector, swapped with the best's
/// on a win, so the search allocates only while those two grow.
/// Without, it counts only and allocates nothing.
placement_result exact_search(const wafer& w, const die& d,
                              millimeters scribe, int offsets_per_axis,
                              bool with_rows) {
    if (offsets_per_axis < 1) {
        throw std::invalid_argument(
            "exact_count: offsets_per_axis must be >= 1");
    }
    const double r = w.usable_radius().to_millimeters().value();
    const double pitch_x = d.width().value() + scribe.value();
    const double pitch_y = d.height().value() + scribe.value();
    const double a = d.width().value();
    const double b = d.height().value();

    placement_result best;
    std::vector<long> row_counts;  // the current offset's rows
    const double r2 = r * r;

    // A die placed with lower-left corner (x, y) fits iff all four corners
    // lie inside the usable circle; because the die is convex and the disc
    // is convex, corners suffice.
    const auto corner_inside = [&](double x, double y) {
        return x * x + y * y <= r2;
    };
    const auto die_fits = [&](double x, double y) {
        return corner_inside(x, y) && corner_inside(x + a, y) &&
               corner_inside(x, y + b) && corner_inside(x + a, y + b);
    };

    for (int oi = 0; oi < offsets_per_axis; ++oi) {
        for (int oj = 0; oj < offsets_per_axis; ++oj) {
            const double off_x =
                pitch_x * static_cast<double>(oi) /
                static_cast<double>(offsets_per_axis);
            const double off_y =
                pitch_y * static_cast<double>(oj) /
                static_cast<double>(offsets_per_axis);

            long count = 0;
            row_counts.clear();
            // Enumerate grid cells overlapping the disc bounding box.
            const long j_lo = static_cast<long>(
                std::floor((-r - off_y) / pitch_y) - 1);
            const long j_hi = static_cast<long>(
                std::ceil((r - off_y) / pitch_y) + 1);
            for (long j = j_lo; j <= j_hi; ++j) {
                const double y = off_y + static_cast<double>(j) * pitch_y;
                long in_row = 0;
                const long i_lo = static_cast<long>(
                    std::floor((-r - off_x) / pitch_x) - 1);
                const long i_hi = static_cast<long>(
                    std::ceil((r - off_x) / pitch_x) + 1);
                for (long i = i_lo; i <= i_hi; ++i) {
                    const double x = off_x + static_cast<double>(i) * pitch_x;
                    if (die_fits(x, y)) {
                        ++in_row;
                    }
                }
                if (in_row > 0) {
                    if (with_rows) {
                        row_counts.push_back(in_row);
                    }
                    count += in_row;
                }
            }
            if (count > best.count) {
                best.count = count;
                best.offset_x = off_x;
                best.offset_y = off_y;
                best.row_counts.swap(row_counts);
            }
        }
    }
    return best;
}

}  // namespace

placement_result exact_count(const wafer& w, const die& d, millimeters scribe,
                             int offsets_per_axis) {
    return exact_search(w, d, scribe, offsets_per_axis, true);
}

long gross_dies(const wafer& w, const die& d, gross_die_method method,
                millimeters scribe) {
    switch (method) {
        case gross_die_method::maly_rows:
            return maly_row_count(w, d);
        case gross_die_method::maly_rows_best_orient:
            return maly_row_count_best_orientation(w, d);
        case gross_die_method::area_ratio:
            return area_ratio_bound(w, d);
        case gross_die_method::circumference:
            return circumference_corrected(w, d);
        case gross_die_method::ferris_prabhu:
            return ferris_prabhu(w, d);
        case gross_die_method::exact:
            return exact_search(w, d, scribe, exact_offsets_per_axis, false)
                .count;
    }
    throw std::invalid_argument("gross_dies: unknown method");
}

std::string to_string(gross_die_method method) {
    switch (method) {
        case gross_die_method::maly_rows:
            return "maly_rows";
        case gross_die_method::maly_rows_best_orient:
            return "maly_rows_best_orient";
        case gross_die_method::area_ratio:
            return "area_ratio";
        case gross_die_method::circumference:
            return "circumference";
        case gross_die_method::ferris_prabhu:
            return "ferris_prabhu";
        case gross_die_method::exact:
            return "exact";
    }
    return "unknown";
}

}  // namespace silicon::geometry
