#include "yield/defect.hpp"

#include <cmath>
#include <stdexcept>

namespace silicon::yield {

defect_size_distribution::defect_size_distribution(double r0, double p,
                                                   double q)
    : r0_{r0}, p_{p}, q_{q} {
    if (!(r0 > 0.0)) {
        throw std::invalid_argument(
            "defect_size_distribution: r0 must be positive");
    }
    if (!(p > 1.0)) {
        throw std::invalid_argument(
            "defect_size_distribution: p must exceed 1 for a normalizable "
            "tail");
    }
    if (!(q > -1.0)) {
        throw std::invalid_argument(
            "defect_size_distribution: q must exceed -1");
    }
    // Normalization: integral of the body k*R^q over (0, r0] is
    // k*r0^(q+1)/(q+1); the tail k*r0^(q+p)/R^p over (r0, inf) is
    // k*r0^(q+1)/(p-1).
    const double body = std::pow(r0_, q_ + 1.0) / (q_ + 1.0);
    const double tail = std::pow(r0_, q_ + 1.0) / (p_ - 1.0);
    k_ = 1.0 / (body + tail);
    tail_scale_ = k_ * std::pow(r0_, q_ + p_);
    body_mass_ = k_ * body;
    tail_mass_ = k_ * tail;
}

double defect_size_distribution::pdf(double r) const {
    if (r <= 0.0) {
        return 0.0;
    }
    if (r <= r0_) {
        return k_ * std::pow(r, q_);
    }
    return tail_scale_ * std::pow(r, -p_);
}

double defect_size_distribution::cdf(double r) const {
    if (r <= 0.0) {
        return 0.0;
    }
    if (r <= r0_) {
        return k_ * std::pow(r, q_ + 1.0) / (q_ + 1.0);
    }
    // body_mass_ + integral of tail from r0 to r.
    const double tail_part = tail_scale_ / (p_ - 1.0) *
                             (std::pow(r0_, 1.0 - p_) - std::pow(r, 1.0 - p_));
    return body_mass_ + tail_part;
}

double defect_size_distribution::survival(double r) const {
    if (r <= 0.0) {
        return 1.0;
    }
    if (r <= r0_) {
        return 1.0 - cdf(r);
    }
    // P(R > r) = k * r0^(q+p) * r^(1-p) / (p-1): exact, no cancellation.
    return tail_scale_ * std::pow(r, 1.0 - p_) / (p_ - 1.0);
}

double defect_size_distribution::moment(int n) const {
    if (n < 0) {
        throw std::invalid_argument(
            "defect_size_distribution: moment order must be >= 0");
    }
    if (n == 0) {
        return 1.0;
    }
    const double dn = static_cast<double>(n);
    if (!(p_ > dn + 1.0)) {
        throw std::domain_error(
            "defect_size_distribution: E[R^n] diverges unless p > n + 1");
    }
    // E[R^n] = k [ r0^(q+n+1)/(q+n+1) + r0^(q+n+1)/(p-n-1) ].
    const double rn = std::pow(r0_, q_ + dn + 1.0);
    return k_ * (rn / (q_ + dn + 1.0) + rn / (p_ - dn - 1.0));
}

double defect_size_distribution::quantile(double u) const {
    if (!(u >= 0.0 && u < 1.0)) {
        throw std::invalid_argument(
            "defect_size_distribution: quantile argument must be in [0,1)");
    }
    if (u <= body_mass_) {
        // u = k * r^(q+1) / (q+1)  =>  r = ((q+1) u / k)^(1/(q+1)).
        return std::pow((q_ + 1.0) * u / k_, 1.0 / (q_ + 1.0));
    }
    // Tail: survival(r) = 1-u  =>  r^(1-p) = (1-u)(p-1)/(k r0^(q+p)).
    const double s = (1.0 - u) * (p_ - 1.0) / tail_scale_;
    return std::pow(s, 1.0 / (1.0 - p_));
}

std::vector<double> defect_size_distribution::sample(
    std::size_t count, std::uint64_t seed) const {
    std::vector<double> radii;
    radii.reserve(count);
    splitmix64 rng{seed};
    for (std::size_t i = 0; i < count; ++i) {
        radii.push_back(quantile(rng.next_double()));
    }
    return radii;
}

}  // namespace silicon::yield
