#include "krr/kernels.hpp"

#include <algorithm>
#include <cmath>
#include <vector>

#include "common/rng.hpp"
#include "common/status.hpp"

namespace kgwas {

std::string to_string(KernelType type) {
  switch (type) {
    case KernelType::kGaussian: return "gaussian";
    case KernelType::kIbs: return "ibs";
  }
  KGWAS_ASSERT(false);
  return {};
}

std::int64_t squared_distance(std::span<const std::int8_t> p1,
                              std::span<const std::int8_t> p2) {
  KGWAS_CHECK_ARG(p1.size() == p2.size(), "dosage vector length mismatch");
  std::int64_t sum = 0;
  for (std::size_t i = 0; i < p1.size(); ++i) {
    const std::int64_t diff = static_cast<std::int64_t>(p1[i]) - p2[i];
    sum += diff * diff;
  }
  return sum;
}

double gaussian_kernel(double gamma, double squared_dist) {
  return std::exp(-gamma * squared_dist);
}

double ibs_kernel(std::span<const std::int8_t> p1,
                  std::span<const std::int8_t> p2) {
  KGWAS_CHECK_ARG(!p1.empty() && p1.size() == p2.size(),
                  "ibs kernel requires equal non-empty vectors");
  std::int64_t shared = 0;
  for (std::size_t i = 0; i < p1.size(); ++i) {
    shared += 2 - std::abs(static_cast<int>(p1[i]) - static_cast<int>(p2[i]));
  }
  return static_cast<double>(shared) /
         (2.0 * static_cast<double>(p1.size()));
}

double suggest_gamma(std::span<const std::int8_t> dosages,
                     std::size_t n_patients, std::size_t n_snps,
                     std::size_t sample_pairs, std::uint64_t seed) {
  KGWAS_CHECK_ARG(dosages.size() == n_patients * n_snps,
                  "dosage span size mismatch");
  KGWAS_CHECK_ARG(n_patients >= 2, "need at least two patients");
  Rng rng(seed);
  std::vector<double> samples;
  samples.reserve(sample_pairs);
  for (std::size_t k = 0; k < sample_pairs; ++k) {
    const std::size_t i = rng.uniform_index(n_patients);
    std::size_t j = rng.uniform_index(n_patients);
    if (j == i) j = (j + 1) % n_patients;
    // Column-major NP x NS layout: element (p, s) at p + s * n_patients.
    std::int64_t d = 0;
    for (std::size_t s = 0; s < n_snps; ++s) {
      const std::int64_t diff =
          static_cast<std::int64_t>(dosages[i + s * n_patients]) -
          dosages[j + s * n_patients];
      d += diff * diff;
    }
    samples.push_back(static_cast<double>(d));
  }
  std::nth_element(samples.begin(), samples.begin() + samples.size() / 2,
                   samples.end());
  const double median = samples[samples.size() / 2];
  return median > 0.0 ? 1.0 / median : 1.0;
}

}  // namespace kgwas
