// Kernel function definitions (paper Algorithm 5).
//
// The Gaussian kernel exp(-gamma * ||p1 - p2||^2) and the SKAT-style
// identity-by-state (IBS) kernel (shared alleles / total alleles).  The
// scalar forms here are the reference implementations; the Build phase
// computes the same values through the INT8 matrix identities (see
// build.hpp) and is property-tested against these.
#pragma once

#include <cstdint>
#include <span>
#include <string>

namespace kgwas {

enum class KernelType { kGaussian, kIbs };

std::string to_string(KernelType type);

/// Squared Euclidean distance between two dosage vectors (exact integer).
std::int64_t squared_distance(std::span<const std::int8_t> p1,
                              std::span<const std::int8_t> p2);

/// Gaussian kernel value from a squared distance.
double gaussian_kernel(double gamma, double squared_dist);

/// IBS similarity: sum over loci of shared-allele count (2 - |g1 - g2|)
/// divided by 2 * n_loci, in [0, 1].
double ibs_kernel(std::span<const std::int8_t> p1,
                  std::span<const std::int8_t> p2);

/// Heuristic bandwidth: gamma = 1 / median(squared distance) over a
/// sample of pairs, the standard "median trick".
double suggest_gamma(std::span<const std::int8_t> dosages,
                     std::size_t n_patients, std::size_t n_snps,
                     std::size_t sample_pairs = 512,
                     std::uint64_t seed = 5);

}  // namespace kgwas
