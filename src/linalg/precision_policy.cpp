#include "linalg/precision_policy.hpp"

#include <algorithm>
#include <cmath>
#include <limits>

#include "common/env.hpp"
#include "common/status.hpp"
#include "linalg/low_rank.hpp"
#include "linalg/tlr_kernels.hpp"
#include "telemetry/metrics.hpp"
#include "tile/tlr_tile.hpp"

namespace kgwas {

PrecisionMap adaptive_precision_map(const SymmetricTileMatrix& matrix,
                                    const AdaptivePolicy& policy) {
  const std::size_t nt = matrix.tile_count();
  std::vector<double> norms(nt * (nt + 1) / 2, 0.0);
  for (std::size_t tj = 0; tj < nt; ++tj) {
    for (std::size_t ti = tj; ti < nt; ++ti) {
      norms[lower_tile_index(nt, ti, tj)] =
          matrix.tile(ti, tj).frobenius_norm();
    }
  }
  return adaptive_precision_map_from_norms(norms, nt, policy);
}

PrecisionMap adaptive_precision_map_from_norms(
    const std::vector<double>& lower_tile_norms, std::size_t nt,
    const AdaptivePolicy& policy) {
  KGWAS_CHECK_ARG(lower_tile_norms.size() == nt * (nt + 1) / 2,
                  "lower tile norm vector size mismatch");
  PrecisionMap map(nt, policy.working);

  // Global Frobenius norm from the lower triangle (off-diagonal tiles
  // appear twice in the symmetric matrix).
  double sum_sq = 0.0;
  for (std::size_t tj = 0; tj < nt; ++tj) {
    for (std::size_t ti = tj; ti < nt; ++ti) {
      const double norm = lower_tile_norms[lower_tile_index(nt, ti, tj)];
      sum_sq += (ti == tj ? 1.0 : 2.0) * norm * norm;
    }
  }
  const double matrix_norm = std::sqrt(sum_sq);
  const double budget =
      policy.epsilon * matrix_norm / static_cast<double>(std::max<std::size_t>(nt, 1));

  // Order candidate precisions widest-first so we can pick the cheapest
  // admissible one by scanning from the back.
  std::vector<Precision> candidates = policy.available;
  std::sort(candidates.begin(), candidates.end(),
            [](Precision a, Precision b) {
              return unit_roundoff(a) < unit_roundoff(b);
            });

  for (std::size_t tj = 0; tj < nt; ++tj) {
    for (std::size_t ti = tj + 1; ti < nt; ++ti) {
      const double tile_norm = lower_tile_norms[lower_tile_index(nt, ti, tj)];
      Precision chosen = policy.working;
      for (auto it = candidates.rbegin(); it != candidates.rend(); ++it) {
        if (unit_roundoff(*it) * tile_norm <= budget) {
          chosen = *it;
          break;
        }
      }
      map.set(ti, tj, chosen);
    }
  }
  return map;
}

PrecisionMap band_precision_map(std::size_t tile_count, double fp32_fraction,
                                Precision low, Precision working) {
  KGWAS_CHECK_ARG(fp32_fraction >= 0.0 && fp32_fraction <= 1.0,
                  "band fraction must be in [0, 1]");
  PrecisionMap map(tile_count, working);
  if (tile_count <= 1) return map;
  // Off-diagonal tile diagonals are indexed by d = ti - tj in [1, nt-1];
  // keep the first round(fraction * (nt-1)) of them in the working
  // precision.
  const auto keep = static_cast<std::size_t>(
      std::llround(fp32_fraction * static_cast<double>(tile_count - 1)));
  for (std::size_t tj = 0; tj < tile_count; ++tj) {
    for (std::size_t ti = tj + 1; ti < tile_count; ++ti) {
      map.set(ti, tj, (ti - tj) <= keep ? working : low);
    }
  }
  return map;
}

namespace {

/// One step up the breakdown-escalation precision ladder
/// (fp4 -> fp8 -> fp16 -> fp32 -> fp64; bf16 and int8 promote straight to
/// fp32), capped at `working`.  Returns `p` unchanged when `p` is already
/// at or above the working precision — the ladder never overshoots the
/// factorization's compute width.
Precision escalate_precision(Precision p, Precision working) {
  // "At or above working" in accuracy terms: smaller unit roundoff.
  if (unit_roundoff(p) <= unit_roundoff(working)) return p;
  Precision next = working;
  switch (p) {
    case Precision::kFp4E2M1:
      next = Precision::kFp8E4M3;
      break;
    case Precision::kFp8E4M3:
    case Precision::kFp8E5M2:
      next = Precision::kFp16;
      break;
    case Precision::kFp16:
    case Precision::kBf16:
    case Precision::kInt8:
      next = Precision::kFp32;
      break;
    case Precision::kFp32:
      next = Precision::kFp64;
      break;
    case Precision::kFp64:
      return p;
  }
  // Never climb past the working precision.
  return unit_roundoff(next) < unit_roundoff(working) ? working : next;
}

/// Promotes the row/column tile band of diagonal tile `t` — tiles (t, j)
/// for j <= t and (i, t) for i >= t — one step up the ladder, capped at
/// `working`.  This is the Higham–Mary-guided recovery move: the band of
/// tile t is exactly the set whose storage roundoff enters tile t's
/// leading-minor backward error, so promoting it first is the cheapest
/// map change that can fix the failing pivot.  Returns the number of
/// tiles whose precision actually changed (0 means the band is already at
/// working precision and escalation cannot help).
std::size_t escalate_band(PrecisionMap& map, std::size_t t,
                          Precision working) {
  const std::size_t nt = map.tile_count();
  KGWAS_CHECK_ARG(t < nt, "escalation tile index out of range");
  std::size_t promoted = 0;
  auto promote = [&](std::size_t ti, std::size_t tj) {
    const Precision from = map.get(ti, tj);
    const Precision to = escalate_precision(from, working);
    if (to != from) {
      map.set(ti, tj, to);
      ++promoted;
    }
  };
  for (std::size_t tj = 0; tj <= t; ++tj) promote(t, tj);
  for (std::size_t ti = t + 1; ti < nt; ++ti) promote(ti, t);
  return promoted;
}

/// Promotes every tile of the leading (t+1) x (t+1) sub-triangle one step
/// up the ladder.  Fallback move when breakdown persists at tile t with
/// its own band already saturated: the failing leading minor is fed by
/// *every* panel above it (an fp8 L(i,k) with i, k < t re-enters the
/// pivot through the trailing Schur updates), so the remaining candidates
/// to promote are exactly this sub-triangle.  Returns tiles changed.
std::size_t escalate_leading_block(PrecisionMap& map, std::size_t t,
                                   Precision working) {
  const std::size_t nt = map.tile_count();
  KGWAS_CHECK_ARG(t < nt, "escalation tile index out of range");
  std::size_t promoted = 0;
  for (std::size_t tj = 0; tj <= t; ++tj) {
    for (std::size_t ti = tj; ti <= t; ++ti) {
      const Precision from = map.get(ti, tj);
      const Precision to = escalate_precision(from, working);
      if (to != from) {
        map.set(ti, tj, to);
        ++promoted;
      }
    }
  }
  return promoted;
}

}  // namespace

std::size_t escalate_step(PrecisionMap& map, std::size_t t,
                          Precision working) {
  const std::size_t promoted = escalate_band(map, t, working);
  return promoted != 0 ? promoted : escalate_leading_block(map, t, working);
}

std::size_t map_storage_bytes(const PrecisionMap& map, std::size_t n,
                              std::size_t tile_size) {
  const std::size_t nt = map.tile_count();
  std::size_t total = 0;
  auto dim = [&](std::size_t t) {
    return std::min(tile_size, n - t * tile_size);
  };
  for (std::size_t tj = 0; tj < nt; ++tj) {
    for (std::size_t ti = tj; ti < nt; ++ti) {
      total += dim(ti) * dim(tj) * bytes_per_element(map.get(ti, tj));
    }
  }
  return total;
}

TlrPolicy tlr_policy_from_env() {
  TlrPolicy policy;
  // tol >= 1 would keep no singular value: every compressible tile would
  // silently become zero.
  policy.tol = env_double("KGWAS_TLR_TOL", policy.tol, 1.0);
  policy.max_rank_fraction =
      env_double("KGWAS_TLR_MAX_RANK_FRACTION", policy.max_rank_fraction,
                 std::numeric_limits<double>::infinity());
  return policy;
}

void check_tlr_policy(const TlrPolicy& policy) {
  KGWAS_CHECK_ARG(policy.tol >= 0.0 && policy.tol < 1.0,
                  "TLR tolerance must lie in [0, 1): at tol >= 1 the "
                  "relative truncation keeps nothing");
}

std::optional<LowRankFactor> compress_tile(const Tile& tile,
                                           const TlrPolicy& policy) {
  const std::size_t m = tile.rows(), n = tile.cols();
  if (std::min(m, n) < kTlrMinDim) return std::nullopt;
  return compress_block(tile.to_fp32(), policy.tol,
                        tlr_max_rank(m, n, policy.max_rank_fraction));
}

void TlrTally::install(std::size_t idx, TileSlot& slot,
                       std::optional<LowRankFactor> factor,
                       Precision precision) {
  static telemetry::Counter& compressed_count =
      telemetry::MetricRegistry::global().counter("tlr.tiles_compressed");
  static telemetry::Counter& dense_count =
      telemetry::MetricRegistry::global().counter("tlr.tiles_dense");
  static telemetry::Histogram& rank_hist =
      telemetry::MetricRegistry::global().histogram("tlr.tile_rank");
  if (factor) {
    const std::size_t rank = factor->rank();
    slot.set_low_rank(TlrTile(factor->u, factor->v, precision));
    ranks[idx] = static_cast<double>(rank + 1);
    compressed_count.add(1);
    rank_hist.record(rank);
  } else {
    ranks[idx] = 0.0;
    dense_count.add(1);
  }
  bytes[idx] = static_cast<double>(slot.storage_bytes());
}

TlrCompressionStats TlrTally::stats(const PrecisionMap& map, std::size_t n,
                                    std::size_t tile_size) const {
  const std::size_t nt = map.tile_count();
  KGWAS_CHECK_ARG(ranks.size() == nt * (nt + 1) / 2,
                  "TLR tally size does not match the precision map");
  const auto dim = [&](std::size_t t) {
    return std::min(tile_size, n - t * tile_size);
  };
  TlrCompressionStats stats;
  std::size_t rank_sum = 0;
  for (std::size_t tj = 0; tj < nt; ++tj) {
    for (std::size_t ti = tj + 1; ti < nt; ++ti) {
      const std::size_t idx = lower_tile_index(nt, ti, tj);
      if (ranks[idx] == 0.0) {
        ++stats.tiles_dense;
        continue;
      }
      const auto rank = static_cast<std::size_t>(ranks[idx]) - 1;
      stats.dense_bytes +=
          dim(ti) * dim(tj) * bytes_per_element(map.get(ti, tj));
      stats.compressed_bytes += static_cast<std::size_t>(bytes[idx]);
      stats.max_rank = std::max(stats.max_rank, rank);
      rank_sum += rank;
      ++stats.tiles_compressed;
    }
  }
  if (stats.tiles_compressed > 0) {
    stats.mean_rank = static_cast<double>(rank_sum) /
                      static_cast<double>(stats.tiles_compressed);
  }
  return stats;
}

std::size_t TlrTally::storage_bytes() const {
  std::size_t total = 0;
  for (const double b : bytes) total += static_cast<std::size_t>(b);
  return total;
}

TlrCompressionStats plan_tlr_compression(SymmetricTileMatrix& matrix,
                                         const PrecisionMap& map,
                                         const TlrPolicy& policy) {
  const std::size_t nt = matrix.tile_count();
  KGWAS_CHECK_ARG(map.tile_count() == nt,
                  "precision map size does not match tile matrix");
  check_tlr_policy(policy);
  if (policy.tol == 0.0) return {};
  matrix.set_tlr_options(policy.tol, policy.max_rank_fraction);
  TlrTally tally(nt);
  for (std::size_t tj = 0; tj < nt; ++tj) {
    for (std::size_t ti = tj + 1; ti < nt; ++ti) {
      tally.install(lower_tile_index(nt, ti, tj), matrix.slot(ti, tj),
                    compress_tile(matrix.tile(ti, tj), policy),
                    map.get(ti, tj));
    }
  }
  return tally.stats(map, matrix.n(), matrix.tile_size());
}

}  // namespace kgwas
