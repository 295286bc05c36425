// Tests for the distributed tile execution layer (src/dist): communicator
// primitives, precision-compressed tile transport, external runtime
// events, block-cyclic containers, rank-count invariance of the
// distributed Cholesky and KRR pipelines (bitwise), wire-byte compression
// under precision maps, and the simulator-vs-real communication
// calibration.
#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cmath>
#include <cstring>
#include <deque>
#include <map>
#include <mutex>
#include <optional>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "dist/cholesky_comm_pattern.hpp"
#include "dist/communicator.hpp"
#include "dist/dist_cholesky.hpp"
#include "dist/dist_krr.hpp"
#include "dist/dist_tile_matrix.hpp"
#include "dist/mailbox.hpp"
#include "dist/process_grid.hpp"
#include "dist/tile_transport.hpp"
#include "gwas/cohort_simulator.hpp"
#include "gwas/dataset.hpp"
#include "gwas/phenotype.hpp"
#include "krr/build.hpp"
#include "krr/model.hpp"
#include "krr/predict.hpp"
#include "linalg/precision_policy.hpp"
#include "linalg/tiled_cholesky.hpp"
#include "mpblas/kernels.hpp"
#include "perfmodel/dag_simulator.hpp"
#include "runtime/runtime.hpp"

namespace kgwas {
namespace {

using dist::Communicator;
using dist::InProcessWorld;
using dist::Message;
using dist::Phase;
using dist::WireVolume;
using dist::make_tile_tag;
using dist::run_ranks;

// ----------------------------------------------------------- primitives

TEST(Mailbox, PushDrainPreservesArrivalOrder) {
  dist::Mailbox box;
  for (int i = 0; i < 5; ++i) {
    box.push(Message{0, static_cast<std::uint64_t>(i), {}});
  }
  std::deque<Message> out;
  box.drain(out);
  ASSERT_EQ(out.size(), 5u);
  for (int i = 0; i < 5; ++i) {
    EXPECT_EQ(out[static_cast<std::size_t>(i)].tag,
              static_cast<std::uint64_t>(i));
  }
  EXPECT_EQ(box.arrivals(), 5u);
}

TEST(Communicator, TaggedSendRecvAcrossRanks) {
  run_ranks(3, [](Communicator& comm) {
    const int me = comm.rank();
    // Everyone sends its rank to everyone else.
    for (int r = 0; r < comm.size(); ++r) {
      if (r == me) continue;
      std::vector<std::byte> payload{static_cast<std::byte>(me)};
      comm.send(r, make_tile_tag(Phase::kGatherFull, 100 + me, r),
                std::move(payload));
    }
    for (int r = 0; r < comm.size(); ++r) {
      if (r == me) continue;
      const Message m = comm.recv(make_tile_tag(Phase::kGatherFull, 100 + r, me));
      EXPECT_EQ(m.src, r);
      ASSERT_EQ(m.payload.size(), 1u);
      EXPECT_EQ(static_cast<int>(m.payload[0]), r);
    }
    comm.barrier();
  });
}

TEST(Communicator, AllreduceSumIsDeterministicAndReplicated) {
  std::mutex mutex;
  std::vector<std::vector<double>> results;
  run_ranks(4, [&](Communicator& comm) {
    std::vector<double> v{static_cast<double>(comm.rank() + 1), 0.5};
    comm.allreduce_sum(v.data(), v.size());
    std::lock_guard<std::mutex> lock(mutex);
    results.push_back(v);
  });
  ASSERT_EQ(results.size(), 4u);
  for (const auto& v : results) {
    EXPECT_DOUBLE_EQ(v[0], 1.0 + 2.0 + 3.0 + 4.0);
    EXPECT_DOUBLE_EQ(v[1], 2.0);
  }
}

TEST(Communicator, BarrierSeparatesPhases) {
  std::atomic<int> phase_one{0};
  run_ranks(4, [&](Communicator& comm) {
    phase_one.fetch_add(1);
    comm.barrier();
    // After the barrier every rank must have finished phase one.
    EXPECT_EQ(phase_one.load(), 4);
    comm.barrier();
  });
}

TEST(Communicator, RankFailurePoisonsWorldInsteadOfHanging) {
  // Rank 1 throws before its sends; ranks blocked on it must abort fast
  // (WorldAborted via the poisoned mailboxes) and run_ranks must rethrow
  // the root-cause error, not the secondary aborts.
  EXPECT_THROW(
      run_ranks(3,
                [](Communicator& comm) {
                  if (comm.rank() == 1) {
                    throw NumericalError("synthetic pivot failure", 7);
                  }
                  // These receives can never be satisfied.
                  comm.recv(make_tile_tag(Phase::kGatherFull, 9, 9));
                }),
      NumericalError);
}

TEST(TileTransport, RoundTripsEveryStoragePrecision) {
  Matrix<float> values(7, 5);
  for (std::size_t j = 0; j < 5; ++j) {
    for (std::size_t i = 0; i < 7; ++i) {
      values(i, j) = 0.01f * static_cast<float>(i + 1) -
                     0.02f * static_cast<float>(j);
    }
  }
  for (const Precision p :
       {Precision::kFp32, Precision::kFp16, Precision::kBf16,
        Precision::kFp8E4M3}) {
    Tile tile(7, 5, p);
    tile.from_fp32(values);
    TileSlot back;
    dist::decode_slot(dist::encode_slot(TileSlot{Tile(tile)}), back);
    ASSERT_FALSE(back.is_low_rank());
    EXPECT_EQ(back.rows(), 7u);
    EXPECT_EQ(back.cols(), 5u);
    EXPECT_EQ(back.precision(), p);
    ASSERT_EQ(back.storage_bytes(), tile.storage_bytes());
    EXPECT_EQ(
        std::memcmp(back.dense().raw(), tile.raw(), tile.storage_bytes()), 0);
  }
}

TEST(TileTransport, WireLedgerCountsPayloadByPrecision) {
  run_ranks(2, [](Communicator& comm) {
    if (comm.rank() == 0) {
      Tile t(8, 8, Precision::kFp16);
      Matrix<float> v(8, 8, 0.25f);
      t.from_fp32(v);
      dist::send_dense_slot(comm, 1, make_tile_tag(Phase::kGatherFull, 0, 0),
                            t);
      EXPECT_EQ(comm.wire_volume().tile_bytes(Precision::kFp16),
                8u * 8u * 2u);
      EXPECT_EQ(comm.wire_volume().tile_bytes(Precision::kFp32), 0u);
    } else {
      const Message m = comm.recv(make_tile_tag(Phase::kGatherFull, 0, 0));
      TileSlot t;
      dist::decode_slot(m.payload, t);
      EXPECT_EQ(t.precision(), Precision::kFp16);
      EXPECT_FLOAT_EQ(t.to_fp32()(3, 3), 0.25f);
    }
    comm.barrier();
  });
}

TEST(TileTransport, TlrFrameRoundTripsBitwise) {
  // A TLR frame ships both factor payloads raw; decode must adopt them
  // bit for bit, in every storage precision factors can use.
  Matrix<float> u(9, 3), v(6, 3);
  for (std::size_t i = 0; i < u.size(); ++i) {
    u.data()[i] = 0.01f * static_cast<float>(i) - 0.1f;
  }
  for (std::size_t i = 0; i < v.size(); ++i) {
    v.data()[i] = 0.02f * static_cast<float>(i) - 0.15f;
  }
  for (const Precision p :
       {Precision::kFp32, Precision::kFp16, Precision::kFp8E4M3}) {
    const TileSlot lr{TlrTile(u, v, p)};
    TileSlot back;
    dist::decode_slot(dist::encode_slot(lr), back);
    ASSERT_TRUE(back.is_low_rank());
    EXPECT_EQ(back.rows(), 9u);
    EXPECT_EQ(back.cols(), 6u);
    EXPECT_EQ(back.low_rank().rank(), 3u);
    EXPECT_EQ(back.precision(), p);
    ASSERT_EQ(back.storage_bytes(), lr.storage_bytes());
    EXPECT_EQ(std::memcmp(back.low_rank().u().raw(), lr.low_rank().u().raw(),
                          lr.low_rank().u().storage_bytes()),
              0);
    EXPECT_EQ(std::memcmp(back.low_rank().v().raw(), lr.low_rank().v().raw(),
                          lr.low_rank().v().storage_bytes()),
              0);
    // Rank-r frame beats the dense frame whenever r * (m+n) < m * n.
    EXPECT_LT(dist::slot_frame_bytes(lr), 9u * 6u * bytes_per_element(p) + 10u);
  }
}

TEST(TileTransport, RankZeroTlrFrameRoundTrips) {
  // A rank-0 factor pair (a tile that truncated to zero) is a header-only
  // frame; its empty factors must encode and decode without handing a
  // null buffer to memcpy (caught by the UBSan build).
  const TileSlot zero{TlrTile(Matrix<float>(9, 0), Matrix<float>(6, 0),
                              Precision::kFp16)};
  TileSlot back;
  dist::decode_slot(dist::encode_slot(zero), back);
  ASSERT_TRUE(back.is_low_rank());
  EXPECT_EQ(back.rows(), 9u);
  EXPECT_EQ(back.cols(), 6u);
  EXPECT_EQ(back.low_rank().rank(), 0u);
  EXPECT_EQ(back.precision(), Precision::kFp16);
  EXPECT_EQ(back.storage_bytes(), 0u);
  EXPECT_EQ(dist::slot_frame_bytes(zero), dist::encode_slot(zero).size());
}

TEST(TileTransport, TlrSendRecordsFactorBytesInLedger) {
  run_ranks(2, [](Communicator& comm) {
    Matrix<float> u(8, 2, 0.5f), v(8, 2, 0.25f);
    if (comm.rank() == 0) {
      const TileSlot lr{TlrTile(u, v, Precision::kFp16)};
      dist::send_slot(comm, 1, make_tile_tag(Phase::kGatherFull, 1, 0), lr);
      // Ledger counts factor payload bytes: 2 * 8 * 2 halves per factor.
      EXPECT_EQ(comm.wire_volume().tile_bytes(Precision::kFp16),
                2u * (8u * 2u * 2u));
    } else {
      const Message m = comm.recv(make_tile_tag(Phase::kGatherFull, 1, 0));
      TileSlot slot;
      dist::decode_slot(m.payload, slot);
      ASSERT_TRUE(slot.is_low_rank());
      const TlrTile& lr = slot.low_rank();
      EXPECT_EQ(lr.rank(), 2u);
      EXPECT_FLOAT_EQ(lr.u_fp32()(3, 1), 0.5f);
      // U * V^T of the constant factors: rank * 0.5 * 0.25 everywhere.
      EXPECT_FLOAT_EQ(lr.to_dense()(2, 5), 2.0f * 0.5f * 0.25f);
    }
    comm.barrier();
  });
}

TEST(TileTransport, SlotFrameRoundTripsBothRepresentations) {
  // A slot frame is a one-byte representation kind + the matching inner
  // frame; decode adopts whatever representation the frame carries.
  Matrix<float> values(12, 10);
  for (std::size_t i = 0; i < values.size(); ++i) {
    values.data()[i] = 0.03f * static_cast<float>(i) - 0.2f;
  }
  Tile dense(12, 10, Precision::kFp16);
  dense.from_fp32(values);
  const TileSlot dense_slot{Tile(dense)};
  TileSlot back;
  dist::decode_slot(dist::encode_slot(dense_slot), back);
  ASSERT_FALSE(back.is_low_rank());
  ASSERT_EQ(back.dense().storage_bytes(), dense.storage_bytes());
  EXPECT_EQ(std::memcmp(back.dense().raw(), dense.raw(),
                        dense.storage_bytes()),
            0);
  EXPECT_EQ(dist::slot_frame_precision(dist::encode_slot(dense_slot)),
            Precision::kFp16);
  EXPECT_EQ(dist::slot_frame_payload_bytes(dist::encode_slot(dense_slot)),
            dense.storage_bytes());

  Matrix<float> u(12, 2), v(10, 2);
  for (std::size_t i = 0; i < u.size(); ++i) {
    u.data()[i] = 0.01f * static_cast<float>(i);
  }
  for (std::size_t i = 0; i < v.size(); ++i) {
    v.data()[i] = 0.02f * static_cast<float>(i) - 0.1f;
  }
  const TileSlot lr_slot{TlrTile(u, v, Precision::kFp16)};
  // Decoding into a slot of the *other* representation switches it.
  dist::decode_slot(dist::encode_slot(lr_slot), back);
  ASSERT_TRUE(back.is_low_rank());
  EXPECT_EQ(back.low_rank().rank(), 2u);
  EXPECT_EQ(std::memcmp(back.low_rank().u().raw(), lr_slot.low_rank().u().raw(),
                        lr_slot.low_rank().u().storage_bytes()),
            0);
  EXPECT_EQ(std::memcmp(back.low_rank().v().raw(), lr_slot.low_rank().v().raw(),
                        lr_slot.low_rank().v().storage_bytes()),
            0);
  EXPECT_EQ(dist::slot_frame_payload_bytes(dist::encode_slot(lr_slot)),
            lr_slot.storage_bytes());
  // And back to dense again.
  dist::decode_slot(dist::encode_slot(dense_slot), back);
  EXPECT_FALSE(back.is_low_rank());

  // Regression inputs: header sizes whose payload product wraps to 0 must
  // be rejected, not adopted as a 2^31 x 2^31 tile with no storage.
  const auto frame = [](std::byte kind,
                        std::initializer_list<std::uint32_t> dims,
                        std::optional<std::uint32_t> rank) {
    std::vector<std::byte> f{kind};
    const auto put = [&f](std::uint32_t x) {
      const auto* p = reinterpret_cast<const std::byte*>(&x);
      f.insert(f.end(), p, p + sizeof(x));
    };
    for (const std::uint32_t d : dims) put(d);
    f.push_back(static_cast<std::byte>(Precision::kFp32));
    if (rank) put(*rank);
    return f;
  };
  const std::uint32_t huge = 1u << 31;
  const std::vector<std::byte> dense_wrap =
      frame(std::byte{0}, {huge, huge}, std::nullopt);
  ASSERT_EQ(dense_wrap.size(), 10u);
  EXPECT_THROW(dist::decode_slot(dense_wrap, back), InvalidArgument);
  const std::vector<std::byte> tlr_wrap =
      frame(std::byte{1}, {huge, huge}, huge);
  EXPECT_THROW(dist::decode_slot(tlr_wrap, back), InvalidArgument);
  EXPECT_FALSE(back.is_low_rank());
  EXPECT_EQ(back.rows(), 12u);  // a rejected frame leaves the slot intact
}

TEST(Runtime, ExternalEventGatesSuccessors) {
  Runtime rt(2);
  const int datum = 0;
  const ExternalEvent event =
      rt.submit_external(TaskDesc{"ext", {{&datum, Access::kWrite}}, 0});
  std::atomic<bool> ran{false};
  rt.submit(TaskDesc{"consumer", {{&datum, Access::kRead}}, 0},
            [&] { ran.store(true); });
  // The consumer must not run before the signal.
  std::this_thread::sleep_for(std::chrono::milliseconds(20));
  EXPECT_FALSE(ran.load());
  rt.signal_external(event);
  rt.wait();
  EXPECT_TRUE(ran.load());
}

TEST(ProcessGrid, MatchesSimulatorOwnership) {
  // 4 ranks -> 2x2; 6 ranks -> 2x3; 5 ranks -> 1x5.
  const ProcessGrid g4(4);
  EXPECT_EQ(g4.rows(), 2);
  EXPECT_EQ(g4.cols(), 2);
  EXPECT_EQ(g4.owner(0, 0), 0);
  EXPECT_EQ(g4.owner(1, 0), 2);
  EXPECT_EQ(g4.owner(0, 1), 1);
  EXPECT_EQ(g4.owner(3, 3), 3);
  const ProcessGrid g5(5);
  EXPECT_EQ(g5.rows(), 1);
  EXPECT_EQ(g5.cols(), 5);
  const ProcessGrid g6(6);
  EXPECT_EQ(g6.rows(), 2);
  EXPECT_EQ(g6.cols(), 3);
}

TEST(DistTileMatrix, OwnershipPartitionsTiles) {
  const std::size_t n = 96, ts = 32;
  const ProcessGrid grid(4);
  std::size_t owned_total = 0;
  for (int r = 0; r < 4; ++r) {
    dist::DistSymmetricTileMatrix m(n, ts, grid, r);
    for (std::size_t tj = 0; tj < m.tile_count(); ++tj) {
      for (std::size_t ti = tj; ti < m.tile_count(); ++ti) {
        if (m.is_local(ti, tj)) {
          ++owned_total;
          EXPECT_EQ(m.tile(ti, tj).rows(), m.tile_dim(ti));
        }
      }
    }
  }
  const std::size_t nt = 3;
  EXPECT_EQ(owned_total, nt * (nt + 1) / 2);  // every tile owned exactly once

  // The rectangular cross-kernel is sharded by tile row: every tile is
  // owned exactly once, all of row ti on row_owner(ti), also in a world
  // with more ranks than row blocks (rank 3 of 4 owns none of 3).
  const std::size_t rows = 70, cols = 96;  // 3 x 3 tiles, edge row of 6
  for (const int ranks : {1, 2, 4}) {
    std::vector<int> owned(3 * 3, 0);
    for (int r = 0; r < ranks; ++r) {
      const dist::DistTileMatrix m(rows, cols, ts, ranks, r);
      ASSERT_EQ(m.tile_rows(), 3u);
      ASSERT_EQ(m.tile_cols(), 3u);
      for (std::size_t ti = 0; ti < m.tile_rows(); ++ti) {
        for (std::size_t tj = 0; tj < m.tile_cols(); ++tj) {
          if (!m.is_local(ti, tj)) {
            EXPECT_THROW((void)m.tile(ti, tj), InvalidArgument);
            continue;
          }
          ++owned[ti * 3 + tj];
          EXPECT_EQ(m.row_owner(ti), r) << ti << "," << tj;
          EXPECT_EQ(m.tile(ti, tj).rows(), m.tile_height(ti));
          EXPECT_EQ(m.tile(ti, tj).cols(), m.tile_width(tj));
        }
      }
    }
    for (const int count : owned) EXPECT_EQ(count, 1) << ranks << " ranks";
  }
}

// ------------------------------------------------- rank-count invariance

/// Deterministic SPD matrix (same construction as the bench helper, kept
/// local so the unit tests do not depend on bench/).
Matrix<float> bench_spd(std::size_t n) {
  Matrix<float> a(n, n);
  for (std::size_t j = 0; j < n; ++j) {
    for (std::size_t i = 0; i < n; ++i) {
      const double d = (static_cast<double>(i) - static_cast<double>(j)) /
                       static_cast<double>(n);
      a(i, j) = static_cast<float>(std::exp(-40.0 * d * d));
    }
  }
  for (std::size_t i = 0; i < n; ++i) a(i, i) += 1.0f;
  return a;
}

/// Reference single-rank factor via the shared-memory path.
SymmetricTileMatrix reference_factor(std::size_t n, std::size_t ts,
                                     const PrecisionMap& map) {
  SymmetricTileMatrix a(n, ts);
  a.from_dense(bench_spd(n));
  map.apply(a);
  Runtime rt(2);
  tiled_potrf(rt, a);
  return a;
}

/// Runs the distributed factorization on `ranks` ranks and returns the
/// gathered factor (rank 0) plus the world's wire volume.
std::pair<SymmetricTileMatrix, WireVolume> dist_factor(
    std::size_t n, std::size_t ts, int ranks, const PrecisionMap& map) {
  SymmetricTileMatrix full(n, ts);
  full.from_dense(bench_spd(n));
  map.apply(full);
  SymmetricTileMatrix gathered;
  // Wire volume is snapshotted per rank right after the factorization so
  // the verification gather's frames do not pollute the measurement.
  WireVolume wire;
  std::mutex wire_mutex;
  run_ranks(ranks, [&](Communicator& comm) {
    Runtime rt(1);
    const ProcessGrid grid(ranks);
    dist::DistSymmetricTileMatrix a(n, ts, grid, comm.rank());
    a.from_full(full);
    dist::DistPotrfOptions options;
    options.precision_map = &map;
    dist::dist_tiled_potrf(rt, comm, a, options);
    {
      const WireVolume mine = comm.wire_volume();
      std::lock_guard<std::mutex> lock(wire_mutex);
      wire.messages += mine.messages;
      wire.payload_bytes += mine.payload_bytes;
      for (std::size_t i = 0; i < kNumPrecisions; ++i) {
        wire.tile_payload_bytes[i] += mine.tile_payload_bytes[i];
      }
    }
    SymmetricTileMatrix out = a.gather_full(comm);
    if (comm.rank() == 0) gathered = std::move(out);
  });
  return {std::move(gathered), wire};
}

bool factors_bitwise_equal(const SymmetricTileMatrix& a,
                           const SymmetricTileMatrix& b) {
  if (a.n() != b.n() || a.tile_size() != b.tile_size()) return false;
  for (std::size_t tj = 0; tj < a.tile_count(); ++tj) {
    for (std::size_t ti = tj; ti < a.tile_count(); ++ti) {
      const Tile& ta = a.tile(ti, tj);
      const Tile& tb = b.tile(ti, tj);
      if (ta.precision() != tb.precision() ||
          ta.storage_bytes() != tb.storage_bytes()) {
        return false;
      }
      if (std::memcmp(ta.raw(), tb.raw(), ta.storage_bytes()) != 0) {
        return false;
      }
    }
  }
  return true;
}

TEST(DistCholesky, FactorIsBitwiseRankCountInvariant) {
  const std::size_t n = 128, ts = 32;
  const std::size_t nt = n / ts;
  const PrecisionMap map =
      band_precision_map(nt, 0.34, Precision::kFp16, Precision::kFp32);
  const SymmetricTileMatrix reference = reference_factor(n, ts, map);
  // 7 adds a 1x7 grid where some ranks own no tiles (and exercises the
  // packed GEMM engine's rank-count invariance at a non-power-of-two).
  std::vector<int> rank_counts{1, 2, 4, 7};
  const int env_ranks = dist::configured_ranks();
  if (env_ranks > 1 && env_ranks != 2 && env_ranks != 4 && env_ranks != 7) {
    rank_counts.push_back(env_ranks);  // KGWAS_RANKS CI job coverage
  }
  for (const int ranks : rank_counts) {
    auto [factor, wire] = dist_factor(n, ts, ranks, map);
    EXPECT_TRUE(factors_bitwise_equal(reference, factor))
        << "ranks=" << ranks;
    if (ranks == 1) {
      EXPECT_EQ(wire.total_tile_bytes(), 0u);  // nothing crosses a rank
    } else {
      EXPECT_GT(wire.total_tile_bytes(), 0u);
    }
  }
}

TEST(DistCholesky, FactorIsRankCountInvariantUnderEveryKernelVariant) {
  // Rank-count invariance is a per-variant contract: different
  // microkernel variants may round differently from each other, but for
  // any fixed variant the factor must not depend on the process-grid
  // decomposition.
  namespace kernels = mpblas::kernels;
  struct RestoreArch {
    ~RestoreArch() { kernels::set_gemm_arch(std::nullopt); }
  } restore;
  const std::size_t n = 96, ts = 32;
  const PrecisionMap map =
      band_precision_map(n / ts, 0.34, Precision::kFp16, Precision::kFp32);
  for (const kernels::Arch arch : kernels::available_archs()) {
    kernels::set_gemm_arch(arch);
    const SymmetricTileMatrix reference = reference_factor(n, ts, map);
    for (const int ranks : {2, 4}) {
      auto [factor, wire] = dist_factor(n, ts, ranks, map);
      EXPECT_TRUE(factors_bitwise_equal(reference, factor))
          << "variant " << to_string(arch) << " ranks=" << ranks;
    }
  }
}

TEST(DistCholesky, LoweringStoragePrecisionShrinksWireBytes) {
  const std::size_t n = 128, ts = 32;
  const std::size_t nt = n / ts;
  const PrecisionMap fp32_map(nt, Precision::kFp32);
  const PrecisionMap band =
      band_precision_map(nt, 0.0, Precision::kFp16, Precision::kFp32);
  const auto [f1, wire_fp32] = dist_factor(n, ts, 4, fp32_map);
  const auto [f2, wire_band] = dist_factor(n, ts, 4, band);
  EXPECT_GT(wire_band.tile_bytes(Precision::kFp16), 0u);
  EXPECT_LT(wire_band.total_tile_bytes(), wire_fp32.total_tile_bytes());
}

TEST(DistCholesky, WireBytesMatchSimulatorAccountingExactly) {
  // The calibration gate: the DAG simulator's communication accounting
  // and the communicator's measured tile payload ledger must agree to
  // the byte, per storage precision, for the same grid and precision map.
  const std::size_t n = 192, ts = 32;  // uniform tiles (n % ts == 0)
  const std::size_t nt = n / ts;
  const PrecisionMap map =
      band_precision_map(nt, 0.4, Precision::kFp16, Precision::kFp32);
  for (const int ranks : {2, 4}) {
    const auto modelled = cholesky_comm_bytes(nt, ts, map, ranks);
    const auto [factor, wire] = dist_factor(n, ts, ranks, map);
    std::uint64_t modelled_total = 0;
    for (const auto& [precision, bytes] : modelled) {
      EXPECT_EQ(wire.tile_bytes(precision), bytes)
          << "ranks=" << ranks << " precision=" << to_string(precision);
      modelled_total += bytes;
    }
    EXPECT_EQ(wire.total_tile_bytes(), modelled_total) << "ranks=" << ranks;
  }
}

TEST(DistCholesky, TaskFlopsSumToSharedMemoryCounts) {
  // Dist tasks carry the shared submission loop's FLOP counts: on a
  // 4-rank grid every factorization kernel class reports FLOPs, and the
  // per-class sums over ranks equal the shared-memory factorization's.
  const std::size_t n = 192, ts = 32;
  const PrecisionMap map =
      band_precision_map(n / ts, 0.34, Precision::kFp16, Precision::kFp32);
  SymmetricTileMatrix full(n, ts);
  full.from_dense(bench_spd(n));
  map.apply(full);
  std::map<std::string, TaskStats> shared;
  {
    SymmetricTileMatrix a = full;
    Runtime rt(2, /*enable_profiling=*/true);
    tiled_potrf(rt, a);
    shared = rt.profiler().stats();
  }
  std::mutex mutex;
  std::map<std::string, double> dist_flops;
  run_ranks(4, [&](Communicator& comm) {
    Runtime rt(1, /*enable_profiling=*/true);
    dist::DistSymmetricTileMatrix a(n, ts, ProcessGrid(4), comm.rank());
    a.from_full(full);
    dist::DistPotrfOptions options;
    options.precision_map = &map;
    dist::dist_tiled_potrf(rt, comm, a, options);
    std::lock_guard<std::mutex> lock(mutex);
    for (const auto& [name, stats] : rt.profiler().stats()) {
      dist_flops[name] += stats.flops;
    }
  });
  for (const char* cls : {"potrf", "trsm", "syrk", "gemm"}) {
    ASSERT_EQ(shared.count(cls), 1u) << cls;
    EXPECT_GT(dist_flops[cls], 0.0) << cls;
    EXPECT_NEAR(dist_flops[cls], shared.at(cls).flops,
                1e-12 * shared.at(cls).flops)
        << cls;
  }
}

TEST(DistKrr, BuildAndPredictTaskFlopsSumToSharedMemoryCounts) {
  // Dist Build and Predict tasks are charged their shared-memory twins'
  // FLOPs: per class, the sums over a 4-rank grid equal the shared-memory
  // run's (kernel tiles, cross-kernel tiles, predict GEMM links).
  const GenotypeMatrix train = simulate_random_genotypes(96, 40, 5);
  const GenotypeMatrix test = simulate_random_genotypes(70, 40, 6);
  const Matrix<float> train_conf(train.patients(), 0);
  const Matrix<float> test_conf(test.patients(), 0);
  BuildConfig config;
  config.tile_size = 32;
  config.gamma = 0.02;
  const Matrix<float> weights(train.patients(), 2, 0.5f);
  std::map<std::string, TaskStats> shared;
  {
    Runtime rt(2, /*enable_profiling=*/true);
    build_kernel_matrix(rt, train, train_conf, config);
    const TileMatrix cross =
        build_cross_kernel(rt, test, test_conf, train, train_conf, config);
    predict_from_cross_kernel(rt, cross, weights);
    shared = rt.profiler().stats();
  }
  // Each rank's tile bytes sent by Build and by Predict.  Build ships
  // nothing; Predict ships exactly the prediction allgather — each row
  // block's FP32 bytes from its row owner to the 3 peers — and no
  // cross-kernel tile.
  constexpr int kRanks = 4;
  std::vector<std::uint64_t> build_bytes(kRanks), predict_bytes(kRanks),
      predict_fp32_bytes(kRanks);
  std::mutex mutex;
  std::map<std::string, double> dist_flops;
  run_ranks(kRanks, [&](Communicator& comm) {
    Runtime rt(1, /*enable_profiling=*/true);
    const ProcessGrid grid(kRanks);
    const WireVolume start = comm.wire_volume();
    dist::dist_build_kernel_matrix(rt, comm, grid, train, train_conf, config);
    dist::DistTileMatrix cross = dist::dist_build_cross_kernel(
        rt, comm, grid, test, test_conf, train, train_conf, config);
    const WireVolume built = comm.wire_volume();
    dist::dist_predict(rt, comm, cross, weights);
    const WireVolume predicted = comm.wire_volume();
    std::lock_guard<std::mutex> lock(mutex);
    const auto r = static_cast<std::size_t>(comm.rank());
    build_bytes[r] = built.total_tile_bytes() - start.total_tile_bytes();
    predict_bytes[r] =
        predicted.total_tile_bytes() - built.total_tile_bytes();
    predict_fp32_bytes[r] = predicted.tile_bytes(Precision::kFp32) -
                            built.tile_bytes(Precision::kFp32);
    for (const auto& [name, stats] : rt.profiler().stats()) {
      dist_flops[name] += stats.flops;
    }
  });
  for (const char* cls : {"build_k", "build_kx", "predict_gemm"}) {
    ASSERT_EQ(shared.count(cls), 1u) << cls;
    EXPECT_GT(dist_flops[cls], 0.0) << cls;
    EXPECT_NEAR(dist_flops[cls], shared.at(cls).flops,
                1e-12 * shared.at(cls).flops)
        << cls;
  }
  const std::size_t ts = config.tile_size;
  const std::size_t row_blocks = (test.patients() + ts - 1) / ts;
  std::vector<std::uint64_t> gather_bytes(kRanks, 0);
  for (std::size_t ti = 0; ti < row_blocks; ++ti) {
    const std::size_t height = std::min(ts, test.patients() - ti * ts);
    gather_bytes[ti % kRanks] +=
        height * weights.cols() * sizeof(float) * (kRanks - 1);
  }
  for (std::size_t r = 0; r < kRanks; ++r) {
    EXPECT_EQ(build_bytes[r], 0u) << "rank " << r;
    EXPECT_EQ(predict_bytes[r], gather_bytes[r]) << "rank " << r;
    EXPECT_EQ(predict_fp32_bytes[r], gather_bytes[r]) << "rank " << r;
  }
}

TEST(DistCholesky, PosvSolutionIsBitwiseRankCountInvariant) {
  const std::size_t n = 96, ts = 32;
  const std::size_t nt = n / ts;
  const PrecisionMap map =
      band_precision_map(nt, 0.5, Precision::kFp16, Precision::kFp32);
  // Reference: shared-memory factor + solve.
  SymmetricTileMatrix a(n, ts);
  a.from_dense(bench_spd(n));
  map.apply(a);
  Matrix<float> b(n, 3);
  for (std::size_t j = 0; j < 3; ++j) {
    for (std::size_t i = 0; i < n; ++i) {
      b(i, j) = 0.01f * static_cast<float>(i) + static_cast<float>(j);
    }
  }
  Matrix<float> x_ref = b;
  {
    Runtime rt(2);
    tiled_potrf(rt, a);
    tiled_potrs(rt, a, x_ref);
  }
  for (const int ranks : {2, 4}) {
    SymmetricTileMatrix full(n, ts);
    full.from_dense(bench_spd(n));
    map.apply(full);
    std::mutex mutex;
    std::vector<Matrix<float>> solutions;
    run_ranks(ranks, [&](Communicator& comm) {
      Runtime rt(1);
      const ProcessGrid grid(ranks);
      dist::DistSymmetricTileMatrix da(n, ts, grid, comm.rank());
      da.from_full(full);
      dist::DistPotrfOptions options;
      options.precision_map = &map;
      dist::dist_tiled_potrf(rt, comm, da, options);
      Matrix<float> x = b;
      dist::dist_tiled_potrs(rt, comm, da, x);
      std::lock_guard<std::mutex> lock(mutex);
      solutions.push_back(std::move(x));
    });
    ASSERT_EQ(solutions.size(), static_cast<std::size_t>(ranks));
    // Replicated on every rank, and bitwise equal to the reference.
    for (const auto& x : solutions) {
      ASSERT_EQ(x.rows(), x_ref.rows());
      EXPECT_EQ(std::memcmp(x.data(), x_ref.data(),
                            x.size() * sizeof(float)),
                0)
          << "ranks=" << ranks;
    }
  }
}

// ---------------------------------------------- TLR rank-count invariance

/// Gaussian kernel over a smooth 1D geometry (the low-rank suite's
/// fixture): off-diagonal tiles are numerically low-rank and + 2I keeps
/// the matrix comfortably SPD at every storage precision used here.
Matrix<float> tlr_spd(std::size_t n) {
  Matrix<float> k(n, n);
  for (std::size_t j = 0; j < n; ++j) {
    for (std::size_t i = 0; i < n; ++i) {
      const double d = static_cast<double>(i) - static_cast<double>(j);
      k(i, j) = static_cast<float>(std::exp(-d * d / 900.0));
    }
  }
  for (std::size_t i = 0; i < n; ++i) k(i, i) += 2.0f;
  return k;
}

/// Bitwise slot comparison: representation kind, rank/precision, and raw
/// storage bytes (both factors for a low-rank slot) must all agree.
bool slots_bitwise_equal(const SymmetricTileMatrix& a,
                         const SymmetricTileMatrix& b) {
  if (a.n() != b.n() || a.tile_size() != b.tile_size()) return false;
  for (std::size_t tj = 0; tj < a.tile_count(); ++tj) {
    for (std::size_t ti = tj; ti < a.tile_count(); ++ti) {
      const TileSlot& sa = a.slot(ti, tj);
      const TileSlot& sb = b.slot(ti, tj);
      if (sa.is_low_rank() != sb.is_low_rank()) return false;
      if (sa.precision() != sb.precision() ||
          sa.storage_bytes() != sb.storage_bytes()) {
        return false;
      }
      if (sa.is_low_rank()) {
        const TlrTile& la = sa.low_rank();
        const TlrTile& lb = sb.low_rank();
        if (la.rank() != lb.rank()) return false;
        if (la.u().storage_bytes() != 0 &&
            std::memcmp(la.u().raw(), lb.u().raw(),
                        la.u().storage_bytes()) != 0) {
          return false;
        }
        if (la.v().storage_bytes() != 0 &&
            std::memcmp(la.v().raw(), lb.v().raw(),
                        la.v().storage_bytes()) != 0) {
          return false;
        }
      } else if (std::memcmp(sa.dense().raw(), sb.dense().raw(),
                             sa.storage_bytes()) != 0) {
        return false;
      }
    }
  }
  return true;
}

/// Builds the compressed input once: TLR planning runs BEFORE the
/// precision map applies, so factors quantize once from full-fidelity
/// values (the same order the KRR pipeline uses).
SymmetricTileMatrix tlr_input(std::size_t n, std::size_t ts,
                              const PrecisionMap& map,
                              const TlrPolicy& policy) {
  SymmetricTileMatrix full(n, ts);
  full.from_dense(tlr_spd(n));
  plan_tlr_compression(full, map, policy);
  map.apply(full);
  return full;
}

TEST(DistTlrCholesky, FactorAndSolveBitwiseRankCountInvariant) {
  // The dist TLR contract: owner-computes factored kernels plus TLR wire
  // frames must reproduce the shared-memory compressed factorization bit
  // for bit on every process grid, and the solve on top of it too.
  const std::size_t n = 192, ts = 32;
  const std::size_t nt = n / ts;
  const PrecisionMap map =
      band_precision_map(nt, 0.34, Precision::kFp16, Precision::kFp32);
  TlrPolicy policy;
  policy.tol = 1e-4;
  const SymmetricTileMatrix full = tlr_input(n, ts, map, policy);
  ASSERT_TRUE(full.has_low_rank());  // fixture sanity: compression bit

  // Shared-memory reference: factor + solve on the same compressed input.
  SymmetricTileMatrix reference = full;
  Matrix<float> b(n, 2);
  for (std::size_t j = 0; j < 2; ++j) {
    for (std::size_t i = 0; i < n; ++i) {
      b(i, j) = 0.01f * static_cast<float>(i) - static_cast<float>(j);
    }
  }
  Matrix<float> x_ref = b;
  {
    Runtime rt(2);
    tiled_potrf(rt, reference);
    tiled_potrs(rt, reference, x_ref);
  }
  ASSERT_TRUE(reference.has_low_rank());  // factor keeps compressed tiles

  std::vector<int> rank_counts{1, 2, 4, 6};
  const int env_ranks = dist::configured_ranks();
  if (env_ranks > 1 && env_ranks != 2 && env_ranks != 4 && env_ranks != 6) {
    rank_counts.push_back(env_ranks);  // KGWAS_RANKS CI job coverage
  }
  for (const int ranks : rank_counts) {
    SymmetricTileMatrix gathered;
    WireVolume wire;
    std::mutex mutex;
    std::vector<Matrix<float>> solutions;
    run_ranks(ranks, [&](Communicator& comm) {
      Runtime rt(1);
      const ProcessGrid grid(ranks);
      dist::DistSymmetricTileMatrix da(n, ts, grid, comm.rank());
      da.from_full(full);
      dist::DistPotrfOptions options;
      options.precision_map = &map;
      dist::dist_tiled_potrf(rt, comm, da, options);
      Matrix<float> x = b;
      dist::dist_tiled_potrs(rt, comm, da, x);
      {
        const WireVolume mine = comm.wire_volume();
        std::lock_guard<std::mutex> lock(mutex);
        wire.messages += mine.messages;
        wire.payload_bytes += mine.payload_bytes;
        for (std::size_t i = 0; i < kNumPrecisions; ++i) {
          wire.tile_payload_bytes[i] += mine.tile_payload_bytes[i];
        }
        solutions.push_back(std::move(x));
      }
      SymmetricTileMatrix out = da.gather_full(comm);
      if (comm.rank() == 0) gathered = std::move(out);
    });
    EXPECT_TRUE(slots_bitwise_equal(reference, gathered))
        << "ranks=" << ranks;
    ASSERT_EQ(solutions.size(), static_cast<std::size_t>(ranks));
    for (const auto& x : solutions) {
      EXPECT_EQ(
          std::memcmp(x.data(), x_ref.data(), x.size() * sizeof(float)), 0)
          << "ranks=" << ranks;
    }
    if (ranks == 1) EXPECT_EQ(wire.total_tile_bytes(), 0u);
  }
}

TEST(DistTlrCholesky, CompressionShrinksWireBytes) {
  // The paper's communication argument: shipping factor pairs instead of
  // dense off-diagonal tiles must shrink the wire ledger on the same
  // grid, same precision map, same input.
  const std::size_t n = 192, ts = 32;
  const std::size_t nt = n / ts;
  const PrecisionMap map(nt, Precision::kFp32);
  const auto factor_wire = [&](double tol) {
    TlrPolicy policy;
    policy.tol = tol;
    const SymmetricTileMatrix full = tlr_input(n, ts, map, policy);
    WireVolume wire;
    std::mutex mutex;
    run_ranks(4, [&](Communicator& comm) {
      Runtime rt(1);
      dist::DistSymmetricTileMatrix da(n, ts, ProcessGrid(4), comm.rank());
      da.from_full(full);
      dist::DistPotrfOptions options;
      options.precision_map = &map;
      dist::dist_tiled_potrf(rt, comm, da, options);
      const WireVolume mine = comm.wire_volume();
      std::lock_guard<std::mutex> lock(mutex);
      wire.payload_bytes += mine.payload_bytes;
      for (std::size_t i = 0; i < kNumPrecisions; ++i) {
        wire.tile_payload_bytes[i] += mine.tile_payload_bytes[i];
      }
    });
    return wire;
  };
  const WireVolume dense = factor_wire(0.0);
  const WireVolume tlr = factor_wire(1e-4);
  EXPECT_GT(tlr.total_tile_bytes(), 0u);
  EXPECT_LT(tlr.total_tile_bytes(), dense.total_tile_bytes());
}

// --------------------------------------------------------- KRR pipeline

const GwasDataset& small_dataset() {
  static const GwasDataset dataset = [] {
    CohortConfig cc;
    cc.n_patients = 220;
    cc.n_snps = 48;
    cc.n_populations = 3;
    cc.seed = 99;
    Cohort cohort = simulate_cohort(cc);
    PhenotypeConfig pc;
    pc.name = "trait";
    pc.n_causal = 16;
    pc.n_pairs = 12;
    pc.h2_additive = 0.3;
    pc.h2_epistatic = 0.4;
    pc.prevalence = 0.0;
    pc.seed = 3;
    PhenotypePanel panel = simulate_panel(cohort, {pc});
    return make_dataset(std::move(cohort), std::move(panel));
  }();
  return dataset;
}

/// Rank-count list of the KRR pipeline tests: `base` plus KGWAS_RANKS
/// when the CI job sets a world size not already in it.
std::vector<int> krr_rank_counts(std::vector<int> base) {
  const int env_ranks = dist::configured_ranks();
  if (env_ranks > 1 &&
      std::find(base.begin(), base.end(), env_ranks) == base.end()) {
    base.push_back(env_ranks);
  }
  return base;
}

/// The dist pipeline result must be the shared-memory KrrModel's, bit
/// for bit: weights, predictions, precision map and footprint.
void expect_matches_model(const dist::DistKrrResult& result,
                          const KrrModel& model,
                          const Matrix<float>& ref_predictions, int ranks) {
  ASSERT_EQ(result.weights.rows(), model.weights().rows());
  ASSERT_EQ(result.weights.cols(), model.weights().cols());
  EXPECT_EQ(std::memcmp(result.weights.data(), model.weights().data(),
                        result.weights.size() * sizeof(float)),
            0)
      << "weights diverge at ranks=" << ranks;
  ASSERT_EQ(result.predictions.rows(), ref_predictions.rows());
  EXPECT_EQ(std::memcmp(result.predictions.data(), ref_predictions.data(),
                        result.predictions.size() * sizeof(float)),
            0)
      << "predictions diverge at ranks=" << ranks;
  // The adaptive precision decision replicates too.
  EXPECT_EQ(result.map.tile_count(), model.precision_map().tile_count());
  for (std::size_t tj = 0; tj < result.map.tile_count(); ++tj) {
    for (std::size_t ti = tj; ti < result.map.tile_count(); ++ti) {
      EXPECT_EQ(result.map.get(ti, tj), model.precision_map().get(ti, tj));
    }
  }
  EXPECT_EQ(result.factor_bytes, model.factor_bytes()) << "ranks=" << ranks;
  EXPECT_EQ(result.fp32_bytes, model.fp32_bytes());
}

TEST(DistKrr, PipelineIsBitwiseRankCountInvariant) {
  const TrainTestSplit split = split_dataset(small_dataset(), 0.75, 17);
  KrrConfig config;
  config.build.tile_size = 32;
  config.build.gamma = 0.02;
  config.associate.alpha = 0.3;
  config.associate.mode = PrecisionMode::kAdaptive;

  // Shared-memory reference.
  Runtime rt(2);
  KrrModel model;
  model.fit(rt, split.train, config);
  const Matrix<float> ref_predictions = model.predict(rt, split.test);

  for (const int ranks : krr_rank_counts({1, 2, 4, 7})) {
    const dist::DistKrrResult result =
        dist::run_dist_krr(ranks, split.train, split.test, config);
    expect_matches_model(result, model, ref_predictions, ranks);
  }
}

TEST(DistKrr, TlrPipelineMatchesSharedMemoryBitwise) {
  // config.associate.tlr on the dist path: every rank compresses the
  // tiles it owns exactly as shared memory compresses them, so the dist
  // pipeline factors the same compressed matrix and reports the same
  // global footprint.  64-wide tiles of a smoothed kernel compress at
  // tol 1e-2 (32-wide ones never pass the crossover rule).
  CohortConfig cc;
  cc.n_patients = 480;
  cc.n_snps = 64;
  cc.n_populations = 3;
  cc.seed = 99;
  Cohort cohort = simulate_cohort(cc);
  PhenotypeConfig pc;
  pc.name = "trait";
  pc.n_causal = 16;
  pc.n_pairs = 12;
  pc.h2_additive = 0.3;
  pc.h2_epistatic = 0.4;
  pc.prevalence = 0.0;
  pc.seed = 3;
  PhenotypePanel panel = simulate_panel(cohort, {pc});
  const TrainTestSplit split = split_dataset(
      make_dataset(std::move(cohort), std::move(panel)), 0.75, 17);
  KrrConfig config;
  config.build.tile_size = 64;
  config.auto_gamma_scale = 0.5;
  config.associate.alpha = 2.0;
  config.associate.mode = PrecisionMode::kAdaptive;
  config.associate.tlr = TlrPolicy{};  // explicit, env knob or not
  config.associate.tlr.tol = 1e-2;

  Runtime rt(2);
  KrrModel model;
  model.fit(rt, split.train, config);
  const Matrix<float> ref_predictions = model.predict(rt, split.test);
  const std::size_t all_dense =
      map_storage_bytes(model.precision_map(), split.train.patients(),
                        config.build.tile_size);
  ASSERT_LT(model.factor_bytes(), all_dense);  // fixture: tiles compress

  for (const int ranks : krr_rank_counts({1, 2, 4})) {
    const dist::DistKrrResult result =
        dist::run_dist_krr(ranks, split.train, split.test, config);
    expect_matches_model(result, model, ref_predictions, ranks);
    EXPECT_LT(result.factor_bytes, all_dense) << "ranks=" << ranks;
  }
}

TEST(DistKrr, TlrPipelineAtTile128MatchesSharedMemoryBitwise) {
  // The same contract on 128-wide tiles, where compress_tile takes the
  // randomized range finder (rank cap 32, a 48-column sample): every rank
  // sketches the tiles it owns with the shape-seeded Gaussian sample, so
  // the dist pipeline still factors the shared-memory matrix bit for bit.
  CohortConfig cc;
  cc.n_patients = 1024;
  cc.n_snps = 64;
  cc.n_populations = 3;
  cc.seed = 99;
  Cohort cohort = simulate_cohort(cc);
  PhenotypeConfig pc;
  pc.name = "trait";
  pc.n_causal = 16;
  pc.n_pairs = 12;
  pc.h2_additive = 0.3;
  pc.h2_epistatic = 0.4;
  pc.prevalence = 0.0;
  pc.seed = 3;
  PhenotypePanel panel = simulate_panel(cohort, {pc});
  const TrainTestSplit split = split_dataset(
      make_dataset(std::move(cohort), std::move(panel)), 0.75, 17);
  KrrConfig config;
  config.build.tile_size = 128;
  config.auto_gamma_scale = 0.5;
  config.associate.alpha = 2.0;
  config.associate.mode = PrecisionMode::kAdaptive;
  config.associate.tlr = TlrPolicy{};  // explicit, env knob or not
  config.associate.tlr.tol = 1e-2;

  Runtime rt(2);
  KrrModel model;
  model.fit(rt, split.train, config);
  const Matrix<float> ref_predictions = model.predict(rt, split.test);
  const std::size_t all_dense =
      map_storage_bytes(model.precision_map(), split.train.patients(),
                        config.build.tile_size);
  ASSERT_LT(model.factor_bytes(), all_dense);  // fixture: tiles compress

  for (const int ranks : krr_rank_counts({1, 2, 4})) {
    const dist::DistKrrResult result =
        dist::run_dist_krr(ranks, split.train, split.test, config);
    expect_matches_model(result, model, ref_predictions, ranks);
    EXPECT_LT(result.factor_bytes, all_dense) << "ranks=" << ranks;
  }
}

}  // namespace
}  // namespace kgwas
