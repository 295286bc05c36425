// The two ways a workload runs the pipeline: on one shared-memory Runtime
// (krr layer entry points) or on the in-process multi-rank world (dist
// layer entry points).  Both present the same call — one repetition of
// Build -> Associate -> Predict, optionally traced — so the measurement
// loop in pipeline.cpp is the same for every workload.
#pragma once

#include <condition_variable>
#include <cstdint>
#include <exception>
#include <memory>
#include <mutex>
#include <stdexcept>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "dist/communicator.hpp"
#include "dist/dist_krr.hpp"
#include "gwas/dataset.hpp"
#include "krr/associate.hpp"
#include "krr/build.hpp"
#include "krr/model.hpp"
#include "krr/predict.hpp"
#include "linalg/precision_policy.hpp"
#include "linalg/tiled_cholesky.hpp"
#include "pipeline/spans.hpp"
#include "pipeline/workloads.hpp"
#include "runtime/runtime.hpp"

namespace pipebench {

/// Everything one setup generates from the seed: the split cohort and the
/// pipeline configuration derived from its training half.
struct Inputs {
  Inputs(const Workload& w, std::uint64_t seed) : workload(w) {
    const kgwas::GwasDataset cohort =
        ukb_like_cohort(w.patients, w.snps, seed);
    split = kgwas::split_dataset(cohort, 0.8, seed);
    phenotype_names = cohort.phenotype_names;
    config = krr_config(w, split.train);
  }

  const Workload& workload;
  kgwas::TrainTestSplit split;
  std::vector<std::string> phenotype_names;
  kgwas::KrrConfig config;
};

/// What only a traced repetition records.
struct RepTrace {
  std::vector<std::vector<kgwas::TaskSpan>> tasks;  ///< per rank
  std::size_t workers = 0;                          ///< summed over ranks
  std::uint64_t steals = 0;
  kgwas::BatchStats batch;                          ///< this rep only
  kgwas::dist::WireVolume wire;                     ///< dist: whole rep
  kgwas::dist::WireVolume wire_associate;           ///< dist: Associate
};

struct RepResult {
  /// Root span "rep" with one child per phase ("build", "associate",
  /// "predict"), each holding the layer calls of that phase.
  SpanLog spans;
  kgwas::Matrix<float> weights;
  kgwas::Matrix<float> predictions;
  kgwas::PrecisionMap map;
  std::size_t factor_bytes = 0;
  std::size_t fp32_bytes = 0;
  kgwas::TlrCompressionStats tlr;
  std::unique_ptr<RepTrace> trace;  ///< set on traced reps only
};

class Engine {
 public:
  virtual ~Engine() = default;
  /// Runs one repetition.  Throws on any failure of the pipeline.
  virtual RepResult rep(bool traced) = 0;
  /// False once the engine can run no more repetitions.
  virtual bool alive() { return true; }
};

namespace detail {

inline kgwas::dist::WireVolume wire_minus(kgwas::dist::WireVolume a,
                                          const kgwas::dist::WireVolume& b) {
  a.messages -= b.messages;
  a.payload_bytes -= b.payload_bytes;
  for (std::size_t p = 0; p < a.tile_payload_bytes.size(); ++p) {
    a.tile_payload_bytes[p] -= b.tile_payload_bytes[p];
  }
  return a;
}

inline void wire_add(kgwas::dist::WireVolume& a,
                     const kgwas::dist::WireVolume& b) {
  a.messages += b.messages;
  a.payload_bytes += b.payload_bytes;
  for (std::size_t p = 0; p < a.tile_payload_bytes.size(); ++p) {
    a.tile_payload_bytes[p] += b.tile_payload_bytes[p];
  }
}

inline kgwas::BatchStats batch_minus(kgwas::BatchStats a,
                                     const kgwas::BatchStats& b) {
  a.groups -= b.groups;
  a.batched_tasks -= b.batched_tasks;
  a.empty_runs -= b.empty_runs;
  return a;
}

/// The Associate phase as its public layer calls, each in its own span —
/// the same sequence associate() runs on its non-escalating path, so the
/// weights are bitwise those of associate().
inline kgwas::AssociateResult associate_by_layer(
    kgwas::Runtime& rt, kgwas::SymmetricTileMatrix& k,
    const kgwas::Matrix<float>& phenotypes,
    const kgwas::AssociateConfig& config, SpanLog& log) {
  kgwas::AssociateResult result;
  log.scope("tile.add_diagonal", [&] {
    kgwas::add_diagonal(k, static_cast<float>(config.alpha));
  });
  result.fp32_bytes = kgwas::map_storage_bytes(
      kgwas::PrecisionMap(k.tile_count(), kgwas::Precision::kFp32), k.n(),
      k.tile_size());
  result.map = log.scope("linalg.plan_map", [&] {
    return kgwas::plan_precision_map(k, config);
  });
  if (config.tlr.tol > 0.0) {
    result.tlr = log.scope("linalg.tlr_plan", [&] {
      return kgwas::plan_tlr_compression(k, result.map, config.tlr);
    });
  }
  log.scope("tile.apply_map", [&] { result.map.apply(k); });
  result.factor_bytes = k.storage_bytes();
  kgwas::TiledPotrfOptions options;
  options.on_breakdown = config.on_breakdown;
  options.max_escalations = config.max_escalations;
  options.report = &result.report;
  log.scope("linalg.potrf", [&] { kgwas::tiled_potrf(rt, k, options); });
  result.weights = phenotypes;
  log.scope("linalg.potrs",
            [&] { kgwas::tiled_potrs(rt, k, result.weights); });
  return result;
}

}  // namespace detail

/// Shared memory: krr-layer entry points on one Runtime.  Untraced reps
/// call associate() whole; traced reps run it layer by layer on a second,
/// profiling Runtime.
class SharedEngine final : public Engine {
 public:
  SharedEngine(const Inputs& inputs, std::size_t workers)
      : in_(inputs), runtime_(workers) {}

  RepResult rep(bool traced) override {
    if (traced && !traced_runtime_) {
      traced_runtime_ =
          std::make_unique<kgwas::Runtime>(runtime_.workers(), true);
    }
    kgwas::Runtime& rt = traced ? *traced_runtime_ : runtime_;
    if (traced) rt.reset_profiling();
    const kgwas::BatchStats batch_before = rt.batch_stats();

    RepResult r;
    SpanLog& log = r.spans;
    const kgwas::GwasDataset& train = in_.split.train;
    const kgwas::GwasDataset& test = in_.split.test;
    const kgwas::KrrConfig& c = in_.config;
    log.scope("rep", [&] {
      kgwas::SymmetricTileMatrix k = log.scope("build", [&] {
        return log.scope("krr.build_kernel", [&] {
          return kgwas::build_kernel_matrix(rt, train.genotypes,
                                            train.confounders, c.build);
        });
      });
      kgwas::AssociateResult a = log.scope("associate", [&] {
        if (traced) {
          return detail::associate_by_layer(rt, k, train.phenotypes,
                                            c.associate, log);
        }
        return log.scope("krr.associate", [&] {
          return kgwas::associate(rt, k, train.phenotypes, c.associate);
        });
      });
      r.predictions = log.scope("predict", [&] {
        const kgwas::TileMatrix cross = log.scope("krr.cross_kernel", [&] {
          return kgwas::build_cross_kernel(rt, test.genotypes,
                                           test.confounders, train.genotypes,
                                           train.confounders, c.build);
        });
        return log.scope("krr.predict_gemm", [&] {
          return kgwas::predict_from_cross_kernel(rt, cross, a.weights);
        });
      });
      r.weights = std::move(a.weights);
      r.map = std::move(a.map);
      r.factor_bytes = a.factor_bytes;
      r.fp32_bytes = a.fp32_bytes;
      r.tlr = a.tlr;
    });

    if (traced) {
      r.trace = std::make_unique<RepTrace>();
      r.trace->tasks.push_back(rt.profiler().spans());
      r.trace->workers = rt.workers();
      r.trace->steals = rt.profiler().scheduler_stats().tasks_stolen;
      r.trace->batch = detail::batch_minus(rt.batch_stats(), batch_before);
    }
    return r;
  }

 private:
  const Inputs& in_;
  kgwas::Runtime runtime_;
  std::unique_ptr<kgwas::Runtime> traced_runtime_;
};

/// Multi-rank: dist-layer entry points on an in-process world whose rank
/// threads live as long as the engine, so world and runtime creation are
/// paid once, at setup.  rep() hands a command to every rank and waits;
/// rank 0's spans time each phase between barriers.
class DistEngine final : public Engine {
 public:
  DistEngine(const Inputs& inputs, int ranks, std::size_t workers)
      : in_(inputs), ranks_(ranks), workers_(workers),
        out_(static_cast<std::size_t>(ranks)) {
    world_ = std::thread([this] {
      std::exception_ptr error;
      try {
        kgwas::dist::run_ranks(
            ranks_, [this](kgwas::dist::Communicator& comm) { serve(comm); });
      } catch (...) {
        error = std::current_exception();
      }
      {
        const std::lock_guard<std::mutex> lock(mutex_);
        error_ = error;
        world_down_ = true;
      }
      cv_.notify_all();
    });
  }

  ~DistEngine() override {
    {
      const std::lock_guard<std::mutex> lock(mutex_);
      stop_ = true;
    }
    cv_.notify_all();
    world_.join();
  }

  DistEngine(const DistEngine&) = delete;
  DistEngine& operator=(const DistEngine&) = delete;

  bool alive() override {
    const std::lock_guard<std::mutex> lock(mutex_);
    return !world_down_;
  }

  RepResult rep(bool traced) override {
    {
      std::unique_lock<std::mutex> lock(mutex_);
      if (world_down_) throw std::runtime_error("the rank world has exited");
      traced_command_ = traced;
      done_ = 0;
      ++command_;
      cv_.notify_all();
      cv_.wait(lock, [&] { return done_ == ranks_ || world_down_; });
      if (done_ != ranks_) {
        if (error_) std::rethrow_exception(error_);
        throw std::runtime_error("the rank world exited mid-repetition");
      }
    }
    RankOut& root = out_[0];
    RepResult r;
    r.spans = std::move(root.spans);
    r.weights = std::move(root.assoc.weights);
    r.predictions = std::move(root.predictions);
    r.map = std::move(root.assoc.map);
    r.factor_bytes = root.assoc.factor_bytes;
    r.fp32_bytes = root.assoc.fp32_bytes;
    if (traced) {
      r.trace = std::make_unique<RepTrace>();
      for (RankOut& o : out_) {
        r.trace->tasks.push_back(std::move(o.tasks));
        r.trace->workers += workers_;
        r.trace->steals += o.steals;
        r.trace->batch.groups += o.batch.groups;
        r.trace->batch.batched_tasks += o.batch.batched_tasks;
        detail::wire_add(r.trace->wire, o.wire);
        detail::wire_add(r.trace->wire_associate, o.wire_associate);
      }
    }
    return r;
  }

 private:
  /// Per-rank outputs of the last rep; rank r writes only out_[r], and the
  /// caller reads them after every rank has reported done under mutex_.
  struct RankOut {
    SpanLog spans;
    kgwas::AssociateResult assoc;
    kgwas::Matrix<float> predictions;
    std::vector<kgwas::TaskSpan> tasks;
    std::uint64_t steals = 0;
    kgwas::BatchStats batch;
    kgwas::dist::WireVolume wire;
    kgwas::dist::WireVolume wire_associate;
  };

  void serve(kgwas::dist::Communicator& comm) {
    kgwas::Runtime runtime(workers_);
    std::unique_ptr<kgwas::Runtime> traced_runtime;
    std::uint64_t seen = 0;
    try {
      for (;;) {
        bool traced = false;
        {
          std::unique_lock<std::mutex> lock(mutex_);
          cv_.wait(lock,
                   [&] { return command_ != seen || stop_ || aborting_; });
          if (stop_ || aborting_) return;
          seen = command_;
          traced = traced_command_;
        }
        if (traced && !traced_runtime) {
          traced_runtime = std::make_unique<kgwas::Runtime>(workers_, true);
        }
        run_rep(comm, traced ? *traced_runtime : runtime, traced);
        {
          const std::lock_guard<std::mutex> lock(mutex_);
          ++done_;
        }
        cv_.notify_all();
      }
    } catch (...) {
      // Release ranks parked between commands so run_ranks can join them;
      // ranks blocked in a collective are woken by the world's poisoning.
      {
        const std::lock_guard<std::mutex> lock(mutex_);
        aborting_ = true;
      }
      cv_.notify_all();
      throw;
    }
  }

  void run_rep(kgwas::dist::Communicator& comm, kgwas::Runtime& rt,
               bool traced) {
    RankOut& out = out_[static_cast<std::size_t>(comm.rank())];
    out = RankOut{};
    if (traced) rt.reset_profiling();
    const kgwas::BatchStats batch_before = rt.batch_stats();
    const kgwas::ProcessGrid grid(comm.size());
    const kgwas::GwasDataset& train = in_.split.train;
    const kgwas::GwasDataset& test = in_.split.test;
    const kgwas::KrrConfig& c = in_.config;
    SpanLog& log = out.spans;

    comm.reset_wire_volume();
    comm.barrier();
    log.scope("rep", [&] {
      kgwas::dist::DistSymmetricTileMatrix k = log.scope("build", [&] {
        return log.scope("dist.build_kernel", [&] {
          return kgwas::dist::dist_build_kernel_matrix(
              rt, comm, grid, train.genotypes, train.confounders, c.build);
        });
      });
      const kgwas::dist::WireVolume before = comm.wire_volume();
      out.assoc = log.scope("associate", [&] {
        return log.scope("dist.associate", [&] {
          kgwas::AssociateResult a = kgwas::dist::dist_associate(
              rt, comm, k, train.phenotypes, c.associate);
          comm.barrier();
          return a;
        });
      });
      out.wire_associate = detail::wire_minus(comm.wire_volume(), before);
      out.predictions = log.scope("predict", [&] {
        kgwas::dist::DistTileMatrix cross = log.scope("dist.cross_kernel", [&] {
          return kgwas::dist::dist_build_cross_kernel(
              rt, comm, grid, test.genotypes, test.confounders,
              train.genotypes, train.confounders, c.build);
        });
        return log.scope("dist.predict", [&] {
          return kgwas::dist::dist_predict(rt, comm, cross,
                                           out.assoc.weights);
        });
      });
    });
    out.wire = comm.wire_volume();
    out.batch = detail::batch_minus(rt.batch_stats(), batch_before);
    if (traced) {
      out.tasks = rt.profiler().spans();
      out.steals = rt.profiler().scheduler_stats().tasks_stolen;
    }
  }

  const Inputs& in_;
  const int ranks_;
  const std::size_t workers_;
  std::vector<RankOut> out_;

  std::mutex mutex_;  // guards every field below and the out_ hand-off
  std::condition_variable cv_;
  std::uint64_t command_ = 0;
  bool traced_command_ = false;
  int done_ = 0;
  bool stop_ = false;
  bool aborting_ = false;
  bool world_down_ = false;
  std::exception_ptr error_;

  std::thread world_;  // last: joins before the state above is destroyed
};

}  // namespace pipebench
