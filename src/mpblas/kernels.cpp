#include "mpblas/kernels.hpp"

#include <algorithm>
#include <atomic>
#include <cstdint>
#include <cstdlib>
#include <mutex>
#include <optional>
#include <string_view>
#include <type_traits>

#include "common/logging.hpp"
#include "common/status.hpp"
#include "mpblas/cpu_features.hpp"
#include "mpblas/microkernel.hpp"
#include "mpblas/mixed.hpp"
#include "precision/convert.hpp"
#include "tile/tile_pool.hpp"

#if defined(__GNUC__) || defined(__clang__)
#define KGWAS_RESTRICT __restrict__
#else
#define KGWAS_RESTRICT
#endif

namespace kgwas::mpblas::kernels {

namespace {

using detail::MicroKernel;

/// Upper bounds across every compiled variant's micro-tile shape, so the
/// drivers can keep the accumulator block on the stack; resolution
/// checks each variant against them at dispatch time.
constexpr std::size_t kMaxMR = 16;
constexpr std::size_t kMaxNR = 8;

// ------------------------------------------------------- variant dispatch

const MicroKernel* kernel_for(Arch arch) {
  switch (arch) {
    case Arch::kGeneric:
      return detail::generic_microkernel();
    case Arch::kAvx2:
      return detail::avx2_microkernel();
    case Arch::kAvx512:
      return detail::avx512_microkernel();
    case Arch::kNeon:
      return detail::neon_microkernel();
  }
  return nullptr;
}

bool host_supports(Arch arch) {
  const CpuFeatures& f = cpu_features();
  switch (arch) {
    case Arch::kGeneric:
      return true;
    case Arch::kAvx2:
      return f.avx2 && f.fma;
    case Arch::kAvx512:
      return f.avx512f;
    case Arch::kNeon:
      return f.neon;
  }
  return false;
}

bool runnable(Arch arch) {
  return kernel_for(arch) != nullptr && host_supports(arch);
}

constexpr Arch kAllArchs[] = {Arch::kGeneric, Arch::kAvx2, Arch::kAvx512,
                              Arch::kNeon};
// Widest vectors first; kGeneric is the implicit floor.
constexpr Arch kPreferenceOrder[] = {Arch::kAvx512, Arch::kAvx2, Arch::kNeon};

std::optional<Arch> arch_from_name(std::string_view name) {
  if (name == "generic") return Arch::kGeneric;
  if (name == "avx2") return Arch::kAvx2;
  if (name == "avx512") return Arch::kAvx512;
  if (name == "neon") return Arch::kNeon;
  return std::nullopt;
}

std::mutex g_arch_mutex;
std::optional<Arch> g_arch_override;
std::atomic<const MicroKernel*> g_selected{nullptr};

Arch best_available_arch() {
  for (const Arch arch : kPreferenceOrder) {
    if (runnable(arch)) return arch;
  }
  return Arch::kGeneric;
}

Arch resolve_arch_locked() {
  if (g_arch_override) {
    if (runnable(*g_arch_override)) return *g_arch_override;
    KGWAS_LOG_WARN("gemm arch override \""
                   << to_string(*g_arch_override)
                   << "\" is not runnable on this host/binary; using "
                   << to_string(best_available_arch()));
    return best_available_arch();
  }
  // Empty means unset: CI jobs clear a job-level pin with ARCH="".
  if (const char* env = std::getenv("KGWAS_GEMM_ARCH");
      env != nullptr && env[0] != '\0') {
    const std::optional<Arch> parsed = arch_from_name(env);
    if (!parsed) {
      KGWAS_LOG_WARN("ignoring KGWAS_GEMM_ARCH=\""
                     << env << "\": expected generic|avx2|avx512|neon");
    } else if (!runnable(*parsed)) {
      KGWAS_LOG_WARN("KGWAS_GEMM_ARCH="
                     << env << " is not runnable on this host/binary; using "
                     << to_string(best_available_arch()));
    } else {
      return *parsed;
    }
  }
  return best_available_arch();
}

const MicroKernel& selected_kernel() {
  const MicroKernel* cached = g_selected.load(std::memory_order_acquire);
  if (cached != nullptr) return *cached;
  std::lock_guard<std::mutex> lock(g_arch_mutex);
  cached = g_selected.load(std::memory_order_relaxed);
  if (cached != nullptr) return *cached;
  const MicroKernel* resolved = kernel_for(resolve_arch_locked());
  KGWAS_CHECK_ARG(resolved != nullptr && resolved->mr <= kMaxMR &&
                      resolved->nr <= kMaxNR,
                  "gemm dispatch resolved an invalid microkernel variant");
  KGWAS_LOG_DEBUG("gemm engine: variant " << resolved->name << " ("
                                          << resolved->mr << "x" << resolved->nr
                                          << ")");
  g_selected.store(resolved, std::memory_order_release);
  return *resolved;
}

// --------------------------------------------------------------- blocking

std::mutex g_blocking_mutex;
std::optional<Blocking> g_blocking_override;

// Half-occupancy: panels share each cache level with the other operand's
// traffic, the C tile, and whatever else the caller keeps hot.
constexpr std::size_t kOccupancyDivisor = 2;
// The nc cap bounds the footprint-keyed per-thread B pack buffer (nc * kc
// floats); 2048 * kc<=1024 stays under 8 MiB even on huge-L3 hosts.
constexpr std::size_t kMaxNc = 2048;
constexpr std::size_t kMaxMc = 1024;
constexpr std::size_t kMaxKc = 1024;

std::size_t round_down(std::size_t x, std::size_t unit) {
  const std::size_t r = x / unit * unit;
  return r == 0 ? unit : r;
}

// --------------------------------------------------------------- packing

constexpr std::size_t round_up(std::size_t x, std::size_t unit) {
  return (x + unit - 1) / unit * unit;
}

/// Element readers: decode one stored element to FP32.  The narrow float
/// formats go through the precision layer's decode tables, so packed
/// panels carry exactly the values dequantize_buffer would produce.
struct F32Reader {
  const float* p;
  float operator()(std::size_t i) const { return p[i]; }
};
struct F64Reader {
  const double* p;
  float operator()(std::size_t i) const { return static_cast<float>(p[i]); }
};
struct I8Reader {
  const std::int8_t* p;
  float operator()(std::size_t i) const { return static_cast<float>(p[i]); }
};
struct Table8Reader {
  const std::uint8_t* p;
  const float* table;
  float operator()(std::size_t i) const { return table[p[i]]; }
};
struct Table16Reader {
  const std::uint16_t* p;
  const float* table;
  float operator()(std::size_t i) const { return table[p[i]]; }
};

template <typename Fn>
void with_reader(const OperandView& view, Fn&& fn) {
  switch (view.storage) {
    case Precision::kFp32:
      fn(F32Reader{static_cast<const float*>(view.data)});
      return;
    case Precision::kFp64:
      fn(F64Reader{static_cast<const double*>(view.data)});
      return;
    case Precision::kInt8:
      fn(I8Reader{static_cast<const std::int8_t*>(view.data)});
      return;
    case Precision::kFp16:
    case Precision::kBf16:
      fn(Table16Reader{static_cast<const std::uint16_t*>(view.data),
                       decode_table(view.storage)});
      return;
    default:  // FP8 variants, FP4: one storage byte per element
      fn(Table8Reader{static_cast<const std::uint8_t*>(view.data),
                      decode_table(view.storage)});
      return;
  }
}

/// Packs the (i0.., p0..) block of op(A), mb x kb, into `mr`-row
/// micro-panels: panel p holds, for each of the kb columns, mr
/// consecutive row values (rows past mb zero-padded), so the microkernel
/// streams unit-stride regardless of the source trans/stride/precision.
/// `mr` is the selected variant's register-tile height.
template <typename Reader>
void pack_a_block_impl(const Reader& read, Trans trans, std::size_t ld,
                       std::size_t i0, std::size_t p0, std::size_t mb,
                       std::size_t kb, std::size_t mr,
                       float* KGWAS_RESTRICT dst) {
  const std::size_t panels = (mb + mr - 1) / mr;
  for (std::size_t p = 0; p < panels; ++p) {
    const std::size_t row0 = i0 + p * mr;
    const std::size_t rows = std::min(mr, mb - p * mr);
    float* KGWAS_RESTRICT panel = dst + p * mr * kb;
    for (std::size_t l = 0; l < kb; ++l) {
      float* KGWAS_RESTRICT out = panel + l * mr;
      if (trans == Trans::kNoTrans) {
        const std::size_t base = row0 + (p0 + l) * ld;
        for (std::size_t r = 0; r < rows; ++r) out[r] = read(base + r);
      } else {
        const std::size_t col = p0 + l;
        for (std::size_t r = 0; r < rows; ++r) {
          out[r] = read(col + (row0 + r) * ld);
        }
      }
      for (std::size_t r = rows; r < mr; ++r) out[r] = 0.0f;
    }
  }
}

/// Packs the (p0.., j0..) block of op(B), kb x nb, into `nr`-column
/// micro-panels (columns past nb zero-padded).
template <typename Reader>
void pack_b_block_impl(const Reader& read, Trans trans, std::size_t ld,
                       std::size_t p0, std::size_t j0, std::size_t kb,
                       std::size_t nb, std::size_t nr,
                       float* KGWAS_RESTRICT dst) {
  const std::size_t panels = (nb + nr - 1) / nr;
  for (std::size_t q = 0; q < panels; ++q) {
    const std::size_t col0 = j0 + q * nr;
    const std::size_t cols = std::min(nr, nb - q * nr);
    float* KGWAS_RESTRICT panel = dst + q * nr * kb;
    for (std::size_t l = 0; l < kb; ++l) {
      float* KGWAS_RESTRICT out = panel + l * nr;
      if (trans == Trans::kNoTrans) {
        const std::size_t base = p0 + l;
        for (std::size_t c = 0; c < cols; ++c) {
          out[c] = read(base + (col0 + c) * ld);
        }
      } else {
        const std::size_t base = col0 + (p0 + l) * ld;
        for (std::size_t c = 0; c < cols; ++c) out[c] = read(base + c);
      }
      for (std::size_t c = cols; c < nr; ++c) out[c] = 0.0f;
    }
  }
}

/// Tensor-core operand rounding, fused into the pack: the same
/// per-element quantize_inplace as rounding a materialized copy, so values
/// match exactly (padding zeros round to 0).
void round_packed(Precision round_to, float* data, std::size_t n) {
  if (round_to == Precision::kFp32 || round_to == Precision::kFp64) return;
  quantize_inplace(round_to, data, n);
}

void pack_a_block(const OperandView& a, std::size_t i0, std::size_t p0,
                  std::size_t mb, std::size_t kb, std::size_t mr, float* dst) {
  with_reader(a, [&](const auto& read) {
    pack_a_block_impl(read, a.trans, a.ld, i0, p0, mb, kb, mr, dst);
  });
  round_packed(a.round_to, dst, round_up(mb, mr) * kb);
}

void pack_b_block(const OperandView& b, std::size_t p0, std::size_t j0,
                  std::size_t kb, std::size_t nb, std::size_t nr, float* dst) {
  with_reader(b, [&](const auto& read) {
    pack_b_block_impl(read, b.trans, b.ld, p0, j0, kb, nb, nr, dst);
  });
  round_packed(b.round_to, dst, round_up(nb, nr) * kb);
}

// ----------------------------------------------------- pack buffer reuse

/// Per-thread pack buffers, TilePool-backed: tile pipelines hit the same
/// handful of block shapes over and over, so steady-state GEMMs touch the
/// pool not at all (the acceptance test asserts this via pool stats).
/// Under KGWAS_SANITIZE the pool degrades to plain alloc/free, so ASan
/// sees the buffer lifetimes; the thread-local cache then simply holds
/// one live allocation per thread, released at thread exit.
struct ThreadPackBuffer {
  AlignedVector<float> buffer;

  float* ensure(std::size_t elements) {
    if (buffer.size() != elements) {
      if (!buffer.empty()) {
        TilePool::global().release_f32(std::move(buffer));
      }
      buffer = TilePool::global().acquire_f32(elements);
    }
    return buffer.data();
  }

  ~ThreadPackBuffer() {
    if (!buffer.empty()) TilePool::global().release_f32(std::move(buffer));
  }
};

thread_local ThreadPackBuffer t_pack_a;
thread_local ThreadPackBuffer t_pack_b;

/// Per-thread pack buffer sizes: keyed off the *blocking's* full
/// footprint, not the operand shape, so every GEMM under one resolved
/// blocking reuses the same two buffers regardless of its m/n/k — a
/// workload of varied shapes causes zero steady-state pool growth.
std::size_t a_pack_footprint(const Blocking& blk, std::size_t mr) {
  return round_up(blk.mc, mr) * blk.kc;
}

std::size_t b_pack_footprint(const Blocking& blk, std::size_t nr) {
  return round_up(blk.nc, nr) * blk.kc;
}

// ----------------------------------------------------------- microkernel

/// Register-tiled 8 x 6 rank-kb update over packed panels — the portable
/// dispatch floor (Arch::kGeneric).
///
/// The GNU-vector variant keeps the 6 accumulators in named vector
/// variables — one 8-lane vector per micro-tile column — which the
/// compiler maps to registers (split into SSE pairs on baseline x86-64,
/// single ymm under AVX2, FMA-contracted where available).  A plain
/// array-of-float accumulator is NOT equivalent: compilers leave it in
/// memory, turning the inner loop into load/store traffic.  Packed A
/// micro-panels are 32-byte aligned by construction (64-byte-aligned
/// buffers, kMR * sizeof(float) = 32-byte panel rows).
#if defined(__GNUC__) || defined(__clang__)
typedef float V8sf __attribute__((vector_size(8 * sizeof(float))));
static_assert(kMR == 8, "microkernel vector width assumes MR == 8");

void micro_kernel(std::size_t kb, const float* KGWAS_RESTRICT a,
                  const float* KGWAS_RESTRICT b, float* KGWAS_RESTRICT acc) {
  V8sf acc0 = {}, acc1 = {}, acc2 = {}, acc3 = {}, acc4 = {}, acc5 = {};
  static_assert(kNR == 6, "microkernel accumulator count assumes NR == 6");
  const V8sf* KGWAS_RESTRICT ap = reinterpret_cast<const V8sf*>(a);
  for (std::size_t l = 0; l < kb; ++l) {
    const V8sf av = ap[l];
    const float* KGWAS_RESTRICT bp = b + l * kNR;
    acc0 += av * bp[0];
    acc1 += av * bp[1];
    acc2 += av * bp[2];
    acc3 += av * bp[3];
    acc4 += av * bp[4];
    acc5 += av * bp[5];
  }
  V8sf* KGWAS_RESTRICT out = reinterpret_cast<V8sf*>(acc);
  out[0] = acc0;
  out[1] = acc1;
  out[2] = acc2;
  out[3] = acc3;
  out[4] = acc4;
  out[5] = acc5;
}
#else
void micro_kernel(std::size_t kb, const float* KGWAS_RESTRICT a,
                  const float* KGWAS_RESTRICT b, float* KGWAS_RESTRICT acc) {
  for (std::size_t j = 0; j < kNR; ++j) {
    for (std::size_t i = 0; i < kMR; ++i) acc[j * kMR + i] = 0.0f;
  }
  for (std::size_t l = 0; l < kb; ++l) {
    const float* KGWAS_RESTRICT ap = a + l * kMR;
    const float* KGWAS_RESTRICT bp = b + l * kNR;
    for (std::size_t j = 0; j < kNR; ++j) {
      const float blj = bp[j];
      float* KGWAS_RESTRICT accj = acc + j * kMR;
      for (std::size_t i = 0; i < kMR; ++i) accj[i] += ap[i] * blj;
    }
  }
}
#endif

/// One (mb x nb) macro-tile: packed A block x packed B block into C,
/// register-tiled by the selected variant's microkernel.
void macro_gemm(const MicroKernel& uk, std::size_t mb, std::size_t nb,
                std::size_t kb, float alpha, const float* packed_a,
                const float* packed_b, float* c, std::size_t ldc) {
  const std::size_t mr = uk.mr;
  const std::size_t nr = uk.nr;
  const std::size_t m_panels = (mb + mr - 1) / mr;
  const std::size_t n_panels = (nb + nr - 1) / nr;
  for (std::size_t q = 0; q < n_panels; ++q) {
    const std::size_t j0 = q * nr;
    const std::size_t cols = std::min(nr, nb - j0);
    const float* bp = packed_b + q * nr * kb;
    for (std::size_t p = 0; p < m_panels; ++p) {
      const std::size_t i0 = p * mr;
      const std::size_t rows = std::min(mr, mb - i0);
      // Fully written by the microkernel, no pre-zeroing needed.
      alignas(kDefaultAlignment) float acc[kMaxMR * kMaxNR];
      uk.gemm(kb, packed_a + p * mr * kb, bp, acc);
      for (std::size_t j = 0; j < cols; ++j) {
        float* KGWAS_RESTRICT cj = c + i0 + (j0 + j) * ldc;
        const float* KGWAS_RESTRICT accj = acc + j * mr;
        for (std::size_t i = 0; i < rows; ++i) cj[i] += alpha * accj[i];
      }
    }
  }
}

/// Triangle-masked macro-tile for SYRK: (gi0, gj0) are the block's global
/// coordinates in C; micro tiles fully outside the `uplo` triangle are
/// skipped, crossing tiles mask their stores element-wise.
void macro_syrk(const MicroKernel& uk, Uplo uplo, std::size_t gi0,
                std::size_t gj0, std::size_t mb, std::size_t nb,
                std::size_t kb, float alpha, const float* packed_a,
                const float* packed_b, float* c, std::size_t ldc) {
  const std::size_t mr = uk.mr;
  const std::size_t nr = uk.nr;
  const bool lower = uplo == Uplo::kLower;
  const std::size_t m_panels = (mb + mr - 1) / mr;
  const std::size_t n_panels = (nb + nr - 1) / nr;
  for (std::size_t q = 0; q < n_panels; ++q) {
    const std::size_t j0 = q * nr;
    const std::size_t cols = std::min(nr, nb - j0);
    const float* bp = packed_b + q * nr * kb;
    for (std::size_t p = 0; p < m_panels; ++p) {
      const std::size_t i0 = p * mr;
      const std::size_t rows = std::min(mr, mb - i0);
      const std::size_t gi_lo = gi0 + i0;
      const std::size_t gj_lo = gj0 + j0;
      if (lower ? (gi_lo + rows - 1 < gj_lo)
                : (gi_lo > gj_lo + cols - 1)) {
        continue;  // micro tile entirely outside the triangle
      }
      alignas(kDefaultAlignment) float acc[kMaxMR * kMaxNR];
      uk.gemm(kb, packed_a + p * mr * kb, bp, acc);
      for (std::size_t j = 0; j < cols; ++j) {
        const std::size_t gj = gj_lo + j;
        float* cj = c + i0 + (j0 + j) * ldc;
        const float* accj = acc + j * mr;
        for (std::size_t i = 0; i < rows; ++i) {
          const std::size_t gi = gi_lo + i;
          if (lower ? gi >= gj : gi <= gj) cj[i] += alpha * accj[i];
        }
      }
    }
  }
}

// ---------------------------------------------------------------- driver

/// beta * x; the i32 product wraps, like all of the integer path.
float scaled(float x, float beta) { return x * beta; }
std::int32_t scaled(std::int32_t x, std::int32_t beta) {
  return static_cast<std::int32_t>(static_cast<std::uint32_t>(x) *
                                   static_cast<std::uint32_t>(beta));
}

template <typename T>
void scale_c_full(T beta, std::size_t m, std::size_t n, T* c,
                  std::size_t ldc) {
  if (beta == T{1}) return;
  for (std::size_t j = 0; j < n; ++j) {
    T* cj = c + j * ldc;
    if (beta == T{0}) {
      std::fill(cj, cj + m, T{0});
    } else {
      for (std::size_t i = 0; i < m; ++i) cj[i] = scaled(cj[i], beta);
    }
  }
}

template <typename T>
void scale_c_triangle(Uplo uplo, T beta, std::size_t n, T* c,
                      std::size_t ldc) {
  if (beta == T{1}) return;
  const bool lower = uplo == Uplo::kLower;
  for (std::size_t j = 0; j < n; ++j) {
    const std::size_t i_begin = lower ? j : 0;
    const std::size_t i_end = lower ? n : j + 1;
    T* cj = c + j * ldc;
    for (std::size_t i = i_begin; i < i_end; ++i) {
      cj[i] = beta == T{0} ? T{0} : scaled(cj[i], beta);
    }
  }
}

// ------------------------------------------------------------- INT8 path
//
// When both operands are stored as INT8 (and request no tensor-core
// operand rounding — a no-op on integers anyway, but the semantics say
// values pass through quantize_inplace), the engine skips the float
// pipeline.  One packing writes 4-byte k-group panels (layout in
// microkernel.hpp: A as unsigned a + 128, B signed), one microkernel
// computes the offset products (the AVX512-VNNI vpdpbusd kernel under the
// avx512 variant on hosts with AVX512-BW and AVX512-VNNI, the portable
// kernel below everywhere else), and one jc -> pc -> ic nest feeds two
// stores: the exact i32 store behind gemm_i8_i32/syrk_i8_i32 and
// gemm_view's alpha-scaled FP32 store.  The store subtracts 128 *
// colsum(B).  All integer arithmetic wraps modulo 2^32, so the i32 result
// is exact for any INT8 input whose true result fits in i32, and both
// kernels produce identical integers under every variant.

using detail::kI8Group;
using detail::kI8Mr;
using detail::kI8Nr;
using detail::MicroKernelI8Fn;

/// Portable INT8 kernel on the shared panels.  The 4 products of one
/// k-group sum exactly in int (|sum| <= 4 * 255 * 128); the u32
/// accumulators then wrap like vpdpbusd's lanes.
void micro_kernel_i8(std::size_t groups, const std::uint8_t* KGWAS_RESTRICT a,
                     const std::int8_t* KGWAS_RESTRICT b,
                     std::int32_t* KGWAS_RESTRICT acc) {
  std::uint32_t local[kI8Mr * kI8Nr] = {};
  for (std::size_t g = 0; g < groups; ++g) {
    const std::uint8_t* KGWAS_RESTRICT ag = a + g * kI8Mr * kI8Group;
    const std::int8_t* KGWAS_RESTRICT bg = b + g * kI8Nr * kI8Group;
    for (std::size_t j = 0; j < kI8Nr; ++j) {
      const int b0 = bg[j * kI8Group];
      const int b1 = bg[j * kI8Group + 1];
      const int b2 = bg[j * kI8Group + 2];
      const int b3 = bg[j * kI8Group + 3];
      std::uint32_t* KGWAS_RESTRICT accj = local + j * kI8Mr;
      for (std::size_t i = 0; i < kI8Mr; ++i) {
        const std::uint8_t* ai = ag + i * kI8Group;
        accj[i] += static_cast<std::uint32_t>(ai[0] * b0 + ai[1] * b1 +
                                              ai[2] * b2 + ai[3] * b3);
      }
    }
  }
  for (std::size_t x = 0; x < kI8Mr * kI8Nr; ++x) {
    acc[x] = static_cast<std::int32_t>(local[x]);
  }
}

bool vnni_selected() {
  const CpuFeatures& f = cpu_features();
  return selected_kernel().arch == Arch::kAvx512 && f.avx512bw &&
         f.avx512vnni && detail::avx512_vnni_i8_microkernel() != nullptr;
}

MicroKernelI8Fn int8_microkernel() {
  return vnni_selected() ? detail::avx512_vnni_i8_microkernel()
                         : micro_kernel_i8;
}

/// The set_gemm_blocking() override when set, else the analytic blocking
/// of the INT8 micro-tile with one-byte elements.
Blocking int8_blocking() {
  {
    std::lock_guard<std::mutex> lock(g_blocking_mutex);
    if (g_blocking_override) return *g_blocking_override;
  }
  return analytic_blocking(kI8Mr, kI8Nr, sizeof(std::int8_t));
}

std::size_t k_groups(std::size_t kb) { return (kb + kI8Group - 1) / kI8Group; }

/// Packs lines [x0, x0 + xb) x depth [p0, p0 + kb) of an INT8 operand
/// into `width`-line micro-panels of 4-byte k-groups.  A line is a row of
/// op(A) or a column of op(B); element (x, l) sits at
/// src[x * x_stride + l * l_stride].  Every byte is XORed with `flip`
/// (0x80 turns A's signed bytes into a + 128); padding lines and the k
/// remainder hold `flip`, a stored zero.
void pack_i8_block(const std::int8_t* src, std::size_t x_stride,
                   std::size_t l_stride, std::size_t x0, std::size_t xb,
                   std::size_t p0, std::size_t kb, std::size_t width,
                   std::uint8_t flip, std::uint8_t* KGWAS_RESTRICT dst) {
  const std::size_t groups = k_groups(kb);
  const std::size_t panels = (xb + width - 1) / width;
  for (std::size_t p = 0; p < panels; ++p) {
    const std::size_t lines = std::min(width, xb - p * width);
    for (std::size_t g = 0; g < groups; ++g) {
      std::uint8_t* KGWAS_RESTRICT out =
          dst + (p * groups + g) * width * kI8Group;
      const std::int8_t* in =
          src + (x0 + p * width) * x_stride + (p0 + g * kI8Group) * l_stride;
      const std::size_t depth = std::min(kI8Group, kb - g * kI8Group);
      if (x_stride == 1 && depth == kI8Group) {
        // Four contiguous k slices interleave into the groups.
        const std::int8_t* in1 = in + l_stride;
        const std::int8_t* in2 = in1 + l_stride;
        const std::int8_t* in3 = in2 + l_stride;
        for (std::size_t x = 0; x < lines; ++x) {
          out[x * kI8Group] = static_cast<std::uint8_t>(in[x]) ^ flip;
          out[x * kI8Group + 1] = static_cast<std::uint8_t>(in1[x]) ^ flip;
          out[x * kI8Group + 2] = static_cast<std::uint8_t>(in2[x]) ^ flip;
          out[x * kI8Group + 3] = static_cast<std::uint8_t>(in3[x]) ^ flip;
        }
      } else {
        for (std::size_t x = 0; x < lines; ++x) {
          for (std::size_t q = 0; q < kI8Group; ++q) {
            const auto v = static_cast<std::uint8_t>(
                q < depth ? in[x * x_stride + q * l_stride] : 0);
            out[x * kI8Group + q] = v ^ flip;
          }
        }
      }
      std::fill(out + lines * kI8Group, out + width * kI8Group, flip);
    }
  }
}

/// 128 * colsum(op(B)) per packed column, modulo 2^32: what the a + 128
/// encoding of A adds to every dot product of that column.
void column_offsets(const std::uint8_t* packed_b, std::size_t nb,
                    std::size_t groups, std::uint32_t* KGWAS_RESTRICT out) {
  const std::size_t panels = (nb + kI8Nr - 1) / kI8Nr;
  for (std::size_t q = 0; q < panels; ++q) {
    const auto* panel = reinterpret_cast<const std::int8_t*>(
        packed_b + q * groups * kI8Nr * kI8Group);
    // One sum per byte position of a k-group (a plain vector add), folded
    // into the column sums at the end.
    std::uint32_t lane[kI8Nr * kI8Group] = {};
    for (std::size_t g = 0; g < groups; ++g) {
      for (std::size_t x = 0; x < kI8Nr * kI8Group; ++x) {
        lane[x] += static_cast<std::uint32_t>(panel[g * kI8Nr * kI8Group + x]);
      }
    }
    for (std::size_t c = 0; c < kI8Nr; ++c) {
      const std::uint32_t* l = lane + c * kI8Group;
      out[q * kI8Nr + c] = 128u * (l[0] + l[1] + l[2] + l[3]);
    }
  }
}

/// The two stores: each adds alpha * dot to `count` rows of column j of
/// C from row i, where dot = acc - offset is the exact product modulo
/// 2^32.  The i32 store (T = std::int32_t) wraps as well; the FP32 store
/// rounds alpha * float(dot).
template <typename T>
struct Int8Store {
  T alpha;
  T* c;
  std::size_t ldc;
  void operator()(std::size_t i, std::size_t j, std::size_t count,
                  const std::int32_t* KGWAS_RESTRICT acc,
                  std::uint32_t offset) const {
    T* KGWAS_RESTRICT cj = c + i + j * ldc;
    for (std::size_t r = 0; r < count; ++r) {
      const std::uint32_t dot = static_cast<std::uint32_t>(acc[r]) - offset;
      if constexpr (std::is_same_v<T, float>) {
        cj[r] += alpha * static_cast<float>(static_cast<std::int32_t>(dot));
      } else {
        cj[r] = static_cast<std::int32_t>(static_cast<std::uint32_t>(cj[r]) +
                                          static_cast<std::uint32_t>(alpha) *
                                              dot);
      }
    }
  }
};

/// One (mb x nb) INT8 macro-tile at C coordinates (ic, jc).  With a
/// triangle, micro tiles entirely outside it are skipped and crossing
/// tiles store only its rows of each column, as in macro_syrk.
template <typename Store>
void macro_i8(MicroKernelI8Fn uk, std::optional<Uplo> tri, std::size_t ic,
              std::size_t jc, std::size_t mb, std::size_t nb,
              std::size_t groups, const std::uint8_t* packed_a,
              const std::uint8_t* packed_b, const std::uint32_t* offsets,
              const Store& store) {
  const std::size_t m_panels = (mb + kI8Mr - 1) / kI8Mr;
  const std::size_t n_panels = (nb + kI8Nr - 1) / kI8Nr;
  for (std::size_t q = 0; q < n_panels; ++q) {
    const std::size_t j0 = q * kI8Nr;
    const std::size_t cols = std::min(kI8Nr, nb - j0);
    const auto* bp = reinterpret_cast<const std::int8_t*>(
        packed_b + q * groups * kI8Nr * kI8Group);
    for (std::size_t p = 0; p < m_panels; ++p) {
      const std::size_t i0 = p * kI8Mr;
      const std::size_t rows = std::min(kI8Mr, mb - i0);
      const std::size_t gi = ic + i0;
      const std::size_t gj = jc + j0;
      if (tri && (*tri == Uplo::kLower ? gi + rows - 1 < gj
                                       : gi > gj + cols - 1)) {
        continue;  // micro tile entirely outside the triangle
      }
      alignas(kDefaultAlignment) std::int32_t acc[kI8Mr * kI8Nr];
      uk(groups, packed_a + p * groups * kI8Mr * kI8Group, bp, acc);
      for (std::size_t j = 0; j < cols; ++j) {
        // Rows [lo, hi) of this column lie inside the triangle.
        std::size_t lo = 0;
        std::size_t hi = rows;
        if (tri == Uplo::kLower && gj + j > gi) {
          lo = std::min(rows, gj + j - gi);
        } else if (tri == Uplo::kUpper) {
          hi = gj + j < gi ? 0 : std::min(rows, gj + j - gi + 1);
        }
        if (lo < hi) {
          store(gi + lo, gj + j, hi - lo, acc + j * kI8Mr + lo,
                offsets[j0 + j]);
        }
      }
    }
  }
}

/// Byte-pool-backed per-thread buffers for the INT8 panels.  Unlike the
/// FP32 buffers they are not sized to the blocking footprint but grow to
/// the largest block the thread has packed: INT8 products are tile-sized,
/// and a pool buffer is zero-filled, so every byte of it is resident.
/// Steady state touches the pool as little as ThreadPackBuffer does.
struct ThreadPackBytes {
  AlignedVector<std::byte> buffer;

  void* ensure(std::size_t bytes) {
    if (buffer.size() < bytes) {
      if (!buffer.empty()) TilePool::global().release(std::move(buffer));
      buffer = TilePool::global().acquire(bytes);
    }
    return buffer.data();
  }

  ~ThreadPackBytes() {
    if (!buffer.empty()) TilePool::global().release(std::move(buffer));
  }
};

thread_local ThreadPackBytes t_pack_a_i8;
thread_local ThreadPackBytes t_pack_b_i8;

bool int8_fast_path(const OperandView& a, const OperandView& b) {
  const auto passthrough = [](Precision p) {
    return p == Precision::kFp32 || p == Precision::kFp64;
  };
  return a.storage == Precision::kInt8 && b.storage == Precision::kInt8 &&
         passthrough(a.round_to) && passthrough(b.round_to);
}

/// The INT8 jc -> pc -> ic nest over op(A) m x k and op(B) k x n (beta
/// already applied); with `tri`, macro blocks outside the triangle are
/// skipped.  The per-thread buffers hold the largest A block, and the
/// largest B block followed by its column offsets.
template <typename Store>
void gemm_i8_driver(std::size_t m, std::size_t n, std::size_t k,
                    const OperandView& a, const OperandView& b,
                    std::optional<Uplo> tri, const Store& store) {
  const MicroKernelI8Fn uk = int8_microkernel();
  const Blocking blk = int8_blocking();
  const std::size_t kc_bytes = k_groups(std::min(blk.kc, k)) * kI8Group;
  const std::size_t nc_lines = round_up(std::min(blk.nc, n), kI8Nr);
  auto* a_buffer = static_cast<std::uint8_t*>(t_pack_a_i8.ensure(
      round_up(std::min(blk.mc, m), kI8Mr) * kc_bytes));
  const std::size_t b_panel_bytes = nc_lines * kc_bytes;
  auto* b_buffer = static_cast<std::uint8_t*>(t_pack_b_i8.ensure(
      b_panel_bytes + nc_lines * sizeof(std::uint32_t)));
  auto* offsets = reinterpret_cast<std::uint32_t*>(b_buffer + b_panel_bytes);
  const auto* a_src = static_cast<const std::int8_t*>(a.data);
  const auto* b_src = static_cast<const std::int8_t*>(b.data);
  const bool a_trans = a.trans == Trans::kTrans;
  const bool b_trans = b.trans == Trans::kTrans;
  const bool lower = tri == Uplo::kLower;
  for (std::size_t jc = 0; jc < n; jc += blk.nc) {
    const std::size_t nb = std::min(blk.nc, n - jc);
    for (std::size_t pc = 0; pc < k; pc += blk.kc) {
      const std::size_t kb = std::min(blk.kc, k - pc);
      pack_i8_block(b_src, b_trans ? 1 : b.ld, b_trans ? b.ld : 1, jc, nb,
                    pc, kb, kI8Nr, 0, b_buffer);
      column_offsets(b_buffer, nb, k_groups(kb), offsets);
      for (std::size_t ic = 0; ic < m; ic += blk.mc) {
        const std::size_t mb = std::min(blk.mc, m - ic);
        if (tri && (lower ? ic + mb - 1 < jc : ic > jc + nb - 1)) continue;
        pack_i8_block(a_src, a_trans ? a.ld : 1, a_trans ? 1 : a.ld, ic, mb,
                      pc, kb, kI8Mr, 0x80, a_buffer);
        macro_i8(uk, tri, ic, jc, mb, nb, k_groups(kb), a_buffer, b_buffer,
                 offsets, store);
      }
    }
  }
}

}  // namespace

// ---------------------------------------------------------------- detail

namespace detail {

const MicroKernel* generic_microkernel() {
  static const MicroKernel kernel{Arch::kGeneric, "generic", kMR, kNR,
                                  micro_kernel};
  return &kernel;
}

}  // namespace detail

// --------------------------------------------------------- configuration

const char* to_string(Arch arch) {
  switch (arch) {
    case Arch::kGeneric:
      return "generic";
    case Arch::kAvx2:
      return "avx2";
    case Arch::kAvx512:
      return "avx512";
    case Arch::kNeon:
      return "neon";
  }
  return "?";
}

std::vector<Arch> compiled_archs() {
  std::vector<Arch> out;
  for (const Arch arch : kAllArchs) {
    if (kernel_for(arch) != nullptr) out.push_back(arch);
  }
  return out;
}

std::vector<Arch> available_archs() {
  std::vector<Arch> out;
  for (const Arch arch : kAllArchs) {
    if (runnable(arch)) out.push_back(arch);
  }
  return out;
}

Arch selected_arch() { return selected_kernel().arch; }

void set_gemm_arch(std::optional<Arch> arch) {
  std::lock_guard<std::mutex> lock(g_arch_mutex);
  g_arch_override = arch;
  g_selected.store(nullptr, std::memory_order_release);
}

std::size_t gemm_mr() { return selected_kernel().mr; }
std::size_t gemm_nr() { return selected_kernel().nr; }

const char* int8_kernel() { return vnni_selected() ? "avx512_vnni" : "generic"; }

Blocking analytic_blocking(std::size_t mr, std::size_t nr,
                           std::size_t elem_bytes) {
  const CpuFeatures& f = cpu_features();
  const std::size_t kElem = elem_bytes;
  Blocking b;
  // kc: one mr x kc A micro-panel plus one kc x nr B micro-panel live in
  // L1d together with the C micro-tile; target half occupancy.
  b.kc = std::clamp(
      round_down(f.l1d_bytes / (kOccupancyDivisor * kElem * (mr + nr)), kKR),
      kKR, kMaxKc);
  // mc: the packed mc x kc A block is the L2 resident.  Caps are rounded
  // to the micro-tile multiple so the blocking always tiles cleanly, even
  // when it saturates.
  b.mc = std::clamp(round_down(f.l2_bytes / (kOccupancyDivisor * kElem * b.kc),
                               mr),
                    mr, round_down(kMaxMc, mr));
  // nc: the packed kc x nc B block is the L3 resident.
  b.nc = std::clamp(round_down(f.l3_bytes / (kOccupancyDivisor * kElem * b.kc),
                               nr),
                    nr, round_down(kMaxNc, nr));
  return b;
}

Blocking gemm_blocking() {
  {
    std::lock_guard<std::mutex> lock(g_blocking_mutex);
    if (g_blocking_override) return *g_blocking_override;
  }
  const MicroKernel& uk = selected_kernel();
  return analytic_blocking(uk.mr, uk.nr);
}

void set_gemm_blocking(std::optional<Blocking> blocking) {
  std::lock_guard<std::mutex> lock(g_blocking_mutex);
  if (blocking) {
    g_blocking_override = Blocking{std::max<std::size_t>(1, blocking->mc),
                                   std::max<std::size_t>(1, blocking->kc),
                                   std::max<std::size_t>(1, blocking->nc)};
  } else {
    g_blocking_override.reset();
  }
}

// ----------------------------------------------------------- entrypoints

void gemm_view(std::size_t m, std::size_t n, std::size_t k, float alpha,
               const OperandView& a, const OperandView& b, float beta,
               float* c, std::size_t ldc) {
  if (m == 0 || n == 0) return;
  scale_c_full(beta, m, n, c, ldc);
  if (k == 0 || alpha == 0.0f) return;
  if (int8_fast_path(a, b)) {
    gemm_i8_driver(m, n, k, a, b, std::nullopt,
                   Int8Store<float>{alpha, c, ldc});
    return;
  }
  const MicroKernel& uk = selected_kernel();
  const Blocking blk = gemm_blocking();
  float* a_buffer = t_pack_a.ensure(a_pack_footprint(blk, uk.mr));
  float* b_buffer = t_pack_b.ensure(b_pack_footprint(blk, uk.nr));
  for (std::size_t jc = 0; jc < n; jc += blk.nc) {
    const std::size_t nb = std::min(blk.nc, n - jc);
    for (std::size_t pc = 0; pc < k; pc += blk.kc) {
      const std::size_t kb = std::min(blk.kc, k - pc);
      pack_b_block(b, pc, jc, kb, nb, uk.nr, b_buffer);
      for (std::size_t ic = 0; ic < m; ic += blk.mc) {
        const std::size_t mb = std::min(blk.mc, m - ic);
        pack_a_block(a, ic, pc, mb, kb, uk.mr, a_buffer);
        macro_gemm(uk, mb, nb, kb, alpha, a_buffer, b_buffer,
                   c + ic + jc * ldc, ldc);
      }
    }
  }
}

void syrk_view(Uplo uplo, std::size_t n, std::size_t k, float alpha,
               const OperandView& a, float beta, float* c, std::size_t ldc) {
  if (n == 0) return;
  scale_c_triangle(uplo, beta, n, c, ldc);
  if (k == 0 || alpha == 0.0f) return;
  // The right operand is op(A)^T: the same storage with flipped trans.
  OperandView bt = a;
  bt.trans = a.trans == Trans::kNoTrans ? Trans::kTrans : Trans::kNoTrans;
  const bool lower = uplo == Uplo::kLower;
  const MicroKernel& uk = selected_kernel();
  const Blocking blk = gemm_blocking();
  float* a_buffer = t_pack_a.ensure(a_pack_footprint(blk, uk.mr));
  float* b_buffer = t_pack_b.ensure(b_pack_footprint(blk, uk.nr));
  for (std::size_t jc = 0; jc < n; jc += blk.nc) {
    const std::size_t nb = std::min(blk.nc, n - jc);
    for (std::size_t pc = 0; pc < k; pc += blk.kc) {
      const std::size_t kb = std::min(blk.kc, k - pc);
      pack_b_block(bt, pc, jc, kb, nb, uk.nr, b_buffer);
      for (std::size_t ic = 0; ic < n; ic += blk.mc) {
        const std::size_t mb = std::min(blk.mc, n - ic);
        // Skip macro blocks entirely outside the triangle.
        if (lower ? (ic + mb - 1 < jc) : (ic > jc + nb - 1)) continue;
        pack_a_block(a, ic, pc, mb, kb, uk.mr, a_buffer);
        macro_syrk(uk, uplo, ic, jc, mb, nb, kb, alpha, a_buffer, b_buffer,
                   c + ic + jc * ldc, ldc);
      }
    }
  }
}

}  // namespace kgwas::mpblas::kernels

// ------------------------------------------------- INT8 i32 entry points

namespace kgwas {

void gemm_i8_i32(Trans trans_a, Trans trans_b, std::size_t m, std::size_t n,
                 std::size_t k, std::int32_t alpha, const std::int8_t* a,
                 std::size_t lda, const std::int8_t* b, std::size_t ldb,
                 std::int32_t beta, std::int32_t* c, std::size_t ldc) {
  namespace kernels = mpblas::kernels;
  if (m == 0 || n == 0) return;
  kernels::scale_c_full(beta, m, n, c, ldc);
  if (k == 0 || alpha == 0) return;
  kernels::gemm_i8_driver(
      m, n, k, {a, lda, trans_a, Precision::kInt8},
      {b, ldb, trans_b, Precision::kInt8}, std::nullopt,
      kernels::Int8Store<std::int32_t>{alpha, c, ldc});
}

void syrk_i8_i32(Uplo uplo, Trans trans, std::size_t n, std::size_t k,
                 std::int32_t alpha, const std::int8_t* a, std::size_t lda,
                 std::int32_t beta, std::int32_t* c, std::size_t ldc) {
  namespace kernels = mpblas::kernels;
  if (n == 0) return;
  kernels::scale_c_triangle(uplo, beta, n, c, ldc);
  if (k == 0 || alpha == 0) return;
  // The right operand is op(A)^T: the same storage with flipped trans.
  const Trans flipped = trans == Trans::kNoTrans ? Trans::kTrans
                                                 : Trans::kNoTrans;
  kernels::gemm_i8_driver(
      n, n, k, {a, lda, trans, Precision::kInt8},
      {a, lda, flipped, Precision::kInt8}, uplo,
      kernels::Int8Store<std::int32_t>{alpha, c, ldc});
}

}  // namespace kgwas
