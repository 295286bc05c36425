// Runtime CPU capability probe for the packed GEMM/SYRK engine.
//
// The engine's microkernel variants (mpblas/kernels.hpp) are compiled
// per-ISA into their own translation units and selected at startup from
// what the *running* CPU actually supports — a binary built on an AVX2
// box must pick the AVX-512 kernel when it lands on an AVX-512 host and
// fall back to the portable kernel on anything older.  The engine's
// analytic blocking (kernels::analytic_blocking) additionally needs the
// cache hierarchy of the host to size MC/KC/NC.
//
// The probe runs once per process (first call) and is then immutable.
#pragma once

#include <cstddef>

namespace kgwas::mpblas {

struct CpuFeatures {
  // Vector ISA levels relevant to the compiled-in microkernel variants.
  bool avx2 = false;        ///< AVX2 (x86-64)
  bool fma = false;         ///< FMA3 (x86-64; the AVX2 kernel requires both)
  bool avx512f = false;     ///< AVX-512 Foundation (x86-64)
  bool avx512bw = false;    ///< AVX-512 Byte/Word (x86-64)
  bool avx512vnni = false;  ///< AVX-512 VNNI, vpdpbusd (x86-64; the VNNI
                            ///< INT8 kernel requires it and avx512bw)
  bool neon = false;        ///< NEON/ASIMD (aarch64: always true)

  // Per-core data cache sizes in bytes.  When the OS exposes nothing the
  // probe falls back to conservative defaults (32 KiB / 512 KiB / 8 MiB)
  // so the analytic blocking model always has something sane to work with.
  std::size_t l1d_bytes = 0;
  std::size_t l2_bytes = 0;
  std::size_t l3_bytes = 0;  ///< shared LLC (0 never happens; see fallback)

  std::size_t logical_cores = 1;
};

/// The host's capabilities, probed on first call and cached for the
/// process lifetime.  Never throws; missing information degrades to the
/// documented fallbacks.
const CpuFeatures& cpu_features();

}  // namespace kgwas::mpblas
