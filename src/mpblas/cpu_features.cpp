#include "mpblas/cpu_features.hpp"

#include <cstdio>
#include <fstream>
#include <string>
#include <thread>

#if defined(__unix__) || defined(__APPLE__)
#include <unistd.h>
#endif

namespace kgwas::mpblas {

namespace {

// Conservative fallbacks when the OS exposes no cache topology: small
// enough to be safe on any 64-bit core of the last 15 years, so the
// analytic blocking model never sizes a panel out of cache.
constexpr std::size_t kFallbackL1d = 32u << 10;
constexpr std::size_t kFallbackL2 = 512u << 10;
constexpr std::size_t kFallbackL3 = 8u << 20;

/// Parses a /sys cache size string ("32K", "1024K", "8M", "512").
std::size_t parse_sysfs_size(const std::string& text) {
  if (text.empty()) return 0;
  std::size_t value = 0;
  std::size_t i = 0;
  while (i < text.size() && text[i] >= '0' && text[i] <= '9') {
    value = value * 10 + static_cast<std::size_t>(text[i] - '0');
    ++i;
  }
  if (i < text.size()) {
    if (text[i] == 'K' || text[i] == 'k') value <<= 10;
    if (text[i] == 'M' || text[i] == 'm') value <<= 20;
    if (text[i] == 'G' || text[i] == 'g') value <<= 30;
  }
  return value;
}

std::string read_first_line(const std::string& path) {
  std::ifstream in(path);
  std::string line;
  if (in && std::getline(in, line)) return line;
  return {};
}

/// Fills the cache sizes from /sys/devices/system/cpu/cpu0/cache (Linux).
/// Returns true when at least L1d was found.
bool probe_sysfs_caches(CpuFeatures& f) {
  bool found = false;
  for (int index = 0; index < 8; ++index) {
    const std::string base =
        "/sys/devices/system/cpu/cpu0/cache/index" + std::to_string(index);
    const std::string level = read_first_line(base + "/level");
    if (level.empty()) break;
    const std::string type = read_first_line(base + "/type");
    const std::size_t size = parse_sysfs_size(read_first_line(base + "/size"));
    if (size == 0) continue;
    if (level == "1" && (type == "Data" || type == "Unified")) {
      f.l1d_bytes = size;
      found = true;
    } else if (level == "2" && type != "Instruction") {
      f.l2_bytes = size;
    } else if (level == "3" && type != "Instruction") {
      f.l3_bytes = size;
    }
  }
  return found;
}

/// sysconf-based probe (glibc exposes the levels as _SC_LEVEL*_CACHE).
bool probe_sysconf_caches(CpuFeatures& f) {
#if defined(_SC_LEVEL1_DCACHE_SIZE)
  const long l1 = ::sysconf(_SC_LEVEL1_DCACHE_SIZE);
  const long l2 = ::sysconf(_SC_LEVEL2_CACHE_SIZE);
  const long l3 = ::sysconf(_SC_LEVEL3_CACHE_SIZE);
  if (l1 > 0) f.l1d_bytes = static_cast<std::size_t>(l1);
  if (l2 > 0) f.l2_bytes = static_cast<std::size_t>(l2);
  if (l3 > 0) f.l3_bytes = static_cast<std::size_t>(l3);
  return l1 > 0;
#else
  (void)f;
  return false;
#endif
}

CpuFeatures probe() {
  CpuFeatures f;

#if (defined(__x86_64__) || defined(__i386__)) && \
    (defined(__GNUC__) || defined(__clang__))
  __builtin_cpu_init();
  f.avx2 = __builtin_cpu_supports("avx2") != 0;
  f.fma = __builtin_cpu_supports("fma") != 0;
  f.avx512f = __builtin_cpu_supports("avx512f") != 0;
  f.avx512bw = __builtin_cpu_supports("avx512bw") != 0;
  f.avx512vnni = __builtin_cpu_supports("avx512vnni") != 0;
#endif
#if defined(__aarch64__) || defined(__ARM_NEON)
  f.neon = true;
#endif

  if (!probe_sysconf_caches(f)) probe_sysfs_caches(f);
  if (f.l1d_bytes == 0) f.l1d_bytes = kFallbackL1d;
  if (f.l2_bytes == 0) f.l2_bytes = kFallbackL2;
  // Some VMs report no L3 at all; treat the L2 as last-level then, but
  // never let the blocking model see a "L3" smaller than L2.
  if (f.l3_bytes < f.l2_bytes) f.l3_bytes = std::max(kFallbackL3, f.l2_bytes);

  const unsigned hw = std::thread::hardware_concurrency();
  f.logical_cores = hw == 0 ? 1 : hw;
  return f;
}

}  // namespace

const CpuFeatures& cpu_features() {
  static const CpuFeatures features = probe();
  return features;
}

}  // namespace kgwas::mpblas
