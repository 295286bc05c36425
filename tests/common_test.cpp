// Unit tests for src/common: RNG, env parsing, table, CLI, errors.
#include <gtest/gtest.h>

#include <atomic>
#include <cmath>
#include <cstdlib>
#include <functional>
#include <limits>
#include <optional>
#include <set>
#include <sstream>
#include <string>
#include <utility>
#include <vector>

#include "common/aligned_buffer.hpp"
#include "common/cli.hpp"
#include "common/env.hpp"
#include "common/logging.hpp"
#include "common/rng.hpp"
#include "common/status.hpp"
#include "common/table.hpp"
#include "common/timer.hpp"
#include "dist/communicator.hpp"
#include "dist/dist_cholesky.hpp"
#include "dist/dist_krr.hpp"
#include "linalg/precision_policy.hpp"
#include "mpblas/kernels.hpp"

namespace kgwas {
namespace {

TEST(Rng, DeterministicAcrossInstances) {
  Rng a(123), b(123);
  for (int i = 0; i < 100; ++i) {
    EXPECT_EQ(a.generator()(), b.generator()());
  }
}

TEST(Rng, DifferentSeedsDiffer) {
  Rng a(1), b(2);
  int same = 0;
  for (int i = 0; i < 64; ++i) {
    if (a.generator()() == b.generator()()) ++same;
  }
  EXPECT_EQ(same, 0);
}

TEST(Rng, UniformRange) {
  Rng rng(7);
  for (int i = 0; i < 10000; ++i) {
    const double u = rng.uniform();
    ASSERT_GE(u, 0.0);
    ASSERT_LT(u, 1.0);
  }
}

TEST(Rng, UniformIndexBounds) {
  Rng rng(7);
  std::set<std::uint64_t> seen;
  for (int i = 0; i < 1000; ++i) {
    const auto v = rng.uniform_index(10);
    ASSERT_LT(v, 10u);
    seen.insert(v);
  }
  EXPECT_EQ(seen.size(), 10u);  // all values hit
}

TEST(Rng, NormalMoments) {
  Rng rng(99);
  const int n = 200000;
  double sum = 0.0, sum_sq = 0.0;
  for (int i = 0; i < n; ++i) {
    const double x = rng.normal();
    sum += x;
    sum_sq += x * x;
  }
  EXPECT_NEAR(sum / n, 0.0, 0.02);
  EXPECT_NEAR(sum_sq / n, 1.0, 0.03);
}

TEST(Rng, BinomialMean) {
  Rng rng(5);
  const int n = 50000;
  double sum = 0.0;
  for (int i = 0; i < n; ++i) sum += rng.binomial(2, 0.3);
  EXPECT_NEAR(sum / n, 0.6, 0.02);
}

TEST(Rng, GammaMeanAndVariance) {
  Rng rng(11);
  const double shape = 2.5;
  const int n = 100000;
  double sum = 0.0, sum_sq = 0.0;
  for (int i = 0; i < n; ++i) {
    const double x = rng.gamma(shape);
    sum += x;
    sum_sq += x * x;
  }
  const double mean = sum / n;
  EXPECT_NEAR(mean, shape, 0.05);
  EXPECT_NEAR(sum_sq / n - mean * mean, shape, 0.12);
}

TEST(Rng, BetaInUnitIntervalWithCorrectMean) {
  Rng rng(13);
  const double a = 2.0, b = 6.0;
  const int n = 50000;
  double sum = 0.0;
  for (int i = 0; i < n; ++i) {
    const double x = rng.beta(a, b);
    ASSERT_GE(x, 0.0);
    ASSERT_LE(x, 1.0);
    sum += x;
  }
  EXPECT_NEAR(sum / n, a / (a + b), 0.01);
}

TEST(Rng, PoissonMean) {
  Rng rng(17);
  const int n = 50000;
  double small_sum = 0.0, large_sum = 0.0;
  for (int i = 0; i < n; ++i) small_sum += static_cast<double>(rng.poisson(3.0));
  for (int i = 0; i < n; ++i) large_sum += static_cast<double>(rng.poisson(80.0));
  EXPECT_NEAR(small_sum / n, 3.0, 0.06);
  EXPECT_NEAR(large_sum / n, 80.0, 0.5);
}

TEST(Rng, SplitStreamsAreIndependent) {
  Rng parent(42);
  Rng child = parent.split();
  int same = 0;
  for (int i = 0; i < 64; ++i) {
    if (parent.generator()() == child.generator()()) ++same;
  }
  EXPECT_EQ(same, 0);
}

TEST(AlignedBuffer, AlignmentAndUsability) {
  AlignedVector<double> v(1000, 1.5);
  EXPECT_EQ(reinterpret_cast<std::uintptr_t>(v.data()) % kDefaultAlignment, 0u);
  EXPECT_EQ(v.size(), 1000u);
  EXPECT_DOUBLE_EQ(v[999], 1.5);
  v.push_back(2.0);
  EXPECT_EQ(v.size(), 1001u);
}

// RAII environment variable override for the env parsing tests.
class ScopedEnv {
 public:
  ScopedEnv(const char* name, const char* value) : name_(name) {
    const char* old = std::getenv(name);
    if (old != nullptr) saved_ = old;
    had_value_ = old != nullptr;
    if (value != nullptr) {
      ::setenv(name, value, 1);
    } else {
      ::unsetenv(name);
    }
  }
  ~ScopedEnv() {
    if (had_value_) {
      ::setenv(name_.c_str(), saved_.c_str(), 1);
    } else {
      ::unsetenv(name_.c_str());
    }
  }

 private:
  std::string name_;
  std::string saved_;
  bool had_value_ = false;
};

TEST(Env, UnsetUsesFallback) {
  ScopedEnv guard("KGWAS_TEST_KNOB", nullptr);
  EXPECT_EQ(env_size_t("KGWAS_TEST_KNOB", 7), 7u);
}

TEST(Env, ParsesPlainAndPaddedIntegers) {
  {
    ScopedEnv guard("KGWAS_TEST_KNOB", "42");
    EXPECT_EQ(env_size_t("KGWAS_TEST_KNOB", 7), 42u);
  }
  {
    ScopedEnv guard("KGWAS_TEST_KNOB", "  42  ");
    EXPECT_EQ(env_size_t("KGWAS_TEST_KNOB", 7), 42u);
  }
  {
    ScopedEnv guard("KGWAS_TEST_KNOB", "0");
    EXPECT_EQ(env_size_t("KGWAS_TEST_KNOB", 7), 0u);
  }
}

TEST(Env, NegativeValuesFallBackInsteadOfWrapping) {
  ScopedEnv guard("KGWAS_TEST_KNOB", "-1");
  EXPECT_EQ(env_size_t("KGWAS_TEST_KNOB", 7), 7u);
}

TEST(Env, ExplicitPlusSignFallsBack) {
  ScopedEnv guard("KGWAS_TEST_KNOB", "+3");
  EXPECT_EQ(env_size_t("KGWAS_TEST_KNOB", 7), 7u);
}

TEST(Env, OverflowFallsBackInsteadOfSaturating) {
  // 2^64 = 18446744073709551616 overflows unsigned long long.
  ScopedEnv guard("KGWAS_TEST_KNOB", "18446744073709551616");
  EXPECT_EQ(env_size_t("KGWAS_TEST_KNOB", 7), 7u);
  ScopedEnv guard2("KGWAS_TEST_KNOB", "99999999999999999999999999");
  EXPECT_EQ(env_size_t("KGWAS_TEST_KNOB", 7), 7u);
}

TEST(Env, GarbageFallsBack) {
  for (const char* bad : {"", "  ", "abc", "12abc", "3 4", "0x10", "1.5"}) {
    ScopedEnv guard("KGWAS_TEST_KNOB", bad);
    EXPECT_EQ(env_size_t("KGWAS_TEST_KNOB", 7), 7u) << "value: '" << bad << "'";
  }
}

TEST(Env, MaxRepresentableValueParses) {
  ScopedEnv guard("KGWAS_TEST_KNOB", "18446744073709551615");  // 2^64 - 1
  EXPECT_EQ(env_size_t("KGWAS_TEST_KNOB", 7),
            std::numeric_limits<std::size_t>::max());
}

TEST(Env, CheckpointIntervalParsesStrictly) {
  {
    ScopedEnv guard("KGWAS_CKPT_INTERVAL", nullptr);
    EXPECT_EQ(dist::configured_checkpoint_interval(), 4);
  }
  {
    ScopedEnv guard("KGWAS_CKPT_INTERVAL", " 7 ");
    EXPECT_EQ(dist::configured_checkpoint_interval(), 7);
  }
  // Malformed values and 0 warn and keep the default instead of becoming
  // a surprising interval ("abc" used to parse as 1, "4x" as 4).
  for (const char* bad : {"abc", "4x", "0", "-2", "+3", "1.5"}) {
    ScopedEnv guard("KGWAS_CKPT_INTERVAL", bad);
    EXPECT_EQ(dist::configured_checkpoint_interval(), 4) << "value: '" << bad
                                                          << "'";
  }
}

TEST(Env, FaultToleranceKnobParsesStrictly) {
  // A 1-rank world with no fault plan, so only KGWAS_FT decides.  The
  // knob is a non-negative integer: non-zero turns checkpointing on, and
  // malformed values ("false", "-1") warn and leave it off instead of
  // being judged by their first character.
  const auto requested = [] {
    bool on = false;
    dist::run_ranks(1, [&on](dist::Communicator& comm) {
      on = dist::fault_tolerance_requested(comm);
    });
    return on;
  };
  const std::pair<const char*, bool> cases[] = {
      {nullptr, false}, {"", false},     {"0", false},     {"1", true},
      {" 2 ", true},    {"01", true},    {"false", false}, {"-1", false}};
  for (const auto& [value, want] : cases) {
    ScopedEnv guard("KGWAS_FT", value);
    EXPECT_EQ(requested(), want)
        << "value: " << (value == nullptr ? "unset" : value);
  }
}

/// What the logger writes to stderr at warning level while `body` runs.
std::string captured_warnings(const std::function<void()>& body) {
  const LogLevel level = log_level();
  set_log_level(LogLevel::kWarn);
  testing::internal::CaptureStderr();
  body();
  std::string out = testing::internal::GetCapturedStderr();
  set_log_level(level);
  return out;
}

TEST(Env, EveryNumericKnobWarnsOnMalformedValue) {
  // Each numeric knob, the call that reads it, the default it keeps, a
  // value it accepts, and values it rejects.  A rejected value must warn
  // with the knob, the value and the default instead of defaulting
  // silently; an accepted one stays quiet.
  struct Knob {
    const char* name;
    std::function<void()> read;
    const char* fallback;
    const char* good;
    std::vector<const char*> bad;
  };
  const auto in_world = [](const std::function<void(dist::Communicator&)>& f) {
    return [f] { dist::run_ranks(1, f); };
  };
  const std::vector<Knob> knobs = {
      {"KGWAS_RANKS", [] { EXPECT_EQ(dist::configured_ranks(), 1); }, "1",
       nullptr, {"abc", "-1", "4x", "0", "999"}},
      {"KGWAS_DIST_WORKERS",
       [] { EXPECT_GE(dist::configured_workers_per_rank(1), 1u); }, "0", "2",
       {"abc", "-1", "4x"}},
      {"KGWAS_COMM_TIMEOUT_MS", in_world([](dist::Communicator&) {}), "0",
       "20", {"abc", "-1", "4x"}},
      {"KGWAS_COMM_RETRIES", in_world([](dist::Communicator&) {}), "4", "1",
       {"abc", "-1", "4x"}},
      {"KGWAS_FT", in_world([](dist::Communicator& comm) {
         EXPECT_FALSE(dist::fault_tolerance_requested(comm));
       }),
       "0", "0", {"abc", "-1", "4x"}},
      {"KGWAS_CKPT_INTERVAL",
       [] { EXPECT_EQ(dist::configured_checkpoint_interval(), 4); }, "4",
       nullptr, {"abc", "-1", "4x", "0"}},
      {"KGWAS_TLR_TOL",
       [] { EXPECT_DOUBLE_EQ(tlr_policy_from_env().tol, 0.0); }, "0",
       nullptr, {"abc", "-1", "4x", "1"}},
      {"KGWAS_TLR_MAX_RANK_FRACTION",
       [] { EXPECT_DOUBLE_EQ(tlr_policy_from_env().max_rank_fraction, 0.5); },
       "0.5", nullptr, {"abc", "-1", "4x"}},
  };
  for (const Knob& knob : knobs) {
    for (const char* bad : knob.bad) {
      ScopedEnv guard(knob.name, bad);
      const std::string warning = captured_warnings(knob.read);
      EXPECT_NE(warning.find(std::string(knob.name) + "='" + bad + "'"),
                std::string::npos)
          << knob.name << "=" << bad << " did not warn: " << warning;
      EXPECT_NE(warning.find(std::string("keeping the default ") +
                             knob.fallback),
                std::string::npos)
          << knob.name << "=" << bad << ": " << warning;
    }
    if (knob.good != nullptr) {
      ScopedEnv guard(knob.name, knob.good);
      EXPECT_EQ(captured_warnings(knob.read), "") << knob.name;
    }
  }
}

TEST(Env, GemmBlockingProgrammaticOverrideBeatsEnv) {
  // The engine reads no blocking knobs from the environment: a stale
  // KGWAS_GEMM_MC is ignored and the set_gemm_blocking() value, exempt
  // from the kKR granularity rule, is returned verbatim.
  ScopedEnv mc("KGWAS_GEMM_MC", "64");
  mpblas::kernels::set_gemm_blocking(mpblas::kernels::Blocking{12, 18, 30});
  const auto blk = mpblas::kernels::gemm_blocking();
  mpblas::kernels::set_gemm_blocking(std::nullopt);
  EXPECT_EQ(blk.mc, 12u);
  EXPECT_EQ(blk.kc, 18u);
  EXPECT_EQ(blk.nc, 30u);
}

TEST(Table, AlignedRenderAndCsv) {
  Table table({"name", "value"});
  table.add_row({"alpha", Table::num(1.23456, 3)});
  table.add_row({"a-much-longer-name", "2"});
  std::ostringstream text, csv;
  table.print(text);
  table.print_csv(csv);
  EXPECT_NE(text.str().find("alpha"), std::string::npos);
  EXPECT_NE(text.str().find("1.235"), std::string::npos);
  EXPECT_EQ(csv.str().substr(0, 11), "name,value\n");
  EXPECT_THROW(table.add_row({"only-one-cell"}), InvalidArgument);
}

TEST(Cli, ParsesFlagsAndPositionals) {
  // Note: `--flag value` is greedy, so positionals must precede boolean
  // flags (or use --flag=true).
  const char* argv[] = {"prog", "positional", "--n=42", "--gamma", "0.5",
                        "--verbose"};
  CliArgs args(6, argv);
  EXPECT_EQ(args.get_long("n", 0), 42);
  EXPECT_DOUBLE_EQ(args.get_double("gamma", 0.0), 0.5);
  EXPECT_TRUE(args.get_bool("verbose", false));
  EXPECT_EQ(args.get("missing", "fallback"), "fallback");
  ASSERT_EQ(args.positional().size(), 1u);
  EXPECT_EQ(args.positional()[0], "positional");
}

TEST(Status, CheckArgThrowsWithContext) {
  try {
    KGWAS_CHECK_ARG(1 == 2, "one is not two");
    FAIL() << "expected throw";
  } catch (const InvalidArgument& e) {
    EXPECT_NE(std::string(e.what()).find("one is not two"), std::string::npos);
  }
}

TEST(Timer, MeasuresElapsed) {
  Timer t;
  double sink = 0.0;
  for (int i = 0; i < 100000; ++i) sink += std::sqrt(static_cast<double>(i));
  EXPECT_GT(t.seconds(), 0.0);
  EXPECT_GT(sink, 0.0);
}

}  // namespace
}  // namespace kgwas
