// Bench-side layer spans of a traced repetition.
//
// Each call the benchmark makes into a layer gets a span with an id and the
// id of the span that was open when it started (its parent).  Spans are
// opened and closed on one thread and nest strictly, so a span's self time
// is its duration minus the durations of its direct children.
#pragma once

#include <cstdint>
#include <string>
#include <utility>
#include <vector>

#include "common/timer.hpp"

namespace pipebench {

struct Span {
  int id = 0;
  int parent = -1;  ///< -1 for a root span
  std::string name;
  std::uint64_t start_ns = 0;
  std::uint64_t end_ns = 0;

  double seconds() const noexcept {
    return static_cast<double>(end_ns - start_ns) * 1e-9;
  }
};

class SpanLog {
 public:
  /// Runs `fn` inside a span named `name` (child of the innermost open
  /// span) and returns what `fn` returns.
  template <class Fn>
  decltype(auto) scope(std::string name, Fn&& fn) {
    const int id = static_cast<int>(spans_.size());
    spans_.push_back(Span{id, open_.empty() ? -1 : open_.back(),
                          std::move(name), kgwas::Timer::now_ns(), 0});
    open_.push_back(id);
    struct Close {
      SpanLog* log;
      int id;
      ~Close() {
        log->spans_[static_cast<std::size_t>(id)].end_ns =
            kgwas::Timer::now_ns();
        log->open_.pop_back();
      }
    } close{this, id};
    return std::forward<Fn>(fn)();
  }

  const std::vector<Span>& spans() const noexcept { return spans_; }

  /// Duration of the first span named `name` (0 when absent).
  double seconds(const std::string& name) const {
    for (const Span& s : spans_) {
      if (s.name == name) return s.seconds();
    }
    return 0.0;
  }

  /// Duration of span `id` minus the durations of its direct children.
  double self_seconds(int id) const {
    double self = spans_[static_cast<std::size_t>(id)].seconds();
    for (const Span& s : spans_) {
      if (s.parent == id) self -= s.seconds();
    }
    return self;
  }

 private:
  std::vector<Span> spans_;
  std::vector<int> open_;
};

}  // namespace pipebench
